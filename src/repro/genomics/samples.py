"""The on-disk sample representation of GenomeAtScale.

"GenomeAtScale includes infrastructure to produce files with a sorted
numerical representation for each data sample.  Each processor is
responsible for reading in a subset of these files, scanning through one
batch at a time." (§IV)

A :class:`SampleStore` is a directory of ``.npy`` files (one sorted
int64 k-mer-code array per sample) plus a small JSON manifest recording
``k``, canonicalization, and the sample names.  It plugs directly into
the core pipeline through :class:`~repro.core.indicator.FileSource`.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from repro.core.indicator import FileSource
from repro.genomics.kmer import kmer_space_size
from repro.util.arrays import unique_sorted

MANIFEST_NAME = "manifest.json"


@dataclass
class SampleStore:
    """A directory of sorted numeric sample files."""

    root: Path
    k: int
    canonical: bool
    names: list[str]

    @classmethod
    def create(
        cls, root: str | Path, k: int, canonical: bool = True
    ) -> "SampleStore":
        root = Path(root)
        root.mkdir(parents=True, exist_ok=True)
        store = cls(root=root, k=k, canonical=canonical, names=[])
        store._write_manifest()
        return store

    @classmethod
    def open(cls, root: str | Path) -> "SampleStore":
        root = Path(root)
        manifest = root / MANIFEST_NAME
        if not manifest.exists():
            raise FileNotFoundError(f"no sample store at {root}")
        meta = json.loads(manifest.read_text())
        return cls(
            root=root,
            k=int(meta["k"]),
            canonical=bool(meta["canonical"]),
            names=list(meta["names"]),
        )

    def _write_manifest(self) -> None:
        payload = {"k": self.k, "canonical": self.canonical, "names": self.names}
        (self.root / MANIFEST_NAME).write_text(json.dumps(payload, indent=2))

    def _path(self, name: str) -> Path:
        return self.root / f"{name}.npy"

    # ---- content ------------------------------------------------------

    def add_sample(self, name: str, kmer_codes: np.ndarray) -> None:
        """Store one sample's sorted, deduplicated k-mer codes."""
        if name in self.names:
            raise ValueError(f"sample {name!r} already present")
        codes = unique_sorted(np.asarray(kmer_codes, dtype=np.int64))
        if codes.size and (codes[0] < 0 or codes[-1] >= kmer_space_size(self.k)):
            raise ValueError(
                f"sample {name!r} has codes outside [0, 4^{self.k})"
            )
        np.save(self._path(name), codes)
        self.names.append(name)
        self._write_manifest()

    def load_sample(self, name: str) -> np.ndarray:
        if name not in self.names:
            raise KeyError(f"unknown sample {name!r}")
        return np.load(self._path(name))

    @property
    def n_samples(self) -> int:
        return len(self.names)

    @property
    def m(self) -> int:
        """Attribute-space size ``4^k`` of the indicator matrix."""
        return kmer_space_size(self.k)

    def total_bytes(self) -> int:
        """On-disk footprint of all sample files."""
        return sum(self._path(n).stat().st_size for n in self.names)

    def as_source(self) -> FileSource:
        """A batched indicator source over this store's files."""
        if not self.names:
            raise ValueError("sample store is empty")
        return FileSource([self._path(n) for n in self.names], m=self.m)
