"""Versioned on-disk similarity index store (the persistence layer).

The batch engine computes an all-pairs result that dies with the
process; the serving layer persists it.  An :class:`IndexStore` is a
directory holding

* ``manifest.json`` — format version, a monotonically increasing
  **store version** (bumped on every mutation; query caches key on it),
  the attribute-space size ``m``, the wire-codec policy, the sketch
  configuration, arbitrary metadata (e.g. ``k`` for genomic stores),
  and one entry per genome (name, shard file, exact distinct-value
  count, tombstone flag);
* ``shards/<id>.bin`` — one shard per genome: the genome's sorted
  attribute values (its packed indicator column) followed by its
  sketches, each persisted as a **codec frame** from
  :mod:`repro.runtime.codec` — the store rides the exact varint / RLE /
  adaptive policies the wire uses, so a sorted k-mer column is stored
  delta+varint-compressed, not raw;
* ``gram-<version>.bin`` — optionally, the persisted all-pairs result:
  the exact intersection-count matrix ``B`` and size vector ``a-hat``
  over a recorded genome order (what
  :mod:`repro.service.incremental` merges border blocks into);
* ``lsh-<version>.bin`` — when the ``bbit_minhash`` family is stored,
  the banded LSH bucket tables of :mod:`repro.service.lsh` over the
  live genomes, maintained incrementally on ``append_many`` /
  ``remove`` and rebuilt from the stored fingerprints on ``compact``.

Shard files are sequences of length-prefixed frame records
(``<u64 little-endian frame length><frame bytes>``); the frame headers
are self-describing, so a shard can be decoded with no side channel
beyond the record order, which is fixed per store (values first, then
one sketch per configured family).

``remove`` only tombstones an entry (and drops its row/column from the
stored Gram, which is exact); ``compact`` rewrites the store without
the tombstoned shards.

Concurrency: every mutation (``append_many`` / ``remove`` / ``compact``
/ ``set_gram``) and :meth:`IndexStore.snapshot` hold one store-level
re-entrant lock, so a snapshot never observes a half-applied batch
(``append_many`` appends entries one by one before its single version
bump).  A :class:`StoreSnapshot` is the frozen view a query batch is
admitted under: shard files are append-only and immutable, so a
snapshot stays readable after later appends — only ``compact`` (which
unlinks shards) invalidates older snapshots, and running it with
queries in flight is unsupported.

Crash consistency: every file lands via write-to-temp + ``os.replace``
(:func:`_atomic_write_bytes`), derived artifacts (Gram, LSH tables)
are written to *fresh version-stamped names* before the manifest, and
the atomic manifest replacement is the single commit point of every
mutation — an interrupted write anywhere leaves the previous manifest
referencing only fully-written files, so the store reopens at the
previous version with no torn state (fault-injected in
``tests/service/test_store.py``).  Files superseded by a committed
mutation are unlinked only after the manifest lands; a crash during
cleanup merely leaks an unreferenced file.
"""

from __future__ import annotations

import json
import os
import struct
import threading
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from repro.core.sketch import SKETCH_ESTIMATORS, make_sketch, unpack_lanes
from repro.runtime.codec import WIRE_CODECS, decode_frame, encode_frame
from repro.semantics.weighted import coerce_counts
from repro.semantics.wminhash import (
    WEIGHTED_MINHASH_FAMILY,
    WeightedMinHashSketch,
)
from repro.service.errors import StoreError
from repro.service.lsh import LSHTable, plan_bands

__all__ = [
    "GenomeEntry",
    "IndexStore",
    "StoreError",
    "StoreSnapshot",
]

MANIFEST_NAME = "manifest.json"
SHARD_DIR = "shards"
GRAM_NAME = "gram.bin"

#: The sketch family whose stored lane fingerprints the banded LSH
#: table (:mod:`repro.service.lsh`) is built over.
LSH_FAMILY = "bbit_minhash"

#: Families a store may persist: the core sketch estimators plus the
#: opt-in weighted-MinHash family (built from abundance counts at
#: append time; see :mod:`repro.semantics.wminhash`).
STORE_FAMILIES = SKETCH_ESTIMATORS + (WEIGHTED_MINHASH_FAMILY,)

#: On-disk layout revision of the store itself (not the store version).
FORMAT_VERSION = 1

_LEN = struct.Struct("<Q")


def _atomic_write_bytes(path: Path, data: bytes) -> None:
    """Write a file so it is either fully present or not (crash-safe).

    Bytes land in a same-directory temp file, fsync'd, then renamed
    over the target: a crash mid-write leaves only the temp file, never
    a torn target.  This is the single byte sink of every store write
    (shards, Gram, LSH tables, the manifest) — the fault-injection
    tests monkeypatch it.
    """
    tmp = path.with_name(path.name + ".tmp")
    with open(tmp, "wb") as f:
        f.write(data)
        f.flush()
        os.fsync(f.fileno())
    os.replace(tmp, path)


# ---- length-prefixed frame records ---------------------------------------


def write_records(path: Path, payloads: list, policy: str) -> int:
    """Encode each payload as a codec frame; write length-prefixed records.

    Returns the number of bytes written.  ``policy`` is a
    :data:`~repro.runtime.codec.WIRE_CODECS` name; ``"raw"`` stores
    unencoded frames (still self-describing).  The write is atomic —
    the file appears fully written or not at all.
    """
    blob = bytearray()
    for payload in payloads:
        frame = encode_frame(payload, policy)
        blob += _LEN.pack(frame.nbytes)
        blob += frame.data
    _atomic_write_bytes(path, bytes(blob))
    return len(blob)


def read_records(path: Path) -> list:
    """Decode every length-prefixed frame record of a shard file."""
    blob = path.read_bytes()
    out = []
    offset = 0
    while offset < len(blob):
        if offset + _LEN.size > len(blob):
            raise StoreError(f"{path}: truncated record length at {offset}")
        (length,) = _LEN.unpack_from(blob, offset)
        offset += _LEN.size
        if offset + length > len(blob):
            raise StoreError(f"{path}: truncated record body at {offset}")
        out.append(decode_frame(bytes(blob[offset : offset + length])))
        offset += length
    return out


def read_record(path: Path, index: int):
    """Decode only record ``index``, seeking past earlier records unread.

    The length prefixes make skipping free — loading one genome's
    sketch payload does not pay for decoding its (much larger) value
    column.
    """
    with path.open("rb") as f:
        for skipped in range(index):
            header = f.read(_LEN.size)
            if len(header) < _LEN.size:
                raise StoreError(
                    f"{path}: holds only {skipped} record(s), "
                    f"need index {index}"
                )
            (length,) = _LEN.unpack(header)
            f.seek(length, 1)
        header = f.read(_LEN.size)
        if len(header) < _LEN.size:
            raise StoreError(
                f"{path}: holds only {index} record(s), need index {index}"
            )
        (length,) = _LEN.unpack(header)
        body = f.read(length)
        if len(body) < length:
            raise StoreError(f"{path}: truncated record body at {f.tell()}")
        return decode_frame(body)


def _as_values(values) -> np.ndarray:
    """Coerce any iterable of non-negative ints to sorted unique int64."""
    if isinstance(values, np.ndarray):
        arr = values.astype(np.int64, copy=False)
    else:
        arr = np.asarray(sorted(values), dtype=np.int64)
    return np.unique(arr)


def _normalize_item(item) -> tuple[str, np.ndarray, np.ndarray | None]:
    """Normalize one append item: ``(name, values[, counts])``.

    Returns ``(name, sorted unique values, counts | None)``; counts
    that carry no multiplicity (all 1) normalize to ``None`` so the
    on-disk layout of unweighted appends never changes.
    """
    name, values, *rest = item
    counts = rest[0] if rest else None
    if counts is None:
        return name, _as_values(values), None
    vals, cnts = coerce_counts(values, counts)
    if not bool((cnts > 1).any()):
        return name, vals, None
    return name, vals, cnts


@dataclass
class GenomeEntry:
    """One genome's manifest record.

    ``mass`` is the total k-mer abundance (``sum`` of the stored
    counts); ``None`` — and every manifest written before counts
    existed — means "no abundance stored", in which case the mass
    equals the support size ``n_values``.  The invariant the readers
    rely on: a counts record exists on disk iff
    ``total_mass != n_values``.
    """

    name: str
    shard: str
    n_values: int
    removed: bool = False
    mass: int | None = None

    @property
    def total_mass(self) -> int:
        """Total abundance; the support size when no counts are stored."""
        return self.n_values if self.mass is None else self.mass

    def to_json(self) -> dict:
        return {
            "name": self.name,
            "shard": self.shard,
            "n_values": self.n_values,
            "removed": self.removed,
            "mass": self.total_mass,
        }

    @classmethod
    def from_json(cls, data: dict) -> "GenomeEntry":
        return cls(
            name=str(data["name"]),
            shard=str(data["shard"]),
            n_values=int(data["n_values"]),
            removed=bool(data["removed"]),
            mass=int(data.get("mass", data["n_values"])),
        )


@dataclass
class IndexStore:
    """A directory of codec-framed genome shards plus a manifest.

    ``families`` names the sketch estimators persisted per genome (in
    shard record order, after the values record); the query engine's
    sketch prefilter can use any stored family.
    """

    root: Path
    m: int
    codec: str
    sketch_size: int
    sketch_bits: int
    sketch_seed: int
    families: tuple[str, ...]
    metadata: dict
    entries: list[GenomeEntry] = field(default_factory=list)
    version: int = 0
    next_shard: int = 0
    gram_names: list[str] | None = None
    #: Version-stamped Gram artifact (``gram-<v>.bin``); ``None`` until
    #: a Gram is stored.  Legacy manifests fall back to ``gram.bin``.
    gram_file: str | None = None
    #: Banded-LSH planning target + false-negative budget (see
    #: :func:`repro.service.lsh.plan_bands`) and the version-stamped
    #: table artifact (``lsh-<v>.bin``); the table exists iff the
    #: :data:`LSH_FAMILY` sketches are stored.
    lsh_threshold: float = 0.5
    lsh_fn_budget: float = 0.05
    lsh_file: str | None = None
    _lsh: "LSHTable | None" = field(
        default=None, init=False, repr=False, compare=False
    )
    _lock: threading.RLock = field(
        default_factory=threading.RLock, init=False, repr=False,
        compare=False,
    )
    #: When this store is one band of a :class:`~repro.service.sharded.
    #: ShardedStore`, its own manifest bump is *not* the durable commit
    #: point — the parent's top-level manifest is.  The parent sets this
    #: flag so post-commit cleanup of superseded files is deferred into
    #: :attr:`_deferred_stale` until the parent commits (see
    #: :meth:`drain_deferred`); a crash before the parent's commit must
    #: leave every file the parent's embedded shard manifests reference.
    _defer_cleanup: bool = field(
        default=False, init=False, repr=False, compare=False
    )
    _deferred_stale: list = field(
        default_factory=list, init=False, repr=False, compare=False
    )
    #: The snapshot of the current version (see :meth:`snapshot`).
    _snapshot: "StoreSnapshot | None" = field(
        default=None, init=False, repr=False, compare=False
    )

    # ---- lifecycle ----------------------------------------------------

    @classmethod
    def create(
        cls,
        root: str | Path,
        m: int,
        codec: str = "adaptive",
        sketch_size: int = 256,
        sketch_bits: int = 8,
        sketch_seed: int = 0,
        families: tuple[str, ...] = SKETCH_ESTIMATORS,
        metadata: dict | None = None,
        lsh_threshold: float = 0.5,
        lsh_fn_budget: float = 0.05,
    ) -> "IndexStore":
        root = Path(root)
        if (root / MANIFEST_NAME).exists():
            raise StoreError(f"an index store already exists at {root}")
        if m <= 0:
            raise StoreError(f"m must be positive, got {m}")
        if codec not in WIRE_CODECS:
            raise StoreError(
                f"codec must be one of {WIRE_CODECS}, got {codec!r}"
            )
        families = tuple(families)
        for fam in families:
            if fam not in STORE_FAMILIES:
                raise StoreError(
                    f"sketch family must be one of {STORE_FAMILIES}, "
                    f"got {fam!r}"
                )
        if not families:
            raise StoreError("need at least one sketch family")
        (root / SHARD_DIR).mkdir(parents=True, exist_ok=True)
        store = cls(
            root=root, m=int(m), codec=codec,
            sketch_size=int(sketch_size), sketch_bits=int(sketch_bits),
            sketch_seed=int(sketch_seed), families=families,
            metadata=dict(metadata or {}),
            lsh_threshold=float(lsh_threshold),
            lsh_fn_budget=float(lsh_fn_budget),
        )
        if LSH_FAMILY in families:
            # The banding plan is validated here (raises on a bad
            # threshold/budget) and the empty table persisted, so
            # every later mutation only maintains it.
            table = LSHTable.build(
                plan_bands(
                    store.lsh_threshold, store.sketch_size,
                    store.lsh_fn_budget,
                ),
                store.sketch_bits, store.sketch_seed, [],
            )
            store.lsh_file = store._write_lsh(table, target=0)
            store._lsh = table
        store._save_manifest()
        return store

    @classmethod
    def open(cls, root: str | Path) -> "IndexStore":
        root = Path(root)
        manifest = root / MANIFEST_NAME
        if not manifest.exists():
            raise StoreError(f"no index store at {root}")
        meta = json.loads(manifest.read_text())
        if meta.get("format_version") != FORMAT_VERSION:
            hint = (
                "; this is a sharded store — open it with "
                "repro.service.open_store or ShardedStore.open"
                if meta.get("layout") == "sharded"
                else ""
            )
            raise StoreError(
                f"{root}: unsupported store format "
                f"{meta.get('format_version')!r} (expected {FORMAT_VERSION})"
                f"{hint}"
            )
        return cls._from_payload(root, meta)

    @classmethod
    def _from_payload(cls, root: Path, meta: dict) -> "IndexStore":
        """Materialize a store from an already-parsed manifest payload.

        This is how :class:`~repro.service.sharded.ShardedStore` opens
        its bands: the payloads embedded in the *top-level* manifest are
        authoritative, so a band whose own on-disk manifest ran ahead of
        an interrupted top-level commit is silently re-read at the
        committed version (its staged files are simply never referenced).
        """
        gram_names = (
            list(meta["gram_names"])
            if meta.get("gram_names") is not None
            else None
        )
        gram_file = meta.get("gram_file")
        if gram_file is None and gram_names is not None:
            gram_file = GRAM_NAME  # pre-versioned-artifact layout
        lsh = meta.get("lsh") or {}
        return cls(
            root=root,
            m=int(meta["m"]),
            codec=str(meta["codec"]),
            sketch_size=int(meta["sketch"]["size"]),
            sketch_bits=int(meta["sketch"]["bits"]),
            sketch_seed=int(meta["sketch"]["seed"]),
            families=tuple(meta["families"]),
            metadata=dict(meta["metadata"]),
            entries=[GenomeEntry.from_json(e) for e in meta["genomes"]],
            version=int(meta["version"]),
            next_shard=int(meta["next_shard"]),
            gram_names=gram_names,
            gram_file=gram_file,
            lsh_threshold=float(lsh.get("threshold", 0.5)),
            lsh_fn_budget=float(lsh.get("fn_budget", 0.05)),
            lsh_file=lsh.get("file"),
        )

    def _manifest_payload(self) -> dict:
        """The JSON manifest payload for the current in-memory state.

        Shared by :meth:`_save_manifest` and the sharded store, which
        embeds each band's payload inside its top-level manifest so the
        bands can be reopened without trusting their own (possibly
        ahead-of-commit) manifest files.
        """
        return {
            "format_version": FORMAT_VERSION,
            "version": self.version,
            "m": self.m,
            "codec": self.codec,
            "sketch": {
                "size": self.sketch_size,
                "bits": self.sketch_bits,
                "seed": self.sketch_seed,
            },
            "families": list(self.families),
            "metadata": self.metadata,
            "genomes": [e.to_json() for e in self.entries],
            "next_shard": self.next_shard,
            "gram_names": self.gram_names,
            "gram_file": self.gram_file,
            "lsh": {
                "threshold": self.lsh_threshold,
                "fn_budget": self.lsh_fn_budget,
                "file": self.lsh_file,
            },
        }

    def _save_manifest(self) -> None:
        payload = self._manifest_payload()
        # The atomic manifest replacement is every mutation's commit
        # point: older bytes are never partially overwritten.
        _atomic_write_bytes(
            self.root / MANIFEST_NAME,
            (json.dumps(payload, indent=2) + "\n").encode("utf-8"),
        )

    def _bump(self) -> None:
        self.version += 1
        self._save_manifest()

    # ---- the banded LSH table -----------------------------------------

    @property
    def has_lsh(self) -> bool:
        """Whether this store maintains a banded LSH table."""
        return LSH_FAMILY in self.families

    def lsh_table(self) -> "LSHTable | None":
        """The current banded LSH table (``None`` without the family).

        Loaded lazily from ``lsh-<version>.bin`` and cached; mutations
        replace the cache with the table they persist.  A store written
        before LSH existed (no ``lsh`` manifest entry) is rebuilt from
        its stored fingerprints in memory, without mutating the store.
        """
        with self._lock:
            if not self.has_lsh:
                return None
            if self._lsh is None:
                if self.lsh_file is not None:
                    self._lsh = LSHTable.from_payloads(
                        read_records(self.root / self.lsh_file)
                    )
                else:
                    self._lsh = self._build_lsh()
            return self._lsh

    def _build_lsh(self) -> "LSHTable":
        """Rebuild the table from the stored lane fingerprints."""
        return LSHTable.build(
            plan_bands(
                self.lsh_threshold, self.sketch_size, self.lsh_fn_budget
            ),
            self.sketch_bits,
            self.sketch_seed,
            [
                unpack_lanes(
                    self.load_sketch_payload(name, LSH_FAMILY),
                    self.sketch_bits, self.sketch_size,
                )
                for name in self.names
            ],
        )

    def _write_lsh(self, table: "LSHTable", target: int | None = None) -> str:
        """Persist a table under a fresh version-stamped name."""
        target = self.version + 1 if target is None else target
        fname = f"lsh-{target:06d}.bin"
        write_records(self.root / fname, table.to_payloads(), self.codec)
        return fname

    def _replace_lsh(self, table: "LSHTable", stale: list[str]) -> None:
        """Stage a new table; the superseded file is unlinked on commit."""
        if self.lsh_file is not None:
            stale.append(self.lsh_file)
        self.lsh_file = self._write_lsh(table)
        self._lsh = table

    # ---- the mutation transaction -------------------------------------

    @contextmanager
    def _mutation(self):
        """Transactional mutation scope, committed by one version bump.

        The body stages new files under fresh version-stamped names and
        registers superseded ones in the yielded list.  On success the
        atomic manifest bump commits, then the stale files are
        unlinked; on failure the in-memory state rolls back, leaving
        the staged (unreferenced) files orphaned — exactly the state an
        interrupted process leaves, and one ``open`` reads past.
        """
        state = (
            list(self.entries),
            [(e, e.removed) for e in self.entries],
            self.version,
            self.next_shard,
            list(self.gram_names) if self.gram_names is not None else None,
            self.gram_file,
            self.lsh_file,
            self._lsh,
        )
        stale: list[str] = []
        try:
            yield stale
            self._bump()  # the atomic manifest replace is the commit
        except BaseException:
            (
                self.entries, flags, self.version, self.next_shard,
                self.gram_names, self.gram_file, self.lsh_file, self._lsh,
            ) = state
            # The version number is reused, so a snapshot taken inside
            # the failed body must not outlive it.
            self._snapshot = None
            for entry, removed in flags:
                entry.removed = removed
            raise
        if self._defer_cleanup:
            # Band of a sharded store: the parent's top-level commit is
            # the durable one, so superseded files must survive until
            # the parent drains them (see ShardedStore._mutation).
            self._deferred_stale.extend(stale)
        else:
            for fname in stale:
                (self.root / fname).unlink(missing_ok=True)

    def drain_deferred(self) -> None:
        """Unlink files whose cleanup a parent sharded commit deferred."""
        for fname in self._deferred_stale:
            (self.root / fname).unlink(missing_ok=True)
        self._deferred_stale.clear()

    # ---- views --------------------------------------------------------

    @property
    def names(self) -> list[str]:
        """Live genome names, in stable (append) order."""
        return [e.name for e in self.entries if not e.removed]

    @property
    def live_entries(self) -> list[GenomeEntry]:
        return [e for e in self.entries if not e.removed]

    @property
    def n_genomes(self) -> int:
        return len(self.live_entries)

    def sizes(self) -> np.ndarray:
        """Exact distinct-value counts of the live genomes, in order."""
        return np.array(
            [e.n_values for e in self.live_entries], dtype=np.int64
        )

    def masses(self) -> np.ndarray:
        """Total k-mer masses of the live genomes, in order.

        Read straight off the manifest (no shard I/O); equals
        :meth:`sizes` for genomes stored without abundance counts.
        """
        return np.array(
            [e.total_mass for e in self.live_entries], dtype=np.int64
        )

    def _entry(self, name: str) -> GenomeEntry:
        for e in self.entries:
            if e.name == name and not e.removed:
                return e
        raise KeyError(f"unknown genome {name!r}")

    def snapshot(self) -> "StoreSnapshot":
        """The frozen, version-consistent view of the live genomes.

        Taken under the store lock, so it never observes a mutation
        half-applied.  Because shards are append-only and immutable,
        the snapshot's reads stay valid across later ``append_many`` /
        ``remove`` / ``set_gram`` calls — this is what lets a query
        batch admitted under version ``v`` finish correctly while the
        store has already moved on.  Every call returns the same
        snapshot until the version changes, so its memo is the store's
        one per-version decode cache.
        """
        with self._lock:
            if (
                self._snapshot is not None
                and self._snapshot.version == self.version
            ):
                return self._snapshot
            live = self.live_entries
            self._snapshot = StoreSnapshot(
                root=self.root,
                m=self.m,
                version=self.version,
                names=tuple(e.name for e in live),
                shards=tuple(e.shard for e in live),
                _sizes=np.array(
                    [e.n_values for e in live], dtype=np.int64
                ),
                _masses=np.array(
                    [e.total_mass for e in live], dtype=np.int64
                ),
                sketch_size=self.sketch_size,
                sketch_bits=self.sketch_bits,
                sketch_seed=self.sketch_seed,
                families=self.families,
                lsh=self.lsh_table(),
            )
            return self._snapshot

    def total_bytes(self) -> int:
        """On-disk footprint of the live shards (encoded frames)."""
        return sum(
            (self.root / e.shard).stat().st_size for e in self.live_entries
        )

    # ---- content ------------------------------------------------------

    def append(self, name: str, values) -> GenomeEntry:
        """Persist one genome's values + sketches as a new shard."""
        return self.append_many([(name, values)])[0]

    def append_many(self, named_values) -> list[GenomeEntry]:
        """Persist a batch of ``(name, values[, counts])`` items.

        The whole batch is validated (unique names, in-range values)
        before any shard is written, so a bad genome anywhere in the
        list leaves the store untouched; the manifest is saved once,
        with a single version bump.  The store lock is held throughout,
        so a concurrent :meth:`snapshot` sees either none or all of the
        batch.

        An optional third element carries per-value abundance counts
        (the weighted-Jaccard inputs); counts with real multiplicity
        are persisted as one extra record *after* the sketch records,
        and the entry's ``mass`` records their sum.  Items without
        counts (or with all-ones counts) produce byte-identical shards
        to the pre-counts layout.
        """
        with self._lock:
            clean: list[tuple[str, np.ndarray, np.ndarray | None]] = []
            seen = {e.name for e in self.entries if not e.removed}
            for item in named_values:
                name, vals, cnts = _normalize_item(item)
                if name in seen:
                    raise StoreError(f"genome {name!r} already present")
                seen.add(name)
                if vals.size and (vals[0] < 0 or vals[-1] >= self.m):
                    raise StoreError(
                        f"genome {name!r} has values outside [0, {self.m})"
                    )
                clean.append((name, vals, cnts))
            if not clean:
                return []
            if self.has_lsh:
                self.lsh_table()  # load before mutating, for with_added
            with self._mutation() as stale:
                new_entries = []
                new_fps: list[np.ndarray] = []
                for name, vals, cnts in clean:
                    payloads: list = [vals]
                    for fam in self.families:
                        if fam == WEIGHTED_MINHASH_FAMILY:
                            wsk = WeightedMinHashSketch(
                                size=self.sketch_size, seed=self.sketch_seed
                            )
                            wsk.update(vals, cnts)
                            payloads.append(wsk.hashes)
                            continue
                        sk = make_sketch(
                            fam, self.sketch_size, self.sketch_bits,
                            self.sketch_seed,
                        )
                        sk.update(vals)
                        if fam == LSH_FAMILY:
                            new_fps.append(sk.fingerprints())
                        payloads.append(self._sketch_payload(fam, sk))
                    if cnts is not None:
                        payloads.append(cnts)
                    shard = f"{SHARD_DIR}/{self.next_shard:06d}.bin"
                    write_records(self.root / shard, payloads, self.codec)
                    entry = GenomeEntry(
                        name=name, shard=shard, n_values=int(vals.size),
                        mass=(
                            int(cnts.sum()) if cnts is not None
                            else int(vals.size)
                        ),
                    )
                    self.entries.append(entry)
                    self.next_shard += 1
                    new_entries.append(entry)
                if self.has_lsh:
                    self._replace_lsh(
                        self._lsh.with_added(new_fps), stale
                    )
            return new_entries

    @staticmethod
    def _sketch_payload(family: str, sketch) -> np.ndarray:
        if family in ("minhash", WEIGHTED_MINHASH_FAMILY):
            return sketch.hashes
        if family == "bbit_minhash":
            return sketch.packed()
        return sketch.registers

    def load_values(self, name: str) -> np.ndarray:
        """A genome's sorted attribute values (decoded from its shard)."""
        return read_record(self.root / self._entry(name).shard, 0)

    def load_sketch_payload(self, name: str, family: str) -> np.ndarray:
        """A genome's stored sketch payload for one family.

        Decodes only the requested record — the value column before it
        is seeked past, not decoded.
        """
        if family not in self.families:
            raise StoreError(
                f"family {family!r} not stored (store holds {self.families})"
            )
        idx = 1 + self.families.index(family)
        return read_record(self.root / self._entry(name).shard, idx)

    def load_counts(self, name: str) -> np.ndarray:
        """A genome's abundance counts, aligned with :meth:`load_values`.

        Genomes stored without counts (``total_mass == n_values``)
        return all-ones without touching disk; otherwise the counts
        record (the one after the sketch records) is decoded.
        """
        entry = self._entry(name)
        if entry.total_mass == entry.n_values:
            return np.ones(entry.n_values, dtype=np.int64)
        return read_record(
            self.root / entry.shard, 1 + len(self.families)
        )

    def remove(self, name: str) -> None:
        """Tombstone a genome; its Gram row/column is dropped exactly.

        The LSH table (if maintained) drops the genome's position
        incrementally — later live positions shift down by one, in
        lockstep with the live-genome order.
        """
        with self._lock:
            entry = self._entry(name)
            position = self.names.index(name)
            if self.has_lsh:
                self.lsh_table()
            with self._mutation() as stale:
                if self.gram_names is not None and name in self.gram_names:
                    inter, sizes, names = self._read_gram()
                    keep = [i for i, n in enumerate(names) if n != name]
                    self._write_gram(
                        inter[np.ix_(keep, keep)], sizes[keep],
                        [names[i] for i in keep], stale,
                    )
                if self.has_lsh:
                    self._replace_lsh(
                        self._lsh.with_removed(position), stale
                    )
                entry.removed = True

    def compact(self) -> int:
        """Drop tombstoned shards from disk; returns shards reclaimed.

        Unlinks shard files, so older :class:`StoreSnapshot` views stop
        being readable — do not compact with queries in flight.  The
        LSH table is rebuilt from the surviving stored fingerprints
        (equal, by canonicity, to the incrementally maintained one).
        """
        with self._lock:
            dead = [e for e in self.entries if e.removed]
            if not dead:
                return 0
            with self._mutation() as stale:
                stale.extend(e.shard for e in dead)
                self.entries = [e for e in self.entries if not e.removed]
                if self.has_lsh:
                    self._replace_lsh(self._build_lsh(), stale)
            return len(dead)

    # ---- the persisted all-pairs result -------------------------------

    def set_gram(
        self,
        intersections: np.ndarray,
        sizes: np.ndarray,
        names: list[str] | None = None,
    ) -> None:
        """Persist the exact all-pairs intersection matrix + sizes."""
        with self._lock:
            names = list(names) if names is not None else self.names
            inter = np.ascontiguousarray(intersections, dtype=np.int64)
            szs = np.ascontiguousarray(sizes, dtype=np.int64)
            n = len(names)
            if inter.shape != (n, n):
                raise StoreError(
                    f"intersections shape {inter.shape} does not match "
                    f"{n} genome(s)"
                )
            if szs.shape != (n,):
                raise StoreError(
                    f"sizes shape {szs.shape} does not match {n} genome(s)"
                )
            with self._mutation() as stale:
                self._write_gram(inter, szs, names, stale)

    def _write_gram(
        self,
        inter: np.ndarray,
        sizes: np.ndarray,
        names: list[str],
        stale: list[str],
    ) -> None:
        if self.gram_file is not None:
            stale.append(self.gram_file)
        fname = f"gram-{self.version + 1:06d}.bin"
        write_records(self.root / fname, [inter, sizes], self.codec)
        self.gram_file = fname
        self.gram_names = list(names)

    def _read_gram(self) -> tuple[np.ndarray, np.ndarray, list[str]]:
        if self.gram_names is None or self.gram_file is None:
            raise StoreError("store holds no persisted Gram result")
        inter, sizes = read_records(self.root / self.gram_file)
        return inter, sizes, list(self.gram_names)

    def gram(self) -> tuple[np.ndarray, np.ndarray, list[str]]:
        """The stored ``(intersections, sizes, names)`` triple."""
        return self._read_gram()

    @property
    def has_gram(self) -> bool:
        return self.gram_names is not None

    @property
    def gram_current(self) -> bool:
        """Whether the stored Gram covers exactly the live genomes."""
        return self.gram_names is not None and self.gram_names == self.names

    # ---- engine bridge -------------------------------------------------

    def as_source(self):
        """A batched indicator source over the live genomes."""
        from repro.core.indicator import SetSource

        if not self.live_entries:
            raise StoreError("index store is empty")
        return SetSource(
            [self.load_values(n) for n in self.names], m=self.m
        )

    def summary(self) -> str:
        gram = "current" if self.gram_current else (
            "stale" if self.has_gram else "absent"
        )
        return (
            f"IndexStore at {self.root}: {self.n_genomes} genome(s), "
            f"m={self.m}, codec={self.codec}, "
            f"families={'/'.join(self.families)}, version={self.version}, "
            f"gram {gram}, {self.total_bytes()} shard byte(s)"
        )


@dataclass
class StoreSnapshot:
    """An immutable view of one store version's live genomes.

    Carries everything the query executor reads — names, shard paths,
    exact sizes, the sketch configuration — captured atomically under
    the store lock.  Reads go to the same immutable shard files, and
    decoded values / counts / sketch payloads and the extent sort the
    window probes are memoized per snapshot; :meth:`IndexStore.snapshot`
    hands out one snapshot per version, so this memo is the per-version
    decode cache (the snapshot can never go stale, so it never needs
    invalidation).
    """

    root: Path
    m: int
    version: int
    names: tuple[str, ...]
    shards: tuple[str, ...]
    _sizes: np.ndarray
    sketch_size: int
    sketch_bits: int
    sketch_seed: int
    families: tuple[str, ...]
    #: The banded LSH table of this version's live genomes (``None``
    #: when the store holds no :data:`LSH_FAMILY` sketches).  Tables
    #: are immutable value objects, so the snapshot stays frozen while
    #: the store's own table moves on.
    lsh: "LSHTable | None" = None
    #: Per-genome total masses; ``None`` (pre-counts constructions)
    #: means every mass equals its support size.
    _masses: np.ndarray | None = None
    _values: dict = field(default_factory=dict, repr=False, compare=False)
    _payloads: dict = field(default_factory=dict, repr=False, compare=False)
    _counts: dict = field(default_factory=dict, repr=False, compare=False)
    _sorted: dict = field(default_factory=dict, repr=False, compare=False)

    def __post_init__(self) -> None:
        self._positions = {name: i for i, name in enumerate(self.names)}

    @property
    def n_genomes(self) -> int:
        return len(self.names)

    def sizes(self) -> np.ndarray:
        return self._sizes

    def masses(self) -> np.ndarray:
        return self._sizes if self._masses is None else self._masses

    def position(self, name: str | None) -> int | None:
        """``name``'s store position, or ``None`` if it is not live."""
        return self._positions.get(name)

    def _index(self, name: str) -> int:
        i = self._positions.get(name)
        if i is None:
            raise KeyError(
                f"unknown genome {name!r} at version {self.version}"
            )
        return i

    def load_values(self, name: str) -> np.ndarray:
        if name not in self._values:
            self._values[name] = read_record(
                self.root / self.shards[self._index(name)], 0
            )
        return self._values[name]

    def family_payloads(self, family: str) -> list[np.ndarray]:
        """Every live genome's stored ``family`` payload, by position."""
        if family not in self.families:
            raise StoreError(
                f"family {family!r} not stored (store holds {self.families})"
            )
        if family not in self._payloads:
            idx = 1 + self.families.index(family)
            self._payloads[family] = [
                read_record(self.root / shard, idx) for shard in self.shards
            ]
        return self._payloads[family]

    def load_counts(self, name: str) -> np.ndarray:
        """Abundance counts aligned with :meth:`load_values` (see
        :meth:`IndexStore.load_counts`)."""
        if name not in self._counts:
            i = self._index(name)
            if int(self.masses()[i]) == int(self._sizes[i]):
                self._counts[name] = np.ones(
                    int(self._sizes[i]), dtype=np.int64
                )
            else:
                self._counts[name] = read_record(
                    self.root / self.shards[i], 1 + len(self.families)
                )
        return self._counts[name]

    def sorted_extents(self, weighted: bool) -> tuple[np.ndarray, np.ndarray]:
        """``(order, extents[order])`` of the sizes (or masses).

        The query window probes these with two ``searchsorted`` calls
        instead of scanning every extent.
        """
        if weighted not in self._sorted:
            extents = self.masses() if weighted else self.sizes()
            order = np.argsort(extents, kind="stable")
            self._sorted[weighted] = (order, extents[order])
        return self._sorted[weighted]
