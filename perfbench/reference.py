"""Reference answers, computed with plain numpy outside the timed region.

Nothing here calls the program's k-mer, Gram or query code, so a defect
there cannot also hide in the reference.
"""

from __future__ import annotations

import numpy as np

_BASE = np.full(256, 255, dtype=np.uint8)
for _i, _c in enumerate(b"ACGT"):
    _BASE[_c] = _i

#: Tolerance on a similarity value: far below any real difference in a
#: ratio of two set sizes, above float rounding.
SIM_TOL = 1e-9


def canonical_kmers(sequence: str, k: int) -> np.ndarray:
    """Sorted unique canonical k-mer codes of one sequence.

    A k-mer and its reverse complement map to one code (the smaller of
    the two 2-bit encodings).  Windows holding a non-ACGT symbol are
    skipped.
    """
    bases = _BASE[np.frombuffer(sequence.encode(), dtype=np.uint8)]
    if bases.size < k:
        return np.empty(0, dtype=np.int64)
    windows = np.lib.stride_tricks.sliding_window_view(bases, k)
    windows = windows[(windows != 255).all(axis=1)].astype(np.int64)
    weights = 4 ** np.arange(k - 1, -1, -1, dtype=np.int64)
    forward = windows @ weights
    reverse = (3 - windows[:, ::-1]) @ weights
    return np.unique(np.minimum(forward, reverse))


def jaccard(a: np.ndarray, b: np.ndarray) -> float:
    """Exact Jaccard of two sorted unique arrays (J of two empties = 1)."""
    if a.size == 0 and b.size == 0:
        return 1.0
    inter = np.intersect1d(a, b, assume_unique=True).size
    return inter / (a.size + b.size - inter)


def check_matrix(
    similarity, kmer_sets: list[np.ndarray], pairs: np.ndarray
) -> list[str]:
    """Problems found in an all-pairs similarity matrix (empty = correct).

    Checks the shape, the unit diagonal, symmetry, and each sampled
    ``(i, j)`` pair against :func:`jaccard` of the reference sets.
    """
    n = len(kmer_sets)
    s = np.asarray(similarity) if similarity is not None else None
    if s is None or s.shape != (n, n):
        return [f"matrix shape {None if s is None else s.shape}, want {(n, n)}"]
    problems = []
    if not np.allclose(np.diag(s), 1.0, rtol=0.0, atol=SIM_TOL):
        problems.append("diagonal is not 1")
    if not np.allclose(s, s.T, rtol=0.0, atol=SIM_TOL):
        problems.append("matrix is not symmetric")
    for i, j in pairs:
        want = jaccard(kmer_sets[i], kmer_sets[j])
        if abs(float(s[i, j]) - want) > SIM_TOL:
            problems.append(f"J[{i},{j}] = {float(s[i, j])!r}, want {want!r}")
    return problems


class LiveSet:
    """The genomes an index should hold, with brute-force threshold answers."""

    def __init__(self, m: int):
        self.m = m
        self.values: dict[str, np.ndarray] = {}
        self._packed = None

    def add(self, name: str, values: np.ndarray) -> None:
        self.values[name] = values
        self._packed = None

    def remove(self, name: str) -> None:
        del self.values[name]
        self._packed = None

    @property
    def names(self) -> list[str]:
        return list(self.values)

    def _pack(self):
        if self._packed is None:
            names = list(self.values)
            arrays = [self.values[n] for n in names]
            sizes = np.array([a.size for a in arrays], dtype=np.int64)
            owner = np.repeat(np.arange(len(names)), sizes)
            flat = np.concatenate(arrays) if arrays else np.empty(0, np.int64)
            self._packed = (names, sizes, owner, flat)
        return self._packed

    def similarities(self, query: np.ndarray) -> dict[str, float]:
        """Exact J of ``query`` against every live genome."""
        names, sizes, owner, flat = self._pack()
        mask = np.zeros(self.m, dtype=bool)
        mask[query] = True
        inter = np.bincount(owner[mask[flat]], minlength=len(names))
        union = query.size + sizes - inter
        sims = np.where(union > 0, inter / np.maximum(union, 1), 1.0)
        return dict(zip(names, sims.tolist()))


def compare_matches(got, want: dict[str, float], sims: dict[str, float]):
    """Classify a threshold answer against the reference.

    ``got`` holds ``(name, similarity)`` pairs the program returned,
    ``want`` the reference matches and ``sims`` the reference J of every
    live genome.  Returns ``(missed, wrong)``: qualifying genomes left
    out, and returned entries that are wrong (a similarity off the
    reference, a genome below the threshold, an unknown or repeated
    name).
    """
    seen = set()
    wrong = []
    for name, sim in got:
        if name in seen or name not in want:
            wrong.append((name, sim, sims.get(name)))
        elif abs(sim - want[name]) > SIM_TOL:
            wrong.append((name, sim, want[name]))
        seen.add(name)
    missed = sorted(set(want) - seen)
    return missed, wrong
