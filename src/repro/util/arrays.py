"""Array helpers shared by the ingest and filtering hot paths."""

from __future__ import annotations

import numpy as np


def unique_sorted(a) -> np.ndarray:
    """The sorted distinct values of ``a``; equal to ``np.unique(a)``.

    Sorts (skipped when ``a`` is already non-decreasing) and keeps every
    element that differs from its predecessor.  The plain ``np.unique``
    form hashes before it sorts, which is many times slower on large
    integer arrays such as k-mer codes and row ids, and gains nothing on
    input that arrives sorted.  Meant for integer arrays: NaNs are not
    collapsed the way ``np.unique`` collapses them.
    """
    a = np.asarray(a).ravel()
    if a.size > 1 and not np.all(a[1:] >= a[:-1]):
        a = np.sort(a)
    keep = np.empty(a.size, dtype=bool)
    if a.size:
        keep[0] = True
        np.not_equal(a[1:], a[:-1], out=keep[1:])
    return a[keep]
