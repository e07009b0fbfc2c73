"""Local Gram kernels: ``B = X^T Y`` over Jaccard-relevant semirings.

Four kernels cover the density regimes the paper evaluates:

* :func:`gram_bitpacked` — the Eq. 7 popcount kernel on bit-packed
  matrices.  Cost ``O(w * n_x * n_y)`` word operations where ``w`` is the
  number of word rows; the reference popcount path once zero rows are
  filtered and segments packed.
* :func:`gram_popcount_blocked` — the word-tiled popcount fast path for
  the dense regime (Kingsford-like densities): a single fused
  AND+popcount+accumulate sweep over cache-resident word tiles, using
  ``np.bitwise_count`` when available with a portable lookup-table
  fallback.  Same result as :func:`gram_bitpacked`, roughly half the
  modelled word operations (one pass instead of materialize-then-reduce).
* :func:`gram_csr_outer` — hypersparse row-outer-product accumulation:
  every nonzero row ``k`` with column set ``c_k`` adds 1 to ``B[c_k x
  c_k]``; cost ``O(sum_k |c_k|^2)``, independent of ``n^2`` — the right
  choice for BIGSI-like inputs where most pairs of samples share nothing.
* :func:`gram_outer_pair` — the pairwise (``X^T Y``) form of the outer
  kernel operating directly on bit-packed blocks, which is what the
  distributed SUMMA layer needs when the dispatcher routes a hypersparse
  batch away from the popcount sweeps.

All kernels produce the same dense int64 Gram matrix; tests assert exact
agreement with a dense boolean reference on random inputs.  The
density-adaptive choice between them lives in
:mod:`repro.sparse.dispatch`.

Kernels return a :class:`KernelResult` carrying the value together with
the modelled operation count, which the distributed layer charges to the
machine ledger (functional result and cost model stay in lockstep).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

import numpy as np

from repro.sparse.bitmatrix import BitMatrix
from repro.sparse.csr import CsrMatrix
from repro.util.bits import popcount_elementwise

#: Soft cap on the temporary expansion a blocked kernel may allocate.
DEFAULT_BLOCK_BYTES = 64 * 2**20

#: Word rows per tile of the blocked popcount fast path; sized so one
#: tile's AND temporary stays within typical L2 capacities.
DEFAULT_WORD_TILE = 128


@dataclass(frozen=True)
class KernelResult:
    """A kernel's output plus its modelled cost."""

    value: Any
    flops: float
    working_set_bytes: float


def gram_dense_reference(dense: np.ndarray) -> np.ndarray:
    """Reference ``A^T A`` on a dense boolean matrix (tests/docs only)."""
    a = np.asarray(dense).astype(np.int64)
    return a.T @ a


def gram_bitpacked(
    x: BitMatrix,
    y: BitMatrix | None = None,
    block_bytes: int = DEFAULT_BLOCK_BYTES,
) -> KernelResult:
    """Popcount Gram ``B[i, j] = sum_w popcount(x[:, i] & y[:, j])``.

    Blocked over columns of ``x`` so the broadcast temporary stays within
    ``block_bytes``.  With ``y is None`` computes the symmetric ``x^T x``.
    """
    symmetric = y is None
    if y is None:
        y = x
    if x.bit_width != y.bit_width:
        raise ValueError(f"bit widths differ: {x.bit_width} vs {y.bit_width}")
    if x.n_word_rows != y.n_word_rows:
        raise ValueError(
            f"word-row counts differ: {x.n_word_rows} vs {y.n_word_rows}"
        )
    w = x.n_word_rows
    n_x, n_y = x.n_cols, y.n_cols
    out = np.zeros((n_x, n_y), dtype=np.int64)
    if w == 0 or n_x == 0 or n_y == 0:
        return KernelResult(out, 0.0, 0.0)
    itemsize = x.words.dtype.itemsize
    per_col = max(1, w * n_y * itemsize)
    block = int(max(1, min(n_x, block_bytes // per_col)))
    xw = x.words
    yw = y.words
    for lo in range(0, n_x, block):
        hi = min(lo + block, n_x)
        if symmetric:
            # Only columns >= lo can land in the upper triangle.
            anded = xw[:, lo:hi, None] & yw[:, None, lo:]
            counts = np.bitwise_count(anded).sum(axis=0, dtype=np.int64)
            out[lo:hi, lo:] = counts
        else:
            anded = xw[:, lo:hi, None] & yw[:, None, :]
            out[lo:hi, :] = np.bitwise_count(anded).sum(axis=0, dtype=np.int64)
    if symmetric:
        # Blocks covered all (i, j) with j >= block start; only j >= i is
        # valid, so keep the upper triangle and mirror it.
        out = np.triu(out)
        out = out + np.triu(out, k=1).T
    # Modelled cost: a tuned implementation (as in Cyclops) picks between
    # the dense word sweep — 2 word ops per (word-row, column pair) — and
    # a Gustavson-style input-sparse kernel that only touches word pairs
    # where both operands are nonzero: sum_k cx_k * cy_k over word rows.
    pair_count = (n_x * n_y) if not symmetric else (n_x * (n_x + 1)) // 2
    dense_flops = 2.0 * w * pair_count
    cx = (xw != 0).sum(axis=1, dtype=np.float64)
    if symmetric:
        sparse_flops = float((cx * (cx + 1.0)).sum())
    else:
        cy = (yw != 0).sum(axis=1, dtype=np.float64)
        sparse_flops = 2.0 * float((cx * cy).sum())
    flops = min(dense_flops, sparse_flops)
    working_set = float(x.nbytes + y.nbytes + out.nbytes)
    return KernelResult(out, flops, working_set)


def gram_popcount_blocked(
    x: BitMatrix,
    y: BitMatrix | None = None,
    block_bytes: int = DEFAULT_BLOCK_BYTES,
    word_tile: int = DEFAULT_WORD_TILE,
    use_hw_popcount: bool | None = None,
) -> KernelResult:
    """Word-tiled popcount Gram — the dense-regime fast path.

    Computes the same ``B[i, j] = sum_w popcount(x[:, i] & y[:, j])`` as
    :func:`gram_bitpacked`, but tiles the word-row dimension so the AND
    temporary of each step stays cache-resident, and fuses the popcount
    and accumulation into a single sweep over every tile.  Popcounts go
    through ``np.bitwise_count`` when the running NumPy provides it and
    otherwise through a byte lookup table (``use_hw_popcount`` pins a
    path for testing).

    Modelled cost: one word operation per (word-row, column pair) — half
    the two-pass reference sweep — with a per-tile working set, which is
    what makes the dispatcher prefer this kernel on dense batches.
    """
    symmetric = y is None
    if y is None:
        y = x
    if x.bit_width != y.bit_width:
        raise ValueError(f"bit widths differ: {x.bit_width} vs {y.bit_width}")
    if x.n_word_rows != y.n_word_rows:
        raise ValueError(
            f"word-row counts differ: {x.n_word_rows} vs {y.n_word_rows}"
        )
    w = x.n_word_rows
    n_x, n_y = x.n_cols, y.n_cols
    out = np.zeros((n_x, n_y), dtype=np.int64)
    if w == 0 or n_x == 0 or n_y == 0:
        return KernelResult(out, 0.0, 0.0)
    itemsize = x.words.dtype.itemsize
    tile = int(max(1, min(w, word_tile)))
    per_col = max(1, tile * n_y * itemsize)
    block = int(max(1, min(n_x, block_bytes // per_col)))
    xw = x.words
    yw = y.words
    for wlo in range(0, w, tile):
        whi = min(wlo + tile, w)
        xt = xw[wlo:whi]
        yt = yw[wlo:whi]
        for lo in range(0, n_x, block):
            hi = min(lo + block, n_x)
            if symmetric:
                anded = xt[:, lo:hi, None] & yt[:, None, lo:]
                out[lo:hi, lo:] += popcount_elementwise(
                    anded, use_hw_popcount
                ).sum(axis=0, dtype=np.int64)
            else:
                anded = xt[:, lo:hi, None] & yt[:, None, :]
                out[lo:hi, :] += popcount_elementwise(
                    anded, use_hw_popcount
                ).sum(axis=0, dtype=np.int64)
    if symmetric:
        out = np.triu(out)
        out = out + np.triu(out, k=1).T
    pair_count = (n_x * n_y) if not symmetric else (n_x * (n_x + 1)) // 2
    flops = float(w) * pair_count
    working_set = float(
        tile * (min(block, n_x) + n_y) * itemsize
        + tile * min(block, n_x) * n_y * itemsize
        + out.nbytes
    )
    return KernelResult(out, flops, working_set)


def gram_outer_pair(
    x: BitMatrix,
    y: BitMatrix | None = None,
    block_bytes: int = DEFAULT_BLOCK_BYTES,
) -> KernelResult:
    """Hypersparse pairwise Gram ``B = X^T Y`` on bit-packed operands.

    Extracts bit-level coordinates from both operands (cheap exactly when
    the blocks are hypersparse), groups them by row, and accumulates the
    outer product ``B[c_k^x times c_k^y] += 1`` for every row ``k``
    present in both.  With ``y is None`` this reduces to the symmetric
    :func:`gram_csr_outer` accumulation and produces bit-identical
    results to the popcount kernels.

    Cost ``O(sum_k |c_k^x| * |c_k^y|)`` scatter-adds, independent of
    ``n_x * n_y``; chunks are bounded by ``block_bytes // 16`` index
    pairs at a time.
    """
    symmetric = y is None
    if y is None:
        y = x
    if x.bit_width != y.bit_width:
        raise ValueError(f"bit widths differ: {x.bit_width} vs {y.bit_width}")
    if x.n_word_rows != y.n_word_rows:
        raise ValueError(
            f"word-row counts differ: {x.n_word_rows} vs {y.n_word_rows}"
        )
    n_x, n_y = x.n_cols, y.n_cols
    out = np.zeros((n_x, n_y), dtype=np.int64)
    working_set = float(x.nbytes + y.nbytes + out.nbytes)
    xr, xc = x.nonzero_bits()
    if xr.size == 0:
        return KernelResult(out, 0.0, working_set)
    x_rows, x_starts, x_counts = np.unique(
        xr, return_index=True, return_counts=True
    )
    if symmetric:
        yc = xc
        sx, dx = x_starts, x_counts
        sy, dy = x_starts, x_counts
    else:
        yr, yc = y.nonzero_bits()
        if yr.size == 0:
            return KernelResult(out, 0.0, working_set)
        y_rows, y_starts, y_counts = np.unique(
            yr, return_index=True, return_counts=True
        )
        _, ix, iy = np.intersect1d(
            x_rows, y_rows, assume_unique=True, return_indices=True
        )
        sx, dx = x_starts[ix], x_counts[ix]
        sy, dy = y_starts[iy], y_counts[iy]
    if dx.size == 0:
        return KernelResult(out, 0.0, working_set)
    pair_counts = dx * dy
    flops = float(pair_counts.sum(dtype=np.float64))
    block_pairs = max(1, block_bytes // 16)
    csum = np.cumsum(pair_counts)
    start = 0
    while start < dx.size:
        base = int(csum[start - 1]) if start else 0
        end = int(np.searchsorted(csum, base + block_pairs, side="left")) + 1
        end = min(max(end, start + 1), dx.size)
        seg = slice(start, end)
        _scatter_row_pairs(out, xc, yc, sx[seg], dx[seg], sy[seg], dy[seg])
        start = end
    return KernelResult(out, flops, working_set)


def _scatter_row_pairs(
    out: np.ndarray,
    xc: np.ndarray,
    yc: np.ndarray,
    sx: np.ndarray,
    dx: np.ndarray,
    sy: np.ndarray,
    dy: np.ndarray,
) -> None:
    """Accumulate ``out[c_k^x x c_k^y] += 1`` for a chunk of row segments.

    ``sx``/``dx`` (``sy``/``dy``) give each segment's start and length in
    ``xc`` (``yc``).  Fully vectorized: the left operand repeats each x
    column ``dy`` times in place, the right operand tiles each y segment
    ``dx`` times via a modulo index trick.
    """
    out_lens = dx * dy
    total = int(out_lens.sum())
    if total == 0:
        return
    x_total = int(dx.sum())
    seg_of_x = np.repeat(np.arange(dx.size), dx)
    x_off = np.concatenate(([0], np.cumsum(dx)))[:-1]
    local_x = np.arange(x_total) - x_off[seg_of_x]
    xi = sx[seg_of_x] + local_x
    left = np.repeat(xc[xi], np.repeat(dy, dx))
    seg_of_out = np.repeat(np.arange(dx.size), out_lens)
    out_off = np.concatenate(([0], np.cumsum(out_lens)))[:-1]
    local = np.arange(total) - out_off[seg_of_out]
    yi = sy[seg_of_out] + (local % dy[seg_of_out])
    np.add.at(out, (left, yc[yi]), 1)


def gram_csr_outer(
    a: CsrMatrix,
    block_pairs: int = DEFAULT_BLOCK_BYTES // 16,
) -> KernelResult:
    """Hypersparse Gram via row outer products.

    For every stored row ``k`` with column indices ``c_k``, accumulates
    ``B[c_k x c_k] += 1`` (boolean inputs; weighted CSR uses the product
    of the two stored values).  Rows are processed grouped by degree so
    the pair expansion vectorizes; chunks are bounded by ``block_pairs``
    index pairs at a time.
    """
    n = a.shape[1]
    out = np.zeros((n, n), dtype=np.int64)
    degrees = a.row_degrees()
    nz_rows = np.flatnonzero(degrees > 0)
    if nz_rows.size == 0:
        return KernelResult(out, 0.0, 0.0)
    flops = float(np.square(degrees[nz_rows], dtype=np.float64).sum())
    for d in np.unique(degrees[nz_rows]):
        rows_d = nz_rows[degrees[nz_rows] == d]
        rows_per_chunk = max(1, block_pairs // int(d * d))
        for lo in range(0, rows_d.size, rows_per_chunk):
            chunk = rows_d[lo : lo + rows_per_chunk]
            # Gather the column lists of this degree class: (R, d).
            gather = (
                a.indptr[chunk][:, None] + np.arange(d, dtype=np.int64)[None, :]
            )
            cols = a.indices[gather]
            left = np.broadcast_to(cols[:, :, None], (chunk.size, d, d))
            right = np.broadcast_to(cols[:, None, :], (chunk.size, d, d))
            if a.is_boolean:
                np.add.at(out, (left.ravel(), right.ravel()), 1)
            else:
                vals = a.data[gather]
                prod = (vals[:, :, None] * vals[:, None, :]).astype(np.int64)
                np.add.at(out, (left.ravel(), right.ravel()), prod.ravel())
    working_set = float(a.nbytes + out.nbytes)
    return KernelResult(out, flops, working_set)


def colsum_bitpacked(x: BitMatrix) -> KernelResult:
    """Column popcounts — one batch's contribution to ``a-hat`` (Eq. 4)."""
    sums = x.column_popcounts()
    return KernelResult(sums, float(x.words.size), float(x.nbytes))


def colsum_csr(a: CsrMatrix) -> KernelResult:
    """Column sums of a CSR matrix."""
    sums = a.column_sums()
    return KernelResult(sums, float(a.nnz), float(a.nbytes))
