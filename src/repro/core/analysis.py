"""The paper's §III-C analytic BSP cost model.

These closed forms mirror the paper's batch cost

    T(z, n, M, c, p) = O( (1 + z / (M sqrt(cp))) * alpha
                        + (z / sqrt(cp) + c n^2 / p + p) * beta
                        + (F / p) * gamma )

the memory-bound simplification ``T~(n, M, p)``, the total cost over all
batches, and the strong-scaling efficiency ``E_p`` (shown to be O(1)).

They serve two purposes: (1) cross-validation — tests check that the
*measured* ledger of the simulator scales the way the model predicts
(same slopes in p, z, c); (2) planning — the grid planner uses the beta
terms to choose the replication factor, and
:func:`predicted_gram_kernel` predicts the density-adaptive kernel
dispatch from ``nnz_estimate`` before any data is read.

Units: ``z``/``Z`` count nonzero *words* of the compressed batch /
problem, ``M`` is per-rank memory in words, ``F``/``G`` are arithmetic
operation counts, and all outputs are seconds under a
:class:`~repro.runtime.machine.MachineSpec` (word size 8 bytes).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.runtime.machine import MachineSpec

WORD_BYTES = 8


@dataclass(frozen=True)
class CostBreakdown:
    """An analytic cost split into its alpha / beta / gamma components."""

    supersteps: float
    words_communicated: float
    operations: float
    spec: MachineSpec

    @property
    def alpha_seconds(self) -> float:
        return self.supersteps * self.spec.alpha

    @property
    def beta_seconds(self) -> float:
        return self.words_communicated * WORD_BYTES * self.spec.beta_inter

    @property
    def gamma_seconds(self) -> float:
        return self.operations * self.spec.gamma

    @property
    def seconds(self) -> float:
        return self.alpha_seconds + self.beta_seconds + self.gamma_seconds


def batch_cost(
    z: float, n: int, M: float, c: int, p: int, F: float, spec: MachineSpec
) -> CostBreakdown:
    """Per-batch BSP cost ``T(z, n, M, c, p)`` of §III-C.

    ``z`` nonzeros in the compressed batch, ``M`` words of memory per
    rank, ``c`` output replicas, ``p`` ranks, ``F`` arithmetic ops.
    Includes the ``p * beta`` filter prefix-sum term.
    """
    if p <= 0 or c <= 0:
        raise ValueError(f"p and c must be positive, got p={p}, c={c}")
    if c > p:
        raise ValueError(f"replication c={c} cannot exceed p={p}")
    root = math.sqrt(c * p)
    supersteps = 1.0 + z / (M * root)
    words = z / root + c * float(n) ** 2 / p + p
    return CostBreakdown(supersteps, words, F / p, spec)


def memory_bound_batch_cost(
    n: int, M: float, p: int, F: float, spec: MachineSpec
) -> CostBreakdown:
    """The simplified ``T~(n, M, p)`` for ``z = Theta(Mp)``,
    ``c = Theta(min(p, Mp / n^2))``, ``p = O(M)``, ``M <= n^2``."""
    sqrt_m = math.sqrt(M)
    supersteps = float(n) / sqrt_m
    words = float(n) * sqrt_m
    return CostBreakdown(supersteps, words, F / p, spec)


def total_cost(
    Z: float, n: int, M: float, p: int, G: float, spec: MachineSpec
) -> CostBreakdown:
    """Whole-problem cost with memory-maximal batches (§III-C):

        (Z / Mp) * T~(n, M, p)
        = (n Z / (p M^{3/2})) alpha + (n Z / (sqrt(M) p)) beta + (G/p) gamma
    """
    if M <= 0 or p <= 0:
        raise ValueError(f"M and p must be positive, got M={M}, p={p}")
    supersteps = n * Z / (p * M ** 1.5)
    words = n * Z / (math.sqrt(M) * p)
    return CostBreakdown(supersteps, words, G / p, spec)


def strong_scaling_efficiency(
    n: int, p0: int, p: int, spec: MachineSpec, flops_per_word: float = 2.0
) -> float:
    """The §III-C efficiency ratio ``E_p`` (shown to be Theta(1)).

    Baseline: ``p0`` ranks hold the problem with ``M = n^2 / p0`` and one
    batch of ``z0 = n^2`` nonzeros; scaled run: ``p`` ranks process a
    ``p/p0``-times larger batch with replication ``c = p/p0``.
    Returns ``T(z0, n, M, 1, p0) / T(p z0/p0, n, M, c, p)`` — values
    near 1 mean perfect strong scaling.
    """
    if p % p0 != 0:
        raise ValueError(f"p={p} must be a multiple of p0={p0}")
    M = float(n) ** 2 / p0
    z0 = float(n) ** 2
    scale = p // p0
    base = batch_cost(z0, n, M, 1, p0, flops_per_word * z0, spec)
    big = batch_cost(
        z0 * scale, n, M, scale, p, flops_per_word * z0 * scale, spec
    )
    return base.seconds / big.seconds


def expected_nonzero_rows(m_rows: float, n_cols: int, nnz: float) -> float:
    """Expected surviving rows after zero-row filtering (uniform model).

    Under a uniform Bernoulli indicator with per-cell density ``delta =
    nnz / (m n)``, a row survives the filter with probability ``1 - (1 -
    delta)^n``; computed via ``expm1``/``log1p`` so the hypersparse limit
    (``delta`` near ``1e-12``, as in BIGSI) stays accurate.
    """
    if m_rows <= 0 or n_cols <= 0 or nnz <= 0:
        return 0.0
    delta = min(nnz / (float(m_rows) * n_cols), 1.0)
    if delta >= 1.0:
        return float(m_rows)
    survive = -math.expm1(n_cols * math.log1p(-delta))
    return float(m_rows) * survive


def predicted_gram_kernel(
    m_rows: float,
    n_cols: int,
    nnz: float,
    bit_width: int,
    policy: str = "adaptive",
):
    """The planner's kernel prediction from ``nnz_estimate`` alone.

    Mirrors the per-batch runtime dispatch, but runs before any data is
    read: survivors are *estimated* with :func:`expected_nonzero_rows`
    rather than measured, and the outer kernel is priced with the
    uniform-degree estimate (no measured ``sum_sq_degree``).  On uniform
    synthetic inputs the prediction matches the runtime decision batch
    for batch (tests pin this); on
    skewed inputs it is the a-priori guess the driver reports as
    ``SimilarityResult.planned_kernel``.

    Returns the same :class:`~repro.sparse.dispatch.DispatchDecision`
    the runtime dispatcher produces.
    """
    from repro.sparse.dispatch import choose_kernel

    survivors = int(round(expected_nonzero_rows(m_rows, n_cols, nnz)))
    return choose_kernel(survivors, n_cols, nnz, bit_width, policy=policy)


def gram_operations(z: float, n: int, n_word_rows: float) -> float:
    """Modelled popcount-Gram op count for one batch.

    With dense packed word blocks the sweep costs ``2 * h * n^2 / 2``
    word ops (symmetric); ``z`` only matters through the surviving word
    rows ``h``, so the caller passes both.
    """
    del z  # retained for signature symmetry with the paper's F(z, ...)
    return float(n_word_rows) * float(n) * (float(n) + 1.0)
