"""Density-adaptive dispatch between the local Gram kernels.

The paper's central efficiency claim rests on running the *right* local
Gram kernel for the input's density regime: the Eq. 7 popcount sweep on
bit-packed segments when the post-filter batch is dense, and hypersparse
outer-product accumulation when most sample pairs share nothing
(Özkural & Aykanat's all-pairs analysis makes the same regime split for
1-D vs 2-D algorithms).  This module makes that choice explicit and
automatic:

* :func:`predict_kernel_ops` — modelled effective-operation counts for
  every kernel, given the post-filter batch shape, nonzero count and
  (when measured) sum of squared row degrees;
* :func:`choose_kernel` — the per-batch decision (or a forced policy),
  returned as a :class:`DispatchDecision` so drivers can surface it in
  :class:`~repro.core.result.BatchStats`;
* :data:`GRAM_KERNELS` / :func:`resolve_kernel` — the dispatch table
  mapping kernel names to the pairwise implementations the SUMMA layer
  calls per block.

Cost model
----------
With ``h`` surviving rows, ``n`` samples, ``z`` nonzeros, and word width
``b`` (so ``w = ceil(h / b)`` word rows and ``pairs = n (n + 1) / 2``
symmetric column pairs), and ``d_k`` the degree of surviving row ``k``
(the number of samples holding it, so ``sum_k d_k = z``):

====================  =====================================================
kernel                modelled effective ops
====================  =====================================================
``bitpacked``         ``min(2 w * pairs, gustavson)`` — the two-pass sweep
                      (materialize the AND temporary, then popcount-reduce
                      it), except that :func:`gram_bitpacked` charges the
                      Gustavson input-sparse cost when cheaper, so the
                      prediction takes the same min (estimated from the
                      expected nonzero-word counts per word row)
``blocked``           ``w * pairs`` — single fused AND+popcount+accumulate
                      pass over cache-resident word tiles
``outer``             ``OUTER_OP_WEIGHT * sum_k d_k^2`` — one scatter-add
                      per index pair (``sum_k d_k^2`` is exactly the pair
                      count :func:`gram_outer_pair` charges, summed over
                      the SUMMA blocks); scatter ops are weighted because
                      a random-access update costs several SIMD word ops
====================  =====================================================

The drivers measure ``sum_k d_k^2`` from each filtered batch.  Without
it (the a-priori planner, which has read no data) the outer cost falls
back to the uniform-degree estimate ``z * (z / h)``, the smallest value
``sum_k d_k^2`` can take for ``z`` nonzeros on ``h`` rows.  Under that
estimate — which holds only for near-uniform (Bernoulli) row degrees —
the blocked/outer crossover sits at post-filter density
``d* = sqrt(1 / (2 * OUTER_OP_WEIGHT * b))``, i.e. ``sqrt(1 / (16 b))``
(about 0.03 for ``b = 64``): BIGSI-like batches (``d`` near ``1/n``) go
to the outer kernel, dense Kingsford-like batches to the blocked
popcount path.  Skewed degrees — related genomes, where conserved
k-mers sit in many samples and mutated ones in few — raise
``sum_k d_k^2`` well above the uniform estimate and move the measured
crossover to lower densities.  Exact ties break toward the popcount
path, whose runtime is shape-predictable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from repro.sparse.spgemm import (
    gram_bitpacked,
    gram_outer_pair,
    gram_popcount_blocked,
)

#: Kernel-policy names accepted by the driver config: ``"adaptive"``
#: chooses per batch; the rest force one kernel everywhere.
KERNEL_POLICIES = ("adaptive", "bitpacked", "blocked", "outer")

#: Kernel names the dispatcher can route to.
KERNEL_NAMES = ("bitpacked", "blocked", "outer")

#: Modelled cost of one scatter-add index pair, in units of one packed
#: word operation.  A random-access read-modify-write costs several
#: vectorized word ops on any cache hierarchy; 8 is a deliberately
#: conservative calibration so the dispatcher only leaves the popcount
#: path when the outer kernel wins by a wide margin.
OUTER_OP_WEIGHT = 8.0

#: Pairwise Gram implementations, keyed by kernel name.  All share the
#: ``(x, y=None, block_bytes=...)`` calling convention on
#: :class:`~repro.sparse.bitmatrix.BitMatrix` operands.
GRAM_KERNELS = {
    "bitpacked": gram_bitpacked,
    "blocked": gram_popcount_blocked,
    "outer": gram_outer_pair,
}


@dataclass(frozen=True)
class DispatchDecision:
    """One routing decision, with the evidence it was based on.

    ``density`` is the post-filter effective density ``z / (h n)`` the
    decision saw (0.0 for degenerate batches); ``predicted_ops`` holds
    the modelled effective-operation count of every candidate kernel so
    benchmarks and tests can audit the choice.
    """

    kernel: str
    policy: str
    density: float
    predicted_ops: dict[str, float] = field(default_factory=dict)

    @property
    def forced(self) -> bool:
        """True when a fixed policy overrode the adaptive choice."""
        return self.policy != "adaptive"


def resolve_kernel(name: str):
    """Look up a pairwise Gram kernel by name."""
    try:
        return GRAM_KERNELS[name]
    except KeyError:
        raise ValueError(
            f"unknown gram kernel {name!r}; expected one of {KERNEL_NAMES}"
        ) from None


def predict_kernel_ops(
    n_rows: int,
    n_cols: int,
    nnz: float,
    bit_width: int,
    sum_sq_degree: float | None = None,
) -> dict[str, float]:
    """Modelled effective ops of each kernel for one post-filter batch.

    ``n_rows`` is the number of surviving (nonzero) rows, ``n_cols`` the
    sample count, ``nnz`` the batch nonzeros.  ``sum_sq_degree`` is the
    batch's measured ``sum_k d_k^2`` over its surviving rows; when
    omitted, the outer cost uses the uniform-degree estimate
    ``nnz^2 / n_rows``.  Degenerate batches cost zero everywhere.
    """
    if n_rows <= 0 or n_cols <= 0 or nnz <= 0:
        return {name: 0.0 for name in KERNEL_NAMES}
    if sum_sq_degree is None:
        sum_sq_degree = float(nnz) * (float(nnz) / n_rows)
    w = float(-(-n_rows // bit_width))
    pairs = n_cols * (n_cols + 1) / 2.0
    # gram_bitpacked charges min(dense sweep, Gustavson input-sparse
    # kernel); mirror that min here so predicted_ops matches what the
    # ledger will actually see.  Expected nonzero words per word row:
    # a word covers `bit_width` rows of one column, so it is nonzero
    # with probability 1 - (1 - d)^b under the uniform model.
    density = min(float(nnz) / (float(n_rows) * n_cols), 1.0)
    p_word = -math.expm1(bit_width * math.log1p(-density)) \
        if density < 1.0 else 1.0
    cx = n_cols * p_word
    gustavson = w * cx * (cx + 1.0)
    return {
        "bitpacked": min(2.0 * w * pairs, gustavson),
        "blocked": w * pairs,
        "outer": OUTER_OP_WEIGHT * float(sum_sq_degree),
    }


def choose_kernel(
    n_rows: int,
    n_cols: int,
    nnz: float,
    bit_width: int,
    policy: str = "adaptive",
    sum_sq_degree: float | None = None,
) -> DispatchDecision:
    """Pick the Gram kernel for one batch (or honour a forced policy).

    ``n_rows`` is the surviving row count after zero-row filtering;
    ``nnz`` is unchanged by the filter.  ``sum_sq_degree`` is the
    batch's measured ``sum_k d_k^2`` (see :func:`predict_kernel_ops`);
    pass it whenever the batch has been read.  Degenerate batches
    (empty, or all rows filtered away) route to the blocked popcount
    path, which no-ops on zero word rows.  Exact cost ties break toward ``blocked``.
    """
    if policy not in KERNEL_POLICIES:
        raise ValueError(
            f"policy must be one of {KERNEL_POLICIES}, got {policy!r}"
        )
    density = (
        float(nnz) / (float(n_rows) * n_cols) if n_rows > 0 and n_cols > 0
        else 0.0
    )
    ops = predict_kernel_ops(n_rows, n_cols, nnz, bit_width, sum_sq_degree)
    if policy != "adaptive":
        return DispatchDecision(
            kernel=policy, policy=policy, density=density, predicted_ops=ops
        )
    if n_rows <= 0 or n_cols <= 0 or nnz <= 0:
        kernel = "blocked"
    else:
        kernel = "blocked" if ops["blocked"] <= ops["outer"] else "outer"
    return DispatchDecision(
        kernel=kernel, policy=policy, density=density, predicted_ops=ops
    )
