"""The query executor, and the batched admission front end over it.

Every threshold/top-k answer the serving layer gives comes out of one
stage loop, :func:`execute`, run over a version-consistent
:class:`~repro.service.store.StoreSnapshot` under a compiled
:class:`~repro.service.plan.QueryPlan`:

* **lsh** — banded bucket probes (when the plan generates candidates
  by LSH);
* **window** — the measure's exact extent window over *extent-sorted*
  genome lengths: the argsort is memoized on the snapshot and charged
  once per store version, after which each request's window is two
  ``searchsorted`` probes instead of a full extent scan;
* **sketch** — the conservative sketch prune (cascade plans only);
* **verify** — exact scores of the survivors.  A batched plan verifies
  the whole batch as one rectangular bit-matrix popcount block
  (:func:`~repro.sparse.spgemm.gram_popcount_blocked`) whose bit rows
  span only the **union of the query values** — candidate bits outside
  it cannot contribute to any intersection, so hypersparse stores (the
  BIGSI-like Fig. 2b regime, ``m`` in the millions) pack into a few
  word rows.  A per-query plan (and any weighted plan) verifies pair by
  pair.

A single query is a batch of one under its per-query plan
(``query:*`` kernels, the ``query`` phase, no admission charge); the
sharded engine routes requests to size bands and runs this same loop
per band.  The Özkural & Aykanat all-pairs-threshold literature frames
both the window and the Gram product as batch operations, and GPU
vector-similarity engines (Joubert et al.) get their throughput by
amortizing many queries into one block product — which is what the
:class:`QueryBatcher` front end is for:

* **admission** — requests enter a pending batch pinned to the store's
  snapshot; the batch flushes when it reaches ``query_batch_size``
  requests, when ``query_max_wait`` expires, or when a new request
  observes a newer store version (a batch never mixes versions).
  Because shards are append-only, a batch admitted under version ``v``
  computes correct answers for ``v`` even while ``add_genomes`` moves
  the store on.

Batched plans charge the cost ledger under ``query:batch:*`` kernels
(``admit`` / ``window`` / ``sketch`` / ``verify``); a batch's modelled
cost is split evenly across the requests it actually computed (cache
hits are served for free).  Exactness is preserved end to end: a
batched answer's matches equal the per-query answer's, which equal
brute force — property- and stress-tested in
``tests/service/test_batcher.py``.
"""

from __future__ import annotations

import math
import threading
from concurrent.futures import Future
from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING, Any, Sequence

import numpy as np

from repro.baselines.exact import intersection_size_sorted
from repro.core.sketch import (
    estimate_bbit_jaccard,
    hll_cardinality,
    make_sketch,
    unpack_lanes,
)
from repro.runtime.executor import SequentialExecutor, ThreadedExecutor
from repro.semantics.measures import get_measure
from repro.semantics.weighted import coerce_counts
from repro.semantics.wminhash import (
    WEIGHTED_MINHASH_FAMILY,
    WeightedMinHashSketch,
)
from repro.service.cache import (
    SINGLE_TOPOLOGY,
    CacheStats,
    counts_cache_digest,
    result_cache_key,
)
from repro.service.errors import ConfigError, QueryError
from repro.service.plan import ADMIT_KERNEL, QueryPlan, compile_plan
from repro.service.store import LSH_FAMILY, StoreSnapshot, _as_values
from repro.sparse.bitmatrix import BitMatrix
from repro.sparse.spgemm import gram_popcount_blocked

if TYPE_CHECKING:
    from repro.service.query import SimilarityIndex

#: Tolerance of the threshold comparisons: protects the exact-equality
#: guarantee against float rounding in ``t * |A|``-style products, far
#: below any meaningful similarity difference.
_EPS = 1e-12


# ---- results --------------------------------------------------------------


@dataclass(frozen=True)
class QueryMatch:
    """One qualifying genome: its name, store position, and exact J."""

    name: str
    index: int
    similarity: float


@dataclass(frozen=True)
class QueryResult:
    """Everything one threshold/top-k query produced.

    ``matches`` is sorted by descending similarity (ties by ascending
    store position).  The ``n_*`` counters expose the cascade funnel:
    ``n_candidates >= n_after_size >= n_after_sketch == n_verified``.
    """

    matches: tuple[QueryMatch, ...]
    threshold: float | None
    top_k: int | None
    prefilter: str
    estimator: str
    error_bound: float | None
    n_candidates: int
    n_after_size: int
    n_after_sketch: int
    store_version: int
    simulated_seconds: float
    #: The candidate generator the plan ran
    #: (:data:`~repro.core.config.QUERY_CANDIDATES`).
    candidates: str = "scan"
    #: Candidates surviving the banded LSH bucket probe (``None`` when
    #: no ``lsh`` stage ran or there was nothing to probe).  Under
    #: ``"lsh_exact"`` this measures the probe without narrowing the
    #: scan — the recall-audit number.
    n_after_lsh: int | None = None
    from_cache: bool = False
    cache_stats: CacheStats | None = field(default=None, compare=False)
    #: How many coalesced queries shared the batch this answer came
    #: from (1 = the single-query path).  Excluded from equality so a
    #: batched answer compares equal to its per-query twin.
    batch_size: int = field(default=1, compare=False)
    #: The similarity semantics the scores were computed under (a
    #: :data:`~repro.core.config.SIMILARITY_MEASURES` value) and the
    #: shape of its pruning bound (``"symmetric_window"``,
    #: ``"one_sided_window"``, or ``"mass_window"``).
    similarity_measure: str = "jaccard"
    bound_type: str = "symmetric_window"

    @property
    def n_verified(self) -> int:
        """Exact verifications the cascade paid for."""
        return self.n_after_sketch

    @property
    def pruning_ratio(self) -> float:
        """Candidates per exact verification (1.0 = brute force)."""
        return self.n_candidates / max(self.n_verified, 1)

    @property
    def names(self) -> list[str]:
        return [m.name for m in self.matches]

    def summary(self) -> str:
        what = []
        if self.threshold is not None:
            what.append(f"threshold={self.threshold:g}")
        if self.top_k is not None:
            what.append(f"top_k={self.top_k}")
        bound = (
            f" (95% bound +/- {self.error_bound:.4f})"
            if self.error_bound is not None
            else ""
        )
        lsh = (
            f"{self.n_after_lsh} after LSH probe -> "
            if self.n_after_lsh is not None
            else ""
        )
        lines = [
            f"query [{' '.join(what)}]: {len(self.matches)} match(es), "
            f"measure={self.similarity_measure} ({self.bound_type}), "
            f"prefilter={self.prefilter} candidates={self.candidates} "
            f"estimator={self.estimator}{bound}",
            f"cascade: {self.n_candidates} candidate(s) -> {lsh}"
            f"{self.n_after_size} after size bound -> "
            f"{self.n_after_sketch} verified exactly "
            f"({self.pruning_ratio:.1f}x pruning)",
            f"store version {self.store_version}, simulated "
            f"{self.simulated_seconds:.6f}s"
            + (
                f" [batched x{self.batch_size}]"
                if self.batch_size > 1
                else ""
            )
            + (" [served from cache]" if self.from_cache else ""),
        ]
        if self.cache_stats is not None:
            lines.append(f"cache: {self.cache_stats}")
        return "\n".join(lines)


# ---- requests ---------------------------------------------------------------


@dataclass(frozen=True)
class BatchQuery:
    """One query of a batch: values plus its own parameters.

    ``query_many`` accepts raw value arrays (which take the call-level
    defaults) or explicit ``BatchQuery`` items, so one batch may mix
    threshold and top-k requests freely.
    """

    values: Any
    threshold: float | None = None
    top_k: int | None = None
    exclude_name: str | None = None
    #: Aligned per-value abundances; only consulted under
    #: ``similarity="weighted_jaccard"``.
    counts: Any = None


def as_batch_queries(
    queries: Sequence, threshold: float | None, top_k: int | None
) -> list[BatchQuery]:
    """Raw value arrays take the call-level parameters."""
    return [
        q if isinstance(q, BatchQuery)
        else BatchQuery(q, threshold=threshold, top_k=top_k)
        for q in queries
    ]


@dataclass
class Request:
    """An admitted query: validated values and its result-cache key."""

    vals: np.ndarray
    threshold: float | None
    top_k: int | None
    exclude_name: str | None
    counts: np.ndarray | None
    key: tuple


def admit(
    item: BatchQuery,
    plan: QueryPlan,
    version: int,
    m: int,
    topology: tuple = SINGLE_TOPOLOGY,
) -> Request:
    """Validate one query and key it for ``plan`` at store ``version``.

    The one query validator of the serving layer.  The key is the same
    whichever path runs the query, so cache entries written by a single
    query serve a batch and vice versa.
    """
    if item.counts is not None:
        vals, q_counts = coerce_counts(item.values, item.counts)
    else:
        vals, q_counts = _as_values(item.values), None
    threshold, top_k = item.threshold, item.top_k
    if vals.size and (vals[0] < 0 or vals[-1] >= m):
        raise QueryError(f"query values outside [0, {m})")
    if threshold is None and top_k is None:
        raise QueryError("pass threshold, top_k, or both")
    if threshold is not None and not 0.0 <= threshold <= 1.0:
        raise QueryError(f"threshold must be in [0, 1], got {threshold}")
    if top_k is not None and top_k <= 0:
        raise QueryError(f"top_k must be positive, got {top_k}")
    key = result_cache_key(
        vals, threshold, top_k, plan.prefilter, plan.family,
        plan.candidates, item.exclude_name, version,
        topology=topology,
        similarity=plan.measure,
        counts_digest=(
            counts_cache_digest(q_counts)
            if plan.measure == "weighted_jaccard"
            else None
        ),
    )
    return Request(
        vals=vals, threshold=threshold, top_k=top_k,
        exclude_name=item.exclude_name, counts=q_counts, key=key,
    )


# ---- the executor -----------------------------------------------------------


def execute(
    index: SimilarityIndex,
    requests: list[Request],
    snapshot: StoreSnapshot,
    plan: QueryPlan,
) -> list[QueryResult]:
    """Run admitted requests through ``plan``'s stages, in request order.

    ``index`` supplies the machine and serving rank the stages charge,
    the result cache, and the bit width of the verify block.  Cache
    hits are served immediately and charged nothing; the modelled cost
    of the rest is split evenly across them.
    """
    cache = index.cache
    results: list[QueryResult | None] = [None] * len(requests)
    misses: list[int] = []
    for i, req in enumerate(requests):
        cached = cache.get(req.key)
        if cached is not None:
            results[i] = replace(
                cached, from_cache=True, cache_stats=cache.stats
            )
        else:
            misses.append(i)
    if not misses:
        return results  # type: ignore[return-value]

    machine = index.machine
    serving = machine.world.sub([index.serving_rank])
    sizes = snapshot.sizes()
    n = snapshot.n_genomes
    before = machine.ledger.snapshot()
    with machine.phase(plan.phase):
        if plan.batched:
            serving.charge_compute(float(len(requests)), kernel=ADMIT_KERNEL)
        probes, n_after_lsh = _lsh_stage(
            serving, requests, misses, snapshot, plan
        )
        cands = _window_stage(
            serving, requests, misses, snapshot, plan, probes,
            index.charged_sorts,
        )
        n_after_size = {i: int(cands[i].size) for i in misses}
        cands = _sketch_stage(
            serving, requests, misses, cands, sizes, snapshot, plan
        )
        if plan.verify == "pairwise":
            sims = _verify_pairwise(
                serving, requests, misses, cands, sizes, snapshot, plan
            )
        else:
            sims = _verify_blocked(
                serving, requests, misses, cands, sizes, snapshot, plan,
                index.config.bit_width,
            )
        for i in misses:
            req = requests[i]
            cand, sim = cands[i], sims[i]
            if req.threshold is not None and cand.size:
                sel = sim >= req.threshold
                cand, sim = cand[sel], sim[sel]
            order = np.lexsort((cand, -sim))
            cand, sim = cand[order], sim[order]
            if req.top_k is not None:
                cand, sim = cand[: req.top_k], sim[: req.top_k]
            excluded = snapshot.position(req.exclude_name) is not None
            results[i] = QueryResult(
                matches=tuple(
                    QueryMatch(
                        name=snapshot.names[int(c)], index=int(c),
                        similarity=float(s),
                    )
                    for c, s in zip(cand, sim)
                ),
                threshold=req.threshold,
                top_k=req.top_k,
                prefilter=plan.prefilter,
                estimator=plan.estimator,
                error_bound=plan.error_bound,
                n_candidates=n - 1 if excluded else n,
                n_after_size=n_after_size[i],
                n_after_sketch=int(cands[i].size),
                store_version=snapshot.version,
                simulated_seconds=0.0,
                candidates=plan.candidates,
                n_after_lsh=n_after_lsh.get(i),
                batch_size=len(requests),
                similarity_measure=plan.measure,
                bound_type=plan.bound_type,
            )
    per_query = machine.ledger.diff(before).simulated_seconds / len(misses)
    for i in misses:
        bare = replace(results[i], simulated_seconds=per_query)
        cache.put(requests[i].key, bare)
        results[i] = replace(bare, cache_stats=cache.stats)
    return results  # type: ignore[return-value]


# ---- stages -----------------------------------------------------------------


def _lsh_stage(
    serving, requests, misses, snapshot, plan
) -> tuple[dict[int, np.ndarray], dict[int, int | None]]:
    """Banded LSH bucket probes, one per cache-missed request.

    Returns ``(probes, counts)``: per request, the probed store
    positions with the request's self-match already excluded, and the
    ``n_after_lsh`` audit count (``None`` when there was nothing to
    probe).  Under ``"lsh_exact"`` only ``counts`` is consumed — the
    window stage still scans, keeping results exact.
    """
    if plan.stage("lsh") is None:
        return {}, {}
    table = snapshot.lsh
    n = snapshot.n_genomes
    probes: dict[int, np.ndarray] = {}
    counts: dict[int, int | None] = {}
    total_flops = 0.0
    for i in misses:
        req = requests[i]
        excl = snapshot.position(req.exclude_name)
        if n - (excl is not None) == 0:
            counts[i] = None
            continue
        sk = make_sketch(
            LSH_FAMILY, snapshot.sketch_size, snapshot.sketch_bits,
            snapshot.sketch_seed,
        )
        sk.update(req.vals)
        probed, retrieved = table.probe(sk.fingerprints())
        total_flops += table.probe_cost(retrieved)
        if excl is not None:
            probed = probed[probed != excl]
        probes[i] = probed
        counts[i] = int(probed.size)
    if total_flops:
        serving.charge_compute(total_flops, kernel=plan.kernel("lsh"))
    return probes, counts


def _window_stage(
    serving, requests, misses, snapshot, plan, probes, charged_sorts
) -> dict[int, np.ndarray]:
    """Per-request candidate windows over extent-sorted lengths.

    The extent is the measure's: support sizes for the set measures,
    total masses for weighted Jaccard.  The snapshot's extent argsort
    is charged once per store version (``charged_sorts`` records which
    versions this engine has paid for), then every windowed request
    pays two log-time probes.  Under ``candidates="lsh"`` a request's
    window is instead a direct extent mask over its (much smaller)
    probed set.
    """
    measure = get_measure(plan.measure)
    extents = snapshot.masses() if measure.weighted else snapshot.sizes()
    n = snapshot.n_genomes
    windowed = plan.stage("window") is not None and n > 0
    cands: dict[int, np.ndarray] = {}
    charged_probes = 0
    for i in misses:
        req = requests[i]
        q_extent = measure.extent(req.vals, req.counts)
        if plan.candidates == "lsh" and i in probes:
            cand = probes[i]
            if windowed and req.threshold is not None and cand.size:
                serving.charge_compute(
                    float(cand.size), kernel=plan.kernel("window")
                )
                w_lo, w_hi = measure.window(q_extent, req.threshold)
                ext = extents[cand]
                cand = cand[(ext >= w_lo) & (ext <= w_hi)]
            cands[i] = cand.astype(np.int64)
            continue
        if windowed and req.threshold is not None:
            order, sorted_ext = snapshot.sorted_extents(measure.weighted)
            sort_key = (snapshot.version, measure.weighted)
            if sort_key not in charged_sorts:
                serving.charge_compute(
                    float(n) * max(math.log2(n), 1.0),
                    kernel=plan.kernel("window"),
                )
                charged_sorts.add(sort_key)
            w_lo, w_hi = measure.window(q_extent, req.threshold)
            left = int(np.searchsorted(sorted_ext, w_lo, side="left"))
            right = int(np.searchsorted(sorted_ext, w_hi, side="right"))
            cand = np.sort(order[left:right])
            charged_probes += 1
        else:
            cand = np.arange(n, dtype=np.int64)
        excl = snapshot.position(req.exclude_name)
        if excl is not None:
            cand = cand[cand != excl]
        cands[i] = cand.astype(np.int64)
    if charged_probes:
        serving.charge_compute(
            2.0 * charged_probes * max(math.log2(max(n, 2)), 1.0),
            kernel=plan.kernel("window"),
        )
    return cands


def _sketch_stage(
    serving, requests, misses, cands, sizes, snapshot, plan
) -> dict[int, np.ndarray]:
    """Conservative sketch prune, per request (cascade plans only).

    Plain families estimate J and the plan's measure transforms the
    estimate band into conservative score bounds; the weighted family
    estimates J_w directly.
    """
    family = plan.family
    if family is None:
        return cands
    measure = get_measure(plan.measure)
    bound = plan.error_bound
    payloads = snapshot.family_payloads(family)
    total = 0
    out: dict[int, np.ndarray] = {}
    for i in misses:
        req, cand = requests[i], cands[i]
        if not cand.size:
            out[i] = cand
            continue
        est = sketch_estimates(
            req.vals, cand, sizes, payloads, family,
            snapshot.sketch_size, snapshot.sketch_bits,
            snapshot.sketch_seed, counts=req.counts,
        )
        total += int(cand.size)
        s_lo, s_hi = measure.sketch_score_bounds(
            est, bound, int(req.vals.size), sizes[cand]
        )
        if req.threshold is not None:
            keep = s_hi >= req.threshold - _EPS
            cand, s_lo, s_hi = cand[keep], s_lo[keep], s_hi[keep]
        if req.top_k is not None and cand.size > req.top_k:
            kth = np.partition(s_lo, -req.top_k)[-req.top_k]
            keep = s_hi >= kth - _EPS
            cand = cand[keep]
        out[i] = cand
    if total:
        serving.charge_compute(
            float(total) * snapshot.sketch_size,
            kernel=plan.kernel("sketch"),
        )
    return out


def _verify_blocked(
    serving, requests, misses, cands, sizes, snapshot, plan, bit_width
) -> dict[int, np.ndarray]:
    """Exact similarities via one rectangular popcount block.

    Distinct query columns (duplicates collapse by digest) against
    the union of every request's surviving candidates, over a bit
    universe restricted to the union of the *query* values —
    candidate bits outside it cannot contribute to an intersection,
    so the word-row count tracks the queries, not ``m``.
    """
    # Duplicate queries in one batch share a column.
    slot_of: dict[tuple, int] = {}
    req_slot: dict[int, int] = {}
    uniq_vals: list[np.ndarray] = []
    for i in misses:
        k = (requests[i].key[0], requests[i].key[1])
        if k not in slot_of:
            slot_of[k] = len(uniq_vals)
            uniq_vals.append(requests[i].vals)
        req_slot[i] = slot_of[k]
    cand_union = np.unique(
        np.concatenate(
            [cands[i] for i in misses] or [np.empty(0, dtype=np.int64)]
        )
    ).astype(np.int64)
    universe = np.unique(
        np.concatenate(uniq_vals or [np.empty(0, dtype=np.int64)])
    )

    nq, nc, w = len(uniq_vals), int(cand_union.size), int(universe.size)
    if nq and nc and w:
        q_rows = np.concatenate(
            [np.searchsorted(universe, v) for v in uniq_vals]
        )
        q_cols = np.concatenate(
            [np.full(v.size, s, dtype=np.int64)
             for s, v in enumerate(uniq_vals)]
        )
        c_rows_parts, c_cols_parts = [], []
        mapped = 0
        for col, c in enumerate(cand_union):
            cvals = snapshot.load_values(snapshot.names[int(c)])
            mapped += int(cvals.size)
            if not cvals.size:
                continue
            pos = np.searchsorted(universe, cvals)
            clipped = np.minimum(pos, w - 1)
            hit = universe[clipped] == cvals
            c_rows_parts.append(pos[hit])
            c_cols_parts.append(
                np.full(int(hit.sum()), col, dtype=np.int64)
            )
        q_mat = BitMatrix.from_coo(q_rows, q_cols, w, nq, bit_width)
        c_mat = BitMatrix.from_coo(
            np.concatenate(c_rows_parts or [np.empty(0, np.int64)]),
            np.concatenate(c_cols_parts or [np.empty(0, np.int64)]),
            w, nc, bit_width,
        )
        kr = gram_popcount_blocked(q_mat, c_mat)
        inter = kr.value
        # Modelled cost: like spgemm's gram_popcount, a tuned
        # implementation picks between the dense word sweep
        # (w * pairs, what gram_popcount_blocked reports) and a
        # Gustavson-style input-sparse kernel touching only word
        # pairs where both operands are nonzero — decisive in the
        # hypersparse regime, where a candidate's universe-
        # restricted column is almost entirely empty words.
        cx = (q_mat.words != 0).sum(axis=1, dtype=np.float64)
        cy = (c_mat.words != 0).sum(axis=1, dtype=np.float64)
        rect_flops = min(kr.flops, 2.0 * float((cx * cy).sum()))
        # One pass over each operand's values to pack the block,
        # plus the rectangle itself — the pack cost is paid once
        # per union candidate, not once per (query, candidate)
        # pair, which is exactly where batching wins.
        serving.charge_compute(
            rect_flops + float(mapped + sum(v.size for v in uniq_vals)),
            kernel=plan.kernel("verify"),
        )
    else:
        inter = np.zeros((max(nq, 1), max(nc, 1)), dtype=np.int64)

    # The blocked Gram yields exact intersections + sizes, which is
    # everything jaccard / containment / cosine need: the measure maps
    # the statistics to its score.
    measure = get_measure(plan.measure)
    sims: dict[int, np.ndarray] = {}
    for i in misses:
        req, cand = requests[i], cands[i]
        if not cand.size:
            sims[i] = np.empty(0, dtype=np.float64)
            continue
        cols = np.searchsorted(cand_union, cand)
        ivals = inter[req_slot[i], cols].astype(np.int64)
        sims[i] = np.asarray(
            measure.score_from_stats(ivals, int(req.vals.size), sizes[cand]),
            dtype=np.float64,
        )
    return sims


def _verify_pairwise(
    serving, requests, misses, cands, sizes, snapshot, plan
) -> dict[int, np.ndarray]:
    """Exact similarities one (query, candidate) pair at a time.

    The set measures score each candidate's sorted-array intersection
    count; weighted Jaccard needs min/max mass accumulations over
    aligned counts, which the popcount Gram cannot produce, so it runs
    the measure's exact pair formula on the stored counts.
    """
    measure = get_measure(plan.measure)
    names = snapshot.names
    sims: dict[int, np.ndarray] = {}
    total = 0.0
    for i in misses:
        req, cand = requests[i], cands[i]
        if measure.weighted:
            qc = (
                req.counts
                if req.counts is not None
                else np.ones(req.vals.size, dtype=np.int64)
            )
            sim = np.array(
                [
                    measure.exact_pair(
                        req.vals, snapshot.load_values(names[c]), qc,
                        snapshot.load_counts(names[c]),
                    )
                    for c in cand
                ],
                dtype=np.float64,
            )
        else:
            inter = np.array(
                [
                    intersection_size_sorted(
                        req.vals, snapshot.load_values(names[c])
                    )
                    for c in cand
                ],
                dtype=np.int64,
            )
            sim = np.asarray(
                measure.score_from_stats(
                    inter, int(req.vals.size), sizes[cand]
                ),
                dtype=np.float64,
            )
        total += float(req.vals.size * cand.size + sizes[cand].sum())
        sims[i] = sim
    if total:
        serving.charge_compute(total, kernel=plan.kernel("verify"))
    return sims


# ---- sketch estimation -------------------------------------------------------


def sketch_estimates(
    vals: np.ndarray,
    cand: np.ndarray,
    sizes: np.ndarray,
    payloads: list[np.ndarray],
    family: str,
    sketch_size: int,
    sketch_bits: int,
    sketch_seed: int,
    counts: np.ndarray | None = None,
) -> np.ndarray:
    """Per-candidate similarity estimates of one query from stored sketches.

    ``payloads`` is indexed by store position (one stored payload per
    live genome); ``cand`` selects the candidates to estimate.  The
    plain families estimate J; the weighted-MinHash family estimates
    J_w of the query's ``counts`` (all ones when ``None``).
    """
    if family == WEIGHTED_MINHASH_FAMILY:
        wsk = WeightedMinHashSketch(size=sketch_size, seed=sketch_seed)
        wsk.update(vals, counts)
        est = _estimate_minhash(
            wsk.hashes, [payloads[int(i)] for i in cand], sketch_size
        )
    else:
        sk = make_sketch(family, sketch_size, sketch_bits, sketch_seed)
        sk.update(vals)
        if family == "minhash":
            est = _estimate_minhash(
                sk.hashes, [payloads[int(i)] for i in cand], sketch_size
            )
        elif family == "bbit_minhash":
            fps = np.stack(
                [
                    unpack_lanes(payloads[int(i)], sketch_bits, sketch_size)
                    for i in cand
                ]
            )
            matches = (fps == sk.fingerprints()[None, :]).mean(axis=1)
            est = np.array(
                [estimate_bbit_jaccard(float(m), sketch_bits) for m in matches]
            )
        else:
            regs = np.stack([payloads[int(i)] for i in cand])
            unions = np.maximum(
                hll_cardinality(np.maximum(regs, sk.registers[None, :])),
                1e-12,
            )
            inter = vals.size + sizes[cand].astype(np.float64) - unions
            est = np.clip(inter / unions, 0.0, 1.0)
    # Exact empty-set rules override any estimate.
    cand_sizes = sizes[cand]
    if vals.size == 0:
        est = np.where(cand_sizes == 0, 1.0, 0.0)
    else:
        est = np.where(cand_sizes == 0, 0.0, est)
    return est


def _estimate_minhash(
    qh: np.ndarray, hashes: list[np.ndarray], size: int
) -> np.ndarray:
    """Bottom-``size`` (Mash) estimates: the shared fraction of the union."""
    out = np.empty(len(hashes), dtype=np.float64)
    for i, h in enumerate(hashes):
        if qh.size == 0 and h.size == 0:
            out[i] = 1.0
            continue
        union = np.union1d(qh, h)[:size]
        if union.size == 0:
            out[i] = 1.0
            continue
        both = (
            np.isin(union, qh, assume_unique=True)
            & np.isin(union, h, assume_unique=True)
        ).sum()
        out[i] = both / union.size
    return out


# ---- batched admission --------------------------------------------------------


@dataclass
class _Batch:
    """The pending batch: requests pinned to one store snapshot."""

    snapshot: StoreSnapshot
    plan: QueryPlan
    requests: list[Request] = field(default_factory=list)
    futures: list[Future] = field(default_factory=list)
    timer: threading.Timer | None = None


class QueryBatcher:
    """Coalescing front end over a :class:`SimilarityIndex`.

    Shares the index's machine, config, and result cache — entries
    written by either path are served by the other (the cache key
    carries no batch context).  ``submit`` returns a
    :class:`concurrent.futures.Future`; ``query_many`` is the
    deterministic synchronous API (fixed chunking, no timers).

    Parameters
    ----------
    index:
        The engine whose store, machine, and cache the batches use.
    executor:
        Where flushed batches execute; defaults to a 1-worker
        :class:`~repro.runtime.executor.ThreadedExecutor` (batches
        serialize on the ledger anyway).  Pass a
        :class:`~repro.runtime.executor.SequentialExecutor` to execute
        flushes inline on the admitting thread.
    batch_size / max_wait:
        Override ``config.query_batch_size`` / ``config.query_max_wait``.
    """

    def __init__(
        self,
        index: SimilarityIndex,
        executor: SequentialExecutor | ThreadedExecutor | None = None,
        batch_size: int | None = None,
        max_wait: float | None = None,
    ):
        self.index = index
        self.config = index.config
        self.batch_size = int(
            batch_size if batch_size is not None
            else self.config.query_batch_size
        )
        if self.batch_size <= 0:
            raise ConfigError(
                f"batch_size must be positive, got {self.batch_size}"
            )
        self.max_wait = float(
            max_wait if max_wait is not None else self.config.query_max_wait
        )
        if self.max_wait < 0:
            raise ConfigError(
                f"max_wait must be >= 0, got {self.max_wait}"
            )
        self._owns_executor = executor is None
        self._executor = (
            executor if executor is not None else ThreadedExecutor(1)
        )
        self._admit_lock = threading.Lock()
        self._exec_lock = threading.Lock()
        self._pending: _Batch | None = None
        self.n_batches = 0
        self.n_requests = 0

    # ---- admission ------------------------------------------------------

    def submit(
        self,
        values,
        threshold: float | None = None,
        top_k: int | None = None,
        exclude_name: str | None = None,
        counts=None,
    ) -> Future:
        """Admit one query; resolves to its :class:`QueryResult`.

        Validation errors raise here, synchronously.  The returned
        future completes when the request's batch executes (full batch,
        ``max_wait`` expiry, version-change flush, or :meth:`flush`).
        """
        item = BatchQuery(values, threshold, top_k, exclude_name, counts)
        future: Future = Future()
        with self._admit_lock:
            batch = self._admit_batch_locked()
            snapshot = batch.snapshot
            batch.requests.append(
                admit(item, batch.plan, snapshot.version, snapshot.m)
            )
            batch.futures.append(future)
            self.n_requests += 1
            if len(batch.requests) >= self.batch_size or self.max_wait == 0:
                self._dispatch_locked()
            elif batch.timer is None and self.max_wait > 0:
                batch.timer = threading.Timer(
                    self.max_wait, self._flush_expired, args=(batch,)
                )
                batch.timer.daemon = True
                batch.timer.start()
        return future

    def query_many(
        self,
        queries: Sequence,
        threshold: float | None = None,
        top_k: int | None = None,
    ) -> list[QueryResult]:
        """Run many queries through the batched path, deterministically.

        Items are raw value arrays (taking the call-level
        ``threshold`` / ``top_k``) or :class:`BatchQuery` instances;
        they are chunked into batches of ``batch_size`` in order, each
        chunk admitted under the store's current snapshot and executed
        inline — no timers, no executor handoff — so results are
        reproducible and returned in input order.
        """
        items = as_batch_queries(queries, threshold, top_k)
        results: list[QueryResult] = []
        for lo in range(0, len(items), self.batch_size):
            snapshot = self.index.store.snapshot()
            plan = compile_plan(self.config, snapshot, batched=True)
            requests = [
                admit(item, plan, snapshot.version, snapshot.m)
                for item in items[lo : lo + self.batch_size]
            ]
            self.n_requests += len(requests)
            results.extend(self._run_batch(requests, snapshot, plan))
        return results

    def flush(self) -> None:
        """Dispatch the pending batch (if any) without waiting for it."""
        with self._admit_lock:
            self._dispatch_locked()

    def close(self) -> None:
        """Flush, then shut down an executor this batcher created."""
        self.flush()
        if self._owns_executor:
            self._executor.shutdown()

    def __enter__(self) -> "QueryBatcher":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # ---- admission internals --------------------------------------------

    def _admit_batch_locked(self) -> _Batch:
        """The pending batch for the *current* store version.

        A pending batch admitted under an older version is flushed
        first — batches never mix versions.  (If the store moves
        between this check and execution, the batch still answers
        correctly for the snapshot it holds; the check only bounds
        staleness, it is not needed for correctness.)
        """
        if (
            self._pending is not None
            and self._pending.snapshot.version != self.index.store.version
        ):
            self._dispatch_locked()
        if self._pending is None:
            snapshot = self.index.store.snapshot()
            self._pending = _Batch(
                snapshot=snapshot,
                plan=compile_plan(self.config, snapshot, batched=True),
            )
        return self._pending

    def _dispatch_locked(self) -> None:
        batch = self._pending
        self._pending = None
        if batch is None or not batch.requests:
            return
        if batch.timer is not None:
            batch.timer.cancel()
        self._executor.submit(self._execute_batch, batch)

    def _flush_expired(self, batch: _Batch) -> None:
        with self._admit_lock:
            if self._pending is batch:
                self._dispatch_locked()

    # ---- batch execution ------------------------------------------------

    def _execute_batch(self, batch: _Batch) -> None:
        try:
            results = self._run_batch(batch.requests, batch.snapshot, batch.plan)
            for future, res in zip(batch.futures, results):
                future.set_result(res)
        except BaseException as exc:  # pragma: no cover - defensive
            for future in batch.futures:
                if not future.done():
                    future.set_exception(exc)
            if isinstance(exc, (KeyboardInterrupt, SystemExit)):
                raise

    def _run_batch(
        self,
        requests: list[Request],
        snapshot: StoreSnapshot,
        plan: QueryPlan,
    ) -> list[QueryResult]:
        """Execute one admitted batch; returns results in request order."""
        with self._exec_lock:
            self.n_batches += 1
            return execute(self.index, requests, snapshot, plan)
