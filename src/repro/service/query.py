"""Threshold / top-k similarity query engines over a persistent index.

The all-pairs-similarity literature (Özkural & Aykanat's 1-D/2-D
all-pairs algorithms, Bayardo et al.'s size-based pruning) shows that
*threshold* queries admit aggressive candidate pruning an exact
all-pairs engine never exploits.  The engines here answer
``score(query, genome) >= t`` (and top-``k``) queries through a
**cascade** whose stages discard candidates strictly before the
expensive exact verification:

1. **extent window** (exact, never wrong): for Jaccard,
   ``J(A, B) >= t  =>  t * |A| <= |B| <= |A| / t`` — because
   ``J <= min(|A|,|B|) / max(|A|,|B|)``; every measure owns its window.
   Candidate sizes live in the manifest, so the window needs no shard
   I/O.
2. **sketch prefilter** (conservative at the configured confidence):
   the stored sketches give an estimate ``est`` with an analytic 95%
   additive bound ``eps``; a candidate is pruned only when
   ``est + eps < t``.
3. **exact verification** on the survivors only.

The stage loop itself lives in one place,
:func:`~repro.service.batch.execute`.  :class:`SimilarityIndex` runs a
single query through it as a batch of one under its per-query
:class:`~repro.service.plan.QueryPlan` (``query:*`` kernels);
:class:`ShardedSimilarityIndex` is band routing around the same loop —
size bands are row blocks of the 1-D partition, so a query runs only
on the bands its window overlaps and :func:`merge_shard_results`
combines the per-band answers.  Results are memoized in an LRU
:class:`~repro.service.cache.QueryCache` keyed on the query digest and
the store version (any index mutation invalidates every cached answer).
"""

from __future__ import annotations

import math
from dataclasses import replace

import numpy as np

from repro.baselines.exact import intersection_size_sorted
from repro.core.config import QUERY_PREFILTERS, SimilarityConfig
from repro.core.sketch import sketch_error_bound
from repro.runtime.engine import Machine
from repro.runtime.executor import SequentialExecutor
from repro.runtime.machine import laptop
from repro.semantics.measures import get_measure
from repro.service.batch import (
    _EPS,
    BatchQuery,
    QueryBatcher,
    QueryMatch,
    QueryResult,
    Request,
    admit,
    as_batch_queries,
    execute,
    sketch_estimates,
)
from repro.service.cache import QueryCache
from repro.service.errors import ConfigError, QueryError
from repro.service.plan import QueryPlan, compile_plan, resolve_family
from repro.service.sharded import ShardedStore
from repro.service.store import IndexStore

__all__ = [
    "QueryMatch",
    "QueryResult",
    "ShardedSimilarityIndex",
    "SimilarityIndex",
    "exact_jaccard",
    "merge_shard_results",
    "size_ratio_mask",
    "size_ratio_window",
    "sketch_estimates",
]


# ---- the exact size-ratio bound ------------------------------------------


def size_ratio_window(size: int, threshold: float) -> tuple[int, int]:
    """The ``|B|`` window compatible with ``J(A, B) >= threshold``.

    ``J <= min(|A|,|B|) / max(|A|,|B|)``, so ``J >= t`` forces
    ``t * |A| <= |B| <= |A| / t`` (for ``t > 0``); a threshold of 0
    admits every size, and an empty query only matches empty genomes.

    >>> size_ratio_window(100, 0.5)
    (50, 200)
    """
    if not 0.0 <= threshold <= 1.0:
        raise QueryError(f"threshold must be in [0, 1], got {threshold}")
    if threshold == 0.0:
        return (0, int(np.iinfo(np.int64).max))
    if size == 0:
        return (0, 0)
    lo = int(math.ceil(threshold * size - _EPS))
    hi = int(math.floor(size / threshold + _EPS))
    return lo, hi


def size_ratio_mask(
    sizes: np.ndarray, size: int, threshold: float
) -> np.ndarray:
    """Vectorized :func:`size_ratio_window` membership test."""
    lo, hi = size_ratio_window(size, threshold)
    sizes = np.asarray(sizes)
    return (sizes >= lo) & (sizes <= hi)


def exact_jaccard(a: np.ndarray, b: np.ndarray) -> float:
    """Exact J of two sorted unique value arrays (J(0, 0) = 1).

    The intersection count comes from the baselines' one-pass
    ``searchsorted`` scan — ``O(min log max)``, no materialized
    intersection array — since this sits on the query engine's hot
    verify path.
    """
    if a.size == 0 and b.size == 0:
        return 1.0
    if a.size == 0 or b.size == 0:
        return 0.0
    inter = intersection_size_sorted(a, b)
    return inter / (a.size + b.size - inter)


# ---- the serving engines -------------------------------------------------


class _Engine:
    """What both engines share: configuration, result cache, front door."""

    def __init__(self, store, machine: Machine | None, config):
        self.store = store
        self.machine = machine if machine is not None else Machine(laptop(4))
        self.config = config if config is not None else SimilarityConfig()
        if self.config.query_prefilter not in QUERY_PREFILTERS:
            raise ConfigError(
                f"query_prefilter must be one of {QUERY_PREFILTERS}, "
                f"got {self.config.query_prefilter!r}"
            )
        self.cache = QueryCache(self.config.query_cache_size)

    @property
    def family(self) -> str:
        """The stored sketch family the prefilter estimates with."""
        return resolve_family(
            self.config.estimator, tuple(self.store.families)
        )

    @property
    def error_bound(self) -> float:
        """Analytic 95% additive bound of the prefilter estimates."""
        return sketch_error_bound(
            self.family, self.store.sketch_size, self.store.sketch_bits
        )

    def query(
        self,
        values=None,
        name: str | None = None,
        threshold: float | None = None,
        top_k: int | None = None,
        counts=None,
    ) -> QueryResult:
        """Query by values or by the name of an indexed genome.

        ``counts`` (aligned per-value abundances) only matters under
        ``similarity="weighted_jaccard"``; name queries load the
        genome's stored counts automatically.
        """
        if (values is None) == (name is None):
            raise QueryError("pass exactly one of values or name")
        if name is not None:
            if counts is not None:
                raise QueryError("counts only apply to value queries")
            return self.query_name(name, threshold=threshold, top_k=top_k)
        return self.query_values(
            values, threshold=threshold, top_k=top_k, counts=counts
        )

    def query_name(
        self,
        name: str,
        threshold: float | None = None,
        top_k: int | None = None,
    ) -> QueryResult:
        """Query an indexed genome against the rest of the index."""
        counts = None
        if self.config.similarity == "weighted_jaccard":
            counts = self.store.load_counts(name)
        return self.query_values(
            self.store.load_values(name),
            threshold=threshold,
            top_k=top_k,
            exclude_name=name,
            counts=counts,
        )


class SimilarityIndex(_Engine):
    """Threshold / top-k query engine over an :class:`IndexStore`.

    Parameters
    ----------
    store:
        The persistent index to serve from.
    machine:
        The simulated machine whose ledger the ``query:*`` kernels are
        charged to; defaults to a 4-rank laptop (queries execute on one
        serving rank).
    config:
        ``query_prefilter`` selects the cascade depth (``"off"`` =
        brute-force exact, ``"size"`` = size bound only — both exact
        unconditionally; ``"cascade"`` adds the sketch prefilter, exact
        at the sketches' 95% confidence), ``query_cache_size`` sizes
        the LRU result cache, and ``estimator`` picks the stored sketch
        family the prefilter uses (``"exact"`` falls back to the
        store's first family).
    serving_rank:
        The machine rank this engine's stages charge.  The sharded
        engine gives each band a distinct rank, so per-band work
        overlaps in the ledger's per-rank clocks (the makespan, not the
        sum, is the modelled fan-out cost).
    """

    def __init__(
        self,
        store: IndexStore,
        machine: Machine | None = None,
        config: SimilarityConfig | None = None,
        serving_rank: int = 0,
    ):
        super().__init__(store, machine, config)
        self.serving_rank = serving_rank % self.machine.world.size
        #: ``(store version, weighted)`` extent sorts this engine has
        #: been charged for — the window pays its argsort once.
        self.charged_sorts: set[tuple[int, bool]] = set()

    def plan(self, batched: bool = False) -> QueryPlan:
        """The :class:`QueryPlan` this engine's config compiles to."""
        return compile_plan(self.config, self.store, batched=batched)

    def query_values(
        self,
        values,
        threshold: float | None = None,
        top_k: int | None = None,
        exclude_name: str | None = None,
        counts=None,
    ) -> QueryResult:
        """Run one query through the executor, as a batch of one."""
        snapshot = self.store.snapshot()
        plan = compile_plan(self.config, snapshot)
        request = admit(
            BatchQuery(values, threshold, top_k, exclude_name, counts),
            plan, snapshot.version, snapshot.m,
        )
        return execute(self, [request], snapshot, plan)[0]

    def query_many(
        self,
        queries,
        threshold: float | None = None,
        top_k: int | None = None,
    ) -> list[QueryResult]:
        """Many queries through the batched path, in input order."""
        with QueryBatcher(self, executor=SequentialExecutor()) as batcher:
            return batcher.query_many(
                queries, threshold=threshold, top_k=top_k
            )


# ---- the sharded engine ----------------------------------------------------


def merge_shard_results(
    plan: QueryPlan,
    shard_results: list[QueryResult],
    threshold: float | None,
    top_k: int | None,
    positions: dict[str, int],
    store_version: int,
    batch_size: int = 1,
) -> QueryResult:
    """Merge per-shard results into one exact global answer.

    ``positions`` maps each live name to its **global insertion
    position** (the top-level manifest's order), which re-bases every
    per-shard match index and is the tie-break of the merged ordering —
    the same ``(descending J, ascending position)`` order the flat
    store produces, so merged results are bit-identical to it.  A
    candidate a shard's local top-``k`` cut dropped is always correctly
    dropped globally: within one shard, local order equals relative
    global order, so at least ``k`` same-shard candidates outrank it.

    The cascade counters are summed over the *consulted* shards only —
    shards outside the query's band range contribute nothing, which is
    exactly the per-shard candidate pruning the fan-out buys.
    ``simulated_seconds`` is left 0.0 for the caller to fill with the
    ledger makespan of the whole fan-out.
    """
    matches = [
        QueryMatch(
            name=m.name, index=positions[m.name], similarity=m.similarity
        )
        for r in shard_results
        for m in r.matches
    ]
    matches.sort(key=lambda m: (-m.similarity, m.index))
    if top_k is not None:
        matches = matches[:top_k]
    lsh_counts = [
        r.n_after_lsh for r in shard_results if r.n_after_lsh is not None
    ]
    return QueryResult(
        matches=tuple(matches),
        threshold=threshold,
        top_k=top_k,
        prefilter=plan.prefilter,
        estimator=plan.estimator,
        error_bound=plan.error_bound,
        n_candidates=sum(r.n_candidates for r in shard_results),
        n_after_size=sum(r.n_after_size for r in shard_results),
        n_after_sketch=sum(r.n_after_sketch for r in shard_results),
        store_version=store_version,
        simulated_seconds=0.0,
        candidates=plan.candidates,
        n_after_lsh=sum(lsh_counts) if lsh_counts else None,
        batch_size=batch_size,
        similarity_measure=plan.measure,
        bound_type=plan.bound_type,
    )


class ShardedSimilarityIndex(_Engine):
    """Band-routing query engine over a :class:`~repro.service.sharded.ShardedStore`.

    Compiles the same :class:`QueryPlan` as the flat engine (with
    ``fanout = n_shards``).  Every query is routed first: its window is
    mapped onto the store's band edges, and only the overlapping bands
    run the plan — each through the shared executor, pinned to machine
    rank ``band % ranks``.  The ledger's per-rank clocks advance
    independently, so ``simulated_seconds`` (one ledger diff around the
    whole fan-out) is the parallel **makespan** of the per-band work,
    not its sum.  Per-band answers merge via :func:`merge_shard_results`
    into an answer bit-identical to the flat store's.

    Single queries and batches share the one router: ``query_values``
    routes a batch of one under the per-query plan, ``query_many`` a
    whole batch under the batched plan (each band then verifies the
    queries that reached it as one block).  Results are cached at this
    level — keyed with the store's shard topology — while the per-band
    engines run cache-less, so one mutation invalidates exactly one
    layer.  ``executor`` maps the per-band work (default
    :class:`~repro.runtime.executor.SequentialExecutor`; parallelism is
    *modelled* by the rank assignment either way).

    The store's lock is held for the whole fan-out, so a concurrent
    multi-band ``add_genomes`` can never interleave between bands —
    every answer reflects exactly one store version.
    """

    def __init__(
        self,
        store: ShardedStore,
        machine: Machine | None = None,
        config: SimilarityConfig | None = None,
        executor=None,
    ):
        super().__init__(store, machine, config)
        self.executor = (
            executor if executor is not None else SequentialExecutor()
        )
        ranks = self.machine.world.size
        band_config = replace(self.config, query_cache_size=0)
        self.engines = [
            SimilarityIndex(
                shard, machine=self.machine, config=band_config,
                serving_rank=i % ranks,
            )
            for i, shard in enumerate(store.shards)
        ]

    def plan(self, batched: bool = False) -> QueryPlan:
        return compile_plan(
            self.config, self.store, batched=batched,
            shards=self.store.n_shards,
        )

    def query_values(
        self,
        values,
        threshold: float | None = None,
        top_k: int | None = None,
        exclude_name: str | None = None,
        counts=None,
    ) -> QueryResult:
        """Route one query to the bands its window overlaps."""
        item = BatchQuery(values, threshold, top_k, exclude_name, counts)
        return self._serve([item], batched=False)[0]

    def query_many(
        self,
        queries,
        threshold: float | None = None,
        top_k: int | None = None,
    ) -> list[QueryResult]:
        """Many queries through the batched plan, in input order.

        Chunked into batches of ``config.query_batch_size`` exactly
        like :meth:`QueryBatcher.query_many`, each batch routed as one
        fan-out.
        """
        items = as_batch_queries(queries, threshold, top_k)
        step = self.config.query_batch_size
        return [
            result
            for lo in range(0, len(items), step)
            for result in self._serve(items[lo : lo + step], batched=True)
        ]

    def _serve(
        self, items: list[BatchQuery], batched: bool
    ) -> list[QueryResult]:
        """Route, run per band, merge: the one sharded fan-out."""
        store, machine, cache = self.store, self.machine, self.cache
        results: list[QueryResult | None] = [None] * len(items)
        with store._lock:
            plan = self.plan(batched=batched)
            # Everything is validated before any band runs.
            requests = [
                admit(item, plan, store.version, store.m, store.topology())
                for item in items
            ]
            misses = []
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
            before = machine.ledger.snapshot()
            with machine.phase(plan.phase):
                # Band selection: one comparison per band edge, on rank 0.
                machine.world.sub([0]).charge_compute(
                    float(store.n_shards), kernel="query:bands"
                )
            routed: dict[int, list[int]] = {}
            for i in misses:
                for band in self._bands(requests[i], plan):
                    routed.setdefault(band, []).append(i)
            bands = sorted(routed)
            answers = self.executor.map(
                lambda band: execute(
                    self.engines[band], [requests[i] for i in routed[band]],
                    store.shards[band].snapshot(), plan,
                ),
                bands,
            )
            per_item: dict[int, list[QueryResult]] = {i: [] for i in misses}
            for band, band_answers in zip(bands, answers):
                for i, answer in zip(routed[band], band_answers):
                    per_item[i].append(answer)
            cost = machine.ledger.diff(before)
            positions = store.positions()
            version = store.version
        # The fan-out's ledger makespan, split evenly across the
        # queries it computed (cache hits ride for free).
        share = cost.simulated_seconds / len(misses)
        for i in misses:
            req = requests[i]
            merged = merge_shard_results(
                plan, per_item[i], req.threshold, req.top_k, positions,
                version, batch_size=len(items),
            )
            bare = replace(merged, simulated_seconds=share)
            cache.put(req.key, bare)
            results[i] = replace(bare, cache_stats=cache.stats)
        return results  # type: ignore[return-value]

    def _bands(self, req: Request, plan: QueryPlan) -> range:
        """The bands one query's window overlaps.

        The measure's window over the query's support maps onto the
        band edges: jaccard/cosine select a contiguous band range, and
        the containment window is one-sided, so every band from the
        lower edge up is consulted.  Bands are keyed by *support* size,
        about which weighted Jaccard admits no bound (a single
        huge-count value can dominate the mass), so weighted queries —
        like top-k-only and unwindowed ones — consult every band.
        """
        measure = get_measure(plan.measure)
        if (
            req.threshold is not None
            and req.threshold > 0.0
            and plan.stage("window") is not None
            and not measure.weighted
        ):
            w_lo, w_hi = measure.window(int(req.vals.size), req.threshold)
            b_lo, b_hi = self.store.band_range(w_lo, w_hi)
            return range(b_lo, b_hi + 1)
        return range(self.store.n_shards)
