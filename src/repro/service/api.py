"""The unified service facade: one front door to the serving layer.

The serving layer grew piecewise — stores (flat, then size-banded
sharded), incremental maintenance, two query paths (single + batched),
LSH candidate tables — and every caller had to know which concrete
pieces to wire together.  :class:`SimilarityService` is the public API
that hides the wiring:

* ``create`` / ``open`` pick the store layout (flat
  :class:`~repro.service.store.IndexStore` vs size-banded
  :class:`~repro.service.sharded.ShardedStore`) from the config's
  ``store.shards`` knob or the on-disk manifest, and build the matching
  query engine (:class:`~repro.service.query.SimilarityIndex` vs the
  band-routing :class:`~repro.service.query.ShardedSimilarityIndex`);
* ``add`` / ``remove`` / ``compact`` / ``rebuild`` route mutations
  through the incremental border-merge machinery, band-routed on a
  sharded store;
* ``query`` / ``query_batch`` answer threshold/top-k queries through
  the one query executor under a compiled
  :class:`~repro.service.plan.QueryPlan` on either layout — results
  are bit-identical across layouts and paths;
* ``shard`` migrates an existing flat store in place (see
  :func:`~repro.service.sharded.shard_store`) and re-wires the engine;
* ``stats`` is the one-call health/introspection snapshot.

The genomics pipeline and the CLI route through this facade.

See ``docs/service.md`` for the full API contract.
"""

from __future__ import annotations

from pathlib import Path

from repro.core.config import SimilarityConfig
from repro.core.sketch import SKETCH_ESTIMATORS
from repro.runtime.engine import Machine
from repro.runtime.machine import laptop
from repro.semantics.wminhash import WEIGHTED_MINHASH_FAMILY
from repro.service.errors import StoreError
from repro.service.incremental import (
    IncrementalReport,
    add_genomes,
    rebuild,
)
from repro.service.query import (
    QueryResult,
    ShardedSimilarityIndex,
    SimilarityIndex,
    merge_shard_results,  # noqa: F401 - a binding perfbench/layers.py traces
)
from repro.service.sharded import ShardedStore, open_store, shard_store
from repro.service.store import IndexStore

__all__ = ["SimilarityService"]


class SimilarityService:
    """One facade over stores, incremental maintenance, and queries.

    Parameters
    ----------
    store:
        A :class:`~repro.service.store.IndexStore` or
        :class:`~repro.service.sharded.ShardedStore`; usually built by
        :meth:`create` / :meth:`open` rather than passed directly.
    machine:
        The simulated machine every mutation and query charges;
        defaults to a 4-rank laptop.
    config:
        The :class:`~repro.core.config.SimilarityConfig` whose
        ``query.*`` / ``store.*`` knobs drive plan compilation, cache
        sizing, and (at :meth:`create` time) the store layout.
    executor:
        Optional executor for the sharded engine's per-band work
        (parallelism is *modelled* by the ledger's rank assignment
        either way).
    """

    def __init__(
        self,
        store: IndexStore | ShardedStore,
        machine: Machine | None = None,
        config: SimilarityConfig | None = None,
        executor=None,
    ):
        self.store = store
        self.machine = machine if machine is not None else Machine(laptop(4))
        self.config = config if config is not None else SimilarityConfig()
        self._executor = executor
        self._make_engine()

    def _make_engine(self) -> None:
        if isinstance(self.store, ShardedStore):
            self.engine: SimilarityIndex | ShardedSimilarityIndex = (
                ShardedSimilarityIndex(
                    self.store, machine=self.machine, config=self.config,
                    executor=self._executor,
                )
            )
        else:
            self.engine = SimilarityIndex(
                self.store, machine=self.machine, config=self.config
            )

    # ---- lifecycle ------------------------------------------------------

    @classmethod
    def create(
        cls,
        root: str | Path,
        m: int,
        machine: Machine | None = None,
        config: SimilarityConfig | None = None,
        metadata: dict | None = None,
        size_hint=None,
        executor=None,
    ) -> "SimilarityService":
        """Create a new empty index under ``root``.

        ``config.store_shards`` picks the layout: 1 (default) creates a
        flat :class:`~repro.service.store.IndexStore`, >= 2 a
        size-banded :class:`~repro.service.sharded.ShardedStore` with
        ``config.shard_band_policy`` band edges (``size_hint`` — a
        sample of expected genome sizes — is required by the
        ``"quantile"`` policy).
        """
        config = config if config is not None else SimilarityConfig()
        families = SKETCH_ESTIMATORS
        if config.similarity == "weighted_jaccard":
            # A weighted index gets the weighted-MinHash family on top
            # of the plain estimators, so the cascade's sketch stage
            # can bound the weighted score (plain sketches cannot).
            families = families + (WEIGHTED_MINHASH_FAMILY,)
        if config.store_shards > 1:
            store: IndexStore | ShardedStore = ShardedStore.create(
                root, m, config.store_shards,
                band_policy=config.shard_band_policy,
                codec=config.wire_codec,
                sketch_size=config.sketch_size,
                sketch_bits=config.sketch_bits,
                sketch_seed=config.sketch_seed,
                families=families,
                metadata=metadata,
                size_hint=size_hint,
            )
        else:
            store = IndexStore.create(
                root, m,
                codec=config.wire_codec,
                sketch_size=config.sketch_size,
                sketch_bits=config.sketch_bits,
                sketch_seed=config.sketch_seed,
                families=families,
                metadata=metadata,
            )
        return cls(store, machine=machine, config=config, executor=executor)

    @classmethod
    def open(
        cls,
        root: str | Path,
        machine: Machine | None = None,
        config: SimilarityConfig | None = None,
        executor=None,
    ) -> "SimilarityService":
        """Open an existing index, whatever its layout.

        The on-disk manifest decides: a v1 flat store gets the classic
        single-store engine, a sharded store the fan-out engine — the
        caller never branches on layout.
        """
        return cls(
            open_store(root), machine=machine, config=config,
            executor=executor,
        )

    # ---- mutations ------------------------------------------------------

    def add(self, named_values) -> IncrementalReport:
        """Append ``(name, values)`` pairs, border-merging the Gram.

        On a sharded store each genome routes to its size band and only
        the touched bands pay a border block; either way the stored
        Gram stays bit-identical to a from-scratch rebuild.
        """
        return add_genomes(
            self.store, named_values, machine=self.machine,
            config=self.config,
        )

    def remove(self, name: str) -> None:
        """Tombstone one genome (space is reclaimed by :meth:`compact`)."""
        self.store.remove(name)

    def compact(self) -> int:
        """Drop tombstoned genomes; returns reclaimed bytes.

        A sharded store compacts only the shards that hold tombstones.
        """
        return self.store.compact()

    def rebuild(self):
        """Recompute and persist the Gram with the exact batch engine."""
        return rebuild(self.store, machine=self.machine, config=self.config)

    def shard(
        self, shards: int, band_policy: str = "quantile"
    ) -> ShardedStore:
        """Migrate this service's flat store into ``shards`` size bands.

        In-place, atomic (one top-level manifest replacement commits
        the migration), and query-preserving — answers before and after
        are bit-identical.  The service's engine is re-wired to the
        fan-out engine; raises :class:`~repro.service.errors.StoreError`
        if the store is already sharded.
        """
        if isinstance(self.store, ShardedStore):
            raise StoreError(
                f"{self.store.root} is already a sharded store"
            )
        self.store = shard_store(
            self.store.root, shards, band_policy=band_policy
        )
        self._make_engine()
        return self.store

    # ---- queries --------------------------------------------------------

    def query(
        self,
        values=None,
        name: str | None = None,
        threshold: float | None = None,
        top_k: int | None = None,
        counts=None,
    ) -> QueryResult:
        """One threshold/top-k query, by values or by indexed name.

        ``counts`` (aligned per-value abundances) only matters under
        ``similarity="weighted_jaccard"``; name queries load the
        stored counts automatically.
        """
        return self.engine.query(
            values=values, name=name, threshold=threshold, top_k=top_k,
            counts=counts,
        )

    def query_batch(
        self,
        queries,
        threshold: float | None = None,
        top_k: int | None = None,
    ) -> list[QueryResult]:
        """Many queries through the batched path, in input order.

        Items are raw value arrays (taking the call-level ``threshold``
        / ``top_k``) or :class:`~repro.service.batch.BatchQuery`
        instances.  Either layout's engine admits them in batches that
        share one size-sorted window and one rectangular popcount
        block; a sharded store first routes each query to the bands its
        window overlaps.  Results equal :meth:`query` exactly on both
        layouts.
        """
        return self.engine.query_many(
            queries, threshold=threshold, top_k=top_k
        )

    # ---- introspection --------------------------------------------------

    def stats(self) -> dict:
        """One health/introspection snapshot of the store and engine."""
        store = self.store
        sharded = isinstance(store, ShardedStore)
        out = {
            "layout": "sharded" if sharded else "flat",
            "root": str(store.root),
            "m": store.m,
            "n_genomes": store.n_genomes,
            "version": store.version,
            "total_bytes": store.total_bytes(),
            "families": list(store.families),
            "cache": str(self.engine.cache.stats),
            "plan": self.engine.plan().describe(),
            "summary": store.summary(),
        }
        if sharded:
            out["n_shards"] = store.n_shards
            out["band_policy"] = store.band_policy
            out["band_edges"] = [int(e) for e in store.band_edges]
            out["shard_occupancy"] = [s.n_genomes for s in store.shards]
        return out
