"""Persistent similarity index + threshold/top-k query serving layer.

The fourth architectural layer of the repo: the batch engine
(:mod:`repro.core`) computes, the codecs (:mod:`repro.runtime.codec`)
compress, the sketches (:mod:`repro.core.sketch`) estimate — this
package **persists and serves**:

* :mod:`repro.service.api` — :class:`SimilarityService`, the **public
  facade**: one front door over both store layouts, incremental
  maintenance, and both query paths;
* :mod:`repro.service.store` — a versioned on-disk index of genomes
  (sorted value columns + sketches as codec frames) with an optional
  persisted all-pairs Gram result, a store-level lock, and
  version-consistent snapshots;
* :mod:`repro.service.sharded` — the size-banded sharded layout: a
  top-level manifest maps size bands to shard directories, each shard
  a full :class:`~repro.service.store.IndexStore`; plus the in-place
  flat-to-sharded migration (:func:`shard_store`) and the
  layout-dispatching :func:`open_store`;
* :mod:`repro.service.incremental` — add genomes by computing only the
  new-vs-existing border block (bit-identical to a rebuild), routed
  per band on a sharded store;
* :mod:`repro.service.lsh` — banded MinHash-LSH bucket tables over the
  stored b-bit lane fingerprints: band/row planning from the collision
  curve ``1 - (1 - s^r)^b``, incremental maintenance, and codec-frame
  persistence alongside the manifest;
* :mod:`repro.service.plan` — the explicit :class:`QueryPlan` stage
  pipeline every query compiles to (per-query ``query:*`` or batched
  ``query:batch:*`` kernels);
* :mod:`repro.service.batch` — the one query executor (lsh -> window
  -> sketch -> verify over a per-version store snapshot) and the
  coalescing :class:`QueryBatcher` admission front end;
* :mod:`repro.service.query` — the query engines: the flat
  :class:`SimilarityIndex` runs a query as a batch of one, and the
  sharded engine routes queries to size bands around the same
  executor;
* :mod:`repro.service.cache` — the LRU query/result cache, shared by
  both paths through one topology-aware key schema;
* :mod:`repro.service.errors` — the :class:`ServiceError` hierarchy
  every service-layer failure raises under.

See ``docs/service.md`` for the store layouts, the cascade correctness
argument, the batched admission model, and the facade contract.
"""

from repro.service.api import SimilarityService
from repro.service.batch import BatchQuery, QueryBatcher
from repro.service.cache import CacheStats, QueryCache, result_cache_key
from repro.service.errors import (
    ConfigError,
    QueryError,
    ServiceError,
    StoreError,
)
from repro.service.incremental import IncrementalReport, similarity_from_gram
from repro.service.lsh import (
    BandPlan,
    LSHTable,
    band_keys,
    collision_probability,
    plan_bands,
)
from repro.service.plan import PlanStage, QueryPlan, compile_plan
from repro.service.query import (
    QueryMatch,
    QueryResult,
    ShardedSimilarityIndex,
    SimilarityIndex,
    exact_jaccard,
    merge_shard_results,
    size_ratio_mask,
    size_ratio_window,
)
from repro.service.sharded import (
    ShardedEntry,
    ShardedStore,
    open_store,
    plan_size_bands,
    shard_store,
)
from repro.service.store import GenomeEntry, IndexStore, StoreSnapshot

__all__ = [
    "SimilarityService",
    "BatchQuery",
    "QueryBatcher",
    "CacheStats",
    "QueryCache",
    "result_cache_key",
    "ServiceError",
    "StoreError",
    "QueryError",
    "ConfigError",
    "IncrementalReport",
    "similarity_from_gram",
    "BandPlan",
    "LSHTable",
    "band_keys",
    "collision_probability",
    "plan_bands",
    "PlanStage",
    "QueryPlan",
    "compile_plan",
    "QueryMatch",
    "QueryResult",
    "SimilarityIndex",
    "ShardedSimilarityIndex",
    "exact_jaccard",
    "merge_shard_results",
    "size_ratio_mask",
    "size_ratio_window",
    "GenomeEntry",
    "IndexStore",
    "StoreSnapshot",
    "ShardedEntry",
    "ShardedStore",
    "open_store",
    "plan_size_bands",
    "shard_store",
]

