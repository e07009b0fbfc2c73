"""Tests for the :class:`~repro.service.api.SimilarityService` facade.

The facade is the public API: these tests pin that every flow —
create/open, add/remove/compact/rebuild, single and batched queries,
migration, stats — works identically on both store layouts.
"""

import numpy as np
import pytest

from repro.core.config import SimilarityConfig
from repro.service import (
    BatchQuery,
    IndexStore,
    ShardedStore,
    SimilarityService,
    StoreError,
)

M = 3_000


def sets_for(rng, n=16):
    out = []
    for i in range(n):
        size = int(rng.integers(5, M - 200))
        out.append(
            (f"g{i:02d}", np.sort(rng.choice(M, size=size, replace=False)))
        )
    return out


def flat_service(tmp_path, sets, name="flat"):
    svc = SimilarityService.create(tmp_path / name, m=M)
    svc.add(sets)
    return svc


def sharded_service(tmp_path, sets, shards=4, name=None):
    config = SimilarityConfig(
        store_shards=shards, shard_band_policy="quantile"
    )
    svc = SimilarityService.create(
        tmp_path / (name or f"sh{shards}"), m=M, config=config,
        size_hint=np.array([v.size for _, v in sets], dtype=np.int64),
    )
    svc.add(sets)
    return svc


def matches_of(result):
    return [(m.name, m.index, m.similarity) for m in result.matches]


def gram_current(store):
    # Flat and sharded stores spell the Gram-currency check differently
    # (one Gram vs one per shard + border blocks).
    if isinstance(store, ShardedStore):
        return store.grams_current
    return store.gram_current


class TestLifecycle:
    def test_create_flat_by_default(self, tmp_path):
        svc = SimilarityService.create(tmp_path / "idx", m=M)
        assert isinstance(svc.store, IndexStore)
        assert svc.stats()["layout"] == "flat"

    def test_create_sharded_from_config(self, tmp_path):
        config = SimilarityConfig(
            store_shards=4, shard_band_policy="uniform"
        )
        svc = SimilarityService.create(
            tmp_path / "idx", m=M, config=config
        )
        assert isinstance(svc.store, ShardedStore)
        assert svc.store.n_shards == 4
        assert svc.stats()["layout"] == "sharded"

    def test_open_dispatches_on_layout(self, tmp_path, rng):
        sets = sets_for(rng, n=6)
        flat_service(tmp_path, sets)
        sharded_service(tmp_path, sets)
        assert isinstance(
            SimilarityService.open(tmp_path / "flat").store, IndexStore
        )
        assert isinstance(
            SimilarityService.open(tmp_path / "sh4").store, ShardedStore
        )

    def test_metadata_passes_through(self, tmp_path):
        svc = SimilarityService.create(
            tmp_path / "idx", m=M, metadata={"k": 31}
        )
        assert SimilarityService.open(tmp_path / "idx").store.metadata == {
            "k": 31
        }


class TestMutations:
    @pytest.mark.parametrize("layout", ["flat", "sharded"])
    def test_add_remove_compact_rebuild(self, tmp_path, rng, layout):
        sets = sets_for(rng, n=8)
        svc = (
            flat_service(tmp_path, sets) if layout == "flat"
            else sharded_service(tmp_path, sets)
        )
        report = svc.add(
            [("extra", np.sort(rng.choice(M, size=100, replace=False)))]
        )
        assert report.added == ("extra",)
        assert report.n_after == len(sets) + 1
        svc.remove("extra")
        assert "extra" not in svc.store.names
        assert svc.compact() >= 0
        assert "extra" not in svc.store.names
        svc.rebuild()
        assert gram_current(svc.store)

    def test_shard_migrates_in_place(self, tmp_path, rng):
        sets = sets_for(rng, n=10)
        svc = flat_service(tmp_path, sets)
        q = np.sort(rng.choice(M, size=400, replace=False))
        before = matches_of(svc.query(values=q, threshold=0.05))
        store = svc.shard(4)
        assert isinstance(store, ShardedStore)
        assert svc.store is store  # engine re-wired onto the new store
        after = matches_of(svc.query(values=q, threshold=0.05))
        assert after == before

    def test_shard_rejects_already_sharded(self, tmp_path, rng):
        svc = sharded_service(tmp_path, sets_for(rng, n=4))
        with pytest.raises(StoreError, match="already a sharded store"):
            svc.shard(8)


class TestQueries:
    """The facade's answers are layout-independent."""

    def test_query_flat_equals_sharded(self, tmp_path, rng):
        sets = sets_for(rng)
        flat = flat_service(tmp_path, sets)
        sh = sharded_service(tmp_path, sets)
        for kwargs in (
            {"threshold": 0.05},
            {"top_k": 5},
            {"threshold": 0.02, "top_k": 3},
        ):
            q = np.sort(rng.choice(M, size=700, replace=False))
            assert matches_of(sh.query(values=q, **kwargs)) == matches_of(
                flat.query(values=q, **kwargs)
            )

    def test_query_by_name(self, tmp_path, rng):
        sets = sets_for(rng, n=8)
        sh = sharded_service(tmp_path, sets)
        r = sh.query(name="g03", top_k=3)
        assert all(m.name != "g03" for m in r.matches)

    def test_query_batch_matches_single(self, tmp_path, rng):
        sets = sets_for(rng)
        flat = flat_service(tmp_path, sets)
        sh = sharded_service(tmp_path, sets)
        queries = [
            np.sort(rng.choice(M, size=int(s), replace=False))
            for s in rng.integers(50, 2000, size=5)
        ]
        batched = sh.query_batch(queries, threshold=0.05)
        assert len(batched) == len(queries)
        for q, got in zip(queries, batched):
            assert matches_of(got) == matches_of(
                flat.query(values=q, threshold=0.05)
            )
            assert matches_of(got) == matches_of(
                sh.query(values=q, threshold=0.05)
            )

    def test_query_batch_mixes_parameters(self, tmp_path, rng):
        sets = sets_for(rng, n=10)
        sh = sharded_service(tmp_path, sets)
        q1 = np.sort(rng.choice(M, size=300, replace=False))
        q2 = np.sort(rng.choice(M, size=2200, replace=False))
        got = sh.query_batch(
            [BatchQuery(q1, top_k=2), BatchQuery(q2, threshold=0.1)]
        )
        assert matches_of(got[0]) == matches_of(sh.query(values=q1, top_k=2))
        assert matches_of(got[1]) == matches_of(
            sh.query(values=q2, threshold=0.1)
        )

    def test_query_batch_validates_before_running(self, tmp_path, rng):
        sh = sharded_service(tmp_path, sets_for(rng, n=4))
        version = sh.store.version
        with pytest.raises(ValueError, match="threshold must be in"):
            sh.query_batch(
                [np.array([1], dtype=np.int64)], threshold=1.5
            )
        assert sh.store.version == version

    def test_query_batch_empty(self, tmp_path, rng):
        sh = sharded_service(tmp_path, sets_for(rng, n=4))
        assert sh.query_batch([]) == []

    def test_sharded_query_batch_uses_result_cache(self, tmp_path, rng):
        sets = sets_for(rng, n=10)
        flat = flat_service(tmp_path, sets)
        sh = SimilarityService.create(
            tmp_path / "sh_small_batches", m=M,
            config=SimilarityConfig(
                store_shards=4, shard_band_policy="quantile",
                query_batch_size=2,
            ),
            size_hint=np.array([v.size for _, v in sets], dtype=np.int64),
        )
        sh.add(sets)
        q = np.sort(rng.choice(M, size=900, replace=False))
        other = np.sort(rng.choice(M, size=400, replace=False))
        # Batches of two: the repeat lands in the second batch.
        first, _, repeat = sh.query_batch([q, other, q], threshold=0.1)
        assert not first.from_cache
        assert repeat.from_cache
        expected = matches_of(flat.query(values=q, threshold=0.1))
        assert matches_of(first) == expected
        assert matches_of(repeat) == expected
        # A later call is served from the same top-level cache.
        (again,) = sh.query_batch([q], threshold=0.1)
        assert again.from_cache
        assert matches_of(again) == expected


class TestStats:
    @pytest.mark.parametrize("layout", ["flat", "sharded"])
    def test_common_keys(self, tmp_path, rng, layout):
        sets = sets_for(rng, n=6)
        svc = (
            flat_service(tmp_path, sets) if layout == "flat"
            else sharded_service(tmp_path, sets)
        )
        stats = svc.stats()
        for key in (
            "layout", "root", "m", "n_genomes", "version",
            "total_bytes", "families", "cache", "plan", "summary",
        ):
            assert key in stats
        assert stats["n_genomes"] == len(sets)

    def test_sharded_extras(self, tmp_path, rng):
        svc = sharded_service(tmp_path, sets_for(rng, n=8))
        stats = svc.stats()
        assert stats["n_shards"] == 4
        assert stats["band_policy"] == "quantile"
        assert len(stats["band_edges"]) == 4
        assert sum(stats["shard_occupancy"]) == 8

