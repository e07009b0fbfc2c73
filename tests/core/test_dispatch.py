"""Density-adaptive kernel dispatch: decision logic, new kernels, driver."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.core.similarity as similarity
from repro import SimilarityConfig, jaccard_similarity
from repro.core.analysis import expected_nonzero_rows, predicted_gram_kernel
from repro.core.indicator import CooSource, SetSource, SyntheticSource
from repro.runtime import Machine, laptop
from repro.sparse.bitmatrix import BitMatrix
from repro.sparse.coo import CooMatrix
from repro.sparse.dispatch import (
    KERNEL_POLICIES,
    OUTER_OP_WEIGHT,
    choose_kernel,
    predict_kernel_ops,
    resolve_kernel,
)
from repro.sparse.spgemm import (
    gram_bitpacked,
    gram_dense_reference,
    gram_outer_pair,
    gram_popcount_blocked,
)
from tests.helpers import exact_jaccard

FIXED_POLICIES = tuple(p for p in KERNEL_POLICIES if p != "adaptive")


class TestChooseKernel:
    def test_hypersparse_routes_to_outer(self):
        d = choose_kernel(n_rows=100_000, n_cols=1024, nnz=120_000, bit_width=64)
        assert d.kernel == "outer"
        assert d.predicted_ops["outer"] < d.predicted_ops["blocked"]

    def test_dense_routes_to_blocked(self):
        d = choose_kernel(n_rows=10_000, n_cols=128, nnz=256_000, bit_width=64)
        assert d.kernel == "blocked"
        assert d.density == pytest.approx(0.2)

    def test_empty_batch_defaults_to_blocked(self):
        d = choose_kernel(n_rows=0, n_cols=64, nnz=0, bit_width=64)
        assert d.kernel == "blocked"
        assert d.density == 0.0
        assert all(v == 0.0 for v in d.predicted_ops.values())

    def test_all_zero_rows_defaults_to_blocked(self):
        # Nonzero window rows, but the filter removed every one of them.
        d = choose_kernel(n_rows=0, n_cols=64, nnz=0, bit_width=32)
        assert d.kernel == "blocked"

    def test_density_exactly_at_crossover_breaks_to_blocked(self):
        # With b=32, n=8 (triangular pairs 36) and rows=32w the modelled
        # costs tie *exactly* at nnz = 12w: outer = 8 * (12w)^2 / 32w =
        # 36w = blocked.  Ties must deterministically take the popcount
        # path.
        for w in (1, 10, 1000):
            d = choose_kernel(
                n_rows=32 * w, n_cols=8, nnz=12 * w, bit_width=32
            )
            assert d.predicted_ops["blocked"] == d.predicted_ops["outer"]
            assert d.kernel == "blocked"

    def test_forced_policy_overrides_adaptive_choice(self):
        for policy in FIXED_POLICIES:
            d = choose_kernel(
                n_rows=100_000, n_cols=1024, nnz=120_000, bit_width=64,
                policy=policy,
            )
            assert d.kernel == policy
            assert d.forced

    def test_unknown_policy_rejected(self):
        with pytest.raises(ValueError, match="policy"):
            choose_kernel(10, 10, 10, 64, policy="fastest")

    def test_resolve_kernel_rejects_unknown_name(self):
        with pytest.raises(ValueError, match="unknown gram kernel"):
            resolve_kernel("gpu")

    def test_config_rejects_unknown_policy(self):
        with pytest.raises(ValueError, match="kernel_policy"):
            SimilarityConfig(kernel_policy="fastest")

    def test_predicted_ops_scale_with_shape(self):
        small = predict_kernel_ops(1000, 64, 5000, 64)
        large = predict_kernel_ops(2000, 64, 10_000, 64)
        assert large["blocked"] > small["blocked"]
        assert large["outer"] > small["outer"]


class TestSkewedDegreeDispatch:
    """Related genomes: a few rows in every sample, many rows in one.

    The uniform-degree estimate prices the outer kernel far below what
    it really costs on such a batch; the driver measures ``sum_k d_k^2``
    and must route to the blocked popcount path instead.
    """

    N_SAMPLES, HEAVY, LIGHT = 64, 10, 6400

    def _source(self):
        n, heavy, light = self.N_SAMPLES, self.HEAVY, self.LIGHT
        rng = np.random.default_rng(11)
        h = heavy + light
        heavy_rows = rng.choice(h, size=heavy, replace=False)
        light_rows = np.setdiff1d(np.arange(h), heavy_rows)
        rows = np.concatenate([np.repeat(heavy_rows, n), light_rows])
        cols = np.concatenate([
            np.tile(np.arange(n), heavy),
            rng.integers(0, n, size=light),
        ])
        degrees = np.bincount(rows, minlength=h)
        sum_sq = float((degrees**2).sum())
        return CooSource(CooMatrix(rows, cols, (h, n))), sum_sq

    def _run(self, source, policy, monkeypatch):
        decisions = []

        def recording(*args, **kwargs):
            decisions.append(choose_kernel(*args, **kwargs))
            return decisions[-1]

        monkeypatch.setattr(similarity, "choose_kernel", recording)
        result = jaccard_similarity(
            source, machine=Machine(laptop(4)),
            config=SimilarityConfig(kernel_policy=policy, batch_count=1),
        )
        return result, decisions

    def test_uniform_estimate_would_pick_outer(self):
        n, nnz = self.N_SAMPLES, self.HEAVY * self.N_SAMPLES + self.LIGHT
        h = self.HEAVY + self.LIGHT
        assert choose_kernel(h, n, nnz, 64).kernel == "outer"

    def test_measured_degrees_route_to_blocked(self, monkeypatch):
        source, sum_sq = self._source()
        result, decisions = self._run(source, "adaptive", monkeypatch)
        assert [b.kernel for b in result.batches] == ["blocked"]
        (decision,) = decisions
        assert decision.predicted_ops["outer"] == OUTER_OP_WEIGHT * sum_sq
        assert decision.predicted_ops["blocked"] < decision.predicted_ops["outer"]

    def test_outer_charges_sum_of_squared_degrees(self, monkeypatch):
        source, sum_sq = self._source()
        result, _ = self._run(source, "outer", monkeypatch)
        assert result.cost.phases["spgemm"].kernel_flops["outer"] == sum_sq

    def test_every_policy_gives_the_same_matrix(self, monkeypatch):
        source, _ = self._source()
        results = {
            policy: self._run(source, policy, monkeypatch)[0]
            for policy in KERNEL_POLICIES
        }
        for policy, result in results.items():
            assert np.array_equal(
                result.similarity, results["adaptive"].similarity
            ), policy


class TestPlannerPrediction:
    def test_expected_rows_hypersparse_limit(self):
        # delta tiny: essentially every nonzero lands in its own row.
        assert expected_nonzero_rows(10**7, 1000, 500.0) == pytest.approx(
            500.0, rel=1e-3
        )

    def test_expected_rows_dense_limit(self):
        # nnz per row >> 1: every row survives.
        assert expected_nonzero_rows(1000, 100, 50_000) == pytest.approx(
            1000.0, rel=1e-3
        )

    def test_expected_rows_degenerate(self):
        assert expected_nonzero_rows(0, 10, 100) == 0.0
        assert expected_nonzero_rows(100, 10, 0) == 0.0

    def test_prediction_matches_runtime_on_uniform_source(self):
        for m, n, density in ((3000, 64, 0.2), (100_000, 256, 1e-4)):
            source = SyntheticSource(m=m, n=n, density=density, seed=5)
            result = jaccard_similarity(
                source, machine=Machine(laptop(4)), batch_count=2,
                gather_result=False,
            )
            assert result.planned_kernel is not None
            for batch in result.batches:
                assert batch.kernel == result.planned_kernel


class TestBlockedKernel:
    @settings(max_examples=40)
    @given(seed=st.integers(0, 10_000), width=st.sampled_from([8, 16, 32, 64]))
    def test_matches_reference(self, seed, width):
        rng = np.random.default_rng(seed)
        dense = rng.random((int(rng.integers(1, 200)), int(rng.integers(1, 12)))) < 0.3
        res = gram_popcount_blocked(BitMatrix.from_dense(dense, width))
        assert np.array_equal(res.value, gram_dense_reference(dense))

    def test_lut_fallback_bit_exact_with_hardware_path(self, rng):
        dense = rng.random((500, 9)) < 0.4
        bm = BitMatrix.from_dense(dense)
        hw = gram_popcount_blocked(bm, use_hw_popcount=True).value
        lut = gram_popcount_blocked(bm, use_hw_popcount=False).value
        assert np.array_equal(hw, lut)

    def test_tiling_invariance(self, rng):
        x = rng.random((700, 7)) < 0.25
        y = rng.random((700, 11)) < 0.25
        bx, by = BitMatrix.from_dense(x), BitMatrix.from_dense(y)
        full = gram_popcount_blocked(bx, by).value
        for tile, bb in ((1, 64), (3, 512), (1024, 1 << 24)):
            got = gram_popcount_blocked(
                bx, by, word_tile=tile, block_bytes=bb
            ).value
            assert np.array_equal(got, full)

    def test_cheaper_than_reference_sweep(self, rng):
        bm = BitMatrix.from_dense(rng.random((640, 16)) < 0.5)
        assert (
            gram_popcount_blocked(bm).flops < gram_bitpacked(bm).flops
        )

    def test_empty(self):
        res = gram_popcount_blocked(BitMatrix.zeros(0, 5))
        assert res.value.shape == (5, 5)
        assert res.flops == 0.0


class TestOuterPairKernel:
    @settings(max_examples=40)
    @given(seed=st.integers(0, 10_000), width=st.sampled_from([8, 32, 64]))
    def test_pairwise_matches_reference(self, seed, width):
        rng = np.random.default_rng(seed)
        m = int(rng.integers(1, 200))
        x = rng.random((m, int(rng.integers(1, 10)))) < 0.1
        y = rng.random((m, int(rng.integers(1, 10)))) < 0.1
        res = gram_outer_pair(
            BitMatrix.from_dense(x, width), BitMatrix.from_dense(y, width)
        )
        assert np.array_equal(res.value, x.astype(np.int64).T @ y.astype(np.int64))

    def test_symmetric_matches_reference(self, rng):
        dense = rng.random((300, 8)) < 0.05
        res = gram_outer_pair(BitMatrix.from_dense(dense))
        assert np.array_equal(res.value, gram_dense_reference(dense))

    def test_chunking_invariance(self, rng):
        x = rng.random((400, 9)) < 0.1
        y = rng.random((400, 6)) < 0.1
        bx, by = BitMatrix.from_dense(x), BitMatrix.from_dense(y)
        full = gram_outer_pair(bx, by).value
        for bb in (16, 256, 1 << 22):
            assert np.array_equal(
                gram_outer_pair(bx, by, block_bytes=bb).value, full
            )

    def test_flops_counts_row_pair_products(self, rng):
        x = rng.random((100, 5)) < 0.2
        y = rng.random((100, 5)) < 0.2
        res = gram_outer_pair(BitMatrix.from_dense(x), BitMatrix.from_dense(y))
        dx = x.sum(axis=1).astype(np.int64)
        dy = y.sum(axis=1).astype(np.int64)
        assert res.flops == float((dx * dy).sum())

    def test_empty_operands(self):
        res = gram_outer_pair(BitMatrix.zeros(64, 3), BitMatrix.zeros(64, 4))
        assert np.array_equal(res.value, np.zeros((3, 4), dtype=np.int64))
        assert res.flops == 0.0


class TestDriverDispatch:
    def _run(self, data, policy="adaptive", **overrides):
        config = SimilarityConfig(kernel_policy=policy, **overrides)
        return jaccard_similarity(
            data, machine=Machine(laptop(4)), config=config
        )

    def test_forced_policies_agree_bit_exactly(self, rng):
        sets = [
            set(rng.integers(0, 400, size=size).tolist())
            for size in (80, 70, 0, 3, 150, 1)
        ]
        results = {
            policy: self._run(sets, policy=policy, batch_count=3)
            for policy in KERNEL_POLICIES
        }
        reference = exact_jaccard(sets)
        for policy, result in results.items():
            assert np.allclose(result.similarity, reference), policy
            assert np.array_equal(
                result.intersections, results["adaptive"].intersections
            ), policy
        assert all(
            b.kernel == "outer" for b in results["outer"].batches
        )
        assert all(
            b.kernel == "bitpacked" for b in results["bitpacked"].batches
        )

    def test_all_zero_row_batch_routes_to_blocked_noop(self):
        # Rows [500, 1000) hold no attribute values: the second batch
        # survives filtering with zero rows and must no-op cleanly.
        sets = [{1, 2, 3}, {2, 3, 4}, {4, 5}]
        source = SetSource(sets, m=1000)
        result = jaccard_similarity(
            source, machine=Machine(laptop(4)),
            config=SimilarityConfig(batch_count=2),
        )
        empty = result.batches[1]
        assert empty.nnz == 0
        assert empty.nonzero_rows == 0
        assert empty.kernel == "blocked"
        assert empty.density == 0.0
        assert np.allclose(result.similarity, exact_jaccard(sets))

    def test_fully_empty_input_runs_under_every_policy(self):
        sets = [set(), set(), set()]
        for policy in KERNEL_POLICIES:
            result = self._run(sets, policy=policy)
            # J(empty, empty) = 1 by definition (paper §II-A).
            assert np.allclose(result.similarity, np.ones((3, 3)))

    def test_adaptive_switches_kernel_between_batches(self):
        # Batch 0 covers a dense row block, batch 1 a hypersparse tail:
        # the dispatcher must pick a different kernel for each.
        rng = np.random.default_rng(3)
        dense_rows, dense_cols = np.nonzero(rng.random((640, 24)) < 0.4)
        tail_count = 40
        tail_rows = rng.integers(640, 512_000, size=tail_count)
        tail_cols = rng.integers(0, 24, size=tail_count)
        coo = CooMatrix(
            np.concatenate([dense_rows, tail_rows]),
            np.concatenate([dense_cols, tail_cols]),
            (512_000, 24),
        )
        result = jaccard_similarity(
            CooSource(coo), machine=Machine(laptop(4)),
            config=SimilarityConfig(batch_count=2, gather_result=False),
        )
        assert result.batches[0].kernel == "blocked"
        assert result.batches[1].kernel == "outer"
        assert result.kernels_used == ("blocked", "outer")

    def test_dispatch_also_applies_to_1d_allreduce(self):
        source = SyntheticSource(m=100_000, n=64, density=1e-4, seed=9)
        result = jaccard_similarity(
            source, machine=Machine(laptop(4)),
            config=SimilarityConfig(
                gram_algorithm="1d_allreduce", batch_count=2,
                gather_result=False,
            ),
        )
        assert all(b.kernel == "outer" for b in result.batches)

    def test_ledger_charges_the_dispatched_kernel(self):
        source = SyntheticSource(m=2000, n=32, density=0.3, seed=4)
        result = jaccard_similarity(
            source, machine=Machine(laptop(4)), batch_count=2,
            gather_result=False,
        )
        spgemm = result.cost.phases["spgemm"]
        assert set(spgemm.kernel_flops) == {"blocked"}
        assert spgemm.kernel_flops["blocked"] > 0.0
        assert spgemm.kernel_seconds["blocked"] > 0.0
        assert "blocked" in result.cost.kernel_totals
        assert "kernel" in result.cost.report()

    def test_predicted_gram_kernel_exposed_via_analysis(self):
        decision = predicted_gram_kernel(
            m_rows=1_000_000, n_cols=512, nnz=10_000, bit_width=64
        )
        assert decision.kernel == "outer"
        decision = predicted_gram_kernel(
            m_rows=10_000, n_cols=128, nnz=300_000, bit_width=64
        )
        assert decision.kernel == "blocked"
