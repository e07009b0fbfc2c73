"""Tests for the sort-based dedupe helper."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.util.arrays import unique_sorted

INT64 = st.integers(min_value=-(2**63), max_value=2**63 - 1)


def assert_matches_np_unique(a):
    got, want = unique_sorted(a), np.unique(a)
    assert got.dtype == want.dtype
    assert np.array_equal(got, want)


class TestUniqueSorted:
    def test_empty(self):
        assert_matches_np_unique(np.empty(0, dtype=np.int64))

    def test_single_element(self):
        assert_matches_np_unique(np.array([7], dtype=np.int64))

    def test_sorted_input_is_not_aliased(self):
        a = np.arange(5, dtype=np.int64)
        out = unique_sorted(a)
        out[0] = 99
        assert a[0] == 0

    @settings(max_examples=200, deadline=None)
    @given(st.lists(INT64, max_size=60))
    def test_matches_np_unique(self, values):
        a = np.array(values, dtype=np.int64)
        assert_matches_np_unique(a)
        assert_matches_np_unique(np.sort(a))
        assert_matches_np_unique(np.sort(a)[::-1])

    @settings(max_examples=100, deadline=None)
    @given(
        st.lists(st.integers(min_value=-3, max_value=3), max_size=80),
    )
    def test_duplicate_heavy_and_negative(self, values):
        assert_matches_np_unique(np.array(values, dtype=np.int64))
