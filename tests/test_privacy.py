import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from recourse_mi.privacy import dp_ba_bound


class TestDpBaBound:
    def test_epsilon_zero_is_coin_flip(self):
        b = dp_ba_bound(0.0)
        assert b.ba_bound == 0.5
        assert b.refined_ba_bound == 0.5

    def test_ln2(self):
        b = dp_ba_bound(math.log(2))
        assert b.ba_bound == pytest.approx(0.75, abs=1e-15)
        assert b.refined_ba_bound == pytest.approx(0.6875, abs=1e-15)

    def test_large_epsilon_limit(self):
        b = dp_ba_bound(80.0)
        assert b.ba_bound == pytest.approx(1.0, abs=1e-12)
        assert b.refined_ba_bound == pytest.approx(1.0, abs=1e-12)

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            dp_ba_bound(-0.01)

    def test_rejects_nan(self):
        with pytest.raises(ValueError, match="nonnegative"):
            dp_ba_bound(math.nan)

    def test_refined_below_simple_and_monotone_on_grid(self):
        eps = np.arange(0.0, 10.0 + 1e-12, 0.01)
        bounds = [dp_ba_bound(e) for e in eps]
        prev_simple, prev_refined = -1.0, -1.0
        for b in bounds:
            assert 0.5 <= b.refined_ba_bound <= b.ba_bound <= 1.0
            assert b.ba_bound >= prev_simple
            assert b.refined_ba_bound >= prev_refined
            prev_simple, prev_refined = b.ba_bound, b.refined_ba_bound

    @given(eps=st.floats(0.0, 50.0))
    @settings(max_examples=200, deadline=None)
    def test_bounds_in_range_property(self, eps):
        b = dp_ba_bound(eps)
        assert 0.5 <= b.refined_ba_bound <= b.ba_bound <= 1.0

    def test_continuity(self):
        # adjacent grid points differ by at most the Lipschitz step
        eps = np.linspace(0.0, 10.0, 2001)
        vals = [dp_ba_bound(e).ba_bound for e in eps]
        diffs = np.abs(np.diff(vals))
        assert diffs.max() < 0.005

