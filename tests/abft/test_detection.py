"""Tests for the tolerance-aware checksum comparison."""

import threading

import numpy as np
import pytest

from repro.abft.detection import compare_checksums, prepare_clean_comparison
from repro.config import DetectionConstants
from repro.errors import DetectionError


class TestCompare:
    def test_equal_values_pass(self):
        v = compare_checksums(
            np.array([1.0, 2.0]), np.array([1.0, 2.0]), n_terms=100, magnitudes=10.0
        )
        assert not v.detected
        assert v.checks == 2

    def test_rounding_noise_passes(self):
        lhs = np.array([1000.0])
        rhs = np.array([1000.0 * (1 + 2 ** -22)])
        v = compare_checksums(lhs, rhs, n_terms=4096, magnitudes=2000.0)
        assert not v.detected

    def test_large_mismatch_detected(self):
        v = compare_checksums(
            np.array([100.0]), np.array([105.0]), n_terms=64, magnitudes=200.0
        )
        assert v.detected
        assert v.violations == (0,)

    def test_violations_indices(self):
        lhs = np.array([[1.0, 2.0], [3.0, 999.0]])
        rhs = np.array([[1.0, 2.0], [3.0, 4.0]])
        v = compare_checksums(lhs, rhs, n_terms=8, magnitudes=10.0)
        assert v.violations == (3,)

    def test_nan_always_detected(self):
        v = compare_checksums(
            np.array([np.nan]), np.array([1.0]), n_terms=8, magnitudes=1e30
        )
        assert v.detected
        assert v.max_residual == float("inf")

    def test_inf_always_detected(self):
        v = compare_checksums(
            np.array([np.inf]), np.array([1.0]), n_terms=8, magnitudes=1e30
        )
        assert v.detected

    def test_shape_mismatch_raises(self):
        with pytest.raises(DetectionError):
            compare_checksums(np.zeros(3), np.zeros(4), n_terms=8, magnitudes=1.0)


class TestToleranceScaling:
    def test_tolerance_grows_with_magnitude(self):
        small = compare_checksums(
            np.array([0.0]), np.array([0.0]), n_terms=64, magnitudes=1.0
        )
        big = compare_checksums(
            np.array([0.0]), np.array([0.0]), n_terms=64, magnitudes=1e6
        )
        assert big.tolerance > small.tolerance

    def test_tolerance_grows_logarithmically_with_terms(self):
        c = DetectionConstants()
        t1 = c.tolerance(2 ** 10, 1e4)
        t2 = c.tolerance(2 ** 20, 1e4)
        assert t2 == pytest.approx(t1 * 21 / 11, rel=1e-6)

    def test_atol_floor(self):
        c = DetectionConstants()
        assert c.tolerance(2, 0.0) == c.atol_floor

    def test_per_check_magnitudes_broadcast(self):
        lhs = np.array([0.0, 0.0])
        rhs = np.array([0.001, 0.001])
        mags = np.array([1.0, 1e9])
        v = compare_checksums(lhs, rhs, n_terms=1024, magnitudes=mags)
        # Same residual: flagged where magnitude (and thus tolerance) is
        # small, passed where the accumulated magnitude explains it.
        assert v.violations == (0,)


class TestCleanComparisonOrder:
    def _clean(self):
        rng = np.random.default_rng(0)
        lhs = rng.standard_normal(64)
        rhs = lhs + rng.standard_normal(64) * 1e-3
        rhs[5] = np.nan
        return prepare_clean_comparison(
            lhs, rhs, n_terms=64, magnitudes=np.abs(lhs) + 1.0
        )

    def test_order_is_built_on_first_read(self):
        clean = self._clean()
        assert clean._order is None
        expected = np.argsort(-clean.key, kind="stable")
        np.testing.assert_array_equal(clean.order, expected)
        assert clean.order[0] == 5  # non-finite residual sorts first

    def test_racing_readers_share_one_order(self):
        clean = self._clean()
        seen = []
        barrier = threading.Barrier(8)

        def read():
            barrier.wait()
            seen.append(clean.order)

        threads = [threading.Thread(target=read) for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert all(order is seen[0] for order in seen)
