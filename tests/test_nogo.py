import numpy as np
import pytest
from hypothesis import given, strategies as st

from qvar.errors import ConfigError
from qvar.nogo import copy_curve, min_copies, overlap_power, trace_norm_gap
from reference import explicit_trace_norm_gap, fit_linear_slope


def test_overlap_power_examples():
    assert overlap_power(2, 1) == pytest.approx(0.5, abs=1e-15)
    with pytest.raises(ConfigError):
        overlap_power(2, 0)


def test_overlap_power_matches_iterated_multiplication():
    expected = 1.0
    for _ in range(16):
        expected *= 15.0 / 16.0
    assert overlap_power(16, 16) == pytest.approx(expected, abs=1e-14)


def test_analytic_gap_saturates():
    assert trace_norm_gap(4, 400) == pytest.approx(1.0, abs=1e-12)


def test_explicit_gap_small_case():
    # d=2, m=1: explicit 1-norm = 2 sqrt(1 - 1/2) = sqrt(2)
    assert explicit_trace_norm_gap(2, 1) == pytest.approx(np.sqrt(2), abs=1e-12)
    assert trace_norm_gap(2, 1) == pytest.approx(np.sqrt(0.5), abs=1e-12)


def test_explicit_equals_twice_analytic_everywhere():
    d = 2
    while d <= 256:
        m = 1
        while d**m <= 2**12:
            explicit = explicit_trace_norm_gap(d, m)
            analytic = trace_norm_gap(d, m)
            assert abs(explicit - 2.0 * analytic) < 1e-12
            m += 1
        d *= 2


def test_explicit_size_cap():
    with pytest.raises(ConfigError, match="explicit"):
        explicit_trace_norm_gap(64, 3)


def test_min_copies_examples():
    # d=2: need 1 - 0.5^m >= 0.64 -> m = 2
    assert min_copies(2, 0.8) == 2
    for d in (2, 8, 64):
        assert min_copies(d, 1e-9) == 1


def _brute_force_min_copies(d, threshold, factor):
    m = 1
    while factor * trace_norm_gap(d, m) < threshold:
        m += 1
    return m


@given(d=st.integers(2, 64), frac=st.floats(1e-6, 1 - 1e-6),
       factor=st.sampled_from([1.0, 2.0]))
def test_min_copies_matches_brute_force(d, frac, factor):
    # factor 2: a threshold on the explicit 1-norm, which is twice the
    # analytic gap, is min_copies at half that threshold
    threshold = factor * frac
    assert (min_copies(d, threshold / factor)
            == _brute_force_min_copies(d, threshold, factor))


def test_min_copies_large_dimension():
    m = min_copies(2**24, 0.8)
    assert m == 17_140_464
    assert trace_norm_gap(2**24, m) >= 0.8 > trace_norm_gap(2**24, m - 1)
    assert min_copies(2**24, 1.6 / 2) == m


def test_min_copies_monotone():
    prev = 0
    for d in (2, 4, 8, 16, 32):
        m = min_copies(d, 0.8)
        assert m >= prev
        prev = m
    assert min_copies(16, 0.5) <= min_copies(16, 0.9)


def test_copy_curve_slope_linear():
    curve = copy_curve(256, 0.8)
    assert [d for d, _ in curve] == [2, 4, 8, 16, 32, 64, 128, 256]
    slope = fit_linear_slope(curve)
    assert 0.3 <= slope <= 3.0
