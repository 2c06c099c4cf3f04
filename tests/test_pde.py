import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qvar import pde
from qvar.errors import NumericalError
from qvar.market import MarketParams, PayoffSpec, build_grid, payoff_vector
from qvar.pde import (PIVOT_FLOOR, TridiagonalOperator, ValueSurface,
                      _thomas_solve, assemble_operator, price_american,
                      price_european)
from conftest import random_tridiagonal
from reference import implicit_step, nearest_index, numpy_thomas_solve


def coefficient_oracle(params, grid):
    """Independent direct evaluation of the row coefficients (written
    before the operator assembly; kept deliberately index-by-index)."""
    s = grid.nodes
    size = len(s)
    dense = np.zeros((size, size))
    for j in range(1, size - 1):
        sig2s2 = params.alpha**2 * s[j]
        a = sig2s2 / ((s[j] - s[j - 1]) * (s[j + 1] - s[j - 1])) \
            - params.r * s[j] / (s[j] - s[j - 1])
        b = sig2s2 / ((s[j + 1] - s[j]) * (s[j + 1] - s[j - 1]))
        dense[j, j - 1] = -params.dtau * a
        dense[j, j] = params.dtau * (a + b + params.r)
        dense[j, j + 1] = -params.dtau * b
    dense[0, 0] = params.r * params.dtau
    h = s[-1] - s[-2]
    dense[-1, -1] = params.r * params.dtau - params.dtau * params.r * s[-1] / h
    dense[-1, -2] = params.dtau * params.r * s[-1] / h
    return dense


def test_interior_rows_vanish_without_rates_or_vol(unit_grid):
    params = MarketParams(r=0.0, mu=0.0, alpha=0.0, T=1.0, t_bar=0.0, dtau=0.25)
    op = assemble_operator(params, unit_grid)
    assert np.allclose(op.to_dense(), 0.0, atol=1e-15)


def test_hand_derived_interior_row():
    # uniform spacing 1 with S_1 = 1, r = 0, alpha = 1: row 1 of M is
    # (-0.5 dtau, +1.0 dtau, -0.5 dtau)
    params = MarketParams(r=0.0, mu=0.0, alpha=1.0, T=1.0, t_bar=0.0, dtau=0.125)
    grid = build_grid(0.0, 3.0, 2, "uniform")
    op = assemble_operator(params, grid)
    assert op.sub[1] == pytest.approx(-0.5 * params.dtau, abs=1e-15)
    assert op.diag[1] == pytest.approx(1.0 * params.dtau, abs=1e-15)
    assert op.super_[1] == pytest.approx(-0.5 * params.dtau, abs=1e-15)


def test_assemble_matches_coefficient_oracle():
    params = MarketParams(r=0.03, mu=0.0, alpha=0.4, T=1.0, t_bar=0.5, dtau=1 / 32)
    grid = build_grid(0.0, 4.0, 5, "uniform")
    op = assemble_operator(params, grid)
    assert np.abs(op.to_dense() - coefficient_oracle(params, grid)).max() < 1e-14


def test_implicit_step_identity():
    op = TridiagonalOperator(np.zeros(8), np.zeros(8), np.zeros(8), 3)
    surface = ValueSurface(t=1.0, values=np.arange(8.0))
    out = implicit_step(op, surface, 0.25)
    assert out.t == 0.75
    assert np.allclose(out.values, surface.values, atol=1e-15)


def test_implicit_step_scalar_diagonal():
    r, dtau = 0.1, 0.25
    op = TridiagonalOperator(np.zeros(8), np.full(8, r * dtau), np.zeros(8), 3)
    surface = ValueSurface(t=1.0, values=np.linspace(1, 2, 8))
    out = implicit_step(op, surface, dtau)
    assert np.allclose(out.values, surface.values / (1 + r * dtau), atol=1e-14)


@settings(max_examples=80, deadline=None)
@given(n=st.integers(1, 6), seed=st.integers(0, 2**32 - 1),
       scale=st.floats(1e-3, 1e3), margin=st.floats(0.1, 10.0))
def test_implicit_step_matches_dense_lu(n, seed, scale, margin):
    # the Thomas solve of (I + M) x = v against LAPACK's pivoted dense solve,
    # for strictly diagonally dominant I + M: every row's diagonal exceeds
    # its off-diagonal sum by at least margin * scale, which bounds the
    # condition number and so fixes the tolerance in advance
    rng = np.random.default_rng(seed)
    size = 2**n
    sub = np.zeros(size)
    sup = np.zeros(size)
    sub[1:] = rng.normal(scale=scale, size=size - 1)
    sup[:-1] = rng.normal(scale=scale, size=size - 1)
    sign = rng.choice([-1.0, 1.0], size=size)
    dominant = sign * ((np.abs(sub) + np.abs(sup)) * (1.0 + margin) + margin * scale)
    op = TridiagonalOperator(sub, dominant - 1.0, sup, n)
    v = rng.normal(size=size)
    out = implicit_step(op, ValueSurface(t=1.0, values=v), 0.5)
    ref = np.linalg.solve(np.eye(size) + op.to_dense(), v)
    assert np.abs(out.values - ref).max() <= 1e-12 * np.abs(ref).max()


@settings(max_examples=100, deadline=None)
@given(n=st.integers(1, 7), seed=st.integers(0, 2**32 - 1),
       shift=st.floats(1.5, 4.0),
       singular=st.none() | st.tuples(st.integers(0, 2**7 - 1),
                                      st.floats(-0.9 * PIVOT_FLOOR,
                                                0.9 * PIVOT_FLOOR)))
def test_thomas_solve_equals_the_numpy_scalar_solve_bit_for_bit(
        n, seed, shift, singular):
    # the sweeps over Python floats are the NumPy-scalar sweeps' operations
    # in their order: the same bits, and the same error at the same pivot
    rng = np.random.default_rng(seed)
    sub, diag, sup = random_tridiagonal(rng, n, shift)
    rhs = rng.normal(size=2**n)
    if singular is not None:
        row, pivot = singular[0] % 2**n, singular[1]
        sub[row], diag[row] = 0.0, pivot  # that row's pivot is exactly pivot
    try:
        expected = numpy_thomas_solve(sub, diag, sup, rhs)
    except NumericalError as exc:
        with pytest.raises(NumericalError) as raised:
            _thomas_solve(sub, diag, sup, rhs)
        assert str(raised.value) == str(exc)
    else:
        assert singular is None  # a pivot below the floor always raises
        out = _thomas_solve(sub, diag, sup, rhs)
        assert out.dtype == expected.dtype
        assert out.tobytes() == expected.tobytes()


def test_implicit_step_rejects_singular():
    diag = np.full(4, -1.0)  # I + M has an exactly zero pivot
    op = TridiagonalOperator(np.zeros(4), diag, np.zeros(4), 2)
    with pytest.raises(NumericalError, match="pivot"):
        implicit_step(op, ValueSurface(t=1.0, values=np.ones(4)), 0.25)


@settings(max_examples=60, deadline=None)
@given(n=st.integers(2, 6), seed=st.integers(0, 2**32 - 1),
       steps=st.integers(0, 40), shift=st.floats(0.5, 3.0),
       singular=st.none() | st.integers(0, 2**6 - 1))
def test_price_european_factors_once_and_steps_bit_for_bit(
        n, seed, steps, shift, singular):
    # a random operator in place of the market's: the sweeps over the
    # once-factored matrix give the per-step loop's bits and stamp, and the
    # same error at the same pivot
    rng = np.random.default_rng(seed)
    sub, diag, sup = random_tridiagonal(rng, n, shift)
    if singular is not None:
        row = singular % 2**n
        sub[row], diag[row] = 0.0, 0.0  # that row's pivot is exactly zero
    op = TridiagonalOperator(sub, diag - 1.0, sup, n)
    # dtau = 0.1 is inexact, so the stamp T - steps * dtau would differ
    # from the per-step loop's repeated subtraction
    params = MarketParams(r=0.02, mu=0.0, alpha=0.2, T=steps * 0.1, t_bar=0.0,
                          dtau=0.1)
    grid = build_grid(0.0, 4.0, n, "uniform")
    spec = PayoffSpec("put", 1.0 + rng.random())
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(pde, "assemble_operator", lambda *args: op)
        expected = ValueSurface(t=params.T, values=payoff_vector(spec, grid))
        try:
            for _ in range(steps):
                expected = implicit_step(op, expected, params.dtau)
        except NumericalError as exc:
            with pytest.raises(NumericalError) as raised:
                price_european(params, grid, spec)
            assert str(raised.value) == str(exc)
            return
        surface = price_european(params, grid, spec)
    assert surface.t == expected.t
    assert surface.values.tobytes() == expected.values.tobytes()


@settings(max_examples=60, deadline=None)
@given(n=st.integers(2, 6), seed=st.integers(0, 2**32 - 1),
       steps=st.integers(0, 40), shift=st.floats(0.5, 3.0),
       kind=st.sampled_from(["call", "put"]),
       singular=st.none() | st.integers(0, 2**6 - 1))
def test_price_american_factors_once_and_steps_bit_for_bit(
        n, seed, steps, shift, kind, singular):
    # as for the European price, with the projection onto the payoff after
    # each solve: the per-step loop solves on its own and projects
    rng = np.random.default_rng(seed)
    sub, diag, sup = random_tridiagonal(rng, n, shift)
    if singular is not None:
        row = singular % 2**n
        sub[row], diag[row] = 0.0, 0.0  # that row's pivot is exactly zero
    op = TridiagonalOperator(sub, diag - 1.0, sup, n)
    params = MarketParams(r=0.02, mu=0.0, alpha=0.2, T=steps * 0.1, t_bar=0.0,
                          dtau=0.1)
    grid = build_grid(0.0, 4.0, n, "uniform")
    spec = PayoffSpec(kind, 1.0 + rng.random())
    payoff = payoff_vector(spec, grid)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(pde, "assemble_operator", lambda *args: op)
        expected = ValueSurface(t=params.T, values=payoff.copy())
        try:
            for _ in range(steps):
                solved = implicit_step(op, expected, params.dtau)
                expected = ValueSurface(t=solved.t, values=np.maximum(
                    payoff, solved.values))
        except NumericalError as exc:
            with pytest.raises(NumericalError) as raised:
                price_american(params, grid, spec)
            assert str(raised.value) == str(exc)
            return
        surface = price_american(params, grid, spec)
    assert surface.t == expected.t
    assert surface.values.tobytes() == expected.values.tobytes()


def test_price_european_zero_steps_is_payoff(unit_grid, call_spec):
    params = MarketParams(r=0.05, mu=0.0, alpha=0.3, T=1.0, t_bar=1.0, dtau=0.25)
    surface = price_european(params, unit_grid, call_spec)
    assert np.array_equal(surface.values, payoff_vector(call_spec, unit_grid))
    assert surface.t == 1.0


def test_price_european_frozen_dynamics(unit_grid, call_spec):
    params = MarketParams(r=0.0, mu=0.0, alpha=0.0, T=1.0, t_bar=0.0, dtau=0.25)
    surface = price_european(params, unit_grid, call_spec)
    assert np.allclose(surface.values, payoff_vector(call_spec, unit_grid), atol=1e-14)


def risk_neutral_mc_price(params, s0, n_paths, seed, steps_per_dtau=4):
    """Euler scheme under the risk-free drift; test-only oracle."""
    rng = np.random.default_rng(seed)
    dt = params.dtau / steps_per_dtau
    steps = params.pricing_steps * steps_per_dtau
    s = np.full(n_paths, float(s0))
    for _ in range(steps):
        dz = rng.normal(scale=np.sqrt(dt), size=n_paths)
        s = s + params.r * s * dt + params.alpha * np.sqrt(s) * dz
        s = np.maximum(s, 0.0)
    return s


def test_price_european_matches_risk_neutral_mc():
    params = MarketParams(r=0.05, mu=0.0, alpha=1.0, T=0.5, t_bar=0.0, dtau=1 / 64)
    grid = build_grid(0.0, 4.0, 6, "uniform")
    spec = PayoffSpec("call", 1.0)
    surface = price_european(params, grid, spec)
    j = nearest_index(grid, spec.strike)
    terminal = risk_neutral_mc_price(params, grid.nodes[j], 10**5, seed=20240801)
    payoffs = np.exp(-params.r * (params.T - params.t_bar)) \
        * np.maximum(terminal - spec.strike, 0.0)
    se = payoffs.std(ddof=1) / np.sqrt(payoffs.size)
    assert abs(surface.values[j] - payoffs.mean()) < 3 * se


def test_call_surface_monotone_in_s():
    params = MarketParams(r=0.05, mu=0.0, alpha=0.4, T=1.0, t_bar=0.0, dtau=1 / 16)
    grid = build_grid(0.0, 4.0, 5, "uniform")
    surface = price_european(params, grid, PayoffSpec("call", 1.0))
    interior = surface.values[1:-1]
    assert np.all(np.diff(interior) >= -1e-12)


def test_k_step_composition_equals_dense_power(rng):
    params = MarketParams(r=0.03, mu=0.0, alpha=0.3, T=1.0, t_bar=0.0, dtau=1 / 16)
    grid = build_grid(0.0, 4.0, 5, "uniform")
    spec = PayoffSpec("put", 1.2)
    op = assemble_operator(params, grid)
    dense = np.eye(32) + op.to_dense()
    payoff = payoff_vector(spec, grid)
    surface = ValueSurface(t=params.T, values=payoff)
    for k in range(1, 17):
        surface = implicit_step(op, surface, params.dtau)
        expected = np.linalg.solve(np.linalg.matrix_power(dense, k), payoff)
        assert np.abs(surface.values - expected).max() < 1e-10


def dense_projection_oracle(params, grid, spec):
    """Dense-solver re-implementation of the projected stepping scheme."""
    dense = np.eye(grid.nodes.size) + assemble_operator(params, grid).to_dense()
    payoff = payoff_vector(spec, grid)
    v = payoff.copy()
    for _ in range(params.pricing_steps):
        v = np.maximum(payoff, np.linalg.solve(dense, v))
    return v


def test_american_dominates_european_and_matches_dense_oracle():
    params = MarketParams(r=0.06, mu=0.0, alpha=0.5, T=1.0, t_bar=0.0, dtau=0.25)
    grid = build_grid(0.0, 4.0, 4, "uniform")
    for kind in ("call", "put"):
        spec = PayoffSpec(kind, 1.0)
        amer = price_american(params, grid, spec)
        euro = price_european(params, grid, spec)
        assert np.all(amer.values >= euro.values - 1e-12)
        assert np.abs(amer.values - dense_projection_oracle(params, grid, spec)).max() < 1e-12


def test_american_put_pinned_at_zero_price_node():
    params = MarketParams(r=0.06, mu=0.0, alpha=0.5, T=1.0, t_bar=0.0, dtau=0.25)
    grid = build_grid(0.0, 4.0, 4, "uniform")
    spec = PayoffSpec("put", 1.0)
    surface = price_american(params, grid, spec)
    assert surface.values[0] == pytest.approx(spec.strike, abs=1e-14)


def test_american_call_equals_european_without_dividends():
    params = MarketParams(r=0.05, mu=0.0, alpha=0.4, T=1.0, t_bar=0.0, dtau=1 / 8)
    grid = build_grid(0.0, 4.0, 4, "uniform")
    spec = PayoffSpec("call", 1.0)
    amer = price_american(params, grid, spec)
    euro = price_european(params, grid, spec)
    assert np.abs(amer.values - euro.values).max() < 1e-10
