import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from numpy.polynomial import chebyshev as np_cheb

from conftest import random_tridiagonal
from memos import process_memos
from qvar import lp, qsvt
from qvar.blockenc import assemble_block_encoding
from qvar.errors import ConfigError, NumericalError
from qvar.market import MarketParams, PayoffSpec, build_grid, payoff_vector
from qvar.pde import (TridiagonalOperator, _thomas_solve, assemble_operator,
                      price_european)
from qvar.qsvt import (PolynomialTarget, _wx_eval, apply_qsvt,
                       approximate_target, prepare_value_state,
                       qsp_reflection_eval, solve_phase_factors,
                       svd_transform_oracle, target_g)
from reference import (dense_qsvt_circuit, dense_walk, encoded_block,
                       fit_minimax, minimax_lp, qsvt_circuit)

# linprog's solution meets every row to its certified primal residual,
# LP_TOL (1 + max |b_ub|), and |b_ub| <= GLOBAL_BOUND < 1
ROWS_TOL = 2 * lp.LP_TOL
# the oracle's optimum meets its rows to HiGHS's primal feasibility
# tolerance of 1e-7, so either optimum may lie that far below the exact one
ORACLE_TOL = 1e-7 + ROWS_TOL
# what an uncertified interior-point solve reports
LP_RESIDUALS = "primal residual .*, dual residual .*, relative gap "


def test_target_g_examples():
    assert target_g(2.0, 2.0) == pytest.approx(0.5, abs=1e-15)
    assert target_g(0.5, 2.0) == pytest.approx(2.0, abs=1e-15)
    assert target_g(1.0, 2.0) == pytest.approx(1.0, abs=1e-15)
    with pytest.raises(ConfigError):
        target_g(0.0, 2.0)


def test_approximate_target_sup_error_dense_sampling():
    poly = approximate_target(2.0, 1e-3)
    xs = np.linspace(0.5, 1.0, 10_000)
    err = np.abs(poly.evaluate(xs) - poly.scale * target_g(xs, 2.0)).max()
    assert err <= 1e-3
    assert np.abs(poly.evaluate(np.linspace(-1, 1, 20_001))).max() <= 1.0


def test_monotone_error_in_eps():
    prev_degree = 0
    prev_err = np.inf
    for eps in (1e-2, 1e-3, 1e-4):
        poly = approximate_target(2.0, eps)
        assert poly.degree >= prev_degree
        assert poly.sup_error <= prev_err
        prev_degree, prev_err = poly.degree, poly.sup_error


def test_fit_certificate_is_per_rung():
    # two tolerances on one norm accept different rungs; each
    # request reads its own rung's certificate, cold or warm
    cold = {}
    for eps in (1e-2, 1e-4):
        for memo in process_memos().values():
            memo.cache_clear()
        poly = approximate_target(2.0, eps)
        cold[eps] = (poly.degree, poly.sup_error)
    assert cold[1e-2][0] < cold[1e-4][0]
    for eps in (1e-2, 1e-4, 1e-2, 1e-4):
        poly = approximate_target(2.0, eps)
        assert (poly.degree, poly.sup_error) == cold[eps]
    assert qsvt._fit_certificate.cache_info().currsize == 2


@pytest.mark.parametrize("degree", [0, 1, 2, 27, 51, 195])
def test_chebval_is_numpys_chebval(degree, rng):
    # the same Clenshaw recurrence: the same bits, type and shape at a
    # 0-d, a 1-d and a 2-d x
    coeffs = rng.normal(size=degree + 1)
    coeffs.setflags(write=False)
    for x in (np.asarray(0.3), rng.uniform(-1, 1, 3001),
              rng.uniform(-1, 1, (3, 5))):
        got, want = qsvt._chebval(x, coeffs), np_cheb.chebval(x, coeffs)
        assert type(got) is type(want) and np.shape(got) == np.shape(want)
        assert np.array_equal(got, want)


@pytest.mark.parametrize("norm, eps",
                         [(2.0, 1e-4), (4.0021, 1e-3), (8.0, 1e-3)])
def test_sliced_certificate_is_the_whole_grid_max(norm, eps):
    # the certificate, evaluated a slice at a time, is the max over all
    # points at once: the same floats
    poly = approximate_target(norm, eps)
    coeffs = qsvt._ladder_fit(norm, poly.degree)[0]
    dense = np.linspace(1.0 / norm, 1.0, 10_000)
    full = np.linspace(-1.0, 1.0, 20_001)
    target = qsvt._fit_scale(norm) * target_g(dense, norm)
    want = (float(np.abs(np_cheb.chebval(dense, coeffs) - target).max()),
            float(np.abs(np_cheb.chebval(full, coeffs)).max()))
    assert qsvt._fit_certificate(norm, poly.degree)[:2] == want
    assert qsvt.CERT_SLICE < dense.size


def test_sliced_max_keeps_a_nan():
    x = np.linspace(0.0, 1.0, 3 * qsvt.CERT_SLICE)
    assert math.isnan(qsvt._sliced_max(
        lambda v: np.where(v > 0.9, np.nan, v), x))


@pytest.mark.parametrize("certificate, match", [((2e-3, 0.5, 5), "sup error"),
                                                ((0.0, 1.5, 5), "exceeds 1")])
def test_cached_certificate_checked_on_every_request(monkeypatch, certificate,
                                                     match):
    approximate_target(2.0, 1e-3)
    monkeypatch.setattr(qsvt, "_fit_certificate", lambda *key: certificate)
    with pytest.raises(NumericalError, match=match):
        approximate_target(2.0, 1e-3)


def test_degree_cap_enforced(monkeypatch):
    monkeypatch.setattr(qsvt, "DEGREE_CAP", 64)
    with pytest.raises(NumericalError, match="degree cap 64 exceeded"):
        approximate_target(8.0, 1e-6)


@settings(max_examples=15, deadline=None)
@given(norm=st.floats(1.2, 3.0), eps=st.floats(1e-3, 2e-2))
def test_walked_fit_solves_the_dense_lp(norm, eps):
    poly = approximate_target(norm, eps)
    degree, (coeffs, optimum) = dense_walk(norm, eps)
    assert poly.degree == int(np.flatnonzero(np.abs(coeffs) > 1e-300)[-1])
    error = qsvt._ladder_fit(norm, degree)[1]
    assert abs(error - optimum) <= ORACLE_TOL
    a_ub, b_ub = minimax_lp(norm, degree)
    x = np.append(poly.coeffs[1::2], error)
    assert (a_ub @ x - b_ub).max() <= ROWS_TOL
    assert poly.sup_error <= eps


def test_infeasible_rungs_end_the_walk_in_numerical_error(monkeypatch):
    solve, shapes = qsvt.linprog, []

    def linprog(a_ub, b_ub):
        shapes.append(a_ub.shape)
        return solve(a_ub, b_ub)

    monkeypatch.setattr(qsvt, "linprog", linprog)
    # |P| <= a negative bound has no solution on the cap rows, so the first
    # rung has no optimum to certify and the walk stops there
    monkeypatch.setattr(qsvt, "GLOBAL_BOUND", -1e-3)
    with pytest.raises(NumericalError, match=LP_RESIDUALS):
        approximate_target(2.0, 1e-3)
    assert shapes == [qsvt._minimax_lp(2.0, 1)[0].shape]
    assert qsvt._ladder_fit.cache_info().currsize == 0


def test_solve_past_its_iteration_cap_raises(monkeypatch):
    monkeypatch.setattr(lp, "LP_ITER_CAP", 3)
    with pytest.raises(NumericalError, match="not solved in 3 interior-point "
                                             "iterations: " + LP_RESIDUALS):
        approximate_target(2.0, 1e-3)


# the oracle's dense HiGHS solve of the degree-483 LP takes minutes; that
# rung's rows are checked in test_full_lp_at_the_top_rung_meets_every_row
@pytest.mark.parametrize("norm, degree", [(4.0021, 51), (4.0021, 195),
                                          (16.0, 195), (16.0, 273)])
def test_full_lp_optimum_is_the_oracle_optimum(norm, degree):
    a_ub, b_ub = qsvt._minimax_lp(norm, degree)
    x = qsvt.linprog(a_ub, b_ub)
    coeffs, optimum = fit_minimax(norm, degree)
    assert (a_ub @ x - b_ub).max() <= ROWS_TOL
    assert abs(x[-1] - optimum) <= ORACLE_TOL


def test_full_lp_at_the_top_rung_meets_every_row():
    a_ub, b_ub = qsvt._minimax_lp(4.0021, 483)
    x = qsvt.linprog(a_ub, b_ub)
    assert (a_ub @ x - b_ub).max() <= ROWS_TOL
    # the target is met to rounding: the optimum is about 1e-10
    assert 0 <= x[-1] <= ORACLE_TOL


@pytest.mark.parametrize("degree", [51, 195, 483])
def test_on_demand_rows_are_the_dense_lp_rows(degree):
    # each rung builds its rows when the walk reaches it, with the odd
    # columns of chebvander's own recurrence: the oracle's rows, bit for bit
    a_ub, b_ub = qsvt._minimax_lp(4.0021, degree)
    oracle_a, oracle_b = minimax_lp(4.0021, degree)
    assert a_ub.tobytes() == oracle_a.tobytes()
    assert b_ub.tobytes() == oracle_b.tobytes()


def test_dense_lp_at_the_largest_capped_rung_stays_small():
    # the largest rung the default qubit cap reaches: the README market at
    # n = 10 (m = 8) has norm about 6.97 and accepts degree 99, a 4,000 x 51
    # LP.  The solve holds the rows, their scaled stack, LAPACK's copy of it
    # and Q, a fixed number of row-sized arrays whatever the iteration count
    a_ub, b_ub = qsvt._minimax_lp(6.9713, 99)
    assert a_ub.shape == (4000, 51)
    tracemalloc.start()
    try:
        qsvt.linprog(a_ub, b_ub)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 5 * a_ub.nbytes, (peak, a_ub.nbytes)


def _wx_eval_full_product(x, phases):
    """Reference: the full 2x2 product e^{i phi_0 Z} prod_k W(x) e^{i phi_k Z}."""
    s = np.sqrt(np.clip(1.0 - x * x, 0.0, None))
    m00 = np.full_like(x, np.exp(1j * phases[0]), dtype=complex)
    m01 = np.zeros_like(x, dtype=complex)
    m10 = np.zeros_like(x, dtype=complex)
    m11 = np.full_like(x, np.exp(-1j * phases[0]), dtype=complex)
    for phi in phases[1:]:
        n00 = m00 * x + m01 * (1j * s)
        n01 = m00 * (1j * s) + m01 * x
        n10 = m10 * x + m11 * (1j * s)
        n11 = m10 * (1j * s) + m11 * x
        ep, em = np.exp(1j * phi), np.exp(-1j * phi)
        m00, m01 = n00 * ep, n01 * em
        m10, m11 = n10 * ep, n11 * em
    return m00.real


def _reflection_full_product(x, phases):
    """Reference: the full 2x2 product prod_j e^{i phi_j Z} R(x)."""
    s = np.sqrt(np.clip(1.0 - x * x, 0.0, None))
    m00 = np.ones_like(x, dtype=complex)
    m01 = np.zeros_like(x, dtype=complex)
    m10 = np.zeros_like(x, dtype=complex)
    m11 = np.ones_like(x, dtype=complex)
    for phi in phases:
        ep, em = np.exp(1j * phi), np.exp(-1j * phi)
        a00, a01, a10, a11 = m00 * ep, m01 * em, m10 * ep, m11 * em
        m00 = a00 * x + a01 * s
        m01 = a00 * s - a01 * x
        m10 = a10 * x + a11 * s
        m11 = a10 * s - a11 * x
    return m00.real


@pytest.mark.parametrize("length", [1, 2, 3, 18, 196])
def test_row_only_evaluation_matches_full_product(rng, length):
    x = np.concatenate([rng.uniform(-1.0, 1.0, 64), [-1.0, 0.0, 1.0]])
    phases = rng.uniform(-np.pi, np.pi, length)
    assert np.array_equal(_wx_eval(x, phases), _wx_eval_full_product(x, phases))
    assert np.array_equal(qsp_reflection_eval(x, phases),
                          _reflection_full_product(x, phases))


def test_phase_factors_identity_polynomial():
    poly = PolynomialTarget(2.0, 0.5, np.array([0.0, 1.0]), 1, 1.0,
                            (0.5, 1.0), 0.0)
    seq = solve_phase_factors(poly)
    x = np.cos((np.arange(64) + 0.5) * np.pi / 64)
    assert np.abs(qsp_reflection_eval(x, seq.phases) - x).max() < 1e-10


def test_phase_factors_reject_a_constant():
    # the alternating circuit makes no degree-0 polynomial
    poly = PolynomialTarget(2.0, 0.5, np.array([0.5]), 0, 1.0, (0.5, 1.0), 0.0)
    with pytest.raises(ConfigError, match="degree >= 1"):
        solve_phase_factors(poly)


def test_phase_factors_chebyshev_t2():
    poly = PolynomialTarget(2.0, 0.5, np.array([0.0, 0.0, 1.0]), 2, 1.0,
                            (0.5, 1.0), 0.0)
    seq = solve_phase_factors(poly)
    x = np.cos((np.arange(64) + 0.5) * np.pi / 64)
    assert np.abs(qsp_reflection_eval(x, seq.phases) - (2 * x**2 - 1)).max() < 1e-10


def test_phase_factors_production_target():
    poly = approximate_target(3.0, 1e-4)
    seq = solve_phase_factors(poly)
    assert seq.residual <= 1e-8
    x = np.cos((np.arange(64) + 0.5) * np.pi / 64)
    err = np.abs(qsp_reflection_eval(x, seq.phases)
                 - np_cheb.chebval(x, poly.coeffs)).max()
    assert err <= 1e-8


def _encoded_operator(rng, n):
    sub, diag, sup = random_tridiagonal(rng, n)
    op = TridiagonalOperator(sub, diag, sup, n)
    return op, assemble_block_encoding(op)


APPLY_NS = (2, 3, 4, 5)


def _block(be, phases):
    """The post-selected block: ``apply_qsvt`` on the identity columns."""
    return apply_qsvt(be, phases, np.eye(2**be.n))


def _circuit_polynomials():
    """The identity, T2 and a fitted odd polynomial."""
    window = (0.5, 1.0)
    return [PolynomialTarget(2.0, 0.5, np.array([0.0, 1.0]), 1, 1.0, window, 0.0),
            PolynomialTarget(2.0, 0.5, np.array([0.0, 0.0, 1.0]), 2, 1.0,
                             window, 0.0),
            approximate_target(4.0, 1e-4)]


def test_apply_qsvt_identity_polynomial_reproduces_encoding(rng):
    poly = PolynomialTarget(2.0, 0.5, np.array([0.0, 1.0]), 1, 1.0,
                            (0.5, 1.0), 0.0)
    for n in APPLY_NS:
        op, be = _encoded_operator(rng, n)
        circ = _block(be, solve_phase_factors(poly))
        assert np.abs(circ.matrix - encoded_block(be)).max() < 1e-10
        assert circ.degree == 1


def test_apply_qsvt_diagonal_t2(rng):
    poly = PolynomialTarget(2.0, 0.5, np.array([0.0, 0.0, 1.0]), 2, 1.0,
                            (0.5, 1.0), 0.0)
    for n in APPLY_NS:
        diag = np.linspace(0.3, 0.9, 2**n)
        op = TridiagonalOperator(np.zeros(2**n), diag, np.zeros(2**n), n)
        be = assemble_block_encoding(op)
        circ = _block(be, solve_phase_factors(poly))
        expected = np.diag(2 * (diag / be.gamma) ** 2 - 1)
        assert np.abs(circ.matrix - expected).max() < 1e-10


def test_apply_qsvt_matches_svd_oracle(rng):
    poly = approximate_target(4.0, 1e-4)
    for n in APPLY_NS:
        op, be = _encoded_operator(rng, n)
        circ = _block(be, solve_phase_factors(poly))
        oracle = svd_transform_oracle(op.to_dense(), poly, be.gamma)
        assert np.abs(circ.matrix - oracle).max() < 1e-8


# the largest deviation of the block through the factored queries from the
# block through the dense U, on this file's cases, was 2.8e-16
DENSE_U_TOL = 1e-15
# the largest deviation of a unit vector's march through the factored
# queries from its march through a dense block or circuit, on this file's
# cases, was 1.7e-15, after eight steps
MARCH_TOL = 1e-14


def test_apply_qsvt_unitary_and_counts(rng):
    # the block is the top-left corner of the circuit carried on every
    # column through the same factored queries, bit for bit, and within
    # DENSE_U_TOL of the circuit through the dense U; that corner is real
    for n in APPLY_NS:
        op, be = _encoded_operator(rng, n)
        size = 2**n
        for poly in _circuit_polynomials() + [approximate_target(3.0, 1e-3)]:
            phases = solve_phase_factors(poly)
            circ = _block(be, phases)
            full = qsvt_circuit(be, phases)
            dim = full.shape[0]
            assert dim == 16 * size
            assert np.abs(full @ full.conj().T - np.eye(dim)).max() < 1e-10
            assert circ.matrix.shape == (size, size)
            assert not full[:size, :size].imag.any()
            assert circ.matrix.tobytes() == full[:size, :size].real.tobytes()
            dense = dense_qsvt_circuit(be, phases)
            assert np.abs(circ.matrix - dense[:size, :size]).max() < DENSE_U_TOL
            assert circ.degree == poly.degree == phases.degree


@settings(max_examples=30, deadline=None)
@given(n=st.integers(2, 6), seed=st.integers(0, 2**32 - 1),
       which=st.integers(0, 2), count=st.integers(1, 4))
def test_apply_qsvt_carries_each_column_alone(n, seed, which, count):
    # a batch of unit columns gives each column's bits alone, and the top-left
    # block of the dense-U circuit times the columns within DENSE_U_TOL
    rng = np.random.default_rng(seed)
    op, be = _encoded_operator(rng, n)
    phases = solve_phase_factors(_circuit_polynomials()[which])
    size = 2**n
    columns = rng.normal(size=(size, count))
    columns /= np.linalg.norm(columns, axis=0)
    applied = apply_qsvt(be, phases, columns).matrix
    assert applied.shape == (size, count)
    for j in range(count):
        alone = apply_qsvt(be, phases, columns[:, j:j + 1]).matrix
        assert alone.tobytes() == applied[:, j:j + 1].tobytes()
    dense = dense_qsvt_circuit(be, phases)[:size, :size]
    assert np.abs(applied - dense @ columns).max() < DENSE_U_TOL


def test_apply_qsvt_peak_memory_below_one_circuit(rng):
    n = 5
    op, be = _encoded_operator(rng, n)
    phases = solve_phase_factors(approximate_target(4.0, 1e-4))
    tracemalloc.start()
    try:
        _block(be, phases)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # one 2^(n+4)-square complex matrix: the dense circuit alone needs more
    assert peak < 16 * 4 ** (n + 4)


def test_cold_stage1_builds_no_encoding_square_matrix():
    # README market at n = 7: the dense 2^(n+3)-square real U alone would
    # take 8 MiB; the factored queries carry 2^n rows of 2^(n+3) amplitudes
    n = 7
    dtau = 1 / 4096
    params = MarketParams(r=0.02, mu=0.05, alpha=0.2, T=12 * dtau,
                          t_bar=8 * dtau, dtau=dtau)
    grid = build_grid(0.0, 4.0, n, "uniform")
    payoff = payoff_vector(PayoffSpec("call", 1.0), grid)
    for memo in process_memos().values():
        memo.cache_clear()
    tracemalloc.start()
    try:
        res = prepare_value_state(payoff, params, grid, eps1=1e-3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert res.state.shape == (2**n,)
    assert peak < 8 * 4 ** (n + 3)


def test_stage1_march_builds_no_square_block():
    # README market at n = 8, four steps, with only the encoding warm: the
    # fit, the phase solve and the march of one column per step peak below
    # two complex 2^n-square arrays, 2 MiB, so no 2^n-square block is built
    n = 8
    params = _readme_horizon(4)
    grid = build_grid(0.0, 4.0, n, "uniform")
    payoff = payoff_vector(PayoffSpec("call", 1.0), grid)
    qsvt._encoding(_stage1_operator_key(params, grid))
    tracemalloc.start()
    try:
        res = prepare_value_state(payoff, params, grid, eps1=1e-3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert res.steps == 4 and res.target.degree == 13
    assert peak < 2 * 16 * 4**n, peak


PREP_CASES = {2: dict(r=0.02, alpha=0.2), 3: dict(r=0.02, alpha=0.2),
              4: dict(r=0.02, alpha=0.2), 5: dict(r=0.01, alpha=0.1)}


def _market(n, t_tilde, dtau=1 / 4096):
    kw = PREP_CASES[n]
    return MarketParams(r=kw["r"], mu=0.0, alpha=kw["alpha"],
                        T=t_tilde * dtau, t_bar=0.0, dtau=dtau)


def test_prepare_value_state_zero_steps_is_normalized_payoff(unit_grid, call_spec):
    # no step runs: nothing is post-selected and no encoding is queried
    params = MarketParams(r=0.02, mu=0.0, alpha=0.2, T=0.5, t_bar=0.5, dtau=1 / 16)
    payoff = payoff_vector(call_spec, unit_grid)
    res = prepare_value_state(payoff, params, unit_grid, eps1=1e-3)
    expected = payoff / np.linalg.norm(payoff)
    assert np.abs(res.state - expected).max() < 1e-12
    assert res.steps == 0 and res.queries == 0
    assert res.success_probability == 1.0


def test_prepare_value_state_single_step_fidelity():
    grid = build_grid(0.0, 4.0, 4, "uniform")
    spec = PayoffSpec("call", 1.0)
    params = _market(4, 1)
    res = prepare_value_state(payoff_vector(spec, grid), params, grid, eps1=1e-3)
    classical = price_european(params, grid, spec).values
    vc = classical / np.linalg.norm(classical)
    fidelity = abs(np.vdot(res.state, vc))
    assert fidelity >= 1 - 1e-6


def test_prepare_value_state_eight_steps_l2():
    grid = build_grid(0.0, 4.0, 5, "uniform")
    spec = PayoffSpec("call", 1.0)
    params = _market(5, 8)
    res = prepare_value_state(payoff_vector(spec, grid), params, grid, eps1=1e-3)
    classical = price_european(params, grid, spec).values
    vc = classical / np.linalg.norm(classical)
    assert np.linalg.norm(res.state - vc) <= 1e-3


def test_prepare_value_state_rejects_zero_payoff(unit_grid):
    params = _market(4, 1)
    with pytest.raises(NumericalError):
        prepare_value_state(np.zeros(16), params, unit_grid, eps1=1e-3)


def _amplified(prob):
    """One round of amplitude amplification: sin^2 theta -> sin^2 3 theta."""
    return math.sin(3.0 * math.asin(math.sqrt(prob))) ** 2


def test_prepare_value_state_probability_floor(unit_grid, call_spec, monkeypatch):
    params = _market(4, 4)
    payoff = payoff_vector(call_spec, unit_grid)
    res = prepare_value_state(payoff, params, unit_grid, eps1=1e-3)
    # each step's unamplified probability is about 0.2; one amplification
    # round lifts it to about 0.97, and the least step is reported.  The
    # march through the block of the dense-U circuit agrees within
    # MARCH_TOL
    block = dense_qsvt_circuit(res.encoding, res.phases)[:16, :16].real
    vec, amplified = payoff / np.linalg.norm(payoff), []
    for _ in range(4):
        sub = block @ vec
        prob = float(np.linalg.norm(sub) ** 2)
        assert 0.15 < prob < 0.25
        amplified.append(_amplified(prob))
        vec = sub / np.linalg.norm(sub)
    assert np.abs(res.state - vec).max() <= MARCH_TOL
    assert res.success_probability == pytest.approx(min(amplified), abs=MARCH_TOL)
    assert 0.95 < res.success_probability < 1.0
    # the floor applies to every step's amplified probability, not to the
    # product over the march (about 0.97^4 here)
    monkeypatch.setattr(qsvt, "SUCCESS_PROB_FLOOR", 0.9)
    assert _call_state(params, unit_grid, 1.0).success_probability > 0.9
    monkeypatch.setattr(qsvt, "SUCCESS_PROB_FLOOR", 0.99)
    with pytest.raises(NumericalError, match="step 1 of 4 below floor"):
        prepare_value_state(payoff, params, unit_grid, eps1=1e-3)


def _readme_horizon(steps):
    """The README market, t_bar = 8 dtau, ``steps`` pricing steps out."""
    return MarketParams(r=0.02, mu=0.05, alpha=0.2, T=(8 + steps) / 4096,
                        t_bar=8 / 4096, dtau=1 / 4096)


@pytest.mark.parametrize("n", [4, 5, 6])
@pytest.mark.parametrize("s_max", [1.1, 1.5])
def test_prepare_value_state_is_the_repeated_implicit_solve(s_max, n):
    # on narrow grids the stepping matrix is far from normal, so only the
    # march of (I + M)^(-1) gives the T-step solve
    grid = build_grid(0.0, s_max, n, "uniform")
    payoff = payoff_vector(PayoffSpec("call", 1.0), grid)
    for steps in (2, 8, 16):
        params = _readme_horizon(steps)
        op = assemble_operator(params, grid).plus_identity()
        solved = payoff
        for _ in range(steps):
            solved = _thomas_solve(op.sub, op.diag, op.super_, solved)
        res = prepare_value_state(payoff, params, grid, eps1=1e-3)
        distance = np.linalg.norm(res.state - solved / np.linalg.norm(solved))
        assert distance <= 1e-3, (s_max, n, steps, distance)


def test_horizons_share_one_accepted_rung(unit_grid, call_spec):
    payoff = payoff_vector(call_spec, unit_grid)
    results = [prepare_value_state(payoff, _readme_horizon(steps), unit_grid,
                                   eps1=1e-3) for steps in (4, 8, 16, 32)]
    degree, norm = results[0].target.degree, results[0].target.norm
    assert {res.target.degree for res in results} == {degree}
    # the four walks climbed the same rungs, and every tolerance accepts
    # the top one alone
    rungs = [max(1, int(0.25 * norm) | 1)]
    while rungs[-1] < degree:
        rungs.append(max(rungs[-1] + 2, int(rungs[-1] * 1.4) | 1))
    info = qsvt._ladder_fit.cache_info()
    assert info.misses == info.currsize == len(rungs)
    fits = {rung: qsvt._ladder_fit(norm, rung) for rung in rungs}
    assert qsvt._ladder_fit.cache_info().misses == info.misses
    for res in results:
        assert [rung for rung, fit in fits.items()
                if fit[1] <= res.target.eps * qsvt.FIT_ACCEPT] == [degree]
    # one certificate, one phase solve and one encoding serve every horizon
    for memo in (qsvt._fit_certificate, qsvt._phase_factors, qsvt._encoding):
        assert memo.cache_info().currsize == 1
    assert [res.queries for res in results] == [3 * steps * degree
                                                for steps in (4, 8, 16, 32)]


@pytest.mark.parametrize("n, most", [(4, 7), (5, 7), (6, 7), (8, 13)])
def test_readme_market_accepts_a_low_degree(n, most):
    # the encoding's gamma is within 2% of sigma_min at n <= 6 and 33% at
    # n = 8, so the fit's window [sigma_min / gamma, 1] is narrow
    grid = build_grid(0.0, 4.0, n, "uniform")
    res = _call_state(_readme_horizon(8), grid, 1.0)
    assert res.target.norm < 1.35
    assert res.target.degree <= most
    assert res.queries == 3 * 8 * res.target.degree


def _call_state(params, grid, strike, eps1=1e-3):
    payoff = payoff_vector(PayoffSpec("call", strike), grid)
    return prepare_value_state(payoff, params, grid, eps1=eps1)


def _stage1_bits(res):
    return (res.state.tobytes(), res.phases.phases.tobytes(),
            res.success_probability, res.target.degree, res.target.sup_error,
            res.phases.degree)


def _dense_circuit(params, grid, phases):
    mtilde_t = assemble_operator(params, grid).plus_identity().transpose()
    return qsvt_circuit(assemble_block_encoding(mtilde_t), phases)


def _dense_post_selection(matrix, payoff):
    """Post-selected branch of the full U_Phi matrix applied to the padded
    payoff state: Stage 1 as computed before the circuit was memoised."""
    size = payoff.size
    amps = np.zeros(16 * size, dtype=complex)
    amps[:size] = payoff / np.linalg.norm(payoff)
    return (matrix @ amps)[:size]


def _misses():
    return [memo.cache_info().misses for memo in process_memos().values()]


def _dense_march(matrix, payoff, steps):
    """Stage 1 through the full U_Phi matrix: the post-selected branch of
    the padded state, renormalized, ``steps`` times; returns the state and
    the least amplified step probability."""
    vec = payoff / np.linalg.norm(payoff)
    least = 1.0
    for _ in range(steps):
        sub = _dense_post_selection(matrix, vec).real
        least = min(least, _amplified(float(np.linalg.norm(sub) ** 2)))
        vec = sub / np.linalg.norm(sub)
    return (-vec if vec.sum() < 0 else vec), least


def test_warm_stage1_equals_cold_bit_for_bit():
    grid = build_grid(0.0, 4.0, 4, "uniform")
    # two strikes at two horizons of one market share one fit; the tighter
    # eps1 needs a higher degree, so one encoding serves two fits
    cases = [(0.95, 1e-3, 4), (1.05, 1e-3, 8), (1.0, 1e-6, 4)]

    def state(case):
        strike, eps1, steps = case
        return _call_state(_market(4, steps), grid, strike, eps1)

    cold = {}
    for case in cases:
        for memo in process_memos().values():
            memo.cache_clear()
        cold[case] = _stage1_bits(state(case))
    assert len({bits[3] for bits in cold.values()}) == 2
    assert cold[cases[0]][1] == cold[cases[1]][1]  # the same phases
    for case in cases:
        # the march through the dense circuit of these phases gives the
        # state and per-step probability within MARCH_TOL
        res = state(case)
        payoff = payoff_vector(PayoffSpec("call", case[0]), grid)
        matrix = _dense_circuit(_market(4, case[2]), grid, res.phases)
        vec, least = _dense_march(matrix, payoff, case[2])
        assert np.abs(res.state - vec).max() <= MARCH_TOL
        assert res.success_probability == pytest.approx(least, abs=MARCH_TOL)
    for case in cases:
        assert _stage1_bits(state(case)) == cold[case]
    misses = _misses()
    # every memo now holds all three cases: this round is warm throughout
    for case in cases:
        assert _stage1_bits(state(case)) == cold[case]
    assert _misses() == misses


def _stage1_operator_key(params, grid):
    return qsvt._operator_key(assemble_operator(params, grid).plus_identity().transpose())


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_value_block_applies_like_the_dense_circuit(n):
    grid = build_grid(0.0, 4.0, n, "uniform")
    params = _market(n, 4)
    res = _call_state(params, grid, 1.0)
    assert res.encoding is qsvt._encoding(_stage1_operator_key(params, grid))[0]
    block = _block(res.encoding, res.phases).matrix
    matrix = _dense_circuit(params, grid, res.phases)
    size = 2**n
    assert block.tobytes() == matrix[:size, :size].real.tobytes()
    dense = dense_qsvt_circuit(res.encoding, res.phases)
    assert np.abs(block - dense[:size, :size]).max() < DENSE_U_TOL
    # 200 payoffs applied as one batch are each payoff's own bits, and
    # within MARCH_TOL of the post-selected branch of the full circuit
    payoffs = np.random.default_rng(n).normal(size=(size, 200))
    payoffs /= np.linalg.norm(payoffs, axis=0)
    applied = apply_qsvt(res.encoding, res.phases, payoffs).matrix
    for j in range(200):
        alone = apply_qsvt(res.encoding, res.phases, payoffs[:, j:j + 1]).matrix
        assert alone.tobytes() == applied[:, j:j + 1].tobytes()
        post = _dense_post_selection(matrix, payoffs[:, j])
        assert np.abs(applied[:, j] - post).max() <= MARCH_TOL


def test_per_request_checks_fire_on_warm_cache(unit_grid, monkeypatch):
    params = _market(4, 4)
    res = _call_state(params, unit_grid, 1.0)
    misses = _misses()
    with monkeypatch.context() as patch:
        patch.setattr(qsvt, "SUCCESS_PROB_FLOOR", 0.99)
        with pytest.raises(NumericalError, match="floor"):
            _call_state(params, unit_grid, 1.0)
    # the ladder rung just below the accepted degree failed its fit, so a
    # cap there stops the walk on compiled entries alone
    rungs = [max(1, int(0.25 * res.target.norm) | 1)]
    while rungs[-1] < res.target.degree:
        rungs.append(max(rungs[-1] + 2, int(rungs[-1] * 1.4) | 1))
    monkeypatch.setattr(qsvt, "DEGREE_CAP", rungs[-2])
    with pytest.raises(NumericalError, match="degree cap"):
        _call_state(params, unit_grid, 1.0)
    assert _misses() == misses


def test_compiled_stage1_arrays_are_read_only(unit_grid):
    params = _market(4, 4)
    res = _call_state(params, unit_grid, 1.0)
    be = qsvt._encoding(_stage1_operator_key(params, unit_grid))[0]
    # the prepared state carries the memoised encoding itself
    assert res.encoding is be
    applied = apply_qsvt(be, res.phases, np.eye(16)).matrix
    assert applied.shape == (16, 16) and applied.base is None
    arrays = [res.target.coeffs, res.phases.phases, be.left, be.right,
              res.state, applied]
    for arr in arrays:
        with pytest.raises(ValueError, match="read-only"):
            arr[0] = 0.0


def test_stage1_caches_stay_within_maxsize(rng):
    assert qsvt._ladder_fit.cache_info().maxsize == qsvt.LADDER_CACHE
    extra = qsvt.PROGRAM_CACHE + 3
    for k in range(extra):
        # a distinct operator and a distinct degree-1 fit each time
        op = TridiagonalOperator(*random_tridiagonal(rng, 2), 2)
        coeffs = np.array([0.0, 0.5 + 0.01 * k])
        qsvt._encoding(qsvt._operator_key(op))
        qsvt._phase_factors(1, coeffs.tobytes())
    for cache in (qsvt._phase_factors, qsvt._encoding):
        info = cache.cache_info()
        assert info.maxsize == qsvt.PROGRAM_CACHE
        assert info.misses == extra
        assert info.currsize == info.maxsize
