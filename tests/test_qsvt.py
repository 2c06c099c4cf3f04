import json
import math
import os
import subprocess
import sys
import tracemalloc
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from numpy.polynomial import chebyshev as np_cheb

from conftest import MEMOS, random_tridiagonal
from qvar import qsvt
from qvar.blockenc import assemble_block_encoding
from qvar.errors import ConfigError, NumericalError
from qvar.market import MarketParams, PayoffSpec, build_grid, payoff_vector
from qvar.pde import TridiagonalOperator, assemble_operator, price_european
from qvar.qsvt import (PolynomialTarget, _wx_eval, apply_qsvt,
                       approximate_target, prepare_value_state,
                       qsp_reflection_eval, solve_phase_factors,
                       svd_transform_oracle, target_g)
from reference import dense_walk, encoded_block, minimax_lp, qsvt_circuit

SRC = str(Path(qsvt.__file__).resolve().parents[1])  # for fresh interpreters


def test_target_g_examples():
    assert target_g(2.0, 3, 2.0) == pytest.approx(0.5, abs=1e-15)
    assert target_g(0.37, 0, 2.0) == pytest.approx(0.5, abs=1e-15)
    assert target_g(1.0, 1, 2.0) == pytest.approx(1.0, abs=1e-15)
    with pytest.raises(ConfigError):
        target_g(0.0, 1, 2.0)


def test_constant_target_degree_zero():
    poly = approximate_target(0, 3.0, 1e-3)
    assert poly.degree == 0
    assert poly.coeffs.tolist() == [0.5]
    assert poly.scale == 1.0


def test_approximate_target_sup_error_dense_sampling():
    poly = approximate_target(1, 2.0, 1e-3)
    xs = np.linspace(0.5, 1.0, 10_000)
    err = np.abs(poly.evaluate(xs) - poly.scale * target_g(xs, 1, 2.0)).max()
    assert err <= 1e-3
    assert np.abs(poly.evaluate(np.linspace(-1, 1, 20_001))).max() <= 1.0


def test_degree_grows_at_most_linearly():
    degrees = {}
    for t_tilde in (4, 8, 16, 32):
        degrees[t_tilde] = approximate_target(t_tilde, 2.0, 1e-3).degree
    for t_tilde in (4, 8, 16):
        assert degrees[2 * t_tilde] / degrees[t_tilde] <= 2.5


def test_monotone_error_in_eps():
    prev_degree = 0
    prev_err = np.inf
    for eps in (1e-2, 1e-3, 1e-4):
        poly = approximate_target(2, 2.0, eps)
        assert poly.degree >= prev_degree
        assert poly.sup_error <= prev_err
        prev_degree, prev_err = poly.degree, poly.sup_error


def test_fit_certificate_is_per_rung():
    # two tolerances on one (t_tilde, norm) accept different rungs; each
    # request reads its own rung's certificate, cold or warm
    cold = {}
    for eps in (1e-2, 1e-4):
        for memo in MEMOS:
            memo.cache_clear()
        poly = approximate_target(2, 2.0, eps)
        cold[eps] = (poly.degree, poly.sup_error)
    assert cold[1e-2][0] < cold[1e-4][0]
    for eps in (1e-2, 1e-4, 1e-2, 1e-4):
        poly = approximate_target(2, 2.0, eps)
        assert (poly.degree, poly.sup_error) == cold[eps]
    assert qsvt._fit_certificate.cache_info().currsize == 2


@pytest.mark.parametrize("certificate, match", [((2e-3, 0.5, 5), "sup error"),
                                                ((0.0, 1.5, 5), "exceeds 1")])
def test_cached_certificate_checked_on_every_request(monkeypatch, certificate,
                                                     match):
    approximate_target(2, 2.0, 1e-3)
    monkeypatch.setattr(qsvt, "_fit_certificate", lambda *key: certificate)
    with pytest.raises(NumericalError, match=match):
        approximate_target(2, 2.0, 1e-3)


def test_degree_cap_enforced(monkeypatch):
    monkeypatch.setattr(qsvt, "DEGREE_CAP", 64)
    with pytest.raises(NumericalError, match="degree cap 64 exceeded"):
        approximate_target(32, 8.0, 1e-6)


# what qsvt.linprog calls on SciPy's private HiGHS binding
HIGHS_METHODS = ("setOptionValue", "addVars", "changeColsCost", "getOptionValue",
                 "addRows", "run", "getModelStatus", "getSolution")
HIGHS_STATUSES = ("kOptimal", "kInfeasible", "kUnboundedOrInfeasible")


def _highs_tolerance():
    return qsvt.highs_core()._Highs().getOptionValue(
        "primal_feasibility_tolerance")[1]


def test_private_highs_binding_has_what_the_solver_calls():
    import scipy
    installed = f"installed scipy {scipy.__version__}"
    try:
        core = qsvt.highs_core()
    except ImportError as exc:
        pytest.fail(f"{installed}: qsvt.highs_core cannot load the HiGHS "
                    f"extension that qsvt.linprog solves the Stage-1 LP on: "
                    f"{exc}")
    missing = [name for name in ("_Highs", "HighsModelStatus")
               if not hasattr(core, name)]
    assert not missing, (f"{installed}: {core.__name__} lacks {missing}, "
                         f"which qsvt.linprog calls")
    missing = [name for name in HIGHS_METHODS
               if not callable(getattr(core._Highs, name, None))]
    missing += [f"HighsModelStatus.{name}" for name in HIGHS_STATUSES
                if not hasattr(core.HighsModelStatus, name)]
    assert not missing, (f"{installed}: the private HiGHS binding lacks "
                         f"{missing}, which qsvt.linprog calls")
    tol = _highs_tolerance()
    assert isinstance(tol, float) and 0 < tol < 1e-3, (
        f"{installed}: primal_feasibility_tolerance reads {tol!r}")


def test_missing_highs_extension_names_scipy_and_the_folder(monkeypatch,
                                                          tmp_path):
    import scipy
    monkeypatch.delitem(sys.modules, qsvt.HIGHS_CORE, raising=False)
    monkeypatch.setattr(scipy, "__file__", str(tmp_path / "__init__.py"))
    folder = tmp_path / "optimize" / "_highspy"
    with pytest.raises(ImportError) as info:
        qsvt.highs_core.__wrapped__()
    assert f"scipy {scipy.__version__}" in str(info.value)
    assert str(folder) in str(info.value)


@settings(max_examples=15, deadline=None)
@given(t_tilde=st.integers(1, 4), norm=st.floats(1.2, 3.0),
       eps=st.floats(1e-3, 2e-2))
def test_row_generated_fit_solves_the_dense_lp(t_tilde, norm, eps):
    poly = approximate_target(t_tilde, norm, eps)
    degree, (coeffs, optimum) = dense_walk(t_tilde, norm, eps)
    assert poly.degree == int(np.flatnonzero(np.abs(coeffs) > 1e-300)[-1])
    tol = _highs_tolerance()
    error = qsvt._ladder_fits(t_tilde, norm, degree)["full"][1]
    assert abs(error - optimum) <= 2 * tol
    a_ub, b_ub = minimax_lp(t_tilde, norm, degree)
    x = np.append(poly.coeffs[1::2], error)
    assert (a_ub @ x - b_ub).max() <= tol
    assert poly.sup_error <= eps


def _row_key(index, value, upper):
    return tuple(index.tolist()), tuple(value.tolist()), float(upper)


def _dense_screen(degree):
    """The screen rows of the dense LP: every SCREEN_STRIDE-th node of each
    of its four blocks, in block order."""
    n_w, n_c = max(1200, 3 * degree), 2 * max(400, 2 * degree)
    starts = np.cumsum([0, n_w, n_w, n_c])
    return np.concatenate([start + np.arange(0, size, qsvt.SCREEN_STRIDE)
                           for start, size in zip(starts, (n_w, n_w, n_c, n_c))])


class _Recorder:
    """Wraps qsvt.linprog and the HiGHS models it builds.  Per model (one
    per rung the walk solves): the rung's dense LP from the oracle, its
    rows keyed by their entries, the keys each round added, the solution
    after each round and the linprog calls made on it, in order."""

    def __init__(self, monkeypatch):
        core = qsvt.highs_core()
        self.models = []
        self.calls = []
        models, calls = self.models, self.calls

        class RecordingHighs(core._Highs):
            def __init__(self):
                super().__init__()
                self.record = {"rounds": [], "solutions": [], "calls": []}

            def addRows(self, num, lower, upper, nnz, starts, index, value):
                ends = np.append(starts[1:], nnz)
                self.record["rounds"].append([
                    _row_key(index[a:b], value[a:b], upper[i])
                    for i, (a, b) in enumerate(zip(starts, ends))])
                return super().addRows(num, lower, upper, nnz, starts, index,
                                       value)

            def run(self):
                status = super().run()
                self.record["solutions"].append(
                    np.array(self.getSolution().col_value))
                return status

        solve = qsvt.linprog

        def linprog(lp, full):
            result = solve(lp, full)
            record = lp.highs.record
            if "lp" not in record:
                a_ub, b_ub = minimax_lp(lp.t_tilde, lp.norm, lp.degree)
                record["lp"], record["degree"] = (a_ub, b_ub), lp.degree
                record["keys"] = [_row_key(np.flatnonzero(row), row[row != 0], b)
                                  for row, b in zip(a_ub, b_ub)]
                record["screen"] = [record["keys"][i]
                                    for i in _dense_screen(lp.degree)]
                models.append(record)
            record["calls"].append({"full": full, "result": result,
                                    "rounds": len(record["rounds"])})
            calls.append((lp.degree, full))
            return result

        monkeypatch.setattr(core, "_Highs", RecordingHighs)
        monkeypatch.setattr(qsvt, "linprog", linprog)


README_MARKET = MarketParams(r=0.02, mu=0.05, alpha=0.2, T=16 / 4096,
                             t_bar=8 / 4096, dtau=1 / 4096)


def test_row_generation_adds_the_most_violated_new_rows(monkeypatch, unit_grid,
                                                        call_spec):
    recorder = _Recorder(monkeypatch)
    payoff = payoff_vector(call_spec, unit_grid)
    res = prepare_value_state(payoff, README_MARKET, unit_grid, eps1=1e-3)
    assert res.target.degree == 139
    assert len(recorder.models) >= 2
    tol = _highs_tolerance()
    for model in recorder.models:
        (a_ub, b_ub), keys, rounds = model["lp"], model["keys"], model["rounds"]
        assert len(rounds) <= math.ceil(len(keys) / qsvt.ROW_BATCH) + 1
        # round 1 is the screen: the dense LP's screen rows, in its order
        assert rounds[0] == model["screen"]
        held = Counter()
        for r, added in enumerate(rounds + [[]]):
            if r and model["calls"][-1]["full"]:
                # the rows outside the model that the last solution violates
                excess = a_ub @ model["solutions"][r - 1] - b_ub
                outside = np.array([key not in held for key in keys])
                violated = outside & (excess > tol)
                picked = outside & np.array([key in set(added) for key in keys])
                assert not (picked & ~violated).any()
                assert picked.sum() == len(added) == min(qsvt.ROW_BATCH,
                                                         violated.sum())
                if (violated & ~picked).any():
                    assert excess[picked].min() >= excess[violated & ~picked].max()
            # a row enters the model no more often than the LP holds it: the
            # two empty cap rows at node 0 are the only repeated rows
            held.update(added)
            assert held <= Counter(keys)
    # one model per rung: its screen call solves round 1 alone, and the full
    # LP, when the screen lets the rung through, goes on in that model, so a
    # rung makes at most two linprog calls
    assert len(recorder.calls) == sum(len(m["calls"]) for m in recorder.models)
    degrees = [model["degree"] for model in recorder.models]
    assert degrees == sorted(set(degrees))
    for model in recorder.models:
        assert [call["full"] for call in model["calls"]] in ([False],
                                                             [False, True])
        assert model["calls"][0]["rounds"] == 1
    # the accepted rung is the walk's last model: it started from the screen
    # rows, added rows over more than one round and stopped short of the grid
    accepted = recorder.models[-1]
    held = sum(len(added) for added in accepted["rounds"])
    assert [call["full"] for call in accepted["calls"]] == [False, True]
    assert len(accepted["rounds"]) > 1
    assert len(accepted["screen"]) < held < len(accepted["keys"])


def test_infeasible_rungs_end_the_walk_in_numerical_error(monkeypatch):
    recorder = _Recorder(monkeypatch)
    monkeypatch.setattr(qsvt, "DEGREE_CAP", 64)
    # |P| <= a negative bound has no solution on any subset of the cap rows
    monkeypatch.setattr(qsvt, "GLOBAL_BOUND", -1e-3)
    with pytest.raises(NumericalError, match="degree cap 64 exceeded"):
        approximate_target(4, 2.0, 1e-3)
    # every rung up to the cap ran its screen, which found it infeasible, and
    # so the full LP, a superset of its rows, never ran
    degrees = [model["degree"] for model in recorder.models]
    assert len(degrees) > 2 and degrees == sorted(set(degrees))
    for model in recorder.models:
        assert [call["result"] for call in model["calls"]] == [None]
        assert [call["full"] for call in model["calls"]] == [False]
        assert model["rounds"] == [model["screen"]]


def _index_sets(lp, rng):
    """Screen rows, a subset of them, and random rows in and out of order."""
    size = lp.bound.size
    return [lp.screen, np.sort(rng.choice(lp.screen, 40, replace=False)),
            np.sort(rng.choice(size, qsvt.ROW_BATCH, replace=False)),
            rng.permutation(size)[:300], np.arange(size)]


@pytest.mark.parametrize("degree", [51, 195, 483])
def test_on_demand_rows_are_the_dense_lp_rows(degree, rng):
    lp = qsvt.MinimaxLP(12, 4.0021, degree)
    a_ub, b_ub = minimax_lp(12, 4.0021, degree)
    assert lp.bound.tobytes() == b_ub.tobytes()
    assert np.array_equal(lp.screen, _dense_screen(degree))
    # the odd Chebyshev columns are half of a_ub: no +- copies, no t column
    assert lp.vander.nbytes * 2 < a_ub.nbytes
    for index in _index_sets(lp, rng):
        block = a_ub[index]
        assert lp.rows(index).tobytes() == block.tobytes()
        # the compressed rows HiGHS gets, against the dense rows' nonzeros
        starts, columns, values = lp.sparse_rows(index)
        flat = np.flatnonzero(block)
        assert starts.dtype == columns.dtype == np.int32
        assert np.array_equal(
            starts, np.searchsorted(flat, np.arange(0, block.size, block.shape[1])))
        assert np.array_equal(columns, flat % block.shape[1])
        assert values.tobytes() == block.flat[flat].tobytes()


# prints, per degree, whether the on-demand excess equals the dense LP's
# a_ub @ x - b_ub bit for bit, and a digest of the excess vectors
ON_DEMAND_EXCESS = """
import hashlib, json, sys
import numpy as np
sys.path.insert(0, sys.argv[1])
from qvar import qsvt
from reference import minimax_lp
rng = np.random.default_rng(20240811)
out = {}
for degree in (51, 195, 483):
    lp = qsvt.MinimaxLP(12, 4.0021, degree)
    a_ub, b_ub = minimax_lp(12, 4.0021, degree)
    xs = []
    for _ in range(6):
        x = rng.normal(size=a_ub.shape[1]) * 10.0 ** rng.integers(-3, 4, a_ub.shape[1])
        x[-1] = abs(x[-1])
        xs.append(x)
    if degree < 483:
        xs.append(qsvt.linprog(lp, True))  # a solution, as the rounds see them
    digest, equal = hashlib.sha256(), True
    for x in xs:
        excess = lp.excess(x)
        equal = equal and excess.tobytes() == (a_ub @ x - b_ub).tobytes()
        digest.update(excess.tobytes())
    out[degree] = [equal, digest.hexdigest()]
print(json.dumps(out))
"""


def test_on_demand_excess_is_the_dense_products_bits():
    # with one BLAS thread the dense product groups rows as the aligned
    # chunks do; the chunks are too small for BLAS to split across threads,
    # so the excess keeps its bits at any thread count
    runs = {}
    for threads in ("1", "2"):
        env = {**os.environ, "PYTHONPATH": SRC, "OPENBLAS_NUM_THREADS": threads,
               "OMP_NUM_THREADS": threads, "MKL_NUM_THREADS": threads}
        proc = subprocess.run(
            [sys.executable, "-c", ON_DEMAND_EXCESS, str(Path(__file__).parent)],
            env=env, capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr
        runs[threads] = json.loads(proc.stdout)
    assert all(equal for equal, _ in runs["1"].values()), runs["1"]
    assert ({degree: digest for degree, (_, digest) in runs["2"].items()}
            == {degree: digest for degree, (_, digest) in runs["1"].items()})


def test_cold_full_rung_peaks_below_one_dense_lp():
    qsvt.highs_core()  # the extension's import is not the rung's memory
    tracemalloc.start()
    try:
        lp = qsvt.MinimaxLP(12, 4.0021, 195)
        screen = qsvt.linprog(lp, False)
        full = qsvt.linprog(lp, True)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert screen is not None and full is not None
    assert lp.screen.size < lp.held.sum() < lp.held.size
    # the dense 4,000 x 99 a_ub the rung used to build
    dense = (2 * 1200 + 2 * 800) * 99 * 8
    assert peak < dense, (peak, dense)


def test_highs_stop_that_is_not_optimal_raises(monkeypatch):
    core = qsvt.highs_core()

    class StoppedHighs(core._Highs):
        def getModelStatus(self):
            return core.HighsModelStatus.kIterationLimit

    monkeypatch.setattr(core, "_Highs", StoppedHighs)
    with pytest.raises(NumericalError, match="kIterationLimit"):
        approximate_target(1, 2.0, 1e-3)


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
    poly = PolynomialTarget(1, 2.0, 0.5, np.array([0.0, 1.0]), 1, 1.0,
                            (0.5, 1.0), 0.0)
    seq = solve_phase_factors(poly)
    x = np.cos((np.arange(64) + 0.5) * np.pi / 64)
    assert np.abs(qsp_reflection_eval(x, seq.phases, 1) - x).max() < 1e-10


def test_phase_factors_chebyshev_t2():
    poly = PolynomialTarget(1, 2.0, 0.5, np.array([0.0, 0.0, 1.0]), 2, 1.0,
                            (0.5, 1.0), 0.0)
    seq = solve_phase_factors(poly)
    x = np.cos((np.arange(64) + 0.5) * np.pi / 64)
    assert np.abs(qsp_reflection_eval(x, seq.phases, 2) - (2 * x**2 - 1)).max() < 1e-10


def test_phase_factors_production_target():
    poly = approximate_target(4, 3.0, 1e-4)
    seq = solve_phase_factors(poly)
    assert seq.residual <= 1e-8
    x = np.cos((np.arange(64) + 0.5) * np.pi / 64)
    err = np.abs(qsp_reflection_eval(x, seq.phases, poly.degree)
                 - np_cheb.chebval(x, poly.coeffs)).max()
    assert err <= 1e-8


def _encoded_operator(rng, n):
    sub, diag, sup = random_tridiagonal(rng, n)
    op = TridiagonalOperator(sub, diag, sup, n)
    return op, assemble_block_encoding(op)


APPLY_NS = (2, 3, 4, 5)


def _circuit_polynomials():
    """Degree 0, the identity, T2 and a fitted odd polynomial."""
    window = (0.5, 1.0)
    return [approximate_target(0, 2.0, 0.5),
            PolynomialTarget(1, 2.0, 0.5, np.array([0.0, 1.0]), 1, 1.0, window, 0.0),
            PolynomialTarget(1, 2.0, 0.5, np.array([0.0, 0.0, 1.0]), 2, 1.0,
                             window, 0.0),
            approximate_target(2, 4.0, 1e-4)]


def test_apply_qsvt_identity_polynomial_reproduces_encoding(rng):
    poly = PolynomialTarget(1, 2.0, 0.5, np.array([0.0, 1.0]), 1, 1.0,
                            (0.5, 1.0), 0.0)
    for n in APPLY_NS:
        op, be = _encoded_operator(rng, n)
        circ = apply_qsvt(be, solve_phase_factors(poly))
        assert np.abs(circ.matrix - encoded_block(be)).max() < 1e-10
        assert circ.degree == 1


def test_apply_qsvt_diagonal_t2(rng):
    poly = PolynomialTarget(1, 2.0, 0.5, np.array([0.0, 0.0, 1.0]), 2, 1.0,
                            (0.5, 1.0), 0.0)
    for n in APPLY_NS:
        diag = np.linspace(0.3, 0.9, 2**n)
        op = TridiagonalOperator(np.zeros(2**n), diag, np.zeros(2**n), n)
        be = assemble_block_encoding(op)
        circ = apply_qsvt(be, solve_phase_factors(poly))
        expected = np.diag(2 * (diag / be.gamma) ** 2 - 1)
        assert np.abs(circ.matrix - expected).max() < 1e-10


def test_apply_qsvt_matches_svd_oracle(rng):
    poly = approximate_target(2, 4.0, 1e-4)
    for n in APPLY_NS:
        op, be = _encoded_operator(rng, n)
        circ = apply_qsvt(be, solve_phase_factors(poly))
        oracle = svd_transform_oracle(op.to_dense(), poly, be.gamma)
        assert np.abs(circ.matrix - oracle).max() < 1e-8


def test_apply_qsvt_unitary_and_counts(rng):
    # the block is the dense circuit's top-left corner, bit for bit
    for n in APPLY_NS:
        op, be = _encoded_operator(rng, n)
        size = 2**n
        for poly in _circuit_polynomials() + [approximate_target(1, 3.0, 1e-3)]:
            phases = solve_phase_factors(poly)
            circ = apply_qsvt(be, phases)
            full = qsvt_circuit(be, phases)
            dim = full.shape[0]
            assert dim == 16 * size
            assert np.abs(full @ full.conj().T - np.eye(dim)).max() < 1e-10
            assert circ.matrix.shape == (size, size)
            assert circ.matrix.tobytes() == full[:size, :size].tobytes()
            assert circ.degree == poly.degree == phases.degree


def test_apply_qsvt_peak_memory_below_one_circuit(rng):
    n = 5
    op, be = _encoded_operator(rng, n)
    phases = solve_phase_factors(approximate_target(2, 4.0, 1e-4))
    tracemalloc.start()
    try:
        apply_qsvt(be, phases)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # one 2^(n+4)-square complex matrix: the dense circuit alone needs more
    assert peak < 16 * 4 ** (n + 4)


PREP_CASES = {2: dict(r=0.02, alpha=0.2), 3: dict(r=0.02, alpha=0.2),
              4: dict(r=0.02, alpha=0.2), 5: dict(r=0.01, alpha=0.1)}


def _market(n, t_tilde, dtau=1 / 4096):
    kw = PREP_CASES[n]
    return MarketParams(r=kw["r"], mu=0.0, alpha=kw["alpha"],
                        T=t_tilde * dtau, t_bar=0.0, dtau=dtau)


def test_prepare_value_state_zero_steps_is_normalized_payoff(unit_grid, call_spec):
    params = MarketParams(r=0.02, mu=0.0, alpha=0.2, T=0.5, t_bar=0.5, dtau=1 / 16)
    payoff = payoff_vector(call_spec, unit_grid)
    res = prepare_value_state(payoff, params, unit_grid, eps1=1e-3)
    expected = payoff / np.linalg.norm(payoff)
    assert np.abs(res.state - expected).max() < 1e-12
    assert res.target.degree == 0
    assert res.success_probability == pytest.approx(0.25, abs=1e-10)


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


def test_prepare_value_state_probability_floor(unit_grid, call_spec, monkeypatch):
    params = _market(4, 1)
    payoff = payoff_vector(call_spec, unit_grid)
    monkeypatch.setattr(qsvt, "SUCCESS_PROB_FLOOR", 0.9)
    with pytest.raises(NumericalError, match="floor"):
        prepare_value_state(payoff, params, unit_grid, eps1=1e-3)


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
    return [memo.cache_info().misses for memo in MEMOS]


def test_warm_stage1_equals_cold_bit_for_bit():
    grid = build_grid(0.0, 4.0, 4, "uniform")
    params = _market(4, 4)
    # two strikes share a fit; the tighter eps1 needs a higher degree, so
    # one operator carries two compiled blocks
    cases = [(0.95, 1e-3), (1.05, 1e-3), (1.0, 1e-4)]
    cold = {}
    for case in cases:
        for memo in MEMOS:
            memo.cache_clear()
        cold[case] = _stage1_bits(_call_state(params, grid, *case))
    assert len({bits[3] for bits in cold.values()}) == 2
    for case in cases:
        # the memo's block is the one the dense circuit of these phases has
        res = _call_state(params, grid, *case)
        payoff = payoff_vector(PayoffSpec("call", case[0]), grid)
        sub = _dense_post_selection(_dense_circuit(params, grid, res.phases), payoff)
        assert res.success_probability == float(np.linalg.norm(sub) ** 2)
    for case in cases:
        assert _stage1_bits(_call_state(params, grid, *case)) == cold[case]
    misses = _misses()
    # every memo now holds all three cases: this round is warm throughout
    for case in cases:
        assert _stage1_bits(_call_state(params, grid, *case)) == cold[case]
    assert _misses() == misses


def _stage1_operator_key(params, grid):
    return qsvt._operator_key(assemble_operator(params, grid).plus_identity().transpose())


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_value_block_applies_like_the_dense_circuit(n):
    grid = build_grid(0.0, 4.0, n, "uniform")
    params = _market(n, 4)
    res = _call_state(params, grid, 1.0)
    op_key = _stage1_operator_key(params, grid)
    block = qsvt._value_block(op_key, res.target.degree, res.target.coeffs.tobytes())
    matrix = _dense_circuit(params, grid, res.phases)
    size = 2**n
    assert block.tobytes() == matrix[:size, :size].tobytes()
    rng = np.random.default_rng(n)
    for _ in range(200):
        payoff = rng.normal(size=2**n)
        applied = block @ (payoff / np.linalg.norm(payoff)).astype(complex)
        assert applied.tobytes() == _dense_post_selection(matrix, payoff).tobytes()


def test_per_request_checks_fire_on_warm_cache(unit_grid, monkeypatch):
    params = _market(4, 4)
    res = _call_state(params, unit_grid, 1.0)
    misses = _misses()
    with monkeypatch.context() as patch:
        patch.setattr(qsvt, "SUCCESS_PROB_FLOOR", 0.9)
        with pytest.raises(NumericalError, match="floor"):
            _call_state(params, unit_grid, 1.0)
    # the ladder rung just below the accepted degree failed its fit, so a
    # cap there stops the walk on compiled entries alone
    t_tilde, norm = res.target.t_tilde, res.target.norm
    rungs = [max(1, int(0.25 * t_tilde * norm) | 1)]
    while rungs[-1] < res.target.degree:
        rungs.append(max(rungs[-1] + 2, int(rungs[-1] * 1.4) | 1))
    monkeypatch.setattr(qsvt, "DEGREE_CAP", rungs[-2])
    with pytest.raises(NumericalError, match="degree cap"):
        _call_state(params, unit_grid, 1.0)
    assert _misses() == misses


def test_compiled_stage1_arrays_are_read_only(unit_grid):
    params = _market(4, 4)
    res = _call_state(params, unit_grid, 1.0)
    op_key = _stage1_operator_key(params, unit_grid)
    block = qsvt._value_block(op_key, res.target.degree, res.target.coeffs.tobytes())
    # the memo keeps the 2^n block itself, and the prepared state carries it
    assert block.shape == (16, 16) and block.base is None
    assert res.block is block
    arrays = [res.target.coeffs, res.phases.phases, qsvt._encoding(op_key).U,
              block]
    for arr in arrays:
        with pytest.raises(ValueError, match="read-only"):
            arr[0] = 0.0


def test_stage1_caches_stay_within_maxsize(rng):
    assert qsvt._ladder_fits.cache_info().maxsize == qsvt.LADDER_CACHE
    extra = qsvt.PROGRAM_CACHE + 3
    for k in range(extra):
        # a distinct operator and a distinct degree-1 fit each time
        op = TridiagonalOperator(*random_tridiagonal(rng, 2), 2)
        coeffs = np.array([0.0, 0.5 + 0.01 * k])
        qsvt._value_block(qsvt._operator_key(op), 1, coeffs.tobytes())
    for cache in (qsvt._phase_factors, qsvt._encoding, qsvt._value_block):
        info = cache.cache_info()
        assert info.maxsize == qsvt.PROGRAM_CACHE
        assert info.misses == extra
        assert info.currsize == info.maxsize
