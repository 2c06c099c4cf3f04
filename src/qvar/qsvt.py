"""Singular-value transformation machinery for the backward-stepping stage.

The target function g(x) = (1/2) (x / norm)^(-T) is approximated on the
working window [1/norm, 1] by a definite-parity polynomial.  Because g
exceeds 1 on its own window for T >= 1 while signal processing demands
|P| <= 1 on [-1, 1], the fit realizes ``scale * g`` with the largest
feasible ``scale`` recorded on the result; the rescale cancels under state
normalization and only lowers the post-selection probability.  The fit is
a minimax linear program over odd Chebyshev coefficients with a global
amplitude cap, so the polynomial stays quiet in the spectral gap around
zero without any explicit parity surgery.  A cheap screen LP on every
SCREEN_STRIDE-th window and cap row comes first at each degree: dropping
constraints from a minimization can only lower its optimum, so a screen
that misses the acceptance threshold proves the full LP would miss it too.

Both LPs are solved by ``linprog``, one warm HiGHS model per rung through
SciPy's private binding ``scipy.optimize._highspy._core._Highs``.  The
full LP is never handed over whole: the model starts from the screen
rows, and each round adds up to ROW_BATCH of the grid rows it violates
most and re-solves from the previous basis, until no row outside the
model is violated by more than HiGHS's own primal feasibility tolerance.
A solution that is optimal on a subset of the rows and feasible on all
of them is optimal for the full LP; a subset that is infeasible makes
the full LP infeasible.  Every round adds a row the model does not hold,
so the loop ends without an iteration cap.

Phase factors are solved in the symmetric Wx convention by the standard
coefficient fixed-point iteration and converted to projector phases for
the alternating circuit.  The circuit applies the encoding unitary and its
adjoint d times, interleaved with e^{i phi (2 Pi - I)} reflections, and
uses one extra signal qubit to take the real part of the realized
polynomial, for a = 4 ancillas in total.  Stage 1 keeps only the branch
where every ancilla reads zero: the top-left 2^n block of U_Phi, which
equals the polynomial applied to the singular values,
sum_k P(sigma_k / gamma) |w_k><v_k|.  ``apply_qsvt`` computes that block
alone, carrying the first 2^n rows of the product through the d factors.

Only the input state depends on the payoff, so the circuit is compiled
once per stepping operator and horizon and kept in bounded in-process
memos (``functools.lru_cache``), each keyed on values, never on object
identity, and holding read-only arrays:

- the degree ladder's screen and full LP results, on (t_tilde, norm,
  degree, screen): neither eps nor the payoff enters an LP;
- the accepted fit's certificate (sup error on the window, |P| peak on
  [-1, 1], effective degree), on (t_tilde, norm, degree);
- the phase factors, on the fit (its degree and coefficient bytes);
- the block encoding, on the bytes of the encoded operator's bands, and
  the realized top-left 2^n block of U_Phi, on those bytes and the fit.
  No 2^(n+4)-square circuit matrix is ever built.

Every request still derives its fit tolerance from the payoff, walks the
degree ladder with the same screen and acceptance tests, checks the
accepted fit's certificate against its own eps and |P| <= 1 on [-1, 1],
applies the block to the payoff and checks the post-selection floor.  The
first request on a market and horizon does all the work it did before;
the results are the same bits cold or warm.

SciPy is bound lazily.  ``linprog`` loads the HiGHS extension from its
file on its first call (``highs_core``), so a cold fit never runs the
``scipy.optimize`` package and its 300-odd modules; a later ``import
scipy.optimize`` finds the same module.  Only a phase-solve fallback
imports ``scipy.optimize``, for ``least_squares``.
"""

from __future__ import annotations

import functools
import importlib.machinery
import importlib.util
import math
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from numpy.polynomial import chebyshev as np_cheb

from .blockenc import BlockEncoding, assemble_block_encoding
from .errors import ConfigError, NumericalError
from .market import MarketParams, PriceGrid
from .pde import TridiagonalOperator, assemble_operator
from .qcore import RegisterLayout, StateVector

DEGREE_CAP = 512
PHASE_ITER_CAP = 10_000
PHASE_RESIDUAL_TOL = 1e-8
GLOBAL_BOUND = 0.98  # amplitude cap used inside the fit; leaves QSP headroom
FIT_ACCEPT = 0.85  # a fit is accepted when its LP error is <= FIT_ACCEPT * eps
SCREEN_STRIDE = 8  # the screen LP keeps every 8th window and cap node
ROW_BATCH = 200  # most violated rows a row-generation round adds to the LP
# a screen rules a degree out only when its error exceeds the acceptance
# threshold times SCREEN_REL plus SCREEN_ABS: slack for HiGHS's 1e-7 tolerances
SCREEN_REL = 1.01
SCREEN_ABS = 1e-7
SUCCESS_PROB_FLOOR = 1e-6
LADDER_CACHE = 512  # LP results; one walk up to DEGREE_CAP stores fewer than 40
PROGRAM_CACHE = 16  # phase factors, encodings and realized blocks
HIGHS_CORE = "scipy.optimize._highspy._core"  # the binding linprog solves on


@functools.cache
def highs_core():
    """SciPy's HiGHS extension module: the one ``scipy.optimize`` loaded,
    or else its file, loaded and registered under its full name without
    running the ``scipy.optimize`` package."""
    if HIGHS_CORE in sys.modules:
        return sys.modules[HIGHS_CORE]
    import scipy
    folder = Path(scipy.__file__).parent / "optimize" / "_highspy"
    found = [folder / f"_core{suffix}"
             for suffix in importlib.machinery.EXTENSION_SUFFIXES
             if (folder / f"_core{suffix}").is_file()]
    if not found:
        raise ImportError(f"installed scipy {scipy.__version__} has no HiGHS "
                          f"extension _core in {folder}")
    spec = importlib.util.spec_from_file_location(HIGHS_CORE, found[0])
    module = importlib.util.module_from_spec(spec)
    sys.modules[HIGHS_CORE] = module
    spec.loader.exec_module(module)
    return module


def linprog(a_ub: np.ndarray, b_ub: np.ndarray, start: np.ndarray):
    """Minimize the last variable of x subject to ``a_ub @ x <= b_ub``, with
    the last variable non-negative and the others free, by row generation.

    One HiGHS model starts from the rows ``start`` (a boolean mask) and
    re-solves warm after each round adds up to ROW_BATCH of the rows it
    does not hold, most violated first.  It stops when none of those is
    violated by more than HiGHS's primal feasibility tolerance.  Returns x,
    or None when HiGHS finds the rows it holds infeasible.  SciPy's HiGHS
    extension is loaded on the first call.
    """
    core = highs_core()
    highs = core._Highs()
    highs.setOptionValue("output_flag", False)
    n_rows, n_cols = a_ub.shape
    lower = np.full(n_cols, -np.inf)
    lower[-1] = 0.0
    highs.addVars(n_cols, lower, np.full(n_cols, np.inf))
    highs.changeColsCost(1, np.array([n_cols - 1], dtype=np.int32), np.ones(1))
    tol = highs.getOptionValue("primal_feasibility_tolerance")[1]
    held = np.zeros(n_rows, dtype=bool)
    rows = np.flatnonzero(start)
    while True:
        held[rows] = True
        block = a_ub[rows]
        flat = np.flatnonzero(block)  # row-major: one sparse row after another
        starts = np.searchsorted(flat, np.arange(0, block.size, n_cols))
        highs.addRows(rows.size, np.full(rows.size, -np.inf), b_ub[rows],
                      flat.size, starts.astype(np.int32),
                      (flat % n_cols).astype(np.int32), block.flat[flat])
        highs.run()
        status = highs.getModelStatus()
        # the objective is bounded below by 0, so "unbounded or infeasible"
        # can only mean infeasible
        if status in (core.HighsModelStatus.kInfeasible,
                      core.HighsModelStatus.kUnboundedOrInfeasible):
            return None
        if status != core.HighsModelStatus.kOptimal:
            raise NumericalError(f"HiGHS stopped with status {status.name} on "
                                 f"{held.sum()} of {n_rows} rows")
        x = np.array(highs.getSolution().col_value)
        excess = a_ub @ x - b_ub
        excess[held] = 0.0
        rows = np.flatnonzero(excess > tol)
        if not rows.size:
            return x
        rows = rows[np.argsort(-excess[rows], kind="stable")[:ROW_BATCH]]


def least_squares(*args, **kwargs):
    """``scipy.optimize.least_squares``, imported on the first call."""
    from scipy.optimize import least_squares as solve
    return solve(*args, **kwargs)


def target_g(x, t_tilde: int, norm: float):
    """g(x) = (1/2) (x / norm)^(-t_tilde) for x > 0."""
    x = np.asarray(x, dtype=float)
    if np.any(x <= 0):
        raise ConfigError("target function requires x > 0")
    out = 0.5 * (x / norm) ** (-float(t_tilde))
    return out if out.ndim else float(out)


@dataclass(frozen=True)
class PolynomialTarget:
    """Definite-parity Chebyshev approximation of scale * g on the window.

    ``eps`` and ``sup_error`` are measured in absolute polynomial units
    against the rescaled target: sup |P(x) - scale * g(x)| over the window.
    The rescale keeps the realized target within QSP's amplitude bound; it
    cancels under state normalization and is recorded for provenance.
    """

    t_tilde: int
    norm: float
    eps: float
    coeffs: np.ndarray  # full Chebyshev coefficients, parity-pure
    degree: int
    scale: float
    window: tuple[float, float]
    sup_error: float

    def __post_init__(self):
        object.__setattr__(self, "coeffs", np.asarray(self.coeffs, dtype=float))
        self.coeffs.setflags(write=False)

    def evaluate(self, x):
        return np_cheb.chebval(np.asarray(x, dtype=float), self.coeffs)


def _minimax_rows(grid_w, y_w, grid_c, degree: int):
    """Rows ``a @ (c, t) <= b`` of the minimax LP over the odd Chebyshev
    coefficients c of a degree-``degree`` polynomial P and its error t:
    P - y_w <= t and y_w - P <= t on the window nodes, then P <= GLOBAL_BOUND
    and -P <= GLOBAL_BOUND on the cap nodes."""
    cols = np.arange(1, degree + 1, 2)
    vw = np_cheb.chebvander(grid_w, degree)[:, cols]
    vc = np_cheb.chebvander(grid_c, degree)[:, cols]
    t_w = np.ones((grid_w.size, 1))
    t_c = np.zeros((grid_c.size, 1))
    a_ub = np.block([[vw, -t_w], [-vw, -t_w], [vc, t_c], [-vc, t_c]])
    b_ub = np.concatenate([y_w, -y_w, np.full(2 * grid_c.size, GLOBAL_BOUND)])
    return a_ub, b_ub


def _cheb_nodes(lo: float, hi: float, count: int) -> np.ndarray:
    theta = (np.arange(count) + 0.5) * np.pi / count
    return 0.5 * (lo + hi) + 0.5 * (hi - lo) * np.cos(theta)


def _fit_scale(t_tilde: int, norm: float) -> float:
    """Rescale keeping scale * g within 0.45 on the window."""
    return min(1.0, 0.45 / target_g(1.0 / norm, t_tilde, norm))


@functools.lru_cache(maxsize=LADDER_CACHE)
def _ladder_fit(t_tilde: int, norm: float, degree: int, screen: bool):
    """One rung of the degree ladder: the full minimax LP, or its screen on
    every SCREEN_STRIDE-th window and cap row.  The full LP's row
    generation starts from the screen rows.

    Returns (read-only coeffs, achieved_error) or None when infeasible.
    The grids and the rescaled target are fixed by (t_tilde, norm, degree);
    eps only sets the acceptance threshold the caller applies.
    """
    lo, hi = 1.0 / norm, 1.0
    grid_w = _cheb_nodes(lo, hi, max(1200, 3 * degree))
    y_w = _fit_scale(t_tilde, norm) * target_g(grid_w, t_tilde, norm)
    # cap grid covers the gap below the window and the window itself;
    # dense enough that a degree-d polynomial cannot slip between nodes
    grid_c = np.concatenate([np.linspace(0.0, lo, max(400, 2 * degree)),
                             _cheb_nodes(lo, hi, max(400, 2 * degree))])
    a_ub, b_ub = _minimax_rows(grid_w, y_w, grid_c, degree)
    # the screen rows: every SCREEN_STRIDE-th node of each of the four blocks
    first = np.concatenate([np.arange(size) % SCREEN_STRIDE == 0 for size in
                            (grid_w.size, grid_w.size, grid_c.size, grid_c.size)])
    if screen:
        a_ub, b_ub, first = a_ub[first], b_ub[first], first[first]
    x = linprog(a_ub, b_ub, first)
    if x is None:
        return None
    coeffs = np.zeros(degree + 1)
    coeffs[1::2] = x[:-1]
    coeffs.setflags(write=False)
    return coeffs, float(x[-1])


@functools.lru_cache(maxsize=LADDER_CACHE)
def _fit_certificate(t_tilde: int, norm: float,
                     degree: int) -> tuple[float, float, int]:
    """The full LP fit's certificate at one rung of the ladder: its sup
    error against scale * g on 10,000 window points, its |P| peak on
    20,001 points of [-1, 1] and its effective degree.  Like the fit it
    depends on (t_tilde, norm, degree) alone; callers compare it with their
    own eps and with 1."""
    coeffs = _ladder_fit(t_tilde, norm, degree, False)[0]
    dense = np.linspace(1.0 / norm, 1.0, 10_000)
    sup_err = float(np.abs(np_cheb.chebval(dense, coeffs)
                           - _fit_scale(t_tilde, norm)
                           * target_g(dense, t_tilde, norm)).max())
    full = np.linspace(-1.0, 1.0, 20_001)
    peak = float(np.abs(np_cheb.chebval(full, coeffs)).max())
    nz = np.flatnonzero(np.abs(coeffs) > 1e-300)
    eff_degree = int(nz[-1]) if nz.size else degree
    return sup_err, peak, eff_degree


def approximate_target(t_tilde: int, norm: float, eps: float) -> PolynomialTarget:
    """Bounded-degree polynomial realizing scale * g on [1/norm, 1].

    ``eps`` bounds the rescaled comparison sup |P/scale - g|; the degree
    respects d <= C * t_tilde * norm * log(1/eps) with the constant C
    checked by the acceptance suite.

    Each degree first solves a screen LP with the full LP's columns and
    objective and every SCREEN_STRIDE-th row.  Its optimum is a lower bound
    on the full optimum, so a screen error above the acceptance threshold
    (plus solver slack) rules the degree out without the full LP.  The full
    LPs that do run see unchanged inputs, so the result is bit-identical to
    the unscreened walk's.  The LP results and the accepted fit's
    certificate are memoised; the walk, its acceptance tests and the
    checks of the certificate against eps and 1 run on every call.
    """
    if not 0 < eps <= 0.5:
        raise ConfigError(f"eps must lie in (0, 1/2], got {eps}")
    if norm < 1.0:
        raise ConfigError(f"norm must be >= 1, got {norm}")
    if t_tilde < 0:
        raise ConfigError(f"t_tilde must be non-negative, got {t_tilde}")

    lo, hi = 1.0 / norm, 1.0
    if t_tilde == 0:
        coeffs = np.array([0.5])
        return PolynomialTarget(t_tilde, norm, eps, coeffs, 0, 1.0, (lo, hi), 0.0)

    scale = _fit_scale(t_tilde, norm)
    accept = eps * FIT_ACCEPT

    def accepted_fit(degree: int):
        screen = _ladder_fit(t_tilde, norm, degree, True)
        if screen is not None and screen[1] > accept * SCREEN_REL + SCREEN_ABS:
            return None
        fit = _ladder_fit(t_tilde, norm, degree, False)
        return fit[0] if fit is not None and fit[1] <= accept else None

    degree = max(1, int(0.25 * t_tilde * norm) | 1)
    while (coeffs := accepted_fit(degree)) is None:
        if degree >= DEGREE_CAP:
            raise NumericalError(
                f"degree cap {DEGREE_CAP} exceeded for t_tilde={t_tilde}, "
                f"norm={norm:.4g}, eps={eps:.3g}")
        degree = min(DEGREE_CAP, max(degree + 2, int(degree * 1.4) | 1))

    sup_err, peak, eff_degree = _fit_certificate(t_tilde, norm, degree)
    if sup_err > eps:
        raise NumericalError(f"fit verification failed: sup error {sup_err:.3e}")
    if peak > 1.0:
        raise NumericalError(f"polynomial exceeds 1 on [-1, 1]: {peak:.6f}")
    return PolynomialTarget(t_tilde, norm, eps, coeffs, eff_degree,
                            scale, (lo, hi), sup_err)


@dataclass(frozen=True)
class PhaseFactorSequence:
    """Projector phases phi_1..phi_d for the alternating circuit.

    ``residual`` is the sup deviation of the realized scalar polynomial
    from the target at the test nodes.
    """

    phases: np.ndarray
    parity: int
    residual: float

    def __post_init__(self):
        object.__setattr__(self, "phases", np.asarray(self.phases, dtype=float))
        self.phases.setflags(write=False)

    @property
    def degree(self) -> int:
        # a lone phase with even parity is the degree-0 constant circuit
        if len(self.phases) == 1 and self.parity == 0:
            return 0
        return len(self.phases)


def _wx_eval(x: np.ndarray, phases: np.ndarray) -> np.ndarray:
    """Re <0| e^{i phi_0 Z} prod_k W(x) e^{i phi_k Z} |0> vectorized over x."""
    # right multiplication never mixes rows, so only the top row is carried
    i_s = 1j * np.sqrt(np.clip(1.0 - x * x, 0.0, None))
    m00 = np.full_like(x, np.exp(1j * phases[0]), dtype=complex)
    m01 = np.zeros_like(x, dtype=complex)
    for phi in phases[1:]:
        # right-multiply by W(x), then by e^{i phi Z}
        n00 = m00 * x + m01 * i_s
        n01 = m00 * i_s + m01 * x
        m00, m01 = n00 * np.exp(1j * phi), n01 * np.exp(-1j * phi)
    return m00.real


def qsp_reflection_eval(x, phases: np.ndarray, degree: int | None = None) -> np.ndarray:
    """Re of the (0,0) entry of prod_j e^{i phi_j Z} R(x) in the projector
    convention used by the alternating circuit (scalar twin of U_Phi).

    For the degree-0 circuit (one phase, no reflection) this is cos(phi).
    """
    x = np.atleast_1d(np.asarray(x, dtype=float))
    if degree == 0:
        return np.full_like(x, math.cos(phases[0]))
    s = np.sqrt(np.clip(1.0 - x * x, 0.0, None))
    # only the top row of the product is carried, as in _wx_eval
    m00 = np.ones_like(x, dtype=complex)
    m01 = np.zeros_like(x, dtype=complex)
    for phi in phases:
        # accumulated * e^{i phi Z} scales columns, then right-multiply R(x)
        a00, a01 = m00 * np.exp(1j * phi), m01 * np.exp(-1j * phi)
        m00 = a00 * x + a01 * s
        m01 = a00 * s - a01 * x
    return m00.real


def _cheb_coeffs_from_values(values: np.ndarray, count: int,
                             cos_table: np.ndarray) -> np.ndarray:
    coeffs = (2.0 / count) * (cos_table @ values)
    coeffs[0] *= 0.5
    return coeffs


def solve_phase_factors(poly: PolynomialTarget) -> PhaseFactorSequence:
    """Phase factors reproducing the polynomial on scalar inputs.

    Runs the symmetric-phase coefficient fixed-point iteration with a
    least-squares fallback, then converts to projector phases.  Fails with
    the residual report if neither reaches the tolerance within the caps.
    The solve is memoised on the polynomial's degree and coefficient bytes,
    the only parts of it the solve reads.
    """
    return _phase_factors(poly.degree, poly.coeffs.tobytes())


@functools.lru_cache(maxsize=PROGRAM_CACHE)
def _phase_factors(degree: int, coeffs_key: bytes) -> PhaseFactorSequence:
    coeffs = np.frombuffer(coeffs_key)
    if degree == 0:
        c = float(coeffs[0])
        if abs(c) > 1.0:
            raise ConfigError("constant target must have magnitude <= 1")
        phases = np.array([math.acos(c)])
        return PhaseFactorSequence(phases, 0, 0.0)

    count = degree + 1
    theta = (np.arange(count) + 0.5) * np.pi / count
    nodes = np.cos(theta)
    target_vals = np_cheb.chebval(nodes, coeffs)
    # descending order pairs the outermost phases with the leading
    # coefficients, making the coefficient-map Jacobian -2 I at the init
    ridx = np.arange(degree % 2, degree + 1, 2)[::-1]
    cos_table = np.cos(np.outer(np.arange(count), theta))
    target_red = _cheb_coeffs_from_values(target_vals, count, cos_table)[ridx]

    half = len(ridx)

    def full_from_reduced(z):
        # symmetric phases: mirror the leading half onto the trailing half
        full = np.zeros(degree + 1)
        full[:half] = z
        full[degree + 1 - half:] = z[::-1]
        return full

    def value_residual(z):
        return _wx_eval(nodes, full_from_reduced(z)) - target_vals

    def run_fixed_point(step_sign: float):
        # one evaluation per iterate feeds both its residual and the next step
        z = np.zeros(half)
        z[0] = np.pi / 4
        vals = _wx_eval(nodes, full_from_reduced(z))
        best, best_res = z.copy(), np.abs(vals - target_vals).max()
        for it in range(PHASE_ITER_CAP):
            coeffs = _cheb_coeffs_from_values(vals, count, cos_table)[ridx]
            z = z + step_sign * 0.5 * (coeffs - target_red)
            vals = _wx_eval(nodes, full_from_reduced(z))
            res = np.abs(vals - target_vals).max()
            if not np.isfinite(res):
                break
            if res < best_res:
                best, best_res = z.copy(), res
            if res <= PHASE_RESIDUAL_TOL * 0.1:
                break
            if it > 60 and res > 10 * best_res:
                break  # diverging, stop wasting iterations
        return best, best_res

    z, res = run_fixed_point(+1.0)
    if res > PHASE_RESIDUAL_TOL * 0.1:
        z_alt, res_alt = run_fixed_point(-1.0)
        if res_alt < res:
            z, res = z_alt, res_alt
    if res > PHASE_RESIDUAL_TOL * 0.1:
        sol = least_squares(value_residual, z, xtol=1e-15, ftol=1e-15, gtol=1e-15)
        res_ls = np.abs(value_residual(sol.x)).max()
        if res_ls < res:
            z, res = sol.x, res_ls
        if res > PHASE_RESIDUAL_TOL:
            raise NumericalError(
                f"phase-factor solver did not converge: residual {res:.3e} "
                f"after fixed-point and least-squares fallback")
    wx = full_from_reduced(z)

    # Wx -> projector-phase conversion (derived once, verified numerically):
    # phi'_1 = phi_0 + phi_d - pi/2 + d pi/2, phi'_k = phi_{k-1} - pi/2.
    proj = np.zeros(degree)
    proj[0] = wx[0] + wx[degree] - np.pi / 2 + degree * np.pi / 2
    proj[1:] = wx[1:degree] - np.pi / 2

    check_nodes = np.cos((np.arange(64) + 0.5) * np.pi / 64)
    realized = qsp_reflection_eval(check_nodes, proj, degree)
    residual = float(np.abs(realized - np_cheb.chebval(check_nodes, coeffs)).max())
    if residual > PHASE_RESIDUAL_TOL:
        raise NumericalError(f"projector-phase conversion check failed: {residual:.3e}")
    return PhaseFactorSequence(proj, degree % 2, residual)


@dataclass(frozen=True)
class QsvtUnitary:
    """The post-selected block of the alternating circuit U_Phi.

    ``matrix`` is the read-only top-left 2^n block, the branch where all
    a = 4 ancillas (real-part signal qubit, encoding flag, branch pair)
    read zero: sum_k P(sigma_k / gamma) |w_k><v_k| of the encoded matrix.
    ``degree`` counts the encoding queries.
    """

    matrix: np.ndarray
    degree: int


def apply_qsvt(be: BlockEncoding, phases: PhaseFactorSequence) -> QsvtUnitary:
    """The top-left 2^n block of U_Phi for the encoding and the phases.

    Right multiplication never mixes rows, so only the first 2^n rows of
    the alternating product are carried through the d factors.  The
    real-part signal qubit averages the circuit with its phase-negated
    twin, which is its complex conjugate because the encoding unitary is
    real.
    """
    size = 2**be.n
    dim = be.U.shape[0]
    if be.a != 3:
        raise ConfigError("expected a 3-ancilla block encoding")

    # diag(e^{i phi (2 Pi - I)}) on the encoding space: +phi where both
    # encoding ancillas read zero (indices < 2^n), -phi elsewhere
    signs = np.full(dim, -1.0)
    signs[:size] = 1.0
    if phases.degree == 0:
        # degree 0: a single reflection phase, no encoding queries
        plus = np.diag(np.exp(1j * phases.phases[0] * signs)[:size])
    else:
        m = np.eye(size, dim, dtype=complex)
        for k, phi in enumerate(phases.phases):
            m = m * np.exp(1j * phi * signs)[None, :]  # M @ diag
            m = m @ (be.U if k % 2 == 0 else be.U.T.conj())
        plus = m[:, :size]
    block = 0.5 * (plus + plus.conj())
    block.setflags(write=False)
    return QsvtUnitary(matrix=block, degree=phases.degree)


def svd_transform_oracle(dense: np.ndarray, poly: PolynomialTarget,
                         gamma: float) -> np.ndarray:
    """Dense-SVD reference: sum_k P(sigma_k / gamma) |w_k><v_k|."""
    w, sig, vt = np.linalg.svd(dense)
    return (w * poly.evaluate(sig / gamma)) @ vt


def _operator_key(op: TridiagonalOperator) -> tuple:
    """The values an encoding of ``op`` reads: its width and band bytes."""
    return (op.n, op.sub.tobytes(), op.diag.tobytes(), op.super_.tobytes())


@functools.lru_cache(maxsize=PROGRAM_CACHE)
def _encoding(op_key: tuple) -> BlockEncoding:
    """Certified block encoding of the operator with these bands."""
    n, *bands = op_key
    be = assemble_block_encoding(
        TridiagonalOperator(*(np.frombuffer(b) for b in bands), n))
    be.U.setflags(write=False)
    return be


@functools.lru_cache(maxsize=PROGRAM_CACHE)
def _value_block(op_key: tuple, degree: int, coeffs_key: bytes) -> np.ndarray:
    """Read-only top-left 2^n block of U_Phi for the encoded operator and
    the fit: the map from payoff amplitudes to the post-selected branch."""
    return apply_qsvt(_encoding(op_key), _phase_factors(degree, coeffs_key)).matrix


@dataclass(frozen=True)
class PreparedValueState:
    """Post-selected output of the backward-stepping stage, with the
    memoised read-only block of U_Phi that produced it."""

    state: StateVector
    success_probability: float
    target: PolynomialTarget
    phases: PhaseFactorSequence
    gamma: float
    block: np.ndarray


def prepare_value_state(payoff: np.ndarray, params: MarketParams, grid: PriceGrid,
                        eps1: float) -> PreparedValueState:
    """Prepare the normalized t_bar value state by QSVT post-selection.

    The encoding carries the transpose of the stepping matrix so the
    singular-value action lands on M^(-1)'s vector orientation; the target
    polynomial then realizes the T-step backward power up to the recorded
    rescale, which cancels under normalization.
    """
    payoff = np.asarray(payoff, dtype=float)
    norm_payoff = np.linalg.norm(payoff)
    if norm_payoff == 0:
        raise NumericalError("payoff vector has zero norm")
    t_tilde = params.pricing_steps

    mtilde = assemble_operator(params, grid).plus_identity()
    dense = mtilde.to_dense()
    op_key = _operator_key(mtilde.transpose())
    be = _encoding(op_key)
    gamma = be.gamma

    # sigma_min comes from its own values-only SVD, not from the full SVD
    # below: the two can differ in the last bits, which would move norm_param
    # and with it the fit
    sig = np.linalg.svd(dense, compute_uv=False)
    sigma_min = float(sig.min())
    if sigma_min <= 0:
        raise NumericalError("stepping matrix is singular")
    norm_param = max(1.0 + 1e-12, gamma / sigma_min)

    if t_tilde == 0:
        poly = approximate_target(0, norm_param, min(0.5, eps1))
    else:
        # allocate most of eps1 to the polynomial fit (the phase residual is
        # held near 1e-8); the fit tolerance is absolute in polynomial units
        scale = _fit_scale(t_tilde, norm_param)
        w, s, vt = np.linalg.svd(dense)
        # predicted post-selected vector under the exact scaled target
        f_vals = scale * target_g(s / gamma, t_tilde, norm_param)
        y_pred = (vt.T * f_vals) @ (w.T @ (payoff / norm_payoff))
        y_norm = float(np.linalg.norm(y_pred))
        if y_norm <= 0:
            raise NumericalError("target action annihilates the payoff state")
        eps_fit = min(0.49, max(1e-13, 0.25 * eps1 * y_norm))
        poly = approximate_target(t_tilde, norm_param, eps_fit)

    phases = solve_phase_factors(poly)
    # the post-selected branch of U_Phi |0>|payoff>: its zero ancilla
    # columns contribute nothing, so only the top-left block is applied
    block = _value_block(op_key, poly.degree, poly.coeffs.tobytes())
    sub = block @ (payoff / norm_payoff).astype(complex)
    prob = float(np.linalg.norm(sub) ** 2)
    if prob < SUCCESS_PROB_FLOOR:
        raise NumericalError(
            f"post-selection probability {prob:.3e} below floor "
            f"{SUCCESS_PROB_FLOOR:.1e}; degree={poly.degree}, scale={poly.scale:.3e}")
    vec = sub / np.linalg.norm(sub)
    if vec.real.sum() < 0:
        vec = -vec
    layout = RegisterLayout([("grid", be.n)])
    state = StateVector(vec, layout)
    return PreparedValueState(state=state, success_probability=prob, target=poly,
                              phases=phases, gamma=gamma, block=block)
