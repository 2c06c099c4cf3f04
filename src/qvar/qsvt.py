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

Each rung is one LP on one warm HiGHS model, solved by ``linprog``
through SciPy's private binding ``scipy.optimize._highspy._core._Highs``.
The screen is its first round.  When the screen lets the rung through,
the full LP goes on in the same model rather than solving the screen
again: each round adds up to ROW_BATCH of the grid rows it violates most
and re-solves from the previous basis, until no row outside the model is
violated by more than HiGHS's own primal feasibility tolerance.  A
solution that is optimal on a subset of the rows and feasible on all of
them is optimal for the full LP; a subset that is infeasible makes the
full LP infeasible.  Every round adds a row the model does not hold, so
the loop ends without an iteration cap.  No matrix of all the rows by
the columns is built: ``MinimaxLP`` keeps the odd Chebyshev columns once
per distinct node and builds from them the rows a round adds and, in
ROW_CHUNK-row chunks, every row's violation.

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
  degree): neither eps nor the payoff enters an LP.  The LP and its HiGHS
  model are not kept: they end with the walk that built them;
- the accepted fit's certificate (sup error on the window, |P| peak on
  [-1, 1], effective degree), on (t_tilde, norm, degree);
- the phase factors, on the fit (its degree and coefficient bytes);
- the block encoding, on the bytes of the encoded operator's bands, and
  the realized top-left 2^n block of U_Phi, on those bytes and the fit.
  No 2^(n+4)-square circuit matrix is ever built;
- the stepping matrix's least singular value and its full SVD, each from
  its own dense SVD, on the same bytes, so a new payoff on a known
  operator runs no SVD.

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

DEGREE_CAP = 512
PHASE_ITER_CAP = 10_000
PHASE_RESIDUAL_TOL = 1e-8
GLOBAL_BOUND = 0.98  # amplitude cap used inside the fit; leaves QSP headroom
FIT_ACCEPT = 0.85  # a fit is accepted when its LP error is <= FIT_ACCEPT * eps
SCREEN_STRIDE = 8  # the screen LP keeps every 8th window and cap node
ROW_BATCH = 200  # most violated rows a row-generation round adds to the LP
ROW_CHUNK = 512  # LP rows built at a time to find the violated ones
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


def linprog(lp: MinimaxLP, full: bool):
    """Minimize the error t of ``lp`` over its rows by row generation on
    the rung's one HiGHS model, with t non-negative and the coefficients
    free.

    The first call builds the model on the screen rows and solves it: the
    screen LP, where a call without ``full`` stops.  With ``full`` each
    round then adds up to ROW_BATCH of the rows the model does not hold,
    most violated first, and re-solves warm, until none of them is
    violated by more than HiGHS's primal feasibility tolerance.  A call
    with ``full`` after the screen goes on in the screen's model, so the
    full LP does not solve the screen again.  Returns x = (c, t), or None
    when HiGHS finds the rows it holds infeasible.  SciPy's HiGHS
    extension is loaded on the first call.
    """
    core = highs_core()
    if lp.highs is None:
        lp.highs = core._Highs()
        lp.highs.setOptionValue("output_flag", False)
        n_cols = lp.vander.shape[1] + 1
        lower = np.full(n_cols, -np.inf)
        lower[-1] = 0.0
        lp.highs.addVars(n_cols, lower, np.full(n_cols, np.inf))
        lp.highs.changeColsCost(1, np.array([n_cols - 1], dtype=np.int32),
                                np.ones(1))
    tol = lp.highs.getOptionValue("primal_feasibility_tolerance")[1]
    rows = lp.screen if lp.x is None else lp.most_violated(tol)
    while rows.size:
        lp.held[rows] = True
        starts, index, value = lp.sparse_rows(rows)
        lp.highs.addRows(rows.size, np.full(rows.size, -np.inf),
                         lp.bound[rows], value.size, starts, index, value)
        lp.highs.run()
        status = lp.highs.getModelStatus()
        # the objective is bounded below by 0, so "unbounded or infeasible"
        # can only mean infeasible
        if status in (core.HighsModelStatus.kInfeasible,
                      core.HighsModelStatus.kUnboundedOrInfeasible):
            lp.x = None
            return None
        if status != core.HighsModelStatus.kOptimal:
            raise NumericalError(f"HiGHS stopped with status {status.name} on "
                                 f"{lp.held.sum()} of {lp.held.size} rows")
        lp.x = np.array(lp.highs.getSolution().col_value)
        if not full:
            break
        rows = lp.most_violated(tol)
    return lp.x


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


def _cheb_nodes(lo: float, hi: float, count: int) -> np.ndarray:
    theta = (np.arange(count) + 0.5) * np.pi / count
    return 0.5 * (lo + hi) + 0.5 * (hi - lo) * np.cos(theta)


def _fit_scale(t_tilde: int, norm: float) -> float:
    """Rescale keeping scale * g within 0.45 on the window."""
    return min(1.0, 0.45 / target_g(1.0 / norm, t_tilde, norm))


def _odd_chebvander(x: np.ndarray, degree: int) -> np.ndarray:
    """Columns T_1, T_3, ..., T_degree of ``chebvander(x, degree)``, bit
    for bit: the same recurrence T_i = T_(i-1) * 2x - T_(i-2), storing
    only the odd columns."""
    x = x + 0.0
    out = np.empty((x.size, (degree + 1) // 2))
    out[:, 0] = x
    x2 = 2 * x
    prev, cur = np.ones_like(x), x
    for i in range(2, degree + 1):
        prev, cur = cur, cur * x2 - prev
        if i % 2:
            out[:, i // 2] = cur
    return out


class MinimaxLP:
    """The minimax LP of one ladder rung, ``a_ub @ x <= b_ub`` over
    x = (c, t), the odd Chebyshev coefficients c of a degree-``degree``
    polynomial P and its error t: P - y_w <= t and y_w - P <= t on the
    window nodes, then P <= GLOBAL_BOUND and -P <= GLOBAL_BOUND on the cap
    nodes, in that row order.  The window and cap grids and the rescaled
    target y_w are fixed by (t_tilde, norm, degree).

    No matrix of rows by columns is held.  ``vander`` holds the odd
    Chebyshev columns once per distinct node, and ``rows`` builds any rows
    of a_ub from it.  ``excess`` forms a_ub @ x - b_ub in ROW_CHUNK-row
    chunks that start at multiples of ROW_CHUNK, so BLAS groups the rows
    as it does in one product over the whole a_ub on one thread, and the
    bits are that product's.  ``highs``, ``held`` and ``x`` are the state
    of the HiGHS model ``linprog`` solves the rung on; the LP and its model
    live only as long as the degree walk that built them.
    """

    def __init__(self, t_tilde: int, norm: float, degree: int):
        self.t_tilde, self.norm, self.degree = t_tilde, norm, degree
        lo, hi = 1.0 / norm, 1.0
        grid_w = _cheb_nodes(lo, hi, max(1200, 3 * degree))
        y_w = _fit_scale(t_tilde, norm) * target_g(grid_w, t_tilde, norm)
        # cap grid covers the gap below the window and the window itself;
        # dense enough that a degree-d polynomial cannot slip between nodes
        grid_c = np.concatenate([np.linspace(0.0, lo, max(400, 2 * degree)),
                                 _cheb_nodes(lo, hi, max(400, 2 * degree))])
        n_w, n_c = grid_w.size, grid_c.size
        self.n_window = n_w
        self.vander = _odd_chebvander(np.concatenate([grid_w, grid_c]), degree)
        # each row's node and sign in the four blocks (+-P on the window,
        # +-P on the cap), and its bound b_ub
        self.node = np.concatenate([np.arange(n_w), np.arange(n_w),
                                    np.arange(n_w, n_w + n_c),
                                    np.arange(n_w, n_w + n_c)])
        self.sign = np.repeat([1.0, -1.0, 1.0, -1.0], [n_w, n_w, n_c, n_c])
        self.bound = np.concatenate([y_w, -y_w,
                                     np.full(2 * n_c, GLOBAL_BOUND)])
        # the screen rows: every SCREEN_STRIDE-th node of each block
        self.screen = np.concatenate([
            start + np.arange(0, size, SCREEN_STRIDE) for start, size in
            ((0, n_w), (n_w, n_w), (2 * n_w, n_c), (2 * n_w + n_c, n_c))])
        self.highs = None
        self.held = np.zeros(self.bound.size, dtype=bool)
        self.x = None

    def rows(self, index: np.ndarray) -> np.ndarray:
        """Rows ``index`` of a_ub, dense: sign * T_odd(node), then the
        error's coefficient, -1 on the window and 0 on the cap."""
        node = self.node[index]
        out = np.empty((index.size, self.vander.shape[1] + 1))
        # "clip" writes straight into the strided out; "raise" would buffer
        np.take(self.vander, node, axis=0, out=out[:, :-1], mode="clip")
        out[:, :-1] *= self.sign[index, None]
        out[:, -1] = np.where(node < self.n_window, -1.0, 0.0)
        return out

    def sparse_rows(self, index: np.ndarray):
        """Rows ``index`` of a_ub in the compressed form HiGHS takes: each
        row's first entry, then the column and the value of every nonzero
        entry, row after row."""
        block = self.rows(index)
        nonzero = block != 0
        starts = np.zeros(index.size, dtype=np.int32)
        np.cumsum(nonzero.sum(axis=1)[:-1], out=starts[1:])
        columns = np.broadcast_to(np.arange(block.shape[1], dtype=np.int32),
                                  block.shape)
        return starts, columns[nonzero], block[nonzero]

    def excess(self, x: np.ndarray) -> np.ndarray:
        """a_ub @ x - b_ub, ROW_CHUNK rows at a time."""
        out = np.empty(self.bound.size)
        for lo in range(0, out.size, ROW_CHUNK):
            hi = min(lo + ROW_CHUNK, out.size)
            out[lo:hi] = self.rows(np.arange(lo, hi)) @ x - self.bound[lo:hi]
        return out

    def most_violated(self, tol: float) -> np.ndarray:
        """Up to ROW_BATCH of the rows outside the model that the model's
        solution violates by more than ``tol``, most violated first."""
        excess = self.excess(self.x)
        excess[self.held] = 0.0
        rows = np.flatnonzero(excess > tol)
        return rows[np.argsort(-excess[rows], kind="stable")[:ROW_BATCH]]


@functools.lru_cache(maxsize=LADDER_CACHE)
def _ladder_fits(t_tilde: int, norm: float, degree: int) -> dict:
    """The memo of one rung of the degree ladder: its LP results under
    "screen" and "full", each (read-only coeffs, achieved_error) or None
    when infeasible, filled by ``approximate_target`` as its walk needs
    them.  The LP is fixed by (t_tilde, norm, degree); eps only sets the
    acceptance threshold the caller applies."""
    return {}


def _coeffs_and_error(x: np.ndarray | None, degree: int):
    """The fit (read-only full Chebyshev coeffs, error) of an LP solution."""
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
    coeffs = _ladder_fits(t_tilde, norm, degree)["full"][0]
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
    (plus solver slack) rules the degree out without the full LP.  A full
    LP that does run goes on in the screen's HiGHS model, whose first
    round the screen was.  The LP results and the accepted fit's
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
        fits = _ladder_fits(t_tilde, norm, degree)
        lp = None  # the rung's LP and HiGHS model, built on its first miss

        def solved(kind: str):
            nonlocal lp
            if kind not in fits:
                lp = lp or MinimaxLP(t_tilde, norm, degree)
                fits[kind] = _coeffs_and_error(
                    linprog(lp, full=kind == "full"), degree)
            return fits[kind]

        # an infeasible screen makes the full LP, a superset, infeasible
        screen = solved("screen")
        if screen is None or screen[1] > accept * SCREEN_REL + SCREEN_ABS:
            return None
        fit = solved("full")
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

    Runs the symmetric-phase coefficient fixed-point iteration, one pass of
    at most PHASE_ITER_CAP steps, with a least-squares fallback from its
    best iterate, then converts to projector phases.  Fails with
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

    # coefficient fixed point; one evaluation per iterate feeds both its
    # residual and the next step
    z = np.zeros(half)
    z[0] = np.pi / 4
    vals = _wx_eval(nodes, full_from_reduced(z))
    best, best_res = z.copy(), np.abs(vals - target_vals).max()
    for it in range(PHASE_ITER_CAP):
        realized_red = _cheb_coeffs_from_values(vals, count, cos_table)[ridx]
        z = z + 0.5 * (realized_red - target_red)
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
    z, res = best, best_res
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


def _stepping_matrix(op_key: tuple) -> np.ndarray:
    """The dense stepping matrix I + M whose transpose has these bands."""
    n, *bands = op_key
    return TridiagonalOperator(*(np.frombuffer(b) for b in bands),
                               n).transpose().to_dense()


@functools.lru_cache(maxsize=PROGRAM_CACHE)
def _sigma_min(op_key: tuple) -> float:
    """The least singular value of the stepping matrix, from its own
    values-only SVD and not from the full SVD of ``_stepping_svd``: the two
    can differ in the last bits, which would move the fit's norm and with
    it the fit."""
    return float(np.linalg.svd(_stepping_matrix(op_key), compute_uv=False).min())


@functools.lru_cache(maxsize=PROGRAM_CACHE)
def _stepping_svd(op_key: tuple) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The full SVD (w, s, vt) of the stepping matrix, read-only."""
    factors = np.linalg.svd(_stepping_matrix(op_key))
    for factor in factors:
        factor.setflags(write=False)
    return tuple(factors)


@functools.lru_cache(maxsize=PROGRAM_CACHE)
def _value_block(op_key: tuple, degree: int, coeffs_key: bytes) -> np.ndarray:
    """Read-only top-left 2^n block of U_Phi for the encoded operator and
    the fit: the map from payoff amplitudes to the post-selected branch."""
    return apply_qsvt(_encoding(op_key), _phase_factors(degree, coeffs_key)).matrix


@dataclass(frozen=True)
class PreparedValueState:
    """Post-selected output of the backward-stepping stage: ``state`` is
    the normalized read-only complex vector of the 2^n grid amplitudes,
    with the memoised read-only block of U_Phi that produced it."""

    state: np.ndarray
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

    op_key = _operator_key(assemble_operator(params, grid).plus_identity()
                           .transpose())
    be = _encoding(op_key)
    gamma = be.gamma

    sigma_min = _sigma_min(op_key)
    if sigma_min <= 0:
        raise NumericalError("stepping matrix is singular")
    norm_param = max(1.0 + 1e-12, gamma / sigma_min)

    if t_tilde == 0:
        poly = approximate_target(0, norm_param, min(0.5, eps1))
    else:
        # allocate most of eps1 to the polynomial fit (the phase residual is
        # held near 1e-8); the fit tolerance is absolute in polynomial units
        scale = _fit_scale(t_tilde, norm_param)
        w, s, vt = _stepping_svd(op_key)
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
    vec.setflags(write=False)
    return PreparedValueState(state=vec, success_probability=prob, target=poly,
                              phases=phases, gamma=gamma, block=block)
