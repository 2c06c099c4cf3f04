"""Singular-value transformation machinery for the backward-stepping stage.

Stage 1 prepares the T-step backward solution (I + M)^(-T) payoff by time
marching (Fang, Lin and Tong, arXiv 2208.06941): one circuit realizes a
single implicit step, and its post-selected block is applied T times.  The
encoding carries the transpose of the stepping matrix I + M, whose
singular-value transform under x^(-1) is exactly (I + M)^(-1) for any
matrix, normal or not.  So the one-step target g(x) = (1/2) (x / norm)^(-1)
is approximated on the working window [1/norm, 1] by an odd polynomial.
Because g exceeds 1 on its own window while signal processing demands
|P| <= 1 on [-1, 1], the fit realizes ``scale * g`` with the largest
feasible ``scale`` recorded on the result; the rescale cancels under state
normalization and only lowers the post-selection probability.  The fit is
a minimax linear program over odd Chebyshev coefficients with a global
amplitude cap, so the polynomial stays quiet in the spectral gap around
zero without any explicit parity surgery.

Each rung of the degree walk is one dense LP, solved whole by ``linprog``
(``qvar.lp``).  The tight block encoding keeps the norm near 1 on the
README market, so production rungs are degree 3 to 13 at n <= 8 and 71 at
n = 10, a few MB of rows at most.

Phase factors are solved in the symmetric Wx convention by Gauss-Newton
(``least_squares``) and converted to projector phases for the
alternating circuit.  The circuit applies the encoding unitary and its
adjoint d times, interleaved with e^{i phi (2 Pi - I)} reflections, and
uses one extra signal qubit to take the real part of the realized
polynomial, for a = 4 ancillas in total.  A step keeps only the branch
where every ancilla reads zero: the top-left 2^n block of U_Phi, which
equals the polynomial applied to the singular values,
sum_k P(sigma_k / gamma) |w_k><v_k|.  ``apply_qsvt`` applies that block to
real columns, carrying each column alone through the d queries.  Each
query applies the encoding as its factors (``BlockEncoding``): one 8 x 8
reflection per index, a shift of each branch and another reflection,
O(64 2^n) per column, so no 2^(n+3)-square encoding unitary is built and
no 2^n-square block either, unless the columns are the identity, as
``verify-qsvt`` passes to check the block against the dense SVD.

``prepare_value_state`` marches: it carries the normalized state through
the circuit T times, renormalizing after each step.  A step's post-selection
succeeds with p = sin^2 theta, about 0.2 under the rescale's 0.45 cap, so
each step takes one round of amplitude amplification, which lifts it to
sin^2(3 theta), about 0.97, and leaves the post-selected state unchanged.
SUCCESS_PROB_FLOOR applies to every step, and the least step is the
reported ``success_probability``.  A step runs its circuit three times, so
the march costs 3 T d encoding queries.  The fit tolerance is eps1 / T of
the first step's output norm, one tridiagonal solve, so the T steps'
errors add up to at most eps1.

The one-step circuit depends on the stepping operator alone, so it is
compiled once per operator and kept in bounded in-process memos
(``functools.lru_cache``), keyed on values and holding read-only arrays:

- the degree ladder's LP results, on (norm, degree), so every horizon on
  a market walks the same rungs;
- the accepted fit's certificate (sup error on the window, |P| peak on
  [-1, 1], effective degree), on (norm, degree);
- the phase factors, on the fit's degree and coefficient bytes;
- the block encoding with the stepping matrix's least singular value, one
  entry on the bytes of the encoded operator's bands.

Every request still walks the ladder with its own tolerance, checks the
accepted fit's certificate against its eps and |P| <= 1 on [-1, 1],
marches its payoff through the circuit and checks the floor; the results
are the same bits cold or warm.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .blockenc import BRANCHES, BlockEncoding, assemble_block_encoding
from .errors import ConfigError, NumericalError
from .lp import linprog
from .market import MarketParams, PriceGrid
from .pde import TridiagonalOperator, _thomas_solve, assemble_operator

DEGREE_CAP = 512
PHASE_ITER_CAP = 64
PHASE_RESIDUAL_TOL = 1e-8
GLOBAL_BOUND = 0.98  # amplitude cap used inside the fit; leaves QSP headroom
FIT_ACCEPT = 0.85  # a fit is accepted when its LP error is <= FIT_ACCEPT * eps
SUCCESS_PROB_FLOOR = 1e-6  # least amplified post-selection probability of a step
# circuit runs per marching step: the step's circuit, then one round of
# amplitude amplification, which runs its inverse and the circuit again
RUNS_PER_STEP = 3
LADDER_CACHE = 512  # LP results; one walk up to DEGREE_CAP stores fewer than 40
PROGRAM_CACHE = 16  # phase factors, encodings and the pipeline's books
CERT_SLICE = 2048  # certificate points evaluated at a time


def target_g(x, norm: float):
    """The one-step target g(x) = (1/2) (x / norm)^(-1) for x > 0."""
    x = np.asarray(x, dtype=float)
    if np.any(x <= 0):
        raise ConfigError("target function requires x > 0")
    out = 0.5 * (x / norm) ** -1.0
    return out if out.ndim else float(out)


@dataclass(frozen=True)
class PolynomialTarget:
    """Definite-parity Chebyshev approximation of scale * g on the window.

    ``eps`` and ``sup_error`` are measured in absolute polynomial units
    against the rescaled target: sup |P(x) - scale * g(x)| over the window.
    The rescale keeps the realized target within QSP's amplitude bound; it
    cancels under state normalization and is recorded for provenance.
    """

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
        return _chebval(np.asarray(x, dtype=float), self.coeffs)


def _chebval(x, coeffs):
    """The Chebyshev series with 1-D ``coeffs`` at x: NumPy's ``chebval``
    Clenshaw recurrence, the same operations in the same order, so the
    same bits, without importing ``numpy.polynomial``."""
    if len(coeffs) == 1:
        c0, c1 = coeffs[0], 0
    elif len(coeffs) == 2:
        c0, c1 = coeffs[0], coeffs[1]
    else:
        x2 = 2 * x
        c0, c1 = coeffs[-2], coeffs[-1]
        for i in range(3, len(coeffs) + 1):
            c0, c1 = coeffs[-i] - c1, c0 + c1 * x2
    return c0 + c1 * x


def _cheb_nodes(lo: float, hi: float, count: int) -> np.ndarray:
    theta = (np.arange(count) + 0.5) * np.pi / count
    return 0.5 * (lo + hi) + 0.5 * (hi - lo) * np.cos(theta)


def _fit_scale(norm: float) -> float:
    """Rescale keeping scale * g within 0.45 on the window."""
    return min(1.0, 0.45 / target_g(1.0 / norm, norm))


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


def _minimax_lp(norm: float, degree: int):
    """The minimax LP of one ladder rung as dense ``a_ub @ x <= b_ub`` over
    x = (c, t), the odd Chebyshev coefficients c of a degree-``degree``
    polynomial P and its error t: P - y_w <= t and y_w - P <= t on the
    window nodes, then P <= GLOBAL_BOUND and -P <= GLOBAL_BOUND on the cap
    nodes, in that row order.  The window and cap grids and the rescaled
    target y_w are fixed by (norm, degree)."""
    lo, hi = 1.0 / norm, 1.0
    grid_w = _cheb_nodes(lo, hi, max(1200, 3 * degree))
    y_w = _fit_scale(norm) * target_g(grid_w, norm)
    # cap grid covers the gap below the window and the window itself;
    # dense enough that a degree-d polynomial cannot slip between nodes
    grid_c = np.concatenate([np.linspace(0.0, lo, max(400, 2 * degree)),
                             _cheb_nodes(lo, hi, max(400, 2 * degree))])
    n_w, n_c = grid_w.size, grid_c.size
    vw, vc = np.split(_odd_chebvander(np.concatenate([grid_w, grid_c]),
                                      degree), [n_w])
    err = np.repeat([-1.0, -1.0, 0.0, 0.0], [n_w, n_w, n_c, n_c])
    a_ub = np.column_stack([np.vstack([vw, -vw, vc, -vc]), err])
    b_ub = np.concatenate([y_w, -y_w, np.full(2 * n_c, GLOBAL_BOUND)])
    return a_ub, b_ub


@functools.lru_cache(maxsize=LADDER_CACHE)
def _ladder_fit(norm: float, degree: int):
    """The memo of one rung of the degree ladder: its LP's fit, (read-only
    full Chebyshev coeffs, achieved error).  The LP is fixed by (norm,
    degree); eps only sets the acceptance threshold the caller applies."""
    x = linprog(*_minimax_lp(norm, degree))
    coeffs = np.zeros(degree + 1)
    coeffs[1::2] = x[:-1]
    coeffs.setflags(write=False)
    return coeffs, float(x[-1])


def _sliced_max(values, x) -> float:
    """The max of the elementwise ``values`` over x, evaluated CERT_SLICE
    points at a time: the same float as over all of x at once, NaN
    included, without full-length temporaries."""
    return float(np.max([values(x[lo:lo + CERT_SLICE]).max()
                         for lo in range(0, x.size, CERT_SLICE)]))


@functools.lru_cache(maxsize=LADDER_CACHE)
def _fit_certificate(norm: float, degree: int) -> tuple[float, float, int]:
    """The LP fit's certificate at one rung of the ladder: its sup
    error against scale * g on 10,000 window points, its |P| peak on
    20,001 points of [-1, 1], each evaluated CERT_SLICE points at a time,
    and its effective degree.  Like the fit it depends on (norm, degree)
    alone; callers compare it with their own eps and with 1."""
    coeffs = _ladder_fit(norm, degree)[0]
    scale = _fit_scale(norm)
    sup_err = _sliced_max(lambda x: np.abs(_chebval(x, coeffs)
                                           - scale * target_g(x, norm)),
                          np.linspace(1.0 / norm, 1.0, 10_000))
    peak = _sliced_max(lambda x: np.abs(_chebval(x, coeffs)),
                       np.linspace(-1.0, 1.0, 20_001))
    nz = np.flatnonzero(np.abs(coeffs) > 1e-300)
    eff_degree = int(nz[-1]) if nz.size else degree
    return sup_err, peak, eff_degree


def approximate_target(norm: float, eps: float) -> PolynomialTarget:
    """Bounded-degree odd polynomial realizing scale * g on [1/norm, 1].

    ``eps`` bounds sup |P - scale * g| on the window; the degree respects
    d <= C * norm * log(1/eps) with the constant C checked by the
    acceptance suite.

    Each rung solves its whole LP once; the LP results and the accepted
    fit's certificate are memoised, and the walk, its acceptance tests and
    the checks of the certificate against eps and 1 run on every call.
    """
    if not 0 < eps <= 0.5:
        raise ConfigError(f"eps must lie in (0, 1/2], got {eps}")
    if norm < 1.0:
        raise ConfigError(f"norm must be >= 1, got {norm}")

    degree = max(1, int(0.25 * norm) | 1)
    while (fit := _ladder_fit(norm, degree))[1] > eps * FIT_ACCEPT:
        if degree >= DEGREE_CAP:
            raise NumericalError(
                f"degree cap {DEGREE_CAP} exceeded for norm={norm:.4g}, "
                f"eps={eps:.3g}")
        degree = min(DEGREE_CAP, max(degree + 2, int(degree * 1.4) | 1))

    sup_err, peak, eff_degree = _fit_certificate(norm, degree)
    if sup_err > eps:
        raise NumericalError(f"fit verification failed: sup error {sup_err:.3e}")
    if peak > 1.0:
        raise NumericalError(f"polynomial exceeds 1 on [-1, 1]: {peak:.6f}")
    return PolynomialTarget(norm, eps, fit[0], eff_degree, _fit_scale(norm),
                            (1.0 / norm, 1.0), sup_err)


@dataclass(frozen=True)
class PhaseFactorSequence:
    """Projector phases phi_1..phi_d for the alternating circuit.

    ``residual`` is the sup deviation of the realized scalar polynomial
    from the target at the test nodes.
    """

    phases: np.ndarray
    residual: float

    def __post_init__(self):
        object.__setattr__(self, "phases", np.asarray(self.phases, dtype=float))
        self.phases.setflags(write=False)

    @property
    def degree(self) -> int:
        return len(self.phases)


def _wx_eval(x: np.ndarray, phases: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Re <0| e^{i phi_0 Z} prod_k W(x) e^{i phi_k Z} |0> vectorized over x,
    and its derivative in every phase, shape (x.size, len(phases))."""
    # right multiplication never mixes rows, so only the top row (a_k, b_k)
    # of each prefix P_k, up to and including e^{i phi_k Z}, is carried
    i_s = 1j * np.sqrt(np.clip(1.0 - x * x, 0.0, None))
    a = np.empty((len(phases), x.size), complex)
    b = np.empty_like(a)
    m00 = np.full_like(x, np.exp(1j * phases[0]), dtype=complex)
    m01 = np.zeros_like(x, dtype=complex)
    a[0], b[0] = m00, m01
    for k, phi in enumerate(phases[1:], 1):
        # right-multiply by W(x), then by e^{i phi Z}
        n00 = m00 * x + m01 * i_s
        n01 = m00 * i_s + m01 * x
        m00, m01 = n00 * np.exp(1j * phi), n01 * np.exp(-1j * phi)
        a[k], b[k] = m00, m01
    # d/dphi_k inserts iZ after e^{i phi_k Z}: i <0| P_k Z S_k |0> with S_k
    # the suffix.  Every factor is in SU(2), so P_k has rows (a, b) and
    # (-conj b, conj a), S_k |0> = P_k^dagger U |0>, and U |0> is
    # (m00, -conj m01): the term is i ((2 |a|^2 - 1) m00 + 2 a b conj m01)
    grad = ((1.0 - 2.0 * (a.real ** 2 + a.imag ** 2)) * m00.imag
            - 2.0 * (a * b * m01.conj()).imag)
    return m00.real, grad.T


def qsp_reflection_eval(x, phases: np.ndarray) -> np.ndarray:
    """Re of the (0,0) entry of prod_j e^{i phi_j Z} R(x) in the projector
    convention used by the alternating circuit (scalar twin of U_Phi)."""
    x = np.atleast_1d(np.asarray(x, dtype=float))
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


def least_squares(degree: int, coeffs: np.ndarray) -> np.ndarray:
    """Symmetric Wx phases phi_0..phi_d whose realized polynomial is the
    parity-pure degree-d Chebyshev series ``coeffs``.

    Gauss-Newton on the reduced coefficients, Newton's method for symmetric
    QSP (Dong, Lin, Ni and Wang, arXiv 2307.12468): the residual is the
    reduced Chebyshev coefficients of the realized polynomial at the d + 1
    Chebyshev nodes minus the target's, and each step is one least-squares
    solve on its square Jacobian.  The solve stops when a step no longer
    halves the sup residual at the nodes, or after PHASE_ITER_CAP steps,
    keeps the best iterate and raises with its residual unless that meets
    PHASE_RESIDUAL_TOL.
    """
    count = degree + 1
    theta = (np.arange(count) + 0.5) * np.pi / count
    nodes = np.cos(theta)
    target = _chebval(nodes, coeffs)
    # descending order pairs the outermost phases with the leading
    # coefficients; the rows map node values to those coefficients
    ridx = np.arange(degree % 2, count, 2)[::-1]
    reduce = (2.0 / count) * np.cos(np.outer(ridx, theta))
    reduce[ridx == 0] *= 0.5
    half = ridx.size

    z = np.zeros(half)
    z[0] = np.pi / 4
    best, best_res = z, np.inf
    for step in range(PHASE_ITER_CAP + 1):
        # symmetric phases: the trailing half mirrors the leading half, and
        # an even degree's centre phase appears once
        vals, grad = _wx_eval(nodes, np.concatenate([z, z[::-1][count % 2:]]))
        res = np.abs(vals - target).max()
        falling = res < 0.5 * best_res
        if res < best_res:
            best, best_res = z, res
        if not falling or step == PHASE_ITER_CAP:
            break
        jac = grad[:, :half] + grad[:, ::-1][:, :half]
        if count % 2:
            jac[:, -1] *= 0.5
        z = z + np.linalg.lstsq(reduce @ jac, reduce @ (target - vals),
                                rcond=None)[0]
    if best_res > PHASE_RESIDUAL_TOL:
        raise NumericalError(
            f"phase-factor solve did not converge: residual {best_res:.3e} "
            f"after {step} Gauss-Newton steps (cap {PHASE_ITER_CAP})")
    return np.concatenate([best, best[::-1][count % 2:]])


def solve_phase_factors(poly: PolynomialTarget) -> PhaseFactorSequence:
    """Phase factors reproducing the polynomial on scalar inputs.

    Solves the symmetric Wx phases by Gauss-Newton (``least_squares``),
    converts them to projector phases and checks the projector circuit's
    polynomial against the target on 64 Chebyshev nodes.  The solve is
    memoised on the polynomial's degree and coefficient bytes, the only
    parts of it the solve reads.
    """
    if poly.degree < 1:
        raise ConfigError("the alternating circuit needs degree >= 1")
    return _phase_factors(poly.degree, poly.coeffs.tobytes())


@functools.lru_cache(maxsize=PROGRAM_CACHE)
def _phase_factors(degree: int, coeffs_key: bytes) -> PhaseFactorSequence:
    coeffs = np.frombuffer(coeffs_key)
    wx = least_squares(degree, coeffs)

    # Wx -> projector-phase conversion (derived once, verified numerically):
    # phi'_1 = phi_0 + phi_d - pi/2 + d pi/2, phi'_k = phi_{k-1} - pi/2.
    proj = np.zeros(degree)
    proj[0] = wx[0] + wx[degree] - np.pi / 2 + degree * np.pi / 2
    proj[1:] = wx[1:degree] - np.pi / 2

    check_nodes = np.cos((np.arange(64) + 0.5) * np.pi / 64)
    realized = qsp_reflection_eval(check_nodes, proj)
    residual = float(np.abs(realized - _chebval(check_nodes, coeffs)).max())
    if residual > PHASE_RESIDUAL_TOL:
        raise NumericalError(f"projector-phase conversion check failed: {residual:.3e}")
    return PhaseFactorSequence(proj, residual)


@dataclass(frozen=True)
class QsvtUnitary:
    """The post-selected block of the alternating circuit U_Phi, applied.

    ``matrix`` is the read-only real (2^n, k) product of the top-left 2^n
    block, the branch where all a = 4 ancillas (real-part signal qubit,
    encoding flag, branch pair) read zero, sum_k P(sigma_k / gamma)
    |w_k><v_k| of the encoded matrix, with k real columns.
    """

    matrix: np.ndarray


def _alternate_columns(be: BlockEncoding, phases: PhaseFactorSequence,
                       cols: np.ndarray) -> np.ndarray:
    """Overwrite ``cols``, held index-major as in
    ``BlockEncoding.multiply_columns``, with the alternating product of the
    d phase reflections and encoding queries applied to them, and return it.

    The product is D_1 U_1 D_2 U_2 ... D_d U_d, with U_k the encoding U on
    odd k and U^T = U^dagger on even k, and D_k = diag(e^{i phi_k (2 Pi -
    I)}): +phi_k where both encoding ancillas read zero and -phi_k
    elsewhere.  The columns meet its factors right to left, the last query
    first, each through the factors of U at O(64 2^n) per column.
    """
    signs = np.full((2 * BRANCHES, 1), -1.0)
    signs[0] = 1.0
    for k in reversed(range(phases.degree)):
        be.multiply_columns(cols, transpose=k % 2 == 1)
        cols *= np.exp(1j * phases.phases[k] * signs)
    return cols


def apply_qsvt(be: BlockEncoding, phases: PhaseFactorSequence,
               columns: np.ndarray) -> QsvtUnitary:
    """The top-left 2^n block of U_Phi for the encoding and the phases,
    applied to the real (2^n, k) ``columns``.

    Each column enters on the branch where every ancilla reads zero and is
    carried alone through the d queries, so a batch gives each column's
    bits and the identity gives the block itself.  The real-part signal
    qubit averages the circuit with its phase-negated twin, which is its
    complex conjugate because the encoding unitary is real, so on real
    columns it keeps the real part.
    """
    cols = np.zeros((len(columns), 2 * BRANCHES, columns.shape[1]), complex)
    cols[:, 0] = columns
    out = np.ascontiguousarray(_alternate_columns(be, phases, cols)[:, 0].real)
    out.setflags(write=False)
    return QsvtUnitary(matrix=out)


def svd_transform_oracle(dense: np.ndarray, poly: PolynomialTarget,
                         gamma: float) -> np.ndarray:
    """Dense-SVD reference: sum_k P(sigma_k / gamma) |w_k><v_k|."""
    w, sig, vt = np.linalg.svd(dense)
    return (w * poly.evaluate(sig / gamma)) @ vt


def _operator_key(op: TridiagonalOperator) -> tuple:
    """The values an encoding of ``op`` reads: its width and band bytes."""
    return (op.n, op.sub.tobytes(), op.diag.tobytes(), op.super_.tobytes())


@functools.lru_cache(maxsize=PROGRAM_CACHE)
def _encoding(op_key: tuple) -> tuple[BlockEncoding, float]:
    """Certified block encoding of the operator with these bands, and the
    least singular value of the stepping matrix I + M, the operator's
    transpose, from its values-only SVD."""
    n, *bands = op_key
    op = TridiagonalOperator(*(np.frombuffer(b) for b in bands), n)
    be = assemble_block_encoding(op)
    dense = op.transpose().to_dense()
    return be, float(np.linalg.svd(dense, compute_uv=False).min())


@dataclass(frozen=True)
class PreparedValueState:
    """Output of the backward-stepping stage: ``state`` is the normalized
    read-only real vector of the 2^n grid amplitudes after ``steps``
    marching steps through the circuit of ``phases`` on the memoised
    ``encoding``.  ``success_probability`` is the least amplified
    post-selection probability of a step, 1.0 when no step runs."""

    state: np.ndarray
    success_probability: float
    target: PolynomialTarget
    phases: PhaseFactorSequence
    encoding: BlockEncoding
    steps: int

    @property
    def queries(self) -> int:
        """Encoding queries of the march: RUNS_PER_STEP runs of the
        degree-d circuit per step."""
        return RUNS_PER_STEP * self.steps * self.phases.degree


def prepare_value_state(payoff: np.ndarray, params: MarketParams, grid: PriceGrid,
                        eps1: float) -> PreparedValueState:
    """Prepare the normalized t_bar value state (I + M)^(-T) payoff by
    marching it through the post-selected one-step circuit T times.

    The encoding carries the transpose of the stepping matrix, so the
    x^(-1) singular-value transform lands on (I + M)^(-1) itself; the fit's
    rescale cancels under the renormalization after each step.  Each step
    is amplified by one round of amplitude amplification and must clear
    SUCCESS_PROB_FLOOR.
    """
    payoff = np.asarray(payoff, dtype=float)
    norm_payoff = np.linalg.norm(payoff)
    if norm_payoff == 0:
        raise NumericalError("payoff vector has zero norm")
    steps = params.pricing_steps

    stepping = assemble_operator(params, grid).plus_identity()
    op_key = _operator_key(stepping.transpose())
    be, sigma_min = _encoding(op_key)
    gamma = be.gamma
    if sigma_min <= 0:
        raise NumericalError("stepping matrix is singular")
    norm_param = max(1.0 + 1e-12, gamma / sigma_min)

    # the first step's post-selected vector under the exact scaled target,
    # scale * g(Sigma / gamma) = scale * (norm gamma / 2) (I + M)^(-1): its
    # norm turns each step's share eps1 / T of the l2 budget into the fit's
    # absolute tolerance, with most of eps1 left to the fit (the phase
    # residual is held near 1e-8)
    unit = payoff / norm_payoff
    solved = _thomas_solve(stepping.sub, stepping.diag, stepping.super_, unit)
    y_norm = (_fit_scale(norm_param) * 0.5 * norm_param * gamma
              * float(np.linalg.norm(solved)))
    eps_fit = min(0.49, max(1e-13, 0.25 * eps1 / max(1, steps) * y_norm))
    poly = approximate_target(norm_param, eps_fit)

    phases = solve_phase_factors(poly)
    vec = unit
    least = 1.0
    for step in range(steps):
        # the post-selected branch of U_Phi |0>|v>
        sub = apply_qsvt(be, phases, vec[:, None]).matrix[:, 0]
        prob = float(np.linalg.norm(sub) ** 2)
        # one amplification round: sin^2(theta) -> sin^2(3 theta)
        amplified = math.sin(3.0 * math.asin(math.sqrt(min(prob, 1.0)))) ** 2
        if amplified < SUCCESS_PROB_FLOOR:
            raise NumericalError(
                f"amplified post-selection probability {amplified:.3e} of "
                f"step {step + 1} of {steps} below floor "
                f"{SUCCESS_PROB_FLOOR:.1e}; unamplified {prob:.3e}, "
                f"degree={poly.degree}, scale={poly.scale:.3e}")
        least = min(least, amplified)
        vec = sub / np.linalg.norm(sub)
    if vec.sum() < 0:
        vec = -vec
    vec.setflags(write=False)
    return PreparedValueState(state=vec, success_probability=least,
                              target=poly, phases=phases, encoding=be,
                              steps=steps)
