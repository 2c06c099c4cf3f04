"""Reference implementations the tests check the production code against.

The production pipeline runs Step 3 in closed form over the grid nodes:
the limit's per-node value codes ``qpca.value_code_table`` and the
per-branch kernels ``qpca.qpe_exact_distributions`` and
``qpca.qpe_trotter_distributions``.
This module holds the circuits those closed forms stand for, written out
densely so that small instances can be compared entry by entry:

* ``dense_state``, a ``qcore.StateVector`` that stores all 2^q amplitudes,
  a dense gate and QFT toolkit on it and the register readout
  ``exact_distribution``;
* ``DensityMatrix`` and the swap-interaction channel of density-matrix
  exponentiation (``trotter_slice``, ``evolve_exp_rho``);
* coherent phase estimation (``qpe_write_eigenvalues``), the two QPE
  kernels with the inverse QFT as a dense matrix
  (``dense_qpe_exact_distributions``, ``dense_qpe_trotter_distributions``)
  and the reversible square root (``sqrt_register``) of Lloyd, Mohseni and Rebentrost,
  arXiv 1307.0401;
* the scalar forms of the scenario map (``logistic_increment``,
  ``euler_forward``) and of the path snap (``nearest_index``), the
  tridiagonal solve on NumPy scalars (``numpy_thomas_solve``), which
  ``pde._thomas_solve`` runs over Python floats, the column map of the
  block encoding
  (``column_index``), its 2^(n+3)-square unitary multiplied out from the
  factors (``dense_unitary``), its top-left block (``encoded_block``) and
  its certificate (``verify_block_encoding``);
* the full 2^(n+4)-square QSVT circuit U_Phi, carried on every column
  through the factored queries (``qsvt_circuit``), whose top-left 2^n
  block ``qsvt.apply_qsvt`` applies to the columns it is given, and
  through the dense U (``dense_qsvt_circuit``), with the column layouts
  ``index_major`` and ``dense_columns``;
* the Stage-1 minimax LP written out densely (``minimax_lp``) and handed
  whole to the public ``scipy.optimize.linprog`` (``fit_minimax``), with
  the degree walk on it (``dense_walk``): ``qsvt._minimax_lp``'s rows and
  the fits ``lp.linprog`` finds are checked against these;
* Step 4 through a flagged state per read: the comparator's flag readout
  (``comparator_tail_probability``), the bisection on it
  (``comparator_bisection_var``) and the CVaR that flags the state at the
  VaR code, uncomputes its value and contracts it with the reference
  (``comparator_cvar``, on the two-state overlap ``state_swap_test``),
  which ``risk.tail_probability``, ``risk.bisection_var`` and
  ``risk.cvar`` reproduce bit for bit from a ``risk.TailTable``;
* one Binomial(n, p) draw by its own walk and uniform (``binomial``),
  which ``amplitude._draw_hits`` reproduces per power from a memoised draw
  plan;
* the explicit 1-norm of the no-go pair's m-copy projectors
  (``explicit_trace_norm_gap``), twice ``nogo.trace_norm_gap``;
* small helpers: ``grover_rudolph_prepare``, ``perturb_state`` and
  ``fit_linear_slope``.

None of it is imported by ``src/qvar``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.polynomial import chebyshev as np_cheb
from scipy.linalg import expm
from scipy.optimize import linprog

from qvar import amplitude, qsvt, risk
from qvar.blockenc import BRANCHES, SHIFTS, BlockEncoding
from qvar.errors import ConfigError, NumericalError
from qvar.market import MarketParams, PriceGrid
from qvar.pde import PIVOT_FLOOR, TridiagonalOperator
from qvar.qcore import RegisterLayout, StateVector, xor_write
from qvar.qpca import QPE_DT, decode_value, sqrt_code_table
from qvar.qsvt import PhaseFactorSequence

UNITARY_TOL = 1e-10
EXPLICIT_DIM_CAP = 2**12


# --- dense statevector toolkit ------------------------------------------

def axes_of(layout: RegisterLayout, name: str) -> list[int]:
    """Tensor axes of the register when amplitudes are reshaped to [2]*q."""
    offset, width = layout.offset_of(name), layout.width_of(name)
    return list(range(offset, offset + width))


def names(layout: RegisterLayout) -> list[str]:
    return [name for name, _ in layout.items()]


def dense_state(amplitudes, layout: RegisterLayout) -> StateVector:
    """A state storing every one of the layout's 2^q amplitudes in basis
    order: its index is arange(2^q)."""
    return StateVector(amplitudes, layout,
                       np.arange(2**layout.total_qubits, dtype=np.int64))


def tensor(state: StateVector) -> np.ndarray:
    q = state.layout.total_qubits
    if state.index.size != 2**q:
        raise ConfigError("a sparse state has no dense tensor form; gates "
                          "and QFTs need a dense state")
    return state.amplitudes.reshape([2] * q)


def exact_distribution(state: StateVector, register: str) -> np.ndarray:
    """Squared marginal amplitudes of one register (exact readout)."""
    width = state.layout.width_of(register)
    values = state.layout.values(register, state.index)
    probs = np.abs(state.amplitudes) ** 2
    return np.bincount(values, weights=probs, minlength=2**width)


def basis_state(layout: RegisterLayout, index: int = 0) -> StateVector:
    amps = np.zeros(2**layout.total_qubits, dtype=complex)
    amps[index] = 1.0
    return dense_state(amps, layout)


def _resolve_registers(layout: RegisterLayout, registers) -> list[str]:
    if isinstance(registers, str):
        registers = [registers]
    regs = list(registers)
    for name in regs:
        if name not in names(layout):
            raise ConfigError(f"unknown register {name!r}")
    if len(set(regs)) != len(regs):
        raise ConfigError("register subset contains duplicates")
    return regs


def apply_unitary(state: StateVector, u: np.ndarray, registers,
                  check: bool = True) -> StateVector:
    """Apply a dense unitary to the named registers (first name = most
    significant factor of u's index)."""
    regs = _resolve_registers(state.layout, registers)
    axes = [ax for name in regs for ax in axes_of(state.layout, name)]
    k = len(axes)
    u = np.asarray(u, dtype=complex)
    if u.shape != (2**k, 2**k):
        raise ConfigError(f"unitary must be {2**k} x {2**k} for {k} qubits")
    if check:
        err = np.abs(u @ u.conj().T - np.eye(2**k)).max()
        if err > UNITARY_TOL:
            raise NumericalError(f"matrix is not unitary: deviation {err:.3e}")
    moved = np.moveaxis(tensor(state), axes, range(k))
    shape = moved.shape
    out = (u @ moved.reshape(2**k, -1)).reshape(shape)
    out = np.moveaxis(out, range(k), axes)
    return dense_state(out.reshape(-1), state.layout)


def qft_matrix(width: int) -> np.ndarray:
    size = 2**width
    j = np.arange(size)
    return np.exp(2j * np.pi * np.outer(j, j) / size) / np.sqrt(size)


def qft(state: StateVector, register: str) -> StateVector:
    """Discrete Fourier transform of the amplitudes on one register."""
    return apply_unitary(state, qft_matrix(state.layout.width_of(register)),
                         register, check=False)


def inverse_qft(state: StateVector, register: str) -> StateVector:
    return apply_unitary(state, qft_matrix(state.layout.width_of(register)).conj().T,
                         register, check=False)


def grover_rudolph_prepare(v) -> np.ndarray:
    """The amplitudes v / ||v||_2 for a non-negative vector v, as a
    complex vector, the form of Stage 1's value state.

    Stands in for amplitude-encoding state preparation; the simulator
    constructs the resulting amplitudes directly.
    """
    v = np.asarray(v, dtype=float)
    if v.ndim != 1 or v.size & (v.size - 1):
        raise ConfigError("input must be a 1-d vector of power-of-two length")
    if np.any(v < 0):
        raise ConfigError("amplitude-encoded vector must be non-negative")
    norm = np.linalg.norm(v)
    if norm == 0:
        raise ConfigError("cannot prepare the zero vector")
    return v / norm + 0j


def perturb_state(state: np.ndarray, eps: float, rng) -> np.ndarray:
    """A unit vector at exact l2 distance eps from the unit vector
    ``state`` (eps <= sqrt(2))."""
    dim = state.size
    direction = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    direction -= np.vdot(state, direction) * state
    direction /= np.linalg.norm(direction)
    # chord length eps on the unit sphere
    theta = 2.0 * np.arcsin(min(1.0, eps / 2.0))
    return np.cos(theta) * state + np.sin(theta) * direction


# --- density-matrix exponentiation --------------------------------------

@dataclass
class DensityMatrix:
    """Hermitian, unit-trace, PSD matrix over 2^p basis states."""

    entries: np.ndarray

    def __post_init__(self):
        rho = np.asarray(self.entries, dtype=complex)
        self.entries = rho
        dim = rho.shape[0]
        if rho.ndim != 2 or rho.shape != (dim, dim) or dim & (dim - 1):
            raise ConfigError("density matrix must be square with power-of-two dim")
        if np.abs(rho - rho.conj().T).max() > 1e-10:
            raise NumericalError("density matrix is not Hermitian within 1e-10")
        if abs(np.trace(rho).real - 1.0) > 1e-10:
            raise NumericalError("density matrix trace deviates from 1 beyond 1e-10")
        if np.linalg.eigvalsh(rho).min() < -1e-8:
            raise NumericalError("density matrix has eigenvalue below -1e-8")

    @property
    def num_qubits(self) -> int:
        return int(np.log2(self.entries.shape[0]))


def trotter_slice(rho: DensityMatrix, sigma: DensityMatrix, dt: float) -> DensityMatrix:
    """One swap-interaction slice Tr_A[e^{-i w dt} (rho x sigma) e^{i w dt}].

    Uses e^{-i w dt} = cos(dt) I - i sin(dt) w for the swap w, giving the
    closed form c^2 sigma + s^2 rho - i c s [rho, sigma].
    """
    c, s = np.cos(dt), np.sin(dt)
    r, g = rho.entries, sigma.entries
    out = c * c * g + s * s * r - 1j * c * s * (r @ g - g @ r)
    return DensityMatrix(out)


def evolve_exp_rho(sigma: DensityMatrix, rho: DensityMatrix, tau: float,
                   n_trotter: int | None = None) -> DensityMatrix:
    """Evolve sigma under e^{-i rho tau}: exactly when ``n_trotter`` is
    None, else by ``n_trotter`` swap slices."""
    if sigma.entries.shape != rho.entries.shape:
        raise ConfigError("sigma and rho must act on the same register")
    if n_trotter is None:
        u = expm(-1j * tau * rho.entries)
        return DensityMatrix(u @ sigma.entries @ u.conj().T)
    dt = tau / n_trotter
    out = sigma
    for _ in range(n_trotter):
        out = trotter_slice(rho, out, dt)
    return out


# --- coherent phase estimation and the square root ----------------------

def _hadamard_all(width: int) -> np.ndarray:
    h = np.array([[1.0, 1.0], [1.0, -1.0]]) / np.sqrt(2.0)
    out = np.array([[1.0]])
    for _ in range(width):
        out = np.kron(out, h)
    return out


def qpe_write_eigenvalues(state: StateVector, rho: np.ndarray, codes: np.ndarray,
                          price: str = "price", phase: str = "value") -> StateVector:
    """Coherent exact-exponential phase estimation writing eigenvalue codes
    of rho, given as its spectrum per grid node (``qpca.reduced_rho``) and
    the nodes' price codes ``codes`` (``qpca.grid_codes``), with 2^m
    controlled powers of evolution time ``qpca.QPE_DT`` for the m-qubit
    phase register.  A price code that is no node's has eigenvalue 0.

    Price-register basis states are rho eigenstates (diagonal rho), so the
    controlled evolution is a pure phase load followed by the inverse QFT.
    The trotterized channel is not a statevector map and is analyzed
    through ``qpca.qpe_trotter_distributions``.  The QFTs entangle the
    phase register with the branches, so the input is expanded to a
    ``dense_state`` and so is the result.
    """
    layout = state.layout
    m = layout.width_of(phase)
    amps = np.zeros(2**layout.total_qubits, dtype=complex)
    amps[state.index] = state.amplitudes
    state = dense_state(amps, layout)
    price_vals = layout.values(price, state.index)
    spectrum = np.zeros(2**layout.width_of(price))  # rho over price codes
    spectrum[codes] = rho
    if exact_distribution(state, phase)[0] < 1.0 - 1e-10:
        raise ConfigError("phase register must be zeroed before QPE")

    out = apply_unitary(state, _hadamard_all(m), phase, check=False)
    l_vals = layout.values(phase, state.index)
    phases = spectrum[price_vals] * l_vals * QPE_DT
    out = dense_state(out.amplitudes * np.exp(1j * phases), layout)
    return inverse_qft(out, phase)


def qpe_modal_estimates(state: StateVector, price: str = "price",
                        phase: str = "value") -> dict[int, float]:
    """Most likely eigenvalue estimate per populated price code."""
    layout = state.layout
    m = layout.width_of(phase)
    probs = np.abs(state.amplitudes) ** 2
    price_vals = layout.values(price, state.index)
    phase_vals = layout.values(phase, state.index)
    estimates: dict[int, float] = {}
    for code in np.unique(price_vals[probs > 1e-14]):
        mask = price_vals == code
        hist = np.bincount(phase_vals[mask], weights=probs[mask], minlength=2**m)
        estimates[int(code)] = float(decode_value(int(np.argmax(hist)), m))
    return estimates


def dense_qpe_exact_distributions(branch_nodes, rho: np.ndarray,
                                  m: int) -> dict[int, np.ndarray]:
    """``qpca.qpe_exact_distributions`` with the inverse QFT applied to the
    phase load as a dense 2^m-square matrix."""
    n = 2**m
    inverse = qft_matrix(m).conj()
    ls = np.arange(n)
    out = {}
    for b in np.unique(np.asarray(branch_nodes, dtype=np.int64)):
        load = np.exp(1j * rho[b] * QPE_DT * ls) / np.sqrt(n)
        out[int(b)] = np.abs(inverse @ load) ** 2
    return out


def dense_qpe_trotter_distributions(branch_nodes, rho: np.ndarray, m: int,
                                   n_trotter: int) -> dict[int, np.ndarray]:
    """``qpca.qpe_trotter_distributions`` with each branch's phase-register
    coherences filled into a dense 2^m-square matrix, entry (l', l) for
    l' >= l carrying k = l shared and j = l' - l excess slices, and the
    diagonal of its inverse QFT read through two full matrix products."""
    n = 2**m
    ls = np.arange(n)
    fourier = qft_matrix(m)
    slices = ls * n_trotter
    c, s = np.cos(QPE_DT / n_trotter), np.sin(QPE_DT / n_trotter)
    pow_one = (c + 1j * s * rho)[None, :] ** slices[:, None]  # [j, node]
    phi = pow_one @ rho
    c2l = (c * c) ** slices
    l, lp = np.triu_indices(n)
    k, j = l, lp - l
    out = {}
    for b in np.unique(np.asarray(branch_nodes, dtype=np.int64)):
        val = (c2l[k] * pow_one[j, b] + (1.0 - c2l[k]) * phi[j]) / n
        mat = np.empty((n, n), dtype=complex)
        mat[lp, l] = val
        mat[l, lp] = np.conj(val)
        red = fourier.conj().T @ mat @ fourier
        out[int(b)] = np.abs(np.diag(red).real)
    return out


def sqrt_register(state: StateVector, source: str, target: str) -> StateVector:
    """|lam>|z> -> |lam>|z XOR code(sqrt(lam))>.

    The bare code map is not injective, so the reversible form writes into
    an auxiliary register; callers clear the source afterwards by undoing
    the phase estimation that produced it.
    """
    m = state.layout.width_of(source)
    if state.layout.width_of(target) != m:
        raise ConfigError("source and target registers must share the width")
    return xor_write(state, source, target, sqrt_code_table(m).take)


# --- scalar and structural references -----------------------------------

def logistic_increment(j: int, L: int) -> float:
    """dZ_j = 4 (j/L)(1 - j/L) for path index j in 1..L."""
    if not 1 <= j <= L:
        raise ConfigError(f"path index must satisfy 1 <= j <= L, got j={j}, L={L}")
    u = j / L
    return 4.0 * u * (1.0 - u)


def nearest_index(grid: PriceGrid, price: float) -> int:
    """Index of the grid node closest to ``price``, ties to the lower node:
    the scalar snap that ``qpca.snap_paths`` vectorises."""
    # clamped first: far beyond the grid every |node - price| rounds to
    # the same float, and that tie would pick node 0
    price = min(max(price, grid.nodes[0]), grid.nodes[-1])
    # argmin returns the first (lower) index on exact ties
    return int(np.argmin(np.abs(grid.nodes - price)))


def numpy_thomas_solve(sub, diag, sup, rhs) -> np.ndarray:
    """Tridiagonal solve without pivoting on NumPy scalars, rejecting
    pivots below ``pde.PIVOT_FLOOR``: the operations, their order and the
    errors of ``pde._thomas_solve``, which runs them over Python floats."""
    size = diag.size
    c = np.zeros(size)
    d = np.zeros(size)
    pivot = diag[0]
    if abs(pivot) < PIVOT_FLOOR:
        raise NumericalError(f"singular system: |pivot| = {abs(pivot):.3e} at row 0")
    c[0] = sup[0] / pivot
    d[0] = rhs[0] / pivot
    for i in range(1, size):
        pivot = diag[i] - sub[i] * c[i - 1]
        if abs(pivot) < PIVOT_FLOOR:
            raise NumericalError(f"singular system: |pivot| = {abs(pivot):.3e} at row {i}")
        if i < size - 1:
            c[i] = sup[i] / pivot
        d[i] = (rhs[i] - sub[i] * d[i - 1]) / pivot
    x = np.zeros(size)
    x[-1] = d[-1]
    for i in range(size - 2, -1, -1):
        x[i] = d[i] - c[i] * x[i + 1]
    return x


def euler_forward(j: int, x: float, params: MarketParams, L: int) -> float:
    """F(j, x) = (1 + mu dtau) x + alpha dZ_j sqrt(x)."""
    if x < 0:
        raise NumericalError(f"price must be non-negative, got {x}")
    a = 1.0 + params.mu * params.dtau
    b = params.alpha * logistic_increment(j, L)
    return a * x + b * math.sqrt(x)


def column_index(j: int, l: int, n: int) -> int:
    """Row index of branch l's entry in column j.

    Branches 0..2 address the sub-, main and super-diagonal neighbours,
    clamped at the matrix edge (clamped branches carry zero amplitude);
    the padding branch 3 reuses the diagonal with zero amplitude.
    """
    size = 2**n
    if not 0 <= j < size:
        raise ConfigError(f"column {j} out of range for n={n}")
    if not 0 <= l < BRANCHES:
        raise ConfigError(f"branch {l} out of range")
    if l == 3:
        return j
    return min(max(j - 1 + l, 0), size - 1)


def dense_unitary(be: BlockEncoding) -> np.ndarray:
    """The 2^(n+3)-square encoding unitary U = L^T U_c R, multiplied out
    from the factors by the assembly loop the encoding once kept it by."""
    size = 2**be.n
    u = np.zeros((2 * BRANCHES, size, 2 * BRANCHES, size))
    j = np.arange(size)
    for k in range(2 * BRANCHES):
        i = (j + SHIFTS[k % BRANCHES]) % size
        u[:, i, :, j] += be.left[i, k, :, None] * be.right[j, k, None, :]
    dim = 2 * BRANCHES * size
    return u.reshape(dim, dim)


def encoded_block(be: BlockEncoding, unitary: np.ndarray | None = None) -> np.ndarray:
    """The top-left 2^n x 2^n block of the encoding unitary, or of
    ``unitary`` when one is given in its place."""
    size = 2**be.n
    return (dense_unitary(be) if unitary is None else unitary)[:size, :size]


def verify_block_encoding(be: BlockEncoding, mtilde: TridiagonalOperator,
                          unitary: np.ndarray | None = None) -> float:
    """Spectral-norm error ||M - gamma * block(U)|| of a claimed encoding,
    with ``unitary`` standing in for U when one is given."""
    dense = mtilde.to_dense()
    if dense.shape[0] != 2**be.n:
        raise ConfigError("matrix dimension does not match the encoding")
    return float(np.linalg.norm(dense - be.gamma * encoded_block(be, unitary), 2))


def index_major(cols: np.ndarray, size: int) -> np.ndarray:
    """Dense columns (8 * size, R), row a * size + i for (flag, branch) a
    and index i, in the (size, 8, R) layout of
    ``BlockEncoding.multiply_columns``."""
    return np.ascontiguousarray(cols.reshape(-1, size, cols.shape[1])
                                .transpose(1, 0, 2))


def dense_columns(cols: np.ndarray) -> np.ndarray:
    """The inverse of ``index_major``: (size, 8, R) back to (8 * size, R)."""
    size, width, count = cols.shape
    return cols.transpose(1, 0, 2).reshape(width * size, count)


def qsvt_circuit(be: BlockEncoding, phases: PhaseFactorSequence) -> np.ndarray:
    """The dense U_Phi: the alternating circuit on the encoding space with
    a real-part signal qubit in front, the LCU of the circuit and its
    phase-negated twin.  Every column of the alternating product is carried
    through the factored queries ``apply_qsvt`` uses, so its top-left 2^n
    block is ``apply_qsvt``'s on the identity, bit for bit;
    ``dense_qsvt_circuit`` builds the same product from the dense U."""
    size = 2**be.n
    dim = 2 * BRANCHES * size
    plus = dense_columns(qsvt._alternate_columns(
        be, phases, index_major(np.eye(dim, dtype=complex), size)))
    return _signal_lcu(plus)


def dense_qsvt_circuit(be: BlockEncoding, phases: PhaseFactorSequence) -> np.ndarray:
    """``qsvt_circuit`` through the dense U of ``dense_unitary``: each
    query multiplies every row by the 2^(n+3)-square matrix."""
    size = 2**be.n
    u = dense_unitary(be)
    dim = u.shape[0]
    if be.a != 3:
        raise ConfigError("expected a 3-ancilla block encoding")

    # diag(e^{i phi (2 Pi - I)}) on the encoding space: +phi where both
    # encoding ancillas read zero (indices < 2^n), -phi elsewhere
    signs = np.full(dim, -1.0)
    signs[:size] = 1.0

    plus = np.eye(dim, dtype=complex)
    for k, phi in enumerate(phases.phases):
        plus = plus * np.exp(1j * phi * signs)[None, :]  # M @ diag
        plus = plus @ (u if k % 2 == 0 else u.T.conj())
    return _signal_lcu(plus)


def _signal_lcu(plus: np.ndarray) -> np.ndarray:
    """The real-part signal qubit's LCU of the alternating product and its
    complex conjugate, the phase-negated twin, as the encoding is real."""
    dim = plus.shape[0]
    minus = plus.conj()
    re_part = 0.5 * (plus + minus)
    im_part = 0.5 * (plus - minus)
    full = np.empty((2 * dim, 2 * dim), dtype=complex)
    full[:dim, :dim] = re_part
    full[:dim, dim:] = im_part
    full[dim:, :dim] = im_part
    full[dim:, dim:] = re_part
    return full


# --- the dense Stage-1 LP ---------------------------------------------------

def minimax_lp(norm: float, degree: int):
    """The full minimax LP of one ladder rung as dense ``a_ub @ x <= b_ub``
    over x = (odd Chebyshev coefficients, error t): |P - scale * g| <= t on
    the window nodes, |P| <= GLOBAL_BOUND on the cap nodes."""
    lo = 1.0 / norm
    scale = min(1.0, 0.45 / qsvt.target_g(lo, norm))
    grid_w = qsvt._cheb_nodes(lo, 1.0, max(1200, 3 * degree))
    y_w = scale * qsvt.target_g(grid_w, norm)
    grid_c = np.concatenate([np.linspace(0.0, lo, max(400, 2 * degree)),
                             qsvt._cheb_nodes(lo, 1.0, max(400, 2 * degree))])
    cols = list(range(1, degree + 1, 2))
    vw = np_cheb.chebvander(grid_w, degree)[:, cols]
    vc = np_cheb.chebvander(grid_c, degree)[:, cols]
    k = len(cols)
    n_w, n_c = vw.shape[0], vc.shape[0]

    a_ub = np.zeros((2 * n_w + 2 * n_c, k + 1))
    b_ub = np.zeros(2 * n_w + 2 * n_c)
    a_ub[:n_w, :k] = vw
    a_ub[:n_w, k] = -1.0
    b_ub[:n_w] = y_w
    a_ub[n_w:2 * n_w, :k] = -vw
    a_ub[n_w:2 * n_w, k] = -1.0
    b_ub[n_w:2 * n_w] = -y_w
    a_ub[2 * n_w:2 * n_w + n_c, :k] = vc
    b_ub[2 * n_w:2 * n_w + n_c] = qsvt.GLOBAL_BOUND
    a_ub[2 * n_w + n_c:, :k] = -vc
    b_ub[2 * n_w + n_c:] = qsvt.GLOBAL_BOUND
    return a_ub, b_ub


def fit_minimax(norm: float, degree: int):
    """The rung's full LP solved whole by ``scipy.optimize.linprog``.

    Returns (coeffs, achieved_error) or None when the LP is infeasible.
    """
    a_ub, b_ub = minimax_lp(norm, degree)
    k = a_ub.shape[1] - 1
    cost = np.zeros(k + 1)
    cost[k] = 1.0
    bounds = [(None, None)] * k + [(0, None)]
    res = linprog(cost, A_ub=a_ub, b_ub=b_ub, bounds=bounds, method="highs")
    if not res.success:
        return None
    coeffs = np.zeros(degree + 1)
    coeffs[1::2] = res.x[:k]
    return coeffs, float(res.x[k])


def dense_walk(norm: float, eps: float):
    """``qsvt.approximate_target``'s degree walk with the dense full LP at
    every rung; returns the accepted rung's degree and its
    (coeffs, achieved_error)."""
    degree = max(1, int(0.25 * norm) | 1)
    while True:
        fit = fit_minimax(norm, degree)
        if fit is not None and fit[1] <= eps * qsvt.FIT_ACCEPT:
            return degree, fit
        degree = max(degree + 2, int(degree * 1.4) | 1)


# --- Step 4 through a flagged state per read -----------------------------

def comparator_tail_probability(state: StateVector, threshold_code: int,
                                mode: str = "exact", eps: float = 0.01,
                                rng=None) -> tuple[float, int]:
    """The tail read as a circuit: write the flag with
    ``risk.comparator_ucc`` and read Pr(flag = 0) from the flagged state,
    then, in sampled mode, run amplitude estimation on it."""
    flagged = risk.comparator_ucc(state, threshold_code)
    p0 = float(exact_distribution(flagged, risk.FLAG)[0])
    if mode == "exact":
        return p0, 1
    est = amplitude.estimate_amplitude(p0, eps, rng)
    return est.value, est.queries


def comparator_bisection_var(state_preparer, q: float, m: int,
                             mode: str = "exact", eps: float = 0.01,
                             rng=None) -> tuple[int, int, int]:
    """Bisection VaR whose every probe flags a fresh state; returns
    (code, iterations, queries) as ``risk.bisection_var`` does."""
    lo, hi = 0, 2**m - 1
    iterations = queries = 0
    while lo < hi:
        iterations += 1
        mid = (lo + hi) // 2
        p0, used = comparator_tail_probability(state_preparer(), mid, mode,
                                               eps, rng)
        queries += used
        if p0 >= q - risk.CDF_TOL:
            hi = mid
        else:
            lo = mid + 1
    return lo, iterations, queries


def state_swap_test(state_a: StateVector, state_b: StateVector,
                    mode: str = "exact", eps: float = 0.01,
                    rng=None) -> tuple[float, int]:
    """|<a|b>| by contraction over the common support, summed with
    ``math.fsum`` (exact), or the square root of an amplitude estimate of
    |<a|b>|^2, the compute-uncompute all-zeros probability (sampled)."""
    if state_a.layout.items() != state_b.layout.items():
        raise ConfigError("swap test requires identical register shapes")
    index_a, index_b = state_a.index, state_b.index
    at = np.minimum(np.searchsorted(index_b, index_a), index_b.size - 1)
    in_a = np.flatnonzero(index_b[at] == index_a)
    terms = np.conj(state_a.amplitudes[in_a]) * state_b.amplitudes[at[in_a]]
    overlap = abs(complex(math.fsum(terms.real), math.fsum(terms.imag)))
    if mode == "exact":
        return overlap, 1
    est = amplitude.estimate_amplitude(overlap**2, eps, rng)
    return math.sqrt(est.value), est.queries


def comparator_cvar(state: StateVector, psi_ref: StateVector, ref_norm: float,
                    threshold_code: int, L: int, scale: float, value_lookup,
                    mode: str = "exact", eps: float = 0.01,
                    rng=None) -> risk.CvarBreakdown:
    """The CVaR as a circuit at the VaR code: read the tail fraction, write
    the flag with ``risk.comparator_ucc``, uncompute the value with the
    XOR lookup ``value_lookup`` and contract against the reference."""
    p0, q_used = comparator_tail_probability(state, threshold_code, mode, eps,
                                             rng)
    if p0 <= 0.0:
        raise NumericalError("empty tail set: no branch at or below the VaR code")
    flagged = risk.comparator_ucc(state, threshold_code)
    phi3 = xor_write(flagged, "price", risk.VALUE_REG, value_lookup)
    raw, q_overlap = state_swap_test(psi_ref, phi3, mode, eps, rng)
    cvar_norm = raw * ref_norm / (p0 * math.sqrt(L))
    return risk.CvarBreakdown(
        cvar=cvar_norm * scale, cvar_normalized=cvar_norm,
        overlap=raw * ref_norm * math.sqrt(p0), overlap_raw=raw, p0=p0,
        queries=q_used + q_overlap)


# --- one binomial draw ----------------------------------------------------

def binomial(rng, n: int, p: float) -> int:
    """One Binomial(n, p) draw: p <= 0 and p >= 1 give 0 and n without a
    draw, else one ``rng.random()`` uniform is reduced by the masses of
    ``amplitude._walk(n, p)`` in walk order until it falls below 0, and the
    count reached is drawn, the count visited last if none is."""
    if p <= 0.0:
        return 0
    if p >= 1.0:
        return n
    counts, masses = amplitude._walk(n, p)
    u = rng.random()
    for count, mass in zip(counts, masses):
        u -= mass
        if u < 0.0:
            return count
    return counts[-1]


# --- the no-go pair's explicit trace norm --------------------------------

def explicit_trace_norm_gap(d: int, m: int) -> float:
    """The 1-norm of the difference of the m-copy projectors of
    |psi> = -sqrt((d-1)/d)|0...0> + sqrt(1/d)|1...1> and |phi> = |0...0>,
    evaluated in the two-dimensional span of the product states; the
    standard pure-state identity makes it exactly twice the analytic gap
    ``nogo.trace_norm_gap``.  Limited to d^m <= EXPLICIT_DIM_CAP, the
    product-space sizes the factor-of-2 checks range over."""
    if d**m > EXPLICIT_DIM_CAP:
        raise ConfigError(f"explicit gap limited to d^m <= {EXPLICIT_DIM_CAP}, "
                          f"got {d}^{m}")
    # Gram basis {psi^m, phi^m}: overlap g = <psi|phi>^m
    g = (-np.sqrt((d - 1.0) / d)) ** m
    # orthonormalize: phi^m = g psi^m + sqrt(1-g^2) e2
    comp = np.sqrt(max(0.0, 1.0 - g * g))
    p_psi = np.array([[1.0, 0.0], [0.0, 0.0]])
    vec_phi = np.array([g, comp])
    eig = np.linalg.eigvalsh(p_psi - np.outer(vec_phi, vec_phi))
    return float(np.abs(eig).sum())


def fit_linear_slope(curve) -> float:
    """Least-squares slope of min_copies against d."""
    d = np.array([row[0] for row in curve], dtype=float)
    m = np.array([row[1] for row in curve], dtype=float)
    slope = float(((d - d.mean()) * (m - m.mean())).sum() / ((d - d.mean()) ** 2).sum())
    return slope
