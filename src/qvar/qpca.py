"""Portfolio-distribution stage: the reduced density matrix, density-matrix
exponentiation, phase estimation and the square-root map.

The reduced density matrix.  Step 3 runs QPCA on rho = Tr_grid |psi2><psi2|
for the grid-information state psi2 = sum_j v_j |j> |code(S_j)>.  The grid
codes are distinct (``grid_codes`` rejects collisions), so rho is diagonal
in the price-code basis with |v_j|^2 at code(S_j).  ``reduced_rho`` returns
that spectrum as a float vector over the 2^p price codes, and phase
estimation and the value lookup read it directly; neither psi2 nor the
2^p-square matrix is built.  ``DensityMatrix`` remains for the general
swap-slice channel (``trotter_slice``, ``evolve_exp_rho``).

Fixed-point conventions.  Price registers carry plain m-fractional-bit
codes (code c means c / 2^m).  Eigenvalue and value registers carry a
half-scale code on m qubits: code c means 2c / 2^m, i.e. one integer bit
and m-1 fractional bits, so both an eigenvalue of exactly 1 and a
normalized value of exactly 1 are representable and the rounding error is
at most 2^-m.

QPE convention.  The controlled evolution loads phases e^{+i lambda l dt}
(the reverse-time sign of the usual e^{-i rho t}), so after the inverse
QFT the phase register reads code y ~ lambda * 2^m * dt / (2 pi); with the
default dt = pi the code is exactly the half-scale eigenvalue code and the
total evolution time N_qpe * dt = pi 2^m grows as O(2^m) with the target
precision.

Mode semantics.  ``exact_exponential`` evolves with the dense matrix
exponential (QPE stays a pure statevector circuit); ``trotterized``
composes swap-interaction slices with fresh copies of rho, which is a
channel, so trotterized phase estimation is reported as per-branch outcome
distributions rather than a statevector.  Each controlled e^{i rho dt} is
``n_trotter`` slices of length dt / n_trotter.  The per-slice deviation
from the exact exponential is second order in the slice length; the
accumulated deviation over a fixed total time is first order (slice count
times slice-length squared), and both are measured by the tests.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Literal

import numpy as np

from .errors import ConfigError, NumericalError
from .market import PriceGrid
from .mc import PathSet
from .qcore import (DensityMatrix, RegisterLayout, StateVector, apply_unitary,
                    exact_distribution, inverse_qft, xor_write)

PcaMode = Literal["exact_exponential", "trotterized"]


def price_code(values, m: int) -> np.ndarray:
    """Plain m-fractional-bit price codes, round to nearest, ties up."""
    return np.floor(np.asarray(values, dtype=float) * 2**m + 0.5).astype(np.int64)


def encode_value(x, m: int) -> np.ndarray:
    """Half-scale value code on m bits: code c represents 2c / 2^m."""
    code = np.floor(np.asarray(x, dtype=float) * 2 ** (m - 1) + 0.5).astype(np.int64)
    return np.clip(code, 0, 2**m - 1)


def decode_value(code, m: int):
    return np.asarray(code, dtype=float) / 2 ** (m - 1)


def grid_codes(grid: PriceGrid, m: int) -> np.ndarray:
    """Distinct price codes for all grid nodes; rejects collisions."""
    codes = price_code(grid.nodes, m)
    if len(set(codes.tolist())) != codes.size:
        dupes = sorted({int(c) for c in codes if np.sum(codes == c) > 1})
        raise ConfigError(
            f"grid nodes collide in {m}-bit fixed point (codes {dupes}); "
            "increase m or coarsen the grid")
    return codes


def price_register_width(grid: PriceGrid, m: int) -> int:
    return max(1, int(grid_codes(grid, m).max()).bit_length())


@dataclass(frozen=True)
class PcaJob:
    """Evolution and estimation parameters for the distribution stage."""

    m: int
    n_trotter: int = 16
    delta_t: float = np.pi
    n_qpe: int | None = None
    mode: PcaMode = "exact_exponential"

    def __post_init__(self):
        if self.m < 2:
            raise ConfigError(f"m must be >= 2, got {self.m}")
        if self.n_trotter < 1:
            raise ConfigError("n_trotter must be >= 1")
        if self.mode not in ("exact_exponential", "trotterized"):
            raise ConfigError(f"unknown mode {self.mode!r}")
        if self.n_qpe is None:
            object.__setattr__(self, "n_qpe", 2**self.m)

    @property
    def tau(self) -> float:
        """Total QPE evolution time N_qpe * delta_t = O(2^m)."""
        return self.n_qpe * self.delta_t


def snap_paths(paths: PathSet, grid: PriceGrid) -> np.ndarray:
    """Nearest grid node index for every path (ties round down)."""
    return np.array([grid.nearest_index(s) for s in paths.prices], dtype=np.int64)


def path_state_layout(paths: PathSet, grid: PriceGrid, m: int,
                      extra=()) -> RegisterLayout:
    regs = [("path", paths.index_qubits), ("price", price_register_width(grid, m)),
            ("value", m)]
    regs.extend(extra)
    return RegisterLayout(regs)


def prepare_path_state(paths: PathSet, grid: PriceGrid, m: int,
                       extra=()) -> StateVector:
    """Circuit twin of the scenario generator: the uniform path-index state
    with snapped price codes loaded, value register zeroed.  Sparse, with
    one stored amplitude per path."""
    layout = path_state_layout(paths, grid, m, extra)
    codes = grid_codes(grid, m)[snap_paths(paths, grid)]
    index = ((np.arange(paths.L, dtype=np.int64) << layout.shift_of("path"))
             | (codes << layout.shift_of("price")))
    amps = np.full(paths.L, 1.0 / np.sqrt(paths.L), dtype=complex)
    return StateVector(amps, layout, index)


def reduced_rho(value_state: StateVector, grid: PriceGrid, m: int) -> np.ndarray:
    """The spectrum of rho = Tr_grid |psi2><psi2| over price codes, for the
    grid-information state psi2 = sum_j v_j |j> |code(S_j)>.

    The grid codes are distinct, so the grid index is a function of the
    price code and rho is diagonal in the code basis: the result holds
    |v_j|^2 at code(S_j) and zero at every other code of the price register.
    """
    if value_state.num_qubits != grid.n:
        raise ConfigError("value state must live on the grid register")
    v = value_state.amplitudes
    p = np.zeros(2 ** price_register_width(grid, m))
    p[grid_codes(grid, m)[value_state.support]] = v.real**2 + v.imag**2
    return p


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
                   job: PcaJob) -> DensityMatrix:
    """Evolve sigma under e^{-i rho tau}, exactly or by swap slices."""
    if sigma.entries.shape != rho.entries.shape:
        raise ConfigError("sigma and rho must act on the same register")
    if job.mode == "exact_exponential":
        from scipy.linalg import expm
        u = expm(-1j * tau * rho.entries)
        return DensityMatrix(u @ sigma.entries @ u.conj().T)
    dt = tau / job.n_trotter
    out = sigma
    for _ in range(job.n_trotter):
        out = trotter_slice(rho, out, dt)
    return out


def _hadamard_all(width: int) -> np.ndarray:
    h = np.array([[1.0, 1.0], [1.0, -1.0]]) / np.sqrt(2.0)
    out = np.array([[1.0]])
    for _ in range(width):
        out = np.kron(out, h)
    return out


def qpe_write_eigenvalues(state: StateVector, rho: np.ndarray, job: PcaJob,
                          price: str = "price", phase: str = "value") -> StateVector:
    """Coherent phase estimation writing eigenvalue codes of rho, given as
    its spectrum over price codes (``reduced_rho``).

    Price-register basis states are rho eigenstates (diagonal rho), so the
    controlled evolution is a pure phase load followed by the inverse QFT.
    Only the exact-exponential mode yields a statevector; the trotterized
    channel is analyzed through ``qpe_branch_distributions``.  The QFTs
    entangle the phase register with the branches, so a sparse input is
    expanded and the result is dense.
    """
    if job.mode != "exact_exponential":
        raise ConfigError("coherent QPE requires exact_exponential mode; "
                          "use qpe_branch_distributions for the trotterized channel")
    layout = state.layout
    m = layout.width_of(phase)
    if job.m != m:
        raise ConfigError("job.m does not match the phase register width")
    if state.index is not None:
        amps = np.zeros(2**layout.total_qubits, dtype=complex)
        amps[state.index] = state.amplitudes
        state = StateVector(amps, layout)
    price_vals = layout.values(price)
    populated = np.unique(price_vals[np.abs(state.amplitudes) > 1e-14])
    if populated.size and populated.max() >= rho.size:
        bad = [int(c) for c in populated if c >= rho.size]
        raise NumericalError(f"price codes {bad} lie outside rho's register")
    if exact_distribution(state, phase)[0] < 1.0 - 1e-10:
        raise ConfigError("phase register must be zeroed before QPE")

    out = apply_unitary(state, _hadamard_all(m), phase, check=False)
    l_vals = layout.values(phase)
    phases = rho[price_vals] * l_vals * job.delta_t
    out = StateVector(out.amplitudes * np.exp(1j * phases), layout)
    return inverse_qft(out, phase)


def qpe_modal_estimates(state: StateVector, price: str = "price",
                        phase: str = "value") -> dict[int, float]:
    """Most likely eigenvalue estimate per populated price code."""
    layout = state.layout
    m = layout.width_of(phase)
    probs = np.abs(state.amplitudes) ** 2
    price_vals = layout.values(price)
    phase_vals = layout.values(phase)
    estimates: dict[int, float] = {}
    for code in np.unique(price_vals[probs > 1e-14]):
        mask = price_vals == code
        hist = np.bincount(phase_vals[mask], weights=probs[mask], minlength=2**m)
        estimates[int(code)] = float(decode_value(int(np.argmax(hist)), m))
    return estimates


def qpe_branch_distributions(branch_codes, rho: np.ndarray,
                             job: PcaJob) -> dict[int, np.ndarray]:
    """Phase-register outcome distribution per branch price code, for rho
    given as its spectrum p over price codes (``reduced_rho``).

    Works in the diagonal operator basis, where the swap-interaction
    channel acts in closed form.  Each controlled power of e^{i rho dt} is
    ``n_trotter`` slices of length dt / n_trotter.  Between phase-register
    branches l <= l', the l * n_trotter shared slices act two-sided and mix
    the branch projector toward rho at rate cos^2 per slice; the
    (l' - l) * n_trotter excess slices act one-sided and multiply code b's
    coefficient by (cos + i sin p_b) per slice.  The exact mode reproduces
    the textbook QPE kernel.
    """
    n = job.n_qpe
    dt = job.delta_t
    ls = np.arange(n)
    fourier = np.exp(2j * np.pi * np.outer(np.arange(n), ls) / n) / np.sqrt(n)
    out: dict[int, np.ndarray] = {}
    if job.mode == "exact_exponential":
        for b in np.unique(np.asarray(branch_codes, dtype=np.int64)):
            kernel = np.exp(1j * rho[b] * dt * ls) / np.sqrt(n)
            amp = fourier.conj() @ kernel  # inverse QFT of the phase load
            out[int(b)] = np.abs(amp) ** 2
        return out

    slices = ls * job.n_trotter  # slice count of each controlled power
    c, s = np.cos(dt / job.n_trotter), np.sin(dt / job.n_trotter)
    one_sided = c + 1j * s * rho  # per-code factor for a left-only slice
    pow_one = one_sided[None, :] ** slices[:, None]  # [j, code]
    phi = pow_one @ rho  # sum_b p_b (c + i s p_b)^(j n_trotter)
    c2l = (c * c) ** slices
    for b in np.unique(np.asarray(branch_codes, dtype=np.int64)):
        mat = np.empty((n, n), dtype=complex)
        for l in range(n):
            for lp in range(l, n):
                k, j = l, lp - l  # two-sided count, one-sided excess
                val = (c2l[k] * pow_one[j, b] + (1.0 - c2l[k]) * phi[j]) / n
                mat[lp, l] = val
                mat[l, lp] = np.conj(val)
        red = fourier.conj().T @ mat @ fourier
        out[int(b)] = np.abs(np.diag(red).real)
    return out


def sqrt_code_table(m: int) -> np.ndarray:
    """Eigenvalue code -> value code under the square root, both half-scale."""
    lam = decode_value(np.arange(2**m), m)
    return encode_value(np.sqrt(lam), m)


def sqrt_register(state: StateVector, source: str, target: str) -> StateVector:
    """|lam>|z> -> |lam>|z XOR code(sqrt(lam))>.

    The bare code map is not injective, so the reversible form writes into
    an auxiliary register; callers clear the source afterwards by undoing
    the phase estimation that produced it.
    """
    m = state.layout.width_of(source)
    if state.layout.width_of(target) != m:
        raise ConfigError("source and target registers must share the width")
    return xor_write(state, source, target, sqrt_code_table(m))


def value_code_table(rho: np.ndarray, m: int) -> np.ndarray:
    """Price code -> value code sqrt(eigenvalue), the infinite-precision
    limit of phase estimation followed by the square root, for rho given
    as its spectrum over price codes (``reduced_rho``)."""
    return encode_value(np.sqrt(rho), m)


@dataclass(frozen=True)
class BranchRow:
    """Per-branch summary of the assembled portfolio state."""

    k: int
    snapped_price: float
    value: float  # decoded value-register content
    oracle: float  # classical normalized lookup
    error: float


@dataclass
class AssembleResult:
    state: StateVector | None
    branches: list[BranchRow]
    value_table: np.ndarray  # price code -> value code
    rho: np.ndarray  # rho's spectrum over price codes
    node_index: np.ndarray  # path -> snapped grid node
    mode: PcaMode
    trotter_distance: float | None = None


def assemble_portfolio_state(paths: PathSet, value_state: StateVector,
                             grid: PriceGrid, job: PcaJob) -> AssembleResult:
    """Attach option-value codes to every scenario branch.

    Exact mode applies the spectral value lookup (the infinite-time limit
    of QPCA phase estimation and the square root) as a reversible XOR
    write, leaving a pure statevector.  Trotterized mode reports the
    per-branch modal codes of the finite-slice channel instead.
    """
    m = job.m
    codes = grid_codes(grid, m)
    node_idx = snap_paths(paths, grid)
    rho = reduced_rho(value_state, grid, m)
    table = value_code_table(rho, m)

    v = np.abs(value_state.amplitudes)
    oracle = v / np.linalg.norm(v)

    rows = []
    state = None
    trotter_distance = None
    if job.mode == "exact_exponential":
        state = prepare_path_state(paths, grid, m)
        state = xor_write(state, "price", "value", table)
        for k in range(paths.L):
            j = int(node_idx[k])
            val = float(decode_value(table[codes[j]], m))
            rows.append(BranchRow(k, float(grid.nodes[j]), val, float(oracle[j]),
                                  abs(val - float(oracle[j]))))
    else:
        branch_codes = codes[node_idx]
        dists = qpe_branch_distributions(branch_codes, rho, job)
        exact = qpe_branch_distributions(
            branch_codes, rho,
            PcaJob(m=m, n_trotter=job.n_trotter, delta_t=job.delta_t,
                   n_qpe=job.n_qpe, mode="exact_exponential"))
        sqrt_map = sqrt_code_table(m)
        worst = 0.0
        for k in range(paths.L):
            j = int(node_idx[k])
            dist = dists[int(codes[j])]
            modal = int(np.argmax(dist))
            val = float(decode_value(sqrt_map[modal], m))
            rows.append(BranchRow(k, float(grid.nodes[j]), val, float(oracle[j]),
                                  abs(val - float(oracle[j]))))
            worst = max(worst, float(np.abs(dist - exact[int(codes[j])]).sum()) / 2)
        trotter_distance = worst
    return AssembleResult(state=state, branches=rows, value_table=table, rho=rho,
                          node_index=node_idx, mode=job.mode,
                          trotter_distance=trotter_distance)


def perturb_state(state: StateVector, eps: float, rng) -> StateVector:
    """A state at exact l2 distance eps from the input (eps <= sqrt(2))."""
    dim = state.amplitudes.size
    direction = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    direction -= np.vdot(state.amplitudes, direction) * state.amplitudes
    direction /= np.linalg.norm(direction)
    # chord length eps on the unit sphere
    theta = 2.0 * np.arcsin(min(1.0, eps / 2.0))
    amps = np.cos(theta) * state.amplitudes + np.sin(theta) * direction
    return StateVector(amps, state.layout)
