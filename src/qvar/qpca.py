"""Portfolio-distribution stage (Step 3): rho's spectrum, phase estimation
and the square-root map, in closed form.

The reduced density matrix.  Step 3 runs QPCA on rho = Tr_grid |psi2><psi2|
for the grid-information state psi2 = sum_j v_j |j> |code(S_j)>.  The grid
codes are distinct (``grid_codes`` rejects collisions), so rho is diagonal
in the price-code basis with |v_j|^2 at code(S_j).  ``reduced_rho`` returns
that spectrum as a float vector over the 2^p price codes, and phase
estimation and the value lookup read it directly; neither psi2 nor the
2^p-square matrix is built.

One Step-3 path.  Production Step 3 is the infinite-precision limit of
QPCA followed by the square root: the lookup table ``value_code_table``,
applied to the scenario state as one reversible XOR write, on m-bit
registers with the fixed QPE_DT and 2^m controlled powers below.  The
finite-precision circuit is evaluated in closed form per branch by the
two QPE kernels, which ``assemble --mode trotter`` reads.  The coherent circuits these closed forms stand for (dense QPE,
the swap-slice channel, the reversible square root) are test references
and live with the tests.

Fixed-point conventions.  Price registers carry plain m-fractional-bit
codes (code c means c / 2^m).  Eigenvalue and value registers carry a
half-scale code on m qubits: code c means 2c / 2^m, i.e. one integer bit
and m-1 fractional bits, so both an eigenvalue of exactly 1 and a
normalized value of exactly 1 are representable and the rounding error is
at most 2^-m.

QPE convention.  The controlled evolution loads phases e^{+i lambda l dt}
(the reverse-time sign of the usual e^{-i rho t}), so after the inverse
QFT the phase register reads code y ~ lambda * 2^m * dt / (2 pi); with
dt = QPE_DT = pi the code is exactly the half-scale eigenvalue code and
the N_qpe = 2^m controlled powers give a total evolution time
N_qpe * dt = pi 2^m that grows as O(2^m) with the target precision.

Kernel semantics.  ``qpe_exact_distributions`` evolves with the exact
matrix exponential and reproduces the textbook QPE kernel.
``qpe_trotter_distributions`` composes swap-interaction slices with fresh
copies of rho, which is a channel, so trotterized phase estimation is
reported as per-branch outcome distributions; each controlled e^{i rho dt}
is ``n_trotter`` slices of length dt / n_trotter.  ``trotter_values``
certifies the slice count: it doubles it from 16 until every branch lies
within total-variation distance TROTTER_DISTANCE_TOL of the exact kernel,
and raises ``NumericalError`` past TROTTER_SLICE_CAP slices.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, NumericalError
from .market import PriceGrid
from .mc import PathSet
from .qcore import RegisterLayout, StateVector, xor_write

# snap_paths holds at most this many path-node distances at once
SNAP_BLOCK = 2**20
# evolution time of each controlled power of e^{i rho dt}
QPE_DT = np.pi
# trotter_values doubles the slice count from 16 until the worst branch's
# total-variation distance to the exact kernel is at most
# TROTTER_DISTANCE_TOL, and gives up past TROTTER_SLICE_CAP slices
TROTTER_DISTANCE_TOL = 0.1
TROTTER_SLICE_CAP = 2**16


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
    """Distinct price codes for all grid nodes; rejects collisions and
    codes too wide for int64."""
    s_max = float(grid.nodes[-1])
    width = math.frexp(s_max)[1] + m  # bits of floor(s_max * 2^m)
    if width > 63:
        raise ConfigError(
            f"s_max = {s_max} at m = {m} needs a {width}-bit price code, past "
            "the 63 bits of a signed 64-bit integer; decrease m or s_max")
    codes = price_code(grid.nodes, m)
    if len(set(codes.tolist())) != codes.size:
        dupes = sorted({int(c) for c in codes if np.sum(codes == c) > 1})
        raise ConfigError(
            f"grid nodes collide in {m}-bit fixed point (codes {dupes}); "
            "increase m or coarsen the grid")
    return codes


def price_register_width(grid: PriceGrid, m: int) -> int:
    return max(1, int(grid_codes(grid, m).max()).bit_length())


def snap_paths(paths: PathSet, grid: PriceGrid) -> np.ndarray:
    """Nearest grid node index for every path, as ``PriceGrid.nearest_index``
    gives it: prices clamped to the grid first, ties to the lower node
    (``argmin`` returns the first minimum)."""
    nodes = grid.nodes
    prices = np.clip(paths.prices, nodes[0], nodes[-1])
    out = np.empty(prices.size, dtype=np.int64)
    rows = max(1, SNAP_BLOCK // nodes.size)
    for lo in range(0, prices.size, rows):
        block = prices[lo:lo + rows, None]
        out[lo:lo + rows] = np.argmin(np.abs(nodes - block), axis=1)
    return out


def scenario_layout(paths: PathSet, grid: PriceGrid, m: int) -> RegisterLayout:
    """The path, price and value registers of the scenario state; building
    the layout checks their width against the qubit budget."""
    return RegisterLayout([("path", paths.index_qubits),
                           ("price", price_register_width(grid, m)),
                           ("value", m)])


def prepare_path_state(paths: PathSet, grid: PriceGrid, m: int,
                       node_index: np.ndarray) -> StateVector:
    """Circuit twin of the scenario generator: the uniform path-index state
    with the price codes of the snapped nodes ``node_index`` loaded, value
    register zeroed.  Sparse, with one stored amplitude per path."""
    layout = scenario_layout(paths, grid, m)
    codes = grid_codes(grid, m)[node_index]
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


def _qft(m: int) -> np.ndarray:
    """The QFT on the 2^m-outcome phase register, as a matrix."""
    ls = np.arange(2**m)
    return np.exp(2j * np.pi * np.outer(ls, ls) / 2**m) / np.sqrt(2**m)


def qpe_exact_distributions(branch_codes, rho: np.ndarray,
                            m: int) -> dict[int, np.ndarray]:
    """Phase-register outcome distribution per branch price code under
    exact-exponential QPE, the textbook kernel, for rho given as its
    spectrum p over price codes (``reduced_rho``)."""
    n = 2**m
    ls = np.arange(n)
    inverse = _qft(m).conj()
    out: dict[int, np.ndarray] = {}
    for b in np.unique(np.asarray(branch_codes, dtype=np.int64)):
        kernel = np.exp(1j * rho[b] * QPE_DT * ls) / np.sqrt(n)
        amp = inverse @ kernel  # inverse QFT of the phase load
        out[int(b)] = np.abs(amp) ** 2
    return out


def qpe_trotter_distributions(branch_codes, rho: np.ndarray, m: int,
                              n_trotter: int) -> dict[int, np.ndarray]:
    """Phase-register outcome distribution per branch price code under
    trotterized QPE, with each controlled power of e^{i rho dt} made of
    ``n_trotter`` slices of length dt / n_trotter.

    Works in the diagonal operator basis, where the swap-interaction
    channel acts in closed form.  Between phase-register branches l <= l',
    the l * n_trotter shared slices act two-sided and mix the branch
    projector toward rho at rate cos^2 per slice; the (l' - l) * n_trotter
    excess slices act one-sided and multiply code b's coefficient by
    (cos + i sin p_b) per slice.
    """
    n = 2**m
    ls = np.arange(n)
    fourier = _qft(m)
    slices = ls * n_trotter  # slice count of each controlled power
    c, s = np.cos(QPE_DT / n_trotter), np.sin(QPE_DT / n_trotter)
    one_sided = c + 1j * s * rho  # per-code factor for a left-only slice
    pow_one = one_sided[None, :] ** slices[:, None]  # [j, code]
    phi = pow_one @ rho  # sum_b p_b (c + i s p_b)^(j n_trotter)
    c2l = (c * c) ** slices
    # pairs l <= l' of phase-register branches: k = l shared slices
    # (two-sided), j = l' - l excess slices (one-sided)
    l, lp = np.triu_indices(n)
    k, j = l, lp - l
    out: dict[int, np.ndarray] = {}
    for b in np.unique(np.asarray(branch_codes, dtype=np.int64)):
        val = (c2l[k] * pow_one[j, b] + (1.0 - c2l[k]) * phi[j]) / n
        mat = np.empty((n, n), dtype=complex)
        mat[lp, l] = val
        mat[l, lp] = np.conj(val)  # on the diagonal the conjugate is kept
        red = fourier.conj().T @ mat @ fourier
        out[int(b)] = np.abs(np.diag(red).real)
    return out


def sqrt_code_table(m: int) -> np.ndarray:
    """Eigenvalue code -> value code under the square root, both half-scale."""
    lam = decode_value(np.arange(2**m), m)
    return encode_value(np.sqrt(lam), m)


def value_code_table(rho: np.ndarray, m: int) -> np.ndarray:
    """Price code -> value code sqrt(eigenvalue), the infinite-precision
    limit of phase estimation followed by the square root, for rho given
    as its spectrum over price codes (``reduced_rho``)."""
    return encode_value(np.sqrt(rho), m)


@dataclass
class AssembleResult:
    """The assembled portfolio state and its per-branch columns: path k
    snaps to grid node ``node_index[k]`` and reads ``value[k]`` from its
    value register, against the classical normalized lookup ``oracle[k]``."""

    state: StateVector
    value_table: np.ndarray  # price code -> value code
    node_index: np.ndarray  # path -> snapped grid node
    value: np.ndarray  # path -> decoded value-register content
    oracle: np.ndarray  # path -> classical normalized lookup


def assemble_portfolio_state(paths: PathSet, value_state: StateVector,
                             grid: PriceGrid, m: int,
                             node_index: np.ndarray | None = None) -> AssembleResult:
    """Attach option-value codes to every scenario branch.

    ``node_index`` is the paths' ``snap_paths`` result, computed here when
    the caller has not.  The spectral value lookup (the infinite-time limit
    of QPCA phase estimation and the square root) is applied as a
    reversible XOR write, leaving a pure statevector; building the scenario
    state checks its registers against the qubit budget.
    """
    if node_index is None:
        node_index = snap_paths(paths, grid)
    path_state = prepare_path_state(paths, grid, m, node_index)
    table = value_code_table(reduced_rho(value_state, grid, m), m)
    v = np.abs(value_state.amplitudes)
    return AssembleResult(
        state=xor_write(path_state, "price", "value", table), value_table=table,
        node_index=node_index,
        value=decode_value(table[grid_codes(grid, m)[node_index]], m),
        oracle=(v / np.linalg.norm(v))[node_index])


def trotter_values(value_state: StateVector, grid: PriceGrid, m: int,
                   node_index: np.ndarray) -> np.ndarray:
    """Per-branch values read from the modal codes of trotterized QPE
    followed by the square root, at a certified slice count.

    The exact kernel is evaluated once; the slice count doubles from 16
    until every branch's outcome distribution lies within total-variation
    distance TROTTER_DISTANCE_TOL of it, and ``NumericalError`` names the
    distance reached past TROTTER_SLICE_CAP slices.
    """
    rho = reduced_rho(value_state, grid, m)
    branch_codes = grid_codes(grid, m)[node_index]
    exact = qpe_exact_distributions(branch_codes, rho, m)
    n_trotter = 16
    while True:
        dists = qpe_trotter_distributions(branch_codes, rho, m, n_trotter)
        distance = max(float(np.abs(dist - exact[b]).sum()) / 2
                       for b, dist in dists.items())
        if distance <= TROTTER_DISTANCE_TOL:
            break
        if n_trotter >= TROTTER_SLICE_CAP:
            raise NumericalError(
                f"trotter distance {distance:.3g} exceeds "
                f"{TROTTER_DISTANCE_TOL} at {n_trotter} slices "
                f"(cap {TROTTER_SLICE_CAP})")
        n_trotter *= 2
    modal = {b: int(np.argmax(dist)) for b, dist in dists.items()}
    return decode_value(
        sqrt_code_table(m)[[modal[b] for b in branch_codes.tolist()]], m)
