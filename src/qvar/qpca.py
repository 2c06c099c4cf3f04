"""Portfolio-distribution stage (Step 3): rho's spectrum, phase estimation
and the square-root map, in closed form.

The reduced density matrix.  Step 3 runs QPCA on rho = Tr_grid |psi2><psi2|
for the grid-information state psi2 = sum_j v_j |j> |code(S_j)>.  The grid
codes are distinct (``grid_codes`` rejects collisions), so rho is diagonal
in the price-code basis with |v_j|^2 at code(S_j) and zero at every code
that is no node's: its spectrum lives on the 2^n grid nodes.
``reduced_rho`` returns it per node, and phase estimation, the trotter
kernel and the value codes index it by node.  Only the XOR writes read the
price register, through ``value_lookup``, which finds a code's node by
binary search over the increasing grid codes.  Neither psi2, the
2^p-square matrix nor any vector over the 2^p price codes is built.

One Step-3 path.  Production Step 3 is the infinite-precision limit of
QPCA followed by the square root: the per-node value codes
``value_code_table``, written into the scenario state as one reversible
XOR, on m-bit registers with the fixed QPE_DT and 2^m controlled powers
below.  The finite-precision circuit is evaluated in closed form per
branch by the two QPE kernels, which ``assemble --mode trotter`` reads.
The coherent circuits these closed forms stand for (dense QPE, the
swap-slice channel, the reversible square root) are test references and
live with the tests.

Fixed-point conventions.  Price registers carry plain m-fractional-bit
codes (``market.price_code``; code c means c / 2^m).  Eigenvalue and value
registers carry a half-scale code on m qubits: code c means 2c / 2^m, i.e.
one integer bit and m-1 fractional bits, so both an eigenvalue of exactly
1 and a normalized value of exactly 1 are representable and the rounding
error is at most 2^-m.

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
is ``n_trotter`` slices of length dt / n_trotter.  Both kernels are one
FFT per branch over a 2^m-long vector, the phase load or the summed
coherences of the phase register, so neither holds a 2^m-square array and
the m-qubit value register is all the qubit budget counts.  ``trotter_values``
certifies the slice count: it doubles it from 16 until every branch lies
within total-variation distance TROTTER_DISTANCE_TOL of the exact kernel,
and raises ``NumericalError`` past TROTTER_SLICE_CAP slices.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import ConfigError, NumericalError
from .market import PriceGrid, price_code
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


def encode_value(x, m: int) -> np.ndarray:
    """Half-scale value code on m bits: code c represents 2c / 2^m."""
    code = np.floor(np.asarray(x, dtype=float) * 2 ** (m - 1) + 0.5).astype(np.int64)
    return np.clip(code, 0, 2**m - 1)


def decode_value(code, m: int):
    return np.asarray(code, dtype=float) / 2 ** (m - 1)


def grid_codes(grid: PriceGrid, m: int) -> np.ndarray:
    """The grid nodes' m-bit price codes, strictly increasing; rejects
    collisions, and ``price_code`` rejects codes too wide for int64."""
    codes = price_code(grid.nodes, m)
    tied = np.diff(codes) == 0  # rounding keeps the nodes' order
    if np.any(tied):
        raise ConfigError(
            f"grid nodes collide in {m}-bit fixed point (codes "
            f"{sorted(set(codes[1:][tied].tolist()))}); "
            "increase m or coarsen the grid")
    return codes


def price_register_width(codes: np.ndarray) -> int:
    """Qubits of the price register: the bits of the last, largest of the
    increasing ``grid_codes``."""
    return max(1, int(codes[-1]).bit_length())


def snap_paths(paths: PathSet, grid: PriceGrid) -> np.ndarray:
    """Nearest grid node index for every path, ties to the lower node
    (``argmin`` returns the first minimum).  Prices are clamped to the grid
    first: far beyond it every node distance rounds to the same float, and
    that tie would pick node 0."""
    nodes = grid.nodes
    prices = np.clip(paths.prices, nodes[0], nodes[-1])
    out = np.empty(prices.size, dtype=np.int64)
    rows = max(1, SNAP_BLOCK // nodes.size)
    for lo in range(0, prices.size, rows):
        block = prices[lo:lo + rows, None]
        out[lo:lo + rows] = np.argmin(np.abs(nodes - block), axis=1)
    return out


def scenario_layout(paths: PathSet, codes: np.ndarray, m: int) -> RegisterLayout:
    """The path, price and value registers of the scenario state for the
    grid's ``grid_codes``; building the layout checks their width against
    the qubit budget."""
    return RegisterLayout([("path", paths.index_qubits),
                           ("price", price_register_width(codes)),
                           ("value", m)])


def prepare_path_state(paths: PathSet, codes: np.ndarray, m: int,
                       node_index: np.ndarray) -> StateVector:
    """Circuit twin of the scenario generator: the uniform path-index state
    with the price codes ``codes`` of the snapped nodes ``node_index``
    loaded, value register zeroed.  Sparse, with one stored amplitude per
    path."""
    layout = scenario_layout(paths, codes, m)
    index = ((np.arange(paths.L, dtype=np.int64) << layout.shift_of("path"))
             | (codes[node_index] << layout.shift_of("price")))
    amps = np.full(paths.L, 1.0 / np.sqrt(paths.L), dtype=complex)
    return StateVector(amps, layout, index)


def reduced_rho(value_state: np.ndarray, grid: PriceGrid) -> np.ndarray:
    """The spectrum of rho = Tr_grid |psi2><psi2| per grid node, for the
    grid-information state psi2 = sum_j v_j |j> |code(S_j)> of the 2^n
    grid amplitudes ``value_state``.

    The grid codes are distinct, so the grid index is a function of the
    price code and rho is diagonal in the code basis, with |v_j|^2 at
    code(S_j) and zero at every code that is no node's: entry j of the
    result is |v_j|^2.
    """
    v = np.asarray(value_state)
    if v.shape != (2**grid.n,):
        raise ConfigError(f"value state must hold the 2^{grid.n} grid "
                          f"amplitudes")
    return v.real**2 + v.imag**2


def qpe_exact_distributions(branch_nodes, rho: np.ndarray,
                            m: int) -> dict[int, np.ndarray]:
    """Phase-register outcome distribution per branch grid node under
    exact-exponential QPE, the textbook kernel, for rho given as its
    spectrum p per grid node (``reduced_rho``): the inverse QFT of the
    phase load e^{i p_b dt l} / sqrt(2^m), as one FFT."""
    n = 2**m
    ls = np.arange(n)
    out: dict[int, np.ndarray] = {}
    for b in np.unique(np.asarray(branch_nodes, dtype=np.int64)):
        load = np.exp(1j * rho[b] * QPE_DT * ls) / np.sqrt(n)
        out[int(b)] = np.abs(np.fft.fft(load) / np.sqrt(n)) ** 2
    return out


def qpe_trotter_distributions(branch_nodes, rho: np.ndarray, m: int,
                              n_trotter: int) -> dict[int, np.ndarray]:
    """Phase-register outcome distribution per branch grid node under
    trotterized QPE, with each controlled power of e^{i rho dt} made of
    ``n_trotter`` slices of length dt / n_trotter.

    Works in the diagonal operator basis, where the swap-interaction
    channel acts in closed form.  Between phase-register branches l <= l',
    the k n_trotter shared slices, k = l, act two-sided and mix the branch
    projector toward rho at rate cos^2 per slice; the j n_trotter excess
    slices, j = l' - l, act one-sided and multiply node b's coefficient by
    (cos + i sin p_b) per slice.  The coherence of the pair (l, l') is

        (c2l[k] pow_b[j] + (1 - c2l[k]) phi[j]) / 2^m,

    with c2l[k] = cos^(2 k n_trotter), pow_b[j] = (cos + i sin p_b)^(j
    n_trotter) and phi[j] = sum_b p_b pow_b[j].  The inverse QFT's
    diagonal sums each diagonal j of that Hermitian matrix against
    e^{-2 pi i j y / 2^m}, so with S_j the sum over the 2^m - j pairs of
    diagonal j, the outcome distribution is (2 Re FFT(S)_y - S_0) / 2^m.
    """
    n = 2**m
    slices = np.arange(n) * n_trotter  # slice count of each controlled power
    c, s = np.cos(QPE_DT / n_trotter), np.sin(QPE_DT / n_trotter)
    # per-node factor of a left-only slice, as log-magnitude and angle
    log_one_sided = np.log(c + 1j * s * rho)

    def powers(b):  # pow_b[j] for every j
        return np.exp(slices * log_one_sided[b])

    phi = np.zeros(n, dtype=complex)
    for b in np.flatnonzero(rho):
        phi += rho[b] * powers(b)
    # over the 2^m - j pairs of diagonal j: C_j = sum_{k < 2^m - j} c2l[k]
    # weighs pow_b[j], and the rest weighs phi[j]
    shared = np.cumsum((c * c) ** slices)[::-1]
    mixed = n - np.arange(n) - shared
    out: dict[int, np.ndarray] = {}
    for b in np.unique(np.asarray(branch_nodes, dtype=np.int64)):
        sums = (powers(b) * shared + phi * mixed) / n
        out[int(b)] = np.abs(2.0 * np.fft.fft(sums).real - sums[0].real) / n
    return out


def sqrt_code_table(m: int) -> np.ndarray:
    """Eigenvalue code -> value code under the square root, both half-scale."""
    lam = decode_value(np.arange(2**m), m)
    return encode_value(np.sqrt(lam), m)


def value_code_table(rho: np.ndarray, m: int) -> np.ndarray:
    """Grid node -> value code sqrt(eigenvalue), the infinite-precision
    limit of phase estimation followed by the square root, for rho given
    as its spectrum per grid node (``reduced_rho``)."""
    return encode_value(np.sqrt(rho), m)


def value_lookup(codes: np.ndarray, value_codes: np.ndarray) -> Callable:
    """Price code -> value code, the lookup of the value register's XOR
    writes: a grid code reads its node's entry of ``value_codes``, found by
    binary search over the increasing ``grid_codes``, and a code that is no
    node's reads 0, as rho has no weight there."""
    last = codes.size - 1

    def lookup(price):
        node = np.minimum(np.searchsorted(codes, price), last)
        return np.where(codes[node] == price, value_codes[node], 0)

    return lookup


@dataclass
class AssembleResult:
    """The assembled portfolio state and its per-branch columns: path k
    snaps to grid node ``node_index[k]``, sits at basis index
    ``path_support[k]`` before the value write and reads ``value[k]`` from
    its value register, against the classical normalized lookup
    ``oracle[k]``."""

    state: StateVector
    lookup: Callable  # price code -> value code (``value_lookup``)
    node_index: np.ndarray  # path -> snapped grid node
    path_support: np.ndarray  # path -> basis index, value register zeroed
    value: np.ndarray  # path -> decoded value-register content
    oracle: np.ndarray  # path -> classical normalized lookup


def assemble_portfolio_state(paths: PathSet, value_state: np.ndarray,
                             grid: PriceGrid, m: int, node_index: np.ndarray,
                             codes: np.ndarray) -> AssembleResult:
    """Attach option-value codes to every scenario branch.

    ``value_state`` holds Stage 1's 2^n grid amplitudes, ``node_index`` is
    the paths' ``snap_paths`` result and ``codes`` the grid's
    ``grid_codes``, both derived once per request.  The spectral
    value lookup (the infinite-time limit of QPCA phase estimation and the
    square root) is applied as a reversible XOR write, leaving a pure
    statevector; building the scenario state checks its registers against
    the qubit budget.
    """
    path_state = prepare_path_state(paths, codes, m, node_index)
    value_codes = value_code_table(reduced_rho(value_state, grid), m)
    lookup = value_lookup(codes, value_codes)
    v = np.abs(value_state)
    return AssembleResult(
        state=xor_write(path_state, "price", "value", lookup),
        lookup=lookup, node_index=node_index, path_support=path_state.index,
        value=decode_value(value_codes[node_index], m),
        oracle=(v / np.linalg.norm(v))[node_index])


def trotter_values(value_state: np.ndarray, grid: PriceGrid, m: int,
                   node_index: np.ndarray) -> np.ndarray:
    """Per-branch values read from the modal codes of trotterized QPE
    followed by the square root, at a certified slice count.

    The exact kernel is evaluated once; the slice count doubles from 16
    until every branch's outcome distribution lies within total-variation
    distance TROTTER_DISTANCE_TOL of it, and ``NumericalError`` names the
    distance reached past TROTTER_SLICE_CAP slices.
    """
    rho = reduced_rho(value_state, grid)
    exact = qpe_exact_distributions(node_index, rho, m)
    n_trotter = 16
    while True:
        dists = qpe_trotter_distributions(node_index, rho, m, n_trotter)
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
        sqrt_code_table(m)[[modal[b] for b in node_index.tolist()]], m)
