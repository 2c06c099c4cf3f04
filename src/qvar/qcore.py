"""Desk-scale statevector simulator with named fixed-point registers.

Amplitude ordering convention: register 0 (the first register in the
layout) is most significant.  A register at qubit offset ``o`` with width
``w`` in a ``q``-qubit layout reads value ``(i >> (q - o - w)) & (2^w - 1)``
from basis index ``i``.  This convention is fixed here and used everywhere.

A ``StateVector`` takes one of two forms.  The dense form stores all 2^q
amplitudes in basis order.  The sparse form also carries ``index``, the
strictly increasing basis indices of the stored amplitudes; every other
basis state has amplitude zero.  A dense state behaves as if its index were
``arange(2^q)``, so the permutations and diagonal readouts
(``xor_write``, ``flag_write``, ``exact_distribution``,
``StateVector.copy``) run one code path on (basis index, amplitude) pairs
and keep the form they are given.  They cost O(stored amplitudes), which
for the scenario stages is O(L), not O(2^q).
Operations that mix amplitudes across basis states (``apply_unitary``,
``qft``, ``inverse_qft``, ``StateVector.tensor``) need the dense form and
refuse a sparse state with ``ConfigError``.

The qubit cap (``QVAR_QUBIT_CAP``, default 24) bounds the width of the
simulated device, whatever the form; it is not a memory limit.  A sparse
state on a wide layout holds only its stored amplitudes.

Readout is exact: ``exact_distribution`` returns the squared marginal
amplitudes of a register, so algorithmic error is never confounded with
shot noise.  The sampled mode of the risk stage
(``risk.estimate_amplitude``) draws its amplitude-estimation shots from
such an exact flag probability.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, NumericalError, QubitBudgetError
from .market import qubit_cap

NORM_TOL = 1e-10
UNITARY_TOL = 1e-10


class RegisterLayout:
    """Ordered, disjoint named registers covering all qubits.

    Built from (name, width) pairs; offsets are assigned in order, so the
    first register occupies the most significant qubits.
    """

    def __init__(self, registers):
        regs = list(registers)
        if not regs:
            raise ConfigError("layout needs at least one register")
        self._offsets: dict[str, tuple[int, int]] = {}
        offset = 0
        for name, width in regs:
            if name in self._offsets:
                raise ConfigError(f"duplicate register name {name!r}")
            if width < 1:
                raise ConfigError(f"register {name!r} must have width >= 1")
            self._offsets[name] = (offset, width)
            offset += width
        self.total_qubits = offset
        cap = qubit_cap()
        if self.total_qubits > cap:
            raise QubitBudgetError(
                f"layout needs {self.total_qubits} qubits, budget is {cap}")

    @property
    def names(self) -> list[str]:
        return list(self._offsets)

    def width_of(self, name: str) -> int:
        return self._offsets[name][1]

    def offset_of(self, name: str) -> int:
        return self._offsets[name][0]

    def shift_of(self, name: str) -> int:
        """Bit position of the register's least significant qubit."""
        offset, width = self._offsets[name]
        return self.total_qubits - offset - width

    def axes_of(self, name: str) -> list[int]:
        """Tensor axes of the register when amplitudes are reshaped to [2]*q."""
        offset, width = self._offsets[name]
        return list(range(offset, offset + width))

    def values(self, name: str, index=None) -> np.ndarray:
        """Register value at each basis index in ``index`` (default: every
        basis index, in order), vectorized."""
        _, width = self._offsets[name]
        if index is None:
            index = np.arange(2**self.total_qubits, dtype=np.int64)
        return (index >> self.shift_of(name)) & ((1 << width) - 1)

    def __contains__(self, name: str) -> bool:
        return name in self._offsets

    def __eq__(self, other) -> bool:
        return isinstance(other, RegisterLayout) and self._offsets == other._offsets

    def __repr__(self) -> str:
        parts = ", ".join(f"{n}:{w}" for n, (_, w) in self._offsets.items())
        return f"RegisterLayout({parts})"

    def items(self):
        return [(n, w) for n, (_, w) in self._offsets.items()]


@dataclass
class StateVector:
    """Complex amplitudes over 2^q basis states with a named layout.

    Dense when ``index`` is None (``amplitudes[i]`` belongs to basis state
    i); sparse otherwise (``amplitudes[j]`` belongs to basis state
    ``index[j]``, all others are zero).
    """

    amplitudes: np.ndarray
    layout: RegisterLayout
    index: np.ndarray | None = None

    def __post_init__(self):
        amps = np.asarray(self.amplitudes, dtype=complex)
        self.amplitudes = amps
        q = self.layout.total_qubits
        if amps.ndim != 1:
            raise ConfigError("amplitudes must be a 1-d vector")
        if self.index is None:
            if amps.size != 2**q:
                raise ConfigError(f"amplitude vector must have length 2^{q}")
        else:
            idx = np.asarray(self.index)
            if idx.dtype != np.int64 or idx.shape != amps.shape:
                raise ConfigError("index must be an int64 vector as long as "
                                  "the amplitudes")
            if idx.size and (idx[0] < 0 or idx[-1] >= 2**q
                             or np.any(idx[1:] <= idx[:-1])):
                raise ConfigError(f"index must be strictly increasing basis "
                                  f"indices below 2^{q}")
            self.index = idx
        norm = np.linalg.norm(amps)
        if abs(norm - 1.0) > NORM_TOL:
            raise NumericalError(f"state norm {norm} deviates from 1 beyond {NORM_TOL}")

    @property
    def num_qubits(self) -> int:
        return self.layout.total_qubits

    @property
    def support(self) -> np.ndarray:
        """Basis index of each stored amplitude."""
        if self.index is None:
            return np.arange(self.amplitudes.size, dtype=np.int64)
        return self.index

    def copy(self) -> "StateVector":
        index = None if self.index is None else self.index.copy()
        return StateVector(self.amplitudes.copy(), self.layout, index)

    def tensor(self) -> np.ndarray:
        if self.index is not None:
            raise ConfigError("a sparse state has no dense tensor form; gates "
                              "and QFTs need a dense state")
        return self.amplitudes.reshape([2] * self.num_qubits)


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


def basis_state(layout: RegisterLayout, index: int = 0) -> StateVector:
    amps = np.zeros(2**layout.total_qubits, dtype=complex)
    amps[index] = 1.0
    return StateVector(amps, layout)


def _resolve_registers(layout: RegisterLayout, registers) -> list[str]:
    if isinstance(registers, str):
        registers = [registers]
    names = list(registers)
    for name in names:
        if name not in layout:
            raise ConfigError(f"unknown register {name!r}")
    if len(set(names)) != len(names):
        raise ConfigError("register subset contains duplicates")
    return names


def apply_unitary(state: StateVector, u: np.ndarray, registers,
                  check: bool = True) -> StateVector:
    """Apply a dense unitary to the named registers (first name = most
    significant factor of u's index)."""
    names = _resolve_registers(state.layout, registers)
    axes = [ax for name in names for ax in state.layout.axes_of(name)]
    k = len(axes)
    u = np.asarray(u, dtype=complex)
    if u.shape != (2**k, 2**k):
        raise ConfigError(f"unitary must be {2**k} x {2**k} for {k} qubits")
    if check:
        err = np.abs(u @ u.conj().T - np.eye(2**k)).max()
        if err > UNITARY_TOL:
            raise NumericalError(f"matrix is not unitary: deviation {err:.3e}")
    tensor = state.tensor()
    moved = np.moveaxis(tensor, axes, range(k))
    shape = moved.shape
    out = (u @ moved.reshape(2**k, -1)).reshape(shape)
    out = np.moveaxis(out, range(k), axes)
    return StateVector(out.reshape(-1), state.layout)


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


def grover_rudolph_prepare(v, layout: RegisterLayout | None = None) -> StateVector:
    """State with amplitudes v / ||v||_2 for a non-negative vector v.

    Stands in for amplitude-encoding state preparation; the simulator
    constructs the resulting state directly.
    """
    v = np.asarray(v, dtype=float)
    if v.ndim != 1 or v.size & (v.size - 1):
        raise ConfigError("input must be a 1-d vector of power-of-two length")
    if np.any(v < 0):
        raise ConfigError("amplitude-encoded vector must be non-negative")
    norm = np.linalg.norm(v)
    if norm == 0:
        raise ConfigError("cannot prepare the zero vector")
    if layout is None:
        layout = RegisterLayout([("data", int(np.log2(v.size)))])
    if 2**layout.total_qubits != v.size:
        raise ConfigError("layout size does not match vector length")
    return StateVector(v / norm + 0j, layout)


def exact_distribution(state: StateVector, register: str) -> np.ndarray:
    """Squared marginal amplitudes of one register (exact readout mode)."""
    width = state.layout.width_of(register)
    values = state.layout.values(register, state.index)
    probs = np.abs(state.amplitudes) ** 2
    return np.bincount(values, weights=probs, minlength=2**width)


def _permuted(state: StateVector, moved: np.ndarray) -> StateVector:
    """The state with stored amplitude j moved to basis index moved[j],
    for a basis permutation; the result keeps the input's form."""
    if state.index is None:
        out = np.empty_like(state.amplitudes)
        out[moved] = state.amplitudes
        return StateVector(out, state.layout)
    # stable sort is timsort here: linear when the permutation keeps the
    # order, as the scenario stages' writes into low registers do
    order = np.argsort(moved, kind="stable")
    return StateVector(state.amplitudes[order], state.layout, moved[order])


def xor_write(state: StateVector, source: str, target: str, table) -> StateVector:
    """|a>_src |z>_tgt -> |a>_src |z XOR f(a)>_tgt for a code table f.

    A controlled permutation, manifestly unitary and self-inverse; the
    standard reversible-lookup construction used by all register loads.
    """
    layout = state.layout
    src_vals = layout.values(source, state.index)
    table = np.asarray(table, dtype=np.int64)
    if table.size != 2**layout.width_of(source):
        raise ConfigError("lookup table must cover the source register")
    tgt_width = layout.width_of(target)
    if np.any(table < 0) or np.any(table >= 2**tgt_width):
        raise NumericalError("lookup value exceeds the target register range")
    shift = layout.shift_of(target)
    return _permuted(state, state.support ^ (table[src_vals] << shift))


def flag_write(state: StateVector, source: str, flag: str, predicate) -> StateVector:
    """Flip the 1-qubit flag register on basis states where predicate(source
    value) holds; the flag must be zeroed beforehand by convention."""
    layout = state.layout
    if layout.width_of(flag) != 1:
        raise ConfigError(f"flag register {flag!r} must be one qubit")
    src_vals = layout.values(source, state.index)
    bits = np.asarray(predicate(src_vals), dtype=np.int64)
    shift = layout.shift_of(flag)
    return _permuted(state, state.support ^ (bits << shift))
