"""Desk-scale statevector simulator with named fixed-point registers.

Amplitude ordering convention: register 0 (the first register in the
layout) is most significant.  A register at qubit offset ``o`` with width
``w`` in a ``q``-qubit layout reads value ``(i >> (q - o - w)) & (2^w - 1)``
from basis index ``i``.  This convention is fixed here and used everywhere.

A ``StateVector`` is sparse: ``index`` holds the strictly increasing basis
indices of the stored amplitudes, and every other basis state has
amplitude zero.  Steps 2-4 act on the scenario state only through basis
permutations (``xor_write``, ``flag_write``) and diagonal readouts, so
the state holds one amplitude per scenario branch and every operation
here costs O(stored amplitudes), O(L) rather than O(2^q): the writes take
their lookup or predicate as a function of the source register's values
and call it on the stored amplitudes only, so no table over a source
register is built.  The module has no gates or QFTs: no production stage
mixes amplitudes across basis states on a ``StateVector``.  Stage 1's
output is a plain complex vector over the 2^n grid nodes (``qsvt``), and
Step 3's phase estimation is evaluated in closed form in ``qpca``, its
inverse QFT one FFT over the phase register's 2^m outcomes per branch.

The qubit cap (``QVAR_QUBIT_CAP``, default 24, at most 63 because basis
indices are int64) bounds the width of the simulated device; it is not a
memory limit.  A state on a wide layout holds only its stored amplitudes.

Readout lives with the stage that reads it: ``risk.tail_probability`` sums
squared amplitudes exactly, and sampled mode draws its shots from that sum.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, NumericalError, QubitBudgetError
from .market import qubit_cap

NORM_TOL = 1e-10


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

    def width_of(self, name: str) -> int:
        return self._offsets[name][1]

    def offset_of(self, name: str) -> int:
        return self._offsets[name][0]

    def shift_of(self, name: str) -> int:
        """Bit position of the register's least significant qubit."""
        return self.total_qubits - self.offset_of(name) - self.width_of(name)

    def values(self, name: str, index: np.ndarray) -> np.ndarray:
        """Register value at each basis index in ``index``, vectorized."""
        _, width = self._offsets[name]
        return (index >> self.shift_of(name)) & ((1 << width) - 1)

    def items(self):
        return [(n, w) for n, (_, w) in self._offsets.items()]


@dataclass
class StateVector:
    """Complex amplitudes over 2^q basis states with a named layout:
    ``amplitudes[j]`` belongs to basis state ``index[j]``, and every other
    basis state has amplitude zero."""

    amplitudes: np.ndarray
    layout: RegisterLayout
    index: np.ndarray

    def __post_init__(self):
        amps = np.asarray(self.amplitudes, dtype=complex)
        idx = np.asarray(self.index)
        self.amplitudes = amps
        q = self.layout.total_qubits
        if amps.ndim != 1:
            raise ConfigError("amplitudes must be a 1-d vector")
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

    def copy(self) -> "StateVector":
        """A bit copy; its source passed ``__post_init__``'s checks."""
        new = object.__new__(StateVector)
        new.amplitudes, new.layout = self.amplitudes.copy(), self.layout
        new.index = self.index.copy()
        return new


def _permuted(state: StateVector, moved: np.ndarray) -> StateVector:
    """The state with stored amplitude j moved to basis index moved[j],
    for a basis permutation."""
    # stable sort is timsort here: linear when the permutation keeps the
    # order, as the scenario stages' writes into low registers do
    order = np.argsort(moved, kind="stable")
    return StateVector(state.amplitudes[order], state.layout, moved[order])


def xor_write(state: StateVector, source: str, target: str, lookup) -> StateVector:
    """|a>_src |z>_tgt -> |a>_src |z XOR f(a)>_tgt for a code lookup f,
    called on the source register's values, as ``flag_write`` calls its
    predicate.

    A controlled permutation, manifestly unitary and self-inverse; the
    standard reversible-lookup construction used by all register loads.
    It evaluates f only on the stored amplitudes' source values, so no
    table over the source register is needed.
    """
    layout = state.layout
    codes = np.asarray(lookup(layout.values(source, state.index)), dtype=np.int64)
    # a code outside [0, 2^width), negative too, has a bit above the width
    if (codes >> layout.width_of(target)).any():
        raise NumericalError("lookup value exceeds the target register range")
    shift = layout.shift_of(target)
    return _permuted(state, state.index ^ (codes << shift))


def flag_write(state: StateVector, source: str, flag: str, predicate) -> StateVector:
    """Flip the 1-qubit flag register on basis states where predicate(source
    value) is 1; the flag must be zeroed beforehand by convention.  Any
    other predicate value raises, as ``xor_write``'s range check does."""
    layout = state.layout
    if layout.width_of(flag) != 1:
        raise ConfigError(f"flag register {flag!r} must be one qubit")
    src_vals = layout.values(source, state.index)
    bits = np.asarray(predicate(src_vals), dtype=np.int64)
    if (bits >> 1).any():
        raise NumericalError("predicate value is not a bit")
    shift = layout.shift_of(flag)
    return _permuted(state, state.index ^ (bits << shift))
