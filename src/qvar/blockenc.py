"""Certified block-encoding of the stepping matrix via sparse-access oracles.

The construction follows the standard sparse scheme: a branch register in
uniform superposition (Hadamard sandwich), a multiplexed rotation U_R
writing the rescaled entry amplitude onto a flag qubit, and a column-index
shift U_c.  For a tridiagonal matrix the three structural branches are
padded to four so the Hadamard pair applies; the dead branch carries zero
amplitude.  The subnormalization is gamma = 4 * kappa with kappa the
largest entry magnitude, and every constructed encoding is certified
numerically against the dense matrix before use.

Register order inside the encoding unitary (most significant first):
flag (1 qubit), branch (2 qubits), index (n qubits).  The encoded block
therefore sits in the top-left 2^n x 2^n corner.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NumericalError
from .pde import TridiagonalOperator

CERTIFY_TOL = 1e-10
BRANCHES = 4  # three tridiagonal branches plus one dead padding branch


@dataclass(frozen=True)
class BlockEncoding:
    """A unitary U on n + a qubits with ||M - gamma * block(U)|| <= eps."""

    U: np.ndarray
    gamma: float
    a: int
    eps: float
    n: int


def assemble_block_encoding(mtilde: TridiagonalOperator) -> BlockEncoding:
    """Build and certify the (gamma, 3, eps) encoding of a tridiagonal matrix."""
    size = mtilde.size
    n = mtilde.n
    dense = mtilde.to_dense()
    kappa = mtilde.max_abs_entry()
    if kappa == 0.0:
        raise NumericalError("cannot block-encode the zero matrix")
    gamma = BRANCHES * kappa

    dim = BRANCHES * size  # branch + index space, flag excluded
    # U_R: rotate the flag qubit by the rescaled entry, multiplexed on (l, j).
    # Branch l of column j carries entry (j - 1 + l, j): the super-diagonal
    # of row j - 1, the diagonal, the sub-diagonal of row j + 1; clamped
    # positions and the padding branch carry zero.
    amps = np.zeros((BRANCHES, size))
    amps[0, 1:] = mtilde.super_[:-1]
    amps[1] = mtilde.diag
    amps[2, :-1] = mtilde.sub[1:]
    amps = (amps / kappa).ravel()
    comp = np.sqrt(1.0 - amps**2)
    u_r = np.zeros((2 * dim, 2 * dim))
    idx = np.arange(dim)
    u_r[idx, idx] = amps
    u_r[dim + idx, idx] = comp
    u_r[idx, dim + idx] = -comp
    u_r[dim + idx, dim + idx] = amps

    # U_c: permutation |l>|j> -> |l>|c(j, l)>.  The clamped column map is not
    # injective, so it is completed to a permutation with a modular shift;
    # the wrapped positions are exactly the clamped ones and carry zero
    # amplitude, so the encoded block is unaffected.
    u_c = np.zeros((2 * dim, 2 * dim))
    for l in range(BRANCHES):
        shift = 0 if l == 3 else l - 1
        for j in range(size):
            i = (j + shift) % size
            u_c[l * size + i, l * size + j] = 1.0
    u_c[dim:, dim:] = u_c[:dim, :dim]

    h2 = np.array([[(-1) ** bin(a & b).count("1") for b in range(BRANCHES)]
                   for a in range(BRANCHES)]) / 2.0
    h_full = np.kron(np.eye(2), np.kron(h2, np.eye(size)))

    u = h_full @ u_c @ u_r @ h_full

    unit_err = np.abs(u @ u.T - np.eye(2 * dim)).max()
    if unit_err > CERTIFY_TOL:
        raise NumericalError(f"encoding unitary deviates from unitarity by {unit_err:.3e}")
    cert = np.linalg.norm(dense - gamma * u[:size, :size], 2)
    if cert > CERTIFY_TOL:
        raise NumericalError(f"block-encoding certification failed: error {cert:.3e}")
    return BlockEncoding(U=u, gamma=gamma, a=3, eps=cert, n=n)
