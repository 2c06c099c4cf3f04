"""Certified block encoding of the stepping matrix by a state-preparation pair.

U = L^T U_c R (Gilyén, Su, Low and Wiebe, arXiv 1806.01838; Camps et al.,
arXiv 2203.10236, give circuits for banded matrices).  Branch l of column
j addresses entry (j - 1 + l, j): the super-diagonal of row j - 1, the
diagonal and the sub-diagonal of row j + 1; branch 3 pads the three to a
register of two qubits.  Then:

- R prepares, for each column j, the amplitudes sqrt(|A_ij| / c_max) on
  its branches;
- L prepares, for each row i, sgn(A_ij) sqrt(|A_ij| / r_max) on the
  branch whose column shift lands on row i;
- U_c shifts branch l of column j to row j - 1 + l.

So <0|<i| U |0>|j> = A_ij / gamma with gamma = sqrt(r_max c_max), where
r_max and c_max are the largest row and column 1-norms.  That gamma is at
least ||A||_2 (the Schur test), and on a diagonally dominant stepping
matrix it is within a few percent of it, which matters because the
singular-value transform's polynomial degree grows with gamma / sigma_min.

Each side puts its leftover amplitude, sqrt(1 - c_j / c_max) or
sqrt(1 - r_i / r_max), on its own flag-1 branch, branch 0 for columns
and branch 1 for rows.  U_c keeps the branch, so the two leftovers never
meet and add nothing to the block.  R and L are one 8 x 8 reflection on
(flag, branch) per index, signed so that it maps |0> to the prepared
amplitudes.  The clamped positions at the edges carry zero amplitude, so
completing the shift to a permutation by wrapping leaves the block as it
is.

U is kept as its factors, the two (2^n, 8, 8) stacks of reflections, and
never multiplied out: ``BlockEncoding.multiply_rows`` applies it to a
batch of row vectors in O(64 2^n) per row.  The encoding is certified
from the factors before use: every reflection is orthogonal, U_c is a
permutation by construction, so U is orthogonal; and the top-left block,
the only 2^n-square part of U ever formed, matches the dense matrix in
the spectral norm.

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
SHIFTS = (-1, 0, 1, 0)  # row offset of each branch's entry from its column
REST_OF_COLUMN = BRANCHES + 0  # flag 1, branch 0: a column's leftover amplitude
REST_OF_ROW = BRANCHES + 1  # flag 1, branch 1: a row's leftover amplitude


@dataclass(frozen=True)
class BlockEncoding:
    """A unitary U = L^T U_c R on n + a qubits with ||M - gamma * block(U)||
    <= eps, held as its read-only factors: ``left[i]`` and ``right[j]`` are
    the 8 x 8 reflections on (flag, branch) of row i and column j."""

    left: np.ndarray
    right: np.ndarray
    gamma: float
    a: int
    eps: float
    n: int

    def __post_init__(self):
        for arr in (self.left, self.right):
            arr.setflags(write=False)

    def multiply_rows(self, rows: np.ndarray, transpose: bool = False) -> np.ndarray:
        """Overwrite ``rows`` with rows @ U, or rows @ U^T, and return it.

        ``rows`` holds R row vectors of the encoding space index-major,
        shape (2^n, R, 8): entry (a, i) of row r, with a the (flag, branch)
        value, at [i, r, a].  rows @ U applies L^T per index, moves branch
        k from index i to i - SHIFTS[k % 4] and applies R per index;
        rows @ U^T applies R^T, moves branch k from index j to
        j + SHIFTS[k % 4], as U_c does, and applies L.  Each row is carried
        on its own, so its bits do not depend on the other rows.
        """
        first, last, sign = ((self.right, self.left, 1) if transpose
                             else (self.left, self.right, -1))
        out = np.matmul(rows, np.swapaxes(first, 1, 2))
        for k in range(2 * BRANCHES):
            shift = SHIFTS[k % BRANCHES]
            if shift:
                out[:, :, k] = np.roll(out[:, :, k], sign * shift, axis=0)
        return np.matmul(out, last, out=rows)


def _preparations(branch: np.ndarray, norms: np.ndarray, top: float,
                  rest: int) -> np.ndarray:
    """One 8 x 8 orthogonal matrix per index, each mapping |0> on (flag,
    branch) to sgn(branch) sqrt(|branch| / top) on flag 0 with the
    leftover amplitude at ``rest``.  ``branch`` is (3, 2^n), ``norms`` the
    1-norms of its columns.  Each is the Householder reflection of |0> onto
    -s v, negated by s = sgn(v_0), so that w = |0> + s v never cancels."""
    v = np.zeros((norms.size, 2 * BRANCHES))
    v[:, :3] = (np.sign(branch) * np.sqrt(np.abs(branch) / top)).T
    v[:, rest] = np.sqrt(np.maximum(0.0, 1.0 - norms / top))
    s = np.where(v[:, 0] < 0, -1.0, 1.0)[:, None]
    w = s * v
    w[:, 0] += 1.0
    reflect = np.eye(2 * BRANCHES) - 2.0 * (w[:, :, None] * w[:, None, :]
                                            / (w * w).sum(1)[:, None, None])
    return -s[:, :, None] * reflect


def assemble_block_encoding(mtilde: TridiagonalOperator) -> BlockEncoding:
    """Build and certify the (gamma, 3, eps) encoding of a tridiagonal matrix."""
    size = mtilde.size
    # column j's branches hold entries (j - 1, j), (j, j), (j + 1, j) and
    # row i's hold (i, i + 1), (i, i), (i, i - 1): the same entry sits on
    # one branch l of column j and of row j - 1 + l
    cols = np.zeros((3, size))
    cols[0, 1:] = mtilde.super_[:-1]
    cols[1] = mtilde.diag
    cols[2, :-1] = mtilde.sub[1:]
    rows = np.zeros((3, size))
    rows[0, :-1] = mtilde.super_[:-1]
    rows[1] = mtilde.diag
    rows[2, 1:] = mtilde.sub[1:]
    col_norms, row_norms = np.abs(cols).sum(0), np.abs(rows).sum(0)
    c_max, r_max = float(col_norms.max()), float(row_norms.max())
    if c_max == 0.0:
        raise NumericalError("cannot block-encode the zero matrix")
    gamma = float(np.sqrt(r_max * c_max))

    right = _preparations(np.abs(cols), col_norms, c_max, REST_OF_COLUMN)
    left = _preparations(rows, row_norms, r_max, REST_OF_ROW)
    # U_c is a permutation, so U is orthogonal when every reflection is
    eye = np.eye(2 * BRANCHES)
    unit_err = max(np.abs(f @ np.swapaxes(f, 1, 2) - eye).max() for f in (left, right))
    if unit_err > CERTIFY_TOL:
        raise NumericalError(f"encoding unitary deviates from unitarity by {unit_err:.3e}")
    # block[i, j] = sum_k L_i[k, 0] R_j[k, 0] over the branches k whose
    # shift takes column j to row i
    block = np.zeros((size, size))
    j = np.arange(size)
    for k in range(2 * BRANCHES):
        i = (j + SHIFTS[k % BRANCHES]) % size
        block[i, j] += left[i, k, 0] * right[j, k, 0]
    cert = np.linalg.norm(mtilde.to_dense() - gamma * block, 2)
    if cert > CERTIFY_TOL:
        raise NumericalError(f"block-encoding certification failed: error {cert:.3e}")
    return BlockEncoding(left=left, right=right, gamma=gamma, a=3, eps=cert,
                         n=mtilde.n)
