"""Implicit finite-difference Black-Scholes engine.

Backward time stepping solves (I + M) V^{t-dtau} = V^t where M is the
tridiagonal operator built from the square-root local volatility
sigma(S) = alpha / sqrt(S).  Interior rows discretize

    [M V]_j = -dtau * a_j (V_{j-1} - V_j) - dtau * b_j (V_{j+1} - V_j)
              + r dtau V_j,

    a_j = sigma_j^2 S_j^2 / ((S_j - S_{j-1})(S_{j+1} - S_{j-1}))
          - r S_j / (S_j - S_{j-1}),
    b_j = sigma_j^2 S_j^2 / ((S_{j+1} - S_j)(S_{j+1} - S_{j-1})).

Boundary rows: row 0 carries discounting only (diffusion and advection
vanish at S = 0); the last row assumes a linear far field (zero second
derivative) with a one-sided first difference for the advection term.

European pricing iterates the implicit step; American pricing projects
each solve onto the payoff (solve, then take the pointwise maximum).  Both
factor I + M once and run one forward sweep and one back substitution per
step.  This module is the exactness oracle for the quantum pipeline.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, NumericalError
from .market import MarketParams, PayoffSpec, PriceGrid, payoff_vector

PIVOT_FLOOR = 1e-12


@dataclass(frozen=True)
class TridiagonalOperator:
    """Tridiagonal matrix of dimension 2^n.

    sub[j], diag[j], super_[j] hold row j's entries on columns j-1, j, j+1;
    sub[0] and super_[2^n - 1] are unused and kept at zero.
    """

    sub: np.ndarray
    diag: np.ndarray
    super_: np.ndarray
    n: int

    def __post_init__(self):
        size = 2**self.n
        for name in ("sub", "diag", "super_"):
            arr = np.asarray(getattr(self, name), dtype=float)
            object.__setattr__(self, name, arr)
            if arr.shape != (size,):
                raise ConfigError(f"{name} must have length 2^{self.n}")
            if not np.all(np.isfinite(arr)):
                raise NumericalError(f"non-finite entries in {name}")
            arr.setflags(write=False)

    @property
    def size(self) -> int:
        return 2**self.n

    def to_dense(self) -> np.ndarray:
        size = self.size
        out = np.zeros((size, size))
        idx = np.arange(size)
        out[idx, idx] = self.diag
        out[idx[1:], idx[1:] - 1] = self.sub[1:]
        out[idx[:-1], idx[:-1] + 1] = self.super_[:-1]
        return out

    def plus_identity(self) -> "TridiagonalOperator":
        return TridiagonalOperator(self.sub.copy(), self.diag + 1.0, self.super_.copy(), self.n)

    def transpose(self) -> "TridiagonalOperator":
        sub_t = np.zeros_like(self.sub)
        super_t = np.zeros_like(self.super_)
        sub_t[1:] = self.super_[:-1]
        super_t[:-1] = self.sub[1:]
        return TridiagonalOperator(sub_t, self.diag.copy(), super_t, self.n)


@dataclass(frozen=True)
class ValueSurface:
    """Option values V^t(S_j) on the grid at one time level."""

    t: float
    values: np.ndarray

    def __post_init__(self):
        values = np.asarray(self.values, dtype=float)
        object.__setattr__(self, "values", values)
        if not np.all(np.isfinite(values)):
            raise NumericalError("non-finite option values")
        values.setflags(write=False)


def assemble_operator(params: MarketParams, grid: PriceGrid) -> TridiagonalOperator:
    """Build M for one implicit step of length dtau on the given grid."""
    s = grid.nodes
    size = len(s)
    if size < 3:
        raise ConfigError("grid must have at least 4 nodes for interior rows")
    dtau, r = params.dtau, params.r

    sub = np.zeros(size)
    diag = np.zeros(size)
    sup = np.zeros(size)

    j = np.arange(1, size - 1)
    sj, sm, sp = s[j], s[j - 1], s[j + 1]
    # sigma_j^2 S_j^2 = alpha^2 S_j under sigma = alpha / sqrt(S); S_j > 0 on
    # interior nodes by strict monotonicity, so alpha/sqrt(S) is never
    # evaluated at zero.
    sig2s2 = params.alpha**2 * sj
    a = sig2s2 / ((sj - sm) * (sp - sm)) - r * sj / (sj - sm)
    b = sig2s2 / ((sp - sj) * (sp - sm))
    sub[j] = -dtau * a
    diag[j] = dtau * (a + b + r)
    sup[j] = -dtau * b

    # Row 0: pure discounting at S = 0.
    diag[0] = r * dtau
    # Last row: discounting plus one-sided advection, zero second derivative.
    h = s[-1] - s[-2]
    diag[-1] = r * dtau - dtau * r * s[-1] / h
    sub[-1] = dtau * r * s[-1] / h

    return TridiagonalOperator(sub, diag, sup, grid.n)


def _thomas_factor(sub, diag, sup) -> tuple[list, list, list]:
    """The elimination of a tridiagonal matrix without pivoting: its
    sub-diagonal, pivots and upper multipliers, as Python floats.  Rejects
    tiny pivots.

    Safe here because (I + M) is diagonally dominant for small dtau.
    The elimination and ``_thomas_sweep`` run over Python floats: the same
    IEEE-754 operations in the same order as on NumPy scalars, so the same
    bits, without a NumPy scalar per operation.
    """
    sub, diag, sup = (np.asarray(a, dtype=float).tolist() for a in (sub, diag, sup))
    size = len(diag)
    pivots = [0.0] * size
    c = [0.0] * size
    for i in range(size):
        pivots[i] = diag[i] - sub[i] * c[i - 1] if i > 0 else diag[i]
        if abs(pivots[i]) < PIVOT_FLOOR:
            raise NumericalError(
                f"singular system: |pivot| = {abs(pivots[i]):.3e} at row {i}")
        if i < size - 1:
            c[i] = sup[i] / pivots[i]
    return sub, pivots, c


def _thomas_sweep(factor: tuple[list, list, list], rhs: list) -> list:
    """The solution, as a list of Python floats, of the factored system for
    one right-hand side: the forward sweep and the back substitution."""
    sub, pivots, c = factor
    size = len(pivots)
    d = [0.0] * size
    d[0] = rhs[0] / pivots[0]
    for i in range(1, size):
        d[i] = (rhs[i] - sub[i] * d[i - 1]) / pivots[i]
    x = [0.0] * size
    x[-1] = d[-1]
    for i in range(size - 2, -1, -1):
        x[i] = d[i] - c[i] * x[i + 1]
    return x


def _thomas_solve(sub, diag, sup, rhs) -> np.ndarray:
    """Tridiagonal solve without pivoting; rejects tiny pivots."""
    return np.array(_thomas_sweep(_thomas_factor(sub, diag, sup),
                                  np.asarray(rhs, dtype=float).tolist()))


def price_european(params: MarketParams, grid: PriceGrid, spec: PayoffSpec) -> ValueSurface:
    """Backward-iterate the implicit step from the payoff at T down to t_bar.

    Every step solves (I + M) x = V^t with the same matrix, so it is
    factored once and each step runs only the sweeps: the operations of
    one solve on its own in the same order, so the same bits."""
    values = payoff_vector(spec, grid)
    t = params.T
    if params.pricing_steps:
        op = assemble_operator(params, grid)
        factor = _thomas_factor(op.sub, op.diag + 1.0, op.super_)
        rows = values.tolist()
        for _ in range(params.pricing_steps):
            rows = _thomas_sweep(factor, rows)
            t -= params.dtau
        values = np.array(rows)
    return ValueSurface(t=t, values=values)


def price_american(params: MarketParams, grid: PriceGrid, spec: PayoffSpec) -> ValueSurface:
    """Implicit step with projection: V_j <- max(payoff(S_j), Vhat_j).
    I + M is factored once, as in ``price_european``, and each step runs
    the sweeps and then the projection."""
    op = assemble_operator(params, grid)
    payoff = payoff_vector(spec, grid)
    values, t = payoff.copy(), params.T
    if params.pricing_steps:
        factor = _thomas_factor(op.sub, op.diag + 1.0, op.super_)
        for _ in range(params.pricing_steps):
            values = np.maximum(payoff, _thomas_sweep(factor, values.tolist()))
            t -= params.dtau
    return ValueSurface(t=t, values=values)
