"""Copy-count lower-bound arithmetic for the early-exercise obstruction.

The distinguishing pair is |psi> = -sqrt((d-1)/d)|0...0> + sqrt(1/d)|1...1>
against |phi> = |0...0>, whose squared overlap is (d-1)/d.  The analytic
gap sqrt(1 - (1-1/d)^m) omits the factor 2 of the standard pure-state
1-norm identity; both conventions are computed side by side and the
linear-in-d copy growth holds under either.
"""

from __future__ import annotations

import math
from typing import Literal

import numpy as np

from .errors import ConfigError

EXPLICIT_DIM_CAP = 2**12

GapMode = Literal["analytic", "explicit"]
CopyConvention = Literal["paper_analytic", "explicit"]


def overlap_power(d: int, m: int) -> float:
    """|<psi|phi>|^(2m) = (1 - 1/d)^m."""
    if d < 2:
        raise ConfigError(f"need d >= 2, got {d}")
    if m < 1:
        raise ConfigError(f"need m >= 1, got {m}")
    return (1.0 - 1.0 / d) ** m


def trace_norm_gap(d: int, m: int, mode: GapMode = "analytic") -> float:
    """Distinguishability gap between the m-copy states.

    analytic: sqrt(1 - (1-1/d)^m), the expression used by the bound.
    explicit: the 1-norm of the difference of the m-copy projectors,
    evaluated in the two-dimensional span of the product states; equals
    exactly twice the analytic value.
    """
    if mode == "analytic":
        return float(np.sqrt(1.0 - overlap_power(d, m)))
    if mode != "explicit":
        raise ConfigError(f"unknown mode {mode!r}")
    if d**m > EXPLICIT_DIM_CAP:
        raise ConfigError(f"explicit mode limited to d^m <= {EXPLICIT_DIM_CAP}, "
                          f"got {d}^{m}")
    # Gram basis {psi^m, phi^m}: overlap g = <psi|phi>^m
    g = (-np.sqrt((d - 1.0) / d)) ** m
    # orthonormalize: phi^m = g psi^m + sqrt(1-g^2) e2
    comp = np.sqrt(max(0.0, 1.0 - g * g))
    p_psi = np.array([[1.0, 0.0], [0.0, 0.0]])
    vec_phi = np.array([g, comp])
    p_phi = np.outer(vec_phi, vec_phi)
    eig = np.linalg.eigvalsh(p_psi - p_phi)
    return float(np.abs(eig).sum())


def min_copies(d: int, threshold: float = 0.8,
               convention: CopyConvention = "paper_analytic") -> int:
    """Smallest copy count m whose gap reaches the threshold: the closed form
    m = ceil(ln(1 - theta^2) / ln(1 - 1/d)) for the analytic gap theta,
    checked against the gap itself at m - 1 and m to absorb rounding."""
    if convention == "paper_analytic":
        if not 0 < threshold < 1:
            raise ConfigError("analytic threshold must lie in (0, 1)")
        theta = threshold
    elif convention == "explicit":
        if not 0 < threshold < 2:
            raise ConfigError("explicit-convention threshold must lie in (0, 2)")
        theta = threshold / 2.0  # the explicit gap is twice the analytic one
    else:
        raise ConfigError(f"unknown convention {convention!r}")
    if d < 2:
        raise ConfigError(f"need d >= 2, got {d}")
    m = max(1, math.ceil(math.log1p(-theta * theta) / math.log1p(-1.0 / d)))
    while m > 1 and trace_norm_gap(d, m - 1) >= theta:
        m -= 1
    while trace_norm_gap(d, m) < theta:
        m += 1
    return m


def copy_curve(max_d: int = 256, threshold: float = 0.8,
               convention: CopyConvention = "paper_analytic"):
    """(d, min_copies) for d = 2, 4, ..., max_d along powers of two."""
    ds = []
    d = 2
    while d <= max_d:
        ds.append((d, min_copies(d, threshold, convention)))
        d *= 2
    return ds
