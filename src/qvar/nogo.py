"""Copy-count lower-bound arithmetic for the early-exercise obstruction.

The distinguishing pair is |psi> = -sqrt((d-1)/d)|0...0> + sqrt(1/d)|1...1>
against |phi> = |0...0>, whose squared overlap is (d-1)/d.  The bound uses
the analytic gap sqrt(1 - (1-1/d)^m), which omits the factor 2 of the
standard pure-state 1-norm identity.  A threshold theta on that 1-norm is
the threshold theta / 2 on the analytic gap, so the linear-in-d copy
growth holds in either normalization; the tests check the factor 2
against the explicit 1-norm.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import ConfigError


def overlap_power(d: int, m: int) -> float:
    """|<psi|phi>|^(2m) = (1 - 1/d)^m."""
    if d < 2:
        raise ConfigError(f"need d >= 2, got {d}")
    if m < 1:
        raise ConfigError(f"need m >= 1, got {m}")
    return (1.0 - 1.0 / d) ** m


def trace_norm_gap(d: int, m: int) -> float:
    """Analytic distinguishability gap sqrt(1 - (1-1/d)^m) between the
    m-copy states, the expression used by the bound."""
    return float(np.sqrt(1.0 - overlap_power(d, m)))


def min_copies(d: int, threshold: float = 0.8) -> int:
    """Smallest copy count m whose gap reaches the threshold: the closed form
    m = ceil(ln(1 - theta^2) / ln(1 - 1/d)) for the analytic gap theta,
    checked against the gap itself at m - 1 and m to absorb rounding."""
    theta = threshold
    if not 0 < theta < 1:
        raise ConfigError("analytic threshold must lie in (0, 1)")
    if d < 2:
        raise ConfigError(f"need d >= 2, got {d}")
    m = max(1, math.ceil(math.log1p(-theta * theta) / math.log1p(-1.0 / d)))
    while m > 1 and trace_norm_gap(d, m - 1) >= theta:
        m -= 1
    while trace_norm_gap(d, m) < theta:
        m += 1
    return m


def copy_curve(max_d: int = 256, threshold: float = 0.8):
    """(d, min_copies) for d = 2, 4, ..., max_d along powers of two."""
    if max_d < 2:
        raise ConfigError(f"need max_d >= 2, got {max_d}")
    ds = []
    d = 2
    while d <= max_d:
        ds.append((d, min_copies(d, threshold)))
        d *= 2
    return ds
