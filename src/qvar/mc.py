"""Deterministic scenario generator: the classical twin of the parallel
Monte Carlo circuit.

Path j carries the logistic increment dZ_j = 4 (j/L)(1 - j/L), constant
across timesteps, and evolves under the explicit Euler map

    F(j, x) = (1 + mu dtau) x + alpha dZ_j sqrt(x).

Prices are re-quantized to m fractional bits after every step, mirroring
the width of the price register, so the classical and register contents
agree bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, NumericalError
from .market import MarketParams


@dataclass(frozen=True)
class FixedPointCode:
    """Unsigned fixed-point code with m fractional bits.

    Codes are integers k representing k / 2^m; the quantizer rounds to
    nearest with ties up, so |quantize(x) - x| <= 2^-m always holds.
    range_max is the largest representable value.
    """

    m: int
    range_max: float

    def __post_init__(self):
        if self.m < 1:
            raise ConfigError(f"m must be >= 1, got {self.m}")
        if not self.range_max > 0:
            raise ConfigError(f"range_max must be positive, got {self.range_max}")
        # codes are int64; this also rejects an infinite range_max
        if not math.log2(self.range_max) + self.m < 63:
            raise ConfigError(f"range_max {self.range_max} at m={self.m} bits "
                              f"overflows the int64 code range")

    @property
    def max_code(self) -> int:
        return int(math.floor(self.range_max * 2**self.m + 0.5))

    def encode(self, x):
        x = np.asarray(x, dtype=float)
        if np.any(x < 0):
            raise NumericalError("fixed-point codes are unsigned; negative value")
        code = np.floor(x * 2**self.m + 0.5).astype(np.int64)
        if np.any(code > self.max_code):
            bad = float(np.max(x))
            raise NumericalError(
                f"value {bad} overflows fixed-point range [0, {self.range_max}]")
        return code if code.ndim else int(code)

    def decode(self, code):
        return np.asarray(code, dtype=float) / 2**self.m

    def quantize(self, x):
        return self.decode(self.encode(x))


@dataclass(frozen=True)
class PathSet:
    """L quantized price paths at a common time t."""

    L: int
    t: float
    prices: np.ndarray
    code: FixedPointCode

    def __post_init__(self):
        if self.L < 1 or self.L & (self.L - 1):
            raise ConfigError(f"L must be a power of two, got {self.L}")
        prices = np.asarray(self.prices, dtype=float)
        object.__setattr__(self, "prices", prices)
        if prices.shape != (self.L,):
            raise ConfigError("prices must have length L")
        if np.any(prices < 0):
            raise NumericalError("negative path price")
        # must already sit on the fixed-point lattice
        if np.any(self.code.encode(prices) / 2**self.code.m != prices):
            raise NumericalError("path prices are not m-bit representable")
        prices.setflags(write=False)

    @property
    def index_qubits(self) -> int:
        return self.L.bit_length() - 1


def simulate_paths(params: MarketParams, s0: float, L: int, m: int) -> PathSet:
    """Evolve L paths from s0 to t_bar, quantizing to m bits each step.

    A dry pass sizes the register first: its range is the smallest power
    of two at or above max(2 * peak + 1, 4) for the paths' peak price."""
    if s0 < 0:
        raise NumericalError(f"s0 must be non-negative, got {s0}")
    a = 1.0 + params.mu * params.dtau
    j = np.arange(1, L + 1, dtype=float)
    b = params.alpha * 4.0 * (j / L) * (1.0 - j / L)
    peak = float(s0)
    probe = np.full(L, float(s0))
    for _ in range(params.horizon_steps):
        probe = np.maximum(a * probe + b * np.sqrt(np.maximum(probe, 0.0)), 0.0)
        peak = max(peak, float(probe.max()))
    bound = max(2.0 * peak + 1.0, 4.0)
    if not bound <= 2.0**62:  # beyond every int64 code range, or not finite
        raise ConfigError(f"s0={s0} drives the price register to {bound:.3g}, "
                          f"past the int64 code range")
    code = FixedPointCode(m=m, range_max=float(2 ** math.ceil(math.log2(bound))))
    prices = code.quantize(np.full(L, float(s0)))
    for _ in range(params.horizon_steps):
        prices = code.quantize(a * prices + b * np.sqrt(prices))
    return PathSet(L=L, t=params.t_bar, prices=prices, code=code)
