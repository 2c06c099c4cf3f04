"""Deterministic scenario generator: the classical twin of the parallel
Monte Carlo circuit.

Path j carries the logistic increment dZ_j = 4 (j/L)(1 - j/L), constant
across timesteps, and evolves under the explicit Euler map

    F(j, x) = (1 + mu dtau) x + alpha dZ_j sqrt(x).

Prices are re-quantized to m fractional bits after every step with
``market.price_code``, the encoder of the price register, so the classical
and register contents agree bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, NumericalError
from .market import MarketParams, price_code


@dataclass(frozen=True)
class PathSet:
    """L price paths at a common time t, on the m-fractional-bit lattice."""

    L: int
    t: float
    prices: np.ndarray
    m: int

    def __post_init__(self):
        if self.L < 1 or self.L & (self.L - 1):
            raise ConfigError(f"L must be a power of two, got {self.L}")
        prices = np.asarray(self.prices, dtype=float)
        object.__setattr__(self, "prices", prices)
        if prices.shape != (self.L,):
            raise ConfigError("prices must have length L")
        # price_code also rejects a negative price
        if np.any(price_code(prices, self.m) / 2.0**self.m != prices):
            raise NumericalError("path prices are not m-bit representable")
        prices.setflags(write=False)

    @property
    def index_qubits(self) -> int:
        return self.L.bit_length() - 1


def simulate_paths(params: MarketParams, s0: float, L: int, m: int) -> PathSet:
    """Evolve L paths from s0 to t_bar, quantizing to m bits each step."""
    if s0 < 0:
        raise NumericalError(f"s0 must be non-negative, got {s0}")
    a = 1.0 + params.mu * params.dtau
    j = np.arange(1, L + 1, dtype=float)
    b = params.alpha * 4.0 * (j / L) * (1.0 - j / L)
    prices = price_code(np.full(L, float(s0)), m) / 2.0**m
    for _ in range(params.horizon_steps):
        prices = price_code(a * prices + b * np.sqrt(prices), m) / 2.0**m
    return PathSet(L=L, t=params.t_bar, prices=prices, m=m)
