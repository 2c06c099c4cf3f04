"""Economic inputs and the price/time lattice shared by all engines."""

from __future__ import annotations

import functools
import json
import math
import operator
import os
import struct
from dataclasses import dataclass
from typing import Literal

import numpy as np

from .errors import ConfigError, NumericalError, QubitBudgetError

DEFAULT_QUBIT_CAP = 24
# basis indices are int64, so no layout may span more qubits
MAX_QUBIT_CAP = 63
GRID_CACHE = 16  # grids and their price codes
PARSE_CACHE = 64  # parsed (market, payoff) pairs, a few hundred bytes each
# the most pricing or scenario steps a config may take: both loops run one
# Python-level step per dtau, and at 2^16 of each a request on the README
# grid (n = 4) runs in about two seconds; every tested and benchmarked
# config takes at most 64
MAX_STEPS = 2**16

PayoffKind = Literal["call", "put"]


def qubit_cap() -> int:
    """Simulator-wide qubit budget; QVAR_QUBIT_CAP overrides the default 24
    with a value from 1 to 63."""
    raw = os.environ.get("QVAR_QUBIT_CAP")
    if raw is None:
        return DEFAULT_QUBIT_CAP
    try:
        cap = int(raw)
    except ValueError as exc:
        raise ConfigError(f"QVAR_QUBIT_CAP must be an integer, got {raw!r}") from exc
    if not 1 <= cap <= MAX_QUBIT_CAP:
        raise ConfigError(f"QVAR_QUBIT_CAP must lie in 1..{MAX_QUBIT_CAP} "
                          f"(basis indices are int64), got {cap}")
    return cap


def price_code(values, m: int) -> np.ndarray:
    """Unsigned m-fractional-bit price codes, round to nearest with ties
    up: code c stands for c / 2^m, within 2^-(m+1) of the value.

    A negative value is a NumericalError.  A value that is not finite, or
    whose code needs more than the 63 bits of an int64, is a ConfigError,
    raised before the cast could wrap it."""
    x = np.asarray(values, dtype=float)
    if not np.all(np.isfinite(x)):
        bad = float(x[~np.isfinite(x)][0])
        raise ConfigError(f"price {bad} at m = {m} has no code in the int64 "
                          "code range")
    if np.any(x < 0):
        raise NumericalError("fixed-point codes are unsigned; negative value")
    top = float(x.max(initial=0.0))
    width = math.frexp(top)[1] + m  # bits of floor(top * 2^m)
    if width > 63:
        raise ConfigError(
            f"largest price {top} at m = {m} needs a {width}-bit price code, "
            "past the 63 bits of the int64 code range; decrease m, s_max, or "
            "s0 and the dynamics that set the path prices")
    return np.floor(x * 2**m + 0.5).astype(np.int64)


def _check_integer_multiple(num: float, den: float, what: str) -> int:
    k = num / den
    if not math.isfinite(k):
        raise ConfigError(f"{what} = {num}/{den} is not a finite number of steps")
    k_round = round(k)
    if abs(k - k_round) > 1e-9 * max(1.0, abs(k)):
        raise ConfigError(f"{what} = {num}/{den} is not an integer number of steps")
    if k_round > MAX_STEPS:
        raise ConfigError(f"{what} = {num}/{den} is {k_round} steps, past the "
                          f"limit of {MAX_STEPS}")
    return int(k_round)


@dataclass(frozen=True)
class MarketParams:
    """Market dynamics and discretization parameters.

    r      risk-free rate per unit time
    mu     real-world drift per unit time
    alpha  square-root local volatility coefficient (sigma(S) = alpha / sqrt(S))
    T      option expiry
    t_bar  risk horizon, 0 <= t_bar <= T
    dtau   timestep; both (T - t_bar)/dtau and t_bar/dtau must be integers,
           at most MAX_STEPS
    """

    r: float
    mu: float
    alpha: float
    T: float
    t_bar: float
    dtau: float

    def __post_init__(self):
        if self.r < 0:
            raise ConfigError(f"r must be non-negative, got {self.r}")
        if self.alpha < 0:
            raise ConfigError(f"alpha must be non-negative, got {self.alpha}")
        if not (0 <= self.t_bar <= self.T):
            raise ConfigError(f"need 0 <= t_bar <= T, got t_bar={self.t_bar}, T={self.T}")
        if self.dtau <= 0:
            raise ConfigError(f"dtau must be positive, got {self.dtau}")
        _check_integer_multiple(self.T - self.t_bar, self.dtau, "(T - t_bar)/dtau")
        _check_integer_multiple(self.t_bar, self.dtau, "t_bar/dtau")

    @property
    def pricing_steps(self) -> int:
        """Number of implicit backward steps from T to t_bar."""
        return _check_integer_multiple(self.T - self.t_bar, self.dtau, "(T - t_bar)/dtau")

    @property
    def horizon_steps(self) -> int:
        """Number of forward scenario steps from 0 to t_bar."""
        return _check_integer_multiple(self.t_bar, self.dtau, "t_bar/dtau")


def _check_kind(kind) -> None:
    if kind not in ("call", "put"):
        raise ConfigError(f"kind must be 'call' or 'put', got {kind!r}")


@dataclass(frozen=True)
class PayoffSpec:
    kind: PayoffKind
    strike: float

    def __post_init__(self):
        _check_kind(self.kind)
        if self.strike < 0:
            raise ConfigError(f"strike must be non-negative, got {self.strike}")


class PriceGrid:
    """Strictly increasing price nodes S_0 < ... < S_{2^n - 1}."""

    def __init__(self, nodes, n: int):
        nodes = np.asarray(nodes, dtype=float)
        if nodes.ndim != 1 or nodes.size != 2**n:
            raise ConfigError(f"grid must have exactly 2^{n} nodes, got {nodes.size}")
        if nodes[0] < 0:
            raise ConfigError(f"S_0 must be non-negative, got {nodes[0]}")
        if np.any(np.diff(nodes) <= 0):
            raise ConfigError("grid nodes must be strictly increasing")
        self.nodes = nodes
        self.nodes.setflags(write=False)
        self.n = n


def payoff_vector(spec: PayoffSpec, grid: PriceGrid) -> np.ndarray:
    """Terminal option values on the grid: max(S-K, 0) or max(K-S, 0)."""
    if spec.kind == "call":
        return np.maximum(grid.nodes - spec.strike, 0.0)
    return np.maximum(spec.strike - grid.nodes, 0.0)


def build_grid(s_min: float, s_max: float, n: int, spacing: str = "uniform") -> PriceGrid:
    """Build a 2^n node grid on [s_min, s_max], uniform or geometric, with
    every check, the qubit cap's too, run on each call; the grid is memoised
    on the bit patterns of s_min and s_max, n and spacing."""
    if not (0 <= s_min < s_max):
        raise ConfigError(f"need 0 <= s_min < s_max, got [{s_min}, {s_max}]")
    if n < 1:
        raise ConfigError(f"n must be >= 1, got {n}")
    cap = qubit_cap()
    if n > cap:
        raise QubitBudgetError(f"grid register of {n} qubits exceeds the budget of {cap}")
    if spacing == "geometric" and s_min <= 0:
        raise ConfigError("geometric spacing requires s_min > 0")
    if spacing not in ("uniform", "geometric"):
        raise ConfigError(f"spacing must be 'uniform' or 'geometric', got {spacing!r}")
    return _grid(struct.pack("<dd", s_min, s_max), n, spacing)


@functools.lru_cache(maxsize=GRID_CACHE)
def _grid(bounds: bytes, n: int, spacing: str) -> PriceGrid:
    s_min, s_max = struct.unpack("<dd", bounds)
    if spacing == "uniform":
        return PriceGrid(np.linspace(s_min, s_max, 2**n), n)
    nodes = np.geomspace(s_min, s_max, 2**n)
    nodes[0], nodes[-1] = s_min, s_max
    return PriceGrid(nodes, n)


# in the order load_market_config packs them: the market's six, the
# strike, the grid's two
_NUMBER_KEYS = ("r", "mu", "alpha", "T", "t_bar", "dtau", "strike", "s_min",
                "s_max")
_CONFIG_KEYS = {*_NUMBER_KEYS, "kind", "n", "spacing"}


def read_config_doc(path_or_dict) -> dict:
    """The config document as a new dict, read from JSON given a path; an
    unreadable file or a document that is not an object is a ConfigError."""
    if isinstance(path_or_dict, dict):
        return dict(path_or_dict)
    try:
        with open(path_or_dict) as fh:
            doc = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read config {path_or_dict}: {exc}") from exc
    if not isinstance(doc, dict):
        raise ConfigError(f"config {path_or_dict} is not a JSON object")
    return doc


def config_int(doc: dict, key: str, default=None) -> int:
    """Integer config field ``key``: an integer, an integral number such as
    8.0 or a decimal string such as "8".  A fraction, which ``int`` would
    truncate, a boolean or a value of any other type is a ConfigError."""
    value = doc.get(key, default)
    if type(value) is int:
        return value
    if not isinstance(value, (bool, np.bool_)):
        try:
            return operator.index(value)
        except TypeError:
            pass
        if isinstance(value, float) and value.is_integer():
            return int(value)
        if isinstance(value, str):
            try:
                return int(value)
            except ValueError:
                pass
    raise ConfigError(f"{key} must be an integer, got {value!r}")


def load_market_config(path_or_dict) -> tuple[MarketParams, PayoffSpec, PriceGrid]:
    """Read the JSON config (keys r, mu, alpha, T, t_bar, dtau, kind, strike,
    s_min, s_max, n, spacing) into validated domain objects; a dict is read
    in place, not copied.  The market and the payoff come from one bounded
    memo keyed on the bit patterns of their seven floats and on the kind,
    so -0.0 and 0.0 stay apart; every check runs before the memo is read
    or on its miss, market first, so a bad document raises the same error
    on every call."""
    doc = (path_or_dict if isinstance(path_or_dict, dict)
           else read_config_doc(path_or_dict))
    missing = _CONFIG_KEYS - doc.keys()
    if missing:
        raise ConfigError(f"config missing keys: {sorted(missing)}")
    try:
        num = [float(doc[key]) for key in _NUMBER_KEYS]
        if not all(map(math.isfinite, num)):
            bad = [f"{key}={value}" for key, value in zip(_NUMBER_KEYS, num)
                   if not math.isfinite(value)]
            raise ConfigError(f"config values must be finite: {', '.join(bad)}")
        bits = struct.pack("<9d", *num)
        kind = doc["kind"]
        if kind not in ("call", "put"):
            MarketParams(*num[:6])  # a bad market's error comes first
            _check_kind(kind)
        params, spec = _parse(bits[:56], kind)
        grid = build_grid(*num[7:], config_int(doc, "n"), doc["spacing"])
    except (TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(f"bad config value: {exc}") from exc
    return params, spec, grid


@functools.lru_cache(maxsize=PARSE_CACHE)
def _parse(bits: bytes, kind: str) -> tuple[MarketParams, PayoffSpec]:
    """The market of the packed r, mu, alpha, T, t_bar and dtau, and the
    payoff of a checked kind and the packed strike that follows them."""
    *market, strike = struct.unpack("<7d", bits)
    return MarketParams(*market), PayoffSpec(kind, strike)
