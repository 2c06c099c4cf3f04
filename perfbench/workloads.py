"""Seeded request generator for the three benchmark workloads.

Every request is a complete ``qvar run`` config document on the README
market.  Only the fields named in each workload vary, and they are drawn
from the seed alone, so the same seed replays the same requests.  Strikes
are stratified: request k of a stream falls in stratum ``STRATA_ORDER[k]``
of the range, so every prefix a run completes spreads over the whole range
and the median of a run moves little from seed to seed.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable

STEP = 1 / 4096  # the README's dtau; horizons below are in these steps

README_MARKET = {
    "r": 0.02, "mu": 0.05, "alpha": 0.2, "dtau": STEP, "t_bar": 8 * STEP,
    "kind": "call", "s_min": 0.0, "s_max": 4.0, "spacing": "uniform",
}

STREAM_LENGTH = 16
# bit-reversed order of 16 strata: any prefix of length 2^j hits every
# (16 / 2^j)-th stratum
STRATA_ORDER = [int(f"{k:04b}"[::-1], 2) for k in range(STREAM_LENGTH)]

STRIKE_RANGE = (0.9, 1.1)
LEVELS = (0.01, 0.025, 0.05, 0.1)


def _stratified_strike(rng: random.Random, stratum: int) -> float:
    lo, hi = STRIKE_RANGE
    return lo + (hi - lo) / STREAM_LENGTH * (stratum + rng.random())


def _deep_horizon(rng: random.Random) -> list[dict]:
    strikes = [_stratified_strike(rng, stratum) for stratum in STRATA_ORDER]
    return [{"strike": k, "s0": k} for k in strikes]


def _fine_grid(rng: random.Random) -> list[dict]:
    out = []
    for stratum in STRATA_ORDER:
        strike = _stratified_strike(rng, stratum)
        out.append({"strike": strike, "s0": strike, "seed": rng.randrange(1, 2**31)})
    return out


def _wide_book(rng: random.Random) -> list[dict]:
    strike = rng.uniform(*STRIKE_RANGE)  # one book for the whole run
    order = list(LEVELS)
    rng.shuffle(order)
    return [{"strike": strike, "s0": strike, "q": order[k % len(order)]}
            for k in range(STREAM_LENGTH)]


def _readme_default(rng: random.Random) -> list[dict]:
    return [{}] * STREAM_LENGTH


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    fixed: dict
    varying: Callable[[random.Random], list[dict]]

    def requests(self, seed: int) -> list[dict]:
        """The run's request stream: STREAM_LENGTH config documents."""
        rng = random.Random(f"{self.name}:{seed}")
        return [{**README_MARKET, **self.fixed, **fields}
                for fields in self.varying(rng)]


def _horizon(t_tilde: int) -> float:
    return README_MARKET["t_bar"] + t_tilde * STEP


WORKLOADS = {w.name: w for w in [
    Workload(
        "deep_horizon",
        "long pricing horizon: the Stage-1 polynomial fit and phase solve "
        "dominate, the scenario stages barely run",
        {"T": _horizon(12), "n": 4, "m": 6, "L": 8, "q": 0.05,
         "mode": "quantum_exact", "seed": 7},
        _deep_horizon),
    Workload(
        "wide_book",
        "many scenarios on one book at several levels: the dense statevector "
        "and bisection VaR dominate, every request shares the Stage-1 input",
        {"T": _horizon(4), "n": 4, "m": 6, "L": 64, "mode": "quantum_exact",
         "seed": 7},
        _wide_book),
    Workload(
        "fine_grid",
        "fine price grid, few scenarios, sampled readout: the density-matrix "
        "lookup, the dense QSVT unitary and amplitude estimation dominate",
        {"T": _horizon(4), "n": 5, "m": 7, "L": 8, "q": 0.05,
         "mode": "quantum_sampled"},
        _fine_grid),
    Workload(
        "readme_default",
        "the README example config on every request; exercised by "
        "selfcheck.py, not part of the measured set",
        {"T": _horizon(8), "n": 4, "m": 6, "L": 8, "q": 0.05,
         "mode": "quantum_exact", "seed": 11, "strike": 1.0, "s0": 1.0},
        _readme_default),
]}
