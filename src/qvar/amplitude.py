"""Sampled mode's maximum-likelihood amplitude estimation (Suzuki et al.,
arXiv 1904.10246) returns the first argmax of a float log-likelihood over
a fixed 200,001-point theta grid, the index ``np.argmax`` gives on the
full grid, without evaluating the full grid or holding any full-grid
table.  Per power schedule, the maxima and minima of the log p and
log(1 - p) tables over 256-point blocks form one read-only (2P, 2 BLOCKS)
matrix, 25 KB per power (``_block_bounds``).  One matrix-vector product
with the hit and miss counts bounds every block above and below; both
bounds are widened by a relative slack that covers the rounding of that
product in any order and of the exact sum, so they hold whatever the BLAS
(``_bounds``).  A bisection probe compares its estimate with q - CDF_TOL,
and the estimate rises with the grid index, so the probe is decided from
the bounds alone when the best lower bound on one side of the crossing
block beats every upper bound on the other side (``estimate_reaches``).
Otherwise, and for the estimates that reach a report, the search evaluates
the blocks whose upper bound reaches an attained value exactly, at most
CHUNK blocks at a time, from a bounded memo of exact log tables computed
with the full grid's ufuncs, so they carry its bits
(``_likelihood_argmax``).  The probes estimate tail masses that are
multiples of 1/L, so searches come back to the same blocks and the memo's
tables are reused.  Each power's shot count is one binomial draw from the
request's seeded ``random.Random``, so sampled mode needs no
``numpy.random``: one uniform inverted against the binomial pmf in walk
order (``_draws``).  The tail masses repeat, so a bounded memo keeps each
(prob, eps) draw plan with its pmf walks (``_plan``, ``_walk``), and an
estimate pays only for what its draws change: one uniform per uncertain
power, one bound product, which a probe's decision and its search share,
and one reduction of it per decision.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError

# the slack of every CDF comparison against a level q (see qvar.risk)
CDF_TOL = 1e-9
# the amplitude-estimation theta grid: POINTS angles STEP apart on
# [0, pi/2], searched through bounds over BLOCKS blocks of BLOCK points,
# built, and evaluated exactly, CHUNK blocks at a time; the exact tables
# of at most MEMO_BLOCKS blocks are kept
POINTS = 200_001
STEP = (np.pi / 2) / (POINTS - 1)
BLOCK = 256
BLOCKS = -(-POINTS // BLOCK)
CHUNK = 32
MEMO_BLOCKS = 64
# the block bounds' relative widening (see _bounds), the shots per power,
# and the schedules kept by _block_bounds and the plans kept by _plan
SLACK = 2.0**-44
SHOTS = 96
SCHEDULES = 4
PLANS = 32


@dataclass(frozen=True)
class AmplitudeEstimate:
    value: float
    queries: int
    shots: int


def _theta(index):
    """Theta grid angles ``index * STEP`` at an integer index or an
    ascending index array, bit-equal to ``np.linspace(0, pi/2, POINTS)``,
    whose last angle is set to pi/2; an index past the grid repeats that
    last angle."""
    if isinstance(index, int):
        return index * STEP if index < POINTS - 1 else np.pi / 2
    theta = index * STEP
    if index[-1] >= POINTS - 1:
        theta[index >= POINTS - 1] = np.pi / 2
    return theta


def _log_tables(mults, theta):
    """log p and log(1 - p) for p = sin^2(mults * theta) clipped to
    [1e-12, 1 - 1e-12], the entries of the log-likelihood.  Both stay
    finite, where an unclipped -inf would give NaN at 0 * -inf when a
    power has no hits or no misses.  Every ufunc runs on contiguous
    operands, so a subset of points gets the bits of the full grid."""
    pk = np.sin(mults * theta) ** 2
    np.minimum(np.maximum(pk, 1e-12, out=pk), 1.0 - 1e-12, out=pk)
    log_miss = np.negative(pk)
    np.log1p(log_miss, out=log_miss)
    return np.log(pk, out=pk), log_miss


@functools.lru_cache(maxsize=SCHEDULES)
def _block_bounds(powers: tuple) -> np.ndarray:
    """Maxima and minima of the power schedule's log p and log(1 - p)
    tables over each BLOCK grid points, as one read-only (2P, 2 BLOCKS)
    matrix: row k holds power k's log p and row P + k its log(1 - p);
    column b holds block b's maximum and column BLOCKS + b its minimum.
    Indices past the grid repeat its last point, so every entry is over
    real grid points.  Built in one pass, one power and CHUNK blocks at a
    time, so no full-grid table lives; the pipeline's schedule, 7 powers,
    holds 175 KB.  At most SCHEDULES schedules are kept."""
    size = len(powers)
    bounds = np.empty((2, size, 2, BLOCKS))
    for row, k in enumerate(powers):
        for lo in range(0, BLOCKS, CHUNK):
            hi = min(lo + CHUNK, BLOCKS)
            index = np.arange(lo * BLOCK, hi * BLOCK)
            tables = np.array(_log_tables(2 * k + 1, _theta(index)))
            tables = tables.reshape(2, -1, BLOCK)
            tables.max(axis=2, out=bounds[:, row, 0, lo:hi])
            tables.min(axis=2, out=bounds[:, row, 1, lo:hi])
    bounds = bounds.reshape(2 * size, 2 * BLOCKS)
    bounds.setflags(write=False)
    return bounds


def _bounds(powers, hits, shots: int):
    """The block bounds on the float log-likelihood sum_k h_k log p_k +
    (shots - h_k) log(1 - p_k), however that sum is rounded, as (product,
    s): the (2 BLOCKS,) matrix-vector product of the counts with
    ``_block_bounds`` and the relative slack s that widens it.
    product[b] (1 - s) bounds every point of block b above and
    product[BLOCKS + b] (1 + s) below.

    Every table entry is at most log(1 - 1e-12) < 0 and every count is
    non-negative, so each sum has terms of one sign, and a float sum of n
    products, in any order and with or without FMA, lies within a factor
    1 +- gamma_n of the real one, gamma_n = n u / (1 - n u), u = 2^-53.
    Let v be a point's real log-likelihood over the float tables and v'
    the float value the search computes, B a block's real upper bound and
    B' the product's.  Each term of the search's sum is rounded at most
    P + 1 times (the product, the pairing of hit and miss, P - 1
    additions), so v' <= v (1 - gamma_(P+1)) <= B (1 - gamma_(P+1)); the
    product has 2P terms, so B <= B' / (1 + gamma_2P).  With the rounding
    of the widening itself, any s >= gamma_2P + gamma_(P+1) + u keeps the
    widened bound B' (1 - s) at or above v', and likewise B' (1 + s) from
    the minima at or below it.  s = SLACK, 2^-44, covers that up to 167
    powers, and (3P + 2) 2u, twice the sum, beyond."""
    weights = np.array([*hits, *(shots - h for h in hits)], dtype=float)
    return (weights @ _block_bounds(tuple(powers)),
            max(SLACK, (3 * len(powers) + 2) * 2.0**-52))


@functools.lru_cache(maxsize=MEMO_BLOCKS)
def _block_tables(powers: tuple, block: int) -> dict:
    """The power schedule's exact log p and log(1 - p) tables over one
    block's grid points, read-only (P, BLOCK) arrays under "log_hit" and
    "log_miss".  Computed on contiguous indices with the full grid's
    ufuncs, so they carry its bits; the last block's padding repeats the
    grid's last point.  At most MEMO_BLOCKS blocks are kept, 1.75 MiB at
    the pipeline's 7 powers and 2 MiB at 8."""
    mults = np.array([2.0 * k + 1 for k in powers])[:, None]
    index = np.arange(block * BLOCK, (block + 1) * BLOCK)
    log_hit, log_miss = _log_tables(mults, _theta(index))
    log_hit.setflags(write=False)
    log_miss.setflags(write=False)
    return {"log_hit": log_hit, "log_miss": log_miss}


def _loglik(term):
    """The float log-likelihood sum_k h_k log p_k + m_k log(1 - p_k) at
    every point, from ``term``, a fresh (..., 2, P, n) array of the
    products h log p and m log(1 - p) over the power schedule, which it
    overwrites.  Each power's term is h log p + m log(1 - p), and the
    terms are added in power order, as the full-grid sum adds them:
    ``np.add.reduce`` over the power axis, an outer axis, adds its rows
    one after another (along the contiguous points axis it would add
    pairwise).  That sum starts from 0, and 0 + t is t: every term is
    negative."""
    hit = term[..., 0, :, :]
    np.add(hit, term[..., 1, :, :], out=hit)
    return np.add.reduce(hit, axis=-2)


def _foregone(powers, hits, shots: int):
    """The estimate's grid index when it needs no search, else None.

    When every power missed every shot, every term is largest where p is
    at its floor 1e-12, which grid index 0, the first index, reaches for
    every power.  When every power hit every shot, the last index reaches
    the ceiling 1 - 1e-12 for every power, and at every other index the
    k = 0 term, with p_0 <= sin^2(pi/2 - STEP) = 1 - 6.2e-11, is lower by
    about 6e-9, far more than the sum's rounding."""
    if not any(hits):
        return 0
    if powers[0] == 0 and all(h == shots for h in hits):
        return POINTS - 1
    return None


def _likelihood_argmax(powers, hits, shots: int, bounds=None) -> int:
    """First argmax over the theta grid of the float log-likelihood
    sum_k h_k log p_k + (shots - h_k) log(1 - p_k), equal to ``np.argmax``
    of the full-grid sum.  ``bounds`` is the counts' ``_bounds``, when the
    caller holds them.

    The block of largest upper bound (``_bounds``) is evaluated exactly;
    its maximum ``best`` is attained on the grid.  A block whose upper
    bound falls below best holds only points strictly below best, so the
    blocks left hold every point of the global maximum.  They are
    evaluated exactly in index order, at most CHUNK at a time, and a
    block whose bound falls below the best value found so far is dropped;
    the running first argmax keeps the earlier index on a tie, so it ends
    as the full grid's.  Exact values come from ``_block_tables``, which
    carry the full grid's bits; padded indices repeat the last grid point,
    which comes first, so none is returned.  The search's first
    MEMO_BLOCKS blocks are read through the memo and later ones computed
    outside it, so a search that keeps more blocks than the memo holds
    leaves its first ones there for a repeat instead of evicting each
    before the repeat reaches it.  A foregone estimate (``_foregone``)
    needs no search.
    """
    index = _foregone(powers, hits, shots)
    if index is not None:
        return index
    powers = tuple(powers)
    product, slack = _bounds(powers, hits, shots) if bounds is None else bounds
    upper = product[:BLOCKS] * (1.0 - slack)
    weights = np.array([hits, [shots - h for h in hits]], dtype=float)
    weights = weights[:, :, None]
    room = MEMO_BLOCKS

    def first_argmax(blocks):
        # the first argmax over the blocks' points, in their order, and
        # its value; the tables are weighted in a fresh copy
        nonlocal room
        tables = [(_block_tables if at < room else _block_tables.__wrapped__)(
            powers, block) for at, block in enumerate(blocks)]
        room -= len(blocks)
        term = np.array([(t["log_hit"], t["log_miss"]) for t in tables])
        term *= weights
        values = _loglik(term)
        at = int(values.argmax())
        return blocks[at // BLOCK] * BLOCK + at % BLOCK, values.flat[at]

    top = int(upper.argmax())
    index, best = first_argmax([top])
    rest = [block for block in (upper >= best).nonzero()[0].tolist()
            if block != top]
    for lo in range(0, len(rest), CHUNK):
        batch = [block for block in rest[lo:lo + CHUNK] if upper[block] >= best]
        if batch:
            other, value = first_argmax(batch)
            if value > best or (value == best and other < index):
                index, best = other, value
    return index


def _walk(n: int, p: float) -> tuple:
    """The Binomial(n, p) pmf in walk order, as (counts, masses): the mode
    floor((n + 1) p), whose mass comes from ``math.comb``, then one count
    below and one above in turn, each mass from its neighbour's by the pmf
    ratio, until both ends are reached.  0 < p < 1.  About 4 KB at
    n = 96."""
    q = 1.0 - p
    ratio = p / q
    mode = lo = hi = min(n, int((n + 1) * p))
    lo_mass = hi_mass = math.comb(n, mode) * p**mode * q**(n - mode)
    counts, masses = [mode], [lo_mass]
    while lo > 0 or hi < n:
        if lo > 0:
            lo_mass *= lo / ((n - lo + 1) * ratio)
            lo -= 1
            counts.append(lo)
            masses.append(lo_mass)
        if hi < n:
            hi_mass *= (n - hi) * ratio / (hi + 1)
            hi += 1
            counts.append(hi)
            masses.append(hi_mass)
    return tuple(counts), tuple(masses)


def _draws(rng, outcomes) -> list:
    """One Binomial draw per outcome, in turn: a certain count, an int,
    is drawn as it is, without a uniform, and a pmf in walk order
    (``_walk``) by the inversion of one ``rng.random()`` uniform, which
    ``rng``, a ``random.Random`` or a NumPy ``Generator``, supplies.  The
    pmf's segments of [0, 1) are laid out in walk order, and the uniform
    is reduced by one mass after another until it falls below 0, in the
    segment of the count drawn; the few ulps of mass that rounding leaves
    past the last segment go to the count visited last."""
    drawn = []
    for count in outcomes:
        if isinstance(count, tuple):
            counts, masses = count
            u = rng.random()
            for count, mass in zip(counts, masses):
                u -= mass
                if u < 0.0:
                    break
        drawn.append(count)
    return drawn


@functools.lru_cache(maxsize=PLANS)
def _plan(prob: float, eps: float) -> tuple:
    """The draw plan of amplitude estimation of ``prob`` in [0, 1] at
    additive error eps: the doubling power schedule, the outcome of each
    power's SHOTS shots at hit probability p = sin^2((2k + 1) theta),
    theta = arcsin(sqrt(prob)), and the query count sum_k SHOTS (2k + 1).
    The outcome is the certain count 0 for p <= 0 and SHOTS for p >= 1,
    which draws nothing, else the pmf in walk order (``_walk``, ``_draws``).
    The tail masses a book's probes read are multiples of 1/L, so plans
    repeat across probes, requests and books.  At most PLANS plans are
    kept, with at most 8 walks each at eight powers."""
    if not 0 < eps < 1:
        raise ConfigError(f"eps must lie in (0, 1), got {eps}")
    theta = math.asin(math.sqrt(prob))
    levels = max(1, math.ceil(math.log2(1.0 / eps)))
    powers = (0,) + tuple(2**j for j in range(levels))
    outcomes = []
    for k in powers:
        p = math.sin((2 * k + 1) * theta) ** 2
        outcomes.append(0 if p <= 0.0 else SHOTS if p >= 1.0
                        else _walk(SHOTS, p))
    return powers, tuple(outcomes), SHOTS * sum(2 * k + 1 for k in powers)


def _draw_hits(prob: float, eps: float, rng):
    """The doubling power schedule for additive error eps, each power's
    hits out of SHOTS, drawn in power order from ``rng``, and the query
    count sum_k SHOTS (2k + 1): the measurements of amplitude estimation
    of ``prob``, clipped to [0, 1].  Each power's hits are one
    Binomial(SHOTS, sin^2((2k + 1) theta)) draw, read from the memoised
    ``_plan``, so a draw pays only for its uniforms: one per power whose
    hit probability is neither 0 nor 1 (``_draws``)."""
    powers, outcomes, queries = _plan(min(1.0, max(0.0, prob)), eps)
    return powers, _draws(rng, outcomes), queries


def _estimate(index: int) -> float:
    """The amplitude estimate at a theta grid index, sin^2 theta."""
    return float(np.sin(_theta(index)) ** 2)


def estimate_amplitude(prob: float, eps: float, rng) -> AmplitudeEstimate:
    """Amplitude-estimation-style measurement of a flag probability.

    Simulates the two-dimensional Grover rotation statistics exactly: at
    power k the marked outcome fires with probability sin^2((2k+1) theta),
    theta = arcsin(sqrt(p)).  The maximum-likelihood estimate over the
    doubling power schedule reaches additive error eps at a total query
    count sum_k shots (2k+1) = O(1/eps), which is the documented budget.
    ``rng`` is a seeded ``random.Random``; each power's hits are one
    binomial draw from it, read from the memoised draw plan of (prob, eps)
    (``_draw_hits``), so only the uniforms are drawn anew.

    The estimate is the theta grid's first log-likelihood argmax, found by
    ``_likelihood_argmax``: only the blocks whose certified upper bound
    reaches an attained value are evaluated, from memoised exact tables,
    and the index is the full grid's ``np.argmax``, bit for bit.
    """
    powers, hits, queries = _draw_hits(prob, eps, rng)
    index = _likelihood_argmax(powers, hits, SHOTS)
    return AmplitudeEstimate(value=_estimate(index), queries=queries,
                             shots=SHOTS * len(powers))


def estimate_reaches(prob: float, q: float, eps: float, rng) -> tuple[bool, int]:
    """Whether the amplitude estimate of ``prob`` holds mass and reaches q
    to CDF_TOL, and its query count: the comparison of a bisection probe,
    with the draws, the answer and the generator state of
    ``estimate_amplitude(prob, eps, rng)``.

    The estimate sin^2 theta rises with the grid index, and the crossing
    index ceil(asin(sqrt(q - CDF_TOL)) / STEP) splits the grid.  Outside
    the crossing's block and its two neighbours, every point lies at least
    256 steps from the crossing, where sin^2 moves by at least
    sin^2(256 STEP) = 4e-6, far beyond the rounding of the crossing or of
    an estimate, so every point below reads under q - CDF_TOL and every
    point above reads at or over it, and over 0.  When the best lower
    bound (``_bounds``) of the blocks on one side beats every upper bound
    of the rest, the argmax lies on that side, and the probe is decided.
    One ``np.maximum.reduceat`` of the unwidened product gives the maxima
    of its upper and lower halves below, across and above the crossing,
    and only the maxima compared are widened: fl(x c) rises with x, so the
    widened maximum is the maximum of the widened bounds.  A side with no block,
    at either end of the grid, is cut to one block of the crossing and
    decides nothing.  Otherwise the argmax is searched
    (``_likelihood_argmax``) from the same product."""
    powers, hits, queries = _draw_hits(prob, eps, rng)
    index = _foregone(powers, hits, SHOTS)
    if index is None:
        bounds = product, slack = _bounds(powers, hits, SHOTS)
        crossing = math.ceil(math.asin(math.sqrt(max(0.0, q - CDF_TOL)))
                             / STEP)
        below, above = crossing // BLOCK - 1, crossing // BLOCK + 2
        lo, hi = max(below, 0), min(above, BLOCKS - 1)
        up_below, up_across, up_above, low_below, _, low_above = \
            np.maximum.reduceat(product, [0, lo, hi, BLOCKS, BLOCKS + lo,
                                          BLOCKS + hi]).tolist()
        up, low = 1.0 - slack, 1.0 + slack
        if below > 0 and low_below * low > max(up_across, up_above) * up:
            return False, queries
        if above < BLOCKS and low_above * low > max(up_below, up_across) * up:
            return True, queries
        index = _likelihood_argmax(powers, hits, SHOTS, bounds)
    value = _estimate(index)
    return value > 0 and value >= q - CDF_TOL, queries
