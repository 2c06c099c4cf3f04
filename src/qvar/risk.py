"""Tail-risk stage: comparator, bisection VaR, tail probability, the CVaR
overlap and its reconstruction, plus the classical quantile oracle.
Step 4 reads a ``TailTable`` built once per flagged state: the bisection
probes sum its squared magnitudes (``tail_probability``) and the CVaR
overlap its contraction terms (``swap_test_overlap``); no request writes
the flag.  Both reads, the exact bisection's result (``exact_var``) and
the classical quantile readout (``QuantileTable``) change only at a few
steps of the threshold or the level, so each is memoised on its step and
a level read again is a lookup.

All quantum-path quantities operate on the m-bit half-scale value codes,
so the quantum-exact VaR code coincides with the classical empirical
quantile of the decoded codes.  CDF comparisons against the level q use a
1e-9 slack on both the quantum and classical sides: branch probabilities
are sums of floating squares, and the slack keeps exact ties (CDF == q)
deterministic without affecting any gap of size 1/L.

Value convention: values are portfolio values and the loss tail is the
lowest q-fraction, Pr(V <= VaR) >= q.  Registers carry values normalized
by the grid norm sqrt(sum V(S_j)^2); reports carry both the normalized
and the monetary figures via ``scale``.

Amplitude estimation (sampled mode) returns the first argmax of a float
log-likelihood over a fixed 200,001-point theta grid, the index
``np.argmax`` gives on the full grid, without evaluating the full grid or
holding any full-grid table.  Per power schedule, the maxima and minima
of the log p and log(1 - p) tables over 256-point blocks form one
read-only (2P, 2 BLOCKS) matrix, 25 KB per power (``_block_bounds``).
One matrix-vector product with the hit and miss counts bounds every
block above and below; both bounds are widened by a relative slack that
covers the rounding of that product in any order and of the exact sum,
so they hold whatever the BLAS (``_bounds``).  A bisection probe compares
its estimate with q - CDF_TOL, and the estimate rises with the grid
index, so the probe is decided from the bounds alone when the best lower
bound on one side of the crossing block beats every upper bound on the
other side (``estimate_reaches``).  Otherwise, and for the estimates that
reach a report, the search evaluates the blocks whose upper bound reaches
an attained value exactly, at most CHUNK blocks at a time, from a bounded
memo of exact log tables computed with the full grid's ufuncs, so they
carry its bits (``_likelihood_argmax``).  The probes estimate tail masses
that are multiples of 1/L, so searches come back to the same blocks and
the memo's tables are reused.  Each power's shot count is one binomial
draw from the request's seeded ``random.Random``, so sampled mode needs
no ``numpy.random``: one uniform inverted against the binomial pmf in
walk order (``_draws``), whose masses a bounded memo keeps per (n, p)
(``_walk``).  The tail masses repeat, so a bounded memo keeps each
(prob, eps) draw plan (``_plan``), and an estimate pays only for what its
draws change: one uniform per uncertain power, one bound product, which a
probe's decision and its search share, and one reduction of it per
decision.
"""

from __future__ import annotations

import bisect
import functools
import math
from dataclasses import dataclass
from typing import Literal

import numpy as np

from .errors import ConfigError, NumericalError
from .qcore import StateVector, flag_write, xor_write

CDF_TOL = 1e-9
# the scenario state's value register and the comparator's tail flag
VALUE_REG = "value"
FLAG = "flag"
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
# the binomial walks kept by _walk and the draw plans kept by _plan
SLACK = 2.0**-44
SHOTS = 96
WALKS = 256
PLANS = 32

RiskMethod = Literal["classical", "quantum_exact", "quantum_sampled"]


@dataclass(frozen=True)
class RiskReport:
    """VaR/CVaR figures with provenance.

    var and cvar are monetary (scale applied); the normalized register
    values are var_normalized / cvar_normalized = monetary / scale.
    """

    level: float
    var: float
    cvar: float
    p0: float
    method: RiskMethod
    scale: float
    var_normalized: float
    cvar_normalized: float
    var_code: int | None = None

    def __post_init__(self):
        if not 0 < self.level < 1:
            raise ConfigError(f"level must lie in (0, 1), got {self.level}")

    def to_dict(self) -> dict:
        return {
            "level": self.level,
            "var": self.var,
            "cvar": self.cvar,
            "p0": self.p0,
            "method": self.method,
            "scale": self.scale,
            "var_normalized": self.var_normalized,
            "cvar_normalized": self.cvar_normalized,
            "var_code": self.var_code,
        }


def _check_level(q: float) -> None:
    if not 0 < q < 1:
        raise ConfigError(f"q must lie in (0, 1), got {q}")


def _check_threshold(width: int, threshold_code: int) -> None:
    if not 0 <= threshold_code < 2**width:
        raise ConfigError(f"threshold code {threshold_code} not representable "
                          f"in {width} bits")


def comparator_ucc(state: StateVector, threshold_code: int) -> StateVector:
    """Write the tail flag: 0 where the value code is <= the threshold code,
    1 otherwise (the flag qubit starts zeroed)."""
    _check_threshold(state.layout.width_of(VALUE_REG), threshold_code)
    return flag_write(state, VALUE_REG, FLAG,
                      lambda codes: (codes > threshold_code).astype(np.int64))


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


@functools.cache
def _block_bounds(powers: tuple) -> np.ndarray:
    """Maxima and minima of the power schedule's log p and log(1 - p)
    tables over each BLOCK grid points, as one read-only (2P, 2 BLOCKS)
    matrix: row k holds power k's log p and row P + k its log(1 - p);
    column b holds block b's maximum and column BLOCKS + b its minimum.
    Indices past the grid repeat its last point, so every entry is over
    real grid points.  Built in one pass, one power and CHUNK blocks at a
    time, so no full-grid table lives; the pipeline's schedule, 7 powers,
    holds 175 KB."""
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


@functools.lru_cache(maxsize=WALKS)
def _walk(n: int, p: float) -> tuple:
    """The Binomial(n, p) pmf in walk order, as (counts, masses): the mode
    floor((n + 1) p), whose mass comes from ``math.comb``, then one count
    below and one above in turn, each mass from its neighbour's by the pmf
    ratio, until both ends are reached.  0 < p < 1.  At most WALKS walks
    are kept, about 4 KB each at n = 96."""
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
    which draws nothing, else the pmf in walk order, ``_walk``'s own tuple,
    not a copy (``_draws``).  The tail masses a book's probes read are
    multiples of 1/L, so plans repeat across probes, requests and books.
    At most PLANS plans are kept, at eight powers no more walks than the
    walk memo."""
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


def overlap_terms(state_a: StateVector, state_b: StateVector):
    """The terms conj(a_j) b_j of <a|b> on two states' common support, in
    a's stored order, and their positions in b, found by binary search of
    one strictly increasing index in the other."""
    if state_a.layout.items() != state_b.layout.items():
        raise ConfigError("swap test requires identical register shapes")
    index_a, index_b = state_a.index, state_b.index
    at = np.minimum(np.searchsorted(index_b, index_a), index_b.size - 1)
    in_a = np.flatnonzero(index_b[at] == index_a)
    in_b = at[in_a]
    return np.conj(state_a.amplitudes[in_a]) * state_b.amplitudes[in_b], in_b


class TailTable:
    """What Step 4 reads of one flagged state (flag the lowest qubit,
    zeroed), built once: ``codes`` and ``probs``, the value codes and
    squared magnitudes in stored order, which the comparator keeps, so a
    tail read summing ``probs`` at codes <= its threshold has the flag
    readout's bits; and, given the reference ``(psi_ref, ref_norm)``, the
    CVaR overlap's terms from one comparator, value uncompute (the
    self-inverse ``value_lookup``) and ``overlap_terms`` pass at the top
    code.  A lower threshold flags the branches above it off the
    reference's support, whose branches read value 0 once uncomputed, so
    their code is their price's lookup: its terms are a prefix of the terms
    sorted by code, and ``math.fsum``, exact whatever the order, gives the
    contraction's bits.  No reference: no terms, ``ref_norm`` None.

    Both reads are step functions of the threshold, so each is memoised on
    its step, filled on first read: ``masses`` keys the tail mass on the
    threshold's rank among ``levels``, the distinct codes ascending (at
    most len(levels) + 1 entries), and ``overlaps`` the exact overlap on
    its prefix length (at most L + 1).  Every threshold of one step sums
    the same entries in the same order, so a hit has a miss's bits.  The
    exact VaR is a step function of the level, so ``var_reads`` keeps
    ``bisection_var``'s result on the level's step (``exact_var``, at most
    len(levels) + 1 entries)."""

    def __init__(self, state: StateVector, reference=None, value_lookup=None):
        layout = state.layout
        self.width = layout.width_of(VALUE_REG)
        self.codes = layout.values(VALUE_REG, state.index)
        self.probs = np.abs(state.amplitudes) ** 2
        self.codes.setflags(write=False)
        self.probs.setflags(write=False)
        # not np.unique, which imports numpy.ma
        self.levels = tuple(sorted(set(self.codes.tolist())))
        self.masses, self.overlaps, self.var_reads = {}, {}, {}
        self.ref_norm = self.term_codes = self.term_real = self.term_imag = None
        if reference is None:
            return
        psi_ref, self.ref_norm = reference
        top = comparator_ucc(state, 2**self.width - 1)
        phi3 = xor_write(top, "price", VALUE_REG, value_lookup)
        terms, at = overlap_terms(psi_ref, phi3)
        codes = np.asarray(value_lookup(layout.values("price", phi3.index[at])))
        order = np.argsort(codes, kind="stable")
        self.term_codes = tuple(codes[order].tolist())
        self.term_real = tuple(terms.real[order].tolist())
        self.term_imag = tuple(terms.imag[order].tolist())

    @functools.cached_property
    def level_masses(self) -> tuple:
        """The tail mass at each of ``levels``, nondecreasing: summing more
        nonnegative terms in the same order never rounds lower."""
        return tuple(tail_probability(self, code)[0] for code in self.levels)


def tail_probability(table: TailTable, threshold_code: int,
                     mode: str = "exact", eps: float = 0.01,
                     rng=None) -> tuple[float, int]:
    """Probability of flag = 0 (the tail mass) that ``comparator_ucc`` at
    ``threshold_code`` would give on the table's state, without writing the
    flag; returns (p0, query count).  Exact mode sums the squared
    amplitudes at value codes <= the threshold in stored order (one
    query), once per step of the table (``TailTable.masses``); sampled
    mode runs amplitude estimation at additive error eps."""
    _check_threshold(table.width, threshold_code)
    rank = bisect.bisect_right(table.levels, threshold_code)
    p0 = table.masses.get(rank)
    if p0 is None:
        p0 = table.masses[rank] = float(np.bincount(
            table.codes > threshold_code, weights=table.probs, minlength=2)[0])
    if mode == "exact":
        return p0, 1
    if rng is None:
        raise ConfigError("sampled mode needs a seeded generator")
    est = estimate_amplitude(p0, eps, rng)
    return est.value, est.queries


def bisection_var(table: TailTable, q: float, mode: str = "exact",
                  eps: float = 0.01, rng=None):
    """Smallest code of the table's m-bit value register whose tail
    probability reaches q; returns (code, iterations, queries).

    Binary search over the code range; each probe, one preparation of the
    state on the device, reads the flag-0 mass of the comparator at the
    candidate threshold (``tail_probability``), in sampled mode through
    amplitude estimation at error eps (``estimate_reaches``, which decides
    most probes from block bounds without searching for the estimate).  A
    probe is accepted when its tail holds mass and reaches q to CDF_TOL;
    an empty tail never is, so a level at or below CDF_TOL picks the least
    code with mass, as the classical quantile does.  At most m iterations.
    """
    _check_level(q)
    if mode != "exact" and rng is None:
        raise ConfigError("sampled mode needs a seeded generator")
    m = table.width
    lo, hi = 0, 2**m - 1
    iterations = 0
    queries = 0
    while lo < hi:
        iterations += 1
        if iterations > m:
            raise NumericalError("bisection exceeded the m-iteration budget")
        mid = (lo + hi) // 2
        p0, used = tail_probability(table, mid)
        if mode == "exact":
            reached = p0 > 0 and p0 >= q - CDF_TOL
        else:
            reached, used = estimate_reaches(p0, q, eps, rng)
        queries += used
        if reached:
            hi = mid
        else:
            lo = mid + 1
    return lo, iterations, queries


def exact_var(table: TailTable, q: float) -> tuple[int, int, int]:
    """``bisection_var`` in exact mode, memoised on the step of q.  A probe
    at a threshold of rank r among the table's levels is accepted when
    that rank's tail mass is positive and reaches q - CDF_TOL.  The masses
    rise with r, so the probes' outcomes, and the search's result, are
    fixed by the step ``bisect_left(masses, q - CDF_TOL)``, one of
    len(levels) + 1 (``TailTable.var_reads``).  Every level at or below
    CDF_TOL reads step 0 and picks the least code with mass; a higher
    level reads step 0 only when the first level has mass, and picks it
    too."""
    _check_level(q)
    step = bisect.bisect_left(table.level_masses, q - CDF_TOL)
    read = table.var_reads.get(step)
    if read is None:
        read = table.var_reads[step] = bisection_var(table, q)
    return read


def swap_test_overlap(table: TailTable, threshold_code: int,
                      mode: str = "exact", eps: float = 0.01,
                      rng=None) -> tuple[float, int]:
    """|<psi_ref x 0|Phi3>| for the table's reference and its state flagged
    at ``threshold_code`` with the value uncomputed: the exactly rounded
    sum of the table's terms at codes <= the threshold, kept per prefix
    in ``TailTable.overlaps`` (exact), or (sampled) the square root of an amplitude estimate, budget O(1/eps),
    of the squared overlap, the probability that compute-uncompute (Phi3's
    preparation, then the inverse reference preparation) returns all
    zeros.  Amplitude estimation resolves the angle whose sine is the
    overlap, so the overlap's error stays linear in eps near 0."""
    k = bisect.bisect_right(table.term_codes, threshold_code)
    overlap = table.overlaps.get(k)
    if overlap is None:
        overlap = table.overlaps[k] = abs(complex(
            math.fsum(table.term_real[:k]), math.fsum(table.term_imag[:k])))
    if mode == "exact":
        return overlap, 1
    if rng is None:
        raise ConfigError("sampled mode needs a seeded generator")
    est = estimate_amplitude(overlap**2, eps, rng)
    return math.sqrt(est.value), est.queries


@dataclass(frozen=True)
class ClassicalRisk:
    var: float
    cvar: float
    p0: float


@functools.lru_cache(maxsize=64)
def _empirical_cdf(count: int) -> np.ndarray:
    """The read-only empirical CDF k / count, k = 1..count, of ``count``
    equally weighted values."""
    cdf = np.arange(1, count + 1) / count
    cdf.setflags(write=False)
    return cdf


def classical_var_cvar(values, q: float, ordered=None) -> ClassicalRisk:
    """Empirical quantile oracle: smallest value with CDF >= q, and the
    mean over the closed tail {v <= VaR}, taken in stored order.
    ``ordered`` is the values sorted, when the caller keeps them.  The
    mean is ``np.mean``'s own sum and division, without its wrapper."""
    values = np.asarray(values, dtype=float)
    if values.size == 0:
        raise ConfigError("values must be nonempty")
    _check_level(q)
    ordered = np.sort(values) if ordered is None else ordered
    count = values.size
    idx = int(np.argmax(_empirical_cdf(count) >= q - CDF_TOL))
    var = float(ordered[idx])
    tail = values[values <= var]
    return ClassicalRisk(var=var, cvar=float(np.add.reduce(tail) / tail.size),
                         p0=float(tail.size / count))


class QuantileTable:
    """``classical_var_cvar`` of fixed values at any level q, memoised on
    the empirical CDF step q reads, ``bisect_left(cdf, q - CDF_TOL)``: the
    CDF rises strictly to 1.0, so that is the index ``np.argmax`` finds,
    and every q of one step reads the same quantile and the same tail.
    Holds ``values`` in stored order and ``ordered``, both read-only;
    ``reads`` fills on first read, at most one entry per value."""

    def __init__(self, values: np.ndarray):
        self.values, self.ordered = values, np.sort(values)
        values.setflags(write=False)
        self.ordered.setflags(write=False)
        self.reads = {}

    def __call__(self, q: float) -> ClassicalRisk:
        _check_level(q)
        step = bisect.bisect_left(_empirical_cdf(self.values.size),
                                  q - CDF_TOL)
        read = self.reads.get(step)
        if read is None:
            read = self.reads[step] = classical_var_cvar(self.values, q,
                                                         self.ordered)
        return read


@dataclass(frozen=True)
class CvarBreakdown:
    """CVaR reconstruction with the overlap bookkeeping made explicit.

    ``overlap_raw`` is |<psi_ref x 0|Phi3>| for the normalized reference;
    ``overlap`` folds back the reference norm and the achieved tail
    fraction (the factors the normalized-state algebra hides), so that
    cvar_normalized = overlap / (p0^{3/2} sqrt(L)) holds as an identity
    with the achieved p0 in place of the nominal level.
    """

    cvar: float
    cvar_normalized: float
    overlap: float
    overlap_raw: float
    p0: float
    queries: int = 1


def cvar(table: TailTable, threshold_code: int, L: int, scale: float,
         mode: str = "exact", eps: float = 0.01, rng=None) -> CvarBreakdown:
    """Tail mean from the flagged-and-uncomputed portfolio state.

    Reads the tail fraction at the VaR code and the reference's overlap
    with the state flagged there, value uncomputed (``swap_test_overlap``);
    the reconstruction divides by the achieved tail fraction.  Without a
    reference every branch value is zero, and so is the tail mean.
    """
    if table.ref_norm is None:
        p0, _ = tail_probability(table, threshold_code)
        return CvarBreakdown(cvar=0.0, cvar_normalized=0.0, overlap=0.0,
                             overlap_raw=0.0, p0=p0, queries=0)
    p0, q_used = tail_probability(table, threshold_code, mode, eps, rng)
    if p0 <= 0.0:
        raise NumericalError("empty tail set: no branch at or below the VaR code")
    raw, q_overlap = swap_test_overlap(table, threshold_code, mode, eps, rng)
    cvar_norm = raw * table.ref_norm / (p0 * math.sqrt(L))
    overlap_folded = raw * table.ref_norm * math.sqrt(p0)
    return CvarBreakdown(cvar=cvar_norm * scale, cvar_normalized=cvar_norm,
                         overlap=overlap_folded, overlap_raw=raw, p0=p0,
                         queries=q_used + q_overlap)


def make_reference_state(phi_layout, support,
                         value) -> tuple[StateVector, float]:
    """Value-weighted reference over (path, price) with zeroed value and
    flag registers, sparse with one stored amplitude per path.  Path k sits
    at basis index ``support[k]``, its branch in the scenario state before
    the value write (``AssembleResult.path_support``), with weight
    ``value[k]``, the decoded content of its value register
    (``AssembleResult.value``); returns the state and the weight norm W
    needed by the reconstruction."""
    weights = np.asarray(value, dtype=float)
    w_norm = float(np.linalg.norm(weights))
    if w_norm == 0.0:
        raise NumericalError("all branch values are zero; reference undefined")
    return StateVector(weights / w_norm, phi_layout, support), w_norm
