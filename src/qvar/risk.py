"""Tail-risk stage: comparator, bisection VaR, tail probability, swap-test
overlap and the CVaR reconstruction, plus the classical quantile oracle.
Step 4 flags once per request: each bisection probe reads the comparator's
flag-0 mass from the unflagged state (``tail_probability``).

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
holding any full-grid table.  Per Grover power, a two-level max tree
holds the maxima of the log p and log(1 - p) tables over 16-point
sub-blocks and 128-point blocks, 225 KB per power.  A block or sub-block
is bounded by the log-likelihood sum of its maxima.  The multipliers (hit
and miss counts) are non-negative and IEEE rounding is monotone, so the
bound is at least the float log-likelihood of every point it covers, with
no slack constant, and one whose bound falls below an attained value
cannot hold the argmax.  The few points left are evaluated from theta with
the full grid's ufuncs, so they carry its bits (``_likelihood_argmax``).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable, Literal

import numpy as np

from .errors import ConfigError, NumericalError
from .qcore import StateVector, flag_write, xor_write

CDF_TOL = 1e-9
# the scenario state's value register and the comparator's tail flag
VALUE_REG = "value"
FLAG = "flag"
# the amplitude-estimation theta grid: POINTS angles STEP apart on
# [0, pi/2], searched through maxima over BLOCKS blocks of BLOCK points and
# their SUBS sub-blocks of SUB_BLOCK points, built CHUNK blocks at a time
POINTS = 200_001
STEP = (np.pi / 2) / (POINTS - 1)
BLOCK = 128
SUB_BLOCK = 16
SUBS = BLOCK // SUB_BLOCK
BLOCKS = -(-POINTS // BLOCK)
CHUNK = 64

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


def _check_threshold(state: StateVector, threshold_code: int) -> None:
    width = state.layout.width_of(VALUE_REG)
    if not 0 <= threshold_code < 2**width:
        raise ConfigError(f"threshold code {threshold_code} not representable "
                          f"in {width} bits")


def comparator_ucc(state: StateVector, threshold_code: int) -> StateVector:
    """Write the tail flag: 0 where the value code is <= the threshold code,
    1 otherwise (the flag qubit starts zeroed)."""
    _check_threshold(state, threshold_code)
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
def _subblock_maxima(k: int) -> np.ndarray:
    """Maxima of power k's log p and log(1 - p) over each SUB_BLOCK grid
    points, as a (2, BLOCKS, SUBS) array: the leaves of the max tree.
    Indices past the grid repeat its last point, so every maximum is over
    real grid points.  Built CHUNK blocks at a time, so no full-grid table
    lives; the powers in use are 0 and 2^j below 1/eps, a handful of
    200 KB arrays per process."""
    leaves = np.empty((2, BLOCKS, SUBS))
    for lo in range(0, BLOCKS, CHUNK):
        index = np.arange(lo * BLOCK, min(lo + CHUNK, BLOCKS) * BLOCK)
        tables = np.array(_log_tables(2 * k + 1, _theta(index)))
        leaves[:, lo:lo + CHUNK] = \
            tables.reshape(2, -1, SUBS, SUB_BLOCK).max(axis=3)
    leaves.setflags(write=False)
    return leaves


@functools.cache
def _block_maxima(k: int) -> np.ndarray:
    """Power k's (2, BLOCKS) maxima over each BLOCK grid points, the max
    of its sub-block maxima: the max tree's root level."""
    maxima = _subblock_maxima(k).max(axis=2)
    maxima.setflags(write=False)
    return maxima


def _weighted(hits, log_hit, misses, log_miss):
    """The log-likelihood terms hits * log p + misses * log(1 - p)."""
    term = hits * log_hit
    term += misses * log_miss
    return term


def _power_sum(terms):
    """Per-power log-likelihood terms, floats or fresh arrays, added into
    the first one power at a time in power order, as the full-grid sum
    adds them (``np.sum`` would add them pairwise and round differently).
    That sum starts from 0, and 0 + t is t: every term is negative."""
    terms = iter(terms)
    total = next(terms)
    for term in terms:
        total += term
    return total


def _likelihood_argmax(powers, hits, shots: int) -> int:
    """First argmax over the theta grid of the float log-likelihood
    sum_k h_k log p_k + (shots - h_k) log(1 - p_k), equal to ``np.argmax``
    of the full-grid sum.

    The bound of a block or sub-block is the same sum with each table
    replaced by its maximum there.  The multipliers h and shots - h are
    non-negative and IEEE rounding is monotone, so the bound is at least
    the float log-likelihood of every point it covers, with no slack.  The
    middle point of the block of largest bound is evaluated exactly; its
    value ``best`` is attained on the grid.  A block or sub-block with
    bound < best holds only points strictly below best, so the sub-blocks
    with bound >= best inside the blocks with bound >= best, evaluated
    exactly in index order, hold every point of the global maximum, and
    their first argmax is the full grid's.  Exact values are recomputed
    from theta with the full grid's ufuncs, so they carry its bits.

    A foregone estimate needs no search.  When every power missed every
    shot, every term is largest where p is at its floor 1e-12, which grid
    index 0, the first index, reaches for every power.  When every power
    hit every shot, the last index reaches the ceiling 1 - 1e-12 for every
    power, and at every other index the k = 0 term, with
    p_0 <= sin^2(pi/2 - STEP) = 1 - 6.2e-11, is lower by about 6e-9,
    far more than the sum's rounding.
    """
    if all(h == 0 for h in hits):
        return 0
    if powers[0] == 0 and all(h == shots for h in hits):
        return POINTS - 1
    hit_w = np.array(hits, dtype=float)
    miss_w = shots - hit_w
    hit_f, miss_f = hit_w.tolist(), miss_w.tolist()
    bound = _power_sum(_weighted(h, log_hit, m, log_miss)
                       for h, m, (log_hit, log_miss)
                       in zip(hit_f, miss_f, map(_block_maxima, powers)))
    mults = np.array([2.0 * k + 1 for k in powers])
    # one point's terms as Python floats: the same IEEE double operations
    # in the same order, without a ufunc call per power
    middle = int(bound.argmax()) * BLOCK + BLOCK // 2
    log_hit, log_miss = _log_tables(mults, _theta(middle))
    best = _power_sum(map(_weighted, hit_f, log_hit.tolist(), miss_f,
                          log_miss.tolist()))
    kept = (bound >= best).nonzero()[0]
    leaves = np.array([_subblock_maxima(k).take(kept, axis=1) for k in powers])
    sub_bound = _power_sum(_weighted(hit_w[:, None, None], leaves[:, 0],
                                     miss_w[:, None, None], leaves[:, 1]))
    block, sub = (sub_bound >= best).nonzero()
    index = ((kept[block] * BLOCK + sub * SUB_BLOCK)[:, None]
             + np.arange(SUB_BLOCK)).ravel()
    log_hit, log_miss = _log_tables(mults[:, None], _theta(index))
    exact = _power_sum(_weighted(hit_w[:, None], log_hit, miss_w[:, None],
                                 log_miss))
    return int(index[exact.argmax()])


def estimate_amplitude(prob: float, eps: float, rng) -> AmplitudeEstimate:
    """Amplitude-estimation-style measurement of a flag probability.

    Simulates the two-dimensional Grover rotation statistics exactly: at
    power k the marked outcome fires with probability sin^2((2k+1) theta),
    theta = arcsin(sqrt(p)).  The maximum-likelihood estimate over the
    doubling power schedule reaches additive error eps at a total query
    count sum_k shots (2k+1) = O(1/eps), which is the documented budget.

    The estimate is the theta grid's first log-likelihood argmax, found by
    ``_likelihood_argmax``: the bound of a block or sub-block folds its
    per-table maxima with the non-negative hit and miss counts, so
    monotone IEEE rounding keeps it above every float log-likelihood it
    covers.  Only the points of sub-blocks whose bound reaches an attained
    value are evaluated, and the index is the full grid's ``np.argmax``,
    bit for bit.
    """
    if not 0 < eps < 1:
        raise ConfigError(f"eps must lie in (0, 1), got {eps}")
    prob = min(1.0, max(0.0, prob))
    theta = math.asin(math.sqrt(prob))
    levels = max(1, math.ceil(math.log2(1.0 / eps)))
    powers = [0] + [2**j for j in range(levels)]
    shots = 96
    hits = []
    queries = 0
    for k in powers:
        p_k = math.sin((2 * k + 1) * theta) ** 2
        hits.append(rng.binomial(shots, p_k))
        queries += shots * (2 * k + 1)
    index = _likelihood_argmax(powers, hits, shots)
    best = _theta(index)
    return AmplitudeEstimate(value=float(np.sin(best) ** 2), queries=queries,
                             shots=shots * len(powers))


def tail_probability(state: StateVector, threshold_code: int,
                     mode: str = "exact", eps: float = 0.01,
                     rng=None) -> tuple[float, int]:
    """Probability of flag = 0 (the tail mass) that ``comparator_ucc`` at
    ``threshold_code`` would give, without writing the flag; returns (p0,
    query count).  The comparator is a basis permutation, so p0 sums the
    squared amplitudes at value codes <= the threshold in stored order,
    which it keeps when the flag is the least significant qubit, as in the
    pipeline: there p0 has the bits of its flag readout.  Exact mode reads
    squared amplitudes (one query); sampled mode runs amplitude estimation
    at additive error eps."""
    _check_threshold(state, threshold_code)
    above = state.layout.values(VALUE_REG, state.index) > threshold_code
    probs = np.abs(state.amplitudes) ** 2
    p0 = float(np.bincount(above, weights=probs, minlength=2)[0])
    if mode == "exact":
        return p0, 1
    if rng is None:
        raise ConfigError("sampled mode needs a seeded generator")
    est = estimate_amplitude(p0, eps, rng)
    return est.value, est.queries


def bisection_var(state_preparer: Callable[[], StateVector], q: float, m: int,
                  mode: str = "exact", eps: float = 0.01, rng=None):
    """Smallest m-bit code whose tail probability reaches q.

    Binary search over the code range; each probe prepares a fresh state
    and reads the flag-0 mass of the comparator at the candidate threshold
    (``tail_probability``).  Terminates in at most m iterations.
    """
    if not 0 < q < 1:
        raise ConfigError(f"q must lie in (0, 1), got {q}")
    lo, hi = 0, 2**m - 1
    iterations = 0
    queries = 0
    while lo < hi:
        iterations += 1
        if iterations > m:
            raise NumericalError("bisection exceeded the m-iteration budget")
        mid = (lo + hi) // 2
        p0, used = tail_probability(state_preparer(), mid, mode, eps, rng)
        queries += used
        if p0 >= q - CDF_TOL:
            hi = mid
        else:
            lo = mid + 1
    return lo, iterations, queries


def swap_test_overlap(state_a: StateVector, state_b: StateVector,
                      mode: str = "exact", eps: float = 0.01,
                      rng=None) -> tuple[float, int]:
    """|<a|b>| via direct contraction (exact) or the swap-test statistics
    fed through amplitude estimation (sampled), budget O(1/eps).

    The common support is found by binary search of one strictly
    increasing index in the other.  The contraction sums the products with
    ``math.fsum``, which rounds the exact sum once: stored zeros, the order
    of the terms and the BLAS thread count cannot change its bits."""
    if state_a.layout.items() != state_b.layout.items():
        raise ConfigError("swap test requires identical register shapes")
    index_a, index_b = state_a.index, state_b.index
    at = np.minimum(np.searchsorted(index_b, index_a), index_b.size - 1)
    in_a = np.flatnonzero(index_b[at] == index_a)
    in_b = at[in_a]
    terms = np.conj(state_a.amplitudes[in_a]) * state_b.amplitudes[in_b]
    overlap = abs(complex(math.fsum(terms.real), math.fsum(terms.imag)))
    if mode == "exact":
        return float(overlap), 1
    if rng is None:
        raise ConfigError("sampled mode needs a seeded generator")
    est = estimate_amplitude(0.5 * (1.0 + overlap**2), eps, rng)
    return float(math.sqrt(max(0.0, 2.0 * est.value - 1.0))), est.queries


@dataclass(frozen=True)
class ClassicalRisk:
    var: float
    cvar: float
    p0: float


def classical_var_cvar(values, q: float) -> ClassicalRisk:
    """Empirical quantile oracle: smallest value with CDF >= q, and the
    mean over the closed tail {v <= VaR}."""
    values = np.asarray(values, dtype=float)
    if values.size == 0:
        raise ConfigError("values must be nonempty")
    if not 0 < q < 1:
        raise ConfigError(f"q must lie in (0, 1), got {q}")
    ordered = np.sort(values)
    count = values.size
    cdf = np.arange(1, count + 1) / count
    idx = int(np.argmax(cdf >= q - CDF_TOL))
    var = float(ordered[idx])
    tail = values[values <= var]
    return ClassicalRisk(var=var, cvar=float(tail.mean()),
                         p0=float(tail.size / count))


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


def cvar(state: StateVector, psi_ref: StateVector, ref_norm: float,
         threshold_code: int, L: int, scale: float,
         value_lookup: Callable, mode: str = "exact", eps: float = 0.01,
         rng=None) -> CvarBreakdown:
    """Tail mean from the flagged-and-uncomputed portfolio state.

    Reads the tail fraction at the VaR code, applies the comparator there,
    undoes the value write with the same price-code lookup
    ``value_lookup`` (the XOR lookup is self-inverse, standing in for the
    inverse QPCA/QFT pass), and contracts against the value-weighted
    reference state; the reconstruction divides by the achieved tail
    fraction.
    """
    p0, q_used = tail_probability(state, threshold_code, mode, eps, rng)
    if p0 <= 0.0:
        raise NumericalError("empty tail set: no branch at or below the VaR code")
    flagged = comparator_ucc(state, threshold_code)
    phi3 = xor_write(flagged, "price", VALUE_REG, value_lookup)
    raw, q_overlap = swap_test_overlap(psi_ref, phi3, mode, eps, rng)
    cvar_norm = raw * ref_norm / (p0 * math.sqrt(L))
    overlap_folded = raw * ref_norm * math.sqrt(p0)
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
