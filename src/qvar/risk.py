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

Sampled mode reads each tail mass and overlap through amplitude estimation
(``qvar.amplitude``).
"""

from __future__ import annotations

import bisect
import functools
import math
from dataclasses import asdict, dataclass
from typing import Literal

import numpy as np

from .amplitude import CDF_TOL, estimate_amplitude, estimate_reaches
from .errors import ConfigError, NumericalError
from .qcore import StateVector, flag_write, xor_write

# the scenario state's value register and the comparator's tail flag
VALUE_REG = "value"
FLAG = "flag"

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
        return asdict(self)


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
    idx = int(np.argmax(np.arange(1, count + 1) / count >= q - CDF_TOL))
    var = float(ordered[idx])
    tail = values[values <= var]
    return ClassicalRisk(var=var, cvar=float(np.add.reduce(tail) / tail.size),
                         p0=float(tail.size / count))


class QuantileTable:
    """``classical_var_cvar`` of fixed values at any level q, memoised on
    the empirical CDF step q reads, ``bisect_left(cdf, q - CDF_TOL)``: the
    CDF rises strictly to 1.0, so that is the index ``np.argmax`` finds,
    and every q of one step reads the same quantile and the same tail.
    Holds ``values`` in stored order, ``ordered`` and ``cdf``, the CDF
    k / L, k = 1..L, of its L values, all read-only and built once;
    ``reads`` fills on first read, at most one entry per value."""

    def __init__(self, values: np.ndarray):
        count = values.size
        self.values, self.ordered = values, np.sort(values)
        self.cdf = np.arange(1, count + 1) / count
        for array in (values, self.ordered, self.cdf):
            array.setflags(write=False)
        self.reads = {}

    def __call__(self, q: float) -> ClassicalRisk:
        _check_level(q)
        step = bisect.bisect_left(self.cdf, q - CDF_TOL)
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
