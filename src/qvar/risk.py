"""Tail-risk stage: comparator, bisection VaR, tail probability, the CVaR
overlap and its reconstruction, plus the classical quantile oracle.
Step 4 reads a ``TailTable`` built once per flagged state: a tail read sums
its squared magnitudes (``tail_probability``) and the CVaR overlap its
contraction terms (``swap_test_overlap``); no request writes the flag.
Both reads change only at a few steps of the threshold, and the classical
quantile readout (``QuantileTable``) only at a few steps of the level, so
each is memoised on its step and a level read again is a lookup.

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

Both table reads are exact.  Exact mode reads the VaR off the table's
level masses (``exact_var``).  Sampled mode estimates on top of the exact
reads through amplitude estimation (``qvar.amplitude``) at additive error
SAMPLED_EPS, drawing from a seeded generator: ``bisection_var`` searches
with estimated probes, and ``cvar``, given the generator, estimates the
tail mass and the squared overlap.
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
# the additive error of every sampled estimate
SAMPLED_EPS = 0.02


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
    the same entries in the same order, so a hit has a miss's bits."""

    def __init__(self, state: StateVector, reference=None, value_lookup=None):
        layout = state.layout
        self.width = layout.width_of(VALUE_REG)
        self.codes = layout.values(VALUE_REG, state.index)
        self.probs = np.abs(state.amplitudes) ** 2
        self.codes.setflags(write=False)
        self.probs.setflags(write=False)
        # not np.unique, which imports numpy.ma
        self.levels = tuple(sorted(set(self.codes.tolist())))
        self.masses, self.overlaps = {}, {}
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
        return tuple(tail_probability(self, code) for code in self.levels)


def tail_probability(table: TailTable, threshold_code: int) -> float:
    """Probability of flag = 0 (the tail mass) that ``comparator_ucc`` at
    ``threshold_code`` would give on the table's state, without writing the
    flag: the squared amplitudes at value codes <= the threshold, summed in
    stored order once per step of the table (``TailTable.masses``)."""
    _check_threshold(table.width, threshold_code)
    rank = bisect.bisect_right(table.levels, threshold_code)
    p0 = table.masses.get(rank)
    if p0 is None:
        p0 = table.masses[rank] = float(np.bincount(
            table.codes > threshold_code, weights=table.probs, minlength=2)[0])
    return p0


def bisection_var(table: TailTable, q: float, rng,
                  eps: float = SAMPLED_EPS) -> tuple[int, int, int]:
    """Sampled mode's VaR: the smallest code of the table's m-bit value
    register whose estimated tail probability reaches q; returns (code,
    iterations, queries).

    Binary search over the 2^m codes, which halves them exactly m times;
    each probe, one preparation of the state on the device, estimates the
    flag-0 mass of the comparator at the candidate threshold
    (``tail_probability``) by amplitude estimation at error eps, drawing
    from the seeded generator ``rng`` (``estimate_reaches``, which decides
    most probes from block bounds without searching for the estimate).  A
    probe is accepted when its estimate holds mass and reaches q to
    CDF_TOL.
    """
    _check_level(q)
    m = table.width
    lo, hi = 0, 2**m - 1
    queries = 0
    for _ in range(m):
        mid = (lo + hi) // 2
        reached, used = estimate_reaches(tail_probability(table, mid), q, eps,
                                         rng)
        queries += used
        if reached:
            hi = mid
        else:
            lo = mid + 1
    return lo, m, queries


def exact_var(table: TailTable, q: float) -> tuple[int, int, int]:
    """Exact mode's VaR, read off the table's level masses: the least level
    whose tail mass is positive and reaches q - CDF_TOL, or 2^m - 1 when
    none is, with the m iterations and m queries of the bisection that
    finds it.  That search over the 2^m codes halves them exactly m times,
    and accepts a threshold when the tail mass of its rank among the
    levels is positive and reaches q - CDF_TOL; the masses rise with the
    rank, so it returns the least level accepted.  A level at or below
    CDF_TOL picks the least level with mass, as the classical quantile
    does."""
    _check_level(q)
    masses, m = table.level_masses, table.width
    first = max(bisect.bisect_left(masses, q - CDF_TOL),
                bisect.bisect_right(masses, 0.0))
    code = table.levels[first] if first < len(masses) else 2**m - 1
    return code, m, m


def swap_test_overlap(table: TailTable, threshold_code: int) -> float:
    """|<psi_ref x 0|Phi3>| for the table's reference and its state flagged
    at ``threshold_code`` with the value uncomputed: the exactly rounded
    sum of the table's terms at codes <= the threshold, kept per prefix in
    ``TailTable.overlaps``."""
    k = bisect.bisect_right(table.term_codes, threshold_code)
    overlap = table.overlaps.get(k)
    if overlap is None:
        overlap = table.overlaps[k] = abs(complex(
            math.fsum(table.term_real[:k]), math.fsum(table.term_imag[:k])))
    return overlap


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
         rng=None, eps: float = SAMPLED_EPS) -> CvarBreakdown:
    """Tail mean from the flagged-and-uncomputed portfolio state.

    Reads the tail fraction at the VaR code and the reference's overlap
    with the state flagged there, value uncomputed (``swap_test_overlap``),
    one query each.  Given a seeded generator ``rng`` (sampled mode), it
    estimates both by amplitude estimation at error eps, budget O(1/eps):
    the tail fraction, then the squared overlap, the probability that
    compute-uncompute (Phi3's preparation, then the inverse reference
    preparation) returns all zeros.  Amplitude estimation resolves the
    angle whose sine is the overlap, so the overlap's error stays linear in
    eps near 0.  The reconstruction divides by the achieved tail fraction.
    Without a reference every branch value is zero, and so is the tail
    mean, with the exact tail fraction, no query and no draw.
    """
    p0 = tail_probability(table, threshold_code)
    if table.ref_norm is None:
        return CvarBreakdown(cvar=0.0, cvar_normalized=0.0, overlap=0.0,
                             overlap_raw=0.0, p0=p0, queries=0)
    q_used = q_overlap = 1
    if rng is not None:
        est = estimate_amplitude(p0, eps, rng)
        p0, q_used = est.value, est.queries
    if p0 <= 0.0:
        raise NumericalError("empty tail set: no branch at or below the VaR code")
    raw = swap_test_overlap(table, threshold_code)
    if rng is not None:
        est = estimate_amplitude(raw**2, eps, rng)
        raw, q_overlap = math.sqrt(est.value), est.queries
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
