import bisect
import functools
import gc
import json
import math
import os
import random
import subprocess
import sys
import tracemalloc
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

import qvar
from qvar import amplitude
from qvar.amplitude import (BLOCK, BLOCKS, CDF_TOL, CHUNK, MEMO_BLOCKS, PLANS,
                            STEP, _block_bounds, _block_tables, _bounds,
                            _draw_hits, _draws, _likelihood_argmax, _loglik,
                            _plan, _walk, estimate_amplitude, estimate_reaches)
from qvar.errors import ConfigError, NumericalError
from qvar.qcore import RegisterLayout, StateVector, xor_write
from qvar.qpca import decode_value, encode_value
from qvar.risk import (QuantileTable, TailTable, bisection_var,
                       classical_var_cvar, comparator_ucc, cvar, exact_var,
                       make_reference_state, overlap_terms, swap_test_overlap,
                       tail_probability)
from reference import (binomial, comparator_bisection_var, comparator_cvar,
                       comparator_tail_probability, dense_state,
                       exact_bisection_var, exact_distribution)

M_BITS = 5


def branch_state(value_codes, price_codes=None, with_flag=True):
    """Uniform state over branches with the given value codes loaded."""
    L = len(value_codes)
    k_bits = (L - 1).bit_length()
    regs = [("path", k_bits), ("price", 6), ("value", M_BITS)]
    if with_flag:
        regs.append(("flag", 1))
    layout = RegisterLayout(regs)
    amps = np.zeros(2**layout.total_qubits, dtype=complex)
    price_codes = price_codes if price_codes is not None else range(L)
    for k, (v, c) in enumerate(zip(value_codes, price_codes)):
        idx = (k << layout.shift_of("path")) | (int(c) << layout.shift_of("price")) \
            | (int(v) << layout.shift_of("value"))
        amps[idx] = 1.0 / np.sqrt(L)
    return dense_state(amps, layout)


def test_comparator_all_below_threshold():
    state = branch_state([1, 3, 5, 7])
    out = comparator_ucc(state, 2**M_BITS - 1)
    assert exact_distribution(out, "flag")[0] == pytest.approx(1.0, abs=1e-12)


def test_comparator_all_above_threshold():
    state = branch_state([5, 9, 13, 21])
    out = comparator_ucc(state, 3)
    assert exact_distribution(out, "flag")[1] == pytest.approx(1.0, abs=1e-12)


def test_comparator_matches_classical_pattern(rng):
    codes = rng.integers(0, 2**M_BITS, size=8)
    thr = 11
    state = branch_state(codes)
    p0 = tail_probability(TailTable(state), thr)
    assert p0 == pytest.approx(np.mean(codes <= thr), abs=1e-12)
    assert exact_distribution(comparator_ucc(state, thr), "flag")[0] == p0


def test_tail_probability_counting():
    # one sum, kept on the threshold's rank among the table's levels
    state = branch_state([1, 2, 10, 11, 12, 13, 14, 15])
    table = TailTable(state)
    p0 = tail_probability(table, 2)
    assert p0 == pytest.approx(0.25, abs=1e-12)
    assert list(table.masses.values()) == [p0]


def test_tail_probability_sampled_within_eps(rng):
    eps = 0.02
    for seed in range(20):
        gen = np.random.default_rng(seed)
        codes = gen.integers(0, 2**M_BITS, size=16)
        thr = int(gen.integers(0, 2**M_BITS))
        table = TailTable(branch_state(codes))
        exact = tail_probability(table, thr)
        est = estimate_amplitude(exact, eps, np.random.default_rng(1000 + seed))
        sampled, queries = est.value, est.queries
        assert abs(sampled - exact) <= eps
        assert queries <= 64 * 96 * 4 / eps  # documented O(1/eps) budget


@pytest.mark.parametrize("threshold", [-1, 2**M_BITS])
def test_tail_probability_rejects_unrepresentable_threshold(threshold):
    state = branch_state([1, 2, 3, 4])
    with pytest.raises(ConfigError, match="not representable"):
        tail_probability(TailTable(state), threshold)
    with pytest.raises(ConfigError, match="not representable"):
        comparator_ucc(state, threshold)


@st.composite
def flag_ready_states(draw):
    """A random state on [path, price, value, flag] with the flag as the
    least significant qubit and zeroed, as in the pipeline's flagged
    layout, in sparse or dense form; returns (state, value width)."""
    widths = [draw(st.integers(1, 4)), draw(st.integers(1, 3)),
              draw(st.integers(1, 6))]
    layout = RegisterLayout(list(zip(("path", "price", "value"), widths))
                            + [("flag", 1)])
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    unflagged = 2**(layout.total_qubits - 1)
    count = draw(st.integers(1, min(unflagged, 64)))
    index = np.sort(rng.choice(unflagged, size=count, replace=False)) << 1
    amps = rng.normal(size=count) + 1j * rng.normal(size=count)
    if draw(st.booleans()):
        amps[:] = 1.0  # uniform over the branches, as the scenario state
    amps /= np.linalg.norm(amps)
    if draw(st.booleans()):
        return StateVector(amps, layout, index.astype(np.int64)), widths[2]
    dense = np.zeros(2**layout.total_qubits, dtype=complex)
    dense[index] = amps
    return dense_state(dense, layout), widths[2]


@settings(max_examples=150, deadline=None)
@given(case=flag_ready_states(), data=st.data(),
       seed=st.integers(0, 2**32 - 1), eps=st.sampled_from([0.1, 0.02]))
def test_tail_read_equals_comparator_readout_bitwise(case, data, seed, eps):
    state, m = case
    threshold = data.draw(st.integers(0, 2**m - 1))
    table = TailTable(state)
    p0 = tail_probability(table, threshold)
    oracle, oracle_queries = comparator_tail_probability(state, threshold)
    assert (p0.hex(), 1) == (oracle.hex(), oracle_queries)
    est = estimate_amplitude(p0, eps, np.random.default_rng(seed))
    sampled = comparator_tail_probability(state, threshold, "sampled", eps,
                                          np.random.default_rng(seed))
    assert est.value.hex() == sampled[0].hex()
    assert est.queries == sampled[1]


@settings(max_examples=100, deadline=None)
@given(case=flag_ready_states(), q=st.floats(0.01, 0.99),
       mode=st.sampled_from(["exact", "sampled"]),
       seed=st.integers(0, 2**32 - 1))
def test_bisection_equals_comparator_bisection(case, q, mode, seed):
    state, m = case

    def rng():
        return np.random.default_rng(seed) if mode == "sampled" else None

    table = TailTable(state)
    got = (exact_var(table, q) if mode == "exact"
           else bisection_var(table, q, rng(), 0.02))
    assert got == comparator_bisection_var(state.copy, q, m, mode, 0.02, rng())


@st.composite
def tail_instances(draw):
    """A sparse state on [path, price, value, flag], the flag its least
    significant qubit and zeroed: branches at distinct (path, price) whose
    value register holds a random lookup of their price, a few strays whose
    value register holds something else, and the value-weighted reference
    over every branch's (path, price).  About one case in four has an
    all-zero lookup and so no reference.  Returns (state, reference or
    None, lookup, value width)."""
    path_w, price_w, m = (draw(st.integers(1, 4)), draw(st.integers(1, 3)),
                          draw(st.integers(1, 5)))
    layout = RegisterLayout([("path", path_w), ("price", price_w),
                             ("value", m), ("flag", 1)])
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    table = rng.integers(0, 2**m, size=2**price_w)
    if draw(st.booleans()) and draw(st.booleans()):
        table[:] = 0
    count = draw(st.integers(1, min(2**(path_w + price_w), 32)))
    pairs = np.sort(rng.choice(2**(path_w + price_w), size=count, replace=False))
    price = pairs & (2**price_w - 1)
    value = table[price]
    stray = rng.random(count) < draw(st.sampled_from([0.0, 0.25]))
    value[stray] ^= rng.integers(1, 2**m, size=int(stray.sum()))
    amps = rng.normal(size=count) + 1j * rng.normal(size=count)
    if draw(st.booleans()):
        amps[:] = 1.0  # uniform over the branches, as the scenario state
    state = StateVector(amps / np.linalg.norm(amps), layout,
                        (pairs << (m + 1)) | (value << 1))
    weights = decode_value(table[price], m)
    reference = (make_reference_state(layout, pairs << (m + 1), weights)
                 if weights.any() else None)
    return state, reference, table.take, m


def modes_with_generators(seed):
    """(mode, generator, oracle's generator): none in exact mode, two
    equally seeded ones in sampled mode."""
    return [("exact", None, None),
            ("sampled", np.random.default_rng(seed), np.random.default_rng(seed))]


@settings(max_examples=60, deadline=None)
@given(case=tail_instances(), seed=st.integers(0, 2**32 - 1))
def test_table_tail_mass_equals_the_comparator_at_every_code(case, seed):
    state, reference, lookup, m = case
    table = TailTable(state, reference, lookup)
    for code in range(2**m):
        for mode, rng_a, rng_b in modes_with_generators(seed):
            p0, queries = tail_probability(table, code), 1
            if rng_a is not None:
                est = estimate_amplitude(p0, 0.1, rng_a)
                p0, queries = est.value, est.queries
            oracle, oracle_queries = comparator_tail_probability(
                state, code, mode, 0.1, rng_b)
            assert (p0.hex(), queries) == (oracle.hex(), oracle_queries)


@settings(max_examples=60, deadline=None)
@given(case=tail_instances(), data=st.data())
def test_memoised_tail_reads_equal_the_unmemoised_sums(case, data):
    # each read is memoised on its step; the first read of a step may come
    # from any threshold in it, so the codes are visited in a drawn order,
    # and then again in another, where every read hits
    state, reference, lookup, m = case
    table = TailTable(state, reference, lookup)
    for _ in range(2):
        for code in data.draw(st.permutations(range(2**m))):
            p0 = tail_probability(table, code)
            mass = np.bincount(table.codes > code, weights=table.probs,
                               minlength=2)[0]
            assert p0.hex() == float(mass).hex()
            if reference is None:
                continue
            overlap = swap_test_overlap(table, code)
            k = bisect.bisect_right(table.term_codes, code)
            exact = abs(complex(math.fsum(table.term_real[:k]),
                                math.fsum(table.term_imag[:k])))
            assert overlap.hex() == exact.hex()
    assert len(table.masses) <= len(table.levels) + 1
    assert list(table.levels) == np.unique(table.codes).tolist()
    assert len(table.overlaps) <= (0 if reference is None
                                   else len(table.term_codes) + 1)


@settings(max_examples=60, deadline=None)
@given(case=tail_instances(), data=st.data())
def test_memoised_exact_var_equals_the_bisection(case, data):
    # the exact VaR is read off the step q - CDF_TOL falls in among the
    # tail masses, so q is read on both sides of every mass and of every
    # k / L, and at or below CDF_TOL, in a drawn order and twice, against
    # the bisection on a fresh table
    state, reference, lookup, m = case
    codes = TailTable(state).codes
    cut = data.draw(st.sampled_from([0, *sorted(set(codes.tolist()))[1:]]))
    if cut:
        # the branches below the cut hold no mass, so the lowest levels'
        # tail masses are 0 and no q reaches them
        amps = np.where(codes < cut, 0.0, state.amplitudes)
        state = StateVector(amps / np.linalg.norm(amps), state.layout,
                            state.index)
    table = TailTable(state, reference, lookup)
    oracle = TailTable(state, reference, lookup)
    count = state.amplitudes.size
    masses = [tail_probability(oracle, code) for code in oracle.levels]
    levels = [q for mid in [k / count for k in range(count + 1)] + masses
              for q in (mid - CDF_TOL, mid, mid + CDF_TOL) if 0 < q < 1]
    levels.append(CDF_TOL / 2)
    for q in data.draw(st.permutations(levels * 2)):
        assert exact_var(table, q) == exact_bisection_var(oracle, q), q
    with pytest.raises(ConfigError, match="q must lie in"):
        exact_var(table, 1.0)


def risk_bits(risk_read) -> tuple:
    return (risk_read.var.hex(), risk_read.cvar.hex(), risk_read.p0.hex())


@settings(max_examples=100, deadline=None)
@given(values=st.lists(st.one_of(st.sampled_from([-1.0, 0.0, 0.5]),
                                 st.floats(-1e3, 1e3)),
                       min_size=1, max_size=64),
       data=st.data())
def test_memoised_quantile_reads_equal_the_classical_oracle(values, data):
    # q on both sides of every CDF step k / L, where the readout changes;
    # the step a read is memoised on is np.argmax's index, and each level
    # is read twice, in a drawn order
    values = np.array(values)
    count = values.size
    table = QuantileTable(values)
    cdf = np.arange(1, count + 1) / count
    levels = [q for k in range(count + 1)
              for q in (k / count - CDF_TOL, k / count, k / count + CDF_TOL)
              if 0 < q < 1]
    for q in data.draw(st.permutations(levels * 2)):
        step = bisect.bisect_left(cdf, q - CDF_TOL)
        assert step == int(np.argmax(cdf >= q - CDF_TOL))
        assert risk_bits(table(q)) == risk_bits(classical_var_cvar(values, q))
    assert len(table.reads) <= count
    for q in (0.0, 1.0, float("nan")):
        with pytest.raises(ConfigError, match="q must lie"):
            table(q)


def breakdown_bits(out) -> tuple:
    return (out.overlap_raw.hex(), out.p0.hex(), out.cvar.hex(),
            out.cvar_normalized.hex(), out.overlap.hex(), out.queries)


@settings(max_examples=60, deadline=None)
@given(case=tail_instances(), seed=st.integers(0, 2**32 - 1),
       scale=st.sampled_from([1.0, 2.75]))
def test_table_cvar_equals_the_comparator_circuit_at_every_code(case, seed,
                                                                 scale):
    state, reference, lookup, m = case
    table = TailTable(state, reference, lookup)
    L = state.index.size
    for code in range(2**m):
        p0, _ = comparator_tail_probability(state, code)
        if p0 <= 0.0:
            continue
        for mode, rng_a, rng_b in modes_with_generators(seed):
            if reference is None:
                # a zero tail mean with the exact p0, and no draw
                before = None if rng_a is None else rng_a.bit_generator.state
                out = cvar(table, code, L, scale, rng_a, 0.1)
                assert breakdown_bits(out) == ((0.0).hex(), p0.hex(),
                                               *[(0.0).hex()] * 3, 0)
                assert before is None or rng_a.bit_generator.state == before
                continue
            try:
                got = breakdown_bits(cvar(table, code, L, scale, rng_a, 0.1))
            except NumericalError as exc:  # a sampled p0 of zero
                got = str(exc)
            try:
                want = breakdown_bits(comparator_cvar(
                    state, *reference, code, L, scale, lookup, mode, 0.1,
                    rng_b))
            except NumericalError as exc:
                want = str(exc)
            assert got == want


def test_estimate_amplitude_budget_scales(rng):
    est1 = estimate_amplitude(0.3, 0.05, np.random.default_rng(0))
    est2 = estimate_amplitude(0.3, 0.0125, np.random.default_rng(0))
    assert est2.queries > est1.queries
    assert est2.queries <= 16 * est1.queries


def sorting_oracle(codes, q):
    """Independent quantile by explicit sorting, in code space."""
    ordered = sorted(codes)
    L = len(ordered)
    for i, c in enumerate(ordered, start=1):
        if i / L >= q - 1e-9:
            return c
    return ordered[-1]


def test_bisection_all_equal_values():
    var, iters, _ = exact_var(TailTable(branch_state([9] * 8)), 0.37)
    assert var == 9
    assert iters <= M_BITS


def test_bisection_uniform_distinct_codes():
    codes = [2, 5, 7, 11, 13, 17, 23, 29]
    var, iters, _ = exact_var(TailTable(branch_state(codes)), 0.25)
    assert var == sorting_oracle(codes, 0.25) == 5
    assert iters <= M_BITS


@pytest.mark.parametrize("q", [0.05, 0.25, 0.5, 0.9])
def test_bisection_matches_sorting_oracle(rng, q):
    for _ in range(10):
        codes = rng.integers(0, 2**M_BITS, size=16)
        var, iters, _ = exact_var(TailTable(branch_state(codes)), q)
        assert var == sorting_oracle(codes, q)
        assert iters <= M_BITS


def contraction(a, b) -> float:
    """|<a|b>| from the terms ``overlap_terms`` aligns, summed exactly."""
    terms, at = overlap_terms(a, b)
    assert set(b.index[at].tolist()) == set(a.index.tolist()) & set(b.index.tolist())
    return abs(complex(math.fsum(terms.real), math.fsum(terms.imag)))


def test_swap_test_identical_and_orthogonal():
    a = branch_state([1, 2, 3, 4])
    b = branch_state([5, 6, 7, 8])
    assert contraction(a, a) == pytest.approx(1.0, abs=1e-12)
    assert contraction(a, b) == pytest.approx(0.0, abs=1e-12)


def test_swap_test_matches_inner_product(rng):
    layout = RegisterLayout([("a", 3)])
    x = rng.normal(size=8) + 1j * rng.normal(size=8)
    y = rng.normal(size=8) + 1j * rng.normal(size=8)
    a = dense_state(x / np.linalg.norm(x), layout)
    b = dense_state(y / np.linalg.norm(y), layout)
    got = contraction(a, b)
    assert got == pytest.approx(abs(np.vdot(x, y)) / (np.linalg.norm(x) * np.linalg.norm(y)),
                                abs=1e-12)
    # sparse supports: partly shared, of different sizes, one past the
    # other's end, and disjoint
    for keep_a, keep_b in (([0, 2, 3, 6], [1, 2, 6, 7]), ([5], [0, 1, 2, 5, 7]),
                           ([6, 7], [0, 1, 6]), ([0, 2, 4, 6], [1, 3, 5, 7]),
                           ([6, 7], [0, 1])):
        xa, yb = np.zeros(8, dtype=complex), np.zeros(8, dtype=complex)
        xa[keep_a], yb[keep_b] = x[keep_a], y[keep_b]
        xa, yb = xa / np.linalg.norm(xa), yb / np.linalg.norm(yb)
        sa = StateVector(xa[keep_a], layout, np.array(keep_a, dtype=np.int64))
        sb = StateVector(yb[keep_b], layout, np.array(keep_b, dtype=np.int64))
        for u, v in ((sa, sb), (sb, sa)):
            got = contraction(u, v)
            assert got == pytest.approx(abs(np.vdot(xa, yb)), abs=1e-12)
        if not set(keep_a) & set(keep_b):
            assert got == 0.0


def test_swap_test_shape_mismatch():
    a = branch_state([1, 2, 3, 4])
    layout = RegisterLayout([("z", 2)])
    b = dense_state(np.full(4, 0.5), layout)
    with pytest.raises(ConfigError):
        overlap_terms(a, b)


def sampled_overlap(exact: float, eps: float, rng) -> float:
    """The overlap as ``cvar`` estimates it, given a generator: the square
    root of an amplitude estimate of its square."""
    return math.sqrt(estimate_amplitude(exact**2, eps, rng).value)


def test_swap_test_sampled(rng):
    codes = rng.integers(1, 2**M_BITS, size=8)
    state, ref, ref_norm, table = cvar_setup(codes, 0.5)
    tail = TailTable(state, (ref, ref_norm), table.take)
    for threshold in (int(np.median(codes)), 2**M_BITS - 1):
        exact = swap_test_overlap(tail, threshold)
        sampled = sampled_overlap(exact, 0.01, np.random.default_rng(17))
        assert abs(sampled - exact) <= 0.05


def test_sampled_overlap_error_is_linear_in_eps(rng):
    # the estimate is of the squared overlap, whose angle amplitude
    # estimation resolves to about eps, so an empty tail reads exactly 0
    # and no overlap is off by more than a small multiple of eps
    codes = rng.integers(1, 2**M_BITS, size=8)
    state, ref, ref_norm, table = cvar_setup(codes, 0.5)
    tail = TailTable(state, (ref, ref_norm), table.take)
    eps = 0.02
    for threshold in [0] + sorted(set(codes.tolist())):
        exact = swap_test_overlap(tail, threshold)
        for seed in range(20):
            sampled = sampled_overlap(exact, eps, random.Random(seed))
            assert abs(sampled - exact) <= 2 * eps, (threshold, seed)
            if exact == 0.0:
                assert sampled == 0.0


def test_classical_var_cvar_examples():
    out = classical_var_cvar([1.0, 2.0, 3.0, 4.0], 0.25)
    assert out.var == 1.0 and out.cvar == 1.0
    out = classical_var_cvar([5.0] * 6, 0.4)
    assert out.var == 5.0 and out.cvar == 5.0 and out.p0 == 1.0


def test_classical_var_cvar_uniform_distribution(rng):
    samples = rng.uniform(0.0, 1.0, size=10**4)
    out = classical_var_cvar(samples, 0.05)
    assert abs(out.var - 0.05) < 0.01
    assert abs(out.cvar - 0.025) < 0.01


def branch_support(layout, price_codes):
    """Basis index of branch k at price code ``price_codes[k]``, value and
    flag registers zeroed."""
    price_codes = np.asarray(price_codes, dtype=np.int64)
    return ((np.arange(price_codes.size, dtype=np.int64)
             << layout.shift_of("path"))
            | (price_codes << layout.shift_of("price")))


def cvar_setup(value_codes, q, L=8):
    state = branch_state(value_codes, with_flag=True)
    layout = state.layout
    codes = np.arange(L)
    table = np.zeros(2**6, dtype=np.int64)
    table[codes] = value_codes  # price code k carries branch k's value code
    ref, ref_norm = make_reference_state(layout, branch_support(layout, codes),
                                         decode_value(table[codes], M_BITS))
    return state, ref, ref_norm, table


def test_cvar_constant_values():
    value_codes = [10] * 8
    state, ref, ref_norm, table = cvar_setup(value_codes, 0.5)
    out = cvar(TailTable(state, (ref, ref_norm), table.take), 10, 8, 1.0)
    assert out.cvar_normalized == pytest.approx(decode_value(10, M_BITS), abs=1e-10)
    assert out.p0 == pytest.approx(1.0, abs=1e-12)


def test_cvar_two_level_instance():
    a, b = encode_value(0.2, M_BITS), encode_value(0.8, M_BITS)
    value_codes = [a] * 4 + [b] * 4
    state, ref, ref_norm, table = cvar_setup(value_codes, 0.5)
    out = cvar(TailTable(state, (ref, ref_norm), table.take), int(a), 8, 1.0)
    assert out.cvar_normalized == pytest.approx(float(decode_value(a, M_BITS)), abs=1e-10)


def test_cvar_identity_matches_tail_mean(rng):
    for _ in range(10):
        value_codes = rng.integers(0, 2**M_BITS, size=8)
        q = 0.25
        state, ref, ref_norm, table = cvar_setup(value_codes, q)
        tail = TailTable(state, (ref, ref_norm), table.take)
        var, _, _ = exact_var(tail, q)
        out = cvar(tail, var, 8, 1.0)
        values = decode_value(value_codes, M_BITS)
        tail = values[values <= decode_value(var, M_BITS)]
        assert out.cvar_normalized == pytest.approx(tail.mean(), abs=1e-10)
        # closed-form reconstruction with the achieved tail fraction
        assert out.overlap / (out.p0**1.5 * np.sqrt(8)) == \
            pytest.approx(out.cvar_normalized, abs=1e-10)


def test_cvar_empty_tail_rejected():
    value_codes = [10, 11, 12, 13, 14, 15, 16, 17]
    state, ref, ref_norm, table = cvar_setup(value_codes, 0.25)
    with pytest.raises(NumericalError, match="empty tail"):
        cvar(TailTable(state, (ref, ref_norm), table.take), 5, 8, 1.0)


def test_reference_state_rejects_all_zero():
    layout = RegisterLayout([("path", 3), ("price", 6), ("value", M_BITS),
                             ("flag", 1)])
    with pytest.raises(NumericalError):
        make_reference_state(layout, branch_support(layout, np.arange(8)),
                             np.zeros(8))


def sparse_branch_state(value_codes, price_codes=None, with_flag=True):
    """branch_state in the sparse form: one stored amplitude per branch."""
    dense = branch_state(value_codes, price_codes, with_flag)
    index = np.flatnonzero(dense.amplitudes).astype(np.int64)
    return StateVector(dense.amplitudes[index], dense.layout, index)


@st.composite
def value_code_lists(draw):
    L = 2 ** draw(st.integers(1, 6))
    return draw(st.lists(st.integers(0, 2**M_BITS - 1), min_size=L, max_size=L))


@settings(max_examples=80, deadline=None)
@given(codes=value_code_lists(), q=st.floats(0.01, 0.99))
def test_sparse_bisection_matches_classical_quantile(codes, q):
    var, iters, _ = exact_var(TailTable(sparse_branch_state(codes)), q)
    classical = classical_var_cvar(decode_value(codes, M_BITS), q)
    assert decode_value(var, M_BITS) == classical.var
    assert iters <= M_BITS


@settings(max_examples=80, deadline=None)
@given(codes=value_code_lists(), seed=st.integers(0, 2**32 - 1))
def test_sparse_swap_test_equals_dense_bitwise(codes, seed):
    assume(any(codes))  # otherwise the reference state is undefined
    rng = np.random.default_rng(seed)
    L = len(codes)
    prices = rng.choice(2**6, size=L, replace=False)
    table = np.zeros(2**6, dtype=np.int64)
    table[prices] = codes
    state = sparse_branch_state(codes, prices)
    ref, _ = make_reference_state(state.layout,
                                  branch_support(state.layout, prices),
                                  decode_value(table[prices], M_BITS))
    for phi in (state, xor_write(state, "price", "value", table.take)):
        dense_ref = np.zeros(2**ref.layout.total_qubits, dtype=complex)
        dense_ref[ref.index] = ref.amplitudes
        dense_phi = np.zeros_like(dense_ref)
        dense_phi[phi.index] = phi.amplitudes
        sparse_overlap = contraction(ref, phi)
        dense_overlap = contraction(dense_state(dense_ref, ref.layout),
                                    dense_state(dense_phi, phi.layout))
        assert sparse_overlap == dense_overlap


# two fixed sparse states with 2^16 stored entries each, normalized with an
# exactly rounded sum so that only the overlap could depend on BLAS: a
# flagged state on 2^16 paths at price and value 0, and a reference on the
# same support; the value lookup is zero
OVERLAP_2_16 = """
import math
import numpy as np
from qvar.qcore import RegisterLayout, StateVector
from qvar.risk import TailTable, swap_test_overlap
rng = np.random.default_rng(20240811)
layout = RegisterLayout([("path", 16), ("price", 1), ("value", 1),
                         ("flag", 1)])
index = np.arange(2**16, dtype=np.int64) << 3
states = []
for _ in range(2):
    amps = rng.normal(size=2**16) + 1j * rng.normal(size=2**16)
    norm = math.sqrt(math.fsum(np.abs(amps) ** 2))
    states.append(StateVector(amps / norm, layout, index))
table = TailTable(states[1], (states[0], 1.0), np.zeros_like)
print(repr(swap_test_overlap(table, 1)))
"""


def test_swap_test_overlap_bits_independent_of_blas_threads():
    src = str(Path(qvar.__file__).resolve().parents[1])
    outs = []
    for threads in ("1", "2"):
        env = {**os.environ, "PYTHONPATH": src, "OPENBLAS_NUM_THREADS": threads,
               "OMP_NUM_THREADS": threads, "MKL_NUM_THREADS": threads}
        proc = subprocess.run([sys.executable, "-c", OVERLAP_2_16], env=env,
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        outs.append(proc.stdout)
    assert outs[0] == outs[1]



@settings(max_examples=200, deadline=None)
@given(prob=st.floats(0.0, 1.0), eps=st.floats(0.01, 0.2),
       seed=st.integers(0, 2**32 - 1))
def test_estimate_amplitude_within_eps(prob, eps, seed):
    # the documented budget: additive error eps at O(1/eps) queries
    est = estimate_amplitude(prob, eps, np.random.default_rng(seed))
    assert abs(est.value - prob) <= eps

def uncached_estimate_amplitude(prob, eps, rng):
    """estimate_amplitude with its likelihood tables recomputed on every
    call, as the reference for the cached tables."""
    prob = min(1.0, max(0.0, prob))
    theta = math.asin(math.sqrt(prob))
    levels = max(1, math.ceil(math.log2(1.0 / eps)))
    powers = [0] + [2**j for j in range(levels)]
    shots = 96
    hits = []
    queries = 0
    for k in powers:
        p_k = math.sin((2 * k + 1) * theta) ** 2
        hits.append(binomial(rng, shots, p_k))
        queries += shots * (2 * k + 1)
    grid = np.linspace(0.0, np.pi / 2, 200_001)
    loglik = np.zeros_like(grid)
    for k, h in zip(powers, hits):
        pk = np.sin((2 * k + 1) * grid) ** 2
        pk = np.clip(pk, 1e-12, 1.0 - 1e-12)
        loglik += h * np.log(pk) + (shots - h) * np.log1p(-pk)
    best = grid[int(np.argmax(loglik))]
    return float(np.sin(best) ** 2), queries, shots * len(powers)


@settings(max_examples=15, deadline=None)
@given(prob=st.floats(0.0, 1.0), eps=st.sampled_from([0.1, 0.02, 0.01]),
       seed=st.integers(0, 2**32 - 1))
def test_estimate_amplitude_matches_uncached_reference(prob, eps, seed):
    got = estimate_amplitude(prob, eps, np.random.default_rng(seed))
    want = uncached_estimate_amplitude(prob, eps, np.random.default_rng(seed))
    assert (got.value, got.queries, got.shots) == want


SHOTS = 96
THETA = np.linspace(0.0, np.pi / 2, 200_001)


@functools.cache
def full_tables(k):
    """Power k's unpadded log p_k and log(1 - p_k) over the whole grid."""
    pk = np.clip(np.sin((2 * k + 1) * THETA) ** 2, 1e-12, 1.0 - 1e-12)
    return np.log(pk), np.log1p(-pk)


def powers_for(eps):
    return [0] + [2**j for j in range(max(1, math.ceil(math.log2(1.0 / eps))))]


def full_grid_loglik(powers, hits):
    """The log-likelihood summed over all 200,001 grid points."""
    loglik = np.zeros_like(THETA)
    for k, h in zip(powers, hits):
        log_hit, log_miss = full_tables(k)
        loglik += h * log_hit + (SHOTS - h) * log_miss
    return loglik


def full_grid_argmax(powers, hits):
    """The log-likelihood summed over all 200,001 grid points, then argmax."""
    return int(np.argmax(full_grid_loglik(powers, hits)))


@st.composite
def hit_vectors(draw):
    eps = draw(st.sampled_from([0.1, 0.02, 0.01, 0.005]))
    size = len(powers_for(eps))
    hits = draw(st.lists(st.integers(0, SHOTS), min_size=size, max_size=size))
    return eps, hits


@settings(max_examples=150, deadline=None)
@given(case=hit_vectors())
@example(case=(0.1, [0] * 5)).via("all misses")
@example(case=(0.02, [0] * 7)).via("all misses")
@example(case=(0.01, [0] * 8)).via("all misses")
@example(case=(0.005, [0] * 9)).via("all misses: argmax at grid index 0")
@example(case=(0.1, [SHOTS] * 5)).via("all hits")
@example(case=(0.02, [SHOTS] * 7)).via("all hits")
@example(case=(0.01, [SHOTS] * 8)).via("all hits")
@example(case=(0.005, [SHOTS] * 9)).via("all hits: argmax at grid index 200,000")
def test_pruned_search_returns_full_grid_argmax(case):
    eps, hits = case
    powers = powers_for(eps)
    hits = [np.int64(h) for h in hits]  # NumPy integers are accepted too
    assert _likelihood_argmax(powers, hits, SHOTS) == full_grid_argmax(powers, hits)


# the pipeline's amplitude-estimation eps, and the ones the tests above use
EPS_SCHEDULES = [0.02, 0.1, 0.01, 0.005]


@pytest.mark.parametrize("h,index", [(0, 0), (SHOTS, THETA.size - 1)])
def test_pruned_search_reaches_grid_ends(h, index):
    # all misses and all hits end on the first and the last grid point,
    # and the search returns them without building block bounds or tables
    for eps in EPS_SCHEDULES:
        powers = powers_for(eps)
        hits = [np.int64(h)] * len(powers)
        assert full_grid_argmax(powers, hits) == index
        _block_tables.cache_clear()
        _block_bounds.cache_clear()
        assert _likelihood_argmax(powers, hits, SHOTS) == index
        assert _block_tables.cache_info().currsize == 0
        assert _block_bounds.cache_info().currsize == 0


@pytest.mark.parametrize("eps", EPS_SCHEDULES)
@pytest.mark.parametrize("prob", [0.0, 1.0])
def test_foregone_estimate_draws_as_the_reference(prob, eps):
    # p = 0 misses and p = 1 hits every shot at every power: the shortcut
    # gives the reference's estimate and leaves the generator where the
    # reference leaves it
    rng, reference_rng = random.Random(3), random.Random(3)
    got = estimate_amplitude(prob, eps, rng)
    want = uncached_estimate_amplitude(prob, eps, reference_rng)
    assert (got.value, got.queries, got.shots) == want
    assert got.value == prob
    assert rng.getstate() == reference_rng.getstate()


def draw_one(rng, n, p):
    """One Binomial(n, p) draw by the sampler's inversion, of the outcome
    a draw plan holds: the certain count for p <= 0 and p >= 1, else the
    walk."""
    return _draws(rng, [0 if p <= 0 else n if p >= 1 else _walk(n, p)])[0]


class UniformStub:
    """A generator whose every uniform is ``u``, counting the draws."""

    def __init__(self, u):
        self.u = u
        self.draws = 0

    def random(self):
        self.draws += 1
        return self.u


def walk_segments(n, p):
    """Each count's segment [lo, hi) of [0, 1) in the sampler's walk order,
    the mode floor((n + 1) p) and then one count below and one above in
    turn, from the exact pmf in rational arithmetic."""
    mode = min(n, int((n + 1) * p))
    order = [mode]
    for step in range(1, n + 1):
        order += [k for k in (mode - step, mode + step) if 0 <= k <= n]
    assert sorted(order) == list(range(n + 1))
    p_exact = Fraction(p)
    lo = Fraction(0)
    for k in order:
        hi = lo + math.comb(n, k) * p_exact**k * (1 - p_exact)**(n - k)
        yield k, lo, hi
        lo = hi


# how far a segment end of the sampler may sit from the exact one
SEGMENT_TOL = Fraction(5e-13)


@pytest.mark.parametrize("p", [0.01, 0.3, 0.5, 0.77])
@pytest.mark.parametrize("n", [1, 2, 7, 96])
def test_binomial_inverts_the_pmf_from_the_mode(n, p):
    # a uniform at a segment's midpoint, or at either end pulled in by
    # SEGMENT_TOL, comes back as a count whose exact segment lies within
    # SEGMENT_TOL of it: each segment is the pmf to 1e-12, and every count
    # whose mass exceeds that comes back from its own segment
    segments = {k: (lo, hi) for k, lo, hi in walk_segments(n, p)}
    resolved = set()
    for k, (lo, hi) in segments.items():
        for u in (lo + SEGMENT_TOL, (lo + hi) / 2, hi - SEGMENT_TOL):
            u = float(u)
            if not 0.0 <= u < 1.0:
                continue
            stub = UniformStub(u)
            got = draw_one(stub, n, p)
            assert stub.draws == 1
            got_lo, got_hi = segments[got]
            assert got_lo - SEGMENT_TOL <= Fraction(u) < got_hi + SEGMENT_TOL, \
                (k, u, got)
            if got == k:
                resolved.add(k)
    assert resolved >= {k for k, (lo, hi) in segments.items()
                        if hi - lo > 2 * SEGMENT_TOL}


@pytest.mark.parametrize("p,count", [(0.0, 0), (-0.1, 0), (1.0, 7), (1.5, 7)])
def test_binomial_certain_outcomes_draw_nothing(p, count):
    stub, rng = UniformStub(0.5), random.Random(9)
    state = rng.getstate()
    assert draw_one(stub, 7, p) == count and stub.draws == 0
    assert draw_one(rng, 7, p) == count and rng.getstate() == state


@pytest.mark.parametrize("p", [0.02, 0.2, 0.5, 0.8, 0.97])
def test_binomial_moments(p):
    # 20,000 draws at n = 96: the sample mean and variance lie within four
    # standard errors of n p and n p (1 - p); the variance's error uses the
    # binomial's fourth central moment n p q (1 + 3 (n - 2) p q)
    n, draws = 96, 20_000
    rng = random.Random(20240811)
    counts = np.array([draw_one(rng, n, p) for _ in range(draws)])
    npq = n * p * (1 - p)
    fourth = npq * (1 + 3 * (n - 2) * p * (1 - p))
    assert abs(counts.mean() - n * p) <= 4 * math.sqrt(npq / draws)
    assert abs(counts.var(ddof=1) - npq) <= 4 * math.sqrt((fourth - npq**2) / draws)


@pytest.mark.parametrize("make", [random.Random, np.random.default_rng])
def test_binomial_takes_one_uniform_from_either_generator(make):
    # a random.Random, as the pipeline passes, or a NumPy Generator, as
    # tests pass: one draw is the inversion of the generator's next uniform
    rng, twin = make(5), make(5)
    for p in (0.01, 0.3, 0.5, 0.77):
        got = draw_one(rng, 96, p)
        assert type(got) is int
        assert got == draw_one(UniformStub(twin.random()), 96, p)


def generator_state(rng):
    return rng.getstate() if isinstance(rng, random.Random) \
        else rng.bit_generator.state


@settings(max_examples=200, deadline=None)
@given(prob=st.one_of(st.sampled_from([0.0, 1.0]),
                      st.integers(1, 7).map(lambda k: k / 8),
                      st.floats(0.0, 1.0)),
       eps=st.one_of(st.sampled_from(EPS_SCHEDULES),
                     st.floats(1e-3, 1.0, exclude_max=True)),
       seed=st.integers(0, 2**32 - 1),
       make=st.sampled_from([random.Random, np.random.default_rng]))
@example(prob=0.25, eps=0.001, seed=1, make=random.Random).via(
    "sin^2(3 theta) rounds to 1: powers 1, 4, 16, 64 draw nothing")
def test_planned_draws_equal_one_binomial_per_power(prob, eps, seed, make):
    # the memoised plan draws the hits, and leaves the generator, as one
    # reference binomial draw per power in power order does, cold and warm
    theta = math.asin(math.sqrt(prob))
    powers = powers_for(eps)
    twin = make(seed)
    want = [binomial(twin, SHOTS, math.sin((2 * k + 1) * theta) ** 2)
            for k in powers]
    queries = SHOTS * sum(2 * k + 1 for k in powers)
    for _ in range(2):
        rng = make(seed)
        assert _draw_hits(prob, eps, rng) == (tuple(powers), want, queries)
        assert generator_state(rng) == generator_state(twin)
    if prob == 0.25:
        assert [math.sin((2 * k + 1) * theta) ** 2 for k in (1, 4, 16, 64)] \
            == [1.0] * 4


@pytest.mark.parametrize("eps", [0.0, 1.0, -0.5, float("nan")])
def test_draw_plan_rejects_eps_outside_the_unit_interval(eps):
    with pytest.raises(ConfigError, match="eps must lie"):
        _draw_hits(0.3, eps, random.Random(1))
    assert _plan.cache_info().currsize == 0


def test_draw_plan_memo_is_bounded_and_holds_the_walks():
    # more masses than the memo keeps: it stays at PLANS plans, and each
    # plan holds a certain count for a power at 0 or 1 and the pmf walk for
    # any other
    for j in range(PLANS + 8):
        prob = j / (PLANS + 7)
        powers, outcomes, _ = _plan(prob, 0.02)
        theta = math.asin(math.sqrt(prob))
        for k, outcome in zip(powers, outcomes):
            p = math.sin((2 * k + 1) * theta) ** 2
            if p <= 0.0 or p >= 1.0:
                assert outcome == (0 if p <= 0.0 else SHOTS)
            else:
                assert outcome == _walk(SHOTS, p)
    assert _plan.cache_info().currsize == PLANS


def padded(real, size):
    """The full-grid table over the padded index range, cut into size-point
    slices: indices past the grid repeat its last point."""
    pad = np.full(BLOCKS * BLOCK - real.size, real[-1])
    return np.concatenate([real, pad]).reshape(-1, size)


def widened(powers, hits):
    """The upper and lower block bounds ``_bounds`` certifies: its
    product's maxima half widened up and its minima half widened down by
    its slack."""
    product, slack = _bounds(powers, hits, SHOTS)
    assert product.shape == (2 * BLOCKS,)
    return product[:BLOCKS] * (1.0 - slack), product[BLOCKS:] * (1.0 + slack)


@pytest.mark.parametrize("h", [0, SHOTS])
def test_block_bounds_finite_and_tight(h):
    # rows: each power's log p, then each power's log(1 - p); columns: the
    # block maxima, then the block minima, each the padded table's own
    powers = powers_for(0.01)
    size = len(powers)
    bounds = _block_bounds(tuple(powers))
    assert bounds.shape == (2 * size, 2 * BLOCKS)
    assert not bounds.flags.writeable
    for row, k in enumerate(powers):
        for side, real in enumerate(full_tables(k)):
            blocks = padded(real, BLOCK)
            assert np.array_equal(bounds[side * size + row, :BLOCKS],
                                  blocks.max(axis=1))
            assert np.array_equal(bounds[side * size + row, BLOCKS:],
                                  blocks.min(axis=1))
    hits = [np.int64(h)] * len(powers)
    upper, lower = widened(powers, hits)
    assert upper.shape == lower.shape == (BLOCKS,)
    assert np.all(np.isfinite(upper)) and np.all(np.isfinite(lower))
    assert np.all(lower <= upper)


@settings(max_examples=100, deadline=None)
@given(case=hit_vectors())
@example(case=(0.005, [0] * 9)).via("all misses")
@example(case=(0.005, [SHOTS] * 9)).via("all hits")
@example(case=(0.02, [0, SHOTS, 0, SHOTS, 0, SHOTS, 0])).via("alternating")
def test_block_bounds_are_certified(case):
    # at every eps of EPS_SCHEDULES, each block's widened lower bound is at
    # most, and its widened upper bound at least, every float log-likelihood
    # of the full-grid sum in that block, the padded last block included
    eps, hits = case
    powers = powers_for(eps)
    upper, lower = widened(powers, hits)
    blocks = padded(full_grid_loglik(powers, hits), BLOCK)
    assert np.all(lower <= blocks.min(axis=1))
    assert np.all(blocks.max(axis=1) <= upper)


@st.composite
def probes(draw):
    """A probe's tail mass, its level and the estimate's eps and seed: the
    mass 0, 1, a multiple of 1/L or any; the level CDF_TOL, 2 CDF_TOL,
    1/L, 1 - 1e-9, the mass itself, where the probe is close, or any."""
    L = draw(st.sampled_from([8, 64, 1024]))
    prob = draw(st.one_of(st.sampled_from([0.0, 1.0]),
                          st.integers(1, L - 1).map(lambda k: k / L),
                          st.floats(0.0, 1.0)))
    levels = [CDF_TOL, 2 * CDF_TOL, 1 / L, 1 - 1e-9]
    if 0 < prob < 1:
        levels.append(prob)
    q = draw(st.one_of(st.sampled_from(levels),
                       st.floats(0.0, 1.0, exclude_min=True, exclude_max=True)))
    return prob, q, draw(st.sampled_from(EPS_SCHEDULES)), draw(st.integers(0, 2**32 - 1))


@settings(max_examples=300, deadline=None)
@given(case=probes())
@example(case=(0.3, 0.3, 0.02, 1)).via("at the crossing: searched")
@example(case=(0.0, CDF_TOL, 0.02, 1)).via("all misses")
@example(case=(1.0, 1 - 1e-9, 0.02, 1)).via("all hits")
def test_probe_decision_equals_the_estimate(case):
    # the probe's answer, query count and generator state are those of
    # estimate_amplitude compared with q - CDF_TOL, decided from the block
    # bounds or searched
    prob, q, eps, seed = case
    rng, twin = random.Random(seed), random.Random(seed)
    reached, queries = estimate_reaches(prob, q, eps, rng)
    est = estimate_amplitude(prob, eps, twin)
    assert reached == (est.value > 0 and est.value >= q - CDF_TOL)
    assert queries == est.queries
    assert rng.getstate() == twin.getstate()


def counting(monkeypatch, name):
    """A list that receives the arguments of every call of
    amplitude.<name>."""
    calls = []
    function = getattr(amplitude, name)

    def counted(*args):
        calls.append(args)
        return function(*args)

    monkeypatch.setattr(amplitude, name, counted)
    return calls


def test_probe_decision_searches_only_near_the_crossing(monkeypatch):
    # far from the level the bounds decide, with no search; at the level
    # the argmax may sit in the crossing's blocks, and the probe searches
    searches = counting(monkeypatch, "_likelihood_argmax")
    for q, prob in ((0.05, 0.3), (0.5, 0.3), (0.3, 0.3)):
        searches.clear()
        reached, _ = estimate_reaches(prob, q, 0.02, random.Random(4))
        assert len(searches) == (q == prob)
        if q != prob:
            assert reached == (prob > q)


# levels just above CDF_TOL, at 2 CDF_TOL and 1 - 1e-9, and levels whose
# crossing index falls mid-block in each of the first and the last three
# blocks: at the grid's ends the probe has no block, or one, on a side
END_LEVELS = [CDF_TOL * (1 + 2**-20), 2 * CDF_TOL, 1 - 1e-9] + [
    math.sin((block * BLOCK + BLOCK // 2) * STEP) ** 2 + CDF_TOL
    for block in (0, 1, 2, BLOCKS - 3, BLOCKS - 2, BLOCKS - 1)]


@pytest.mark.parametrize("q", END_LEVELS)
def test_probe_decision_at_the_grid_ends(q, monkeypatch):
    # masses at the level, around it, mid-grid and at both ends, 30 seeds
    # each: the answer, the query count and the generator state are the
    # estimate's, and a mass mid-grid, far from the level, is decided from
    # the bounds with no search
    searches = counting(monkeypatch, "_likelihood_argmax")
    for prob in (0.0, 1e-12, q / 2, q, min(1.0, 2 * q), 0.5, 1 - (1 - q) / 2,
                 1 - 1e-12, 1.0):
        for seed in range(30):
            searches.clear()
            rng, twin = random.Random(seed), random.Random(seed)
            reached, queries = estimate_reaches(prob, q, 0.02, rng)
            searched = len(searches)
            est = estimate_amplitude(prob, 0.02, twin)
            assert reached == (est.value > 0 and est.value >= q - CDF_TOL)
            assert queries == est.queries
            assert rng.getstate() == twin.getstate()
            if prob == 0.5:
                assert not searched and reached == (q < 0.5)


def test_probe_decision_computes_one_bound_product(monkeypatch):
    # a probe at its own level is often searched, and the search reads the
    # decision's product: every probe, decided or searched, computes one
    products = counting(monkeypatch, "_bounds")
    searches = counting(monkeypatch, "_likelihood_argmax")
    for seed in range(20):
        products.clear()
        estimate_reaches(0.3, 0.3, 0.02, random.Random(seed))
        assert len(products) == 1
    assert searches


# eps 0.001, 11 powers: hits whose search keeps over 100 of the 782 blocks
PAST_THE_MEMO = [1, 86, 47, 66, 0, 49, 54, 47, 36, 11, 62]


def counted_blocks(monkeypatch):
    """A list that receives the block count of every exact table computed
    from now on, through the block memo or outside it."""
    counts = []
    log_tables = amplitude._log_tables

    def counted(mults, theta):
        counts.append(theta.size // BLOCK)
        return log_tables(mults, theta)

    monkeypatch.setattr(amplitude, "_log_tables", counted)
    return counts


def test_search_peak_holds_the_memo_and_two_batches(monkeypatch):
    # a search that keeps over 100 blocks evaluates them CHUNK at a time,
    # so it holds at most the memo's MEMO_BLOCKS blocks, one batch's tables
    # and their stacked copy, and returns the full grid's argmax
    powers = powers_for(0.001)
    hits = PAST_THE_MEMO
    _block_bounds(tuple(powers))
    evaluated = counted_blocks(monkeypatch)
    tracemalloc.start()
    try:
        index = _likelihood_argmax(powers, hits, SHOTS)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert sum(evaluated) > 3 * CHUNK
    block_bytes = 2 * len(powers) * BLOCK * 8
    assert peak <= (MEMO_BLOCKS + 2 * CHUNK) * block_bytes
    assert index == full_grid_argmax(powers, hits)


def test_search_past_the_memo_keeps_its_first_blocks(monkeypatch):
    # a search that keeps more blocks than the memo holds puts only its
    # first MEMO_BLOCKS there and computes the rest outside it, so a repeat
    # finds those instead of each evicted before it comes back to it, and
    # returns the same index
    powers = powers_for(0.001)
    _block_bounds(tuple(powers))
    evaluated = counted_blocks(monkeypatch)
    first = _likelihood_argmax(powers, PAST_THE_MEMO, SHOTS)
    cold, searched = _block_tables.cache_info(), sum(evaluated)
    assert searched > 3 * CHUNK
    assert cold.misses == cold.currsize == MEMO_BLOCKS
    evaluated.clear()
    assert _likelihood_argmax(powers, PAST_THE_MEMO, SHOTS) == first
    warm = _block_tables.cache_info()
    assert warm.hits - cold.hits >= MEMO_BLOCKS - 1
    assert warm.misses == cold.misses and warm.currsize == MEMO_BLOCKS
    assert sum(evaluated) == searched - (warm.hits - cold.hits)


@pytest.mark.parametrize("eps", [0.02, 0.01])
def test_block_tables_are_the_full_grid_slices(eps):
    # every block, the padded last one included, bit for bit, read-only
    powers = tuple(powers_for(eps))
    real = [padded(table, BLOCK) for k in powers for table in full_tables(k)]
    for block in range(BLOCKS):
        tables = _block_tables(powers, block)
        assert sorted(tables) == ["log_hit", "log_miss"]
        for name, side in (("log_hit", 0), ("log_miss", 1)):
            table = tables[name]
            assert table.shape == (len(powers), BLOCK)
            assert not table.flags.writeable
            for row in range(len(powers)):
                assert np.array_equal(table[row], real[2 * row + side][block])


@pytest.mark.parametrize("shape", [(7, BLOCKS), (5, 7, BLOCK), (2, 9, 3)])
def test_loglik_adds_the_powers_in_order(shape):
    # _loglik's terms are h log p + m log(1 - p), added one power after
    # another into the first, as the full-grid sum adds them
    rng = np.random.default_rng(11)
    powers = shape[-2]
    tables = -rng.exponential(size=shape[:-2] + (2,) + shape[-2:]) \
        * 10.0 ** rng.integers(-12, 2, size=shape[:-2] + (2, powers, 1))
    hits = rng.integers(0, SHOTS + 1, size=powers).astype(float)
    weights = np.array([hits, SHOTS - hits])[:, :, None]
    want = np.zeros(shape[:-2] + shape[-1:])
    for k in range(powers):
        want += (hits[k] * tables[..., 0, k, :]
                 + (SHOTS - hits[k]) * tables[..., 1, k, :])
    assert np.array_equal(_loglik(weights * tables), want)


@settings(max_examples=60, deadline=None)
@given(case=hit_vectors(),
       fill=st.lists(st.integers(0, BLOCKS - 1), max_size=80))
def test_search_is_the_same_with_the_memo_cold_and_warm(case, fill):
    # cleared, warm with the search's own blocks, and full of other blocks
    # (past the cap): the same index every time
    eps, hits = case
    powers = powers_for(eps)
    _block_tables.cache_clear()
    cold = _likelihood_argmax(powers, hits, SHOTS)
    misses = _block_tables.cache_info().misses
    assert _likelihood_argmax(powers, hits, SHOTS) == cold
    assert _block_tables.cache_info().misses == misses
    for block in fill:
        _block_tables(tuple(powers), block)
    assert _likelihood_argmax(powers, hits, SHOTS) == cold
    assert _block_tables.cache_info().currsize <= MEMO_BLOCKS


def held_tables(memo):
    """The arrays of the dict entries a functools cache holds."""
    return [value for ref in gc.get_referents(memo) if isinstance(ref, dict)
            for value in ref.values() if isinstance(value, np.ndarray)]


@pytest.mark.parametrize("eps", [0.02, 0.01])
def test_block_memo_past_its_cap_stays_under_two_mb(eps):
    # the pipeline's 7 powers and 8, the most whose 64 blocks fit in 2 MiB
    powers = tuple(powers_for(eps))
    for block in range(0, BLOCKS, 3):
        _block_tables(powers, block)
    assert _block_tables.cache_info().currsize == MEMO_BLOCKS
    arrays = held_tables(_block_tables)
    assert len(arrays) == 2 * MEMO_BLOCKS
    assert sum(a.nbytes for a in arrays) <= 2 * 2**20


# the bytes of every array, tuple and float held by qvar.amplitude's
# functools caches, after estimate_amplitude has run at each eps, in a
# fresh interpreter.  A bounded cache's referents include its entries' keys
# and values, or on some Python versions their list nodes, so dicts,
# tuples and list nodes are walked six levels down, to the floats of the
# binomial walks' masses in a draw plan, and each object is counted once
CACHED_BYTES = """
import gc, json, sys
import numpy as np
from qvar import amplitude
for eps in (0.1, 0.02, 0.01):
    amplitude.estimate_amplitude(0.3, eps, np.random.default_rng(0))

def held(obj, found, depth=6):
    if isinstance(obj, np.ndarray):
        found[id(obj)] = ("array", obj.nbytes)
        return
    if isinstance(obj, float):
        found[id(obj)] = ("float", sys.getsizeof(obj))
        return
    if isinstance(obj, dict):
        inner = obj.values()
    elif isinstance(obj, tuple):
        found[id(obj)] = ("tuple", sys.getsizeof(obj))
        inner = obj
    elif type(obj).__name__ == "_lru_list_elem":
        inner = gc.get_referents(obj)
    else:
        return
    for item in inner if depth else ():
        held(item, found, depth - 1)

caches = [f for f in vars(amplitude).values() if hasattr(f, "cache_info")]
found = {}
for f in caches:
    for ref in gc.get_referents(f):
        held(ref, found)
plans = {}
for ref in gc.get_referents(amplitude._plan):
    held(ref, plans)
print(json.dumps({
    "entries": sum(f.cache_info().currsize for f in caches),
    "plan_entries": amplitude._plan.cache_info().currsize,
    "walk_floats": sum(kind == "float" for kind, _ in plans.values()),
    "arrays": sum(kind == "array" for kind, _ in found.values()),
    "bytes": sum(size for _, size in found.values())}))
"""


def test_amplitude_estimation_caches_stay_small():
    src = str(Path(qvar.__file__).resolve().parents[1])
    proc = subprocess.run([sys.executable, "-c", CACHED_BYTES],
                          env={**os.environ, "PYTHONPATH": src},
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    held = json.loads(proc.stdout)
    # each array cache entry holds at least one array, and each draw plan
    # its walks' masses, so none was missed
    assert held["arrays"] >= held["entries"] - held["plan_entries"]
    assert held["walk_floats"] > held["plan_entries"] > 0
    assert held["bytes"] <= 2 * 2**20, held
