import functools
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

import qvar
from qvar.errors import ConfigError, NumericalError
from qvar.qcore import RegisterLayout, StateVector, xor_write
from qvar.qpca import decode_value, encode_value
from qvar.risk import (BLOCK, BLOCKS, SUB_BLOCK, _block_maxima,
                       _likelihood_argmax, _subblock_maxima, bisection_var,
                       classical_var_cvar, comparator_ucc, cvar,
                       estimate_amplitude, make_reference_state,
                       swap_test_overlap, tail_probability)
from reference import (comparator_bisection_var, comparator_tail_probability,
                       dense_state, exact_distribution)

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
    p0, _ = tail_probability(state, thr)
    assert p0 == pytest.approx(np.mean(codes <= thr), abs=1e-12)
    assert exact_distribution(comparator_ucc(state, thr), "flag")[0] == p0


def test_tail_probability_counting():
    state = branch_state([1, 2, 10, 11, 12, 13, 14, 15])
    p0, queries = tail_probability(state, 2)
    assert p0 == pytest.approx(0.25, abs=1e-12)
    assert queries == 1


def test_tail_probability_sampled_within_eps(rng):
    eps = 0.02
    for seed in range(20):
        gen = np.random.default_rng(seed)
        codes = gen.integers(0, 2**M_BITS, size=16)
        thr = int(gen.integers(0, 2**M_BITS))
        state = branch_state(codes)
        exact, _ = tail_probability(state, thr)
        sampled, queries = tail_probability(state, thr, mode="sampled", eps=eps,
                                            rng=np.random.default_rng(1000 + seed))
        assert abs(sampled - exact) <= eps
        assert queries <= 64 * 96 * 4 / eps  # documented O(1/eps) budget


@pytest.mark.parametrize("threshold", [-1, 2**M_BITS])
def test_tail_probability_rejects_unrepresentable_threshold(threshold):
    state = branch_state([1, 2, 3, 4])
    with pytest.raises(ConfigError, match="not representable"):
        tail_probability(state, threshold)
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
    p0, queries = tail_probability(state, threshold)
    oracle, oracle_queries = comparator_tail_probability(state, threshold)
    assert (p0.hex(), queries) == (oracle.hex(), oracle_queries)
    sampled = [read(state, threshold, "sampled", eps, np.random.default_rng(seed))
               for read in (tail_probability, comparator_tail_probability)]
    assert sampled[0][0].hex() == sampled[1][0].hex()
    assert sampled[0][1] == sampled[1][1]


@settings(max_examples=100, deadline=None)
@given(case=flag_ready_states(), q=st.floats(0.01, 0.99),
       mode=st.sampled_from(["exact", "sampled"]),
       seed=st.integers(0, 2**32 - 1))
def test_bisection_equals_comparator_bisection(case, q, mode, seed):
    state, m = case

    def bisect(search):
        rng = np.random.default_rng(seed) if mode == "sampled" else None
        return search(state.copy, q, m, mode, 0.02, rng)

    assert bisect(bisection_var) == bisect(comparator_bisection_var)


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
    state = branch_state([9] * 8)
    var, iters, _ = bisection_var(lambda: state.copy(), 0.37, M_BITS)
    assert var == 9
    assert iters <= M_BITS


def test_bisection_uniform_distinct_codes():
    codes = [2, 5, 7, 11, 13, 17, 23, 29]
    state = branch_state(codes)
    var, iters, _ = bisection_var(lambda: state.copy(), 0.25, M_BITS)
    assert var == sorting_oracle(codes, 0.25) == 5
    assert iters <= M_BITS


@pytest.mark.parametrize("q", [0.05, 0.25, 0.5, 0.9])
def test_bisection_matches_sorting_oracle(rng, q):
    for _ in range(10):
        codes = rng.integers(0, 2**M_BITS, size=16)
        state = branch_state(codes)
        var, iters, _ = bisection_var(lambda: state.copy(), q, M_BITS)
        assert var == sorting_oracle(codes, q)
        assert iters <= M_BITS


def test_swap_test_identical_and_orthogonal():
    a = branch_state([1, 2, 3, 4])
    b = branch_state([5, 6, 7, 8])
    assert swap_test_overlap(a, a)[0] == pytest.approx(1.0, abs=1e-12)
    assert swap_test_overlap(a, b)[0] == pytest.approx(0.0, abs=1e-12)


def test_swap_test_matches_inner_product(rng):
    layout = RegisterLayout([("a", 3)])
    x = rng.normal(size=8) + 1j * rng.normal(size=8)
    y = rng.normal(size=8) + 1j * rng.normal(size=8)
    a = dense_state(x / np.linalg.norm(x), layout)
    b = dense_state(y / np.linalg.norm(y), layout)
    got, _ = swap_test_overlap(a, b)
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
            got, _ = swap_test_overlap(u, v)
            assert got == pytest.approx(abs(np.vdot(xa, yb)), abs=1e-12)
        if not set(keep_a) & set(keep_b):
            assert got == 0.0


def test_swap_test_shape_mismatch():
    a = branch_state([1, 2, 3, 4])
    layout = RegisterLayout([("z", 2)])
    b = dense_state(np.full(4, 0.5), layout)
    with pytest.raises(ConfigError):
        swap_test_overlap(a, b)


def test_swap_test_sampled(rng):
    layout = RegisterLayout([("a", 3)])
    x = rng.normal(size=8)
    y = x + 0.3 * rng.normal(size=8)
    a = dense_state(x / np.linalg.norm(x) + 0j, layout)
    b = dense_state(y / np.linalg.norm(y) + 0j, layout)
    exact, _ = swap_test_overlap(a, b)
    sampled, _ = swap_test_overlap(a, b, mode="sampled", eps=0.01,
                                   rng=np.random.default_rng(17))
    assert abs(sampled - exact) <= 0.05


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
    out = cvar(state, ref, ref_norm, 10, 8, 1.0, table.take)
    assert out.cvar_normalized == pytest.approx(decode_value(10, M_BITS), abs=1e-10)
    assert out.p0 == pytest.approx(1.0, abs=1e-12)


def test_cvar_two_level_instance():
    a, b = encode_value(0.2, M_BITS), encode_value(0.8, M_BITS)
    value_codes = [a] * 4 + [b] * 4
    state, ref, ref_norm, table = cvar_setup(value_codes, 0.5)
    out = cvar(state, ref, ref_norm, int(a), 8, 1.0, table.take)
    assert out.cvar_normalized == pytest.approx(float(decode_value(a, M_BITS)), abs=1e-10)


def test_cvar_identity_matches_tail_mean(rng):
    for _ in range(10):
        value_codes = rng.integers(0, 2**M_BITS, size=8)
        q = 0.25
        state, ref, ref_norm, table = cvar_setup(value_codes, q)
        var, _, _ = bisection_var(lambda: state.copy(), q, M_BITS)
        out = cvar(state, ref, ref_norm, var, 8, 1.0, table.take)
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
        cvar(state, ref, ref_norm, 5, 8, 1.0, table.take)


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
    state = sparse_branch_state(codes)
    var, iters, _ = bisection_var(state.copy, q, M_BITS)
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
        sparse_overlap, _ = swap_test_overlap(ref, phi)
        dense_overlap, _ = swap_test_overlap(dense_state(dense_ref, ref.layout),
                                             dense_state(dense_phi, phi.layout))
        assert sparse_overlap == dense_overlap


# two fixed sparse states with 2^16 stored entries each, normalized with an
# exactly rounded sum so that only the overlap could depend on BLAS
OVERLAP_2_16 = """
import math
import numpy as np
from qvar.qcore import RegisterLayout, StateVector
from qvar.risk import swap_test_overlap
rng = np.random.default_rng(20240811)
layout = RegisterLayout([("a", 17)])
index = np.arange(0, 2**17, 2, dtype=np.int64)
states = []
for _ in range(2):
    amps = rng.normal(size=2**16) + 1j * rng.normal(size=2**16)
    norm = math.sqrt(math.fsum(np.abs(amps) ** 2))
    states.append(StateVector(amps / norm, layout, index))
print(repr(swap_test_overlap(*states)[0]))
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
        hits.append(rng.binomial(shots, p_k))
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


def full_grid_argmax(powers, hits):
    """The log-likelihood summed over all 200,001 grid points, then argmax."""
    loglik = np.zeros_like(THETA)
    for k, h in zip(powers, hits):
        log_hit, log_miss = full_tables(k)
        loglik += h * log_hit + (SHOTS - h) * log_miss
    return int(np.argmax(loglik))


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
    hits = [np.int64(h) for h in hits]  # as rng.binomial returns them
    assert _likelihood_argmax(powers, hits, SHOTS) == full_grid_argmax(powers, hits)


# the pipeline's amplitude-estimation eps, and the ones the tests above use
EPS_SCHEDULES = [0.02, 0.1, 0.01, 0.005]


@pytest.mark.parametrize("h,index", [(0, 0), (SHOTS, THETA.size - 1)])
def test_pruned_search_reaches_grid_ends(h, index):
    # all misses and all hits end on the first and the last grid point,
    # and the search returns them without building a max tree
    for eps in EPS_SCHEDULES:
        powers = powers_for(eps)
        hits = [np.int64(h)] * len(powers)
        assert full_grid_argmax(powers, hits) == index
        _subblock_maxima.cache_clear()
        _block_maxima.cache_clear()
        assert _likelihood_argmax(powers, hits, SHOTS) == index
        assert _subblock_maxima.cache_info().currsize == 0
        assert _block_maxima.cache_info().currsize == 0


@pytest.mark.parametrize("eps", EPS_SCHEDULES)
@pytest.mark.parametrize("prob", [0.0, 1.0])
def test_foregone_estimate_draws_as_the_reference(prob, eps):
    # p = 0 misses and p = 1 hits every shot at every power: the shortcut
    # gives the reference's estimate and leaves the generator where the
    # reference leaves it
    rng, reference_rng = np.random.default_rng(3), np.random.default_rng(3)
    got = estimate_amplitude(prob, eps, rng)
    want = uncached_estimate_amplitude(prob, eps, reference_rng)
    assert (got.value, got.queries, got.shots) == want
    assert got.value == prob
    assert rng.bit_generator.state == reference_rng.bit_generator.state


def padded_maxima(real, size):
    """Maxima of the full-grid table over each size-point slice of the
    padded index range; slices past the grid hold only padding, which
    repeats the last point."""
    return np.array([real[lo:lo + size].max() if lo < real.size else real[-1]
                     for lo in range(0, BLOCKS * BLOCK, size)])


@pytest.mark.parametrize("h", [0, SHOTS])
def test_block_bounds_finite_and_tight(h):
    powers = powers_for(0.01)
    for k in powers:
        leaves, blocks = _subblock_maxima(k), _block_maxima(k)
        assert leaves.shape == (2, BLOCKS, BLOCK // SUB_BLOCK)
        assert blocks.shape == (2, BLOCKS)
        for leaf, block, real in zip(leaves, blocks, full_tables(k)):
            assert np.array_equal(leaf.ravel(), padded_maxima(real, SUB_BLOCK))
            assert np.array_equal(block, padded_maxima(real, BLOCK))
    hits = [np.int64(h)] * len(powers)
    bound = sum(hit * _block_maxima(k)[0] + (SHOTS - hit) * _block_maxima(k)[1]
                for k, hit in zip(powers, hits))
    assert bound.shape == (BLOCKS,) and np.all(np.isfinite(bound))


# the bytes of every array held by qvar.risk's functools caches, after
# estimate_amplitude has run at each eps, in a fresh interpreter
CACHED_BYTES = """
import gc, json
import numpy as np
from qvar import risk
for eps in (0.1, 0.02, 0.01):
    risk.estimate_amplitude(0.3, eps, np.random.default_rng(0))
caches = [f for f in vars(risk).values() if hasattr(f, "cache_info")]
arrays = [a for f in caches for ref in gc.get_referents(f) if isinstance(ref, dict)
          for value in ref.values()
          for a in (value if isinstance(value, tuple) else (value,))
          if isinstance(a, np.ndarray)]
print(json.dumps({"entries": sum(f.cache_info().currsize for f in caches),
                  "arrays": len(arrays), "bytes": sum(a.nbytes for a in arrays)}))
"""


def test_amplitude_estimation_caches_stay_small():
    src = str(Path(qvar.__file__).resolve().parents[1])
    proc = subprocess.run([sys.executable, "-c", CACHED_BYTES],
                          env={**os.environ, "PYTHONPATH": src},
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    held = json.loads(proc.stdout)
    # each cache entry holds at least one array, so none was missed
    assert held["arrays"] >= held["entries"] > 0
    assert held["bytes"] <= 2 * 2**20, held
