import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from qvar import qpca
from qvar.errors import ConfigError
from qvar.market import build_grid, payoff_vector, price_code
from qvar.mc import PathSet
from qvar.qcore import RegisterLayout, StateVector
from qvar.qpca import (TROTTER_DISTANCE_TOL, assemble_portfolio_state,
                       decode_value, encode_value, grid_codes,
                       prepare_path_state, price_register_width,
                       qpe_exact_distributions, qpe_trotter_distributions,
                       reduced_rho, snap_paths, sqrt_code_table, trotter_values)
from reference import (DensityMatrix, basis_state,
                       dense_qpe_exact_distributions,
                       dense_qpe_trotter_distributions, evolve_exp_rho,
                       exact_distribution, grover_rudolph_prepare,
                       nearest_index, perturb_state, qpe_modal_estimates,
                       qpe_write_eigenvalues, qft_matrix, sqrt_register,
                       trotter_slice)


def make_paths(prices, m=6):
    prices = price_code(prices, m) / 2.0**m
    return PathSet(L=prices.size, t=0.0, prices=prices, m=m)


def assemble(paths, vstate, grid, m):
    """``assemble_portfolio_state`` with the snap and the grid codes derived
    here, as ``run_pipeline`` derives them once per request."""
    return assemble_portfolio_state(paths, vstate, grid, m,
                                    snap_paths(paths, grid), grid_codes(grid, m))


@pytest.fixture
def grid4():
    return build_grid(0.0, 4.0, 4, "uniform")


def test_grid_codes_distinct_and_width(grid4):
    codes = grid_codes(grid4, 6)
    assert len(set(codes.tolist())) == 16
    assert price_register_width(codes) == 9


def test_value_lookup_reads_only_grid_codes(grid4):
    codes = grid_codes(grid4, 6)  # 0, 17, 34, ..., 256
    lookup = qpca.value_lookup(codes, np.arange(1, 17))
    assert lookup(codes).tolist() == list(range(1, 17))
    # a code that is no node's reads 0, not a neighbour's value
    assert lookup(np.array([1, 16, 18, 255, 257, 511])).tolist() == [0] * 6


def test_grid_codes_collision_rejected():
    grid = build_grid(0.0, 4.0, 6, "uniform")
    with pytest.raises(ConfigError, match="collide"):
        grid_codes(grid, 2)


def test_reduced_rho_pure_case(grid4):
    values = np.zeros(16)
    values[3] = 2.5
    rho = reduced_rho(grover_rudolph_prepare(values), grid4)
    assert rho[3] == pytest.approx(1.0, abs=1e-12)


def test_reduced_rho_two_equal_values(grid4):
    values = np.zeros(16)
    values[[2, 9]] = 1.0
    rho = reduced_rho(grover_rudolph_prepare(values), grid4)
    eigs = np.sort(rho)[::-1]
    assert eigs[0] == pytest.approx(0.5, abs=1e-12)
    assert eigs[1] == pytest.approx(0.5, abs=1e-12)


def test_reduced_rho_matches_normalization_oracle(grid4, rng):
    values = rng.uniform(0.0, 1.0, size=16)
    rho = reduced_rho(grover_rudolph_prepare(values), grid4)
    expected = np.sort(values**2 / np.sum(values**2))[::-1]
    got = np.sort(rho)[::-1]
    assert np.abs(got[:16] - expected).max() < 1e-12


def test_reduced_rho_checks_the_grid_length(grid4):
    reduced_rho(grover_rudolph_prepare(np.ones(16)), grid4)
    for size in (8, 32):
        with pytest.raises(ConfigError, match=r"2\^4 grid amplitudes"):
            reduced_rho(grover_rudolph_prepare(np.ones(size)), grid4)
    with pytest.raises(ConfigError, match=r"2\^4 grid amplitudes"):
        reduced_rho(grover_rudolph_prepare(np.ones(16)).reshape(4, 4), grid4)


def random_density(rng, dim, diagonal=False):
    if diagonal:
        p = rng.uniform(0.1, 1.0, size=dim)
        return DensityMatrix(np.diag(p / p.sum()))
    z = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    h = z @ z.conj().T
    return DensityMatrix(h / np.trace(h).real)


@st.composite
def value_states_on_grids(draw):
    """A random complex value state, Stage 1's 2^n grid amplitudes, on a
    2^n-node grid whose m-bit price codes are distinct."""
    n = draw(st.integers(1, 5))
    m = draw(st.integers(2, 7))
    spacing = draw(st.sampled_from(["uniform", "geometric"]))
    grid = build_grid(0.25 if spacing == "geometric" else 0.0, 4.0, n, spacing)
    try:
        grid_codes(grid, m)
    except ConfigError:
        assume(False)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    amps = rng.normal(size=2**n) + 1j * rng.normal(size=2**n)
    return grid, m, amps / np.linalg.norm(amps)


@settings(max_examples=60, deadline=None)
@given(case=value_states_on_grids())
def test_reduced_rho_is_the_diagonal_of_the_contracted_psi2(case):
    grid, m, vstate = case
    # psi2 = sum_j v_j |j>|code(S_j)> as a (grid, price) array, contracted
    # over the grid index: rho[c, d] = sum_j psi2[j, c] conj(psi2[j, d])
    codes = grid_codes(grid, m)
    psi2 = np.zeros((2**grid.n, 2**price_register_width(codes)), dtype=complex)
    psi2[np.arange(2**grid.n), codes] = vstate
    dense = np.einsum("jc,jd->cd", psi2, psi2.conj())
    diag = np.diagonal(dense)
    assert np.count_nonzero(dense - np.diag(diag)) == 0
    assert np.count_nonzero(diag.imag) == 0
    # the spectrum lives on the nodes' codes: node j's entry sits at code(S_j)
    assert np.count_nonzero(np.delete(diag, codes)) == 0
    assert np.array_equal(reduced_rho(vstate, grid), diag.real[codes])


def test_evolve_zero_time_is_identity(rng):
    rho = random_density(rng, 8, diagonal=True)
    sigma = random_density(rng, 8)
    for n_trotter in (None, 4):  # exact, then four swap slices
        out = evolve_exp_rho(sigma, rho, 0.0, n_trotter)
        assert np.abs(out.entries - sigma.entries).max() < 1e-12


def test_evolve_commuting_case(rng):
    rho = random_density(rng, 8, diagonal=True)
    sigma = random_density(rng, 8, diagonal=True)
    out = evolve_exp_rho(sigma, rho, 1.7)
    assert np.abs(out.entries - sigma.entries).max() < 1e-12


def test_trotter_slice_second_order(rng):
    # per-slice deviation from the exact exponential is O(dt^2): the
    # distance shrinks ~4x when the slice halves
    rho = random_density(rng, 8, diagonal=True)
    sigma = random_density(rng, 8)
    dists = []
    for n_slices in (8, 16, 32):
        dt = 1.0 / n_slices
        exact = evolve_exp_rho(sigma, rho, dt)
        approx = trotter_slice(rho, sigma, dt)
        dists.append(np.linalg.norm(approx.entries - exact.entries, 2))
    ratios = [dists[i] / dists[i + 1] for i in range(2)]
    slopes = [np.log2(r) for r in ratios]
    assert all(abs(s - 2.0) <= 0.2 for s in slopes)


def test_trotter_accumulated_error_bounded(rng):
    rho = random_density(rng, 8, diagonal=True)
    sigma = random_density(rng, 8)
    tau = 1.0
    exact = evolve_exp_rho(sigma, rho, tau)
    for n in (8, 16, 32):
        approx = evolve_exp_rho(sigma, rho, tau, n)
        dist = np.linalg.norm(approx.entries - exact.entries, 2)
        assert dist <= 4.0 * n * (tau / n) ** 2  # C * N_trotter * delta_t^2


def qpe_state(grid, values, paths, m):
    """The QPE output on the scenario state, rho per node and the codes."""
    vstate = grover_rudolph_prepare(values)
    rho = reduced_rho(vstate, grid)
    codes = grid_codes(grid, m)
    state = prepare_path_state(paths, codes, m, snap_paths(paths, grid))
    return qpe_write_eigenvalues(state, rho, codes), rho, codes


def test_qpe_pure_rho_reads_one(grid4):
    values = np.zeros(16)
    values[5] = 1.0
    paths = make_paths(np.full(8, grid4.nodes[5]))
    out, _, codes = qpe_state(grid4, values, paths, 6)
    estimates = qpe_modal_estimates(out)
    assert estimates[codes[5]] == pytest.approx(1.0, abs=1e-12)


def test_qpe_two_equal_nodes_read_half(grid4):
    values = np.zeros(16)
    values[[4, 11]] = 1.0
    paths = make_paths(np.concatenate([np.full(4, grid4.nodes[4]),
                                       np.full(4, grid4.nodes[11])]))
    out, _, codes = qpe_state(grid4, values, paths, 6)
    estimates = qpe_modal_estimates(out)
    assert estimates[codes[4]] == pytest.approx(0.5, abs=2**-6)
    assert estimates[codes[11]] == pytest.approx(0.5, abs=2**-6)


def test_qpe_generic_instance_within_resolution(grid4, rng):
    values = rng.uniform(0.1, 1.0, size=16)
    paths = make_paths(grid4.nodes[rng.integers(0, 16, size=8)])
    out, rho, codes = qpe_state(grid4, values, paths, 6)
    estimates = qpe_modal_estimates(out)
    for code, lam_hat in estimates.items():
        assert abs(lam_hat - rho[np.searchsorted(codes, code)]) <= 2**-6


def test_qpe_requires_zeroed_phase_register(grid4):
    values = np.ones(16)
    paths = make_paths(grid4.nodes[:8])
    vstate = grover_rudolph_prepare(values)
    rho = reduced_rho(vstate, grid4)
    codes = grid_codes(grid4, 6)
    state = prepare_path_state(paths, codes, 6, snap_paths(paths, grid4))
    shifted = state.index + 1  # value register no longer zeroed
    with pytest.raises(ConfigError, match="zeroed"):
        qpe_write_eigenvalues(StateVector(state.amplitudes, state.layout, shifted),
                              rho, codes)


def test_sqrt_code_examples():
    m = 6
    table = sqrt_code_table(m)
    assert table[0] == 0
    assert decode_value(table[encode_value(1.0, m)], m) == pytest.approx(1.0)
    assert decode_value(table[encode_value(0.25, m)], m) == pytest.approx(0.5)


def test_sqrt_register_xor_write(grid4):
    layout = RegisterLayout([("value", 6), ("aux", 6)])
    state = basis_state(layout, encode_value(0.25, 6) << 6)
    out = sqrt_register(state, "value", "aux")
    probs = exact_distribution(out, "aux")
    assert probs[encode_value(0.5, 6)] == pytest.approx(1.0, abs=1e-14)


def test_assemble_constant_surface(grid4):
    values = np.ones(16)
    paths = make_paths(grid4.nodes[[1, 3, 5, 7, 9, 11, 13, 15]])
    res = assemble(paths, grover_rudolph_prepare(values), grid4, 6)
    vals = set(res.value.tolist())
    assert len(vals) == 1
    assert res.value[0] == pytest.approx(0.25, abs=2**-6)


def test_assemble_payoff_at_expiry(grid4, call_spec):
    payoff = payoff_vector(call_spec, grid4)
    paths = make_paths(grid4.nodes[[2, 4, 6, 8, 10, 12, 14, 15]])
    res = assemble(paths, grover_rudolph_prepare(payoff), grid4, 6)
    normalized = payoff / np.linalg.norm(payoff)
    idx = snap_paths(paths, grid4)
    for value, j in zip(res.value, idx):
        assert abs(value - normalized[j]) <= 2**-6


def test_assemble_full_pipeline_lookup(grid4, rng):
    values = rng.uniform(0.0, 1.0, size=16)
    paths = make_paths(grid4.nodes[rng.integers(0, 16, size=8)])
    res = assemble(paths, grover_rudolph_prepare(values), grid4, 6)
    assert res.state is not None
    normalized = values / np.linalg.norm(values)
    for value, oracle, j in zip(res.value, res.oracle, res.node_index):
        error = abs(value - oracle)
        assert abs(value - normalized[j]) <= 2**-6
        assert error <= 2**-6
    # value register content in the state matches the table
    layout = res.state.layout
    probs = np.abs(res.state.amplitudes) ** 2
    vvals = layout.values("value", res.state.index)
    pvals = layout.values("price", res.state.index)
    populated = probs > 1e-14
    assert np.all(vvals[populated] == res.lookup(pvals[populated]))


def test_assemble_trotter_mode_matches_exact_modal_codes(grid4, rng):
    values = rng.uniform(0.2, 1.0, size=16)
    paths = make_paths(grid4.nodes[rng.integers(0, 16, size=8)])
    vstate = grover_rudolph_prepare(values)
    res = assemble(paths, vstate, grid4, 4)
    got = trotter_values(vstate, grid4, 4, res.node_index)
    # the certified slice count reads exact-mode QPE's modal codes
    nodes = res.node_index
    exact = qpe_exact_distributions(nodes, reduced_rho(vstate, grid4), 4)
    modal = [int(np.argmax(exact[int(j)])) for j in nodes]
    assert got.tolist() == decode_value(sqrt_code_table(4)[modal], 4).tolist()
    for value, oracle in zip(got, res.oracle):
        assert abs(value - oracle) <= 2**-4 + TROTTER_DISTANCE_TOL


def trotter_distance(nodes, rho, m, n_trotter, exact):
    """Worst branch total-variation distance of the trotter kernel to the
    exact one."""
    dists = qpe_trotter_distributions(nodes, rho, m, n_trotter)
    return max(float(np.abs(d - exact[b]).sum()) / 2 for b, d in dists.items())


def test_trotter_branch_distributions_converge_in_the_slice_count(grid4, rng):
    values = rng.uniform(0.2, 1.0, size=16)
    m = 4
    paths = make_paths(grid4.nodes[rng.integers(0, 16, size=8)], m=m)
    vstate = grover_rudolph_prepare(values)
    rho = reduced_rho(vstate, grid4)
    nodes = snap_paths(paths, grid4)
    exact = qpe_exact_distributions(nodes, rho, m)
    distances = [trotter_distance(nodes, rho, m, n, exact)
                 for n in (16, 64, 256, 1024)]
    assert all(a > b for a, b in zip(distances, distances[1:]))
    dists = qpe_trotter_distributions(nodes, rho, m, 1024)
    for node in np.unique(nodes):
        assert np.argmax(dists[int(node)]) == np.argmax(exact[int(node)])
    # one slice of length QPE_DT = pi is -I, so every branch reads 1.0
    one = qpe_trotter_distributions(nodes, rho, m, 1)
    modal = [int(np.argmax(one[int(j)])) for j in nodes]
    assert decode_value(sqrt_code_table(m)[modal], m).tolist() == [1.0] * paths.L


def test_qpe_branch_distributions_exact_matches_statevector(grid4, rng):
    values = rng.uniform(0.1, 1.0, size=16)
    m = 4
    paths = make_paths(grid4.nodes[[0, 2, 4, 6, 8, 10, 12, 14]], m=m)
    vstate = grover_rudolph_prepare(values)
    rho = reduced_rho(vstate, grid4)
    codes = grid_codes(grid4, m)
    nodes = snap_paths(paths, grid4)
    state = prepare_path_state(paths, codes, m, nodes)
    out = qpe_write_eigenvalues(state, rho, codes)
    dists = qpe_exact_distributions(nodes, rho, m)
    layout = out.layout
    probs = np.abs(out.amplitudes) ** 2
    pvals = layout.values("price", out.index)
    vvals = layout.values("value", out.index)
    for node in np.unique(nodes):
        mask = pvals == codes[node]
        hist = np.bincount(vvals[mask], weights=probs[mask], minlength=2**m)
        branch_mass = hist.sum()
        assert np.abs(hist / branch_mass - dists[int(node)]).max() < 1e-10



def one_sided_slice(rho, x, h):
    """Tr_A[e^{i h W} (rho x X)] for the swap W of two copies, as dense
    matrices: one swap slice acting on the ket side only."""
    d = rho.shape[0]
    eye = np.eye(d)
    swap = np.einsum("il,jk->ijkl", eye, eye).reshape(d * d, d * d)
    u = np.cos(h) * np.eye(d * d) + 1j * np.sin(h) * swap
    joint = (u @ np.kron(rho, x)).reshape(d, d, d, d)
    return np.einsum("abac->bc", joint)


def dense_trotter_branch_distribution(rho, b, m, n_trotter):
    """Phase-register distribution of trotterized QPE on branch code b,
    composed slice by slice.  The phase register's coherence |l'><l|,
    l' >= l, carries l * n_trotter slices acting on both sides of |b><b|
    (``trotter_slice``) and (l' - l) * n_trotter more acting on the ket
    side only; the inverse QFT follows."""
    n, h = 2**m, qpca.QPE_DT / n_trotter
    rho_dm = DensityMatrix(np.diag(rho))
    two_sided = DensityMatrix(np.diag(np.eye(rho.size)[b]))
    coherences = np.empty((n, n), dtype=complex)
    for l in range(n):
        x = two_sided.entries
        for lp in range(l, n):
            coherences[lp, l] = np.trace(x) / n
            coherences[l, lp] = np.conj(coherences[lp, l])
            for _ in range(n_trotter):
                x = one_sided_slice(rho_dm.entries, x, h)
        for _ in range(n_trotter):
            two_sided = trotter_slice(rho_dm, two_sided, h)
    fourier = qft_matrix(int(np.log2(n)))
    return np.diag(fourier.conj().T @ coherences @ fourier).real


@pytest.mark.parametrize("n_trotter", [1, 2, 4])
def test_trotter_closed_form_matches_dense_slice_composition(rng, n_trotter):
    m = 3
    grid = build_grid(0.0, 0.75, 2, "uniform")
    rho = reduced_rho(grover_rudolph_prepare(rng.uniform(0.2, 1.0, size=4)), grid)
    nodes = np.arange(4)
    closed = qpe_trotter_distributions(nodes, rho, m, n_trotter)
    for b in nodes.tolist():
        dense = dense_trotter_branch_distribution(rho, b, m, n_trotter)
        assert np.abs(closed[b] - dense).max() <= 1e-12


def looped_trotter_branch_distributions(branch_codes, rho, m, n_trotter):
    """The trotterized kernel with each coherence matrix filled entry by
    entry, as the reference for the index-array fill of the dense oracle."""
    n, dt = 2**m, qpca.QPE_DT
    ls = np.arange(n)
    fourier = np.exp(2j * np.pi * np.outer(np.arange(n), ls) / n) / np.sqrt(n)
    slices = ls * n_trotter
    c, s = np.cos(dt / n_trotter), np.sin(dt / n_trotter)
    pow_one = (c + 1j * s * rho)[None, :] ** slices[:, None]
    phi = pow_one @ rho
    c2l = (c * c) ** slices
    out = {}
    for b in np.unique(np.asarray(branch_codes, dtype=np.int64)):
        mat = np.empty((n, n), dtype=complex)
        for l in range(n):
            for lp in range(l, n):
                k, j = l, lp - l
                val = (c2l[k] * pow_one[j, b] + (1.0 - c2l[k]) * phi[j]) / n
                mat[lp, l] = val
                mat[l, lp] = np.conj(val)
        red = fourier.conj().T @ mat @ fourier
        out[int(b)] = np.abs(np.diag(red).real)
    return out


@pytest.mark.parametrize("m", [2, 4, 6])
@pytest.mark.parametrize("n_trotter", [1, 16, 256])
def test_trotter_kernel_equals_looped_fill_bit_for_bit(rng, m, n_trotter):
    """The dense oracle's index-array fill equals the looped fill byte for
    byte, and the FFT kernel agrees with both within 1e-13."""
    rho = rng.uniform(0.0, 1.0, size=2**m)
    rho /= rho.sum()
    codes = np.arange(2**m)
    dense = dense_qpe_trotter_distributions(codes, rho, m, n_trotter)
    fast = qpe_trotter_distributions(codes, rho, m, n_trotter)
    want = looped_trotter_branch_distributions(codes, rho, m, n_trotter)
    assert dense.keys() == fast.keys() == want.keys()
    for b in want:
        assert dense[b].tobytes() == want[b].tobytes()
        assert np.abs(fast[b] - want[b]).max() <= 1e-13


@st.composite
def spectra_and_branches(draw):
    """A random spectrum over 1 to 16 grid nodes, zero on some of them, a
    few branch nodes among them and a phase register of 2 to 9 qubits."""
    weights = draw(st.lists(st.one_of(st.just(0.0), st.floats(1e-6, 1.0)),
                            min_size=1, max_size=16))
    assume(sum(weights) > 0.0)
    rho = np.asarray(weights) / sum(weights)
    branches = draw(st.lists(st.integers(0, rho.size - 1), min_size=1,
                             max_size=3))
    return rho, np.asarray(branches), draw(st.integers(2, 9))


@settings(max_examples=60, deadline=None)
@given(case=spectra_and_branches(), n_trotter=st.sampled_from([1, 16, 256]))
def test_qpe_kernels_match_the_dense_oracles(case, n_trotter):
    rho, branches, m = case
    pairs = [(qpe_exact_distributions(branches, rho, m),
              dense_qpe_exact_distributions(branches, rho, m)),
             (qpe_trotter_distributions(branches, rho, m, n_trotter),
              dense_qpe_trotter_distributions(branches, rho, m, n_trotter))]
    for got, want in pairs:
        assert got.keys() == want.keys() == set(branches.tolist())
        for b in want:
            assert np.abs(got[b] - want[b]).max() <= 1e-13


@st.composite
def grids_and_paths(draw):
    """A uniform grid on integer nodes (so midpoints are exact ties) or a
    geometric grid, and a power-of-two batch of lattice prices drawn from
    the nodes, the midpoints, the span and far beyond the grid."""
    n = draw(st.integers(1, 6))
    if draw(st.booleans()):
        lo, step = draw(st.integers(0, 8)), draw(st.integers(1, 4))
        grid = build_grid(float(lo), float(lo + step * (2**n - 1)), n, "uniform")
    else:
        lo = draw(st.sampled_from([0.25, 0.5, 1.0]))
        grid = build_grid(lo, lo * draw(st.floats(2.0, 1e3)), n, "geometric")
    m = draw(st.sampled_from([2, 20]))
    nodes = grid.nodes.tolist()
    mids = [(a + b) / 2 for a, b in zip(nodes, nodes[1:])]
    price = st.one_of(st.sampled_from(nodes), st.sampled_from(mids),
                      st.floats(0.0, 2 * nodes[-1]),
                      st.floats(0.0, 2.0 ** (60 - m)))
    count = 2 ** draw(st.integers(0, 6))
    return grid, make_paths(draw(st.lists(price, min_size=count, max_size=count)), m)


@settings(max_examples=200, deadline=None)
@given(case=grids_and_paths())
def test_snap_paths_equals_nearest_index(case):
    grid, paths = case
    expected = [nearest_index(grid, p) for p in paths.prices]
    assert snap_paths(paths, grid).tolist() == expected

def test_error_propagation_bound(grid4, rng):
    for eps in (1e-3, 1e-2, 1e-1):
        for _ in range(10):
            values = rng.uniform(0.05, 1.0, size=16)
            vstate = grover_rudolph_prepare(values)
            rho = reduced_rho(vstate, grid4)
            perturbed = perturb_state(vstate, eps, rng)
            rho_p = reduced_rho(perturbed, grid4)
            spectral = np.abs(np.sort(rho_p) - np.sort(rho)).max()
            assert spectral <= 4.0 * eps


def test_perturb_state_distance_exact(grid4, rng):
    vstate = grover_rudolph_prepare(np.arange(1.0, 17.0))
    out = perturb_state(vstate, 0.05, rng)
    assert np.linalg.norm(out - vstate) == pytest.approx(0.05, abs=1e-12)
