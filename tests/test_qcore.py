import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qvar.errors import ConfigError, NumericalError, QubitBudgetError
from qvar.qcore import RegisterLayout, StateVector, flag_write, xor_write
from reference import (DensityMatrix, apply_unitary, basis_state,
                       exact_distribution, grover_rudolph_prepare, inverse_qft, names, qft,
                       qft_matrix, tensor)


def haar_unitary(rng, dim):
    z = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def random_state(rng, layout):
    amps = rng.normal(size=2**layout.total_qubits) \
        + 1j * rng.normal(size=2**layout.total_qubits)
    return StateVector(amps / np.linalg.norm(amps), layout)


def test_layout_metadata():
    layout = RegisterLayout([("a", 2), ("b", 3), ("c", 1)])
    assert layout.total_qubits == 6
    assert layout.offset_of("b") == 2
    assert layout.shift_of("c") == 0
    assert layout.shift_of("a") == 4
    vals = layout.values("b")
    assert vals[0b010110] == 0b011
    assert vals[0b001010] == 0b101


def test_layout_rejects_budget(monkeypatch):
    monkeypatch.setenv("QVAR_QUBIT_CAP", "4")
    with pytest.raises(QubitBudgetError):
        RegisterLayout([("a", 5)])


def test_identity_leaves_state(rng):
    layout = RegisterLayout([("a", 2), ("b", 1)])
    state = random_state(rng, layout)
    out = apply_unitary(state, np.eye(4), ["a"])
    assert np.allclose(out.amplitudes, state.amplitudes, atol=1e-14)


def test_x_gate_flips_single_qubit():
    layout = RegisterLayout([("q", 1)])
    state = basis_state(layout, 0)
    out = apply_unitary(state, np.array([[0, 1], [1, 0]]), "q")
    assert np.allclose(out.amplitudes, [0, 1], atol=1e-14)


def test_unitary_round_trip(rng):
    layout = RegisterLayout([("a", 2), ("b", 2)])
    state = random_state(rng, layout)
    u = haar_unitary(rng, 4)
    fwd = apply_unitary(state, u, ["a"])
    back = apply_unitary(fwd, u.conj().T, ["a"])
    assert np.abs(back.amplitudes - state.amplitudes).max() < 1e-12


def test_norm_preserved_under_gates(rng):
    layout = RegisterLayout([("a", 3), ("b", 2)])
    state = random_state(rng, layout)
    for _ in range(5):
        state = apply_unitary(state, haar_unitary(rng, 4), ["b", "a"][:1])
        assert abs(np.linalg.norm(state.amplitudes) - 1) < 1e-10


def test_non_unitary_rejected(rng):
    layout = RegisterLayout([("a", 1)])
    state = basis_state(layout)
    with pytest.raises(NumericalError, match="unitary"):
        apply_unitary(state, np.array([[1.0, 0.0], [0.0, 2.0]]), "a")


def test_qft_of_zero_is_uniform():
    layout = RegisterLayout([("r", 3)])
    out = qft(basis_state(layout), "r")
    assert np.allclose(out.amplitudes, np.full(8, 1 / np.sqrt(8)), atol=1e-12)


def test_qft_inverse_round_trip(rng):
    layout = RegisterLayout([("r", 3), ("s", 2)])
    state = random_state(rng, layout)
    out = inverse_qft(qft(state, "r"), "r")
    assert np.abs(out.amplitudes - state.amplitudes).max() < 1e-12


def test_qft_matches_dense_dft_on_basis_states():
    layout = RegisterLayout([("r", 3)])
    for j in range(8):
        out = qft(basis_state(layout, j), "r")
        k = np.arange(8)
        expected = np.exp(2j * np.pi * j * k / 8) / np.sqrt(8)
        assert np.abs(out.amplitudes - expected).max() < 1e-12


@pytest.mark.parametrize("width", range(1, 9))
def test_qft_matrix_unitary(width):
    f = qft_matrix(width)
    assert np.abs(f @ f.conj().T - np.eye(2**width)).max() < 1e-12


def test_grover_rudolph_examples():
    uniform = grover_rudolph_prepare(np.ones(4))
    assert np.allclose(uniform.amplitudes, 0.5, atol=1e-14)
    e0 = grover_rudolph_prepare(np.array([1.0, 0, 0, 0]))
    assert np.allclose(e0.amplitudes, [1, 0, 0, 0], atol=1e-14)
    v = grover_rudolph_prepare(np.array([1.0, 2.0, 2.0, 4.0]))
    assert np.allclose(v.amplitudes, [0.2, 0.4, 0.4, 0.8], atol=1e-14)


def test_grover_rudolph_rejects_bad_input():
    with pytest.raises(ConfigError):
        grover_rudolph_prepare(np.zeros(4))
    with pytest.raises(ConfigError):
        grover_rudolph_prepare(np.array([1.0, -1.0]))


def test_exact_distribution_examples():
    layout = RegisterLayout([("q", 1)])
    assert exact_distribution(basis_state(layout, 0), "q").tolist() == [1.0, 0.0]
    layout2 = RegisterLayout([("q", 2)])
    uniform = StateVector(np.full(4, 0.5), layout2)
    assert np.allclose(exact_distribution(uniform, "q"), 0.25, atol=1e-15)


def test_xor_write_is_self_inverse(rng):
    layout = RegisterLayout([("src", 2), ("dst", 3)])
    state = random_state(rng, layout)
    table = np.array([3, 5, 0, 6])
    once = xor_write(state, "src", "dst", table.take)
    twice = xor_write(once, "src", "dst", table.take)
    assert np.abs(twice.amplitudes - state.amplitudes).max() < 1e-15


def test_flag_write_marks_predicate():
    layout = RegisterLayout([("v", 2), ("flag", 1)])
    amps = np.zeros(8, dtype=complex)
    amps[[0b000, 0b010, 0b100, 0b110]] = 0.5  # v = 0..3, flag 0
    state = StateVector(amps, layout)
    out = flag_write(state, "v", "flag", lambda v: (v >= 2).astype(np.int64))
    probs = exact_distribution(out, "flag")
    assert probs[0] == pytest.approx(0.5, abs=1e-12)


@pytest.mark.parametrize("code", [0, 7, 8, -1, 2**62, -2**63])
def test_xor_write_checks_the_target_register_range(code):
    layout = RegisterLayout([("src", 2), ("dst", 3)])
    state = StateVector(np.ones(1), layout, np.array([0]))
    write = lambda: xor_write(state, "src", "dst", lambda v: np.full_like(v, code))
    if 0 <= code < 8:
        assert write().support.tolist() == [code]
    else:
        with pytest.raises(NumericalError, match="target register range"):
            write()


@pytest.mark.parametrize("bad", [2, -1])
def test_flag_write_rejects_a_predicate_value_that_is_not_a_bit(bad):
    # on [value 3 qubits, flag 1 qubit] a predicate value of 2 would turn
    # value 2 into value 3 and leave the flag at 0
    layout = RegisterLayout([("value", 3), ("flag", 1)])
    state = basis_state(layout, 2 << 1)
    with pytest.raises(NumericalError, match="not a bit"):
        flag_write(state, "value", "flag", lambda v: np.full_like(v, bad))
    with pytest.raises(NumericalError, match="not a bit"):
        flag_write(StateVector(np.ones(1), layout, np.array([2 << 1])),
                   "value", "flag", lambda v: np.full_like(v, bad))


def test_state_norm_validated():
    layout = RegisterLayout([("a", 1)])
    with pytest.raises(NumericalError, match="norm"):
        StateVector(np.array([1.0, 1.0]), layout)


def test_density_matrix_validation(rng):
    good = DensityMatrix(np.diag([0.5, 0.5]))
    assert good.num_qubits == 1
    with pytest.raises(NumericalError):
        DensityMatrix(np.diag([0.7, 0.7]))
    with pytest.raises(NumericalError):
        DensityMatrix(np.array([[0.5, 0.3], [0.1, 0.5]]))


def sparse_part(state, rng):
    """A random subset of the state's basis indices with its amplitudes
    renormalised, as a sparse state."""
    size = state.amplitudes.size
    keep = np.sort(rng.choice(size, size=int(rng.integers(1, size + 1)),
                              replace=False)).astype(np.int64)
    amps = state.amplitudes[keep] / np.linalg.norm(state.amplitudes[keep])
    return StateVector(amps, state.layout, keep)


@st.composite
def layouts_and_states(draw):
    widths = draw(st.lists(st.integers(1, 3), min_size=2, max_size=4))
    layout = RegisterLayout([(f"r{i}", w) for i, w in enumerate(widths)])
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    dense = random_state(rng, layout)
    return layout, rng, dense, sparse_part(dense, rng)


@settings(max_examples=60, deadline=None)
@given(case=layouts_and_states(), data=st.data())
def test_xor_write_involution_dense_and_sparse(case, data):
    layout, rng, dense, sparse = case
    source, target = data.draw(st.permutations(names(layout)))[:2]
    table = rng.integers(0, 2**layout.width_of(target),
                         size=2**layout.width_of(source))
    for state in (dense, sparse):
        twice = xor_write(xor_write(state, source, target, table.take),
                          source, target, table.take)
        assert np.array_equal(twice.amplitudes, state.amplitudes)
        assert np.array_equal(twice.support, state.support)


@settings(max_examples=60, deadline=None)
@given(case=layouts_and_states(), data=st.data())
def test_sparse_flag_write_distribution_matches_dense(case, data):
    layout, _, _, sparse = case
    flagged = RegisterLayout(layout.items() + [("flag", 1)])
    index = sparse.index << 1  # flag qubit zeroed
    dense_amps = np.zeros(2**flagged.total_qubits, dtype=complex)
    dense_amps[index] = sparse.amplitudes
    source = data.draw(st.sampled_from(names(layout)))
    threshold = data.draw(st.integers(0, 2**layout.width_of(source) - 1))
    readout = data.draw(st.sampled_from(names(flagged)))
    outs = [exact_distribution(
        flag_write(state, source, "flag", lambda v: (v > threshold).astype(np.int64)),
        readout) for state in (StateVector(sparse.amplitudes, flagged, index),
                               StateVector(dense_amps, flagged))]
    assert np.array_equal(outs[0], outs[1])


@settings(max_examples=40, deadline=None)
@given(case=layouts_and_states())
def test_copy_is_a_bit_copy_with_its_own_arrays(case):
    _, _, dense, sparse = case
    for state in (dense, sparse):
        state.amplitudes.setflags(write=False)
        copy = state.copy()
        assert type(copy) is StateVector and copy.layout is state.layout
        assert copy.amplitudes.tobytes() == state.amplitudes.tobytes()
        assert np.array_equal(copy.support, state.support)
        assert copy.amplitudes is not state.amplitudes
        assert copy.amplitudes.flags.writeable
        if state.index is None:
            assert copy.index is None
        else:
            assert copy.index is not state.index
            assert copy.index.dtype == np.int64


def test_sparse_state_validated():
    layout = RegisterLayout([("a", 2)])
    half = np.full(2, 1 / np.sqrt(2))
    assert StateVector(half, layout, np.array([0, 3])).support.tolist() == [0, 3]
    for bad in ([3, 0], [1, 1], [0, 4], [-1, 2]):
        with pytest.raises(ConfigError, match="index"):
            StateVector(half, layout, np.array(bad, dtype=np.int64))
    with pytest.raises(ConfigError, match="index"):
        StateVector(half, layout, np.array([0, 1, 2]))


def test_sparse_state_refuses_dense_operations():
    layout = RegisterLayout([("a", 1), ("b", 1)])
    sparse = StateVector(np.array([1.0]), layout, np.array([2]))
    with pytest.raises(ConfigError, match="sparse"):
        apply_unitary(sparse, np.eye(2), "a")
    with pytest.raises(ConfigError, match="sparse"):
        qft(sparse, "b")
    with pytest.raises(ConfigError, match="sparse"):
        tensor(sparse)


def test_diagonal_density_matrix_checked_through_its_diagonal():
    with pytest.raises(NumericalError, match="eigenvalue"):
        DensityMatrix(np.diag([1.1, -0.1]))
    # the eigenvalues of a diagonal matrix are its diagonal: -1e-8 passes,
    # below fails
    DensityMatrix(np.diag([1.0 + 1e-8, -1e-8]))
    with pytest.raises(NumericalError, match="eigenvalue"):
        DensityMatrix(np.diag([1.0 + 2e-8, -2e-8]))
