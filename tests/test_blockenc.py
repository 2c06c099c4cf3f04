import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import random_tridiagonal
from qvar import blockenc
from qvar.blockenc import assemble_block_encoding
from qvar.errors import NumericalError
from qvar.market import MarketParams, build_grid
from qvar.pde import TridiagonalOperator, assemble_operator
from reference import (column_index, dense_columns, dense_unitary,
                       encoded_block, index_major, verify_block_encoding)


def make_op(sub, diag, sup, n):
    return TridiagonalOperator(np.asarray(sub, float), np.asarray(diag, float),
                               np.asarray(sup, float), n)


def test_column_index_examples():
    assert column_index(5, 0, 3) == 4
    assert column_index(5, 1, 3) == 5
    assert column_index(5, 2, 3) == 6
    assert column_index(0, 0, 3) == 0  # clamped, zero-amplitude branch
    assert column_index(7, 2, 3) == 7  # clamped at the top edge
    assert column_index(5, 3, 3) == 5  # dead padding branch


def test_identity_encoding():
    op = make_op(np.zeros(4), np.ones(4), np.zeros(4), 2)
    be = assemble_block_encoding(op)
    assert be.gamma == 1.0
    assert np.abs(encoded_block(be) - np.eye(4)).max() < 1e-14


def test_diagonal_encoding():
    diag = np.array([0.1, 0.2, 0.3, 0.4])
    op = make_op(np.zeros(4), diag, np.zeros(4), 2)
    be = assemble_block_encoding(op)
    assert np.abs(be.gamma * encoded_block(be) - np.diag(diag)).max() < 1e-12


def test_random_tridiagonal_encoding(rng):
    sub, diag, sup = random_tridiagonal(rng, 4)
    op = make_op(sub, diag, sup, 4)
    be = assemble_block_encoding(op)
    assert np.abs(be.gamma * encoded_block(be) - op.to_dense()).max() < 1e-12
    assert verify_block_encoding(be, op) < 1e-12


def test_entrywise_inner_product_identity(rng):
    sub, diag, sup = random_tridiagonal(rng, 3)
    op = make_op(sub, diag, sup, 3)
    be = assemble_block_encoding(op)
    dense = op.to_dense()
    size = 2**op.n
    u = dense_unitary(be)
    for j in range(size):
        col = u[:, j]  # <...| U |0>|00>|j>
        for i in range(size):
            assert col[i] * be.gamma == pytest.approx(dense[i, j], abs=1e-12)


def test_gamma_is_the_root_of_the_largest_row_and_column_norms(rng):
    sub, diag, sup = random_tridiagonal(rng, 3)
    op = make_op(sub, diag, sup, 3)
    be = assemble_block_encoding(op)
    dense = np.abs(op.to_dense())
    r_max, c_max = dense.sum(1).max(), dense.sum(0).max()
    assert r_max != c_max
    assert be.gamma == pytest.approx(np.sqrt(r_max * c_max), rel=1e-15)
    # the Schur test: gamma bounds the spectral norm, and on a diagonally
    # dominant matrix stays within twice the largest entry
    assert np.linalg.norm(op.to_dense(), 2) <= be.gamma < 2 * dense.max()


@pytest.mark.parametrize("name, value", [
    # the column and row leftovers on one branch meet under U_c
    ("REST_OF_ROW", blockenc.REST_OF_COLUMN),
    # branches 0 and 2 swapped: a permutation, but the wrong entries
    ("SHIFTS", (1, 0, -1, 0)),
], ids=["shared_leftover_branch", "swapped_shifts"])
def test_miswired_encodings_fail_certification(rng, monkeypatch, name, value):
    op = make_op(*random_tridiagonal(rng, 3), 3)
    monkeypatch.setattr(blockenc, name, value)
    with pytest.raises(NumericalError, match="certification failed"):
        assemble_block_encoding(op)


def test_non_orthogonal_preparation_fails_unitarity(rng, monkeypatch):
    prepare = blockenc._preparations
    monkeypatch.setattr(blockenc, "_preparations",
                        lambda *args: 1.001 * prepare(*args))
    with pytest.raises(NumericalError, match="unitarity"):
        assemble_block_encoding(make_op(*random_tridiagonal(rng, 3), 3))


def test_unitarity(rng):
    for n in (2, 3, 4):
        sub, diag, sup = random_tridiagonal(rng, n)
        be = assemble_block_encoding(make_op(sub, diag, sup, n))
        u = dense_unitary(be)
        assert np.abs(u @ u.T - np.eye(u.shape[0])).max() < 1e-10


def test_halved_gamma_reports_half_norm(rng):
    sub, diag, sup = random_tridiagonal(rng, 3)
    op = make_op(sub, diag, sup, 3)
    be = assemble_block_encoding(op)
    err = verify_block_encoding(replace(be, gamma=be.gamma / 2.0), op)
    assert err == pytest.approx(np.linalg.norm(op.to_dense(), 2) / 2.0, rel=1e-10)


def test_perturbed_unitary_error_band_and_monotone(rng):
    sub, diag, sup = random_tridiagonal(rng, 3)
    op = make_op(sub, diag, sup, 3)
    be = assemble_block_encoding(op)
    u = dense_unitary(be)
    dim = u.shape[0]
    errors = []
    for angle in (1e-6, 1e-5, 1e-4):
        rot = np.eye(dim)
        rot[:2, :2] = [[np.cos(angle), -np.sin(angle)],
                       [np.sin(angle), np.cos(angle)]]
        errors.append(verify_block_encoding(be, op, unitary=rot @ u))
    assert 1e-8 <= errors[0] <= 1e-4
    assert errors[0] < errors[1] < errors[2]


@settings(max_examples=100, deadline=None)
@given(n=st.integers(1, 7), seed=st.integers(0, 2**32 - 1),
       shift=st.floats(0.5, 3.0))
def test_banded_certificate_bounds_the_dense_error(n, seed, shift):
    # the certificate, from the bands of M - gamma * block, is at least the
    # spectral norm of the dense difference
    op = make_op(*random_tridiagonal(np.random.default_rng(seed), n, shift), n)
    be = assemble_block_encoding(op)
    assert be.eps >= verify_block_encoding(be, op)


def test_certificate_forms_no_square_array():
    # at n = 10 one 2^n-square float array takes 8 MiB; the assembly's
    # traced peak stays below that
    params = MarketParams(r=0.02, mu=0.05, alpha=0.2, T=12 / 4096,
                          t_bar=8 / 4096, dtau=1 / 4096)
    op = assemble_operator(params, build_grid(0.0, 4.0, 10, "uniform"))
    stepping = op.plus_identity().transpose()
    tracemalloc.start()
    try:
        be = assemble_block_encoding(stepping)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert be.eps <= blockenc.CERTIFY_TOL
    assert peak < 8 * 2**20


def test_zero_matrix_rejected():
    op = make_op(np.zeros(4), np.zeros(4), np.zeros(4), 2)
    with pytest.raises(NumericalError):
        assemble_block_encoding(op)


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_factored_multiply_matches_the_dense_unitary(rng, n):
    be = assemble_block_encoding(make_op(*random_tridiagonal(rng, n), n))
    u = dense_unitary(be)
    size = 2**n
    cols = rng.normal(size=(8 * size, 5)) + 1j * rng.normal(size=(8 * size, 5))
    for transpose, dense in ((False, u), (True, u.T)):
        factored = dense_columns(be.multiply_columns(index_major(cols, size),
                                                     transpose))
        assert np.abs(factored - dense @ cols).max() < 1e-14
