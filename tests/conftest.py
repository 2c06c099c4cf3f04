import numpy as np
import pytest

from memos import process_memos
from qvar.market import MarketParams, PayoffSpec, build_grid


@pytest.fixture(autouse=True)
def clear_memos():
    """No test sees another test's books, compiled Stage 1 or tables, so a
    test that counts work a memo hit skips does not depend on order.  The
    memos are found, not listed (``memos.process_memos``)."""
    for memo in process_memos().values():
        memo.cache_clear()


@pytest.fixture
def rng():
    return np.random.default_rng(20240811)


@pytest.fixture
def flat_market():
    """Mild parameters with dtau fine enough for the transform stage."""
    return MarketParams(r=0.02, mu=0.05, alpha=0.2, T=16 / 4096, t_bar=8 / 4096,
                        dtau=1 / 4096)


@pytest.fixture
def unit_grid():
    return build_grid(0.0, 4.0, 4, "uniform")


@pytest.fixture
def call_spec():
    return PayoffSpec("call", 1.0)


def random_tridiagonal(rng, n, diag_shift=2.0):
    """Diagonally dominant random tridiagonal operator entries."""
    size = 2**n
    sub = np.zeros(size)
    sup = np.zeros(size)
    sub[1:] = rng.normal(scale=0.3, size=size - 1)
    sup[:-1] = rng.normal(scale=0.3, size=size - 1)
    diag = rng.normal(scale=0.3, size=size) + diag_shift
    return sub, diag, sup
