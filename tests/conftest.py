import numpy as np
import pytest

from qvar import qsvt
from qvar.market import MarketParams, PayoffSpec, build_grid

# the in-process Stage-1 memos, emptied before every test
STAGE1_CACHES = (qsvt._ladder_fit, qsvt._fit_certificate, qsvt._phase_factors,
                 qsvt._encoding, qsvt._value_block)


@pytest.fixture(autouse=True)
def clear_stage1_caches():
    """No test sees another test's compiled Stage 1, so none depends on order."""
    for cache in STAGE1_CACHES:
        cache.cache_clear()


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
