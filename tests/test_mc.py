import math

import numpy as np
import pytest

from qvar.errors import ConfigError, NumericalError
from qvar.market import MarketParams, price_code
from qvar.mc import simulate_paths
from reference import euler_forward, logistic_increment


def euler_inverse(j: int, y: float, params: MarketParams, L: int) -> float:
    """Closed-form inverse of the Euler map F(j, x) = a x + b sqrt(x) for
    a = 1 + mu dtau > 0: the reference the round trips below check F with."""
    a = 1.0 + params.mu * params.dtau
    b = params.alpha * logistic_increment(j, L)
    root = math.sqrt((y + b * b / (4.0 * a)) / a) - b / (2.0 * a)
    return root * root


def make_params(mu=0.1, alpha=1.0, dtau=1.0, t_bar=1.0, T=2.0):
    return MarketParams(r=0.0, mu=mu, alpha=alpha, T=T, t_bar=t_bar, dtau=dtau)


def test_logistic_increment_examples():
    assert logistic_increment(8, 8) == 0.0
    assert logistic_increment(4, 8) == 1.0
    assert logistic_increment(2, 8) == 0.75


def test_logistic_increment_bounds():
    with pytest.raises(ConfigError):
        logistic_increment(0, 8)
    with pytest.raises(ConfigError):
        logistic_increment(9, 8)


def test_euler_forward_examples():
    params = make_params(mu=0.1, alpha=1.0, dtau=1.0)
    assert euler_forward(4, 0.0, params, 8) == 0.0
    # dZ = 0 at j = L: drift only
    assert euler_forward(8, 2.0, params, 8) == pytest.approx(2.2, abs=1e-15)
    # x=4, mu*dtau=0.1, alpha=1, dZ=1: 1.1*4 + 2 = 6.4
    assert euler_forward(4, 4.0, params, 8) == pytest.approx(6.4, abs=1e-14)


def test_euler_inverse_examples():
    params = make_params(mu=0.1, alpha=1.0, dtau=1.0)
    assert euler_inverse(4, 0.0, params, 8) == pytest.approx(0.0, abs=1e-15)
    # dZ = 0: linear inverse
    assert euler_inverse(8, 2.2, params, 8) == pytest.approx(2.0, abs=1e-14)
    # invert the forward example
    assert euler_inverse(4, 6.4, params, 8) == pytest.approx(4.0, abs=1e-12)


@pytest.mark.parametrize("j", [1, 3, 5, 8])
def test_round_trip_before_quantization(j):
    params = make_params(mu=0.07, alpha=0.4, dtau=0.5)
    for x in (0.3, 1.7, 42.0):
        y = euler_forward(j, x, params, 8)
        assert euler_inverse(j, y, params, 8) == pytest.approx(x, abs=1e-12)


def quantize(x, m):
    return price_code(x, m) / 2.0**m


def test_quantized_round_trip_bounded_by_lipschitz_constant():
    params = make_params(mu=0.07, alpha=0.4, dtau=0.5)
    m = 8
    for j in (1, 3, 6):
        a = 1.0 + params.mu * params.dtau
        b = params.alpha * logistic_increment(j, 8)
        for x in (0.5, 2.0, 7.3):
            y = quantize(euler_forward(j, x, params, 8), m)
            back = euler_inverse(j, float(y), params, 8)
            # |dF^-1/dy| = 1 / (a + b / (2 sqrt(x)))
            lipschitz = 1.0 / (a + b / (2.0 * math.sqrt(x)))
            assert abs(back - x) <= 1.25 * lipschitz * 2.0 ** (-m)


def test_simulate_paths_zero_horizon():
    params = make_params(t_bar=0.0, T=1.0, dtau=0.5)
    paths = simulate_paths(params, 1.5, 8, 6)
    assert np.allclose(paths.prices, np.full(8, 1.5), atol=2**-6)
    assert paths.t == 0.0


def test_simulate_paths_identity_dynamics():
    params = make_params(mu=0.0, alpha=0.0, t_bar=1.0, T=2.0, dtau=0.25)
    paths = simulate_paths(params, 2.0, 8, 6)
    assert np.array_equal(paths.prices, np.full(8, 2.0))


def test_simulate_paths_single_step_matches_scalar_recomputation():
    params = make_params(mu=0.1, alpha=1.0, dtau=1.0, t_bar=1.0, T=1.0)
    m = 10
    paths = simulate_paths(params, 4.0, 8, m)
    expected = [quantize(euler_forward(j, 4.0, params, 8), m) for j in range(1, 9)]
    assert np.allclose(paths.prices, expected, atol=0)


def test_simulate_paths_deterministic():
    params = make_params(mu=0.03, alpha=0.6, dtau=0.25, t_bar=2.0, T=2.0)
    a = simulate_paths(params, 1.0, 16, 12)
    b = simulate_paths(params, 1.0, 16, 12)
    assert np.array_equal(a.prices, b.prices)


@pytest.mark.parametrize("s0", [1e308, 5e307, math.nan])
def test_simulate_paths_rejects_unrepresentable_register(s0):
    # the price codes would be infinite or beyond int64 codes
    with pytest.raises(ConfigError, match="int64 code range"):
        simulate_paths(make_params(), s0, 4, 6)


@pytest.mark.parametrize("range_max", [math.inf, math.nan, 2.0**57])
def test_fixed_point_code_rejects_unrepresentable_range(range_max):
    # price codes on [0, range_max] at m = 6: 2^57 needs a 64-bit code, and
    # inf would pass the width test alone
    with pytest.raises(ConfigError, match="int64 code range"):
        price_code([0.0, range_max], 6)


def test_fixed_point_code_properties():
    m = 6
    assert price_code(4.0, m) == 256
    assert price_code([0.5 / 2**m, 1.5 / 2**m], m).tolist() == [1, 2]  # ties up
    x = np.linspace(0.0, 5.0, 1001)
    assert np.abs(quantize(x, m) - x).max() <= 2.0 ** -(m + 1)
    assert price_code(2.0**57 - 16, m) == 2**63 - 1024  # 63 bits still fit
    with pytest.raises(NumericalError):
        price_code(-0.25, m)
