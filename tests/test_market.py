import json

import numpy as np
import pytest

from qvar.errors import ConfigError, QubitBudgetError
from qvar.market import (MarketParams, PayoffSpec, build_grid,
                         load_market_config, payoff_vector, price_code)
from qvar.mc import PathSet
from qvar.qpca import snap_paths


def lattice_paths(prices, m):
    """A PathSet holding ``prices`` rounded to the m-bit lattice."""
    prices = np.asarray(prices, dtype=float)
    return PathSet(L=prices.size, t=0.0, prices=price_code(prices, m) / 2.0**m,
                   m=m)


def test_call_payoff_on_padded_grid():
    grid = build_grid(0.0, 350.0, 3, "uniform")  # [0, 50, 100, ..., 350]
    vec = payoff_vector(PayoffSpec("call", 100.0), grid)
    assert vec.tolist() == [0.0, 0.0, 0.0, 50.0, 100.0, 150.0, 200.0, 250.0]


def test_put_payoff_on_padded_grid():
    grid = build_grid(0.0, 350.0, 3, "uniform")
    vec = payoff_vector(PayoffSpec("put", 100.0), grid)
    assert vec.tolist() == [100.0, 50.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0]


def test_zero_strike_call_equals_nodes():
    grid = build_grid(0.0, 3.0, 2, "uniform")
    vec = payoff_vector(PayoffSpec("call", 0.0), grid)
    assert np.array_equal(vec, grid.nodes)


def test_uniform_grid_examples():
    assert build_grid(0.0, 3.0, 2, "uniform").nodes.tolist() == [0.0, 1.0, 2.0, 3.0]
    assert build_grid(0.0, 1.0, 1, "uniform").nodes.tolist() == [0.0, 1.0]


def test_geometric_grid_example():
    nodes = build_grid(1.0, 8.0, 2, "geometric").nodes
    assert np.allclose(nodes, [1.0, 2.0, 4.0, 8.0], rtol=0, atol=1e-12)
    assert nodes[0] == 1.0 and nodes[-1] == 8.0


def test_grid_rejects_budget_excess(monkeypatch):
    monkeypatch.setenv("QVAR_QUBIT_CAP", "8")
    with pytest.raises(QubitBudgetError):
        build_grid(0.0, 1.0, 9, "uniform")


def test_grid_validation():
    with pytest.raises(ConfigError):
        build_grid(2.0, 1.0, 2, "uniform")
    with pytest.raises(ConfigError):
        build_grid(0.0, 1.0, 2, "geometric")
    with pytest.raises(ConfigError):
        build_grid(0.0, 1.0, 0, "uniform")


@pytest.mark.parametrize("kind", ["call", "put"])
def test_payoff_nonnegative_and_lipschitz(kind):
    grid = build_grid(0.0, 7.5, 5, "uniform")
    vec = payoff_vector(PayoffSpec(kind, 2.3), grid)
    assert np.all(vec >= 0)
    slopes = np.abs(np.diff(vec) / np.diff(grid.nodes))
    assert np.all(slopes <= 1.0 + 1e-12)


def test_payoff_parity():
    grid = build_grid(0.0, 9.0, 4, "uniform")
    k = 2.75
    call = payoff_vector(PayoffSpec("call", k), grid)
    put = payoff_vector(PayoffSpec("put", k), grid)
    assert np.allclose(call - put, grid.nodes - k, atol=1e-12)


def test_market_params_validation():
    with pytest.raises(ConfigError):
        MarketParams(r=-0.1, mu=0.0, alpha=0.1, T=1.0, t_bar=0.5, dtau=0.25)
    with pytest.raises(ConfigError):
        MarketParams(r=0.1, mu=0.0, alpha=0.1, T=1.0, t_bar=0.3, dtau=0.25)
    params = MarketParams(r=0.1, mu=0.0, alpha=0.1, T=1.0, t_bar=0.5, dtau=0.25)
    assert params.pricing_steps == 2
    assert params.horizon_steps == 2


def test_nearest_index_ties_round_down():
    # snap_paths gives every path its nearest node's index
    grid = build_grid(0.0, 3.0, 2, "uniform")
    # 0.51 at m = 20 is 0.51000022..., still nearer node 1
    assert snap_paths(lattice_paths([0.5, 0.51], 20), grid).tolist() == [0, 1]


# at 2^60 every |node - price| rounds to the same float, the tie the clamp
# guards against; a price such as 1e300 has no int64 code to reach the snap
@pytest.mark.parametrize("price", [5.0, 1e15, 1e16, 2.0**60])
def test_nearest_index_beyond_the_grid_is_the_top_node(price):
    grid = build_grid(0.0, 4.0, 4, "uniform")
    assert snap_paths(lattice_paths([price], 2), grid).tolist() == [15]


def test_config_roundtrip(tmp_path):
    doc = {"r": 0.02, "mu": 0.05, "alpha": 0.2, "T": 1.0, "t_bar": 0.5,
           "dtau": 0.25, "kind": "put", "strike": 1.5, "s_min": 0.0,
           "s_max": 6.0, "n": 3, "spacing": "uniform"}
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(doc))
    params, spec, grid = load_market_config(str(path))
    assert spec.kind == "put" and spec.strike == 1.5
    assert params.r == 0.02
    assert grid.n == 3 and grid.nodes[-1] == 6.0


def test_config_missing_key(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"r": 0.1}))
    with pytest.raises(ConfigError):
        load_market_config(str(path))
