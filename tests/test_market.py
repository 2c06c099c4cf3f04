import json
import math
import re
import struct

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from memos import process_memos
from qvar import market
from qvar.errors import ConfigError, QubitBudgetError
from qvar.market import (MarketParams, PayoffSpec, build_grid,
                         load_market_config, payoff_vector, price_code)
from qvar.mc import PathSet
from qvar.pipeline import load_run_config
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


README_DOC = {
    "r": 0.02, "mu": 0.05, "alpha": 0.2, "T": 16 / 4096, "t_bar": 8 / 4096,
    "dtau": 1 / 4096, "kind": "call", "strike": 1.0, "s_min": 0.0,
    "s_max": 4.0, "n": 4, "spacing": "uniform", "s0": 1.0, "L": 8, "m": 6,
    "q": 0.05, "mode": "quantum_exact", "seed": 11, "eps1": 1e-3,
}
NAN = float("nan")
# each field's spellings: its value as int, float or string, a signed zero,
# a boolean, NaN and a few that fail a check; MISSING drops the key
MISSING = object()
NUMBERS = [0.0, -0.0, 1, 1.0, "1.0", "1", True, NAN, "nan", -1.0, "x", None]
SPELLINGS = {
    **{key: [value, str(value), *NUMBERS] for key, value in README_DOC.items()
       if isinstance(value, float)},
    **{key: [value, float(value), str(value), 8.5, *NUMBERS]
       for key, value in README_DOC.items() if type(value) is int},
    "kind": ["call", "put", ["call"], {"call": 1}, "swap", 1, True, NAN],
    "spacing": ["uniform", "geometric", ["uniform"], "log", 0],
    "mode": ["quantum_exact", "classical", "quantum_sampled", "exact", 1],
}


@st.composite
def documents(draw):
    """The README document with up to four fields respelled or dropped."""
    doc = dict(README_DOC)
    for key in draw(st.lists(st.sampled_from(sorted(README_DOC)), max_size=4,
                             unique=True)):
        spelled = draw(st.sampled_from(SPELLINGS[key] + [MISSING]))
        if spelled is MISSING:
            del doc[key]
        else:
            doc[key] = spelled
    return doc


def bits(value):
    """A parsed field as comparable bits: a float's bit pattern, and the
    type of anything else with its value."""
    if isinstance(value, float):
        return struct.pack("<d", value)
    return type(value), value


def parsed(doc):
    """Every field of the run config parsed from ``doc``, bit for bit, or
    the type and message of the error it raises."""
    try:
        config = load_run_config(doc)
    except Exception as exc:
        return type(exc), str(exc)
    fields = [getattr(config.market, name) for name in
              ("r", "mu", "alpha", "T", "t_bar", "dtau")]
    fields += [config.payoff.kind, config.payoff.strike, config.grid.n,
               config.grid.nodes.tobytes(), config.s0, config.L, config.m,
               config.q, config.mode, config.seed, config.eps1]
    return [bits(field) for field in fields]


def clear_memos():
    for memo in process_memos().values():
        memo.cache_clear()


@settings(max_examples=300, deadline=None)
@given(doc=documents())
def test_a_warm_parse_equals_a_cold_one(doc):
    # cold, then warm through every parse memo, then cold again: the same
    # fields bit for bit, or the same error
    clear_memos()
    cold = parsed(doc)
    assert parsed(doc) == cold
    clear_memos()
    assert parsed(doc) == cold


@pytest.mark.parametrize("kind", ["swap", ["call"], {"call": 1}, None])
def test_a_bad_kind_fails_its_check_before_the_memo(kind):
    # an unhashable kind too: the check runs before the memo hashes it
    for _ in range(2):
        with pytest.raises(ConfigError, match=r"kind must be 'call' or 'put', "
                                              r"got " + re.escape(repr(kind))):
            load_run_config({**README_DOC, "kind": kind})


def test_a_signed_zero_keeps_its_own_market_and_payoff():
    # the parse memo keys floats on their bits: -0.0 after 0.0 is not a hit
    for sign in (1.0, -1.0, 1.0):
        config = load_run_config({**README_DOC, "r": sign * 0.0,
                                  "strike": sign * 0.0})
        assert math.copysign(1.0, config.market.r) == sign
        assert math.copysign(1.0, config.payoff.strike) == sign
    assert market._parse.cache_info().currsize == 2


def test_a_warm_load_reads_the_qubit_cap(monkeypatch):
    # QVAR_QUBIT_CAP is read on every load, memo or not: n = 4 fits a cap
    # of 12 but the pipeline's 14 qubits do not; a cap of 3 refuses the grid
    load_run_config(README_DOC).check_budget()
    monkeypatch.setenv("QVAR_QUBIT_CAP", "12")
    with pytest.raises(QubitBudgetError, match="budget is 12"):
        load_run_config(README_DOC).check_budget()
    monkeypatch.setenv("QVAR_QUBIT_CAP", "3")
    with pytest.raises(QubitBudgetError, match="budget of 3"):
        load_run_config(README_DOC)
    monkeypatch.setenv("QVAR_QUBIT_CAP", "x")
    with pytest.raises(ConfigError, match="must be an integer"):
        load_run_config(README_DOC)
    monkeypatch.delenv("QVAR_QUBIT_CAP")
    load_run_config(README_DOC).check_budget()
    assert market._parse.cache_info().misses == 1
