import json
import math
import sys
import tracemalloc

import numpy as np
import pytest

from qvar.market import (MarketParams, PayoffSpec, build_grid, payoff_vector,
                         price_code)
from qvar.pipeline import (RunConfig, _book, emit_report, load_run_config,
                           run_pipeline)
from qvar.risk import cvar
from qvar.errors import ConfigError
from qvar.qpca import snap_paths
from reference import nearest_index


def make_config(**overrides):
    base = dict(
        market=MarketParams(r=0.02, mu=0.05, alpha=0.2, T=16 / 4096,
                            t_bar=8 / 4096, dtau=1 / 4096),
        payoff=PayoffSpec("call", 1.0),
        grid=build_grid(0.0, 4.0, 4, "uniform"),
        s0=1.0, L=8, m=6, q=0.25, mode="quantum_exact", seed=5)
    base.update(overrides)
    return RunConfig(**base)


def test_degenerate_dynamics_quantum_equals_classical():
    # t_bar = T with zero vol and drift: every path sits at s0 and the
    # surface is the payoff itself
    market = MarketParams(r=0.0, mu=0.0, alpha=0.0, T=0.5, t_bar=0.5, dtau=1 / 8)
    cfg = make_config(market=market, q=0.5)
    res = run_pipeline(cfg)
    grid = cfg.grid
    payoff = payoff_vector(cfg.payoff, grid)
    expected = payoff[nearest_index(grid, cfg.s0)]
    scale = float(np.linalg.norm(payoff))
    assert res.report.var_normalized == res.classical.var
    assert res.report.cvar_normalized == pytest.approx(res.classical.cvar, abs=1e-10)
    assert abs(res.report.var - expected) <= 2.0**-6 * scale
    assert abs(res.report.cvar - expected) <= 2.0**-6 * scale


def test_tally_counters_match_pipeline():
    cfg = make_config()
    res = run_pipeline(cfg)
    assert res.tally.qsvt_degree >= 1
    # each of the T~ steps runs the degree-d circuit, then one amplification
    # round runs its inverse and the circuit again
    assert cfg.market.pricing_steps == 8
    assert res.tally.block_encoding_queries == 3 * 8 * res.tally.qsvt_degree
    assert res.tally.bisection_iterations <= cfg.m
    assert res.tally.state_preparation_repetitions >= 1


def test_tally_identical_on_cold_and_warm_stage1():
    # the compiled Stage 1 is a simulator memo: the device still spends
    # the march's encoding queries on every request
    cfg = make_config()
    cold = run_pipeline(cfg).tally.to_dict()
    warm = run_pipeline(cfg).tally.to_dict()
    assert warm == cold
    assert warm["block_encoding_queries"] == 3 * 8 * warm["qsvt_degree"] > 0


@pytest.mark.parametrize("field,value", [
    ("s0", float("nan")), ("s0", float("inf")), ("seed", -1), ("eps1", 0.0),
    ("eps1", -1.0), ("eps1", float("inf"))])
def test_run_config_rejects_bad_values(field, value):
    with pytest.raises(ConfigError, match=field):
        make_config(**{field: value})


def test_report_json_round_trip():
    res = run_pipeline(make_config())
    doc = json.loads(emit_report(res))
    assert doc["report"]["var"] == res.report.var
    assert doc["report"]["cvar"] == res.report.cvar
    assert doc["tally"]["qsvt_degree"] == res.tally.qsvt_degree


def test_classical_mode_skips_quantum_counters():
    res = run_pipeline(make_config(mode="classical"))
    assert res.report.method == "classical"
    assert res.tally.qsvt_degree == 0
    assert res.report.var_normalized == res.classical.var


def test_load_run_config_defaults(tmp_path):
    doc = {"r": 0.02, "mu": 0.05, "alpha": 0.2, "T": 16 / 4096,
           "t_bar": 8 / 4096, "dtau": 1 / 4096, "kind": "call", "strike": 1.0,
           "s_min": 0.0, "s_max": 4.0, "n": 4, "spacing": "uniform"}
    path = tmp_path / "minimal.json"
    path.write_text(json.dumps(doc))
    cfg = load_run_config(str(path))
    assert cfg.s0 == 1.0  # defaults to the strike
    assert cfg.L == 8 and cfg.m == 6 and cfg.q == 0.05


def test_quantum_sampled_var_close_to_classical():
    res = run_pipeline(make_config(mode="quantum_sampled", seed=2))
    # sampled estimates move the code by at most a few steps
    assert abs(res.report.var_normalized - res.classical.var) <= 0.25
    assert res.tally.amplitude_estimation_queries > 0


def test_sampled_var_codes_agree_with_the_classical_oracle():
    # README market at L = 64: over 200 seeds at each of four levels, at
    # most 6 of the 800 sampled VaR codes may differ from the oracle's;
    # the estimator at eps 0.02 misses 1 or 2 of them
    missed = []
    for q in (0.0475, 0.01, 0.1, 0.25):
        for seed in range(200):
            res = run_pipeline(make_config(L=64, q=q, seed=seed,
                                           mode="quantum_sampled"))
            if not res.deviations["var_code_matches_classical"]:
                missed.append((q, seed))
    assert len(missed) <= 6, missed


# the additive error of every sampled estimate, run_pipeline's eps_est
SAMPLED_EPS = 0.02


def test_sampled_cvar_gap_within_the_estimators_budget():
    """README market, n = 4, T~ = 8, L = 64: strikes {0.9, 1.0, 1.1} x
    q in {0.0475, 0.01, 0.1, 0.25} x seeds 0-99, 1,200 sampled requests.

    The budget: each amplitude estimate resolves its angle theta, with
    sin^2 theta the estimated probability, to within eps, since its top
    power's multiplier 2K + 1 exceeds 1/eps; so the amplitude sin theta
    is off by at most eps.  At the sampled VaR code, with tail mass p0,
    overlap o, reference RMS A = W / sqrt(L) and exact-mode CVaR
    c_e = A o / p0, the sampled CVaR A o' / p0' has |o' - o| <= eps and
    |sqrt(p0') - sqrt(p0)| <= eps, so p0' >= (sqrt(p0) - eps)^2 and
    |p0' - p0| <= eps (2 sqrt(p0) + eps), and

        |A o' / p0' - c_e| <= A |o' - o| / p0' + c_e |p0' - p0| / p0'
                           <= eps [A + c_e (2 sqrt(p0) + eps)]
                                  / (sqrt(p0) - eps)^2.

    The normalised gap to the classical CVaR is then at most that
    multiple of eps plus the exact-mode gap at the sampled code, which is
    the rounding of exact mode when the code matches the oracle's and the
    step between neighbouring tails when it does not."""
    eps = SAMPLED_EPS
    for strike in (0.9, 1.0, 1.1):
        for q in (0.0475, 0.01, 0.1, 0.25):
            for seed in range(100):
                config = make_config(payoff=PayoffSpec("call", strike), L=64,
                                     q=q, seed=seed, mode="quantum_sampled")
                res = run_pipeline(config)
                book = _book(config.market, config.payoff, config.grid.n,
                             config.grid.nodes.tobytes(), config.s0, config.L,
                             config.m, config.eps1)
                tail = book.quantum(config.price_codes).tail
                exact = cvar(tail, res.report.var_code, config.L, book.scale)
                rms = (tail.ref_norm or 0.0) / math.sqrt(config.L)
                root = math.sqrt(exact.p0)
                assert root > eps
                multiple = ((rms + exact.cvar_normalized * (2 * root + eps))
                            / (root - eps) ** 2)
                floor = abs(exact.cvar_normalized - res.classical.cvar)
                gap = res.deviations["cvar_gap_normalized"]
                assert gap <= floor + multiple * eps, (strike, q, seed)


def test_scenario_stages_scale_with_branches_not_qubits(monkeypatch):
    no_pricing = MarketParams(r=0.02, mu=0.05, alpha=0.2, T=8 / 4096,
                              t_bar=8 / 4096, dtau=1 / 4096)
    cases = [
        # 12 path + 9 price + 6 value + 1 flag = 28 qubits: 4 GiB as a
        # dense statevector, 4096 stored amplitudes in the branch-sparse
        # form; VaR code 7, a nonzero tail mean
        ("28", make_config(L=4096, q=0.5)),
        # 3 path + 23 price + 20 value + 1 flag = 47 qubits, 2^23 price
        # codes against 16 grid nodes; T = t_bar leaves no pricing step,
        # so the value state is the payoff's and the VaR code the classical
        ("47", make_config(market=no_pricing, m=20, q=0.5)),
    ]
    for cap, cfg in cases:
        monkeypatch.setenv("QVAR_QUBIT_CAP", cap)
        tracemalloc.start()
        try:
            res = run_pipeline(cfg)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 256 * 2**20, cap
        assert res.deviations["var_code_matches_classical"]
        assert res.report.var_normalized == res.classical.var
        assert res.report.cvar_normalized == pytest.approx(res.classical.cvar,
                                                           abs=1e-10)


@pytest.mark.parametrize("mode", ["quantum_exact", "quantum_sampled"])
def test_one_snap_per_quantum_request(monkeypatch, mode):
    # the scenario stages share one path -> node snap: wrap it at every
    # qvar module that binds it
    calls = []

    def counting(paths, grid):
        calls.append(paths.L)
        return snap_paths(paths, grid)

    for name, module in list(sys.modules.items()):
        if name.startswith("qvar") and getattr(module, "snap_paths", None) is snap_paths:
            monkeypatch.setattr(module, "snap_paths", counting)
    run_pipeline(make_config(mode=mode))
    assert calls == [8]


@pytest.mark.parametrize("mode", ["quantum_exact", "quantum_sampled"])
def test_one_grid_encoding_per_quantum_request(monkeypatch, mode):
    # Steps 2-4 read the grid's price codes from one encoding: count the
    # price_code calls on the grid nodes at every qvar module that binds it
    cfg = make_config(mode=mode)
    calls = []

    def counting(values, m):
        if np.array_equal(values, cfg.grid.nodes):
            calls.append(m)
        return price_code(values, m)

    for name, module in list(sys.modules.items()):
        if name.startswith("qvar") and getattr(module, "price_code", None) is price_code:
            monkeypatch.setattr(module, "price_code", counting)
    run_pipeline(cfg)
    assert calls == [cfg.m]
