"""Acceptance criteria, one test per criterion, at the stated tolerances.

Each test prints a single PASS line when its assertions hold, so the
suite doubles as a checklist: pytest -s tests/test_acceptance.py
"""

import hashlib
import importlib.util
import json
import math
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from conftest import random_tridiagonal
from qvar.blockenc import assemble_block_encoding
from qvar.cli import main as cli_main
from qvar.market import (MarketParams, PayoffSpec, build_grid, payoff_vector,
                         price_code)
from qvar.mc import PathSet
from qvar.nogo import copy_curve, trace_norm_gap
from qvar.pipeline import emit_report, load_run_config, run_pipeline
from qvar.pde import (TridiagonalOperator, assemble_operator, price_american,
                      price_european)
from qvar.qcore import RegisterLayout
from qvar.qpca import (assemble_portfolio_state, decode_value, grid_codes,
                       reduced_rho, snap_paths)
from qvar.qsvt import prepare_value_state
from qvar.risk import (TailTable, classical_var_cvar, cvar, exact_var,
                       make_reference_state)
from reference import (DensityMatrix, dense_unitary, evolve_exp_rho,
                       explicit_trace_norm_gap, fit_linear_slope, grover_rudolph_prepare, nearest_index,
                       perturb_state, trotter_slice, verify_block_encoding)

# degree-budget constant for criterion 3, shared across every case
DEGREE_BUDGET_C = 8.0


def _report(name: str, detail: str) -> None:
    print(f"PASS {name}: {detail}")


def test_criterion_1_pde_matches_risk_neutral_mc():
    start = time.perf_counter()
    params = MarketParams(r=0.05, mu=0.0, alpha=0.4, T=1.0, t_bar=0.0, dtau=1 / 64)
    grid = build_grid(0.0, 4.0, 6, "uniform")
    spec = PayoffSpec("call", 1.0)
    surface = price_european(params, grid, spec)
    j = nearest_index(grid, 1.0)

    rng = np.random.default_rng(20240801)
    n_paths = 2 * 10**5
    dt = params.dtau / 8  # finer oracle steps reduce the Euler bias
    s = np.full(n_paths, grid.nodes[j])
    for _ in range(64 * 8):
        dz = rng.normal(scale=math.sqrt(dt), size=n_paths)
        s = np.maximum(s + params.r * s * dt + params.alpha * np.sqrt(s) * dz, 0.0)
    payoffs = math.exp(-params.r) * np.maximum(s - spec.strike, 0.0)
    se = payoffs.std(ddof=1) / math.sqrt(n_paths)
    gap = abs(surface.values[j] - payoffs.mean())
    elapsed = time.perf_counter() - start
    assert gap < 3 * se, f"gap {gap:.3e} vs 3se {3 * se:.3e}"
    assert elapsed < 10.0
    _report("criterion 1",
            f"FD vs MC gap {gap:.2e} < 3se {3 * se:.2e}, {elapsed:.1f}s")


def test_criterion_2_block_encoding_certificates(rng):
    start = time.perf_counter()
    worst_err = 0.0
    worst_unit = 0.0
    for trial in range(20):
        n = int(rng.integers(2, 6))
        sub, diag, sup = random_tridiagonal(rng, n)
        op = TridiagonalOperator(sub, diag, sup, n)
        be = assemble_block_encoding(op)
        worst_err = max(worst_err, verify_block_encoding(be, op))
        u = dense_unitary(be)
        worst_unit = max(worst_unit, np.abs(u @ u.T - np.eye(u.shape[0])).max())
    elapsed = time.perf_counter() - start
    assert worst_err <= 1e-10
    assert worst_unit <= 1e-10
    assert elapsed < 5.0
    _report("criterion 2",
            f"20 encodings: max error {worst_err:.1e}, unitarity {worst_unit:.1e}, "
            f"{elapsed:.1f}s")


QSVT_CASES = {4: dict(r=0.02, alpha=0.2), 5: dict(r=0.01, alpha=0.1)}


def test_criterion_3_qsvt_fidelity_and_degree_budget():
    dtau = 1 / 4096
    worst = 0.0
    for n, kw in QSVT_CASES.items():
        grid = build_grid(0.0, 4.0, n, "uniform")
        spec = PayoffSpec("call", 1.0)
        payoff = payoff_vector(spec, grid)
        for t_tilde in (1, 2, 4, 8):
            start = time.perf_counter()
            params = MarketParams(r=kw["r"], mu=0.0, alpha=kw["alpha"],
                                  T=t_tilde * dtau, t_bar=0.0, dtau=dtau)
            res = prepare_value_state(payoff, params, grid, eps1=1e-3)
            classical = price_european(params, grid, spec).values
            vc = classical / np.linalg.norm(classical)
            dist = float(np.linalg.norm(res.state - vc))
            elapsed = time.perf_counter() - start
            assert dist <= 1e-3, f"n={n} T~={t_tilde}: distance {dist:.2e}"
            norm2 = float(np.linalg.norm(
                assemble_operator(params, grid).plus_identity().to_dense(), 2))
            budget = DEGREE_BUDGET_C * t_tilde * norm2 * math.log(1 / res.target.eps)
            assert res.target.degree <= budget, \
                f"degree {res.target.degree} over budget {budget:.0f}"
            assert elapsed < 60.0
            worst = max(worst, dist)
    _report("criterion 3",
            f"8 cases (n in 4..5, T~ in 1..8): max l2 distance {worst:.2e}, "
            f"degree within C={DEGREE_BUDGET_C} budget")


def _lookup_instance(rng, m=6):
    grid = build_grid(0.0, 4.0, 4, "uniform")
    values = rng.uniform(0.05, 1.0, size=16)
    vstate = grover_rudolph_prepare(values)
    prices = price_code(grid.nodes[rng.integers(0, 16, size=8)], m) / 2.0**m
    paths = PathSet(L=8, t=0.0, prices=prices, m=m)
    return grid, values, vstate, paths


def test_criterion_4_step3_lookup_and_trotter_convergence(rng):
    grid, values, vstate, paths = _lookup_instance(rng)
    res = assemble_portfolio_state(paths, vstate, grid, 6, snap_paths(paths, grid),
                                   grid_codes(grid, 6))
    normalized = values / np.linalg.norm(values)
    worst = 0.0
    for value, j in zip(res.value, res.node_index):
        err = abs(value - normalized[j])
        assert err <= 2**-6
        worst = max(worst, err)

    # second-order slice convergence: distance between one swap slice and
    # the exact exponential over the slice lengths 1/8, 1/16, 1/32
    rho = DensityMatrix(np.diag(reduced_rho(vstate, grid)))
    sigma_vals = rng.uniform(0.2, 1.0, size=rho.entries.shape[0])
    sigma = DensityMatrix(np.diag(reduced_rho(
        grover_rudolph_prepare(rng.uniform(0.1, 1.0, size=16)), grid)))
    dists = []
    for n_trotter in (8, 16, 32):
        dt = 1.0 / n_trotter
        exact = evolve_exp_rho(sigma, rho, dt)
        approx = trotter_slice(rho, sigma, dt)
        dists.append(np.linalg.norm(approx.entries - exact.entries, 2))
    slopes = [math.log2(dists[i] / dists[i + 1]) for i in range(2)]
    for slope in slopes:
        assert abs(slope - 2.0) <= 0.2, f"slope {slope:.2f}"
    _report("criterion 4",
            f"branch errors <= 2^-6 (max {worst:.2e}); trotter slopes "
            f"{slopes[0]:.2f}, {slopes[1]:.2f}")


def test_criterion_5_error_propagation(rng):
    grid = build_grid(0.0, 4.0, 4, "uniform")
    worst_ratio = 0.0
    for eps in (1e-3, 1e-2, 1e-1):
        for _ in range(10):
            values = rng.uniform(0.05, 1.0, size=16)
            vstate = grover_rudolph_prepare(values)
            rho = reduced_rho(vstate, grid)
            rho_p = reduced_rho(perturb_state(vstate, eps, rng), grid)
            shift = np.abs(np.sort(rho_p) - np.sort(rho)).max()
            assert shift <= 4.0 * eps
            worst_ratio = max(worst_ratio, shift / eps)
    _report("criterion 5",
            f"spectrum shift <= 4 eps for eps in 1e-3..1e-1 (max ratio "
            f"{worst_ratio:.2f})")


def _risk_instance(rng, L, m=6):
    grid = build_grid(0.0, 4.0, 4, "uniform")
    values = rng.uniform(0.0, 1.0, size=16)
    vstate = grover_rudolph_prepare(values)
    prices = price_code(grid.nodes[rng.integers(0, 16, size=L)], m) / 2.0**m
    paths = PathSet(L=L, t=0.0, prices=prices, m=m)
    assembled = assemble_portfolio_state(paths, vstate, grid, m,
                                         snap_paths(paths, grid),
                                         grid_codes(grid, m))
    return grid, values, paths, assembled


def _flagged(assembled):
    phi = assembled.state
    layout = RegisterLayout(phi.layout.items() + [("flag", 1)])
    from qvar.qcore import StateVector
    return StateVector(phi.amplitudes, layout, phi.index << 1), layout


def test_criterion_6_and_7_var_equality_cvar_identity(rng):
    m = 6
    cases = 0
    worst_cvar_gap = 0.0
    for trial in range(50):
        L = (8, 16)[trial % 2]
        q = (0.05, 0.25)[(trial // 2) % 2]
        grid, values, paths, assembled = _risk_instance(rng, L, m)
        state, layout = _flagged(assembled)
        codes = grid_codes(grid, m)
        node_idx = assembled.node_index
        twin = decode_value(assembled.lookup(codes[node_idx]), m)

        reference = make_reference_state(
            layout, assembled.path_support << 1, assembled.value)
        tail = TailTable(state, reference, assembled.lookup)
        var_code, iters, _ = exact_var(tail, q)
        classical = classical_var_cvar(twin, q)
        assert decode_value(var_code, m) == classical.var, \
            f"trial {trial}: code {var_code} vs classical {classical.var}"
        assert iters <= m

        breakdown = cvar(tail, var_code, L, 1.0)
        # identity against the coded twin
        assert breakdown.cvar_normalized == pytest.approx(classical.cvar, abs=1e-10)
        # stated tolerance against the unquantized classical tail mean
        raw = classical_var_cvar(values[node_idx] / np.linalg.norm(values), q)
        gap = abs(breakdown.cvar_normalized - raw.cvar)
        assert gap <= 2**-m * (1 + 1 / q), f"trial {trial}: cvar gap {gap:.3e}"
        worst_cvar_gap = max(worst_cvar_gap, gap)
        cases += 1
    assert cases == 50
    _report("criterion 6", "quantum-exact VaR code equals classical quantile "
                           "on 50/50 instances, bisection <= m iterations")
    _report("criterion 7",
            f"CVaR identity exact on codes; raw tail-mean gap max "
            f"{worst_cvar_gap:.2e} within 2^-m (1 + 1/q)")


def test_criterion_8_american_projection(rng):
    params = MarketParams(r=0.06, mu=0.0, alpha=0.5, T=1.0, t_bar=0.0, dtau=0.25)
    grid = build_grid(0.0, 4.0, 4, "uniform")
    worst = 0.0
    for kind, strike in (("put", 1.0), ("put", 1.5), ("call", 1.0), ("call", 0.8)):
        spec = PayoffSpec(kind, strike)
        amer = price_american(params, grid, spec)
        euro = price_european(params, grid, spec)
        assert np.all(amer.values >= euro.values - 1e-12)
        dense = np.eye(16) + assemble_operator(params, grid).to_dense()
        payoff = payoff_vector(spec, grid)
        v = payoff.copy()
        for _ in range(params.pricing_steps):
            v = np.maximum(payoff, np.linalg.solve(dense, v))
        gap = np.abs(amer.values - v).max()
        assert gap < 1e-12
        worst = max(worst, gap)
    _report("criterion 8",
            f"projection dominates European and matches the dense oracle "
            f"(max gap {worst:.1e})")


def test_criterion_9_nogo_curve():
    curve = copy_curve(256, 0.8)
    slope = fit_linear_slope(curve)
    assert 0.3 <= slope <= 3.0
    checked = 0
    d = 2
    while d <= 256:
        m = 1
        while d**m <= 2**12:
            explicit = explicit_trace_norm_gap(d, m)
            analytic = trace_norm_gap(d, m)
            assert abs(explicit - 2.0 * analytic) <= 1e-12
            checked += 1
            m += 1
        d *= 2
    _report("criterion 9",
            f"copy curve slope {slope:.2f} in [0.3, 3]; explicit = 2x analytic "
            f"on {checked} (d, m) pairs")


def test_criterion_10_deterministic_runs(tmp_path):
    config = {
        "r": 0.02, "mu": 0.05, "alpha": 0.2, "T": 16 / 4096, "t_bar": 8 / 4096,
        "dtau": 1 / 4096, "kind": "call", "strike": 1.0, "s_min": 0.0,
        "s_max": 4.0, "n": 4, "spacing": "uniform", "s0": 1.0, "L": 8,
        "m": 6, "q": 0.05, "mode": "quantum_exact", "seed": 1234,
    }
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    blobs = []
    for i in range(3):
        out = tmp_path / f"report{i}.json"
        assert cli_main(["run", "--config", str(path), "--output", str(out)]) == 0
        blobs.append(out.read_bytes())
    assert blobs[0] == blobs[1] == blobs[2]
    _report("criterion 10", "three runs produced bit-identical reports "
                            f"({len(blobs[0])} bytes)")


WORKLOADS_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"

# sha256 of the benchmark's checked reports, the 16 requests of each of
# seeds 1-3 run in order in one process, and of the same requests in
# quantum_sampled mode; fine_grid is sampled already
WORKLOAD_REPORT_SHA256 = {
    ("deep_horizon", "quantum_exact"):
        "a2c0462bbebc6c0e44847b19522879586e85c03fab77cb4cb44ff02aff030a45",
    ("deep_horizon", "quantum_sampled"):
        "340cc5b474e700365d9d93419e5e08f309d981c7a241b4666387ba14dcab9a09",
    ("fine_grid", "quantum_sampled"):
        "c3ca82ef12b05ba871e6f39e5939feb1dd68ae5146730b3cd38a42feb309f3d2",
    ("readme_default", "quantum_exact"):
        "33bdef234ff428ce5824024d655b68dd73970b32fb91bac3351bd2829c4f9d5a",
    ("readme_default", "quantum_sampled"):
        "56e875e067ad320a6c5938aaea55439b90b1a566fc01f336d3b2110d77b795ea",
    ("wide_book", "quantum_exact"):
        "6a9efe173a267859c1019aa1ca9f6006c2e7de66f851bbb136b52c879b99c025",
    ("wide_book", "quantum_sampled"):
        "0839a21b7d4f06a28d46bc56c5ce77a103ddbfe218a0fbb59575419b12072336",
}


def benchmark_workloads():
    spec = importlib.util.spec_from_file_location("perfbench_workloads",
                                                  WORKLOADS_PATH)
    module = importlib.util.module_from_spec(spec)
    # dataclasses look their module up while the class is made
    sys.modules[spec.name] = module
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[spec.name]
    return module.WORKLOADS


@pytest.mark.parametrize("workload,mode", sorted(WORKLOAD_REPORT_SHA256))
def test_criterion_10_workload_reports_pinned(workload, mode):
    docs = [doc for seed in (1, 2, 3)
            for doc in benchmark_workloads()[workload].requests(seed)]
    digest = hashlib.sha256()
    for doc in docs:
        digest.update(emit_report(run_pipeline(load_run_config(
            {**doc, "mode": mode}))).encode())
    assert len(docs) == 48
    assert digest.hexdigest() == WORKLOAD_REPORT_SHA256[workload, mode]
