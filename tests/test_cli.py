import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from qvar import qpca, qsvt
from qvar.cli import main
from qvar.market import payoff_vector
from qvar.mc import simulate_paths
from qvar.pipeline import load_run_config
from qvar.qpca import (decode_value, qpe_exact_distributions, reduced_rho,
                       snap_paths, sqrt_code_table)
from qvar.qsvt import prepare_value_state

BASE_CONFIG = {
    "r": 0.02, "mu": 0.05, "alpha": 0.2, "T": 16 / 4096, "t_bar": 8 / 4096,
    "dtau": 1 / 4096, "kind": "call", "strike": 1.0, "s_min": 0.0,
    "s_max": 4.0, "n": 4, "spacing": "uniform",
    "s0": 1.0, "L": 8, "m": 6, "q": 0.25, "mode": "quantum_exact", "seed": 11,
}
# the README's example config
README_CONFIG = {**BASE_CONFIG, "q": 0.05}


@pytest.fixture
def config_path(tmp_path):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(BASE_CONFIG))
    return str(path)


def run_cli(args):
    return main(args)


def test_price_csv(config_path, tmp_path, capsys):
    out = tmp_path / "surface.csv"
    code = run_cli(["price", "--style", "european", "--config", config_path,
                    "--output", str(out)])
    assert code == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "S,V"
    assert len(lines) == 17  # header + 2^4 nodes


def test_price_american_dominates(config_path, tmp_path):
    euro = tmp_path / "e.csv"
    amer = tmp_path / "a.csv"
    run_cli(["price", "--style", "european", "--config", config_path,
             "--output", str(euro)])
    run_cli(["price", "--style", "american", "--config", config_path,
             "--output", str(amer)])
    for le, la in zip(euro.read_text().splitlines()[1:],
                      amer.read_text().splitlines()[1:]):
        assert float(la.split(",")[1]) >= float(le.split(",")[1]) - 1e-12


def test_simulate_row_count(config_path, tmp_path):
    out = tmp_path / "paths.csv"
    code = run_cli(["simulate", "--paths", "16", "--bits", "8",
                    "--config", config_path, "--output", str(out)])
    assert code == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "k,price"
    assert len(lines) == 17


def test_verify_be_json(config_path, capsys):
    assert run_cli(["verify-be", "--config", config_path]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["ancillas"] == 3
    assert doc["certified_error"] <= 1e-10
    assert doc["gamma"] > 0


def test_verify_qsvt_json(config_path, capsys):
    assert run_cli(["verify-qsvt", "--config", config_path]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["residual"] <= 1e-8
    assert doc["block_error"] <= 1e-8
    assert doc["degree"] >= 1
    assert doc["success_probability"] > 1e-6


def count_calls(monkeypatch, fn):
    """Calls of ``fn`` through every binding a qvar module holds of it."""
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return fn(*args, **kwargs)

    for name, mod in list(sys.modules.items()):
        if name == "qvar" or name.startswith("qvar."):
            for key, value in list(vars(mod).items()):
                if value is fn:
                    monkeypatch.setattr(mod, key, counted)
    return calls


def test_cold_verify_qsvt_builds_one_encoding_and_one_block(config_path, capsys,
                                                            monkeypatch):
    # the Stage-1 memos start empty: the march applies the circuit to one
    # column per step, and verify-qsvt builds the block once, on the
    # identity columns, from the encoding production used
    encodings = count_calls(monkeypatch, qsvt.assemble_block_encoding)
    applied = count_calls(monkeypatch, qsvt.apply_qsvt)
    assert run_cli(["verify-qsvt", "--config", config_path]) == 0
    assert json.loads(capsys.readouterr().out)["block_error"] <= 1e-8
    assert len(encodings) == 1
    steps = round((BASE_CONFIG["T"] - BASE_CONFIG["t_bar"]) / BASE_CONFIG["dtau"])
    size = 2**BASE_CONFIG["n"]
    assert [args[2].shape for args in applied] == [(size, 1)] * steps + [(size, size)]
    assert len({id(args[0]) for args in applied}) == 1


def test_assemble_branch_rows(config_path, capsys):
    assert run_cli(["assemble", "--mode", "exact", "--config", config_path]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "k,price,value,error_vs_oracle"
    assert len(lines) == 1 + BASE_CONFIG["L"]


def exact_qpe_modal_values(doc):
    """Each branch's value read from the modal code of exact-mode QPE."""
    cfg = load_run_config(doc)
    prepared = prepare_value_state(payoff_vector(cfg.payoff, cfg.grid),
                                   cfg.market, cfg.grid, cfg.eps1)
    paths = simulate_paths(cfg.market, cfg.s0, cfg.L, cfg.m)
    rho = reduced_rho(prepared.state, cfg.grid)
    nodes = snap_paths(paths, cfg.grid)
    dists = qpe_exact_distributions(nodes, rho, cfg.m)
    sqrt_map = sqrt_code_table(cfg.m)
    return [float(decode_value(sqrt_map[int(np.argmax(dists[int(j)]))], cfg.m))
            for j in nodes]


def test_assemble_trotter_doubles_slices_until_certified(config_path, capsys):
    # the default 16 slices read one code on every branch at distance 0.96;
    # the certified slice count reads exact-mode QPE's modal codes
    assert run_cli(["assemble", "--mode", "trotter", "--config", config_path]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "k,price,value,error_vs_oracle"
    values = [float(line.split(",")[2]) for line in lines[1:]]
    assert values == exact_qpe_modal_values(BASE_CONFIG)
    assert len(set(values)) > 1


def test_assemble_trotter_slice_cap_exit_code(config_path, capsys, monkeypatch):
    monkeypatch.setattr(qpca, "TROTTER_SLICE_CAP", 256)  # 4096 are needed
    assert run_cli(["assemble", "--mode", "trotter", "--config", config_path]) == 3
    err = capsys.readouterr().err
    assert err.startswith("qvar: error: trotter distance ")
    assert "at 256 slices" in err
    assert "Traceback" not in err


def test_assemble_trotter_evaluates_the_exact_kernel_once(config_path, capsys,
                                                         monkeypatch):
    # the certification doubles the slice count 16 -> 4096 (9 trotter
    # kernels) against one exact kernel, not one per doubling
    exact = count_calls(monkeypatch, qpca.qpe_exact_distributions)
    trotter = count_calls(monkeypatch, qpca.qpe_trotter_distributions)
    assert run_cli(["assemble", "--mode", "trotter", "--config", config_path]) == 0
    assert len(exact) == 1
    assert [call[3] for call in trotter] == [16 * 2**k for k in range(9)]


def test_run_deterministic_reports(config_path, tmp_path):
    # var, cvar and run share one handler: the same config gives the same bytes
    outs = []
    for command in ("var", "cvar", "run"):
        out = tmp_path / f"{command}.json"
        assert run_cli([command, "--config", config_path, "--output", str(out)]) == 0
        outs.append(out.read_bytes())
    assert outs[0] == outs[1] == outs[2]


def test_var_quantum_matches_classical(config_path, capsys):
    assert run_cli(["var", "--mode", "quantum-exact", "--config", config_path]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["report"]["var_normalized"] == doc["classical"]["var"]
    assert doc["deviations"]["var_code_matches_classical"] is True


def test_sampled_mode_runs(config_path, capsys):
    assert run_cli(["var", "--mode", "quantum-sampled", "--seed", "3",
                    "--config", config_path]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["report"]["method"] == "quantum_sampled"
    assert doc["tally"]["amplitude_estimation_queries"] > 0


def test_nogo_curve(capsys):
    assert run_cli(["nogo", "--max-d", "64"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "d,min_copies"
    assert len(lines) == 7  # d = 2..64 along powers of two


@pytest.mark.parametrize("max_d", ["0", "-3", "1"])
def test_nogo_max_d_below_two_exit_code(capsys, max_d):
    # used to print only the CSV header and exit 0
    assert run_cli(["nogo", "--max-d", max_d]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("qvar: error: need max_d >= 2")


@pytest.mark.parametrize("bits", ["61", "62", "80"])
def test_price_code_past_int64_exit_code(config_path, capsys, bits):
    # s_max = 4 at m >= 61 has a price code of 2^63 or more; the cast used
    # to wrap it and report a collision advising a larger m
    assert run_cli(["run", "--bits", bits, "--config", config_path]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"qvar: error: largest price 4.0 at m = {bits} "
                          "needs a ")
    assert "decrease m, s_max, or s0 and the dynamics" in err


def test_path_price_past_int64_names_the_price_not_s_max(config_path, capsys):
    # simulate encodes path prices only: the largest one, set by s0 and the
    # dynamics, is what overflows, and the message used to call it s_max
    assert run_cli(["simulate", "--bits", "62", "--config", config_path]) == 2
    err = capsys.readouterr().err
    assert err.startswith("qvar: error: largest price ")
    top = float(err.split()[4])
    assert 1.0 < top < 4.0  # a path price, neither s0 = 1 nor s_max = 4
    assert f"largest price {top} at m = 62 needs a 64-bit price code" in err
    assert "decrease m, s_max, or s0 and the dynamics" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("field,value", [
    ("L", 2.5), ("n", 4.7), ("m", 6.5), ("seed", 1.5), ("L", True),
    ("n", True), ("m", True), ("seed", False), ("seed", "1.5")],
    ids=["L_fraction", "n_fraction", "m_fraction", "seed_fraction", "L_bool",
         "n_bool", "m_bool", "seed_bool", "seed_fraction_string"])
def test_non_integral_config_value_exit_code(tmp_path, capsys, field, value):
    # int() used to truncate these: "L": 2.5 ran as L = 2
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({**BASE_CONFIG, field: value}))
    assert run_cli(["run", "--config", str(path)]) == 2
    err = capsys.readouterr().err
    assert err == f"qvar: error: {field} must be an integer, got {value!r}\n"


@pytest.mark.parametrize("field", ["L", "n", "m", "seed"])
def test_integral_float_config_value_accepted(tmp_path, field):
    reports = []
    for value in (BASE_CONFIG[field], float(BASE_CONFIG[field])):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({**BASE_CONFIG, field: value}))
        out = tmp_path / "report.json"
        assert run_cli(["run", "--config", str(path), "--output", str(out)]) == 0
        reports.append(out.read_bytes())
    assert reports[0] == reports[1]


def test_config_error_exit_code(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"r": 0.02}))
    assert run_cli(["price", "--config", str(path)]) == 2


@pytest.mark.parametrize("contents", [None, "{not json", "[1, 2]"],
                         ids=["missing", "malformed", "not_an_object"])
def test_unreadable_config_exit_code(tmp_path, capsys, contents):
    path = tmp_path / "cfg.json"
    if contents is not None:
        path.write_text(contents)
    assert run_cli(["run", "--config", str(path)]) == 2
    assert capsys.readouterr().err.startswith("qvar: error: ")


@pytest.mark.parametrize("override", [
    {"s0": 1e308}, {"s0": "nan"}, {"s0": "inf"}, {"seed": -1}, {"eps1": 0},
    {"eps1": -1}, {"eps1": "nan"}],
    ids=["s0_huge", "s0_nan", "s0_inf", "seed_negative", "eps1_zero",
         "eps1_negative", "eps1_nan"])
def test_bad_run_value_exit_code(tmp_path, capsys, override):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({**BASE_CONFIG, **override}))
    assert run_cli(["run", "--config", str(path)]) == 2
    assert capsys.readouterr().err.startswith("qvar: error: ")



# one README-config field made non-finite, or so small that a step count
# overflows or passes market.MAX_STEPS; each used to exit 1 with a
# traceback, 3, or 2 with a meaningless code collision, and a dtau of 1e-12
# marched its 2e9 pricing steps for minutes
@pytest.mark.parametrize("field,value", [
    ("T", 1e400), ("dtau", 1e-320), ("dtau", 1e-12), ("L", 1e400),
    ("m", 1e400), ("seed", 1e400),
    ("n", 1e400), ("strike", float("nan")), ("r", float("nan")),
    ("alpha", float("nan")), ("mu", float("nan")), ("s_max", 1e400)],
    ids=["T_inf", "dtau_tiny", "dtau_steps_past_cap", "L_inf", "m_inf",
         "seed_inf", "n_inf", "strike_nan", "r_nan", "alpha_nan", "mu_nan",
         "s_max_inf"])
def test_non_finite_config_value_exit_code(tmp_path, capsys, field, value):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({**BASE_CONFIG, field: value}))
    assert run_cli(["run", "--config", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("qvar: error: ")
    assert "collide" not in err

def test_budget_error_exit_code(tmp_path, monkeypatch):
    monkeypatch.setenv("QVAR_QUBIT_CAP", "10")
    doc = dict(BASE_CONFIG)
    path = tmp_path / "big.json"
    path.write_text(json.dumps(doc))
    assert run_cli(["run", "--config", str(path)]) == 4


def test_qubit_cap_past_int64_exit_code(config_path, capsys, monkeypatch):
    # basis indices are int64: a cap of 100 used to let --bits 30 (67
    # qubits) through the budget check into a 64 GiB allocation
    monkeypatch.setenv("QVAR_QUBIT_CAP", "100")
    assert run_cli(["run", "--bits", "30", "--config", config_path]) == 2
    err = capsys.readouterr().err
    assert err.startswith("qvar: error: QVAR_QUBIT_CAP must lie in 1..63")
    assert "Traceback" not in err


def test_qubit_cap_63_budget_exit_code(config_path, capsys, monkeypatch):
    # 3 path + 33 price + 30 value + 1 flag qubits
    monkeypatch.setenv("QVAR_QUBIT_CAP", "63")
    assert run_cli(["run", "--bits", "30", "--config", config_path]) == 4
    err = capsys.readouterr().err
    assert "pipeline needs 67 qubits" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("mode", ["exact", "trotter"])
def test_assemble_budget_error_exit_code(config_path, capsys, monkeypatch, mode):
    # 3 path + 9 price + 6 value qubits, checked in either mode before
    # phase estimation runs
    monkeypatch.setenv("QVAR_QUBIT_CAP", "12")
    assert run_cli(["assemble", "--mode", mode, "--config", config_path]) == 4
    assert "layout needs 18 qubits, budget is 12" in capsys.readouterr().err


@pytest.mark.parametrize("mode", ["exact", "trotter"])
def test_assemble_budget_checked_before_stage1(config_path, capsys, monkeypatch,
                                               mode):
    # a config whose scenario registers can never fit exits 4 without
    # paying for the Stage-1 fit
    monkeypatch.setenv("QVAR_QUBIT_CAP", "12")
    stage1 = count_calls(monkeypatch, qsvt.prepare_value_state)
    assert run_cli(["assemble", "--mode", mode, "--config", config_path]) == 4
    assert stage1 == []


# runs the CLI with the address space capped, so that a kernel allocation
# the budget lets through is refused at once whatever the host's overcommit
CAPPED_CLI = """
import resource, sys
limit = 4 * 2**30
resource.setrlimit(resource.RLIMIT_AS, (limit, limit))
from qvar.cli import main
sys.exit(main(sys.argv[1:]))
"""


def test_assemble_trotter_refused_allocation_exit_code(tmp_path):
    # m = 32: 1 path + 29 price + 32 value qubits fit a cap of 63, but a
    # 2^32-long kernel vector does not fit 4 GiB of address space; exit 4
    # with NumPy's message, not a traceback
    path = tmp_path / "narrow.json"
    path.write_text(json.dumps({**BASE_CONFIG, "s_max": 1 / 16, "s0": 1 / 32,
                                "strike": 1 / 32, "L": 2, "m": 32}))
    src = str(Path(qpca.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src, "QVAR_QUBIT_CAP": "63",
           "OPENBLAS_NUM_THREADS": "1"}
    proc = subprocess.run(
        [sys.executable, "-c", CAPPED_CLI, "assemble", "--mode", "trotter",
         "--config", str(path)],
        env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 4, proc.stderr
    assert proc.stderr.startswith("qvar: error: QPE kernels at m = 32: "
                                  "Unable to allocate")
    assert "Traceback" not in proc.stderr
    assert proc.stdout == ""


# sha256 of `assemble --mode trotter` on the README config at m = 6, 8 and
# 10 (the last under QVAR_QUBIT_CAP=30: 3 path + 13 price + 10 value
# qubits); the QPE columns were recorded from the dense-matrix kernels the
# FFT forms replaced, the error column from the tight block encoding's fit,
# the Gauss-Newton phases and the march of one column per step
TROTTER_CSV_SHA256 = {
    6: "907bea31aac55de4ade78d728495fae8ec9f7ee33281b598fdb61e80192cfa33",
    8: "0c4bfd415068ccdeacad2adc0f8447f32e2b8441441d9625da31f6309ff5d2ca",
    10: "c045df75dc67e9937c24fc187fd69e802133f2a335c37af6668b22f903be0584",
}


@pytest.mark.parametrize("m", sorted(TROTTER_CSV_SHA256))
def test_assemble_trotter_csv_bytes_pinned(tmp_path, monkeypatch, m):
    monkeypatch.setenv("QVAR_QUBIT_CAP", "30")
    path = tmp_path / "readme.json"
    path.write_text(json.dumps({**README_CONFIG, "m": m}))
    out = tmp_path / "branches.csv"
    assert run_cli(["assemble", "--mode", "trotter", "--config", str(path),
                    "--output", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == TROTTER_CSV_SHA256[m]


# sha256 of the `run`, `var` and `cvar` report on the README config in each
# mode; the three commands share one handler, so one digest per mode
REPORT_SHA256 = {
    "classical":
        "e24db15e0db078bb6bceeb75b9285f6654845910bb31ef5fb4dd64431b1750d2",
    "quantum-exact":
        "e77b8c5167ddb2d5f51f0ef1eb9e5e24b13b65ba1f46a47cde22c7e4adee921b",
    "quantum-sampled":
        "c730748dfd7d57747017abf4a86b11f00e8226bbd61bfbea3ba942570c2b880e",
}


@pytest.mark.parametrize("mode", sorted(REPORT_SHA256))
@pytest.mark.parametrize("command", ["run", "var", "cvar"])
def test_report_bytes_pinned(tmp_path, command, mode):
    path = tmp_path / "readme.json"
    path.write_text(json.dumps(README_CONFIG))
    out = tmp_path / "report.json"
    assert run_cli([command, "--mode", mode, "--config", str(path),
                    "--output", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == REPORT_SHA256[mode]


def test_sampled_report_bytes_do_not_depend_on_the_hash_seed(tmp_path):
    # the seeded draws and every step after them are deterministic: two
    # fresh interpreters with different string hashing write equal reports
    path = tmp_path / "readme.json"
    path.write_text(json.dumps(README_CONFIG))
    src = str(Path(qpca.__file__).resolve().parents[1])
    reports = []
    for hash_seed in ("1", "2"):
        out = tmp_path / f"report-{hash_seed}.json"
        proc = subprocess.run(
            [sys.executable, "-m", "qvar.cli", "run", "--mode",
             "quantum-sampled", "--config", str(path), "--output", str(out)],
            env={**os.environ, "PYTHONPATH": src, "PYTHONHASHSEED": hash_seed},
            capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr
        reports.append(out.read_bytes())
    assert reports[0] == reports[1]
    assert hashlib.sha256(reports[0]).hexdigest() == \
        REPORT_SHA256["quantum-sampled"]


def test_level_at_the_cdf_tolerance_reads_the_least_value(tmp_path):
    # q <= risk.CDF_TOL: an empty tail must not count as reaching q, so both
    # quantum modes read the least value code, as the classical oracle does
    path = tmp_path / "tiny_level.json"
    path.write_text(json.dumps({**README_CONFIG, "strike": 0.5, "q": 1e-10}))
    reports = {}
    for mode in ("classical", "quantum-exact", "quantum-sampled"):
        out = tmp_path / f"{mode}.json"
        assert run_cli(["run", "--mode", mode, "--config", str(path),
                        "--output", str(out)]) == 0
        reports[mode] = json.loads(out.read_text())
    classical = reports["classical"]["report"]["var_normalized"]
    for mode in ("quantum-exact", "quantum-sampled"):
        assert reports[mode]["deviations"]["var_code_matches_classical"]
    exact = reports["quantum-exact"]["report"]
    assert exact["var_code"] / 2 ** (README_CONFIG["m"] - 1) == classical
    assert exact["var_normalized"] == classical


def test_numerical_error_exit_code(tmp_path):
    doc = dict(BASE_CONFIG)
    doc["kind"] = "put"
    doc["strike"] = 0.0  # zero payoff everywhere: value surface is zero
    path = tmp_path / "zero.json"
    path.write_text(json.dumps(doc))
    assert run_cli(["run", "--config", str(path)]) == 3


def test_unwritable_output_exit_code(tmp_path, capsys):
    target = tmp_path / "missing_dir" / "curve.csv"
    assert run_cli(["nogo", "--max-d", "4", "--output", str(target)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("qvar: error: ")
    assert str(target) in err
    assert "Traceback" not in err
