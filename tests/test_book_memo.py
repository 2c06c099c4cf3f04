"""The book memo: Steps 1-3 and the classical oracle's values are built
once per book (``pipeline._book``), and Step 4 runs per request.

A book is what the market, payoff, grid, s0, L, m and eps1 fix; q, mode and
seed only choose what Step 4 reads from it.  A hit must give the bytes a
miss gives, charge the same tally and leave the cached arrays as they were.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import qvar
from qvar import cli, pipeline, qcore, qsvt
from qvar.errors import QubitBudgetError
from qvar.pipeline import emit_report, load_run_config, run_pipeline

README_CONFIG = {
    "r": 0.02, "mu": 0.05, "alpha": 0.2,
    "T": 0.00390625, "t_bar": 0.001953125, "dtau": 0.000244140625,
    "kind": "call", "strike": 1.0,
    "s_min": 0.0, "s_max": 4.0, "n": 4, "spacing": "uniform",
    "s0": 1.0, "L": 8, "m": 6, "q": 0.05,
    "mode": "quantum_exact", "seed": 11,
}

MODES = ("classical", "quantum_exact", "quantum_sampled")


def run(**overrides):
    return run_pipeline(load_run_config({**README_CONFIG, **overrides}))


def book_of(**overrides) -> pipeline.Book:
    """The memoised book of a config, read through a memo hit."""
    config = load_run_config({**README_CONFIG, **overrides})
    before = pipeline._book.cache_info().hits
    book = pipeline._book(config.market, config.payoff, config.grid.n,
                          config.grid.nodes.tobytes(), config.s0, config.L,
                          config.m, config.eps1)
    assert pipeline._book.cache_info().hits == before + 1
    return book


def cached_arrays(book: pipeline.Book) -> dict:
    arrays = {"node_idx": book.node_idx,
              "classical_state": book.classical_state,
              "twin_values": book.twin_values, "raw_values": book.raw_values}
    quantum = book._quantum
    if quantum is not None:
        assembled = quantum.assembled
        arrays.update({
            "prepared": quantum.prepared.state,
            "block": quantum.prepared.block,
            "node_index": assembled.node_index,
            "path_support": assembled.path_support,
            "value": assembled.value, "oracle": assembled.oracle,
            "phi": assembled.state.amplitudes,
            "phi_index": assembled.state.index,
            "flagged_base": quantum.flagged_base.amplitudes,
            "flagged_index": quantum.flagged_base.index,
            "reference": quantum.reference[0].amplitudes,
            "reference_index": quantum.reference[0].index})
    return arrays


def test_level_mode_and_seed_hit_the_book():
    run()
    for overrides in ({"q": 0.25}, {"q": 0.01}, {"mode": "classical"},
                      {"mode": "quantum_sampled"}, {"seed": 3},
                      {"mode": "quantum_sampled", "seed": 99, "q": 0.1}):
        misses = pipeline._book.cache_info().misses
        run(**overrides)
        assert pipeline._book.cache_info().misses == misses, overrides
    assert pipeline._book.cache_info().currsize == 1


@pytest.mark.parametrize("field,value", [
    ("strike", 1.1), ("kind", "put"), ("s0", 1.2), ("L", 16), ("m", 7),
    ("eps1", 1e-4), ("n", 5), ("spacing", "geometric"), ("s_min", 0.5),
    ("s_max", 5.0), ("r", 0.03), ("mu", 0.06), ("alpha", 0.25),
    ("T", 0.0029296875), ("t_bar", 0.0009765625), ("dtau", 0.00048828125)])
def test_every_book_field_misses_the_book(field, value):
    base = {"mode": "classical"}
    if field == "spacing":
        base["s_min"] = 0.25  # geometric spacing needs s_min > 0
    run(**base)
    misses = pipeline._book.cache_info().misses
    run(**base, **{field: value})
    assert pipeline._book.cache_info().misses == misses + 1
    assert pipeline._book.cache_info().currsize == 2


def test_a_signed_zero_shares_the_book_with_its_bytes():
    # MarketParams compares by value, so r = -0.0 hits r = 0.0's book; the
    # sign of a zero does not reach the report
    cold = emit_report(run(r=-0.0))
    pipeline._book.cache_clear()
    run(r=0.0)
    misses = pipeline._book.cache_info().misses
    assert emit_report(run(r=-0.0)) == cold
    assert pipeline._book.cache_info().misses == misses


# prints the reports of REQUESTS, run back to back in a fresh interpreter
FRESH = """
import json, sys
from qvar import emit_report, load_run_config, run_pipeline
base, requests = json.loads(sys.argv[1])
print(json.dumps([emit_report(run_pipeline(load_run_config({**base, **r})))
                  for r in requests]))
"""

REQUESTS = [{"mode": mode, "q": q} for mode in MODES for q in (0.05, 0.25)]


def test_reports_are_byte_equal_on_a_hit_a_miss_and_in_a_fresh_interpreter():
    cold = []
    for request in REQUESTS:
        pipeline._book.cache_clear()
        cold.append(emit_report(run(**request)))
    pipeline._book.cache_clear()
    warm = [emit_report(run(**request)) for request in REQUESTS]
    assert pipeline._book.cache_info().misses == 1
    assert warm == cold
    src = str(Path(qvar.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-c", FRESH, json.dumps([README_CONFIG, REQUESTS])],
        env={**os.environ, "PYTHONPATH": src}, capture_output=True, text=True,
        timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == cold


def test_cached_arrays_are_read_only_and_unchanged_by_step_4():
    run()
    book = book_of()
    before = {name: array.tobytes() for name, array in cached_arrays(book).items()}
    assert len(before) == 16
    for name, array in cached_arrays(book).items():
        assert not array.flags.writeable, name
    for request in REQUESTS:
        run(**request)
    after = {name: array.tobytes() for name, array in cached_arrays(book_of()).items()}
    assert after == before


@pytest.mark.parametrize("mode", MODES)
def test_tally_is_equal_on_a_hit_and_a_miss(mode):
    miss = run(mode=mode).tally.to_dict()
    misses = pipeline._book.cache_info().misses
    hit = run(mode=mode).tally.to_dict()
    assert pipeline._book.cache_info().misses == misses
    assert hit == miss
    if mode != "classical":
        assert hit["qsvt_degree"] >= 1 and hit["rho_copies"] == 1


@pytest.mark.parametrize("mode", ["quantum_exact", "quantum_sampled"])
def test_a_warm_quantum_request_writes_the_flag_once(monkeypatch, mode):
    # every bisection probe reads its tail mass from the prepared state;
    # only the CVaR overlap applies the comparator
    run(mode=mode)
    writes, flag_write = [], qcore.flag_write

    def counted(*args, **kwargs):
        writes.append(args)
        return flag_write(*args, **kwargs)

    for name, module in list(sys.modules.items()):
        if name.startswith("qvar.") and vars(module).get("flag_write") \
                is flag_write:
            monkeypatch.setattr(module, "flag_write", counted)
    tally = run(mode=mode).tally
    assert len(writes) == 1
    assert tally.bisection_iterations == README_CONFIG["m"]
    assert tally.state_preparation_repetitions == 1 + README_CONFIG["m"]


def test_a_classical_request_builds_no_quantum_half():
    run(mode="classical")
    assert book_of()._quantum is None
    assert qsvt._encoding.cache_info().currsize == 0
    assert qsvt._stepping_svd.cache_info().currsize == 0
    run(mode="quantum_exact")
    assert book_of()._quantum is not None


def test_a_failing_book_raises_the_same_error_each_time(monkeypatch):
    # a book whose surface is zero fails in its classical half: nothing is
    # cached
    for _ in range(2):
        with pytest.raises(qvar.NumericalError, match="identically zero"):
            run(kind="put", strike=0.0)
    assert pipeline._book.cache_info().currsize == 0
    # a post-selection floor above 1 fails Step 1: the classical half stays
    # cached, the quantum half is not kept
    cold = emit_report(run())
    pipeline._book.cache_clear()
    with monkeypatch.context() as patch:
        patch.setattr(qsvt, "SUCCESS_PROB_FLOOR", 2.0)
        for _ in range(2):
            with pytest.raises(qvar.NumericalError, match="floor"):
                run()
        assert book_of()._quantum is None
    assert emit_report(run()) == cold


def test_a_lowered_cap_refuses_a_cached_book(monkeypatch, tmp_path):
    # the README book needs 3 path + 9 price + 6 value + 1 flag = 19 qubits
    run()
    assert pipeline._book.cache_info().currsize == 1
    monkeypatch.setenv("QVAR_QUBIT_CAP", "12")
    with pytest.raises(QubitBudgetError, match="needs 19 qubits"):
        run()
    config = tmp_path / "config.json"
    config.write_text(json.dumps(README_CONFIG))
    for mode in ("classical", "quantum-exact", "quantum-sampled"):
        assert cli.main(["run", "--mode", mode, "--config", str(config),
                         "--output", str(tmp_path / "out.json")]) == 4
    assert pipeline._book.cache_info().currsize == 1
