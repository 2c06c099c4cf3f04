"""The book memo: Steps 1-3 and the classical oracle's values are built
once per book (``pipeline._book``), and Step 4 runs per request.

A book is what the market, payoff, grid, s0, L, m and eps1 fix; q, mode and
seed only choose what Step 4 reads from it.  A hit must give the bytes a
miss gives, charge the same tally and leave the cached arrays as they were,
also where the book's level tables already hold what the level reads.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import qvar
from qvar import cli, market, pipeline, qcore, qpca, qsvt, risk
from qvar.errors import ConfigError, QubitBudgetError
from qvar.market import build_grid
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
              "twin_values": book.twin_reads.values,
              "raw_values": book.raw_reads.values,
              "twin_sorted": book.twin_reads.ordered,
              "raw_sorted": book.raw_reads.ordered}
    quantum = book._quantum
    if quantum is not None:
        arrays.update({
            "prepared": quantum.prepared.state,
            "encoding_left": quantum.prepared.encoding.left,
            "encoding_right": quantum.prepared.encoding.right,
            "tail_codes": quantum.tail.codes,
            "tail_probs": quantum.tail.probs})
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

# at L = 8, 0.1 reads the empirical CDF step of 0.05 and 0.4 one of its
# own, so a warm request hits the book's level tables or fills them
LEVELS = (0.05, 0.25, 0.1, 0.4)
REQUESTS = [{"mode": mode, "q": q} for mode in MODES for q in LEVELS]


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
    assert len(before) == 11
    for name, array in cached_arrays(book).items():
        assert not array.flags.writeable, name
    tail = book._quantum.tail
    terms = (tail.term_codes, tail.term_real, tail.term_imag)
    assert all(isinstance(column, tuple) for column in terms)
    assert len(tail.term_codes) == README_CONFIG["L"]
    for request in REQUESTS:
        run(**request)
    after = {name: array.tobytes() for name, array in cached_arrays(book_of()).items()}
    assert after == before
    assert (tail.term_codes, tail.term_real, tail.term_imag) == terms


@pytest.mark.parametrize("mode", MODES)
def test_tally_is_equal_on_a_hit_and_a_miss(mode):
    miss = {}
    for q in LEVELS:
        pipeline._book.cache_clear()
        miss[q] = run(mode=mode, q=q).tally.to_dict()
    for q in LEVELS:
        hit = run(mode=mode, q=q).tally.to_dict()
        assert hit == miss[q], q
        if mode != "classical":
            assert hit["qsvt_degree"] >= 1 and hit["rho_copies"] == 1
    assert pipeline._book.cache_info().misses == 1


def test_an_exact_var_hit_charges_a_miss_tally(monkeypatch):
    # the README book's tail masses are multiples of 1/8, so 0.1 reads the
    # VaR 0.05 reads off the level masses: no bisection runs, and the tally
    # and report are a cold request's at 0.1
    pipeline._book.cache_clear()
    cold = run(q=0.1)
    pipeline._book.cache_clear()
    searches, bisection_var = [], risk.bisection_var

    def counted(*args, **kwargs):
        searches.append(args)
        return bisection_var(*args, **kwargs)

    monkeypatch.setattr(pipeline, "bisection_var", counted)
    first = run(q=0.05)
    warm = run(q=0.1)
    assert searches == []
    assert warm.tally == cold.tally
    assert emit_report(warm) == emit_report(cold)
    assert warm.report.var_code == first.report.var_code
    assert warm.tally.bisection_iterations == README_CONFIG["m"]


def test_a_warm_request_at_a_read_level_sums_no_tail_mass(monkeypatch):
    # each tail mass is summed once per step of the book's tail table, so a
    # warm exact request at a level already read finds every probe's mass
    # and the CVaR's there.  The README book's tail masses are multiples of
    # 1/8, so 0.1 probes the thresholds 0.05 probes
    sums, bincount = [], np.bincount

    def counted(*args, **kwargs):
        sums.append(args)
        return bincount(*args, **kwargs)

    monkeypatch.setattr(risk.np, "bincount", counted)
    cold = emit_report(run())
    assert 0 < len(sums) <= README_CONFIG["m"] + 1
    tail = book_of()._quantum.tail
    assert len(tail.masses) == len(sums) <= len(tail.levels) + 1
    sums.clear()
    assert emit_report(run()) == cold
    assert run(q=0.1).tally.bisection_iterations == README_CONFIG["m"]
    assert sums == []


@pytest.mark.parametrize("mode", ["quantum_exact", "quantum_sampled"])
def test_a_warm_quantum_request_writes_the_flag_once(monkeypatch, mode):
    # the flag is written once per book: the comparator at the top code
    # when the cold request builds the tail table, for the CVaR overlap's
    # terms; every request's probes and overlap read that table
    writes, flag_write = [], qcore.flag_write

    def counted(*args, **kwargs):
        writes.append(args)
        return flag_write(*args, **kwargs)

    for name, module in list(sys.modules.items()):
        if name.startswith("qvar.") and vars(module).get("flag_write") \
                is flag_write:
            monkeypatch.setattr(module, "flag_write", counted)
    for built in (1, 0):  # cold, then warm
        writes.clear()
        tally = run(mode=mode).tally
        assert len(writes) == built
        assert tally.bisection_iterations == README_CONFIG["m"]
        assert tally.state_preparation_repetitions == 1 + README_CONFIG["m"]


def test_a_classical_request_builds_no_quantum_half():
    run(mode="classical")
    assert book_of()._quantum is None
    assert qsvt._encoding.cache_info().currsize == 0
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


def test_a_lowered_cap_refuses_a_warm_grid(monkeypatch, tmp_path):
    # the README grid has n = 4 qubits; the cap check runs on every call,
    # memoised grid or not
    run()
    assert market._grid.cache_info().currsize == 1
    monkeypatch.setenv("QVAR_QUBIT_CAP", "3")
    for _ in range(2):
        with pytest.raises(QubitBudgetError, match="grid register of 4"):
            run()
    config = tmp_path / "config.json"
    config.write_text(json.dumps(README_CONFIG))
    assert cli.main(["run", "--config", str(config),
                     "--output", str(tmp_path / "out.json")]) == 4
    assert market._grid.cache_info().currsize == 1


def test_a_colliding_grid_raises_the_same_error_on_every_call():
    # 64 nodes on [0, 4] are 1/16 apart, so m = 2 rounds some onto one code
    messages = []
    for _ in range(3):
        with pytest.raises(ConfigError, match="collide") as err:
            load_run_config({**README_CONFIG, "n": 6, "m": 2}).check_budget()
        messages.append(str(err.value))
    assert len(set(messages)) == 1
    assert qpca._grid_codes.cache_info().currsize == 0


def test_a_negative_zero_s_min_keeps_its_own_nodes():
    # the grid memo keys on bit patterns, so -0.0 is built apart from 0.0
    # and gets the nodes of its own unmemoised build; np.linspace adds
    # s_min to 0 * step, so those bytes equal 0.0's, and the books, keyed
    # on node bytes, are shared as they are without the memo
    bounds = (-0.0, 0.0)
    grids = [build_grid(s_min, 4.0, 4) for s_min in bounds]
    assert grids[0] is not grids[1]
    assert market._grid.cache_info().currsize == 2
    for s_min, grid in zip(bounds, grids):
        assert grid.nodes.tobytes() == np.linspace(s_min, 4.0, 16).tobytes()
    reports = [emit_report(run(s_min=s_min)) for s_min in bounds]
    distinct = {grid.nodes.tobytes() for grid in grids}
    assert pipeline._book.cache_info().currsize == len(distinct)
    pipeline._book.cache_clear()
    assert [emit_report(run(s_min=s_min)) for s_min in bounds[::-1]] == \
        reports[::-1]


def test_memoised_nodes_and_codes_are_read_only():
    grid = build_grid(0.0, 4.0, 4)
    codes = qpca.grid_codes(grid, 6)
    assert build_grid(0.0, 4.0, 4) is grid
    assert qpca.grid_codes(build_grid(0.0, 4.0, 4), 6) is codes
    for array in (grid.nodes, codes):
        assert not array.flags.writeable
        with pytest.raises(ValueError):
            array[0] = 1
