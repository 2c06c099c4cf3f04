"""SciPy is loaded on first use only, and the process-wide tables are
built on first use only.

Importing qvar, budget-checking a config, a classical run and the CLI
commands that never fit a polynomial must leave ``scipy`` unimported; the
first cold Stage-1 fit loads SciPy's HiGHS extension module and not the
``scipy.optimize`` package, and a later ``import scipy.optimize`` finds
that same extension module.  Only a sampled run imports ``numpy.random``.  Importing qvar and budget-checking a config
must also leave the amplitude-estimation maxima, the Stage-1 memos (fits,
programs and operator SVDs) and the book memo empty, so that start-up does
none of a request's work.
Each check runs in a fresh interpreter, because the test process itself
has loaded SciPy and filled the tables.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import qvar

README_CONFIG = {
    "r": 0.02, "mu": 0.05, "alpha": 0.2,
    "T": 0.00390625, "t_bar": 0.001953125, "dtau": 0.000244140625,
    "kind": "call", "strike": 1.0,
    "s_min": 0.0, "s_max": 4.0, "n": 4, "spacing": "uniform",
    "s0": 1.0, "L": 8, "m": 6, "q": 0.05,
    "mode": "quantum_exact", "seed": 11,
}

# prints one JSON line per step: the step and the scipy modules and
# numpy.random, if loaded, after it
STEPS = """
import json, sys

def loaded(step):
    mods = sorted(m for m in sys.modules
                  if m in ("scipy", "numpy.random") or m.startswith("scipy."))
    print(json.dumps([step, mods]), flush=True)

import qvar
loaded("import qvar")
from qvar import cli, load_run_config, run_pipeline
path, out = sys.argv[1], sys.argv[2]
with open(path) as fh:
    doc = json.load(fh)
load_run_config(doc).check_budget()
loaded("check_budget")
run_pipeline(load_run_config({**doc, "mode": "classical"}))
loaded("classical run_pipeline")
for argv in (["price"], ["simulate"], ["verify-be"], ["run", "--mode", "classical"],
             ["var", "--mode", "classical"], ["cvar", "--mode", "classical"]):
    assert cli.main(argv + ["--config", path, "--output", out]) == 0, argv
    loaded(" ".join(argv))
assert cli.main(["nogo", "--max-d", "8", "--output", out]) == 0
loaded("nogo")
run_pipeline(load_run_config(doc))
loaded("quantum_exact run_pipeline")
run_pipeline(load_run_config({**doc, "mode": "quantum_sampled"}))
loaded("quantum_sampled run_pipeline")
"""


def test_scipy_loaded_only_by_a_cold_stage1_fit(tmp_path):
    config = tmp_path / "config.json"
    config.write_text(json.dumps(README_CONFIG))
    src = str(Path(qvar.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-c", STEPS, str(config), str(tmp_path / "out.txt")],
        env={**os.environ, "PYTHONPATH": src}, capture_output=True, text=True,
        timeout=300)
    assert proc.returncode == 0, proc.stderr
    steps = [json.loads(line) for line in proc.stdout.splitlines()]
    assert [step for step, _ in steps] == [
        "import qvar", "check_budget", "classical run_pipeline", "price",
        "simulate", "verify-be", "run --mode classical", "var --mode classical",
        "cvar --mode classical", "nogo", "quantum_exact run_pipeline",
        "quantum_sampled run_pipeline"]
    for step, mods in steps[:-2]:
        assert mods == [], step
    exact, sampled = steps[-2][1], steps[-1][1]
    assert "scipy.optimize._highspy._core" in exact
    assert "scipy.optimize" not in exact
    assert "scipy.optimize._highspy" not in exact
    # exact mode never draws, so only the sampled run imports numpy.random
    assert "numpy.random" not in exact
    assert sorted(set(sampled) - set(exact)) == ["numpy.random"]


# a cold sampled fit, then the package import that tests/reference.py makes
OPTIMIZE_AFTER_FIT = """
import json, sys
import numpy as np
from qvar import load_run_config, qsvt, run_pipeline
with open(sys.argv[1]) as fh:
    run_pipeline(load_run_config(json.load(fh)))
assert "scipy.optimize" not in sys.modules
core = sys.modules["scipy.optimize._highspy._core"]
import scipy.optimize
import scipy.optimize._highspy._core as imported
assert imported is core and qsvt.highs_core() is core
res = scipy.optimize.linprog([1.0, 2.0], A_ub=[[-1.0, -1.0]], b_ub=[-1.0])
assert res.status == 0 and np.allclose(res.x, [1.0, 0.0]), res
print("ok")
"""


def test_scipy_optimize_imported_after_a_cold_fit_shares_the_extension(tmp_path):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({**README_CONFIG, "mode": "quantum_sampled"}))
    src = str(Path(qvar.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-c", OPTIMIZE_AFTER_FIT, str(config)],
        env={**os.environ, "PYTHONPATH": src}, capture_output=True, text=True,
        timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["ok"]


# prints the size of every process-wide table after import and budget check
CACHES_AFTER_BUDGET = """
import json, sys
from qvar import load_run_config, pipeline, qsvt, risk
with open(sys.argv[1]) as fh:
    load_run_config(json.load(fh)).check_budget()
caches = {"risk._subblock_maxima": risk._subblock_maxima,
          "risk._block_maxima": risk._block_maxima,
          "qsvt._ladder_fits": qsvt._ladder_fits,
          "qsvt._fit_certificate": qsvt._fit_certificate,
          "qsvt._phase_factors": qsvt._phase_factors,
          "qsvt._encoding": qsvt._encoding,
          "qsvt._value_block": qsvt._value_block,
          "qsvt._sigma_min": qsvt._sigma_min,
          "qsvt._stepping_svd": qsvt._stepping_svd,
          "pipeline._book": pipeline._book}
print(json.dumps({name: cache.cache_info().currsize
                  for name, cache in caches.items()}))
"""


def test_import_and_budget_check_build_no_tables(tmp_path):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({**README_CONFIG, "mode": "quantum_sampled"}))
    src = str(Path(qvar.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-c", CACHES_AFTER_BUDGET, str(config)],
        env={**os.environ, "PYTHONPATH": src}, capture_output=True, text=True,
        timeout=300)
    assert proc.returncode == 0, proc.stderr
    sizes = json.loads(proc.stdout)
    assert len(sizes) == 10
    assert all(size == 0 for size in sizes.values()), sizes
