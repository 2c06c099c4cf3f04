"""SciPy, ``numpy.random``, ``numpy.polynomial`` and the hashing modules
are never loaded by the request path, and the process-wide tables are
built on first use only.

Importing qvar, budget-checking a config, every CLI command and every
pipeline mode, cold Stage-1 fits included, must leave ``scipy``
unimported: the Stage-1 LP is solved in NumPy.  No step, the sampled run
included, imports ``numpy.random`` or what it loads, ``secrets``,
``hashlib`` and OpenSSL's ``_hashlib``: sampled mode draws its shot
counts from ``random.Random``.  No step imports ``numpy.polynomial``:
Stage 1 evaluates its Chebyshev series with its own Clenshaw recurrence.
No step imports ``numpy.ma``, which ``np.unique`` loads and which raised
a one-request VmHWM by 0.6 MB: a tail table's distinct codes come from a
``set``.  Only ``assemble --mode trotter``, whose QPE kernels are FFTs,
imports ``numpy.fft``, and it may import ``numpy.ma`` through qpca's
``np.unique``.  Importing qvar and budget-checking a config must also
leave every process-wide memo empty but the config's own parse, grid and
price codes, so that start-up does none of a request's work; the memos
are found, not listed (``memos.process_memos``).
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

# prints one JSON line per step: the scipy and numpy.polynomial modules,
# numpy.random, numpy.fft, numpy.ma, secrets, hashlib and _hashlib, if
# loaded, after it
STEPS = """
import json, sys

def loaded(step):
    mods = sorted(m for m in sys.modules
                  if m in ("scipy", "numpy.random", "numpy.fft", "numpy.ma",
                           "secrets", "hashlib", "_hashlib",
                           "numpy.polynomial")
                  or m.startswith(("scipy.", "numpy.polynomial.")))
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
assert cli.main(["assemble", "--mode", "trotter", "--config", path,
                 "--output", out]) == 0
loaded("assemble --mode trotter")
"""


def test_scipy_loaded_by_no_step(tmp_path):
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
        "quantum_sampled run_pipeline", "assemble --mode trotter"]
    for step, mods in steps:
        assert not [m for m in mods if m == "scipy" or m.startswith("scipy.")], step
    # every run, sampled included, leaves numpy.random, numpy.polynomial,
    # numpy.ma, secrets, hashlib and _hashlib unloaded; the trotter kernels
    # load numpy.fft, and may load numpy.ma through qpca's np.unique
    for step, mods in steps[:-1]:
        assert mods == [], step
    assert steps[-1][1] in (["numpy.fft"], ["numpy.fft", "numpy.ma"])


# prints the size of every process-wide memo after import and budget check
MEMOS_AFTER_BUDGET = """
import json, sys
from memos import process_memos
from qvar import load_run_config
memos = process_memos()
with open(sys.argv[1]) as fh:
    load_run_config(json.load(fh)).check_budget()
print(json.dumps({name: memo.cache_info().currsize
                  for name, memo in memos.items()}))
"""


def test_import_and_budget_check_build_no_tables(tmp_path):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({**README_CONFIG, "mode": "quantum_sampled"}))
    src = str(Path(qvar.__file__).resolve().parents[1])
    path = os.pathsep.join([src, str(Path(__file__).parent)])
    proc = subprocess.run(
        [sys.executable, "-c", MEMOS_AFTER_BUDGET, str(config)],
        env={**os.environ, "PYTHONPATH": path}, capture_output=True, text=True,
        timeout=300)
    assert proc.returncode == 0, proc.stderr
    sizes = json.loads(proc.stdout)
    assert {name: size for name, size in sizes.items() if size} == {
        "market._parse": 1, "market._grid": 1, "qpca._grid_codes": 1}, sizes
