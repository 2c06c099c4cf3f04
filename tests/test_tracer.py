"""Guard for the benchmark's trace mode.

``perfbench/tracer.py`` wraps qvar functions by module and attribute name,
so renaming, moving or deleting one of them breaks ``--trace 1`` without
failing any other test.  The tracer is imported from its file, unchanged.
"""

import importlib.util
import sys
from pathlib import Path

import qvar
from qvar.pipeline import load_run_config

TRACER_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"

# the README example config, classical mode
README_CONFIG = {
    "r": 0.02, "mu": 0.05, "alpha": 0.2,
    "T": 0.00390625, "t_bar": 0.001953125, "dtau": 0.000244140625,
    "kind": "call", "strike": 1.0,
    "s_min": 0.0, "s_max": 4.0, "n": 4, "spacing": "uniform",
    "s0": 1.0, "L": 8, "m": 6, "q": 0.05,
    "mode": "classical", "seed": 11,
}


def load_tracer(monkeypatch):
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    # its dataclasses resolve their annotations through sys.modules
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module


def resolve(target):
    mod_name, attr = target
    obj = sys.modules[f"qvar.{mod_name}"]
    for part in attr.split("."):
        obj = getattr(obj, part)
    return obj


def bindings(targets):
    """Every attribute of every qvar module, plus each wrapped method as
    its class holds it."""
    out = {}
    for name, mod in list(sys.modules.items()):
        if name == "qvar" or name.startswith("qvar."):
            for key, value in vars(mod).items():
                out[(name, key)] = value
    for mod_name, attr in targets:
        if "." in attr:
            cls_name, meth = attr.split(".")
            cls = getattr(sys.modules[f"qvar.{mod_name}"], cls_name)
            out[(cls, meth)] = vars(cls)[meth]
    return out


def test_tracer_wraps_every_target_and_restores_every_binding(monkeypatch):
    tracer_mod = load_tracer(monkeypatch)
    for target in tracer_mod.TARGETS:
        assert callable(resolve(target)), target

    before = bindings(tracer_mod.TARGETS)
    original = qvar.qpca.reduced_rho
    config = load_run_config(dict(README_CONFIG))
    tracer = tracer_mod.Tracer()
    tracer.install()
    try:
        assert qvar.qpca.reduced_rho is not original
        assert qvar.pipeline.reduced_rho is qvar.qpca.reduced_rho
        tracer.begin_request(0)
        qvar.pipeline.run_pipeline(config)
    finally:
        tracer.uninstall()

    names = {span.name for span in tracer.spans}
    assert "qpca.reduced_rho" in names
    assert "pipeline.run_pipeline" in names
    # a classical request builds no StateVector: its value state is a plain
    # vector over the grid
    assert tracer.values[0]["qcore.state_bytes_max"] == 0
    after = bindings(tracer_mod.TARGETS)
    assert after.keys() == before.keys()
    changed = [key for key in before if after[key] is not before[key]]
    assert changed == []


def test_tracer_counts_lazy_solver_calls_on_a_cold_request(monkeypatch):
    # the autouse fixture has emptied the Stage-1 caches, so this request fits
    tracer_mod = load_tracer(monkeypatch)
    lazy = {name: getattr(qvar.qsvt, name) for name in ("linprog", "least_squares")}
    config = load_run_config(dict(README_CONFIG, mode="quantum_exact"))
    tracer = tracer_mod.Tracer()
    tracer.install()
    try:
        assert all(getattr(qvar.qsvt, name) is not fn for name, fn in lazy.items())
        tracer.begin_request(0)
        qvar.pipeline.run_pipeline(config)
    finally:
        tracer.uninstall()

    names = [span.name for span in tracer.spans]
    assert names.count("qsvt.linprog") >= 1
    # the largest traced state holds one complex amplitude per scenario
    # branch, not 2^q of them
    assert tracer.values[0]["qcore.state_bytes_max"] == 16 * README_CONFIG["L"]
    assert all(getattr(qvar.qsvt, name) is fn for name, fn in lazy.items())


def test_tracer_spans_every_step_of_a_cold_quantum_march(monkeypatch):
    # the autouse fixture has emptied the Stage-1 caches, so the request
    # compiles Stage 1 and marches its payoff through the circuit
    tracer_mod = load_tracer(monkeypatch)
    before = bindings(tracer_mod.TARGETS)
    config = load_run_config(dict(README_CONFIG, mode="quantum_exact"))
    tracer = tracer_mod.Tracer()
    tracer.install()
    try:
        assert qvar.qsvt.apply_qsvt is not before[("qvar.qsvt", "apply_qsvt")]
        tracer.begin_request(0)
        qvar.pipeline.run_pipeline(config)
    finally:
        tracer.uninstall()

    steps = round((README_CONFIG["T"] - README_CONFIG["t_bar"]) / README_CONFIG["dtau"])
    names = [span.name for span in tracer.spans]
    assert names.count("qsvt.prepare_value_state") == 1
    assert names.count("qsvt.apply_qsvt") == steps == 8
    # each step applies the circuit to one real column of 2^n amplitudes,
    # with no 2^n-square block and no dense U_Phi
    assert tracer.values[0]["qsvt.unitary_bytes"] == 8 * 2 ** README_CONFIG["n"]
    after = bindings(tracer_mod.TARGETS)
    assert after.keys() == before.keys()
    assert [key for key in before if after[key] is not before[key]] == []
