"""The north star as a property over legal configs: a quantum-exact request
reproduces the classical oracle's VaR code with a Stage-1 state within eps1
of the classical one, or it ends in a documented exit code.

The configs span what a user may write: price grids from just above s0 to
4 s0, uniform or geometric, 3 to 6 grid qubits, 1 to 16 pricing steps,
6 to 10 value bits, 8 to 256 scenarios and any level in (0, 1).  Narrow
grids are where the stepping matrix is furthest from normal, so they check
that Stage 1 prepares (I + M)^(-T) payoff and not a transform that only
agrees with it on wide grids.
"""

import contextlib
import io
import json
import tempfile
from pathlib import Path

import pytest
from hypothesis import HealthCheck, event, given, settings, strategies as st

from qvar.cli import main

STEP = 1 / 4096
MARKET = {"r": 0.02, "mu": 0.05, "alpha": 0.2, "dtau": STEP, "t_bar": 8 * STEP,
          "kind": "call"}
EPS1 = 1e-3
QUBIT_CAP = "40"  # high enough that most draws run rather than exit 4
DOCUMENTED = (2, 3, 4)


@st.composite
def configs(draw) -> dict:
    s0 = draw(st.floats(0.5, 2.0))
    spacing = draw(st.sampled_from(["uniform", "geometric"]))
    # geometric grids need s_min > 0
    s_min = 0.0 if spacing == "uniform" else s0 * draw(st.floats(0.05, 0.9))
    steps = draw(st.integers(1, 16))
    return {**MARKET, "T": MARKET["t_bar"] + steps * STEP,
            "strike": s0 * draw(st.floats(0.8, 1.2)), "s0": s0,
            "s_min": s_min,
            "s_max": s0 * draw(st.floats(1.0, 4.0, exclude_min=True)),
            "spacing": spacing, "n": draw(st.integers(3, 6)),
            "m": draw(st.integers(6, 10)), "L": 2 ** draw(st.integers(3, 8)),
            "q": draw(st.floats(0.0, 1.0, exclude_min=True, exclude_max=True)),
            "seed": draw(st.integers(0, 2**31 - 1)), "eps1": EPS1}


def _run(doc: dict, mode: str, folder: Path):
    """``qvar run`` in ``mode``: its exit code and, on 0, its report."""
    config, out = folder / "config.json", folder / f"{mode}.json"
    config.write_text(json.dumps(doc))
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = main(["run", "--mode", mode, "--config", str(config),
                     "--output", str(out)])
    assert "Traceback" not in err.getvalue()
    return code, json.loads(out.read_text()) if code == 0 else None


@settings(max_examples=100, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(doc=configs())
def test_quantum_exact_var_code_is_the_classical_one(doc):
    with pytest.MonkeyPatch.context() as patch, \
            tempfile.TemporaryDirectory() as folder:
        patch.setenv("QVAR_QUBIT_CAP", QUBIT_CAP)
        classical_code, classical = _run(doc, "classical", Path(folder))
        quantum_code, quantum = _run(doc, "quantum-exact", Path(folder))
    assert classical_code in (0, *DOCUMENTED)
    assert quantum_code in (0, *DOCUMENTED)
    event(f"quantum-exact exit {quantum_code}")
    if quantum_code in DOCUMENTED:
        return
    assert classical_code == 0
    deviations = quantum["deviations"]
    assert (quantum["report"]["var_normalized"]
            == classical["report"]["var_normalized"])
    assert deviations["var_code_matches_classical"] is True
    assert deviations["step1_l2_distance"] <= EPS1
