"""Guard: every function defined in ``src/qvar`` is reached by the CLI.

A fresh interpreter runs every CLI subcommand on the README config under
``sys.setprofile`` and records the code object of every Python call.  Each
function, method, property and nested function of the ``qvar`` modules
must be among them, unless ``ALLOWED`` names it with a reason.  Code that
only the tests reach belongs in ``tests/reference.py``.

Calls are matched on code objects, not on line numbers: a decorated
function reports its decorator's line.  Comprehensions are expressions,
not functions, and are not counted.
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

# unreached on purpose: qualified name -> reason
ALLOWED = {}

SURVEY = """
import inspect, json, sys, types

called = set()

def hook(frame, event, arg):
    if event == "call":
        called.add(frame.f_code)

path, out = sys.argv[1], sys.argv[2]
sys.setprofile(hook)
from qvar import cli
runs = [["price", "--style", "european"], ["price", "--style", "american"],
        ["simulate"], ["verify-be"], ["verify-qsvt"],
        ["assemble", "--mode", "exact"], ["assemble", "--mode", "trotter"]]
runs += [[command, "--mode", mode] for command in ("run", "var", "cvar")
         for mode in ("classical", "quantum-exact", "quantum-sampled")]
for argv in runs:
    assert cli.main(argv + ["--config", path, "--output", out]) == 0, argv
assert cli.main(["nogo", "--output", out]) == 0
sys.setprofile(None)

COMPREHENSIONS = {"<listcomp>", "<setcomp>", "<dictcomp>", "<genexpr>"}

def nested(code):
    if code.co_name in COMPREHENSIONS:
        return
    yield code
    for const in code.co_consts:
        if isinstance(const, types.CodeType):
            yield from nested(const)

def code_objects(obj):
    if isinstance(obj, property):
        for fn in (obj.fget, obj.fset, obj.fdel):
            if fn is not None:
                yield from code_objects(fn)
    elif isinstance(obj, (staticmethod, classmethod)):
        yield from code_objects(obj.__func__)
    elif callable(obj):
        fn = inspect.unwrap(obj)  # functools caches keep the function here
        if isinstance(fn, types.FunctionType):
            yield from nested(fn.__code__)

root = sys.modules["qvar"].__path__[0]
defined = {}
for name, mod in list(sys.modules.items()):
    if name != "qvar" and not name.startswith("qvar."):
        continue
    for obj in vars(mod).values():
        if getattr(obj, "__module__", None) != name:
            continue  # imported from elsewhere
        for member in vars(obj).values() if isinstance(obj, type) else [obj]:
            for code in code_objects(member):
                if code.co_filename.startswith(root):
                    defined[code] = name.removeprefix("qvar.") + "." + code.co_qualname
print(json.dumps({"defined": len(defined),
                  "unreached": sorted(v for k, v in defined.items()
                                      if k not in called)}))
"""


def test_every_src_function_is_reached_by_the_cli(tmp_path):
    config = tmp_path / "config.json"
    config.write_text(json.dumps(README_CONFIG))
    src = str(Path(qvar.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-c", SURVEY, str(config), str(tmp_path / "out.txt")],
        env={**os.environ, "PYTHONPATH": src}, capture_output=True, text=True,
        timeout=300)
    assert proc.returncode == 0, proc.stderr
    survey = json.loads(proc.stdout)
    assert survey["defined"] > 100  # the walk found the package
    assert survey["unreached"] == sorted(ALLOWED)
