"""Self-check of the benchmark, run from the repository root:

    python3 perfbench/selfcheck.py

1. BENCHMARK.json has the required shape, and benchmark_notes.json maps
   every per-layer metric to the end-to-end metric it should move.
2. On the README example config the gate passes a correct answer and
   counts a deliberately wrong VaR code as a failed request.
3. run.py on the README config prints every end-to-end metric (--trace 0)
   and every per-layer metric (--trace 1) by name with its unit, and the
   last line is the result object.
4. In a directory holding only BENCHMARK.json and the benchmark's files,
   run.py exits non-zero without printing a result.

Exits 0 when every check passes and prints the failures otherwise.
"""

import dataclasses
import json
import re
import shutil
import subprocess
import sys
import types
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def check_spec(spec: dict, notes: dict) -> list[str]:
    errors = []
    keys = {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    if set(spec) != keys:
        errors.append(f"BENCHMARK.json keys {sorted(spec)}")
    names = [w["name"] for w in spec["workloads"]]
    names += [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    errors += [f"bad or repeated name {n!r}" for n in names
               if not NAME.match(n) or names.count(n) > 1]
    for m in spec["end_to_end"] + spec["per_layer"]:
        if not UNIT.match(m["unit"]) or m["better"] not in ("lower", "higher"):
            errors.append(f"bad unit or direction on {m['name']}")
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    if any(not 0 < b <= 0.25 for b in bounds.values()):
        errors.append(f"bounds outside (0, 0.25]: {bounds}")
    if bounds.get("setup_s") != max(bounds.values()):
        errors.append("setup_s must carry the largest bound")
    unmapped = {m["name"] for m in spec["per_layer"]} - set(notes["layer_map"])
    if unmapped:
        errors.append(f"per-layer metrics missing from the layer map: {sorted(unmapped)}")
    return errors


def check_gate() -> list[str]:
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))
    import qvar
    from gate import check
    from run import Client
    from workloads import WORKLOADS

    doc = WORKLOADS["readme_default"].requests(0)[0]
    result = qvar.run_pipeline(qvar.load_run_config(doc))
    errors = [f"README config fails the gate: {f}"
              for f in check(result, doc["m"], doc["q"])]
    code = result.report.var_code + 1
    wrong = dataclasses.replace(result, report=dataclasses.replace(
        result.report, var_code=code, var_normalized=code / 2 ** (doc["m"] - 1)))
    fake = types.SimpleNamespace(
        run_pipeline=lambda config: wrong, load_run_config=qvar.load_run_config,
        emit_report=qvar.emit_report, QvarError=qvar.QvarError)
    client = Client(fake, check)
    client.send(0, doc)
    if len(client.failures) != 1 or client.attempted != 1:
        errors.append(f"a wrong VaR code was not counted: {client.failures}")
    return errors


def run_bench(cwd: Path, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "readme_default",
         "--seed", "1", "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=170)


def check_output(spec: dict) -> list[str]:
    errors = []
    for trace, group in ((0, "end_to_end"), (1, "per_layer")):
        proc = run_bench(ROOT, trace)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            errors.append(f"trace {trace}: exit {proc.returncode}: {proc.stderr[-500:]}")
            continue
        result = json.loads(lines[-1])
        if set(result) != RESULT_KEYS or not result["correct"] or result["failed"]:
            errors.append(f"trace {trace}: result {lines[-1][:200]}")
        wanted = {m["name"]: m["unit"] for m in spec[group]}
        got = {k: v["unit"] for k, v in result["metrics"].items()}
        if got != wanted:
            errors.append(f"trace {trace}: metrics {got} != {wanted}")
        for name, unit in wanted.items():
            if not any(line.split()[:1] == [name] and line.split()[-1] == unit
                       for line in lines[:-1]):
                errors.append(f"trace {trace}: {name} not printed with unit {unit}")
    return errors


def check_bare() -> list[str]:
    bare = HERE / "out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    (bare / "perfbench").mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    for path in HERE.glob("*.py"):
        shutil.copy(path, bare / "perfbench")
    shutil.copy(HERE / "benchmark_notes.json", bare / "perfbench")
    proc = run_bench(bare, 0)
    shutil.rmtree(bare)
    printed = proc.stdout.strip().splitlines()
    if proc.returncode == 0 or (printed and printed[-1].startswith("{")):
        return [f"bare directory: exit {proc.returncode}, stdout {proc.stdout[-200:]!r}"]
    return []


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    notes = json.loads((HERE / "benchmark_notes.json").read_text())
    errors = check_spec(spec, notes) + check_gate() + check_output(spec) + check_bare()
    for error in errors:
        print(f"FAIL {error}")
    print("selfcheck: " + ("failed" if errors else "ok"))
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
