"""Closed-loop benchmark of qvar's VaR/CVaR request path.

    python3 perfbench/run.py --workload deep_horizon --seed 1 --seconds 25 --trace 0

One client in this process sends ``run_pipeline(load_run_config(doc))``
requests back to back for ``--seconds`` (at least MIN_REQUESTS of them),
checks every answer, re-runs the first request in a fresh interpreter to
confirm its report is byte-identical (that process's peak RSS is
peak_rss_mb), and prints the metrics named in BENCHMARK.json.  With
``--trace 0`` they are the end-to-end metrics, measured with no
instrumentation installed; with ``--trace 1`` each request is run once
plain and once with spans around every layer boundary (see tracer.py), and
the per-layer metrics are printed.  The last line of standard output is
one JSON object: {"correct", "attempted", "failed", "metrics"}.

Run from the repository root.  Generated requests, the environment and the
spans are written to perfbench/out/<workload>-seed<seed>-trace<t>/.
"""

import os
import sys

# pinned before numpy loads: an unpinned BLAS pool moves report_s
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

from gate import check  # noqa: E402
from tracer import OBSERVED, TARGETS, Tracer, request_stats  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

MIN_REQUESTS = 3  # counts are medians over this prefix, which every run completes
SETUP_REPEATS = 5

SETUP_CODE = """
import json, sys
sys.path.insert(0, sys.argv[1])
from qvar import load_run_config
with open(sys.argv[2]) as fh:
    for doc in json.load(fh):
        load_run_config(doc).check_budget()
"""


# VmHWM, not ru_maxrss: the latter also counts the parent's pages the child
# shared before exec
RERUN_CODE = """
import json, sys
sys.path.insert(0, sys.argv[1])
from qvar import emit_report, load_run_config, run_pipeline
report = emit_report(run_pipeline(load_run_config(json.load(sys.stdin))))
with open("/proc/self/status") as fh:
    hwm = [line.split()[1] for line in fh if line.startswith("VmHWM:")]
json.dump({"report": report, "maxrss_kb": int(hwm[0])}, sys.stdout)
"""


class BenchError(Exception):
    """The benchmark cannot run here; no result is printed."""


def load_spec() -> dict:
    try:
        with open(ROOT / "BENCHMARK.json") as fh:
            return json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise BenchError(f"cannot read BENCHMARK.json: {exc}") from exc


def import_qvar():
    if "QVAR_QUBIT_CAP" in os.environ:
        raise BenchError("QVAR_QUBIT_CAP is set; wide_book is sized at the "
                         "default cap of 24 qubits, unset it")
    if not (SRC / "qvar" / "__init__.py").is_file():
        raise BenchError(f"no qvar sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import qvar
    return qvar


def environment() -> dict:
    import numpy
    import scipy
    try:
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10,
            env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)})
        git_sha = sha.stdout.strip() if sha.returncode == 0 else "unknown"
    except (OSError, subprocess.TimeoutExpired):
        git_sha = "unknown"
    mem_bytes = os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")
    return {"git_sha": git_sha, "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "nproc": len(os.sched_getaffinity(0)), "mem_total_mb": mem_bytes // 2**20,
            "blas_threads": BLAS_THREADS}


def measure_setup(configs_path: Path) -> float:
    """Median wall time of a fresh interpreter importing qvar and loading
    and budget-checking every generated config."""
    times = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        # no timeout: with one, the wait polls and rounds up to 50 ms steps
        subprocess.run([sys.executable, "-c", SETUP_CODE, str(SRC), str(configs_path)],
                       check=True, stdout=subprocess.DEVNULL)
        times.append(time.perf_counter() - start)
    return statistics.median(times)


class Client:
    """Sends one request at a time and applies the correctness gate."""

    def __init__(self, qvar, gate_check):
        self.qvar = qvar
        self.gate_check = gate_check
        self.attempted = 0
        self.failures: list[dict] = []
        self.first_reports: dict[int, str | None] = {}

    def send(self, k: int, doc: dict) -> float:
        """Run request k and return its wall seconds."""
        self.attempted += 1
        start = time.perf_counter()
        try:
            result = self.qvar.run_pipeline(self.qvar.load_run_config(doc))
        except self.qvar.QvarError as exc:
            self.failures.append({"request": k, "error": repr(exc)})
            self.first_reports.setdefault(k, None)
            return time.perf_counter() - start
        elapsed = time.perf_counter() - start
        failed = self.gate_check(result, int(doc["m"]), float(doc["q"]))
        if failed:
            self.failures.append({"request": k, "checks": failed})
        self.first_reports.setdefault(k, self.qvar.emit_report(result))
        return elapsed

    def rerun(self, doc: dict) -> int:
        """Criterion 10: request 0, re-run in a fresh interpreter, gives a
        byte-identical report.  Returns that process's peak RSS in KiB."""
        self.attempted += 1
        # a fixed mmap threshold turns off glibc's adaptive one, under which
        # the same request peaked 6% higher in about one start in four
        env = {**os.environ, "MALLOC_MMAP_THRESHOLD_": str(128 * 1024)}
        proc = subprocess.run([sys.executable, "-c", RERUN_CODE, str(SRC)],
                              input=json.dumps(doc), capture_output=True,
                              text=True, timeout=150, env=env)
        if proc.returncode != 0:
            self.failures.append({"request": "rerun", "error": proc.stderr[-2000:]})
            return 0
        out = json.loads(proc.stdout)
        if out["report"] != self.first_reports.get(0):
            self.failures.append({"request": "rerun", "checks": ["report differs"]})
        return out["maxrss_kb"]


def closed_loop(docs: list[dict], seconds: float, step) -> int:
    """Call step(k, doc) back to back, starting the next call only while one
    as long as the last still ends within ``seconds``, and at least
    MIN_REQUESTS times; returns the number of calls."""
    start = time.perf_counter()
    k, last = 0, 0.0
    while k < MIN_REQUESTS or time.perf_counter() - start + last <= seconds:
        began = time.perf_counter()
        step(k, docs[k % len(docs)])
        last = time.perf_counter() - began
        k += 1
    return k


def untraced_metrics(client: Client, docs, seconds: float) -> tuple[dict, dict]:
    times = []
    closed_loop(docs, seconds, lambda k, doc: times.append(client.send(k, doc)))
    main_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return ({"report_s": statistics.median(times)},
            {"request_s": times, "main_process_peak_rss_mb": main_kb / 1024})


def is_timing(name: str) -> bool:
    return name.endswith((".s", "_s"))


def traced_metrics(client: Client, docs, seconds: float, names: list[str],
                   out_dir: Path) -> tuple[dict, dict]:
    known = ({f"{mod}.{attr}.{suffix}" for mod, attr in TARGETS
              for suffix in ("s", "self_s", "calls")}
             | {metric for pairs in OBSERVED.values() for metric, _ in pairs}
             | {"qcore.state_bytes_max", "trace_overhead_s", "qsvt.fit_accept_ratio"})
    unknown = [n for n in names if n not in known]
    if unknown:
        raise BenchError(f"BENCHMARK.json names metrics the tracer cannot "
                         f"produce: {unknown}")
    tracer = Tracer()
    plain, per_request = [], []

    def step(k, doc):
        elapsed = client.send(k, doc)
        plain.append(elapsed)
        tracer.begin_request(k)
        tracer.install()
        try:
            traced = client.send(k, doc)
        finally:
            tracer.uninstall()
        stats = request_stats([s for s in tracer.spans if s.request == k])
        stats.update(tracer.values[k])
        stats["trace_overhead_s"] = traced - elapsed
        lp = stats.get("qsvt.linprog.calls", 0)
        stats["qsvt.fit_accept_ratio"] = 1.0 / lp if lp else 0.0
        per_request.append(stats)

    sent = closed_loop(docs, seconds, step)

    def median_of(name: str) -> float:
        # timings vary run to run, so they take every request; counts and
        # certificates are exact, so they take the prefix every run completes
        rows = per_request if is_timing(name) else per_request[:MIN_REQUESTS]
        return statistics.median(r.get(name, 0) for r in rows)

    metrics = {name: median_of(name) for name in names}
    detail = {"requests": sent, "plain_s": plain, "per_request": per_request,
              "bottleneck": bottleneck(median_of)}
    tracer.write_spans(out_dir / "spans.jsonl")
    return metrics, detail


STAGE_LAYERS = ("pde", "mc", "qpca", "blockenc", "qsvt", "risk")


def bottleneck(median_of) -> dict:
    """The layer shares each workload is chosen for, from the traced run."""
    total = median_of("pipeline.run_pipeline.s")
    layers = {name: median_of(f"layer.{name}.s") for name in STAGE_LAYERS}
    return {
        "fit_and_phases_share": (median_of("qsvt.approximate_target.s")
                                 + median_of("qsvt.solve_phase_factors.s")) / total,
        "largest_layer": max(layers, key=layers.get),
        "layer_s": layers,
        "rho_apply_bisection_share": (median_of("qpca.reduced_rho.s")
                                      + median_of("qsvt.apply_qsvt.s")
                                      + median_of("risk.bisection_var.s")) / total,
    }


def run(args) -> tuple[dict, dict]:
    spec = load_spec()
    qvar = import_qvar()
    docs = WORKLOADS[args.workload].requests(args.seed)
    for doc in docs:
        qvar.load_run_config(doc).check_budget()

    out_dir = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    out_dir.mkdir(parents=True, exist_ok=True)
    configs_path = out_dir / "configs.json"
    configs_path.write_text(json.dumps(docs, indent=1))

    client = Client(qvar, check)
    group = "per_layer" if args.trace else "end_to_end"
    units = {m["name"]: m["unit"] for m in spec[group]}
    if args.trace:
        values, detail = traced_metrics(client, docs, args.seconds, list(units),
                                        out_dir)
        client.rerun(docs[0])
    else:
        setup_s = measure_setup(configs_path)
        values, detail = untraced_metrics(client, docs, args.seconds)
        values["setup_s"] = setup_s
        values["peak_rss_mb"] = client.rerun(docs[0]) / 1024
    missing = [name for name in units if name not in values]
    if missing:
        raise BenchError(f"BENCHMARK.json names metrics this run does not "
                         f"measure: {missing}")
    failed = len(client.failures)
    record = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "seconds": args.seconds, "environment": environment(),
              "attempted": client.attempted, "failures": client.failures,
              "failed_fraction": failed / client.attempted,
              "metrics": values, **detail}
    (out_dir / "result.json").write_text(json.dumps(record, indent=1))
    return {"correct": not client.failures, "attempted": client.attempted,
            "failed": failed,
            "metrics": {name: {"value": values[name], "unit": units[name]}
                        for name in units}}, record


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        result, record = run(args)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    for name, metric in result["metrics"].items():
        print(f"{name:42s} {metric['value']!r:>24} {metric['unit']}")
    print(f"{'failed_fraction':42s} {record['failed_fraction']!r:>24} "
          f"({result['failed']}/{result['attempted']})")
    if args.trace:
        print(f"bottleneck {json.dumps(record['bottleneck'])}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
