"""One cold README-market request in this interpreter, then a cold book
on the warm market: their wall times, the peak RSS and whether each VaR
code equals the classical one.

    PYTHONPATH=src python3 scripts/cold_request.py --n 8 --t-tilde 4 --m 6

"Cold" means the first request after ``import qvar`` and the config load,
so it compiles Stage 1 (encoding, fit and phase solve) and marches the
payoff through its circuit.  The config is the README market with
t_bar = 8 dtau, s_max = 4, strike and s0 = 1, L = 8 and exact mode.  The
second request changes only the strike, to 1.1: a new book, whose payoff
is marched through the circuit the first request compiled.  Prints one
JSON line; exits 1 unless both VaR codes equal the classical ones.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

from qvar import load_run_config, run_pipeline

DTAU = 1 / 4096


def vm_hwm_mb() -> float:
    """This process's peak resident set size (VmHWM), in MB."""
    with open("/proc/self/status") as fh:
        kb = next(int(line.split()[1]) for line in fh if line.startswith("VmHWM:"))
    return kb / 1024


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--n", type=int, required=True, help="grid qubits")
    parser.add_argument("--t-tilde", type=int, required=True, help="pricing steps")
    parser.add_argument("--m", type=int, required=True, help="value bits")
    args = parser.parse_args(argv)
    doc = {"r": 0.02, "mu": 0.05, "alpha": 0.2, "dtau": DTAU,
           "t_bar": 8 * DTAU, "T": (8 + args.t_tilde) * DTAU,
           "kind": "call", "strike": 1.0, "s0": 1.0, "s_min": 0.0,
           "s_max": 4.0, "spacing": "uniform", "n": args.n, "m": args.m,
           "L": 8, "mode": "quantum_exact"}
    walls, results = [], []
    for strike in (1.0, 1.1):
        config = load_run_config({**doc, "strike": strike})
        start = time.perf_counter()
        results.append(run_pipeline(config))
        walls.append(time.perf_counter() - start)
    matches = [r.deviations["var_code_matches_classical"] for r in results]
    print(json.dumps({"n": args.n, "t_tilde": args.t_tilde, "m": args.m,
                      "wall_s": round(walls[0], 3),
                      "warm_market_wall_s": round(walls[1], 3),
                      "vm_hwm_mb": round(vm_hwm_mb(), 1),
                      "degree": results[0].tally.qsvt_degree,
                      "var_codes": [r.report.var_code for r in results],
                      "var_codes_match_classical": matches}))
    return 0 if all(matches) else 1


if __name__ == "__main__":
    sys.exit(main())
