"""Correctness gate applied to every benchmark request.

Exact modes must reproduce the classical answer (acceptance criterion 7):
the VaR code equals the classical quantile of the coded twin, the CVaR
equals the twin's tail mean to 1e-10, and the gap to the unquantized tail
mean stays within 2^-m (1 + 1/q).  Sampled mode must keep the VaR within
0.25 of the classical VaR, the bound of the sampled pipeline test.
"""

from __future__ import annotations

CVAR_TWIN_TOL = 1e-10
SAMPLED_VAR_TOL = 0.25


def check(result, m: int, q: float) -> list[str]:
    """Names of the checks a PipelineResult fails; empty when it passes."""
    report, dev = result.report, result.deviations
    if report.method == "quantum_sampled":
        gap = abs(report.var_normalized - result.classical.var)
        return [] if gap <= SAMPLED_VAR_TOL else [f"sampled var gap {gap:.3g}"]
    failures = []
    code = report.var_code
    decoded = None if code is None else code / 2 ** (m - 1)  # half-scale code
    if decoded != result.classical.var or decoded != report.var_normalized:
        failures.append(f"var code {code} differs from the classical quantile")
    if dev.get("var_code_matches_classical") is not True:
        failures.append("pipeline reports a var code mismatch")
    if not dev.get("cvar_gap_normalized", float("inf")) <= CVAR_TWIN_TOL:
        failures.append(f"cvar twin gap {dev.get('cvar_gap_normalized')}")
    raw_bound = 2.0**-m * (1 + 1 / q)
    if not dev.get("raw_cvar_gap", float("inf")) <= raw_bound:
        failures.append(f"raw cvar gap {dev.get('raw_cvar_gap')} > {raw_bound:.3g}")
    return failures
