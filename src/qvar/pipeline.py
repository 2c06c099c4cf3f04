"""End-to-end orchestration: the four-stage quantum pipeline next to its
classical twin, with per-quantity deviations and resource accounting."""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, asdict
from functools import cached_property

import numpy as np

from .errors import ConfigError, NumericalError, QubitBudgetError
from .market import (MarketParams, PayoffSpec, PriceGrid, config_int,
                     load_market_config, payoff_vector, qubit_cap,
                     read_config_doc)
from .mc import simulate_paths
from .pde import price_european
from .qcore import RegisterLayout, StateVector
from .qpca import (assemble_portfolio_state, decode_value, grid_codes,
                   price_register_width, snap_paths, value_code_table,
                   reduced_rho)
from .qsvt import prepare_value_state
from .risk import (FLAG, ClassicalRisk, CvarBreakdown, RiskReport,
                   bisection_var, classical_var_cvar, comparator_ucc, cvar,
                   make_reference_state, tail_probability)


@dataclass
class ResourceTally:
    """Exact event counters, monotone during a run."""

    block_encoding_queries: int = 0
    qsvt_degree: int = 0
    rho_copies: int = 0
    state_preparation_repetitions: int = 0
    amplitude_estimation_queries: int = 0
    bisection_iterations: int = 0

    def to_dict(self) -> dict:
        return asdict(self)


@dataclass(frozen=True)
class RunConfig:
    market: MarketParams
    payoff: PayoffSpec
    grid: PriceGrid
    s0: float
    L: int
    m: int
    q: float = 0.05
    mode: str = "quantum_exact"
    seed: int = 7
    eps1: float = 1e-3

    def __post_init__(self):
        if self.mode not in ("classical", "quantum_exact", "quantum_sampled"):
            raise ConfigError(f"mode must be classical, quantum_exact or "
                              f"quantum_sampled, got {self.mode!r}")
        if not 0 < self.q < 1:
            raise ConfigError(f"q must lie in (0, 1), got {self.q}")
        if self.L < 2 or self.L & (self.L - 1):
            raise ConfigError(f"L must be a power of two >= 2, got {self.L}")
        if self.m < 2:
            raise ConfigError(f"m must be >= 2, got {self.m}")
        if not (math.isfinite(self.s0) and self.s0 >= 0):
            raise ConfigError(f"s0 must be finite and non-negative, got {self.s0}")
        if self.seed < 0:
            raise ConfigError(f"seed must be non-negative, got {self.seed}")
        if not (math.isfinite(self.eps1) and self.eps1 > 0):
            raise ConfigError(f"eps1 must be finite and positive, got {self.eps1}")

    @cached_property
    def price_codes(self) -> np.ndarray:
        """The grid's m-bit price codes (``grid_codes``), encoded once per
        request; Steps 2-4 and the budget check read them."""
        return grid_codes(self.grid, self.m)

    def check_budget(self) -> None:
        need = (self.L.bit_length() - 1 + price_register_width(self.price_codes)
                + self.m + 1)
        cap = qubit_cap()
        if need > cap:
            raise QubitBudgetError(
                f"pipeline needs {need} qubits (index + price + value + flag), "
                f"budget is {cap}")


def load_run_config(path_or_dict) -> RunConfig:
    """Config document: market keys plus s0, L, m, q, mode, seed, eps1."""
    doc = read_config_doc(path_or_dict)
    market, payoff, grid = load_market_config(doc)
    try:
        return RunConfig(
            market=market, payoff=payoff, grid=grid,
            s0=float(doc.get("s0", payoff.strike)),
            L=config_int(doc, "L", 8), m=config_int(doc, "m", 6),
            q=float(doc.get("q", 0.05)), mode=doc.get("mode", "quantum_exact"),
            seed=config_int(doc, "seed", 7), eps1=float(doc.get("eps1", 1e-3)))
    except (TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(f"bad config value: {exc}") from exc


@dataclass
class PipelineResult:
    report: RiskReport
    classical: ClassicalRisk
    tally: ResourceTally
    deviations: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "report": self.report.to_dict(),
            "classical": {"var": self.classical.var, "cvar": self.classical.cvar,
                          "p0": self.classical.p0},
            "tally": self.tally.to_dict(),
            "deviations": self.deviations,
        }


def run_pipeline(config: RunConfig) -> PipelineResult:
    """Execute the four stages and the classical oracle, then cross-check."""
    config.check_budget()
    tally = ResourceTally()
    market, grid, payoff = config.market, config.grid, config.payoff
    rng = np.random.default_rng(config.seed)

    # classical oracle: surface, snapped per-path values, quantile statistics
    surface = price_european(market, grid, payoff)
    scale = float(np.linalg.norm(surface.values))
    if scale == 0.0:
        raise NumericalError("value surface is identically zero")
    paths = simulate_paths(market, config.s0, config.L, config.m)
    node_idx = snap_paths(paths, grid)
    normalized = surface.values / scale

    classical_state = StateVector(normalized.astype(complex),
                                  RegisterLayout([("grid", grid.n)]))
    rho_classical = reduced_rho(classical_state, grid)
    twin_values = decode_value(
        value_code_table(rho_classical, config.m)[node_idx], config.m)
    classical = classical_var_cvar(twin_values, config.q)
    raw_values = normalized[node_idx]
    classical_raw = classical_var_cvar(raw_values, config.q)

    if config.mode == "classical":
        report = RiskReport(level=config.q, var=classical.var * scale,
                            cvar=classical.cvar * scale, p0=classical.p0,
                            method="classical", scale=scale,
                            var_normalized=classical.var,
                            cvar_normalized=classical.cvar)
        return PipelineResult(report=report, classical=classical, tally=tally,
                              deviations={"raw_var_gap": abs(classical.var - classical_raw.var),
                                          "raw_cvar_gap": abs(classical.cvar - classical_raw.cvar)})

    # Step 1: value-state preparation by singular-value transformation
    prepared = prepare_value_state(payoff_vector(payoff, grid), market, grid,
                                   config.eps1)
    tally.qsvt_degree = prepared.target.degree
    tally.block_encoding_queries = prepared.phases.degree
    tally.state_preparation_repetitions += 1
    fidelity = float(abs(np.vdot(prepared.state.amplitudes,
                                 classical_state.amplitudes)))

    # Steps 2 + 3: scenario state and the value lookup
    assembled = assemble_portfolio_state(paths, prepared.state, grid, config.m,
                                         node_idx, config.price_codes)
    tally.rho_copies += 1
    phi = assembled.state
    layout = RegisterLayout(phi.layout.items() + [(FLAG, 1)])
    phi_flagged_base = StateVector(phi.amplitudes, layout, phi.index << 1)

    sampled = config.mode == "quantum_sampled"
    measure_mode = "sampled" if sampled else "exact"
    eps_est = 0.02

    # Step 4: bisection VaR and the CVaR overlap
    def preparer() -> StateVector:
        tally.state_preparation_repetitions += 1
        return phi_flagged_base.copy()

    var_code, iterations, queries = bisection_var(
        preparer, config.q, config.m, mode=measure_mode, eps=eps_est, rng=rng)
    tally.bisection_iterations = iterations
    if sampled:
        tally.amplitude_estimation_queries += queries

    if np.all(assembled.value == 0.0):
        # every branch value rounds to zero: the tail mean is exactly zero
        # and the value-weighted reference state degenerates
        flagged = comparator_ucc(phi_flagged_base.copy(), var_code)
        p0, _ = tail_probability(flagged)
        breakdown = CvarBreakdown(cvar=0.0, cvar_normalized=0.0, overlap=0.0,
                                  overlap_raw=0.0, p0=p0)
    else:
        psi_ref, ref_norm = make_reference_state(
            layout, assembled.path_support << 1, assembled.value)
        breakdown = cvar(phi_flagged_base.copy(), psi_ref, ref_norm, var_code,
                         config.q, config.L, scale, assembled.lookup,
                         mode=measure_mode, eps=eps_est, rng=rng)
        if sampled:
            tally.amplitude_estimation_queries += breakdown.queries

    var_norm = float(decode_value(var_code, config.m))
    method = "quantum_sampled" if sampled else "quantum_exact"
    report = RiskReport(level=config.q, var=var_norm * scale,
                        cvar=breakdown.cvar, p0=breakdown.p0, method=method,
                        scale=scale, var_normalized=var_norm,
                        cvar_normalized=breakdown.cvar_normalized,
                        var_code=var_code)
    deviations = {
        "step1_fidelity": fidelity,
        "step1_l2_distance": float(np.linalg.norm(
            prepared.state.amplitudes - classical_state.amplitudes)),
        "var_code_matches_classical": bool(var_norm == classical.var),
        "var_gap_normalized": abs(var_norm - classical.var),
        "cvar_gap_normalized": abs(breakdown.cvar_normalized - classical.cvar),
        "raw_var_gap": abs(var_norm - classical_raw.var),
        "raw_cvar_gap": abs(breakdown.cvar_normalized - classical_raw.cvar),
        "step1_success_probability": prepared.success_probability,
    }
    return PipelineResult(report=report, classical=classical, tally=tally,
                          deviations=deviations)


def emit_report(result: PipelineResult) -> str:
    """Serialize as JSON with a deterministic field order."""
    return json.dumps(result.to_dict(), sort_keys=True, indent=2)
