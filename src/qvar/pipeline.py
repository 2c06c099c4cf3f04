"""End-to-end orchestration: the four-stage quantum pipeline next to its
classical twin, with per-quantity deviations and resource accounting.

A request splits into what its book fixes and what its level reads.  The
book is the market, the payoff, the grid, s0, L, m and eps1; q, mode and
seed only choose what Step 4 reads.  So Steps 1-3 are prepared once per
book and kept in a bounded in-process memo (``_book``, PROGRAM_CACHE
books, least recently used first out), keyed on those values and on the
grid's node bytes, as a ``PriceGrid`` hashes by identity:

- the classical half, built with the book: the value surface's norm
  ``scale``, the paths and their snapped grid nodes, the classical value
  state and the ``QuantileTable`` of the twin and of the raw per-path
  values, in stored order and sorted, with their quantile readouts;
- the quantum half, built on the book's first quantum request, so a
  classical request never builds it: the prepared value state with its
  step-1 fidelity and l2 distance, and the ``TailTable`` of the flagged
  scenario state, which holds the tail reads' codes and squared
  magnitudes and the CVaR overlap's terms against the value-weighted
  reference state, from the book's one comparator write.

Every array a book holds is read-only.  A step that raises caches nothing,
so a failing book raises the same error on every request.  What a level
reads of a book is a step function: the classical quantile of the
empirical CDF's step q falls in, the tail mass of the threshold's rank
among the book's value codes, the CVaR overlap of the terms at or below
it.  So the level tables keep each read on its step, filled on first read
and bounded by the book's L and codes.  The exact VaR is one too: every
bisection probe compares one of the book's tail masses with q, so its
code, iterations and queries are kept on the step q falls in among them
(``risk.exact_var``).  Each request still runs the budget check first,
then both classical readouts at its level and Step 4's reads: the VaR,
the CVaR overlap and, in sampled mode, its own ``random.Random`` seeded
with the request's seed, which draws for every bisection probe.  The
config's market and payoff come from the parse memos of
``market.load_market_config``.  The ``ResourceTally`` charges the simulated
device Steps 1-3 and one state preparation per probe on every request,
memo or not, so a hit and a miss give the same tally and the same report
bytes."""

from __future__ import annotations

import functools
import json
import math
from dataclasses import dataclass, field, asdict

import numpy as np

from .errors import ConfigError, NumericalError, QubitBudgetError
from .market import (MarketParams, PayoffSpec, PriceGrid, config_int,
                     load_market_config, payoff_vector, qubit_cap,
                     read_config_doc)
from .mc import simulate_paths
from .pde import price_european
from .qcore import RegisterLayout, StateVector
from .qpca import (assemble_portfolio_state, decode_value,
                   grid_codes, price_register_width, snap_paths,
                   value_code_table, reduced_rho)
from .qsvt import PROGRAM_CACHE, PreparedValueState, prepare_value_state
from .risk import (FLAG, ClassicalRisk, QuantileTable, RiskReport, TailTable,
                   bisection_var, cvar, exact_var, make_reference_state)


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

    @functools.cached_property
    def price_codes(self) -> np.ndarray:
        """The grid's m-bit price codes (``grid_codes``, memoised and
        read-only); Steps 2-4 and the budget check read them."""
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


def _read_only(*arrays) -> None:
    for array in arrays:
        array.setflags(write=False)


@dataclass(frozen=True)
class QuantumBook:
    """Steps 1-3 of a book: the prepared value state, its step-1
    certificates and the ``TailTable`` every Step-4 read uses, of the
    flagged scenario state and the value-weighted reference state."""

    prepared: PreparedValueState
    fidelity: float
    l2_distance: float
    tail: TailTable


class Book:
    """Everything a request computes before it reads its level q: the
    classical oracle's half of one book, built with it, and the quantum
    half, built on the first quantum request (``quantum``).  Every array
    it holds is read-only.  The levels read of it fill its level tables:
    ``twin_reads`` and ``raw_reads``, the quantile readouts of the twin
    and raw values by CDF step, and the tail table's masses and overlaps
    by step of the threshold."""

    def __init__(self, market: MarketParams, payoff: PayoffSpec,
                 grid: PriceGrid, s0: float, L: int, m: int, eps1: float):
        self.market, self.payoff, self.grid = market, payoff, grid
        self.m, self.eps1 = m, eps1
        # classical oracle: surface, snapped per-path values
        surface = price_european(market, grid, payoff)
        self.scale = float(np.linalg.norm(surface.values))
        if self.scale == 0.0:
            raise NumericalError("value surface is identically zero")
        self.paths = simulate_paths(market, s0, L, m)
        self.node_idx = snap_paths(self.paths, grid)
        self.classical_state = normalized = surface.values / self.scale
        rho_classical = reduced_rho(normalized, grid)
        self.twin_reads = QuantileTable(decode_value(
            value_code_table(rho_classical, m)[self.node_idx], m))
        self.raw_reads = QuantileTable(normalized[self.node_idx])
        _read_only(self.node_idx, self.classical_state)
        self._quantum = None

    def quantum(self, codes: np.ndarray) -> QuantumBook:
        """Steps 1-3 on the grid's price codes ``codes``, built once; a
        step that raises leaves nothing behind, so it raises again."""
        if self._quantum is None:
            self._quantum = self._build_quantum(codes)
        return self._quantum

    def _build_quantum(self, codes: np.ndarray) -> QuantumBook:
        grid, classical = self.grid, self.classical_state
        # Step 1: value-state preparation by marching the one-step
        # singular-value transformation
        prepared = prepare_value_state(payoff_vector(self.payoff, grid),
                                       self.market, grid, self.eps1)
        # Steps 2 + 3: scenario state and the value lookup
        assembled = assemble_portfolio_state(self.paths, prepared.state, grid,
                                             self.m, self.node_idx, codes)
        phi = assembled.state
        layout = RegisterLayout(phi.layout.items() + [(FLAG, 1)])
        flagged_base = StateVector(phi.amplitudes, layout, phi.index << 1)
        # every branch value rounding to zero leaves no reference state
        reference = (None if np.all(assembled.value == 0.0) else
                     make_reference_state(layout, assembled.path_support << 1,
                                          assembled.value))
        return QuantumBook(
            prepared=prepared,
            fidelity=float(abs(np.vdot(prepared.state, classical))),
            l2_distance=float(np.linalg.norm(prepared.state - classical)),
            tail=TailTable(flagged_base, reference, assembled.lookup))


@functools.lru_cache(maxsize=PROGRAM_CACHE)
def _book(market: MarketParams, payoff: PayoffSpec, n: int, nodes: bytes,
          s0: float, L: int, m: int, eps1: float) -> Book:
    """The memo of the books: keyed on the values Steps 1-3 read, never on
    q, mode or seed, and on the grid's node bytes, as a ``PriceGrid``
    hashes by identity."""
    return Book(market, payoff, PriceGrid(np.frombuffer(nodes), n), s0, L, m,
                eps1)


def run_pipeline(config: RunConfig) -> PipelineResult:
    """Execute the four stages and the classical oracle, then cross-check.

    Steps 1-3 and the classical oracle's values come from the request's
    memoised ``Book``; the budget check, both quantile readouts and Step 4
    run on every request, reading the book's level tables."""
    config.check_budget()
    tally = ResourceTally()
    book = _book(config.market, config.payoff, config.grid.n,
                 config.grid.nodes.tobytes(), config.s0, config.L, config.m,
                 config.eps1)
    scale = book.scale
    classical = book.twin_reads(config.q)
    classical_raw = book.raw_reads(config.q)

    if config.mode == "classical":
        report = RiskReport(level=config.q, var=classical.var * scale,
                            cvar=classical.cvar * scale, p0=classical.p0,
                            method="classical", scale=scale,
                            var_normalized=classical.var,
                            cvar_normalized=classical.cvar)
        return PipelineResult(report=report, classical=classical, tally=tally,
                              deviations={"raw_var_gap": abs(classical.var - classical_raw.var),
                                          "raw_cvar_gap": abs(classical.cvar - classical_raw.cvar)})

    quantum = book.quantum(config.price_codes)
    prepared = quantum.prepared
    # the device spends Steps 1-3 on every request, memo or not: the
    # one-step circuit of degree qsvt_degree, run three times per step
    tally.qsvt_degree = prepared.phases.degree
    tally.block_encoding_queries = prepared.queries
    tally.state_preparation_repetitions += 1
    tally.rho_copies += 1

    sampled = config.mode == "quantum_sampled"
    measure_mode = "sampled" if sampled else "exact"
    # only sampled mode draws, from here on, and from the standard
    # library's generator: no mode imports numpy.random, and start-up does
    # not import random
    rng = None
    if sampled:
        import random
        rng = random.Random(config.seed)
    eps_est = 0.02

    # Step 4: bisection VaR and the CVaR overlap, read from the book's tail
    # table; the device prepares the state once per probe.  Exact mode's
    # search is read from its level step
    if sampled:
        var_code, iterations, queries = bisection_var(
            quantum.tail, config.q, mode=measure_mode, eps=eps_est, rng=rng)
    else:
        var_code, iterations, queries = exact_var(quantum.tail, config.q)
    tally.bisection_iterations = iterations
    tally.state_preparation_repetitions += iterations
    breakdown = cvar(quantum.tail, var_code, config.L, scale,
                     mode=measure_mode, eps=eps_est, rng=rng)
    if sampled:
        tally.amplitude_estimation_queries += queries + breakdown.queries

    # decode_value's bits: an exact division by a power of two
    var_norm = var_code / 2 ** (config.m - 1)
    method = "quantum_sampled" if sampled else "quantum_exact"
    report = RiskReport(level=config.q, var=var_norm * scale,
                        cvar=breakdown.cvar, p0=breakdown.p0, method=method,
                        scale=scale, var_normalized=var_norm,
                        cvar_normalized=breakdown.cvar_normalized,
                        var_code=var_code)
    deviations = {
        "step1_fidelity": quantum.fidelity,
        "step1_l2_distance": quantum.l2_distance,
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
