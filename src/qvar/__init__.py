"""Classical and quantum-simulated VaR/CVaR engines for European option
portfolios: finite-difference pricing, deterministic scenario generation,
a desk-scale statevector pipeline and the early-exercise no-go arithmetic.
"""

from .errors import ConfigError, NumericalError, QubitBudgetError, QvarError
from .market import (MarketParams, PayoffSpec, PriceGrid, build_grid,
                     load_market_config, payoff_vector, price_code)
from .mc import PathSet, simulate_paths
from .pde import (TridiagonalOperator, ValueSurface, assemble_operator,
                  implicit_step, price_american, price_european)
from .pipeline import (PipelineResult, ResourceTally, RunConfig, emit_report,
                       load_run_config, run_pipeline)
from .qcore import RegisterLayout, StateVector
from .qpca import assemble_portfolio_state, reduced_rho
from .qsvt import (BlockEncoding, PhaseFactorSequence, PolynomialTarget,
                   apply_qsvt, approximate_target, prepare_value_state,
                   solve_phase_factors, target_g)
from .blockenc import assemble_block_encoding
from .risk import (RiskReport, TailTable, bisection_var, classical_var_cvar,
                   comparator_ucc, cvar, swap_test_overlap, tail_probability)
from .nogo import min_copies, overlap_power, trace_norm_gap

__version__ = "0.1.0"
