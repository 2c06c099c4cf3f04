"""Command-line front end.

Exit codes: 0 success, 2 config error, 3 numerical failure, 4 qubit budget
exceeded.  QVAR_QUBIT_CAP overrides the default 24-qubit budget.  Flags
override config-file fields; every subcommand takes --config pointing at a
single JSON document.
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from . import nogo as nogo_mod
from .blockenc import assemble_block_encoding
from .errors import ConfigError, QubitBudgetError, QvarError
from .market import payoff_vector, read_config_doc
from .mc import simulate_paths
from .pde import assemble_operator, price_american, price_european
from .pipeline import emit_report, load_run_config, run_pipeline
from .qpca import (assemble_portfolio_state, scenario_layout, snap_paths,
                   trotter_values)
from .qsvt import apply_qsvt, prepare_value_state, svd_transform_oracle


def _write(text: str, path: str | None) -> None:
    if path is None:
        sys.stdout.write(text)
        return
    try:
        with open(path, "w") as fh:
            fh.write(text)
    except OSError as exc:
        raise ConfigError(f"cannot write --output {path}: "
                          f"{exc.strerror or exc}") from exc


def _write_csv(header: str, rows, path: str | None) -> None:
    """The header line, then one comma-joined line per row; floats are
    written with ``repr``, so every bit survives the round trip."""
    lines = [header]
    for row in rows:
        lines.append(",".join(repr(float(x)) if isinstance(x, float) else str(x)
                              for x in row))
    _write("\n".join(lines) + "\n", path)


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", required=True, help="JSON config document")
    p.add_argument("--output", default=None, help="output file (default stdout)")


def _overridden_config(args) -> dict:
    doc = read_config_doc(args.config)
    for key in ("L", "m", "q", "seed", "s0"):
        val = getattr(args, key.lower(), None)
        if val is not None:
            doc[key] = val
    return doc


def cmd_price(args) -> int:
    cfg = load_run_config(_overridden_config(args))
    pricer = price_american if args.style == "american" else price_european
    surface = pricer(cfg.market, cfg.grid, cfg.payoff)
    _write_csv("S,V", zip(cfg.grid.nodes, surface.values), args.output)
    return 0


def cmd_simulate(args) -> int:
    cfg = load_run_config(_overridden_config(args))
    paths = simulate_paths(cfg.market, cfg.s0, cfg.L, cfg.m)
    _write_csv("k,price", enumerate(paths.prices, start=1), args.output)
    return 0


def cmd_verify_be(args) -> int:
    cfg = load_run_config(_overridden_config(args))
    mtilde = assemble_operator(cfg.market, cfg.grid).plus_identity()
    be = assemble_block_encoding(mtilde)
    doc = {"gamma": be.gamma, "ancillas": be.a, "certified_error": be.eps}
    _write(json.dumps(doc, sort_keys=True, indent=2) + "\n", args.output)
    return 0


def cmd_verify_qsvt(args) -> int:
    cfg = load_run_config(_overridden_config(args))
    prepared = prepare_value_state(payoff_vector(cfg.payoff, cfg.grid),
                                   cfg.market, cfg.grid, cfg.eps1)
    # the block of the circuit the march ran, against the dense SVD
    block = apply_qsvt(prepared.encoding, prepared.phases,
                       np.eye(2**cfg.grid.n)).matrix
    mtilde_t = assemble_operator(cfg.market, cfg.grid).plus_identity().transpose()
    oracle = svd_transform_oracle(mtilde_t.to_dense(), prepared.target,
                                  prepared.gamma)
    block_err = float(np.abs(block - oracle).max())
    doc = {
        "degree": prepared.target.degree,
        "residual": prepared.phases.residual,
        "block_error": block_err,
        "success_probability": prepared.success_probability,
    }
    _write(json.dumps(doc, sort_keys=True, indent=2) + "\n", args.output)
    return 0


def cmd_assemble(args) -> int:
    cfg = load_run_config(_overridden_config(args))
    paths = simulate_paths(cfg.market, cfg.s0, cfg.L, cfg.m)
    # the scenario registers must fit the budget before Stage 1 is paid for
    scenario_layout(paths, cfg.price_codes, cfg.m)
    prepared = prepare_value_state(payoff_vector(cfg.payoff, cfg.grid),
                                   cfg.market, cfg.grid, cfg.eps1)
    node_index = snap_paths(paths, cfg.grid)
    assembled = assemble_portfolio_state(paths, prepared.state, cfg.grid, cfg.m,
                                         node_index, cfg.price_codes)
    value = assembled.value
    if args.mode == "trotter":
        try:
            value = trotter_values(prepared.state, cfg.grid, cfg.m, node_index)
        except MemoryError as exc:
            # 2^m-long kernel vectors within the qubit budget that the
            # machine cannot hold
            raise QubitBudgetError(f"QPE kernels at m = {cfg.m}: {exc}") from exc
    _write_csv("k,price,value,error_vs_oracle",
               zip(range(paths.L), cfg.grid.nodes[node_index], value,
                   np.abs(value - assembled.oracle)), args.output)
    return 0


def cmd_report(args) -> int:
    doc = _overridden_config(args)
    if args.mode is not None:
        doc["mode"] = args.mode.replace("-", "_")  # quantum-exact -> quantum_exact
    result = run_pipeline(load_run_config(doc))
    _write(emit_report(result) + "\n", args.output)
    return 0


def cmd_nogo(args) -> int:
    _write_csv("d,min_copies", nogo_mod.copy_curve(args.max_d, args.threshold),
               args.output)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qvar",
        description="VaR/CVaR engines for European option portfolios: "
                    "classical finite differences next to a desk-scale "
                    "quantum-circuit simulation.",
        epilog="Exit codes: 0 success, 2 config error, 3 numerical failure, "
               "4 qubit budget exceeded.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("price", help="finite-difference value surface as CSV")
    p.add_argument("--style", choices=["european", "american"], default="european")
    _add_common(p)
    p.set_defaults(func=cmd_price)

    p = sub.add_parser("simulate", help="deterministic scenario paths as CSV")
    p.add_argument("--paths", type=int, dest="l", default=None)
    p.add_argument("--bits", type=int, dest="m", default=None)
    _add_common(p)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("verify-be", help="block-encoding certificate as JSON; "
                       "gamma = sqrt(r_max c_max), the largest row and column "
                       "1-norms")
    _add_common(p)
    p.set_defaults(func=cmd_verify_be)

    p = sub.add_parser("verify-qsvt", help="polynomial/phase diagnostics as JSON")
    _add_common(p)
    p.set_defaults(func=cmd_verify_qsvt)

    p = sub.add_parser("assemble", help="per-branch value codes as CSV")
    p.add_argument("--mode", choices=["exact", "trotter"], default="exact")
    _add_common(p)
    p.set_defaults(func=cmd_assemble)

    for name in ("var", "cvar", "run"):
        p = sub.add_parser(name, help=f"{name} pipeline report as JSON")
        p.add_argument("--level", type=float, dest="q", default=None)
        p.add_argument("--bits", type=int, dest="m", default=None)
        p.add_argument("--mode",
                       choices=["classical", "quantum-exact", "quantum-sampled"],
                       default=None)
        p.add_argument("--seed", type=int, default=None)
        _add_common(p)
        p.set_defaults(func=cmd_report)

    p = sub.add_parser("nogo", help="copy-count lower-bound curve as CSV")
    p.add_argument("--max-d", type=int, default=256)
    p.add_argument("--threshold", type=float, default=0.8)
    p.add_argument("--output", default=None)
    p.set_defaults(func=cmd_nogo)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except QvarError as exc:
        print(f"qvar: error: {exc}", file=sys.stderr)
        return exc.exit_code


if __name__ == "__main__":
    sys.exit(main())
