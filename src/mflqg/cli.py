"""Command-line interface.

Subcommands: solve (gain schedules), simulate (closed-loop traces),
evaluate (exact and Monte Carlo policy cost), verify (centralized
equivalence), preset-heater (the built-in tracking example, end to end).
All outputs land under --out with fixed file names. Exit codes: 0 success,
1 I/O or parse failure, 2 validation failure, 3 verification failure.
"""
from __future__ import annotations

import argparse
import json
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from .errors import MeanFieldLqgError, ModelFormatError, ValidationError
from .model import LqMeanFieldModel, load_model, save_model
from .oracle import check_equivalence
from .presets import heater_model
from .riccati import solve_control_riccati, solve_filter_riccati
from .sim import (
    RNG_SCHEME,
    exact_policy_cost,
    export_summary_json,
    export_trace_csv,
    monte_carlo_cost,
    optimal_strategy,
    simulate,
)

EXIT_OK = 0
EXIT_IO = 1
EXIT_VALIDATION = 2
EXIT_VERIFY = 3

DEFAULT_TOLERANCE = 1e-8
DEFAULT_RUNS = 10_000


def _seed_type(text: str) -> int:
    value = int(text)
    if not 0 <= value < 2**64:
        raise argparse.ArgumentTypeError(f"seed must be an unsigned 64-bit integer, got {text}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mflqg",
        description=(
            "Decentralized control of mean-field coupled linear-quadratic "
            "populations: solve gain schedules, simulate the closed loop, "
            "evaluate policy cost, and verify against a centralized oracle."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name: str, help_text: str, model: bool = True) -> argparse.ArgumentParser:
        cmd = sub.add_parser(name, help=help_text)
        if model:
            cmd.add_argument("--model", type=Path, required=True,
                             help="path to a model JSON file")
        cmd.add_argument("--seed", type=_seed_type, default=0,
                         help="unsigned 64-bit seed (default 0)")
        cmd.add_argument("--n", type=int, default=None,
                         help="population size override")
        cmd.add_argument("--out", type=Path, default=Path("."),
                         help="output directory (default: current directory)")
        return cmd

    add("solve", "solve the control (and filter) recursions, write gains.json")
    add("simulate", "run one closed-loop simulation, write trace CSVs and summary.json")
    evaluate = add("evaluate",
                   "exact and Monte Carlo cost of the optimal strategy, write evaluate.json")
    evaluate.add_argument("--runs", type=int, default=DEFAULT_RUNS,
                          help=f"Monte Carlo run count (default {DEFAULT_RUNS})")
    verify = add("verify", "check centralized equivalence, write verify.json")
    verify.add_argument("--tol", type=float, default=DEFAULT_TOLERANCE,
                        help=f"verification tolerance (default {DEFAULT_TOLERANCE})")
    add("preset-heater", "materialize and run the built-in heater tracking example", model=False)
    return parser


def _with_population(model: LqMeanFieldModel, n: int | None) -> LqMeanFieldModel:
    return model if n is None else replace(model, n_agents=n)


def _load(args: argparse.Namespace) -> LqMeanFieldModel:
    return _with_population(load_model(args.model), args.n)


def _write_json(data: dict, path: Path) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(data, fh, indent=2)
        fh.write("\n")


def cmd_solve(args: argparse.Namespace) -> int:
    model = _load(args)
    solution = solve_control_riccati(model)
    noisy = model.observation_mode == "noisy"
    schedule = solution.gain_schedule(solve_filter_riccati(model) if noisy else None)
    path = args.out / "gains.json"
    _write_json(schedule.to_dict(), path)
    T = model.horizon
    terminal_gain = max(
        float(np.max(np.abs(solution.Kx[T - 1]))), float(np.max(np.abs(solution.Kz[T - 1])))
    )
    mx_gap = float(np.max(np.abs(solution.Mx[T - 1] - model.Q[T - 1])))
    mz_gap = float(np.max(np.abs(solution.Mz[T - 1] - model.Q[T - 1] - model.P[T - 1])))
    print(f"wrote {path}")
    print(f"horizon={T} d_x={model.d_x} d_u={model.d_u} mode={model.observation_mode}")
    print(f"terminal gains max|K_T| = {terminal_gain:.3g}")
    print(f"terminal values: max|Mx_T - Q_T| = {mx_gap:.3g}, "
          f"max|Mz_T - (Q_T + P_T)| = {mz_gap:.3g}")
    if schedule.Kf is not None:
        print(f"filter gains: {schedule.Kf.shape[0]} steps")
    return EXIT_OK


def cmd_simulate(args: argparse.Namespace) -> int:
    model = _load(args)
    trace = simulate(model, optimal_strategy(model), args.seed)
    agents_path, meanfield_path = export_trace_csv(trace, args.out)
    summary_path = export_summary_json(trace, args.out)
    print(f"wrote {agents_path}")
    print(f"wrote {meanfield_path}")
    print(f"wrote {summary_path}")
    print(f"total cost = {trace.total_cost:.17g}")
    return EXIT_OK


def cmd_evaluate(args: argparse.Namespace) -> int:
    model = _load(args)
    policy = optimal_strategy(model)
    exact_total = None
    if model.observation_mode == "full":
        exact_total = exact_policy_cost(model, policy).total
    mc = monte_carlo_cost(model, policy, runs=args.runs, seed=args.seed)
    report = {
        "model_fingerprint": model.fingerprint(),
        "seed": args.seed,
        "rng_scheme": RNG_SCHEME,
        "runs": mc.runs,
        "exact_cost": exact_total,
        "monte_carlo_mean": mc.mean,
        "monte_carlo_stderr": mc.stderr,
    }
    path = args.out / "evaluate.json"
    _write_json(report, path)
    print(f"wrote {path}")
    if exact_total is not None:
        print(f"exact cost = {exact_total:.17g}")
    print(f"monte carlo = {mc.mean:.17g} +/- {mc.stderr:.3g} ({mc.runs} runs)")
    return EXIT_OK


def cmd_verify(args: argparse.Namespace) -> int:
    model = _load(args)
    report = check_equivalence(model, tolerance=args.tol)
    path = args.out / "verify.json"
    _write_json(report.to_dict(), path)
    print(f"wrote {path}")
    print(f"max gain residual = {report.max_gain_residual:.3e}")
    print(f"cost gap = {report.cost_gap:.3e} "
          f"(centralized {report.cost_centralized:.12g}, "
          f"decentralized {report.cost_decentralized:.12g})")
    print(f"verdict: {'pass' if report.passed else 'FAIL'} at tolerance {args.tol:g}")
    return EXIT_OK if report.passed else EXIT_VERIFY


def cmd_preset_heater(args: argparse.Namespace) -> int:
    model = _with_population(heater_model(), args.n)
    args.out.mkdir(parents=True, exist_ok=True)
    model_path = args.out / "model.json"
    save_model(model, model_path)
    print(f"wrote {model_path}")

    policy = optimal_strategy(model)
    _write_json(policy.to_dict(), args.out / "gains.json")
    print(f"wrote {args.out / 'gains.json'}")

    trace = simulate(model, policy, args.seed)
    agents_path, meanfield_path = export_trace_csv(trace, args.out)
    summary_path = export_summary_json(trace, args.out)
    print(f"wrote {agents_path}")
    print(f"wrote {meanfield_path}")
    print(f"wrote {summary_path}")

    offset = model.state_offset[0]
    z_first = trace.meanfield[0, 0] + offset
    z_last = trace.meanfield[-1, 0] + offset
    print(f"mean temperature: {z_first:.2f} at t=1 -> {z_last:.2f} at t={model.horizon}")
    print(f"total cost = {trace.total_cost:.17g}")
    return EXIT_OK


_COMMANDS = {
    "solve": cmd_solve,
    "simulate": cmd_simulate,
    "evaluate": cmd_evaluate,
    "verify": cmd_verify,
    "preset-heater": cmd_preset_heater,
}


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except json.JSONDecodeError as exc:
        print(f"error: cannot parse {args.model}: line {exc.lineno} column {exc.colno}: "
              f"{exc.msg}", file=sys.stderr)
        return EXIT_IO
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    except ModelFormatError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    except ValidationError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except MeanFieldLqgError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
