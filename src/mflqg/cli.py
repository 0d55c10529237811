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

from .errors import MeanFieldLqgError, ModelFormatError, NumericalFailure
from .model import LqMeanFieldModel, _renamed_into_place, load_model, save_model
from .oracle import check_equivalence
from .presets import heater_model
from .sim import (
    RNG_SCHEME,
    SimulationTrace,
    exact_policy_cost,
    export_trace_csv,
    monte_carlo_cost,
    optimal_strategy,
    simulate,
    trace_summary,
)

EXIT_OK = 0
EXIT_IO = 1
EXIT_VALIDATION = 2
EXIT_VERIFY = 3

DEFAULT_TOLERANCE = 1e-8
DEFAULT_RUNS = 10_000


def _seed_type(text: str) -> int:
    try:
        value = int(text)
        if 0 <= value < 2**64:
            return value
    except ValueError:
        pass
    raise argparse.ArgumentTypeError(f"seed must be an unsigned 64-bit integer, got {text}")


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

    def add(name: str, run, help_text: str, model: bool = True) -> argparse.ArgumentParser:
        cmd = sub.add_parser(name, help=help_text)
        cmd.set_defaults(run=run)
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

    add("solve", cmd_solve, "solve the control (and filter) recursions, write gains.json")
    add("simulate", cmd_simulate, "run one closed-loop simulation, write trace CSVs and summary.json")
    evaluate = add("evaluate", cmd_evaluate,
                   "exact and Monte Carlo cost of the optimal strategy, write evaluate.json")
    evaluate.add_argument("--runs", type=int, default=DEFAULT_RUNS,
                          help=f"Monte Carlo run count (default {DEFAULT_RUNS})")
    verify = add("verify", cmd_verify, "check centralized equivalence, write verify.json")
    verify.add_argument("--tol", type=float, default=DEFAULT_TOLERANCE,
                        help=f"verification tolerance (default {DEFAULT_TOLERANCE})")
    add("preset-heater", cmd_preset_heater,
        "materialize and run the built-in heater tracking example", model=False)
    return parser


def _with_population(model: LqMeanFieldModel, n: int | None) -> LqMeanFieldModel:
    return model if n is None else replace(model, n_agents=n)


def _load(args: argparse.Namespace) -> LqMeanFieldModel:
    return _with_population(load_model(args.model), args.n)


def _write_json(data: dict, path: Path) -> None:
    """Write `data` as indented JSON. It is serialized before any directory
    or file is made, and a NaN or infinite number in it raises
    `NumericalFailure`: no output holds one. The file is renamed into place
    once whole, so none is left half written."""
    try:
        text = json.dumps(data, indent=2, allow_nan=False)
    except ValueError as exc:
        raise NumericalFailure(f"{path.name} not written: {exc}") from None
    path.parent.mkdir(parents=True, exist_ok=True)
    with _renamed_into_place(path) as part, open(part, "w", encoding="utf-8") as fh:
        fh.write(text + "\n")
    print(f"wrote {path}")


def _write_trace(trace: SimulationTrace, out: Path) -> None:
    """Write the trace CSVs and summary.json under `out`."""
    for path in export_trace_csv(trace, out):
        print(f"wrote {path}")
    _write_json(trace_summary(trace), out / "summary.json")


def cmd_solve(args: argparse.Namespace) -> int:
    model = _load(args)
    schedule = optimal_strategy(model)
    _write_json(schedule.to_dict(), args.out / "gains.json")
    print(f"horizon={model.horizon} d_x={model.d_x} d_u={model.d_u} "
          f"mode={model.observation_mode}")
    if schedule.Kf is not None:
        print(f"filter gains: {schedule.Kf.shape[0]} steps")
    return EXIT_OK


def cmd_simulate(args: argparse.Namespace) -> int:
    model = _load(args)
    trace = simulate(model, optimal_strategy(model), args.seed)
    _write_trace(trace, args.out)
    print(f"total cost = {trace.total_cost:.17g}")
    return EXIT_OK


def cmd_evaluate(args: argparse.Namespace) -> int:
    model = _load(args)
    policy = optimal_strategy(model)
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
    _write_json(report, args.out / "evaluate.json")
    print(f"exact cost = {exact_total:.17g}")
    print(f"monte carlo = {mc.mean:.17g} +/- {mc.stderr:.3g} ({mc.runs} runs)")
    return EXIT_OK


def cmd_verify(args: argparse.Namespace) -> int:
    model = _load(args)
    report = check_equivalence(model, tolerance=args.tol)
    _write_json({"model_fingerprint": model.fingerprint(), **report.to_dict()},
                args.out / "verify.json")
    print(f"max gain residual = {report.max_gain_residual:.3e}")
    print(f"cost gap = {report.cost_gap:.3e} "
          f"(centralized {report.cost_centralized:.12g}, "
          f"decentralized {report.cost_decentralized:.12g})")
    print(f"verdict: {'pass' if report.passed else 'FAIL'} at tolerance {args.tol:g}")
    return EXIT_OK if report.passed else EXIT_VERIFY


def cmd_preset_heater(args: argparse.Namespace) -> int:
    model = _with_population(heater_model(), args.n)
    policy = optimal_strategy(model)
    trace = simulate(model, policy, args.seed)
    offset = model.state_offset[0]
    z_first = trace.meanfield[0, 0] + offset
    z_last = trace.meanfield[-1, 0] + offset
    args.out.mkdir(parents=True, exist_ok=True)
    model_path = args.out / "model.json"
    save_model(model, model_path)
    print(f"wrote {model_path}")
    _write_json(policy.to_dict(), args.out / "gains.json")
    _write_trace(trace, args.out)
    print(f"mean temperature: {z_first:.2f} at t=1 -> {z_last:.2f} at t={model.horizon}")
    print(f"total cost = {trace.total_cost:.17g}")
    return EXIT_OK


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.run(args)
    except (OSError, ModelFormatError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    except MeanFieldLqgError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except MemoryError as exc:  # a run count or population too large to hold
        print(f"error: MemoryError: {exc}", file=sys.stderr)
        return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
