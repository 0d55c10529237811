"""The traced run: per-layer metrics of one workload.

1. `python -X importtime -c "import mflqg.cli"` in fresh children gives
   the import cost, and the part of it spent importing scipy; `python -c
   pass` gives the bare interpreter start.
2. Each command of the workload runs once through the CLI, untraced, for
   the wall time the tracing overhead is measured against: overhead =
   traced replay + import + interpreter start - untraced CLI wall.
3. The same commands are replayed in this process through
   `mflqg.cli.main`, with every public function of the layer modules
   wrapped in a span (see `spans.py`). Inclusive times per function, self
   times per layer and per command, and work counts come from the spans,
   which are written to `.bench_build/perfbench/spans/`.
4. Untraced in-process passes time `spd_solve` on the workload's own
   B'MB + R, time `monte_carlo_cost` at one and at two worker threads
   (and check the digits agree), and take its `tracemalloc` peak.

Metrics of a layer the workload never calls (the filter recursion on a
full-observation model, the oracle on the noisy model) read 0.
"""
from __future__ import annotations

import contextlib
import statistics
import time
import traceback
import tracemalloc
from dataclasses import replace

from checks import OUTPUTS
from children import WORK, exit_problems, run_child
from spans import Tracer, inclusive, layer_self_times, self_times

IMPORT_REPS = 3
SPD_BATCHES, SPD_CALLS = 5, 2000


def parse_importtime(text: str) -> tuple[float, float]:
    """(seconds to import mflqg.cli, seconds of that spent importing scipy)
    from `-X importtime` output."""
    entries = []  # (level, name, cumulative seconds), children before parents
    for line in text.splitlines():
        if not line.startswith("import time:") or "imported package" in line:
            continue
        _, cumulative, raw = line.split("|", 2)
        raw = raw[1:]
        name = raw.lstrip(" ")
        entries.append(((len(raw) - len(name)) // 2, name, int(cumulative) / 1e6))
    package = scipy = 0.0
    ancestors: list[tuple[int, str]] = []
    for level, name, seconds in reversed(entries):
        while ancestors and ancestors[-1][0] >= level:
            ancestors.pop()
        if level == 0 and name.split(".")[0] == "mflqg":
            package += seconds
        if name.split(".")[0] == "scipy" and not any(
                a.split(".")[0] == "scipy" for _, a in ancestors):
            scipy += seconds
        ancestors.append((level, name))
    return package, scipy


def import_times(session) -> tuple[float, float, float]:
    """Medians of the import of mflqg.cli, of its scipy part, and of a
    bare interpreter start, in seconds."""
    package, scipy, bare = [], [], []
    for i in range(IMPORT_REPS):
        child = run_child(["-c", "pass"], session.dir / "importtime" / f"bare{i}.log")
        if session.record(f"bare interpreter {i}", exit_problems(child)):
            bare.append(child.wall_s)
        child = run_child(["-X", "importtime", "-c", "import mflqg.cli"],
                          session.dir / "importtime" / f"{i}.log")
        if session.record(f"importtime {i}", exit_problems(child)):
            p, s = parse_importtime(child.log.read_text(encoding="utf-8"))
            package.append(p)
            scipy.append(s)
    return statistics.median(package), statistics.median(scipy), statistics.median(bare)


def replay(session, tracer: Tracer) -> tuple[dict[str, float], float]:
    """Run each command through `mflqg.cli.main` in this process under the
    tracer; returns each command's replay seconds and the CSV bytes written."""
    import mflqg.cli

    main = tracer.wrap("cli.main", mflqg.cli.main)
    seconds, csv_bytes = {}, 0
    tracer.install()
    try:
        for cmd in session.workload.commands:
            out = session.dir / "replay" / cmd.name
            out.mkdir(parents=True)
            tracer.run_id = f"{session.run_id}/{cmd.name}"
            start = time.perf_counter()
            with open(out / "cli.log", "w", encoding="utf-8") as log, \
                    contextlib.redirect_stdout(log), contextlib.redirect_stderr(log):
                try:
                    code = main(session.args(cmd, out))
                except Exception:  # a crash is a failed operation, not the end of the run
                    traceback.print_exc()
                    code = -1
            seconds[cmd.name] = time.perf_counter() - start
            session.record(f"replay {cmd.name}", session.check(cmd, out, code))
            csv_bytes += sum(path.stat().st_size for path in out.glob("trace_*.csv"))
    finally:
        tracer.uninstall()
    return seconds, csv_bytes


def _evaluate_setup(session):
    """The model and strategy the workload's evaluate command uses."""
    from mflqg import (LinearStrategy, load_model, solve_control_riccati,
                       solve_filter_riccati, validate_model)

    cmd = session.workload.command("evaluate")
    model = load_model(session.model_path)
    if cmd.n is not None:
        model = validate_model(replace(model, n_agents=cmd.n))
    noisy = model.observation_mode == "noisy"
    schedule = solve_control_riccati(model).gain_schedule(
        solve_filter_riccati(model) if noisy else None)
    return model, schedule if noisy else LinearStrategy.from_gains(schedule), cmd.runs


def spd_solve_us(model) -> float:
    """Median microseconds per `spd_solve` on the model's last B'MB + R."""
    from mflqg.linalg import spd_solve

    k = model.horizon - 2
    M = model.Q[-1]
    H = model.B[k].T @ M @ model.B[k] + model.R[k]
    H = (H + H.T) / 2.0
    G = (M @ model.B[k]).T @ model.A[k]
    batches = []
    for _ in range(SPD_BATCHES):
        start = time.perf_counter()
        for _ in range(SPD_CALLS):
            spd_solve(H, G)
        batches.append((time.perf_counter() - start) / SPD_CALLS * 1e6)
    return statistics.median(batches)


def monte_carlo_passes(session, model, strategy, runs: int) -> dict[str, float]:
    from mflqg import monte_carlo_cost, sim

    seed = session.cli_seed
    timed = {}
    results = {}
    for workers in (1, 2):
        start = time.perf_counter()
        results[workers] = monte_carlo_cost(model, strategy, runs=runs, seed=seed,
                                            workers=workers)
        timed[workers] = time.perf_counter() - start
    session.record("monte_carlo_cost workers=2", [] if results[2] == results[1] else [
        f"workers=2 gives {results[2]}, workers=1 gives {results[1]}"])

    tracemalloc.start()
    try:
        monte_carlo_cost(model, strategy, runs=runs, seed=seed)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()

    T, n = model.horizon, model.n_agents
    chunk = min(runs, getattr(sim, "_MC_CHUNK", runs))
    floats = n * model.d_x + (T - 1) * n * model.d_x
    if model.observation_mode == "noisy":
        floats += T * n * model.d_y
    return {
        "sim.mc_w2_speedup": timed[1] / timed[2],
        "sim.mc_peak_mb": peak / 1e6,
        "sim.mc_noise_mb": chunk * floats * 8 / 1e6,
    }


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator > 0 else 0.0


def measure_traced(session) -> tuple[dict, dict]:
    import_s, scipy_s, start_s = import_times(session)
    cli_wall = {cmd.name: session.run_command(cmd, "cli").wall_s
                for cmd in session.workload.commands}

    tracer = Tracer()
    replay_s, csv_bytes = replay(session, tracer)
    spans = tracer.spans
    tracer.write(WORK / "spans" / f"{session.workload.name}-seed{session.seed}.jsonl")
    model, strategy, runs = _evaluate_setup(session)
    passes = monte_carlo_passes(session, model, strategy, runs)

    own = self_times(spans)
    cmd_self = {span["run"].rsplit("/", 1)[1]: own[span["id"]]
                for span in spans if span["name"] == "cli.main"}

    def total(name: str) -> float:
        return inclusive(spans, name)[0]

    control_s, control_work = inclusive(spans, "riccati.solve_control_riccati")
    simulate_s, simulate_work = inclusive(spans, "sim.simulate")
    export_s = total("sim.export_trace_csv")
    mc_s, mc_work = inclusive(spans, "sim.monte_carlo_cost")
    _, oracle_work = inclusive(spans, "oracle.solve_stacked_riccati")
    stacked_dims = [span["work"]["dim"] for span in spans
                    if span["name"] == "oracle.solve_stacked_riccati"]
    overhead = {name: replay_s[name] + import_s + start_s - cli_wall[name] for name in replay_s}

    metrics = {
        "cli.import_s": import_s,
        "cli.import_scipy_s": scipy_s,
        **{f"cli.self_s.{name}": cmd_self.get(name, 0.0) for name in OUTPUTS},
        "model.load_s": total("model.load_model"),
        "model.validate_s": total("model.validate_model"),
        "model.fingerprint_s": total("model.LqMeanFieldModel.fingerprint"),
        "model.save_s": total("model.save_model"),
        "presets.heater_model_s": total("presets.heater_model"),
        "riccati.control_s": control_s,
        "riccati.control_us_per_step": _ratio(control_s * 1e6, control_work.get("steps", 0)),
        "riccati.filter_s": total("riccati.solve_filter_riccati"),
        "linalg.spd_solve_us": spd_solve_us(model),
        "control.gains_to_dict_s": total("control.GainSchedule.to_dict"),
        "sim.simulate_s": simulate_s,
        "sim.agent_steps_per_s": _ratio(simulate_work.get("agent_steps", 0), simulate_s),
        "sim.export_csv_s": export_s,
        "sim.export_mb": csv_bytes / 1e6,
        "sim.export_mb_per_s": _ratio(csv_bytes / 1e6, export_s),
        "sim.exact_s": total("sim.exact_policy_cost"),
        "sim.mc_s": mc_s,
        "sim.mc_runs_per_s": _ratio(mc_work.get("runs", 0), mc_s),
        "sim.mc_us_per_agent_step": _ratio(mc_s * 1e6, mc_work.get("agent_steps", 0)),
        **passes,
        "oracle.build_s": total("oracle.build_stacked_model"),
        "oracle.solve_s": total("oracle.solve_stacked_riccati"),
        "oracle.check_s": total("oracle.check_equivalence"),
        "oracle.stacked_dim": max(stacked_dims, default=0),
        "oracle.gflops_computed": oracle_work.get("flops", 0) / 1e9,
        "trace.overhead_s": sum(overhead.values()),
    }
    details = {
        "layer_self_s": layer_self_times(spans),
        "overhead_s": overhead,
        "replay_s": replay_s,
        "cli_wall_s": cli_wall,
        "interpreter_start_s": start_s,
        "bases": {
            "riccati.control_us_per_step": {"steps": control_work.get("steps", 0)},
            "sim.agent_steps_per_s": {"agent_steps": simulate_work.get("agent_steps", 0)},
            "sim.mc_runs_per_s": {"runs": mc_work.get("runs", 0)},
            "sim.mc_us_per_agent_step": {"agent_steps": mc_work.get("agent_steps", 0)},
            "sim.export_mb_per_s": {"bytes": csv_bytes},
            "sim.mc_noise_mb": "computed from array sizes, not measured",
            "oracle.gflops_computed": "operation count computed from matrix sizes",
        },
        "spans": len(spans),
    }
    return metrics, details
