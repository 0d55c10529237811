"""Benchmark of the `mflqg` CLI, end to end and layer by layer.

    python3 perfbench/run.py --workload heater-mc --seed 0 --seconds 40 --trace 0
    python3 perfbench/run.py --workload all --seed 0 --seconds 40 --trace 1

Run from anywhere inside a source checkout; the package is imported from
its `src/` directory, nothing needs installing. Workloads are defined in
`workloads.py`; the metrics and their units are the ones `BENCHMARK.json`
lists.

--trace 0 (end to end): one client runs the workload's CLI commands in
child processes, one at a time, repeating the whole sequence until
--seconds have passed (at least three times), and checks every output. It
reports the median wall time of each command with the import included,
of the whole sequence (`cycle_s`), of a bare set-up (`setup_s`: a fresh
interpreter importing `mflqg.cli` and loading the model), and the median
over sequences of the largest child peak RSS.

--trace 1 (layers): see `traced.py`. It takes the time its fixed work
needs and ignores --seconds.

The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`. Everything measured,
with samples, the environment and every failed check, also goes to
`.bench_build/perfbench/results/`; the commands' outputs are kept only
when a check failed.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

from children import ROOT, SRC, THREAD_ENV, WORK

MIN_REPS = 3


def benchmark_spec() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)


def git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() or None


def src_digest() -> str:
    """Digest of the package sources, which names the code in a checkout
    that is not a git repository."""
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def environment() -> dict:
    import numpy
    import scipy

    from mflqg.sim import RNG_SCHEME

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_config": blas.get("openblas configuration"),
        "thread_env": THREAD_ENV,
        "git_commit": git_commit(),
        "src_sha256": src_digest(),
        "rng_scheme": RNG_SCHEME,
    }


def measure(session, seconds: float) -> tuple[dict, dict]:
    """End-to-end medians and the samples behind them.

    Each repetition runs one set-up child and then the workload's
    commands, so set-up samples are spread over the whole run like the
    command samples, and a slow minute of a shared machine weighs on both
    alike.
    """
    commands = session.workload.commands
    session.run_setup("warmup")  # fills the bytecode and file caches
    setup, cycles, peaks, reps = [], [], [], []
    walls = {cmd.metric: [] for cmd in commands}
    start = time.perf_counter()
    while len(reps) < MIN_REPS or (
            time.perf_counter() - start + statistics.median(reps) <= seconds):
        rep_start = time.perf_counter()
        tag = f"rep{len(reps)}"
        setup.append(session.run_setup(tag).wall_s)
        children = [session.run_command(cmd, tag) for cmd in commands]
        for cmd, child in zip(commands, children):
            walls[cmd.metric].append(child.wall_s)
        cycles.append(sum(child.wall_s for child in children))
        peaks.append(max(child.maxrss_mib for child in children))
        if reps:
            shutil.rmtree(session.dir / tag)
        reps.append(time.perf_counter() - rep_start)
    samples = {"setup_s": setup, **walls, "cycle_s": cycles, "peak_rss_mb": peaks}
    return {name: statistics.median(values) for name, values in samples.items()}, samples


def run_workload(name: str, seed: int, seconds: float, trace: bool, sizes=None) -> dict:
    """Measure one workload; the full record of the run."""
    from session import Session
    from workloads import FULL, workloads

    sizes = FULL if sizes is None else sizes
    session = Session(workloads(sizes)[name], seed, trace, sizes)
    if trace:
        from traced import measure_traced

        measured, details = measure_traced(session)
    else:
        measured, details = measure(session, seconds)
    spec = benchmark_spec()
    units = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    why = next(w["why"] for w in spec["workloads"] if w["name"] == name)
    record = {
        "correct": session.failed == 0,
        "attempted": session.attempted,
        "failed": session.failed,
        "metrics": {metric: {"value": measured[metric], "unit": unit}
                    for metric, unit in units.items()},
        "workload": {"name": name, "why": why, "seed": seed,
                     "trace": trace, **session.info},
        "failed_ops": session.failed / session.attempted,
        "measured": measured,
        "details": details,
        "problems": session.problems,
        "env": environment(),
    }
    results = WORK / "results" / f"{name}-seed{seed}-trace{int(trace)}.json"
    results.parent.mkdir(parents=True, exist_ok=True)
    results.write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")
    if session.failed == 0:  # outputs of a failed run stay for inspection
        shutil.rmtree(session.dir)
    return record


def print_record(record: dict) -> None:
    wl = record["workload"]
    print(f"== {wl['name']} seed={wl['seed']} trace={int(wl['trace'])} "
          f"fingerprint={wl['fingerprint']} T={wl['horizon']} n={wl['n_agents']} "
          f"d_x={wl['d_x']} mode={wl['observation_mode']}")
    print(f"   env: {json.dumps(record['env'], sort_keys=True)}")
    units = {name: m["unit"] for name, m in record["metrics"].items()}
    details = record["details"]
    for name, value in record["measured"].items():
        values = details.get(name)
        spread = (f"  n={len(values)} min={min(values):.6g} max={max(values):.6g}"
                  if isinstance(values, list) else "")
        unit = units.get(name, "s" if name.endswith("_s") else "")
        print(f"   {name:<28} {value:>14.6g} {unit}{spread}")
    for name, value in details.get("overhead_s", {}).items():
        print(f"   tracing overhead {name:<17} {value:>+14.6g} s  (replay "
              f"{details['replay_s'][name]:.6g} + import + start "
              f"{details['interpreter_start_s']:.6g} - CLI {details['cli_wall_s'][name]:.6g})")
    for layer, value in sorted(details.get("layer_self_s", {}).items()):
        print(f"   self time {layer:<24} {value:>14.6g} s")
    print(f"   failed_ops {record['failed']}/{record['attempted']} = {record['failed_ops']:.6g}")
    for problem in record["problems"]:
        print(f"   FAILED {problem}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        help="heater-mc, noisy-mc, big-population, or all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "mflqg" / "cli.py").is_file():
        print(f"error: no mflqg sources under {SRC}", file=sys.stderr)
        return 2
    os.environ.update(THREAD_ENV)  # before numpy loads BLAS in this process
    sys.path.insert(0, str(SRC))
    from workloads import workloads

    known = list(workloads())
    names = known if args.workload == "all" else [args.workload]
    if any(name not in known for name in names):
        parser.error(f"--workload must be one of {known} or all")

    records = [run_workload(name, args.seed, args.seconds, bool(args.trace)) for name in names]
    for record in records:
        print_record(record)
    if len(records) == 1:
        result = {key: records[0][key] for key in ("correct", "attempted", "failed", "metrics")}
    else:
        result = {
            "correct": all(r["correct"] for r in records),
            "attempted": sum(r["attempted"] for r in records),
            "failed": sum(r["failed"] for r in records),
            "metrics": {f"{r['workload']['name']}.{metric}": value
                        for r in records for metric, value in r["metrics"].items()},
        }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
