"""Correctness checks on the files one `mflqg` command wrote.

Each check returns the list of problems it found; an empty list means the
command's outputs are correct. No digits are pinned: the checks hold for
any correct program, so a change that legitimately moves the numbers
(a new RNG scheme, a fixed estimator) still passes.
"""
from __future__ import annotations

import hashlib
import json
import math
import re
from pathlib import Path

import numpy as np

# files each command must write
OUTPUTS = {
    "solve": ("gains.json",),
    "simulate": ("trace_agents.csv", "trace_meanfield.csv", "summary.json"),
    "evaluate": ("evaluate.json",),
    "verify": ("verify.json",),
    "preset-heater": ("model.json", "gains.json", "trace_agents.csv",
                      "trace_meanfield.csv", "summary.json"),
}
# files whose bytes must repeat for the same (model, seed, command)
DETERMINISTIC = ("trace_agents.csv", "trace_meanfield.csv", "evaluate.json")
# |Monte Carlo mean - exact cost| may be at most this many standard errors
MC_Z_LIMIT = 4.0
_NONFINITE_CSV = re.compile(rb"nan|inf", re.IGNORECASE)


def _reject_constant(name: str):
    raise ValueError(f"non-finite JSON number {name}")


def _finite_float(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"non-finite JSON number {text}")
    return value


def _load_json(path: Path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh, parse_constant=_reject_constant, parse_float=_finite_float)


def check_outputs(command: str, out: Path, shape: tuple[int, int], full_mode: bool) -> list[str]:
    """Problems in the outputs of `command` written to `out`.

    `shape` is the (T, n) of the trace a simulating command must write;
    `full_mode` says whether the model has full observation, which makes
    an exact cost available to compare Monte Carlo against.
    """
    problems = []
    docs = {}
    for name in OUTPUTS[command]:
        path = out / name
        if not path.is_file():
            problems.append(f"{name} missing")
            continue
        if name.endswith(".json"):
            try:
                docs[name] = _load_json(path)
            except ValueError as exc:
                problems.append(f"{name}: {exc}")
        elif _NONFINITE_CSV.search(path.read_bytes()):
            problems.append(f"{name} holds a NaN or inf")
    if problems:
        return problems

    if "trace_agents.csv" in OUTPUTS[command]:
        problems += _check_trace(out, docs["summary.json"], shape)
    if "gains.json" in docs:
        gains = docs["gains.json"]
        terminal = gains["gains"][str(gains["horizon"])]
        if np.any(np.asarray(terminal["Kx"])) or np.any(np.asarray(terminal["Kz"])):
            problems.append("gains.json: terminal gains are not zero")
    if "verify.json" in docs and docs["verify.json"].get("passed") is not True:
        problems.append("verify.json: passed is not true")
    if "evaluate.json" in docs:
        problems += _check_evaluate(docs["evaluate.json"], full_mode)
    return problems


def _check_trace(out: Path, summary: dict, shape: tuple[int, int]) -> list[str]:
    problems = []
    T, n = shape
    with open(out / "trace_agents.csv", "rb") as fh:
        rows = sum(1 for _ in fh) - 1
    if rows != T * n:
        problems.append(f"trace_agents.csv has {rows} data rows, expected T*n = {T * n}")
    with open(out / "trace_meanfield.csv", encoding="utf-8") as fh:
        header = fh.readline().rstrip("\n").split(",")
        column = header.index("step_cost")
        step_costs = np.array([float(line.split(",")[column]) for line in fh])
    total = float(np.add.reduce(step_costs))
    if not math.isclose(total, summary["total_cost"], rel_tol=1e-12, abs_tol=1e-12):
        problems.append(
            f"step_cost column sums to {total!r}, summary.json total_cost is "
            f"{summary['total_cost']!r}"
        )
    return problems


def _check_evaluate(report: dict, full_mode: bool) -> list[str]:
    if not full_mode:
        return []
    exact = report.get("exact_cost")
    if exact is None:
        return ["evaluate.json: no exact cost for a full-observation model"]
    gap = abs(report["monte_carlo_mean"] - exact)
    limit = MC_Z_LIMIT * report["monte_carlo_stderr"]
    if not gap <= limit:
        return [f"evaluate.json: |MC - exact| = {gap:.6g} exceeds {MC_Z_LIMIT:g} stderr "
                f"({limit:.6g})"]
    return []


def digests(out: Path) -> dict[str, str]:
    """sha256 of every output that must be byte-identical on a repeat."""
    return {
        name: hashlib.sha256((out / name).read_bytes()).hexdigest()
        for name in DETERMINISTIC
        if (out / name).is_file()
    }


def compare_digests(first: dict[str, str], again: dict[str, str]) -> list[str]:
    return [f"{name} differs from the first run of this command"
            for name in sorted(first) if again.get(name) != first[name]]
