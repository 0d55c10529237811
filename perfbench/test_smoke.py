"""Smoke test of the benchmark at a tiny size (T=4, n=3, 64 Monte Carlo runs).

    python3 -m pytest perfbench/test_smoke.py

Every workload runs in both modes; the test asserts that every metric
BENCHMARK.json names is emitted and that every output check passes. No
timing is asserted.
"""
from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from children import ROOT, SRC

sys.path.insert(0, str(SRC))

import run  # noqa: E402
from checks import check_outputs, compare_digests, digests  # noqa: E402
from session import Session  # noqa: E402
from workloads import TINY, expected_shape, workloads  # noqa: E402

SPEC = run.benchmark_spec()
HERE = Path(__file__).resolve().parent


@pytest.mark.parametrize("trace", [False, True], ids=["end_to_end", "per_layer"])
@pytest.mark.parametrize("name", [w["name"] for w in SPEC["workloads"]])
def test_tiny_workload_emits_every_metric_and_passes_every_check(name, trace):
    record = run.run_workload(name, seed=3, seconds=0, trace=trace, sizes=TINY)
    assert record["problems"] == []
    assert record["correct"] and record["failed"] == 0 and record["attempted"] > 0
    assert set(record["metrics"]) == {m["name"] for m in SPEC["per_layer" if trace
                                                           else "end_to_end"]}
    assert all(math.isfinite(m["value"]) for m in record["metrics"].values())


def test_spec_metric_map_and_workloads_agree():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads())
    with open(HERE / "metric_map.json", encoding="utf-8") as fh:
        metric_map = json.load(fh)["metrics"]
    assert set(metric_map) == {m["name"] for m in SPEC["per_layer"]}
    end_to_end = {m["name"] for m in SPEC["end_to_end"]}
    names = set(workloads())
    for entry in metric_map.values():
        assert set(entry["moves"]) <= end_to_end
        assert set(entry["workloads"]) <= names


def test_checks_catch_broken_outputs(tmp_path):
    workload = workloads(TINY)["big-population"]
    session = Session(workload, 5, False, TINY)
    outs = {}
    for cmd in workload.commands:
        session.run_command(cmd, "rep0")
        outs[cmd.name] = session.dir / "rep0" / cmd.name
    assert session.problems == []

    def broken(command: str, edit) -> list[str]:
        copy = tmp_path / command
        shutil.rmtree(copy, ignore_errors=True)
        shutil.copytree(outs[command], copy)
        edit(copy)
        cmd = workload.command(command)
        return check_outputs(command, copy, expected_shape(cmd, session.info), True)

    def replace_text(path: Path, old: str, new: str) -> None:
        text = path.read_text(encoding="utf-8")
        assert old in text
        path.write_text(text.replace(old, new, 1), encoding="utf-8")

    def edit_json(path: Path, edit) -> None:
        doc = json.loads(path.read_text(encoding="utf-8"))
        edit(doc)
        path.write_text(json.dumps(doc), encoding="utf-8")

    def drop_last_row(path: Path) -> None:
        lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
        path.write_text("".join(lines[:-1]), encoding="utf-8")

    def set_terminal_gain(doc: dict) -> None:
        doc["gains"][str(doc["horizon"])]["Kx"][0][0] = 1.0

    assert broken("simulate", lambda d: drop_last_row(d / "trace_agents.csv"))
    assert broken("simulate", lambda d: replace_text(d / "trace_agents.csv", "\n1,0,", "\n1,0,nan,"))
    assert broken("simulate", lambda d: edit_json(
        d / "summary.json", lambda doc: doc.update(total_cost=doc["total_cost"] + 1.0)))
    assert broken("verify", lambda d: edit_json(d / "verify.json",
                                                lambda doc: doc.update(passed=False)))
    assert broken("evaluate", lambda d: edit_json(d / "evaluate.json",
                                                  lambda doc: doc.update(monte_carlo_stderr=0.0)))
    assert broken("evaluate", lambda d: edit_json(d / "evaluate.json",
                                                  lambda doc: doc.update(exact_cost=None)))
    assert broken("solve", lambda d: edit_json(d / "gains.json", set_terminal_gain))
    assert broken("solve", lambda d: (d / "gains.json").unlink())

    first = digests(outs["simulate"])
    again_dir = tmp_path / "again"
    shutil.copytree(outs["simulate"], again_dir)
    replace_text(again_dir / "trace_meanfield.csv", "\n1,", "\n1,1")
    assert compare_digests(first, digests(again_dir))


def test_refuses_to_run_without_the_package_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "heater-mc", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert done.returncode != 0
    assert "correct" not in done.stdout
