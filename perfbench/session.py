"""One benchmark run of one workload: its inputs, work directory and the
tally of operations attempted and failed.

An operation is one child process (a CLI command, a set-up, an import
timing) or one in-process step (a replayed command, the two-worker Monte
Carlo check). It fails on a nonzero exit code or on any failed output
check, including outputs that differ from the first run of the same
command in this run.
"""
from __future__ import annotations

import shutil
import uuid
from pathlib import Path

from checks import check_outputs, compare_digests, digests
from children import WORK, Child, exit_problems, run_child
from workloads import FULL, Command, Sizes, Workload, expected_shape, write_model

SETUP_CODE = "import sys, mflqg.cli as cli; cli.load_model(sys.argv[1])"


class Session:
    def __init__(self, workload: Workload, seed: int, trace: bool, sizes: Sizes = FULL):
        self.workload = workload
        self.seed = seed
        self.cli_seed = seed % 2**64
        self.run_id = f"{workload.name}-s{seed}-{uuid.uuid4().hex[:8]}"
        self.dir = WORK / f"{workload.name}-seed{seed}-trace{int(trace)}"
        shutil.rmtree(self.dir, ignore_errors=True)
        self.dir.mkdir(parents=True)
        self.model_path = self.dir / "model.json"
        self.info = write_model(workload, self.cli_seed, self.model_path, sizes)
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self._digests: dict[str, dict[str, str]] = {}

    def args(self, cmd: Command, out: Path) -> list[str]:
        return cmd.args(self.model_path, self.cli_seed, out)

    def record(self, label: str, problems: list[str]) -> bool:
        """Count one operation; True if it succeeded."""
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems += [f"{label}: {problem}" for problem in problems]
        return not problems

    def check(self, cmd: Command, out: Path, exit_code: int) -> list[str]:
        if exit_code != 0:
            return [f"exit code {exit_code}"]
        problems = check_outputs(cmd.name, out, expected_shape(cmd, self.info),
                                 self.info["observation_mode"] == "full")
        if not problems:
            again = digests(out)
            problems = compare_digests(self._digests.setdefault(cmd.name, again), again)
        return problems

    def run_command(self, cmd: Command, tag: str) -> Child:
        out = self.dir / tag / cmd.name
        child = run_child(["-m", "mflqg.cli", *self.args(cmd, out)], out / "cli.log")
        self.record(f"{tag} {cmd.name}", self.check(cmd, out, child.exit_code))
        return child

    def run_setup(self, tag: str) -> Child:
        """A fresh interpreter that imports the CLI and loads the model."""
        child = run_child(["-c", SETUP_CODE, str(self.model_path)], self.dir / "setup" / f"{tag}.log")
        self.record(f"setup {tag}", exit_problems(child))
        return child
