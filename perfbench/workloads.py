"""Workloads of the mflqg benchmark and the model files they feed the CLI.

Each workload is a model file plus the CLI commands run on it, in order.
The workloads separate work that grows with the population size n
(closed-loop kernel, CSV export, stacked oracle) from work that does not
(the two control recursions, the filter recursion, the import):

- heater-mc: the heater preset at its own size; Monte Carlo with many
  small runs dominates, export and oracle are nearly idle.
- noisy-mc: a seeded random noisy-observation model; the only workload
  with the filter recursion and the observation noise substream.
- big-population: the heater model with large --n overrides; the
  kernel, the CSV export and the stacked oracle dominate.

The benchmark seed builds the inputs; the program only sees the model
file and the --seed passed on its command line.
"""
from __future__ import annotations

from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from mflqg import HEATER, build_model, heater_model, save_model, validate_model


@dataclass(frozen=True)
class Command:
    """One `mflqg` subcommand with its size flags."""

    name: str
    n: int | None = None
    runs: int | None = None

    @property
    def metric(self) -> str:
        return self.name.replace("-", "_") + "_s"

    def args(self, model: Path, seed: int, out: Path) -> list[str]:
        argv = [self.name]
        if self.name != "preset-heater":
            argv += ["--model", str(model)]
        argv += ["--seed", str(seed), "--out", str(out)]
        if self.n is not None:
            argv += ["--n", str(self.n)]
        if self.runs is not None:
            argv += ["--runs", str(self.runs)]
        return argv


@dataclass(frozen=True)
class Workload:
    name: str
    model: str                    # "heater" or "noisy"
    commands: tuple[Command, ...]

    def command(self, name: str) -> Command:
        return next(cmd for cmd in self.commands if cmd.name == name)


@dataclass(frozen=True)
class Sizes:
    """Problem sizes; FULL is the benchmark, TINY is for the smoke test."""

    heater_horizon: int | None   # None keeps the preset's T = 90
    heater_n: int | None         # None keeps the preset's n = 30
    noisy_horizon: int
    noisy_n: int
    heater_runs: int
    noisy_runs: int
    big_n: int
    big_runs: int
    verify_n: int


FULL = Sizes(
    heater_horizon=None, heater_n=None, noisy_horizon=50, noisy_n=100,
    heater_runs=4096, noisy_runs=1024, big_n=2000, big_runs=32, verify_n=100,
)
# 64 runs keep the Monte Carlo check (|MC - exact| <= 4 stderr) meaningful:
# with a handful of runs the stderr estimate itself is too noisy
TINY = Sizes(
    heater_horizon=4, heater_n=3, noisy_horizon=4, noisy_n=3,
    heater_runs=64, noisy_runs=64, big_n=5, big_runs=64, verify_n=2,
)

def workloads(sizes: Sizes = FULL) -> dict[str, Workload]:
    items = [
        Workload("heater-mc", "heater", (
            Command("preset-heater", n=sizes.heater_n),
            Command("solve"),
            Command("simulate"),
            Command("evaluate", runs=sizes.heater_runs),
            Command("verify"),
        )),
        Workload("noisy-mc", "noisy", (
            Command("solve"),
            Command("simulate"),
            Command("evaluate", runs=sizes.noisy_runs),
        )),
        Workload("big-population", "heater", (
            Command("solve"),
            Command("simulate", n=sizes.big_n),
            Command("evaluate", n=sizes.big_n, runs=sizes.big_runs),
            Command("verify", n=sizes.verify_n),
        )),
    ]
    return {w.name: w for w in items}


def _rand_psd(rng: np.random.Generator, d: int) -> np.ndarray:
    G = rng.uniform(-1.0, 1.0, (d, d))
    return G @ G.T


def noisy_model(seed: int, horizon: int = 50, n_agents: int = 100,
                d_x: int = 4, d_u: int = 2, d_y: int = 2):
    """A well-conditioned random noisy-observation model.

    Every matrix, the coupling D included, is drawn from the seed; D is
    not zeroed, so any estimator that drops the D z term shows up here.
    A is scaled so its spectral radius is typically just below one.
    """
    rng = np.random.default_rng(seed)
    T = horizon
    return build_model(
        horizon=T,
        n_agents=n_agents,
        A=0.8 * rng.uniform(-1.0, 1.0, (T, d_x, d_x)),
        B=rng.uniform(-1.0, 1.0, (T, d_x, d_u)),
        D=rng.uniform(-0.5, 0.5, (T, d_x, d_x)),
        Q=np.stack([_rand_psd(rng, d_x) for _ in range(T)]),
        R=np.stack([_rand_psd(rng, d_u) + 0.3 * np.eye(d_u) for _ in range(T)]),
        P=np.stack([_rand_psd(rng, d_x) for _ in range(T)]),
        Cx=rng.uniform(-1.0, 1.0, (T, d_y, d_x)),
        Cz=rng.uniform(-0.5, 0.5, (T, d_y, d_x)),
        Sigma_X=_rand_psd(rng, d_x) + 0.2 * np.eye(d_x),
        Sigma_W=0.5 * (_rand_psd(rng, d_x) + 0.1 * np.eye(d_x)),
        Sigma_V=_rand_psd(rng, d_y) + 0.2 * np.eye(d_y),
        initial_mean=rng.uniform(-1.0, 1.0, d_x),
        observation_mode="noisy",
    )


def _resize(model, horizon: int | None, n_agents: int | None):
    """The model cut to its first `horizon` steps and given `n_agents`."""
    T = model.horizon if horizon is None else horizon
    stacks = {
        key: getattr(model, key)[:T]
        for key in ("A", "B", "D", "Q", "R", "P", "Cx", "Cz")
        if getattr(model, key) is not None
    }
    n = model.n_agents if n_agents is None else n_agents
    return validate_model(replace(model, horizon=T, n_agents=n, **stacks))


def write_model(workload: Workload, seed: int, path: Path, sizes: Sizes = FULL) -> dict:
    """Write the workload's model JSON; return its fingerprint and sizes."""
    if workload.model == "heater":
        model = _resize(heater_model(), sizes.heater_horizon, sizes.heater_n)
    else:
        model = noisy_model(seed, horizon=sizes.noisy_horizon, n_agents=sizes.noisy_n)
    save_model(model, path)
    return {
        "fingerprint": model.fingerprint(),
        "horizon": model.horizon,
        "n_agents": model.n_agents,
        "d_x": model.d_x,
        "d_u": model.d_u,
        "d_y": model.d_y,
        "observation_mode": model.observation_mode,
    }


def expected_shape(cmd: Command, info: dict) -> tuple[int, int]:
    """(T, n) of the trace a simulating command should write."""
    if cmd.name == "preset-heater":
        return HEATER["horizon"], HEATER["n_agents"] if cmd.n is None else cmd.n
    return info["horizon"], info["n_agents"] if cmd.n is None else cmd.n
