"""Shared builders for randomized test models, and reference checks of
the deviation / mean-field split on recorded traces and snapshots."""
from __future__ import annotations

import errno
import os
from dataclasses import dataclass, replace
from types import SimpleNamespace

import numpy as np

from mflqg import LqMeanFieldModel, SimulationTrace, build_model
from mflqg.linalg import FACTOR_CLIP, _matvec
from mflqg.noise import _draw_noise, _noise_factors
from mflqg.riccati import solve_control_riccati


# a scalar noisy model whose shipped law pays visibly more than the best
# linear one at small n (ROADMAP item 1's table is computed on it)
SMALL_NOISY_MODEL = dict(horizon=10, n_agents=2, A=0.95, B=1.0, D=0.3, Q=1.0, R=0.5, P=1.0,
                         Cx=1.0, Cz=0.4, Sigma_V=2.0, Sigma_X=4.0, Sigma_W=0.5, initial_mean=1.0,
                         observation_mode="noisy")


def rand_psd(rng: np.random.Generator, d: int, scale: float = 1.0) -> np.ndarray:
    G = rng.uniform(-1.0, 1.0, (d, d))
    return scale * (G @ G.T)


def rand_pd(rng: np.random.Generator, d: int, floor: float = 0.3) -> np.ndarray:
    return rand_psd(rng, d) + floor * np.eye(d)


def random_model(
    rng: np.random.Generator,
    *,
    horizon: int = 6,
    n_agents: int = 3,
    d_x: int = 2,
    d_u: int = 2,
    d_y: int | None = None,
    mode: str = "full",
    coupled: bool = True,
    noise_scale: float = 0.5,
) -> LqMeanFieldModel:
    """A well-conditioned random instance: PD R and noise, PSD weights,
    mildly contractive dynamics."""
    T = horizon
    d_y = d_x if d_y is None else d_y
    kwargs = {}
    if mode == "noisy":
        kwargs = {
            "Cx": rng.uniform(-1.0, 1.0, (T, d_y, d_x)),
            "Cz": rng.uniform(-0.5, 0.5, (T, d_y, d_x)),
            "Sigma_V": rand_pd(rng, d_y, floor=0.2),
        }
    return build_model(
        horizon=T,
        n_agents=n_agents,
        A=rng.uniform(-1.0, 1.0, (T, d_x, d_x)),
        B=rng.uniform(-1.0, 1.0, (T, d_x, d_u)),
        D=rng.uniform(-0.5, 0.5, (T, d_x, d_x)) if coupled else None,
        Q=np.stack([rand_psd(rng, d_x) for _ in range(T)]),
        R=np.stack([rand_pd(rng, d_u) for _ in range(T)]),
        P=np.stack([rand_psd(rng, d_x) for _ in range(T)]),
        Sigma_X=rand_pd(rng, d_x, floor=0.2),
        Sigma_W=rand_pd(rng, d_x, floor=0.1) * noise_scale,
        initial_mean=rng.uniform(-1.0, 1.0, d_x),
        observation_mode=mode,
        **kwargs,
    )


def repeated_horizon(model: LqMeanFieldModel, times: int) -> LqMeanFieldModel:
    """The model with its per-step stacks repeated `times` times: the same
    problem over a horizon `times` as long."""
    stacks = {name: np.tile(getattr(model, name), (times, 1, 1))
              for name in ("A", "B", "Q", "R", "D", "P", "Cx", "Cz")
              if getattr(model, name) is not None}
    return replace(model, horizon=times * model.horizon, **stacks)


def nan_solving_numpy() -> SimpleNamespace:
    """numpy as a module that imports it sees it, except that every
    `np.linalg.solve` answer is NaN: patched in as one module's `np`, it
    forces a non-finite result there and nowhere else."""
    linalg = SimpleNamespace(**{**vars(np.linalg),
                                "solve": lambda a, b: np.linalg.solve(a, b) * np.nan})
    return SimpleNamespace(**{**vars(np), "linalg": linalg})


def closed_form_cost(model: LqMeanFieldModel) -> float:
    """The optimal full-observation cost from the two d_x-sized recursions'
    value matrices alone: with S_X = Sigma_X, S_W = Sigma_W and mu = mu_X,
    J* = (1-1/n) tr(Mx_1 S_X) + mu' Mz_1 mu + tr(Mz_1 S_X)/n
         + sum_{t=2..T} [(1-1/n) tr(Mx_t S_W) + tr(Mz_t S_W)/n],
    the deviation part and the mean-field part of each noise term."""
    n, values = model.n_agents, solve_control_riccati(model)
    Mx, Mz, mu = values.Mx, values.Mz, model.mu_X

    def noise(k: int, cov: np.ndarray) -> float:
        return (1.0 - 1.0 / n) * np.trace(Mx[k] @ cov) + np.trace(Mz[k] @ cov) / n

    cost = float(mu @ Mz[0] @ mu + noise(0, model.Sigma_X))
    return cost + sum(noise(k, model.Sigma_W) for k in range(1, model.horizon))


def filling_open(room: int):
    """An `open` for a disk that fills: each file it opens takes `room`
    characters (bytes, in binary mode), and a write past them raises
    ENOSPC."""
    def limited_open(*args, **kwargs):
        fh = open(*args, **kwargs)
        write, left = fh.write, [room]

        def limited(text):
            left[0] -= len(text)
            if left[0] < 0:
                raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
            return write(text)

        fh.write = limited
        return fh

    return limited_open


def rel_err(value: float, reference: float) -> float:
    denom = abs(reference)
    return abs(value - reference) / denom if denom > 0 else abs(value - reference)


V1_KEY_SALT = 0x9E3779B97F4A7C15


def v1_factor(cov: np.ndarray) -> np.ndarray:
    """The square factor RNG_SCHEME v1 sampled through: eigenvectors scaled
    by the square roots of the FACTOR_CLIP-clipped eigenvalues, C-ordered."""
    eigvals, eigvecs = np.linalg.eigh((cov + cov.T) / 2.0)
    top = max(float(eigvals[-1]), 0.0)
    return eigvecs * np.sqrt(np.where(eigvals > FACTOR_CLIP * top, eigvals, 0.0))


def v1_run_normals(model: LqMeanFieldModel, seed: int, run: int):
    """The raw normals (init, process, observation or None) of one run under
    RNG_SCHEME philox4x64-runkind-v1: a new Philox per (run, kind) with key
    and counter given as lists (numpy converts them through float64 once a
    word reaches 2**63), and d normals per (step, agent) for a d x d
    covariance."""

    def normals(kind, shape):
        bits = np.random.Philox(key=[seed, V1_KEY_SALT], counter=[0, 0, run, kind])
        return np.random.Generator(bits).standard_normal(shape)

    T, n = model.horizon, model.n_agents
    noisy = model.observation_mode == "noisy"
    return (normals(0, (n, model.d_x)), normals(1, (T - 1, n, model.d_x)),
            normals(2, (T, n, model.d_y)) if noisy else None)


def v1_run_noise(model: LqMeanFieldModel, seed: int, run: int):
    """(x1, w, v) of one run under RNG_SCHEME v1: its `v1_run_normals`
    mapped through their `v1_factor`s by matmul."""
    init, process, obs = v1_run_normals(model, seed, run)
    x1 = model.mu_X + init @ v1_factor(model.Sigma_X).T
    w = process @ v1_factor(model.Sigma_W).T
    v = None if obs is None else obs @ v1_factor(model.Sigma_V).T
    return x1, w, v


def declared_map(normals: np.ndarray, factor: np.ndarray) -> np.ndarray:
    """Normals (..., r) mapped through a (d, r) factor as RNG_SCHEME v3
    declares it: component i is the left-to-right sum of the rounded
    products factor[i, j] * normals[..., j]."""
    mapped = normals[..., 0, None] * factor[:, 0]
    for j in range(1, factor.shape[1]):
        mapped = mapped + normals[..., j, None] * factor[:, j]
    return mapped


def run_noise(model: LqMeanFieldModel, seed: int, run: int):
    """The process noise (T-1, n, d_x) and the observation noise (T, n, d_y),
    or None, of one run as the closed loop adds them: the normals that
    `noise._draw_noise` draws, mapped through the rank-sized factors by
    `linalg._matvec`."""
    T, n = model.horizon, model.n_agents
    Lx, Lw, Lv = _noise_factors(model)
    wide = max(model.d_x, model.d_y)
    w, v = (None if L is None else np.empty((L.shape[1], 1, steps, n))
            for L, steps in ((Lw, T - 1), (Lv, T)))
    _draw_noise(model, seed, run, Lx, np.empty((model.d_x, 1, n)), w, v,
                np.empty((model.d_x, 1, n)), np.empty((wide, 1, n)))

    def mapped(normals, L):
        out = np.empty((L.shape[0], *normals.shape[2:]))
        _matvec(out, L, normals[:, 0], np.empty_like(out))
        return np.moveaxis(out, 0, -1)

    return mapped(w, Lw), None if v is None else mapped(v, Lv)


# ---------------------------------------------------------------------------
# population cost and mean

def mean_over_agents(values: np.ndarray) -> np.ndarray:
    """Population average of (n, d) values as the closed loop takes it:
    np.add.reduce of each component's contiguous row of n agents, over n."""
    return np.add.reduce(np.ascontiguousarray(values.T), axis=-1) / values.shape[0]


def step_cost(
    states: np.ndarray,
    actions: np.ndarray,
    meanfield: np.ndarray,
    Q: np.ndarray,
    R: np.ndarray,
    P: np.ndarray,
) -> float:
    """Per-step population cost on a snapshot: agent-average quadratics plus
    the mean-field penalty."""
    quad = np.einsum("id,de,ie->i", states, Q, states)
    quad = quad + np.einsum("id,de,ie->i", actions, R, actions)
    agent_avg = np.add.reduce(quad) / states.shape[0]
    return float(agent_avg + meanfield @ P @ meanfield)


# ---------------------------------------------------------------------------
# auxiliary coordinates

@dataclass(frozen=True, eq=False)
class AuxiliaryTrace:
    """A trace re-expressed as per-agent deviations plus the mean-field path.

    The residual fields report how exactly the recorded trajectory
    satisfies the decoupled deviation and mean-field dynamics when the
    run's noise (`run_noise`) is substituted back in.
    """

    deviations: np.ndarray          # (T, n, d_x), x^i - z
    deviation_controls: np.ndarray  # (T, n, d_u), u^i - u^z
    meanfield: np.ndarray           # (T, d_x)
    mean_control: np.ndarray        # (T, d_u)
    max_sum_residual_state: float
    max_sum_residual_control: float
    max_deviation_residual: float
    max_meanfield_residual: float


def decompose_auxiliary(trace: SimulationTrace) -> AuxiliaryTrace:
    """Split a trace into deviation and mean-field coordinates and verify
    both closed-form dynamics against the run's noise."""
    model = trace.model
    T = model.horizon
    process_noise = run_noise(model, trace.seed, trace.run)[0]
    xbar = trace.states - trace.meanfield[:, np.newaxis, :]
    ubar = trace.actions - trace.mean_control[:, np.newaxis, :]

    sum_state = float(np.max(np.abs(np.add.reduce(xbar, axis=1))))
    sum_control = float(np.max(np.abs(np.add.reduce(ubar, axis=1))))

    dev_res = 0.0
    mf_res = 0.0
    for k in range(T - 1):
        w_mean = mean_over_agents(process_noise[k])
        w_dev = process_noise[k] - w_mean
        pred_dev = xbar[k] @ model.A[k].T + ubar[k] @ model.B[k].T + w_dev
        dev_res = max(dev_res, float(np.max(np.abs(xbar[k + 1] - pred_dev))))
        abar = model.A[k] + model.D[k]
        pred_mf = abar @ trace.meanfield[k] + model.B[k] @ trace.mean_control[k] + w_mean
        mf_res = max(mf_res, float(np.max(np.abs(trace.meanfield[k + 1] - pred_mf))))

    return AuxiliaryTrace(
        deviations=xbar,
        deviation_controls=ubar,
        meanfield=trace.meanfield.copy(),
        mean_control=trace.mean_control.copy(),
        max_sum_residual_state=sum_state,
        max_sum_residual_control=sum_control,
        max_deviation_residual=dev_res,
        max_meanfield_residual=mf_res,
    )


def cost_identity_check(
    states: np.ndarray,
    actions: np.ndarray,
    Q: np.ndarray,
    R: np.ndarray,
    P: np.ndarray,
) -> tuple[float, float]:
    """Evaluate one population snapshot's cost two ways.

    Returns (direct, decomposed): the agent-average quadratic plus
    mean-field penalty, and the same cost written in deviation coordinates
    plus mean-field terms. The two agree up to rounding for any snapshot.
    """
    x = np.asarray(states, dtype=float)
    u = np.asarray(actions, dtype=float)
    z = mean_over_agents(x)
    uz = mean_over_agents(u)
    return (step_cost(x, u, z, Q, R, P),
            step_cost(x - z, u - uz, z, Q, R, Q + P) + float(uz @ R @ uz))
