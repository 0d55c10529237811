"""Shared builders for randomized test models."""
from __future__ import annotations

import numpy as np

from mflqg import LqMeanFieldModel, build_model
from mflqg.linalg import FACTOR_CLIP


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


def v1_run_noise(model: LqMeanFieldModel, seed: int, run: int):
    """(x1, w, v) of one run under RNG_SCHEME philox4x64-runkind-v1: a new
    Philox per (run, kind) with key and counter given as lists (numpy
    converts them through float64 once a word reaches 2**63), and d normals
    per (step, agent) for a d x d covariance, mapped through its `v1_factor`."""

    def normals(kind, shape):
        bits = np.random.Philox(key=[seed, V1_KEY_SALT], counter=[0, 0, run, kind])
        return np.random.Generator(bits).standard_normal(shape)

    T, n = model.horizon, model.n_agents
    x1 = model.mu_X + normals(0, (n, model.d_x)) @ v1_factor(model.Sigma_X).T
    w = normals(1, (T - 1, n, model.d_x)) @ v1_factor(model.Sigma_W).T
    v = None
    if model.observation_mode == "noisy":
        v = normals(2, (T, n, model.d_y)) @ v1_factor(model.Sigma_V).T
    return x1, w, v
