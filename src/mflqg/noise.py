"""The randomness contract, named and versioned by RNG_SCHEME.

Every draw comes from a counter-based Philox stream with key (seed,
0x9E3779B97F4A8000) and counter (0, 0, run, kind), exact uint64 words, so
every seed and run in [0, 2**64) names its own stream. Initial states,
process and observation noise are separate kinds, so full- and
noisy-observation simulations of a model and seed share their state noise.
A kind of covariance rank r draws r normals per (step, agent), in (step,
agent, direction) order, so directions a covariance does not excite draw
nothing; a full-rank covariance draws the normals of schemes v1 and v2.
The normals are mapped through the r kept columns of the covariance's
`psd_factor` by `linalg._matvec`'s declared left-to-right sum (v3; v2
mapped them by a BLAS product), the process and observation noise one step
at a time as the closed loop adds them. A chunk of runs re-points one
generator at each (run, kind), which draws what a new generator would,
and fills each (run, kind) with one draw.
"""
from __future__ import annotations

import numpy as np

from .errors import ValidationError
from .linalg import _matvec, psd_factor
from .model import LqMeanFieldModel, _whole

RNG_SCHEME = "philox4x64-runkind-v3"
_KEY_SALT = 0x9E3779B97F4A8000
_KIND_INIT = 0
_KIND_PROCESS = 1
_KIND_OBS = 2


def _stream_word(value, name: str) -> int:
    """A seed or run index: a whole number that fits one Philox word."""
    word = _whole(value, name)
    if not 0 <= word < 2**64:
        raise ValidationError(f"{name} must be in [0, 2**64), got {word}")
    return word


def _counter(run: int, kind: int) -> np.ndarray:
    """Philox counter of one (run, kind), exact in every word."""
    return np.array([0, 0, run, kind], dtype=np.uint64)


def _substream(seed: int, run: int, kind: int) -> np.random.Generator:
    """Philox stream for one (run, kind); the low counter word is left free
    for in-stream consumption, so substreams can never overlap."""
    key = np.array([seed, _KEY_SALT], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key, counter=_counter(run, kind)))


def _reusable_substream(seed: int):
    """`_substream(seed, run, kind)` as a function of (run, kind) that
    re-points one generator: a Philox stream is named by its key and
    counter, so a counter set with an empty buffer draws what a new
    generator would. Each call invalidates the generator of the last."""
    generator = _substream(seed, 0, _KIND_INIT)
    bits = generator.bit_generator
    fresh = bits.state

    def point(run: int, kind: int) -> np.random.Generator:
        fresh["state"]["counter"] = _counter(run, kind)
        bits.state = fresh
        return generator

    return point


def _noise_factors(model: LqMeanFieldModel):
    """Rank-sized factors of the three noise covariances (observation last,
    or None), factored once and kept on the model for its forked workers."""
    if "_noise_factors" not in vars(model):
        Lv = psd_factor(model.Sigma_V) if model.observation_mode == "noisy" else None
        object.__setattr__(model, "_noise_factors",
                           (psd_factor(model.Sigma_X), psd_factor(model.Sigma_W), Lv))
    return model._noise_factors


def _draw_noise(model: LqMeanFieldModel, seed: int, first_run: int, Lx, x, w, v, scratch,
                tmp):
    """Fill the planes x with the initial states of runs first_run.., and the
    run-major blocks w, (runs, T-1, n, rank), and v, (runs, T, n, rank) or
    None, with the raw normals of their process and observation noise. Run
    i's slice of a block is its stream's (step, agent, direction) order, so
    one fill per (run, kind) draws it in place. The initial normals are
    drawn into `scratch`, mapped, and shifted by mu_X. Returns the blocks'
    component-first views, (rank, runs, steps, n), or None."""
    runs, n = x.shape[1:]
    substream = _reusable_substream(seed)
    normals = scratch.reshape(-1)[:runs * n * Lx.shape[1]].reshape(runs, n, -1)
    for i in range(runs):
        for kind, block in ((_KIND_INIT, normals), (_KIND_PROCESS, w), (_KIND_OBS, v)):
            if block is not None:
                substream(first_run + i, kind).standard_normal(out=block[i])
    _matvec(x, Lx, np.moveaxis(normals, -1, 0), tmp)
    x += model.mu_X[:, None, None]
    return tuple(None if block is None else np.moveaxis(block, -1, 0) for block in (w, v))
