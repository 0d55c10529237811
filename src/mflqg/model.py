"""Problem data for populations of identical mean-field coupled subsystems.

A model describes n exchangeable linear subsystems

    x^i_{t+1} = A_t x^i_t + B_t u^i_t + D_t z_t + w^i_t,      z_t = mean_i x^i_t,

with per-step cost

    c_t = (1/n) sum_i [x^i' Q_t x^i + u^i' R_t u^i] + z' P_t z,

over steps t = 1..T. All per-step matrix stacks are indexed so that step t
lives at array index t-1. Matrices may be supplied once (constant in t) or
as length-T sequences; constants are broadcast. `LqMeanFieldModel`
construction is the one place where such inputs are shaped, read for the
dimensions and checked; `build_model` is its keyword form.

Also here: the state augmentation that turns a reference-tracking
objective into a canonical model.
"""
from __future__ import annotations

import hashlib
import json
import os
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import DimensionMismatch, ModelFormatError, ValidationError
from .linalg import assert_pd, assert_psd, symmetrize

OBSERVATION_MODES = ("full", "noisy")


def _whole(value, name: str) -> int:
    """A whole number as an int (30.0 counts as 30; 2.5, "3" and True do not).

    NaN and infinite values raise ValueError and OverflowError from int().
    """
    count = int(value)
    if count != value or isinstance(value, (bool, np.bool_)):
        raise ValidationError(f"{name} must be a whole number, got {value!r}")
    return count


def _count(value, name: str) -> int:
    """A horizon or population size: a whole number >= 1."""
    count = _whole(value, name)
    if count < 1:
        raise ValidationError(f"{name} must be >= 1, got {count}")
    return count


def _dim(value, axis: int, name: str) -> int:
    """Size of `axis` (0 rows, 1 columns) of a scalar, a matrix or a
    per-step sequence of matrices (a vector holds one scalar per step)."""
    arr = np.asarray(value, dtype=float)
    if arr.ndim <= 1:
        return 1
    if arr.ndim in (2, 3):
        return arr.shape[arr.ndim - 2 + axis]
    raise DimensionMismatch(f"{name} has {arr.ndim} dimensions, expected a matrix or a sequence")


def _stack(value, horizon: int, rows: int, cols: int, name: str) -> np.ndarray:
    """Normalize a finite matrix input to shape (horizon, rows, cols).

    Accepts a scalar (1x1 only), a single matrix broadcast over time, or a
    length-`horizon` sequence of matrices (of scalars, if 1x1).
    """
    arr = np.asarray(value, dtype=float)
    if arr.ndim == 0:
        arr = arr.reshape(1, 1)
    if arr.ndim == 1 and rows == 1 and cols == 1 and arr.shape[0] == horizon:
        arr = arr.reshape(horizon, 1, 1)
    if arr.shape == (rows, cols):
        arr = np.broadcast_to(arr, (horizon, rows, cols))
    if arr.shape != (horizon, rows, cols):
        raise DimensionMismatch(
            f"{name} has shape {arr.shape}, expected ({rows}, {cols}) or ({horizon}, {rows}, {cols})"
        )
    return _finite(arr.copy(), name)


def _vector(value, dim: int, name: str) -> np.ndarray:
    arr = np.asarray(value, dtype=float)
    if arr.ndim == 0:
        arr = np.full(dim, float(arr))
    if arr.shape != (dim,):
        raise DimensionMismatch(f"{name} has shape {arr.shape}, expected ({dim},)")
    return _finite(arr.copy(), name)


def _square(value, dim: int, name: str) -> np.ndarray:
    arr = np.asarray(value, dtype=float)
    if arr.ndim == 0:
        arr = arr * np.eye(dim)
    if arr.shape != (dim, dim):
        raise DimensionMismatch(f"{name} has shape {arr.shape}, expected ({dim}, {dim})")
    return _finite(arr.copy(), name)


def _or(value, default):
    return default if value is None else value


def _finite(arr: np.ndarray, name: str) -> np.ndarray:
    if not np.isfinite(arr).all():
        raise ValidationError(f"{name} has a non-finite entry")
    return arr


def _definite(arr: np.ndarray, name: str, check=assert_psd) -> np.ndarray:
    """A weight or covariance, one matrix or a per-step stack, exactly
    symmetrized, each matrix passing `check` (step t of a stack is named
    `name_t`)."""
    if arr.ndim == 2:
        arr = symmetrize(arr, name)
        check(arr, name)
        return arr
    arr = np.stack([symmetrize(mat, f"{name}_{t}") for t, mat in enumerate(arr, 1)])
    for t, mat in enumerate(arr, 1):
        check(mat, f"{name}_{t}")
    return arr


@dataclass(frozen=True, eq=False)
class LqMeanFieldModel:
    """A validated problem instance.

    Construction, `build_model` and `dataclasses.replace` included, is the
    one place where inputs become a model. Each matrix input may be a
    scalar, a single matrix (constant in t) or a per-step sequence; the
    stored arrays have the shapes noted below. d_x, d_u and d_y are read
    from A, B and Cx (d_y = d_x without Cx) and cannot be set. Omitted D,
    P, covariances, mu_X and state_offset are zero. Every shape,
    finiteness and definiteness invariant is checked, and symmetric
    matrices are exactly symmetrized, so rebuilding a model from its own
    arrays changes nothing.
    """

    horizon: int
    n_agents: int
    A: np.ndarray                       # (T, d_x, d_x)
    B: np.ndarray                       # (T, d_x, d_u)
    Q: np.ndarray                       # (T, d_x, d_x)
    R: np.ndarray                       # (T, d_u, d_u)
    D: np.ndarray | None = None         # (T, d_x, d_x)
    P: np.ndarray | None = None         # (T, d_x, d_x)
    Sigma_X: np.ndarray | None = None   # (d_x, d_x)
    Sigma_W: np.ndarray | None = None   # (d_x, d_x)
    mu_X: np.ndarray | None = None      # (d_x,)
    observation_mode: str = "full"
    Cx: np.ndarray | None = None        # (T, d_y, d_x), noisy mode
    Cz: np.ndarray | None = None        # (T, d_y, d_x), noisy mode
    Sigma_V: np.ndarray | None = None   # (d_y, d_y), noisy mode
    # reporting-only additive shift: exported states are x + state_offset
    state_offset: np.ndarray | None = None
    d_x: int = field(init=False)
    d_u: int = field(init=False)
    d_y: int = field(init=False)

    def __post_init__(self):
        T = _count(self.horizon, "horizon")
        if self.observation_mode not in OBSERVATION_MODES:
            raise ValidationError(
                f"observation_mode must be one of {OBSERVATION_MODES}, got {self.observation_mode!r}"
            )
        noisy_inputs = (self.Cx, self.Cz, self.Sigma_V)
        if self.observation_mode == "noisy" and any(v is None for v in noisy_inputs):
            raise ValidationError("noisy observation_mode requires Cx, Cz, and Sigma_V")
        d_x, d_u = _dim(self.A, 0, "A"), _dim(self.B, 1, "B")
        d_y = d_x if self.Cx is None else _dim(self.Cx, 0, "Cx")
        if min(d_x, d_u, d_y) < 1:
            raise DimensionMismatch(f"d_x, d_u and d_y must be >= 1, got {d_x}, {d_u}, {d_y}")
        zeros = np.zeros((d_x, d_x))
        fields = {
            "horizon": T,
            "n_agents": _count(self.n_agents, "n_agents"),
            "d_x": d_x,
            "d_u": d_u,
            "d_y": d_y,
            "A": _stack(self.A, T, d_x, d_x, "A"),
            "B": _stack(self.B, T, d_x, d_u, "B"),
            "D": _stack(_or(self.D, zeros), T, d_x, d_x, "D"),
            "Q": _definite(_stack(self.Q, T, d_x, d_x, "Q"), "Q"),
            "R": _definite(_stack(self.R, T, d_u, d_u, "R"), "R", assert_pd),
            "P": _definite(_stack(_or(self.P, zeros), T, d_x, d_x, "P"), "P"),
            "Sigma_X": _definite(_square(_or(self.Sigma_X, 0.0), d_x, "Sigma_X"), "Sigma_X"),
            "Sigma_W": _definite(_square(_or(self.Sigma_W, 0.0), d_x, "Sigma_W"), "Sigma_W"),
            "mu_X": _vector(_or(self.mu_X, 0.0), d_x, "initial_mean"),
            "state_offset": _vector(_or(self.state_offset, 0.0), d_x, "state_offset"),
        }
        if self.Cx is not None:
            fields["Cx"] = _stack(self.Cx, T, d_y, d_x, "Cx")
        if self.Cz is not None:
            fields["Cz"] = _stack(self.Cz, T, d_y, d_x, "Cz")
        if self.Sigma_V is not None:
            fields["Sigma_V"] = _definite(_square(self.Sigma_V, d_y, "Sigma_V"), "Sigma_V")
        for name, value in fields.items():
            object.__setattr__(self, name, value)

    def fingerprint(self) -> str:
        """Stable 16-hex-digit digest of the model content."""
        payload = json.dumps(model_to_dict(self), sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(payload.encode()).hexdigest()[:16]


def build_model(*, initial_mean=None, **inputs) -> LqMeanFieldModel:
    """Keyword form of `LqMeanFieldModel(...)` that names mu_X `initial_mean`.

    Takes horizon, n_agents, A, B, Q, R and optionally D, P, Cx, Cz,
    Sigma_X, Sigma_W, Sigma_V, initial_mean, observation_mode and
    state_offset, in any shape the model accepts.
    """
    return LqMeanFieldModel(mu_X=initial_mean, **inputs)


# only perfbench calls validate_model
def validate_model(model: LqMeanFieldModel) -> LqMeanFieldModel:
    """Return `model`, which was validated and normalized when it was built."""
    return model


# ---------------------------------------------------------------------------
# serialization

# the matrix sections of a model file, in file order: the _REQUIRED
# entries must be given, the others may be null or missing
_LAYOUT = {"dynamics": ("A", "B", "D"), "cost": ("Q", "R", "P"),
           "observation": ("Cx", "Cz"), "noise": ("Sigma_X", "Sigma_W", "Sigma_V")}
_REQUIRED = ("A", "B", "Q", "R")


def model_to_dict(model: LqMeanFieldModel) -> dict:
    """Plain-dict form of a model, suitable for JSON."""

    def stack(arr):
        return None if arr is None else arr.tolist()

    offset = model.state_offset
    return {
        "horizon": model.horizon,
        "n_agents": model.n_agents,
        "dims": {"d_x": model.d_x, "d_u": model.d_u, "d_y": model.d_y},
        **{section: {key: stack(getattr(model, key)) for key in keys}
           for section, keys in _LAYOUT.items()},
        "initial_mean": model.mu_X.tolist(),
        "observation_mode": model.observation_mode,
        **({"state_offset": offset.tolist()} if np.any(offset) else {}),
    }


def model_from_dict(data: dict) -> LqMeanFieldModel:
    """Parse the dict form back into a validated model.

    Structural problems (missing keys, wrong types, values that are not
    numbers or not rectangular) raise ModelFormatError; semantic problems
    (shapes, non-finite entries, definiteness) raise validation errors.
    """
    try:
        dims = data["dims"]
        matrices = {key: (data.get(section) or {}).get(key)
                    for section, keys in _LAYOUT.items() for key in keys}
        for key in _REQUIRED:
            if matrices[key] is None:
                raise KeyError(key)
        model = build_model(
            horizon=data["horizon"],
            n_agents=data["n_agents"],
            initial_mean=data.get("initial_mean"),
            observation_mode=data.get("observation_mode", "full"),
            state_offset=data.get("state_offset"),
            **matrices,
        )
        declared = tuple(_whole(dims[key], f"dims.{key}") for key in ("d_x", "d_u", "d_y"))
    except (KeyError, TypeError, ValueError, OverflowError, AttributeError) as exc:
        raise ModelFormatError(f"model document is malformed: {exc!r}") from None
    actual = (model.d_x, model.d_u, model.d_y)
    if declared != actual:
        raise DimensionMismatch(
            f"declared dims (d_x, d_u, d_y) = {declared} do not match matrices {actual}"
        )
    return model


@contextmanager
def _renamed_into_place(path):
    """Yield a temporary name in `path`'s directory, `.<name>.<pid>.part`,
    for the caller to write; rename it to `path` once the block ends, or
    remove it when the block raises, so that `path` is never left partly
    written and a whole file from before stays when a write fails."""
    path = Path(path)
    part = path.with_name(f".{path.name}.{os.getpid()}.part")
    try:
        yield part
        os.replace(part, path)
    except BaseException:
        part.unlink(missing_ok=True)
        raise


def save_model(model: LqMeanFieldModel, path) -> None:
    with _renamed_into_place(path) as part, open(part, "w", encoding="utf-8") as fh:
        json.dump(model_to_dict(model), fh, indent=2)
        fh.write("\n")


def load_model(path) -> LqMeanFieldModel:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except UnicodeDecodeError as exc:
        raise ModelFormatError(
            f"{path} is not UTF-8 text: {exc.reason} at byte {exc.start}"
        ) from None
    except json.JSONDecodeError as exc:
        raise ModelFormatError(
            f"cannot parse {path}: line {exc.lineno} column {exc.colno}: {exc.msg}"
        ) from None
    except (RecursionError, ValueError) as exc:  # nested too deep, or too many digits
        raise ModelFormatError(f"cannot parse {path}: {exc}") from None
    if not isinstance(data, dict):
        raise ModelFormatError("model document must be a JSON object")
    return model_from_dict(data)


# ---------------------------------------------------------------------------
# tracking augmentation

def augment_for_tracking(
    model: LqMeanFieldModel, *, q, r, p, meanfield_reference
) -> LqMeanFieldModel:
    """Build the canonical model equivalent to the reference-tracking objective

        c_t = (1/n) sum_i [ (x^i - x^i_ref)' q (x^i - x^i_ref) + u^i' r u^i ]
              + (z - z_ref,t)' p (z - z_ref,t),

    where each subsystem's reference x^i_ref is frozen at its own initial
    state and z_ref,t is a deterministic trajectory. T, d_x and d_u are
    read from the model. Scalar weights scale identities; q and p must be
    PSD and r PD. The reference may be a scalar, a (d_x,) vector held at
    every step or a (T, d_x) array.

    The augmented state is (x, x_ref, 1) of dimension 2*d_x + 1: the
    reference block holds the subsystem's initial state (identity dynamics,
    no control, no noise) and the last coordinate is the constant 1, which
    lets the time-varying target z_ref,t enter a quadratic weight. The
    model's own cost matrices are discarded; the tracking weights replace
    them entirely. Only the full-observation model is augmented.

    The initial covariance places x_ref = x_1 exactly (perfectly correlated
    blocks), so the reference is each subsystem's realized initial state.
    """
    if model.observation_mode != "full":
        raise ValidationError("tracking augmentation supports full observation only")
    T, d, d_u = model.horizon, model.d_x, model.d_u
    q = _definite(_square(q, d, "q"), "q")
    r = _definite(_square(r, d_u, "r"), "r", assert_pd)
    p = _definite(_square(p, d, "p"), "p")
    refs = np.asarray(meanfield_reference, dtype=float)
    if refs.shape in ((), (d,)):
        refs = np.broadcast_to(refs, (T, d)).copy()
    if refs.shape != (T, d):
        raise DimensionMismatch(
            f"meanfield_reference has shape {refs.shape}, expected (), ({d},) or ({T}, {d})"
        )
    refs = _finite(refs, "meanfield_reference")
    da = 2 * d + 1

    A_aug = np.zeros((T, da, da))
    A_aug[:, :d, :d] = model.A
    A_aug[:, d:, d:] = np.eye(d + 1)
    B_aug = np.zeros((T, da, d_u))
    B_aug[:, :d] = model.B
    D_aug = np.zeros((T, da, da))
    D_aug[:, :d, :d] = model.D
    # q-weighted (x - x_ref) quadratic, the same at every step
    Q_aug = np.zeros((da, da))
    Q_aug[:2 * d, :2 * d] = np.block([[q, -q], [-q, q]])
    # p-weighted (z - z_ref,t) quadratic via the constant coordinate
    P_aug = np.zeros((T, da, da))
    P_aug[:, :d, :d] = p
    for t, ref in enumerate(refs):
        P_aug[t, :d, 2 * d] = P_aug[t, 2 * d, :d] = -p @ ref
        P_aug[t, 2 * d, 2 * d] = ref @ p @ ref

    Sigma_X_aug = np.zeros((da, da))
    Sigma_X_aug[:2 * d, :2 * d] = np.tile(model.Sigma_X, (2, 2))
    Sigma_W_aug = np.zeros((da, da))
    Sigma_W_aug[:d, :d] = model.Sigma_W

    mu_aug = np.concatenate([model.mu_X, model.mu_X, [1.0]])
    offset = model.state_offset
    offset_aug = np.concatenate([offset, offset, [0.0]])

    return build_model(
        horizon=T,
        n_agents=model.n_agents,
        A=A_aug,
        B=B_aug,
        D=D_aug,
        Q=Q_aug,
        R=r,
        P=P_aug,
        Sigma_X=Sigma_X_aug,
        Sigma_W=Sigma_W_aug,
        initial_mean=mu_aug,
        observation_mode="full",
        state_offset=offset_aug,
    )
