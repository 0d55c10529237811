"""Problem data for populations of identical mean-field coupled subsystems.

A model describes n exchangeable linear subsystems

    x^i_{t+1} = A_t x^i_t + B_t u^i_t + D_t z_t + w^i_t,      z_t = mean_i x^i_t,

with per-step cost

    c_t = (1/n) sum_i [x^i' Q_t x^i + u^i' R_t u^i] + z' P_t z,

over steps t = 1..T. All per-step matrix stacks are indexed so that step t
lives at array index t-1. Matrices may be supplied once (constant in t) or
as length-T sequences; constants are broadcast.

Also here: costs with a state/mean-field cross term and their reduction to
the canonical (Q, R, P) form, and the state augmentation that turns a
reference-tracking objective into a canonical model.
"""
from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, ModelFormatError, NotPositiveSemidefinite, ValidationError
from .linalg import assert_pd, assert_psd, symmetrize

OBSERVATION_MODES = ("full", "noisy")


def _stack(value, horizon: int, rows: int, cols: int, name: str) -> np.ndarray:
    """Normalize a matrix input to shape (horizon, rows, cols).

    Accepts a scalar (1x1 only), a single matrix broadcast over time, or a
    length-`horizon` sequence of matrices.
    """
    arr = np.asarray(value, dtype=float)
    if arr.ndim == 0:
        arr = arr.reshape(1, 1)
    if arr.ndim == 1 and rows == 1 and cols == 1 and arr.shape[0] == horizon:
        arr = arr.reshape(horizon, 1, 1)
    if arr.ndim == 2:
        if arr.shape != (rows, cols):
            raise DimensionMismatch(f"{name} has shape {arr.shape}, expected ({rows}, {cols})")
        return np.broadcast_to(arr, (horizon, rows, cols)).copy()
    if arr.ndim == 3:
        if arr.shape != (horizon, rows, cols):
            raise DimensionMismatch(
                f"{name} has shape {arr.shape}, expected ({horizon}, {rows}, {cols})"
            )
        return arr.copy()
    raise DimensionMismatch(f"{name} has {arr.ndim} dimensions, expected a matrix or a sequence")


def _vector(value, dim: int, name: str) -> np.ndarray:
    arr = np.asarray(value, dtype=float)
    if arr.ndim == 0:
        arr = np.full(dim, float(arr))
    if arr.shape != (dim,):
        raise DimensionMismatch(f"{name} has shape {arr.shape}, expected ({dim},)")
    return arr.copy()


def _square(value, dim: int, name: str) -> np.ndarray:
    arr = np.asarray(value, dtype=float)
    if arr.ndim == 0:
        arr = arr * np.eye(dim)
    if arr.shape != (dim, dim):
        raise DimensionMismatch(f"{name} has shape {arr.shape}, expected ({dim}, {dim})")
    return arr.copy()


@dataclass(frozen=True, eq=False)
class LqMeanFieldModel:
    """A validated problem instance; build_model assembles one from loosely
    shaped inputs.

    Construction, `dataclasses.replace` included, checks every structural,
    finiteness and definiteness invariant and stores normalized arrays:
    symmetric matrices are exactly symmetrized and a missing state_offset
    becomes zero. Normalizing a normalized model changes nothing.
    """

    horizon: int
    n_agents: int
    d_x: int
    d_u: int
    d_y: int
    A: np.ndarray          # (T, d_x, d_x)
    B: np.ndarray          # (T, d_x, d_u)
    D: np.ndarray          # (T, d_x, d_x)
    Q: np.ndarray          # (T, d_x, d_x)
    R: np.ndarray          # (T, d_u, d_u)
    P: np.ndarray          # (T, d_x, d_x)
    Sigma_X: np.ndarray    # (d_x, d_x)
    Sigma_W: np.ndarray    # (d_x, d_x)
    mu_X: np.ndarray       # (d_x,)
    observation_mode: str = "full"
    Cx: np.ndarray | None = None        # (T, d_y, d_x), noisy mode
    Cz: np.ndarray | None = None        # (T, d_y, d_x), noisy mode
    Sigma_V: np.ndarray | None = None   # (d_y, d_y), noisy mode
    # reporting-only additive shift: exported states are x + state_offset
    state_offset: np.ndarray | None = None

    def __post_init__(self):
        for name, value in _normalized_fields(self).items():
            object.__setattr__(self, name, value)

    def fingerprint(self) -> str:
        """Stable 16-hex-digit digest of the model content."""
        payload = json.dumps(model_to_dict(self), sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(payload.encode()).hexdigest()[:16]


def build_model(
    *,
    horizon: int,
    n_agents: int,
    A,
    B,
    Q,
    R,
    D=None,
    P=None,
    Cx=None,
    Cz=None,
    Sigma_X=None,
    Sigma_W=None,
    Sigma_V=None,
    initial_mean=None,
    observation_mode: str = "full",
    state_offset=None,
) -> LqMeanFieldModel:
    """Assemble a model from loosely shaped inputs; the model validates itself.

    Dimensions are inferred from A (state), B (control), and Cx
    (observation; defaults to the state dimension). Omitted optional
    matrices default to zero.
    """
    horizon = int(horizon)
    if horizon < 1:
        raise ValidationError(f"horizon must be >= 1, got {horizon}")

    d_x = _infer_square_dim(A, "A")
    arr_b = np.asarray(B, dtype=float)
    if arr_b.ndim == 0:
        d_u = 1
    elif arr_b.ndim == 2:
        d_u = arr_b.shape[1]
    elif arr_b.ndim == 3:
        d_u = arr_b.shape[2]
    else:
        raise DimensionMismatch(f"B has {arr_b.ndim} dimensions, expected a matrix or a sequence")
    if Cx is not None:
        arr_c = np.asarray(Cx, dtype=float)
        if arr_c.ndim == 0:
            d_y = 1
        elif arr_c.ndim == 2:
            d_y = arr_c.shape[0]
        elif arr_c.ndim == 3:
            d_y = arr_c.shape[1]
        else:
            raise DimensionMismatch(f"Cx has {arr_c.ndim} dimensions, expected a matrix or a sequence")
    else:
        d_y = d_x

    zero_x = np.zeros((d_x, d_x))
    return LqMeanFieldModel(
        horizon=horizon,
        n_agents=int(n_agents),
        d_x=d_x,
        d_u=d_u,
        d_y=d_y,
        A=_stack(A, horizon, d_x, d_x, "A"),
        B=_stack(B, horizon, d_x, d_u, "B"),
        D=_stack(zero_x if D is None else D, horizon, d_x, d_x, "D"),
        Q=_stack(Q, horizon, d_x, d_x, "Q"),
        R=_stack(R, horizon, d_u, d_u, "R"),
        P=_stack(zero_x if P is None else P, horizon, d_x, d_x, "P"),
        Sigma_X=_square(0.0 if Sigma_X is None else Sigma_X, d_x, "Sigma_X"),
        Sigma_W=_square(0.0 if Sigma_W is None else Sigma_W, d_x, "Sigma_W"),
        mu_X=_vector(0.0 if initial_mean is None else initial_mean, d_x, "initial_mean"),
        observation_mode=observation_mode,
        Cx=None if Cx is None else _stack(Cx, horizon, d_y, d_x, "Cx"),
        Cz=None if Cz is None else _stack(Cz, horizon, d_y, d_x, "Cz"),
        Sigma_V=None if Sigma_V is None else _square(Sigma_V, d_y, "Sigma_V"),
        state_offset=None if state_offset is None else _vector(state_offset, d_x, "state_offset"),
    )


def _infer_square_dim(value, name: str) -> int:
    arr = np.asarray(value, dtype=float)
    if arr.ndim == 0:
        return 1
    if arr.ndim == 2:
        return arr.shape[0]
    if arr.ndim == 3:
        return arr.shape[1]
    raise DimensionMismatch(f"{name} has {arr.ndim} dimensions, expected a matrix or a sequence")


def validate_model(model: LqMeanFieldModel) -> LqMeanFieldModel:
    """Return `model`, which was validated and normalized when it was built."""
    return model


def _normalized_fields(model: LqMeanFieldModel) -> dict:
    """The model's arrays after every structural, finiteness and definiteness
    check, with all symmetric matrices exactly symmetrized."""
    T, d_x, d_u, d_y = model.horizon, model.d_x, model.d_u, model.d_y
    if T < 1 or model.n_agents < 1 or min(d_x, d_u, d_y) < 1:
        raise ValidationError(
            f"horizon, n_agents, and dimensions must be >= 1, got "
            f"T={T}, n={model.n_agents}, d_x={d_x}, d_u={d_u}, d_y={d_y}"
        )
    if model.observation_mode not in OBSERVATION_MODES:
        raise ValidationError(
            f"observation_mode must be one of {OBSERVATION_MODES}, got {model.observation_mode!r}"
        )
    if model.observation_mode == "noisy":
        if model.Cx is None or model.Cz is None or model.Sigma_V is None:
            raise ValidationError("noisy observation_mode requires Cx, Cz, and Sigma_V")

    def check_stack(name, rows, cols):
        arr = getattr(model, name)
        if arr is None:
            return None
        arr = np.asarray(arr, dtype=float)
        if arr.shape != (T, rows, cols):
            raise DimensionMismatch(
                f"{name} has shape {arr.shape}, expected ({T}, {rows}, {cols})"
            )
        return arr

    offset = model.state_offset
    fields = {
        "A": check_stack("A", d_x, d_x),
        "B": check_stack("B", d_x, d_u),
        "D": check_stack("D", d_x, d_x),
        "Q": check_stack("Q", d_x, d_x),
        "R": check_stack("R", d_u, d_u),
        "P": check_stack("P", d_x, d_x),
        "Sigma_X": _square(model.Sigma_X, d_x, "Sigma_X"),
        "Sigma_W": _square(model.Sigma_W, d_x, "Sigma_W"),
        "mu_X": _vector(model.mu_X, d_x, "initial_mean"),
        "Cx": check_stack("Cx", d_y, d_x),
        "Cz": check_stack("Cz", d_y, d_x),
        "Sigma_V": None if model.Sigma_V is None else _square(model.Sigma_V, d_y, "Sigma_V"),
        "state_offset": np.zeros(d_x) if offset is None else _vector(offset, d_x, "state_offset"),
    }
    for name, arr in fields.items():
        if arr is not None and not np.all(np.isfinite(arr)):
            raise ValidationError(f"{name} has a non-finite entry")

    for name in ("Q", "P", "R"):
        fields[name] = np.stack([symmetrize(fields[name][t], f"{name}_{t + 1}") for t in range(T)])
    for t in range(T):
        assert_psd(fields["Q"][t], f"Q_{t + 1}")
        assert_psd(fields["P"][t], f"P_{t + 1}")
        assert_pd(fields["R"][t], f"R_{t + 1}")
    for name in ("Sigma_X", "Sigma_W", "Sigma_V"):
        if fields[name] is not None:
            fields[name] = symmetrize(fields[name], name)
            assert_psd(fields[name], name)
    return fields


# ---------------------------------------------------------------------------
# serialization

def model_to_dict(model: LqMeanFieldModel) -> dict:
    """Plain-dict form of a model, suitable for JSON."""

    def stack(arr):
        return None if arr is None else np.asarray(arr, dtype=float).tolist()

    offset = model.state_offset
    if offset is not None and not np.any(offset):
        offset = None
    return {
        "horizon": model.horizon,
        "n_agents": model.n_agents,
        "dims": {"d_x": model.d_x, "d_u": model.d_u, "d_y": model.d_y},
        "dynamics": {"A": stack(model.A), "B": stack(model.B), "D": stack(model.D)},
        "cost": {"Q": stack(model.Q), "R": stack(model.R), "P": stack(model.P)},
        "observation": {"Cx": stack(model.Cx), "Cz": stack(model.Cz)},
        "noise": {
            "Sigma_X": stack(model.Sigma_X),
            "Sigma_W": stack(model.Sigma_W),
            "Sigma_V": stack(model.Sigma_V),
        },
        "initial_mean": model.mu_X.tolist(),
        "observation_mode": model.observation_mode,
        **({} if offset is None else {"state_offset": offset.tolist()}),
    }


def model_from_dict(data: dict) -> LqMeanFieldModel:
    """Parse the dict form back into a validated model.

    Structural problems (missing keys, wrong types, values that are not
    numbers or not rectangular) raise ModelFormatError; semantic problems
    (shapes, non-finite entries, definiteness) raise validation errors.
    """
    try:
        dims = data["dims"]
        dyn = data["dynamics"]
        cost = data["cost"]
        obs = data.get("observation") or {}
        noise = data.get("noise") or {}
        model = build_model(
            horizon=data["horizon"],
            n_agents=data["n_agents"],
            A=dyn["A"],
            B=dyn["B"],
            D=dyn.get("D"),
            Q=cost["Q"],
            R=cost["R"],
            P=cost.get("P"),
            Cx=obs.get("Cx"),
            Cz=obs.get("Cz"),
            Sigma_X=noise.get("Sigma_X"),
            Sigma_W=noise.get("Sigma_W"),
            Sigma_V=noise.get("Sigma_V"),
            initial_mean=data.get("initial_mean"),
            observation_mode=data.get("observation_mode", "full"),
            state_offset=data.get("state_offset"),
        )
        declared = (int(dims["d_x"]), int(dims["d_u"]), int(dims["d_y"]))
    except (KeyError, TypeError, ValueError) as exc:
        raise ModelFormatError(f"model document is malformed: {exc!r}") from None
    actual = (model.d_x, model.d_u, model.d_y)
    if declared != actual:
        raise DimensionMismatch(
            f"declared dims (d_x, d_u, d_y) = {declared} do not match matrices {actual}"
        )
    return model


def save_model(model: LqMeanFieldModel, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(model_to_dict(model), fh, indent=2)
        fh.write("\n")


def load_model(path) -> LqMeanFieldModel:
    with open(path, "r", encoding="utf-8") as fh:
        data = json.load(fh)
    if not isinstance(data, dict):
        raise ModelFormatError("model document must be a JSON object")
    return model_from_dict(data)


# ---------------------------------------------------------------------------
# cross-term costs

@dataclass(frozen=True, eq=False)
class CrossTermCost:
    """Per-step cost with a local-state / mean-field cross term:

        c_t = (1/n) sum_i [x^i' Q_t x^i + u^i' R_t u^i + x^i' S_t z] + z' P_t z.

    Because the population average of x^i is z, the cross term equals
    z' S_t z, so the cost reduces exactly to the canonical form with
    P_t replaced by P_t + (S_t + S_t')/2.
    """

    horizon: int
    d_x: int
    d_u: int
    Q: np.ndarray  # (T, d_x, d_x)
    S: np.ndarray  # (T, d_x, d_x), not required to be symmetric
    R: np.ndarray  # (T, d_u, d_u)
    P: np.ndarray  # (T, d_x, d_x)

    def step_cost(self, states: np.ndarray, actions: np.ndarray, t: int) -> float:
        """Evaluate the cross-term cost on a population snapshot at step t."""
        x = np.asarray(states, dtype=float)
        u = np.asarray(actions, dtype=float)
        z = np.add.reduce(x, axis=0) / x.shape[0]
        k = t - 1
        quad = np.einsum("id,de,ie->i", x, self.Q[k], x)
        quad = quad + np.einsum("id,de,ie->i", u, self.R[k], u)
        quad = quad + x @ (self.S[k] @ z)
        return float(np.add.reduce(quad) / x.shape[0] + z @ self.P[k] @ z)


def build_cross_term_cost(*, horizon: int, Q, S, R, P=None) -> CrossTermCost:
    """Assemble and validate a CrossTermCost (Q PSD, R PD; S unconstrained)."""
    horizon = int(horizon)
    if horizon < 1:
        raise ValidationError(f"horizon must be >= 1, got {horizon}")
    d_x = _infer_square_dim(Q, "Q")
    arr_r = np.asarray(R, dtype=float)
    d_u = 1 if arr_r.ndim == 0 else arr_r.shape[-1]
    Q = _stack(Q, horizon, d_x, d_x, "Q")
    S = _stack(S, horizon, d_x, d_x, "S")
    R = _stack(R, horizon, d_u, d_u, "R")
    P = _stack(np.zeros((d_x, d_x)) if P is None else P, horizon, d_x, d_x, "P")
    Q = np.stack([symmetrize(Q[t], f"Q_{t + 1}") for t in range(horizon)])
    P = np.stack([symmetrize(P[t], f"P_{t + 1}") for t in range(horizon)])
    R = np.stack([symmetrize(R[t], f"R_{t + 1}") for t in range(horizon)])
    for t in range(horizon):
        assert_psd(Q[t], f"Q_{t + 1}")
        assert_pd(R[t], f"R_{t + 1}")
        assert_psd(P[t], f"P_{t + 1}")
    return CrossTermCost(horizon=horizon, d_x=d_x, d_u=d_u, Q=Q, S=S, R=R, P=P)


def reduce_cross_term(cost: CrossTermCost) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Fold the cross term into the mean-field weight.

    Returns (Q, R, P') with P'_t = P_t + (S_t + S_t')/2. The result must be
    PSD; an indefinite P' means the cross-term cost has no canonical
    equivalent and is rejected.
    """
    P_prime = cost.P + (cost.S + np.swapaxes(cost.S, 1, 2)) / 2.0
    for t in range(cost.horizon):
        try:
            assert_psd(P_prime[t], f"P'_{t + 1}")
        except NotPositiveSemidefinite:
            raise NotPositiveSemidefinite(
                f"reduced mean-field weight P'_{t + 1} is not PSD; "
                "the cross term makes the cost indefinite"
            ) from None
    return cost.Q.copy(), cost.R.copy(), P_prime


# ---------------------------------------------------------------------------
# tracking augmentation

@dataclass(frozen=True, eq=False)
class TrackingSpec:
    """Reference-tracking objective for a population:

        c_t = (1/n) sum_i [ (x^i - x^i_ref)' q (x^i - x^i_ref) + u^i' r u^i ]
              + (z - z_ref,t)' p (z - z_ref,t),

    where each subsystem's reference x^i_ref is frozen at its own initial
    state and z_ref,t is a deterministic trajectory.
    """

    horizon: int
    d_x: int
    d_u: int
    q: np.ndarray            # (d_x, d_x)
    r: np.ndarray            # (d_u, d_u)
    p: np.ndarray            # (d_x, d_x)
    meanfield_reference: np.ndarray  # (T, d_x)
    local_reference: str = "initial_state"


def build_tracking_spec(
    *, horizon: int, d_x: int, d_u: int, q, r, p, meanfield_reference
) -> TrackingSpec:
    """Assemble and validate a TrackingSpec; scalar weights scale identities."""
    horizon = int(horizon)
    if horizon < 1:
        raise ValidationError(f"horizon must be >= 1, got {horizon}")
    q = symmetrize(_square(q, d_x, "q"), "q")
    r = symmetrize(_square(r, d_u, "r"), "r")
    p = symmetrize(_square(p, d_x, "p"), "p")
    assert_psd(q, "q")
    assert_pd(r, "r")
    assert_psd(p, "p")
    ref = np.asarray(meanfield_reference, dtype=float)
    if ref.ndim == 0:
        ref = np.full((horizon, d_x), float(ref))
    elif ref.ndim == 1 and ref.shape == (d_x,):
        ref = np.broadcast_to(ref, (horizon, d_x)).copy()
    if ref.shape != (horizon, d_x):
        raise DimensionMismatch(
            f"meanfield_reference has shape {ref.shape}, expected ({horizon}, {d_x})"
        )
    return TrackingSpec(
        horizon=horizon, d_x=d_x, d_u=d_u, q=q, r=r, p=p, meanfield_reference=ref
    )


def augment_for_tracking(model: LqMeanFieldModel, spec: TrackingSpec) -> LqMeanFieldModel:
    """Build the canonical model equivalent to a tracking objective.

    The augmented state is (x, x_ref, 1) of dimension 2*d_x + 1: the
    reference block holds the subsystem's initial state (identity dynamics,
    no control, no noise) and the last coordinate is the constant 1, which
    lets the time-varying target z_ref,t enter a quadratic weight. The
    model's own cost matrices are discarded; the tracking weights replace
    them entirely. Only the full-observation model is augmented.

    The initial covariance places x_ref = x_1 exactly (perfectly correlated
    blocks), so the reference is each subsystem's realized initial state.
    """
    if spec.horizon != model.horizon or spec.d_x != model.d_x or spec.d_u != model.d_u:
        raise DimensionMismatch(
            f"tracking spec (T={spec.horizon}, d_x={spec.d_x}, d_u={spec.d_u}) does not match "
            f"model (T={model.horizon}, d_x={model.d_x}, d_u={model.d_u})"
        )
    if model.observation_mode != "full":
        raise ValidationError("tracking augmentation supports full observation only")
    T, d, d_u = model.horizon, model.d_x, model.d_u
    da = 2 * d + 1

    A_aug = np.zeros((T, da, da))
    B_aug = np.zeros((T, da, d_u))
    D_aug = np.zeros((T, da, da))
    Q_aug = np.zeros((T, da, da))
    P_aug = np.zeros((T, da, da))
    for t in range(T):
        A_aug[t, :d, :d] = model.A[t]
        A_aug[t, d:2 * d, d:2 * d] = np.eye(d)
        A_aug[t, 2 * d, 2 * d] = 1.0
        B_aug[t, :d, :] = model.B[t]
        D_aug[t, :d, :d] = model.D[t]
        # q-weighted (x - x_ref) quadratic
        Q_aug[t, :d, :d] = spec.q
        Q_aug[t, :d, d:2 * d] = -spec.q
        Q_aug[t, d:2 * d, :d] = -spec.q
        Q_aug[t, d:2 * d, d:2 * d] = spec.q
        # p-weighted (z - z_ref,t) quadratic via the constant coordinate
        ref = spec.meanfield_reference[t]
        P_aug[t, :d, :d] = spec.p
        P_aug[t, :d, 2 * d] = -spec.p @ ref
        P_aug[t, 2 * d, :d] = -spec.p @ ref
        P_aug[t, 2 * d, 2 * d] = ref @ spec.p @ ref

    Sigma_X_aug = np.zeros((da, da))
    Sigma_X_aug[:d, :d] = model.Sigma_X
    Sigma_X_aug[:d, d:2 * d] = model.Sigma_X
    Sigma_X_aug[d:2 * d, :d] = model.Sigma_X
    Sigma_X_aug[d:2 * d, d:2 * d] = model.Sigma_X
    Sigma_W_aug = np.zeros((da, da))
    Sigma_W_aug[:d, :d] = model.Sigma_W

    mu_aug = np.concatenate([model.mu_X, model.mu_X, [1.0]])
    offset = model.state_offset if model.state_offset is not None else np.zeros(d)
    offset_aug = np.concatenate([offset, offset, [0.0]])

    return build_model(
        horizon=T,
        n_agents=model.n_agents,
        A=A_aug,
        B=B_aug,
        D=D_aug,
        Q=Q_aug,
        R=_stack(spec.r, T, d_u, d_u, "r"),
        P=P_aug,
        Sigma_X=Sigma_X_aug,
        Sigma_W=Sigma_W_aug,
        initial_mean=mu_aug,
        observation_mode="full",
        state_offset=offset_aug,
    )
