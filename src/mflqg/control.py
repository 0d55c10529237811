"""The linear policy and the per-subsystem control laws for both observation models.

Every subsystem applies the same time-varying law u = Kx_t b + (Kz_t - Kx_t) z,
where z is the mean-field and b is the local state under full observation
or, under noisy observation, a local estimate from a Kalman predictor with
known inputs. That predictor starts at the population mean and does not
condition on z, so it is not the conditional mean in general, and the noisy
law is not claimed team-optimal. The controller keeps no other history.
`GainSchedule` holds one such law; the per-agent functions here are the
specification the vectorized closed loop in `sim` is tested against.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, OutOfOrderUpdate, ValidationError
from .model import LqMeanFieldModel


@dataclass(frozen=True, eq=False)
class GainSchedule:
    """A linear policy: control gains for t = 1..T, plus filter gains for
    t = 1..T-1 under noisy observation.

    The control at step t is Kx_t b + (Kz_t - Kx_t) z. Any gains are
    accepted, so perturbed laws can be evaluated; the optimal schedule has
    zero terminal gains because there is no state left to influence at t = T.
    """

    Kx: np.ndarray                # (T, d_u, d_x)
    Kz: np.ndarray                # (T, d_u, d_x)
    Kf: np.ndarray | None = None  # (T-1, d_x, d_y)

    def __post_init__(self):
        if self.Kx.ndim != 3 or self.Kz.shape != self.Kx.shape:
            raise DimensionMismatch(
                f"gain stacks have shapes {self.Kx.shape}, {self.Kz.shape}, "
                "expected two equal (T, d_u, d_x) stacks"
            )
        if self.Kf is not None and (
            self.Kf.ndim != 3 or self.Kf.shape[:2] != (self.horizon - 1, self.d_x)
        ):
            raise DimensionMismatch(
                f"filter gain stack has shape {self.Kf.shape}, "
                f"expected ({self.horizon - 1}, {self.d_x}, d_y)"
            )

    @property
    def horizon(self) -> int:
        return self.Kx.shape[0]

    @property
    def d_u(self) -> int:
        return self.Kx.shape[1]

    @property
    def d_x(self) -> int:
        return self.Kx.shape[2]

    @property
    def d_y(self) -> int | None:
        return None if self.Kf is None else self.Kf.shape[2]

    # only perfbench calls from_gains
    @classmethod
    def from_gains(cls, gains: "GainSchedule") -> "GainSchedule":
        """A copy of `gains`."""
        return cls(
            Kx=gains.Kx.copy(), Kz=gains.Kz.copy(),
            Kf=None if gains.Kf is None else gains.Kf.copy(),
        )

    def to_dict(self) -> dict:
        gains: dict[str, dict] = {}
        for t in range(1, self.horizon + 1):
            entry = {"Kx": self.Kx[t - 1].tolist(), "Kz": self.Kz[t - 1].tolist()}
            if self.Kf is not None and t < self.horizon:
                entry["Kf"] = self.Kf[t - 1].tolist()
            gains[str(t)] = entry
        out = {
            "horizon": self.horizon,
            "d_x": self.d_x,
            "d_u": self.d_u,
            "gains": gains,
        }
        if self.d_y is not None:
            out["d_y"] = self.d_y
        return out


@dataclass(frozen=True, eq=False)
class LocalFilterState:
    """One subsystem's running estimate; time is the step the estimate is for."""

    x_hat: np.ndarray
    time: int


def init_filter_state(model: LqMeanFieldModel) -> LocalFilterState:
    """Initial estimate: the population's initial mean."""
    return LocalFilterState(x_hat=np.asarray(model.mu_X, dtype=float).copy(), time=1)


def _check_step(gains: GainSchedule, t: int) -> None:
    if not 1 <= t <= gains.horizon:
        raise ValidationError(f"step {t} outside 1..{gains.horizon}")


def full_obs_action(gains: GainSchedule, x: np.ndarray, z: np.ndarray, t: int) -> np.ndarray:
    """Control under full observation: Kx_t x + (Kz_t - Kx_t) z."""
    _check_step(gains, t)
    x = np.asarray(x, dtype=float)
    z = np.asarray(z, dtype=float)
    if x.shape != (gains.d_x,) or z.shape != (gains.d_x,):
        raise DimensionMismatch(
            f"state/mean-field have shapes {x.shape}, {z.shape}, expected ({gains.d_x},)"
        )
    k = t - 1
    return gains.Kx[k] @ x + (gains.Kz[k] - gains.Kx[k]) @ z


def filter_update(
    model: LqMeanFieldModel,
    state: LocalFilterState,
    gains: GainSchedule,
    y: np.ndarray,
    z: np.ndarray,
    u_prev: np.ndarray,
    t: int,
) -> LocalFilterState:
    """Advance one subsystem's estimate from step t to t+1.

    Applies x' = A_t x_hat + B_t u + D_t z + Kf_t (y - Cx_t x_hat - Cz_t z),
    the Kalman predictor with the known inputs u (the control applied at
    step t) and D_t z. Deterministic given its inputs.
    """
    if model.observation_mode != "noisy":
        raise ValidationError("filter updates require observation_mode = noisy")
    if gains.Kf is None:
        raise ValidationError("gain schedule has no filter gains")
    if not 1 <= t <= gains.horizon - 1:
        raise ValidationError(f"filter update defined for steps 1..{gains.horizon - 1}, got {t}")
    if state.time != t:
        raise OutOfOrderUpdate(f"filter state is at step {state.time}, update requested for {t}")
    y = np.asarray(y, dtype=float)
    z = np.asarray(z, dtype=float)
    u_prev = np.asarray(u_prev, dtype=float)
    if y.shape != (model.d_y,):
        raise DimensionMismatch(f"observation has shape {y.shape}, expected ({model.d_y},)")
    if z.shape != (model.d_x,):
        raise DimensionMismatch(f"mean-field has shape {z.shape}, expected ({model.d_x},)")
    if u_prev.shape != (model.d_u,):
        raise DimensionMismatch(f"control has shape {u_prev.shape}, expected ({model.d_u},)")
    k = t - 1
    innovation = y - model.Cx[k] @ state.x_hat - model.Cz[k] @ z
    x_next = (
        model.A[k] @ state.x_hat + model.B[k] @ u_prev + model.D[k] @ z
        + gains.Kf[k] @ innovation
    )
    return LocalFilterState(x_hat=x_next, time=t + 1)


def noisy_obs_action(
    gains: GainSchedule, state: LocalFilterState, z: np.ndarray, t: int
) -> np.ndarray:
    """Control under noisy observation: the full-observation law on the estimate."""
    if state.time != t:
        raise OutOfOrderUpdate(f"filter state is at step {state.time}, action requested for {t}")
    return full_obs_action(gains, state.x_hat, z, t)
