"""Backward control recursions and the forward filter recursion.

The optimal population controller needs two decoupled value recursions of
state size d_x instead of one of size n*d_x, both one backward pass
(`_backward`): on A_t and Q_t in deviation-from-mean coordinates, on
A_t + D_t and Q_t + P_t in mean-field coordinates. Neither depends on the
population size or on any noise covariance. The filter recursion, the same
step run forward on the dual (A_t', Cx_t', Sigma_W, Sigma_V), yields the
local filter gains.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .control import GainSchedule
from .errors import NumericalFailure, ValidationError
from .linalg import spd_solve, symmetrize
from .model import LqMeanFieldModel


@dataclass(frozen=True, eq=False)
class ControlRiccatiSolution:
    """Value matrices and gains for t = 1..T (step t at index t-1)."""

    Mx: np.ndarray     # (T, d_x, d_x), deviation value matrices
    Mz: np.ndarray     # (T, d_x, d_x), mean-field value matrices
    Kx: np.ndarray     # (T, d_u, d_x), deviation gains, Kx[T-1] = 0
    Kz: np.ndarray     # (T, d_u, d_x), mean-field gains, Kz[T-1] = 0

    @property
    def horizon(self) -> int:
        return self.Kx.shape[0]

    def gain_schedule(self, filter_solution: FilterRiccatiSolution | None = None) -> GainSchedule:
        """Package the gains, optionally together with filter gains (a filter
        solution of another horizon is rejected by `GainSchedule`)."""
        Kf = None if filter_solution is None else filter_solution.Kf.copy()
        return GainSchedule(Kx=self.Kx.copy(), Kz=self.Kz.copy(), Kf=Kf)


@dataclass(frozen=True, eq=False)
class FilterRiccatiSolution:
    """Estimation error covariances for t = 1..T and gains for t = 1..T-1."""

    Sigma_e: np.ndarray  # (T, d_x, d_x)
    Kf: np.ndarray       # (T-1, d_x, d_y)


@np.errstate(over="ignore", invalid="ignore")
def solve_control_riccati(model: LqMeanFieldModel) -> ControlRiccatiSolution:
    """Run both backward recursions and return the full solution.

    The deviation recursion is `_backward` on (A_t, Q_t), the mean-field
    one on (A_t + D_t, Q_t + P_t); the deviation recursion runs first.
    The output is independent of n_agents and of every noise covariance.
    An overflow raises NumericalFailure, with no floating-point warning.
    """
    Mx, Kx = _backward(model, model.A, model.Q, "x", "Q_T")
    Mz, Kz = _backward(model, model.A + model.D, model.Q + model.P, "z", "Q_T + P_T")
    return ControlRiccatiSolution(Mx=Mx, Mz=Mz, Kx=Kx, Kz=Kz)


def _backward(model: LqMeanFieldModel, A, Qeff, coords: str, terminal: str):
    """Values M and gains K of one backward recursion on (A_t, B_t, Qeff_t,
    R_t) from M_T = Qeff_T, symmetrized as `terminal`, and a zero terminal
    gain. Each step factors the symmetric B'MB + R and re-symmetrizes M. An
    overflow to inf or NaN raises NumericalFailure naming its step and
    M<coords>."""
    T = model.horizon
    M = np.zeros((T, model.d_x, model.d_x))
    K = np.zeros((T, model.d_u, model.d_x))
    M[T - 1] = symmetrize(Qeff[T - 1], terminal)

    for k in range(T - 2, -1, -1):
        K[k], M[k] = _riccati_step(A[k], model.B[k], Qeff[k], model.R[k], M[k + 1])
        _check_finite(f"control recursion at step {k + 1}", **{f"M{coords}": M[k]})

    _check_finite("control recursion", **{f"M{coords}": M, f"K{coords}": K})
    return M, K


def _riccati_step(A, B, Qeff, R, M_next, names=("control recursion", "B'MB + R", "value matrix")):
    """One backward step: gain K = -(B'MB + R)^{-1} B'MA and updated value,
    a failure naming the recursion, B'MB + R and the value as `names` does."""
    recursion, curvature, value = names
    MB = M_next @ B
    H = symmetrize(MB.T @ B + R, curvature)
    G = MB.T @ A
    K = -spd_solve(H, G, context=f"{recursion} ({curvature})")
    M = Qeff + A.T @ M_next @ A + G.T @ K
    return K, symmetrize(M, value)


def _check_finite(context: str, **arrays: np.ndarray) -> None:
    """Raise NumericalFailure if a recursion output overflowed to inf or NaN."""
    for name, arr in arrays.items():
        if not np.isfinite(arr).all():
            raise NumericalFailure(f"{context}: {name} has a non-finite entry (overflow)")


def solve_filter_riccati(model: LqMeanFieldModel) -> FilterRiccatiSolution:
    """Run the forward error-covariance recursion for the local estimator.

    From S = Sigma_X, each step is `_riccati_step` on the dual system
    (A_t', Cx_t', Sigma_W, Sigma_V, S): the innovation covariance
    Cx S Cx' + Sigma_V, the gain Kf_t = A_t S Cx' (innovation)^{-1} = -K',
    and the next covariance S' = Sigma_W + A_t S A_t' - Kf_t Cx S A_t'.
    The mean-field observation term cancels in the innovation, so the
    result does not depend on Cz or on n_agents. A singular innovation
    covariance or an overflow is reported as NumericalFailure (an
    overflow naming the step whose covariance overflowed, with no
    floating-point warning printed), not regularized.
    """
    if model.observation_mode != "noisy":
        raise ValidationError("filter recursion requires observation_mode = noisy")
    T, d_x, d_y = model.horizon, model.d_x, model.d_y

    Sigma_e = np.zeros((T, d_x, d_x))
    Kf = np.zeros((T - 1, d_x, d_y))
    Sigma_e[0] = model.Sigma_X

    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(T - 1):
            # S' is S exactly; passed as S', the product S Cx' rounds as Cx S does
            K, Sigma_e[k + 1] = _riccati_step(
                model.A[k].T, model.Cx[k].T, model.Sigma_W, model.Sigma_V, Sigma_e[k].T,
                ("filter recursion", "innovation covariance", "error covariance"))
            Kf[k] = -K.T
            _check_finite(f"filter recursion at step {k + 2}", Sigma_e=Sigma_e[k + 1])

    _check_finite("filter recursion", Sigma_e=Sigma_e, Kf=Kf)
    return FilterRiccatiSolution(Sigma_e=Sigma_e, Kf=Kf)
