"""Backward control recursions and the forward filter recursion.

The optimal population controller needs two value recursions of state size
d_x instead of one of size n*d_x: one in deviation-from-mean coordinates
(weight Q_t, dynamics A_t) and one in mean-field coordinates (weight
Q_t + P_t, dynamics A_t + D_t). Neither depends on the population size or
on any noise covariance. The filter recursion propagates the per-subsystem
estimation error covariance forward and yields the local filter gains.
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


def solve_control_riccati(model: LqMeanFieldModel) -> ControlRiccatiSolution:
    """Run both backward recursions and return the full solution.

    Terminal values are Mx_T = Q_T and Mz_T = Q_T + P_T with zero terminal
    gains. Interior steps use a symmetric factorization of
    (B' M B + R) and every iterate is re-symmetrized. The output is
    independent of n_agents and of every noise covariance. A value matrix
    that overflows to inf or NaN raises NumericalFailure naming its step,
    with no floating-point warning printed.
    """
    T, d_x, d_u = model.horizon, model.d_x, model.d_u

    Mx = np.zeros((T, d_x, d_x))
    Mz = np.zeros((T, d_x, d_x))
    Kx = np.zeros((T, d_u, d_x))
    Kz = np.zeros((T, d_u, d_x))
    Abar = model.A[: T - 1] + model.D[: T - 1]

    Mx[T - 1] = model.Q[T - 1]
    Mz[T - 1] = symmetrize(model.Q[T - 1] + model.P[T - 1], "Q_T + P_T")

    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(T - 2, -1, -1):
            Kx[k], Mx[k] = _riccati_step(
                model.A[k], model.B[k], model.Q[k], model.R[k], Mx[k + 1]
            )
            Kz[k], Mz[k] = _riccati_step(
                Abar[k], model.B[k], model.Q[k] + model.P[k], model.R[k], Mz[k + 1]
            )
            _check_finite(f"control recursion at step {k + 1}", Mx=Mx[k], Mz=Mz[k])

    _check_finite("control recursion", Mx=Mx, Mz=Mz, Kx=Kx, Kz=Kz)
    return ControlRiccatiSolution(Mx=Mx, Mz=Mz, Kx=Kx, Kz=Kz)


def _riccati_step(A, B, Qeff, R, M_next):
    """One backward step: gain K = -(B'MB + R)^{-1} B'MA and updated value."""
    MB = M_next @ B
    H = symmetrize(B.T @ MB + R, "B'MB + R")
    G = MB.T @ A
    K = -spd_solve(H, G, context="control recursion (B'MB + R)")
    M = Qeff + A.T @ M_next @ A + G.T @ K
    return K, symmetrize(M, "value matrix")


def _check_finite(context: str, **arrays: np.ndarray) -> None:
    """Raise NumericalFailure if a recursion output overflowed to inf or NaN."""
    for name, arr in arrays.items():
        if not np.isfinite(arr).all():
            raise NumericalFailure(f"{context}: {name} has a non-finite entry (overflow)")


def solve_filter_riccati(model: LqMeanFieldModel) -> FilterRiccatiSolution:
    """Run the forward error-covariance recursion for the local estimator.

    Starting from the initial-state covariance, each step computes the
    innovation covariance Cx S Cx' + Sigma_V, the gain
    Kf_t = A_t S Cx' (innovation)^{-1}, and the next covariance
    S' = A_t S A_t' + Sigma_W - A_t S Cx' (innovation)^{-1} Cx S A_t'.
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
    Kf = np.zeros((max(T - 1, 0), d_x, d_y))
    Sigma_e[0] = model.Sigma_X

    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(T - 1):
            A, Cx = model.A[k], model.Cx[k]
            S = Sigma_e[k]
            innovation = symmetrize(Cx @ S @ Cx.T + model.Sigma_V, "innovation covariance")
            CSA = Cx @ S @ A.T
            gain_t = spd_solve(innovation, CSA,
                               context="filter recursion (innovation covariance)")
            Kf[k] = gain_t.T
            S_next = A @ S @ A.T + model.Sigma_W - CSA.T @ gain_t
            Sigma_e[k + 1] = symmetrize(S_next, "error covariance")
            _check_finite(f"filter recursion at step {k + 2}", Sigma_e=Sigma_e[k + 1])

    _check_finite("filter recursion", Sigma_e=Sigma_e, Kf=Kf)
    return FilterRiccatiSolution(Sigma_e=Sigma_e, Kf=Kf)
