"""Brute-force centralized verification.

The population problem can be written as one centralized linear-quadratic
problem in the stacked state (x^1; ...; x^n). Solving that stacked problem
with a plain textbook Riccati recursion gives an independent answer: the
centralized optimal gain must carry the exchangeable-plus-mean-field
structure (identical diagonal blocks, identical coupling blocks), and the
centralized optimal cost must equal the decentralized controller's exact
cost. This module deliberately shares no linear-algebra path with the
production recursions: solves use plain LU, symmetrization is unchecked.
"""
from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .errors import CapExceeded, NumericalFailure
from .model import LqMeanFieldModel, _count
from .riccati import ControlRiccatiSolution, solve_control_riccati
from .sim import exact_policy_cost, optimal_strategy

STACKED_DIM_CAP = 400


@dataclass(frozen=True, eq=False)
class StackedModel:
    """The n-subsystem problem as one centralized system of size n*d_x."""

    n_agents: int
    horizon: int
    dim_x: int            # n * d_x
    dim_u: int            # n * d_u
    A: np.ndarray         # (T, dim_x, dim_x)
    B: np.ndarray         # (T, dim_x, dim_u)
    Q: np.ndarray         # (T, dim_x, dim_x)
    R: np.ndarray         # (T, dim_u, dim_u)
    Sigma_X: np.ndarray   # (dim_x, dim_x)
    Sigma_W: np.ndarray   # (dim_x, dim_x)
    mu: np.ndarray        # (dim_x,)


@dataclass(frozen=True, eq=False)
class StackedRiccatiSolution:
    M: np.ndarray  # (T, dim_x, dim_x)
    K: np.ndarray  # (T, dim_u, dim_x)


@dataclass(frozen=True, eq=False)
class EquivalenceReport:
    """Comparison of centralized-optimal and mean-field-structured answers."""

    n_agents: int
    horizon: int
    tolerance: float
    gain_residuals: np.ndarray  # (T,), relative Frobenius per step
    max_gain_residual: float
    cost_centralized: float
    cost_decentralized: float
    cost_gap: float
    passed: bool

    def to_dict(self) -> dict:
        return {
            "n_agents": self.n_agents,
            "horizon": self.horizon,
            "tolerance": self.tolerance,
            "gain_residuals": [float(r) for r in self.gain_residuals],
            "max_gain_residual": self.max_gain_residual,
            "cost_centralized": self.cost_centralized,
            "cost_decentralized": self.cost_decentralized,
            "cost_gap": self.cost_gap,
            "passed": self.passed,
        }


def build_stacked_model(
    model: LqMeanFieldModel, n: int | None = None, cap: int = STACKED_DIM_CAP
) -> StackedModel:
    """Stack n copies of the subsystem problem into one centralized problem.

    The mean-field coupling becomes a rank-one-in-blocks term: every block
    row of the stacked dynamics sees the average of all subsystem states.
    """
    if n is None:
        n = model.n_agents
    if n < 1:
        raise CapExceeded(f"population size must be >= 1, got {n}")
    n = _count(n, "population size")
    if n * model.d_x > cap:
        raise CapExceeded(
            f"stacked dimension n*d_x = {n * model.d_x} exceeds the cap {cap}; "
            "the stacked solve is a desk-scale verification oracle"
        )
    T = model.horizon
    eye = np.eye(n)
    ones = np.ones((n, n))

    A = np.stack([np.kron(eye, model.A[k]) + np.kron(ones / n, model.D[k]) for k in range(T)])
    B = np.stack([np.kron(eye, model.B[k]) for k in range(T)])
    Q = np.stack(
        [np.kron(eye, model.Q[k]) / n + np.kron(ones, model.P[k]) / n**2 for k in range(T)]
    )
    R = np.stack([np.kron(eye, model.R[k]) / n for k in range(T)])

    return StackedModel(
        n_agents=n,
        horizon=T,
        dim_x=n * model.d_x,
        dim_u=n * model.d_u,
        A=A,
        B=B,
        Q=Q,
        R=R,
        Sigma_X=np.kron(eye, model.Sigma_X),
        Sigma_W=np.kron(eye, model.Sigma_W),
        mu=np.tile(model.mu_X, n),
    )


def solve_stacked_riccati(stacked: StackedModel) -> StackedRiccatiSolution:
    """Textbook finite-horizon backward recursion on the stacked problem.

    Kept independent of the production solver: plain LU solves, plain
    symmetrization, no shared helpers.
    """
    T = stacked.horizon
    M = np.zeros((T, stacked.dim_x, stacked.dim_x))
    K = np.zeros((T, stacked.dim_u, stacked.dim_x))
    M[T - 1] = (stacked.Q[T - 1] + stacked.Q[T - 1].T) / 2.0
    for k in range(T - 2, -1, -1):
        A, B = stacked.A[k], stacked.B[k]
        MB = M[k + 1] @ B
        H = B.T @ MB + stacked.R[k]
        G = MB.T @ A
        try:
            K[k] = -np.linalg.solve(H, G)
        except np.linalg.LinAlgError as exc:
            raise NumericalFailure(f"stacked recursion at step {k + 1}: {exc}") from None
        Mk = stacked.Q[k] + A.T @ M[k + 1] @ A + G.T @ K[k]
        M[k] = (Mk + Mk.T) / 2.0
    return StackedRiccatiSolution(M=M, K=K)


def centralized_cost(stacked: StackedModel, solution: StackedRiccatiSolution) -> float:
    """Optimal expected cost of the stacked problem: the initial value
    function plus the accumulated process-noise trace terms."""
    M1 = solution.M[0]
    cost = float(stacked.mu @ M1 @ stacked.mu + np.trace(M1 @ stacked.Sigma_X))
    for k in range(stacked.horizon - 1):
        cost += float(np.trace(solution.M[k + 1] @ stacked.Sigma_W))
    return cost


def structured_gains(solution: ControlRiccatiSolution, n: int) -> np.ndarray:
    """Stacked gains implied by the mean-field solution:
    identical diagonal blocks Kx plus uniform coupling (Kz - Kx)/n."""
    eye = np.eye(n)
    ones = np.ones((n, n))
    return np.stack(
        [
            np.kron(eye, solution.Kx[k]) + np.kron(ones / n, solution.Kz[k] - solution.Kx[k])
            for k in range(solution.horizon)
        ]
    )


def check_equivalence(
    model: LqMeanFieldModel, n: int | None = None, tolerance: float = 1e-8
) -> EquivalenceReport:
    """Compare the mean-field answer against the stacked oracle.

    Checks two things at population size n: (1) every stacked-optimal gain
    matrix equals its mean-field-structured counterpart in relative
    Frobenius norm; (2) the decentralized controller's exact expected cost
    equals the centralized optimal cost in relative terms. Passes iff both
    maxima are within tolerance.
    """
    if n is not None and n != model.n_agents:
        model = replace(model, n_agents=n)
    n = model.n_agents

    decentralized = solve_control_riccati(model)
    stacked = build_stacked_model(model, n)
    central = solve_stacked_riccati(stacked)
    implied = structured_gains(decentralized, n)

    residuals = np.zeros(model.horizon)
    for k in range(model.horizon):
        diff = float(np.linalg.norm(central.K[k] - implied[k]))
        scale = float(np.linalg.norm(central.K[k]))
        residuals[k] = diff / scale if scale > 0.0 else diff

    cost_central = centralized_cost(stacked, central)
    cost_decentral = exact_policy_cost(model, optimal_strategy(model)).total
    gap = abs(cost_central - cost_decentral)
    if cost_central != 0.0:
        gap /= abs(cost_central)

    max_residual = float(residuals.max()) if residuals.size else 0.0
    return EquivalenceReport(
        n_agents=n,
        horizon=model.horizon,
        tolerance=float(tolerance),
        gain_residuals=residuals,
        max_gain_residual=max_residual,
        cost_centralized=cost_central,
        cost_decentralized=cost_decentral,
        cost_gap=float(gap),
        passed=bool(max_residual <= tolerance and gap <= tolerance),
    )
