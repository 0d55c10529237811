"""Brute-force centralized verification.

The population problem can be written as one centralized linear-quadratic
problem in the stacked state (x^1; ...; x^n). Solving that stacked problem
with a plain textbook Riccati recursion gives an independent answer: the
centralized optimal gain must carry the exchangeable-plus-mean-field
structure (identical diagonal blocks, identical coupling blocks), and the
centralized optimal cost must equal the decentralized controller's exact
cost. This module deliberately shares no linear-algebra path with the
production recursions: solves use plain LU, symmetrization is unchecked.
Memory does not grow with the horizon: the backward recursion holds one
value matrix and one gain at a time, and compares each gain with the
structured one as it solves it.
"""
from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np

from .errors import CapExceeded, IncompatibleStrategy, NumericalFailure, ValidationError
from .model import LqMeanFieldModel
from .riccati import ControlRiccatiSolution, solve_control_riccati
from .sim import exact_policy_cost

STACKED_DIM_CAP = 400


@dataclass(frozen=True, eq=False)
class StackedModel:
    """The n-subsystem problem as one centralized system of size n*d_x.

    Only the step-invariant parts are held; `step(k)` forms step k's dense
    matrices from the subsystem model, so memory does not grow with T. The
    process-noise covariance kron(I, Sigma_W) is not formed: only its
    trace against a value matrix is needed (`_noise_trace`).
    """

    n_agents: int
    horizon: int
    dim_x: int            # n * d_x
    dim_u: int            # n * d_u
    Sigma_X: np.ndarray   # (dim_x, dim_x)
    mu: np.ndarray        # (dim_x,)
    model: LqMeanFieldModel  # the subsystem problem that is stacked

    def step(self, k: int) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Dense (A, B, Q, R) of step k: (dim_x, dim_x), (dim_x, dim_u),
        (dim_x, dim_x), (dim_u, dim_u).

        The mean-field coupling becomes a rank-one-in-blocks term: every
        block row of the stacked dynamics sees the average of all subsystem
        states.
        """
        m, n = self.model, self.n_agents
        A = _exchangeable(m.A[k], m.D[k] * (1.0 / n), n)
        B = _exchangeable(m.B[k], None, n)
        Q = _exchangeable(m.Q[k] / n, m.P[k] / n**2, n)
        R = _exchangeable(m.R[k] / n, None, n)
        return A, B, Q, R


def _exchangeable(diagonal: np.ndarray, coupling: np.ndarray | None, n: int) -> np.ndarray:
    """The (n*r, n*c) matrix whose every (r, c) block is `coupling` (zero
    when None), plus `diagonal` on the diagonal blocks: the entries of
    kron(I, diagonal) + kron(ones, coupling), without forming either."""
    r, c = diagonal.shape
    if coupling is None:
        stacked = np.zeros((n * r, n * c))
    else:
        stacked = np.tile(coupling, (n, n))
    blocks = stacked.reshape(n, r, n, c)
    agents = np.arange(n)
    blocks[agents, :, agents, :] += diagonal
    return stacked


@dataclass(frozen=True, eq=False)
class StackedRiccatiSolution:
    gain_residuals: np.ndarray  # (T,), relative Frobenius distance to the structured gains
    K1: np.ndarray            # (dim_u, dim_x), the gain of step 1
    M1: np.ndarray            # (dim_x, dim_x), the value matrix of step 1
    noise_traces: np.ndarray  # (T-1,), trace(M_{k+1} Sigma_W) for k = 0..T-2


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
        return {**asdict(self), "gain_residuals": [float(r) for r in self.gain_residuals]}


def build_stacked_model(model: LqMeanFieldModel) -> StackedModel:
    """Stack the model's n_agents copies of the subsystem problem into one
    centralized problem."""
    n = model.n_agents
    if n * model.d_x > STACKED_DIM_CAP:
        raise CapExceeded(
            f"stacked dimension n*d_x = {n * model.d_x} exceeds the cap {STACKED_DIM_CAP}; "
            "the stacked solve is a desk-scale verification oracle"
        )
    return StackedModel(
        n_agents=n,
        horizon=model.horizon,
        dim_x=n * model.d_x,
        dim_u=n * model.d_u,
        Sigma_X=_exchangeable(model.Sigma_X, None, n),
        mu=np.tile(model.mu_X, n),
        model=model,
    )


def _noise_trace(M: np.ndarray, stacked: StackedModel) -> float:
    """trace(M kron(I, Sigma_W)), the process-noise term of one step, from
    M's diagonal blocks alone: one (d_x, d_x) product per agent instead of
    a full (n*d_x)^3 one. The diagonal is summed in the order `np.trace`
    sums it, and on the models tested each block product has the digits of
    the full product's diagonal."""
    n, d = stacked.n_agents, stacked.model.d_x
    agents = np.arange(n)
    products = M.reshape(n, d, n, d)[agents, :, agents, :] @ stacked.model.Sigma_W
    return float(np.add.reduce(np.diagonal(products, axis1=1, axis2=2).reshape(-1)))


def solve_stacked_riccati(stacked: StackedModel,
                          policy: ControlRiccatiSolution) -> StackedRiccatiSolution:
    """Textbook finite-horizon backward recursion on the stacked problem.

    Kept independent of the production solver: plain LU solves, plain
    symmetrization, no shared helpers. One value matrix and one gain are
    held at a time: each step's gain is compared with the `policy`'s
    structured gain (`_gain_residual`) as it is solved, and only the
    residuals and the gain of step 1 are kept. Raises `NumericalFailure`
    at the first step whose residual is not finite.
    """
    T, n = stacked.horizon, stacked.n_agents
    residuals = np.zeros(T)
    noise_traces = np.zeros(T - 1)
    K = np.zeros((stacked.dim_u, stacked.dim_x))
    Q = stacked.step(T - 1)[2]
    M = (Q + Q.T) / 2.0
    for k in range(T - 1, -1, -1):
        if k < T - 1:  # the terminal step solves nothing: its gain is zero
            noise_traces[k] = _noise_trace(M, stacked)
            A, B, Q, R = stacked.step(k)
            MB = M @ B
            H = B.T @ MB + R
            G = MB.T @ A
            try:
                K = -np.linalg.solve(H, G)
            except np.linalg.LinAlgError as exc:
                raise NumericalFailure(f"stacked recursion at step {k + 1}: {exc}") from None
            Mk = Q + A.T @ M @ A + G.T @ K
            M = (Mk + Mk.T) / 2.0
        residuals[k] = _gain_residual(K, _structured_gain(policy, n, k))
        if not np.isfinite(residuals[k]):
            raise NumericalFailure(f"stacked recursion at step {k + 1}: the gain residual "
                                   "is not finite")
    return StackedRiccatiSolution(gain_residuals=residuals, K1=K, M1=M,
                                  noise_traces=noise_traces)


def centralized_cost(stacked: StackedModel, solution: StackedRiccatiSolution) -> float:
    """Optimal expected cost of the stacked problem: the initial value
    function plus the accumulated process-noise trace terms. Raises
    `NumericalFailure` at the first step whose term leaves the sum not
    finite."""
    M1 = solution.M1
    cost = float(stacked.mu @ M1 @ stacked.mu + np.trace(M1 @ stacked.Sigma_X))
    step = 1
    for term in solution.noise_traces:
        if not np.isfinite(cost):
            break
        cost += float(term)
        step += 1
    if not np.isfinite(cost):
        raise NumericalFailure(f"centralized cost is not finite at step {step}")
    return cost


def _structured_gain(solution: ControlRiccatiSolution, n: int, k: int) -> np.ndarray:
    """Stacked gain of step k implied by the mean-field solution:
    identical diagonal blocks Kx plus uniform coupling (Kz - Kx)/n."""
    return _exchangeable(solution.Kx[k], (solution.Kz[k] - solution.Kx[k]) * (1.0 / n), n)


def _gain_residual(K: np.ndarray, structured: np.ndarray) -> float:
    """Relative Frobenius distance of a stacked gain from the structured
    one; the absolute distance when the stacked gain is zero."""
    diff = float(np.linalg.norm(K - structured))
    scale = float(np.linalg.norm(K))
    return diff / scale if scale > 0.0 else diff


def check_equivalence(model: LqMeanFieldModel, tolerance: float = 1e-8) -> EquivalenceReport:
    """Compare the mean-field answer against the stacked oracle.

    Checks two things at the model's population size n = n_agents: (1)
    every stacked-optimal gain matrix equals its mean-field-structured
    counterpart in relative Frobenius norm; (2) the decentralized
    controller's exact expected cost equals the centralized optimal cost in
    relative terms. Passes iff both
    maxima are within tolerance, which must be finite and >= 0. The
    stacked oracle supports full observation only, so a noisy-observation
    model raises `IncompatibleStrategy` before any solve. A gain residual
    or a centralized cost that is not finite raises `NumericalFailure`,
    naming its step.
    """
    tolerance = float(tolerance)
    if not 0.0 <= tolerance < np.inf:
        raise ValidationError(f"tolerance must be finite and >= 0, got {tolerance}")
    if model.observation_mode != "full":
        raise IncompatibleStrategy("the stacked oracle supports full observation only")
    n = model.n_agents

    decentralized = solve_control_riccati(model)
    stacked = build_stacked_model(model)
    central = solve_stacked_riccati(stacked, decentralized)

    cost_central = centralized_cost(stacked, central)
    cost_decentral = exact_policy_cost(model, decentralized.gain_schedule()).total
    gap = abs(cost_central - cost_decentral)
    if cost_central != 0.0:
        gap /= abs(cost_central)

    max_residual = float(central.gain_residuals.max())
    return EquivalenceReport(
        n_agents=n,
        horizon=model.horizon,
        tolerance=tolerance,
        gain_residuals=central.gain_residuals,
        max_gain_residual=max_residual,
        cost_centralized=cost_central,
        cost_decentralized=cost_decentral,
        cost_gap=float(gap),
        passed=bool(max_residual <= tolerance and gap <= tolerance),
    )
