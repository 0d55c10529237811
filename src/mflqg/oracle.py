"""Brute-force centralized verification.

The population problem can be written as one centralized linear-quadratic
problem in the stacked state (x^1; ...; x^n). Solving that stacked problem
with a plain textbook Riccati recursion gives an independent answer: the
centralized optimal gain must carry the exchangeable-plus-mean-field
structure (identical diagonal blocks, identical coupling blocks), and the
centralized optimal cost must equal the decentralized controller's exact
cost. This module deliberately shares no linear-algebra path with the
production recursions: symmetrization is unchecked. The stacked A, B, Q
and R are applied as Kronecker operators, never formed; M, H = B'MB + R
and K are dense, and H is solved by plain LU. Memory does not grow with
the horizon: one value matrix and one gain are held at a time, and each
gain is compared with the structured one as it is solved.
"""
from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np

from .control import GainSchedule
from .errors import CapExceeded, IncompatibleStrategy, NumericalFailure, ValidationError
from .model import LqMeanFieldModel
from .sim import exact_policy_cost, optimal_strategy

STACKED_DIM_CAP = 400


@dataclass(frozen=True, eq=False)
class StackedModel:
    """The n-subsystem problem as one centralized system of size n*d_x.

    Only the subsystem model is held; kron(I, Sigma_X) and kron(I,
    Sigma_W) enter only as traces (`_block_trace`).
    """

    n_agents: int
    horizon: int
    dim_x: int            # n * d_x
    dim_u: int            # n * d_u
    mu: np.ndarray        # (dim_x,)
    model: LqMeanFieldModel  # the subsystem problem that is stacked

    def blocks(self, k: int) -> tuple[tuple, tuple, tuple, tuple]:
        """(diagonal, coupling) of step k's stacked A, B, Q and R, each
        kron(I, diagonal) + kron(11', coupling) (no coupling if None)."""
        m, n = self.model, self.n_agents
        return ((m.A[k], m.D[k] * (1.0 / n)), (m.B[k], None),
                (m.Q[k] / n, m.P[k] / n**2), (m.R[k] / n, None))


def _transposed_times(operator: tuple, X: np.ndarray) -> np.ndarray:
    """S' @ X for an (n*d, r) X and S = kron(I, diagonal) + kron(11',
    coupling) of (d, c) blocks: a new (n*c, r) array."""
    diagonal, coupling = operator
    (d, c), n = diagonal.shape, X.shape[0] // diagonal.shape[0]
    product = np.matmul(diagonal.T, X.reshape(n, d, -1))
    if coupling is not None:
        product += np.tile(coupling.T, n) @ X
    return product.reshape(n * c, -1)


def _add_blocks(X: np.ndarray, operator: tuple) -> None:
    """X += kron(I, diagonal) + kron(11', coupling), in place, for a
    C-contiguous (n*r, n*c) X and (r, c) blocks."""
    diagonal, coupling = operator
    (r, c), n = diagonal.shape, X.shape[0] // diagonal.shape[0]
    if coupling is not None:
        X.reshape(n, r, n * c)[...] += np.tile(coupling, n)
    agents = np.arange(n)
    X.reshape(n, r, n, c)[agents, :, agents, :] += diagonal


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
    return StackedModel(n_agents=n, horizon=model.horizon, dim_x=n * model.d_x,
                        dim_u=n * model.d_u, mu=np.tile(model.mu_X, n), model=model)


def _block_trace(M: np.ndarray, covariance: np.ndarray) -> float:
    """trace(M kron(I, covariance)) from M's diagonal blocks alone, summed
    in the order `np.trace` sums it."""
    d = covariance.shape[0]
    n = M.shape[0] // d
    agents = np.arange(n)
    products = M.reshape(n, d, n, d)[agents, :, agents, :] @ covariance
    return float(np.add.reduce(np.diagonal(products, axis1=1, axis2=2).reshape(-1)))


def solve_stacked_riccati(stacked: StackedModel, policy: GainSchedule) -> StackedRiccatiSolution:
    """Textbook finite-horizon backward recursion on the stacked problem.

    Kept independent of the production solver: plain LU solves, plain
    symmetrization, no shared helpers. One value matrix and one gain are
    held at a time: each step's gain is compared with the `policy`'s
    structured gain (`_gain_residual`) as it is solved, and only the
    residuals and the gain of step 1 are kept. Raises `NumericalFailure`
    at the first step whose residual is not finite.
    """
    T = stacked.horizon
    residuals = np.zeros(T)
    noise_traces = np.zeros(T - 1)
    K = np.zeros((stacked.dim_u, stacked.dim_x))
    M = np.zeros((stacked.dim_x, stacked.dim_x))
    _add_blocks(M, stacked.blocks(T - 1)[2])
    M = (M + M.T) / 2.0
    for k in range(T - 1, -1, -1):
        if k < T - 1:  # the terminal step solves nothing: its gain is zero
            noise_traces[k] = _block_trace(M, stacked.model.Sigma_W)
            A, B, Q, R = stacked.blocks(k)
            # M is exactly symmetric: MB = (B'M)', G = B'MA = (A'MB)' and
            # A'MA = A'(A'M)'
            MB = _transposed_times(B, M).T
            H = _transposed_times(B, MB)
            _add_blocks(H, R)
            G = _transposed_times(A, MB).T
            try:
                K = -np.linalg.solve(H, G)
            except np.linalg.LinAlgError as exc:
                raise NumericalFailure(f"stacked recursion at step {k + 1}: {exc}") from None
            Mk = _transposed_times(A, _transposed_times(A, M).T)
            _add_blocks(Mk, Q)
            Mk += G.T @ K
            M = (Mk + Mk.T) / 2.0
        residuals[k] = _gain_residual(K, policy, k)
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
    cost = float(stacked.mu @ M1 @ stacked.mu + _block_trace(M1, stacked.model.Sigma_X))
    step = 1
    for term in solution.noise_traces:
        if not np.isfinite(cost):
            break
        cost += float(term)
        step += 1
    if not np.isfinite(cost):
        raise NumericalFailure(f"centralized cost is not finite at step {step}")
    return cost


def _gain_residual(K: np.ndarray, policy: GainSchedule, k: int) -> float:
    """Relative Frobenius distance of a stacked gain K from the policy's
    step-k gain kron(I, Kx) + kron(11', (Kz - Kx)/n); absolute if K = 0."""
    Kx, n = policy.Kx[k], K.shape[0] // policy.Kx[k].shape[0]
    diff = K.copy()
    _add_blocks(diff, (-Kx, (Kx - policy.Kz[k]) * (1.0 / n)))
    diff = float(np.linalg.norm(diff))
    scale = float(np.linalg.norm(K))
    return diff / scale if scale > 0.0 else diff


def check_equivalence(model: LqMeanFieldModel, tolerance: float = 1e-8) -> EquivalenceReport:
    """Compare the mean-field answer against the stacked oracle.

    Checks two things of the one policy `optimal_strategy` gives, at the
    model's population size n = n_agents: (1) every stacked-optimal gain
    matrix equals the policy's structured counterpart in relative Frobenius
    norm; (2) the policy's exact expected cost equals the centralized
    optimal cost in relative terms. Passes iff both maxima are within
    tolerance, which must be finite and >= 0. The stacked oracle supports
    full observation only, so a noisy-observation model raises
    `IncompatibleStrategy` before any solve. A gain residual or a
    centralized cost that is not finite raises `NumericalFailure`, naming
    its step.
    """
    tolerance = float(tolerance)
    if not 0.0 <= tolerance < np.inf:
        raise ValidationError(f"tolerance must be finite and >= 0, got {tolerance}")
    if model.observation_mode != "full":
        raise IncompatibleStrategy("the stacked oracle supports full observation only")
    policy = optimal_strategy(model)
    stacked = build_stacked_model(model)
    central = solve_stacked_riccati(stacked, policy)

    cost_central = centralized_cost(stacked, central)
    cost_decentral = exact_policy_cost(model, policy).total
    gap = abs(cost_central - cost_decentral)
    if cost_central != 0.0:
        gap /= abs(cost_central)

    max_residual = float(central.gain_residuals.max())
    return EquivalenceReport(
        n_agents=model.n_agents,
        horizon=model.horizon,
        tolerance=tolerance,
        gain_residuals=central.gain_residuals,
        max_gain_residual=max_residual,
        cost_centralized=cost_central,
        cost_decentralized=cost_decentral,
        cost_gap=float(gap),
        passed=bool(max_residual <= tolerance and gap <= tolerance),
    )
