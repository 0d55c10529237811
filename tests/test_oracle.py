import tracemalloc
from dataclasses import dataclass, replace

import numpy as np
import pytest

from mflqg import (
    CapExceeded,
    IncompatibleStrategy,
    ValidationError,
    NumericalFailure,
    GainSchedule,
    build_model,
    build_stacked_model,
    centralized_cost,
    check_equivalence,
    exact_policy_cost,
    optimal_strategy,
    simulate,
    solve_control_riccati,
    solve_stacked_riccati,
)
from mflqg import oracle
from mflqg.model import LqMeanFieldModel
from mflqg.oracle import STACKED_DIM_CAP, EquivalenceReport
from mflqg.presets import heater_model
from mflqg.riccati import ControlRiccatiSolution
from helpers import (
    nan_solving_numpy,
    rand_pd,
    rand_psd,
    random_model,
    repeated_horizon,
    step_cost,
)


@pytest.fixture
def small_model():
    rng = np.random.default_rng(60)
    return random_model(rng, n_agents=3, horizon=5, d_x=2, d_u=1)


class TestStackedConstruction:
    def test_single_agent_collapse(self):
        rng = np.random.default_rng(61)
        model = random_model(rng, n_agents=1, d_x=2, d_u=2)
        stacked = build_stacked_model(model)
        for k in range(model.horizon):
            A, B, Q, R = stacked.step(k)
            assert np.allclose(A, model.A[k] + model.D[k], rtol=0, atol=1e-15)
            assert np.allclose(Q, model.Q[k] + model.P[k], rtol=0, atol=1e-15)
            assert np.array_equal(R, model.R[k])
            assert np.array_equal(B, model.B[k])

    def test_uncoupled_dynamics_block_diagonal(self):
        rng = np.random.default_rng(62)
        model = random_model(rng, n_agents=3, coupled=False)
        stacked = build_stacked_model(model)
        d = model.d_x
        for k in range(model.horizon):
            A = stacked.step(k)[0]
            for i in range(3):
                for j in range(3):
                    block = A[i * d:(i + 1) * d, j * d:(j + 1) * d]
                    if i == j:
                        assert np.array_equal(block, model.A[k])
                    else:
                        assert not np.any(block)

    def test_one_step_propagation_matches_population(self, small_model):
        model = small_model
        trace = simulate(model, optimal_strategy(model), seed=60)
        stacked = build_stacked_model(model)
        for k in range(model.horizon - 1):
            xs = trace.states[k].ravel()
            us = trace.actions[k].ravel()
            ws = trace.process_noise[k].ravel()
            A, B, _, _ = stacked.step(k)
            nxt = A @ xs + B @ us + ws
            assert np.allclose(nxt, trace.states[k + 1].ravel(), rtol=0, atol=1e-14)

    def test_quadratic_form_matches_population_cost(self, small_model):
        model = small_model
        trace = simulate(model, optimal_strategy(model), seed=61)
        stacked = build_stacked_model(model)
        for k in range(model.horizon):
            xs = trace.states[k].ravel()
            us = trace.actions[k].ravel()
            direct = step_cost(
                trace.states[k], trace.actions[k], trace.meanfield[k],
                model.Q[k], model.R[k], model.P[k],
            )
            _, _, Q, R = stacked.step(k)
            quad = xs @ Q @ xs + us @ R @ us
            assert abs(quad - direct) <= 1e-12 * max(abs(direct), 1.0)

    def test_population_override_and_cap(self, small_model):
        stacked = build_stacked_model(replace(small_model, n_agents=7))
        assert stacked.n_agents == 7
        assert stacked.dim_x == 7 * small_model.d_x
        with pytest.raises(CapExceeded):
            build_stacked_model(replace(small_model, n_agents=500))
        # zero agents exceeds no cap: it is not a population
        with pytest.raises(ValidationError):
            build_stacked_model(replace(small_model, n_agents=0))


class TestStackedSolution:
    def test_single_agent_gain_is_meanfield_gain(self):
        rng = np.random.default_rng(63)
        model = random_model(rng, n_agents=1, d_x=2, d_u=2)
        mf = solve_control_riccati(model)
        central = solve_stacked_riccati(build_stacked_model(model), mf)
        scale = max(np.linalg.norm(mf.Kz[0]), 1e-30)
        assert np.linalg.norm(central.K1 - mf.Kz[0]) / scale <= 1e-10
        # at n = 1 the structured gain of every step is Kx + (Kz - Kx) = Kz
        assert central.gain_residuals.max() <= 1e-10

    def test_uncoupled_gain_is_block_diagonal_local_gain(self):
        # agents decouple only when both the dynamics coupling D and the
        # mean-field cost weight P vanish
        rng = np.random.default_rng(64)
        T, d_x, d_u = 6, 2, 2
        model = build_model(
            horizon=T, n_agents=3,
            A=rng.uniform(-1, 1, (T, d_x, d_x)),
            B=rng.uniform(-1, 1, (T, d_x, d_u)),
            Q=np.stack([rand_psd(rng, d_x) for _ in range(T)]),
            R=np.stack([rand_pd(rng, d_u) for _ in range(T)]),
        )
        mf = solve_control_riccati(model)
        central = solve_stacked_riccati(build_stacked_model(model), mf)
        expected = np.kron(np.eye(3), mf.Kx[0])
        assert np.linalg.norm(central.K1 - expected) / np.linalg.norm(expected) <= 1e-10
        # Kz = Kx, so the structured gain of every step is block diagonal
        assert np.array_equal(mf.Kz, mf.Kx)
        assert central.gain_residuals.max() <= 1e-10

    def test_terminal_gain_zero(self, small_model):
        mf = solve_control_riccati(small_model)
        assert not np.any(mf.Kx[-1]) and not np.any(mf.Kz[-1])
        central = solve_stacked_riccati(build_stacked_model(small_model), mf)
        # a nonzero stacked gain lies at relative distance 1 from a zero one
        assert central.gain_residuals[-1] == 0.0
        # with one step, the gain of step 1 is the terminal gain
        one_step = random_model(np.random.default_rng(72), n_agents=2, horizon=1, d_x=1)
        central = solve_stacked_riccati(build_stacked_model(one_step),
                                        solve_control_riccati(one_step))
        assert central.K1.shape == (4, 2) and not np.any(central.K1)

    def test_scalar_fixture_two_agents(self):
        # A=1, B=1, Q=1, R=1, D=0, P=0, T=2: Kx_1 = -0.5 for each agent
        model = build_model(horizon=2, n_agents=2, A=1.0, B=1.0, Q=1.0, R=1.0)
        central = solve_stacked_riccati(build_stacked_model(model), solve_control_riccati(model))
        assert np.allclose(central.K1, -0.5 * np.eye(2), rtol=0, atol=1e-14)
        assert central.gain_residuals.max() <= 1e-8


class TestEquivalence:
    def test_random_models_pass(self, small_model):
        report = check_equivalence(small_model, tolerance=1e-8)
        assert report.passed
        assert report.max_gain_residual <= 1e-8
        assert report.cost_gap <= 1e-8

    def test_population_override(self, small_model):
        report = check_equivalence(replace(small_model, n_agents=5))
        assert report.n_agents == 5
        assert report.passed

    def test_centralized_cost_is_a_lower_bound(self, small_model):
        model = small_model
        stacked = build_stacked_model(model)
        central = centralized_cost(stacked,
                                   solve_stacked_riccati(stacked, solve_control_riccati(model)))
        strategy = optimal_strategy(model)
        rng = np.random.default_rng(65)
        Fx = strategy.Kx + 0.05 * rng.standard_normal(strategy.Kx.shape)
        Fz = strategy.Kz - strategy.Kx + 0.05 * rng.standard_normal(strategy.Kz.shape)
        perturbed = GainSchedule(Kx=Fx, Kz=Fx + Fz)
        worse = exact_policy_cost(model, perturbed).total
        assert worse > central

    def test_noisy_model_rejected_before_stacked_solve(self, monkeypatch):
        model = random_model(np.random.default_rng(66), mode="noisy", n_agents=3, horizon=5)
        solves = []
        monkeypatch.setattr(oracle, "solve_stacked_riccati", solves.append)
        for population in (model, replace(model, n_agents=4)):
            with pytest.raises(IncompatibleStrategy, match="full observation only"):
                check_equivalence(population)
        assert solves == []

    @pytest.mark.parametrize("tolerance", [float("nan"), float("inf"), -1e-8])
    def test_tolerance_must_be_finite_and_nonnegative(self, small_model, tolerance, monkeypatch):
        solves = []
        monkeypatch.setattr(oracle, "solve_control_riccati", solves.append)
        monkeypatch.setattr(oracle, "solve_stacked_riccati", solves.append)
        with pytest.raises(ValidationError, match="tolerance"):
            check_equivalence(small_model, tolerance=tolerance)
        assert solves == []

    def test_non_finite_gain_names_its_step(self, small_model, monkeypatch):
        # the terminal step solves nothing, so step T - 1 is the first hit
        monkeypatch.setattr(oracle, "np", nan_solving_numpy())
        step = small_model.horizon - 1
        with pytest.raises(NumericalFailure, match=rf"^stacked recursion at step {step}: "
                                                   "the gain residual is not finite$"):
            check_equivalence(small_model)

    @pytest.mark.parametrize("step", [2, 5])
    def test_non_finite_cost_names_its_step(self, small_model, step, monkeypatch):
        # noise_traces[k], solved for k = T-2 down to 0, is the noise that
        # enters step k + 2: call c solves the term of step T + 1 - c
        noise_trace, calls = oracle._noise_trace, []

        def poisoned(M, stacked):
            calls.append(None)
            poison = small_model.horizon + 1 - len(calls) == step
            return np.inf if poison else noise_trace(M, stacked)

        monkeypatch.setattr(oracle, "_noise_trace", poisoned)
        with pytest.raises(NumericalFailure, match=rf"^centralized cost is not finite at step "
                                                   rf"{step}$"):
            check_equivalence(small_model)

    def test_report_serialization(self, small_model):
        report = check_equivalence(small_model)
        data = report.to_dict()
        assert data["passed"] is True
        assert data["n_agents"] == small_model.n_agents
        assert len(data["gain_residuals"]) == small_model.horizon
        assert data["cost_gap"] == report.cost_gap


# ---------------------------------------------------------------------------
# A dense stacked oracle that holds every step's stacked matrices and value
# matrices as (T, ., .) arrays: the reference that `mflqg.oracle`, which
# forms them one step at a time, must reproduce digit for digit.

@dataclass(frozen=True, eq=False)
class DenseStackedModel:
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
class DenseRiccatiSolution:
    M: np.ndarray  # (T, dim_x, dim_x)
    K: np.ndarray  # (T, dim_u, dim_x)


def dense_build_stacked_model(model: LqMeanFieldModel) -> DenseStackedModel:
    """Stack the model's n_agents copies of the subsystem problem into one
    centralized problem.

    The mean-field coupling becomes a rank-one-in-blocks term: every block
    row of the stacked dynamics sees the average of all subsystem states.
    """
    n = model.n_agents
    if n * model.d_x > STACKED_DIM_CAP:
        raise CapExceeded(
            f"stacked dimension n*d_x = {n * model.d_x} exceeds the cap {STACKED_DIM_CAP}; "
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

    return DenseStackedModel(
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


def dense_solve_stacked_riccati(stacked: DenseStackedModel) -> DenseRiccatiSolution:
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
    return DenseRiccatiSolution(M=M, K=K)


def dense_centralized_cost(stacked: DenseStackedModel, solution: DenseRiccatiSolution) -> float:
    """Optimal expected cost of the stacked problem: the initial value
    function plus the accumulated process-noise trace terms."""
    M1 = solution.M[0]
    cost = float(stacked.mu @ M1 @ stacked.mu + np.trace(M1 @ stacked.Sigma_X))
    for k in range(stacked.horizon - 1):
        cost += float(np.trace(solution.M[k + 1] @ stacked.Sigma_W))
    return cost


def dense_structured_gains(solution: ControlRiccatiSolution, n: int) -> np.ndarray:
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


def dense_check_equivalence(model: LqMeanFieldModel, tolerance: float = 1e-8) -> EquivalenceReport:
    """Compare the mean-field answer against the stacked oracle.

    Checks two things at the model's population size n_agents: (1) every stacked-optimal gain
    matrix equals its mean-field-structured counterpart in relative
    Frobenius norm; (2) the decentralized controller's exact expected cost
    equals the centralized optimal cost in relative terms. Passes iff both
    maxima are within tolerance.
    """
    n = model.n_agents

    decentralized = solve_control_riccati(model)
    stacked = dense_build_stacked_model(model)
    central = dense_solve_stacked_riccati(stacked)
    implied = dense_structured_gains(decentralized, n)

    residuals = np.zeros(model.horizon)
    for k in range(model.horizon):
        diff = float(np.linalg.norm(central.K[k] - implied[k]))
        scale = float(np.linalg.norm(central.K[k]))
        residuals[k] = diff / scale if scale > 0.0 else diff

    cost_central = dense_centralized_cost(stacked, central)
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


def coupled_model(seed, n_agents, d_x=2, d_u=1, horizon=5):
    return random_model(np.random.default_rng(seed), n_agents=n_agents, horizon=horizon,
                        d_x=d_x, d_u=d_u)


class TestMatchesDenseReference:
    @pytest.mark.parametrize("model", [
        coupled_model(70, 3),
        coupled_model(71, 4, d_x=3, d_u=2, horizon=7),
        coupled_model(72, 2, d_x=1, d_u=2, horizon=1),
        coupled_model(73, 1, d_x=3, d_u=2),
    ], ids=["n3", "n4_dx3", "T1", "n1"])
    def test_random_models(self, model):
        self.assert_same(model, model.n_agents)

    def test_heater_n30(self):
        self.assert_same(heater_model(), 30)

    @staticmethod
    def assert_same(model, n):
        model = replace(model, n_agents=n)
        assert check_equivalence(model).to_dict() == dense_check_equivalence(model).to_dict()
        stacked, dense = build_stacked_model(model), dense_build_stacked_model(model)
        central = solve_stacked_riccati(stacked, solve_control_riccati(model))
        reference = dense_solve_stacked_riccati(dense)
        assert np.array_equal(central.K1, reference.K[0])
        assert np.array_equal(central.gain_residuals,
                              dense_check_equivalence(model).gain_residuals)
        assert np.array_equal(central.M1, reference.M[0])
        assert centralized_cost(stacked, central) == dense_centralized_cost(dense, reference)
        for k in range(model.horizon):
            for got, want in zip(stacked.step(k), (dense.A[k], dense.B[k], dense.Q[k], dense.R[k])):
                assert np.array_equal(got, want)


def test_memory_does_not_grow_with_the_horizon():
    # the heater at n=50 (stacked dimension 150) over 90 and 360 steps: one
    # step's stacked matrices take about 1.8 MB, and a stack of every
    # step's gains would add 60 kB a step (23 MB at T = 360)
    for repeats in (1, 4):
        model = repeated_horizon(replace(heater_model(), n_agents=50), repeats)
        tracemalloc.start()
        try:
            report = check_equivalence(model)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert report.passed
        assert peak <= 3e6, f"T={model.horizon}: tracemalloc peak {peak / 1e6:.1f} MB"
