import numpy as np
import pytest

from mflqg import (
    CapExceeded,
    ValidationError,
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
    step_cost,
    structured_gains,
)
from helpers import rand_pd, rand_psd, random_model


@pytest.fixture
def small_model():
    rng = np.random.default_rng(60)
    return random_model(rng, n_agents=3, horizon=5, d_x=2, d_u=1)


class TestStackedConstruction:
    def test_single_agent_collapse(self):
        rng = np.random.default_rng(61)
        model = random_model(rng, n_agents=1, d_x=2, d_u=2)
        stacked = build_stacked_model(model)
        assert np.allclose(stacked.A, model.A + model.D, rtol=0, atol=1e-15)
        assert np.allclose(stacked.Q, model.Q + model.P, rtol=0, atol=1e-15)
        assert np.array_equal(stacked.R, model.R)
        assert np.array_equal(stacked.B, model.B)

    def test_uncoupled_dynamics_block_diagonal(self):
        rng = np.random.default_rng(62)
        model = random_model(rng, n_agents=3, coupled=False)
        stacked = build_stacked_model(model)
        d = model.d_x
        for k in range(model.horizon):
            for i in range(3):
                for j in range(3):
                    block = stacked.A[k, i * d:(i + 1) * d, j * d:(j + 1) * d]
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
            nxt = stacked.A[k] @ xs + stacked.B[k] @ us + ws
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
            quad = xs @ stacked.Q[k] @ xs + us @ stacked.R[k] @ us
            assert abs(quad - direct) <= 1e-12 * max(abs(direct), 1.0)

    def test_population_override_and_cap(self, small_model):
        stacked = build_stacked_model(small_model, n=7)
        assert stacked.n_agents == 7
        assert stacked.dim_x == 7 * small_model.d_x
        with pytest.raises(CapExceeded):
            build_stacked_model(small_model, n=500)
        with pytest.raises(CapExceeded):
            build_stacked_model(small_model, n=0)


    def test_population_must_be_whole(self, small_model):
        with pytest.raises(ValidationError):
            build_stacked_model(small_model, n=2.5)
        stacked = build_stacked_model(small_model, n=2.0)
        assert stacked.n_agents == 2 and type(stacked.n_agents) is int
        assert stacked.dim_x == 2 * small_model.d_x
        assert np.array_equal(stacked.A, build_stacked_model(small_model, n=2).A)


class TestStackedSolution:
    def test_single_agent_gain_is_meanfield_gain(self):
        rng = np.random.default_rng(63)
        model = random_model(rng, n_agents=1, d_x=2, d_u=2)
        central = solve_stacked_riccati(build_stacked_model(model))
        mf = solve_control_riccati(model)
        for k in range(model.horizon):
            scale = max(np.linalg.norm(mf.Kz[k]), 1e-30)
            assert np.linalg.norm(central.K[k] - mf.Kz[k]) / scale <= 1e-10

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
        central = solve_stacked_riccati(build_stacked_model(model))
        mf = solve_control_riccati(model)
        expected = np.stack(
            [np.kron(np.eye(3), mf.Kx[k]) for k in range(model.horizon)]
        )
        for k in range(model.horizon):
            scale = max(np.linalg.norm(expected[k]), 1e-30)
            assert np.linalg.norm(central.K[k] - expected[k]) / scale <= 1e-10

    def test_terminal_gain_zero(self, small_model):
        central = solve_stacked_riccati(build_stacked_model(small_model))
        assert not np.any(central.K[-1])

    def test_scalar_fixture_two_agents(self):
        # A=1, B=1, Q=1, R=1, D=0, P=0, T=2: Kx_1 = -0.5 for each agent
        model = build_model(horizon=2, n_agents=2, A=1.0, B=1.0, Q=1.0, R=1.0)
        central = solve_stacked_riccati(build_stacked_model(model))
        assert np.allclose(central.K[0], -0.5 * np.eye(2), rtol=0, atol=1e-14)
        implied = structured_gains(solve_control_riccati(model), 2)
        assert np.allclose(central.K, implied, rtol=0, atol=1e-8)


class TestEquivalence:
    def test_random_models_pass(self, small_model):
        report = check_equivalence(small_model, tolerance=1e-8)
        assert report.passed
        assert report.max_gain_residual <= 1e-8
        assert report.cost_gap <= 1e-8

    def test_population_override(self, small_model):
        report = check_equivalence(small_model, n=5)
        assert report.n_agents == 5
        assert report.passed

    def test_population_override_must_be_whole(self, small_model):
        with pytest.raises(ValidationError):
            check_equivalence(small_model, n=2.5)
        report = check_equivalence(small_model, n=2.0)
        assert report.n_agents == 2 and type(report.n_agents) is int
        assert report.to_dict() == check_equivalence(small_model, n=2).to_dict()

    def test_centralized_cost_is_a_lower_bound(self, small_model):
        model = small_model
        stacked = build_stacked_model(model)
        central = centralized_cost(stacked, solve_stacked_riccati(stacked))
        strategy = optimal_strategy(model)
        rng = np.random.default_rng(65)
        Fx = strategy.Kx + 0.05 * rng.standard_normal(strategy.Kx.shape)
        Fz = strategy.Kz - strategy.Kx + 0.05 * rng.standard_normal(strategy.Kz.shape)
        perturbed = GainSchedule(Kx=Fx, Kz=Fx + Fz)
        worse = exact_policy_cost(model, perturbed).total
        assert worse > central

    def test_report_serialization(self, small_model):
        report = check_equivalence(small_model)
        data = report.to_dict()
        assert data["passed"] is True
        assert data["n_agents"] == small_model.n_agents
        assert len(data["gain_residuals"]) == small_model.horizon
        assert data["cost_gap"] == report.cost_gap
