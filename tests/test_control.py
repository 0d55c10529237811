import numpy as np
import pytest

from mflqg import (
    DimensionMismatch,
    GainSchedule,
    LocalFilterState,
    OutOfOrderUpdate,
    ValidationError,
    build_model,
    filter_update,
    full_obs_action,
    init_filter_state,
    noisy_obs_action,
    optimal_strategy,
    simulate,
    solve_control_riccati,
    solve_filter_riccati,
    step_cost,
)
from helpers import random_model


def scalar_gains():
    model = build_model(horizon=2, n_agents=2, A=1.0, B=1.0, Q=1.0, R=1.0)
    return solve_control_riccati(model).gain_schedule()


class TestFullObsAction:
    def test_subsystem_at_the_mean_uses_meanfield_gain(self):
        rng = np.random.default_rng(20)
        model = random_model(rng)
        gains = solve_control_riccati(model).gain_schedule()
        z = rng.uniform(-1, 1, model.d_x)
        u = full_obs_action(gains, z, z, t=2)
        assert np.allclose(u, gains.Kz[1] @ z, rtol=0, atol=1e-14)

    def test_zero_inputs_zero_action(self):
        gains = scalar_gains()
        assert np.array_equal(full_obs_action(gains, [0.0], [0.0], 1), [0.0])

    def test_scalar_fixture_value(self):
        u = full_obs_action(scalar_gains(), [2.0], [1.0], t=1)
        assert u[0] == pytest.approx(-1.0, abs=1e-14)

    def test_terminal_action_is_zero(self):
        u = full_obs_action(scalar_gains(), [3.0], [-2.0], t=2)
        assert np.array_equal(u, [0.0])

    def test_linearity(self):
        rng = np.random.default_rng(21)
        model = random_model(rng)
        gains = solve_control_riccati(model).gain_schedule()
        x1, x2 = rng.uniform(-1, 1, (2, model.d_x))
        z1, z2 = rng.uniform(-1, 1, (2, model.d_x))
        a, b = 0.7, -1.3
        combined = full_obs_action(gains, a * x1 + b * x2, a * z1 + b * z2, 3)
        split = a * full_obs_action(gains, x1, z1, 3) + b * full_obs_action(gains, x2, z2, 3)
        assert np.allclose(combined, split, rtol=0, atol=1e-12)

    def test_exchangeability(self):
        rng = np.random.default_rng(22)
        model = random_model(rng)
        gains = solve_control_riccati(model).gain_schedule()
        xi, xj = rng.uniform(-1, 1, (2, model.d_x))
        z = rng.uniform(-1, 1, model.d_x)
        ui = full_obs_action(gains, xi, z, 1)
        uj = full_obs_action(gains, xj, z, 1)
        assert np.array_equal(full_obs_action(gains, xj, z, 1), uj)
        assert np.array_equal(full_obs_action(gains, xi, z, 1), ui)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            full_obs_action(scalar_gains(), [1.0, 2.0], [0.0], 1)

    def test_step_out_of_range(self):
        with pytest.raises(ValidationError):
            full_obs_action(scalar_gains(), [1.0], [0.0], 3)


def filter_fixture():
    """Scalar model with hand-set filter gain 1/2."""
    model = build_model(
        horizon=3, n_agents=2, A=1.0, B=0.0, Q=1.0, R=1.0,
        Cx=1.0, Cz=0.0, Sigma_X=1.0, Sigma_W=0.0, Sigma_V=1.0,
        observation_mode="noisy",
    )
    gains = GainSchedule(
        Kx=np.zeros((3, 1, 1)), Kz=np.zeros((3, 1, 1)), Kf=np.full((2, 1, 1), 0.5),
    )
    return model, gains


class TestFilterUpdate:
    def test_scalar_fixture_update(self):
        model, gains = filter_fixture()
        state = LocalFilterState(x_hat=np.array([0.0]), time=1)
        new = filter_update(model, state, gains, y=[2.0], z=[0.0], u_prev=[0.0], t=1)
        assert new.time == 2
        assert new.x_hat[0] == 1.0

    def test_zero_innovation_propagates_dynamics(self):
        rng = np.random.default_rng(23)
        model = random_model(rng, mode="noisy")
        gains = solve_control_riccati(model).gain_schedule(solve_filter_riccati(model))
        state = init_filter_state(model)
        z = rng.uniform(-1, 1, model.d_x)
        u = rng.uniform(-1, 1, model.d_u)
        y = model.Cx[0] @ state.x_hat + model.Cz[0] @ z
        new = filter_update(model, state, gains, y, z, u, t=1)
        expected = model.A[0] @ state.x_hat + model.B[0] @ u + model.D[0] @ z
        assert np.allclose(new.x_hat, expected, rtol=0, atol=1e-13)

    def test_zero_gain_ignores_observation(self):
        model, gains = filter_fixture()
        gains = GainSchedule(Kx=gains.Kx, Kz=gains.Kz, Kf=np.zeros((2, 1, 1)))
        state = LocalFilterState(x_hat=np.array([1.5]), time=1)
        new = filter_update(model, state, gains, y=[99.0], z=[0.0], u_prev=[0.0], t=1)
        assert new.x_hat[0] == 1.5

    def test_initial_state_is_population_mean(self):
        model = build_model(
            horizon=2, n_agents=2, A=1.0, B=1.0, Q=1.0, R=1.0,
            Cx=1.0, Cz=0.0, Sigma_V=1.0, initial_mean=4.0,
            observation_mode="noisy",
        )
        assert np.array_equal(init_filter_state(model).x_hat, [4.0])

    def test_out_of_order_rejected(self):
        model, gains = filter_fixture()
        state = LocalFilterState(x_hat=np.array([0.0]), time=2)
        with pytest.raises(OutOfOrderUpdate):
            filter_update(model, state, gains, [0.0], [0.0], [0.0], t=1)

    def test_update_past_end_rejected(self):
        model, gains = filter_fixture()
        state = LocalFilterState(x_hat=np.array([0.0]), time=3)
        with pytest.raises(ValidationError):
            filter_update(model, state, gains, [0.0], [0.0], [0.0], t=3)

    def test_wrong_observation_shape(self):
        model, gains = filter_fixture()
        state = LocalFilterState(x_hat=np.array([0.0]), time=1)
        with pytest.raises(DimensionMismatch):
            filter_update(model, state, gains, [0.0, 1.0], [0.0], [0.0], t=1)


class TestNoisyObsAction:
    def test_estimate_at_the_mean(self):
        model, gains = filter_fixture()
        z = np.array([0.7])
        state = LocalFilterState(x_hat=z.copy(), time=2)
        u = noisy_obs_action(gains, state, z, t=2)
        assert np.allclose(u, gains.Kz[1] @ z, rtol=0, atol=1e-15)

    def test_terminal_action_zero(self):
        model, gains = filter_fixture()
        state = LocalFilterState(x_hat=np.array([5.0]), time=3)
        assert np.array_equal(noisy_obs_action(gains, state, [1.0], 3), [0.0])

    def test_time_mismatch_rejected(self):
        model, gains = filter_fixture()
        state = LocalFilterState(x_hat=np.array([0.0]), time=1)
        with pytest.raises(OutOfOrderUpdate):
            noisy_obs_action(gains, state, [0.0], 2)


class TestGainScheduleType:
    def test_shape_mismatch_rejected(self):
        with pytest.raises(DimensionMismatch):
            GainSchedule(Kx=np.zeros((2, 1, 2)), Kz=np.zeros((2, 1, 1)))

    def test_filter_gain_shape_checked(self):
        with pytest.raises(DimensionMismatch):
            GainSchedule(
                Kx=np.zeros((3, 1, 1)), Kz=np.zeros((3, 1, 1)), Kf=np.zeros((3, 1, 1)),
            )


def replay_cost(model, policy, trace, x_hat_1):
    """Total cost of the run recorded in `trace`, replayed through the
    per-agent noisy laws with every estimate starting at `x_hat_1` and the
    trace's initial states and noise."""
    x = trace.states[0]
    filters = [LocalFilterState(x_hat=np.array(x_hat_1, dtype=float), time=1) for _ in x]
    total = 0.0
    for t in range(1, model.horizon + 1):
        k = t - 1
        z = np.add.reduce(x, axis=0) / len(x)
        u = np.stack([noisy_obs_action(policy, f, z, t) for f in filters])
        total += step_cost(x, u, z, model.Q[k], model.R[k], model.P[k])
        if t < model.horizon:
            y = x @ model.Cx[k].T + z @ model.Cz[k].T + trace.obs_noise[k]
            filters = [filter_update(model, f, policy, y[i], z, u[i], t)
                       for i, f in enumerate(filters)]
            x = x @ model.A[k].T + u @ model.B[k].T + z @ model.D[k].T + trace.process_noise[k]
    return total


class TestNoisyInitialEstimate:
    """The noisy law's estimator starts at mu_X and never uses z, although
    every controller knows z_1, which carries x^i_1 / n. Starting each
    estimate at z_1 instead, with the same gains and noise, lowers the cost
    on the model below at n = 2 (ROADMAP item 1)."""

    MODEL = dict(horizon=10, n_agents=2, A=0.95, B=1.0, D=0.3, Q=1.0, R=0.5, P=1.0,
                 Cx=1.0, Cz=0.4, Sigma_V=2.0, Sigma_X=4.0, Sigma_W=0.5, initial_mean=1.0,
                 observation_mode="noisy")

    def test_replay_from_mu_matches_simulate(self):
        model = build_model(**self.MODEL)
        policy = optimal_strategy(model)
        for run in range(20):
            trace = simulate(model, policy, seed=3, run=run)
            replayed = replay_cost(model, policy, trace, model.mu_X)
            assert abs(replayed - trace.total_cost) <= 1e-12 * trace.total_cost

    @pytest.mark.xfail(strict=True, reason="ROADMAP item 1")
    def test_starting_at_z1_does_not_lower_cost(self):
        model = build_model(**self.MODEL)
        policy = optimal_strategy(model)
        savings = []
        for run in range(500):
            trace = simulate(model, policy, seed=3, run=run)
            variant = replay_cost(model, policy, trace, trace.meanfield[0])
            savings.append(trace.total_cost - variant)
        mean = float(np.mean(savings))
        stderr = float(np.std(savings, ddof=1) / np.sqrt(len(savings)))
        print(f"paired saving of x_hat_1 = z_1: {mean:.3f} +/- {stderr:.3f}")
        assert abs(mean) <= 4.0 * stderr
