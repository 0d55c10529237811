import numpy as np
import pytest

from mflqg import (
    DimensionMismatch,
    GainSchedule,
    LocalFilterState,
    OutOfOrderUpdate,
    ValidationError,
    build_model,
    exact_policy_cost,
    filter_update,
    full_obs_action,
    init_filter_state,
    noisy_obs_action,
    optimal_strategy,
    simulate,
    solve_control_riccati,
    solve_filter_riccati,
)
from helpers import SMALL_NOISY_MODEL, random_model, run_noise, step_cost


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

    @pytest.mark.parametrize("t", [3, 1.5, "1", True])
    def test_step_out_of_range(self, t):
        with pytest.raises(ValidationError):
            full_obs_action(scalar_gains(), [1.0], [0.0], t)

    def test_whole_float_step_is_that_step(self):
        gains = scalar_gains()
        assert np.array_equal(full_obs_action(gains, [2.0], [1.0], 1.0),
                              full_obs_action(gains, [2.0], [1.0], 1))


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

    @pytest.mark.parametrize("t", [1.5, "1", True])
    def test_step_that_is_not_whole_rejected(self, t):
        model, gains = filter_fixture()
        state = LocalFilterState(x_hat=np.array([0.0]), time=1)
        with pytest.raises(ValidationError, match="step must be a whole number"):
            filter_update(model, state, gains, [0.0], [0.0], [0.0], t=t)

    def test_whole_float_step_is_that_step(self):
        model, gains = filter_fixture()
        state = LocalFilterState(x_hat=np.array([0.0]), time=1)
        new = filter_update(model, state, gains, y=[2.0], z=[0.0], u_prev=[0.0], t=1.0)
        want = filter_update(model, state, gains, y=[2.0], z=[0.0], u_prev=[0.0], t=1)
        assert new.time == want.time == 2 and type(new.time) is int
        assert np.array_equal(new.x_hat, want.x_hat)

    def test_wrong_observation_shape(self):
        model, gains = filter_fixture()
        state = LocalFilterState(x_hat=np.array([0.0]), time=1)
        with pytest.raises(DimensionMismatch):
            filter_update(model, state, gains, [0.0, 1.0], [0.0], [0.0], t=1)


    @pytest.mark.parametrize("z, u_prev, message", [
        ([0.0, 1.0], [0.0], r"^mean-field has shape \(2,\)"),
        ([0.0], [0.0, 1.0], r"^control has shape \(2,\)"),
    ], ids=["meanfield", "control"])
    def test_wrong_input_shape(self, z, u_prev, message):
        model, gains = filter_fixture()
        state = LocalFilterState(x_hat=np.array([0.0]), time=1)
        with pytest.raises(DimensionMismatch, match=message):
            filter_update(model, state, gains, [0.0], z, u_prev, t=1)

    def test_full_observation_model_rejected(self):
        _, gains = filter_fixture()
        model = build_model(horizon=3, n_agents=2, A=1.0, B=0.0, Q=1.0, R=1.0)
        state = LocalFilterState(x_hat=np.array([0.0]), time=1)
        with pytest.raises(ValidationError, match="require observation_mode = noisy"):
            filter_update(model, state, gains, [0.0], [0.0], [0.0], t=1)

    def test_schedule_without_filter_gains_rejected(self):
        model, gains = filter_fixture()
        state = LocalFilterState(x_hat=np.array([0.0]), time=1)
        with pytest.raises(ValidationError, match="no filter gains"):
            filter_update(model, state, GainSchedule(Kx=gains.Kx, Kz=gains.Kz),
                          [0.0], [0.0], [0.0], t=1)


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

    @pytest.mark.parametrize("t", [1.5, "1", True])
    def test_step_that_is_not_whole_rejected(self, t):
        _, gains = filter_fixture()
        state = LocalFilterState(x_hat=np.array([0.0]), time=1)
        with pytest.raises(ValidationError, match="step must be a whole number"):
            noisy_obs_action(gains, state, [0.0], t)

    def test_time_mismatch_rejected(self):
        model, gains = filter_fixture()
        state = LocalFilterState(x_hat=np.array([0.0]), time=1)
        with pytest.raises(OutOfOrderUpdate):
            noisy_obs_action(gains, state, [0.0], 2)


class TestGainScheduleType:
    def test_shape_mismatch_rejected(self):
        with pytest.raises(DimensionMismatch):
            GainSchedule(Kx=np.zeros((2, 1, 2)), Kz=np.zeros((2, 1, 1)))

    def test_nested_lists_become_float_stacks(self):
        assert GainSchedule(Kx=[[[0.0]]], Kz=[[[0.0]]]).horizon == 1
        gains = GainSchedule(Kx=[[[0.0]], [[0.0]]], Kz=[[[1]], [[0]]], Kf=[[[0.5]]])
        for stack in (gains.Kx, gains.Kz, gains.Kf):
            assert isinstance(stack, np.ndarray) and stack.dtype == np.float64
        assert (gains.horizon, gains.d_u, gains.d_x, gains.d_y) == (2, 1, 1, 1)

    @pytest.mark.parametrize("name", ["Kx", "Kz", "Kf"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_gain_rejected_when_built(self, name, bad):
        stacks = {"Kx": np.zeros((3, 1, 2)), "Kz": np.zeros((3, 1, 2)), "Kf": np.zeros((2, 2, 1))}
        stacks[name][-1, 0, 0] = bad
        with pytest.raises(ValidationError, match=f"{name} has a non-finite entry"):
            GainSchedule(**stacks)

    def test_filter_gain_shape_checked(self):
        with pytest.raises(DimensionMismatch):
            GainSchedule(
                Kx=np.zeros((3, 1, 1)), Kz=np.zeros((3, 1, 1)), Kf=np.zeros((3, 1, 1)),
            )


def replay_cost(model, policy, trace, x_hat_1):
    """Total cost of the run recorded in `trace`, replayed through the
    per-agent noisy laws with every estimate starting at `x_hat_1` and the
    trace's initial states and run noise."""
    x = trace.states[0]
    process_noise, obs_noise = run_noise(model, trace.seed, trace.run)
    filters = [LocalFilterState(x_hat=np.array(x_hat_1, dtype=float), time=1) for _ in x]
    total = 0.0
    for t in range(1, model.horizon + 1):
        k = t - 1
        z = np.add.reduce(x, axis=0) / len(x)
        u = np.stack([noisy_obs_action(policy, f, z, t) for f in filters])
        total += step_cost(x, u, z, model.Q[k], model.R[k], model.P[k])
        if t < model.horizon:
            y = x @ model.Cx[k].T + z @ model.Cz[k].T + obs_noise[k]
            filters = [filter_update(model, f, policy, y[i], z, u[i], t)
                       for i, f in enumerate(filters)]
            x = x @ model.A[k].T + u @ model.B[k].T + z @ model.D[k].T + process_noise[k]
    return total


class TestNoisyInitialEstimate:
    """The noisy law's estimator starts at mu_X and never uses z, although
    every controller knows z_1, which carries x^i_1 / n. Starting each
    estimate at z_1 instead, with the same gains and noise, lowers the cost
    on the model below at n = 2 (ROADMAP item 1)."""

    MODEL = SMALL_NOISY_MODEL

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

    @pytest.mark.xfail(strict=True, reason="ROADMAP item 1(b)")
    def test_single_agent_pays_the_full_observation_cost(self):
        # at n = 1, z = x, so every controller observes its state exactly
        # and the noisy model is its full-observation model in disguise
        noisy = build_model(**dict(self.MODEL, n_agents=1))
        full = build_model(**{name: value for name, value in self.MODEL.items()
                              if name not in ("Cx", "Cz", "Sigma_V", "observation_mode")},
                           n_agents=1)
        got = exact_policy_cost(noisy, optimal_strategy(noisy)).total
        want = exact_policy_cost(full, optimal_strategy(full)).total
        print(f"exact cost at n = 1: noisy {got:.3f}, full observation {want:.3f}")
        assert abs(got - want) <= 1e-9 * want
