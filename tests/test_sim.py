import csv
import os
import threading
import tracemalloc
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np
import pytest

from mflqg import (
    GainSchedule,
    IncompatibleStrategy,
    NumericalFailure,
    ValidationError,
    build_model,
    exact_policy_cost,
    export_trace_csv,
    filter_update,
    heater_model,
    init_filter_state,
    monte_carlo_cost,
    noisy_obs_action,
    optimal_strategy,
    simulate,
    solve_control_riccati,
    solve_filter_riccati,
)
from mflqg import sim
from mflqg.linalg import symmetrize
from helpers import (
    SMALL_NOISY_MODEL,
    cost_identity_check,
    decompose_auxiliary,
    mean_over_agents,
    rand_pd,
    rand_psd,
    random_model,
    repeated_horizon,
    step_cost,
    v1_factor,
    v1_run_noise,
)


def zero_policy(horizon, d_x, d_u):
    return GainSchedule(Kx=np.zeros((horizon, d_u, d_x)), Kz=np.zeros((horizon, d_u, d_x)))


def mc_run_bytes(model):
    """Bytes one Monte Carlo run holds: rank-sized process and observation
    noise and the kernel's working arrays, per agent."""
    _, Lw, Lv = sim._noise_factors(model)
    rank_v = 0 if Lv is None else Lv.shape[1]
    T = model.horizon
    return 8 * model.n_agents * (sim._MC_WORK_FLOATS * model.d_x + (T - 1) * Lw.shape[1]
                                 + T * rank_v)


class TestSimulate:
    def test_noiseless_zero_start_stays_zero(self):
        model = build_model(horizon=4, n_agents=3, A=1.0, B=1.0, Q=1.0, R=1.0)
        trace = simulate(model, zero_policy(4, 1, 1), seed=1)
        assert not np.any(trace.states)
        assert not np.any(trace.actions)
        assert trace.total_cost == 0.0

    def test_single_agent_follows_coupled_dynamics(self):
        model = build_model(
            horizon=5, n_agents=1, A=0.7, B=1.0, D=0.2, Q=1.0, R=1.0,
            Sigma_X=1.0, Sigma_W=0.4, initial_mean=1.0,
        )
        strategy = optimal_strategy(model)
        trace = simulate(model, strategy, seed=2)
        assert np.array_equal(trace.meanfield, trace.states[:, 0, :])
        for k in range(model.horizon - 1):
            expected = (
                (model.A[k] + model.D[k]) @ trace.states[k, 0]
                + model.B[k] @ trace.actions[k, 0]
                + trace.process_noise[k, 0]
            )
            assert np.allclose(trace.states[k + 1, 0], expected, rtol=0, atol=1e-13)

    def test_meanfield_matches_fixed_summation(self):
        rng = np.random.default_rng(30)
        model = random_model(rng, n_agents=5)
        trace = simulate(model, optimal_strategy(model), seed=3)
        for k in range(model.horizon):
            assert np.array_equal(trace.meanfield[k], mean_over_agents(trace.states[k]))
            assert np.array_equal(trace.mean_control[k], mean_over_agents(trace.actions[k]))

    def test_recorded_costs_match_recomputation(self):
        rng = np.random.default_rng(31)
        model = random_model(rng, n_agents=4)
        trace = simulate(model, optimal_strategy(model), seed=4)
        for k in range(model.horizon):
            again = step_cost(
                trace.states[k], trace.actions[k], trace.meanfield[k],
                model.Q[k], model.R[k], model.P[k],
            )
            assert abs(again - trace.step_costs[k]) <= 1e-12 * max(abs(again), 1.0)

    def test_bit_reproducible(self):
        rng = np.random.default_rng(32)
        model = random_model(rng, mode="noisy")
        schedule = solve_control_riccati(model).gain_schedule(solve_filter_riccati(model))
        t1 = simulate(model, schedule, seed=5)
        t2 = simulate(model, schedule, seed=5)
        assert np.array_equal(t1.states, t2.states)
        assert np.array_equal(t1.actions, t2.actions)
        assert np.array_equal(t1.observations, t2.observations)
        assert t1.total_cost == t2.total_cost

    def test_full_and_noisy_share_state_noise(self):
        rng = np.random.default_rng(33)
        noisy = random_model(rng, mode="noisy")
        full = replace(noisy, observation_mode="full")
        schedule = solve_control_riccati(noisy).gain_schedule(solve_filter_riccati(noisy))
        tn = simulate(noisy, schedule, seed=6)
        tf = simulate(full, optimal_strategy(full), seed=6)
        assert np.array_equal(tn.states[0], tf.states[0])
        assert np.array_equal(tn.process_noise, tf.process_noise)

    def test_strategy_type_enforced(self):
        rng = np.random.default_rng(34)
        full = random_model(rng)
        noisy = random_model(rng, mode="noisy")
        schedule = solve_control_riccati(noisy).gain_schedule(solve_filter_riccati(noisy))
        with pytest.raises(IncompatibleStrategy):
            simulate(full, schedule, seed=0)
        with pytest.raises(IncompatibleStrategy):
            simulate(noisy, optimal_strategy(full), seed=0)
        with pytest.raises(IncompatibleStrategy):
            simulate(noisy, solve_control_riccati(noisy).gain_schedule(), seed=0)

    def test_strategy_dims_enforced(self):
        rng = np.random.default_rng(35)
        model = random_model(rng, d_x=2)
        other = random_model(rng, d_x=1, d_u=1)
        with pytest.raises(IncompatibleStrategy):
            simulate(model, optimal_strategy(other), seed=0)

    def test_noisy_loop_matches_per_agent_control_law(self):
        rng = np.random.default_rng(36)
        model = random_model(rng, mode="noisy", n_agents=3, horizon=5)
        schedule = solve_control_riccati(model).gain_schedule(solve_filter_riccati(model))
        trace = simulate(model, schedule, seed=7)
        for agent in range(model.n_agents):
            state = init_filter_state(model)
            for t in range(1, model.horizon + 1):
                assert np.allclose(
                    trace.estimates[t - 1, agent], state.x_hat, rtol=1e-12, atol=1e-12
                )
                u = noisy_obs_action(schedule, state, trace.meanfield[t - 1], t)
                assert np.allclose(u, trace.actions[t - 1, agent], rtol=1e-12, atol=1e-12)
                if t < model.horizon:
                    state = filter_update(
                        model, state, schedule,
                        trace.observations[t - 1, agent], trace.meanfield[t - 1], u, t,
                    )


class TestAuxiliaryDecomposition:
    def test_identical_population_has_zero_deviations(self):
        model = build_model(
            horizon=4, n_agents=3, A=0.9, B=1.0, D=0.1, Q=1.0, R=1.0,
            Sigma_X=0.0, Sigma_W=0.0, initial_mean=2.0,
        )
        trace = simulate(model, optimal_strategy(model), seed=8)
        aux = decompose_auxiliary(trace)
        assert np.max(np.abs(aux.deviations)) <= 1e-12
        # identical subsystems evolve as the mean-field system
        for k in range(model.horizon - 1):
            expected = (model.A[k] + model.D[k]) @ aux.meanfield[k] + model.B[
                k
            ] @ aux.mean_control[k]
            assert np.allclose(aux.meanfield[k + 1], expected, rtol=0, atol=1e-12)

    def test_two_agent_arithmetic(self):
        states = np.array([[[1.0], [3.0]]])
        z = mean_over_agents(states[0])
        assert z[0] == 2.0
        xbar = states[0] - z
        assert np.array_equal(xbar, [[-1.0], [1.0]])

    def test_residuals_on_random_trace(self):
        rng = np.random.default_rng(37)
        model = random_model(rng, n_agents=5, horizon=8)
        trace = simulate(model, optimal_strategy(model), seed=9)
        aux = decompose_auxiliary(trace)
        assert aux.max_sum_residual_state <= 1e-10
        assert aux.max_sum_residual_control <= 1e-10
        assert aux.max_deviation_residual <= 1e-10
        assert aux.max_meanfield_residual <= 1e-10


class TestCostIdentity:
    def test_hand_case(self):
        lhs, rhs = cost_identity_check(
            np.array([[1.0], [3.0]]), np.zeros((2, 1)),
            np.array([[1.0]]), np.array([[1.0]]), np.array([[0.0]]),
        )
        assert lhs == 5.0
        assert abs(rhs - 5.0) <= 1e-12

    def test_identical_population_reduces_to_meanfield_cost(self):
        x = np.tile([1.5, -0.5], (4, 1))
        u = np.tile([0.3], (4, 1))
        Q, R, P = np.eye(2), np.eye(1), 2.0 * np.eye(2)
        lhs, rhs = cost_identity_check(x, u, Q, R, P)
        z = x[0]
        direct = z @ (Q + P) @ z + u[0] @ R @ u[0]
        assert abs(lhs - direct) <= 1e-12
        assert abs(lhs - rhs) <= 1e-12 * abs(lhs)

    def test_random_snapshot(self):
        rng = np.random.default_rng(38)
        x = rng.uniform(-2, 2, (5, 3))
        u = rng.uniform(-2, 2, (5, 2))
        lhs, rhs = cost_identity_check(x, u, rand_psd(rng, 3), rand_pd(rng, 2), rand_psd(rng, 3))
        assert abs(lhs - rhs) <= 1e-12 * abs(lhs)


class TestExactPolicyCost:
    def test_zero_model_zero_cost(self):
        model = build_model(horizon=3, n_agents=2, A=1.0, B=1.0, Q=1.0, R=1.0)
        evaluation = exact_policy_cost(model, zero_policy(3, 1, 1))
        assert evaluation.total == 0.0

    def test_nonnegative(self):
        rng = np.random.default_rng(39)
        model = random_model(rng)
        strategy = optimal_strategy(model)
        evaluation = exact_policy_cost(model, strategy)
        assert evaluation.total >= 0.0
        assert np.all(evaluation.step_costs >= -1e-12)

    def test_meanfield_noise_term_shrinks_with_population(self):
        rng = np.random.default_rng(40)
        model = random_model(rng, n_agents=2)
        strategy = optimal_strategy(model)
        totals = []
        for n in (2, 4, 8, 64):
            scaled = replace(model, n_agents=n)
            totals.append(exact_policy_cost(scaled, strategy).meanfield_noise_costs.sum())
        assert all(a > b for a, b in zip(totals, totals[1:]))

    def test_breakdown_population_scaling(self):
        rng = np.random.default_rng(41)
        model = random_model(rng, n_agents=2)
        strategy = optimal_strategy(model)
        ev2 = exact_policy_cost(model, strategy)
        ev5 = exact_policy_cost(replace(model, n_agents=5), strategy)
        # deviation part scales with (1 - 1/n), mean-field noise with 1/n,
        # and the deterministic mean-field part not at all
        assert np.allclose(
            ev2.deviation_costs / (1 - 1 / 2), ev5.deviation_costs / (1 - 1 / 5), rtol=1e-12
        )
        assert np.allclose(
            2 * ev2.meanfield_noise_costs, 5 * ev5.meanfield_noise_costs, rtol=1e-12
        )
        assert np.array_equal(ev2.meanfield_mean_costs, ev5.meanfield_mean_costs)

    def test_noisy_model_rejected(self):
        rng = np.random.default_rng(42)
        model = random_model(rng, mode="noisy")
        # rejected for the policy's want of filter gains, not for the mode
        with pytest.raises(IncompatibleStrategy, match="filter gains are required"):
            exact_policy_cost(model, zero_policy(model.horizon, model.d_x, model.d_u))

    def test_matches_monte_carlo(self):
        rng = np.random.default_rng(43)
        model = random_model(rng, n_agents=3, horizon=6, d_x=2, d_u=1)
        strategy = optimal_strategy(model)
        exact = exact_policy_cost(model, strategy).total
        mc = monte_carlo_cost(model, strategy, runs=20000, seed=44)
        assert abs(mc.mean - exact) <= 3.0 * mc.stderr


class TestNoisyExactCost:
    """The exact evaluator under noisy observation, on the model whose
    shipped-law costs ROADMAP item 1's table lists."""

    SHIPPED = {1: 45.491, 2: 35.598, 5: 29.662, 20: 26.694, 100: 25.902}

    @staticmethod
    def model_and_policy(n):
        model = build_model(**dict(SMALL_NOISY_MODEL, n_agents=n))
        return model, optimal_strategy(model)

    @pytest.mark.parametrize("n", sorted(SHIPPED))
    def test_shipped_law_cost_is_pinned(self, n):
        evaluation = exact_policy_cost(*self.model_and_policy(n))
        assert abs(evaluation.total - self.SHIPPED[n]) <= 1e-3
        assert evaluation.total == evaluation.step_costs.sum()

    @pytest.mark.parametrize("n", [2, 5])
    def test_matches_monte_carlo(self, n):
        model, policy = self.model_and_policy(n)
        exact = exact_policy_cost(model, policy).total
        mc = monte_carlo_cost(model, policy, runs=20000, seed=3)
        assert abs(mc.mean - exact) <= 4.0 * mc.stderr

    @pytest.mark.parametrize("n", [1, 2, 100])
    def test_estimation_error_follows_the_filter_recursion(self, n):
        # x - xhat is (x - z) - (xhat - zhat) plus (z - zhat), and the two
        # blocks are uncorrelated, with z - zhat of mean zero
        model, policy = self.model_and_policy(n)
        split = np.hstack([np.eye(model.d_x), -np.eye(model.d_x)])
        want = solve_filter_riccati(model).Sigma_e
        steps = list(sim._moments(model, policy))
        assert len(steps) == model.horizon
        for k, (_, cov_dev, _, mf_mean, mf_cov) in enumerate(steps):
            got = split @ cov_dev @ split.T + split @ mf_cov @ split.T
            assert np.max(np.abs(got - want[k])) <= 1e-12 * np.max(np.abs(want[k])), k
            assert np.max(np.abs(split @ mf_mean)) <= 1e-12 * np.max(np.abs(mf_mean))


# ---------------------------------------------------------------------------
# Reference implementation: exact evaluation with every step's covariances
# kept as (T, ., .) stacks and the costs read from them in a second loop. The
# one-loop `exact_policy_cost` must reproduce it digit for digit.

@dataclass(frozen=True, eq=False)
class TwoLoopPolicyEvaluation:
    total: float
    step_costs: np.ndarray            # (T,)
    deviation_costs: np.ndarray       # (T,)
    meanfield_costs: np.ndarray       # (T,)
    meanfield_mean_costs: np.ndarray  # (T,)
    meanfield_noise_costs: np.ndarray # (T,)
    deviation_cov: np.ndarray         # (T, d_x, d_x), per-agent deviation covariance
    meanfield_mean: np.ndarray        # (T, d_x)
    meanfield_cov: np.ndarray         # (T, d_x, d_x)


def two_loop_exact_policy_cost(model, policy) -> TwoLoopPolicyEvaluation:
    """Expected cost of a full-observation linear policy, exactly.

    Propagates the per-agent deviation covariance and the mean-field
    mean/covariance through the closed loop. By exchangeability every agent
    has the same deviation covariance, and the deviation/mean-field
    cross-covariance is identically zero, so the propagation is exact in
    dimension 2*d_x. The deviation noise covariance is (1 - 1/n) Sigma_W
    and the mean-field noise covariance is Sigma_W / n, from splitting
    i.i.d. noise into per-agent deviation and population average. A
    deviation moves under Kx, the mean-field under Kz.
    """
    if model.observation_mode != "full":
        raise IncompatibleStrategy("exact evaluation supports full observation only")
    policy = sim._check_policy(model, policy)
    T, n, d_x = model.horizon, model.n_agents, model.d_x

    dev_frac = 1.0 - 1.0 / n
    cov_dev = np.zeros((T, d_x, d_x))
    mf_mean = np.zeros((T, d_x))
    mf_cov = np.zeros((T, d_x, d_x))
    cov_dev[0] = dev_frac * model.Sigma_X
    mf_mean[0] = model.mu_X
    mf_cov[0] = model.Sigma_X / n

    for k in range(T - 1):
        closed_dev = model.A[k] + model.B[k] @ policy.Kx[k]
        closed_mf = model.A[k] + model.D[k] + model.B[k] @ policy.Kz[k]
        cov_dev[k + 1] = symmetrize(
            closed_dev @ cov_dev[k] @ closed_dev.T + dev_frac * model.Sigma_W,
            "deviation covariance",
        )
        mf_mean[k + 1] = closed_mf @ mf_mean[k]
        mf_cov[k + 1] = symmetrize(
            closed_mf @ mf_cov[k] @ closed_mf.T + model.Sigma_W / n,
            "mean-field covariance",
        )

    dev_costs = np.zeros(T)
    mf_mean_costs = np.zeros(T)
    mf_noise_costs = np.zeros(T)
    for k in range(T):
        Kx, Kz = policy.Kx[k], policy.Kz[k]
        w_dev = model.Q[k] + Kx.T @ model.R[k] @ Kx
        w_mf = model.Q[k] + model.P[k] + Kz.T @ model.R[k] @ Kz
        dev_costs[k] = float(np.trace(w_dev @ cov_dev[k]))
        mf_mean_costs[k] = float(mf_mean[k] @ w_mf @ mf_mean[k])
        mf_noise_costs[k] = float(np.trace(w_mf @ mf_cov[k]))

    mf_costs = mf_mean_costs + mf_noise_costs
    step_costs = dev_costs + mf_costs
    return TwoLoopPolicyEvaluation(
        total=float(np.add.reduce(step_costs)),
        step_costs=step_costs,
        deviation_costs=dev_costs,
        meanfield_costs=mf_costs,
        meanfield_mean_costs=mf_mean_costs,
        meanfield_noise_costs=mf_noise_costs,
        deviation_cov=cov_dev,
        meanfield_mean=mf_mean,
        meanfield_cov=mf_cov,
    )


class TestExactMatchesTwoLoopReference:
    @pytest.mark.parametrize("model", [
        random_model(np.random.default_rng(90 + i), n_agents=n, horizon=T, d_x=d_x, d_u=d_u)
        for i, (n, T, d_x, d_u) in enumerate(
            [(3, 6, 2, 2), (1, 5, 3, 2), (4, 1, 2, 1), (2, 8, 1, 3), (1, 1, 1, 1)]
        )
    ], ids=["n3", "n1", "T1", "dx1_du3", "n1_T1"])
    @pytest.mark.parametrize("gains", ["optimal", "perturbed"])
    def test_random_models(self, model, gains):
        policy = optimal_strategy(model)
        if gains == "perturbed":
            rng = np.random.default_rng(99)
            policy = GainSchedule(Kx=policy.Kx + 0.1 * rng.standard_normal(policy.Kx.shape),
                                  Kz=policy.Kz + 0.1 * rng.standard_normal(policy.Kz.shape))
        self.assert_same(model, policy)

    def test_heater(self):
        model = heater_model()
        # the tracking augmentation builds the preset's arrays exactly as before
        assert model.fingerprint() == "846260d59e672fc3"
        self.assert_same(model, optimal_strategy(model))

    @staticmethod
    def assert_same(model, policy):
        got = exact_policy_cost(model, policy)
        want = two_loop_exact_policy_cost(model, policy)
        assert got.total == want.total
        for name in ("step_costs", "deviation_costs", "meanfield_costs",
                     "meanfield_mean_costs", "meanfield_noise_costs"):
            assert np.array_equal(getattr(got, name), getattr(want, name)), name


class TestMonteCarlo:
    def test_too_few_runs_rejected(self):
        model = build_model(horizon=2, n_agents=2, A=1.0, B=1.0, Q=1.0, R=1.0)
        with pytest.raises(ValidationError):
            monte_carlo_cost(model, zero_policy(2, 1, 1), runs=1, seed=0)

    def test_run_count_must_be_whole(self):
        model = build_model(horizon=3, n_agents=2, A=0.9, B=1.0, Q=1.0, R=1.0, Sigma_W=1.0)
        policy = optimal_strategy(model)
        for runs in (2.5, True):
            with pytest.raises(ValidationError, match="whole number"):
                monte_carlo_cost(model, policy, runs=runs, seed=0)
        whole = monte_carlo_cost(model, policy, runs=4.0, seed=0)
        assert type(whole.runs) is int
        assert whole == monte_carlo_cost(model, policy, runs=4, seed=0)

    @pytest.mark.parametrize("workers", [0, -3, 2.5, "2", True])
    def test_worker_count_must_be_a_positive_whole_number(self, workers):
        model = build_model(horizon=3, n_agents=2, A=0.9, B=1.0, Q=1.0, R=1.0, Sigma_W=1.0)
        with pytest.raises(ValidationError):
            monte_carlo_cost(model, optimal_strategy(model), runs=4, seed=0, workers=workers)

    @pytest.mark.parametrize("name, value", [
        ("seed", 2.5), ("seed", -1), ("seed", 2**64), ("seed", "3"), ("run", 2.5), ("run", -1),
        ("run", 2**64), ("seed", True), ("run", np.True_),
    ])
    def test_seed_and_run_must_be_unsigned_64_bit(self, name, value):
        # a fractional index would silently name the stream of its integer part
        model = build_model(horizon=3, n_agents=2, A=0.9, B=1.0, Q=1.0, R=1.0, Sigma_W=1.0)
        policy = optimal_strategy(model)
        with pytest.raises(ValidationError, match=name):
            simulate(model, policy, **{"seed": 0, name: value})
        if name == "seed":
            with pytest.raises(ValidationError, match=name):
                monte_carlo_cost(model, policy, runs=4, seed=value)
        assert getattr(simulate(model, policy, **{"seed": 0, name: 2**64 - 1}), name) == 2**64 - 1

    def test_deterministic_model_vanishing_stderr(self):
        model = build_model(
            horizon=3, n_agents=2, A=0.9, B=1.0, Q=1.0, R=1.0, initial_mean=1.0
        )
        mc = monte_carlo_cost(model, optimal_strategy(model), runs=64, seed=1)
        # every run realizes the same cost; only summation rounding remains
        assert mc.stderr <= 1e-15
        assert mc.mean > 0.0

    def test_same_seed_same_answer(self):
        rng = np.random.default_rng(45)
        model = random_model(rng)
        strategy = optimal_strategy(model)
        a = monte_carlo_cost(model, strategy, runs=500, seed=2)
        b = monte_carlo_cost(model, strategy, runs=500, seed=2)
        assert a.mean == b.mean and a.stderr == b.stderr

    def test_worker_count_does_not_change_result(self):
        rng = np.random.default_rng(46)
        model = random_model(rng)
        strategy = optimal_strategy(model)
        a = monte_carlo_cost(model, strategy, runs=9000, seed=3, workers=1)
        b = monte_carlo_cost(model, strategy, runs=9000, seed=3, workers=4)
        assert a.mean == b.mean and a.stderr == b.stderr

    def test_first_run_matches_simulate(self):
        rng = np.random.default_rng(47)
        model = random_model(rng, n_agents=4)
        strategy = optimal_strategy(model)
        trace = simulate(model, strategy, seed=4, run=0)
        mc = monte_carlo_cost(model, strategy, runs=2, seed=4)
        # run 0 of the estimator uses the same substreams as simulate
        other = simulate(model, strategy, seed=4, run=1)
        pooled = 0.5 * (trace.total_cost + other.total_cost)
        assert abs(mc.mean - pooled) <= 1e-10 * max(abs(pooled), 1.0)

    @pytest.mark.parametrize("case", ["heater", "noisy_dx2"])
    def test_runs_equal_simulate_exactly(self, case):
        # d_x = 2 is a shape at which einsum's summation order follows the batch size
        if case == "heater":
            model = heater_model()
        else:
            model = random_model(np.random.default_rng(55), mode="noisy", n_agents=2,
                                 d_x=2, d_u=2, d_y=1, horizon=30)
        policy = optimal_strategy(model)
        mc = monte_carlo_cost(model, policy, runs=8, seed=0)
        costs = np.array([simulate(model, policy, seed=0, run=r).total_cost for r in range(8)])
        mean = float(np.add.reduce(costs) / 8)
        stderr = float(np.sqrt(float(np.add.reduce((costs - mean) ** 2) / 7) / 8))
        assert mc.mean == mean
        assert mc.stderr == stderr

    def test_noisy_mode_supported(self):
        rng = np.random.default_rng(48)
        model = random_model(rng, mode="noisy", n_agents=3, horizon=5)
        schedule = solve_control_riccati(model).gain_schedule(solve_filter_riccati(model))
        mc = monte_carlo_cost(model, schedule, runs=200, seed=5)
        assert np.isfinite(mc.mean) and mc.stderr > 0.0


    # float.hex of simulate(seed, run=3).total_cost and of the Monte Carlo
    # mean and stderr, recorded before the noise was held rank-sized in the
    # chunk. The product with the covariance factor runs in whichever BLAS
    # kernel numpy picks for the operands' shapes and layout, so these
    # digits also pin that choice.
    PINNED = {
        "heater": (heater_model, 7, 600,
                   "0x1.96268861c3f92p+8", "0x1.7949c2b20cd1ep+8", "0x1.efdfae165d5f7p+0"),
        "noisy_full_rank": (
            lambda: random_model(np.random.default_rng(70), mode="noisy", n_agents=4, d_x=3,
                                 d_u=2, d_y=2, horizon=12),
            9, 300, "0x1.cc4a711eb8d2dp+7", "0x1.590b4de0c27dap+7", "0x1.7b649ac60b432p+1"),
    }

    @pytest.mark.parametrize("case", sorted(PINNED))
    @pytest.mark.parametrize("workers", [1, 2, None])
    def test_digits_pinned(self, case, workers):
        make, seed, runs, total, mean, stderr = self.PINNED[case]
        model = make()
        policy = optimal_strategy(model)
        assert simulate(model, policy, seed=seed, run=3).total_cost.hex() == total
        kwargs = {} if workers is None else {"workers": workers}
        mc = monte_carlo_cost(model, policy, runs=runs, seed=seed, **kwargs)
        assert (mc.mean.hex(), mc.stderr.hex()) == (mean, stderr)

    @pytest.mark.parametrize("case", ["heater", "noisy_dx2"])
    def test_chunking_does_not_change_result(self, case, monkeypatch):
        if case == "heater":
            model = heater_model()
        else:
            model = random_model(np.random.default_rng(56), mode="noisy", n_agents=2,
                                 d_x=2, d_u=2, d_y=1, horizon=30)
        policy = optimal_strategy(model)
        reference = monte_carlo_cost(model, policy, runs=8, seed=1, workers=1)
        run_bytes = mc_run_bytes(model)
        # the default worker count is the usable CPUs
        monkeypatch.setattr(sim, "_usable_cpus", lambda: 3)
        chunks = []
        kernel = sim._closed_loop

        def spy(model, policy, seed, first_run, runs, record=False):
            chunks.append(runs)
            return kernel(model, policy, seed, first_run, runs, record)

        for workers in (1, 2, 3, None):
            count = 3 if workers is None else workers
            # each worker's chunk fits its share of the budget, and no more
            # processes start than there are chunks; a budget below one run
            # still steps one run per chunk, in one process
            for budget, shares, per_chunk in [
                (run_bytes // 2, 1, 1), (count * run_bytes, count, 1),
                (count * (3 * run_bytes + 7), count, 3), (6 * run_bytes + 7, count, 6 // count),
            ]:
                monkeypatch.setattr(sim, "_MC_CHUNK_BYTES", budget)
                sizes = [per_chunk] * (8 // per_chunk) + ([8 % per_chunk] if 8 % per_chunk else [])
                assert sim._mc_plan(model, 8, workers) == (min(shares, len(sizes)), per_chunk)
                assert monte_carlo_cost(model, policy, runs=8, seed=1, workers=workers) == reference
                # stepped in this process, the kernel sees the plan's chunks
                chunks.clear()
                with monkeypatch.context() as patch:
                    patch.setattr(sim, "_can_fork", lambda: False)
                    patch.setattr(sim, "_closed_loop", spy)
                    assert monte_carlo_cost(model, policy, runs=8, seed=1,
                                            workers=workers) == reference
                assert chunks == sizes
                assert all(size * run_bytes <= budget // shares or size == 1 for size in chunks)

    def test_worker_count_is_capped(self, monkeypatch):
        # however many CPUs there are, no count starts more processes than
        # the byte budget holds whole runs, nor more than there are chunks: a
        # heater run at n = 2,000 holds 2 MB, so 16 runs stepped one per
        # process would keep 32 MB in flight
        model = replace(heater_model(), n_agents=2000)
        assert mc_run_bytes(model) == 2_000_000
        shares = sim._MC_CHUNK_BYTES // 2_000_000
        monkeypatch.setattr(sim, "_usable_cpus", lambda: 64)
        for workers in (None, 64):
            assert sim._mc_plan(model, 16, workers) == (shares, 1)
            assert sim._mc_plan(model, 3, workers) == (3, 1)
        assert sim._mc_plan(model, 16, 3) == (3, sim._MC_CHUNK_BYTES // 3 // 2_000_000)
        # the capped count in use, at a budget of three runs: three processes
        policy = optimal_strategy(model)
        reference = monte_carlo_cost(model, policy, runs=6, seed=2, workers=1)
        monkeypatch.setattr(sim, "_MC_CHUNK_BYTES", 3 * 2_000_000)
        assert sim._mc_plan(model, 6, 64) == (3, 1)
        assert monte_carlo_cost(model, policy, runs=6, seed=2, workers=64) == reference

    def test_failure_in_a_worker_process_names_its_runs(self, monkeypatch):
        # A = 10 with Q = 0 overflows every run; two chunks of two runs are
        # stepped in two forked processes, and the first chunk's failure
        # reaches the caller
        model = build_model(horizon=400, n_agents=3, A=10.0, B=1.0, Q=0.0, R=1.0,
                            Sigma_X=1.0, Sigma_W=1.0)
        policy = optimal_strategy(model)
        monkeypatch.setattr(sim, "_MC_CHUNK_BYTES", 4 * mc_run_bytes(model))
        assert sim._mc_plan(model, 4, 2) == (2, 2)
        with pytest.raises(NumericalFailure, match=r"not finite in runs 0\.\.1$"):
            monte_carlo_cost(model, policy, runs=4, seed=0, workers=2)


    def test_caller_with_threads_steps_in_process(self, monkeypatch):
        # a process running a second thread is not forked: the chunks are
        # stepped where the caller runs, with the same digits
        model = heater_model()
        policy = optimal_strategy(model)
        reference = monte_carlo_cost(model, policy, runs=600, seed=7, workers=1)
        assert sim._mc_plan(model, 600, 2)[0] == 2
        checks = []
        can_fork = sim._can_fork
        monkeypatch.setattr(sim, "_can_fork", lambda: checks.append(can_fork()) or checks[-1])
        results = []
        thread = threading.Thread(
            target=lambda: results.append(monte_carlo_cost(model, policy, runs=600, seed=7,
                                                           workers=2)))
        thread.start()
        thread.join(timeout=60)
        assert not thread.is_alive()
        assert results == [reference] and checks == [False]


class TestUsableCpus:
    @pytest.mark.parametrize("cpu_max, cpus", [
        (None, 4), ("max 100000\n", 4), ("150000 100000\n", 2), ("50000 100000\n", 1),
        ("800000 100000\n", 4), ("100000 100000", 1), ("", 4), ("1.5 1\n", 4),
    ], ids=["absent", "max", "1.5-cpus", "half-cpu", "above-affinity", "one-cpu", "empty",
            "unreadable"])
    def test_cgroup_quota_caps_the_affinity_count(self, tmp_path, monkeypatch, cpu_max, cpus):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(4)), raising=False)
        path = tmp_path / "cpu.max"
        if cpu_max is not None:
            path.write_text(cpu_max, encoding="ascii")
        monkeypatch.setattr(sim, "_CPU_MAX", str(path))
        assert sim._usable_cpus() == cpus


# ---------------------------------------------------------------------------
# Reference implementation: the closed-loop kernel with a new Philox
# generator built per (run, kind), each run's noise drawn into temporaries
# and copied into the chunk, and the population and component sums taken by
# np.add.reduce. Its noise half is written independently from the RNG_SCHEME
# v2 definition: exact uint64 key and counter, rank(Sigma) normals per
# (step, agent), mapped through the eigenvector columns whose clipped
# eigenvalue is nonzero. The kernel must reproduce it bit for bit, zero
# signs included.

V2_KEY_SALT = 0x9E3779B97F4A8000


def parent_substream(seed: int, run: int, kind: int) -> np.random.Generator:
    """A new Philox stream for one (run, kind), key and counter as exact uint64."""
    key = np.array([seed, V2_KEY_SALT], dtype=np.uint64)
    counter = np.array([0, 0, run, kind], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key, counter=counter))


def kept_factor(cov):
    """The nonzero columns of the clipped eigen-factor of `cov`, C-ordered:
    BLAS picks its kernel by the operands' layout, so the digits of a
    product with the factor depend on it."""
    square = v1_factor(cov)
    return np.ascontiguousarray(square[:, np.any(square != 0.0, axis=0)])


def parent_noise_factors(model):
    """Kept factors of the three noise covariances (observation last, or None)."""
    Lv = kept_factor(model.Sigma_V) if model.observation_mode == "noisy" else None
    return kept_factor(model.Sigma_X), kept_factor(model.Sigma_W), Lv


def parent_draw_run_noise(model, seed: int, run: int, factors):
    """All randomness for one run, in the (step, agent, direction) layout,
    given the kept factors of the model."""
    T, n = model.horizon, model.n_agents
    Lx, Lw, Lv = factors
    init = parent_substream(seed, run, 0).standard_normal((n, Lx.shape[1]))
    x1 = model.mu_X + init @ Lx.T
    proc = parent_substream(seed, run, 1).standard_normal((T - 1, n, Lw.shape[1]))
    w = proc @ Lw.T
    v = None
    if model.observation_mode == "noisy":
        obs = parent_substream(seed, run, 2).standard_normal((T, n, Lv.shape[1]))
        v = obs @ Lv.T
    return x1, w, v


def parent_closed_loop(model, policy, seed: int, first_run: int, runs: int, record: bool = False):
    """Step runs first_run..first_run+runs-1 through the closed loop together."""
    T, n, d_x, d_y = model.horizon, model.n_agents, model.d_x, model.d_y
    noisy = model.observation_mode == "noisy"
    Fx, Fz = policy.Kx, policy.Kz - policy.Kx

    factors = parent_noise_factors(model)
    x1 = np.empty((runs, n, d_x))
    w = np.empty((runs, T - 1, n, d_x))
    v = np.empty((runs, T, n, d_y)) if noisy else None
    for i in range(runs):
        xi, wi, vi = parent_draw_run_noise(model, seed, first_run + i, factors)
        x1[i], w[i] = xi, wi
        if noisy:
            v[i] = vi

    x = x1
    xhat = np.broadcast_to(model.mu_X, (runs, n, d_x)).copy() if noisy else None
    y = None
    per_step = np.zeros((T, runs))
    steps = []
    for k in range(T):
        z = np.add.reduce(x, axis=1, keepdims=True) / n
        basis = xhat if noisy else x
        u = basis @ Fx[k].T + z @ Fz[k].T
        quad = parent_quadratic(x, model.Q[k]) + parent_quadratic(u, model.R[k])
        per_step[k] = np.add.reduce(quad, axis=1) / n
        per_step[k] += parent_quadratic(z, model.P[k])[:, 0]
        if noisy:
            z_obs = z @ model.Cz[k].T
            y = x @ model.Cx[k].T + z_obs + v[:, k]
        if record:
            steps.append((x, u, z[:, 0], np.add.reduce(u, axis=1) / n, y, xhat))
        if k + 1 < T:
            drift = z @ model.D[k].T
            if noisy:
                innovation = y - xhat @ model.Cx[k].T - z_obs
                xhat = xhat @ model.A[k].T + u @ model.B[k].T + drift + innovation @ policy.Kf[k].T
            x = x @ model.A[k].T + u @ model.B[k].T + drift + w[:, k]

    if not record:
        return per_step, None
    names = ("states", "actions", "meanfield", "mean_control", "observations", "estimates")
    recorded = {
        name: None if column[0] is None else np.stack(column, axis=1)
        for name, column in zip(names, zip(*steps))
    }
    return per_step, {**recorded, "process_noise": w, "obs_noise": v}


def parent_quadratic(vectors: np.ndarray, weight: np.ndarray) -> np.ndarray:
    """v' W v over the last axis, with per-run arithmetic."""
    return np.add.reduce((vectors @ weight) * vectors, axis=-1)


def assert_same_bits(got, want, name):
    assert got.shape == want.shape, name
    assert np.array_equal(got, want), name
    assert np.array_equal(np.signbit(got), np.signbit(want)), name


KERNEL_MODELS = {
    "heater": heater_model,
    "noisy_dx2": lambda: random_model(np.random.default_rng(55), mode="noisy", n_agents=2,
                                      d_x=2, d_u=2, d_y=1, horizon=30),
    "noisy_dx4_dy2": lambda: random_model(np.random.default_rng(58), mode="noisy",
                                          n_agents=5, d_x=4, d_u=2, d_y=2, horizon=9),
    # 9 state and 8 control components: the component sums numpy takes pairwise
    "full_dx9_du8": lambda: random_model(np.random.default_rng(59), n_agents=3, d_x=9,
                                         d_u=8, horizon=4),
    # one state component: the agent axis is contiguous and summed pairwise
    "scalar_n12": lambda: random_model(np.random.default_rng(60), n_agents=12, d_x=1,
                                       d_u=1, horizon=6),
    "n1": lambda: random_model(np.random.default_rng(61), n_agents=1, horizon=5),
    "n8": lambda: random_model(np.random.default_rng(62), n_agents=8, horizon=5),
    "T1": lambda: random_model(np.random.default_rng(63), n_agents=3, horizon=1),
    "noisy_T1": lambda: random_model(np.random.default_rng(64), mode="noisy", n_agents=3,
                                     horizon=1),
    # no noise and a zero start: every value is zero, and zero signs are compared too
    "zero_noise": lambda: build_model(horizon=4, n_agents=3, A=-np.eye(2), B=-np.ones((2, 1)),
                                      D=-0.5 * np.eye(2), Q=np.eye(2), R=1.0),
}


class TestKernelMatchesParentReference:
    @pytest.mark.parametrize("case", sorted(KERNEL_MODELS))
    @pytest.mark.parametrize("first_run, runs, record", [(5, 7, False), (3, 1, True)])
    def test_bits_match(self, case, first_run, runs, record):
        model = KERNEL_MODELS[case]()
        if case == "noisy_dx4_dy2":
            assert np.any(model.D) and model.d_y == 2
        policy = optimal_strategy(model)
        got_totals, got = sim._closed_loop(model, policy, 11, first_run, runs, record)
        want_costs, want = parent_closed_loop(model, policy, 11, first_run, runs, record)
        # the reference's per-step costs, folded in step order from a copy of
        # the first step's
        want_totals = want_costs[0].copy()
        for step in want_costs[1:]:
            want_totals += step
        assert_same_bits(got_totals, want_totals, "totals")
        if not record:
            assert got is None and want is None
            return
        want = {**want, "step_costs": want_costs.T}
        assert got.keys() == want.keys()
        for name in want:
            assert (got[name] is None) == (want[name] is None), name
            if want[name] is not None:
                assert_same_bits(got[name], want[name], name)


class CountingGenerator:
    """A generator that adds the size of every standard_normal draw to
    `counts[(run, kind)]`."""

    def __init__(self, generator, key, counts):
        self.generator, self.key, self.counts = generator, key, counts

    def standard_normal(self, *args, **kwargs):
        drawn = self.generator.standard_normal(*args, **kwargs)
        self.counts[self.key] = self.counts.get(self.key, 0) + drawn.size
        return drawn


def count_normals(monkeypatch):
    counts = {}
    reusable = sim._reusable_substream

    def spy(seed):
        point = reusable(seed)
        return lambda run, kind: CountingGenerator(point(run, kind), (run, kind), counts)

    monkeypatch.setattr(sim, "_reusable_substream", spy)
    return counts


class TestRankSizedDraws:
    def test_heater_draws_one_normal_per_step_and_agent(self, monkeypatch):
        # the reference components of the tracking state carry no noise, so
        # Sigma_X and Sigma_W have rank 1 in d_x = 3
        model = heater_model()
        T, n = model.horizon, model.n_agents
        counts = count_normals(monkeypatch)
        monte_carlo_cost(model, optimal_strategy(model), runs=3, seed=5)
        assert counts == {
            (run, kind): size
            for run in range(3)
            for kind, size in [(sim._KIND_INIT, n), (sim._KIND_PROCESS, (T - 1) * n)]
        }
        assert sum(counts[run, kind] for run, kind in counts if run == 0) == T * n * 1

    def test_noisy_model_draws_rank_sized_observation_noise(self, monkeypatch):
        # Sigma_V of rank 1 in d_y = 2
        model = build_model(horizon=3, n_agents=4, A=np.eye(2), B=np.ones((2, 1)), Q=np.eye(2),
                            R=1.0, Sigma_X=np.eye(2), Sigma_W=np.eye(2), Cx=np.eye(2),
                            Cz=np.zeros((2, 2)), Sigma_V=np.diag([0.0, 2.0]),
                            observation_mode="noisy")
        counts = count_normals(monkeypatch)
        trace = simulate(model, optimal_strategy(model), seed=5, run=9)
        assert counts == {(9, sim._KIND_INIT): 4 * 2, (9, sim._KIND_PROCESS): 2 * 4 * 2,
                          (9, sim._KIND_OBS): 3 * 4 * 1}
        assert not np.any(trace.obs_noise[..., 0]) and np.all(trace.obs_noise[..., 1])

    def test_zero_covariance_draws_nothing(self, monkeypatch):
        model = KERNEL_MODELS["zero_noise"]()
        counts = count_normals(monkeypatch)
        trace = simulate(model, optimal_strategy(model), seed=5, run=2)
        assert counts == {(2, sim._KIND_INIT): 0, (2, sim._KIND_PROCESS): 0}
        # the same values and zero signs as RNG_SCHEME v1, which drew
        # normals and multiplied them by a zero factor
        x1, w, _ = v1_run_noise(model, 5, 2)
        assert_same_bits(trace.states[0], x1, "states")
        assert_same_bits(trace.process_noise, w, "process_noise")


class TestExactStreamAddressing:
    def test_seeds_above_2_53_give_distinct_totals(self):
        model = heater_model()
        policy = optimal_strategy(model)
        totals = {simulate(model, policy, seed=2**60 + offset).total_cost
                  for offset in (0, 1, 100)}
        assert len(totals) == 3

    def test_runs_above_2_63_give_distinct_totals(self):
        model = heater_model()
        policy = optimal_strategy(model)
        totals = {simulate(model, policy, seed=3, run=run).total_cost
                  for run in (0, 2**63, 2**63 + 1, 2**64 - 1)}
        assert len(totals) == 4


def test_monte_carlo_memory_bound():
    # the chunks in flight together hold at most 16 MiB of rank-sized noise
    # and working arrays, whatever the worker count: one worker steps 1,024
    # heater runs as whole-budget chunks of 559 runs in this process, where
    # tracemalloc sees them (it sees nothing a forked worker allocates)
    model = heater_model()
    policy = optimal_strategy(model)
    assert sim._mc_plan(model, 1024, 1) == (1, 559)
    tracemalloc.start()
    try:
        monte_carlo_cost(model, policy, 1024, 7, workers=1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 20e6, f"tracemalloc peak {peak / 1e6:.1f} MB"


def test_long_horizon_memory_bound():
    # nothing a chunk holds grows with T times the run count: a noiseless
    # scalar run holds about 100 bytes, so 8,192 runs share one chunk, stepped
    # in this process, and their 500 per-step costs alone would take 33 MB
    model = build_model(horizon=500, n_agents=1, A=0.9, B=1.0, Q=1.0, R=1.0, Sigma_X=1.0)
    policy = optimal_strategy(model)
    tracemalloc.start()
    try:
        monte_carlo_cost(model, policy, 8192, 7, workers=1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 20e6, f"tracemalloc peak {peak / 1e6:.1f} MB"


def test_overflowing_closed_loop_raises():
    # A = 10 with Q = 0: the optimal gains are zero, the state grows tenfold
    # per step and overflows long before T = 400
    model = build_model(horizon=400, n_agents=3, A=10.0, B=1.0, Q=0.0, R=1.0,
                        Sigma_X=1.0, Sigma_W=1.0)
    policy = optimal_strategy(model)
    with pytest.raises(NumericalFailure, match="not finite"):
        simulate(model, policy, seed=7)
    with pytest.raises(NumericalFailure, match="not finite"):
        monte_carlo_cost(model, policy, runs=4, seed=7)
    with pytest.raises(NumericalFailure, match="not finite"):
        exact_policy_cost(model, policy)


def test_non_finite_observation_raises_when_recorded():
    # Cx = 1e8 on a state that grows tenfold per step: the observation of the
    # last step overflows, and no cost reads it (Q = P = 0, zero gains), so
    # the totals are finite; the Monte Carlo path records nothing and keeps
    # its one check, on the totals
    model = build_model(horizon=302, n_agents=2, A=10.0, B=1.0, Q=0.0, R=1.0, P=0.0,
                        Sigma_X=1.0, Sigma_W=1.0, Cx=1e8, Cz=0.0, Sigma_V=1.0,
                        observation_mode="noisy")
    policy = optimal_strategy(model)
    with pytest.raises(NumericalFailure,
                       match=r"^closed-loop observations has a non-finite entry at step 302 "):
        simulate(model, policy, seed=0)
    assert monte_carlo_cost(model, policy, runs=2, seed=0, workers=1).mean == 0.0


def test_overflowing_reporting_offset_raises_before_any_file(tmp_path):
    # A = 10 with Q = P = 0: zero gains, a cost that reads no state, and a
    # state that is finite at T = 309 but overflows when the reporting
    # offset is added to it
    model = build_model(horizon=309, n_agents=2, A=10.0, B=1.0, Q=0.0, R=1.0, P=0.0,
                        Sigma_X=1.0, Sigma_W=1.0, state_offset=1.5e308)
    trace = simulate(model, optimal_strategy(model), seed=0)
    assert trace.total_cost == 0.0
    out = tmp_path / "out"
    with pytest.raises(NumericalFailure,
                       match=r"^exported states has a non-finite entry at step 309 "):
        export_trace_csv(trace, out)
    assert not out.exists()


@pytest.mark.parametrize("horizon, R, runs", [(80, 1e300, 8), (152, 1e300, 1000),
                                              (200, 1e304, 64)])
def test_costs_near_the_float_limit_keep_finite_moments(horizon, R, runs):
    # A = 10 with R huge: the gains act little and each run's cost is finite,
    # about 1e158, 5e301 and 5e307, but the squared deviations of the first
    # two, and the sum over runs of the third, leave the float range
    model = build_model(horizon=horizon, n_agents=2, A=10.0, B=1.0, Q=1.0, R=R,
                        Sigma_X=1.0, Sigma_W=1.0)
    policy = optimal_strategy(model)
    mc = monte_carlo_cost(model, policy, runs=runs, seed=7)
    assert np.isfinite(mc.mean) and np.isfinite(mc.stderr) and mc.stderr > 0.0
    assert abs(mc.mean - exact_policy_cost(model, policy).total) <= 4.0 * mc.stderr


def reference_export(trace, out_dir):
    """The per-value `csv.writer` exporter that `export_trace_csv` must match
    byte for byte."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    model = trace.model
    offset = model.state_offset
    noisy = trace.observations is not None

    def _fmt(value):
        return format(float(value), ".17g")

    agents_path = out_dir / "trace_agents.csv"
    header = (
        ["t", "agent"]
        + [f"x_{j}" for j in range(model.d_x)]
        + [f"u_{j}" for j in range(model.d_u)]
        + ([f"y_{j}" for j in range(model.d_y)] if noisy else [])
    )
    with open(agents_path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for k in range(model.horizon):
            for i in range(model.n_agents):
                row = [str(k + 1), str(i)]
                row += [_fmt(val) for val in trace.states[k, i] + offset]
                row += [_fmt(val) for val in trace.actions[k, i]]
                if noisy:
                    row += [_fmt(val) for val in trace.observations[k, i]]
                writer.writerow(row)

    meanfield_path = out_dir / "trace_meanfield.csv"
    header = (
        ["t"]
        + [f"z_{j}" for j in range(model.d_x)]
        + [f"uz_{j}" for j in range(model.d_u)]
        + ["step_cost"]
    )
    with open(meanfield_path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for k in range(model.horizon):
            row = [str(k + 1)]
            row += [_fmt(val) for val in trace.meanfield[k] + offset]
            row += [_fmt(val) for val in trace.mean_control[k]]
            row.append(_fmt(trace.step_costs[k]))
            writer.writerow(row)

    return agents_path, meanfield_path


EDGE_VALUES = [-0.0, 5e-324, 1e-5, 1e16, 1 / 3, 1.7976931348623157e308]


def with_edge_values(trace):
    """The trace with EDGE_VALUES written over the first entries of every
    exported array."""
    fields = ("states", "actions", "observations", "meanfield", "mean_control", "step_costs")
    edited = {}
    for name in fields:
        values = getattr(trace, name)
        if values is not None:
            values = values.copy()
            values.flat[:len(EDGE_VALUES)] = EDGE_VALUES
            edited[name] = values
    return replace(trace, **edited)


def with_signed_zeros(trace, zero):
    """The trace with its last action, mean-control and step-cost columns
    set to `zero` at every step but one, where they hold the other signed
    zero: equal values whose bits, and printed fields, differ."""
    edited = {}
    for name in ("actions", "mean_control", "step_costs"):
        values = getattr(trace, name).copy()
        column = values[..., -1] if values.ndim > 1 else values
        column[...] = zero
        column[len(column) // 2] = -zero
        edited[name] = values
    return replace(trace, **edited)


EXPORT_MODELS = {
    "heater": heater_model,
    "noisy": lambda: random_model(np.random.default_rng(57), mode="noisy", n_agents=4,
                                  d_x=3, d_u=2, d_y=2, horizon=7),
    # one step: every column is step-invariant and each step fills nothing
    "horizon-1": lambda: random_model(np.random.default_rng(58), mode="noisy", n_agents=4,
                                      d_x=3, d_u=2, d_y=2, horizon=1),
    "one-agent": lambda: random_model(np.random.default_rng(59), n_agents=1, horizon=7),
    # the agent column and the two reference components x_1 and x_2 are
    # step-invariant
    "heater-n200": lambda: replace(heater_model(), n_agents=200),
}


class TestExport:
    @pytest.mark.parametrize("case", list(EXPORT_MODELS))
    def test_bytes_match_reference_writer(self, case, tmp_path):
        model = EXPORT_MODELS[case]()
        if case.startswith("heater"):
            assert np.any(model.state_offset != 0.0)
        trace = simulate(model, optimal_strategy(model), seed=8)
        if case == "heater-n200":
            assert (trace.states[:, :, 1:] == trace.states[:1, :, 1:]).all()
        candidates = [trace, with_edge_values(trace)]
        if model.horizon > 1:
            candidates += [with_signed_zeros(trace, 0.0), with_signed_zeros(trace, -0.0)]
        for candidate in candidates:
            got = export_trace_csv(candidate, tmp_path / "got")
            want = reference_export(candidate, tmp_path / "want")
            for got_path, want_path in zip(got, want):
                assert got_path.name == want_path.name
                assert got_path.read_bytes() == want_path.read_bytes()

    @pytest.mark.parametrize("n_agents, repeats", [(2000, 1), (500, 4)], ids=["n2000", "n500-T360"])
    def test_memory_does_not_grow_with_the_trace(self, n_agents, repeats, tmp_path):
        # one (T, n, width) block of the heater's rows is 8.6 MB in both
        # cases; one step's rows are 96 kB at n = 2000 and 24 kB at n = 500
        model = repeated_horizon(replace(heater_model(), n_agents=n_agents), repeats)
        trace = simulate(model, optimal_strategy(model), seed=8)
        tracemalloc.start()
        try:
            export_trace_csv(trace, tmp_path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2e6, f"tracemalloc peak {peak / 1e6:.1f} MB"

    def test_csv_round_trip_precision(self, tmp_path):
        rng = np.random.default_rng(49)
        model = random_model(rng, n_agents=3, horizon=4)
        trace = simulate(model, optimal_strategy(model), seed=6)
        agents_path, meanfield_path = export_trace_csv(trace, tmp_path)
        with open(agents_path) as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == model.horizon * model.n_agents
        offset = model.state_offset
        for row in rows[:12]:
            t = int(row["t"])
            agent = int(row["agent"])
            for j in range(model.d_x):
                assert float(row[f"x_{j}"]) == trace.states[t - 1, agent, j] + offset[j]
            for j in range(model.d_u):
                assert float(row[f"u_{j}"]) == trace.actions[t - 1, agent, j]
        with open(meanfield_path) as fh:
            mf_rows = list(csv.DictReader(fh))
        assert len(mf_rows) == model.horizon
        assert float(mf_rows[2]["step_cost"]) == trace.step_costs[2]

    def test_byte_identical_exports(self, tmp_path):
        rng = np.random.default_rng(50)
        model = random_model(rng, mode="noisy")
        schedule = solve_control_riccati(model).gain_schedule(solve_filter_riccati(model))
        trace1 = simulate(model, schedule, seed=7)
        trace2 = simulate(model, schedule, seed=7)
        a1, m1 = export_trace_csv(trace1, tmp_path / "one")
        a2, m2 = export_trace_csv(trace2, tmp_path / "two")
        assert a1.read_bytes() == a2.read_bytes()
        assert m1.read_bytes() == m2.read_bytes()
