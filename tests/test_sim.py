import ast
import csv
import inspect
import os
import signal
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
from mflqg import linalg, noise, save_model, sim
from mflqg.cli import main
from mflqg.linalg import symmetrize
from helpers import (
    SMALL_NOISY_MODEL,
    closed_form_cost,
    cost_identity_check,
    decompose_auxiliary,
    filling_open,
    mean_over_agents,
    rand_pd,
    rand_psd,
    random_model,
    rel_err,
    repeated_horizon,
    run_noise,
    step_cost,
    v1_factor,
    v1_run_noise,
)


def zero_policy(horizon, d_x, d_u):
    return GainSchedule(Kx=np.zeros((horizon, d_u, d_x)), Kz=np.zeros((horizon, d_u, d_x)))


def mc_run_bytes(model):
    """Bytes one Monte Carlo run holds. Per agent: its rank-sized process
    and observation noise, and the kernel's planes by component kind: two
    of the state (four, with the estimate), one of the action (and of the
    innovation), two scratch planes of the widest kind and one of cost
    terms. Per run: the mean-field, three planes of the widest kind for its
    products, and three costs."""
    _, Lw, Lv = noise._noise_factors(model)
    T, d_x, d_u = model.horizon, model.d_x, model.d_u
    d_y, rank_v = (0, 0) if Lv is None else (model.d_y, Lv.shape[1])
    wide = max(d_x, d_u, d_y)
    per_agent = ((T - 1) * Lw.shape[1] + T * rank_v + (4 if Lv is not None else 2) * d_x
                 + d_u + d_y + 2 * wide + 1)
    return 8 * (model.n_agents * per_agent + d_x + 3 * wide + 3)


# numpy's ufunc buffers, which each process holds once: at most
# np.getbufsize() floats for each of an operation's three operands
UFUNC_BYTES = 24 * np.getbufsize()


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
        process_noise = run_noise(model, 2, 0)[0]
        assert np.array_equal(trace.meanfield, trace.states[:, 0, :])
        for k in range(model.horizon - 1):
            expected = (
                (model.A[k] + model.D[k]) @ trace.states[k, 0]
                + model.B[k] @ trace.actions[k, 0]
                + process_noise[k, 0]
            )
            assert np.allclose(trace.states[k + 1, 0], expected, rtol=0, atol=1e-13)

    def test_meanfield_matches_fixed_summation(self):
        # 12 agents: numpy sums a contiguous row of 8 or more pairwise, so
        # this pins that the agent axis is the contiguous one
        rng = np.random.default_rng(30)
        for n_agents in (5, 12):
            model = random_model(rng, n_agents=n_agents)
            trace = simulate(model, optimal_strategy(model), seed=3)
            for k in range(model.horizon):
                assert np.array_equal(trace.meanfield[k], mean_over_agents(trace.states[k]))
                assert np.array_equal(trace.mean_control[k],
                                      mean_over_agents(trace.actions[k]))

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
        assert np.array_equal(run_noise(noisy, 6, 0)[0], run_noise(full, 6, 0)[0])

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

    def test_policy_type_enforced(self):
        model = random_model(np.random.default_rng(37))
        with pytest.raises(IncompatibleStrategy, match="^policy must be a GainSchedule, "
                                                       "got ControlRiccatiSolution$"):
            simulate(model, solve_control_riccati(model), 0)

    def test_filter_gain_width_enforced(self):
        model = random_model(np.random.default_rng(38), mode="noisy", d_y=2)
        schedule = optimal_strategy(model)
        narrow = GainSchedule(Kx=schedule.Kx, Kz=schedule.Kz, Kf=schedule.Kf[:, :, :1])
        with pytest.raises(IncompatibleStrategy,
                           match="^policy d_y=1 does not match model d_y=2$"):
            simulate(model, narrow, 0)

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

    @pytest.mark.parametrize("n", [1, 2, 30, 2000])
    def test_optimal_cost_is_the_closed_form(self, n):
        # ROADMAP item 8's J* from the value matrices Mx and Mz alone, also
        # past the stacked oracle's cap of n * d_x = 400
        model = replace(heater_model(), n_agents=n)
        total = exact_policy_cost(model, optimal_strategy(model)).total
        assert rel_err(total, closed_form_cost(model)) <= 1e-13

    def test_policy_without_filter_gains_rejected(self):
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
    # mean and stderr under RNG_SCHEME v3. Every product in the closed loop
    # is a declared left-to-right sum of numpy elementwise operations, so
    # these digits follow from that arithmetic alone, not from a BLAS kernel
    PINNED = {
        "heater": (heater_model, 7, 600,
                   "0x1.96268861c3f91p+8", "0x1.7949c2b20cd1dp+8", "0x1.efdfae165d5f8p+0"),
        "noisy_full_rank": (
            lambda: random_model(np.random.default_rng(70), mode="noisy", n_agents=4, d_x=3,
                                 d_u=2, d_y=2, horizon=12),
            9, 300, "0x1.cc4a711eb8d2cp+7", "0x1.590b4de0c27d9p+7", "0x1.7b649ac60b432p+1"),
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
                (run_bytes // 2, 1, 1), (count * (UFUNC_BYTES + run_bytes), count, 1),
                (count * (UFUNC_BYTES + 3 * run_bytes + 7), count, 3),
                (6 * run_bytes + count * UFUNC_BYTES + 7, count, 6 // count),
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
                assert all(UFUNC_BYTES + size * run_bytes <= budget // shares or size == 1
                           for size in chunks)

    def test_worker_count_is_capped(self, monkeypatch):
        # however many CPUs there are, no count starts more processes than
        # the byte budget holds whole runs, nor more than there are chunks: a
        # heater run at n = 2,000 holds 1.6 MB, so 16 runs stepped one per
        # process would keep 26 MB in flight
        model = replace(heater_model(), n_agents=2000)
        run_bytes = mc_run_bytes(model)
        assert run_bytes == 1_648_120
        shares = sim._MC_CHUNK_BYTES // (UFUNC_BYTES + run_bytes)
        monkeypatch.setattr(sim, "_usable_cpus", lambda: 64)
        for workers in (None, 64):
            assert sim._mc_plan(model, 16, workers) == (shares, 1)
            assert sim._mc_plan(model, 3, workers) == (3, 1)
        assert sim._mc_plan(model, 16, 3) == (
            3, (sim._MC_CHUNK_BYTES // 3 - UFUNC_BYTES) // run_bytes)
        # the capped count in use, at a budget of three runs: three processes
        policy = optimal_strategy(model)
        reference = monte_carlo_cost(model, policy, runs=6, seed=2, workers=1)
        monkeypatch.setattr(sim, "_MC_CHUNK_BYTES", 3 * (UFUNC_BYTES + run_bytes))
        assert sim._mc_plan(model, 6, 64) == (3, 1)
        assert monte_carlo_cost(model, policy, runs=6, seed=2, workers=64) == reference

    def test_failure_in_a_worker_process_names_its_runs(self, monkeypatch):
        # A = 10 with Q = 0 overflows every run; two chunks of two runs are
        # stepped in two forked processes, and the first chunk's failure
        # reaches the caller
        model = build_model(horizon=400, n_agents=3, A=10.0, B=1.0, Q=0.0, R=1.0,
                            Sigma_X=1.0, Sigma_W=1.0)
        policy = optimal_strategy(model)
        monkeypatch.setattr(sim, "_MC_CHUNK_BYTES", 2 * (UFUNC_BYTES + 2 * mc_run_bytes(model)))
        assert sim._mc_plan(model, 4, 2) == (2, 2)
        with pytest.raises(NumericalFailure, match=r"not finite in runs 0\.\.1$"):
            monte_carlo_cost(model, policy, runs=4, seed=0, workers=2)

    def test_killed_child_is_an_error_that_names_its_runs(self, tmp_path, monkeypatch, forks,
                                                         capsys):
        # the child stepping the second range of runs is killed by SIGKILL,
        # as the OOM killer would: an OSError, exit 1 with one error line
        model = heater_model()
        policy = optimal_strategy(model)
        monkeypatch.setattr(sim, "_MC_CHUNK_BYTES", 2 * (UFUNC_BYTES + 100 * mc_run_bytes(model)))
        assert sim._mc_plan(model, 600, 2) == (2, 100)
        parent, kernel = os.getpid(), sim._closed_loop

        def killed_past_run_299(model, policy, seed, first_run, runs, record=False):
            if os.getpid() != parent and first_run >= 300:
                os.kill(os.getpid(), signal.SIGKILL)
            return kernel(model, policy, seed, first_run, runs, record)

        monkeypatch.setattr(sim, "_closed_loop", killed_past_run_299)
        with pytest.raises(OSError, match=r"stepping runs 300\.\.599 ended with signal 9$"):
            monte_carlo_cost(model, policy, runs=600, seed=7, workers=2)
        assert len(forks) == 2
        model_path = tmp_path / "model.json"
        save_model(model, model_path)
        monkeypatch.setattr(sim, "_usable_cpus", lambda: 2)
        out = tmp_path / "out"
        assert main(["evaluate", "--model", str(model_path), "--runs", "600",
                     "--out", str(out)]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: ") and "signal 9" in err[0], err
        assert not out.exists()
        # every child was reaped
        assert len(forks) == 4
        for pid in forks:
            with pytest.raises(ChildProcessError):
                os.waitpid(pid, os.WNOHANG)

    def test_non_finite_cost_in_a_later_child_names_its_chunk(self, tmp_path, monkeypatch,
                                                              forks, capsys):
        # five chunks of 100 runs, two to the first child and three to the
        # second, each stepped as a whole; run 450's cost alone is made
        # infinite, in the second child, and the caller names its chunk
        model = heater_model()
        policy = optimal_strategy(model)
        monkeypatch.setattr(sim, "_MC_CHUNK_BYTES", 2 * (UFUNC_BYTES + 100 * mc_run_bytes(model)))
        assert sim._mc_plan(model, 500, 2) == (2, 100)
        parent, kernel = os.getpid(), sim._closed_loop

        def infinite_run_450(model, policy, seed, first_run, runs, record=False):
            assert os.getpid() != parent and first_run % 100 == 0 and runs == 100
            totals, recorded = kernel(model, policy, seed, first_run, runs, record)
            if first_run == 400:
                totals[50] = np.inf
            return totals, recorded

        monkeypatch.setattr(sim, "_closed_loop", infinite_run_450)
        with pytest.raises(NumericalFailure, match=r"not finite in runs 400\.\.499$"):
            monte_carlo_cost(model, policy, runs=500, seed=7, workers=2)
        assert len(forks) == 2
        model_path = tmp_path / "model.json"
        save_model(model, model_path)
        monkeypatch.setattr(sim, "_usable_cpus", lambda: 2)
        assert main(["evaluate", "--model", str(model_path), "--runs", "500",
                     "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err.splitlines()
        assert err == ["error: NumericalFailure: closed-loop cost is not finite in runs "
                       "400..499"], err
        assert len(forks) == 4


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
# Reference implementation: the closed loop's declared arithmetic, stepped
# one run, one agent and one component at a time in Python floats. Its
# noise half is written independently from the RNG_SCHEME v3 definition:
# exact uint64 key and counter, a new Philox generator per (run, kind),
# rank(Sigma) normals per (step, agent) in (step, agent, direction) order,
# mapped through the eigenvector columns whose clipped eigenvalue is
# nonzero. A product M v is the left-to-right sum of the rounded products
# M[i][j] * v[j]; an agent sum is np.add.reduce of a contiguous 1-D row.
# The kernel must reproduce it bit for bit, zero signs included.

V3_KEY_SALT = 0x9E3779B97F4A8000


def reference_substream(seed: int, run: int, kind: int) -> np.random.Generator:
    """A new Philox stream for one (run, kind), key and counter as exact uint64."""
    key = np.array([seed, V3_KEY_SALT], dtype=np.uint64)
    counter = np.array([0, 0, run, kind], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key, counter=counter))


def kept_factor(cov):
    """The nonzero columns of the clipped eigen-factor of `cov`."""
    square = v1_factor(cov)
    return square[:, np.any(square != 0.0, axis=0)]


def fold(terms, start=None):
    """The left-to-right sum of `terms` onto `start`, or, without one, from
    the first term on; an empty sum is +0.0."""
    total = start
    for term in terms:
        total = term if total is None else total + term
    return 0.0 if total is None else total


def dot(row, values, start=None):
    return fold([coefficient * value for coefficient, value in zip(row, values)], start)


def matvec(M, values):
    return [dot(row, values) for row in M.tolist()]


def quadratic(W, values, start=None):
    """v'Wv as the left-to-right sum of v[i] * h[i], onto `start`: h[i] is
    W[i][i] * v[i], then + (W[i][j] + W[j][i]) * v[j] for j = i+1, ..."""
    W, d = W.tolist(), len(values)
    return fold([values[i] * fold([(W[i][j] + W[j][i]) * values[j] for j in range(i + 1, d)],
                                  W[i][i] * values[i])
                 for i in range(d)], start)


def agent_mean(values) -> float:
    return float(np.add.reduce(np.array(values))) / len(values)


def reference_run(model, policy, seed: int, run: int):
    """One run: its per-step costs and every recorded field, step-major."""
    T, n, d_x = model.horizon, model.n_agents, model.d_x
    noisy = model.observation_mode == "noisy"
    Fx, Fz = policy.Kx, policy.Kz - policy.Kx
    Lx, Lw = kept_factor(model.Sigma_X), kept_factor(model.Sigma_W)
    g_x = reference_substream(seed, run, 0).standard_normal((n, Lx.shape[1])).tolist()
    g_w = reference_substream(seed, run, 1).standard_normal((T - 1, n, Lw.shape[1])).tolist()
    if noisy:
        Lv = kept_factor(model.Sigma_V)
        g_v = reference_substream(seed, run, 2).standard_normal((T, n, Lv.shape[1])).tolist()
    mu = model.mu_X.tolist()
    x = [[m + e for m, e in zip(mu, matvec(Lx, g_x[a]))] for a in range(n)]
    xhat = [list(mu) for _ in range(n)] if noisy else None
    fields = {name: [] for name in ("states", "actions", "meanfield", "mean_control",
                                    "observations", "estimates", "step_costs",
                                    "process_noise", "obs_noise")}
    for k in range(T):
        z = [agent_mean([x[a][j] for a in range(n)]) for j in range(d_x)]
        basis = xhat if noisy else x
        zf = matvec(Fz[k], z)
        u = [[e + f for e, f in zip(matvec(Fx[k], basis[a]), zf)] for a in range(n)]
        per_agent = [quadratic(model.R[k], u[a], quadratic(model.Q[k], x[a]))
                     for a in range(n)]
        cost = float(np.add.reduce(np.array(per_agent))) / n + quadratic(model.P[k], z)
        fields["states"].append(x)
        fields["actions"].append(u)
        fields["meanfield"].append(z)
        fields["mean_control"].append([agent_mean([u[a][j] for a in range(n)])
                                       for j in range(model.d_u)])
        fields["step_costs"].append(cost)
        if noisy:
            noise = [matvec(Lv, g_v[k][a]) for a in range(n)]
            z_obs = matvec(model.Cz[k], z)
            y = [[(c + o) + e for c, o, e in zip(matvec(model.Cx[k], x[a]), z_obs, noise[a])]
                 for a in range(n)]
            fields["observations"].append(y)
            fields["estimates"].append(xhat)
            fields["obs_noise"].append(noise)
        if k + 1 == T:
            break
        dz = matvec(model.D[k], z)
        drive = [[b + e for b, e in zip(matvec(model.B[k], u[a]), dz)] for a in range(n)]
        if noisy:
            innovation = [[c + e for c, e in zip(
                matvec(model.Cx[k], [s - t for s, t in zip(x[a], xhat[a])]), noise[a])]
                for a in range(n)]
            xhat = [[dot(kf, innovation[a], ax + b)
                     for kf, ax, b in zip(policy.Kf[k].tolist(), matvec(model.A[k], xhat[a]),
                                          drive[a])]
                    for a in range(n)]
        w = [matvec(Lw, g_w[k][a]) for a in range(n)]
        x = [[(ax + b) + e for ax, b, e in zip(matvec(model.A[k], x[a]), drive[a], w[a])]
             for a in range(n)]
        fields["process_noise"].append(w)
    return {name: np.array(values) if values else None for name, values in fields.items()}


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
    """The kernel against `reference_run`, the declared arithmetic."""

    @pytest.mark.parametrize("case", sorted(KERNEL_MODELS))
    @pytest.mark.parametrize("first_run, runs, record", [(5, 7, False), (3, 1, True)])
    def test_bits_match(self, case, first_run, runs, record):
        model = KERNEL_MODELS[case]()
        if case == "noisy_dx4_dy2":
            assert np.any(model.D) and model.d_y == 2
        policy = optimal_strategy(model)
        got_totals, got = sim._closed_loop(model, policy, 11, first_run, runs, record)
        want = [reference_run(model, policy, 11, first_run + i) for i in range(runs)]
        # each run's per-step costs folded in step order from the first step's
        assert_same_bits(got_totals, np.array([fold(r["step_costs"].tolist()) for r in want]),
                         "totals")
        if not record:
            assert got is None
            return
        # the reference adds the run's noise that the contract declares
        for name, contract in zip(("process_noise", "obs_noise"), run_noise(model, 11, first_run)):
            values = want[0].pop(name)
            if values is None:
                assert contract is None or not contract.size, name
            else:
                assert_same_bits(contract, values, name)
        assert got.keys() == want[0].keys()
        for name, values in want[0].items():
            if values is None or not values.size:
                assert got[name] is None or not got[name].size, name
            else:
                assert_same_bits(got[name], np.array([r[name] for r in want]), name)


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
    reusable = noise._reusable_substream

    def spy(seed):
        point = reusable(seed)
        return lambda run, kind: CountingGenerator(point(run, kind), (run, kind), counts)

    monkeypatch.setattr(noise, "_reusable_substream", spy)
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
            for kind, size in [(noise._KIND_INIT, n), (noise._KIND_PROCESS, (T - 1) * n)]
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
        assert counts == {(9, noise._KIND_INIT): 4 * 2, (9, noise._KIND_PROCESS): 2 * 4 * 2,
                          (9, noise._KIND_OBS): 3 * 4 * 1}
        obs_noise = run_noise(model, 5, 9)[1]
        assert not np.any(obs_noise[..., 0]) and np.all(obs_noise[..., 1])

    def test_zero_covariance_draws_nothing(self, monkeypatch):
        model = KERNEL_MODELS["zero_noise"]()
        counts = count_normals(monkeypatch)
        trace = simulate(model, optimal_strategy(model), seed=5, run=2)
        assert counts == {(2, noise._KIND_INIT): 0, (2, noise._KIND_PROCESS): 0}
        # the same values and zero signs as RNG_SCHEME v1, which drew
        # normals and multiplied them by a zero factor
        x1, w, _ = v1_run_noise(model, 5, 2)
        assert_same_bits(trace.states[0], x1, "states")
        assert_same_bits(run_noise(model, 5, 2)[0], w, "process_noise")


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
    # heater runs as whole-budget chunks of 667 runs in this process, where
    # tracemalloc sees them (it sees nothing a forked worker allocates)
    model = heater_model()
    policy = optimal_strategy(model)
    assert sim._mc_plan(model, 1024, 1) == (1, 667)
    tracemalloc.start()
    try:
        monte_carlo_cost(model, policy, 1024, 7, workers=1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 20e6, f"tracemalloc peak {peak / 1e6:.1f} MB"


BUDGET_MODELS = {
    # wide actions and wide observations on one state component: the
    # planes of each kind count, not only the state's
    "full_du8": lambda: random_model(np.random.default_rng(3), n_agents=50, d_x=1, d_u=8,
                                     horizon=6),
    "noisy_dy6": lambda: random_model(np.random.default_rng(4), mode="noisy", n_agents=50,
                                      d_x=1, d_u=1, d_y=6, horizon=6),
    "heater": heater_model,
    "noisy_dx4": lambda: random_model(np.random.default_rng(5), mode="noisy", n_agents=100,
                                      d_x=4, d_u=2, d_y=2, horizon=50),
}


@pytest.mark.parametrize("case", sorted(BUDGET_MODELS))
def test_chunk_peak_within_budget(case):
    # one worker's chunk, as large as the plan makes it, holds at most the
    # whole budget, numpy's ufunc buffers included, and not much less
    model = BUDGET_MODELS[case]()
    policy = optimal_strategy(model)
    processes, chunk = sim._mc_plan(model, 10**6, 1)
    assert processes == 1 and chunk > 1
    tracemalloc.start()
    try:
        sim._closed_loop(model, policy, 7, 0, chunk)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert 0.9 * sim._MC_CHUNK_BYTES <= peak <= sim._MC_CHUNK_BYTES, f"peak {peak} bytes"


@pytest.mark.parametrize("mode, factors", [("full", 2), ("noisy", 3)])
def test_noise_factored_once_per_job(mode, factors, monkeypatch):
    # each noise covariance is factored once, in the calling process, not
    # again by the plan or by each of the job's four chunks; the budget is
    # sized on a copy, since sizing factors the model it is given
    model = random_model(np.random.default_rng(8), mode=mode, n_agents=2, horizon=5)
    policy = optimal_strategy(model)
    monkeypatch.setattr(sim, "_MC_CHUNK_BYTES", UFUNC_BYTES + 2 * mc_run_bytes(replace(model)))
    calls = []
    factor = noise.psd_factor
    monkeypatch.setattr(noise, "psd_factor", lambda cov: calls.append(cov) or factor(cov))
    monte_carlo_cost(model, policy, runs=8, seed=3, workers=1)
    assert sim._mc_plan(model, 8, 1) == (1, 2)
    assert len(calls) == factors


def test_closed_loop_calls_no_blas():
    # every product in the closed loop and its noise is a declared sum of
    # elementwise operations: no matrix product that BLAS would carry out
    for function in (sim._closed_loop, noise._draw_noise, linalg._matvec, linalg._quadratic):
        for node in ast.walk(ast.parse(inspect.getsource(function))):
            assert not isinstance(getattr(node, "op", None), ast.MatMult), function.__name__
            name = getattr(node, "attr", getattr(node, "id", None))
            assert name not in {"matmul", "dot", "einsum", "vdot", "inner", "tensordot"}, (
                function.__name__, name)


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


@pytest.fixture
def forks(monkeypatch):
    """The pids of the children that os.fork starts in this process."""
    pids = []
    fork = os.fork

    def spy():
        pid = fork()
        if pid:
            pids.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", spy)
    return pids


def export_with(processes, trace, out, monkeypatch, threshold=1):
    """export_trace_csv with `processes` usable CPUs and, for the files it
    forks for, a threshold of `threshold` fields."""
    with monkeypatch.context() as patch:
        patch.setattr(sim, "_usable_cpus", lambda: processes)
        patch.setattr(sim, "_FORK_FIELDS", threshold)
        return export_trace_csv(trace, out)


class TestForkedExport:
    @pytest.mark.parametrize("case, processes", [("heater", 3), ("noisy", 2), ("noisy", 16)],
                             ids=["full-3-ranges", "noisy-2-ranges", "more-ranges-than-steps"])
    def test_forked_ranges_write_the_in_process_bytes(self, case, processes, tmp_path,
                                                      monkeypatch, forks):
        model = EXPORT_MODELS[case]()
        trace = simulate(model, optimal_strategy(model), seed=8)
        assert (trace.observations is not None) == (case == "noisy")
        # a child per range, for each of the two files
        children = 2 * min(processes, model.horizon)
        # the last action column holds a signed zero that flips at one step
        candidates = [trace, with_signed_zeros(trace, 0.0), with_signed_zeros(trace, -0.0)]
        for i, candidate in enumerate(candidates):
            want = export_with(1, candidate, tmp_path / f"serial{i}", monkeypatch)
            assert not forks
            got = export_with(processes, candidate, tmp_path / f"forked{i}", monkeypatch)
            assert len(forks) == children
            forks.clear()
            for got_path, want_path in zip(got, want):
                assert got_path.read_bytes() == want_path.read_bytes()
            assert sorted(path.name for path in (tmp_path / f"forked{i}").iterdir()) == [
                "trace_agents.csv", "trace_meanfield.csv"]

    @pytest.mark.parametrize("n_agents, children", [(30, 0), (242, 0), (243, 2)])
    def test_fields_left_to_fill_set_the_threshold(self, n_agents, children, tmp_path,
                                                   monkeypatch, forks):
        # the heater's agent rows vary in t, x_0 and u_0 only: 90 * n * 3
        # fields, 8,100 at n = 30 and 65,340 < 2**16 <= 65,610 at n = 242 and
        # 243; its mean-field rows hold 360
        assert sim._FORK_FIELDS == 2**16
        model = replace(heater_model(), n_agents=n_agents)
        trace = simulate(model, optimal_strategy(model), seed=8)
        monkeypatch.setattr(sim, "_usable_cpus", lambda: 2)
        export_trace_csv(trace, tmp_path)
        assert len(forks) == children

    def test_no_child_with_a_second_thread_or_one_cpu(self, tmp_path, monkeypatch, forks):
        model = heater_model()
        trace = simulate(model, optimal_strategy(model), seed=8)
        one_cpu = export_with(1, trace, tmp_path / "one-cpu", monkeypatch)
        assert not forks
        release = threading.Event()
        thread = threading.Thread(target=release.wait)
        thread.start()
        try:
            two_threads = export_with(2, trace, tmp_path / "two-threads", monkeypatch)
        finally:
            release.set()
            thread.join()
        assert not forks
        forked = export_with(2, trace, tmp_path / "forked", monkeypatch)
        assert len(forks) == 4
        for paths in zip(one_cpu, two_threads, forked):
            assert len({path.read_bytes() for path in paths}) == 1

    @pytest.mark.parametrize("how, cause", [("raise", "exit status 1"), ("kill", "signal 9")])
    def test_failed_child_is_an_error_that_leaves_no_temporary_file(
            self, how, cause, tmp_path, monkeypatch, forks, capsys):
        # every check of an exported step fails in a child: raising there,
        # or killed there by SIGKILL
        parent, check = os.getpid(), sim._check_steps

        def check_in_parent_only(*args):
            if os.getpid() != parent:
                if how == "kill":
                    os.kill(os.getpid(), signal.SIGKILL)
                raise ValueError("a failing child")
            return check(*args)

        monkeypatch.setattr(sim, "_check_steps", check_in_parent_only)
        monkeypatch.setattr(sim, "_usable_cpus", lambda: 3)
        monkeypatch.setattr(sim, "_FORK_FIELDS", 1)
        model_path = tmp_path / "model.json"
        save_model(heater_model(), model_path)
        trace = simulate(heater_model(), optimal_strategy(heater_model()), seed=0)
        with pytest.raises(OSError, match=rf"steps 1\.\.30 ended with {cause}$"):
            export_trace_csv(trace, tmp_path / "direct")
        out = tmp_path / "cli"
        assert main(["simulate", "--model", str(model_path), "--out", str(out)]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: ") and cause in err[0], err
        # no partial trace_agents.csv and no temporary file is left
        for directory in (tmp_path / "direct", out):
            assert list(directory.iterdir()) == []
        # every child was reaped
        assert len(forks) == 6
        for pid in forks:
            with pytest.raises(ChildProcessError):
                os.waitpid(pid, os.WNOHANG)

    def test_disk_full_mid_write_leaves_no_file(self, tmp_path, monkeypatch, forks, capsys):
        # one CPU, so the file is written in process, on a disk that fills
        # after 64 kB: the heater's agent file (about 180 kB) fails part way
        model_path = tmp_path / "model.json"
        save_model(heater_model(), model_path)
        trace = simulate(heater_model(), optimal_strategy(heater_model()), seed=0)
        earlier = tmp_path / "earlier"
        export_trace_csv(trace, earlier)
        whole = {path.name: path.read_bytes() for path in earlier.iterdir()}
        monkeypatch.setattr(sim, "open", filling_open(2**16), raising=False)
        monkeypatch.setattr(sim, "_usable_cpus", lambda: 1)
        for directory in (tmp_path / "direct", earlier):
            with pytest.raises(OSError, match="No space left on device"):
                export_trace_csv(trace, directory)
        out = tmp_path / "cli"
        assert main(["simulate", "--model", str(model_path), "--out", str(out)]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: ") and "No space" in err[0], err
        # nothing partial and no temporary file; a whole file from before stays
        for directory in (tmp_path / "direct", out):
            assert list(directory.iterdir()) == []
        assert {path.name: path.read_bytes() for path in earlier.iterdir()} == whole
        assert not forks
