"""Acceptance checks: one test per shipped guarantee.

Run with `pytest -v tests/test_acceptance.py` to get one pass/fail line
per guarantee. Each test prints its measured numbers; pytest shows them
on failure (or with -s).
"""
import time
from dataclasses import replace

import numpy as np

from mflqg import (
    GainSchedule,
    build_model,
    check_equivalence,
    exact_policy_cost,
    heater_model,
    monte_carlo_cost,
    optimal_strategy,
    save_model,
    simulate,
    solve_control_riccati,
    solve_filter_riccati,
)
from mflqg.cli import main as cli_main
from helpers import cost_identity_check, decompose_auxiliary, rand_pd, rand_psd, random_model


def test_1_centralized_equivalence():
    # 20 random models, d_x/d_u in {1,2}, T=8, n in {1,2,3,5}: structured
    # gains match the stacked-optimal gains to 1e-8 relative at every step
    # and exact decentralized cost matches centralized optimal cost to 1e-8
    rng = np.random.default_rng(2026)
    cases = [(dx, du, n) for dx in (1, 2) for du in (1, 2) for n in (1, 2, 3, 5)]
    cases += [(2, 2, 5), (1, 2, 3), (2, 1, 2), (1, 1, 5)]
    assert len(cases) == 20

    start = time.monotonic()
    worst_gain, worst_cost = 0.0, 0.0
    for dx, du, n in cases:
        model = random_model(rng, horizon=8, n_agents=n, d_x=dx, d_u=du)
        report = check_equivalence(model, tolerance=1e-8)
        worst_gain = max(worst_gain, report.max_gain_residual)
        worst_cost = max(worst_cost, report.cost_gap)
        assert report.passed, (
            f"d_x={dx} d_u={du} n={n}: gain residual {report.max_gain_residual:.3e}, "
            f"cost gap {report.cost_gap:.3e}"
        )
    elapsed = time.monotonic() - start

    print(f"20 models: max gain residual {worst_gain:.3e}, "
          f"max cost gap {worst_cost:.3e} (tolerance 1e-8), {elapsed:.1f}s")
    assert worst_gain <= 1e-8
    assert worst_cost <= 1e-8
    assert elapsed <= 30.0


def test_2_terminal_and_decoupling():
    rng = np.random.default_rng(2027)
    model = random_model(rng, mode="noisy", horizon=7)
    sol = solve_control_riccati(model)

    # terminal gains are exactly zero
    assert not np.any(sol.Kx[-1]) and not np.any(sol.Kz[-1])

    # gains are bit-identical under changes of population size and of
    # every noise covariance
    d_x, d_y = model.d_x, model.d_y
    altered = replace(
        model,
        n_agents=17,
        Sigma_X=rand_pd(rng, d_x),
        Sigma_W=rand_pd(rng, d_x),
        Sigma_V=rand_pd(rng, d_y),
    )
    sol2 = solve_control_riccati(altered)
    assert np.array_equal(sol.Kx, sol2.Kx)
    assert np.array_equal(sol.Kz, sol2.Kz)

    # without coupling (D = 0, P = 0) the two recursions coincide
    T, d_u = 7, 2
    plain = build_model(
        horizon=T, n_agents=4,
        A=rng.uniform(-1, 1, (T, d_x, d_x)),
        B=rng.uniform(-1, 1, (T, d_x, d_u)),
        Q=np.stack([rand_psd(rng, d_x) for _ in range(T)]),
        R=np.stack([rand_pd(rng, d_u) for _ in range(T)]),
    )
    sol3 = solve_control_riccati(plain)
    split = float(np.max(np.abs(sol3.Kx - sol3.Kz)))
    print(f"uncoupled gain split {split:.3e} (tolerance 1e-12)")
    assert split <= 1e-12


def test_3_scalar_closed_form():
    # T=2, A=B=Q=R=1, no coupling: one backward step by hand gives
    # K_1 = -(R + B M_2 B)^-1 B M_2 A = -0.5 and M_1 = Q + A M_2 A + A M_2 B K_1 = 1.5
    model = build_model(horizon=2, n_agents=1, A=1.0, B=1.0, Q=1.0, R=1.0)
    sol = solve_control_riccati(model)
    gain_err = abs(sol.Kx[0, 0, 0] - (-0.5))
    value_err = abs(sol.Mx[0, 0, 0] - 1.5)
    print(f"|Kx_1 + 0.5| = {gain_err:.3e}, |Mx_1 - 1.5| = {value_err:.3e} (tolerance 1e-14)")
    assert gain_err <= 1e-14
    assert value_err <= 1e-14


def test_4_cost_identity_and_auxiliary_dynamics():
    # population cost equals deviation-plus-mean-field cost on 1000 random
    # snapshots (n <= 5, d_x <= 3), to 1e-12 relative
    rng = np.random.default_rng(2028)
    worst = 0.0
    for _ in range(1000):
        n = int(rng.integers(1, 6))
        d_x = int(rng.integers(1, 4))
        d_u = int(rng.integers(1, 4))
        x = rng.uniform(-3.0, 3.0, (n, d_x))
        u = rng.uniform(-3.0, 3.0, (n, d_u))
        lhs, rhs = cost_identity_check(
            x, u, rand_psd(rng, d_x), rand_pd(rng, d_u), rand_psd(rng, d_x)
        )
        worst = max(worst, abs(lhs - rhs) / abs(lhs))
    print(f"1000 snapshots: max relative identity error {worst:.3e} (tolerance 1e-12)")
    assert worst <= 1e-12

    # recorded trajectories satisfy the decoupled deviation and mean-field
    # dynamics to 1e-10 once each run's noise is substituted back
    traces = []
    for model in (
        random_model(rng, n_agents=5, horizon=8),
        random_model(rng, n_agents=1, horizon=6, d_x=1, d_u=1),
        heater_model(),
    ):
        traces.append(simulate(model, optimal_strategy(model), seed=77))
    noisy = random_model(rng, mode="noisy", n_agents=3, horizon=6)
    schedule = solve_control_riccati(noisy).gain_schedule(solve_filter_riccati(noisy))
    traces.append(simulate(noisy, schedule, seed=77))

    worst_res = 0.0
    for trace in traces:
        aux = decompose_auxiliary(trace)
        worst_res = max(
            worst_res,
            aux.max_sum_residual_state,
            aux.max_sum_residual_control,
            aux.max_deviation_residual,
            aux.max_meanfield_residual,
        )
    print(f"{len(traces)} traces: max auxiliary residual {worst_res:.3e} (tolerance 1e-10)")
    assert worst_res <= 1e-10


def test_5_filter_consistency():
    # 1e4 agents on a fixed scalar model, without and with the mean-field
    # drift D z: the empirical second moment of the estimation error tracks
    # the covariance recursion within 5% at every one of the 20 steps
    for D in (0.0, 0.5):
        model = build_model(
            horizon=20, n_agents=10_000,
            A=0.9, B=1.0, D=D, Q=1.0, R=1.0, P=0.5,
            Cx=1.0, Cz=0.4, Sigma_V=0.5,
            Sigma_X=1.0, Sigma_W=0.2, initial_mean=1.0,
            observation_mode="noisy",
        )
        filt = solve_filter_riccati(model)
        schedule = solve_control_riccati(model).gain_schedule(filt)
        trace = simulate(model, schedule, seed=5)
        errors = trace.states[:, :, 0] - trace.estimates[:, :, 0]
        worst = 0.0
        for k in range(model.horizon):
            predicted = filt.Sigma_e[k, 0, 0]
            empirical = float(np.mean(errors[k] ** 2))
            worst = max(worst, abs(empirical - predicted) / predicted)
        print(f"D={D}: error-covariance mismatch over 20 steps: max {worst:.3%} (tolerance 5%)")
        assert worst <= 0.05, f"D={D}"

    # perfect-observation limit: with C^x = I, Sigma_V = 1e-12, Sigma_X = 0
    # the estimate pins the state and the noisy-observation controller
    # reproduces the full-observation actions on shared noise
    noisy = build_model(
        horizon=10, n_agents=5,
        A=0.9, B=1.0, Q=1.0, R=1.0, P=0.5,
        Cx=1.0, Cz=0.0, Sigma_V=1e-12,
        Sigma_X=0.0, Sigma_W=1e-12, initial_mean=2.0,
        observation_mode="noisy",
    )
    schedule = solve_control_riccati(noisy).gain_schedule(solve_filter_riccati(noisy))
    full = replace(noisy, observation_mode="full")
    t_noisy = simulate(noisy, schedule, seed=123)
    t_full = simulate(full, optimal_strategy(full), seed=123)
    assert np.array_equal(t_noisy.states[0], t_full.states[0])
    gap = float(np.max(np.abs(t_noisy.actions - t_full.actions)))
    print(f"perfect-observation action gap {gap:.3e} (tolerance 1e-4)")
    assert gap <= 1e-4


def test_6_optimality_probe():
    # 50 gain perturbations of joint Frobenius norm 1e-2 across 5 random
    # models: every one strictly increases the exact expected cost
    rng = np.random.default_rng(2029)
    min_excess = np.inf
    for _ in range(5):
        model = random_model(rng, n_agents=int(rng.integers(2, 5)), horizon=6)
        strategy = optimal_strategy(model)
        base = exact_policy_cost(model, strategy).total
        # perturb the law u = Fx x + Fz z, with Fx = Kx and Fz = Kz - Kx
        for _ in range(10):
            dFx = rng.standard_normal(strategy.Kx.shape)
            dFz = rng.standard_normal(strategy.Kz.shape)
            norm = np.sqrt(np.sum(dFx**2) + np.sum(dFz**2))
            scale = 1e-2 / norm
            Fx = strategy.Kx + scale * dFx
            Fz = strategy.Kz - strategy.Kx + scale * dFz
            perturbed = GainSchedule(Kx=Fx, Kz=Fx + Fz)
            worse = exact_policy_cost(model, perturbed).total
            assert worse > base, f"perturbation lowered cost: {worse} <= {base}"
            min_excess = min(min_excess, worse - base)
    print(f"50 perturbations: smallest cost excess {min_excess:.3e} (must be > 0)")

    # the Monte Carlo estimate over 1e5 runs agrees with the exact cost
    model = random_model(rng, n_agents=2, horizon=6, d_x=1, d_u=1)
    strategy = optimal_strategy(model)
    exact = exact_policy_cost(model, strategy).total
    mc = monte_carlo_cost(model, strategy, runs=100_000, seed=11)
    sigmas = abs(mc.mean - exact) / mc.stderr
    print(f"monte carlo {mc.mean:.6f} vs exact {exact:.6f}: {sigmas:.2f} stderr (limit 3)")
    assert abs(mc.mean - exact) <= 3.0 * mc.stderr


def test_7_heater_tracking():
    # over 20 seeds: the population mean temperature starts near 22, the
    # last-30-step average sits in the 23.5..25.5 band around the 25-degree
    # target, and individual units stay dispersed (std > 0.5 at the end)
    start = time.monotonic()
    model = heater_model()
    strategy = optimal_strategy(model)
    offset = model.state_offset[0]
    last30, first, spread = [], [], []
    for seed in range(20):
        trace = simulate(model, strategy, seed=seed)
        temps = trace.meanfield[:, 0] + offset
        first.append(temps[0])
        last30.append(float(np.mean(temps[-30:])))
        spread.append(float(np.std(trace.states[-1, :, 0])))
    elapsed = time.monotonic() - start

    print(f"t=1 mean in [{min(first):.2f}, {max(first):.2f}] (need [21, 23]); "
          f"last-30 average in [{min(last30):.2f}, {max(last30):.2f}] (need [23.5, 25.5]); "
          f"final spread min {min(spread):.2f} (need > 0.5); {elapsed:.1f}s")
    assert all(21.0 <= v <= 23.0 for v in first)
    assert all(23.5 <= v <= 25.5 for v in last30)
    assert all(v > 0.5 for v in spread)
    assert elapsed <= 5.0


def test_8_determinism(tmp_path):
    # identical (model, strategy, seed) produce byte-identical trace files
    rng = np.random.default_rng(2030)
    model = random_model(rng, mode="noisy", n_agents=3, horizon=6)
    model_path = tmp_path / "model.json"
    save_model(model, model_path)
    out1, out2 = tmp_path / "one", tmp_path / "two"
    for out in (out1, out2):
        code = cli_main(["simulate", "--model", str(model_path),
                         "--seed", "42", "--out", str(out)])
        assert code == 0
    for name in ("trace_agents.csv", "trace_meanfield.csv", "summary.json"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes(), name

    # the Monte Carlo estimate is invariant to the concurrency level
    full = random_model(rng, n_agents=2, horizon=5)
    strategy = optimal_strategy(full)
    serial = monte_carlo_cost(full, strategy, runs=12_000, seed=7, workers=1)
    threaded = monte_carlo_cost(full, strategy, runs=12_000, seed=7, workers=4)
    print(f"serial mean {serial.mean:.17g}, threaded mean {threaded.mean:.17g}")
    assert serial.mean == threaded.mean
    assert serial.stderr == threaded.stderr
