import warnings

import numpy as np
import pytest
from dataclasses import replace

from mflqg import (
    NotPositiveDefinite,
    NotPositiveSemidefinite,
    NumericalFailure,
    ValidationError,
    build_model,
    heater_model,
    solve_control_riccati,
    solve_filter_riccati,
)
from mflqg.linalg import assert_pd, assert_psd, psd_factor, spd_solve
from helpers import rand_pd, random_model


def scalar_fixture():
    return build_model(horizon=2, n_agents=2, A=1.0, B=1.0, Q=1.0, R=1.0)


def scalar_control_oracle(a, b, q, r, p, d, T):
    """Direct float arithmetic for scalar models; lists are 1-indexed."""
    mx = [0.0] * (T + 1)
    mz = [0.0] * (T + 1)
    kx = [0.0] * (T + 1)
    kz = [0.0] * (T + 1)
    mx[T] = q[T]
    mz[T] = q[T] + p[T]
    for t in range(T - 1, 0, -1):
        denom = b[t] * mx[t + 1] * b[t] + r[t]
        kx[t] = -(b[t] * mx[t + 1] * a[t]) / denom
        mx[t] = a[t] * mx[t + 1] * a[t] + q[t] - (a[t] * mx[t + 1] * b[t]) ** 2 / denom
        abar = a[t] + d[t]
        denom = b[t] * mz[t + 1] * b[t] + r[t]
        kz[t] = -(b[t] * mz[t + 1] * abar) / denom
        mz[t] = abar * mz[t + 1] * abar + (q[t] + p[t]) - (abar * mz[t + 1] * b[t]) ** 2 / denom
    return mx, mz, kx, kz


class TestControlRecursion:
    def test_scalar_fixture_closed_form(self):
        solution = solve_control_riccati(scalar_fixture())
        assert abs(solution.Mx[1][0, 0] - 1.0) <= 1e-14
        assert abs(solution.Kx[0][0, 0] + 0.5) <= 1e-14
        assert abs(solution.Mx[0][0, 0] - 1.5) <= 1e-14
        assert np.array_equal(solution.Mz, solution.Mx)
        assert np.array_equal(solution.Kz, solution.Kx)

    def test_terminal_conditions(self):
        rng = np.random.default_rng(3)
        model = random_model(rng)
        solution = solve_control_riccati(model)
        T = model.horizon
        assert not np.any(solution.Kx[T - 1])
        assert not np.any(solution.Kz[T - 1])
        assert np.array_equal(solution.Mx[T - 1], model.Q[T - 1])
        assert np.allclose(
            solution.Mz[T - 1], model.Q[T - 1] + model.P[T - 1], rtol=0, atol=1e-15
        )

    def test_uncoupled_recursions_coincide(self):
        rng = np.random.default_rng(4)
        model = random_model(rng, coupled=False)
        model = replace(model, P=np.zeros_like(model.P))
        solution = solve_control_riccati(model)
        assert np.max(np.abs(solution.Kx - solution.Kz)) <= 1e-12
        assert np.max(np.abs(solution.Mx - solution.Mz)) <= 1e-12

    @pytest.mark.parametrize("seed", [None, 0, 1, 2])
    def test_meanfield_recursion_is_the_deviation_recursion_of_the_coupled_model(self, seed):
        # bit for bit, on the heater (P != 0) and on random models with
        # D, P != 0: the two control recursions are one recursion
        model = heater_model() if seed is None else random_model(np.random.default_rng(seed))
        assert np.any(model.P) and (seed is None or np.any(model.D))
        folded = solve_control_riccati(replace(model, A=model.A + model.D, D=None,
                                               Q=model.Q + model.P, P=None))
        values = solve_control_riccati(model)
        assert np.array_equal(folded.Mx, values.Mz) and np.array_equal(folded.Kx, values.Kz)

    def test_output_independent_of_population_and_noise(self):
        rng = np.random.default_rng(5)
        model = random_model(rng, mode="noisy")
        base = solve_control_riccati(model)
        changed = replace(
            model,
            n_agents=17,
            Sigma_X=4.0 * np.eye(model.d_x),
            Sigma_W=0.01 * np.eye(model.d_x),
            Sigma_V=9.0 * np.eye(model.d_y),
        )
        other = solve_control_riccati(changed)
        assert np.array_equal(base.Kx, other.Kx)
        assert np.array_equal(base.Kz, other.Kz)
        assert np.array_equal(base.Mx, other.Mx)
        assert np.array_equal(base.Mz, other.Mz)

    def test_resubstitution_residuals(self):
        rng = np.random.default_rng(6)
        model = random_model(rng, horizon=8, d_x=3, d_u=2)
        solution = solve_control_riccati(model)
        for k in range(model.horizon - 1):
            for M, K, A, W in (
                (solution.Mx, solution.Kx, model.A[k], model.Q[k]),
                (solution.Mz, solution.Kz, model.A[k] + model.D[k], model.Q[k] + model.P[k]),
            ):
                H = model.B[k].T @ M[k + 1] @ model.B[k] + model.R[k]
                G = model.B[k].T @ M[k + 1] @ A
                gain_residual = np.linalg.norm(K[k] + np.linalg.solve(H, G))
                assert gain_residual <= 1e-9 * max(np.linalg.norm(K[k]), 1.0)
                rhs = W + A.T @ M[k + 1] @ A - G.T @ np.linalg.solve(H, G)
                value_residual = np.linalg.norm(M[k] - rhs)
                assert value_residual <= 1e-9 * max(np.linalg.norm(M[k]), 1.0)

    def test_value_matrices_psd(self):
        rng = np.random.default_rng(7)
        model = random_model(rng, horizon=10)
        solution = solve_control_riccati(model)
        for k in range(model.horizon):
            assert np.linalg.eigvalsh(solution.Mx[k])[0] >= -1e-10
            assert np.linalg.eigvalsh(solution.Mz[k])[0] >= -1e-10

    @pytest.mark.parametrize("seed", range(5))
    def test_random_scalar_models_match_direct_arithmetic(self, seed):
        rng = np.random.default_rng(100 + seed)
        T = int(rng.integers(2, 7))
        a = [0.0] + list(rng.uniform(-1.5, 1.5, T))
        b = [0.0] + list(rng.uniform(0.2, 1.5, T))
        q = [0.0] + list(rng.uniform(0.0, 2.0, T))
        r = [0.0] + list(rng.uniform(0.2, 2.0, T))
        p = [0.0] + list(rng.uniform(0.0, 2.0, T))
        d = [0.0] + list(rng.uniform(-0.5, 0.5, T))
        model = build_model(
            horizon=T, n_agents=2,
            A=np.array(a[1:]).reshape(T, 1, 1), B=np.array(b[1:]).reshape(T, 1, 1),
            D=np.array(d[1:]).reshape(T, 1, 1), Q=np.array(q[1:]).reshape(T, 1, 1),
            R=np.array(r[1:]).reshape(T, 1, 1), P=np.array(p[1:]).reshape(T, 1, 1),
        )
        solution = solve_control_riccati(model)
        mx, mz, kx, kz = scalar_control_oracle(a, b, q, r, p, d, T)
        for t in range(1, T + 1):
            assert abs(solution.Mx[t - 1][0, 0] - mx[t]) <= 1e-12 * max(abs(mx[t]), 1.0)
            assert abs(solution.Mz[t - 1][0, 0] - mz[t]) <= 1e-12 * max(abs(mz[t]), 1.0)
            if t < T:
                assert abs(solution.Kx[t - 1][0, 0] - kx[t]) <= 1e-12 * max(abs(kx[t]), 1.0)
                assert abs(solution.Kz[t - 1][0, 0] - kz[t]) <= 1e-12 * max(abs(kz[t]), 1.0)


def noisy_scalar(**overrides):
    kwargs = dict(
        horizon=4, n_agents=2, A=1.0, B=1.0, Q=1.0, R=1.0,
        Cx=1.0, Cz=0.0, Sigma_X=1.0, Sigma_W=0.0, Sigma_V=1.0,
        observation_mode="noisy",
    )
    kwargs.update(overrides)
    return build_model(**kwargs)


class TestOverflow:
    """A finite, valid model whose recursion overflows raises NumericalFailure."""

    @pytest.mark.parametrize("horizon", [4, 12])
    def test_control_overflow(self, horizon):
        # T=4: the gains stay finite but Mx[0] is inf; T=12: B'MB + R turns NaN
        model = build_model(horizon=horizon, n_agents=2, A=1e60, B=1.0, Q=1.0, R=1.0)
        with pytest.raises(NumericalFailure, match="non-finite"):
            solve_control_riccati(model)

    def test_filter_overflow(self):
        # unobserved, so Sigma_e grows by A^2 per step and its last entry is inf
        with pytest.raises(NumericalFailure, match="non-finite"):
            solve_filter_riccati(noisy_scalar(A=1e60, Cx=0.0))

    def test_overflow_names_its_step_without_a_warning(self):
        # the value and covariance updates of the two cases above overflow at
        # step 1 (Mx = Q + A'MA + G'K) and at step 4 (Sigma_e grows by 1e120)
        cases = [
            (solve_control_riccati,
             build_model(horizon=4, n_agents=2, A=1e60, B=1.0, Q=1.0, R=1.0),
             r"^control recursion at step 1: Mx has a non-finite entry"),
            (solve_filter_riccati, noisy_scalar(A=1e60, Cx=0.0),
             r"^filter recursion at step 4: Sigma_e has a non-finite entry"),
        ]
        for solve, model, message in cases:
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with pytest.raises(NumericalFailure, match=message):
                    solve(model)

    def test_relatively_singular_curvature_reported(self):
        # R passes the screen at build, but B'MB + R = ones + 1e-14 I has a
        # squared relative pivot near 2e-14
        model = build_model(horizon=2, n_agents=2, A=1.0, B=np.ones((1, 2)), Q=1.0,
                            R=1e-14 * np.eye(2))
        with pytest.raises(NumericalFailure,
                           match=r"^control recursion \(B'MB \+ R\) is numerically singular"):
            solve_control_riccati(model)

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_linalg_screens_reject_non_finite(self, value):
        mat = np.array([[1.0, 0.0], [0.0, value]])
        with pytest.raises(NumericalFailure):
            spd_solve(mat, np.ones(2))
        with pytest.raises(NotPositiveDefinite):
            assert_pd(mat)
        with pytest.raises(NotPositiveSemidefinite):
            assert_psd(mat)


class TestPsdFactor:
    @pytest.mark.parametrize("cov, rank", [
        (np.array([[2.0, 0.5], [0.5, 1.0]]), 2),
        (np.outer([1.0, -2.0, 0.5], [1.0, -2.0, 0.5]), 1),
        (np.diag([0.0, 3.0, 0.0, 1e-3]), 2),
        (np.zeros((3, 3)), 0),
    ], ids=["full-rank", "rank-1-3x3", "rank-2-diagonal", "zero"])
    def test_rank_sized(self, cov, rank):
        factor = psd_factor(cov)
        assert factor.shape == (len(cov), rank)
        assert np.allclose(factor @ factor.T, cov, rtol=0.0, atol=1e-12)
        # columns in ascending eigenvalue order
        assert np.all(np.diff(np.sum(factor**2, axis=0)) >= 0.0)

    def test_heater_noise_has_rank_one(self):
        model = heater_model()
        for cov in (model.Sigma_X, model.Sigma_W):
            factor = psd_factor(cov)
            assert factor.shape == (3, 1)
            assert np.allclose(factor @ factor.T, cov, rtol=0.0, atol=1e-12)


class TestFilterRecursion:
    def test_initial_covariance(self):
        solution = solve_filter_riccati(noisy_scalar())
        assert np.array_equal(solution.Sigma_e[0], [[1.0]])

    def test_scalar_fixture(self):
        solution = solve_filter_riccati(noisy_scalar())
        assert abs(solution.Kf[0][0, 0] - 0.5) <= 1e-14
        assert abs(solution.Sigma_e[1][0, 0] - 0.5) <= 1e-14

    def test_zero_observation_matrix_gives_open_loop(self):
        model = noisy_scalar(Cx=0.0, Sigma_W=0.3, A=0.9)
        solution = solve_filter_riccati(model)
        assert not np.any(solution.Kf)
        cov = model.Sigma_X.copy()
        for k in range(model.horizon - 1):
            cov = model.A[k] @ cov @ model.A[k].T + model.Sigma_W
            assert np.allclose(solution.Sigma_e[k + 1], cov, rtol=1e-12, atol=1e-14)

    def test_independent_of_meanfield_observation_and_population(self):
        rng = np.random.default_rng(8)
        model = random_model(rng, mode="noisy", horizon=7)
        base = solve_filter_riccati(model)
        changed = replace(model, n_agents=11, Cz=np.zeros_like(model.Cz))
        other = solve_filter_riccati(changed)
        assert np.array_equal(base.Sigma_e, other.Sigma_e)
        assert np.array_equal(base.Kf, other.Kf)

    def test_information_never_hurts(self):
        rng = np.random.default_rng(9)
        model = random_model(rng, mode="noisy", horizon=8)
        solution = solve_filter_riccati(model)
        open_loop = model.Sigma_X.copy()
        for k in range(model.horizon):
            gap = open_loop - solution.Sigma_e[k]
            assert np.linalg.eigvalsh(gap)[0] >= -1e-10
            if k + 1 < model.horizon:
                open_loop = model.A[k] @ open_loop @ model.A[k].T + model.Sigma_W

    def test_resubstitution_residual(self):
        rng = np.random.default_rng(10)
        model = random_model(rng, mode="noisy", horizon=8, d_x=3, d_y=2)
        solution = solve_filter_riccati(model)
        for k in range(model.horizon - 1):
            A, Cx = model.A[k], model.Cx[k]
            S = solution.Sigma_e[k]
            innovation = Cx @ S @ Cx.T + model.Sigma_V
            correction = A @ S @ Cx.T @ np.linalg.solve(innovation, Cx @ S @ A.T)
            rhs = A @ S @ A.T + model.Sigma_W - correction
            residual = np.linalg.norm(solution.Sigma_e[k + 1] - rhs)
            assert residual <= 1e-9 * max(np.linalg.norm(solution.Sigma_e[k + 1]), 1.0)
            gain_rhs = A @ S @ Cx.T @ np.linalg.inv(innovation)
            assert np.linalg.norm(solution.Kf[k] - gain_rhs) <= 1e-9

    def test_full_mode_rejected(self):
        with pytest.raises(ValidationError):
            solve_filter_riccati(build_model(horizon=2, n_agents=2, A=1.0, B=1.0, Q=1.0, R=1.0))

    def test_singular_innovation_reported(self):
        model = noisy_scalar(Cx=0.0, Sigma_V=0.0)
        with pytest.raises(NumericalFailure, match=r"^filter recursion \(innovation covariance\)"):
            solve_filter_riccati(model)


class TestGainSchedule:
    def test_horizon_mismatch_rejected(self):
        rng = np.random.default_rng(12)
        model = random_model(rng, mode="noisy", horizon=6)
        other = random_model(np.random.default_rng(13), mode="noisy", horizon=5)
        control = solve_control_riccati(model)
        filt = solve_filter_riccati(other)
        with pytest.raises(ValidationError):
            control.gain_schedule(filt)
