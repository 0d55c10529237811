import json
from dataclasses import replace

import numpy as np
import pytest

from mflqg import (
    DimensionMismatch,
    ModelFormatError,
    NotPositiveDefinite,
    NotPositiveSemidefinite,
    NotSymmetric,
    CrossTermCost,
    ValidationError,
    augment_for_tracking,
    build_model,
    heater_model,
    model_from_dict,
    model_to_dict,
    reduce_cross_term,
    solve_control_riccati,
    step_cost,
    validate_model,
)
from helpers import rand_pd, rand_psd, random_model


def scalar_model(**overrides):
    kwargs = dict(horizon=2, n_agents=2, A=1.0, B=1.0, Q=1.0, R=1.0)
    kwargs.update(overrides)
    return build_model(**kwargs)


class TestValidation:
    def test_scalar_model_accepted(self):
        model = scalar_model()
        assert model.horizon == 2
        assert model.d_x == model.d_u == model.d_y == 1
        assert model.A.shape == (2, 1, 1)

    def test_zero_r_rejected(self):
        with pytest.raises(NotPositiveDefinite):
            scalar_model(R=0.0)

    def test_wrong_b_shape_rejected(self):
        with pytest.raises(DimensionMismatch):
            build_model(horizon=2, n_agents=2, A=np.eye(2), B=np.ones((2, 3, 2)), Q=np.eye(2), R=1.0)

    def test_asymmetric_q_rejected(self):
        Q = np.array([[1.0, 0.5], [0.0, 1.0]])
        with pytest.raises(NotSymmetric):
            build_model(horizon=2, n_agents=2, A=np.eye(2), B=np.eye(2), Q=Q, R=np.eye(2))

    def test_tiny_asymmetry_symmetrized(self):
        Q = np.array([[1.0, 0.5 + 1e-12], [0.5, 1.0]])
        model = build_model(horizon=2, n_agents=2, A=np.eye(2), B=np.eye(2), Q=Q, R=np.eye(2))
        assert np.array_equal(model.Q[0], model.Q[0].T)

    def test_indefinite_q_rejected(self):
        with pytest.raises(NotPositiveSemidefinite):
            scalar_model(Q=-1.0)

    def test_indefinite_covariance_rejected(self):
        with pytest.raises(NotPositiveSemidefinite):
            scalar_model(Sigma_W=-0.5)

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    @pytest.mark.parametrize("field", ["A", "R", "Sigma_W", "initial_mean"])
    def test_non_finite_rejected(self, field, value):
        with pytest.raises(ValidationError, match="non-finite"):
            scalar_model(**{field: value})

    def test_replace_validates(self):
        model = scalar_model()
        with pytest.raises(NotPositiveDefinite):
            replace(model, R=-model.R)
        with pytest.raises(ValidationError):
            replace(model, n_agents=0)

    def test_validate_idempotent(self):
        rng = np.random.default_rng(0)
        model = random_model(rng, mode="noisy")
        again = validate_model(model)
        for name in ("A", "B", "D", "Q", "R", "P", "Sigma_X", "Sigma_W", "Sigma_V",
                     "Cx", "Cz", "mu_X", "state_offset"):
            assert np.array_equal(getattr(model, name), getattr(again, name)), name

    def test_constant_broadcast_matches_stacked(self):
        A = np.array([[0.5, 0.1], [0.0, 0.9]])
        m1 = build_model(horizon=4, n_agents=2, A=A, B=np.eye(2), Q=np.eye(2), R=np.eye(2))
        m2 = build_model(
            horizon=4, n_agents=2, A=np.stack([A] * 4), B=np.eye(2), Q=np.eye(2), R=np.eye(2)
        )
        assert np.array_equal(m1.A, m2.A)

    def test_noisy_mode_requires_observation_data(self):
        with pytest.raises(ValidationError):
            scalar_model(observation_mode="noisy")

    def test_bad_mode_rejected(self):
        with pytest.raises(ValidationError):
            scalar_model(observation_mode="partial")

    def test_bad_horizon_rejected(self):
        with pytest.raises(ValidationError):
            scalar_model(horizon=0)

    def test_dimensions_read_from_arrays(self):
        model = build_model(horizon=3, n_agents=2, A=np.eye(3), B=np.ones((3, 2)), Q=0.0 * np.eye(3),
                            R=np.eye(2), Cx=np.ones((3, 1, 3)), Cz=np.zeros((1, 3)), Sigma_V=1.0,
                            observation_mode="noisy")
        assert (model.d_x, model.d_u, model.d_y) == (3, 2, 1)
        assert scalar_model().d_y == 1
        with pytest.raises(TypeError):
            build_model(horizon=2, n_agents=2, A=1.0, B=1.0, Q=1.0, R=1.0, d_x=1)
        with pytest.raises(ValueError, match="init=False"):
            replace(scalar_model(), d_x=2)


class TestCounts:
    """horizon and n_agents are whole numbers >= 1, however they arrive."""

    @pytest.mark.parametrize("key, value", [("horizon", 2.7), ("n_agents", 2.5),
                                            ("n_agents", "3")])
    def test_fractional_count_rejected(self, key, value):
        with pytest.raises(ValidationError, match="whole number"):
            scalar_model(**{key: value})
        with pytest.raises(ValidationError, match="whole number"):
            replace(scalar_model(), **{key: value})

    @pytest.mark.parametrize("value, error", [(float("nan"), ValueError),
                                              (float("inf"), OverflowError)])
    @pytest.mark.parametrize("key", ["horizon", "n_agents"])
    def test_non_finite_count_is_not_a_number(self, key, value, error):
        with pytest.raises(error):
            scalar_model(**{key: value})
        with pytest.raises(error):
            replace(scalar_model(), **{key: value})

    def test_integral_float_accepted(self):
        model = scalar_model(horizon=30.0, n_agents=np.float64(4.0))
        assert (model.horizon, model.n_agents) == (30, 4)
        assert type(model.horizon) is int and type(model.n_agents) is int
        assert replace(model, n_agents=5.0).n_agents == 5


class TestSerialization:
    def test_round_trip_bitwise(self):
        rng = np.random.default_rng(1)
        model = random_model(rng, mode="noisy")
        data = json.loads(json.dumps(model_to_dict(model)))
        back = model_from_dict(data)
        assert np.array_equal(model.A, back.A)
        assert np.array_equal(model.Sigma_V, back.Sigma_V)
        assert np.array_equal(model.mu_X, back.mu_X)
        assert model.fingerprint() == back.fingerprint()

    def test_fingerprint_changes_with_content(self):
        m1 = scalar_model()
        m2 = scalar_model(Q=2.0)
        assert m1.fingerprint() != m2.fingerprint()

    def test_declared_dims_must_match(self):
        data = model_to_dict(scalar_model())
        data["dims"]["d_x"] = 2
        with pytest.raises(DimensionMismatch):
            model_from_dict(data)

    @pytest.mark.parametrize("key", ["horizon", "n_agents"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_non_finite_count_is_format_error(self, key, value):
        data = model_to_dict(scalar_model())
        data[key] = value
        with pytest.raises(ModelFormatError):
            model_from_dict(data)

    def test_missing_key_is_format_error(self):
        data = model_to_dict(scalar_model())
        del data["dynamics"]
        with pytest.raises(ModelFormatError):
            model_from_dict(data)

    def test_zero_offset_omitted_from_document(self):
        data = model_to_dict(validate_model(scalar_model()))
        assert "state_offset" not in data
        data2 = model_to_dict(scalar_model(state_offset=3.0))
        assert data2["state_offset"] == [3.0]


class TestCrossTerm:
    @pytest.mark.parametrize("build", [
        lambda v: CrossTermCost(horizon=2, Q=1.0, S=v, R=1.0),
        lambda v: CrossTermCost(horizon=2, Q=1.0, S=0.0, R=1.0, P=[v, 1.0]),
        lambda v: augment_for_tracking(scalar_model(), q=1.0, r=1.0, p=1.0,
                                       meanfield_reference=v),
        lambda v: augment_for_tracking(scalar_model(), q=1.0, r=v, p=1.0,
                                       meanfield_reference=0.0),
    ], ids=["cross-S", "cross-P", "tracking-reference", "tracking-r"])
    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_sibling_builders_reject_non_finite(self, build, value):
        with pytest.raises(ValidationError, match="non-finite"):
            build(value)

    def test_zero_cross_term_id(self):
        cost = CrossTermCost(horizon=2, Q=1.0, S=0.0, R=1.0, P=3.0)
        _, _, p_prime = reduce_cross_term(cost)
        assert np.array_equal(p_prime, cost.P)

    def test_scalar_reduction(self):
        cost = CrossTermCost(horizon=2, Q=1.0, S=2.0, R=1.0, P=3.0)
        _, _, p_prime = reduce_cross_term(cost)
        assert p_prime[0][0, 0] == 5.0

    def test_indefinite_reduction_rejected(self):
        cost = CrossTermCost(
            horizon=1, Q=np.eye(2), S=np.array([[0.0, 2.0], [0.0, 0.0]]), R=1.0, P=np.zeros((2, 2))
        )
        with pytest.raises(NotPositiveSemidefinite):
            reduce_cross_term(cost)

    def test_stale_horizon_rejected(self):
        # 2-step arrays under horizon 1 would hide P'_2 = 1 - 10 = -9 from the reduction
        cost = CrossTermCost(horizon=2, Q=1.0, S=[0.0, -10.0], R=1.0, P=1.0)
        assert (cost.d_x, cost.d_u) == (1, 1)
        with pytest.raises(DimensionMismatch):
            CrossTermCost(horizon=1, Q=cost.Q, S=cost.S, R=cost.R, P=cost.P)
        with pytest.raises(DimensionMismatch):
            replace(cost, horizon=1)
        with pytest.raises(NotPositiveSemidefinite, match="P'_2"):
            reduce_cross_term(cost)

    def test_replace_revalidates(self):
        cost = CrossTermCost(horizon=2, Q=1.0, S=0.0, R=1.0)
        with pytest.raises(ValidationError, match="non-finite"):
            replace(cost, S=np.nan)
        with pytest.raises(NotPositiveDefinite):
            replace(cost, R=0.0)

    def test_step_outside_horizon_rejected(self):
        cost = CrossTermCost(horizon=2, Q=[1.0, 5.0], S=0.0, R=1.0)
        x, u = np.ones((2, 1)), np.zeros((2, 1))
        assert cost.step_cost(x, u, 1) == 1.0
        assert cost.step_cost(x, u, 2) == 5.0
        for t in (0, 3):
            with pytest.raises(ValidationError, match="outside 1..2"):
                cost.step_cost(x, u, t)

    def test_scalar_equivalence_on_populations(self):
        # both cost forms agree on random populations
        rng = np.random.default_rng(2)
        cost = CrossTermCost(horizon=1, Q=1.0, S=2.0, R=1.0, P=3.0)
        Q, R, P = reduce_cross_term(cost)
        for _ in range(50):
            x = rng.uniform(-2, 2, (3, 1))
            u = rng.uniform(-2, 2, (3, 1))
            z = x.mean(axis=0)
            direct = cost.step_cost(x, u, t=1)
            reduced = step_cost(x, u, z, Q[0], R[0], P[0])
            assert abs(direct - reduced) <= 1e-12 * abs(direct)

    @pytest.mark.parametrize("n_agents", [1, 2, 5])
    @pytest.mark.parametrize("d_x", [1, 3])
    def test_matrix_equivalence_on_populations(self, n_agents, d_x):
        rng = np.random.default_rng(10 * n_agents + d_x)
        S = rng.uniform(-1.0, 1.0, (d_x, d_x))
        sym_part = (S + S.T) / 2.0
        lift = max(0.0, -float(np.linalg.eigvalsh(sym_part)[0]))
        P = rand_psd(rng, d_x) + (lift + 0.1) * np.eye(d_x)
        cost = CrossTermCost(horizon=3, Q=rand_psd(rng, d_x), S=S, R=rand_pd(rng, 2), P=P)
        Q, R, Pp = reduce_cross_term(cost)
        for trial in range(20):
            x = rng.uniform(-2, 2, (n_agents, d_x))
            u = rng.uniform(-2, 2, (n_agents, 2))
            z = np.add.reduce(x, axis=0) / n_agents
            for t in (1, 2, 3):
                direct = cost.step_cost(x, u, t)
                reduced = step_cost(x, u, z, Q[t - 1], R[t - 1], Pp[t - 1])
                assert abs(direct - reduced) <= 1e-12 * max(abs(direct), 1.0)


class TestTracking:
    def base(self):
        return build_model(
            horizon=5, n_agents=4, A=0.8, B=1.0, Q=0.0, R=1.0,
            Sigma_X=1.0, Sigma_W=0.3, initial_mean=2.0,
        )

    def test_zero_weights_leave_pure_control_penalty(self):
        aug = augment_for_tracking(self.base(), q=0.0, r=1.0, p=0.0, meanfield_reference=3.0)
        assert not np.any(aug.Q)
        assert not np.any(aug.P)
        assert np.array_equal(aug.R[0], [[1.0]])

    def test_scalar_q_block(self):
        aug = augment_for_tracking(self.base(), q=1.0, r=1.0, p=0.0, meanfield_reference=0.0)
        expected = np.array([[1.0, -1.0, 0.0], [-1.0, 1.0, 0.0], [0.0, 0.0, 0.0]])
        assert np.array_equal(aug.Q[0], expected)

    def test_augmented_dimensions_and_blocks(self):
        aug = augment_for_tracking(self.base(), q=0.5, r=1.0, p=1.0, meanfield_reference=3.0)
        assert aug.d_x == 3
        # reference block: identity dynamics, no control, no noise
        assert aug.A[0][1, 1] == 1.0 and aug.A[0][2, 2] == 1.0
        assert not np.any(aug.B[0][1:])
        assert not np.any(aug.Sigma_W[1:, :])
        # coupling acts only on the original coordinates
        assert not np.any(aug.D[:, 1:, :]) and not np.any(aug.D[:, :, 1:])
        # initial covariance makes the reference copy the initial state
        assert aug.Sigma_X[0, 1] == aug.Sigma_X[0, 0]

    def test_time_varying_reference_enters_p(self):
        ref = np.arange(5.0).reshape(5, 1)
        aug = augment_for_tracking(self.base(), q=0.0, r=1.0, p=2.0, meanfield_reference=ref)
        assert aug.P[3][0, 2] == -2.0 * 3.0
        assert aug.P[3][2, 2] == 2.0 * 9.0

    def test_heater_model_validates_and_solves(self):
        model = heater_model()
        assert model.d_x == 3
        solution = solve_control_riccati(model)
        assert solution.Kx.shape == (90, 1, 3)

    def test_mismatched_spec_rejected(self):
        # T=5, d_x=1: a reference of another length or width is rejected
        # before any step reads it
        for shape in [(3, 1), (4, 1), (6, 1), (5, 2), (2,)]:
            with pytest.raises(DimensionMismatch, match="meanfield_reference"):
                augment_for_tracking(self.base(), q=1.0, r=1.0, p=1.0,
                                     meanfield_reference=np.zeros(shape))

    def test_tracking_cost_matches_definition(self):
        # simulated augmented cost equals the tracking objective computed
        # directly from temperatures, references, and controls
        from mflqg import optimal_strategy, simulate

        base = self.base()
        q, r, p, ref = 0.5, 1.0, 1.0, 3.0
        aug = augment_for_tracking(base, q=q, r=r, p=p, meanfield_reference=ref)
        trace = simulate(aug, optimal_strategy(aug), seed=8)
        x = trace.states[:, :, 0]
        x_ref = trace.states[:, :, 1]
        const = trace.states[:, :, 2]
        assert np.allclose(const, 1.0, atol=1e-12)
        u = trace.actions[:, :, 0]
        z = trace.meanfield[:, 0]
        for k in range(aug.horizon):
            direct = (
                np.mean(q * (x[k] - x_ref[k]) ** 2 + r * u[k] ** 2)
                + p * (z[k] - ref) ** 2
            )
            assert abs(direct - trace.step_costs[k]) <= 1e-10 * max(abs(direct), 1.0)
