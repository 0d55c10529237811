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
    ValidationError,
    augment_for_tracking,
    build_model,
    heater_model,
    model_from_dict,
    model_to_dict,
    solve_control_riccati,
    step_cost,
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
        again = replace(model)
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

    @pytest.mark.parametrize("value", [True, np.True_], ids=["bool", "numpy-bool"])
    @pytest.mark.parametrize("key", ["horizon", "n_agents"])
    def test_boolean_is_not_a_count(self, key, value):
        with pytest.raises(ValidationError, match="whole number"):
            scalar_model(**{key: value})
        with pytest.raises(ValidationError, match="whole number"):
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

    @pytest.mark.parametrize("value", [1.9, "1", True])
    def test_declared_dims_must_be_whole(self, value):
        # d_x is 1: a truncated 1.9, a string or a boolean must not pass as 1
        data = model_to_dict(scalar_model())
        data["dims"]["d_x"] = value
        with pytest.raises(ValidationError, match="whole number"):
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
        data = model_to_dict(scalar_model())
        assert "state_offset" not in data
        data2 = model_to_dict(scalar_model(state_offset=3.0))
        assert data2["state_offset"] == [3.0]


class TestCrossTerm:
    """A cross term mean_i x^i' S z in the per-step cost equals z' S z,
    because the agents' states average to z, so it folds into the
    mean-field weight: P becomes P + (S + S')/2."""

    @pytest.mark.parametrize("n_agents", [1, 2, 5])
    @pytest.mark.parametrize("d_x", [1, 3])
    def test_matrix_equivalence_on_populations(self, n_agents, d_x):
        rng = np.random.default_rng(10 * n_agents + d_x)
        S = rng.uniform(-1.0, 1.0, (d_x, d_x))
        Q, R, P = rand_psd(rng, d_x), rand_pd(rng, 2), rand_psd(rng, d_x)
        for trial in range(20):
            x = rng.uniform(-2, 2, (n_agents, d_x))
            u = rng.uniform(-2, 2, (n_agents, 2))
            z = np.add.reduce(x, axis=0) / n_agents
            direct = step_cost(x, u, z, Q, R, P) + np.add.reduce(x @ (S @ z)) / n_agents
            folded = step_cost(x, u, z, Q, R, P + (S + S.T) / 2.0)
            assert abs(direct - folded) <= 1e-12 * max(abs(direct), 1.0)


class TestTracking:
    def base(self):
        return build_model(
            horizon=5, n_agents=4, A=0.8, B=1.0, Q=0.0, R=1.0,
            Sigma_X=1.0, Sigma_W=0.3, initial_mean=2.0,
        )

    @pytest.mark.parametrize("build", [
        lambda v: augment_for_tracking(scalar_model(), q=1.0, r=1.0, p=1.0,
                                       meanfield_reference=v),
        lambda v: augment_for_tracking(scalar_model(), q=1.0, r=v, p=1.0,
                                       meanfield_reference=0.0),
    ], ids=["reference", "r"])
    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_non_finite_rejected(self, build, value):
        with pytest.raises(ValidationError, match="non-finite"):
            build(value)

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
