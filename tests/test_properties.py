"""Property sweep over small random models in both observation modes, each
input given as a scalar, a single matrix or a per-step sequence: model
construction, the stacked oracle on full-observation models, and the exact
policy cost against Monte Carlo in both modes and, under noisy observation,
against the filter recursion. The stacked oracle's Kronecker operators
reproduce the np.kron-built matrices and, on small integers, their
products exactly, and its cost, like the exact evaluator's optimal cost,
equals the closed form from the d_x-sized value matrices. Also: a
re-pointed noise generator draws its fresh substream, and full-rank noise
draws the normals of RNG_SCHEME v1 where v3 promises them, mapped by v3's
declared sum."""
import json
from dataclasses import replace

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import example, given, settings, strategies as st

from mflqg import (build_model, build_stacked_model, centralized_cost, check_equivalence,
                   model_from_dict, model_to_dict, solve_control_riccati, solve_stacked_riccati)
from mflqg import noise, oracle, sim
from helpers import (V1_KEY_SALT, closed_form_cost, declared_map, random_model, rel_err,
                     run_noise, v1_factor, v1_run_normals)
from test_oracle import dense_build_stacked_model

ARRAYS = ("A", "B", "D", "Q", "R", "P", "Sigma_X", "Sigma_W", "mu_X", "Cx", "Cz", "Sigma_V",
          "state_offset")
SWEEP = settings(max_examples=40, deadline=None, derandomize=True, database=None)


def assert_same_model(m1, m2):
    for name in ("horizon", "n_agents", "d_x", "d_u", "d_y", "observation_mode"):
        assert getattr(m1, name) == getattr(m2, name), name
    for name in ARRAYS:
        a1, a2 = getattr(m1, name), getattr(m2, name)
        assert (a1 is None) == (a2 is None), name
        if a1 is not None:
            assert a1.dtype == a2.dtype and np.array_equal(a1, a2), name
    assert m1.fingerprint() == m2.fingerprint()


@st.composite
def stack_input(draw, steps):
    """(loose, stacked): one per-step stack given in a form drawn at random,
    and the same input as a (T, rows, cols) array."""
    forms = ["sequence", "list", "matrix"]
    if steps.shape[1:] == (1, 1):
        forms += ["scalar", "per-step scalars"]
    form = draw(st.sampled_from(forms))
    const = np.broadcast_to(steps[0], steps.shape).copy()
    return {
        "sequence": (steps, steps),
        "list": (steps.tolist(), steps),
        "matrix": (steps[0], const),
        "scalar": (float(steps[0, 0, 0]), const),
        "per-step scalars": (steps[:, 0, 0], steps),
    }[form]


@st.composite
def square_input(draw, mat):
    """(loose, dense) for a covariance: a scalar times the identity or a matrix."""
    if draw(st.booleans()):
        scale = float(mat[0, 0])
        return scale, scale * np.eye(len(mat))
    return mat, mat


@st.composite
def models(draw, noisy=None):
    """(loose, stacked): build_model keyword inputs for one random model
    (n <= 4, d_x <= 3, T <= 5), noisy or not at random unless `noisy` is given."""
    T = draw(st.integers(1, 5))
    d_x, d_u, d_y = (draw(st.integers(1, 3)) for _ in range(3))
    if noisy is None:
        noisy = draw(st.booleans())
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))

    def psd(d, floor=0.0):
        G = rng.uniform(-1.0, 1.0, (T, d, d))
        return G @ np.swapaxes(G, 1, 2) + floor * np.eye(d)

    stacks = {
        "A": rng.uniform(-1.0, 1.0, (T, d_x, d_x)),
        "B": rng.uniform(-1.0, 1.0, (T, d_x, d_u)),
        "Q": psd(d_x),
        "R": psd(d_u, floor=0.3),
        "D": rng.uniform(-0.5, 0.5, (T, d_x, d_x)),
        "P": psd(d_x),
    }
    covariances = {"Sigma_X": psd(d_x)[0], "Sigma_W": psd(d_x)[0]}
    vectors = {"initial_mean": rng.uniform(-1.0, 1.0, d_x),
               "state_offset": rng.uniform(-1.0, 1.0, d_x)}
    if noisy:
        stacks["Cx"] = rng.uniform(-1.0, 1.0, (T, d_y, d_x))
        stacks["Cz"] = rng.uniform(-0.5, 0.5, (T, d_y, d_x))
        covariances["Sigma_V"] = psd(d_y)[0]
    loose = {"horizon": T, "n_agents": draw(st.integers(1, 4)),
             "observation_mode": "noisy" if noisy else "full"}
    stacked = dict(loose)
    for name, steps in stacks.items():
        loose[name], stacked[name] = draw(stack_input(steps))
    for name, mat in covariances.items():
        loose[name], stacked[name] = draw(square_input(mat))
    for name, vec in vectors.items():
        if draw(st.booleans()):
            loose[name], stacked[name] = float(vec[0]), np.full(d_x, vec[0])
        else:
            loose[name], stacked[name] = vec, vec
    # omitted optional inputs are zero
    for name in ("D", "P", "Sigma_X", "Sigma_W", "initial_mean", "state_offset"):
        if draw(st.booleans()):
            loose[name] = None
            stacked[name] = np.zeros_like(stacked[name])
    return loose, stacked


@SWEEP
@given(models())
def test_replace_reproduces_model(inputs):
    model = build_model(**inputs[0])
    assert_same_model(replace(model), model)


@SWEEP
@given(models())
def test_json_round_trip_keeps_fingerprint(inputs):
    model = build_model(**inputs[0])
    back = model_from_dict(json.loads(json.dumps(model_to_dict(model))))
    assert_same_model(back, model)


@SWEEP
@given(models())
def test_loose_and_stacked_inputs_agree(inputs):
    loose, stacked = inputs
    assert_same_model(build_model(**loose), build_model(**stacked))


@SWEEP
@given(models(), st.data())
def test_replace_normalizes_like_build_model(inputs, data):
    loose = inputs[0]
    model = build_model(**loose)
    d = model.d_x
    D = data.draw(st.sampled_from([0.25, np.full((d, d), 0.25)] if d == 1 else [np.full((d, d), 0.25)]))
    assert_same_model(replace(model, D=D), build_model(**dict(loose, D=D)))


@SWEEP
@given(models(noisy=False))
def test_stacked_oracle_confirms_meanfield_solution(inputs):
    report = check_equivalence(build_model(**inputs[0]), tolerance=1e-8)
    assert report.passed, report.to_dict()


@SWEEP
@given(models(noisy=False))
def test_stacked_cost_is_the_closed_form(inputs):
    model = build_model(**inputs[0])  # n * d_x <= 12
    stacked = build_stacked_model(model)
    central = solve_stacked_riccati(stacked, solve_control_riccati(model))
    assert rel_err(centralized_cost(stacked, central), closed_form_cost(model)) <= 1e-13


@SWEEP
@given(models(noisy=False))
def test_exact_optimal_cost_is_the_closed_form(inputs):
    model = build_model(**inputs[0])
    total = sim.exact_policy_cost(model, sim.optimal_strategy(model)).total
    assert rel_err(total, closed_form_cost(model)) <= 1e-13


@SWEEP
@given(st.integers(1, 5), st.integers(1, 3), st.integers(1, 3), st.integers(0, 2**32 - 1))
def test_stacked_operators_are_the_kron_matrices(n, d_x, d_u, seed):
    # each operator applied to the identity, and added to zero, is the
    # np.kron-built matrix entry for entry (a signed zero equals its
    # unsigned one); D != 0 and P != 0 give A and Q their coupling blocks
    model = random_model(np.random.default_rng(seed), n_agents=n, horizon=2, d_x=d_x, d_u=d_u)
    assert np.all(model.D) and np.all(model.P)
    stacked, dense = build_stacked_model(model), dense_build_stacked_model(model)
    for k in range(model.horizon):
        dense_k = (dense.A[k], dense.B[k], dense.Q[k], dense.R[k])
        for op, want in zip(stacked.blocks(k), dense_k):
            assert np.array_equal(oracle._transposed_times(op, np.eye(len(want))), want.T)
            added = np.zeros(want.shape)
            oracle._add_blocks(added, op)
            assert np.array_equal(added, want)


@SWEEP
@given(st.integers(1, 5), st.integers(1, 3), st.integers(1, 3), st.integers(1, 4), st.booleans(),
       st.booleans(), st.integers(0, 2**32 - 1))
def test_stacked_operator_products_are_exact(n, d, c, r, coupled, transposed, seed):
    # on small integers every product and sum is exact, so the operators'
    # arithmetic gives the dense products' values whatever its order; X is
    # drawn in either memory layout, as the oracle passes both
    rng = np.random.default_rng(seed)

    def ints(*shape):
        return rng.integers(-4, 5, shape).astype(float)

    diagonal, coupling = ints(d, c), ints(d, c) if coupled else None
    S = np.kron(np.eye(n), diagonal)
    if coupled:
        S += np.kron(np.ones((n, n)), coupling)
    X = ints(r, n * d).T if transposed else ints(n * d, r)
    assert np.array_equal(oracle._transposed_times((diagonal, coupling), X), S.T @ X)
    Y = ints(n * d, n * c)
    want = Y + S
    oracle._add_blocks(Y, (diagonal, coupling))
    assert np.array_equal(Y, want)


@SWEEP
@given(models())
def test_exact_cost_matches_monte_carlo(inputs):
    model = build_model(**inputs[0])
    policy = sim.optimal_strategy(model)
    exact = sim.exact_policy_cost(model, policy).total
    mc = sim.monte_carlo_cost(model, policy, runs=4000, seed=5, workers=1)
    # a model without noise has one realized cost, up to rounding
    assert abs(mc.mean - exact) <= 4.0 * mc.stderr + 1e-12 * abs(exact), model.observation_mode


@SWEEP
@given(models(noisy=True))
def test_exact_blocks_carry_the_filter_error_covariance(inputs):
    # x - xhat = (x - z) - (xhat - zhat) + (z - zhat), from blocks that are
    # uncorrelated, z - zhat of mean zero: its covariance is the filter's
    model = build_model(**inputs[0])
    moments = sim._moments(model, sim.optimal_strategy(model))
    split = np.hstack([np.eye(model.d_x), -np.eye(model.d_x)])
    want = sim.solve_filter_riccati(model).Sigma_e
    for k, (_, cov_dev, _, _, mf_cov) in enumerate(moments):
        got = split @ cov_dev @ split.T + split @ mf_cov @ split.T
        assert np.max(np.abs(got - want[k])) <= 1e-10 * max(1.0, np.max(np.abs(want[k]))), k


U64 = st.integers(0, 2**64 - 1)
KINDS = st.sampled_from([noise._KIND_INIT, noise._KIND_PROCESS, noise._KIND_OBS])


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(U64, U64, KINDS, st.none() | st.tuples(U64, KINDS))
# words that float64 rounds: v1 gave these the streams of 2**60 and of run 0
@example(seed=2**60 + 1, run=2**64 - 1, kind=1, earlier=None)
@example(seed=2**60 + 100, run=2**63 + 1, kind=0, earlier=(2**64 - 1, 2))
def test_repointed_generator_draws_the_fresh_substream(seed, run, kind, earlier):
    substream = noise._reusable_substream(seed)
    if earlier is not None:
        # a partial draw leaves the Philox buffer half used
        substream(*earlier).standard_normal(5)
    generator = substream(run, kind)
    state = generator.bit_generator.state["state"]
    assert state["key"].tolist() == [seed, 0x9E3779B97F4A8000]
    assert state["counter"].tolist() == [0, 0, run, kind]
    got = np.empty((3, 4))
    generator.standard_normal(out=got)
    assert np.array_equal(got, noise._substream(seed, run, kind).standard_normal((3, 4)))
    if seed < 2**53 and run < 2**63:
        # the key and counter given as lists, as RNG_SCHEME v1 defined them
        listed = np.random.Philox(key=[seed, V1_KEY_SALT], counter=[0, 0, run, kind])
        assert np.array_equal(got, np.random.Generator(listed).standard_normal((3, 4)))


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(st.sampled_from(["full", "noisy"]), st.integers(1, 4), st.integers(1, 4),
       st.integers(1, 3), st.integers(1, 3), st.integers(0, 2**32 - 1),
       st.integers(0, 2**53 - 1), st.integers(0, 2**63 - 2))
def test_full_rank_noise_maps_the_v1_normals(mode, n, T, d_x, d_y, model_seed, seed, run):
    # full-rank noise draws v1's (and v2's) normals; v3 maps them through
    # the factor by its declared left-to-right sum, and adds mu_X last
    model = random_model(np.random.default_rng(model_seed), mode=mode, n_agents=n,
                         horizon=T, d_x=d_x, d_y=d_y)
    factors = noise._noise_factors(model)
    assert all(L.shape[0] == L.shape[1] for L in factors if L is not None)
    policy = sim.optimal_strategy(model)
    for i in range(2):
        trace = sim.simulate(model, policy, seed, run + i)
        normals = v1_run_normals(model, seed, run + i)
        want = [None if g is None else declared_map(g, v1_factor(cov))
                for g, cov in zip(normals, (model.Sigma_X, model.Sigma_W, model.Sigma_V))]
        want[0] = want[0] + model.mu_X
        for got, ref in zip((trace.states[0], *run_noise(model, seed, run + i)), want):
            assert (got is None) == (ref is None)
            if ref is not None:
                assert np.array_equal(got, ref)
                assert np.array_equal(np.signbit(got), np.signbit(ref))
