"""Closed-loop population simulation and policy cost evaluation.

Randomness contract: all draws come from counter-based Philox streams
derived from (seed, run, noise-kind), with a fixed in-stream layout of
(step, agent, component). The scheme is named and versioned in RNG_SCHEME.
Initial states, process noise, and observation noise live in separate
substreams, so full- and noisy-observation simulations of the same model
and seed share identical state noise (common random numbers), and traces
are bit-reproducible regardless of scheduling or concurrency. Each chunk
of runs builds one generator and re-points it at the (run, kind) counter
of every run and noise kind, which draws exactly what a new generator
would, so RNG_SCHEME is unchanged.

Every policy is a `GainSchedule` (filter gains present exactly when the
model is noisy), and one batched closed-loop kernel steps a block of runs
together: `simulate` is its batch of one with every step recorded, and
`monte_carlo_cost` runs it per chunk for the realized costs only, so Monte
Carlo run r equals simulate(run=r) bit for bit. Population and component
sums run per run in a fixed order (ascending, except numpy's pairwise sum
along a contiguous axis), never in one that follows the batch size.
`exact_policy_cost` propagates means and covariances of the pair
(per-agent deviation from the mean-field, mean-field) through the closed
loop, which has fixed dimension 2*d_x regardless of the population size;
Monte Carlo chunk sizes depend on the model only, so the result is
independent of the worker count.
"""
from __future__ import annotations

import json
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .control import GainSchedule
from .errors import IncompatibleStrategy, ValidationError
from .linalg import psd_factor, symmetrize
from .model import LqMeanFieldModel, _whole
from .riccati import solve_control_riccati, solve_filter_riccati

RNG_SCHEME = "philox4x64-runkind-v1"
_KEY_SALT = 0x9E3779B97F4A7C15
_KIND_INIT = 0
_KIND_PROCESS = 1
_KIND_OBS = 2
# a Monte Carlo chunk holds at most _MC_CHUNK runs and, unless one run alone
# is larger, at most _MC_CHUNK_BYTES of pre-drawn noise
_MC_CHUNK = 4096
_MC_CHUNK_BYTES = 16 * 2**20


def _counter(run: int, kind: int) -> np.ndarray:
    """Philox counter of one (run, kind), converted as `np.random.Philox`
    converts the list [0, 0, run, kind]: through float64 once a word
    reaches 2**63. The streams of RNG_SCHEME are defined by this conversion,
    rounding included."""
    return np.asarray([0, 0, run, kind]).astype(np.uint64)


def _substream(seed: int, run: int, kind: int) -> np.random.Generator:
    """Philox stream for one (run, kind); the low counter word is left free
    for in-stream consumption, so substreams can never overlap."""
    bits = np.random.Philox(key=[seed, _KEY_SALT], counter=_counter(run, kind))
    return np.random.Generator(bits)


def _reusable_substream(seed: int):
    """`_substream(seed, run, kind)` as a function of (run, kind) that
    re-points one generator instead of building one per call.

    A Philox stream is fully named by its key and counter: setting the
    counter to [0, 0, run, kind] with an empty buffer gives the state of a
    new `_substream(seed, run, kind)`, whatever was drawn before. Each call
    invalidates the generator an earlier call returned.
    """
    generator = _substream(seed, 0, _KIND_INIT)
    bits = generator.bit_generator
    fresh = bits.state

    def point(run: int, kind: int) -> np.random.Generator:
        fresh["state"]["counter"] = _counter(run, kind)
        bits.state = fresh
        return generator

    return point


def _noise_factors(model: LqMeanFieldModel):
    """Square factors of the three noise covariances (observation last, or None)."""
    Lv = None
    if model.observation_mode == "noisy":
        Lv = psd_factor(model.Sigma_V, "Sigma_V")
    return (
        psd_factor(model.Sigma_X, "Sigma_X"),
        psd_factor(model.Sigma_W, "Sigma_W"),
        Lv,
    )


def _draw_noise(model: LqMeanFieldModel, seed: int, first_run: int, x1, w, v) -> None:
    """Fill x1, w (and v, when noisy) with the initial states, process noise
    (and observation noise) of runs first_run.., one run per leading index,
    in the fixed (step, agent, component) layout.

    The normals of each (run, kind) go to per-run scratch from one
    re-pointed generator, and the covariance factor is applied with one
    matmul written straight into the chunk.
    """
    T, n = model.horizon, model.n_agents
    Lx, Lw, Lv = _noise_factors(model)
    substream = _reusable_substream(seed)
    kinds = [(_KIND_INIT, np.empty((n, model.d_x)), Lx.T, x1),
             (_KIND_PROCESS, np.empty((T - 1, n, model.d_x)), Lw.T, w)]
    if v is not None:
        kinds.append((_KIND_OBS, np.empty((T, n, model.d_y)), Lv.T, v))
    for i in range(x1.shape[0]):
        for kind, normals, factor, out in kinds:
            substream(first_run + i, kind).standard_normal(out=normals)
            np.matmul(normals, factor, out=out[i])
    x1 += model.mu_X


def mean_over_agents(values: np.ndarray) -> np.ndarray:
    """Population average with a fixed summation order (ascending agent index)."""
    return np.add.reduce(values, axis=0) / values.shape[0]


def step_cost(
    states: np.ndarray,
    actions: np.ndarray,
    meanfield: np.ndarray,
    Q: np.ndarray,
    R: np.ndarray,
    P: np.ndarray,
) -> float:
    """Per-step population cost on a snapshot: agent-average quadratics plus
    the mean-field penalty."""
    quad = np.einsum("id,de,ie->i", states, Q, states)
    quad = quad + np.einsum("id,de,ie->i", actions, R, actions)
    agent_avg = np.add.reduce(quad) / states.shape[0]
    return float(agent_avg + meanfield @ P @ meanfield)


# ---------------------------------------------------------------------------
# policies

# perfbench names the policy type LinearStrategy
LinearStrategy = GainSchedule


def optimal_strategy(model: LqMeanFieldModel) -> GainSchedule:
    """Solve the control recursions (and, under noisy observation, the
    filter recursion) and package the team-optimal policy."""
    filter_solution = solve_filter_riccati(model) if model.observation_mode == "noisy" else None
    return solve_control_riccati(model).gain_schedule(filter_solution)


def _check_policy(model: LqMeanFieldModel, policy) -> GainSchedule:
    if not isinstance(policy, GainSchedule):
        raise IncompatibleStrategy(f"policy must be a GainSchedule, got {type(policy).__name__}")
    if (policy.horizon, policy.d_x, policy.d_u) != (model.horizon, model.d_x, model.d_u):
        raise IncompatibleStrategy(
            f"policy (T={policy.horizon}, d_x={policy.d_x}, d_u={policy.d_u}) does not "
            f"match model (T={model.horizon}, d_x={model.d_x}, d_u={model.d_u})"
        )
    noisy = model.observation_mode == "noisy"
    if noisy != (policy.Kf is not None):
        raise IncompatibleStrategy(
            "filter gains are required under noisy observation and only there; "
            f"model is {model.observation_mode}, policy has "
            f"{'no ' if policy.Kf is None else ''}filter gains"
        )
    if noisy and policy.d_y != model.d_y:
        raise IncompatibleStrategy(
            f"policy d_y={policy.d_y} does not match model d_y={model.d_y}"
        )
    return policy


# ---------------------------------------------------------------------------
# closed loop

def _closed_loop(
    model: LqMeanFieldModel, policy: GainSchedule, seed: int, first_run: int, runs: int,
    record: bool = False,
):
    """Step runs first_run..first_run+runs-1 through the closed loop together.

    Returns the realized per-step costs, shape (T, runs), and, when
    `record` is set, the trajectory and the drawn noise as a dict keyed by
    `SimulationTrace` field, each array with a leading run axis. Each run's
    arithmetic does not depend on the batch it is stepped in.
    """
    T, n, d_x, d_y = model.horizon, model.n_agents, model.d_x, model.d_y
    noisy = model.observation_mode == "noisy"
    Fx, Fz = policy.Kx, policy.Kz - policy.Kx

    x1 = np.empty((runs, n, d_x))
    w = np.empty((runs, T - 1, n, d_x))
    v = np.empty((runs, T, n, d_y)) if noisy else None
    _draw_noise(model, seed, first_run, x1, w, v)

    x = x1
    xhat = np.broadcast_to(model.mu_X, (runs, n, d_x)).copy() if noisy else None
    y = None
    per_step = np.zeros((T, runs))
    steps = []
    for k in range(T):
        # the mean-field keeps a singleton agent axis, so every product with
        # it is one small matmul per run and a run's digits never depend on
        # how many runs share the batch
        z = _agent_mean(x)
        basis = xhat if noisy else x
        u = basis @ Fx[k].T
        u += z @ Fz[k].T
        quad = _quadratic(x, model.Q[k])
        quad += _quadratic(u, model.R[k])
        per_step[k] = np.add.reduce(quad, axis=1) / n
        per_step[k] += _quadratic(z, model.P[k])[:, 0]
        if noisy:
            z_obs = z @ model.Cz[k].T
            y = x @ model.Cx[k].T
            y += z_obs
            y += v[:, k]
        if record:
            steps.append((x, u, z[:, 0], np.add.reduce(u, axis=1) / n, y, xhat))
        if k + 1 < T:
            drift = z @ model.D[k].T
            if noisy:
                innovation = y - xhat @ model.Cx[k].T
                innovation -= z_obs
                xhat = xhat @ model.A[k].T
                xhat += u @ model.B[k].T
                xhat += drift
                xhat += innovation @ policy.Kf[k].T
            x = x @ model.A[k].T
            x += u @ model.B[k].T
            x += drift
            x += w[:, k]

    if not record:
        return per_step, None
    names = ("states", "actions", "meanfield", "mean_control", "observations", "estimates")
    recorded = {
        name: None if column[0] is None else np.stack(column, axis=1)
        for name, column in zip(names, zip(*steps))
    }
    return per_step, {**recorded, "process_noise": w, "obs_noise": v}


def _agent_mean(x: np.ndarray) -> np.ndarray:
    """Population average over axis 1, keeping it: the digits of
    `np.add.reduce(x, axis=1, keepdims=True) / n`, which are per-run.

    Over a strided axis numpy reduces by an ascending fold, which
    `np.add.accumulate` repeats without the short strided inner loops (the
    two differ only in the sign of an all -0.0 sum, and no state is -0.0:
    each is a matmul result plus further terms, and matmul returns +0.0).
    With one component the agent axis is the contiguous one, which numpy
    sums pairwise, so the reduce stays there.
    """
    n = x.shape[1]
    if x.shape[-1] == 1:
        return np.add.reduce(x, axis=1, keepdims=True) / n
    return np.add.accumulate(x, axis=1)[:, -1:] / n


def _quadratic(vectors: np.ndarray, weight: np.ndarray) -> np.ndarray:
    """v' W v over the last axis, with per-run arithmetic (einsum's summation
    order changes with the batch size for some shapes).

    Fewer than 8 components are summed left to right by sliced adds, the
    digits of `np.add.reduce` there (numpy sums 8 and more pairwise, so the
    reduce stays for those) without its per-element inner loop.
    """
    terms = vectors @ weight
    terms *= vectors
    if terms.shape[-1] >= 8:
        return np.add.reduce(terms, axis=-1)
    total = terms[..., 0].copy()
    for j in range(1, terms.shape[-1]):
        total += terms[..., j]
    return total


def _run_totals(per_step: np.ndarray) -> np.ndarray:
    """Per-run total cost, summed over steps in step order for every batch size."""
    totals = per_step[0].copy()
    for step in per_step[1:]:
        totals += step
    return totals


# ---------------------------------------------------------------------------
# simulation

@dataclass(frozen=True, eq=False)
class SimulationTrace:
    """Everything recorded from one closed-loop run (step t at index t-1)."""

    model: LqMeanFieldModel
    seed: int
    run: int
    rng_scheme: str
    model_fingerprint: str
    states: np.ndarray                 # (T, n, d_x)
    actions: np.ndarray                # (T, n, d_u)
    observations: np.ndarray | None    # (T, n, d_y), noisy mode
    estimates: np.ndarray | None       # (T, n, d_x), noisy mode
    meanfield: np.ndarray              # (T, d_x)
    mean_control: np.ndarray           # (T, d_u)
    step_costs: np.ndarray             # (T,)
    total_cost: float
    process_noise: np.ndarray          # (T-1, n, d_x)
    obs_noise: np.ndarray | None       # (T, n, d_y), noisy mode


def simulate(model: LqMeanFieldModel, policy: GainSchedule, seed: int, run: int = 0) -> SimulationTrace:
    """Run the n-subsystem closed loop once and record everything.

    Under noisy observation each subsystem runs its own estimator with the
    policy's filter gains. Bit-reproducible for fixed (model, policy, seed,
    run), and identical to run `run` of `monte_carlo_cost` at that seed.
    """
    policy = _check_policy(model, policy)
    per_step, recorded = _closed_loop(model, policy, seed, run, 1, record=True)
    return SimulationTrace(
        model=model,
        seed=int(seed),
        run=int(run),
        rng_scheme=RNG_SCHEME,
        model_fingerprint=model.fingerprint(),
        step_costs=per_step[:, 0],
        total_cost=float(_run_totals(per_step)[0]),
        **{name: None if arr is None else arr[0] for name, arr in recorded.items()},
    )


# ---------------------------------------------------------------------------
# auxiliary coordinates

@dataclass(frozen=True, eq=False)
class AuxiliaryTrace:
    """A trace re-expressed as per-agent deviations plus the mean-field path.

    The residual fields report how exactly the recorded trajectory
    satisfies the decoupled deviation and mean-field dynamics when the
    recorded noise is substituted back in.
    """

    deviations: np.ndarray          # (T, n, d_x), x^i - z
    deviation_controls: np.ndarray  # (T, n, d_u), u^i - u^z
    meanfield: np.ndarray           # (T, d_x)
    mean_control: np.ndarray        # (T, d_u)
    max_sum_residual_state: float
    max_sum_residual_control: float
    max_deviation_residual: float
    max_meanfield_residual: float


def decompose_auxiliary(trace: SimulationTrace) -> AuxiliaryTrace:
    """Split a trace into deviation and mean-field coordinates and verify
    both closed-form dynamics against the recorded noise."""
    model = trace.model
    T = model.horizon
    xbar = trace.states - trace.meanfield[:, np.newaxis, :]
    ubar = trace.actions - trace.mean_control[:, np.newaxis, :]

    sum_state = float(np.max(np.abs(np.add.reduce(xbar, axis=1)))) if xbar.size else 0.0
    sum_control = float(np.max(np.abs(np.add.reduce(ubar, axis=1)))) if ubar.size else 0.0

    dev_res = 0.0
    mf_res = 0.0
    for k in range(T - 1):
        w_mean = mean_over_agents(trace.process_noise[k])
        w_dev = trace.process_noise[k] - w_mean
        pred_dev = xbar[k] @ model.A[k].T + ubar[k] @ model.B[k].T + w_dev
        dev_res = max(dev_res, float(np.max(np.abs(xbar[k + 1] - pred_dev))))
        abar = model.A[k] + model.D[k]
        pred_mf = abar @ trace.meanfield[k] + model.B[k] @ trace.mean_control[k] + w_mean
        mf_res = max(mf_res, float(np.max(np.abs(trace.meanfield[k + 1] - pred_mf))))

    return AuxiliaryTrace(
        deviations=xbar,
        deviation_controls=ubar,
        meanfield=trace.meanfield.copy(),
        mean_control=trace.mean_control.copy(),
        max_sum_residual_state=sum_state,
        max_sum_residual_control=sum_control,
        max_deviation_residual=dev_res,
        max_meanfield_residual=mf_res,
    )


def cost_identity_check(
    states: np.ndarray,
    actions: np.ndarray,
    Q: np.ndarray,
    R: np.ndarray,
    P: np.ndarray,
) -> tuple[float, float]:
    """Evaluate one population snapshot's cost two ways.

    Returns (direct, decomposed): the agent-average quadratic plus
    mean-field penalty, and the same cost written in deviation coordinates
    plus mean-field terms. The two agree up to rounding for any snapshot.
    """
    x = np.asarray(states, dtype=float)
    u = np.asarray(actions, dtype=float)
    z = mean_over_agents(x)
    uz = mean_over_agents(u)
    lhs = step_cost(x, u, z, Q, R, P)
    xbar = x - z
    ubar = u - uz
    quad = np.einsum("id,de,ie->i", xbar, Q, xbar)
    quad = quad + np.einsum("id,de,ie->i", ubar, R, ubar)
    rhs = float(
        np.add.reduce(quad) / x.shape[0]
        + z @ (Q + P) @ z
        + uz @ R @ uz
    )
    return lhs, rhs


# ---------------------------------------------------------------------------
# exact evaluation

@dataclass(frozen=True, eq=False)
class PolicyEvaluation:
    """Exact expected cost of a linear policy, with its per-step split
    into deviation and mean-field parts (the latter split again into the
    deterministic mean part and the noise part)."""

    total: float
    step_costs: np.ndarray            # (T,)
    deviation_costs: np.ndarray       # (T,)
    meanfield_costs: np.ndarray       # (T,)
    meanfield_mean_costs: np.ndarray  # (T,)
    meanfield_noise_costs: np.ndarray # (T,)


def exact_policy_cost(model: LqMeanFieldModel, policy: GainSchedule) -> PolicyEvaluation:
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
    policy = _check_policy(model, policy)
    T, n = model.horizon, model.n_agents

    dev_frac = 1.0 - 1.0 / n
    cov_dev = dev_frac * model.Sigma_X
    mf_mean = model.mu_X
    mf_cov = model.Sigma_X / n

    dev_costs = np.zeros(T)
    mf_mean_costs = np.zeros(T)
    mf_noise_costs = np.zeros(T)
    for k in range(T):
        Kx, Kz = policy.Kx[k], policy.Kz[k]
        w_dev = model.Q[k] + Kx.T @ model.R[k] @ Kx
        w_mf = model.Q[k] + model.P[k] + Kz.T @ model.R[k] @ Kz
        dev_costs[k] = float(np.trace(w_dev @ cov_dev))
        mf_mean_costs[k] = float(mf_mean @ w_mf @ mf_mean)
        mf_noise_costs[k] = float(np.trace(w_mf @ mf_cov))
        if k + 1 < T:
            closed_dev = model.A[k] + model.B[k] @ Kx
            closed_mf = model.A[k] + model.D[k] + model.B[k] @ Kz
            cov_dev = symmetrize(
                closed_dev @ cov_dev @ closed_dev.T + dev_frac * model.Sigma_W,
                "deviation covariance",
            )
            mf_mean = closed_mf @ mf_mean
            mf_cov = symmetrize(
                closed_mf @ mf_cov @ closed_mf.T + model.Sigma_W / n,
                "mean-field covariance",
            )

    mf_costs = mf_mean_costs + mf_noise_costs
    step_costs = dev_costs + mf_costs
    return PolicyEvaluation(
        total=float(np.add.reduce(step_costs)),
        step_costs=step_costs,
        deviation_costs=dev_costs,
        meanfield_costs=mf_costs,
        meanfield_mean_costs=mf_mean_costs,
        meanfield_noise_costs=mf_noise_costs,
    )


# ---------------------------------------------------------------------------
# Monte Carlo evaluation

@dataclass(frozen=True)
class MonteCarloCost:
    mean: float
    stderr: float
    runs: int


def monte_carlo_cost(
    model: LqMeanFieldModel, policy: GainSchedule, runs: int, seed: int, workers: int = 1
) -> MonteCarloCost:
    """Sample mean and standard error of the realized cost over `runs`
    independent closed-loop runs (run indices 0..runs-1, so run r is
    simulate(model, policy, seed, run=r) exactly).

    Runs are processed in chunks whose size depends only on the model (each
    chunk's pre-drawn noise is bounded in bytes); the chunking, and therefore
    every reported digit, is independent of `workers`.
    """
    policy = _check_policy(model, policy)
    runs = _whole(runs, "runs")
    if runs < 2:
        raise ValidationError(f"monte_carlo_cost needs at least 2 runs, got {runs}")

    # initial states and process noise, T * n * d_x floats, plus observation noise
    d_noise = model.d_x + (model.d_y if model.observation_mode == "noisy" else 0)
    noise_bytes = 8 * model.horizon * model.n_agents * d_noise
    chunk = max(1, min(_MC_CHUNK, _MC_CHUNK_BYTES // noise_bytes))
    starts = list(range(0, runs, chunk))
    costs = np.empty(runs)

    def fill(start: int) -> None:
        count = min(chunk, runs - start)
        per_step, _ = _closed_loop(model, policy, seed, start, count)
        costs[start:start + count] = _run_totals(per_step)

    if workers <= 1:
        for start in starts:
            fill(start)
    else:
        with ThreadPoolExecutor(max_workers=int(workers)) as pool:
            list(pool.map(fill, starts))

    mean = float(np.add.reduce(costs) / runs)
    var = float(np.add.reduce((costs - mean) ** 2) / (runs - 1))
    return MonteCarloCost(mean=mean, stderr=float(np.sqrt(var / runs)), runs=runs)


# ---------------------------------------------------------------------------
# export

def _labels(columns: dict) -> list[str]:
    return [f"{prefix}_{j}" for prefix, values in columns.items() for j in range(values.shape[-1])]


def _write_csv(path: Path, header: list[str], index_columns: int, blocks) -> None:
    """Write the header, then each block (rows, columns) of floats as CRLF
    rows: the first `index_columns` columns with %d, the rest with %.17g
    (round-trip exact). These are the bytes a default `csv.writer` writes
    for the fields `str(int(v))` and `format(v, ".17g")`; each block is one
    format call."""
    row = ",".join(["%d"] * index_columns + ["%.17g"] * (len(header) - index_columns)) + "\r\n"
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write(",".join(header) + "\r\n")
        for block in blocks:
            fh.write((row * len(block)) % tuple(block.ravel().tolist()))


def export_trace_csv(trace: SimulationTrace, out_dir) -> tuple[Path, Path]:
    """Write the per-agent and mean-field CSV files; returns their paths.

    State and mean-field columns are shifted by the model's reporting
    offset; actions and observations are written as recorded.
    """
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    model = trace.model
    offset = model.state_offset
    steps = np.arange(1.0, model.horizon + 1)

    columns = {"x": trace.states + offset, "u": trace.actions}
    if trace.observations is not None:
        columns["y"] = trace.observations
    t_agent = np.broadcast_arrays(steps[:, np.newaxis], np.arange(float(model.n_agents)))
    agents = np.concatenate([np.stack(t_agent, axis=2), *columns.values()], axis=2)
    agents_path = out_dir / "trace_agents.csv"
    _write_csv(agents_path, ["t", "agent", *_labels(columns)], 2, agents)

    columns = {"z": trace.meanfield + offset, "uz": trace.mean_control}
    meanfield = np.column_stack([steps, *columns.values(), trace.step_costs])
    meanfield_path = out_dir / "trace_meanfield.csv"
    _write_csv(meanfield_path, ["t", *_labels(columns), "step_cost"], 1, [meanfield])

    return agents_path, meanfield_path


def trace_summary(trace: SimulationTrace) -> dict:
    return {
        "total_cost": trace.total_cost,
        "seed": trace.seed,
        "run": trace.run,
        "model_fingerprint": trace.model_fingerprint,
        "rng_scheme": trace.rng_scheme,
        "observation_mode": trace.model.observation_mode,
        "horizon": trace.model.horizon,
        "n_agents": trace.model.n_agents,
        "step_costs": [float(c) for c in trace.step_costs],
    }


def export_summary_json(trace: SimulationTrace, out_dir) -> Path:
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / "summary.json"
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(trace_summary(trace), fh, indent=2)
        fh.write("\n")
    return path


__all__ = [
    "RNG_SCHEME",
    "AuxiliaryTrace",
    "LinearStrategy",
    "MonteCarloCost",
    "PolicyEvaluation",
    "SimulationTrace",
    "cost_identity_check",
    "decompose_auxiliary",
    "exact_policy_cost",
    "export_summary_json",
    "export_trace_csv",
    "mean_over_agents",
    "monte_carlo_cost",
    "optimal_strategy",
    "simulate",
    "step_cost",
    "trace_summary",
]
