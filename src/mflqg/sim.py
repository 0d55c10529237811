"""Closed-loop population simulation and policy cost evaluation.

Randomness contract: all draws come from counter-based Philox streams
derived from (seed, run, noise-kind). The scheme is named and versioned in
RNG_SCHEME. The Philox key is (seed, 0x9E3779B97F4A8000) and the counter
(0, 0, run, kind), both exact uint64 words, so every seed and run in
[0, 2**64) names its own stream. A noise kind of covariance rank r draws r
normals per (step, agent), in (step, agent, direction) order, and maps them
through the r kept columns of its `psd_factor`: the directions a
covariance does not excite (such as the noiseless reference components of
a tracking model) draw nothing. A full-rank covariance keeps every
column, so for seeds below 2**53 and runs below 2**63 its draws are those
of scheme v1, which rounded key and counter words through float64 and
always drew one normal per component. Process and observation noise are
held as those rank-sized normals and mapped through the factor one step
at a time, as the closed loop adds them (a simulation records their batched
product, with the same digits); initial states are mapped when drawn.
Initial states, process noise, and observation noise live in separate
substreams, so full- and noisy-observation simulations of the same model
and seed share identical state noise (common random numbers), and traces
are bit-reproducible regardless of scheduling or concurrency. Each chunk
of runs builds one generator and re-points it at the (run, kind) counter
of every run and noise kind, which draws exactly what a new generator
would.

Every policy is a `GainSchedule` (filter gains present exactly when the
model is noisy), and one batched closed-loop kernel steps a block of runs
together: `simulate` is its batch of one with every step recorded, and
`monte_carlo_cost` runs it per chunk for the realized costs only, so Monte
Carlo run r equals simulate(run=r) bit for bit. Population and component
sums run per run in a fixed order (ascending, except numpy's pairwise sum
along a contiguous axis), never in one that follows the batch size.
`exact_policy_cost` propagates means and covariances of the pair
(per-agent deviation from the mean-field, mean-field) through the closed
loop, which has fixed dimension 2*d_x, or 4*d_x under noisy observation,
regardless of the population size.
`monte_carlo_cost` steps its chunks in forked worker processes, as its
docstring says; no digit depends on the chunking. A closed loop whose cost
overflows, or a simulation that records or exports a non-finite value,
raises `NumericalFailure`.
"""
from __future__ import annotations

import os
import threading
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .control import GainSchedule
from .errors import IncompatibleStrategy, NumericalFailure, ValidationError
from .linalg import psd_factor, symmetrize
from .model import LqMeanFieldModel, _count, _whole
from .riccati import solve_control_riccati, solve_filter_riccati

RNG_SCHEME = "philox4x64-runkind-v2"
_KEY_SALT = 0x9E3779B97F4A8000
_KIND_INIT = 0
_KIND_PROCESS = 1
_KIND_OBS = 2
# a Monte Carlo chunk holds, unless one run alone is larger, at most its
# worker's share of _MC_CHUNK_BYTES: the chunks in flight together hold at
# most that many bytes of pre-drawn noise and working arrays
_MC_CHUNK_BYTES = 16 * 2**20
# an allowance, per agent and state component, for the floats that the
# kernel's working arrays of one run take (initial and current state,
# action, estimate and their temporaries)
_MC_WORK_FLOATS = 12


def _stream_word(value, name: str) -> int:
    """A seed or run index: a whole number that fits one Philox word."""
    word = _whole(value, name)
    if not 0 <= word < 2**64:
        raise ValidationError(f"{name} must be in [0, 2**64), got {word}")
    return word


def _counter(run: int, kind: int) -> np.ndarray:
    """Philox counter of one (run, kind), exact in every word."""
    return np.array([0, 0, run, kind], dtype=np.uint64)


def _substream(seed: int, run: int, kind: int) -> np.random.Generator:
    """Philox stream for one (run, kind); the low counter word is left free
    for in-stream consumption, so substreams can never overlap."""
    key = np.array([seed, _KEY_SALT], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key, counter=_counter(run, kind)))


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
    """Rank-sized factors of the three noise covariances (observation last,
    or None)."""
    Lv = psd_factor(model.Sigma_V) if model.observation_mode == "noisy" else None
    return psd_factor(model.Sigma_X), psd_factor(model.Sigma_W), Lv


def _draw_noise(model: LqMeanFieldModel, seed: int, first_run: int, Lx, x1, w, v) -> None:
    """Fill x1 with the initial states of runs first_run.., one run per
    leading index, and w (and v, when noisy) with the raw rank-sized normals
    of their process (and observation) noise, in (step, agent, direction)
    order. `_closed_loop` applies those factors one step at a time.

    Every (run, kind) draws from one re-pointed generator; the initial
    states are mapped through their factor `Lx` with one matmul per run,
    written straight into the chunk.
    """
    substream = _reusable_substream(seed)
    normals = np.empty((model.n_agents, Lx.shape[1]))
    for i in range(x1.shape[0]):
        substream(first_run + i, _KIND_INIT).standard_normal(out=normals)
        np.matmul(normals, Lx.T, out=x1[i])
        substream(first_run + i, _KIND_PROCESS).standard_normal(out=w[i])
        if v is not None:
            substream(first_run + i, _KIND_OBS).standard_normal(out=v[i])
    x1 += model.mu_X


# the CPU quota of this process's cgroup, as a cgroup v2 namespace (a
# container's own) shows it: "<quota> <period>" in microseconds, or "max"
_CPU_MAX = "/sys/fs/cgroup/cpu.max"


def _usable_cpus() -> int:
    """CPUs this process may run on (all of them where the platform cannot
    say), and no more than its cgroup's CPU quota, rounded up, when the
    `cpu.max` file sets one."""
    if hasattr(os, "sched_getaffinity"):
        cpus = len(os.sched_getaffinity(0))
    else:
        cpus = os.cpu_count() or 1
    try:
        with open(_CPU_MAX, encoding="ascii") as fh:
            quota, period = fh.read().split()
        quota, period = int(quota), int(period)
    except (OSError, ValueError):  # no file, "max", or unreadable
        return cpus
    return max(1, min(cpus, -(-quota // period)))


# ---------------------------------------------------------------------------
# policies

# only perfbench names the policy type LinearStrategy
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

@np.errstate(over="ignore", invalid="ignore")
def _closed_loop(
    model: LqMeanFieldModel, policy: GainSchedule, seed: int, first_run: int, runs: int,
    record: bool = False,
):
    """Step runs first_run..first_run+runs-1 through the closed loop together.

    Returns the realized total cost of each run, shape (runs,), summed
    over steps in step order, and, when `record` is set, the trajectory,
    the per-step costs and the noise (the batched product of the drawn
    normals with their factor) as a dict keyed by `SimulationTrace` field,
    each array with a leading run axis. Each run's arithmetic does not
    depend on the batch it is stepped in. Raises `NumericalFailure` when a
    total, or a recorded value, is not finite.
    """
    T, n, d_x = model.horizon, model.n_agents, model.d_x
    noisy = model.observation_mode == "noisy"
    Fx, Fz = policy.Kx, policy.Kz - policy.Kx
    Lx, Lw, Lv = _noise_factors(model)

    # process and observation noise stay rank-sized until their step; the
    # factors are the transposed views, the operand layout the digits of
    # RNG_SCHEME were fixed with
    x1 = np.empty((runs, n, d_x))
    w = np.empty((runs, T - 1, n, Lw.shape[1]))
    v = np.empty((runs, T, n, Lv.shape[1])) if noisy else None
    _draw_noise(model, seed, first_run, Lx, x1, w, v)

    x = x1
    xhat = np.broadcast_to(model.mu_X, (runs, n, d_x)).copy() if noisy else None
    y = None
    steps = []
    for k in range(T):
        # the mean-field keeps a singleton agent axis, so every product with
        # it is one small matmul per run and a run's digits never depend on
        # how many runs share the batch. Each such term is repeated over the
        # agents where it is added: one contiguous add of equal shapes with
        # the digits of a broadcast add, without its short inner loops, and
        # no population-sized copy outlives the add
        z = _agent_mean(x)
        basis = xhat if noisy else x
        u = basis @ Fx[k].T
        u += np.repeat(z @ Fz[k].T, n, axis=1)
        quad = _quadratic(x, model.Q[k])
        quad += _quadratic(u, model.R[k])
        cost = np.add.reduce(quad, axis=1) / n
        cost += _quadratic(z, model.P[k])[:, 0]
        # step 0 copied, not added to zeros: the float operations of a
        # step-order sum of the per-step costs
        if k == 0:
            totals = cost.copy()
        else:
            totals += cost
        if noisy:
            z_obs = z @ model.Cz[k].T
            y = x @ model.Cx[k].T
            y += np.repeat(z_obs, n, axis=1)
            obs_noise = v[:, k] @ Lv.T
            y += obs_noise
        if record:
            steps.append((x, u, z[:, 0], np.add.reduce(u, axis=1) / n, y, xhat, cost))
        if k + 1 < T:
            drift = z @ model.D[k].T
            if noisy:
                innovation = y - xhat @ model.Cx[k].T
                innovation -= np.repeat(z_obs, n, axis=1)
                xhat = xhat @ model.A[k].T
                xhat += u @ model.B[k].T
                xhat += np.repeat(drift, n, axis=1)
                xhat += innovation @ policy.Kf[k].T
            x = x @ model.A[k].T
            x += u @ model.B[k].T
            x += np.repeat(drift, n, axis=1)
            process_noise = w[:, k] @ Lw.T
            x += process_noise

    if not np.isfinite(totals).all():
        raise NumericalFailure(
            f"closed-loop cost is not finite in runs {first_run}..{first_run + runs - 1}"
        )
    if not record:
        return totals, None
    names = ("states", "actions", "meanfield", "mean_control", "observations", "estimates",
             "step_costs")
    recorded = {
        name: None if column[0] is None else np.stack(column, axis=1)
        for name, column in zip(names, zip(*steps))
    }
    del steps  # before the noise products, out of the peak memory
    recorded.update(process_noise=w @ Lw.T, obs_noise=v @ Lv.T if noisy else None)
    _check_steps("closed-loop", f" in runs {first_run}..{first_run + runs - 1}",
                 {name: None if values is None else values.swapaxes(0, 1)
                  for name, values in recorded.items()})
    return totals, recorded


def _check_steps(what: str, where: str, fields: dict, start: int = 0) -> None:
    """Raise NumericalFailure at the first non-finite step of the step-major
    arrays (or None) in `fields`, the first at index `start`; a step at a
    time, since a mask of a whole field would raise the peak memory."""
    for name, values in fields.items():
        for k, values_k in enumerate(() if values is None else values, start):
            if not np.isfinite(values_k).all():
                raise NumericalFailure(
                    f"{what} {name} has a non-finite entry at step {k + 1}{where}")


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
    seed, run = _stream_word(seed, "seed"), _stream_word(run, "run")
    totals, recorded = _closed_loop(model, policy, seed, run, 1, record=True)
    return SimulationTrace(
        model=model,
        seed=seed,
        run=run,
        rng_scheme=RNG_SCHEME,
        model_fingerprint=model.fingerprint(),
        total_cost=float(totals[0]),
        **{name: None if arr is None else arr[0] for name, arr in recorded.items()},
    )


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


def _blocks(model: LqMeanFieldModel, policy: GainSchedule, k: int):
    """Step k on the deviation and the mean-field block: their cost weights,
    their transitions to step k + 1, and the noise that drives both.

    Under full observation the blocks are x - z and z; under noisy
    observation (x - z, xhat - zhat) and (z, zhat), zhat the mean estimate.
    """
    Kx, Kz, Q, R = policy.Kx[k], policy.Kz[k], model.Q[k], model.R[k]
    A, B, D = model.A[k], model.B[k], model.D[k]
    if model.observation_mode == "full":
        return (Q + Kx.T @ R @ Kx, Q + model.P[k] + Kz.T @ R @ Kz,
                A + B @ Kx, A + D + B @ Kz, model.Sigma_W)
    # the last step moves nothing and has no filter gain
    Kf = policy.Kf[k] if k + 1 < model.horizon else np.zeros((model.d_x, model.d_y))
    L = np.hstack([Kz - Kx, Kx])
    w_mf = L.T @ R @ L
    w_mf[:model.d_x, :model.d_x] += Q + model.P[k]
    BKx, BF, KfCx = B @ Kx, B @ (Kz - Kx), Kf @ model.Cx[k]
    estimate = A + BKx - KfCx
    return (_diag(Q, Kx.T @ R @ Kx), w_mf,
            np.block([[A, BKx], [KfCx, estimate]]),
            np.block([[A + D + BF, BKx], [BF + D + KfCx, estimate]]),
            _diag(model.Sigma_W, Kf @ model.Sigma_V @ Kf.T))


def _diag(upper: np.ndarray, lower: np.ndarray) -> np.ndarray:
    zeros = np.zeros((len(upper), len(lower)))
    return np.block([[upper, zeros], [zeros.T, lower]])


def _moments(model: LqMeanFieldModel, policy: GainSchedule):
    """Per step: the deviation block's weight and covariance, and the
    mean-field block's weight, mean and covariance (`_blocks`)."""
    n = model.n_agents
    dev_frac = 1.0 - 1.0 / n
    start, mean = model.Sigma_X, model.mu_X
    if model.observation_mode == "noisy":  # every estimate starts at mu_X
        start, mean = _diag(start, np.zeros_like(start)), np.concatenate([mean, mean])
    cov_dev, mf_mean, mf_cov = dev_frac * start, mean, start / n
    for k in range(model.horizon):
        w_dev, w_mf, closed_dev, closed_mf, noise = _blocks(model, policy, k)
        yield w_dev, cov_dev, w_mf, mf_mean, mf_cov
        if k + 1 < model.horizon:
            cov_dev = symmetrize(closed_dev @ cov_dev @ closed_dev.T + dev_frac * noise,
                                 "deviation covariance")
            mf_mean = closed_mf @ mf_mean
            mf_cov = symmetrize(closed_mf @ mf_cov @ closed_mf.T + noise / n,
                                "mean-field covariance")


@np.errstate(over="ignore", invalid="ignore")
def exact_policy_cost(model: LqMeanFieldModel, policy: GainSchedule) -> PolicyEvaluation:
    """Expected cost of a linear policy, exactly, in either observation mode.

    Propagates the per-agent deviation covariance and the mean-field mean
    and covariance through the closed loop (`_moments`). Every agent has
    the same deviation covariance, and the deviation/mean-field
    cross-covariance is identically zero by exchangeability, so blocks of
    dimension d_x (2*d_x under noisy observation, where each carries its
    part of the estimates) are exact. Splitting i.i.d. noise into per-agent
    deviation and population average gives the deviation (1 - 1/n) times
    its covariance and the mean-field 1/n times it.
    """
    policy = _check_policy(model, policy)
    dev_costs, mf_mean_costs, mf_noise_costs = np.zeros((3, model.horizon))
    for k, (w_dev, cov_dev, w_mf, mf_mean, mf_cov) in enumerate(_moments(model, policy)):
        dev_costs[k] = float(np.trace(w_dev @ cov_dev))
        mf_mean_costs[k] = float(mf_mean @ w_mf @ mf_mean)
        mf_noise_costs[k] = float(np.trace(w_mf @ mf_cov))

    mf_costs = mf_mean_costs + mf_noise_costs
    step_costs = dev_costs + mf_costs
    total = float(np.add.reduce(step_costs))
    if not np.isfinite(total):
        raise NumericalFailure(f"exact expected cost is not finite: {total}")
    return PolicyEvaluation(total, step_costs, dev_costs, mf_costs, mf_mean_costs,
                            mf_noise_costs)


# ---------------------------------------------------------------------------
# Monte Carlo evaluation

@dataclass(frozen=True)
class MonteCarloCost:
    mean: float
    stderr: float
    runs: int


def _mc_plan(model: LqMeanFieldModel, runs: int, workers: int | None) -> tuple[int, int]:
    """(processes, chunk) of a Monte Carlo job: how many chunks are stepped
    at a time, and the runs in each (the last may hold fewer).

    `workers` defaults to the usable CPUs. The chunks in flight share
    `_MC_CHUNK_BYTES`: each worker gets an equal share, there are no more
    workers than shares that hold a whole run, and a chunk holds one run
    even when that run alone is larger. There are no more processes than
    chunks.
    """
    if workers is None:
        workers = _usable_cpus()
    _, Lw, Lv = _noise_factors(model)
    T = model.horizon
    # a run's rank-sized noise and the kernel's working arrays, per agent
    agent_floats = _MC_WORK_FLOATS * model.d_x + (T - 1) * Lw.shape[1]
    if Lv is not None:
        agent_floats += T * Lv.shape[1]
    run_bytes = 8 * model.n_agents * agent_floats
    workers = max(1, min(workers, _MC_CHUNK_BYTES // run_bytes))
    chunk = max(1, _MC_CHUNK_BYTES // workers // run_bytes)
    return min(workers, -(-runs // chunk)), chunk


# the (model, policy, seed) of the Monte Carlo job a forked worker process
# steps chunks of; set when it starts. Inherited at the fork, not pickled
# with each chunk, which took up to 28% of a chunk's time
_worker_job = None


def _start_worker(*job) -> None:
    global _worker_job
    _worker_job = job


def _can_fork() -> bool:
    """Whether Monte Carlo workers may be forked from this process: the
    platform has `fork`, and this process runs one thread, since a lock
    that another thread holds at the fork would stay held in the child."""
    import multiprocessing

    return threading.active_count() == 1 and "fork" in multiprocessing.get_all_start_methods()


def _worker_costs(start: int, count: int) -> np.ndarray:
    """Realized costs of runs start..start+count-1 of the worker's job."""
    model, policy, seed = _worker_job
    return _closed_loop(model, policy, seed, start, count)[0]


def monte_carlo_cost(
    model: LqMeanFieldModel, policy: GainSchedule, runs: int, seed: int,
    workers: int | None = None,
) -> MonteCarloCost:
    """Sample mean and standard error of the realized cost over `runs`
    independent closed-loop runs (run indices 0..runs-1, so run r is
    simulate(model, policy, seed, run=r) exactly).

    Chunks of runs are stepped in `workers` processes forked from this one,
    by default one per CPU the process may run on (`_usable_cpus`), never
    more than the byte budget holds whole runs and never more than there
    are chunks. Each worker inherits the job when it is forked, and only
    each chunk's costs travel back. With one worker or one chunk, where the
    platform cannot fork, or when this process runs more than one thread,
    the chunks are stepped in this process. A chunk's size follows from the
    model and the worker count (the chunks in flight share the budget), but
    each run's arithmetic does not depend on its chunk, so neither does any
    reported digit. Raises `NumericalFailure`, with its run range, when a
    run's cost is not finite, whichever process stepped the run.
    """
    policy = _check_policy(model, policy)
    runs = _whole(runs, "runs")
    if runs < 2:
        raise ValidationError(f"monte_carlo_cost needs at least 2 runs, got {runs}")
    seed = _stream_word(seed, "seed")
    if workers is not None:
        workers = _count(workers, "workers")

    processes, chunk = _mc_plan(model, runs, workers)
    starts = range(0, runs, chunk)
    counts = [min(chunk, runs - start) for start in starts]
    costs = np.empty(runs)
    if processes > 1 and _can_fork():
        # imported here, not at module level: the pool's modules cost an
        # import that only this branch needs
        import multiprocessing
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(processes, mp_context=multiprocessing.get_context("fork"),
                                 initializer=_start_worker,
                                 initargs=(model, policy, seed)) as pool:
            for start, part in zip(starts, pool.map(_worker_costs, starts, counts)):
                costs[start:start + part.size] = part
    else:
        for start, count in zip(starts, counts):
            costs[start:start + count] = _closed_loop(model, policy, seed, start, count)[0]

    # the moments are taken of the costs divided by a power of two near
    # their largest: the scaling is exact, so every digit that did not
    # overflow stays, and neither the sum nor the squared deviations of
    # finite costs overflow
    exp = int(np.frexp(np.max(np.abs(costs)))[1])
    costs = np.ldexp(costs, -exp)
    mean = np.add.reduce(costs) / runs
    var = np.add.reduce((costs - mean) ** 2) / (runs - 1)
    return MonteCarloCost(mean=float(np.ldexp(mean, exp)),
                          stderr=float(np.ldexp(np.sqrt(var / runs), exp)), runs=runs)


# ---------------------------------------------------------------------------
# export

def _labels(columns: dict) -> list[str]:
    return [f"{prefix}_{j}" for prefix, values in columns.items() for j in range(values.shape[-1])]


def _csv_writer(header: list[str], index_columns: int, rows, steps: int):
    """A function of a path that writes the header, then each step's float
    rows `rows(k)` as a default `csv.writer` writes `str(int(v))` (first
    `index_columns` columns) and `format(v, ".17g")` (the rest). A first
    pass finds the columns that hold step 1's bits (-0.0 and 0.0 print
    differently) at every step; they are formatted once, into a template
    of one step's rows that each step fills in one format call."""
    first = rows(0).copy()
    fixed = np.ones(first.shape[1], bool)
    for k in range(1, steps):
        fixed &= (rows(k).view(np.uint64) == first.view(np.uint64)).all(axis=0)
    formats = ["%d"] * index_columns + ["%.17g"] * (len(header) - index_columns)
    template = "".join(",".join(fmt % value if keep else fmt
                                for fmt, keep, value in zip(formats, fixed, row)) + "\r\n"
                       for row in first.tolist())

    def write(path: Path) -> Path:
        with open(path, "w", newline="", encoding="utf-8") as fh:
            fh.write(",".join(header) + "\r\n")
            for k in range(steps):
                fh.write(template % tuple(rows(k)[:, ~fixed].ravel().tolist()))
        return path

    return write


@np.errstate(over="ignore")
def export_trace_csv(trace: SimulationTrace, out_dir) -> tuple[Path, Path]:
    """Write the per-agent and mean-field CSV files; returns their paths.

    State and mean-field columns are shifted by the model's reporting
    offset; actions and observations are written as recorded. A shifted
    value that overflows raises `NumericalFailure` before any file is made.
    Each step's agent rows are formed in one reused buffer.
    """
    model = trace.model
    T, n, d = model.horizon, model.n_agents, model.d_x
    columns = {"x": trace.states, "u": trace.actions}
    if trace.observations is not None:
        columns["y"] = trace.observations
    buffer = np.empty((n, 2 + sum(v.shape[-1] for v in columns.values())))
    buffer[:, 1] = np.arange(n)
    where = " (the reporting offset overflows it)"

    def agent_rows(k: int) -> np.ndarray:
        buffer[:, 0] = k + 1
        np.concatenate([v[k] for v in columns.values()], axis=1, out=buffer[:, 2:])
        buffer[:, 2:2 + d] += model.state_offset
        _check_steps("exported", where, {"states": [buffer[:, 2:2 + d]]}, k)
        return buffer

    write_agents = _csv_writer(["t", "agent", *_labels(columns)], 2, agent_rows, T)
    mf_columns = {"z": trace.meanfield, "uz": trace.mean_control}
    meanfield = np.column_stack([np.arange(1.0, T + 1), *mf_columns.values(), trace.step_costs])
    meanfield[:, 1:1 + d] += model.state_offset
    _check_steps("exported", where, {"meanfield": meanfield[:, 1:1 + d]})
    write_meanfield = _csv_writer(["t", *_labels(mf_columns), "step_cost"], 1,
                                  meanfield[:, np.newaxis].__getitem__, T)

    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    return (write_agents(out_dir / "trace_agents.csv"),
            write_meanfield(out_dir / "trace_meanfield.csv"))


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


__all__ = [
    "RNG_SCHEME",
    "LinearStrategy",
    "MonteCarloCost",
    "PolicyEvaluation",
    "SimulationTrace",
    "exact_policy_cost",
    "export_trace_csv",
    "monte_carlo_cost",
    "optimal_strategy",
    "simulate",
    "trace_summary",
]
