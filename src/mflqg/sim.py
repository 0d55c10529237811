"""Closed-loop population simulation and policy cost evaluation.

One kernel steps a block of runs, each value held as component planes of
shape (d, runs, n), with noise drawn as `mflqg.noise` declares it:
`simulate` is its batch of one with every step recorded, and
`monte_carlo_cost` runs it per chunk for the costs only, so Monte Carlo
run r equals simulate(run=r) bit for bit. Its arithmetic is declared: a
product M v is, per component i, the left-to-right sum of the rounded
products M[i, j] * v[j], in numpy elementwise operations, which never
fuse; an agent mean is np.add.reduce along the contiguous agent axis
divided by n. No digit depends on BLAS, the batch size or the chunking.
`exact_policy_cost` propagates two blocks, the per-agent deviation from
the mean-field and the mean-field, each of size d_x plus, if noisy, d_x of
estimation error, whatever the population. A closed loop whose cost
overflows, or a simulation that records or exports a non-finite value,
raises `NumericalFailure`. `monte_carlo_cost` and `export_trace_csv` split
large work into contiguous ranges, each done by a forked child while the
caller waits (`mflqg._ranges`), with the digits and bytes of one process;
each file is renamed into place once whole.
"""
from __future__ import annotations

import math
import os
import shutil
import threading
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .control import GainSchedule, _check_policy
from .errors import NumericalFailure, ValidationError
from .linalg import _matvec, _quadratic, symmetrize
from .model import LqMeanFieldModel, _count, _renamed_into_place, _whole
from .noise import RNG_SCHEME, _draw_noise, _noise_factors, _stream_word
from .riccati import solve_control_riccati, solve_filter_riccati

# a Monte Carlo chunk holds, unless one run alone is larger, at most its
# worker's share of _MC_CHUNK_BYTES: the chunks in flight together hold at
# most that many bytes of pre-drawn noise, working arrays and ufunc buffers
_MC_CHUNK_BYTES = 16 * 2**20


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


# ---------------------------------------------------------------------------
# closed loop

def _chunk_shapes(model: LqMeanFieldModel, runs: int) -> list:
    """The shape of every array `_closed_loop` holds for `runs` runs, each
    with a run axis, in the order it unpacks them (false where none): the
    noise normals run-major, as `_draw_noise` fills them, then the planes."""
    T, n, d_x, d_u, d_y = model.horizon, model.n_agents, model.d_x, model.d_u, model.d_y
    _, Lw, Lv = _noise_factors(model)
    noisy = Lv is not None
    wide = max(d_x, d_u, d_y if noisy else 0)
    planes = (d_x, d_x, noisy and d_x, noisy and d_x, d_u, noisy and d_y, wide, wide)
    return ([(runs, T - 1, n, Lw.shape[1]), noisy and (runs, T, n, Lv.shape[1])]
            + [d and (d, runs, n) for d in planes] + [(runs, n), (d_x, runs, 1)]
            + [(wide, runs, 1)] * 3 + [(runs, 1)] * 3)


def _empty(shape) -> np.ndarray:
    """np.empty; a size whose byte count numpy cannot count is a MemoryError."""
    try:
        return np.empty(shape)
    except ValueError as exc:
        raise MemoryError(str(exc)) from None


@np.errstate(over="ignore", invalid="ignore")
def _closed_loop(
    model: LqMeanFieldModel, policy: GainSchedule, seed: int, first_run: int, runs: int,
    record: bool = False,
):
    """Step runs first_run..first_run+runs-1 through the closed loop together.

    Returns each run's total cost, summed in step order, and, when `record`
    is set, a dict keyed by `SimulationTrace` field of arrays with a leading
    run axis, written as the loop steps. The state moves to A x + (B u +
    D z) + w, the estimate to A xhat + (B u + D z) + Kf e, where the
    innovation e is Cx (x - xhat) + v. When `record` is set, raises
    `NumericalFailure` when a total, or a recorded value, is not finite.
    """
    T, n, d_x, d_u, d_y = model.horizon, model.n_agents, model.d_x, model.d_u, model.d_y
    noisy = model.observation_mode == "noisy"
    Fx, Fz = policy.Kx, policy.Kz - policy.Kx
    Lx, Lw, Lv = _noise_factors(model)
    (w, v, x, x_next, xhat, xhat_next, u, innovation, h, tmp, q, z, zf, h_z, tmp_z, cost, zq,
     totals) = (_empty(shape) if shape else None for shape in _chunk_shapes(model, runs))
    w, v = _draw_noise(model, seed, first_run, Lx, x, w, v, x_next, h)
    if noisy:
        xhat[...] = model.mu_X[:, None, None]
    if record:
        shapes = {"states": (T, n, d_x), "actions": (T, n, d_u), "meanfield": (T, d_x),
                  "mean_control": (T, d_u), "observations": (T, n, d_y),
                  "estimates": (T, n, d_x), "step_costs": (T,)}
        out = {name: _empty((runs, *shape))
               if noisy or name not in ("observations", "estimates") else None
               for name, shape in shapes.items()}
        # the per-agent fields as component planes, (d, runs, T, n)
        planes = {name: np.moveaxis(values, -1, 0) for name, values in out.items()
                  if values is not None and values.ndim == 4}
    for k in range(T):
        np.add.reduce(x, axis=-1, keepdims=True, out=z)
        z /= n
        _matvec(u, Fx[k], xhat if noisy else x, tmp)
        _matvec(zf[:d_u], Fz[k], z, tmp_z)
        u += zf[:d_u]
        _quadratic(q, model.Q[k], x, h, tmp)
        _quadratic(q, model.R[k], u, h, tmp, add=True)
        np.add.reduce(q, axis=-1, keepdims=True, out=cost)
        cost /= n
        _quadratic(zq, model.P[k], z, h_z, tmp_z)
        cost += zq
        # step 0 copied, not added to zeros: a step-order sum of the costs
        if k:
            totals += cost
        else:
            totals[...] = cost
        if noisy:  # the mapped observation noise, in h
            _matvec(h[:d_y], Lv, v[:, :, k], tmp)
        if record:
            for name, value in (("states", x), ("actions", u), ("estimates", xhat)):
                if value is not None:
                    planes[name][:, :, k] = value
            out["meanfield"][:, k] = z[..., 0].T
            mean_u = out["mean_control"][:, k].T
            np.add.reduce(u, axis=-1, out=mean_u)
            mean_u /= n
            out["step_costs"][:, k] = cost[:, 0]
            if noisy:
                y = planes["observations"][:, :, k]
                _matvec(y, model.Cx[k], x, tmp)
                _matvec(zf[:d_y], model.Cz[k], z, tmp_z)
                y += zf[:d_y]
                y += h[:d_y]
        if k + 1 == T:
            break
        if noisy:
            np.subtract(x, xhat, out=x_next)
            _matvec(innovation, model.Cx[k], x_next, tmp)
            innovation += h[:d_y]
        # the drive B u + D z that the state and the estimate share, in h
        drive = h[:d_x]
        _matvec(drive, model.B[k], u, tmp)
        _matvec(zf[:d_x], model.D[k], z, tmp_z)
        drive += zf[:d_x]
        if noisy:
            _matvec(xhat_next, model.A[k], xhat, tmp)
            xhat_next += drive
            _matvec(xhat_next, policy.Kf[k], innovation, tmp, add=True)
            xhat, xhat_next = xhat_next, xhat
        _matvec(x_next, model.A[k], x, tmp)
        x_next += drive
        _matvec(h[:d_x], Lw, w[:, :, k], tmp)
        x_next += h[:d_x]
        x, x_next = x_next, x

    totals = totals[:, 0]
    if not record:
        return totals, None
    where = f" in runs {first_run}..{first_run + runs - 1}"
    if not np.isfinite(totals).all():
        raise NumericalFailure(f"closed-loop cost is not finite{where}")
    _check_steps("closed-loop", where, {name: None if values is None else values.swapaxes(0, 1)
                                        for name, values in out.items()})
    return totals, out


def _check_steps(what: str, where: str, fields: dict, start: int = 0) -> None:
    """Raise NumericalFailure at the first non-finite step of the step-major
    arrays (or None) in `fields`, the first at index `start`; a step at a
    time, since a mask of a whole field would raise the peak memory."""
    for name, values in fields.items():
        for k, values_k in enumerate(() if values is None else values, start):
            if not np.isfinite(values_k).all():
                raise NumericalFailure(
                    f"{what} {name} has a non-finite entry at step {k + 1}{where}")


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


def simulate(model: LqMeanFieldModel, policy: GainSchedule, seed: int, run: int = 0) -> SimulationTrace:
    """Run the n-subsystem closed loop once and record everything.

    Under noisy observation each subsystem runs its own estimator with the
    policy's filter gains. Bit-reproducible for fixed (model, policy, seed,
    run), and identical to run `run` of `monte_carlo_cost` at that seed.
    """
    policy = _check_policy(model, policy)
    seed, run = _stream_word(seed, "seed"), _stream_word(run, "run")
    # before the loop, so that its transient JSON and the trace never coexist
    fingerprint = model.fingerprint()
    totals, recorded = _closed_loop(model, policy, seed, run, 1, record=True)
    return SimulationTrace(
        model=model,
        seed=seed,
        run=run,
        rng_scheme=RNG_SCHEME,
        model_fingerprint=fingerprint,
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


def _block(model: LqMeanFieldModel, policy: GainSchedule, A, K, Q, share, mean, name: str):
    """Per step: one block's cost weight, mean and covariance. Its state
    part s moves under (A_t, B_t) with cost weight Q_t; under noisy
    observation it carries its part of the error e = x - xhat (size 0
    otherwise), which starts as the state less mu_X, where every estimate
    starts, and moves to (A_t - Kf_t Cx_t) e + w - Kf_t v. Every control is
    u = K_t s - Kx_t e. `share` scales a per-agent covariance to the block's."""
    d = model.d_x
    parts = 2 if model.observation_mode == "noisy" else 1  # state, then error
    cov = share(np.tile(model.Sigma_X, (parts, parts)))
    mean = np.concatenate([mean, np.zeros((parts - 1) * d)])
    for k in range(model.horizon):
        gain = np.hstack([K[k], -policy.Kx[k]][:parts])
        weight = gain.T @ model.R[k] @ gain
        weight[:d, :d] += Q[k]
        yield weight, mean, cov
        if k + 1 == model.horizon:
            return
        closed = np.zeros_like(weight)
        closed[:d, :d] = A[k]
        closed[:d] += model.B[k] @ gain
        noise = np.tile(model.Sigma_W, (parts, parts))
        if parts > 1:  # the error part
            Kf = policy.Kf[k]
            closed[d:, d:] = model.A[k] - Kf @ model.Cx[k]
            noise[d:, d:] += Kf @ model.Sigma_V @ Kf.T
        cov = symmetrize(closed @ cov @ closed.T + share(noise), name)
        mean = closed @ mean


def _moments(model: LqMeanFieldModel, policy: GainSchedule):
    """Per step, `_block`'s output for the deviation x - z, under (A, Kx, Q)
    with 1 - 1/n of each per-agent covariance and mean 0, and for the
    mean-field z, under (A + D, Kz, Q + P) with 1/n of it and mean mu_X."""
    n = model.n_agents
    dev_frac = 1.0 - 1.0 / n
    return zip(_block(model, policy, model.A, policy.Kx, model.Q, lambda m: dev_frac * m,
                      np.zeros(model.d_x), "deviation covariance"),
               _block(model, policy, model.A + model.D, policy.Kz, model.Q + model.P,
                      lambda m: m / n, model.mu_X, "mean-field covariance"))


@np.errstate(over="ignore", invalid="ignore")
def exact_policy_cost(model: LqMeanFieldModel, policy: GainSchedule) -> PolicyEvaluation:
    """Expected cost of a linear policy, exactly, in either observation mode.

    Propagates the per-agent deviation covariance and the mean-field mean
    and covariance through the closed loop (`_moments`). Every agent has
    the same deviation covariance, and the deviation/mean-field
    cross-covariance is identically zero by exchangeability, so blocks of
    a state part of size d_x and an estimation-error part (of size d_x
    under noisy observation, 0 under full) are exact. Splitting i.i.d.
    noise into per-agent deviation and population average gives the
    deviation (1 - 1/n) times its covariance and the mean-field 1/n times it.
    """
    policy = _check_policy(model, policy)
    dev_costs, mf_mean_costs, mf_noise_costs = np.zeros((3, model.horizon))
    for k, ((w_dev, _, cov_dev), (w_mf, mf_mean, mf_cov)) in enumerate(_moments(model, policy)):
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
    `_MC_CHUNK_BYTES` equally, with no more workers than shares that hold a
    run (the arrays of `_chunk_shapes` at one run), nor than chunks; a chunk
    holds one run even if that alone is larger.
    """
    if workers is None:
        workers = _usable_cpus()
    run_bytes = 8 * sum(math.prod(shape) for shape in _chunk_shapes(model, 1) if shape)
    # once per process: numpy's ufunc buffers, np.getbufsize() elements for
    # each of an operation's three operands at most
    fixed = 24 * np.getbufsize()
    workers = max(1, min(workers, _MC_CHUNK_BYTES // (fixed + run_bytes)))
    chunk = max(1, (_MC_CHUNK_BYTES // workers - fixed) // run_bytes)
    return min(workers, -(-runs // chunk)), chunk


def _can_fork() -> bool:
    """Whether children may be forked from this process: the platform has
    `fork`, and this process runs one thread, since a lock that another
    thread holds at the fork would stay held in the child."""
    return threading.active_count() == 1 and hasattr(os, "fork")


def monte_carlo_cost(
    model: LqMeanFieldModel, policy: GainSchedule, runs: int, seed: int,
    workers: int | None = None,
) -> MonteCarloCost:
    """Sample mean and standard error of the realized cost over `runs`
    independent closed-loop runs (run indices 0..runs-1, so run r is
    simulate(model, policy, seed, run=r) exactly).

    Chunks of runs (`_mc_plan`) are stepped in `workers` children forked
    from this process (by default one per usable CPU), each a contiguous
    range of whole chunks, while this process waits; a child inherits the
    job, noise factors included, and writes only its costs, to an unnamed
    temporary file. With one worker or one chunk, where the platform cannot
    fork, or when this process runs more than one thread, the chunks are
    stepped in this process. No reported digit depends on the chunking.
    Raises `NumericalFailure`, with its chunk's runs, when a run's cost is
    not finite, whichever process stepped the run, and OSError, with a
    child's runs, when a child does not exit with status 0.
    """
    policy = _check_policy(model, policy)
    runs = _whole(runs, "runs")
    if runs < 2:
        raise ValidationError(f"monte_carlo_cost needs at least 2 runs, got {runs}")
    seed = _stream_word(seed, "seed")
    if workers is not None:
        workers = _count(workers, "workers")

    # allocated first: a run count that cannot be held fails before any work
    costs = _empty(runs)
    processes, chunk = _mc_plan(model, runs, workers)

    def fill(start: int, stop: int) -> np.ndarray:
        """Step runs start..stop-1 into their costs, a chunk at a time."""
        for first in range(start, stop, chunk):
            costs[first:min(first + chunk, stop)] = _closed_loop(
                model, policy, seed, first, min(chunk, stop - first))[0]
        return costs[start:stop]

    if processes > 1 and _can_fork():
        from ._ranges import forked_ranges, split

        ranges = split(runs, processes, chunk)
        with forked_ranges(ranges, lambda out, start, stop: out.write(fill(start, stop)), None,
                           "the process stepping runs", 0) as parts:
            for (start, stop), part in zip(ranges, parts):
                part.readinto(costs[start:stop])
    else:
        fill(0, runs)
    for start in range(0, runs, chunk):
        if not np.isfinite(costs[start:start + chunk]).all():
            raise NumericalFailure(f"closed-loop cost is not finite in runs "
                                   f"{start}..{min(start + chunk, runs) - 1}")

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


# a file with this many fields left to fill, about 30 ms of formatting, is
# filled in forked step ranges: a fork, a wait and a copy cost 3-5 ms
_FORK_FIELDS = 2**16


def _csv_writer(header: list[str], index_columns: int, rows, steps: int):
    """A function of a path that writes the header, then each step's float
    rows `rows(k)` as a default `csv.writer` writes `str(int(v))` (first
    `index_columns` columns) and `format(v, ".17g")` (the rest). A first
    pass finds the columns that hold step 1's bits (-0.0 and 0.0 print
    differently) at every step; they are formatted once, into a template
    of one step's rows that each step fills in one format call. With at
    least _FORK_FIELDS fields left to fill, and children that may be
    forked, the steps are filled in one contiguous range per usable CPU,
    each by a forked child, and appended in range order. The file is
    renamed into place once whole; a failed write leaves none."""
    first = rows(0).copy()
    fixed = np.ones(first.shape[1], bool)
    for k in range(1, steps):
        fixed &= (rows(k).view(np.uint64) == first.view(np.uint64)).all(axis=0)
    formats = ["%d"] * index_columns + ["%.17g"] * (len(header) - index_columns)
    template = "".join(",".join(fmt % value if keep else fmt
                                for fmt, keep, value in zip(formats, fixed, row)) + "\r\n"
                       for row in first.tolist())
    free = ~fixed
    fields = steps * len(first) * int(np.count_nonzero(free))

    def fill(fh, start: int, stop: int) -> None:
        for k in range(start, stop):
            fh.write((template % tuple(rows(k)[:, free].ravel().tolist())).encode())

    def write(path: Path) -> Path:
        with _renamed_into_place(path) as part, open(part, "wb") as fh:
            fh.write((",".join(header) + "\r\n").encode())
            processes = _usable_cpus() if fields >= _FORK_FIELDS else 1
            if processes > 1 and _can_fork():
                from ._ranges import forked_ranges, split

                with forked_ranges(split(steps, processes), fill, path.parent,
                                   f"{path}: the process writing steps", 1) as parts:
                    for range_file in parts:
                        shutil.copyfileobj(range_file, fh)
            else:
                fill(fh, 0, steps)
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
