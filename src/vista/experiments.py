"""Multi-run orchestration: grid sweeps, scaling fits, oracle checks, calibration.

Replica seeds are derived from each point's seed with the replica-stream
label, so a sweep is reproducible as a whole while every run keeps an
independent sampler stream.  Every sweep is a list of points run by one core
(``_sweep``): ``run_grid`` builds the cross product of its axes, and
``scaling_experiment`` (one point per n) and ``calibrate_experiment`` (one
point per grid and midpoint decay rate) each make one sweep.  The core runs
each point's replicas as lockstep batches (``protocols.run_batch``): it cuts
a point's replicas into workers / gcd(workers, points) contiguous slices, at
most one per replica, so that the slice count is a multiple of the worker
count, and hands the slices to a worker pool, where each worker runs its
slice as one batch and persists its runs.  The pool is capped by
``workers`` (default: the CPUs this process may run on); a cap of 1, or a
single slice, runs in-process.  A replica's files do not depend on the
slice it ran in, so they do not depend on the worker count.  A batch's
``optimizer.budget_s`` limits the batch's time, not each replica's.

The process keeps one pool for its life, so a library caller or benchmark
that makes a sequence of sweeps forks its workers once; each CLI command
makes one pooled call.  The pool is built at the first pooled call with as
many workers as that call's cap.  Later calls with the same cap reuse it; a
call with another cap, or one made after a worker died (``BrokenProcessPool``),
first joins the old pool and then builds a new one.  ``concurrent.futures``
joins the pool at interpreter exit.  A pooled call returns or raises only
after every slice it submitted has finished, also when it is interrupted.
The workers are forked when the pool is built, so they see the modules as
they were then.  Only the process that imported this module keeps a pool,
and only if ``multiprocessing`` did not start it: a forked or multiprocessing
child may stop without the exit hook that joins a kept pool, so it builds
and joins one pool per pooled call.
"""

import itertools
import math
import multiprocessing
import os
import threading
from concurrent.futures import ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool

import numpy as np

from . import config as cfgmod
from . import protocols
from .analysis import fit_scaling, gamma_calibration
from .dynamics import ChannelSpec, HamiltonianSpec, closed_form_density, lindblad_rk4_oracle, qubit_channel
from .errors import CalibrationError, ConfigError
from .qcore import ghz_density
from .results import persist, write_summary
from .rng import STREAM_REPLICA, derive_seed


def replica_seeds(master_seed, count):
    return [derive_seed(master_seed, STREAM_REPLICA, r) for r in range(count)]


def _run_slice(cfgs):
    """Summary rows of one slice of a grid point's replicas, run as one batch; persists each run."""
    outs = []
    for res in protocols.run_batch(cfgs):
        if res.config.get("output"):
            persist(res, res.config["output"])
        outs.append({"status": res.status, "seed": res.seed, **res.final})
    return outs


def _split(items, parts):
    """``items`` cut into ``parts`` contiguous slices whose sizes differ by at most one."""
    size, extra = divmod(len(items), parts)
    bounds = [k * size + min(k, extra) for k in range(parts + 1)]
    return [items[a:b] for a, b in zip(bounds, bounds[1:])]


def _usable_cpus():
    """CPUs this process may run on (all of them where the platform cannot say)."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


_IMPORTED_IN = os.getpid()
_pool = None  # the kept pool of _pool_cap workers (see the module docstring)
_pool_cap = 0
_pool_lock = threading.Lock()  # one pooled call at a time may use or replace the kept pool


def _keeps_pool():
    """False in a forked or multiprocessing child: it may stop without the exit hook that joins a kept pool."""
    return os.getpid() == _IMPORTED_IN and multiprocessing.parent_process() is None


def _drop_pool():
    """Join the kept pool's workers and forget it."""
    global _pool
    if _pool is not None:
        _pool.shutdown()
        _pool = None


def _submit_all(tasks, cap):
    """Futures of ``_run_slice`` on each task, from the kept pool, built or resized here to ``cap`` workers."""
    global _pool, _pool_cap
    if _pool is not None and _pool_cap != cap:
        _drop_pool()
    if _pool is None:
        _pool, _pool_cap = ProcessPoolExecutor(max_workers=cap), cap
    return [_pool.submit(_run_slice, task) for task in tasks]


def _run_pooled(tasks, cap):
    """``_run_slice`` of each task on ``cap`` workers, in order, once every slice has finished."""
    if not _keeps_pool():
        with ProcessPoolExecutor(max_workers=min(cap, len(tasks))) as pool:
            return list(pool.map(_run_slice, tasks))
    with _pool_lock:
        try:
            futures = _submit_all(tasks, cap)
        except BrokenProcessPool:  # a worker died since the last call
            _drop_pool()
            futures = _submit_all(tasks, cap)
        try:
            wait(futures)
        except BaseException:  # interrupted: drop the slices not started and wait for the rest
            for future in futures:
                future.cancel()
            wait(futures)
            raise
        try:
            return [future.result() for future in futures]
        except BrokenProcessPool:
            _drop_pool()
            raise


def _sweep(names, points, replicas, outdir=None, workers=None):
    """Run each point's replicas as one sweep; returns (rows, per-run outputs).

    ``points`` lists (values, doc) pairs: ``values`` are the point's
    coordinates under ``names``, which label its row and its run directory,
    and ``doc`` is its config document.  The point's replicas run under
    ``replica_seeds(doc["seed"], replicas)``.  Rows carry the coordinates
    plus mean/std of the per-run absolute errors.
    """
    if replicas < 1:
        raise ConfigError(f"replicas must be >= 1, got {replicas}")
    batches = []
    for values, doc in points:
        tag = "_".join(f"{k}={v}" for k, v in zip(names, values)) or "point"
        batch = []
        for r, seed in enumerate(replica_seeds(cfgmod._integer(doc["seed"], "seed"), replicas)):
            # from_dict reads its document without changing it, so the replicas share the blocks
            output = None if outdir is None else os.path.join(outdir, tag, f"seed_{r}")
            batch.append(cfgmod.from_dict({**doc, "seed": seed, "output": output}))  # fail fast on a bad point
        batches.append(batch)

    cap = max(1, _usable_cpus() if workers is None else workers)
    # cap / gcd slices per point make the task count a multiple of cap, so every worker gets as many
    parts = min(replicas, cap // math.gcd(cap, len(points)))
    tasks = [part for batch in batches for part in _split(batch, parts)]
    if cap == 1 or len(tasks) <= 1:
        results = [_run_slice(task) for task in tasks]
    else:
        results = _run_pooled(tasks, cap)
    outs = [out for part in results for out in part]

    rows = []
    for i, (values, _) in enumerate(points):
        chunk = outs[i * replicas : (i + 1) * replicas]
        row = dict(zip(names, values))
        row["n_runs"] = len(chunk)
        for err_key in ("abs_error_theta", "abs_error_gamma", "abs_error_theta2"):
            vals = [c[err_key] for c in chunk if c.get(err_key) is not None]
            if vals:
                row[f"mean_{err_key}"] = float(np.mean(vals))
                row[f"std_{err_key}"] = float(np.std(vals))
        rows.append(row)

    if outdir is not None:
        fieldnames = list(rows[0]) if rows else list(names)
        for row in rows[1:]:
            fieldnames += [k for k in row if k not in fieldnames]
        write_summary(os.path.join(outdir, "summary.csv"), fieldnames, rows)
    return rows, outs


def run_grid(base_cfg, axes, replicas, outdir=None, workers=None):
    """Cross-product sweep; returns (rows, per-run outputs).

    ``axes`` maps top-level config keys to value lists.  Each grid point runs
    ``replicas`` times under seeds derived from its own seed (the master
    seed, unless ``seed`` is an axis).  Rows carry the grid coordinates plus
    mean/std of the per-run absolute errors.
    """
    names = list(axes)
    base_doc = cfgmod.effective_dict(base_cfg)
    points = [(values, {**base_doc, **dict(zip(names, values))}) for values in itertools.product(*axes.values())]
    return _sweep(names, points, replicas, outdir, workers)


_LR_SCALE = 0.15  # scaling_experiment's lr0 times n


def scaling_experiment(ns, gamma, theta, nu, replicas=10, seed=0, workers=None, max_epochs=400):
    """Mean absolute error vs qubit number, with a power-law fit.

    Pure ansatz against the (possibly dephased) probe at a constant shot
    budget.  Initial guesses are drawn within a quarter-window of the true
    value so every replica starts inside the convergence basin; the fitted
    exponent then reflects estimator precision, not basin roulette.  The
    learning rate is scaled with the loss period (lr0 = 0.15 / n):
    a fixed step size leaves every n at the same ADAM noise floor, which
    flattens the error curve regardless of how precise large probes could be.
    All sizes run as one sweep, one row per n.
    """
    if len(set(ns)) < 4:
        raise ConfigError(f"a scaling fit needs at least 4 distinct sizes, got {list(ns)}")
    points = []
    for n in map(int, ns):
        doc = {
            "mode": cfgmod.MODE_PURE,
            "n": n,
            "theta_true": float(theta),
            "seed": int(seed),
            "channel": "dephasing" if gamma > 0 else "none",
            "gamma_true": float(gamma),
            "shots": {"nu_start": int(nu), "nu_end": int(nu), "profile": "constant"},
            "init": {"center": float(theta), "halfwidth": math.pi / (4 * n)},
            "optimizer": {"max_epochs": int(max_epochs), "lr0": _LR_SCALE / n},
        }
        points.append(((n,), doc))
    rows, _ = _sweep(["n"], points, replicas, workers=workers)
    fit = fit_scaling([r["n"] for r in rows], [r["mean_abs_error_theta"] for r in rows])
    return rows, fit


def oracle_check(n, theta, gamma, channel, steps=400, t=1.0):
    """Max-abs deviation between the closed-form state and the RK4 integrator."""
    ham = HamiltonianSpec(theta_z=theta, t=t)
    spec = ChannelSpec(channel, gamma)
    closed = closed_form_density(n, theta * t, qubit_channel(channel, gamma * t))
    dense = lindblad_rk4_oracle(ghz_density(n), ham, spec, steps=steps)
    return float(np.max(np.abs(closed - dense)))


def calibrate_experiment(n, gammas, theta, replicas=5, seed=0, channel="dephasing", workers=None, overrides=None):
    """Decay-estimate calibration: sweep, invert, score on held-out points.

    Fits the monotone map from estimated to true decay over ``gammas``
    (median estimate per grid point; the median discards replicas that
    wandered to a loss revival), then evaluates raw vs calibrated absolute
    error on the grid midpoints.  The grid and the midpoints run as one sweep.
    """
    if channel not in cfgmod.DECAY_MODES:
        raise ConfigError(f"no mode learns the decay of channel {channel!r}")
    grid = [float(g) for g in gammas]
    if len(set(grid)) < 2:
        raise ConfigError(f"a calibration needs at least 2 distinct decay rates, got {grid}")
    holdout = [0.5 * (a + b) for a, b in zip(grid, grid[1:])]
    doc = {
        "mode": cfgmod.DECAY_MODES[channel],
        "n": int(n),
        "theta_true": float(theta),
        "seed": int(seed),
        "channel": channel,
        "gamma_true": grid[0],
        **(overrides or {}),
    }
    rates = grid + holdout
    _, outs = run_grid(cfgmod.from_dict(doc), {"gamma_true": rates}, replicas, workers=workers)
    hats = []
    for i, gamma in enumerate(rates):
        point = [o["gamma_hat"] for o in outs[i * replicas : (i + 1) * replicas] if o.get("gamma_hat") is not None]
        if not point:
            raise CalibrationError(f"all replicas at gamma={gamma} produced flagged estimates")
        hats.append(point)

    hat_centers = [float(np.median(h)) for h in hats[: len(grid)]]
    curve = gamma_calibration(grid, hat_centers)
    eval_rows = []
    for g, h in zip(holdout, hats[len(grid) :]):
        raw = float(np.mean([abs(x - g) for x in h]))
        cal = float(np.mean([abs(float(curve(x)) - g) for x in h]))
        eval_rows.append({"gamma_true": g, "raw_mae": raw, "calibrated_mae": cal})

    return {
        "grid": grid,
        "gamma_hat_median": hat_centers,
        "curve": curve,
        "holdout": eval_rows,
    }
