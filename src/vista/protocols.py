"""Experiment drivers: single-run estimation, cascaded windows, FFT baseline, two-parameter probes.

``run_from_config`` dispatches on the config mode:

* vista_pure            pure ansatz, theta only (probe may still be noisy)
* vista_noisy_dephasing ansatz with a disentangling angle phi; learns (theta, phi)
* vista_noisy_ampdamp   same for amplitude damping
* vista_multiparam      probe under theta1*sum(Z) + theta2*sum(X) with the configured
                        noise; pure Trotter ansatz, learns (theta1, theta2)
* cascade               staged n ramp handing theta-hat forward
* baseline_fft          stabilizer-parity time series + discrete spectrum peak

Probes are closed forms except in the multiparameter mode.  There the
non-commuting generator has no closed form, but every term still acts on one
qubit, so the probe is a product channel: one 4x4 exponential per run and a
2x2 Trotter factor per evaluation, at a cost that does not grow with n.

``run_batch`` runs replicas of one run -- configs that differ only in seed
and output -- as one lockstep batch of ``optimize.run_optimization``; every
single run (``run_vista``, ``run_multiparam``, each cascade stage) is a batch
of one.  The loss closures evaluate the live rows of a batch together: the
closed forms take arrays of angles and decays (or, for a few rows, numpy
scalars row by row), the two-angle kernel takes the whole block of rows,
and each row's shots come from its own stream.  An epoch is one call of the
closure, on the live rows stacked with their gradient shifts.  Every
sampled evaluation derives its stream from (seed, labels), so a (config,
seed) pair fixes the whole trajectory, whatever the batch.
"""

import math
import time
from dataclasses import replace

import numpy as np

from . import measurement
from .config import (
    MODE_BASELINE,
    MODE_CASCADE,
    MODE_MULTIPARAM,
    MODE_NOISY_AMPDAMP,
    MODE_NOISY_DEPHASING,
    MODE_PURE,
    NORM_QN,
    effective_dict,
    validate,
    with_overrides,
)
from .dynamics import (
    ChannelSpec,
    HamiltonianSpec,
    circuit_decay,
    closed_form_overlap,
    ghz_product_overlap,
    product_channel_blocks,
    qubit_channel,
    trotter_unitary,
)
from .errors import ConfigError, DomainError, NoPeakError
from .measurement import parity_probability
from .optimize import (
    GRAD_PARAM_SHIFT,
    PHI_CLAMP,
    STATUS_DIVERGED,
    GradientConfig,
    run_optimization,
)
from .results import RunResult
from .rng import STREAM_INIT, STREAM_STAGE, Streams, derive_seed, stream

STATUS_CASCADE_FAILED = "cascade_failed"
STATUS_EARLY_STOPPED = "early_stopped"


# --- probe / ansatz assembly -------------------------------------------------


# Below this many rows the closed form is cheaper on numpy scalars, row by row, than on
# arrays, whose per-call overhead outweighs the work (measured: the two cross near 8 rows);
# both give the same bits.
_ARRAY_ROWS = 8


def _single_param_lossfn(cfg, mode, seeds):
    """Loss closure for the closed-form modes; returns (names, lossfn, frequencies)."""
    probe = qubit_channel(cfg.channel, cfg.gamma_true)  # the probe's qubit after unit time, at phase theta_true
    n = cfg.n
    norm = measurement.LOSS_QN if cfg.normalization == NORM_QN else measurement.LOSS_PLAIN
    names = ("theta",) if mode == MODE_PURE else ("theta", "phi")
    streams = None if cfg.shots.exact else Streams(seeds, 1 + 2 * len(names))

    def overlap(theta, phi=None):
        """Raw overlap and ansatz purity at angles theta (and phi), scalars or arrays alike."""
        if phi is None:
            qubit = (1.0, 0.0)
        else:
            # a gradient shift may step past the clamp; phi only enters through cos(phi),
            # so the sign of a zero does not matter here
            if isinstance(phi, np.ndarray):
                phi = np.minimum(np.maximum(phi, 0.0), PHI_CLAMP)
            else:
                phi = min(max(phi, 0.0), PHI_CLAMP)
            # a noisy mode's ansatz decays through the probe's channel (config.validate pairs them)
            qubit = qubit_channel(cfg.channel, circuit_decay(cfg.channel, phi))
        raw = closed_form_overlap(n, probe, qubit, cfg.theta_true - theta)
        return raw, closed_form_overlap(n, qubit, qubit, 0.0) if norm == measurement.LOSS_QN else 1.0

    def lossfn(values, nu, labels, rows):
        if len(values) < _ARRAY_ROWS:
            overlaps = map(overlap, *values.T.tolist())
        else:
            raw, purity = overlap(*values.T)
            overlaps = zip(raw.tolist(), np.broadcast_to(purity, raw.shape).tolist())
        gens = [None] * len(values) if nu is None else streams.at(rows.tolist(), labels)
        # one measurement.loss call per row, which draws the row's shots from its own stream
        return np.array([measurement.loss(raw, gen, nu, pur, norm) for (raw, pur), gen in zip(overlaps, gens)])

    freqs = np.array([2.0 * n] + [0.0] * (len(names) - 1))
    return names, lossfn, freqs


def _multiparam_lossfn(cfg, seeds):
    """Loss closure for the two-angle mode, evaluated on one qubit's channel and ansatz.

    The probe blocks are computed once per run; each evaluation forms the
    2x2 Trotter factors of all its rows at once and contracts them with the
    blocks, so nothing grows with n.
    """
    n = cfg.n
    probe = product_channel_blocks(
        HamiltonianSpec(cfg.theta_true, cfg.theta2_true), ChannelSpec(cfg.channel, cfg.gamma_true)
    )
    d = cfg.multiparam.trotter_steps
    names = ("theta", "theta2")
    streams = None if cfg.shots.exact else Streams(seeds, 1 + 2 * len(names))

    def lossfn(values, nu, labels, rows):
        raw = ghz_product_overlap(probe, trotter_unitary(HamiltonianSpec(values[:, 0], values[:, 1]), d), n)
        gens = [None] * len(values) if nu is None else streams.at(rows.tolist(), labels)
        return np.array([measurement.loss(r, gen, nu) for r, gen in zip(raw.tolist(), gens)])

    return names, lossfn, np.array([0.0, 0.0])


def _draw_init(cfg, names):
    rng = stream(cfg.seed, STREAM_INIT)
    hw = cfg.init_halfwidth_effective()
    values = []
    for name in names:
        if name == "theta":
            v = cfg.init.theta0
            if v is None:
                v = rng.uniform(cfg.init.center - hw, cfg.init.center + hw)
        elif name == "phi":
            v = cfg.init.phi0
        else:  # theta2
            v = cfg.init.theta2_0
            if v is None:
                v = rng.uniform(-hw, hw)
        values.append(float(v))
    return values


def _gradient_config(cfg, names, freqs):
    h = []
    for name in names:
        h.append(cfg.gradient.h_phi if name == "phi" else cfg.h_theta_effective())
    frequencies = freqs if cfg.gradient.method == GRAD_PARAM_SHIFT else None
    return GradientConfig(cfg.gradient.method, np.array(h), frequencies, cfg.gradient.crn)


def _final_estimates(cfg, names, opt):
    last = opt.params[-1]
    final = {"theta_hat": float(last[0])}
    if cfg.theta_true is not None:
        final["abs_error_theta"] = abs(final["theta_hat"] - cfg.theta_true)
    if "phi" in names:
        phi = float(last[names.index("phi")])
        final["phi"] = phi
        try:
            final["gamma_hat"] = circuit_decay(cfg.channel, phi)
            final["gamma_flagged"] = False
        except DomainError:
            final["gamma_hat"] = None
            final["gamma_flagged"] = True
        if final["gamma_hat"] is not None:
            final["abs_error_gamma"] = abs(final["gamma_hat"] - cfg.gamma_true)
    if "theta2" in names:
        final["theta2_hat"] = float(last[names.index("theta2")])
        final["abs_error_theta2"] = abs(final["theta2_hat"] - cfg.theta2_true)
    return final


_TRACE_COL = {"theta": "theta_hat", "phi": "phi", "theta2": "theta2_hat"}


def _to_result(cfg, names, opt, wall):
    return RunResult(
        config=effective_dict(cfg),
        seed=cfg.seed,
        status=opt.status,
        param_names=tuple(_TRACE_COL[n] for n in names),
        trace={
            "epoch": opt.epochs,
            "loss": opt.losses,
            "params": opt.params,
            "grad_norm": opt.grad_norms,
            "shots": opt.shots,
            "lr": opt.lrs,
        },
        final=_final_estimates(cfg, names, opt),
        wall_time_s=wall,
    )


def _optimizer_batch(cfgs):
    """Replicas of one run in a closed-form or two-angle mode, in lockstep."""
    cfg = cfgs[0]
    seeds = [c.seed for c in cfgs]
    if cfg.mode == MODE_MULTIPARAM and cfg.theta2_true != 0:
        names, lossfn, freqs = _multiparam_lossfn(cfg, seeds)
    else:
        # theta2_true == 0 is the commuting edge case of vista_multiparam: a vista_pure run
        mode = MODE_PURE if cfg.mode == MODE_MULTIPARAM else cfg.mode
        names, lossfn, freqs = _single_param_lossfn(cfg, mode, seeds)
    t0 = time.monotonic()
    opts = run_optimization(
        np.array([_draw_init(c, names) for c in cfgs]),
        lossfn,
        names=names,
        optimizer=cfg.optimizer,
        schedule=cfg.shots,
        gradient=_gradient_config(cfg, names, freqs),
    )
    wall = time.monotonic() - t0  # the batch's time, not one replica's
    return [_to_result(c, names, opt, wall) for c, opt in zip(cfgs, opts)]


def run_vista(cfg):
    """One estimation run in any of the closed-form single-probe modes."""
    validate(cfg)
    if cfg.mode not in (MODE_PURE, MODE_NOISY_DEPHASING, MODE_NOISY_AMPDAMP):
        raise ConfigError(f"run_vista does not handle mode {cfg.mode!r}")
    return _optimizer_batch([cfg])[0]


def run_multiparam(cfg):
    """Two-parameter estimation with the product-channel probe and Trotter ansatz.

    theta2_true == 0 is the commuting edge case: the generator collapses to
    sum(Z) and the run delegates to the closed-form single-parameter pipeline,
    reproducing a vista_pure run bit for bit under the same seed.
    """
    validate(cfg)
    if cfg.mode != MODE_MULTIPARAM:
        raise ConfigError(f"run_multiparam needs mode {MODE_MULTIPARAM!r}")
    return _optimizer_batch([cfg])[0]


# --- cascade -----------------------------------------------------------------


def run_cascade(cfg):
    """Stages of increasing n; each stage starts from the previous theta-hat.

    A stage whose mean gradient magnitude falls below g_min contributes no
    information; the cascade stops there and reports the previous stage's
    estimate.  A diverged first stage fails the whole cascade.
    """
    validate(cfg)
    if cfg.mode != MODE_CASCADE:
        raise ConfigError(f"run_cascade needs mode {MODE_CASCADE!r}")
    plan = cfg.cascade
    t0 = time.monotonic()

    stages = []
    traces = []
    accepted = None  # result of the last informative stage
    status = None
    epochs_done = 0
    for k, nk in enumerate(plan.n_sequence):
        stage_cfg = with_overrides(
            cfg,
            mode=MODE_PURE,
            n=int(nk),
            seed=derive_seed(cfg.seed, STREAM_STAGE, k),
            cascade=type(cfg.cascade)(),  # stages themselves do not cascade
        )
        if k > 0:
            stage_cfg = with_overrides(
                stage_cfg,
                init=type(cfg.init)(
                    theta0=float(accepted.final["theta_hat"]),
                    phi0=cfg.init.phi0,
                ),
            )

        window_ok = True
        if k > 0:
            window_ok = abs(accepted.final["theta_hat"] - cfg.theta_true) <= math.pi / (2 * nk)

        res = run_vista(stage_cfg)
        mean_grad = float(np.mean(res.trace["grad_norm"])) if len(res.trace["grad_norm"]) else 0.0
        stages.append(
            {
                "n": int(nk),
                "first_epoch": epochs_done,
                "epochs": int(len(res.trace["epoch"])),
                "status": res.status,
                "theta_hat": res.final["theta_hat"],
                "abs_error_theta": res.final["abs_error_theta"],
                "mean_grad": mean_grad,
                "window_breach": not window_ok,
            }
        )
        epochs_done += int(len(res.trace["epoch"]))

        if res.status == STATUS_DIVERGED:
            status = STATUS_CASCADE_FAILED
            if k == 0:
                accepted = res
            break
        if k > 0 and mean_grad < plan.g_min:
            # vanishing signal at this n: keep the previous stage's estimate
            stages[-1]["rejected_vanishing_gradient"] = True
            status = STATUS_EARLY_STOPPED
            break
        accepted = res
        traces.append(res.trace)

    if status is None:
        status = accepted.status

    # contiguous epoch numbering across accepted stages
    if traces:
        joined = {key: np.concatenate([tr[key] for tr in traces]) for key in traces[0]}
        joined["epoch"] = np.arange(len(joined["loss"]))
    else:
        joined = accepted.trace

    final = dict(accepted.final)
    final["n_final"] = int(stages[len(traces) - 1]["n"]) if traces else int(plan.n_sequence[0])
    return RunResult(
        config=effective_dict(cfg),
        seed=cfg.seed,
        status=status,
        param_names=("theta_hat",),
        trace=joined,
        final=final,
        stages=stages,
        wall_time_s=time.monotonic() - t0,
    )


# --- stabilizer-parity FFT baseline ------------------------------------------


def baseline_series(cfg):
    """Time grid, exact parity probabilities under cfg.channel, and their sampled versions for cfg.baseline.

    Step k draws ``baseline.shots_per_step`` shots from ``stream(cfg.seed, k)``.
    """
    steps, total_time = cfg.baseline.steps, cfg.baseline.total_time
    t = np.arange(steps) * (total_time / steps)
    p = parity_probability(cfg.n, cfg.theta_true, cfg.gamma_true, t, cfg.channel)
    shots = int(cfg.baseline.shots_per_step)
    p_hat = np.array([measurement.binomial_fraction(stream(cfg.seed, k), shots, pk) for k, pk in enumerate(p)])
    return t, p, p_hat


def _spectrum_peak(cfg, p_hat):
    """Top non-DC bin of the mean-subtracted magnitude spectrum, and its theta-hat."""
    x = p_hat - p_hat.mean()
    mags = np.abs(np.fft.rfft(x))
    if mags[1:].size == 0 or np.max(mags[1:]) <= 1e-12:
        raise NoPeakError("parity spectrum has no non-DC peak")
    peak = 1 + int(np.argmax(mags[1:]))
    return peak, math.pi * (peak / cfg.baseline.total_time) / cfg.n


def run_baseline_fft(cfg, series):
    """Frequency-domain estimate of a parity series: mean-subtract, magnitude spectrum, top non-DC bin.

    ``series`` is sampled on the time grid of ``baseline_series(cfg)``; pass
    its exact or its sampled probabilities.  The retained bin b maps to
    theta-hat = pi * (b / T) / n.  Ties go to the lower frequency; a flat
    spectrum (no oscillation information) raises.
    """
    return _spectrum_peak(cfg, np.asarray(series, dtype=float))[1]


def run_baseline(cfg):
    """Config-driven baseline run producing a persistable record."""
    validate(cfg)
    if cfg.mode != MODE_BASELINE:
        raise ConfigError(f"run_baseline needs mode {MODE_BASELINE!r}")
    t0 = time.monotonic()
    t, p, p_hat = baseline_series(cfg)
    peak, theta_hat = _spectrum_peak(cfg, p_hat)
    return RunResult(
        config=effective_dict(cfg),
        seed=cfg.seed,
        status="done",
        final={
            "theta_hat": theta_hat,
            "abs_error_theta": abs(theta_hat - cfg.theta_true),
            "peak_bin": peak,
            "f_hat": peak / cfg.baseline.total_time,
        },
        series={"t": t, "p_exact": p, "p_hat": p_hat},
        wall_time_s=time.monotonic() - t0,
    )


_OPTIMIZER_MODES = (MODE_PURE, MODE_NOISY_DEPHASING, MODE_NOISY_AMPDAMP, MODE_MULTIPARAM)


def run_batch(cfgs):
    """Results of configs that differ only in seed and output, in their order.

    The optimizer modes run as one lockstep batch; cascades and baselines run
    one after another.  Each result is byte for byte the one that
    ``run_from_config`` gives for its config alone.
    """
    cfg = cfgs[0]
    validate(cfg)
    shared = replace(cfg, seed=0, output=None)
    if any(replace(c, seed=0, output=None) != shared for c in cfgs[1:]):
        raise ConfigError("the configs of a batch may differ only in seed and output")
    if cfg.mode in _OPTIMIZER_MODES:
        return _optimizer_batch(cfgs)
    if cfg.mode == MODE_CASCADE:
        return [run_cascade(c) for c in cfgs]
    if cfg.mode == MODE_BASELINE:
        return [run_baseline(c) for c in cfgs]
    raise ConfigError(f"unknown mode {cfg.mode!r}")


def run_from_config(cfg):
    return run_batch([cfg])[0]
