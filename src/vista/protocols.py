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
and output -- as one lockstep batch of ``optimize.run_optimization``, and a
cascade's replicas as one such batch per stage; a single run is a batch of
one.  An epoch is one call of the loss closure, which every optimizer mode
shares, on the live rows stacked with their gradient shifts; a mode gives
only the overlaps: the closed forms row by row on Python floats, one cos
per row once the factors of the run, or of each phi (one
``dynamics.ansatz_factors`` call per distinct phi of a block), are known,
the two-angle kernel on the whole block.  The closure also owns the
shots.  Without common random numbers (CRN) each row draws every shot of its
run, in block order, from its one stream (seed, (STREAM_LOSS,)), moved to
once when the batch starts; under CRN each block of an epoch draws from a
fresh stream, (STREAM_LOSS, epoch) for the recorded loss and (STREAM_GRAD,
epoch, i, 0) for both shifts of parameter i.  Either way a row draws from its
own generator in a fixed order, so a (config, seed) pair fixes the whole
trajectory, whatever the batch.
"""

import math
import time
from dataclasses import dataclass, field, replace
from itertools import chain, cycle, repeat

import numpy as np

from . import measurement
from .config import (
    GRAD_PARAM_SHIFT,
    MODE_BASELINE,
    MODE_CASCADE,
    MODE_MULTIPARAM,
    MODE_NOISY_AMPDAMP,
    MODE_NOISY_DEPHASING,
    MODE_PURE,
    NORM_QN,
    GradientConfig,
    effective_dict,
)
from .dynamics import (
    ChannelSpec,
    HamiltonianSpec,
    ansatz_factors,
    circuit_decay,
    ghz_product_overlap,
    overlap_factors,
    product_channel_blocks,
    qubit_channel,
    trotter_unitary,
)
from .errors import ConfigError, DomainError, NoPeakError
from .measurement import parity_probability
from .optimize import STATUS_DIVERGED, run_optimization
from .results import RunResult
from .rng import STREAM_GRAD, STREAM_INIT, STREAM_LOSS, STREAM_STAGE, Streams, derive_seed, stream

STATUS_CASCADE_FAILED = "cascade_failed"
STATUS_EARLY_STOPPED = "early_stopped"


# --- probe / ansatz assembly -------------------------------------------------


def _closed_form_overlaps(cfg, mode):
    """(names, overlaps, frequencies) of a closed-form mode; overlaps(columns) gives each row's (raw, purity).

    A row at angle theta has the overlap pop + amp * cos(2n (theta_true - theta)), ``closed_form_overlap``'s
    bits, with (pop, amp, purity) computed once per run (pure ansatz) or, by ``ansatz_factors``, once per
    distinct phi of a block (noisy).  ``run_optimization`` hands it every phi in [0, PHI_CLAMP].
    """
    probe = qubit_channel(cfg.channel, cfg.gamma_true)  # the probe's qubit after unit time, at phase theta_true
    n, theta_true = cfg.n, cfg.theta_true
    normalized = cfg.normalization == NORM_QN

    if mode == MODE_PURE:
        pure = (1.0, 0.0)
        pop, amp = overlap_factors(n, probe, pure)
        # the purity is the ansatz's overlap with itself at dtheta = 0, where the cos is exactly 1.0
        pur = sum(overlap_factors(n, pure, pure)) if normalized else 1.0
        return ("theta",), lambda cols: [(pop + amp * math.cos(2 * n * (theta_true - t)), pur) for t in cols[0]], [2.0 * n]

    # a noisy mode's ansatz decays through the probe's channel (the config pairs them)
    factors = ansatz_factors(n, cfg.channel, probe, normalized)

    def overlaps(columns):
        at_phi, out = {}, []  # a block's theta shifts keep their rows' phi, so its 5L rows hold 3L distinct phi
        for theta, phi in zip(*columns):
            if phi not in at_phi:  # -0.0 and 0.0 share a key; phi only enters through cos(phi)
                at_phi[phi] = factors(phi)
            pop, amp, pur = at_phi[phi]
            out.append((pop + amp * math.cos(2 * n * (theta_true - theta)), pur))
        return out

    return ("theta", "phi"), overlaps, [2.0 * n, 0.0]


def _two_angle_overlaps(cfg):
    """(names, overlaps, frequencies) of the two-angle mode, evaluated on one qubit's channel and ansatz.

    The probe blocks are computed once per run; ``overlaps(columns)`` forms
    the 2x2 Trotter factors of all the block's rows at once and contracts
    them with the blocks, so nothing grows with n.  The ansatz is pure.
    """
    n = cfg.n
    probe = product_channel_blocks(
        HamiltonianSpec(cfg.theta_true, cfg.theta2_true), ChannelSpec(cfg.channel, cfg.gamma_true)
    )
    d = cfg.multiparam.trotter_steps

    def overlaps(columns):
        raw = ghz_product_overlap(probe, trotter_unitary(HamiltonianSpec(*columns), d), n)
        return zip(raw.tolist(), repeat(1.0))

    return ("theta", "theta2"), overlaps, [0.0, 0.0]


def _draw_init(cfg, seed, names):
    """The run's start under ``seed``: the values the config gives, and init-stream draws for the others.

    The stream is built at the first draw, so a run whose start is all given builds none.
    """
    rng = None
    hw = cfg.init_halfwidth_effective()
    values = []
    for name in names:
        if name == "theta":
            v = cfg.init.theta0
            if v is None:
                rng = rng or stream(seed, STREAM_INIT)
                v = rng.uniform(cfg.init.center - hw, cfg.init.center + hw)
        elif name == "phi":
            v = cfg.init.phi0
        else:  # theta2
            v = cfg.init.theta2_0
            if v is None:
                rng = rng or stream(seed, STREAM_INIT)
                v = rng.uniform(-hw, hw)
        values.append(float(v))
    return values


def _gradient_config(cfg, names, freqs):
    h = [cfg.gradient.h_phi if name == "phi" else cfg.h_theta_effective() for name in names]
    frequencies = freqs if cfg.gradient.method == GRAD_PARAM_SHIFT else None
    return GradientConfig(cfg.gradient.method, h, frequencies)


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


def _trace(opt):
    return {
        "epoch": opt.epochs,
        "loss": opt.losses,
        "params": opt.params,
        "grad_norm": opt.grad_norms,
        "shots": opt.shots,
        "lr": opt.lrs,
    }


def _to_result(cfg, names, opt, wall):
    return RunResult(
        config=effective_dict(cfg),
        seed=cfg.seed,
        status=opt.status,
        param_names=tuple(_TRACE_COL[n] for n in names),
        trace=_trace(opt),
        final=_final_estimates(cfg, names, opt),
        wall_time_s=wall,
    )


def _optimize(cfg, seeds, starts=None):
    """Rows of cfg's run under ``seeds``, optimized as one lockstep batch: (names, an OptRun per row).

    Row r starts at ``starts[r]``, or, without ``starts``, at the point that
    ``_draw_init`` draws from its seed.
    """
    if cfg.mode == MODE_MULTIPARAM and cfg.theta2_true != 0:
        names, overlaps, freqs = _two_angle_overlaps(cfg)
    else:
        # theta2_true == 0 is the commuting edge case of vista_multiparam: a vista_pure run;
        # a cascade stage is a vista_pure run at the stage's n
        mode = MODE_PURE if cfg.mode in (MODE_MULTIPARAM, MODE_CASCADE) else cfg.mode
        names, overlaps, freqs = _closed_form_overlaps(cfg, mode)
    norm, crn = cfg.normalization, cfg.gradient.crn
    streams = None if cfg.shots.exact else Streams(seeds)
    if streams is not None and not crn:  # each row draws its whole run from one stream, moved to once
        kept = streams.at(list(range(len(seeds))), (STREAM_LOSS,))

    def lossfn(columns, nu, epoch, rows):
        # one measurement.loss call per block row, which draws the row's shots from its own generator
        loss = measurement.loss
        if nu is None:  # exact: no stream and no draw
            return [loss(raw, None, None, pur, norm) for raw, pur in overlaps(columns)]
        if crn:  # zip pulls a block's generators, moving the rows to its label, only once the block before has drawn
            labels = [(STREAM_LOSS, epoch), *((STREAM_GRAD, epoch, i, 0) for i in range(len(names)) for _ in "ud")]
            gens = chain.from_iterable(streams.at(rows, label) for label in labels)
        else:  # the rows draw on, block after block
            gens = cycle([kept[r] for r in rows])
        return [loss(raw, gen, nu, pur, norm) for (raw, pur), gen in zip(overlaps(columns), gens)]

    if starts is None:
        starts = [_draw_init(cfg, seed, names) for seed in seeds]
    opts = run_optimization(
        np.array(starts),
        lossfn,
        names=names,
        optimizer=cfg.optimizer,
        schedule=cfg.shots,
        gradient=_gradient_config(cfg, names, freqs),
    )
    return names, opts


def _optimizer_batch(cfgs):
    """Replicas of one run in a closed-form or two-angle mode, in lockstep."""
    t0 = time.monotonic()
    names, opts = _optimize(cfgs[0], [c.seed for c in cfgs])
    wall = time.monotonic() - t0  # the batch's time, not one replica's
    return [_to_result(c, names, opt, wall) for c, opt in zip(cfgs, opts)]


# --- cascade -----------------------------------------------------------------


@dataclass
class _Ladder:
    """One cascade replica's stage records, and the traces, estimates and status of its accepted stages."""

    stages: list = field(default_factory=list)
    traces: list = field(default_factory=list)
    final: dict | None = None
    status: str | None = None


def _cascade_batch(cfgs):
    """Replicas of one cascade: stages of increasing n, each starting from the previous theta-hat.

    Stage k of every replica still on the ladder runs as one lockstep batch at
    n_k, under the seed ``derive_seed(seed, STREAM_STAGE, k)``; the first
    stage draws its start.  A stage whose mean gradient magnitude falls below
    g_min contributes no information: its replica stops there and reports the
    previous stage's estimate.  A diverged stage fails its replica's cascade.
    """
    cfg = cfgs[0]
    t0 = time.monotonic()
    ladders = [_Ladder() for _ in cfgs]
    live = range(len(cfgs))
    for k, nk in enumerate(cfg.cascade.n_sequence):
        stage = replace(cfg, n=int(nk))
        starts = None if k == 0 else [[ladders[r].final["theta_hat"]] for r in live]
        names, opts = _optimize(stage, [derive_seed(cfgs[r].seed, STREAM_STAGE, k) for r in live], starts)
        going = []
        for r, opt in zip(live, opts):
            row = ladders[r]
            final = _final_estimates(stage, names, opt)
            mean_grad = float(np.mean(opt.grad_norms))
            row.stages.append(
                {
                    "n": int(nk),
                    "first_epoch": sum(s["epochs"] for s in row.stages),
                    "epochs": len(opt.epochs),
                    "status": opt.status,
                    "theta_hat": final["theta_hat"],
                    "abs_error_theta": final["abs_error_theta"],
                    "mean_grad": mean_grad,
                    # the handed-over estimate against theta_true, which only a simulation knows
                    "window_breach": k > 0 and not abs(row.final["theta_hat"] - cfg.theta_true) <= math.pi / (2 * nk),
                }
            )
            diverged = opt.status == STATUS_DIVERGED
            rejected = k > 0 and not diverged and mean_grad < cfg.cascade.g_min
            if rejected:  # vanishing signal at this n: keep the previous stage's estimate
                row.stages[-1]["rejected_vanishing_gradient"] = True
            if k == 0 or not (diverged or rejected):  # a diverged first stage is all its replica has
                row.final, row.status = final, opt.status
                row.traces.append(_trace(opt))
            if diverged or rejected:
                row.status = STATUS_CASCADE_FAILED if diverged else STATUS_EARLY_STOPPED
            else:
                going.append(r)
        live = going
        if not live:
            break
    wall = time.monotonic() - t0  # the batch's time, not one replica's

    results = []
    for c, row in zip(cfgs, ladders):
        # contiguous epoch numbering across accepted stages
        trace = {key: np.concatenate([tr[key] for tr in row.traces]) for key in row.traces[0]}
        trace["epoch"] = np.arange(len(trace["loss"]))
        results.append(
            RunResult(
                config=effective_dict(c),
                seed=c.seed,
                status=row.status,
                param_names=("theta_hat",),
                trace=trace,
                final={**row.final, "n_final": row.stages[len(row.traces) - 1]["n"]},
                stages=row.stages,
                wall_time_s=wall,
            )
        )
    return results


# --- stabilizer-parity FFT baseline ------------------------------------------


def baseline_series(cfg):
    """Time grid, exact parity probabilities under cfg.channel, and their sampled versions for cfg.baseline.

    Step k draws ``baseline.shots_per_step`` shots under the label (k,): what
    ``stream(cfg.seed, k)`` draws, from one kept generator that ``Streams.at``
    moves to each step's label.
    """
    steps, total_time = cfg.baseline.steps, cfg.baseline.total_time
    t = np.arange(steps) * (total_time / steps)
    p = parity_probability(cfg.n, cfg.theta_true, cfg.gamma_true, t, cfg.channel)
    shots = int(cfg.baseline.shots_per_step)
    streams = Streams([cfg.seed])
    p_hat = [measurement.binomial_fraction(streams.at([0], (k,))[0], shots, pk) for k, pk in enumerate(p)]
    return t, p, np.array(p_hat)


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

    The optimizer modes run as one lockstep batch, a cascade as one batch per
    stage; baselines run one after another.  Each result is byte for byte the one that
    ``run_from_config`` gives for its config alone.
    """
    cfg = cfgs[0]
    shared = replace(cfg, seed=0, output=None)
    if any(replace(c, seed=0, output=None) != shared for c in cfgs[1:]):
        raise ConfigError("the configs of a batch may differ only in seed and output")
    if cfg.mode == MODE_CASCADE:
        return _cascade_batch(cfgs)
    if cfg.mode in _OPTIMIZER_MODES:
        return _optimizer_batch(cfgs)
    if cfg.mode == MODE_BASELINE:
        return [run_baseline(c) for c in cfgs]
    raise ConfigError(f"unknown mode {cfg.mode!r}")


def run_from_config(cfg):
    return run_batch([cfg])[0]
