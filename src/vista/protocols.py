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

``run_batch`` runs one checked config under a list of replica seeds, each
with its own output, as one lockstep batch of ``optimize.run_optimization``,
and a cascade's replicas as one such batch per stage; a single run is a batch
of one.  Each row comes back as the trace that its result persists.  An
epoch is one call of the loss closure, which every optimizer mode
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
    PHI_CLAMP,
    effective_dict,
    parse,
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
from .rng import STREAM_GRAD, STREAM_INIT, STREAM_LOSS, STREAM_PARITY, STREAM_STAGE, Streams, derive_seed, stream

STATUS_CASCADE_FAILED = "cascade_failed"
STATUS_EARLY_STOPPED = "early_stopped"


# --- probe / ansatz assembly -------------------------------------------------


def _closed_form_overlaps(cfg, mode):
    """(names, overlaps, frequencies) of a closed-form mode; overlaps(columns) gives each row's (raw, purity).

    A row at angle theta has the overlap pop + amp * cos(2n (theta_true - theta)), ``closed_form_overlap``'s
    bits, with (pop, amp, purity) computed once per run (pure ansatz) or, by ``ansatz_factors``, once per
    distinct phi of a block (noisy).  ``_optimize`` bounds phi, so it receives every phi in [0, PHI_CLAMP].
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


def _gradient_steps(cfg, names, freqs):
    """(shifts, scales) of the gradient of the parameters ``names``, whose loss harmonics are ``freqs``.

    Parameter i is evaluated at x + shifts[i] and x - shifts[i], and the
    difference of its two losses is scaled by scales[i].  Under the
    parameter-shift rule a parameter of frequency w > 0 takes pi/(2 w) and
    w/2, which is exact when the loss is A + B cos(w p + c); every other
    parameter (frequency 0 has no single-harmonic form, e.g. the
    decay-matching angle) takes its central-difference step h, ``h_phi`` for
    phi and ``h_theta_effective()`` for an angle, and 1/(2 h).
    """
    shift_rule = cfg.gradient.method == GRAD_PARAM_SHIFT
    shifts, scales = [], []
    for name, w in zip(names, freqs):
        if shift_rule and w > 0:
            shifts.append(math.pi / (2 * w))
            scales.append(w / 2)
        else:
            h = cfg.gradient.h_phi if name == "phi" else cfg.h_theta_effective()
            shifts.append(h)
            scales.append(1.0 / (2 * h))
    return shifts, scales


def _final_estimates(cfg, names, opt):
    last = opt.trace["params"][-1]
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


def _result(cfg, seed, output, **fields):
    """The record of cfg's run under ``seed``, written to ``output``: a config echo of its own, nothing shared."""
    return RunResult(config={**effective_dict(cfg), "seed": seed, "output": output}, seed=seed, **fields)


def _optimize(cfg, seeds, starts=None):
    """Rows of cfg's run under ``seeds``, optimized as one lockstep batch: (names, an OptRun per row).

    Row r starts at ``starts[r]``, or, without ``starts``, at the point that
    ``_draw_init`` draws from its seed.  This is where a run's parameters meet
    the optimizer's columns: each takes its step from ``_gradient_steps``, and
    phi alone is bounded, to [0, PHI_CLAMP].
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
        optimizer=cfg.optimizer,
        schedule=cfg.shots,
        steps=_gradient_steps(cfg, names, freqs),
        bounds=[(0.0, PHI_CLAMP) if name == "phi" else None for name in names],
    )
    return names, opts


def _optimizer_batch(cfg, seeds, outputs):
    """Replicas of one run in a closed-form or two-angle mode, in lockstep."""
    names, opts = _optimize(cfg, seeds)
    params = tuple(_TRACE_COL[n] for n in names)
    return [
        _result(cfg, seed, output, status=opt.status, param_names=params, trace=opt.trace,
                final=_final_estimates(cfg, names, opt))
        for seed, output, opt in zip(seeds, outputs, opts)
    ]


# --- cascade -----------------------------------------------------------------


@dataclass
class _Ladder:
    """One cascade replica's stage records, and the traces, estimates and status of its accepted stages."""

    stages: list = field(default_factory=list)
    traces: list = field(default_factory=list)
    final: dict | None = None
    status: str | None = None


def _cascade_batch(cfg, seeds, outputs):
    """Replicas of one cascade: stages of increasing n, each starting from the previous theta-hat.

    Stage k of every replica still on the ladder runs as one lockstep batch at
    n_k, under the seed ``derive_seed(seed, STREAM_STAGE, k)``; the first
    stage draws its start.  A stage whose mean gradient magnitude falls below
    g_min contributes no information: its replica stops there and reports the
    previous stage's estimate.  A diverged stage fails its replica's cascade.
    """
    ladders = [_Ladder() for _ in seeds]
    live = range(len(seeds))
    for k, nk in enumerate(cfg.cascade.n_sequence):
        stage = replace(cfg, n=int(nk))
        starts = None if k == 0 else [[ladders[r].final["theta_hat"]] for r in live]
        names, opts = _optimize(stage, [derive_seed(seeds[r], STREAM_STAGE, k) for r in live], starts)
        going = []
        for r, opt in zip(live, opts):
            row = ladders[r]
            final = _final_estimates(stage, names, opt)
            mean_grad = float(np.mean(opt.trace["grad_norm"]))
            row.stages.append(
                {
                    "n": int(nk),
                    "first_epoch": sum(s["epochs"] for s in row.stages),
                    "epochs": len(opt.trace["epoch"]),
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
                row.traces.append(opt.trace)
            if diverged or rejected:
                row.status = STATUS_CASCADE_FAILED if diverged else STATUS_EARLY_STOPPED
            else:
                going.append(r)
        live = going
        if not live:
            break

    results = []
    for seed, output, row in zip(seeds, outputs, ladders):
        # contiguous epoch numbering across accepted stages
        trace = {key: np.concatenate([tr[key] for tr in row.traces]) for key in row.traces[0]}
        trace["epoch"] = np.arange(len(trace["loss"]))
        final = {**row.final, "n_final": row.stages[len(row.traces) - 1]["n"]}
        results.append(_result(cfg, seed, output, status=row.status, param_names=("theta_hat",), trace=trace,
                               final=final, stages=row.stages))
    return results


# --- stabilizer-parity FFT baseline ------------------------------------------


def baseline_series(cfg):
    """Time grid, exact parity probabilities under cfg.channel, and their sampled versions for cfg.baseline.

    Every step draws its ``baseline.shots_per_step`` shots, in order, from
    the one stream ``stream(cfg.seed, STREAM_PARITY)``.
    """
    steps, total_time = cfg.baseline.steps, cfg.baseline.total_time
    t = np.arange(steps) * (total_time / steps)
    p = parity_probability(cfg.n, cfg.theta_true, cfg.gamma_true, t, cfg.channel)
    shots = int(cfg.baseline.shots_per_step)
    rng = stream(cfg.seed, STREAM_PARITY)
    p_hat = [measurement.binomial_fraction(rng, shots, pk) for pk in p]
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
    )


_OPTIMIZER_MODES = (MODE_PURE, MODE_NOISY_DEPHASING, MODE_NOISY_AMPDAMP, MODE_MULTIPARAM)


def run_batch(cfg, seeds, outputs=None):
    """Results of cfg's run under each of ``seeds``, in their order; result r is written to ``outputs[r]``.

    ``outputs`` defaults to None, no output, for every seed.  Each seed and
    output is checked by the config's own rule, and the two lists must be
    equally long; a ConfigError says which fails.  The optimizer modes run
    as one lockstep batch, a cascade as one batch per stage; baselines run
    one after another.  Each result echoes its own seed and output and is,
    byte for byte, the one that ``run_from_config`` gives for cfg under
    that seed and output.
    """
    seeds = [parse("seed", seed) for seed in seeds]
    outputs = [None] * len(seeds) if outputs is None else [parse("output", output) for output in outputs]
    if len(outputs) != len(seeds):
        raise ConfigError(f"a batch needs one output per seed, got {len(outputs)} for {len(seeds)}")
    if cfg.mode == MODE_CASCADE:
        return _cascade_batch(cfg, seeds, outputs)
    if cfg.mode in _OPTIMIZER_MODES:
        return _optimizer_batch(cfg, seeds, outputs)
    if cfg.mode == MODE_BASELINE:
        return [run_baseline(replace(cfg, seed=seed, output=output)) for seed, output in zip(seeds, outputs)]
    raise ConfigError(f"unknown mode {cfg.mode!r}")


def run_from_config(cfg):
    return run_batch(cfg, [cfg.seed], [cfg.output])[0]
