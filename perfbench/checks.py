"""Checks of every workload's outputs against reference.py and the method's properties.

Each ``check_*`` function returns ``(failed, problems)``: ``failed`` is the
number of runs in one round that failed a per-run check, and ``problems``
lists the failed workload-level checks, any of which makes the result
incorrect.  No check compares with a stored copy of earlier output.
"""

import copy
import json
import math
import sys
from pathlib import Path

import numpy as np

import reference
from workloads import TWO_ANGLE_THETA2, vista

EXACT_TOL = 1e-12  # exact losses against the reference formulas
PROBE_TOL = 1e-8  # RK4 probe against the product-channel probe
EXACT_THETA_TOL = 1e-4  # final theta-hat of an exact run
TWO_ANGLE_TOL = {"abs_error_theta": 0.01, "abs_error_theta2": 0.025}
SCALING_BAND = (-1.05, -0.70)
SCALING_R2 = 0.85
HEAD_TO_HEAD_RATIO = 5.0
Z_LIMIT = 6.0  # standard errors allowed for the mean and variance of loss residuals

def note(msg):
    print(f"check: {msg}", file=sys.stderr)


_KIND = {"vista_noisy_dephasing": "dephasing", "vista_noisy_ampdamp": "amplitude_damping"}


def loss_evals(trace_len, nparams, stages):
    """Loss evaluations of one run: 1 + 2p per epoch (the recorded loss and two shifts per parameter)."""
    if stages:
        return sum(3 * s["epochs"] for s in stages)
    return trace_len * (1 + 2 * nparams)


# --- expected losses -----------------------------------------------------------------


def expected_raw_and_scale(cfg, params, n=None):
    """Exact overlap and loss divisor (sqrt purity under quasi-normalisation) at ``params`` rows."""
    n = cfg["n"] if n is None else n
    params = np.atleast_2d(np.asarray(params, dtype=float))
    mode = cfg["mode"]
    if mode == "vista_multiparam":
        probe = reference.two_angle_probe_blocks(cfg["theta_true"], cfg["theta2_true"], cfg["gamma_true"])
        ans = reference.trotter_blocks(params[:, 0], params[:, 1], cfg["multiparam"]["trotter_steps"])
        return np.clip(reference.overlap(probe, ans, n), 0.0, 1.0), np.ones(len(params))
    probe = reference.probe_blocks(cfg["theta_true"], cfg["gamma_true"], cfg["channel"])
    if mode in ("vista_pure", "cascade"):
        return reference.overlap(probe, reference.ansatz_blocks(params[:, 0], 0.0, "none"), n), np.ones(len(params))
    ans = reference.ansatz_blocks(params[:, 0], params[:, 1], _KIND[mode])
    scale = np.sqrt(reference.purity(ans, n)) if cfg["normalization"] == "quasi_normalized" else np.ones(len(params))
    return reference.overlap(probe, ans, n), scale


def shot_residuals(cfg, trace):
    """Standardised residuals of the recorded sampled losses from epoch 1 on.

    The loss at epoch k is drawn at the parameters recorded after epoch k-1:
    1 - T/s with T = 2 Binomial(nu, (1 + raw)/2)/nu - 1.
    """
    params = np.asarray(trace["params"], dtype=float)
    losses = np.asarray(trace["loss"], dtype=float)[1:]
    nu = np.asarray(trace["shots"], dtype=float)[1:]
    raw, scale = expected_raw_and_scale(cfg, params[:-1])
    p = (1 + raw) / 2
    sigma = np.sqrt(4 * p * (1 - p) / nu) / scale
    return (losses - (1 - raw / scale)) / sigma


def residuals_problem(z, what):
    z = np.concatenate(z) if z else np.zeros(0)
    if z.size < 100:
        return [f"{what}: only {z.size} sampled losses to test"]
    mean, var = float(np.mean(z)), float(np.var(z))
    if abs(mean) * math.sqrt(z.size) > Z_LIMIT or abs(var - 1) > max(0.1, Z_LIMIT * math.sqrt(2 / z.size)):
        return [f"{what}: sampled losses are off their shot-noise law (mean z {mean:.3g}, var z {var:.3g}, N {z.size})"]
    return []


# --- persisted runs ------------------------------------------------------------------


def load_runs(keep, workload):
    """{call name: [(run dir, result.json document)]} for a kept round."""
    runs = {}
    for call in workload.calls:
        base = Path(keep) / call.name
        runs[call.name] = [(p.parent, json.loads(p.read_text())) for p in sorted(base.glob("*/seed_*/result.json"))]
    return runs


def persisted_loss_evals(runs):
    total = 0
    for items in runs.values():
        for _, doc in items:
            tr = doc.get("trace")
            total += loss_evals(len(tr["epoch"]), len(tr["param_names"]), doc.get("stages")) if tr else 0
    return total


def _common_per_run(workload, runs):
    """Missing runs, and runs whose config.json does not load back through from_dict."""
    failed = 0
    for call in workload.calls:
        items = runs[call.name]
        failed += call.jobs - len(items)
        for path, doc in items:
            try:
                cfg = vista.config.from_dict(json.loads((path / "config.json").read_text()))
                if cfg.seed != doc["seed"] or cfg.mode != doc["config"]["mode"]:
                    raise ValueError("config.json does not echo the run")
            except Exception as exc:  # any way of not loading back is a failed run
                note(f"{path}: {exc}")
                failed += 1
    return failed


def _final_exact_loss(cfg, last):
    """The program's exact loss at a run's final parameters, from a one-epoch exact run."""
    doc = copy.deepcopy(cfg)
    doc["output"] = None
    doc["shots"]["exact"] = True
    doc["optimizer"]["max_epochs"] = 1
    doc["init"]["theta0"] = last[0]
    if len(last) > 1:
        doc["init"]["phi0"] = last[1]
    return vista.protocols.run_from_config(vista.config.from_dict(doc)).trace["loss"][0]


def check_sweep_sampled(workload, keep):
    runs = load_runs(keep, workload)
    failed = _common_per_run(workload, runs)
    problems, z = [], []

    for name, items in runs.items():
        for path, doc in items:
            cfg, fin = doc["config"], doc["final"]
            if cfg["mode"] == "baseline_fft":
                s = doc["series"]
                t, p_hat = np.asarray(s["t"]), np.asarray(s["p_hat"])
                n, th, g = cfg["n"], cfg["theta_true"], cfg["gamma_true"]
                parity = 0.5 * (1 + np.exp(-2 * n * g * t) * np.cos(2 * n * th * t))
                mags = np.abs(np.fft.rfft(p_hat - p_hat.mean()))
                peak = 1 + int(np.argmax(mags[1:]))
                theta_hat = math.pi * peak / (cfg["baseline"]["total_time"] * n)
                if np.max(np.abs(np.asarray(s["p_exact"]) - parity)) > EXACT_TOL or abs(theta_hat - fin["theta_hat"]) > EXACT_TOL:
                    note(f"{path}: parity series or spectral peak differs from the reference")
                    failed += 1
                continue
            z.append(shot_residuals(cfg, doc["trace"]))
            last = doc["trace"]["params"][-1]
            raw, scale = expected_raw_and_scale(cfg, [last])
            try:
                got = _final_exact_loss(cfg, last)
            except Exception as exc:  # the program failing to evaluate is a failed run
                got = exc
            if not isinstance(got, float) or abs(got - (1 - raw[0] / scale[0])) > EXACT_TOL:
                note(f"{path}: final exact loss {got!r} vs reference {1 - raw[0] / scale[0]!r}")
                failed += 1
    problems += residuals_problem(z, "sweep_sampled")

    # error vs n: a power law between the shot-noise and Heisenberg slopes
    ns, errs = [], []
    for name, items in runs.items():
        if name.startswith("scaling/") and items:
            ns.append(items[0][1]["config"]["n"])
            errs.append(np.mean([doc["final"]["abs_error_theta"] for _, doc in items]))
    if len(ns) < 4:
        return failed, problems + [f"error-vs-n: only {len(ns)} qubit counts have runs"]
    x, y = np.log(ns), np.log(errs)
    slope, icept = np.polyfit(x, y, 1)
    r2 = 1 - np.sum((y - (slope * x + icept)) ** 2) / np.sum((y - y.mean()) ** 2)
    note(f"error-vs-n exponent {slope:.3f}, r^2 {r2:.3f}")
    if not (SCALING_BAND[0] <= slope <= SCALING_BAND[1] and r2 >= SCALING_R2):
        problems.append(f"error-vs-n exponent {slope:.3f} (band {SCALING_BAND}), r^2 {r2:.3f} (>= {SCALING_R2})")

    # decay estimates rise with the true decay
    for name, items in runs.items():
        if name.startswith("decay/"):
            by_gamma = {}
            for path, doc in items:
                g_hat = doc["final"].get("gamma_hat")
                if g_hat is None or not math.isfinite(g_hat):
                    note(f"{path}: flagged or non-finite gamma-hat")
                    failed += 1
                    continue
                by_gamma.setdefault(doc["config"]["gamma_true"], []).append(g_hat)
            medians = [float(np.median(by_gamma[g])) for g in sorted(by_gamma)]
            note(f"{name} gamma-hat medians {np.round(medians, 4).tolist()}")
            if len(medians) < 2 or any(b <= a for a, b in zip(medians, medians[1:])):
                problems.append(f"{name}: gamma-hat medians {medians} do not rise with gamma")

    base = np.median([doc["final"]["abs_error_theta"] for _, doc in runs["head_to_head/baseline"]])
    var = np.median([doc["final"]["abs_error_theta"] for _, doc in runs["head_to_head/vista"]])
    note(f"head-to-head median errors: baseline {base:.4g}, variational {var:.4g}")
    if not base >= HEAD_TO_HEAD_RATIO * var:
        problems.append(f"head-to-head: baseline error {base:.4g} is not {HEAD_TO_HEAD_RATIO}x variational {var:.4g}")
    return failed, problems


def check_two_angle_dense(workload, keep):
    runs = load_runs(keep, workload)
    failed = _common_per_run(workload, runs)
    z = []
    for items in runs.values():
        for path, doc in items:
            bad = {k: doc["final"][k] for k, tol in TWO_ANGLE_TOL.items() if not doc["final"][k] <= tol}
            if bad:
                note(f"{path}: errors {bad} beyond {TWO_ANGLE_TOL}")
                failed += 1
            z.append(shot_residuals(doc["config"], doc["trace"]))
    problems = residuals_problem(z, "two_angle_dense")

    # the program builds its probe with this integrator; it must match the product channel
    cfg = workload.calls[0].doc
    n, steps = cfg["n"], cfg["multiparam"]["probe_steps"]
    ghz = reference.ghz_density(n)
    for theta2 in TWO_ANGLE_THETA2:
        ham = vista.HamiltonianSpec(theta_z=cfg["theta_true"], theta_x=theta2)
        rk4 = vista.lindblad_rk4_oracle(ghz, ham, vista.ChannelSpec("dephasing", cfg["gamma_true"]), steps=steps)
        blocks = reference.two_angle_probe_blocks(cfg["theta_true"], theta2, cfg["gamma_true"])
        dev = float(np.max(np.abs(rk4 - reference.dense_from_blocks(blocks, n))))
        note(f"probe theta2={theta2} n={n}: max deviation from product channel {dev:.2e}")
        if not dev <= PROBE_TOL:
            problems.append(f"probe theta2={theta2}: deviates from the product channel by {dev:.2e}")
    return failed, problems


def exact_losses(cfg, res):
    """Reference losses at the parameters each recorded loss was taken at."""
    params = np.asarray(res.trace["params"], dtype=float)
    p0 = [cfg["init"]["theta0"]] + ([cfg["init"]["phi0"]] if params.shape[1] > 1 else [])
    before = np.vstack([p0, params[:-1]])
    if res.stages:
        ns = np.concatenate([np.full(s["epochs"], s["n"]) for s in res.stages])[: len(before)]
    else:
        ns = cfg["n"]
    raw, scale = expected_raw_and_scale(cfg, before, ns)
    return 1 - raw / scale


def check_exact_inprocess(workload, results):
    failed, problems = 0, []
    by_group = {}
    for call, res in zip(workload.calls, results):
        if res is None:
            continue
        cfg = res.config
        dev = float(np.max(np.abs(np.asarray(res.trace["loss"]) - exact_losses(cfg, res))))
        err = res.final["abs_error_theta"]
        g_hat = res.final.get("gamma_hat", 0.0)
        if not (dev <= EXACT_TOL and err <= EXACT_THETA_TOL and g_hat is not None and math.isfinite(g_hat)):
            note(f"{call.name}: loss deviation {dev:.2e}, |theta error| {err:.2e}, gamma-hat {g_hat}")
            failed += 1
        if call.doc["mode"] in _KIND:
            by_group.setdefault((call.doc["mode"], call.doc["n"]), []).append((call.doc["gamma_true"], g_hat))
    for key, pairs in by_group.items():
        hats = [h for _, h in sorted(pairs)]
        if any(h is None or b is None or b <= h for h, b in zip(hats, hats[1:])):
            problems.append(f"{key}: gamma-hat {hats} does not rise with gamma")
    return failed, problems


def check_reference():
    dev = reference.self_check()
    return [] if dev <= EXACT_TOL else [f"reference formulas deviate from dense oracles by {dev:.2e}"]
