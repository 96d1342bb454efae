"""End-to-end acceptance checks for the full estimation pipeline.

Each test prints one ``[criterion NN] PASS/FAIL`` line with its headline
numbers (visible with ``pytest -s`` or in captured output on failure) and
asserts the same condition, so the pytest status mirrors the printed line.
The file takes a few minutes, dominated by criterion 01's integrator grid
and criterion 10's ten dense two-parameter runs at n=9.

Known red: criterion 05 budgets the expansion remainder of the
amplitude-damping information ratio at 10*gamma^3 for n=10.  The exact
remainder's cubic coefficient there is n(n-1)/8 = 11.25, so the check
misses the budget by 14-25% at every tested gamma and fails.  The
implementation keeps the exact ratio rather than bending it to fit the
budget; test_analysis pins the true remainder values and the 11.25 limit.
"""

import math

import numpy as np

from conftest import qfi_ratio_ampdamp_expansion, random_density, random_hermitian, random_state
from dense import matched_angle, q_hs, qfi_uhlmann, tensor_pauli
from vista.analysis import curvature, qfi_ratio_ampdamp
from vista.config import GradientConfig, from_dict
from vista.dynamics import (
    ChannelSpec,
    HamiltonianSpec,
    circuit_decay,
    closed_form_density,
    closed_form_overlap,
    lindblad_rk4_oracle,
    qubit_channel,
)
from vista.experiments import (
    calibrate_experiment,
    oracle_check,
    replica_seeds,
    scaling_experiment,
)
from vista.measurement import binomial_fraction, loss
from vista.optimize import estimate_gradient
from vista.protocols import run_from_config
from vista.qcore import PAULI_X, PAULI_Z, ghz_density
from vista.rng import STREAM_LOSS, stream

GAMMA_GRID = (0.0, 0.01, 0.05, 0.1, 0.2)
THETA_GRID = (0.0, 0.05, 0.23)
CHANNELS = ("dephasing", "amplitude_damping")

# constant large-shot schedule shared by criteria 9's arms and calibration
SHOTS_1E5 = {"nu_start": 100_000, "nu_end": 100_000, "profile": "constant"}


def _report(num, ok, detail):
    line = f"[criterion {num:02d}] {'PASS' if ok else 'FAIL'}: {detail}"
    print(line, flush=True)
    assert ok, line


def _final_errors(doc, seeds):
    errs = []
    for s in seeds:
        res = run_from_config(from_dict({**doc, "seed": int(s)}))
        errs.append(res.final["abs_error_theta"])
    return np.array(errs)


def test_criterion_01_oracle_equivalence():
    worst = 0.0
    points = 0
    for channel in CHANNELS:
        for n in range(1, 9):
            for gamma in GAMMA_GRID:
                for theta in THETA_GRID:
                    dev = oracle_check(n, theta, gamma, channel, steps=250)
                    worst = max(worst, dev)
                    points += 1
    _report(1, worst <= 1e-6,
            f"max |closed form - rk4| = {worst:.3e} over {points} grid points (tol 1e-6)")


def test_criterion_02_ansatz_matching():
    worst_sym = 0.0
    worst_orc = 0.0
    for kind in CHANNELS:
        for n in (1, 2, 3, 5):
            for gamma in (0.05, 0.2, 0.7):
                for theta in (0.0, 0.15):
                    spec = ChannelSpec(kind, gamma)
                    ham = HamiltonianSpec(theta_z=theta, t=1.0)
                    phi = matched_angle(spec)
                    ansatz = closed_form_density(n, theta, qubit_channel(kind, circuit_decay(kind, phi)))
                    probe = closed_form_density(n, theta, qubit_channel(kind, gamma))
                    worst_sym = max(worst_sym, float(np.max(np.abs(ansatz - probe))))
                    dense = lindblad_rk4_oracle(ghz_density(n), ham, spec, steps=400)
                    worst_orc = max(worst_orc, float(np.max(np.abs(ansatz - dense))))
    ok = worst_sym <= 1e-12 and worst_orc <= 1e-6
    _report(2, ok,
            f"matched circuit vs probe: closed {worst_sym:.3e} (tol 1e-12), "
            f"vs integrator {worst_orc:.3e} (tol 1e-6)")


def test_criterion_03_information_bound():
    rng = np.random.default_rng(7)
    margin = np.inf
    for k in range(500):
        dim = (2, 4, 8)[k % 3]
        rho = random_density(rng, dim, rank=rng.integers(1, dim + 1))
        gen = random_hermitian(rng, dim)
        drho = -1j * (gen @ rho - rho @ gen)
        q = qfi_uhlmann(rho, drho)
        q_surrogate = float(np.einsum("ij,ji->", drho, drho).real)
        margin = min(margin, q - 2 * q_surrogate)
    worst_rel = 0.0
    for k in range(50):
        dim = (2, 4, 8)[k % 3]
        psi = random_state(rng, dim)
        rho = np.outer(psi, psi.conj())
        gen = random_hermitian(rng, dim)
        drho = -1j * (gen @ rho - rho @ gen)
        q = qfi_uhlmann(rho, drho)
        q_surrogate = float(np.einsum("ij,ji->", drho, drho).real)
        worst_rel = max(worst_rel, abs(q - 2 * q_surrogate) / (2 * q_surrogate))
    ok = margin >= -1e-6 and worst_rel <= 1e-4
    _report(3, ok,
            f"min(Q - 2*Q_HS) = {margin:.3e} over 500 states (>= -1e-6); "
            f"pure saturation off by {worst_rel:.2e} rel (tol 1e-4)")


def test_criterion_04_closed_form_curvatures():
    def deph(n, g):
        return lambda t: closed_form_density(n, t, qubit_channel("dephasing", g))

    def amp(n, g):
        return lambda t: closed_form_density(n, t, qubit_channel("amplitude_damping", g))

    theta = 0.05
    worst = 0.0
    pure = qubit_channel("none", 0.0)
    for n in (2, 4, 8):
        for g in (0.01, 0.05, 0.1):
            dq, aq = qubit_channel("dephasing", g), qubit_channel("amplitude_damping", g)
            got = q_hs(deph(n, g), theta, reference=deph(n, 0.0))
            want = curvature(n, dq, pure)
            worst = max(worst, abs(got - want) / want)
            got = q_hs(deph(n, g), theta, reference=deph(n, g))
            want = curvature(n, dq, dq)  # matched pair, gamma' = gamma
            worst = max(worst, abs(got - want) / want)
            got = q_hs(amp(n, g), theta, reference=deph(n, 0.0))
            want = curvature(n, aq, pure)
            worst = max(worst, abs(got - want) / want)
            got = q_hs(deph(n, g), theta, normalize=True)
            want = curvature(n, dq, dq, normalized=True)
            worst = max(worst, abs(got - want) / want)
    _report(4, worst <= 1e-4,
            f"numerical vs closed-form curvature: worst rel dev {worst:.2e} (tol 1e-4)")


def test_criterion_05_ratio_expansion_budget():
    n = 10
    devs = {}
    for gamma in (1e-3, 3e-3, 1e-2):
        dev = abs(qfi_ratio_ampdamp(n, gamma) - qfi_ratio_ampdamp_expansion(n, gamma))
        devs[gamma] = (dev, 10 * gamma**3)
    ok = all(dev <= budget for dev, budget in devs.values())
    detail = ", ".join(
        f"g={g:g}: |rem| {dev:.3e} vs 10g^3 {budget:.1e}" for g, (dev, budget) in devs.items()
    )
    _report(5, ok, detail + " (exact cubic coefficient n(n-1)/8 = 11.25 > 10)")


def test_criterion_06_head_to_head():
    seeds = replica_seeds(0, 20)
    vista = {"mode": "vista_noisy_dephasing", "n": 3, "theta_true": 0.23, "gamma_true": 0.11}
    base = {"mode": "baseline_fft", "n": 3, "theta_true": 0.23, "gamma_true": 0.11}
    mv = float(np.median(_final_errors(vista, seeds)))
    mb = float(np.median(_final_errors(base, seeds)))
    ok = mb >= 0.3 and mv <= 0.03 and mb >= 5 * mv
    _report(6, ok,
            f"median error over 20 seeds: spectral baseline {mb:.4f} (>= 0.3), "
            f"variational {mv:.4f} (<= 0.03), ratio {mb / mv:.0f}x (>= 5x)")


def test_criterion_07_error_scaling():
    rows, fit = scaling_experiment(
        [2, 4, 6, 8, 10, 12], 0.005, 0.05, 100_000, replicas=20, seed=0)
    ok = -1.05 <= fit.exponent <= -0.70 and fit.r_squared >= 0.85
    _report(7, ok,
            f"error vs n exponent {fit.exponent:.4f} (band [-1.05, -0.70]), "
            f"r^2 {fit.r_squared:.4f} (>= 0.85), {len(rows)} sizes x 20 seeds")


def test_criterion_08_convergence_window():
    seeds = replica_seeds(0, 20)
    wide = {"mode": "vista_pure", "n": 8, "theta_true": 0.05,
            "init": {"theta0": 0.05 + math.pi / 8}}
    tight = {"mode": "vista_pure", "n": 8, "theta_true": 0.05,
             "init": {"center": 0.05, "halfwidth": math.pi / 32}}
    casc = {"mode": "cascade", "n": 8, "theta_true": 0.05,
            "cascade": {"n_sequence": [2, 4, 8]},
            "init": {"theta0": 0.05 + math.pi / 8}}
    n_wide = int(np.sum(_final_errors(wide, seeds) > math.pi / 16))
    n_tight = int(np.sum(_final_errors(tight, seeds) <= math.pi / 32))
    n_casc = int(np.sum(_final_errors(casc, seeds) <= math.pi / 32))
    ok = n_wide >= 18 and n_tight >= 18 and n_casc >= 18
    _report(8, ok,
            f"offset-by-pi/8 init lands wrong {n_wide}/20, in-window init right {n_tight}/20, "
            f"staged 2-4-8 rescues wide init {n_casc}/20 (all >= 18)")


def test_criterion_09_joint_decay_learning():
    seeds = replica_seeds(0, 20)
    shared = {"n": 10, "theta_true": 1e-3, "gamma_true": 0.1, "shots": SHOTS_1E5,
              "optimizer": {"decay": 0.99}, "gradient": {"crn": True}}
    qn = {"mode": "vista_noisy_dephasing", **shared}
    pure = {"mode": "vista_pure", "channel": "dephasing", **shared}
    mq = float(np.median(_final_errors(qn, seeds)))
    mp = float(np.median(_final_errors(pure, seeds)))
    ratio_ok = mq <= 2 * mp

    report = calibrate_experiment(
        10, [0.02, 0.04, 0.06, 0.08, 0.10], 1e-3, replicas=10, seed=0,
        overrides={"shots": SHOTS_1E5})
    hats = report["gamma_hat_median"]
    monotone = all(a < b for a, b in zip(hats, hats[1:]))
    raw = float(np.mean([r["raw_mae"] for r in report["holdout"]]))
    cal = float(np.mean([r["calibrated_mae"] for r in report["holdout"]]))
    ok = ratio_ok and monotone and cal < raw
    _report(9, ok,
            f"theta medians qn {mq:.2e} vs pure-ansatz {mp:.2e} (ratio {mq / mp:.2f} <= 2); "
            f"decay estimates monotone={monotone}; held-out mae {raw:.2e} -> {cal:.2e} calibrated")


def test_criterion_10_two_angle_estimation():
    e1s, e2s = [], []
    for s in replica_seeds(0, 10):
        doc = {"mode": "vista_multiparam", "n": 9, "theta_true": 0.05,
               "theta2_true": 0.05, "seed": int(s), "channel": "dephasing",
               "gamma_true": 0.02, "multiparam": {"probe_steps": 800},
               "init": {"center": 0.05, "halfwidth": math.pi / 36}}
        res = run_from_config(from_dict(doc))
        e1s.append(res.final["abs_error_theta"])
        e2s.append(res.final["abs_error_theta2"])
    m1, m2 = float(np.mean(e1s)), float(np.mean(e2s))

    x2, z2 = tensor_pauli(2, PAULI_X), tensor_pauli(2, PAULI_Z)
    x3, z3 = tensor_pauli(3, PAULI_X), tensor_pauli(3, PAULI_Z)
    commute_even = bool(np.all(x2 @ z2 - z2 @ x2 == 0))
    anticommute_odd = bool(np.all(x3 @ z3 + z3 @ x3 == 0))
    ok = m1 < m2 and commute_even and anticommute_odd
    _report(10, ok,
            f"mean |e_theta| {m1:.2e} < mean |e_theta2| {m2:.2e} over 10 seeds; "
            f"n=2 commute exactly: {commute_even}, n=3 anticommute exactly: {anticommute_odd}")


def test_criterion_11_estimator_statistics():
    worst_sigma = 0.0
    n_seeds, nu = 2000, 10_000
    for raw in (0.0, 0.3, 0.7, 0.97):
        p = (1 + raw) / 2
        draws = [2 * binomial_fraction(stream(s, 9), nu, p) - 1 for s in range(n_seeds)]
        se = math.sqrt(4 * p * (1 - p) / (nu * n_seeds))
        worst_sigma = max(worst_sigma, abs(float(np.mean(draws)) - raw) / se)

    pure = qubit_channel("none", 0.0)

    def sampled_loss(seed, shots):
        # one row, whose loss and shifts draw on from one stream, as a sampled run without CRN draws them
        def fn(columns, nu, epoch, rows):
            gen = stream(seed, STREAM_LOSS)
            return [loss(float(closed_form_overlap(3, pure, pure, 0.15 - v)), gen, shots) for v in columns[0]]
        return fn

    grad_cfg = GradientConfig(h=np.array([0.05]))
    nus = (1_000, 10_000, 100_000)
    variances = []
    for shots in nus:
        grads = [estimate_gradient([[0.10]], sampled_loss(s, shots), grad_cfg)[1][0][0]
                 for s in range(300)]
        variances.append(float(np.var(grads)))
    slope = float(np.polyfit(np.log(nus), np.log(variances), 1)[0])
    ok = worst_sigma <= 4.0 and abs(slope + 1) <= 0.15
    _report(11, ok,
            f"overlap estimate unbiased within {worst_sigma:.2f} sigma over {n_seeds} seeds "
            f"(<= 4); gradient-variance slope vs shots {slope:.3f} (-1 +/- 0.15)")
