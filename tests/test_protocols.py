"""End-to-end estimation drivers: single runs, the staged cascade, the FFT
baseline, and the two-parameter product-channel mode."""

import hashlib
import math
import shutil
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vista.config import PHI_CLAMP, from_dict
from vista.dynamics import (
    CHANNEL_AMPDAMP,
    CHANNEL_DEPHASING,
    CHANNEL_NONE,
    CHANNELS,
    ChannelSpec,
    HamiltonianSpec,
    circuit_decay,
    closed_form_overlap,
    lindblad_rk4_oracle,
    qubit_channel,
)
from vista import dynamics, measurement, protocols
from vista.errors import ConfigError, NoPeakError
from vista.experiments import replica_seeds, run_grid
from vista.measurement import binomial_fraction, parity_probability
from vista.optimize import STATUS_BUDGET_EXHAUSTED, STATUS_CONVERGED, STATUS_MAX_EPOCHS
from vista.protocols import (
    STATUS_CASCADE_FAILED,
    STATUS_EARLY_STOPPED,
    baseline_series,
    run_baseline,
    run_baseline_fft,
    run_batch,
    run_from_config,
)
from vista.qcore import ghz_density, ghz_vector
from vista.results import persist
from vista.rng import STREAM_GRAD, STREAM_INIT, STREAM_LOSS, STREAM_PARITY, stream

from dense import trotter_evolve


def _cfg(**doc):
    return from_dict(doc)


def _baseline_cfg(n, theta, gamma, **block):
    return _cfg(mode="baseline_fft", n=n, theta_true=theta, gamma_true=gamma, seed=0, baseline=block)


class TestSingleRun:
    def test_exact_mode_recovers_angle(self):
        cfg = _cfg(
            mode="vista_pure",
            n=4,
            theta_true=0.15,
            seed=1,
            shots={"exact": True},
            optimizer={"decay": 0.98, "max_epochs": 800, "tol_conv": 0.0},
            init={"theta0": 0.05},
        )
        res = run_from_config(cfg)
        assert res.final["abs_error_theta"] < 1e-6
        assert res.status == "max_epochs"
        assert res.param_names == ("theta_hat",)

    def test_decay_estimate_is_exact_angle_inversion(self):
        # freeze the parameters (zero learning rate, one epoch): the reported
        # decay must be the bit-exact inversion of the initial angle
        cfg = _cfg(
            mode="vista_noisy_dephasing",
            n=3,
            theta_true=0.1,
            gamma_true=0.2,
            seed=5,
            shots={"exact": True},
            optimizer={"lr0": 0.0, "max_epochs": 1, "tol_conv": 0.0},
            init={"theta0": 0.1, "phi0": 0.25},
        )
        res = run_from_config(cfg)
        assert res.final["gamma_hat"] == circuit_decay("dephasing", 0.25)
        assert res.final["gamma_flagged"] is False
        assert res.final["abs_error_gamma"] == pytest.approx(abs(res.final["gamma_hat"] - 0.2))
        assert res.final["phi"] == 0.25
        assert res.param_names == ("theta_hat", "phi")

    def test_wide_init_lands_one_basin_off(self):
        # starting a basin period away converges cleanly to the wrong angle
        cfg = _cfg(
            mode="vista_pure",
            n=8,
            theta_true=0.05,
            seed=0,
            shots={"exact": True},
            init={"theta0": 0.05 + np.pi / 8},
        )
        res = run_from_config(cfg)
        assert res.final["abs_error_theta"] == pytest.approx(np.pi / 8, abs=1e-3)

    def test_reproducible_run(self):
        doc = dict(
            mode="vista_noisy_dephasing",
            n=3,
            theta_true=0.1,
            gamma_true=0.05,
            seed=21,
            optimizer={"max_epochs": 25, "tol_conv": 0.0},
        )
        a = run_from_config(_cfg(**doc))
        b = run_from_config(_cfg(**doc))
        np.testing.assert_array_equal(a.trace["params"], b.trace["params"])
        np.testing.assert_array_equal(a.trace["loss"], b.trace["loss"])
        assert a.final == b.final

    def test_time_budget_stop_has_its_own_status(self):
        doc = dict(mode="vista_pure", n=4, theta_true=0.1, seed=3)
        stopped = run_from_config(_cfg(**doc, optimizer={"budget_s": 0.0}))
        assert stopped.status == STATUS_BUDGET_EXHAUSTED
        assert len(stopped.trace["epoch"]) == 1
        normal = run_from_config(_cfg(**doc))
        assert normal.status in (STATUS_MAX_EPOCHS, STATUS_CONVERGED)


class TestCascade:
    def test_exact_staging_recovers_from_wide_start(self):
        cfg = _cfg(
            mode="cascade",
            n=8,
            theta_true=0.15,
            seed=3,
            cascade={"n_sequence": [2, 4, 8]},
            shots={"exact": True},
            init={"theta0": 0.4},
        )
        res = run_from_config(cfg)
        assert res.status == "converged"
        assert res.final["n_final"] == 8
        assert res.final["abs_error_theta"] < 1e-4
        assert [s["n"] for s in res.stages] == [2, 4, 8]
        assert all(s["status"] == "converged" for s in res.stages)
        assert not any(s["window_breach"] for s in res.stages)
        # every handoff stayed inside the next stage's convergence window
        for s, nk in zip(res.stages, [4, 8]):
            assert s["abs_error_theta"] <= np.pi / (2 * nk)

    def test_trace_is_contiguous_across_stages(self):
        cfg = _cfg(
            mode="cascade",
            n=8,
            theta_true=0.15,
            seed=3,
            cascade={"n_sequence": [2, 4, 8]},
            shots={"exact": True},
            init={"theta0": 0.4},
        )
        res = run_from_config(cfg)
        total = len(res.trace["epoch"])
        assert res.trace["epoch"].tolist() == list(range(total))
        assert total == sum(s["epochs"] for s in res.stages)
        assert [s["first_epoch"] for s in res.stages] == [
            0,
            res.stages[0]["epochs"],
            res.stages[0]["epochs"] + res.stages[1]["epochs"],
        ]

    def test_diverged_first_stage_fails_cascade(self):
        cfg = _cfg(
            mode="cascade",
            n=4,
            theta_true=0.1,
            seed=2,
            cascade={"n_sequence": [2, 4]},
            shots={"exact": True},
            optimizer={"lr0": 10.0, "decay": 1.0},
            init={"theta0": 0.2},
        )
        res = run_from_config(cfg)
        assert res.status == STATUS_CASCADE_FAILED
        assert len(res.stages) == 1
        assert res.stages[0]["status"] == "diverged"
        assert res.final["n_final"] == 2

    def test_vanishing_gradient_keeps_previous_estimate(self):
        # decay rate so large the n=4 stage sees no signal: the cascade stops
        # and reports the n=2 result
        cfg = _cfg(
            mode="cascade",
            n=4,
            theta_true=0.1,
            gamma_true=3.0,
            channel="dephasing",
            seed=2,
            cascade={"n_sequence": [2, 4]},
            shots={"exact": True},
            init={"theta0": 0.2},
        )
        res = run_from_config(cfg)
        assert res.status == STATUS_EARLY_STOPPED
        assert res.stages[-1]["rejected_vanishing_gradient"] is True
        assert res.final["n_final"] == 2
        assert res.final["theta_hat"] == res.stages[0]["theta_hat"]

    def test_window_breach_is_flagged_not_fatal(self):
        # frozen first stage hands an estimate 0.3 off; the n=6 window is
        # pi/12, so the handoff is logged as a breach while the run continues
        cfg = _cfg(
            mode="cascade",
            n=6,
            theta_true=0.1,
            seed=4,
            cascade={"n_sequence": [2, 6]},
            shots={"exact": True},
            optimizer={"lr0": 0.0, "max_epochs": 1, "tol_conv": 0.0},
            init={"theta0": 0.4},
        )
        res = run_from_config(cfg)
        assert [s["window_breach"] for s in res.stages] == [False, True]
        assert res.status == "max_epochs"

    def test_sweep_files_keep_their_bytes(self, tmp_path, monkeypatch):
        # sha256 digests of the files that the serial cascade (one batch of one per stage and
        # replica) wrote for these sweeps: two full ladders, two rejected second stages and two
        # diverged first stages.  The runs are noiseless, so their bytes came out the same under
        # numpy's AVX-512, AVX2 and baseline kernels, and under OpenBLAS's Haswell and Prescott kernels.  The
        # sampled digests were re-pinned when each sampled row came to draw its whole run from one stream.
        monkeypatch.chdir(tmp_path)  # relative outputs, so the echoed paths do not depend on tmp_path
        base = dict(
            mode="cascade", n=8, theta_true=0.1, seed=1, cascade={"n_sequence": [2, 4, 8], "g_min": 1.25},
            optimizer={"max_epochs": 30, "tol_conv": 1e-2, "window": 5},
        )
        sampled = dict(base, shots={"nu_start": 2000, "nu_end": 8000}, optimizer=dict(base["optimizer"], lr0=2.0))
        run_grid(_cfg(**base, shots={"exact": True}), {"theta_true": [0.1, 0.3]}, 2, outdir="exact", workers=1)
        run_grid(_cfg(**sampled), {"theta_true": [0.1]}, 2, outdir="sampled", workers=1)
        written = {
            p.relative_to(tmp_path).as_posix(): hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(tmp_path.rglob("*"))
            if p.is_file()
        }
        assert written == {
            "exact/summary.csv": "df8b9bb1e55f5591d3f3180f7c8617f4a63f49e95a7e103c8e527102c1fca87d",
            "exact/theta_true=0.1/seed_0/config.json": "537639034797f6be0fa958b8c6b71df8dbe5f3c3abf3be428bbc988a903e45ac",
            "exact/theta_true=0.1/seed_0/result.json": "8bc524d2f8ac3445dfea6d4afa844be85d2e484c978cb03cacb1e64de15f1cb6",
            "exact/theta_true=0.1/seed_1/config.json": "4dd36807a5b846506ca0ee7f673e87577f55ac2a498df8adb780501561c8ca13",
            "exact/theta_true=0.1/seed_1/result.json": "290f294cb12c3ace67455ade1855c57428cf9e503db9ecb2e7742f64a5d0b079",
            "exact/theta_true=0.3/seed_0/config.json": "25c35f336ed2cd9ff18f8f40971cad95256baab141c955ae4a8ce2ef6a6344f8",
            "exact/theta_true=0.3/seed_0/result.json": "c138da15914ef2a06b589d2a65def571eff1c546b95a77ac221c4c23a85cfa4b",
            "exact/theta_true=0.3/seed_1/config.json": "829d519a9eefaaf3a84e79e70a2f46d78ac8061de0aafdb433cf7486cc287c6e",
            "exact/theta_true=0.3/seed_1/result.json": "61a0b3d722b321779e4e2f80de2e92e54aef8386ab65a3f782d2536e774b9ad4",
            "sampled/summary.csv": "ba76377b05c36954c4bbedb9176c50df6ae09e9a94ec6fe508567b5253bc3ccf",
            "sampled/theta_true=0.1/seed_0/config.json": "f1f7d6e3c763420318cb885232409f8f02cba2978047dc81404e9823d75d763b",
            "sampled/theta_true=0.1/seed_0/result.json": "c08cc90e970e292d64fde0068d29afb35d03b2a4b9936dbb1f5e68270966e7c4",
            "sampled/theta_true=0.1/seed_1/config.json": "bfb3771f33597b40ace48fa7338bc4b4c64955dde11629141e987d5c197de4c4",
            "sampled/theta_true=0.1/seed_1/result.json": "32f1c8c65b230174f5cd0928149e61dc938f0111e97f43d02a47850fec97f53d",
        }


class TestHeisenbergFloor:
    # N copies of a pure GHZ probe of n qubits, whose phase is 2n theta, estimate theta no better than
    # HL = 1/(2n sqrt N).  A run of one parameter spends 3 nu copies per epoch: the loss and its two shifts.
    # Each setting of a swap test is a separate experiment with its own shot noise, so without common
    # random numbers no sampled sweep can beat HL; one that reuses a stream across settings can.
    REPLICAS = 20

    @pytest.mark.parametrize("n", [2, 4, 8])
    def test_sampled_rmse_stays_above_the_heisenberg_limit(self, n):
        theta = 0.05
        base = _cfg(
            mode="vista_pure", n=n, theta_true=theta, seed=11, channel="none",
            shots={"nu_start": 10**4, "nu_end": 10**4, "profile": "constant"},
            init={"center": theta, "halfwidth": math.pi / (4 * n)},
        )
        results = run_batch(base, replica_seeds(base.seed, self.REPLICAS))
        rmse = math.sqrt(np.mean([(r.final["theta_hat"] - theta) ** 2 for r in results]))
        copies = 3 * np.median([r.trace["shots"].sum() for r in results])
        heisenberg = 1 / (2 * n * math.sqrt(copies))
        # an RMSE over R replicas has a relative sampling error of about 1/sqrt(2R); allow three of them
        assert rmse >= heisenberg * (1 - 3 / math.sqrt(2 * self.REPLICAS)), rmse / heisenberg


class TestBaseline:
    def test_exact_spectrum_recovers_integer_cycle_angle(self):
        # 3 full fringe cycles in the window: the peak bin maps back exactly
        theta = 3 * np.pi / 4
        cfg = _baseline_cfg(4, theta, 0.0)
        _, p, _ = baseline_series(cfg)
        assert run_baseline_fft(cfg, p) == pytest.approx(theta, abs=1e-12)

    def test_sub_resolution_angle_aliases_to_first_bin(self):
        # at n=3, theta=0.23 the fringe completes well under one cycle, so the
        # discrete spectrum pins the estimate to the first bin at pi/3
        cfg = _cfg(mode="baseline_fft", n=3, theta_true=0.23, gamma_true=0.11, seed=0)
        res = run_baseline(cfg)
        assert res.status == "done"
        assert res.final["peak_bin"] == 1
        assert res.final["theta_hat"] == pytest.approx(np.pi / 3, abs=1e-12)
        assert res.final["abs_error_theta"] == pytest.approx(0.8171975, abs=1e-6)

    def test_flat_spectrum_raises(self):
        cfg = _baseline_cfg(2, 0.0, 0.0)
        with pytest.raises(NoPeakError):
            run_baseline_fft(cfg, baseline_series(cfg)[1])

    def test_series_content(self):
        bc = _baseline_cfg(2, 0.4, 0.05, total_time=1.0, steps=50, shots_per_step=400)
        t, p, p_hat = baseline_series(bc)
        assert t.shape == (50,)
        assert t[0] == 0.0 and t[-1] == pytest.approx(49 / 50)
        np.testing.assert_allclose(p, 0.5 * (1 + np.exp(-0.2 * t) * np.cos(1.6 * t)), atol=1e-12)
        assert np.all((p_hat >= 0) & (p_hat <= 1))
        _, _, p_hat2 = baseline_series(bc)
        np.testing.assert_array_equal(p_hat, p_hat2)
        # the steps draw shots_per_step shots each, in order, from the one stream (seed, (STREAM_PARITY,))
        rng = stream(bc.seed, STREAM_PARITY)
        assert p_hat.tolist() == [binomial_fraction(rng, 400, pk) for pk in p]

    def test_series_builds_one_generator(self, monkeypatch):
        # the steps share one stream; none builds its own
        built, real = [], protocols.stream
        monkeypatch.setattr(protocols, "stream", lambda *a: built.append(a) or real(*a))
        baseline_series(_baseline_cfg(2, 0.4, 0.05, steps=50))
        assert built == [(0, STREAM_PARITY)]

    def test_exact_series_copies_probabilities(self):
        # the exact series is the parity law itself, returned beside the sampled one
        bc = _baseline_cfg(2, 0.4, 0.05)
        t, p, p_hat = baseline_series(bc)
        np.testing.assert_array_equal(p, parity_probability(2, 0.4, 0.05, t))
        assert p is not p_hat

    def test_run_records_series(self):
        cfg = _cfg(
            mode="baseline_fft",
            n=2,
            theta_true=0.7,
            gamma_true=0.02,
            seed=1,
            baseline={"steps": 80, "shots_per_step": 500},
        )
        res = run_baseline(cfg)
        assert set(res.series) == {"t", "p_exact", "p_hat"}
        assert len(res.series["t"]) == 80


class TestMultiparam:
    @pytest.mark.parametrize("channel", [CHANNEL_DEPHASING, CHANNEL_AMPDAMP])
    def test_commuting_edge_delegates_bit_for_bit(self, channel):
        shared = dict(
            n=4,
            theta_true=0.12,
            seed=7,
            channel=channel,
            gamma_true=0.05,
            optimizer={"max_epochs": 40, "tol_conv": 0.0},
        )
        two = run_from_config(_cfg(mode="vista_multiparam", theta2_true=0.0, **shared))
        one = run_from_config(_cfg(mode="vista_pure", **shared))
        np.testing.assert_array_equal(two.trace["params"], one.trace["params"])
        np.testing.assert_array_equal(two.trace["loss"], one.trace["loss"])
        assert two.final["theta_hat"] == one.final["theta_hat"]

    def test_exact_noiseless_recovery_of_both_angles(self):
        cfg = _cfg(
            mode="vista_multiparam",
            n=4,
            theta_true=0.12,
            theta2_true=0.07,
            seed=2,
            channel="dephasing",
            gamma_true=0.0,
            shots={"exact": True},
            optimizer={"decay": 0.985, "max_epochs": 900, "tol_conv": 0.0},
            multiparam={"probe_steps": 600},
            init={"theta0": 0.10, "theta2_0": 0.05},
        )
        res = run_from_config(cfg)
        assert res.final["abs_error_theta"] < 1e-5
        assert res.final["abs_error_theta2"] < 1e-5
        assert res.param_names == ("theta_hat", "theta2_hat")

    def test_exact_recovery_beyond_dense_sizes(self):
        cfg = _cfg(
            mode="vista_multiparam",
            n=16,
            theta_true=0.05,
            theta2_true=0.04,
            seed=2,
            channel="dephasing",
            gamma_true=0.0,
            shots={"exact": True},
            optimizer={"decay": 0.985, "max_epochs": 900, "tol_conv": 0.0},
            init={"theta0": 0.03, "theta2_0": 0.02},
        )
        res = run_from_config(cfg)
        assert res.final["abs_error_theta"] < 1e-5
        assert res.final["abs_error_theta2"] < 1e-5

    def test_exact_damped_recovery(self):
        # the pure Trotter ansatz against a damped probe: theta2 carries the
        # ansatz bias, which grows with gamma * n
        cfg = _cfg(
            mode="vista_multiparam",
            n=4,
            theta_true=0.05,
            theta2_true=0.04,
            seed=2,
            channel="amplitude_damping",
            gamma_true=0.02,
            shots={"exact": True},
            optimizer={"decay": 0.985, "max_epochs": 900, "tol_conv": 0.0},
            init={"theta0": 0.03, "theta2_0": 0.02},
        )
        res = run_from_config(cfg)
        assert res.final["abs_error_theta"] < 1e-5
        assert res.final["abs_error_theta2"] < 1e-4

    @settings(max_examples=20, deadline=None)
    @given(
        n=st.integers(min_value=1, max_value=6),
        theta=st.floats(min_value=-0.4, max_value=0.4),
        theta2=st.floats(min_value=-0.4, max_value=0.4).filter(lambda v: abs(v) > 1e-3),
        channel=st.sampled_from(CHANNELS),
        gamma=st.floats(min_value=0.0, max_value=0.3),
        d=st.integers(min_value=1, max_value=32),
        start=st.tuples(st.floats(min_value=-0.4, max_value=0.4), st.floats(min_value=-0.4, max_value=0.4)),
    )
    def test_exact_loss_matches_dense_oracles(self, n, theta, theta2, channel, gamma, d, start):
        # the first recorded loss is taken at the start point, before any step
        if channel == CHANNEL_NONE:
            gamma = 0.0
        cfg = _cfg(
            mode="vista_multiparam",
            n=n,
            theta_true=theta,
            theta2_true=theta2,
            seed=0,
            channel=channel,
            gamma_true=gamma,
            shots={"exact": True},
            optimizer={"max_epochs": 1},
            multiparam={"trotter_steps": d},
            init={"theta0": start[0], "theta2_0": start[1]},
        )
        res = run_from_config(cfg)
        rho = lindblad_rk4_oracle(
            ghz_density(n), HamiltonianSpec(theta, theta2), ChannelSpec(channel, gamma), steps=1000
        )
        psi = trotter_evolve(ghz_vector(n), HamiltonianSpec(*start), d)
        assert res.trace["loss"][0] == pytest.approx(1 - np.vdot(psi, rho @ psi).real, abs=1e-10)


class TestDispatchAndStreams:
    def test_dispatch_covers_every_mode(self):
        quick = {"optimizer": {"max_epochs": 3, "tol_conv": 0.0}}
        runs = [
            _cfg(mode="vista_pure", n=2, theta_true=0.1, seed=0, **quick),
            _cfg(mode="vista_noisy_ampdamp", n=2, theta_true=0.1, gamma_true=0.1, seed=0, **quick),
            _cfg(mode="baseline_fft", n=2, theta_true=0.7, gamma_true=0.05, seed=0,
                 baseline={"steps": 40, "shots_per_step": 200}),
        ]
        for cfg in runs:
            res = run_from_config(cfg)
            assert res.seed == 0

    @pytest.mark.parametrize("method", ["central_difference", "parameter_shift"])
    def test_each_run_hands_the_optimizer_its_steps_and_bounds(self, method, monkeypatch):
        # the optimizer names no parameter: each mode's run gives it every column's step and bounds, phi's alone
        # bounded; theta's loss harmonic is 2n, which the parameter-shift rule steps by pi/(4n), and phi's and the
        # two-angle mode's have no single harmonic, so they keep their central-difference steps
        handed, real = [], protocols.run_optimization
        monkeypatch.setattr(protocols, "run_optimization", lambda *a, **kw: handed.append(kw) or real(*a, **kw))
        quick = {"optimizer": {"max_epochs": 2, "tol_conv": 0.0}, "shots": {"exact": True},
                 "gradient": {"method": method, "h_phi": 0.04}}
        for doc in (dict(mode="vista_pure"), dict(mode="vista_noisy_dephasing", gamma_true=0.1),
                    dict(mode="vista_multiparam", theta2_true=0.05, multiparam={"trotter_steps": 4})):
            run_from_config(_cfg(n=3, theta_true=0.1, seed=0, **doc, **quick))
        h = math.pi / 24  # the default theta step, pi/(8n)
        theta = (math.pi / 12, 3.0) if method == "parameter_shift" else (h, 1.0 / (2 * h))
        assert [(kw["steps"], kw["bounds"]) for kw in handed] == [
            (([theta[0]], [theta[1]]), [None]),
            (([theta[0], 0.04], [theta[1], 1.0 / (2 * 0.04)]), [None, (0.0, PHI_CLAMP)]),
            (([h, h], [1.0 / (2 * h)] * 2), [None, None]),
        ]

    def test_unknown_mode_rejected(self):
        # the config checks its mode when it is built, replace included
        cfg = _cfg(mode="vista_pure", n=2, theta_true=0.1, seed=0)
        with pytest.raises(ConfigError, match="annealing"):
            replace(cfg, mode="annealing")

    def test_loss_stream_labels_decorrelate_epochs(self):
        # consecutive epochs draw from sibling streams; the sampled sequence
        # at fixed p must look independent at lag one
        nu = 1000
        draws = np.array(
            [
                binomial_fraction(stream(13, STREAM_LOSS, epoch), nu, 0.5)
                for epoch in range(200)
            ]
        )
        x = draws - draws.mean()
        lag1 = float(np.dot(x[:-1], x[1:]) / np.dot(x, x))
        assert abs(lag1) < 0.2


class TestShotStreams:
    """Which shots a sampled run draws, replayed with ``rng.stream`` and ``binomial_fraction`` alone."""

    _MODES = {
        "vista_pure": dict(n=3, theta_true=0.1, channel="dephasing", gamma_true=0.01),
        "vista_noisy_dephasing": dict(n=4, theta_true=0.02, gamma_true=0.05),
    }

    def _batch(self, mode, crn, count=4):
        """A batch's config and its rows' seeds."""
        base = _cfg(mode=mode, seed=0, shots={"nu_start": 2000, "nu_end": 8000}, init={"theta0": 0.05},
                    gradient={"crn": crn}, optimizer={"max_epochs": 30, "tol_conv": 1e-2, "window": 5},
                    **self._MODES[mode])
        return base, [100 + r for r in range(count)]

    @staticmethod
    def _replay(cfg, seed, trace, crn):
        """The losses and gradient norms of a closed-form run's trace, each epoch scored from its start point.

        Without CRN the row's loss, then each parameter's up and down shift, draw on from the one stream
        (seed, (STREAM_LOSS,)); under CRN the loss draws from (STREAM_LOSS, epoch) and both shifts of parameter
        i from fresh streams (STREAM_GRAD, epoch, i, 0).
        """
        probe = qubit_channel(cfg.channel, cfg.gamma_true)
        noisy = cfg.mode != "vista_pure"
        steps = [cfg.h_theta_effective()] + [cfg.gradient.h_phi] * noisy
        run_stream = stream(seed, STREAM_LOSS)

        def score(point, gen, nu):
            theta, *phi = point
            qubit = qubit_channel(cfg.channel, circuit_decay(cfg.channel, phi[0])) if noisy else (1.0, 0.0)
            raw = closed_form_overlap(cfg.n, probe, qubit, cfg.theta_true - theta)
            t_hat = 2 * binomial_fraction(gen, nu, (1 + raw) / 2) - 1
            return 1.0 - t_hat / math.sqrt(closed_form_overlap(cfg.n, qubit, qubit, 0.0)) if noisy else 1.0 - t_hat

        point = [cfg.init.theta0] + [cfg.init.phi0] * noisy
        losses, norms = [], []
        for epoch, nu in enumerate(trace["shots"].tolist()):
            gen = stream(seed, STREAM_LOSS, epoch) if crn else run_stream
            losses.append(score(point, gen, nu))
            squares = 0.0
            for i, h in enumerate(steps):
                sides = []
                for x in (point[i] + h, point[i] - h):
                    shifted = list(point)
                    shifted[i] = min(max(x, 0.0), PHI_CLAMP) if i == 1 else x
                    sides.append(score(shifted, stream(seed, STREAM_GRAD, epoch, i, 0) if crn else run_stream, nu))
                g = (sides[0] - sides[1]) * (1.0 / (2 * h))
                squares += g * g
            norms.append(math.sqrt(squares))
            point = trace["params"][epoch].tolist()
        return losses, norms

    @pytest.mark.parametrize("crn", [False, True], ids=["independent", "crn"])
    @pytest.mark.parametrize("mode", list(_MODES))
    def test_batch_rows_replay_from_their_streams_to_the_bit(self, mode, crn):
        cfg, seeds = self._batch(mode, crn)
        results = run_batch(cfg, seeds)
        assert len({len(res.trace["epoch"]) for res in results}) > 1  # rows leave the batch at different epochs
        for seed, res in zip(seeds, results):
            losses, norms = self._replay(cfg, seed, res.trace, crn)
            assert res.trace["loss"].tolist() == losses
            assert res.trace["grad_norm"].tolist() == norms

    @pytest.mark.parametrize("crn", [False, True], ids=["independent", "crn"])
    def test_generator_moves(self, crn, monkeypatch):
        # without CRN each row's generator is moved once, when the batch starts; under CRN before each block
        events, philox = [], np.random.Philox

        class Philox(philox):  # the state setter checks the class's name against the state's
            @property
            def state(self):
                return philox.state.__get__(self)

            @state.setter
            def state(self, value):
                events.append("move")
                philox.state.__set__(self, value)

        real_loss = measurement.loss
        monkeypatch.setattr(np.random, "Philox", Philox)
        monkeypatch.setattr(measurement, "loss", lambda *args: events.append("loss") or real_loss(*args))
        cfg, seeds = self._batch("vista_noisy_dephasing", crn)
        results = run_batch(cfg, seeds)
        evaluations = sum(5 * len(res.trace["epoch"]) for res in results)
        assert events.count("loss") == evaluations
        if crn:  # one move per row and block: the recorded loss and the four shifts
            assert events.count("move") == evaluations
        else:
            assert events[: len(seeds)] == ["move"] * len(seeds) and events.count("move") == len(seeds)

    def test_common_random_numbers_cancel_shot_noise(self):
        # at theta_true = 0 a row that starts there sees equal overlaps at its two shifts, +h and -h; under CRN
        # they draw equal shots, so the first gradient is exactly zero, and without it they do not
        for crn in (False, True):
            cfg = _cfg(mode="vista_pure", n=3, theta_true=0.0, seed=7, shots={"nu_start": 1000, "nu_end": 1000},
                       init={"theta0": 0.0}, gradient={"crn": crn}, optimizer={"max_epochs": 1})
            grad_norm = run_from_config(cfg).trace["grad_norm"][0]
            assert (grad_norm == 0.0) == crn

    def test_crn_and_baseline_sweeps_keep_their_bytes(self, tmp_path, monkeypatch):
        # sha256 digests of the files these sweeps wrote when every evaluation of a sampled run drew from its own
        # label's stream: a CRN run still does.  A baseline's result.json files hold the series that it draws, step
        # after step, from its one stream (seed, (STREAM_PARITY,)); its config.json and summary.csv files kept the
        # bytes they had when each step drew from the label (k,)
        monkeypatch.chdir(tmp_path)  # relative outputs, so the echoed paths do not depend on tmp_path
        crn = _cfg(mode="vista_noisy_dephasing", n=4, theta_true=0.02, gamma_true=0.05, seed=3,
                   shots={"nu_start": 2000, "nu_end": 8000}, gradient={"crn": True},
                   optimizer={"max_epochs": 30, "tol_conv": 1e-2, "window": 5})
        run_grid(crn, {"gamma_true": [0.05, 0.1]}, 2, outdir="crn", workers=1)
        run_grid(_baseline_cfg(3, 0.3, 0.1, steps=60, shots_per_step=500), {"n": [2, 3]}, 2, outdir="baseline",
                 workers=1)
        written = {
            p.relative_to(tmp_path).as_posix(): hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(tmp_path.rglob("*"))
            if p.is_file()
        }
        assert written == {
            "baseline/n=2/seed_0/config.json": "a8f45aa1a8e4ace3045fef086f6c9168f42b9d99e40d42e68ce7b645e30be304",
            "baseline/n=2/seed_0/result.json": "5d791ad3cd536a3eb2d29bda9d4a9e882066e167a0199eba196f8457a1d10d3e",
            "baseline/n=2/seed_1/config.json": "1132de0f8f848daad7555980fe87b15ab7c8655d48420bb96d16259aac5b7d3a",
            "baseline/n=2/seed_1/result.json": "e230bcd6e070c2e2d01d747304e09b9b6ce535c56b3478b255226bad3a098468",
            "baseline/n=3/seed_0/config.json": "9319dac7f1bb0ff0f6bdce6802dbd32c903853be8c2351aedc7ccc0dc9fba9d6",
            "baseline/n=3/seed_0/result.json": "27d8d69bbbbd4f5856c8c0ce3ec8701415be33320d31970edbb6e5f3e9eba483",
            "baseline/n=3/seed_1/config.json": "522027557b88ca04a2a379c0581b7727656d653a25df8f8b134b222bfbfedbf2",
            "baseline/n=3/seed_1/result.json": "d0b6dc8e6c972431de0743ed53ccde385c24b7bba7b923ffab7951ebc7cf50e0",
            "baseline/summary.csv": "4a6fd9b307f62312059b71a87e5bb96ffb380ec2c9d52a1a83a1af9e94816f64",
            "crn/gamma_true=0.05/seed_0/config.json": "4f92eaf1e7b2ddfc1cdea3bdb7db486b1f3f7b6af12017ac3a1352b79922f43b",
            "crn/gamma_true=0.05/seed_0/result.json": "d5f27d7e43e052c2f4dca3421d8f7fa9ae670f7990b63b2b034d5411cebd6032",
            "crn/gamma_true=0.05/seed_1/config.json": "1d5fd754e7ddc22567a263e4cce4fadd6de467c21a2719dccffafda45be9b0a1",
            "crn/gamma_true=0.05/seed_1/result.json": "68b7da1bf39d2730dedcff8045a2617805fa9013b1e222587fc54ef848bf4f55",
            "crn/gamma_true=0.1/seed_0/config.json": "f881401fb04355bbdb1aee1feb9e83fe9cece08da93dfc5ec88088030c530bc7",
            "crn/gamma_true=0.1/seed_0/result.json": "3dbb9a3ee94ed01a52f3ff38828a7abfed54fd45bd70ac8161330661c6b928a9",
            "crn/gamma_true=0.1/seed_1/config.json": "2c81ce882761062ffc82bc87d5745770654209441eee66a144da4a0f21bc0d66",
            "crn/gamma_true=0.1/seed_1/result.json": "ee3e0a732d128d7d359370cab953815fdd2f452ee2e1fd022c2533ea26fc419c",
            "crn/summary.csv": "6a6ad18b18ae1cc0701df2d3241230498236b48ba909f3ab46f5c5273bac7948",
        }


_CLOSED_FORM_MODES = {
    "vista_pure": dict(channel="dephasing", gamma_true=0.01),
    "vista_noisy_dephasing": dict(channel="dephasing", gamma_true=0.05),
    "vista_noisy_ampdamp": dict(channel="amplitude_damping", gamma_true=0.04),
}


def _closure(mode, normalization="quasi_normalized"):
    """(cfg, (names, overlaps, frequencies)) of a closed-form mode at n = 7."""
    # a pure ansatz's config refuses quasi-normalization; the closure, which takes the mode apart, still takes it,
    # with purity 1.  The baseline's config accepts every channel and normalization.
    cfg = _cfg(mode="baseline_fft", n=7, theta_true=0.03, seed=0, normalization=normalization,
               **_CLOSED_FORM_MODES[mode])
    return cfg, protocols._closed_form_overlaps(cfg, mode)


class TestClosedFormOverlaps:
    @pytest.mark.parametrize("normalization", ["plain", "quasi_normalized"])
    @pytest.mark.parametrize("mode", list(_CLOSED_FORM_MODES))
    def test_overlaps_match_the_closed_form_to_the_bit(self, mode, normalization):
        cfg, (names, overlaps, _) = _closure(mode, normalization)
        rng = np.random.default_rng(7)
        thetas = rng.uniform(-0.5, 0.5, 24).tolist()
        # phi at 0 of both signs, at the clamp and between, each twice, as a block repeats them; run_optimization
        # hands the closure no phi outside [0, PHI_CLAMP] (test_optimize checks that)
        phis = [0.0, -0.0, PHI_CLAMP, *rng.uniform(0, PHI_CLAMP, 9).tolist()] * 2
        probe = qubit_channel(cfg.channel, cfg.gamma_true)
        rows = overlaps([thetas] if names == ("theta",) else [thetas, phis])
        for theta, phi, (raw, purity) in zip(thetas, phis, rows, strict=True):
            qubit = (1.0, 0.0) if names == ("theta",) else qubit_channel(
                cfg.channel, circuit_decay(cfg.channel, phi)
            )
            assert raw == closed_form_overlap(cfg.n, probe, qubit, cfg.theta_true - theta)
            assert purity == (closed_form_overlap(cfg.n, qubit, qubit, 0.0) if normalization == "quasi_normalized" else 1.0)

    @pytest.mark.parametrize("mode", ["vista_noisy_dephasing", "vista_noisy_ampdamp"])
    def test_noisy_block_decays_each_distinct_phi_once(self, mode, monkeypatch):
        # count the calls of the run's per-phi function that ansatz_factors returns
        calls = []
        real = protocols.ansatz_factors

        def counted(*args):
            at = real(*args)
            return lambda phi: calls.append(phi) or at(phi)

        monkeypatch.setattr(protocols, "ansatz_factors", counted)
        _, (_, overlaps, _) = _closure(mode)
        count, h = 6, 0.01
        theta = [0.01 * k for k in range(count)]
        phi = [0.1 + 0.05 * k for k in range(count)]
        # an epoch's 5L-row block at p = 2: the rows, theta's up and down shifts, then phi's
        block = [
            theta + [t + h for t in theta] + [t - h for t in theta] + theta * 2,
            phi * 3 + [p + h for p in phi] + [p - h for p in phi],
        ]
        overlaps(block)
        assert len(calls) == 3 * count
        overlaps(block)
        assert len(calls) == 6 * count  # kept per block, not per run

    @pytest.mark.parametrize("normalization", ["plain", "quasi_normalized"])
    def test_pure_block_computes_no_factors_per_row(self, normalization, monkeypatch):
        # closed_form_overlap reaches overlap_factors through dynamics, the closure through protocols
        calls = []
        real = dynamics.overlap_factors
        for module in (dynamics, protocols):
            monkeypatch.setattr(module, "overlap_factors", lambda *args: calls.append(args) or real(*args))
        _, (_, overlaps, _) = _closure("vista_pure", normalization)
        assert len(calls) == (2 if normalization == "quasi_normalized" else 1)
        for count in (3, 60):
            assert len(overlaps([[0.01 * k for k in range(count)]])) == count
        assert len(calls) == (2 if normalization == "quasi_normalized" else 1)


class TestDrawInit:
    _GIVEN = {
        "vista_pure": dict(init={"theta0": 0.02}),
        "vista_noisy_ampdamp": dict(gamma_true=0.04, init={"theta0": 0.02}),
        "vista_multiparam": dict(theta2_true=0.04, init={"theta0": 0.02, "theta2_0": 0.01}),
        "cascade": dict(cascade={"n_sequence": [2, 4]}, init={"theta0": 0.02}),
    }

    @pytest.mark.parametrize("mode", list(_GIVEN))
    def test_given_starts_build_no_init_stream(self, mode, monkeypatch):
        calls = []
        real = protocols.stream
        monkeypatch.setattr(protocols, "stream", lambda *args: calls.append(args) or real(*args))
        doc = dict(mode=mode, n=4, theta_true=0.03, seed=5, shots={"exact": True}, optimizer={"max_epochs": 3})
        run_from_config(_cfg(**doc, **self._GIVEN[mode]))
        assert calls == []

    @pytest.mark.parametrize("given", [{}, {"theta0": 0.02}, {"theta2_0": 0.01}])
    def test_drawn_starts_keep_their_values(self, given):
        # the stream's draws go to the drawn values in the order of the names
        cfg = _cfg(mode="vista_multiparam", n=5, theta_true=0.05, theta2_true=0.04, seed=9, init={"center": 0.1, **given})
        hw = np.pi / 10
        rng = stream(9, STREAM_INIT)
        want = [given.get("theta0", None), given.get("theta2_0", None)]
        if want[0] is None:
            want[0] = rng.uniform(0.1 - hw, 0.1 + hw)
        if want[1] is None:
            want[1] = rng.uniform(-hw, hw)
        assert protocols._draw_init(cfg, 9, ("theta", "theta2")) == want
        noisy = _cfg(mode="vista_noisy_dephasing", n=5, theta_true=0.05, gamma_true=0.01, seed=9)
        assert protocols._draw_init(noisy, 9, ("theta", "phi")) == [
            stream(9, STREAM_INIT).uniform(-np.pi / 10, np.pi / 10),
            0.1,
        ]


# one small config per optimizer mode; the damped ones need R >= 5 to catch an array power
_BATCH_MODES = {
    "pure": dict(mode="vista_pure", n=3, theta_true=0.1, channel="dephasing", gamma_true=0.01),
    "dephasing_qn_crn": dict(
        mode="vista_noisy_dephasing", n=4, theta_true=0.02, gamma_true=0.05,
        normalization="quasi_normalized", gradient={"crn": True},
    ),
    "ampdamp_qn": dict(
        mode="vista_noisy_ampdamp", n=10, theta_true=0.01, gamma_true=0.04, normalization="quasi_normalized",
    ),
    "multiparam": dict(
        mode="vista_multiparam", n=5, theta_true=0.05, theta2_true=0.04, multiparam={"trotter_steps": 8},
    ),
    # rows leave the ladder at different stages: diverged first stages and diverged later ones
    "cascade_diverging": dict(
        mode="cascade", n=8, theta_true=0.1, channel="dephasing", gamma_true=0.2,
        cascade={"n_sequence": [2, 4, 8], "g_min": 0.05},
        optimizer={"lr0": 2.0, "max_epochs": 30, "tol_conv": 1e-2, "window": 5},
    ),
    # diverged and rejected stages, and full ladders
    "cascade_rejecting": dict(
        mode="cascade", n=8, theta_true=0.1, channel="dephasing", gamma_true=0.3,
        cascade={"n_sequence": [2, 4, 8], "g_min": 0.1},
        optimizer={"lr0": 1.0, "max_epochs": 30, "tol_conv": 1e-2, "window": 5},
    ),
}


def _batch(name, exact, tmp_path, count=6):
    """A batch's config, its rows' seeds and their outputs."""
    shots = {"exact": True} if exact else {"nu_start": 2000, "nu_end": 8000}
    doc = {"optimizer": {"max_epochs": 30, "tol_conv": 1e-2, "window": 5}, **_BATCH_MODES[name]}
    base = _cfg(seed=0, shots=shots, **doc)
    return base, [100 + r for r in range(count)], [str(tmp_path / f"seed_{r}") for r in range(count)]


def _files(seeds, outputs):
    out = {}
    for seed, output in zip(seeds, outputs):
        for path in sorted(Path(output).iterdir()):
            out[(seed, path.name)] = path.read_bytes()
    return out


class TestLockstepBatch:
    @pytest.mark.parametrize("exact", [False, True], ids=["sampled", "exact"])
    @pytest.mark.parametrize("name", list(_BATCH_MODES))
    def test_batch_persists_the_bytes_of_single_runs(self, name, exact, tmp_path):
        # one batch of 6, six batches of 1 and a 2 + 4 split write the same files, while rows
        # stop at different epochs
        written = []
        for split in ([6], [1] * 6, [2, 4]):
            cfg, seeds, outputs = _batch(name, exact, tmp_path)
            start = 0
            for size in split:
                for res in run_batch(cfg, seeds[start : start + size], outputs[start : start + size]):
                    persist(res, res.config["output"])
                start += size
            written.append(_files(seeds, outputs))
            shutil.rmtree(tmp_path)
        assert len(written[0]) == 6 * 2
        assert all(files == written[0] for files in written[1:])

    def test_batch_rows_stop_one_by_one(self, tmp_path):
        res = run_batch(*_batch("pure", True, tmp_path))
        assert {r.status for r in res} == {STATUS_CONVERGED}
        assert len({len(r.trace["epoch"]) for r in res}) > 1

    @pytest.mark.parametrize("exact", [False, True], ids=["sampled", "exact"])
    @pytest.mark.parametrize("name", ["cascade_diverging", "cascade_rejecting"])
    def test_cascade_rows_leave_the_ladder_at_different_stages(self, name, exact, tmp_path):
        res = run_batch(*_batch(name, exact, tmp_path))
        assert len({len(r.stages) for r in res}) > 1

    @pytest.mark.parametrize(
        "name, exact",
        [(name, False) for name in _BATCH_MODES] + [(name, True) for name in _BATCH_MODES],
        ids=list(_BATCH_MODES) + [f"{name}-exact" for name in _BATCH_MODES],
    )
    def test_one_loss_call_per_row_evaluation(self, name, exact, tmp_path, monkeypatch):
        # the benchmark's traced count of measurement.loss calls relies on this
        calls, draws, streams = [], [], []
        real_loss, real_draw, real_streams = measurement.loss, measurement.binomial_fraction, protocols.Streams

        def counted(raw, gen, *args, **kwargs):
            calls.append(gen is None)
            return real_loss(raw, gen, *args, **kwargs)

        monkeypatch.setattr(measurement, "loss", counted)
        monkeypatch.setattr(measurement, "binomial_fraction", lambda *args: draws.append(1) or real_draw(*args))
        monkeypatch.setattr(protocols, "Streams", lambda *args: streams.append(1) or real_streams(*args))
        res = run_batch(*_batch(name, exact, tmp_path, count=3))
        # a cascade's trace holds its accepted stages; its stage records count every epoch run
        epochs = [sum(s["epochs"] for s in r.stages) if r.stages else len(r.trace["epoch"]) for r in res]
        expected = sum(e * (1 + 2 * len(r.param_names)) for e, r in zip(epochs, res))
        assert len(calls) == expected
        if exact:  # an exact run scores every evaluation with no generator, and builds no stream
            assert all(calls) and draws == streams == []
        else:  # every call of a sampled run carries its generator and draws its shots once
            assert not any(calls) and len(draws) == expected
            assert len(streams) == (max(len(r.stages) for r in res) if res[0].stages else 1)  # one per batch

    @pytest.mark.parametrize(
        "seeds, outputs",
        [([100, 1.5], None), ([100, -1], None), ([100, 101], ["a", ""]), ([100, 101], ["a"]), ([100], ["a", "b"])],
        ids=["fractional-seed", "negative-seed", "empty-output", "fewer-outputs", "more-outputs"],
    )
    def test_batch_refuses_bad_seeds_and_outputs(self, seeds, outputs, tmp_path):
        # each seed and output is held to the config's own rule, and each seed needs its one output
        cfg, _, _ = _batch("pure", True, tmp_path)
        with pytest.raises(ConfigError):
            run_batch(cfg, seeds, outputs)
