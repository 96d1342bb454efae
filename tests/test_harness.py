"""Configuration, persistence, orchestration, CLI behavior and packaging."""

import ast
import csv
import dataclasses
import hashlib
import itertools
import json
import math
import multiprocessing
import os
import re
import shutil
import signal
import subprocess
import sys
import textwrap
import time
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import vista
from vista import cli
from vista import config as cfgmod
from vista import experiments as expmod
from vista import results as resmod
from vista import rng as rngmod
from vista.analysis import BOUND_KINDS
from vista.dynamics import ChannelSpec, HamiltonianSpec, lindblad_rk4_oracle
from vista.errors import ConfigError, DomainError, NoPeakError
from vista.experiments import (
    calibrate_experiment,
    oracle_check,
    replica_seeds,
    run_grid,
    scaling_experiment,
)
from vista.measurement import binomial_fraction
from vista.protocols import run_from_config
from vista.qcore import PAULI_X, ghz_density
from vista.results import RunResult, load, persist, write_summary
from vista.rng import (
    LABEL_WORD_BITS,
    LABEL_WORDS,
    STREAM_GRAD,
    STREAM_LOSS,
    STREAM_REPLICA,
    derive_seed,
    stream,
)

from dense import tensor_pauli

MINIMAL = {"mode": cfgmod.MODE_PURE, "n": 3, "theta_true": 0.1, "seed": 0}

# small sampled run reused across persistence/CLI tests; 25 epochs keeps it cheap
SMALL_RUN = {
    "mode": cfgmod.MODE_PURE,
    "n": 2,
    "theta_true": 0.2,
    "seed": 5,
    "optimizer": {"max_epochs": 25},
}


# the block-valued fields of a config, by name
BLOCKS = {f.name: f.type for f in dataclasses.fields(cfgmod.RunConfig) if dataclasses.is_dataclass(f.type)}


def _cfg(**extra):
    doc = dict(MINIMAL)
    doc.update(extra)
    return cfgmod.from_dict(doc)


def _hash_dir(path):
    out = {}
    for name in sorted(os.listdir(path)):
        with open(os.path.join(path, name), "rb") as fh:
            out[name] = hashlib.sha256(fh.read()).hexdigest()
    return out


class TestConfig:
    def test_minimal_defaults(self):
        cfg = _cfg()
        assert cfg.channel == "none"
        assert cfg.gamma_true == 0.0
        assert cfg.normalization == cfgmod.NORM_PLAIN
        assert cfg.optimizer.lr0 == 0.05
        assert cfg.optimizer.max_epochs == 400
        assert cfg.shots.nu_start == 10000
        assert cfg.shots.nu_end == 40000
        assert cfg.shots.profile == "geometric"
        assert cfg.shots.exact is False
        assert cfg.gradient.method == "central_difference"
        assert cfg.gradient.crn is False
        assert cfg.init.phi0 == 0.1
        assert cfg.output is None

    def test_noisy_modes_default_channel_and_norm(self):
        deph = cfgmod.from_dict(
            {"mode": cfgmod.MODE_NOISY_DEPHASING, "n": 3, "theta_true": 0.1,
             "seed": 0, "gamma_true": 0.1}
        )
        assert deph.channel == "dephasing"
        assert deph.normalization == cfgmod.NORM_QN
        amp = cfgmod.from_dict(
            {"mode": cfgmod.MODE_NOISY_AMPDAMP, "n": 3, "theta_true": 0.1,
             "seed": 0, "gamma_true": 0.1}
        )
        assert amp.channel == "amplitude_damping"
        assert amp.normalization == cfgmod.NORM_QN

    def test_baseline_defaults(self):
        cfg = cfgmod.from_dict(
            {"mode": cfgmod.MODE_BASELINE, "n": 3, "theta_true": 0.3, "seed": 1}
        )
        assert cfg.channel == "dephasing"
        assert cfg.baseline.total_time == 1.0
        assert cfg.baseline.steps == 200
        assert cfg.baseline.shots_per_step == 2500

    def test_derived_step_sizes(self):
        cfg = _cfg(n=4)
        assert cfg.h_theta_effective() == pytest.approx(math.pi / 32)
        assert cfg.init_halfwidth_effective() == pytest.approx(math.pi / 8)
        # explicit values win over the n-scaled defaults
        cfg = _cfg(n=4, gradient={"h_theta": 0.01}, init={"halfwidth": 0.2})
        assert cfg.h_theta_effective() == 0.01
        assert cfg.init_halfwidth_effective() == 0.2

    def test_unknown_top_level_key_named(self):
        with pytest.raises(ConfigError, match="bogus_key"):
            _cfg(bogus_key=1)

    def test_unknown_block_key_named(self):
        with pytest.raises(ConfigError, match="lr"):
            _cfg(optimizer={"lr": 0.1})

    @pytest.mark.parametrize("missing", ["mode", "n", "theta_true", "seed"])
    def test_required_keys(self, missing):
        doc = dict(MINIMAL)
        del doc[missing]
        with pytest.raises(ConfigError, match=missing):
            cfgmod.from_dict(doc)

    def test_unknown_mode(self):
        with pytest.raises(ConfigError, match="annealing"):
            _cfg(mode="annealing")

    def test_channel_none_with_decay_rejected(self):
        with pytest.raises(ConfigError):
            _cfg(channel="none", gamma_true=0.3)
        # nor does any channel carry a decay that is not finite
        for channel in ("none", "dephasing", "amplitude_damping"):
            for gamma in (math.nan, math.inf, -math.inf):
                with pytest.raises(ConfigError, match="finite"):
                    _cfg(channel=channel, gamma_true=gamma)

    @pytest.mark.parametrize(
        "doc",
        [
            {"theta_true": math.nan},
            {"theta_true": math.inf},
            {"mode": cfgmod.MODE_MULTIPARAM, "theta2_true": math.nan},
            {"mode": cfgmod.MODE_MULTIPARAM, "theta2_true": -math.inf},
        ],
        ids=["theta-nan", "theta-inf", "theta2-nan", "theta2-minus-inf"],
    )
    def test_angles_must_be_finite(self, doc, tmp_path, capsys):
        # a config error (exit 1), not a failure at the first sampled loss (exit 2)
        name = "theta2_true" if "theta2_true" in doc else "theta_true"
        with pytest.raises(ConfigError, match=f"{name} must be finite"):
            _cfg(**doc)
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({**MINIMAL, **doc}))
        assert cli.main(["run", "--config", str(path)]) == 1
        assert f"{name} must be finite" in capsys.readouterr().err

    def test_seed_must_be_non_negative(self):
        # numpy's SeedSequence refuses a negative seed with a ValueError; the config refuses it first
        with pytest.raises(ConfigError, match="seed must be >= 0, got -1"):
            _cfg(seed=-1)
        with pytest.raises(ConfigError, match="seed must be >= 0"):
            replace(_cfg(), seed=-3)
        assert _cfg(seed=0).seed == 0

    @pytest.mark.parametrize("seq", [[0, 4], [-3, 4]])
    def test_cascade_sizes_must_be_positive(self, seq, tmp_path, capsys):
        doc = {**MINIMAL, "mode": cfgmod.MODE_CASCADE, "cascade": {"n_sequence": seq}}
        with pytest.raises(ConfigError, match="cascade: n_sequence entries must be >= 1"):
            cfgmod.from_dict(doc)
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        assert cli.main(["run", "--config", str(path)]) == 1

    def test_pure_mode_rejects_quasi_normalization(self):
        with pytest.raises(ConfigError):
            _cfg(normalization=cfgmod.NORM_QN)

    def test_mode_channel_mismatch(self):
        with pytest.raises(ConfigError):
            cfgmod.from_dict(
                {"mode": cfgmod.MODE_NOISY_DEPHASING, "n": 3, "theta_true": 0.1,
                 "seed": 0, "gamma_true": 0.1, "channel": "amplitude_damping"}
            )

    def test_damped_baseline_runs_on_the_damped_parity_law(self, tmp_path):
        # the parity fringe follows the channel: e^{-n gamma t / 2} under damping
        n, theta, gamma = 3, 0.2, 0.1
        doc = {"mode": cfgmod.MODE_BASELINE, "n": n, "theta_true": theta, "gamma_true": gamma, "seed": 0,
               "channel": "amplitude_damping", "baseline": {"steps": 8, "shots_per_step": 100}}
        path = tmp_path / "baseline.json"
        path.write_text(json.dumps(doc))
        assert cli.main(["baseline", "--config", str(path), "--out", str(tmp_path / "out")]) == 0
        series = json.loads((tmp_path / "out" / "result.json").read_text())["series"]
        parity = tensor_pauli(n, PAULI_X)
        for t, p in zip(series["t"][1:], series["p_exact"][1:]):
            ham = HamiltonianSpec(theta_z=theta, t=t)
            rho = lindblad_rk4_oracle(ghz_density(n), ham, ChannelSpec("amplitude_damping", gamma), steps=400)
            assert p == pytest.approx(0.5 * (1 + np.trace(parity @ rho).real), abs=1e-9)
        assert series["p_exact"][0] == 1.0

    def test_accepted_mode_channel_normalization_combinations(self):
        accepted = {
            ("vista_pure", "none", "plain"),
            ("vista_pure", "dephasing", "plain"),
            ("vista_pure", "amplitude_damping", "plain"),
            ("vista_noisy_dephasing", "dephasing", "plain"),
            ("vista_noisy_dephasing", "dephasing", "quasi_normalized"),
            ("vista_noisy_ampdamp", "amplitude_damping", "plain"),
            ("vista_noisy_ampdamp", "amplitude_damping", "quasi_normalized"),
            ("vista_multiparam", "none", "plain"),
            ("vista_multiparam", "dephasing", "plain"),
            ("vista_multiparam", "amplitude_damping", "plain"),
            ("cascade", "none", "plain"),
            ("cascade", "dephasing", "plain"),
            ("cascade", "amplitude_damping", "plain"),
            ("baseline_fft", "none", "plain"),
            ("baseline_fft", "none", "quasi_normalized"),
            ("baseline_fft", "dephasing", "plain"),
            ("baseline_fft", "dephasing", "quasi_normalized"),
            ("baseline_fft", "amplitude_damping", "plain"),
            ("baseline_fft", "amplitude_damping", "quasi_normalized"),
        }
        got = set()
        modes = ("vista_pure", "vista_noisy_dephasing", "vista_noisy_ampdamp", "vista_multiparam", "cascade", "baseline_fft")
        for mode in modes:
            for channel in ("none", "dephasing", "amplitude_damping"):
                for norm in ("plain", "quasi_normalized"):
                    doc = {"mode": mode, "n": 4, "theta_true": 0.1, "seed": 0, "channel": channel,
                           "normalization": norm, "gamma_true": 0.0 if channel == "none" else 0.1,
                           "theta2_true": 0.05, "cascade": {"n_sequence": [2, 4]}}
                    try:
                        cfgmod.from_dict(doc)
                    except ConfigError:
                        continue
                    got.add((mode, channel, norm))
        assert got == accepted

    def test_multiparam_needs_second_angle(self):
        with pytest.raises(ConfigError, match="theta2_true"):
            cfgmod.from_dict(
                {"mode": cfgmod.MODE_MULTIPARAM, "n": 3, "theta_true": 0.1, "seed": 0}
            )

    def test_multiparam_trotter_steps_validation(self, tmp_path, capsys):
        doc = {"mode": cfgmod.MODE_MULTIPARAM, "n": 3, "theta_true": 0.1, "theta2_true": 0.05,
               "seed": 0, "channel": "dephasing", "multiparam": {"trotter_steps": 0}}
        with pytest.raises(ConfigError, match="trotter_steps"):
            cfgmod.from_dict(doc)
        path = tmp_path / "multi.json"
        path.write_text(json.dumps(doc))
        assert cli.main(["run", "--config", str(path), "--out", str(tmp_path / "out")]) == 1
        assert "trotter_steps" in capsys.readouterr().err

    def test_cascade_sequence_validation(self):
        base = {"mode": cfgmod.MODE_CASCADE, "n": 4, "theta_true": 0.1, "seed": 0}
        with pytest.raises(ConfigError):
            cfgmod.from_dict(base)  # no sequence at all
        for bad in ([4], [4, 2], [2, 2, 4]):
            with pytest.raises(ConfigError):
                cfgmod.from_dict({**base, "cascade": {"n_sequence": bad}})
        ok = cfgmod.from_dict({**base, "cascade": {"n_sequence": [2, 4]}})
        assert ok.cascade.n_sequence == (2, 4)

    def test_phi0_range(self):
        # phi0 holds phi's start to the optimizer's bound, so config.json echoes the start it runs
        for bad in (-0.1, 1.6, 1.5707963):
            with pytest.raises(ConfigError, match="^init: phi0 must be finite and in \\[0, PHI_CLAMP\\]"):
                _cfg(init={"phi0": bad})
        assert _cfg(init={"phi0": cfgmod.PHI_CLAMP}).init.phi0 == cfgmod.PHI_CLAMP

    def test_shot_count_validation(self, tmp_path, capsys):
        with pytest.raises(ConfigError):
            _cfg(shots={"nu_start": 100, "nu_end": 50})
        with pytest.raises(ConfigError):
            _cfg(shots={"nu_start": 0})
        with pytest.raises(ConfigError, match="shots"):
            _cfg(shots={"profile": "logarithmic"})
        # the exact flag bypasses count checks entirely
        cfg = _cfg(shots={"nu_start": 100, "nu_end": 50, "exact": True})
        assert cfg.shots.exact is True
        path = tmp_path / "shots.json"
        path.write_text(json.dumps({**MINIMAL, "shots": {"nu_start": 0}}))
        assert cli.main(["run", "--config", str(path)]) == 1
        assert "shots" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "block,key,value",
        [
            ("gradient", "method", "forward_difference"),
            ("optimizer", "max_epochs", 0),
            ("optimizer", "window", 0),
            ("baseline", "steps", 1),
            ("baseline", "total_time", 0.0),
            ("baseline", "shots_per_step", 0),
            # a NaN would switch a stop rule off or fail only once the run starts
            ("optimizer", "lr0", math.nan),
            ("optimizer", "lr0", -0.1),  # climbs the loss
            ("optimizer", "lr0", None),
            ("optimizer", "decay", 0.0),
            ("optimizer", "decay", math.nan),
            ("optimizer", "tol_conv", math.nan),
            ("optimizer", "tol_conv", -1e-5),
            ("optimizer", "budget_s", math.nan),
            ("optimizer", "budget_s", -1.0),
            ("cascade", "g_min", math.nan),
            ("cascade", "g_min", None),
            ("baseline", "total_time", math.nan),
            ("baseline", "total_time", math.inf),
        ],
    )
    def test_block_checks_name_the_field(self, block, key, value, tmp_path, capsys):
        # each block checks its own fields; the config error names block and field
        doc = {**MINIMAL, block: {key: value}}
        with pytest.raises(ConfigError, match=f"{block}: {key}"):
            cfgmod.from_dict(doc)
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        assert cli.main(["run", "--config", str(path)]) == 1
        assert f"{block}: {key}" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "key,value,field",
        [
            ("n", 3.7, "n"),
            ("n", True, "n"),
            ("n", "3", "n"),
            ("seed", 2.9, "seed"),
            ("optimizer", {"max_epochs": 2.5}, "optimizer: max_epochs"),
            ("optimizer", {"window": 2.5}, "optimizer: window"),
            ("optimizer", {"max_epochs": False}, "optimizer: max_epochs"),
            ("baseline", {"shots_per_step": 2500.5}, "baseline: shots_per_step"),
            ("shots", {"nu_start": 100.5}, "shots: nu_start"),
            ("multiparam", {"trotter_steps": 1.5}, "multiparam: trotter_steps"),
            ("cascade", {"n_sequence": [2.5, 4]}, "cascade: n_sequence"),
        ],
    )
    def test_integer_fields_reject_non_integral_values(self, key, value, field, tmp_path, capsys):
        doc = {**MINIMAL, key: value}
        with pytest.raises(ConfigError, match=field):
            cfgmod.from_dict(doc)
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        assert cli.main(["run", "--config", str(path)]) == 1
        assert field in capsys.readouterr().err

    @pytest.mark.parametrize(
        "block,key,value",
        [("shots", "exact", "no"), ("shots", "exact", 0), ("gradient", "crn", "yes"), ("gradient", "crn", 1)],
    )
    def test_boolean_fields_take_only_true_or_false(self, block, key, value, tmp_path, capsys):
        # a string or number is not read for its truth: "no" would otherwise run an exact run
        doc = {**MINIMAL, block: {key: value}}
        with pytest.raises(ConfigError, match=f"{block}: {key} must be true or false"):
            cfgmod.from_dict(doc)
        # the block checks itself, so no config built directly or with replace holds the value either
        with pytest.raises(DomainError, match=f"{key} must be true or false"):
            replace(getattr(_cfg(), block), **{key: value})
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        assert cli.main(["run", "--config", str(path)]) == 1
        assert f"{block}: {key} must be true or false" in capsys.readouterr().err
        assert _cfg(**{block: {key: True}}) != _cfg(**{block: {key: False}})

    @pytest.mark.parametrize(
        "block,key,value",
        [
            ("init", "center", math.inf),
            ("init", "theta0", math.nan),
            ("init", "theta2_0", -math.inf),
            ("init", "halfwidth", math.nan),
            ("init", "halfwidth", -1),
            ("gradient", "h_theta", 0),
            ("gradient", "h_theta", math.inf),
            ("gradient", "h_phi", 0.0),
            ("gradient", "h_phi", math.nan),
        ],
    )
    def test_start_and_step_must_be_finite(self, block, key, value, tmp_path, capsys):
        # each crashed the run: numpy's OverflowError or ValueError on the start's draw, or a
        # NumericsError (exit 2) after the first epoch
        doc = {**MINIMAL, "mode": cfgmod.MODE_MULTIPARAM, "theta2_true": 0.05, block: {key: value}}
        with pytest.raises(ConfigError, match=f"{block}: {key} must be finite"):
            cfgmod.from_dict(doc)
        with pytest.raises(DomainError, match=f"{key} must be finite"):
            replace(getattr(_cfg(), block), **{key: value})
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        assert cli.main(["run", "--config", str(path)]) == 1
        assert f"{block}: {key} must be finite" in capsys.readouterr().err
        # a zero halfwidth starts every replica at the center; a negative step is a step
        assert _cfg(init={"halfwidth": 0.0}, gradient={"h_theta": -0.01, "h_phi": -0.01})

    def test_integral_floats_are_stored_as_ints(self):
        cfg = _cfg(n=3.0, seed=np.int64(4), optimizer={"max_epochs": 30.0}, shots={"nu_start": 1e3, "nu_end": 2e3},
                   cascade={"n_sequence": [2.0, 4]})
        values = (cfg.n, cfg.seed, cfg.optimizer.max_epochs, cfg.shots.nu_start, cfg.shots.nu_end) + cfg.cascade.n_sequence
        assert values == (3, 4, 30, 1000, 2000, 2, 4)
        assert all(type(v) is int for v in values)

    @pytest.mark.parametrize(
        "field,value",
        [
            ("n", 3.5),
            ("n", True),
            ("seed", 2.5),
            ("seed", "2"),
            ("shots.nu_start", 100.5),
            ("multiparam.trotter_steps", 1.5),
            ("cascade.n_sequence", (2, 4.5)),
        ],
    )
    def test_with_overrides_checks_integer_fields(self, field, value):
        # a config checks itself on replace as from_dict checks it, so a changed config cannot carry n = 3.5
        cfg = _cfg()
        block, _, name = field.partition(".")
        message = f"^{name or field}( entry)? must be an integer, got "
        with pytest.raises(DomainError if name else ConfigError, match=message):
            replace(getattr(cfg, block), **{name: value}) if name else replace(cfg, **{field: value})

    def test_replace_stores_an_integral_number_as_from_dict_does(self, tmp_path):
        # replace stores n = 4.0 as the int that a config file gives, so both runs write the same bytes
        replaced = replace(cfgmod.from_dict(SMALL_RUN), n=4.0)
        loaded = cfgmod.from_dict({**SMALL_RUN, "n": 4})
        assert type(replaced.n) is int and replaced == loaded
        persist(run_from_config(replaced), str(tmp_path / "replaced"))
        persist(run_from_config(loaded), str(tmp_path / "loaded"))
        for name in ("config.json", "result.json"):
            assert (tmp_path / "replaced" / name).read_bytes() == (tmp_path / "loaded" / name).read_bytes()
        # an integral float in a block runs as its int: range() takes no float
        optimizer = replace(loaded.optimizer, max_epochs=30.0)
        assert type(optimizer.max_epochs) is int
        assert run_from_config(replace(loaded, optimizer=optimizer)).status

    def test_load_config_errors(self, tmp_path):
        with pytest.raises(ConfigError, match="not found"):
            cfgmod.load_config(str(tmp_path / "nope.json"))
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        with pytest.raises(ConfigError, match="JSON"):
            cfgmod.load_config(str(bad))

    def test_an_empty_output_is_refused_by_name(self):
        # an empty path is no run directory; null, the default, persists nothing
        with pytest.raises(ConfigError, match="^output must be non-empty, got ''$"):
            cfgmod.from_dict({**MINIMAL, "output": ""})
        with pytest.raises(ConfigError, match="^output must be non-empty, got ''$"):
            replace(_cfg(), output="")
        assert cfgmod.from_dict({**MINIMAL, "output": None}).output is None

    def test_load_config_overrides_skip_none(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(MINIMAL))
        cfg = cfgmod.load_config(str(path), {"seed": 9, "output": None})
        assert cfg.seed == 9
        assert cfg.output is None
        # a dict-valued override updates its block key by key
        path.write_text(json.dumps({**MINIMAL, "baseline": {"steps": 80}}))
        cfg = cfgmod.load_config(str(path), {"baseline": {"shots_per_step": 50, "total_time": None}})
        assert (cfg.baseline.steps, cfg.baseline.shots_per_step, cfg.baseline.total_time) == (80, 50, 1.0)

    @pytest.mark.parametrize(
        "doc,argv,message",
        [
            ({**MINIMAL, "mode": cfgmod.MODE_BASELINE, "baseline": 5}, ["baseline", "--steps", "8"],
             "baseline must be a JSON object, got int"),
            ({**MINIMAL, "mode": cfgmod.MODE_BASELINE, "baseline": 0}, ["baseline", "--steps", "8"],
             "baseline must be a JSON object, got int"),
            ({**MINIMAL, "mode": cfgmod.MODE_CASCADE, "cascade": "x"}, ["cascade", "--n-sequence", "2,4"],
             "cascade must be a JSON object, got str"),
            ([MINIMAL], ["run", "--seed", "3"], "config must be a JSON object, got list"),
        ],
        ids=["block-int", "block-zero", "block-str", "document-list"],
    )
    def test_overrides_refuse_a_document_or_block_that_is_not_an_object(self, doc, argv, message, tmp_path, capsys):
        # the override is merged into the block, so the block is checked first, as from_dict checks it
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        assert cli.main([argv[0], "--config", str(path), *argv[1:]]) == 1
        assert capsys.readouterr().err == f"config error: {message}\n"
        # the same error as without the override
        assert cli.main([argv[0], "--config", str(path)]) == 1
        assert capsys.readouterr().err == f"config error: {message}\n"

    def test_every_field_carries_a_rule(self):
        # a field added later cannot skip the table: each field but the mode and the blocks declares its rule
        unruled = []
        for cls in (cfgmod.RunConfig, *BLOCKS.values()):
            for f in dataclasses.fields(cls):
                if "rule" not in f.metadata and f.name != "mode" and f.name not in BLOCKS:
                    unruled.append(f"{cls.__name__}.{f.name}")
        assert not unruled
        assert len(BLOCKS) == 7
        # and each checks itself on construction, replace included
        assert all(issubclass(cls, cfgmod.Checked) for cls in (cfgmod.RunConfig, *BLOCKS.values()))
        with pytest.raises(ConfigError, match=r"^optimizer must be a config\.OptimizerConfig, got \{'max_epochs': 3\}"):
            replace(_cfg(), optimizer={"max_epochs": 3})

    # A fuzz of every field on a vista_noisy_dephasing base.  Each bad value is refused with a ConfigError that
    # names the field, unless it is listed here with the rule that accepts it.
    FUZZ_BASE = {**MINIMAL, "mode": cfgmod.MODE_NOISY_DEPHASING, "gamma_true": 0.1}
    FUZZ_VALUES = {
        "null": None, "string": "x", "empty": "", "nan": math.nan, "inf": math.inf, "-1": -1, "true": True, "[1]": [1],
    }
    FUZZ_ACCEPTED = {
        ("theta_true", "-1"): "an angle may be negative",
        ("theta2_true", "-1"): "an angle may be negative",
        ("theta2_true", "null"): "null keeps the default; only vista_multiparam needs theta2_true",
        ("output", "null"): "null keeps the default: nothing is persisted",
        ("output", "string"): "a path",
        ("shots.exact", "true"): "a bool",
        ("gradient.crn", "true"): "a bool",
        ("gradient.h_theta", "null"): "null keeps the default, pi/(8 n)",
        ("gradient.h_theta", "-1"): "a negative step is a step",
        ("gradient.h_phi", "-1"): "a negative step is a step",
        ("init.theta0", "null"): "null keeps the default: a drawn start",
        ("init.theta0", "-1"): "an angle may be negative",
        ("init.center", "-1"): "an angle may be negative",
        ("init.halfwidth", "null"): "null keeps the default, pi/(2 n)",
        ("init.theta2_0", "null"): "null keeps the default: a drawn start",
        ("init.theta2_0", "-1"): "an angle may be negative",
        ("cascade.n_sequence", "[1]"): "a list of sizes >= 1; its order and length matter only in cascade mode",
    }

    @pytest.mark.parametrize("value", FUZZ_VALUES)
    @pytest.mark.parametrize(
        "field",
        [f.name for f in dataclasses.fields(cfgmod.RunConfig) if f.name != "mode" and f.name not in BLOCKS]
        + [f"{block}.{f.name}" for block, cls in BLOCKS.items() for f in dataclasses.fields(cls)],
    )
    def test_fuzz_every_field_is_refused_by_name_or_accepted_by_a_rule(self, field, value):
        block, _, name = field.rpartition(".")
        bad = self.FUZZ_VALUES[value]
        doc = {**self.FUZZ_BASE, **({block: {name: bad}} if block else {name: bad})}
        if (field, value) in self.FUZZ_ACCEPTED:
            cfgmod.from_dict(doc)
            return
        with pytest.raises(ConfigError) as err:
            cfgmod.from_dict(doc)
        # "block: field" for a block's field, "channel, gamma_true" for the channel's decay
        named = rf"{block}: {name} " if block else rf"({name}|channel, {name}:) "
        assert re.match(named, str(err.value))
        # replace on the block, or on the config, refuses the value with the same message, without "block: "
        base = cfgmod.from_dict(self.FUZZ_BASE)
        with pytest.raises(DomainError if block else ConfigError) as again:
            replace(getattr(base, block), **{name: bad}) if block else replace(base, **{name: bad})
        assert str(again.value) == str(err.value).removeprefix(f"{block}: " if block else "")

    def test_effective_dict_round_trip(self):
        doc = {
            "mode": cfgmod.MODE_CASCADE, "n": 8, "theta_true": 0.1, "seed": 3,
            "cascade": {"n_sequence": [2, 4, 8]},
            "shots": {"exact": True}, "optimizer": {"max_epochs": 5},
        }
        cfg = cfgmod.from_dict(doc)
        assert cfgmod.from_dict(cfgmod.effective_dict(cfg)) == cfg

    @pytest.mark.parametrize(
        "extra",
        [{"mode": "vista_pure"}]
        + [{"mode": mode, "theta2_true": 0.04, "cascade": {"n_sequence": [2, 4]}} for mode in cfgmod.MODES],
        ids=["default", *cfgmod.MODES],
    )
    def test_effective_dict_is_the_asdict_document(self, extra):
        cfg = cfgmod.from_dict({"n": 4, "theta_true": 0.1, "seed": 3, **extra})
        want = dataclasses.asdict(cfg)
        want["cascade"]["n_sequence"] = list(cfg.cascade.n_sequence)
        doc = cfgmod.effective_dict(cfg)
        assert json.dumps(doc) == json.dumps(want)  # the same keys in the same order, and a list
        # the document is the caller's: changing it leaves the config as it was
        doc["n"] = 99
        doc["optimizer"]["lr0"] = 9.0
        doc["cascade"]["n_sequence"].append(99)
        assert cfgmod.effective_dict(cfg) == want


@pytest.fixture(scope="module")
def small_result():
    return run_from_config(cfgmod.from_dict(SMALL_RUN))


class TestResults:
    def test_persisted_files_and_trace_columns(self, small_result, tmp_path):
        persist(small_result, str(tmp_path))
        assert sorted(os.listdir(tmp_path)) == ["config.json", "result.json"]
        trace = json.loads((tmp_path / "result.json").read_text())["trace"]
        assert sorted(trace) == ["epoch", "grad_norm", "loss", "lr", "param_names", "params", "shots"]
        epochs = len(small_result.trace["epoch"])
        assert all(len(trace[key]) == epochs for key in trace if key != "param_names")
        assert all(len(row) == 1 for row in trace["params"])

    def test_trace_floats_are_exact(self, small_result, tmp_path):
        persist(small_result, str(tmp_path))
        first = {key: column[0] for key, column in json.loads((tmp_path / "result.json").read_text())["trace"].items()}
        assert first["loss"] == small_result.trace["loss"][0] and type(first["loss"]) is float
        assert first["shots"] == small_result.trace["shots"][0] and type(first["shots"]) is int

    def test_result_json_structure(self, small_result, tmp_path):
        persist(small_result, str(tmp_path))
        with open(tmp_path / "result.json") as fh:
            text = fh.read()
        assert text.endswith("\n")
        doc = json.loads(text)
        assert doc["status"] == small_result.status
        assert doc["trace"]["param_names"] == ["theta_hat"]
        assert doc["final"]["theta_hat"] == small_result.final["theta_hat"]

    def test_config_echo_loads_as_config(self, small_result, tmp_path):
        persist(small_result, str(tmp_path))
        cfg = cfgmod.load_config(str(tmp_path / "config.json"))
        assert cfg == cfgmod.from_dict(SMALL_RUN)

    def test_rerun_is_byte_identical(self, tmp_path):
        # wall time stays in memory only, so fresh runs persist identically
        for sub in ("a", "b"):
            res = run_from_config(cfgmod.from_dict(SMALL_RUN))
            persist(res, str(tmp_path / sub))
        assert _hash_dir(tmp_path / "a") == _hash_dir(tmp_path / "b")

    def test_noisy_trace_includes_decay_angle(self, tmp_path):
        cfg = cfgmod.from_dict(
            {"mode": cfgmod.MODE_NOISY_DEPHASING, "n": 3, "theta_true": 0.1,
             "seed": 2, "gamma_true": 0.1, "optimizer": {"max_epochs": 5}}
        )
        persist(run_from_config(cfg), str(tmp_path))
        trace = json.loads((tmp_path / "result.json").read_text())["trace"]
        assert trace["param_names"] == ["theta_hat", "phi"]
        assert all(len(row) == 2 for row in trace["params"])

    def test_baseline_persists_series(self, tmp_path):
        cfg = cfgmod.from_dict(
            {"mode": cfgmod.MODE_BASELINE, "n": 3, "theta_true": 0.3, "seed": 1,
             "baseline": {"steps": 20, "shots_per_step": 100}}
        )
        persist(run_from_config(cfg), str(tmp_path))
        assert sorted(os.listdir(tmp_path)) == ["config.json", "result.json"]
        doc = json.loads((tmp_path / "result.json").read_text())
        assert "trace" not in doc
        assert sorted(doc["series"]) == ["p_exact", "p_hat", "t"]
        assert all(len(column) == 20 for column in doc["series"].values())

    def test_empty_trace_persists_empty_columns(self, tmp_path):
        res = RunResult(
            config=dict(MINIMAL),
            seed=0,
            status="done",
            param_names=("theta_hat",),
            trace={
                "epoch": np.array([], dtype=int),
                "loss": np.array([]),
                "params": np.zeros((0, 1)),
                "grad_norm": np.array([]),
                "shots": np.array([], dtype=int),
                "lr": np.array([]),
            },
            final={"theta_hat": 0.0},
        )
        persist(res, str(tmp_path))
        with open(tmp_path / "result.json") as fh:
            trace = json.load(fh)["trace"]
        assert trace.pop("param_names") == ["theta_hat"]
        assert trace == dict.fromkeys(["epoch", "grad_norm", "loss", "lr", "params", "shots"], [])
        assert load(str(tmp_path)).trace["params"].shape == (0, 1)

    def test_write_summary_blanks_missing_keys(self, tmp_path):
        path = tmp_path / "summary.csv"
        write_summary(str(path), ["a", "b"], [{"a": 1, "b": 2.5}, {"a": 3}])
        with open(path) as fh:
            rows = list(csv.reader(fh))
        assert rows == [["a", "b"], ["1", "2.5"], ["3", ""]]


# JSON-like documents: scalars of every kind, flat and 2-D number lists (ragged, with
# empty rows), and nested lists and dicts with str keys
_NUMBERS = st.one_of(st.floats(), st.integers(), st.booleans())
_JSON_LEAVES = st.one_of(
    st.none(),
    _NUMBERS,
    st.text(),
    st.lists(_NUMBERS, max_size=6),
    st.lists(st.lists(_NUMBERS | st.text(max_size=4), max_size=3), max_size=4),
)
_JSON_DOCS = st.recursive(
    _JSON_LEAVES,
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=6), inner, max_size=4),
    max_leaves=24,
)
_EDGE_DOC = {
    "floats": [float("nan"), float("inf"), -float("inf"), -0.0, 5e-324, 1e300, 0.1],
    "ints": [2**70, -(2**64), 0],
    "mixed": [1, 2.5, True, False, None],
    "empty": {"list": [], "dict": {}, "rows": [[]], "ragged": [[1.0], [], [2.0, 3.0]]},
    "params": [[0.125, -0.0], [float("nan"), 3]],
    "deep": [[[1.0]], 5, [[2, [3]], ["x, y"]]],
    "text": ["é ✓ \u0001", 'quote " backslash \\ newline \n', "a, b"],
}

# persist of a hand-built run: literal values only, so the bytes are the same on any host
_GOLDEN_RESULT = RunResult(
    config={
        "mode": "vista_noisy_dephasing", "n": 3, "theta_true": 0.25, "seed": 7, "gamma_true": 0.125,
        "output": None, "channel": "dephasing", "normalization": "quasi_normalized",
        "shots": {"exact": False, "nu_end": 40000, "nu_start": 10000, "profile": "geometric"},
        "cascade": {"g_min": 0.0001, "n_sequence": []},
    },
    seed=7,
    status="converged",
    param_names=("theta_hat", "phi"),
    trace={
        "epoch": np.array([0, 1, 2]),
        "loss": np.array([0.5, 0.1875, -0.0]),
        "params": np.array([[0.125, 0.1], [0.2, 0.0625], [0.25, 1e-300]]),
        "grad_norm": np.array([1.5, 3e-7, np.nan]),
        "shots": np.array([10000, 20000, 40000]),
        "lr": np.array([0.05, 0.04975, 123456789.0]),
    },
    final={"theta_hat": np.float64(0.25), "phi": 1e-300, "loss": -0.0, "epochs": np.int64(3)},
    stages=[{"n": 2, "theta_hat": 0.125, "status": "converged", "window_breach": False}],
)
_GOLDEN_SHA256 = {
    "config.json": "209e4471e79db7a82bae9af68a555e5482b76e3b186fd293a39e427b8e1d09c3",
    "result.json": "72fd311228bad183b6f3cd99b8e13fbde18fb71e61b1aab8b314a8f4774c773d",
}


def _plain(obj):
    """``obj`` with numpy arrays and scalars as Python lists and scalars."""
    if isinstance(obj, dict):
        return {k: _plain(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_plain(v) for v in obj]
    return obj.tolist() if isinstance(obj, (np.ndarray, np.generic)) else obj


def _reference_files(result):
    """The bytes of each file that persist writes, from json.dumps on the run's document."""
    doc = {"config": result.config, "seed": result.seed, "status": result.status, "final": _plain(result.final)}
    if result.trace is not None:
        doc["trace"] = _plain({"param_names": list(result.param_names), **result.trace})
    if result.stages is not None:
        doc["stages"] = _plain(result.stages)
    if result.series is not None:
        doc["series"] = _plain(result.series)
    docs = (("result.json", doc), ("config.json", result.config))
    return {name: (json.dumps(d, indent=2, sort_keys=True) + "\n").encode() for name, d in docs}


_FLOATS = st.sampled_from([-0.0, 0.0, float("nan"), float("inf"), -float("inf"), 5e-324, 1e16]) | st.floats()
_CONFIGS = st.dictionaries(st.text(max_size=6), _JSON_DOCS, max_size=5)


@st.composite
def _run_results(draw):
    """Hand-built runs: 1 to 3 parameters, 0, 1 or many epochs, a trace or a series, stages, None finals."""
    nparams = draw(st.integers(1, 3))
    epochs = draw(st.sampled_from([0, 1]) | st.integers(2, 40))
    column = st.lists(_FLOATS, min_size=epochs, max_size=epochs).map(np.array)
    trace = series = None
    if draw(st.booleans()):
        trace = {
            "epoch": np.arange(epochs),
            "loss": draw(column),
            "params": np.array(draw(st.lists(_FLOATS, min_size=epochs * nparams, max_size=epochs * nparams)))
            .reshape(epochs, nparams),
            "grad_norm": draw(column),
            "shots": np.array(draw(st.lists(st.integers(1, 10**7), min_size=epochs, max_size=epochs)), dtype=int),
            "lr": draw(st.sampled_from([np.full(epochs, 0.05), np.full(epochs, -0.0)]) | column),
        }
    else:
        series = draw(st.dictionaries(st.sampled_from(["t", "p_exact", "p_hat"]), column, min_size=1))
    scalars = st.none() | _FLOATS | st.integers() | st.booleans() | _FLOATS.map(np.float64) | st.integers(0, 99).map(np.int64)
    stage = st.fixed_dictionaries({"n": st.integers(1, 30), "theta_hat": _FLOATS, "status": st.text(max_size=8)})
    return RunResult(
        config=draw(_CONFIGS),
        seed=draw(st.integers(0, 2**63)),
        status=draw(st.sampled_from(["converged", "max_epochs", "diverged"])),
        param_names=("theta_hat", "phi", "theta2_hat")[:nparams],
        trace=trace,
        final=draw(st.dictionaries(st.sampled_from(["theta_hat", "gamma_hat", "loss", "epochs", "flag"]), scalars)),
        stages=draw(st.none() | st.lists(stage, max_size=3)),
        series=series,
    )


_RUN_RESULTS = _run_results()


# -0.0, NaN, both infinities, the least subnormal and a float that needs all 17 digits
_EDGE_FLOATS = np.array([-0.0, float("nan"), float("inf"), -float("inf"), 5e-324, 0.1 + 0.2])


def _one_nan(values):
    """``values`` with each NaN as the one NaN that JSON spells: ``persist`` writes any NaN as ``NaN``."""
    if values.dtype.kind != "f":
        return values
    out = values.copy()
    out[np.isnan(out)] = np.nan
    return out


def _nans(bits, count):
    """``count`` NaNs with the payload ``bits``."""
    return np.full(count, bits, dtype=np.uint64).view(np.float64)


def _hand_run(**columns):
    """A one-parameter run of up to five epochs, with the trace columns given replaced and the rest cut to their length."""
    trace = {
        "epoch": np.arange(5),
        "loss": np.array([0.5, 0.25, 0.125, 0.0625, 0.03125]),
        "params": np.array([[0.1], [0.2], [0.3], [0.4], [0.5]]),
        "grad_norm": np.array([1.0, 0.5, 0.25, 0.125, 0.0625]),
        "shots": np.full(5, 1000),
        "lr": np.full(5, 0.05),
        **columns,
    }
    epochs = min(map(len, trace.values()))
    trace = {key: values[:epochs] for key, values in trace.items()}
    return RunResult(config={"mode": "vista_pure", "seed": 1}, seed=1, status="converged", param_names=("theta_hat",), trace=trace)


class TestWriters:
    """The persistence writers give the bytes of json.dumps(indent=2, sort_keys=True); the loader reads them back."""

    @settings(max_examples=300, deadline=None)
    @given(doc=_JSON_DOCS)
    @example(doc=_EDGE_DOC)
    @example(doc=[["],\n    [", 1.0], [2.0]])  # a string holding the text of a 2-D row boundary
    def test_dumps_matches_json_dumps(self, doc):
        assert resmod._dumps(doc) == json.dumps(doc, indent=2, sort_keys=True)

    @settings(max_examples=150, deadline=None)
    @given(result=_RUN_RESULTS)
    @example(result=_GOLDEN_RESULT)
    def test_persist_matches_the_standard_encoders(self, result, tmp_path_factory):
        out = tmp_path_factory.mktemp("run")
        persist(result, str(out))
        assert {p.name: p.read_bytes() for p in out.iterdir()} == _reference_files(result)

    @settings(max_examples=150, deadline=None)
    @given(result=_RUN_RESULTS)
    @example(result=_GOLDEN_RESULT)
    @example(result=_hand_run(loss=_EDGE_FLOATS, grad_norm=_EDGE_FLOATS[::-1], lr=-_EDGE_FLOATS))
    @example(result=_hand_run(epoch=np.arange(0), params=np.zeros((0, 1))))
    @example(result=RunResult(config={}, seed=0, status="done", series={"t": _EDGE_FLOATS, "p_hat": np.zeros(0)}))
    def test_load_inverts_persist(self, result, tmp_path_factory):
        first, second = tmp_path_factory.mktemp("run"), tmp_path_factory.mktemp("again")
        persist(result, str(first))
        loaded = load(str(first))
        assert loaded.wall_time_s == 0.0
        persist(loaded, str(second))
        assert {p.name: p.read_bytes() for p in second.iterdir()} == {p.name: p.read_bytes() for p in first.iterdir()}
        for want, got in ((result.trace, loaded.trace), (result.series, loaded.series)):
            assert (got is None) == (want is None)
            assert sorted(got or ()) == sorted(want or ())
            for key, values in (want or {}).items():
                assert (got[key].dtype, got[key].shape) == (values.dtype, values.shape), key
                assert got[key].tobytes() == _one_nan(values).tobytes(), key

    @pytest.mark.parametrize(
        "first, second",
        [
            ({"lr": np.zeros(3)}, {"lr": np.full(3, -0.0)}),
            ({"lr": _nans(0x7FF8000000000000, 3)}, {"lr": _nans(0xFFF8000000000001, 3)}),
            ({"lr": np.linspace(0.1, 0.5, 5)}, {"lr": np.linspace(0.1, 0.5, 5)[:3]}),
            ({"lr": np.zeros(3)}, {"lr": np.zeros(3, dtype=int)}),
            ({"shots": np.zeros(3)}, {"shots": np.zeros(3, dtype=int)}),
        ],
        ids=["signed-zero", "nan-payload", "prefix", "int-lr", "int-shots"],
    )
    def test_shared_columns_that_float_equality_confuses(self, first, second, tmp_path):
        # runs persisted one after another in one process, in both orders, each write the bytes a
        # fresh process writes (the standard encoders' bytes): the shared-column cache confuses none of them
        runs = [_hand_run(**columns) for columns in (first, second)]
        for order in (runs, runs[::-1]):
            for k, run in enumerate(order):
                persist(run, str(tmp_path / str(k)))
                assert {p.name: p.read_bytes() for p in (tmp_path / str(k)).iterdir()} == _reference_files(run)

    def test_replicas_format_their_shared_columns_once(self, tmp_path):
        # replicas of a batch share epoch, shots and lr: the second replica finds all three spelled
        resmod._shared_column.cache_clear()
        persist(_hand_run(), str(tmp_path / "a"))
        persist(_hand_run(loss=np.linspace(0.1, 0.9, 5)), str(tmp_path / "b"))
        assert resmod._shared_column.cache_info().hits == 3

    def test_persisted_bytes_are_pinned(self, tmp_path):
        # A change to these digests changes the artifact format and must be reported in CHANGES.md.
        persist(_GOLDEN_RESULT, str(tmp_path))
        assert _hash_dir(tmp_path) == _GOLDEN_SHA256


class TestSharedColumnPrefixes:
    def test_replicas_that_stop_earlier_cut_the_formatted_columns(self, tmp_path):
        # the replicas of a noisy batch stop at different epochs, so their epoch, shots and lr columns are prefixes
        resmod._shared_column.cache_clear()
        resmod._FORMATTED.clear()
        lr = np.linspace(0.1, 0.5, 5)
        for k in (5, 4, 1):
            run = _hand_run(loss=np.linspace(0.2, 0.9, k), lr=lr[:k])
            persist(run, str(tmp_path / str(k)))
            assert {p.name: p.read_bytes() for p in (tmp_path / str(k)).iterdir()} == _reference_files(run)
        assert resmod._shared_column.cache_info().misses == 9
        assert len(resmod._FORMATTED) == 3  # epoch, shots and lr, each formatted once


class TestExperiments:
    def test_replica_seeds_deterministic_and_distinct(self):
        seeds = replica_seeds(7, 5)
        assert seeds == replica_seeds(7, 5)
        assert len(set(seeds)) == 5
        assert seeds == [derive_seed(7, STREAM_REPLICA, r) for r in range(5)]

    def test_run_grid_replicas_and_summary(self, tmp_path):
        base = cfgmod.from_dict(SMALL_RUN)
        rows, outs = run_grid(
            base, {"theta_true": [0.1, 0.3]}, replicas=2, outdir=str(tmp_path), workers=1
        )
        assert [r["theta_true"] for r in rows] == [0.1, 0.3]
        assert all(r["n_runs"] == 2 for r in rows)
        assert all("mean_abs_error_theta" in r for r in rows)
        assert len(outs) == 4 and all("status" in o for o in outs)
        with open(tmp_path / "summary.csv") as fh:
            lines = fh.read().splitlines()
        assert len(lines) == 3
        for tag in ("theta_true=0.1", "theta_true=0.3"):
            for sub in ("seed_0", "seed_1"):
                assert (tmp_path / tag / sub / "result.json").exists()

    @pytest.mark.parametrize(
        "kw, message",
        [
            ({"replicas": 0}, "replicas must be >= 1, got 0"),
            ({"replicas": True}, "replicas must be an integer, got True"),
            ({"replicas": 2.5}, "replicas must be an integer, got 2.5"),
            ({"replicas": float("nan")}, "replicas must be an integer, got nan"),
            ({"workers": 0}, "workers must be >= 1, got 0"),
            ({"workers": -3}, "workers must be >= 1, got -3"),
            ({"workers": True}, "workers must be an integer, got True"),
            ({"workers": 1.5}, "workers must be an integer, got 1.5"),
        ],
    )
    def test_counts_are_refused_by_name_before_any_run(self, kw, message, monkeypatch):
        def no_run(cfgs):
            raise AssertionError("a run started")

        monkeypatch.setattr(expmod.protocols, "run_batch", no_run)
        with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
            run_grid(cfgmod.from_dict(SMALL_RUN), {"theta_true": [0.1]}, **{"replicas": 1, "workers": 1, **kw})

    def test_integral_counts_are_taken_as_int(self, monkeypatch):
        monkeypatch.setattr(expmod, "_run_slice", lambda task: [{"status": "converged"}] * len(task))
        rows, outs = run_grid(cfgmod.from_dict(SMALL_RUN), {"theta_true": [0.1]}, replicas=2.0, workers=np.int64(1))
        assert rows[0]["n_runs"] == 2 and len(outs) == 2

    def test_run_grid_builds_the_config_document_once(self, tmp_path, monkeypatch):
        # the replicas share one document, each with its own seed and output
        calls = []
        real = cfgmod.effective_dict
        monkeypatch.setattr(cfgmod, "effective_dict", lambda cfg: calls.append(cfg) or real(cfg))
        base = cfgmod.from_dict(SMALL_RUN)
        run_grid(base, {"theta_true": [0.1, 0.3]}, replicas=2, outdir=str(tmp_path), workers=1)
        assert len(calls) == 1
        seeds = replica_seeds(base.seed, 2)
        for theta in (0.1, 0.3):
            for r in range(2):
                out = tmp_path / f"theta_true={theta}" / f"seed_{r}"
                doc = json.loads((out / "config.json").read_text())
                assert (doc["theta_true"], doc["seed"], doc["output"]) == (theta, seeds[r], str(out))
                assert {k: v for k, v in doc.items() if k not in ("theta_true", "seed", "output")} == {
                    k: v for k, v in real(base).items() if k not in ("theta_true", "seed", "output")
                }

    @pytest.mark.parametrize("outdir", [None, "sweep/n=2"])
    def test_replica_configs_equal_their_from_dict_configs(self, outdir):
        doc = {**cfgmod.effective_dict(cfgmod.from_dict(SMALL_RUN)), "n": 2.0, "seed": 11}
        replicas = expmod._replica_configs(cfgmod.from_dict(doc), 3, outdir)
        expected = [
            cfgmod.from_dict({**doc, "seed": seed, "output": outdir and os.path.join(outdir, f"seed_{r}")})
            for r, seed in enumerate(replica_seeds(11, 3))
        ]
        assert replicas == expected
        assert list(map(cfgmod.effective_dict, replicas)) == list(map(cfgmod.effective_dict, expected))

    def test_run_grid_rejects_bad_point_before_running(self, tmp_path):
        base = cfgmod.from_dict(SMALL_RUN)
        with pytest.raises(ConfigError):
            run_grid(base, {"n": [2, 0]}, replicas=1, outdir=str(tmp_path), workers=1)
        assert not (tmp_path / "summary.csv").exists()

    def test_run_grid_refuses_points_that_share_a_run_directory(self, tmp_path, monkeypatch):
        # a repeated axis value names one run directory twice, where two workers would write the same files
        def no_run(cfgs):
            raise AssertionError("a run started")

        monkeypatch.setattr(expmod.protocols, "run_batch", no_run)
        base = cfgmod.from_dict(dict(SMALL_RUN, channel="dephasing"))
        message = r"^sweep points 0 and 1 would both write the run directory 'gamma_true=0\.02'$"
        with pytest.raises(ConfigError, match=message):
            run_grid(base, {"gamma_true": [0.02, 0.02]}, 2, outdir=str(tmp_path / "sweep"), workers=2)
        assert not (tmp_path / "sweep").exists()

    def test_run_grid_names_a_point_by_its_stored_value(self, tmp_path, monkeypatch):
        # gamma_true is a float field: 0 is stored as 0.0, and its row and run directory say so
        base = cfgmod.from_dict(dict(SMALL_RUN, channel="dephasing", optimizer={"max_epochs": 5}))
        rows, _ = run_grid(base, {"gamma_true": [0, 0.1], "n": [2.0]}, 1, outdir=str(tmp_path / "sweep"), workers=1)
        assert [(row["gamma_true"], row["n"]) for row in rows] == [(0.0, 2), (0.1, 2)]
        assert [type(row["gamma_true"]) for row in rows] == [float, float] and type(rows[0]["n"]) is int
        assert sorted(os.listdir(tmp_path / "sweep")) == ["gamma_true=0.0_n=2", "gamma_true=0.1_n=2", "summary.csv"]

        # so 0 and 0.0 are one point, which a sweep refuses to run twice
        def no_run(cfgs):
            raise AssertionError("a run started")

        monkeypatch.setattr(expmod.protocols, "run_batch", no_run)
        message = r"^sweep points 0 and 1 would both write the run directory 'gamma_true=0\.0'$"
        with pytest.raises(ConfigError, match=message):
            run_grid(base, {"gamma_true": [0, 0.0]}, 2, outdir=str(tmp_path / "repeated"), workers=1)
        assert not (tmp_path / "repeated").exists()

    @pytest.mark.parametrize(
        "axes",
        [{"theta_true": [0.1, 0.3]}, {}, {"theta_true": [0.1, 0.2, 0.3]}],
        ids=["two-points", "one-point", "three-points"],
    )
    def test_run_grid_files_do_not_depend_on_workers(self, axes, tmp_path):
        # in-process, one batch per point; with two workers, two points run as one task each,
        # and one or three points cut their three replicas into slices of two and one
        base = cfgmod.from_dict(dict(SMALL_RUN, optimizer={"max_epochs": 25, "tol_conv": 1e-2, "window": 5}))
        trees, outs = [], []
        out = tmp_path / "sweep"  # the same path both times: config.json echoes it
        for workers in (1, 2):
            outs.append(run_grid(base, axes, replicas=3, outdir=str(out), workers=workers)[1])
            trees.append({str(p.relative_to(out)): p.read_bytes() for p in sorted(out.rglob("*")) if p.is_file()})
            shutil.rmtree(out)
        points = max(1, len(axes.get("theta_true", [])))
        assert len(trees[0]) == points * 3 * 2 + 1 and "summary.csv" in trees[0]
        assert trees[1] == trees[0]
        assert len(outs[0]) == points * 3 and outs[1] == outs[0]

    def test_oracle_check_matches_closed_form(self):
        assert oracle_check(4, 0.05, 0.1, "dephasing") < 1e-6
        assert oracle_check(3, 0.1, 0.2, "amplitude_damping") < 1e-6

    def test_scaling_experiment_recovers_shot_noise_slope(self):
        rows, fit = scaling_experiment(
            [2, 3, 4, 5], 0.0, 0.1, 500, replicas=1, seed=0, max_epochs=40
        )
        assert [r["n"] for r in rows] == [2, 3, 4, 5]
        assert all(r["n_runs"] == 1 for r in rows)
        # single replica reuses one stream, so the error in the scaled angle
        # n*theta repeats exactly and the fit collapses onto 1/n
        assert fit.exponent == pytest.approx(-1.0, abs=0.02)
        assert fit.r_squared > 0.999

    def test_calibrate_experiment_tracks_decay_grid(self):
        report = calibrate_experiment(
            2, [0.05, 0.3], 1e-3, replicas=1, seed=0,
            overrides={"shots": {"exact": True}, "optimizer": {"max_epochs": 80}},
        )
        assert report["grid"] == [0.05, 0.3]
        hats = report["gamma_hat_median"]
        assert hats[0] < hats[1]
        assert abs(hats[0] - 0.05) < 0.01 and abs(hats[1] - 0.3) < 0.01
        assert float(report["curve"](hats[0])) == pytest.approx(0.05, abs=1e-12)
        row = report["holdout"][0]
        assert row["gamma_true"] == pytest.approx(0.175)
        assert row["raw_mae"] >= 0 and row["calibrated_mae"] >= 0

    # the small settings of the two tests above; the literals pin the rows, the fit and the report,
    # which must not move with the way a command's points are cut into slices and pooled calls
    SCALING_ARGS = ([2, 3, 4, 5], 0.0, 0.1, 500)
    SCALING_KW = {"replicas": 1, "seed": 0, "max_epochs": 40}
    CALIBRATE_ARGS = (2, [0.05, 0.3], 1e-3)
    CALIBRATE_KW = {"replicas": 1, "seed": 0, "overrides": {"shots": {"exact": True}, "optimizer": {"max_epochs": 80}}}

    @pytest.mark.parametrize("workers", [1, 2])
    def test_scaling_experiment_golden(self, workers):
        rows, fit = scaling_experiment(*self.SCALING_ARGS, **self.SCALING_KW, workers=workers)
        assert rows == [
            {"n": 2, "n_runs": 1, "mean_abs_error_theta": 0.026868538244442713, "std_abs_error_theta": 0.0},
            {"n": 3, "n_runs": 1, "mean_abs_error_theta": 0.01791235855983339, "std_abs_error_theta": 0.0},
            {"n": 4, "n_runs": 1, "mean_abs_error_theta": 0.0134342688187018, "std_abs_error_theta": 0.0},
            {"n": 5, "n_runs": 1, "mean_abs_error_theta": 0.010747415006398281, "std_abs_error_theta": 0.0},
        ]
        assert (fit.exponent, fit.intercept, fit.r_squared) == (-1.0000000297876397, -2.9236520588397417, 1.0)

    @pytest.mark.parametrize("workers", [1, 2])
    def test_calibrate_experiment_golden(self, workers):
        report = calibrate_experiment(*self.CALIBRATE_ARGS, **self.CALIBRATE_KW, workers=workers)
        curve = report.pop("curve")
        assert curve.gamma_hat_grid.tolist() == [0.05061443466166795, 0.30976646917341094]
        assert curve.gamma_true_grid.tolist() == [0.05, 0.3]
        assert report == {
            "grid": [0.05, 0.3],
            "gamma_hat_median": [0.05061443466166795, 0.30976646917341094],
            "holdout": [{"gamma_true": 0.175, "raw_mae": 0.005821121211796704, "calibrated_mae": 0.010622696007463905}],
        }

    @pytest.mark.parametrize(
        "experiment,args,kw,message",
        [
            (scaling_experiment, ([2.5, 3, 4, 5], 0.0, 0.05, 1000), {}, "n must be an integer, got 2.5"),
            (scaling_experiment, ([2, 3, 4, 5], 0.0, 0.05, 1000.7), {},
             "shots: nu_start must be an integer, got 1000.7"),
            (scaling_experiment, ([2, 3, 4, 5], 0.0, 0.05, 1000), {"seed": 1.9}, "seed must be an integer, got 1.9"),
            (scaling_experiment, ([2, 3, 4, 5], 0.0, 0.05, 1000), {"max_epochs": 3.5},
             "optimizer: max_epochs must be an integer, got 3.5"),
            (calibrate_experiment, (2.5, [0.05, 0.3], 1e-3), {}, "n must be an integer, got 2.5"),
            (calibrate_experiment, (2, [0.05, 0.3], 1e-3), {"seed": 1.9}, "seed must be an integer, got 1.9"),
        ],
    )
    def test_experiments_refuse_fractional_inputs_by_name(self, experiment, args, kw, message, monkeypatch):
        # each was truncated: n = 2.5 ran as n = 2
        def no_run(cfgs):
            raise AssertionError("a run started")

        monkeypatch.setattr(expmod.protocols, "run_batch", no_run)
        with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
            experiment(*args, replicas=1, workers=1, **kw)

    def test_scaling_refuses_a_size_below_one_before_dividing_by_it(self, monkeypatch):
        # the start window pi / (4 n) and the rate 0.15 / n divided by zero first
        def no_run(cfgs):
            raise AssertionError("a run started")

        monkeypatch.setattr(expmod.protocols, "run_batch", no_run)
        with pytest.raises(ConfigError, match="^n must be >= 1, got 0$"):
            scaling_experiment([0, 2, 3, 4], 0.0, 0.1, 100, replicas=1, workers=1)

    def test_scaling_takes_integral_floats_and_numpy_ints(self):
        # the rows of the golden run, each n the int that its config stored
        args = ([2.0, np.int64(3), 4, 5], 0.0, 0.1, 500.0)
        rows, _ = scaling_experiment(*args, replicas=1, seed=np.int64(0), max_epochs=40.0, workers=1)
        assert rows == scaling_experiment(*self.SCALING_ARGS, **self.SCALING_KW, workers=1)[0]
        assert [type(r["n"]) for r in rows] == [int] * 4

    def test_each_experiment_is_one_pooled_call(self, monkeypatch):
        calls = []
        real = expmod._run_pooled
        monkeypatch.setattr(expmod, "_run_pooled", lambda tasks, cap: calls.append(len(tasks)) or real(tasks, cap))
        scaling_experiment(*self.SCALING_ARGS, **self.SCALING_KW, workers=2)
        assert calls == [4]  # one slice per size
        calibrate_experiment(*self.CALIBRATE_ARGS, **self.CALIBRATE_KW, workers=2)
        assert calls == [4, 3]  # the two grid rates and their midpoint

    def test_run_grid_seed_axis_sets_each_points_seed(self):
        base = cfgmod.from_dict(dict(SMALL_RUN, optimizer={"max_epochs": 10}))
        rows, outs = run_grid(base, {"seed": [1, 2]}, 2, workers=1)
        assert [row["seed"] for row in rows] == [1, 2]
        for k, point in ((1, outs[:2]), (2, outs[2:])):
            assert point == run_grid(replace(base, seed=k), {}, 2, workers=1)[1]
        assert outs[:2] != outs[2:]

    @pytest.mark.parametrize("axes", [{"theta_true": []}, {"gamma_true": [], "n": [2, 3]}, {"n": [2, 3], "seed": ()}])
    def test_run_grid_refuses_an_empty_axis_by_name_before_any_run(self, axes, tmp_path, monkeypatch):
        def no_run(cfgs):
            raise AssertionError("a run started")

        monkeypatch.setattr(expmod.protocols, "run_batch", no_run)
        [empty] = [name for name, values in axes.items() if not values]
        with pytest.raises(ConfigError, match=f"^sweep axis {empty} has no values$"):
            run_grid(cfgmod.from_dict(SMALL_RUN), axes, 2, outdir=str(tmp_path / "sweep"), workers=1)
        assert not (tmp_path / "sweep").exists()

    def test_labeled_streams(self):
        a = stream(5, 1, 2).random(4)
        assert np.array_equal(a, stream(5, 1, 2).random(4))
        assert not np.array_equal(a, stream(5, 1, 3).random(4))
        assert not np.array_equal(a, stream(6, 1, 2).random(4))
        s = derive_seed(5, STREAM_REPLICA, 0)
        assert 0 <= s < 2**63
        # labels of different lengths name different streams
        labels = [(), (0,), (1,), (1, 0), (1, 0, 0), (1, 0, 0, 0), (0, 1), (2**LABEL_WORD_BITS - 1,)]
        draws = {stream(5, *label).bit_generator.random_raw(2).tobytes() for label in labels}
        assert len(draws) == len(labels)

    def test_batch_streams_match_single_streams(self):
        # a batch's rows draw exactly what stream(seed, *label) draws for their seeds
        seeds = [5, 9, 2**40 + 3]
        streams = rngmod.Streams(seeds)
        for label in [(STREAM_LOSS, 7), (STREAM_GRAD, 7, 1, 0)]:
            gens = streams.at([2, 0], label)
            for gen, seed in zip(gens, (seeds[2], seeds[0])):
                assert gen.bit_generator.random_raw(3).tolist() == stream(seed, *label).bit_generator.random_raw(3).tolist()
        with pytest.raises(DomainError, match="label"):
            streams.at([0], (-1,))

    def test_at_keeps_one_generator_per_row(self):
        # a CRN epoch moves each row to its labels one after another, the shifts' label twice, drawing between moves
        seeds = [5, 9, 2**40 + 3]
        streams = rngmod.Streams(seeds)
        labels = [(STREAM_LOSS, 2), (STREAM_GRAD, 2, 0, 0), (STREAM_GRAD, 2, 0, 0)]
        kept = set()
        for label in labels:
            gens = streams.at([2, 0], label)
            kept |= {(r, id(gen)) for r, gen in zip((2, 0), gens)}
            for gen, r in zip(gens, (2, 0)):
                fresh = stream(seeds[r], *label)
                assert gen.bit_generator.random_raw(3).tolist() == fresh.bit_generator.random_raw(3).tolist()
        assert len(kept) == 2

    def test_kept_generators_match_fresh_streams_after_drawing(self):
        # a row's generator, dirtied by draws of every kind, draws what a fresh stream draws once moved
        seeds = [5, 9, 2**40 + 3]
        streams = rngmod.Streams(seeds)
        labels = [(STREAM_LOSS, 7), (STREAM_GRAD, 7, 1, 0), (), (3, 2**LABEL_WORD_BITS - 1, 0, 1)]
        for label, nu in itertools.product(labels, (10, 1000, 100_000)):
            for gen in streams.at([0, 1, 2], (STREAM_LOSS, 0)):
                gen.binomial(100_000, 0.49)
                gen.normal(size=3)
                gen.integers(0, 2**32, dtype=np.uint32)  # leaves the other half word cached
                assert gen.bit_generator.state["has_uint32"] == 1
            for gen, seed in zip(streams.at([1, 2, 0], label), (seeds[1], seeds[2], seeds[0])):
                fresh = stream(seed, *label)
                assert binomial_fraction(gen, nu, 0.3) == binomial_fraction(fresh, nu, 0.3)
                assert gen.integers(0, 2**32, dtype=np.uint32) == fresh.integers(0, 2**32, dtype=np.uint32)
                assert gen.bit_generator.random_raw(5).tolist() == fresh.bit_generator.random_raw(5).tolist()

    def test_kept_generators_follow_the_last_label_in_any_row_order(self):
        seeds = [11, 12, 13]
        label = (STREAM_GRAD, 4, 0, 1)
        expected = [binomial_fraction(stream(seed, *label), 1000, 0.4) for seed in seeds]
        streams = rngmod.Streams(seeds)
        for order in itertools.permutations(range(3)):
            streams.at(list(order), (STREAM_LOSS, 3))  # moved away and not drawn from
            gens = streams.at(list(order), label)
            assert [binomial_fraction(gen, 1000, 0.4) for gen in gens] == [expected[r] for r in order]

    def test_at_constructs_no_generator(self, monkeypatch):
        streams = rngmod.Streams([5, 9])
        built = []
        for name in ("Generator", "Philox"):
            real = getattr(np.random, name)
            monkeypatch.setattr(np.random, name, lambda *a, _real=real, _name=name, **k: built.append(_name) or _real(*a, **k))
        for epoch in range(20):
            for gen in streams.at([1, 0], (STREAM_LOSS, epoch)):
                binomial_fraction(gen, 100, 0.5)
        assert built == []
        stream(5, STREAM_LOSS, 0)  # the patch sees a construction
        assert built == ["Philox", "Generator"]

    def test_at_refuses_a_repeated_row(self):
        # one kept generator cannot stand for two draws of the same row and label
        streams = rngmod.Streams([5, 9])
        with pytest.raises(DomainError, match="row 0 repeated"):
            streams.at([0, 0], (STREAM_LOSS, 3))
        with pytest.raises(DomainError, match="row 1 repeated"):
            streams.at([1, 0, 1], (STREAM_LOSS, 3))
        gen = streams.at([1, 0], (STREAM_LOSS, 3))[1]
        assert binomial_fraction(gen, 1000, 0.4) == binomial_fraction(stream(5, STREAM_LOSS, 3), 1000, 0.4)

    @pytest.mark.parametrize(
        "label",
        [(), (2**LABEL_WORD_BITS - 1,) * LABEL_WORDS, (0,), (STREAM_LOSS, 7), (STREAM_GRAD, 7, 1, 0), (199,),
         (STREAM_GRAD, 2**LABEL_WORD_BITS - 1, 1, 1)],
    )
    def test_label_counter_words_match_the_byte_layout(self, label):
        # the counter as Python ints is the 256-bit little-endian counter cut into 4 uint64 words
        packed = len(label) + sum(word << (4 + LABEL_WORD_BITS * i) for i, word in enumerate(label))
        words = rngmod._label_counter(label)
        assert all(type(word) is int for word in words)
        assert words == np.frombuffer((packed << 64).to_bytes(32, "little"), "<u8").tolist()

    @pytest.mark.parametrize(
        "label",
        [(-1,), (1, -1), (2**LABEL_WORD_BITS,), (0, 2**64 + 1), (0,) * (LABEL_WORDS + 1)],
    )
    def test_stream_label_outside_counter_layout_raises(self, label):
        with pytest.raises(DomainError, match="label"):
            stream(5, *label)
        with pytest.raises(DomainError, match="label"):
            rngmod.Streams([5]).at([0], label)

    @pytest.mark.parametrize("bad", [1.5, 1.0, np.float64(2.0), float("nan"), "3", None])
    def test_seeds_and_label_words_must_be_integers(self, bad):
        # int() would truncate 1.5 to 1 and draw stream 1's numbers under another name
        with pytest.raises(DomainError, match="must be an integer"):
            stream(bad)
        with pytest.raises(DomainError, match="must be an integer"):
            stream(5, STREAM_LOSS, bad)
        with pytest.raises(DomainError, match="must be an integer"):
            rngmod.Streams([5, bad])
        with pytest.raises(DomainError, match="must be an integer"):
            rngmod.Streams([5]).at([0], (bad,))
        with pytest.raises(DomainError, match="must be an integer"):
            derive_seed(bad, STREAM_REPLICA, 0)
        with pytest.raises(DomainError, match="must be an integer"):
            derive_seed(1, STREAM_REPLICA, bad)

    @pytest.mark.parametrize("kind", [int, np.int64, np.uint32, np.int8])
    def test_python_and_numpy_ints_name_the_same_stream(self, kind):
        raw = stream(5, STREAM_LOSS, 7).bit_generator.random_raw(3).tolist()
        assert stream(kind(5), kind(STREAM_LOSS), kind(7)).bit_generator.random_raw(3).tolist() == raw
        [gen] = rngmod.Streams([kind(5)]).at([0], (kind(STREAM_LOSS), kind(7)))
        assert gen.bit_generator.random_raw(3).tolist() == raw
        assert derive_seed(kind(5), kind(STREAM_REPLICA), kind(3)) == derive_seed(5, STREAM_REPLICA, 3)

    def test_stream_builds_one_seed_sequence_per_seed(self, monkeypatch):
        built = []
        real = np.random.SeedSequence

        def counting(*args, **kwargs):
            built.append(args[0] if args else kwargs.get("entropy"))
            return real(*args, **kwargs)

        monkeypatch.setattr(np.random, "SeedSequence", counting)
        rngmod._philox_key.cache_clear()
        seeds = [10**9 + 7, 10**9 + 8, 10**9 + 9]
        for seed in seeds:
            for epoch in range(50):
                stream(seed, STREAM_LOSS, epoch)
                stream(seed, STREAM_GRAD, epoch, 0, 1)
                binomial_fraction(stream(seed, STREAM_GRAD, epoch, 1, 0), 100, 0.5)
        assert sorted(built) == seeds
        assert not isinstance(stream(seeds[0], 1).bit_generator.seed_seq, real)

    def test_stream_raw_bits_are_pinned(self):
        # Raw Philox words depend only on the seed's key and the label's
        # counter, not on numpy's distribution code.  A change to these
        # literals changes every seeded output of the package and must be
        # reported in CHANGES.md.
        assert stream(5, 1, 2).bit_generator.random_raw(3).tolist() == [
            27316888594670530, 11269859136829732089, 13353263656809661434,
        ]
        assert stream(7, STREAM_GRAD, 3, 1, 0).bit_generator.random_raw(3).tolist() == [
            9058021797130148876, 15808105609211896443, 17219924964056315599,
        ]


def _worker_pids():
    return {p.pid for p in multiprocessing.active_children()}


def _alive(pids):
    """The pids that still name a process, zombies included."""
    return {pid for pid in pids if os.path.exists(f"/proc/{pid}")}


def _tree(path):
    return {str(p.relative_to(path)): p.read_bytes() for p in sorted(path.rglob("*")) if p.is_file()}


def _pooled_sweep_in_child(doc, queue):
    rows, _ = run_grid(cfgmod.from_dict(doc), TestKeptPool.AXES, replicas=2, workers=2)
    queue.put((rows, sorted(_worker_pids())))


class TestKeptPool:
    AXES = {"theta_true": [0.1, 0.3]}  # two slices on two workers

    @pytest.fixture()
    def base(self):
        return cfgmod.from_dict(SMALL_RUN)

    def test_pooled_calls_share_the_workers(self, base, tmp_path):
        run_grid(base, self.AXES, replicas=2, outdir=str(tmp_path / "a"), workers=2)
        pids = _worker_pids()
        assert len(pids) == 2
        run_grid(base, self.AXES, replicas=2, outdir=str(tmp_path / "b"), workers=2)
        assert _worker_pids() == pids
        assert _tree(tmp_path / "a").keys() == _tree(tmp_path / "b").keys()

    def test_another_worker_count_joins_the_old_pool(self, base, tmp_path):
        run_grid(base, self.AXES, replicas=2, outdir=str(tmp_path / "a"), workers=2)
        old = _worker_pids()
        run_grid(base, {}, replicas=3, outdir=str(tmp_path / "b"), workers=3)
        assert len(_worker_pids()) == 3
        assert not _alive(old)

    def test_a_killed_worker_gives_a_fresh_pool_and_the_same_files(self, base, tmp_path):
        out = tmp_path / "sweep"  # the same path both times: config.json echoes it
        run_grid(base, self.AXES, replicas=2, outdir=str(out), workers=2)
        before, old = _tree(out), _worker_pids()
        shutil.rmtree(out)
        os.kill(min(old), signal.SIGKILL)
        deadline = time.monotonic() + 30
        while _alive(old) and time.monotonic() < deadline:  # the pool sees the death and joins its workers
            time.sleep(0.01)
        assert not _alive(old)
        run_grid(base, self.AXES, replicas=2, outdir=str(out), workers=2)
        assert _tree(out) == before
        assert len(_worker_pids()) == 2 and not _worker_pids() & old

    def test_the_pool_is_joined_at_exit(self, tmp_path):
        script = textwrap.dedent(
            """
            import json, multiprocessing, sys
            from vista import config
            from vista.experiments import run_grid
            base = config.from_dict(json.loads(sys.argv[1]))
            for k in range(2):
                run_grid(base, {"theta_true": [0.1, 0.3]}, 2, outdir=sys.argv[2] + str(k), workers=2)
            print(json.dumps(sorted(p.pid for p in multiprocessing.active_children())))
            """
        )
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(Path(vista.__file__).parents[1]), os.environ.get("PYTHONPATH", "")]))
        proc = subprocess.run(
            [sys.executable, "-c", script, json.dumps(SMALL_RUN), str(tmp_path / "sweep")],
            capture_output=True, text=True, env=env, timeout=120, check=True,
        )
        pids = json.loads(proc.stdout.splitlines()[-1])
        assert len(pids) == 2
        assert not _alive(pids)

    @pytest.mark.parametrize("method", ["fork", "spawn"])
    def test_a_multiprocessing_child_joins_its_pool_within_the_call(self, base, method):
        # it may stop without the exit hook that joins a kept pool, so it keeps none; a forked one
        # also inherits the parent's pool, which it cannot use
        rows, _ = run_grid(base, self.AXES, replicas=2, workers=2)
        ctx = multiprocessing.get_context(method)
        queue = ctx.Queue()
        child = ctx.Process(target=_pooled_sweep_in_child, args=(SMALL_RUN, queue))
        child.start()
        try:
            child_rows, child_pids = queue.get(timeout=120)
        finally:
            child.join(60)
            if child.is_alive():  # hung
                child.kill()
                child.join()
        assert child.exitcode == 0 and child_rows == rows and child_pids == []

    def test_a_forked_child_joins_its_pool_within_the_call(self, base):
        rows, _ = run_grid(base, self.AXES, replicas=2, workers=2)
        read, write = os.pipe()
        pid = os.fork()
        if pid == 0:  # report the rows and the workers left after the call, then stop at once
            code = 1
            try:
                os.close(read)
                inherited = _worker_pids()  # the parent's workers, which this process did not start
                child_rows, _ = run_grid(base, self.AXES, replicas=2, workers=2)
                os.write(write, json.dumps([child_rows, sorted(_worker_pids() - inherited)]).encode())
                code = 0
            finally:
                os._exit(code)
        os.close(write)
        deadline = time.monotonic() + 60
        while os.waitpid(pid, os.WNOHANG) == (0, 0):
            if time.monotonic() > deadline:  # hung
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
                pytest.fail("the forked child did not finish its sweep")
            time.sleep(0.01)
        with os.fdopen(read) as fh:
            child_rows, child_pids = json.loads(fh.read())
        assert child_rows == json.loads(json.dumps(rows)) and child_pids == []

    def test_an_interrupted_call_waits_for_its_running_slices(self, tmp_path, monkeypatch):
        real_wait = expmod.wait

        def interrupted(futures):
            monkeypatch.setattr(expmod, "wait", real_wait)
            while not all(f.running() or f.done() for f in futures):  # both slices are on the workers
                time.sleep(0.001)
            raise KeyboardInterrupt

        monkeypatch.setattr(expmod, "wait", interrupted)
        base = cfgmod.from_dict({"mode": "baseline_fft", "n": 3, "theta_true": 0.3, "seed": 0, "channel": "none"})
        out = tmp_path / "sweep"
        with pytest.raises(KeyboardInterrupt):
            run_grid(base, {"theta_true": [0.2, 0.3]}, replicas=20, outdir=str(out), workers=2)
        for point in ("theta_true=0.2", "theta_true=0.3"):
            for r in range(20):
                assert sorted(os.listdir(out / point / f"seed_{r}")) == ["config.json", "result.json"]

    def test_a_failing_slice_does_not_end_the_call_early(self, tmp_path):
        # theta 0 with no noise gives a flat parity series, so the first slice raises at its first
        # replica, while the second slice runs all 40 replicas of the point at 0.3
        base = cfgmod.from_dict({"mode": "baseline_fft", "n": 3, "theta_true": 0.3, "seed": 0, "channel": "none"})
        out = tmp_path / "sweep"
        with pytest.raises(NoPeakError):
            run_grid(base, {"theta_true": [0.0, 0.3]}, replicas=40, outdir=str(out), workers=2)
        for r in range(40):
            assert sorted(os.listdir(out / "theta_true=0.3" / f"seed_{r}")) == ["config.json", "result.json"]

    def test_default_cap_is_the_usable_cpus(self, base, tmp_path, monkeypatch):
        def no_pool(*args, **kwargs):
            raise AssertionError("a pool was built for one usable CPU")

        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
        monkeypatch.setattr(expmod, "ProcessPoolExecutor", no_pool)
        monkeypatch.setattr(expmod, "_pool", None)  # a kept pool would have to be built anew
        rows, _ = run_grid(base, self.AXES, replicas=2, outdir=str(tmp_path), workers=None)
        assert [row["n_runs"] for row in rows] == [2, 2]


def _dispatch_levels():
    """The NPY_DISABLE_CPU_FEATURES values that drop numpy's SIMD dispatch one level at a time, highest first.

    Each level is a dispatch target the host supports; on x86 an AVX512_*
    target rides with the X86_V4 level before it.  Disabling a level disables
    every level above it too.
    """
    try:
        from numpy._core._multiarray_umath import __cpu_dispatch__, __cpu_features__
    except ImportError:  # numpy 1.x
        from numpy.core._multiarray_umath import __cpu_dispatch__, __cpu_features__

    levels = []
    for target in __cpu_dispatch__:
        if __cpu_features__.get(target):
            if levels and target.startswith("AVX512_"):
                levels[-1].append(target)
            else:
                levels.append([target])
    return [" ".join(t for level in levels[k:] for t in level) for k in reversed(range(len(levels)))]


class TestDispatchLevels:
    """A (config, seed) pair fixes every persisted byte, whichever SIMD or BLAS kernels numpy dispatches to."""

    # the sweep, then a checksum of BLAS ddot over fixed length-2 vectors, which tells its kernel
    SCRIPT = textwrap.dedent(
        """
        import hashlib, json, sys
        import numpy as np
        from vista import config
        from vista.experiments import run_grid
        for name, doc in json.loads(sys.argv[1]).items():
            run_grid(config.from_dict(doc), {}, 2, outdir=f"sweep/{name}", workers=1)
        a, b = np.random.default_rng(0).uniform(-1, 1, size=(2, 20000, 2))
        print(hashlib.sha256(np.array([np.dot(x, y) for x, y in zip(a, b)]).tobytes()).hexdigest())
        """
    )
    POINT = {"n": 4, "theta_true": 0.2, "seed": 3}
    SAMPLED = {**POINT, "shots": {"nu_start": 2000, "nu_end": 8000}, "optimizer": {"max_epochs": 60}}
    SWEEP = {
        "dephasing": {**SAMPLED, "mode": cfgmod.MODE_NOISY_DEPHASING, "gamma_true": 0.05},
        "damping": {**SAMPLED, "mode": cfgmod.MODE_NOISY_AMPDAMP, "gamma_true": 0.1},
        "baseline": {**POINT, "mode": cfgmod.MODE_BASELINE, "n": 3, "theta_true": 0.3, "gamma_true": 0.1,
                     "baseline": {"steps": 60, "shots_per_step": 500}},
        "two_angle": {**POINT, "mode": cfgmod.MODE_MULTIPARAM, "n": 3, "theta2_true": 0.05, "gamma_true": 0.05,
                      "shots": {"exact": True}, "optimizer": {"max_epochs": 40}},
    }

    @staticmethod
    def _env(**variables):
        """This process's environment with ``variables`` set, and the package under test on the path."""
        return dict(os.environ, **variables, PYTHONPATH=os.pathsep.join(
            [str(Path(vista.__file__).parents[1]), os.environ.get("PYTHONPATH", "")]))

    def _files(self, tmp_path, name, sweep, **variables):
        """The files that ``sweep`` writes in a child under the environment ``variables``, and its ddot checksum."""
        # every child writes under the same relative path, which config.json and result.json echo
        cwd = tmp_path / name
        cwd.mkdir()
        child = subprocess.run([sys.executable, "-c", self.SCRIPT, json.dumps(sweep)], cwd=cwd,
                               env=self._env(**variables), capture_output=True, text=True, timeout=300, check=True)
        files = {str(p.relative_to(cwd)): p.read_bytes() for p in sorted(cwd.rglob("*")) if p.is_file()}
        assert len(files) == len(sweep) * 5  # each point: two runs of two files, and a summary
        return files, child.stdout.split()[-1]

    @staticmethod
    def _changed(default, files):
        return sorted(name for name in default.keys() | files.keys() if default.get(name) != files.get(name))

    def test_seeded_bytes_do_not_depend_on_the_simd_level(self, tmp_path):
        levels = _dispatch_levels()
        if not levels:
            pytest.skip("numpy dispatches no SIMD level above its baseline on this host")
        default, _ = self._files(tmp_path, "default", self.SWEEP, NPY_DISABLE_CPU_FEATURES="")
        for disabled in levels:
            files, _ = self._files(tmp_path, disabled.replace(" ", "_"), self.SWEEP, NPY_DISABLE_CPU_FEATURES=disabled)
            changed = self._changed(default, files)
            assert not changed, f"the default level and NPY_DISABLE_CPU_FEATURES={disabled!r} wrote different {changed}"

    def test_seeded_bytes_do_not_depend_on_the_blas_kernel(self, tmp_path):
        # Every point, the two-angle one included: its epoch writes the Trotter factor out as one
        # rotation and contracts it with one einsum, so no epoch calls BLAS.  The probe's 4x4
        # exponential still multiplies with @, once per run.
        default, dot = self._files(tmp_path, "default", self.SWEEP, OPENBLAS_CORETYPE="")
        files, haswell_dot = self._files(tmp_path, "haswell", self.SWEEP, OPENBLAS_CORETYPE="Haswell")
        if haswell_dot == dot:
            pytest.skip("OPENBLAS_CORETYPE=Haswell runs the same ddot kernel as the default on this host")
        changed = self._changed(default, files)
        assert not changed, f"the default BLAS kernel and OPENBLAS_CORETYPE=Haswell wrote different {changed}"

    # a checksum of the two-angle kernel's factors and overlaps over 24,000 fixed rows, every channel, n 1..11, d 1..119
    KERNEL = textwrap.dedent(
        """
        import hashlib
        import numpy as np
        from vista.dynamics import CHANNELS, ChannelSpec, HamiltonianSpec, ghz_product_overlap, product_channel_blocks
        from vista.dynamics import trotter_unitary
        rng = np.random.default_rng(0)
        digest = hashlib.sha256()
        for trial in range(600):
            kind = CHANNELS[trial % len(CHANNELS)]
            channel = ChannelSpec(kind, 0.0 if kind == "none" else 0.2)
            blocks = product_channel_blocks(HamiltonianSpec(*rng.uniform(-1.5, 1.5, 2)), channel)
            values = rng.uniform(-2.0, 2.0, size=(40, 2))
            u = trotter_unitary(HamiltonianSpec(values[:, 0], values[:, 1]), int(rng.integers(1, 120)))
            digest.update(u.tobytes())
            digest.update(ghz_product_overlap(blocks, u, int(rng.integers(1, 12))).tobytes())
        print(digest.hexdigest())
        """
    )

    def test_two_angle_kernel_bits_do_not_depend_on_the_simd_level_or_the_blas_kernel(self):
        # The sweeps above run one two-angle point.  A kernel that moves one row in a hundred by an ulp passes them:
        # one built on numpy's arctan2, whose AVX-512 and baseline kernels round differently, did.
        def checksum(**variables):
            child = subprocess.run([sys.executable, "-c", self.KERNEL], env=self._env(**variables), capture_output=True,
                                   text=True, timeout=300, check=True)
            return child.stdout.split()[-1]

        default = checksum(NPY_DISABLE_CPU_FEATURES="", OPENBLAS_CORETYPE="")
        for disabled in _dispatch_levels():
            assert checksum(NPY_DISABLE_CPU_FEATURES=disabled) == default, f"NPY_DISABLE_CPU_FEATURES={disabled!r}"
        assert checksum(OPENBLAS_CORETYPE="Haswell") == default, "OPENBLAS_CORETYPE=Haswell"

    # checksums of math.exp, math.cos, math.log and float ** over fixed inputs, then of math.sqrt over them
    LIBM = textwrap.dedent(
        """
        import hashlib, math, random, struct
        rng = random.Random(0)
        xs = [rng.uniform(-20.0, 20.0) for _ in range(50_000)]
        digest = lambda values: hashlib.sha256(struct.pack(f"{len(values)}d", *values)).hexdigest()
        libm = [math.exp(x) for x in xs] + [math.cos(x) for x in xs] + [math.log(abs(x)) for x in xs]
        print(digest(libm + [abs(x) ** 24 for x in xs]), digest([math.sqrt(abs(x)) for x in xs]))
        """
    )

    def test_glibc_picks_libm_variants_per_cpu(self):
        # math calls glibc, which picks an FMA or a plain variant of exp, cos, log and pow for the CPU at load, and
        # they round differently; sqrt is correctly rounded in every variant.  See the README's determinism section.
        def checksums(**variables):
            env = dict(os.environ, **variables)
            child = subprocess.run([sys.executable, "-c", self.LIBM], env=env, capture_output=True, text=True,
                                   timeout=120, check=True)
            return child.stdout.split()

        default_libm, default_sqrt = checksums(GLIBC_TUNABLES="")
        plain_libm, plain_sqrt = checksums(GLIBC_TUNABLES="glibc.cpu.hwcaps=-FMA,-AVX2")
        assert plain_sqrt == default_sqrt
        if plain_libm == default_libm:
            pytest.skip("GLIBC_TUNABLES=glibc.cpu.hwcaps=-FMA,-AVX2 leaves glibc's libm variants as they are on this "
                        "host: a CPU without FMA or AVX2, or a C library that ignores the tunable")
        assert plain_libm != default_libm


class TestCli:
    @pytest.fixture()
    def run_cfg(self, tmp_path):
        path = tmp_path / "run.json"
        path.write_text(json.dumps(SMALL_RUN))
        return str(path)

    def test_run_writes_and_prints(self, run_cfg, tmp_path, capsys):
        out = str(tmp_path / "out")
        assert cli.main(["run", "--config", run_cfg, "--out", out]) == 0
        stdout = capsys.readouterr().out
        assert "status = " in stdout and "theta_hat = " in stdout
        assert os.path.exists(os.path.join(out, "result.json"))

    def test_run_same_dir_rerun_byte_identical(self, run_cfg, tmp_path, capsys):
        out = str(tmp_path / "out")
        cli.main(["run", "--config", run_cfg, "--out", out])
        snap = _hash_dir(out)
        cli.main(["run", "--config", run_cfg, "--out", out])
        capsys.readouterr()
        assert _hash_dir(out) == snap

    def test_run_seed_flag_overrides_config(self, run_cfg, tmp_path, capsys):
        out = str(tmp_path / "out")
        cli.main(["run", "--config", run_cfg, "--out", out, "--seed", "11"])
        capsys.readouterr()
        with open(os.path.join(out, "result.json")) as fh:
            assert json.load(fh)["seed"] == 11

    @pytest.mark.parametrize(
        "command",
        [
            ["run"],
            ["cascade"],
            ["baseline", "--n", "3", "--theta", "0.3", "--seed", "1"],
            ["sweep"],
            ["scaling", "--gamma", "0", "--theta", "0.1", "--shots", "100", "--n", "2", "--replicas", "1"],
            ["bounds", "--gamma", "0", "--nu", "100", "--n", "2"],
            ["calibrate", "--n", "2", "--gammas", "0.1", "--replicas", "1"],
        ],
        ids=lambda c: c[0],
    )
    def test_empty_out_exits_1_and_writes_nothing(self, command, run_cfg, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        config = ["--config", run_cfg] if command[0] in ("run", "cascade", "sweep") else []
        assert cli.main([*command, *config, "--out", ""]) == 1
        out, err = capsys.readouterr()
        assert (out, err) == ("", "config error: output must be non-empty, got ''\n")
        assert os.listdir(tmp_path) == ["run.json"]

    @pytest.mark.parametrize("command", ["run", "cascade"])
    def test_crn_run_says_so(self, command, tmp_path, capsys):
        # a CRN estimate's shot noise is coupled across each gradient difference, so its output marks it
        doc = dict(SMALL_RUN)
        if command == "cascade":
            doc.update(mode=cfgmod.MODE_CASCADE, n=4, cascade={"n_sequence": [2, 4]})
        printed = {}
        for crn in (True, False):
            path = tmp_path / f"crn_{crn}.json"
            path.write_text(json.dumps(dict(doc, gradient={"crn": crn})))
            assert cli.main([command, "--config", str(path)]) == 0
            printed[crn] = [line for line in capsys.readouterr().out.splitlines() if line.startswith("crn")]
        assert printed == {True: ["crn = true"], False: []}

    def test_run_negative_seed_exits_1(self, run_cfg, tmp_path, capsys):
        assert cli.main(["run", "--config", run_cfg, "--out", str(tmp_path / "out"), "--seed", "-1"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and "seed must be >= 0, got -1" in err and "Traceback" not in err
        assert not (tmp_path / "out").exists()

    def test_missing_config_exits_1(self, tmp_path, capsys):
        ret = cli.main(["run", "--config", str(tmp_path / "nope.json")])
        assert ret == 1
        assert "config error" in capsys.readouterr().err

    def test_usage_errors_exit_1(self, run_cfg):
        with pytest.raises(SystemExit) as exc:
            cli.main(["run", "--config", run_cfg, "--no-such-flag"])
        assert exc.value.code == 1
        with pytest.raises(SystemExit) as exc:
            cli.main([])
        assert exc.value.code == 1

    def test_oracle_check_passes(self, capsys):
        ret = cli.main(["oracle-check", "--n", "4", "--gamma", "0.1",
                        "--channel", "dephasing"])
        out = capsys.readouterr().out
        assert ret == 0
        assert "max_abs_deviation = " in out
        assert "oracle check passed" in out

    def test_oracle_check_tight_tolerance_exits_2(self, capsys):
        ret = cli.main(["oracle-check", "--n", "4", "--gamma", "0.1",
                        "--channel", "dephasing", "--tol", "1e-20"])
        captured = capsys.readouterr()
        assert ret == 2
        assert "oracle check FAILED" in captured.err

    @pytest.mark.parametrize(
        "argv",
        [
            ["--gamma", "nan", "--channel", "dephasing"],
            ["--gamma", "inf", "--channel", "amplitude_damping"],
            ["--gamma", "0.1", "--channel", "dephasing", "--theta", "nan"],
            ["--gamma", "0.1", "--channel", "dephasing", "--tol", "nan"],
        ],
        ids=["gamma-nan", "gamma-inf", "theta-nan", "tol-nan"],
    )
    def test_oracle_check_fails_on_nan(self, argv, capsys):
        # a nan or inf input must not pass on a nan deviation
        ret = cli.main(["oracle-check", "--n", "2", *argv])
        captured = capsys.readouterr()
        assert ret != 0
        assert "oracle check passed" not in captured.out

    def test_bounds_stdout_values(self, capsys):
        ret = cli.main(["bounds", "--gamma", "0", "--nu", "100", "--n", "2:4"])
        assert ret == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == ",".join(["n"] + list(BOUND_KINDS))
        first = lines[1].split(",")
        assert first[0] == "2"
        # every bound collapses to 1/(2 n sqrt(nu)) without noise
        assert all(float(v) == pytest.approx(0.025) for v in first[1:])

    def test_bounds_csv_file(self, tmp_path, capsys):
        out = str(tmp_path / "bounds.csv")
        ret = cli.main(["bounds", "--gamma", "0.1", "--nu", "1000", "--n", "2:6:2",
                        "--out", out])
        capsys.readouterr()
        assert ret == 0
        with open(out) as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["n"] + list(BOUND_KINDS)
        assert [r[0] for r in rows[1:]] == ["2", "4", "6"]

    def test_baseline_flags(self, capsys):
        ret = cli.main(["baseline", "--n", "3", "--theta", "0.3", "--seed", "1",
                        "--steps", "40", "--shots", "200"])
        out = capsys.readouterr().out
        assert ret == 0
        assert "theta_hat = " in out and "peak_bin = " in out

    def test_baseline_without_config_needs_core_flags(self, capsys):
        ret = cli.main(["baseline", "--n", "3", "--theta", "0.3"])
        assert ret == 1
        assert "--seed" in capsys.readouterr().err

    def test_cascade_prints_stage_lines(self, tmp_path, capsys):
        path = tmp_path / "casc.json"
        path.write_text(json.dumps({
            "mode": cfgmod.MODE_CASCADE, "n": 8, "theta_true": 0.1, "seed": 3,
            "cascade": {"n_sequence": [2, 4, 8]},
            "shots": {"exact": True}, "optimizer": {"max_epochs": 5},
        }))
        ret = cli.main(["cascade", "--config", str(path)])
        out = capsys.readouterr().out
        assert ret == 0
        assert out.count("stage n=") == 3
        ret = cli.main(["cascade", "--config", str(path), "--n-sequence", "2,4"])
        assert ret == 0
        assert capsys.readouterr().out.count("stage n=") == 2

    def test_cascade_rejects_other_modes(self, run_cfg, capsys):
        ret = cli.main(["cascade", "--config", run_cfg])
        assert ret == 1
        assert "cascade" in capsys.readouterr().err

    def test_sweep_axis_and_summary(self, run_cfg, tmp_path, capsys):
        out = str(tmp_path / "sweep")
        ret = cli.main(["sweep", "--config", run_cfg, "--axis", "theta_true=0.1,0.3",
                        "--replicas", "2", "--out", out])
        stdout = capsys.readouterr().out
        assert ret == 0
        assert "wrote" in stdout
        with open(os.path.join(out, "summary.csv")) as fh:
            assert len(fh.read().splitlines()) == 3

    def test_sweep_refuses_a_repeated_axis_value_with_out(self, run_cfg, tmp_path, monkeypatch, capsys):
        def no_run(cfgs):
            raise AssertionError("a run started")

        monkeypatch.setattr(expmod.protocols, "run_batch", no_run)
        out = tmp_path / "sweep"
        argv = ["sweep", "--config", run_cfg, "--axis", "theta_true=0.1,0.1", "--replicas", "2", "--out", str(out)]
        assert cli.main([*argv, "--workers", "2"]) == 1
        err = capsys.readouterr().err
        assert err == "config error: sweep points 0 and 1 would both write the run directory 'theta_true=0.1'\n"
        assert not out.exists()

    def test_scaling_prints_fit(self, tmp_path, capsys):
        out_dir = tmp_path / "scaling"
        ret = cli.main(["scaling", "--gamma", "0", "--theta", "0.1", "--shots", "500",
                        "--n", "2:5", "--replicas", "1", "--max-epochs", "40", "--out", str(out_dir)])
        out = capsys.readouterr().out
        assert ret == 0
        assert "alpha = -1.0000" in out
        assert "r_squared = 1.0000" in out
        lines = (out_dir / "summary.csv").read_text().splitlines()
        assert lines[0] == "n,n_runs,mean_abs_error_theta,std_abs_error_theta"
        assert [line.split(",")[:2] for line in lines[1:]] == [[str(n), "1"] for n in range(2, 6)]
        assert [p.name for p in out_dir.iterdir()] == ["summary.csv"]

    def test_calibrate_reports_grid_and_holdout(self, capsys):
        ret = cli.main(["calibrate", "--n", "2", "--gammas", "0.05,0.3",
                        "--replicas", "1", "--theta", "0.001"])
        out = capsys.readouterr().out
        assert ret == 0
        assert out.count("gamma_hat_median=") == 2
        assert "holdout gamma=" in out

    @pytest.mark.parametrize(
        "command, bad",
        [
            (["cascade", "--n-sequence", "2,x"], "'x'"),
            (["sweep", "--axis", "n=2,x", "--replicas", "1"], "'x'"),
            (["sweep", "--axis", "theta_true=0.1,abc", "--replicas", "1"], "'abc'"),
        ],
        ids=["cascade-n-sequence", "sweep-int-axis", "sweep-float-axis"],
    )
    def test_bad_list_entry_is_a_config_error(self, command, bad, tmp_path, capsys):
        path = tmp_path / "cfg.json"
        doc = dict(SMALL_RUN, mode="cascade", cascade={"n_sequence": [2, 4]}) if command[0] == "cascade" else SMALL_RUN
        path.write_text(json.dumps(doc))
        assert cli.main([command[0], "--config", str(path), *command[1:]]) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and bad in err and "Traceback" not in err

    @pytest.mark.parametrize(
        "command, message",
        [
            (["sweep", "--axis", "theta_true=0.1", "--replicas", "0"], "replicas must be >= 1"),
            (["scaling", "--gamma", "0", "--theta", "0.1", "--shots", "500", "--n", "2:5", "--replicas", "0"],
             "replicas must be >= 1"),
            (["calibrate", "--n", "2", "--gammas", "0.05,0.3", "--replicas", "0"], "replicas must be >= 1"),
            (["scaling", "--gamma", "0", "--theta", "0.1", "--shots", "500", "--n", "2:6:2"], "at least 4 distinct sizes"),
            (["calibrate", "--n", "2", "--gammas", "0.05"], "at least 2 distinct decay rates"),
            (["calibrate", "--n", "4", "--gammas", "0:inf:1"], "bad float range '0:inf:1'"),
            (["calibrate", "--n", "4", "--gammas", "0:1:nan"], "bad float range '0:1:nan'"),
            (["calibrate", "--n", "4", "--gammas=-inf:1:0.5"], "bad float range '-inf:1:0.5'"),
            (["sweep", "--axis", "theta_true=0.1,0.2", "--axis", "theta_true=0.3"], "more than once"),
            (["sweep", "--axis", "seed=1,x"], "seed must be an integer, got 'x'"),
            (["sweep", "--axis", "seed=1,-1"], "seed must be >= 0, got -1"),
            (["sweep", "--axis", "theta_true=0.1", "--seed", "-1"], "seed must be >= 0, got -1"),
        ],
        ids=["sweep-replicas-0", "scaling-replicas-0", "calibrate-replicas-0", "scaling-3-sizes",
             "calibrate-1-rate", "calibrate-infinite-stop", "calibrate-nan-step", "calibrate-infinite-start",
             "sweep-repeated-axis", "sweep-bad-seed-axis", "sweep-negative-seed-axis",
             "sweep-negative-seed"],
    )
    def test_bad_sweep_is_refused_before_any_run(self, command, message, run_cfg, monkeypatch, capsys):
        def no_run(cfgs):
            raise AssertionError("a run started")

        monkeypatch.setattr(expmod.protocols, "run_batch", no_run)
        config = ["--config", run_cfg] if command[0] == "sweep" else []
        assert cli.main([command[0], *config, *command[1:], "--workers", "1"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and message in err

    @pytest.mark.parametrize("workers", ["0", "-3"])
    @pytest.mark.parametrize(
        "command",
        [
            ["sweep", "--axis", "theta_true=0.1"],
            ["scaling", "--gamma", "0", "--theta", "0.1", "--shots", "500", "--n", "2:5"],
            ["calibrate", "--n", "2", "--gammas", "0.05,0.3"],
        ],
        ids=["sweep", "scaling", "calibrate"],
    )
    def test_workers_below_one_are_refused_before_any_run(self, command, workers, run_cfg, monkeypatch, capsys):
        def no_run(cfgs):
            raise AssertionError("a run started")

        monkeypatch.setattr(expmod.protocols, "run_batch", no_run)
        config = ["--config", run_cfg] if command[0] == "sweep" else []
        assert cli.main([command[0], *config, *command[1:], "--replicas", "1", f"--workers={workers}"]) == 1
        assert capsys.readouterr().err == f"config error: workers must be >= 1, got {workers}\n"

    def test_calibrate_all_flagged_is_a_runtime_error(self, monkeypatch, capsys):
        monkeypatch.setattr(expmod, "run_grid", lambda base, axes, replicas, workers: ([], [{"gamma_hat": None}] * 3))
        assert cli.main(["calibrate", "--n", "2", "--gammas", "0.05,0.3", "--replicas", "1"]) == 2
        assert capsys.readouterr().err == "error: all replicas at gamma=0.05 produced flagged estimates\n"

    def test_console_script_installed(self):
        proc = subprocess.run(
            ["vista", "bounds", "--gamma", "0", "--nu", "100", "--n", "2"],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0
        assert "pure_dephasing" in proc.stdout


class TestPackaging:
    # what perfbench/tracer.py wraps, as (module, attribute), to count loss evaluations and epochs
    _TRACED = (
        ("measurement", "loss"),
        ("optimize", "estimate_gradient"),
        ("optimize", "adam_step"),
        ("protocols", "run_optimization"),
        ("protocols", "run_from_config"),
        ("experiments", "persist"),
        ("config", "from_dict"),
    )

    def test_the_tracers_load_bearing_targets_resolve_and_run(self, tmp_path, monkeypatch):
        # the tracer wraps each target where the package looks it up at call time and skips one that is gone,
        # so a target that no longer resolves, or that the run path no longer calls, would read 0, not fail
        path = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"
        [targets] = [
            node.value
            for node in ast.parse(path.read_text(), str(path)).body
            if isinstance(node, ast.Assign) and [getattr(t, "id", None) for t in node.targets] == ["TARGETS"]
        ]
        assert set(self._TRACED) <= {(entry.elts[0].value, entry.elts[1].value) for entry in targets.elts}
        counts = dict.fromkeys(self._TRACED, 0)
        for key in self._TRACED:
            module = getattr(vista, key[0])
            real = getattr(module, key[1])
            assert callable(real)

            def counted(*args, _key=key, _real=real, **kwargs):
                counts[_key] += 1
                return _real(*args, **kwargs)

            monkeypatch.setattr(module, key[1], counted)
        single = vista.protocols.run_from_config(cfgmod.from_dict(dict(SMALL_RUN, shots={"exact": True})))
        run_grid(cfgmod.from_dict(SMALL_RUN), {}, 1, outdir=str(tmp_path), workers=1)
        swept = len(load(str(tmp_path / "point" / "seed_0")).trace["epoch"])
        epochs = len(single.trace["epoch"]) + swept
        assert counts.pop(("config", "from_dict")) >= 2
        assert counts == {
            ("measurement", "loss"): 3 * epochs,  # one parameter: the loss and its two shifts
            ("optimize", "estimate_gradient"): epochs,
            ("optimize", "adam_step"): epochs,
            ("protocols", "run_optimization"): 2,
            ("protocols", "run_from_config"): 1,
            ("experiments", "persist"): 1,
        }

    def test_config_does_not_import_the_epoch(self):
        # the package's __init__ imports every module, so vista.config is imported under a bare package
        code = textwrap.dedent(f"""
            import sys, types
            package = types.ModuleType("vista")
            package.__path__ = [{str(Path(vista.__file__).parent)!r}]
            sys.modules["vista"] = package
            import vista.config
            print(" ".join(sorted(name for name in sys.modules if name.startswith("vista."))))
        """)
        loaded = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True).stdout.split()
        assert "vista.config" in loaded and "vista.optimize" not in loaded

    def test_no_module_imports_scipy(self):
        # scipy is a test-only dependency: the package itself needs numpy alone
        modules = sorted(Path(vista.__file__).parent.rglob("*.py"))
        assert len(modules) >= 13
        offenders = []
        for path in modules:
            for node in ast.walk(ast.parse(path.read_text(), str(path))):
                if isinstance(node, ast.Import):
                    names = [alias.name for alias in node.names]
                elif isinstance(node, ast.ImportFrom) and node.level == 0:
                    names = [node.module]
                else:
                    continue
                offenders += [f"{path.name}: {name}" for name in names if name.split(".")[0] == "scipy"]
        assert offenders == []

    def test_every_exported_name_resolves(self):
        assert len(set(vista.__all__)) == len(vista.__all__)
        missing = [name for name in vista.__all__ if not hasattr(vista, name)]
        assert missing == []

    def test_no_test_only_names_in_src(self):
        # dense machinery that only tests call lives in tests/dense.py: every
        # top-level function, class or constant of the package is referenced
        # by package code, exported from vista, or listed here with a reason
        allowed = {
            "qfi_ratio_ampdamp": "the paper's closed-form information ratio under amplitude damping",
        }
        trees = [ast.parse(p.read_text(), str(p)) for p in sorted(Path(vista.__file__).parent.glob("*.py"))]
        defined = set()
        for tree in trees:
            for node in tree.body:
                if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                    defined.add(node.name)
                elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                    targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                    defined.update(t.id for t in targets if isinstance(t, ast.Name))
        referenced = set()
        for tree in trees:
            for node in ast.walk(tree):
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                    referenced.add(node.id)
                elif isinstance(node, ast.Attribute):
                    referenced.add(node.attr)
        assert set(allowed) <= defined
        unused = sorted(
            name
            for name in defined
            if name not in referenced
            and name not in vista.__all__
            and name not in allowed
            and not (name.startswith("__") and name.endswith("__"))
        )
        assert unused == []

    def test_rk4_oracle_stays_independent_of_the_channel_table(self):
        # the oracle checks the closed forms and the product-channel kernel,
        # so it must not read the per-channel table they are built from
        path = Path(vista.__file__).parent / "dynamics.py"
        funcs = {
            node.name: node
            for node in ast.parse(path.read_text(), str(path)).body
            if isinstance(node, ast.FunctionDef) and node.name in ("lindblad_rk4_oracle", "_make_rhs")
        }
        assert set(funcs) == {"lindblad_rk4_oracle", "_make_rhs"}
        banned = {
            "_QUBIT_CHANNEL",
            "qubit_channel",
            "closed_form_overlap",
            "closed_form_density",
            "single_qubit_lindbladian",
            "product_channel_blocks",
        }
        used = {
            f"{name}: {node.id if isinstance(node, ast.Name) else node.attr}"
            for name, func in funcs.items()
            for node in ast.walk(func)
            if isinstance(node, ast.Name) and node.id in banned or isinstance(node, ast.Attribute) and node.attr in banned
        }
        assert used == set()
