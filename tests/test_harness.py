"""Configuration, persistence, orchestration, CLI behavior and packaging."""

import ast
import csv
import hashlib
import io
import itertools
import json
import math
import multiprocessing
import os
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
from vista.results import RunResult, persist, trace_header, write_summary
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

    @pytest.mark.parametrize("seq", [[0, 4], [-3, 4]])
    def test_cascade_sizes_must_be_positive(self, seq, tmp_path, capsys):
        doc = {**MINIMAL, "mode": cfgmod.MODE_CASCADE, "cascade": {"n_sequence": seq}}
        with pytest.raises(ConfigError, match="cascade.n_sequence entries must be >= 1"):
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
        for bad in (-0.1, 1.6):
            with pytest.raises(ConfigError):
                _cfg(init={"phi0": bad})

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
            ("optimizer", {"max_epochs": 2.5}, "optimizer.max_epochs"),
            ("optimizer", {"window": 2.5}, "optimizer.window"),
            ("optimizer", {"max_epochs": False}, "optimizer.max_epochs"),
            ("baseline", {"shots_per_step": 2500.5}, "baseline.shots_per_step"),
            ("shots", {"nu_start": 100.5}, "shots.nu_start"),
            ("multiparam", {"trotter_steps": 1.5}, "multiparam.trotter_steps"),
            ("cascade", {"n_sequence": [2.5, 4]}, "cascade.n_sequence"),
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
        # validate applies from_dict's integer rule, so a changed config cannot carry n = 3.5
        cfg = _cfg()
        block, _, name = field.partition(".")
        override = {block: replace(getattr(cfg, block), **{name: value})} if name else {field: value}
        with pytest.raises(ConfigError, match=f"^{field}( entry)? must be an integer, got "):
            cfgmod.validate(replace(cfg, **override))

    def test_load_config_errors(self, tmp_path):
        with pytest.raises(ConfigError, match="not found"):
            cfgmod.load_config(str(tmp_path / "nope.json"))
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        with pytest.raises(ConfigError, match="JSON"):
            cfgmod.load_config(str(bad))

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

    def test_effective_dict_round_trip(self):
        doc = {
            "mode": cfgmod.MODE_CASCADE, "n": 8, "theta_true": 0.1, "seed": 3,
            "cascade": {"n_sequence": [2, 4, 8]},
            "shots": {"exact": True}, "optimizer": {"max_epochs": 5},
        }
        cfg = cfgmod.from_dict(doc)
        assert cfgmod.from_dict(cfgmod.effective_dict(cfg)) == cfg


@pytest.fixture(scope="module")
def small_result():
    return run_from_config(cfgmod.from_dict(SMALL_RUN))


class TestResults:
    def test_persisted_files_and_headers(self, small_result, tmp_path):
        persist(small_result, str(tmp_path))
        assert sorted(os.listdir(tmp_path)) == ["config.json", "result.json", "trace.csv"]
        with open(tmp_path / "trace.csv") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["epoch", "loss", "theta_hat", "grad_norm", "shots", "lr"]
        assert len(rows) - 1 == len(small_result.trace["epoch"])
        assert all(len(r) == len(rows[0]) for r in rows)

    def test_trace_floats_carry_12_digits(self, small_result, tmp_path):
        persist(small_result, str(tmp_path))
        with open(tmp_path / "trace.csv") as fh:
            first = next(csv.DictReader(fh))
        assert first["loss"] == f"{float(small_result.trace['loss'][0]):.12g}"
        assert first["shots"] == str(int(small_result.trace["shots"][0]))

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
        with open(tmp_path / "trace.csv") as fh:
            header = fh.readline().strip().split(",")
        assert header == ["epoch", "loss", "theta_hat", "phi", "grad_norm", "shots", "lr"]

    def test_baseline_persists_series(self, tmp_path):
        cfg = cfgmod.from_dict(
            {"mode": cfgmod.MODE_BASELINE, "n": 3, "theta_true": 0.3, "seed": 1,
             "baseline": {"steps": 20, "shots_per_step": 100}}
        )
        persist(run_from_config(cfg), str(tmp_path))
        names = sorted(os.listdir(tmp_path))
        assert "series.csv" in names and "trace.csv" not in names
        with open(tmp_path / "series.csv") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["t", "p_exact", "p_hat"]
        assert len(rows) - 1 == 20

    def test_empty_trace_persists_header_only(self, tmp_path):
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
        with open(tmp_path / "trace.csv") as fh:
            rows = list(csv.reader(fh))
        assert rows == [trace_header(("theta_hat",))]
        with open(tmp_path / "result.json") as fh:
            assert json.load(fh)["trace"]["epoch"] == []

    def test_trace_header_order(self):
        assert trace_header(("theta_hat", "phi")) == [
            "epoch", "loss", "theta_hat", "phi", "grad_norm", "shots", "lr",
        ]

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
    "trace.csv": "846ece253a8d4adfc08f128ee47ca17c2c8ad55597bc73ac1d377a4aba88281f",
}


class TestWriters:
    """The persistence writers give the bytes of json.dumps(indent=2, sort_keys=True) and csv.writer."""

    @settings(max_examples=300, deadline=None)
    @given(doc=_JSON_DOCS)
    @example(doc=_EDGE_DOC)
    @example(doc=[["],\n    [", 1.0], [2.0]])  # a string holding the text of a 2-D row boundary
    def test_write_json_matches_json_dumps(self, doc, tmp_path_factory):
        path = tmp_path_factory.getbasetemp() / "doc.json"
        resmod._write_json(str(path), doc)
        assert path.read_text() == json.dumps(doc, indent=2, sort_keys=True) + "\n"

    @settings(max_examples=200, deadline=None)
    @given(values=st.lists(st.floats(width=64), max_size=40))
    @example(values=[float("nan"), float("inf"), -float("inf"), -0.0, 0.0, 5e-324, 1.7976931348623157e308, 1e16, 1e-5,
                     123456789012.5, 0.1 + 0.2, -1e-300])
    @example(values=[])
    def test_fmt_column_matches_format(self, values):
        assert resmod._fmt_column(np.array(values)) == [f"{x:.12g}" for x in values]

    @settings(max_examples=100, deadline=None)
    @given(rows=st.lists(st.tuples(st.integers(0, 10**9), st.floats(), st.floats(), st.integers(1, 10**6)), max_size=12))
    def test_write_csv_matches_csv_writer(self, rows, tmp_path_factory):
        header = trace_header(("theta_hat",))[:4]
        ints, a, b, shots = map(list, zip(*rows)) if rows else ([], [], [], [])
        columns = [resmod._int_column(ints), resmod._fmt_column(a), resmod._fmt_column(b), resmod._int_column(shots)]
        path = tmp_path_factory.getbasetemp() / "rows.csv"
        resmod._write_csv(str(path), header, columns)
        expected = io.StringIO(newline="")
        writer = csv.writer(expected)
        writer.writerow(header)
        writer.writerows(zip(*columns))
        assert path.read_bytes() == expected.getvalue().encode()

    def test_persisted_bytes_are_pinned(self, tmp_path):
        # A change to these digests changes the artifact format and must be reported in CHANGES.md.
        persist(_GOLDEN_RESULT, str(tmp_path))
        assert _hash_dir(tmp_path) == _GOLDEN_SHA256


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

    def test_run_grid_rejects_bad_point_before_running(self, tmp_path):
        base = cfgmod.from_dict(SMALL_RUN)
        with pytest.raises(ConfigError):
            run_grid(base, {"n": [2, 0]}, replicas=1, outdir=str(tmp_path), workers=1)
        assert not (tmp_path / "summary.csv").exists()

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
        assert len(trees[0]) == points * 3 * 3 + 1 and "summary.csv" in trees[0]
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
            {"n": 2, "n_runs": 1, "mean_abs_error_theta": 0.027556832689195426, "std_abs_error_theta": 0.0},
            {"n": 3, "n_runs": 1, "mean_abs_error_theta": 0.01837122147603093, "std_abs_error_theta": 0.0},
            {"n": 4, "n_runs": 1, "mean_abs_error_theta": 0.013778415988235898, "std_abs_error_theta": 0.0},
            {"n": 5, "n_runs": 1, "mean_abs_error_theta": 0.011022732733570864, "std_abs_error_theta": 0.0},
        ]
        assert (fit.exponent, fit.intercept, fit.r_squared) == (-1.0000000341000694, -2.898357560797926, 1.0)

    @pytest.mark.parametrize("workers", [1, 2])
    def test_calibrate_experiment_golden(self, workers):
        report = calibrate_experiment(*self.CALIBRATE_ARGS, **self.CALIBRATE_KW, workers=workers)
        curve = report.pop("curve")
        assert curve.gamma_hat_grid.tolist() == [0.05061443466166801, 0.3097664691734114]
        assert curve.gamma_true_grid.tolist() == [0.05, 0.3]
        assert report == {
            "grid": [0.05, 0.3],
            "gamma_hat_median": [0.05061443466166801, 0.3097664691734114],
            "holdout": [{"gamma_true": 0.175, "raw_mae": 0.0058211212117959266, "calibrated_mae": 0.010622696007463378}],
        }

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

    def test_run_grid_empty_axis_writes_the_header_only(self, tmp_path):
        rows, outs = run_grid(cfgmod.from_dict(SMALL_RUN), {"theta_true": []}, 2, outdir=str(tmp_path), workers=1)
        assert rows == [] and outs == []
        assert (tmp_path / "summary.csv").read_bytes() == b"theta_true\r\n"

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
            gens = streams.at([2, 0], [label])
            for gen, seed in zip(gens, (seeds[2], seeds[0])):
                assert gen.bit_generator.random_raw(3).tolist() == stream(seed, *label).bit_generator.random_raw(3).tolist()
        with pytest.raises(DomainError, match="label"):
            streams.at([0], [(-1,)])

    def test_at_keeps_one_generator_per_label_and_row(self):
        # an epoch moves each row to several labels at once, some of them equal (common random numbers)
        seeds = [5, 9, 2**40 + 3]
        streams = rngmod.Streams(seeds, 3)
        labels = [(STREAM_LOSS, 2), (STREAM_GRAD, 2, 0, 0), (STREAM_GRAD, 2, 0, 0)]
        gens = streams.at([2, 0], labels)
        assert len({id(gen) for gen in gens}) == 6
        expected = [(label, seeds[r]) for label in labels for r in (2, 0)]
        for gen, (label, seed) in zip(gens, expected):
            assert gen.bit_generator.random_raw(3).tolist() == stream(seed, *label).bit_generator.random_raw(3).tolist()
        with pytest.raises(DomainError, match="slots"):
            streams.at([0], labels + [(STREAM_LOSS, 3)])

    def test_kept_generators_match_fresh_streams_after_drawing(self):
        # a row's generator, dirtied by draws of every kind, draws what a fresh stream draws once moved
        seeds = [5, 9, 2**40 + 3]
        streams = rngmod.Streams(seeds)
        labels = [(STREAM_LOSS, 7), (STREAM_GRAD, 7, 1, 0), (), (3, 2**LABEL_WORD_BITS - 1, 0, 1)]
        for label, nu in itertools.product(labels, (10, 1000, 100_000)):
            for gen in streams.at([0, 1, 2], [(STREAM_LOSS, 0)]):
                gen.binomial(100_000, 0.49)
                gen.normal(size=3)
                gen.integers(0, 2**32, dtype=np.uint32)  # leaves the other half word cached
                assert gen.bit_generator.state["has_uint32"] == 1
            for gen, seed in zip(streams.at([1, 2, 0], [label]), (seeds[1], seeds[2], seeds[0])):
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
            streams.at(list(order), [(STREAM_LOSS, 3)])  # moved away and not drawn from
            gens = streams.at(list(order), [label])
            assert [binomial_fraction(gen, 1000, 0.4) for gen in gens] == [expected[r] for r in order]

    def test_at_constructs_no_generator(self, monkeypatch):
        streams = rngmod.Streams([5, 9])
        built = []
        for name in ("Generator", "Philox"):
            real = getattr(np.random, name)
            monkeypatch.setattr(np.random, name, lambda *a, _real=real, _name=name, **k: built.append(_name) or _real(*a, **k))
        for epoch in range(20):
            for gen in streams.at([1, 0], [(STREAM_LOSS, epoch)]):
                binomial_fraction(gen, 100, 0.5)
        assert built == []
        stream(5, STREAM_LOSS, 0)  # the patch sees a construction
        assert built == ["Philox", "Generator"]

    @pytest.mark.parametrize(
        "label",
        [(-1,), (1, -1), (2**LABEL_WORD_BITS,), (0, 2**64 + 1), (0,) * (LABEL_WORDS + 1)],
    )
    def test_stream_label_outside_counter_layout_raises(self, label):
        with pytest.raises(DomainError, match="label"):
            stream(5, *label)
        with pytest.raises(DomainError, match="label"):
            rngmod.Streams([5]).at([0], [label])

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
                assert sorted(os.listdir(out / point / f"seed_{r}")) == ["config.json", "result.json", "series.csv"]

    def test_a_failing_slice_does_not_end_the_call_early(self, tmp_path):
        # theta 0 with no noise gives a flat parity series, so the first slice raises at its first
        # replica, while the second slice runs all 40 replicas of the point at 0.3
        base = cfgmod.from_dict({"mode": "baseline_fft", "n": 3, "theta_true": 0.3, "seed": 0, "channel": "none"})
        out = tmp_path / "sweep"
        with pytest.raises(NoPeakError):
            run_grid(base, {"theta_true": [0.0, 0.3]}, replicas=40, outdir=str(out), workers=2)
        for r in range(40):
            assert sorted(os.listdir(out / "theta_true=0.3" / f"seed_{r}")) == ["config.json", "result.json", "series.csv"]

    def test_default_cap_is_the_usable_cpus(self, base, tmp_path, monkeypatch):
        def no_pool(*args, **kwargs):
            raise AssertionError("a pool was built for one usable CPU")

        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
        monkeypatch.setattr(expmod, "ProcessPoolExecutor", no_pool)
        monkeypatch.setattr(expmod, "_pool", None)  # a kept pool would have to be built anew
        rows, _ = run_grid(base, self.AXES, replicas=2, outdir=str(tmp_path), workers=None)
        assert [row["n_runs"] for row in rows] == [2, 2]


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
            (["sweep", "--axis", "theta_true=0.1,0.2", "--axis", "theta_true=0.3"], "more than once"),
            (["sweep", "--axis", "seed=1,x"], "seed must be an integer, got 'x'"),
        ],
        ids=["sweep-replicas-0", "scaling-replicas-0", "calibrate-replicas-0", "scaling-3-sizes",
             "calibrate-1-rate", "sweep-repeated-axis", "sweep-bad-seed-axis"],
    )
    def test_bad_sweep_is_refused_before_any_run(self, command, message, run_cfg, monkeypatch, capsys):
        def no_run(cfgs):
            raise AssertionError("a run started")

        monkeypatch.setattr(expmod.protocols, "run_batch", no_run)
        config = ["--config", run_cfg] if command[0] == "sweep" else []
        assert cli.main([command[0], *config, *command[1:], "--workers", "1"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and message in err

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
            "qfi_ratio_ampdamp_expansion": "the paper's small-gamma expansion of that ratio",
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
