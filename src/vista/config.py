"""Run configuration: JSON schema, defaults, validation, and echo round-trip.

A minimal config is {"mode", "n", "theta_true", "seed"}; every other field has
a default, the channel and normalization from the mode's row in ``MODES``.
Unknown keys anywhere in the document are rejected so a typo cannot silently
fall back to a default, and an integer field takes only an int or an integral
float, which ``from_dict`` stores as an int.  ``validate`` applies the same
rules, without converting, to a config built directly or changed with
``dataclasses.replace``.  ``effective_dict`` materializes all defaults;
persisting it and loading it back reproduces the same config.
"""

import json
import math
import numbers
from dataclasses import asdict, dataclass, field, fields, is_dataclass
from typing import NamedTuple

from .dynamics import CHANNEL_AMPDAMP, CHANNEL_DEPHASING, CHANNEL_NONE, CHANNELS, check_channel
from .errors import ConfigError, DomainError
from .optimize import GRAD_CENTRAL, OptimizerConfig, ShotSchedule, check_gradient_method

MODE_PURE = "vista_pure"
MODE_NOISY_DEPHASING = "vista_noisy_dephasing"
MODE_NOISY_AMPDAMP = "vista_noisy_ampdamp"
MODE_MULTIPARAM = "vista_multiparam"
MODE_CASCADE = "cascade"
MODE_BASELINE = "baseline_fft"

NORM_PLAIN = "plain"
NORM_QN = "quasi_normalized"


class Mode(NamedTuple):
    channel: str  # the default channel
    normalization: str  # the default normalization
    channels: tuple  # the channels the mode accepts
    quasi_normalized: bool  # whether it accepts quasi-normalization


MODES = {
    MODE_PURE: Mode(CHANNEL_NONE, NORM_PLAIN, CHANNELS, False),
    MODE_NOISY_DEPHASING: Mode(CHANNEL_DEPHASING, NORM_QN, (CHANNEL_DEPHASING,), True),
    MODE_NOISY_AMPDAMP: Mode(CHANNEL_AMPDAMP, NORM_QN, (CHANNEL_AMPDAMP,), True),
    MODE_MULTIPARAM: Mode(CHANNEL_DEPHASING, NORM_PLAIN, CHANNELS, False),
    MODE_CASCADE: Mode(CHANNEL_NONE, NORM_PLAIN, CHANNELS, False),
    MODE_BASELINE: Mode(CHANNEL_DEPHASING, NORM_PLAIN, CHANNELS, True),
}
# the mode that learns a decaying channel's rate: the one that accepts that channel alone
DECAY_MODES = {row.channels[0]: mode for mode, row in MODES.items() if len(row.channels) == 1}


def _take(d, allowed, where):
    if not isinstance(d, dict):
        raise ConfigError(f"{where} must be a JSON object, got {type(d).__name__}")
    unknown = sorted(set(d) - set(allowed))
    if unknown:
        raise ConfigError(f"unknown {where} keys: {', '.join(unknown)}")
    return d


def _check_finite(block, names, rule="", holds=lambda x: True):
    """Raise DomainError unless each named field of ``block`` is a finite number that ``holds``, or None by default."""
    for name in names:
        value = getattr(block, name)
        optional = value is None and block.__dataclass_fields__[name].default is None
        if not (optional or isinstance(value, numbers.Real) and math.isfinite(value) and holds(value)):
            raise DomainError(f"{name} must be finite{rule}, got {value!r}")


@dataclass(frozen=True)
class GradientBlock:
    method: str = GRAD_CENTRAL
    h_theta: float | None = None  # defaults to pi/(8 n)
    h_phi: float = 0.05
    crn: bool = False  # reuse one shot stream for both sides of each difference

    def __post_init__(self):
        check_gradient_method(self.method)
        _check_finite(self, ("h_theta", "h_phi"), " and non-zero", lambda h: h != 0)
        if not isinstance(self.crn, bool):  # a config's "yes" or 1 is not read for its truth
            raise DomainError(f"crn must be true or false, got {self.crn!r}")


@dataclass(frozen=True)
class InitBlock:
    theta0: float | None = None  # explicit start; otherwise uniform draw
    center: float = 0.0
    halfwidth: float | None = None  # defaults to pi/(2 n), the convergence window
    phi0: float = 0.1
    theta2_0: float | None = None

    def __post_init__(self):
        _check_finite(self, ("theta0", "center", "theta2_0"))
        _check_finite(self, ("halfwidth",), " and >= 0", lambda hw: hw >= 0)


@dataclass(frozen=True)
class MultiparamBlock:
    trotter_steps: int = 64
    # no longer read by runs (the probe is a closed-form product channel); kept
    # so that existing configs load and config.json still echoes it
    probe_steps: int = 2000


@dataclass(frozen=True)
class CascadeBlock:
    n_sequence: tuple = ()
    g_min: float = 1e-4

    def __post_init__(self):
        _check_finite(self, ("g_min",), " and >= 0", lambda g: g >= 0)  # a NaN would never reject a stage


@dataclass(frozen=True)
class BaselineBlock:
    total_time: float = 1.0
    steps: int = 200
    shots_per_step: int = 2500

    def __post_init__(self):
        if self.steps < 2:
            raise DomainError(f"steps must be >= 2, got {self.steps}")
        _check_finite(self, ("total_time",), " and > 0", lambda t: t > 0)
        if self.shots_per_step < 1:
            raise DomainError(f"shots_per_step must be >= 1, got {self.shots_per_step}")


@dataclass(frozen=True)
class RunConfig:
    mode: str
    n: int
    theta_true: float
    seed: int
    normalization: str = NORM_PLAIN
    channel: str = CHANNEL_NONE
    gamma_true: float = 0.0
    theta2_true: float | None = None
    output: str | None = None
    optimizer: OptimizerConfig = field(default_factory=OptimizerConfig)
    shots: ShotSchedule = field(default_factory=ShotSchedule)
    gradient: GradientBlock = field(default_factory=GradientBlock)
    init: InitBlock = field(default_factory=InitBlock)
    multiparam: MultiparamBlock = field(default_factory=MultiparamBlock)
    cascade: CascadeBlock = field(default_factory=CascadeBlock)
    baseline: BaselineBlock = field(default_factory=BaselineBlock)

    def h_theta_effective(self):
        h = self.gradient.h_theta
        return math.pi / (8 * self.n) if h is None else h

    def init_halfwidth_effective(self):
        hw = self.init.halfwidth
        return math.pi / (2 * self.n) if hw is None else hw


def _float(value, where):
    """``float(value)``, or a ConfigError that names ``where`` and the value."""
    try:
        return float(value)
    except (TypeError, ValueError):
        raise ConfigError(f"{where} must be a number, got {value!r}") from None


def _integer(value, where):
    """An int or an integral float as int; a bool or anything else is a ConfigError that names ``where``."""
    integral_float = isinstance(value, float) and value.is_integer()
    if integral_float or isinstance(value, (int, numbers.Integral)) and not isinstance(value, bool):
        return int(value)
    raise ConfigError(f"{where} must be an integer, got {value!r}")


def _seed(value):
    """A seed as int: numpy's SeedSequence takes only non-negative integers, so anything else is a ConfigError."""
    seed = _integer(value, "seed")
    if seed < 0:
        raise ConfigError(f"seed must be >= 0, got {seed}")
    return seed


def _block(cls, d, where):
    if d is None:
        return cls()
    known = cls.__dataclass_fields__
    _take(d, known, where)
    kwargs = {k: _integer(v, f"{where}.{k}") if known[k].type is int else v for k, v in d.items()}
    if cls is CascadeBlock and "n_sequence" in kwargs:
        kwargs["n_sequence"] = tuple(_integer(x, "cascade.n_sequence entry") for x in kwargs["n_sequence"])
    try:
        return cls(**kwargs)
    except DomainError as exc:  # raised by blocks that check their own fields
        raise ConfigError(f"{where}: {exc}") from exc


def from_dict(doc):
    """Build and validate a RunConfig from a parsed JSON document."""
    _take(doc, RunConfig.__dataclass_fields__, "config")
    for key in ("mode", "n", "theta_true"):
        if key not in doc:
            raise ConfigError(f"config key {key!r} is required")
    if "seed" not in doc:
        raise ConfigError("config key 'seed' is required (file or --seed)")

    mode = doc["mode"]
    if not isinstance(mode, str) or mode not in MODES:
        raise ConfigError(f"unknown mode {mode!r}; expected one of {tuple(MODES)}")
    rules = MODES[mode]
    cfg = RunConfig(
        mode=mode,
        n=_integer(doc["n"], "n"),
        theta_true=_float(doc["theta_true"], "theta_true"),
        seed=_seed(doc["seed"]),
        normalization=doc.get("normalization", rules.normalization),
        channel=doc.get("channel", rules.channel),
        gamma_true=_float(doc.get("gamma_true", 0.0), "gamma_true"),
        theta2_true=None if doc.get("theta2_true") is None else _float(doc["theta2_true"], "theta2_true"),
        output=doc.get("output"),
        optimizer=_block(OptimizerConfig, doc.get("optimizer"), "optimizer"),
        shots=_block(ShotSchedule, doc.get("shots"), "shots"),
        gradient=_block(GradientBlock, doc.get("gradient"), "gradient"),
        init=_block(InitBlock, doc.get("init"), "init"),
        multiparam=_block(MultiparamBlock, doc.get("multiparam"), "multiparam"),
        cascade=_block(CascadeBlock, doc.get("cascade"), "cascade"),
        baseline=_block(BaselineBlock, doc.get("baseline"), "baseline"),
    )
    validate(cfg)
    return cfg


# (block, field, "block.field") of every integer field of a config block
_BLOCK_INTEGERS = tuple(
    (block.name, f.name, f"{block.name}.{f.name}")
    for block in fields(RunConfig)
    if is_dataclass(block.type)
    for f in fields(block.type)
    if f.type is int
)


def validate(cfg):
    # from_dict refuses an unknown mode; one set by dataclasses.replace is refused where the config runs
    rules = MODES.get(cfg.mode) or Mode(None, None, CHANNELS, True)
    # from_dict has already parsed these; a config built directly or with dataclasses.replace has not
    _integer(cfg.n, "n")
    _seed(cfg.seed)
    for block, name, where in _BLOCK_INTEGERS:
        _integer(getattr(getattr(cfg, block), name), where)
    for x in cfg.cascade.n_sequence:
        _integer(x, "cascade.n_sequence entry")
    if cfg.n < 1:
        raise ConfigError(f"n must be >= 1, got {cfg.n}")
    for name in ("theta_true", "theta2_true"):
        value = getattr(cfg, name)
        if value is not None and not math.isfinite(value):
            raise ConfigError(f"{name} must be finite, got {value}")
    try:
        check_channel(cfg.channel, cfg.gamma_true)
    except DomainError as exc:
        raise ConfigError(f"channel, gamma_true: {exc}") from exc
    if cfg.normalization not in (NORM_PLAIN, NORM_QN):
        raise ConfigError(f"unknown normalization {cfg.normalization!r}")
    if cfg.channel not in rules.channels:
        raise ConfigError(f"{cfg.mode} requires channel {' or '.join(map(repr, rules.channels))}, got {cfg.channel!r}")
    if cfg.normalization == NORM_QN and not rules.quasi_normalized:
        raise ConfigError(f"{cfg.mode} uses a pure ansatz; normalization must be plain")
    if cfg.mode == MODE_MULTIPARAM and cfg.theta2_true is None:
        raise ConfigError("vista_multiparam requires theta2_true")
    if cfg.multiparam.trotter_steps < 1:
        raise ConfigError(f"multiparam.trotter_steps must be >= 1, got {cfg.multiparam.trotter_steps}")
    if cfg.mode == MODE_CASCADE and not cfg.cascade.n_sequence:
        raise ConfigError("cascade mode requires cascade.n_sequence")
    if cfg.cascade.n_sequence:
        seq = cfg.cascade.n_sequence
        if min(seq) < 1:
            raise ConfigError(f"cascade.n_sequence entries must be >= 1, got {seq}")
        if any(b <= a for a, b in zip(seq, seq[1:])):
            raise ConfigError(f"cascade.n_sequence must be strictly increasing, got {seq}")
        if cfg.mode == MODE_CASCADE and len(seq) < 2:
            raise ConfigError("cascade needs at least two stages")

    if not 0 <= cfg.init.phi0 < math.pi / 2:
        raise ConfigError(f"init.phi0 must lie in [0, pi/2), got {cfg.init.phi0}")


def effective_dict(cfg):
    """Fully materialized config document (all defaults filled in)."""
    doc = asdict(cfg)
    doc["cascade"]["n_sequence"] = list(cfg.cascade.n_sequence)
    return doc


def load_doc(path):
    """Parse a JSON config file into a document, without building a config."""
    try:
        with open(path) as fh:
            return json.load(fh)
    except FileNotFoundError as exc:
        raise ConfigError(f"config file {path} not found") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc


def merge_overrides(doc, overrides):
    """Apply overrides to a config document in place; None values are skipped.

    A dict-valued override updates the block of that name key by key.
    """
    for key, val in overrides.items():
        if isinstance(val, dict):
            val = {k: v for k, v in val.items() if v is not None}
            val = {**(doc.get(key) or {}), **val} if val else None
        if val is not None:
            doc[key] = val
    return doc


def load_config(path, overrides=None):
    """Parse a JSON config file, apply CLI overrides, validate."""
    return from_dict(merge_overrides(load_doc(path), overrides or {}))
