"""Run configuration: JSON schema, defaults, validation, and echo round-trip.

A minimal config is {"mode", "n", "theta_true", "seed"}; every other field has
a default, the channel and normalization from the mode's row in ``MODES``.
Unknown keys anywhere in the document are rejected so a typo cannot silently
fall back to a default.  Each field is declared with its rule (``rule``), and
this module is the one that states rules, the optimizer's blocks included.
A config is checked once, when it is built: ``RunConfig`` and each block
check every field on construction, ``dataclasses.replace`` included, and store
it normalized (an integral number as int, a real one as float, a list as a
tuple); ``RunConfig`` also checks its mode and the rules between fields.
``from_dict`` rejects unknown keys, takes defaults from the mode's row and
builds the blocks, reporting a block's error as ``block: field ...``.
``effective_dict`` materializes all defaults; persisting it and loading it back
reproduces the same config.
"""

import json
import math
import numbers
import types
from dataclasses import MISSING, dataclass, field, fields, is_dataclass
from functools import cache, cached_property
from typing import NamedTuple, get_args

from .dynamics import CHANNEL_AMPDAMP, CHANNEL_DEPHASING, CHANNEL_NONE, CHANNELS, check_channel
from .errors import ConfigError, DomainError

GRAD_CENTRAL = "central_difference"
GRAD_PARAM_SHIFT = "parameter_shift"
GRAD_METHODS = (GRAD_CENTRAL, GRAD_PARAM_SHIFT)
PHI_CLAMP = math.pi / 2 - 1e-6  # phi's upper bound; the disentangling angle's decay diverges at pi/2


def rule(default=MISSING, bound="", holds=None, *, at_least=None, one_of=None):
    """A dataclass field held to its annotated kind and to the bound ``holds``, stated as ``bound`` (see ``check``).

    ``at_least`` gives the bound ``x >= at_least``, and ``one_of`` a choice among its strings.  The kind is float,
    int, bool, str (a path or a choice) or tuple (a list of ints, whose bound holds for each entry).  A field
    annotated ``X | None`` takes null, which keeps the default.
    """
    if at_least is not None:
        bound, holds = f">= {at_least}", lambda x: x >= at_least
    if one_of is not None:
        bound, holds = f"one of {one_of}", one_of.__contains__
    return field(default=default, metadata={"rule": (bound, holds)})


@cache
def rules(cls):
    """{name: (kind, bound, holds, null)} of each field of the dataclass ``cls`` declared with ``rule``."""
    out = {}
    for f in fields(cls):
        if "rule" in f.metadata:
            null = isinstance(f.type, types.UnionType)
            out[f.name] = (get_args(f.type)[0] if null else f.type, *f.metadata["rule"], null)
    return out


def _is_real(x):
    """Whether ``x`` is a real number; a bool is not one."""
    return type(x) is float or type(x) is int or isinstance(x, numbers.Real) and not isinstance(x, bool)


def integer(value, name):
    """An integral number as int, or a DomainError naming ``name``: a bool or a fractional number is none."""
    if type(value) is int:
        return value
    if isinstance(value, float) and value.is_integer() or isinstance(value, numbers.Integral) and _is_real(value):
        return int(value)
    raise DomainError(f"{name} must be an integer, got {value!r}")


def check(r, value, name):
    """``value`` as a field under the rule ``r`` keeps it, or a DomainError whose message starts with ``name``.

    It checks the kind and the bound.  An int field's number comes back as int, a float field's as float, and a
    list as a tuple.
    """
    kind, bound, holds, null = r
    if value is None and null:
        return value
    if kind is tuple:
        if not isinstance(value, (list, tuple)):
            raise DomainError(f"{name} must be a list of integers, got {value!r}")
        value = tuple(integer(x, f"{name} entry") for x in value)
        if holds is not None and not all(map(holds, value)):
            raise DomainError(f"{name} entries must be {bound}, got {value}")
        return value
    if kind is int:
        value = integer(value, name)
    elif kind is float:  # a NaN fails every comparison, so it would switch a bound off
        if not (_is_real(value) and math.isfinite(value) and (holds is None or holds(value))):
            raise DomainError(f"{name} must be finite{' and ' + bound if bound else ''}, got {value!r}")
        return float(value)
    elif not isinstance(value, kind):
        raise DomainError(f"{name} must be {'true or false' if kind is bool else 'a string'}, got {value!r}")
    if holds is not None and not holds(value):
        raise DomainError(f"{name} must be {bound}, got {value!r}")
    return value


class Checked:
    """A dataclass that checks each field declared with ``rule`` on every construction, ``replace`` too, and stores
    the value that ``check`` returns."""

    def __post_init__(self):
        for name, r in rules(type(self)).items():
            object.__setattr__(self, name, check(r, getattr(self, name), name))


@dataclass(frozen=True)
class OptimizerConfig(Checked):
    """ADAM settings and the stop rules of ``run_optimization``."""

    lr0: float = rule(0.05, at_least=0)  # 0 freezes the parameters; a negative rate climbs the loss
    decay: float = rule(0.995, "> 0", lambda x: x > 0)
    # the bias corrections 1 - beta**t and the step's divisor sqrt(v-hat) + eps stay positive
    beta1: float = rule(0.9, "in [0, 1)", lambda b: 0 <= b < 1)
    beta2: float = rule(0.999, "in [0, 1)", lambda b: 0 <= b < 1)
    eps: float = rule(1e-8, "> 0", lambda x: x > 0)
    max_epochs: int = rule(400, at_least=1)
    tol_conv: float = rule(1e-5, at_least=0)  # 0 switches the convergence check off
    window: int = rule(20, at_least=1)
    budget_s: float = rule(600.0, at_least=0)

    def lr_at(self, epoch):
        return self.lr0 * self.decay**epoch


@dataclass(frozen=True)
class ShotSchedule(Checked):
    """Per-epoch shot count ramp; profile is constant, linear, or geometric."""

    nu_start: int = rule(10_000)
    nu_end: int = rule(40_000)
    profile: str = rule("geometric", one_of=("constant", "linear", "geometric"))
    exact: bool = rule(False)  # a config's "no" or 0 is not read for its truth

    def __post_init__(self):
        super().__post_init__()
        if self.exact:  # an exact run draws no shots
            return
        for name in ("nu_start", "nu_end"):
            if getattr(self, name) < 1:
                raise DomainError(f"{name} must be >= 1 unless exact, got {getattr(self, name)!r}")
        if self.nu_end < self.nu_start:
            raise DomainError(f"nu_end must be >= nu_start unless exact, got {self.nu_end!r} < {self.nu_start!r}")

    def shots_at(self, epoch, max_epochs):
        if self.exact:
            return None
        if self.profile == "constant" or max_epochs <= 1:
            return int(self.nu_start)
        frac = epoch / (max_epochs - 1)
        if self.profile == "linear":
            return int(round(self.nu_start + (self.nu_end - self.nu_start) * frac))
        return int(round(self.nu_start * (self.nu_end / self.nu_start) ** frac))


@dataclass(frozen=True)
class GradientConfig(Checked):
    method: str = rule(GRAD_CENTRAL, one_of=GRAD_METHODS)
    h: tuple = (0.05,)
    # loss harmonic per parameter (e.g. 2n for the phase); required for parameter_shift
    frequencies: tuple | None = None

    def __post_init__(self):
        super().__post_init__()
        object.__setattr__(self, "h", tuple(float(x) for x in self.h))
        if self.frequencies is not None:
            object.__setattr__(self, "frequencies", tuple(float(x) for x in self.frequencies))

    @cached_property
    def steps(self):
        """(shifts, scales) of the gradient of p parameters, as Python floats.

        Parameter i is evaluated at x + shifts[i] and x - shifts[i], and the
        difference of its two losses is scaled by scales[i].
        """
        shifts, scales = [], []
        for i, h in enumerate(self.h):
            use_shift_rule = self.method == GRAD_PARAM_SHIFT
            if use_shift_rule and self.frequencies is None:
                raise DomainError("parameter_shift needs per-parameter loss frequencies")
            if use_shift_rule and self.frequencies[i] > 0:
                w = self.frequencies[i]
                shifts.append(math.pi / (2 * w))
                scales.append(w / 2)
            else:
                shifts.append(h)
                scales.append(1.0 / (2 * h))
        return shifts, scales


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


@dataclass(frozen=True)
class GradientBlock(Checked):
    method: str = rule(GRAD_CENTRAL, one_of=GRAD_METHODS)
    h_theta: float | None = rule(None, "non-zero", lambda h: h != 0)  # defaults to pi/(8 n); a negative step is a step
    h_phi: float = rule(0.05, "non-zero", lambda h: h != 0)
    crn: bool = rule(False)  # reuse one shot stream for both sides of each difference


@dataclass(frozen=True)
class InitBlock(Checked):
    theta0: float | None = rule(None)  # explicit start; otherwise uniform draw
    center: float = rule(0.0)
    halfwidth: float | None = rule(None, at_least=0)  # defaults to pi/(2 n), the convergence window
    phi0: float = rule(0.1, "in [0, PHI_CLAMP]", lambda phi: 0 <= phi <= PHI_CLAMP)
    theta2_0: float | None = rule(None)


@dataclass(frozen=True)
class MultiparamBlock(Checked):
    trotter_steps: int = rule(64, at_least=1)
    # no longer read by runs (the probe is a closed-form product channel); kept
    # so that existing configs load and config.json still echoes it
    probe_steps: int = rule(2000, at_least=1)


@dataclass(frozen=True)
class CascadeBlock(Checked):
    n_sequence: tuple = rule((), at_least=1)
    g_min: float = rule(1e-4, at_least=0)  # a NaN would never reject a stage


@dataclass(frozen=True)
class BaselineBlock(Checked):
    total_time: float = rule(1.0, "> 0", lambda t: t > 0)
    steps: int = rule(200, at_least=2)
    shots_per_step: int = rule(2500, at_least=1)


@dataclass(frozen=True)
class RunConfig(Checked):
    mode: str
    n: int = rule(MISSING, at_least=1)
    theta_true: float = rule()
    seed: int = rule(MISSING, at_least=0)  # numpy's SeedSequence takes only non-negative integers
    normalization: str = rule(NORM_PLAIN, one_of=(NORM_PLAIN, NORM_QN))
    channel: str = rule(CHANNEL_NONE, one_of=CHANNELS)
    gamma_true: float = rule(0.0)  # its bound depends on the channel: see dynamics.check_channel
    theta2_true: float | None = rule(None)
    output: str | None = rule(None, "non-empty", lambda path: path != "")  # the run directory; null persists nothing
    # a block is frozen, so every config can share the default one
    optimizer: OptimizerConfig = OptimizerConfig()
    shots: ShotSchedule = ShotSchedule()
    gradient: GradientBlock = GradientBlock()
    init: InitBlock = InitBlock()
    multiparam: MultiparamBlock = MultiparamBlock()
    cascade: CascadeBlock = CascadeBlock()
    baseline: BaselineBlock = BaselineBlock()

    def __post_init__(self):
        """Check the mode, each top-level field, the blocks' types and the rules between fields, or a ConfigError."""
        row = _row(self.mode)
        try:
            super().__post_init__()
        except DomainError as exc:
            raise ConfigError(str(exc)) from exc
        for block, cls in BLOCKS.items():
            if not isinstance(getattr(self, block), cls):
                raise ConfigError(f"{block} must be a config.{cls.__name__}, got {getattr(self, block)!r}")
        try:
            check_channel(self.channel, self.gamma_true)
        except DomainError as exc:
            raise ConfigError(f"channel, gamma_true: {exc}") from exc
        if self.channel not in row.channels:
            accepted = " or ".join(map(repr, row.channels))
            raise ConfigError(f"{self.mode} requires channel {accepted}, got {self.channel!r}")
        if self.normalization == NORM_QN and not row.quasi_normalized:
            raise ConfigError(f"{self.mode} uses a pure ansatz; normalization must be plain")
        if self.mode == MODE_MULTIPARAM and self.theta2_true is None:
            raise ConfigError("vista_multiparam requires theta2_true")
        seq = self.cascade.n_sequence
        if self.mode == MODE_CASCADE and not seq:
            raise ConfigError("cascade mode requires cascade.n_sequence")
        if any(b <= a for a, b in zip(seq, seq[1:])):
            raise ConfigError(f"cascade.n_sequence must be strictly increasing, got {seq}")
        if self.mode == MODE_CASCADE and len(seq) < 2:
            raise ConfigError("cascade needs at least two stages")

    def h_theta_effective(self):
        h = self.gradient.h_theta
        return math.pi / (8 * self.n) if h is None else h

    def init_halfwidth_effective(self):
        hw = self.init.halfwidth
        return math.pi / (2 * self.n) if hw is None else hw


BLOCKS = {f.name: f.type for f in fields(RunConfig) if is_dataclass(f.type)}


def _row(mode):
    """The ``MODES`` row of ``mode``, or a ConfigError."""
    if not isinstance(mode, str) or mode not in MODES:
        raise ConfigError(f"unknown mode {mode!r}; expected one of {tuple(MODES)}")
    return MODES[mode]


def parse(name, value):
    """``value`` as the top-level field ``name`` keeps it, an int as int and a float as float, or a ConfigError."""
    try:
        return check(rules(RunConfig)[name], value, name)
    except DomainError as exc:
        raise ConfigError(str(exc)) from exc


def _block(cls, d, where):
    if d is None:
        return cls()
    try:
        return cls(**_take(d, rules(cls), where))
    except DomainError as exc:  # checked by the block itself
        raise ConfigError(f"{where}: {exc}") from exc


def from_dict(doc):
    """Build a RunConfig from a parsed JSON document, which the config checks as it is built."""
    _take(doc, RunConfig.__dataclass_fields__, "config")
    for key in ("mode", "n", "theta_true", "seed"):
        if key not in doc:
            raise ConfigError(f"config key {key!r} is required" + " (file or --seed)" * (key == "seed"))
    row = _row(doc["mode"])
    values = {"normalization": row.normalization, "channel": row.channel}
    for key, value in doc.items():
        values[key] = _block(BLOCKS[key], value, key) if key in BLOCKS else value
    return RunConfig(**values)


def effective_dict(cfg):
    """Fully materialized config document (all defaults filled in): ``dataclasses.asdict``'s, without its deep
    copy, since every value is a number, a string or None but n_sequence, which becomes a new list."""
    doc = {name: getattr(cfg, name) for name in RunConfig.__dataclass_fields__}
    for block in BLOCKS:
        doc[block] = dict(vars(doc[block]))
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

    A dict-valued override updates the block of that name key by key.  The
    document, and a block that an override updates, are checked first as
    ``from_dict`` checks them: JSON objects without unknown keys.
    """
    _take(doc, RunConfig.__dataclass_fields__, "config")
    for key, val in overrides.items():
        if isinstance(val, dict):
            val = {k: v for k, v in val.items() if v is not None}
            block = doc.get(key)
            val = {**({} if block is None else _take(block, rules(BLOCKS[key]), key)), **val} if val else None
        if val is not None:
            doc[key] = val
    return doc


def load_config(path, overrides=None):
    """Parse a JSON config file, apply CLI overrides, validate."""
    return from_dict(merge_overrides(load_doc(path), overrides or {}))
