"""Span recording around the program's public functions, and per-layer metrics.

``Tracer.install`` replaces each target function in the module that looks it
up at call time (``rng.stream`` is called as ``vista.measurement.stream``, for
example) with a wrapper that records a span: name, start, end and the index
of the enclosing span.  Spans stay in memory in flat arrays; the caller
writes them out when the benchmark ends.  Nothing under ``src/`` changes.
"""

import functools
import json
import time
from array import array

import numpy as np

# (module under vista, attribute looked up there, span name, label function)
TARGETS = (
    ("measurement", "stream", "rng.stream", None),
    ("protocols", "stream", "rng.stream", None),
    ("measurement", "hs_overlap_closed", "measurement.hs_overlap_closed", None),
    (
        "measurement",
        "loss",
        "measurement.loss",
        lambda args, kwargs: "exact" if kwargs.get("sampler", args[1] if len(args) > 1 else None) is None else "sampled",
    ),
    ("protocols", "lindblad_rk4_oracle", "dynamics.lindblad_rk4_oracle", None),
    ("protocols", "trotter_evolve", "dynamics.trotter_evolve", None),
    ("protocols", "run_optimization", "optimize.run_optimization", None),
    ("optimize", "estimate_gradient", "optimize.estimate_gradient", None),
    ("optimize", "adam_step", "optimize.adam_step", None),
    ("protocols", "run_from_config", "protocols.run_from_config", lambda args, kwargs: args[0].mode),
    ("experiments", "persist", "results.persist", None),
    ("config", "from_dict", "config.from_dict", None),
)

MODES = ("vista_pure", "vista_noisy_dephasing", "vista_noisy_ampdamp", "vista_multiparam", "cascade", "baseline_fft")


class Tracer:
    def __init__(self):
        self.names = []
        self._ids = {}
        self.name_idx = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = []

    def _id(self, name):
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, fn, name, label=None):
        stack, clock = self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(self.start)
            self.name_idx.append(self._id(name if label is None else f"{name}[{label(args, kwargs)}]"))
            self.parent.append(stack[-1] if stack else -1)
            self.end.append(0.0)
            stack.append(idx)
            self.start.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                self.end[idx] = clock()
                stack.pop()

        return traced

    def install(self, vista_pkg):
        """Wrap every target the installed program still has; absent ones are skipped."""
        for module, attr, name, label in TARGETS:
            mod = getattr(vista_pkg, module)
            if hasattr(mod, attr):
                setattr(mod, attr, self.wrap(getattr(mod, attr), name, label))
        # the loss function reaches the run loop as an argument, so it is wrapped per run
        protocols = vista_pkg.protocols
        if hasattr(protocols, "run_optimization"):
            run_optimization = protocols.run_optimization

            def traced_run_optimization(params0, lossfn, *args, **kwargs):
                return run_optimization(params0, self.wrap(lossfn, "protocols.loss_eval"), *args, **kwargs)

            protocols.run_optimization = traced_run_optimization

    def arrays(self):
        return {
            "names": list(self.names),
            "name_idx": np.frombuffer(self.name_idx, dtype=np.int32).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int32).copy(),
            "start": np.frombuffer(self.start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.end, dtype=np.float64).copy(),
        }


def merge(traces):
    """Concatenate span arrays of several rounds under one name table."""
    names, ids = [], {}
    parts = {"name_idx": [], "parent": [], "start": [], "end": [], "round": []}
    offset = 0
    for k, tr in enumerate(traces):
        remap = np.array([ids.setdefault(nm, len(ids)) for nm in tr["names"]] or [0], dtype=np.int32)
        names = list(ids)
        count = len(tr["start"])
        parts["name_idx"].append(remap[tr["name_idx"]])
        parts["parent"].append(np.where(tr["parent"] >= 0, tr["parent"] + offset, -1).astype(np.int32))
        parts["start"].append(tr["start"])
        parts["end"].append(tr["end"])
        parts["round"].append(np.full(count, k, dtype=np.int32))
        offset += count
    merged = {key: np.concatenate(val) if val else np.zeros(0) for key, val in parts.items()}
    merged["names"] = names
    return merged


def self_times(spans):
    """Duration minus the time covered by direct children (children never overlap)."""
    dur = spans["end"] - spans["start"]
    has_parent = spans["parent"] >= 0
    covered = np.bincount(spans["parent"][has_parent], weights=dur[has_parent], minlength=dur.size)
    return dur, dur - covered


def layer_metrics(spans, rounds):
    """Per-layer figures from merged spans of ``rounds`` identical rounds.

    Latencies are medians over spans; counts and self times are per round.
    A layer the workload never calls reads 0.
    """
    dur, own = self_times(spans)
    names = spans["names"]

    def where(pred):
        return np.isin(spans["name_idx"], [i for i, nm in enumerate(names) if pred(nm)])

    def named(name):
        return where(lambda nm: nm == name)

    def median(mask, scale):
        return float(np.median(dur[mask]) * scale) if mask.any() else 0.0

    def layer_self(layer):
        return float(own[where(lambda nm: nm.split(".", 1)[0] == layer)].sum()) / rounds

    out = {}
    stream = named("rng.stream")
    out["rng.stream_us"] = median(stream, 1e6)
    out["rng.streams"] = stream.sum() / rounds
    out["rng.self_s"] = layer_self("rng")
    out["measurement.loss_sampled_us"] = median(named("measurement.loss[sampled]"), 1e6)
    out["measurement.overlap_closed_us"] = median(named("measurement.hs_overlap_closed"), 1e6)
    out["measurement.loss_exact_us"] = median(named("measurement.loss[exact]"), 1e6)
    out["measurement.self_s"] = layer_self("measurement")
    out["protocols.loss_eval_us"] = median(named("protocols.loss_eval"), 1e6)
    build = named("dynamics.lindblad_rk4_oracle")
    out["dynamics.probe_build_s"] = median(build, 1.0)
    out["dynamics.probe_builds"] = build.sum() / rounds
    out["dynamics.trotter_eval_ms"] = median(named("dynamics.trotter_evolve"), 1e3)
    out["dynamics.self_s"] = layer_self("dynamics")
    adam = named("optimize.adam_step")
    out["optimize.adam_step_us"] = median(adam, 1e6)
    out["optimize.self_s"] = layer_self("optimize")
    out["optimize.epochs"] = adam.sum() / rounds
    out["optimize.loss_evals"] = where(lambda nm: nm.startswith("measurement.loss[")).sum() / rounds
    for mode in MODES:
        out[f"protocols.run_ms.{mode}"] = median(named(f"protocols.run_from_config[{mode}]"), 1e3)
    out["results.persist_ms"] = median(named("results.persist"), 1e3)
    out["config.from_dict_us"] = median(named("config.from_dict"), 1e6)
    return {k: float(v) for k, v in out.items()}


def save(path, spans, meta):
    np.savez_compressed(
        path,
        names=np.array(spans["names"], dtype=str),
        name_idx=spans["name_idx"],
        parent=spans["parent"],
        start=spans["start"],
        end=spans["end"],
        round=spans["round"],
        meta=np.array(json.dumps(meta)),
    )
