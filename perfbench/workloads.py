"""Workload inputs, and one round of a workload through the public library API.

A round is one pass over a workload's fixed list of calls: ``run_grid``
sweeps for the pooled workloads, single ``run_from_config`` calls for
``exact_inprocess``.  Inputs depend only on the workload name and the seed.
The program is imported from ``src/`` of the checkout this file sits in.
"""

import math
import os
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
sys.path.insert(0, str(SRC))

import numpy as np  # noqa: E402
import vista  # noqa: E402
import vista.config  # noqa: E402
import vista.experiments  # noqa: E402
import vista.protocols  # noqa: E402

if SRC.resolve() not in Path(vista.__file__).resolve().parents:
    raise ImportError(f"vista was imported from {vista.__file__}, not from {SRC}")

WORKLOADS = ("sweep_sampled", "two_angle_dense", "exact_inprocess")

SHOTS_1E5 = {"nu_start": 100_000, "nu_end": 100_000, "profile": "constant"}
SCALING_NS = (2, 3, 4, 8, 16, 24)
SCALING_REPLICAS = 60
DECAY_GAMMAS = (0.02, 0.04, 0.06, 0.08)
TWO_ANGLE_THETA2 = (0.04, 0.07)


@dataclass(frozen=True)
class Call:
    """One library call of a round.

    With ``axes`` set it is ``run_grid(from_dict(doc), axes, replicas)``
    writing under ``<outdir>/<name>``; with ``axes`` None it is one
    ``run_from_config(from_dict(doc))`` with nothing persisted.
    """

    name: str
    doc: dict
    axes: dict | None = None
    replicas: int = 1

    @property
    def jobs(self):
        if self.axes is None:
            return 1
        return self.replicas * math.prod(len(v) for v in self.axes.values())


@dataclass(frozen=True)
class Workload:
    name: str
    seed: int
    calls: tuple

    @property
    def pooled(self):
        return self.calls[0].axes is not None

    @property
    def jobs(self):
        return sum(c.jobs for c in self.calls)


def _sweep_sampled(rng):
    seed = lambda: int(rng.integers(2**31))  # noqa: E731
    calls = []
    # error vs n at constant shots, as `vista scaling` configures each n
    for n in SCALING_NS:
        doc = {
            "mode": "vista_pure", "n": n, "theta_true": 0.05, "seed": seed(),
            "channel": "dephasing", "gamma_true": 0.005, "shots": SHOTS_1E5,
            "init": {"center": 0.05, "halfwidth": math.pi / (4 * n)},
            "optimizer": {"max_epochs": 200, "lr0": 0.15 / n},
        }
        calls.append(Call(f"scaling/n={n}", doc, {}, SCALING_REPLICAS))
    # joint theta/gamma over a gamma grid, as `vista calibrate` sweeps it
    for mode, channel in (("vista_noisy_dephasing", "dephasing"), ("vista_noisy_ampdamp", "amplitude_damping")):
        doc = {
            "mode": mode, "n": 10, "theta_true": 1e-3, "seed": seed(), "channel": channel,
            "gamma_true": DECAY_GAMMAS[0], "normalization": "quasi_normalized", "shots": SHOTS_1E5,
            "optimizer": {"decay": 0.99}, "gradient": {"crn": True},
        }
        calls.append(Call(f"decay/{channel}", doc, {"gamma_true": list(DECAY_GAMMAS)}, 5))
    # head-to-head point against the stabilizer-parity spectrum
    point = {"n": 3, "theta_true": 0.23, "gamma_true": 0.11, "channel": "dephasing"}
    vis = {"mode": "vista_noisy_dephasing", **point, "seed": seed(), "init": {"center": 0.23, "halfwidth": math.pi / 12}}
    calls.append(Call("head_to_head/vista", vis, {}, 8))
    calls.append(Call("head_to_head/baseline", {"mode": "baseline_fft", **point, "seed": seed()}, {}, 8))
    return calls


def _two_angle_dense(rng):
    doc = {
        "mode": "vista_multiparam", "n": 7, "theta_true": 0.05, "theta2_true": TWO_ANGLE_THETA2[0],
        "gamma_true": 0.02, "channel": "dephasing", "seed": int(rng.integers(2**31)),
        "multiparam": {"probe_steps": 150, "trotter_steps": 16},
        "optimizer": {"max_epochs": 120}, "init": {"center": 0.05, "halfwidth": math.pi / 28},
    }
    return [Call("two_angle", doc, {"theta2_true": list(TWO_ANGLE_THETA2)}, 3)]


def _exact_inprocess(rng):
    calls = []

    def add(name, n, first_n=None, **doc):
        # the start lies within a quarter period of the first stage's loss
        theta = float(rng.uniform(0.005, 0.05))
        theta0 = theta + float(rng.uniform(-1, 1)) * math.pi / (4 * (first_n or n))
        init = {"theta0": theta0, "phi0": 0.1}
        doc = {"n": n, "theta_true": theta, "seed": int(rng.integers(2**31)), "shots": {"exact": True}, "init": init, **doc}
        calls.append(Call(name, doc))

    for n in (2, 3, 4, 6, 8, 12, 16, 20, 24):
        for k in range(2):
            add(f"vista_pure/n={n}/{k}", n, mode="vista_pure")
    for mode, channel in (("vista_noisy_dephasing", "dephasing"), ("vista_noisy_ampdamp", "amplitude_damping")):
        for n in (4, 8, 16, 24):
            for ng in (0.05, 0.15, 0.3):  # n*gamma, kept where the loss still resolves gamma
                add(f"{mode}/n={n}/ngamma={ng}", n, mode=mode, channel=channel, gamma_true=ng / n)
    for seq in ((2, 4, 8, 16), (3, 6, 12, 24)):
        add(f"cascade/{'-'.join(map(str, seq))}", seq[-1], seq[0], mode="cascade", cascade={"n_sequence": list(seq)})
    return calls


def make_inputs(name, seed):
    """The workload's calls; the same (name, seed) always gives the same calls."""
    build = {"sweep_sampled": _sweep_sampled, "two_angle_dense": _two_angle_dense, "exact_inprocess": _exact_inprocess}
    rng = np.random.default_rng([int(seed), WORKLOADS.index(name)])
    return Workload(name, int(seed), tuple(build[name](rng)))


def subset(workload):
    """A few jobs of a pooled workload, for the 1-worker byte-identity rerun."""
    if workload.name == "two_angle_dense":
        call = workload.calls[0]
        return Workload(workload.name, workload.seed, (Call(call.name, call.doc, {"theta2_true": [TWO_ANGLE_THETA2[0]]}, 1),))
    keep = [c for c in workload.calls if c.name in ("decay/dephasing", "head_to_head/baseline")]
    return Workload(workload.name, workload.seed, tuple(Call(c.name, c.doc, c.axes, 2) for c in keep))


@dataclass
class Round:
    wall_s: float
    failed: int  # jobs whose library call raised
    results: list  # RunResult per call for exact_inprocess (None where it raised)


def run_round(workload, outdir, workers, tick=None):
    """Run every call once; a call that raises counts all its jobs as failed.

    ``tick(seconds)``, if given, is called after each call with the call's
    time; the time it takes itself is left out of the round's wall time.
    """
    failed, results, wall = 0, [], 0.0
    for call in workload.calls:
        t0 = time.perf_counter()
        try:
            cfg = vista.config.from_dict(call.doc)
            if call.axes is None:
                results.append(vista.protocols.run_from_config(cfg))
            else:
                target = os.path.join(outdir, call.name)
                vista.experiments.run_grid(cfg, call.axes, call.replicas, outdir=target, workers=workers)
        except Exception:
            traceback.print_exc()
            failed += call.jobs
            if call.axes is None:
                results.append(None)
        took = time.perf_counter() - t0
        wall += took
        if tick is not None:
            tick(took)
    return Round(wall, failed, results)


def child_round(workload, outdir, traced):
    """Entry point of a fresh process: one round with workers=1, optionally traced."""
    tracer = None
    if traced:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install(vista)
    rnd = run_round(workload, outdir, workers=1)
    return rnd, (tracer.arrays() if tracer else None)
