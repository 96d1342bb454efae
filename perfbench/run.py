"""Benchmark of the vista library, end to end or per layer.

Run from the repository root:

    python3 perfbench/run.py --workload sweep_sampled --seed 1 --seconds 20 --trace 0

It repeats whole rounds of the workload until ``--seconds`` have passed,
checks the outputs, and prints as its last line one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.  ``--trace 0`` gives
the end-to-end metrics from untraced rounds in this process and its pool.
``--trace 1`` gives the per-layer metrics from rounds run with one worker,
each in a fresh process, with spans recorded around the library's
functions.  Untraced one-worker rounds alternate with the traced ones, for
the tracing overhead, and one pooled round follows, for the pool's
efficiency.  See README.md.
"""

import os

# Pin BLAS and OpenMP pools before numpy is imported here or in any child, so
# that pool workers do not oversubscribe the cores; ignore VISTA_THREADS, the
# worker count is set explicitly below.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"
os.environ.pop("VISTA_THREADS", None)

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import pickle  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import speed  # noqa: E402
import tracer  # noqa: E402

HERE = Path(__file__).resolve().parent
OUT = HERE.parent / "perfbench-out"
MAX_WORKERS = 2  # pool size of the pooled workloads, capped at the usable CPUs
SETUP_REPEATS = 7
# Workloads whose round times are scaled by the machine's speed (speed.py).  Their time goes to the
# interpreter, as the kernel's does.  two_angle_dense spends its time in dense linear algebra: there the
# kernel slowed 1.7x while the rounds slowed at most 1.35x, and most of its round-to-round spread comes
# from which pool worker rebuilds which probe, not from the machine.  Its times are reported as measured.
SPEED_SCALED = ("sweep_sampled", "exact_inprocess")

END_TO_END = {"setup_s": "s", "wall_s": "s", "loss_evals_per_s": "1/s", "peak_rss_mib": "MiB"}
PER_LAYER = {
    "rng.stream_us": "us",
    "rng.streams": "count",
    "rng.self_s": "s",
    "measurement.loss_sampled_us": "us",
    "measurement.overlap_closed_us": "us",
    "measurement.loss_exact_us": "us",
    "measurement.self_s": "s",
    "protocols.loss_eval_us": "us",
    "dynamics.probe_build_s": "s",
    "dynamics.probe_builds": "count",
    "dynamics.trotter_eval_ms": "ms",
    "dynamics.self_s": "s",
    "optimize.adam_step_us": "us",
    "optimize.self_s": "s",
    "optimize.epochs": "count",
    "optimize.loss_evals": "count",
    **{f"protocols.run_ms.{mode}": "ms" for mode in tracer.MODES},
    "experiments.parallel_efficiency": "ratio",
    "experiments.pool_overhead_s": "s",
    "experiments.jobs": "count",
    "results.persist_ms": "ms",
    "results.bytes_per_run": "B",
    "config.from_dict_us": "us",
}


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=("sweep_sampled", "two_angle_dense", "exact_inprocess"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def usable_cpus():
    return len(os.sched_getaffinity(0))


def peak_rss_mib():
    """Largest resident set of this process or any child it has waited for (pool workers included)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0


def in_fresh_process(work, workload, outdir, traced):
    """workloads.child_round(workload, outdir, traced) in a new interpreter, waited for to its end.

    A plain child process, not a multiprocessing "spawn" pool: such a pool
    starts a resource-tracker process that outlives the benchmark.
    """
    request, reply = work / "request.pkl", work / "reply.pkl"
    request.write_bytes(pickle.dumps((workload, outdir, traced)))
    reply.unlink(missing_ok=True)
    subprocess.run([sys.executable, str(HERE / "child_round.py"), str(request), str(reply)], check=True, stdout=sys.stderr)
    return pickle.loads(reply.read_bytes())


def tree_digest(path):
    path = Path(path)
    return {str(p.relative_to(path)): hashlib.sha256(p.read_bytes()).hexdigest() for p in sorted(path.rglob("*")) if p.is_file()}


def tree_bytes(path):
    return sum(p.stat().st_size for p in Path(path).rglob("*") if p.is_file())


def byte_problems(digests, what):
    """Every later digest must equal the first one."""
    problems = []
    for k, dig in enumerate(digests[1:], start=2):
        if dig != digests[0]:
            differ = sorted(set(dig) ^ set(digests[0]) | {f for f in dig if digests[0].get(f) != dig[f]})
            problems.append(f"{what} {k}: {len(differ)} files differ from the first, e.g. {differ[:3]}")
    return problems


def subset_problems(sub_round, sub, full):
    """Files of the one-worker rerun against the same files of the pooled round (summaries cover other jobs)."""
    if sub_round.failed or not sub:
        return ["1-worker rerun: a call raised or wrote nothing"]
    differ = [f for f in sub if not f.endswith("summary.csv") and full.get(f) != sub[f]]
    return [f"1-worker rerun: {len(differ)} files differ from the pooled round, e.g. {differ[:3]}"] if differ else []


class Rounds:
    """Rounds of one workload: their wall times and what they left to check.

    A pooled round's files are fingerprinted; the first round's are kept for
    the checks and later ones deleted.  An in-process round is checked at
    once and its results dropped, so memory does not grow with the rounds.
    """

    def __init__(self, workload, work, checks):
        self.workload, self.checks = workload, checks
        self.out = work / "out"
        self.keep = work / "first"
        self.walls, self.digests = [], []
        self.failed, self.problems, self.evals = 0, [], None

    def add(self, rnd):
        self.walls.append(rnd.wall_s)
        if self.workload.pooled:
            self.out.mkdir(parents=True, exist_ok=True)  # a call that raised may have written nothing
            self.digests.append(tree_digest(self.out))
            if self.keep.exists():
                shutil.rmtree(self.out)
            else:
                self.out.rename(self.keep)
            return
        failed, found = self.checks.check_exact_inprocess(self.workload, rnd.results)
        self.failed += rnd.failed + failed
        self.problems += [p for p in found if p not in self.problems]
        if self.evals is None:
            self.evals = sum(
                self.checks.loss_evals(len(r.trace["epoch"]), len(r.param_names), r.stages)
                for r in rnd.results
                if r is not None
            )

    def finish(self):
        """(failed runs over all rounds, problems, loss evaluations in one round)."""
        problems = self.checks.check_reference() + byte_problems(self.digests, "round") + self.problems
        if not self.workload.pooled:
            return self.failed, problems, self.evals
        check = {"sweep_sampled": self.checks.check_sweep_sampled, "two_angle_dense": self.checks.check_two_angle_dense}
        failed_once, found = check[self.workload.name](self.workload, self.keep)
        # every round wrote the same bytes (checked above), so each fails the same runs
        evals = self.checks.persisted_loss_evals(self.checks.load_runs(self.keep, self.workload))
        return failed_once * len(self.walls), problems + found, evals


def timed_run(workloads, checks, wl, work, workers, seconds):
    cmd = [sys.executable, str(HERE / "setup_probe.py"), wl.name, str(wl.seed)]
    setups = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        subprocess.run(cmd, check=True, stdout=subprocess.DEVNULL)
        setups.append(time.perf_counter() - t0)

    # Each round's time is scaled by the machine's speed during it, from a kernel run between the calls in
    # as many processes at once as the rounds keep busy.  Set-up is not: its time does not follow the kernel's.
    rounds, run_speed, factors = Rounds(wl, work, checks), None, []
    if wl.name in SPEED_SCALED:
        run_speed = speed.Speedometer(workers if wl.pooled else 1)
    t0 = time.perf_counter()
    while not rounds.walls or time.perf_counter() - t0 < seconds:
        rounds.add(workloads.run_round(wl, str(rounds.out), workers, run_speed and run_speed.tick))
        factors.append(run_speed.end_round() if run_speed else 1.0)
    rss = peak_rss_mib()

    failed, problems, evals = rounds.finish()
    if wl.pooled:
        sub, _ = in_fresh_process(work, workloads.subset(wl), str(rounds.out), False)
        problems += subset_problems(sub, tree_digest(rounds.out), rounds.digests[0])
    walls = [w * f for w, f in zip(rounds.walls, factors)]
    metrics = {
        "setup_s": statistics.median(setups),
        "wall_s": statistics.median(walls),
        "loss_evals_per_s": statistics.median(evals / w for w in walls),
        "peak_rss_mib": rss,
    }
    print(f"perfbench: {len(walls)} rounds, measured wall_s {[round(w, 3) for w in rounds.walls]}, "
          f"setup_s {[round(s, 3) for s in setups]}; speed factors {[round(f, 4) for f in factors]} from "
          f"{len(run_speed.samples) if run_speed else 0} kernel samples", file=sys.stderr)
    return problems, wl.jobs * len(walls), failed, {k: {"value": v, "unit": END_TO_END[k]} for k, v in metrics.items()}


def traced_run(workloads, checks, wl, work, workers, seconds):
    rounds, traced, untraced, spans = Rounds(wl, work, checks), [], [], []
    t0 = time.perf_counter()
    while not traced or time.perf_counter() - t0 < seconds:
        # traced and untraced one-worker rounds alternate, so the tracing overhead is their ratio
        for trace, walls in ((True, traced), (False, untraced)):
            rnd, arrays = in_fresh_process(work, wl, str(rounds.out), trace)
            rounds.add(rnd)
            walls.append(rnd.wall_s)
            if trace:
                spans.append(arrays)
    serial = statistics.median(untraced)
    pool = None
    if wl.pooled:
        pool = workloads.run_round(wl, str(rounds.out), workers)
        rounds.add(pool)

    failed, problems, evals = rounds.finish()
    merged = tracer.merge(spans)
    metrics = tracer.layer_metrics(merged, len(traced))
    if metrics["optimize.loss_evals"] != evals:
        problems.append(f"traced loss evaluations {metrics['optimize.loss_evals']} != {evals} counted from the run traces")
    metrics["experiments.jobs"] = wl.jobs if pool else 0
    metrics["experiments.parallel_efficiency"] = serial / (workers * pool.wall_s) if pool else 0.0
    metrics["experiments.pool_overhead_s"] = pool.wall_s - serial / workers if pool else 0.0
    metrics["results.bytes_per_run"] = tree_bytes(rounds.keep) / wl.jobs if pool else 0.0

    overhead = statistics.median(traced) / serial - 1
    meta = {
        "workload": wl.name,
        "seed": wl.seed,
        "traced_wall_s": traced,
        "untraced_wall_s": untraced,
        "pool_wall_s": pool.wall_s if pool else None,
        "workers": workers,
        "tracing_overhead": overhead,
        "metrics": metrics,
    }
    tracer.save(OUT / f"trace-{wl.name}-seed{wl.seed}.npz", merged, meta)
    print(f"perfbench: 1-worker rounds traced {[round(w, 3) for w in traced]}, untraced {[round(w, 3) for w in untraced]} "
          f"(tracing overhead {overhead:+.1%}), pooled round "
          f"{pool.wall_s if pool else float('nan'):.3f} s", file=sys.stderr)
    return problems, wl.jobs * len(rounds.walls), failed, {k: {"value": metrics[k], "unit": u} for k, u in PER_LAYER.items()}


def main(argv=None):
    args = parse_args(argv)
    try:
        import workloads
    except ImportError as exc:
        print(f"perfbench: cannot import the program from src/: {exc}", file=sys.stderr)
        return 2
    import checks
    import numpy

    wl = workloads.make_inputs(args.workload, args.seed)
    workers = min(MAX_WORKERS, usable_cpus())
    settings = {
        "workload": wl.name, "seed": wl.seed, "trace": args.trace, "workers": workers, "usable_cpus": usable_cpus(),
        **{v: os.environ[v] for v in THREAD_VARS},
        "python": platform.python_version(), "numpy": numpy.__version__, "machine": platform.machine(),
    }
    print(json.dumps({"settings": settings}), flush=True)

    OUT.mkdir(exist_ok=True)
    work = OUT / f"{wl.name}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir()
    try:
        run = traced_run if args.trace else timed_run
        problems, attempted, failed, metrics = run(workloads, checks, wl, work, workers, args.seconds)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    for problem in problems:
        print(f"perfbench: check failed: {problem}", file=sys.stderr)
    print(json.dumps({"correct": not problems, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
