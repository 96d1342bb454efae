"""Command-line entry points.

Exit codes: 0 success, 1 configuration/usage error, 2 runtime failure.
Subcommands: run, sweep, cascade, baseline, scaling, bounds, oracle-check,
calibrate.  Results are written as JSON/CSV under the configured output
directory; without one, a summary is printed to stdout.
"""

import argparse
import json
import math
import sys

import numpy as np

from .analysis import BOUND_KINDS, crb_curve
from .config import (
    DECAY_MODES,
    MODE_BASELINE,
    MODE_CASCADE,
    from_dict,
    load_config,
    load_doc,
    merge_overrides,
    parse,
)
from .dynamics import CHANNELS
from .errors import ConfigError, VistaError
from .experiments import calibrate_experiment, oracle_check, run_grid, scaling_experiment
from .protocols import run_from_config
from .results import persist, write_summary


class _Parser(argparse.ArgumentParser):
    # usage errors must exit 1, not argparse's default 2
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _parse_entry(text, kind, flag):
    try:
        return kind(text)
    except ValueError:
        raise ConfigError(f"bad {flag} entry {text!r}; expected {'an integer' if kind is int else 'a number'}") from None


def _parse_int_range(text):
    """'2:12:2' -> [2, 4, ..., 12] (stop inclusive); '5' -> [5]."""
    parts = [_parse_entry(p, int, "range") for p in text.split(":")]
    if len(parts) == 1:
        return parts
    if len(parts) == 2:
        start, stop, step = parts[0], parts[1], 1
    elif len(parts) == 3:
        start, stop, step = parts
    else:
        raise ConfigError(f"bad range {text!r}; expected start:stop[:step]")
    if step <= 0 or stop < start:
        raise ConfigError(f"bad range {text!r}; need stop >= start and step > 0")
    return list(range(start, stop + 1, step))


def _parse_float_list(text):
    if ":" in text:
        parts = text.split(":")
        if len(parts) != 3:
            raise ConfigError(f"bad float range {text!r}; expected start:stop:step")
        start, stop, step = (_parse_entry(p, float, "float range") for p in parts)
        # numpy's arange cannot size an infinite or NaN range
        if not all(map(math.isfinite, (start, stop, step))) or step <= 0 or stop < start:
            raise ConfigError(f"bad float range {text!r}")
        # endpoint inclusive up to float dust
        return [float(v) for v in np.arange(start, stop + step / 2, step)]
    return [_parse_entry(v, float, "list") for v in text.split(",")]


def _emit(result, cfg):
    if cfg.output is not None:
        persist(result, cfg.output)
        print(f"wrote {cfg.output}/result.json")
    summary = {"status": result.status, **result.final}
    if cfg.gradient.crn and cfg.mode != MODE_BASELINE:  # its shot noise is coupled as no device couples it
        summary["crn"] = "true"
    for key, val in summary.items():
        print(f"{key} = {val}")


def _cmd_run(args):
    cfg = load_config(args.config, {"seed": args.seed, "output": args.out})
    result = run_from_config(cfg)
    _emit(result, cfg)
    return 0


def _require_mode(cfg, mode, command):
    if cfg.mode != mode:
        raise ConfigError(f"{command} subcommand needs mode {mode!r}, got {cfg.mode!r}")


def _cmd_cascade(args):
    n_sequence = None
    if args.n_sequence:
        n_sequence = [_parse_entry(v, int, "--n-sequence") for v in args.n_sequence.split(",")]
    cfg = load_config(
        args.config,
        {"cascade": {"n_sequence": n_sequence}, "seed": args.seed, "output": args.out},
    )
    _require_mode(cfg, MODE_CASCADE, "cascade")
    result = run_from_config(cfg)
    _emit(result, cfg)
    for stage in result.stages:
        print(
            "stage n={n}: status={status} theta_hat={theta_hat:.6g} "
            "mean_grad={mean_grad:.3g}".format(**stage)
        )
    return 0


def _cmd_baseline(args):
    if args.config:
        doc = load_doc(args.config)
    else:
        for flag, val in (("--n", args.n), ("--theta", args.theta), ("--seed", args.seed)):
            if val is None:
                raise ConfigError(f"baseline without --config requires {flag}")
        doc = {"mode": MODE_BASELINE}
    overrides = {
        "n": args.n,
        "theta_true": args.theta,
        "gamma_true": args.gamma,
        "seed": args.seed,
        "output": args.out,
        "baseline": {"steps": args.steps, "shots_per_step": args.shots, "total_time": args.total_time},
    }
    cfg = from_dict(merge_overrides(doc, overrides))
    _require_mode(cfg, MODE_BASELINE, "baseline")
    result = run_from_config(cfg)
    _emit(result, cfg)
    return 0


def _cmd_sweep(args):
    cfg = load_config(args.config, {"seed": args.seed})
    axes = {}
    for spec_text in args.axis or []:
        if "=" not in spec_text:
            raise ConfigError(f"bad --axis {spec_text!r}; expected key=v1,v2,...")
        key, vals = spec_text.split("=", 1)
        key = key.strip()
        if key in axes:
            raise ConfigError(f"--axis {key} is given more than once")
        parsed = []
        for token in vals.split(","):
            try:
                parsed.append(json.loads(token))
            except json.JSONDecodeError:
                parsed.append(token)
        axes[key] = parsed
    rows, _ = run_grid(cfg, axes, args.replicas, outdir=args.out, workers=args.workers)
    for row in rows:
        print(row)
    if args.out:
        print(f"wrote {args.out}/summary.csv")
    return 0


def _cmd_scaling(args):
    ns = _parse_int_range(args.n)
    rows, fit = scaling_experiment(
        ns,
        args.gamma,
        args.theta,
        args.shots,
        replicas=args.replicas,
        seed=args.seed,
        workers=args.workers,
        max_epochs=args.max_epochs,
    )
    if args.out:
        write_summary(
            f"{args.out}/summary.csv",
            ["n", "n_runs", "mean_abs_error_theta", "std_abs_error_theta"],
            rows,
        )
    for row in rows:
        print(
            f"n={row['n']}: mean_abs_error_theta={row['mean_abs_error_theta']:.6g} "
            f"(std {row['std_abs_error_theta']:.3g}, {row['n_runs']} runs)"
        )
    print(f"alpha = {fit.exponent:.4f}")
    print(f"intercept = {fit.intercept:.4f}")
    print(f"r_squared = {fit.r_squared:.4f}")
    return 0


def _cmd_bounds(args):
    ns = _parse_int_range(args.n)
    kinds = list(BOUND_KINDS) if args.kind == "all" else [args.kind]
    curves = {kind: crb_curve(kind, ns, args.gamma, args.nu) for kind in kinds}
    rows = []
    for i, n in enumerate(ns):
        row = {"n": int(n)}
        for kind in kinds:
            row[kind] = float(curves[kind].values[i])
        rows.append(row)
    if args.out:
        write_summary(args.out, ["n"] + kinds, rows)
        print(f"wrote {args.out}")
    else:
        print(",".join(["n"] + kinds))
        for row in rows:
            print(",".join([str(row["n"])] + [f"{row[k]:.12g}" for k in kinds]))
    return 0


def _cmd_oracle_check(args):
    dev = oracle_check(args.n, args.theta, args.gamma, args.channel, steps=args.steps)
    print(f"max_abs_deviation = {dev:.3e} (tolerance {args.tol:.1e})")
    if not dev <= args.tol:  # a nan deviation or tolerance fails
        print("oracle check FAILED", file=sys.stderr)
        return 2
    print("oracle check passed")
    return 0


def _cmd_calibrate(args):
    gammas = _parse_float_list(args.gammas)
    report = calibrate_experiment(
        args.n,
        gammas,
        args.theta,
        replicas=args.replicas,
        seed=args.seed,
        channel=args.channel,
        workers=args.workers,
    )
    for g, h in zip(report["grid"], report["gamma_hat_median"]):
        print(f"gamma_true={g:.6g} -> gamma_hat_median={h:.6g}")
    for row in report["holdout"]:
        print(
            f"holdout gamma={row['gamma_true']:.6g}: raw_mae={row['raw_mae']:.6g} "
            f"calibrated_mae={row['calibrated_mae']:.6g}"
        )
    if args.out:
        write_summary(
            f"{args.out}/calibration.csv",
            ["gamma_true", "gamma_hat_median"],
            [
                {"gamma_true": g, "gamma_hat_median": h}
                for g, h in zip(report["grid"], report["gamma_hat_median"])
            ],
        )
        write_summary(
            f"{args.out}/holdout.csv",
            ["gamma_true", "raw_mae", "calibrated_mae"],
            report["holdout"],
        )
        print(f"wrote {args.out}/calibration.csv and {args.out}/holdout.csv")
    return 0


def build_parser():
    parser = _Parser(prog="vista", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("run", help="single estimation run from a JSON config")
    p.add_argument("--config", required=True)
    p.add_argument("--seed", type=int)
    p.add_argument("--out", help="output directory (overrides config)")
    p.set_defaults(func=_cmd_run)

    p = sub.add_parser("sweep", help="grid sweep with replicas and a summary CSV")
    p.add_argument("--config", required=True)
    p.add_argument("--axis", action="append", help="key=v1,v2,... (repeatable)")
    p.add_argument("--replicas", type=int, default=3)
    p.add_argument("--seed", type=int)
    p.add_argument("--workers", type=int)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("cascade", help="staged runs over an increasing qubit sequence")
    p.add_argument("--config", required=True)
    p.add_argument("--n-sequence", help="comma list overriding cascade.n_sequence")
    p.add_argument("--seed", type=int)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_cascade)

    p = sub.add_parser("baseline", help="stabilizer-parity FFT estimate")
    p.add_argument("--config")
    p.add_argument("--n", type=int)
    p.add_argument("--theta", type=float)
    p.add_argument("--gamma", type=float)
    p.add_argument("--steps", type=int)
    p.add_argument("--shots", type=int, help="shots per time step")
    p.add_argument("--total-time", type=float)
    p.add_argument("--seed", type=int)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_baseline)

    p = sub.add_parser("scaling", help="error vs qubit number with power-law fit")
    p.add_argument("--gamma", type=float, required=True)
    p.add_argument("--theta", type=float, required=True)
    p.add_argument("--shots", type=int, required=True)
    p.add_argument("--n", required=True, help="range start:stop[:step], stop inclusive")
    p.add_argument("--replicas", type=int, default=10)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--max-epochs", type=int, default=400)
    p.add_argument("--workers", type=int)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_scaling)

    p = sub.add_parser("bounds", help="shot-noise lower-bound curves")
    p.add_argument("--kind", default="all", choices=["all"] + list(BOUND_KINDS))
    p.add_argument("--gamma", type=float, required=True)
    p.add_argument("--nu", type=int, required=True)
    p.add_argument("--n", required=True, help="range start:stop[:step]")
    p.add_argument("--out", help="CSV file path")
    p.set_defaults(func=_cmd_bounds)

    p = sub.add_parser("oracle-check", help="closed form vs dense integrator deviation")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--gamma", type=float, required=True)
    p.add_argument("--channel", required=True, choices=CHANNELS)
    p.add_argument("--theta", type=float, default=0.1)
    p.add_argument("--steps", type=int, default=400)
    p.add_argument("--tol", type=float, default=1e-6)
    p.set_defaults(func=_cmd_oracle_check)

    p = sub.add_parser("calibrate", help="decay-estimate calibration curve")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--theta", type=float, default=1e-3)
    p.add_argument("--gammas", required=True, help="comma list or start:stop:step")
    p.add_argument("--channel", default="dephasing", choices=list(DECAY_MODES))
    p.add_argument("--replicas", type=int, default=5)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--workers", type=int)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_calibrate)

    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        parse("output", getattr(args, "out", None))  # an empty --out would name the working directory
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except VistaError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
