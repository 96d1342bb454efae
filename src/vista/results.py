"""Run records and deterministic persistence.

``persist`` writes three files into the output directory:

* ``result.json``  : status, final estimates, full trace, config echo
* ``trace.csv``    : epoch,loss,theta_hat[,phi][,theta2_hat],grad_norm,shots,lr
* ``config.json``  : the effective config alone (loadable as a config file)

Floats in CSV carry 12 significant digits.  Wall time is kept on the
in-memory record but never persisted, so rerunning with the same seed
overwrites every file byte-identically.

The JSON files hold the bytes of ``json.dumps(doc, indent=2, sort_keys=True)``
plus a newline, and the CSV files the bytes that ``csv.writer`` writes; both
are written without those encoders' per-element Python loops (``_dumps``,
``_write_csv``).
"""

import csv
import json
import os
from dataclasses import dataclass, field
from itertools import chain
from json.encoder import encode_basestring_ascii

import numpy as np


@dataclass
class RunResult:
    config: dict
    seed: int
    status: str
    param_names: tuple = ()
    trace: dict | None = None  # epoch, loss, params (2D), grad_norm, shots, lr
    final: dict = field(default_factory=dict)
    stages: list | None = None
    series: dict | None = None  # baseline time series instead of a trace
    wall_time_s: float = 0.0


def _fmt(x):
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    return f"{float(x):.12g}"


def _jsonable(obj):
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return obj.tolist()  # already Python scalars
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.floating,)):
        return float(obj)
    return obj


def trace_header(param_names):
    cols = ["epoch", "loss"]
    cols += list(param_names)
    cols += ["grad_norm", "shots", "lr"]
    return cols


def persist(result, outdir):
    """Write result.json, trace.csv (or series.csv), and the config echo."""
    os.makedirs(outdir, exist_ok=True)

    doc = {
        "config": result.config,
        "seed": result.seed,
        "status": result.status,
        "final": _jsonable(result.final),
    }
    if result.trace is not None:
        doc["trace"] = _jsonable({"param_names": list(result.param_names), **result.trace})
    if result.stages is not None:
        doc["stages"] = _jsonable(result.stages)
    if result.series is not None:
        doc["series"] = _jsonable(result.series)

    _write_json(os.path.join(outdir, "result.json"), doc)

    if result.trace is not None:
        tr = result.trace
        params = np.asarray(tr["params"], dtype=float)
        params = params[:, None] if params.ndim == 1 else params
        columns = [_int_column(tr["epoch"]), _fmt_column(tr["loss"])]
        columns += [_fmt_column(params[:, j]) for j in range(params.shape[1])]
        columns += [_fmt_column(tr["grad_norm"]), _int_column(tr["shots"]), _fmt_column(tr["lr"])]
        _write_csv(os.path.join(outdir, "trace.csv"), trace_header(result.param_names), columns)

    if result.series is not None:
        keys = list(result.series)
        _write_csv(os.path.join(outdir, "series.csv"), keys, [_fmt_column(result.series[k]) for k in keys])

    _write_json(os.path.join(outdir, "config.json"), result.config)


def _int_column(values):
    return list(map(str, np.asarray(values).astype(int).tolist()))


def _fmt_column(values):
    """A float column formatted as ``_fmt`` formats each float, in one formatting call."""
    values = tuple(np.asarray(values, dtype=float).tolist())
    return ("%.12g\n" * len(values) % values).split()


def _write_csv(path, header, columns):
    """What ``csv.writer`` writes for fields that need no quoting: numbers and the fixed headers."""
    lines = [",".join(header), *map(",".join, zip(*columns)), ""]
    with open(path, "w", newline="") as fh:
        fh.write("\r\n".join(lines))


_INDENT = "  "
_SCALARS = {str, int, float, bool, type(None)}


def _dumps(obj, pad=""):
    """``json.dumps(obj, indent=2, sort_keys=True)`` as it reads nested at indentation ``pad``.

    json runs its pure-Python encoder whenever ``indent`` is set.  Here a list
    or dict of scalars is encoded by the C encoder in one call, with the
    newline and the indentation in its item separator.  A list of non-empty
    lists of scalars is too, and its rows are then re-indented by string
    replacement.  That is exact: json escapes every newline inside a string,
    so the separators hold the only raw ones, and only a row's end and the
    next row's start put "]" and "[" around a separator.  Every value is
    spelled by json's own encoder.
    """
    inner = pad + _INDENT
    is_dict = isinstance(obj, dict)
    if not (is_dict or isinstance(obj, (list, tuple))) or not obj:
        return json.dumps(obj)
    if set(map(type, obj.values() if is_dict else obj)) <= _SCALARS:
        body = json.dumps(obj, sort_keys=True, separators=(",\n" + inner, ": "))
        return f"{body[0]}\n{inner}{body[1:-1]}\n{pad}{body[-1]}"
    if is_dict:
        items = [f"{encode_basestring_ascii(key)}: {_dumps(obj[key], inner)}" for key in sorted(obj)]
        return "{\n" + inner + (",\n" + inner).join(items) + "\n" + pad + "}"
    if set(map(type, obj)) == {list} and all(obj) and set(map(type, chain.from_iterable(obj))) <= _SCALARS:
        cell = inner + _INDENT
        body = json.dumps(obj, separators=(",\n" + cell, ": "))[2:-2]
        body = body.replace("],\n" + cell + "[", "\n" + inner + "],\n" + inner + "[\n" + cell)
        return "[\n" + inner + "[\n" + cell + body + "\n" + inner + "]\n" + pad + "]"
    return "[\n" + inner + (",\n" + inner).join([_dumps(item, inner) for item in obj]) + "\n" + pad + "]"


def _write_json(path, doc):
    with open(path, "w") as fh:
        fh.write(_dumps(doc) + "\n")


def write_summary(path, fieldnames, rows):
    """summary.csv for sweeps: one aggregated row per grid point."""
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(fieldnames)
        for row in rows:
            out = []
            for k in fieldnames:
                v = row.get(k, "")
                out.append(_fmt(v) if isinstance(v, float) else v)
            writer.writerow(out)
