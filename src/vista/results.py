"""Run records and deterministic persistence.

``persist`` writes three files into the output directory:

* ``result.json``  : status, final estimates, full trace, config echo
* ``trace.csv``    : epoch,loss,theta_hat[,phi][,theta2_hat],grad_norm,shots,lr
* ``config.json``  : the effective config alone (loadable as a config file)

Floats in CSV carry 12 significant digits.  Wall time is kept on the
in-memory record but never persisted, so rerunning with the same seed
overwrites every file byte-identically.

The JSON files hold the bytes of ``json.dumps(doc, indent=2, sort_keys=True)``
plus a newline, and the CSV files the bytes that ``csv.writer`` writes, at
about the cost of formatting their numbers: json's C encoder spells each list
of scalars in one call (``_flat``), the config is encoded once for both JSON
files, the trace is written column by column, and the columns that a batch's
replicas share (epoch, shots, lr) are formatted once per distinct column,
and a column that starts a longer formatted one takes its first values
(``_shared_column``).  Each file is one write.
"""

import csv
import json
import os
from collections import deque
from dataclasses import dataclass, field
from functools import lru_cache
from json.encoder import encode_basestring_ascii

import numpy as np


@dataclass
class RunResult:
    config: dict
    seed: int
    status: str
    param_names: tuple = ()
    trace: dict | None = None  # numpy arrays: epoch, loss, params (2D), grad_norm, shots, lr
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


_INDENT = "  "
_SCALARS = {str, int, float, bool, type(None)}
_COLUMN_PAD = 2 * _INDENT  # the indentation of a trace column's key in result.json
# the trace columns that a batch's replicas share, each with whether trace.csv spells it as integers
_SHARED = {"epoch": True, "shots": True, "lr": False}
# ((dtype, ints), bytes, json items, csv cells) of the shared columns formatted last, newest first
_FORMATTED = deque(maxlen=8)


def persist(result, outdir):
    """Write result.json, trace.csv (or series.csv), and the config echo."""
    os.makedirs(outdir, exist_ok=True)

    config = _dumps(result.config)
    texts = {
        # nested one level deeper: json escapes every newline inside a string, so each raw one starts a line
        "config": config.replace("\n", "\n" + _INDENT),
        "seed": json.dumps(result.seed),
        "status": json.dumps(result.status),
        "final": _dumps(_jsonable(result.final), _INDENT),
    }
    tr = result.trace
    if tr is not None:
        shared = {key: _shared_column(tr[key].tobytes(), tr[key].dtype.str, ints) for key, ints in _SHARED.items()}
        columns = {"param_names": _flat(list(result.param_names), _COLUMN_PAD)}
        for key, values in tr.items():
            if key in shared:
                columns[key] = shared[key][0]
            elif key == "params":
                columns[key] = _rows(values, _COLUMN_PAD)
            else:
                columns[key] = _flat(values.tolist(), _COLUMN_PAD)
        texts["trace"] = _object(columns, _INDENT)
    if result.stages is not None:
        texts["stages"] = _dumps(_jsonable(result.stages), _INDENT)
    if result.series is not None:
        texts["series"] = _dumps(_jsonable(result.series), _INDENT)
    _write(os.path.join(outdir, "result.json"), _object(texts, "") + "\n")

    if tr is not None:
        cells = [shared["epoch"][1], _fmt_column(tr["loss"]), *map(_fmt_column, tr["params"].T)]
        cells += [_fmt_column(tr["grad_norm"]), shared["shots"][1], shared["lr"][1]]
        _write_csv(os.path.join(outdir, "trace.csv"), trace_header(result.param_names), cells)

    if result.series is not None:
        keys = list(result.series)
        _write_csv(os.path.join(outdir, "series.csv"), keys, [_fmt_column(result.series[k]) for k in keys])

    _write(os.path.join(outdir, "config.json"), config + "\n")


@lru_cache(maxsize=8)
def _shared_column(data, dtype, ints):
    """The result.json text and the trace.csv cells of the trace column with these bytes and this dtype.

    The key tells apart what float equality does not (0.0 and -0.0, an int column and a float one), and the cache
    keeps the few columns that the runs of a batch, persisted one after another, have in common.  Replicas that
    stop at different epochs share a prefix: a column whose bytes start a formatted one's of the same dtype and
    spelling takes that column's first values.
    """
    for kind, kept, items, cells in _FORMATTED:
        if kind == (dtype, ints) and kept.startswith(data):
            count = len(data) // np.dtype(dtype).itemsize
            break
    else:
        values = np.frombuffer(data, dtype)
        items = json.dumps(values.tolist())[1:-1].split(", ")  # json's C encoder spells them; no number holds ", "
        cells = tuple(map(str, values.astype(int).tolist()) if ints else _fmt_column(values))
        count = len(values)
        _FORMATTED.appendleft(((dtype, ints), data, items, cells))
    inner = _COLUMN_PAD + _INDENT
    text = "[\n" + inner + (",\n" + inner).join(items[:count]) + "\n" + _COLUMN_PAD + "]" if count else "[]"
    return text, cells[:count]


def _fmt_column(values):
    """A float column formatted as ``_fmt`` formats each float, in one formatting call."""
    values = tuple(np.asarray(values, dtype=float).tolist())
    return ("%.12g\n" * len(values) % values).split()


def _write_csv(path, header, columns):
    """What ``csv.writer`` writes for fields that need no quoting: numbers and the fixed headers."""
    _write(path, "\r\n".join([",".join(header), *map(",".join, zip(*columns)), ""]))


def _write(path, text):
    """Write ``text`` to ``path`` in one call on an unbuffered handle, continued only after a short write."""
    data = memoryview(text.encode())
    with open(path, "wb", buffering=0) as fh:
        while data:
            data = data[fh.write(data) :]


def _dumps(obj, pad=""):
    """``json.dumps(obj, indent=2, sort_keys=True)`` as it reads nested at indentation ``pad``.

    json runs its pure-Python encoder whenever ``indent`` is set.  Here each
    list or dict of scalars is encoded by the C encoder in one call
    (``_flat``), so every value is spelled by json's own encoder.
    """
    is_dict = isinstance(obj, dict)
    if not (is_dict or isinstance(obj, (list, tuple))):
        return json.dumps(obj)
    if set(map(type, obj.values() if is_dict else obj)) <= _SCALARS:
        return _flat(obj, pad)
    inner = pad + _INDENT
    if is_dict:
        return _object({key: _dumps(obj[key], inner) for key in obj}, pad)
    return "[\n" + inner + (",\n" + inner).join([_dumps(item, inner) for item in obj]) + "\n" + pad + "]"


def _flat(obj, pad):
    """``_dumps`` of a list or dict of scalars: one C-encoder call, the newline and indentation in its item separator."""
    if not obj:
        return json.dumps(obj)
    inner = pad + _INDENT
    body = json.dumps(obj, sort_keys=True, separators=(",\n" + inner, ": "))
    return f"{body[0]}\n{inner}{body[1:-1]}\n{pad}{body[-1]}"


def _object(texts, pad):
    """The JSON object at indentation ``pad`` whose keys hold the encoded values ``texts``, in sorted key order."""
    inner = pad + _INDENT
    items = [f"{encode_basestring_ascii(key)}: {texts[key]}" for key in sorted(texts)]
    return "{\n" + inner + (",\n" + inner).join(items) + "\n" + pad + "}"


def _rows(values, pad):
    """``_dumps(values.tolist(), pad)`` of a 2-D array of floats with at least one column, in one C-encoder call.

    The rows are encoded with the newline and their items' indentation in the
    item separator, and each boundary between two rows is then re-indented by
    string replacement.  That is exact: numbers hold no brackets, so only a
    row's end and the next row's start put "]" and "[" around a separator.
    """
    if not len(values):
        return "[]"
    inner, cell = pad + _INDENT, pad + 2 * _INDENT
    body = json.dumps(values.tolist(), separators=(",\n" + cell, ": "))[2:-2]
    body = body.replace("],\n" + cell + "[", "\n" + inner + "],\n" + inner + "[\n" + cell)
    return "[\n" + inner + "[\n" + cell + body + "\n" + inner + "]\n" + pad + "]"


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
