"""Run records, deterministic persistence, and the loader.

``persist`` writes two files into the output directory:

* ``result.json``  : status, final estimates, the full trace (a baseline's series instead), config echo
* ``config.json``  : the effective config alone (loadable as a config file)

``load`` reads ``result.json`` back into a ``RunResult``: the trace at full precision, each float bit for bit
(JSON spells one NaN, so a NaN comes back without its payload).  Wall time is kept on the in-memory record but
never persisted, so rerunning with the same seed overwrites every file byte-identically.

The files hold the bytes of ``json.dumps(doc, indent=2, sort_keys=True)`` plus a newline, at about the cost of
formatting their numbers: json's C encoder spells each list of scalars in one call (``_flat``), the config is
encoded once for both files, the trace is written column by column, and the columns that a batch's replicas
share (epoch, shots, lr) are formatted once per distinct column, and a column that starts a longer formatted one
takes its first values (``_shared_column``).  Each file is one write.
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


_INDENT = "  "
_SCALARS = {str, int, float, bool, type(None)}
_COLUMN_PAD = 2 * _INDENT  # the indentation of a trace column's key in result.json
_SHARED = ("epoch", "shots", "lr")  # the trace columns that a batch's replicas share
_FORMATTED = deque(maxlen=8)  # (dtype, bytes, json items) of the shared columns formatted last, newest first
_INT_COLUMNS = ("epoch", "shots")  # the trace columns that ``load`` reads as int64; the others are float64


def persist(result, outdir):
    """Write result.json and the config echo."""
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
        shared = {key: _shared_column(tr[key].tobytes(), tr[key].dtype.str) for key in _SHARED}
        columns = {"param_names": _flat(list(result.param_names), _COLUMN_PAD)}
        for key, values in tr.items():
            if key in shared:
                columns[key] = shared[key]
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
    _write(os.path.join(outdir, "config.json"), config + "\n")


def load(run_dir):
    """The ``RunResult`` that ``run_dir``'s result.json describes, with ``wall_time_s`` 0.0: ``persist``'s inverse.

    The trace's epoch and shots come back as int64 and its other columns, like a series, as float64, with params
    of shape (epochs, parameters) also when there are no epochs.
    """
    with open(os.path.join(run_dir, "result.json")) as fh:
        doc = json.load(fh)
    param_names, trace, series = (), doc.get("trace"), doc.get("series")
    if trace is not None:
        param_names = tuple(trace.pop("param_names"))
        trace = {
            key: np.array(values, np.int64 if key in _INT_COLUMNS else np.float64) for key, values in trace.items()
        }
        trace["params"] = trace["params"].reshape(len(trace["epoch"]), len(param_names))
    if series is not None:
        series = {key: np.array(values, np.float64) for key, values in series.items()}
    return RunResult(
        config=doc["config"], seed=doc["seed"], status=doc["status"], param_names=param_names, trace=trace,
        final=doc["final"], stages=doc.get("stages"), series=series,
    )


@lru_cache(maxsize=8)
def _shared_column(data, dtype):
    """The result.json text of the trace column with these bytes and this dtype.

    The key tells apart what float equality does not (0.0 and -0.0, an int column and a float one), and the cache
    keeps the few columns that the runs of a batch, persisted one after another, have in common.  Replicas that
    stop at different epochs share a prefix: a column whose bytes start a formatted one's of the same dtype takes
    that column's first values.
    """
    for kind, kept, items in _FORMATTED:
        if kind == dtype and kept.startswith(data):
            count = len(data) // np.dtype(dtype).itemsize
            break
    else:
        values = np.frombuffer(data, dtype)
        items = json.dumps(values.tolist())[1:-1].split(", ")  # json's C encoder spells them; no number holds ", "
        count = len(values)
        _FORMATTED.appendleft((dtype, data, items))
    inner = _COLUMN_PAD + _INDENT
    return "[\n" + inner + (",\n" + inner).join(items[:count]) + "\n" + _COLUMN_PAD + "]" if count else "[]"


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
                out.append(f"{float(v):.12g}" if isinstance(v, float) else v)
            writer.writerow(out)
