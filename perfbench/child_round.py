"""One round of a workload in a fresh interpreter, for ``run.py``.

``python3 perfbench/child_round.py <request.pkl> <reply.pkl>`` reads the
pickled ``(workload, outdir, traced)``, runs ``workloads.child_round`` on it
and pickles its ``(round, span arrays)`` to the reply file.  It is a plain
child process that ``run.py`` waits for, so nothing of it outlives the run.
"""

import pickle
import sys

import workloads

with open(sys.argv[1], "rb") as fh:
    workload, outdir, traced = pickle.load(fh)
reply = workloads.child_round(workload, outdir, traced)
with open(sys.argv[2], "wb") as fh:
    pickle.dump(reply, fh)
