"""The machine's speed during a run, from a fixed kernel independent of the program.

On a virtual machine whose host is shared, the CPU speed can drift by tens
of percent over minutes as the host's other load comes and goes.  On the
reference machine (see README.md) a sweep round that took 14.5 s took 8.7 s
six minutes later, with nothing else running in the machine.  Medians
within a run cannot remove a drift that slow.  ``Speedometer`` therefore
times a fixed kernel (interpreter loop, small numpy arrays, seeded RNG
draws: the same kind of work as the interpreter-bound workloads) between the
library calls of a run, in as many processes at once as the workload keeps
busy.  The run reports each round's time scaled by
``REFERENCE_S[procs] / median kernel time during the round``: seconds at
the speed at which the kernel takes ``REFERENCE_S``.  The kernel does not
use the program, so a change to the program moves the scaled times in full.
"""

import os
import statistics
import struct
import time

import numpy as np

# kernel seconds in the reference machine's fast spells, by the number of copies run at once
REFERENCE_S = {1: 0.025, 2: 0.030}
EVERY_S = 0.25  # one kernel sample per this much timed work


def kernel():
    """Seconds one pass of the fixed kernel takes."""
    t0 = time.perf_counter()
    acc, table = 0.0, {}
    for i in range(40_000):
        x = (i * 2654435761) % 1000003
        table[x % 997] = acc
        acc += (x**0.5) * 1e-3 - acc * 1e-4
    a = np.linspace(0.0, 1.0, 32)
    for i in range(400):
        rng = np.random.default_rng(np.random.SeedSequence(12345, spawn_key=(i,)))
        acc += float(np.sum(np.cos(a * (i % 7)) ** 2 * a)) + rng.binomial(1000, 0.3) * 1e-6
    return time.perf_counter() - t0


def sample(procs):
    """Mean kernel time over ``procs`` copies run at once: this process and procs - 1 forked children.

    Each child is waited for before this returns.
    """
    kids = []
    for _ in range(procs - 1):
        r, w = os.pipe()
        pid = os.fork()
        if pid == 0:  # child: run the kernel, report its time, exit without cleanup handlers
            code = 1
            try:
                os.close(r)
                os.write(w, struct.pack("d", kernel()))
                code = 0
            finally:
                os._exit(code)
        os.close(w)
        kids.append((pid, r))
    times = [kernel()]
    for pid, r in kids:
        with os.fdopen(r, "rb") as fh:
            data = fh.read()
        _, status = os.waitpid(pid, 0)
        if status != 0 or len(data) != 8:
            raise RuntimeError(f"speed kernel child {pid} failed (status {status})")
        times.append(struct.unpack("d", data)[0])
    return sum(times) / len(times)


class Speedometer:
    """Kernel samples spread over a run: ``tick(work_s)`` after each timed piece of work, ``end_round()`` after each round."""

    def __init__(self, procs):
        self.procs = procs
        self.samples = []
        self._owed = 0.0
        self._round_start = 0

    def take(self):
        self.samples.append(sample(self.procs))

    def tick(self, work_s):
        """Take one sample per EVERY_S of work timed since the last one."""
        self._owed += work_s
        while self._owed >= EVERY_S:
            self._owed -= EVERY_S
            self.take()

    def end_round(self):
        """Factor that turns the round's measured time into seconds at the reference speed.

        It comes from the samples taken during the round, so that a drift
        within a run is followed too.
        """
        if len(self.samples) == self._round_start:
            self.take()
        taken, self._round_start = self.samples[self._round_start :], len(self.samples)
        return REFERENCE_S[self.procs] / statistics.median(taken)
