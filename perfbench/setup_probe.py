"""Set-up work of a benchmark run, for timing from outside the process.

``python3 perfbench/setup_probe.py <workload> <seed>`` starts the interpreter,
imports numpy and vista, builds the workload's inputs and exits just before
the first library call.
"""

import sys

import workloads

workloads.make_inputs(sys.argv[1], int(sys.argv[2]))
