"""Peak-memory probe for one ``lib-scan`` shape.

    python perfbench/probe.py SEED SHAPE

Builds the one input, runs ``solve_linear`` and ``count_steps`` on it and
exits, so the launcher's peak-memory reading covers the input and the
engine's working memory and nothing else of the benchmark.
"""

import sys

sys.dont_write_bytecode = True  # keep the benchmark's own directory clean

from dropk import linear  # noqa: E402

from workloads import make_shape  # noqa: E402

shape = make_shape(sys.argv[2], int(sys.argv[1]))
linear.solve_linear(shape.k, shape.xs)
linear.count_steps(shape.k, shape.xs)
