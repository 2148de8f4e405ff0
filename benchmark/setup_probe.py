"""Set-up cost of one CLI-style call, measured inside a fresh process.

Usage: python3 setup_probe.py SRC_DIR KIND < instance.txt

Reads the instance text first (input generation is not set-up), then
times ``import splitbeam`` from SRC_DIR plus one decision per route, and
prints the CPU seconds this process spent on them.
"""

import sys
import time

src, kind = sys.argv[1], sys.argv[2]
text = sys.stdin.read()
start = time.process_time()
sys.path.insert(0, src)
import splitbeam  # noqa: E402

if kind == "split":
    splitbeam.solve_optical(splitbeam.parse_split_instance(text))
    splitbeam.solve_oracle(splitbeam.parse_split_instance(text))
else:
    splitbeam.solve_subset_sum(splitbeam.parse_subset_sum_instance(text))
    splitbeam.subset_sum_oracle(splitbeam.parse_subset_sum_instance(text))
print(repr(time.process_time() - start))
