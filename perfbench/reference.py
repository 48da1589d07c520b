"""The reference process: fixed pure-Python work that shares no code with glfq.

    python3 perfbench/reference.py      # prints REFERENCE_OUTPUT

run.py runs it between requests to measure how fast the machine is at that
moment, and reports request times at the speed where this process takes
run.REF_SECONDS (see run.py).  Like a request, it pays interpreter start and
imports, then does small-integer field arithmetic with the benchmark's own
gf.py and fills and reads a memo of tuples, as glfq's product memos do: a
slow phase of the machine slows the memo more than the arithmetic, and
requests spend their time on both.  Its work never changes, so a change to
glfq cannot move it.
"""

import itertools
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from gf import GF, mat_inverse, mat_mul  # noqa: E402

REFERENCE_OUTPUT = "180 180 12288"  # |GL(2, 4)| twice, and the memo's size


def reference_work():
    """Invert and multiply every matrix of GL(2, F_4); fill a memo with
    12288 tuple keys and look up 16384."""
    F = GF(4)
    invertible = consistent = 0
    for a, b, c, d in itertools.product(range(4), repeat=4):
        A = [[a, b], [c, d]]
        inv = mat_inverse(F, A)
        if inv is None:
            continue
        invertible += 1
        consistent += mat_mul(F, mat_mul(F, A, A), inv) == A
    memo = {}
    keys = list(itertools.product(range(8), repeat=4))
    for a, b, c, d in keys:
        for e in range(3):
            memo[(a, b), (c, d, e)] = (F.mul(a & 3, b & 3), c ^ d, e)
    hits = sum(((a, b), (c, d, e)) in memo for a, b, c, d in keys for e in range(4))
    return "%d %d %d" % (invertible, consistent, hits)


if __name__ == "__main__":
    print(reference_work())
