"""A fixed loop the benchmark times beside the program, to cancel machine drift.

On a shared virtual machine the speed of a core drifts by up to 1.5x over
seconds to minutes, and the program's times drift with it. The benchmark
divides each program time by the time of this loop taken in the same
process just before and just after it. The loop is the benchmark's own, so
it is the same on every commit.
"""

from __future__ import annotations

import gc
import json
import math
import sys
import time

ITERATIONS = 10_000


def once() -> float:
    """Seconds for one pass of the loop, with the cyclic collector off.

    It builds a dict keyed by nested tuples holding None, accumulates
    floats with a log, and sorts the items: the allocation, hashing and
    memory traffic that dominate vlgram's parsing, aggregation and scoring.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        counts: dict = {}
        for i in range(ITERATIONS):
            key = (((i * 7919) % 97, None), ((i % 11,), i % 12, (i * 31) % 12),
                   ((i * 13) % 7,))
            counts[key] = counts.get(key, 0.0) + math.log2(1.0 + i % 17)
        sorted(counts.items(), key=lambda item: (-item[1], item[0][0][0]))
        return time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()


if __name__ == "__main__":
    # python3 reference.py COUNT prints COUNT timings as a JSON list.
    print(json.dumps([once() for _ in range(int(sys.argv[1]))]))
