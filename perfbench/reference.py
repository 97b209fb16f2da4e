"""Host-speed reference: a fixed kernel timed in short bursts on one CPU.

``run.py`` starts one of these per lane, pinned to the lane's CPU, and
stops it with SIGTERM when the lane is done.  Every ``PERIOD_S`` it runs
one fixed unit of work (a pure-Python loop and a numpy sort, the two
kinds of work the program does) and records the ``time.perf_counter()``
readings before and after it; the lane's repetitions run on the same CPU
in between, so the unit's duration says how fast that CPU ran then.  It
prints ``ready`` once it runs and, when stopped, the ``[start, end]``
pairs as one JSON list.  ``perf_counter`` is the system-wide monotonic
clock, so ``run.py`` can match them to the repetitions' intervals.

The program under test is never imported: a change to it cannot change
the reference.

Usage::

    python3 perfbench/reference.py <cpu> <seconds at most>
"""

import json
import os
import signal
import sys
import time

import numpy as np

#: Iterations of the pure-Python loop in one unit.
LOOP = 20_000
#: Length of the float array sorted in one unit.
SORT = 16_384
#: Seconds from the start of one unit to the start of the next.
PERIOD_S = 0.1


def unit(data: np.ndarray) -> int:
    total = 0
    for i in range(LOOP):
        total += i * i % 7
    return total + int(np.sort(data)[0] > 2.0)


def main() -> int:
    os.sched_setaffinity(0, {int(sys.argv[1])})
    limit = time.perf_counter() + float(sys.argv[2])
    stopped = False

    def stop(signum, frame):
        nonlocal stopped
        stopped = True

    signal.signal(signal.SIGTERM, stop)
    data = np.random.default_rng(0).random(SORT)
    unit(data)
    print("ready", flush=True)
    bursts = []
    while not stopped and time.perf_counter() < limit:
        t0 = time.perf_counter()
        unit(data)
        t1 = time.perf_counter()
        bursts.append((t0, t1))
        time.sleep(max(0.0, t0 + PERIOD_S - t1))
    print(json.dumps(bursts))
    return 0


if __name__ == "__main__":
    sys.exit(main())
