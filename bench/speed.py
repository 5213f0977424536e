"""Samples the speed of the machine's cores while the benchmark runs.

On a shared host, other tenants can slow both cores of this machine
together, down to half speed, for tens of seconds at a time; a pure-Python
loop pinned to each core showed the same step in both.  Wall and CPU time of a
round then measure the host as much as the program.  So ``run.py`` starts
this script next to the rounds.  Every ``INTERVAL_S`` it times a fixed
pure-Python kernel, which runs no incseg code, in CPU seconds of its own
process (so time spent waiting for a core does not count), and appends
``<time.monotonic()> <kernel CPU seconds>`` to the file it is given.  It
sleeps between samples, so it takes a few per cent of one core.

``run.py`` stops it with SIGTERM after the last round.  Run by hand:

    python3 bench/speed.py samples.txt
"""

from __future__ import annotations

import sys
import time
from pathlib import Path

INTERVAL_S = 0.05
# kernel CPU seconds at the reference speed: the kernel's time on an
# unloaded core of the reference machine (bench/README.md)
REF_KERNEL_S = 0.0025


def kernel() -> int:
    """Dict updates keyed by small int tuples, as incseg's counters do."""
    counts: dict = {}
    for i in range(8000):
        key = (i % 97, i % 89)
        counts[key] = counts.get(key, 0) + 1
    return len(counts)


def read_samples(path: Path) -> list[tuple[float, float]]:
    """``(monotonic time, kernel CPU seconds)`` pairs, skipping a torn tail."""
    samples = []
    with path.open(encoding="ascii") as fh:
        for line in fh:
            fields = line.split()
            if len(fields) == 2 and line.endswith("\n"):
                samples.append((float(fields[0]), float(fields[1])))
    return samples


def main() -> int:
    with open(sys.argv[1], "a", encoding="ascii") as fh:
        while True:
            c0 = time.process_time()
            kernel()
            took = time.process_time() - c0
            fh.write(f"{time.monotonic():.6f} {took:.9f}\n")
            fh.flush()
            time.sleep(INTERVAL_S)


if __name__ == "__main__":
    sys.exit(main())
