"""Compare two determinism records; exit 1 on any difference.

Write a record at each commit with the same workload and seed, then compare:

    python3 bench/run.py --workload segment-78k-n4 --seed 99 --seconds 1 \\
        --trace 0 --record before.json
    python3 bench/compare.py before.json after.json

A record holds, per learner run or grid cell, the boundary SHA-256, the
iteration count, the stop reason and ``repr`` of the objective (grid cells
add their six criteria; the grid adds the top-k choice, the vote and the
rank correlations).  Any difference breaks byte-identical output.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path


def differences(a, b, path: str = "") -> list[str]:
    if isinstance(a, dict) and isinstance(b, dict):
        out = []
        for key in sorted(set(a) | set(b)):
            where = f"{path}/{key}"
            if key not in a or key not in b:
                out.append(f"{where}: only in {'second' if key in b else 'first'}")
            else:
                out.extend(differences(a[key], b[key], where))
        return out
    return [] if a == b else [f"{path}: {a!r} != {b!r}"]


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawTextHelpFormatter)
    ap.add_argument("first", type=Path)
    ap.add_argument("second", type=Path)
    args = ap.parse_args(argv)
    a = json.loads(args.first.read_text(encoding="utf-8"))
    b = json.loads(args.second.read_text(encoding="utf-8"))
    found = differences(a, b)
    for line in found:
        print(line)
    print("identical" if not found else f"{len(found)} difference(s)")
    return 1 if found else 0


if __name__ == "__main__":
    sys.exit(main())
