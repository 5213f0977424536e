"""One round of one benchmark workload, run in a fresh process.

``run.py`` starts this script once per round with a generated corpus and an
empty output directory.  It loads the corpus (set-up, timed apart), runs the
workload through incseg's public API with the clock on, and writes
``result.json`` into the output directory: timings, operation counts, the
outputs of every operation that completed, and the spans when traced.  Work
done only for the benchmark (dumping token streams, reading files back,
tearing the ledger) happens with the clock off.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import time
import traceback
from dataclasses import asdict
from pathlib import Path

ALPHAS_774K = (0.0, 0.3)
STOP_AT_N4 = 100
GRID_AXIS = (0.0, 0.1, 0.2)
GRID_CRITERION = "mdl2"
GRID_TOP_K = 3
# load_gold calls per round; set-up reports the median over a run's calls
SETUP_REPEATS = {"segment-774k-n2": 3, "segment-78k-n4": 30,
                 "grid-78k-traced": 30}
# operations per round; a failure skips the rest, which count as failed
PLANNED_OPS = {"segment-774k-n2": 6, "segment-78k-n4": 3,
               "grid-78k-traced": 7}


def _cpu_s() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def _peak_rss_mb() -> float:
    """Peak resident set of this process and of its reaped children.

    Own peak is VmHWM: ``ru_maxrss`` would also hold the peak of the
    process that started this one, carried across exec.
    """
    with open("/proc/self/status", encoding="ascii") as fh:
        own = next(int(line.split()[1]) for line in fh
                   if line.startswith("VmHWM:"))
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0


class Stopwatch:
    """Accumulates wall and CPU time over the ``with`` blocks it times, and
    counts in ``ops`` the operations that completed.

    CPU time covers this process and its reaped children, so the grid's
    pool workers count once the pool has been closed.
    """

    def __init__(self) -> None:
        self.wall = 0.0
        self.cpu = 0.0
        self.ops = 0

    def __enter__(self) -> "Stopwatch":
        self._t = time.perf_counter()
        self._c = _cpu_s()
        return self

    def __exit__(self, *exc) -> None:
        self.wall += time.perf_counter() - self._t
        self.cpu += _cpu_s() - self._c


def segment(incseg, corpus, gold, out: Path, sw: Stopwatch, facts: dict,
            settings) -> None:
    """Learner runs, each followed by writing and scoring its output."""
    from incseg.learner import LearnerOptions, PenaltyParams
    facts["runs"] = runs = []
    for label, n_max, alpha, stop_at in settings:
        seg_path = out / f"{label}.txt"
        options = LearnerOptions(n_max=n_max, stop_at=stop_at,
                                 trace_mode="none")
        with sw:
            res = incseg.run(corpus, PenaltyParams(alpha, alpha, "xlogx"),
                             options)
            sw.ops += 1
            bounds = res.hypothesis.boundaries
            incseg.write_segmentation(bounds, corpus, seg_path)
            sw.ops += 1
            report = incseg.evaluate_segmentation(corpus, gold, bounds)
            sw.ops += 1
        seq, lex = res.hypothesis.seq, res.hypothesis.lexicon
        blocks = seq.to_blocks()
        runs.append({
            "label": label, "n_max": n_max, "alpha": alpha, "beta": alpha,
            "iterations": res.iterations, "stopped": res.stopped,
            "objective": res.objective,
            "boundaries": sorted(bounds),
            "output": seg_path.name,
            "tokens": blocks,
            "surfaces": {t: lex.surface(t)
                         for t in sorted({t for b in blocks for t in b})},
            "report": report.as_dict(),
        })
        del res, seq, lex, blocks


def trace_rows(gdir: Path, records) -> list[dict]:
    """Trace snapshots as the ``correlate --population trace`` command reads them."""
    rows = []
    for r in records:
        with (gdir / r.trace_file).open(encoding="utf-8") as fh:
            for line in fh:
                row = json.loads(line)
                if row.get("criteria") and row.get("token_f") is not None:
                    rows.append({"token_f": row["token_f"], **row["criteria"]})
    return rows


def grid(incseg, corpus, gold, out: Path, sw: Stopwatch, facts: dict,
         jobs: int) -> None:
    """Traced 3x3 grid, selection, vote, correlation, heat map, resumes."""
    from incseg import search
    from incseg.criteria import CRITERIA
    from incseg.learner import LearnerOptions
    spec = search.GridSpec(GRID_AXIS, GRID_AXIS)
    options = LearnerOptions(n_max=2, trace_mode="none")
    gdir = out / "grid"
    ledger = gdir / "runs.jsonl"

    def again():
        return search.run_grid(corpus, gold, spec, gdir, options, jobs=jobs,
                               trace=True, resume=True)

    facts["jobs"] = jobs
    with sw:
        records = search.run_grid(corpus, gold, spec, gdir, options,
                                  jobs=jobs, trace=True)
        sw.ops += 1
    facts["records"] = [asdict(r) for r in records]
    with sw:
        top = search.select_top_k(records, GRID_CRITERION, GRID_TOP_K)
        sw.ops += 1
    facts["top"] = [asdict(r) for r in top]
    with sw:
        voted = incseg.majority_vote(
            [search.load_boundaries(gdir / r.boundary_file) for r in top],
            corpus.block_edges(), corpus.n_chars)
        sw.ops += 1
    facts["voted"] = sorted(voted)
    with sw:
        rows = trace_rows(gdir, records)
        rep = incseg.metrics.correlation_report(rows, list(CRITERIA),
                                                "trace")
        sw.ops += 1
    facts["rows"] = rows
    facts["rho"] = rep.rho
    with sw:
        heat = search.export_heatmap(records, GRID_CRITERION)
        sw.ops += 1
    facts["heatmap"] = heat
    before = ledger.read_bytes()
    facts["ledger_bytes"] = len(before)
    with sw:
        resumed = again()
        sw.ops += 1
    facts["resumed"] = [asdict(r) for r in resumed]
    facts["resume_ledger_same"] = ledger.read_bytes() == before
    # Tear the ledger as a crash mid-append would: half a copy of its
    # first line, no newline.  Nothing in it depends on the seed.
    first = before.splitlines(keepends=True)[0]
    with ledger.open("ab") as fh:
        fh.write(first[:len(first) // 2])
    with sw:
        resumed = again()
        sw.ops += 1
    facts["torn_resumed"] = [asdict(r) for r in resumed]
    facts["torn_ledger_restored"] = ledger.read_bytes() == before


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--root", required=True, type=Path)
    ap.add_argument("--workload", required=True, choices=sorted(PLANNED_OPS))
    ap.add_argument("--corpus", required=True, type=Path)
    ap.add_argument("--out", required=True, type=Path)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--jobs", type=int, default=1)
    args = ap.parse_args()
    src = (args.root / "src").resolve()
    sys.path.insert(0, str(src))
    import incseg
    import incseg.metrics
    if Path(incseg.__file__).resolve().parent != src / "incseg":
        print(f"incseg imported from {incseg.__file__}, not {src}",
              file=sys.stderr)
        return 2
    tracer = None
    if args.trace:
        from tracer import Tracer
        spill = args.out / "spans"
        spill.mkdir()
        tracer = Tracer(spill)
        tracer.install(incseg)
    loads = []
    for _ in range(SETUP_REPEATS[args.workload]):
        t0 = time.perf_counter()
        corpus, gold = incseg.load_gold(args.corpus, "brent")
        loads.append(time.perf_counter() - t0)
    sw = Stopwatch()
    facts: dict = {}
    errors = []
    try:
        if args.workload == "segment-774k-n2":
            segment(incseg, corpus, gold, args.out, sw, facts,
                    [(f"n2-a{a:g}-b{a:g}", 2, a, None) for a in ALPHAS_774K])
        elif args.workload == "segment-78k-n4":
            segment(incseg, corpus, gold, args.out, sw, facts,
                    [("n4-a0-b0", 4, 0.0, STOP_AT_N4)])
        else:
            grid(incseg, corpus, gold, args.out, sw, facts, args.jobs)
    except Exception as e:  # the failed operation and those after it count
        errors.append(f"operation {sw.ops + 1}: "
                      + traceback.format_exception_only(e)[-1].strip())
    planned = PLANNED_OPS[args.workload]
    result = {
        "setup_s": statistics.median(loads), "setup_loads": loads,
        "wall_s": sw.wall,
        "cpu_s": sw.cpu, "peak_rss_mb": _peak_rss_mb(),
        "attempted": planned, "failed": planned - sw.ops, "errors": errors,
        "facts": facts,
    }
    if tracer is not None:
        result["wrapped"] = tracer.wrapped
        result["spans"] = tracer.collect()
    with (args.out / "result.json").open("w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
