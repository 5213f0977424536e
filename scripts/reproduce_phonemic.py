#!/usr/bin/env python3
"""Full phonemic-benchmark pipeline on a Brent-format corpus.

Runs the zero-penalty controls, a grid search per penalty kind, per-criterion
family minima, the top-10 ensemble, and rank correlations, then prints a
results table.  With --alpha-step 0.1 this is the full 51x51 sweep; the
default 0.5 step is the coarse grid.

Example:
    python scripts/reproduce_phonemic.py --corpus data/br-phono.txt \
        --out runs/br --jobs 8
"""

import argparse
import time
from pathlib import Path

from incseg.corpus import load_gold
from incseg.criteria import CRITERIA
from incseg.ensemble import majority_vote
from incseg.learner import LearnerOptions, PenaltyParams, run
from incseg.metrics import correlation_report, evaluate_segmentation
from incseg.search import (GridSpec, correlation_rows, load_boundaries,
                           run_grid, select_family_minimum, select_top_k)


def fmt_row(label, value, alpha, beta, rep):
    t, b, l = rep.token, rep.boundary, rep.lexicon
    return (f"{label:<22} {value:>12} {alpha:>5} {beta:>5} "
            f"{t.p:5.1f} {t.r:5.1f} {t.f:5.1f}  "
            f"{b.p:5.1f} {b.r:5.1f} {b.f:5.1f}  "
            f"{l.p:5.1f} {l.r:5.1f} {l.f:5.1f}")


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--corpus", required=True)
    ap.add_argument("--out", required=True)
    ap.add_argument("--alpha-step", type=float, default=0.5)
    ap.add_argument("--beta-step", type=float, default=0.5)
    ap.add_argument("--max", type=float, default=5.0)
    ap.add_argument("--jobs", type=int, default=1)
    ap.add_argument("--penalties", nargs="+", default=["xlogx", "xsquared"])
    ap.add_argument("--top", type=int, default=10)
    args = ap.parse_args()

    corpus, gold = load_gold(args.corpus, "brent")
    out = Path(args.out)
    print(f"{corpus.n_chars} chars, {len(gold.boundaries) + 1} words, "
          f"{len(corpus.offsets)} utterances")
    header = (f"{'setting':<22} {'value':>12} {'a':>5} {'b':>5} "
              f"{'P':>5} {'R':>5} {'F':>5}  {'BP':>5} {'BR':>5} {'BF':>5}  "
              f"{'LP':>5} {'LR':>5} {'LF':>5}")

    print("\n== zero-penalty controls ==")
    print(header)
    base = run(corpus, PenaltyParams(), LearnerOptions(trace_mode="none"))
    rep = evaluate_segmentation(corpus, gold, base.hypothesis.starts[1:])
    print(fmt_row("base (natural stop)", base.iterations, 0.0, 0.0, rep))
    base500 = run(corpus, PenaltyParams(), LearnerOptions(
        stop_at=500, trace_mode="none"))
    rep = evaluate_segmentation(corpus, gold, base500.hypothesis.starts[1:])
    print(fmt_row("base (stop at 500)", base500.iterations, 0.0, 0.0, rep))

    def steps(step):
        n = int(args.max / step + 1e-9) + 1
        return tuple(round(i * step, 10) for i in range(n))

    for kind in args.penalties:
        print(f"\n== {kind} grid "
              f"({len(steps(args.alpha_step))}x{len(steps(args.beta_step))}) ==")
        t0 = time.time()
        records = run_grid(
            corpus, gold,
            GridSpec(steps(args.alpha_step), steps(args.beta_step), (kind,)),
            out / kind, options=LearnerOptions(trace_mode="none"),
            jobs=args.jobs, trace=True)
        print(f"grid done in {time.time() - t0:.0f}s")
        print(header)
        for crit in CRITERIA:
            best = select_family_minimum(records, crit)
            bounds = load_boundaries(out / kind / best.boundary_file)
            rep = evaluate_segmentation(corpus, gold, bounds)
            print(fmt_row(crit, f"{best.criteria[crit]:.1f}",
                          best.alpha, best.beta, rep))
        for crit in ("aic3", "mdl2"):
            top = select_top_k(records, crit, args.top)
            sets = [load_boundaries(out / kind / r.boundary_file)
                    for r in top]
            voted = majority_vote(sets, corpus.block_edges(), corpus.n_chars)
            rep = evaluate_segmentation(corpus, gold, voted)
            print(fmt_row(f"{crit} top-{args.top} vote", "-", "-", "-", rep))

        rows = correlation_rows(out / kind, "outputs")
        out_rho = correlation_report(rows, CRITERIA, "outputs").rho
        rows = correlation_rows(out / kind, "trace")
        trace_rho = correlation_report(rows, CRITERIA, "trace").rho
        print("\nSpearman rho vs token F   " +
              "  ".join(f"{c:>6}" for c in CRITERIA))
        print("  output set             " +
              "  ".join(f"{out_rho[c]:+6.2f}" for c in CRITERIA))
        print("  full trace             " +
              "  ".join(f"{trace_rho[c]:+6.2f}" for c in CRITERIA))


if __name__ == "__main__":
    main()
