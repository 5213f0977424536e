#!/usr/bin/env python3
"""Orthographic (Chinese) segmentation on a SIGHAN training file.

Punctuation runs become hard boundaries.  Either supply (alpha, beta)
directly, or pass --search to estimate them with the two-stage sweep
(alpha first at fixed beta0, then beta) under MDL2 / x log x.

Example:
    python scripts/reproduce_orthographic.py --corpus data/pku_training.utf8 \
        --alpha 2.0 --beta 3.0 --out runs/pku
"""

import argparse
import time
from pathlib import Path

from incseg.corpus import default_punctuation, load_gold, write_segmentation
from incseg.learner import LearnerOptions, PenaltyParams, run
from incseg.metrics import evaluate_segmentation, spearman_rho
from incseg.search import parse_range, staged_search


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--corpus", required=True)
    ap.add_argument("--out", required=True)
    ap.add_argument("--alpha", type=float, default=2.0)
    ap.add_argument("--beta", type=float, default=3.0)
    ap.add_argument("--search", action="store_true",
                    help="stage-wise sweep instead of fixed parameters")
    ap.add_argument("--alpha-range", default="0:5:0.5")
    ap.add_argument("--beta-range", default="0:5:0.5")
    ap.add_argument("--beta0", type=float, default=1.0)
    ap.add_argument("--jobs", type=int, default=1)
    args = ap.parse_args()

    corpus, gold = load_gold(args.corpus, "sighan",
                             hard_punct=default_punctuation)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    print(f"{corpus.n_chars} chars, {len(gold.boundaries) + 1} words, "
          f"{len(corpus.offsets)} blocks after hard boundaries")

    alpha, beta = args.alpha, args.beta
    if args.search:
        final, _ = staged_search(
            corpus, gold, "mdl2", parse_range(args.alpha_range),
            parse_range(args.beta_range), out / "search",
            beta0=args.beta0, kind="xlogx",
            options=LearnerOptions(trace_mode="none"), jobs=args.jobs)
        alpha, beta = final.alpha, final.beta
        print(f"search picked (alpha, beta) = ({alpha}, {beta})")

    t0 = time.time()
    result = run(corpus, PenaltyParams(alpha, beta, "xlogx"),
                 LearnerOptions(trace_interval=100, trace_mode="criteria"),
                 gold=gold)
    print(f"{result.iterations} iterations in {time.time() - t0:.0f}s "
          f"({result.stopped})")
    rep = evaluate_segmentation(corpus, gold, result.hypothesis.starts[1:])
    print(f"token  P={rep.token.p:.1f} R={rep.token.r:.1f} "
          f"F={rep.token.f:.1f}")
    print(f"bound  P={rep.boundary.p:.1f} R={rep.boundary.r:.1f} "
          f"F={rep.boundary.f:.1f}")
    fs = [t.token_f for t in result.trace if t.token_f is not None]
    if len(fs) >= 2:
        trend = spearman_rho(list(range(len(fs))), fs)
        print(f"traced F start={fs[0]:.1f} end={fs[-1]:.1f} "
              f"trend rho={trend:+.2f}")
    write_segmentation(result.hypothesis.starts[1:], corpus,
                       out / "segmented.txt")
    print(f"wrote {out / 'segmented.txt'}")


if __name__ == "__main__":
    main()
