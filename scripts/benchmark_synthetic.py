#!/usr/bin/env python3
"""Self-contained demo and throughput benchmark on a generated corpus.

Builds a Zipf-distributed toy language, runs the compressor at a few
penalty settings, and prints accuracy and timing.  No external data needed.
"""

import argparse
import random
import tempfile
import time
from itertools import accumulate
from pathlib import Path

from incseg.corpus import load_gold
from incseg.learner import LearnerOptions, PenaltyParams, run
from incseg.metrics import evaluate_segmentation


def build_corpus(path: Path, n_lines: int, n_types: int, seed: int) -> None:
    rng = random.Random(seed)
    syllables = ["ba", "da", "go", "ki", "lu", "mo", "na", "pe", "ri", "su",
                 "ti", "wa", "yu", "ze", "6", "&"]
    types: list[str] = []
    seen = set()
    while len(types) < n_types:
        w = "".join(rng.choices(syllables, k=rng.randint(1, 3)))
        if w not in seen:
            seen.add(w)
            types.append(w)
    weights = [1.0 / (i + 1) ** 1.1 for i in range(n_types)]
    with path.open("w", encoding="utf-8") as fh:
        for _ in range(n_lines):
            fh.write(" ".join(rng.choices(types, weights=weights,
                                          k=rng.randint(1, 9))) + "\n")


def build_pku_corpus(path: Path, n_lines: int, seed: int) -> None:
    """A SIGHAN-format corpus shaped like the PKU training file: words of
    1 to 4 characters drawn Zipf-wise from 55,000 types over a
    4,000-character CJK alphabet, itself used Zipf-wise, in lines of 1 to
    4 clauses joined by ``，`` and closed by ``。``, each mark a word of
    its own.  Load it with ``load_gold(path, "sighan",
    hard_punct={"，", "。"})``; 80,000 lines give about 1.8M characters."""
    rng = random.Random(seed)
    alphabet = [chr(0x4E00 + i) for i in range(4000)]
    char_cum = list(accumulate(1.0 / (i + 1) for i in range(4000)))
    types: list[str] = []
    seen = set()
    while len(types) < 55000:
        k = rng.choices((1, 2, 3, 4), weights=(35, 45, 12, 8))[0]
        w = "".join(rng.choices(alphabet, cum_weights=char_cum, k=k))
        if w not in seen:
            seen.add(w)
            types.append(w)
    type_cum = list(accumulate(1.0 / (i + 1) for i in range(55000)))
    with path.open("w", encoding="utf-8") as fh:
        for _ in range(n_lines):
            clauses = [" ".join(rng.choices(types, cum_weights=type_cum,
                                            k=rng.randint(1, 8)))
                       for _ in range(rng.randint(1, 4))]
            fh.write(" ， ".join(clauses) + " 。\n")


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--lines", type=int, default=4000)
    ap.add_argument("--types", type=int, default=400)
    ap.add_argument("--seed", type=int, default=99)
    ap.add_argument("--keep", default=None,
                    help="also write the generated corpus here")
    args = ap.parse_args()

    with tempfile.TemporaryDirectory() as td:
        path = Path(args.keep) if args.keep else Path(td) / "toy.txt"
        build_corpus(path, args.lines, args.types, args.seed)
        corpus, gold = load_gold(path, "brent")
        print(f"corpus: {corpus.n_chars} chars, {len(gold.boundaries) + 1} "
              f"words, {len(corpus.offsets)} utterances")
        for alpha, beta in ((0.0, 0.0), (0.3, 0.3), (0.6, 0.3), (1.0, 0.5)):
            t0 = time.perf_counter()
            res = run(corpus, PenaltyParams(alpha, beta, "xlogx"),
                      LearnerOptions(trace_mode="none"), gold=gold)
            dt = time.perf_counter() - t0
            rep = evaluate_segmentation(corpus, gold,
                                        res.hypothesis.starts[1:])
            rate = corpus.n_chars / dt if dt else float("inf")
            print(f"alpha={alpha:<4} beta={beta:<4} "
                  f"iters={res.iterations:<6} {dt:6.1f}s "
                  f"({rate:,.0f} chars/s)  "
                  f"F={rep.token.f:5.1f} BP={rep.boundary.p:5.1f} "
                  f"BR={rep.boundary.r:5.1f}")


if __name__ == "__main__":
    main()
