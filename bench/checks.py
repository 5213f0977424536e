"""Independent checks of the workloads' outputs.

Nothing here imports incseg.  Every value is recomputed from the generated
corpus file and from the words of each output: the objective, character
conservation, block edges, the natural-stop condition, the six model
selection criteria, the accuracy scores, the boundary vote, Spearman's rho
(against scipy) and the top-k selection.
"""

from __future__ import annotations

import hashlib
import json
import math
import warnings
from collections import Counter
from math import fsum, log
from pathlib import Path

import numpy as np

REL_TOL = 1e-9
# a converged run may leave pairs whose change rounds to zero, never below
MIN_PAIR_DELTA = -1e-6
END_MARK = "\x00"


class Checker:
    """Collects failed expectations instead of stopping at the first."""

    def __init__(self) -> None:
        self.failures: list[str] = []
        self.notes: list[str] = []

    def expect(self, ok: bool, what: str) -> bool:
        if not ok:
            self.failures.append(what)
        return ok

    def close(self, got: float, want: float, what: str) -> bool:
        same = got == want or abs(got - want) <= REL_TOL * max(1.0, abs(want))
        return self.expect(same, f"{what}: {got!r} != {want!r}")


def read_corpus(path: Path) -> list[list[str]]:
    """Gold words per block: one block per non-blank line."""
    text = path.read_text(encoding="utf-8")
    return [line.split() for line in text.split("\n") if line.split()]


def boundary_sha(boundaries) -> str:
    text = "\n".join(str(p) for p in sorted(boundaries))
    return hashlib.sha256(text.encode("ascii")).hexdigest()


def block_strings(gold: list[list[str]]) -> list[str]:
    return ["".join(b) for b in gold]


def block_edges(blocks: list[str]) -> set[int]:
    edges, off = set(), 0
    for b in blocks[:-1]:
        off += len(b)
        edges.add(off)
    return edges


def words_from_boundaries(blocks: list[str], boundaries) -> list[list[str]]:
    cuts = sorted(set(boundaries))
    out, off, i = [], 0, 0
    for b in blocks:
        start, words = 0, []
        while i < len(cuts) and cuts[i] < off + len(b):
            if cuts[i] > off:
                words.append(b[start:cuts[i] - off])
                start = cuts[i] - off
            i += 1
        words.append(b[start:])
        out.append(words)
        off += len(b)
    return out


def boundaries_from_words(words: list[list[str]]) -> list[int]:
    out, off = [], 0
    for block in words:
        for w in block:
            off += len(w)
            out.append(off)
    return out[:-1]


def xlogx(x: float) -> float:
    return x * log(x) if x > 0 else 0.0


def objective(types: list[list], length: dict, n_chars: int, alpha: float,
              beta: float) -> float:
    """Unigram NLL + (K/2) ln N - alpha M + beta sum g(|w|), g = x ln x."""
    counts = Counter(t for b in types for t in b)
    m_total = sum(counts.values())
    nll = fsum([xlogx(m_total)] + [-xlogx(c) for c in counts.values()])
    size = 0.5 * len(counts) * log(n_chars)
    pen = fsum(beta * c * xlogx(length[t]) for t, c in counts.items())
    return nll + size - alpha * m_total + pen


def min_pair_delta(types: list[list], length: dict, n_chars: int,
                   alpha: float, beta: float) -> float:
    """Smallest exact objective change over merging any adjacent pair.

    A pair's count is its greedy left-to-right non-overlapping count: for
    two different words every adjacent occurrence, for a repeated word half
    of each run, rounded down.
    """
    counts = Counter(t for b in types for t in b)
    m_total = sum(counts.values())
    pairs: Counter = Counter()
    for b in types:
        run = 1
        for left, right in zip(b, b[1:]):
            if left != right:
                pairs[(left, right)] += 1
                run = 1
            else:
                run += 1
                if run % 2 == 0:
                    pairs[(left, right)] += 1
    ln_n = log(n_chars)
    best = math.inf
    for (a, b), m in pairs.items():
        need = Counter((a, b))
        after = {w: counts[w] - r * m for w, r in need.items()}
        d_nll = (xlogx(m_total - m) - xlogx(m_total) - xlogx(m)
                 - fsum(xlogx(after[w]) - xlogx(counts[w]) for w in need))
        d_types = 1 - sum(1 for c in after.values() if c == 0)
        d_len = xlogx(length[a] + length[b]) - xlogx(length[a]) \
            - xlogx(length[b])
        best = min(best, d_nll + 0.5 * d_types * ln_n + alpha * m
                   + beta * m * d_len)
    return best


def six_criteria(words: list[list[str]], n_chars: int) -> dict[str, float]:
    """AICc and MDL under unigram, bigram and trigram word models."""
    uni = Counter(w for b in words for w in b)
    m_total = sum(uni.values())
    grams = {n: Counter(tuple(b[i:i + n]) for b in words
                        for i in range(len(b) - n + 1)) for n in (2, 3)}
    heads = {n: Counter() for n in (2, 3)}
    for n, table in grams.items():
        for g, c in table.items():
            heads[n][g[:-1]] += c
    lexicon = sum(1 + len(w) for w in uni)
    chars = Counter(ch for w in uni for ch in w)
    chars[END_MARK] += len(uni)
    z = sum(chars.values())
    codebook = -fsum(c * log(c / z) for c in chars.values())
    out = {}
    for n in (1, 2, 3):
        terms = []
        for b in words:
            for i, w in enumerate(b):
                order = min(n, i + 1)
                if order == 1:
                    terms.append(-log(uni[w] / m_total))
                else:
                    g = tuple(b[i - order + 1:i + 1])
                    terms.append(-log(grams[order][g] / heads[order][g[:-1]]))
        nll = fsum(terms)
        distinct = len(uni) if n == 1 else len(grams[n])
        k = lexicon + distinct if n == 1 else lexicon + 1 + 2 * distinct
        out[f"aic{n}"] = (nll + n_chars * k / (n_chars - k - 1)
                          if n_chars - k - 1 > 0 else math.inf)
        out[f"mdl{n}"] = nll + 0.5 * distinct * log(n_chars) + codebook
    return out


def accuracy(blocks: list[str], gold: list[list[str]],
             boundaries) -> dict[str, tuple[float, float, float]]:
    """Token, boundary and lexicon precision/recall/F in percent."""
    def prf(hit, n_hyp, n_gold):
        p = 100.0 * hit / n_hyp if n_hyp else 0.0
        r = 100.0 * hit / n_gold if n_gold else 0.0
        return p, r, (2 * p * r / (p + r) if p + r > 0 else 0.0)

    edges = block_edges(blocks)
    n = sum(len(b) for b in blocks)
    hyp = set(boundaries) | edges
    ref = set(boundaries_from_words(gold))
    text = "".join(blocks)

    def spans(cuts):
        c = [0] + sorted(cuts) + [n]
        return set(zip(c, c[1:]))

    hs, gs = spans(hyp), spans(ref)
    hb, gb = hyp - edges, ref - edges
    ht, gt = {text[a:b] for a, b in hs}, {text[a:b] for a, b in gs}
    return {"token": prf(len(hs & gs), len(hs), len(gs)),
            "boundary": prf(len(hb & gb), len(hb), len(gb)),
            "lexicon": prf(len(ht & gt), len(ht), len(gt))}


def check_accuracy(ck: Checker, report: dict, blocks, gold, boundaries,
                   what: str) -> None:
    want = accuracy(blocks, gold, boundaries)
    for level, (p, r, f) in want.items():
        got = report[level]
        ck.close(got["p"], p, f"{what} {level} P")
        ck.close(got["r"], r, f"{what} {level} R")
        ck.close(got["f"], f, f"{what} {level} F")


def check_words(ck: Checker, words: list[list[str]], blocks: list[str],
                boundaries, what: str) -> None:
    """Characters conserved, block edges present, boundaries consistent."""
    ck.expect(["".join(w) for w in words] == blocks,
              f"{what}: words do not spell the corpus blocks")
    ck.expect(block_edges(blocks) <= set(boundaries),
              f"{what}: a block edge is missing from the boundaries")
    ck.expect(boundaries_from_words(words) == sorted(boundaries),
              f"{what}: boundaries disagree with the words")


def check_objective(ck: Checker, run: dict, types: list[list], length: dict,
                    n_chars: int, what: str) -> None:
    """The reported objective, and at a natural stop with n_max=2 that no
    adjacent pair would lower it."""
    alpha, beta = run["alpha"], run["beta"]
    ck.close(run["objective"], objective(types, length, n_chars, alpha, beta),
             f"{what}: objective")
    if run["n_max"] == 2 and run["stopped"] == "converged":
        d = min_pair_delta(types, length, n_chars, alpha, beta)
        ck.notes.append(f"{what}: smallest pair change at the stop {d:+.6g}")
        ck.expect(d >= MIN_PAIR_DELTA,
                  f"{what}: converged, yet a pair merge changes the "
                  f"objective by {d!r}")


def check_run(ck: Checker, run: dict, out_dir: Path, corpus_path: Path,
              gold: list[list[str]]) -> None:
    """One learner run of a segment workload."""
    what = run["label"]
    blocks = block_strings(gold)
    surf = {int(t): s for t, s in run["surfaces"].items()}
    words = [[surf[t] for t in b] for b in run["tokens"]]
    check_words(ck, words, blocks, run["boundaries"], what)
    text = (out_dir / run["output"]).read_text(encoding="utf-8")
    ck.expect(text.replace(" ", "")
              == corpus_path.read_text(encoding="utf-8").replace(" ", ""),
              f"{what}: output with spaces removed is not the corpus text")
    ck.expect([line.split(" ") for line in text.split("\n")[:-1]] == words,
              f"{what}: output lines are not the run's words per block")
    side = json.loads((out_dir / (run["output"] + ".json")).read_text())
    ck.expect(side["boundaries"] == run["boundaries"]
              and side["n_blocks"] == len(blocks),
              f"{what}: sidecar disagrees with the run")
    # a surface two lexicon entries share is typed by token id
    by_surface = Counter(surf.values())
    types = [[s if by_surface[s] == 1 else (s, t) for t, s in
              ((t, surf[t]) for t in b)] for b in run["tokens"]]
    length = {k: len(k if isinstance(k, str) else k[0])
              for b in types for k in b}
    check_objective(ck, run, types, length, sum(len(b) for b in blocks),
                    what)
    check_accuracy(ck, run["report"], blocks, gold, run["boundaries"], what)


def load_boundary_file(path: Path) -> list[int]:
    return [int(x) for x in np.cumsum(np.load(path).astype(np.int64))]


def check_grid(ck: Checker, facts: dict, gdir: Path,
               gold: list[list[str]], criterion: str, top_k: int,
               axis: tuple[float, ...]) -> None:
    """Every grid cell and every output derived from the grid."""
    blocks = block_strings(gold)
    n_chars = sum(len(b) for b in blocks)
    records = facts.get("records")
    if records is None:
        return
    ck.expect(sorted((r["alpha"], r["beta"]) for r in records)
              == [(a, b) for a in axis for b in axis],
              "grid: ledger does not hold one record per cell")
    cells = {}
    for r in records:
        what = f"cell a={r['alpha']:g} b={r['beta']:g}"
        bounds = load_boundary_file(gdir / r["boundary_file"])
        cells[(r["alpha"], r["beta"])] = bounds
        ck.expect(hashlib.sha256(np.asarray(bounds, dtype=np.uint32)
                                 .tobytes()).hexdigest()
                  == r["boundary_digest"], f"{what}: boundary digest")
        words = words_from_boundaries(blocks, bounds)
        check_words(ck, words, blocks, bounds, what)
        ck.expect(r["n_tokens"] == sum(len(w) for w in words)
                  and r["n_boundaries"] == len(bounds),
                  f"{what}: token or boundary count")
        want = six_criteria(words, n_chars)
        for cid, value in want.items():
            ck.close(r["criteria"][cid], value, f"{what}: {cid}")
        check_accuracy(ck, r["metrics"], blocks, gold, bounds, what)
        # words are typed by surface; the ledger's type count shows whether
        # the learner gave two entries one surface
        length = {w: len(w) for b in words for w in b}
        if ck.expect(len(length) == r["n_types"],
                     f"{what}: {r['n_types']} learner types share "
                     f"{len(length)} surfaces; words cannot be typed"):
            check_objective(ck, r, words, length, n_chars, what)

    def tie(r):
        return (r["criteria"][criterion], r["alpha"], r["beta"], r["penalty"])

    want_top = sorted(records, key=tie)[:top_k]
    if "top" in facts:
        ck.expect(facts["top"] == want_top, "select_top_k differs from a sort")
    if "voted" in facts:
        sets = [set(cells[(r["alpha"], r["beta"])]) for r in want_top]
        edges = block_edges(blocks)
        votes = Counter(p for s in sets for p in s - edges)
        want = sorted({p for p, v in votes.items() if 2 * v > len(sets)}
                      | edges)
        ck.expect(facts["voted"] == want, "majority_vote differs from a count")
    if "rho" in facts:
        from scipy.stats import spearmanr
        rows = facts["rows"]
        f = [row["token_f"] for row in rows]
        for cid, got in sorted(facts["rho"].items()):
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                want = float(spearmanr([row[cid] for row in rows], f).statistic)
            ck.expect((math.isnan(got) and math.isnan(want))
                      or abs(got - want) <= REL_TOL,
                      f"spearman {cid}: {got!r} != scipy {want!r}")
    if "heatmap" in facts:
        table = {(r["alpha"], r["beta"]): r["criteria"][criterion]
                 for r in records}
        alphas = sorted({a for a, _ in table})
        betas = sorted({b for _, b in table})
        ck.expect(facts["heatmap"] == [alphas, betas,
                                       [[table[(a, b)] for a in alphas]
                                        for b in betas]],
                  "export_heatmap differs from the ledger")
    if "resumed" in facts:
        ck.expect(facts["resumed"] == records and facts["resume_ledger_same"],
                  "a clean resume ran a cell or changed the ledger")
    if "torn_resumed" in facts:
        ck.expect(facts["torn_resumed"] == records
                  and facts["torn_ledger_restored"],
                  "the torn-ledger resume ran a cell or kept the torn line")
