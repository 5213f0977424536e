"""Segmentation accuracy metrics and rank-correlation analysis.

Scores are percentages (one decimal when formatted, matching the usual
reporting convention).  Boundary metrics cover internal positions only:
block edges are given to every method, not predicted.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Mapping, Sequence

import numpy as np

from .corpus import GoldSegmentation, RawCorpus, distinct


@dataclass(frozen=True)
class PRF:
    p: float
    r: float
    f: float
    degenerate: bool = False  # some denominator was 0/0, reported as 0.0

    def rounded(self) -> tuple[float, float, float]:
        return round(self.p, 1), round(self.r, 1), round(self.f, 1)


def _prf(correct: int, n_hyp: int, n_gold: int) -> PRF:
    degenerate = n_hyp == 0 or n_gold == 0
    p = 100.0 * correct / n_hyp if n_hyp else 0.0
    r = 100.0 * correct / n_gold if n_gold else 0.0
    f = 2 * p * r / (p + r) if p + r > 0 else 0.0
    return PRF(p, r, f, degenerate)


def _sorted(positions: Iterable[int], *extra: int) -> np.ndarray:
    """Sorted distinct values of ``positions`` and ``extra``."""
    v = (positions if isinstance(positions, np.ndarray)
         else np.fromiter(positions, np.int64))
    return distinct(np.concatenate((v, np.array(extra, np.int64))))


def token_prf(hyp: Iterable[int], gold: Iterable[int], n_chars: int) -> PRF:
    """Exact word matches: a hypothesized word is correct iff its whole span
    coincides with a gold word."""
    h, g = _sorted(hyp, 0, n_chars), _sorted(gold, 0, n_chars)
    rank = np.searchsorted(g, h)
    hit = g[np.minimum(rank, len(g) - 1)] == h
    correct = hit[:-1] & hit[1:] & (np.diff(rank) == 1)
    return _prf(int(correct.sum()), len(h) - 1, len(g) - 1)


def boundary_prf(hyp: Iterable[int], gold: Iterable[int],
                 block_edges: Iterable[int]) -> PRF:
    edges = _sorted(block_edges)
    h, g = (v[~np.isin(v, edges)] for v in (_sorted(hyp), _sorted(gold)))
    return _prf(int(np.isin(h, g).sum()), len(h), len(g))


def lexicon_prf(hyp: Iterable[int], gold: Iterable[int],
                corpus: RawCorpus) -> PRF:
    """Word types found; hypothesis and gold words are typed together."""
    h, g = (_sorted(v, 0, corpus.n_chars) for v in (hyp, gold))
    tid, rep = corpus.type_words(np.concatenate((h[:-1], g[:-1])),
                                 np.concatenate((np.diff(h), np.diff(g))))
    found = [np.bincount(t, minlength=len(rep)) > 0
             for t in (tid[:len(h) - 1], tid[len(h) - 1:])]
    return _prf(int((found[0] & found[1]).sum()), int(found[0].sum()),
                int(found[1].sum()))


@dataclass(frozen=True)
class SegReport:
    token: PRF
    boundary: PRF
    lexicon: PRF

    def as_dict(self) -> dict:
        return {
            level: {"p": prf.p, "r": prf.r, "f": prf.f,
                    "degenerate": prf.degenerate}
            for level, prf in (("token", self.token),
                               ("boundary", self.boundary),
                               ("lexicon", self.lexicon))
        }


def evaluate_segmentation(corpus: RawCorpus, gold: GoldSegmentation,
                          hyp_boundaries: Iterable[int]) -> SegReport:
    n = corpus.n_chars
    if gold.n_chars != n:
        raise ValueError("gold and corpus disagree on character count")
    given = _sorted(hyp_boundaries)
    bad = given[(given <= 0) | (given >= n)].tolist()
    if bad:
        raise ValueError(f"boundary positions out of range: {bad[:3]}")
    edges = corpus.offsets[1:]
    hyp = np.concatenate((given, edges))  # block edges are given
    gold_bounds = _sorted(gold.boundaries)
    return SegReport(
        token=token_prf(hyp, gold_bounds, n),
        boundary=boundary_prf(hyp, gold_bounds, edges),
        lexicon=lexicon_prf(hyp, gold_bounds, corpus),
    )


def fractional_ranks(values: Sequence[float]) -> np.ndarray:
    """Ranks 1..n with ties averaged."""
    v = np.asarray(values, dtype=float)
    order = np.argsort(v, kind="stable")
    ranks = np.empty(len(v), dtype=float)
    i = 0
    sv = v[order]
    while i < len(v):
        j = i
        while j + 1 < len(v) and sv[j + 1] == sv[i]:
            j += 1
        ranks[order[i:j + 1]] = 0.5 * (i + j) + 1.0
        i = j + 1
    return ranks


def spearman_rho(xs: Sequence[float], ys: Sequence[float]) -> float:
    """Pearson correlation of fractional ranks; nan when either ranking has
    zero variance."""
    if len(xs) != len(ys):
        raise ValueError("length mismatch")
    if len(xs) < 2:
        raise ValueError("need at least two observations")
    rx = fractional_ranks(xs)
    ry = fractional_ranks(ys)
    dx = rx - rx.mean()
    dy = ry - ry.mean()
    sx = float(np.sqrt((dx * dx).sum()))
    sy = float(np.sqrt((dy * dy).sum()))
    if sx == 0.0 or sy == 0.0:
        return float("nan")
    return float((dx * dy).sum() / (sx * sy))


@dataclass
class CorrelationReport:
    population: str
    n: int
    rho: dict[str, float]
    scatter: dict[str, list[tuple[float, float]]] = field(default_factory=dict)


def correlation_report(rows: Sequence[Mapping[str, float]],
                       criteria: Sequence[str],
                       population: str = "outputs",
                       with_scatter: bool = True) -> CorrelationReport:
    """Spearman's rho between token F and each criterion over ``rows``.

    Each row must carry ``token_f`` and one value per requested criterion.
    Scatter data pairs each row's criterion rank with its F score.
    """
    fs = [float(r["token_f"]) for r in rows]
    rho: dict[str, float] = {}
    scatter: dict[str, list[tuple[float, float]]] = {}
    for cid in criteria:
        vals = [float(r[cid]) for r in rows]
        rho[cid] = spearman_rho(vals, fs)
        if with_scatter:
            ranks = fractional_ranks(vals)
            scatter[cid] = [(float(rk), f) for rk, f in zip(ranks, fs)]
    return CorrelationReport(population, len(rows), rho, scatter)
