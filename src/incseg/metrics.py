"""Segmentation accuracy metrics and rank-correlation analysis.

Scores are percentages (one decimal when formatted, matching the usual
reporting convention).  The three levels take sorted word starts, 0 and
the block starts included, as ``RawCorpus.word_starts`` returns them.
Boundary metrics cover internal positions only: block edges are given to
every method, not predicted.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Mapping, Sequence

import numpy as np

from .corpus import GoldSegmentation, RawCorpus, runs


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


def token_prf(hyp: np.ndarray, gold: np.ndarray, n_chars: int) -> PRF:
    """Exact word matches: a hypothesized word is correct iff its whole span
    coincides with a gold word."""
    h, g = np.append(hyp, n_chars), np.append(gold, n_chars)
    rank = np.searchsorted(g, h)
    hit = g[np.minimum(rank, len(g) - 1)] == h
    correct = hit[:-1] & hit[1:] & (np.diff(rank) == 1)
    return _prf(int(correct.sum()), len(h) - 1, len(g) - 1)


def boundary_prf(hyp: np.ndarray, gold: np.ndarray,
                 block_starts: np.ndarray) -> PRF:
    h, g = (v[~np.isin(v, block_starts)] for v in (hyp, gold))
    return _prf(int(np.isin(h, g).sum()), len(h), len(g))


def lexicon_prf(hyp: np.ndarray, gold: np.ndarray,
                corpus: RawCorpus) -> PRF:
    """Word types found; hypothesis and gold words are typed together."""
    n = corpus.n_chars
    tid = corpus.type_words(np.concatenate((hyp, gold)), np.concatenate(
        (np.diff(hyp, append=n), np.diff(gold, append=n))))
    found = [np.bincount(t, minlength=tid.max() + 1) > 0
             for t in (tid[:len(hyp)], tid[len(hyp):])]
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
    # block edges are given: word_starts adds them to both sides
    h = corpus.word_starts(hyp_boundaries)
    g = corpus.word_starts(gold.boundaries)
    return SegReport(
        token=token_prf(h, g, n),
        boundary=boundary_prf(h, g, corpus.offsets),
        lexicon=lexicon_prf(h, g, corpus),
    )


def fractional_ranks(values: Sequence[float]) -> np.ndarray:
    """Ranks 1..n with ties averaged.  NaN equals nothing, so each NaN
    ranks alone, after +inf, in input order."""
    v = np.asarray(values, dtype=float)
    order = np.argsort(v, kind="stable")
    start, length = runs(v[order])
    ranks = np.empty(len(v), dtype=float)
    ranks[order] = np.repeat(start + (length - 1) / 2 + 1, length)
    return ranks


def _pearson(rx: np.ndarray, ry: np.ndarray) -> float:
    """Pearson correlation of two rankings; nan if either is constant."""
    if len(rx) < 2:
        raise ValueError("need at least two observations")
    dx = rx - rx.mean()
    dy = ry - ry.mean()
    sx = float(np.sqrt((dx * dx).sum()))
    sy = float(np.sqrt((dy * dy).sum()))
    if sx == 0.0 or sy == 0.0:
        return float("nan")
    return float((dx * dy).sum() / (sx * sy))


def spearman_rho(xs: Sequence[float], ys: Sequence[float]) -> float:
    """Pearson correlation of fractional ranks; nan when either ranking has
    zero variance."""
    if len(xs) != len(ys):
        raise ValueError("length mismatch")
    return _pearson(fractional_ranks(xs), fractional_ranks(ys))


@dataclass
class CorrelationReport:
    population: str
    n: int
    rho: dict[str, float]
    scatter: dict[str, list[tuple[float, float]]] = field(default_factory=dict)


def correlation_report(rows: Sequence[Mapping[str, float]],
                       criteria: Sequence[str],
                       population: str = "outputs") -> CorrelationReport:
    """Spearman's rho between token F and each criterion over ``rows``.

    Each row must carry ``token_f`` and one value per requested criterion.
    Scatter data pairs each row's criterion rank with its F score.
    """
    fs = [float(r["token_f"]) for r in rows]
    f_ranks = fractional_ranks(fs)
    rho: dict[str, float] = {}
    scatter: dict[str, list[tuple[float, float]]] = {}
    for cid in criteria:
        ranks = fractional_ranks([float(r[cid]) for r in rows])
        rho[cid] = _pearson(ranks, f_ranks)
        scatter[cid] = list(zip(ranks.tolist(), fs))
    return CorrelationReport(population, len(rows), rho, scatter)
