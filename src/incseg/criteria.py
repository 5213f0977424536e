"""Information-criterion scoring of finished segmentations.

Hypotheses are re-read as words off their boundary set before scoring, so
token types are identified by surface string regardless of how the learner's
lexicon happened to compose them.  All values are in nats; ``in_bits``
rescales for display.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from math import fsum, log
from typing import Iterable

from .corpus import RawCorpus

CRITERIA = ("aic1", "aic2", "aic3", "mdl1", "mdl2", "mdl3")

_END_MARK = "\x00"  # end-of-word symbol in the codebook character model


@dataclass(frozen=True)
class CriterionValue:
    """Criterion score with its audit components.

    ``complexity_k`` is the parameter count k for AIC and the number of
    distinct n-gram types for MDL; ``extra`` is the finite-sample
    correction term for AIC and the codebook length for MDL.  value =
    neg_log_lik + extra (AIC) or neg_log_lik + 0.5*k*ln N + extra (MDL).
    """

    id: str
    value: float
    neg_log_lik: float
    complexity_k: float
    extra: float


class SegmentedText:
    """Surface-typed token view of one segmentation.

    ``tables[n]`` holds (n-gram counts, context counts) for n = 2 and 3,
    counted within blocks; a context is counted only where a word follows
    it in its block.
    """

    __slots__ = ("blocks", "type_surfaces", "type_counts", "total", "n_chars",
                 "tables")

    def __init__(self, blocks: list[list[int]], type_surfaces: list[str]):
        self.blocks = blocks
        self.type_surfaces = type_surfaces
        counts = [0] * len(type_surfaces)
        total = 0
        for b in blocks:
            for t in b:
                counts[t] += 1
            total += len(b)
        self.type_counts = counts
        self.total = total
        self.n_chars = sum(
            c * len(s) for c, s in zip(counts, type_surfaces))
        self.tables = {n: _order_tables(blocks, n) for n in (2, 3)}

    @classmethod
    def from_boundaries(cls, corpus: RawCorpus,
                        boundaries: Iterable[int]) -> "SegmentedText":
        bset = set(boundaries)
        chars = corpus.char_string()
        interned: dict[str, int] = {}
        surfaces: list[str] = []
        blocks: list[list[int]] = []
        off = 0
        for block in corpus.blocks:
            ids: list[int] = []
            start = off
            for j in range(1, len(block)):
                if off + j in bset:
                    ids.append(_intern(chars[start:off + j], interned,
                                       surfaces))
                    start = off + j
            off += len(block)
            ids.append(_intern(chars[start:off], interned, surfaces))
            blocks.append(ids)
        return cls(blocks, surfaces)


def _intern(s: str, table: dict[str, int], surfaces: list[str]) -> int:
    i = table.get(s)
    if i is None:
        i = len(surfaces)
        table[s] = i
        surfaces.append(s)
    return i


def _order_tables(blocks: list[list[int]], order: int
                  ) -> tuple[Counter, Counter]:
    """(n-gram counts, context counts) for one order, within blocks only."""
    grams: Counter = Counter()
    ctx: Counter = Counter()
    for b in blocks:
        for i in range(order - 1, len(b)):
            g = tuple(b[i - order + 1:i + 1])
            grams[g] += 1
            ctx[g[:-1]] += 1
    return grams, ctx


def neg_log_likelihood(st: SegmentedText, n: int) -> float:
    """ML n-gram cross-entropy; the first n-1 tokens of each block are
    scored by the highest lower-order model available at their position."""
    if n not in (1, 2, 3):
        raise ValueError("n must be 1, 2, or 3")
    counts = st.type_counts
    total = st.total
    if n == 1:
        return fsum(-c * log(c / total) for c in counts if c > 0)
    terms = []
    for b in st.blocks:
        terms.append(-log(counts[b[0]] / total))
        for i in range(1, min(n - 1, len(b))):
            grams, ctx = st.tables[i + 1]
            g = tuple(b[:i + 1])
            terms.append(-log(grams[g] / ctx[g[:-1]]))
        grams, ctx = st.tables[n]
        for i in range(n - 1, len(b)):
            g = tuple(b[i - n + 1:i + 1])
            terms.append(-log(grams[g] / ctx[g[:-1]]))
    return fsum(terms)


def codebook_length(st: SegmentedText) -> float:
    """Cost of transmitting all active word surfaces character-by-character.

    Characters (plus one end-of-word symbol per entry) are coded by their ML
    distribution over the concatenated surfaces; multiplicity of a word in
    the data does not matter, only its presence in the lexicon.
    """
    sym: Counter = Counter()
    entries = 0
    for s, c in zip(st.type_surfaces, st.type_counts):
        if c > 0:
            sym.update(s)
            entries += 1
    if entries == 0:
        return 0.0
    sym[_END_MARK] += entries
    z = sum(sym.values())
    return -fsum(c * log(c / z) for c in sym.values())


def evaluate(st: SegmentedText) -> dict[str, CriterionValue]:
    """All six criteria in ``CRITERIA`` order, with N = st.n_chars.

    With L the sum over active word types of (1 + |w|) and k_n the number
    of distinct n-gram types, AICc charges k = L + k_1 at order 1 and
    L + 1 + 2 k_n above it, with the correction N k / (N - k - 1) (+inf when
    N - k - 1 <= 0); MDL charges (k_n / 2) ln N plus the codebook length.
    Both families of an order share its likelihood and k_n.
    """
    big_n = st.n_chars
    active = [(s, c) for s, c in zip(st.type_surfaces, st.type_counts)
              if c > 0]
    lexicon = sum(1 + len(s) for s, _ in active)
    cbl = codebook_length(st)
    aic: list[CriterionValue] = []
    mdl: list[CriterionValue] = []
    for n in (1, 2, 3):
        nll = neg_log_likelihood(st, n)
        k_n = len(active) if n == 1 else len(st.tables[n][0])
        k = lexicon + k_n if n == 1 else lexicon + 1 + 2 * k_n
        if big_n - k - 1 <= 0:
            aic.append(CriterionValue(f"aic{n}", math.inf, nll, k, math.inf))
        else:
            corr = big_n * k / (big_n - k - 1)
            aic.append(CriterionValue(f"aic{n}", nll + corr, nll, k, corr))
        mdl.append(CriterionValue(f"mdl{n}",
                                  nll + 0.5 * k_n * log(big_n) + cbl,
                                  nll, k_n, cbl))
    return {cv.id: cv for cv in aic + mdl}


def evaluate_boundaries(corpus: RawCorpus, boundaries: Iterable[int]
                        ) -> dict[str, CriterionValue]:
    """Score a segmentation given as a boundary set over the corpus."""
    return evaluate(SegmentedText.from_boundaries(corpus, boundaries))


def in_bits(value_nats: float) -> float:
    return value_nats / log(2)
