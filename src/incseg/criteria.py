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
from typing import Iterable, Sequence

from .corpus import RawCorpus

CRITERIA = ("aic1", "aic2", "aic3", "mdl1", "mdl2", "mdl3")

_END_MARK = "\x00"  # end-of-word symbol in the codebook character model


@dataclass(frozen=True)
class CriterionValue:
    """Criterion score with its audit components.

    ``extra`` is the finite-sample correction term for AIC and the codebook
    length for MDL; value = neg_log_lik + complexity (AIC) or
    neg_log_lik + 0.5*k*ln N + extra (MDL).
    """

    id: str
    value: float
    neg_log_lik: float
    complexity_k: float
    extra: float


class SegmentedText:
    """Surface-typed token view of one segmentation."""

    __slots__ = ("blocks", "type_surfaces", "type_counts", "total", "n_chars")

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


def _order_tables(st: SegmentedText, order: int):
    """(n-gram counts, context counts) for one order, within blocks only."""
    grams: Counter = Counter()
    ctx: Counter = Counter()
    for b in st.blocks:
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
    tables = {k: _order_tables(st, k) for k in range(2, n + 1)}
    terms = []
    for b in st.blocks:
        terms.append(-log(counts[b[0]] / total))
        for i in range(1, min(n - 1, len(b))):
            grams, ctx = tables[i + 1]
            g = tuple(b[:i + 1])
            terms.append(-log(grams[g] / ctx[g[:-1]]))
        grams, ctx = tables[n]
        for i in range(n - 1, len(b)):
            g = tuple(b[i - n + 1:i + 1])
            terms.append(-log(grams[g] / ctx[g[:-1]]))
    return fsum(terms)


def distinct_ngrams(st: SegmentedText, n: int) -> int:
    if n == 1:
        return sum(1 for c in st.type_counts if c > 0)
    seen = set()
    for b in st.blocks:
        for i in range(n - 1, len(b)):
            seen.add(tuple(b[i - n + 1:i + 1]))
    return len(seen)


def lexicon_size_term(st: SegmentedText) -> int:
    """Sum over active word types of (1 + |w| in characters)."""
    return sum(1 + len(s)
               for s, c in zip(st.type_surfaces, st.type_counts) if c > 0)


def complexity_aic(st: SegmentedText, n: int) -> int:
    """Degrees of freedom charged by the AIC family."""
    base = lexicon_size_term(st)
    if n == 1:
        return base + distinct_ngrams(st, 1)
    return base + 1 + 2 * distinct_ngrams(st, n)


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


def aicc(st: SegmentedText, n: int, n_chars: int | None = None) -> CriterionValue:
    """AIC with the finite-sample correction N*k/(N-k-1); +inf when the
    model is over-parameterized (N - k - 1 <= 0)."""
    big_n = st.n_chars if n_chars is None else n_chars
    nll = neg_log_likelihood(st, n)
    k = complexity_aic(st, n)
    if big_n - k - 1 <= 0:
        return CriterionValue(f"aic{n}", math.inf, nll, k, math.inf)
    corr = big_n * k / (big_n - k - 1)
    return CriterionValue(f"aic{n}", nll + corr, nll, k, corr)


def mdl(st: SegmentedText, n: int, n_chars: int | None = None) -> CriterionValue:
    """Description length: nll + (k/2) ln N + codebook length, with k the
    number of distinct n-gram types."""
    big_n = st.n_chars if n_chars is None else n_chars
    nll = neg_log_likelihood(st, n)
    k = distinct_ngrams(st, n)
    cbl = codebook_length(st)
    value = nll + 0.5 * k * log(big_n) + cbl
    return CriterionValue(f"mdl{n}", value, nll, k, cbl)


def evaluate(st: SegmentedText,
             which: Sequence[str] = CRITERIA,
             n_chars: int | None = None) -> dict[str, CriterionValue]:
    out: dict[str, CriterionValue] = {}
    for cid in which:
        if cid not in CRITERIA:
            raise ValueError(f"unknown criterion {cid!r}")
        n = int(cid[-1])
        out[cid] = (aicc if cid.startswith("aic") else mdl)(st, n, n_chars)
    return out


def evaluate_boundaries(corpus: RawCorpus, boundaries: Iterable[int],
                        which: Sequence[str] = CRITERIA
                        ) -> dict[str, CriterionValue]:
    """Score a segmentation given as a boundary set over the corpus."""
    st = SegmentedText.from_boundaries(corpus, boundaries)
    return evaluate(st, which, corpus.n_chars)


def in_bits(value_nats: float) -> float:
    return value_nats / log(2)
