"""Information-criterion scoring of finished segmentations.

A hypothesis is scored from its word table, built per call from word starts
and type ids, whoever numbers them; no value depends on the numbering, so
character and lexicon ids give the same floats.  Each distinct likelihood
term is computed once, ``repeated_fsum`` adds its repeats exactly, and all
values are in nats (``in_bits`` rescales them).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from math import fsum, log

import numpy as np

from .corpus import RawCorpus, dense, runs

CRITERIA = ("aic1", "aic2", "aic3", "mdl1", "mdl2", "mdl3")


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
    """Type-id view of one segmentation.

    Type t spells ``type_lengths[t]`` symbols; ``type_chars`` concatenates
    the ids of all types' symbols, which index ``symbols``.  ``terms[n]``
    holds each word's order-n likelihood term -log(a / b) as arrays (a, b):
    a word that closes an order-m gram in its block, m <= n largest, has
    that gram's count over its history's count (m = 1: its type's count
    over the total).  ``k[n]`` is the number of distinct order-n grams.
    Each type is some word's, so every type count is at least 1, and the
    words tile the corpus, so ``n_chars`` is the corpus'.
    """

    def __init__(self, corpus: RawCorpus, starts: np.ndarray,
                 ids: np.ndarray):
        """Words at the ascending ``starts`` (0 and each block start among
        them), one type where their ids (ints >= 0) match, renumbered
        densely; a type is spelled from any one of its words."""
        counts = np.bincount(ids)
        present = counts > 0
        tid = (np.cumsum(present) - 1)[ids]
        rep = np.empty(np.count_nonzero(present), np.int64)
        rep[tid] = np.arange(len(tid))
        edge = np.zeros(corpus.n_chars, bool)
        edge[corpus.offsets] = True
        first = edge[starts]
        lens = np.append(starts, corpus.n_chars)[rep + 1] - starts[rep]
        spelled = np.arange(lens.sum()) + np.repeat(
            starts[rep] - np.cumsum(lens) + lens, lens)
        n_types, self.total = len(lens), len(tid)
        self.type_lengths, self.type_chars = lens, corpus.codes[spelled]
        self.symbols = corpus.chars
        self.type_counts = counts[present]
        self.n_chars = corpus.n_chars
        a, b = self.type_counts[tid], np.full(self.total, self.total)
        self.terms, self.k = {}, {}
        gram = tid  # id of the order-(n-1) gram each word closes
        closes = np.ones(self.total, bool)
        for n in (2, 3):
            closes = np.concatenate(([False], closes[:-1])) & ~first
            at = np.flatnonzero(closes)
            hist = gram[at - 1]
            gram_at, count = dense(hist * n_types + tid[at])
            a, b = a.copy(), b.copy()
            a[at], b[at] = count[gram_at], np.bincount(hist)[hist]
            self.terms[n], self.k[n] = (a, b), len(count)
            gram = np.zeros(self.total, np.int64)
            gram[at] = gram_at


def repeated_fsum(terms: np.ndarray, counts: np.ndarray) -> float:
    """``fsum`` of each of ``terms`` taken its int64 ``counts`` (< 2**53)
    times.  Veltkamp's split gives a term two parts of <= 26 significant
    bits, a count cut at bit 26 has parts of <= 27 and 26 bits, so the four
    products are exact and sum to term * count; ``fsum`` rounds them once."""
    c = terms * (2.0**27 + 1)
    hi = c - (c - terms)
    low = counts & (2**26 - 1)
    parts = np.stack((hi, terms - hi))[:, None] * np.stack((counts - low, low))
    return fsum(parts[parts != 0].tolist())


def neg_log_likelihood(st: SegmentedText, n: int) -> float:
    """ML n-gram cross-entropy; the first n-1 tokens of each block are
    scored by the highest lower-order model available at their position."""
    if n not in (1, 2, 3):
        raise ValueError("n must be 1, 2, or 3")
    if n == 1:
        return fsum(-c * log(c / st.total) for c in st.type_counts.tolist())
    a, b = st.terms[n]
    key = np.sort(a * (st.total + 1) + b)  # values alone: no row order
    start, mult = runs(key)
    ratio = np.divide(*np.divmod(key[start], st.total + 1)).tolist()
    return repeated_fsum(-np.fromiter(map(log, ratio), float, len(ratio)),
                         mult)


def codebook_length(st: SegmentedText) -> float:
    """Cost of transmitting every word type's surface character-by-character.

    Characters, plus one end-of-word mark (a symbol of its own) per type,
    are coded by their ML distribution over the concatenated surfaces; only
    a word's presence in the lexicon matters, not its multiplicity.
    """
    mark = len(st.symbols)
    sym = np.bincount(st.type_chars, minlength=mark + 1)
    sym[mark] += len(st.type_lengths)
    z = int(sym.sum())
    return -fsum(c * log(c / z) for c in sym.tolist() if c > 0)


def evaluate(st: SegmentedText) -> dict[str, CriterionValue]:
    """All six criteria in ``CRITERIA`` order, with N = st.n_chars.

    With L the sum over word types of (1 + |w|) and k_n the number
    of distinct n-gram types, AICc charges k = L + k_1 at order 1 and
    L + 1 + 2 k_n above it, with the correction N k / (N - k - 1) (+inf when
    N - k - 1 <= 0); MDL charges (k_n / 2) ln N plus the codebook length.
    Both families of an order share its likelihood and k_n.
    """
    big_n = st.n_chars
    n_types = len(st.type_lengths)
    lexicon = n_types + int(st.type_lengths.sum())
    cbl = codebook_length(st)
    aic, mdl = [], []
    for n in (1, 2, 3):
        nll = neg_log_likelihood(st, n)
        k_n = n_types if n == 1 else st.k[n]
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


def in_bits(value_nats: float) -> float:
    return value_nats / log(2)
