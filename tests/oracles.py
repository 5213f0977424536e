"""Independent reference computations used to check the package's outputs.

The scorers here evaluate segmentations straight from boundary sets and
word strings.  The sequence helpers rescan the token sequence from scratch
and compress it without a candidate index, so they check what
``CandidateIndex`` maintains incrementally.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter
from dataclasses import dataclass
from math import fsum, log

from incseg.criteria import SegmentedText


def enumerate_segmentations(corpus):
    """All boundary sets over the corpus (block edges always present)."""
    edges = corpus.block_edges()
    internal = [p for p in range(1, corpus.n_chars)
                if p not in edges and _in_block(corpus, p)]
    for r in range(len(internal) + 1):
        for combo in itertools.combinations(internal, r):
            yield frozenset(edges | set(combo))


def _in_block(corpus, p):
    off = 0
    for b in corpus.blocks:
        if off < p < off + len(b):
            return True
        off += len(b)
    return False


def oracle_unigram_scores(corpus, boundaries):
    """AIC1/MDL1 evaluated directly from the boundary set."""
    chars = corpus.char_string()
    cuts = [0] + sorted(boundaries) + [len(chars)]
    words = [chars[a:b] for a, b in zip(cuts, cuts[1:])]
    counts = Counter(words)
    m = len(words)
    nll = fsum(-c * log(c / m) for c in counts.values())
    big_n = len(chars)
    k_aic = sum(1 + len(w) for w in counts) + len(counts)
    if big_n - k_aic - 1 <= 0:
        aic_val = math.inf
    else:
        aic_val = nll + big_n * k_aic / (big_n - k_aic - 1)
    sym = Counter()
    for w in counts:
        sym.update(w)
    sym["\x00"] += len(counts)
    z = sum(sym.values())
    cbl = -fsum(c * log(c / z) for c in sym.values())
    mdl_val = nll + 0.5 * len(counts) * log(big_n) + cbl
    return aic_val, mdl_val


def definition_spearman(xs, ys):
    """Average ranks, then the Pearson formula, in plain Python."""
    def ranks(v):
        order = sorted(range(len(v)), key=lambda i: v[i])
        out = [0.0] * len(v)
        i = 0
        while i < len(v):
            j = i
            while j + 1 < len(v) and v[order[j + 1]] == v[order[i]]:
                j += 1
            for t in range(i, j + 1):
                out[order[t]] = (i + j) / 2 + 1
            i = j + 1
        return out

    rx, ry = ranks(xs), ranks(ys)
    n = len(xs)
    mx = sum(rx) / n
    my = sum(ry) / n
    cov = sum((a - mx) * (b - my) for a, b in zip(rx, ry))
    vx = math.sqrt(sum((a - mx) ** 2 for a in rx))
    vy = math.sqrt(sum((b - my) ** 2 for b in ry))
    if vx == 0 or vy == 0:
        return float("nan")
    return cov / (vx * vy)


# -- token sequences, rescanned without the candidate index ------------------


def count_occurrences(seq, s):
    """Greedy left-to-right non-overlapping occurrences of ``s`` per block."""
    if len(s) < 2:
        raise ValueError("candidate must have >= 2 tokens")
    return len(_scan_sites(seq, tuple(s)))


@dataclass
class CompressionDelta:
    """Bookkeeping of one standalone compression."""

    fresh_id: int
    token: tuple
    occurrences: int
    count_changes: dict  # token id -> (old, new)
    old_total: int
    new_total: int


def apply_compression(seq, lex, s, fresh_id=None):
    """Replace all greedy non-overlapping occurrences of ``s`` by a new
    token, by a full scan of the sequence."""
    s = tuple(s)
    sites = _scan_sites(seq, s)
    if not sites:
        raise ValueError(f"candidate {s} does not occur")
    if fresh_id is None:
        fresh_id = len(seq.counts)
    elif fresh_id != len(seq.counts):
        raise ValueError("fresh_id must be the next dense token id")
    old_counts = {w: seq.counts[w] for w in set(s)}
    old_total = seq.total
    seq.new_token(sum(seq.lengths[w] for w in s))
    lex.define(s, "".join(lex.entries[w].surface for w in s))
    for site in sites:
        seq.merge_site(site, fresh_id)
    changes = {w: (old_counts[w], seq.counts[w]) for w in set(s)}
    changes[fresh_id] = (0, len(sites))
    return CompressionDelta(fresh_id, s, len(sites), changes, old_total,
                            seq.total)


def _scan_sites(seq, s):
    n = len(s)
    tok, nxt = seq.tok, seq.nxt
    sites = []
    for start in seq.block_starts:
        p = start
        while p != -1:
            site = []
            q = p
            k = 0
            while k < n and q != -1 and tok[q] == s[k]:
                site.append(q)
                q = nxt[q]
                k += 1
            if k == n:
                sites.append(site)
                p = q  # jump past the match
            else:
                p = nxt[p]
    return sites


@dataclass
class NgramStats:
    n: int
    counts: dict

    @property
    def distinct(self):
        return len(self.counts)


def ngram_stats(seq, n):
    """ML n-gram counts per block, no padding, no cross-block grams."""
    if n < 1:
        raise ValueError("n must be >= 1")
    counts = Counter()
    for start in seq.block_starts:
        block = [seq.tok[p] for p in seq.iter_positions(start)]
        for i in range(n - 1, len(block)):
            counts[tuple(block[i - n + 1:i + 1])] += 1
    return NgramStats(n, dict(counts))


def verify_sequence(seq, lex, corpus=None):
    """Assert maintained statistics against a from-scratch recount."""
    recount = Counter()
    total = 0
    for start in seq.block_starts:
        for p in seq.iter_positions(start):
            recount[seq.tok[p]] += 1
            total += 1
    assert total == seq.total, (total, seq.total)
    for tid, c in enumerate(seq.counts):
        assert recount.get(tid, 0) == c, (tid, recount.get(tid, 0), c)
    conserved = sum(c * seq.lengths[t] for t, c in enumerate(seq.counts))
    assert conserved == seq.n_chars, (conserved, seq.n_chars)
    for tid in recount:
        expanded = lex.expand(tid)
        assert expanded == lex.surface(tid)
        assert len(expanded) == seq.lengths[tid]
    if corpus is not None:
        expanded = "".join(
            lex.surface(seq.tok[p])
            for start in seq.block_starts
            for p in seq.iter_positions(start))
        assert expanded == corpus.char_string()


def segmented_text_from_token_sequence(seq, lex):
    """Surface-typed view of a token sequence, read off the lexicon rather
    than off a boundary set."""
    interned = {}
    surfaces = []
    blocks = []
    for start in seq.block_starts:
        ids = []
        for p in seq.iter_positions(start):
            surface = lex.surface(seq.tok[p])
            if surface not in interned:
                interned[surface] = len(surfaces)
                surfaces.append(surface)
            ids.append(interned[surface])
        blocks.append(ids)
    return SegmentedText(blocks, surfaces)
