"""Independent reference computations used to check the package's outputs.

The corpus parser here works on strings in two passes.  The scorers
evaluate segmentations straight from boundary sets and word strings.  The
sequence helpers rescan the token sequence from scratch and compress it
without a candidate index, so they check what ``CandidateIndex`` maintains
incrementally.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter
from dataclasses import dataclass
from math import fsum, log

import numpy as np

from incseg.corpus import CorpusError
from incseg.criteria import SegmentedText
from incseg.learner import _cost_table, penalized_likelihood


# -- the corpus, parsed in two passes over strings ---------------------------


def reference_parse(text, hard_punct=None):
    """Parse a gold-segmented text as line blocks of words, then split each
    block at runs of ``hard_punct``, remapping the gold boundaries through
    one entry per character.  Returns ``(blocks, chars, separators,
    boundaries)`` with the blocks as strings and ``chars`` in order of
    first appearance, or raises the ``CorpusError`` that ``load_gold``
    raises, its message without the path."""
    if not text.strip():
        raise CorpusError("empty corpus file")
    chars = list(dict.fromkeys("".join(text.split())))
    blocks, seps, bounds, off = [], [""], set(), 0
    lines = text.split("\n")
    for i, line in enumerate(lines):
        tail = "\n" if i < len(lines) - 1 else ""
        words = line.split()
        if not words:
            seps[-1] += line + tail
            continue
        for w in words:
            if off:
                bounds.add(off)
            off += len(w)
        blocks.append("".join(words))
        seps.append(tail)
    punct = set(hard_punct or ()) & set(chars)
    if not punct:
        return blocks, chars, seps, bounds
    split, split_seps, remap, kept = [], [seps[0]], [], 0
    for block, sep_after in zip(blocks, seps[1:]):
        cur = ""
        for c in block:
            remap.append(kept)
            if c in punct:
                if cur:
                    split.append(cur)
                    split_seps.append("")
                    cur = ""
                split_seps[-1] += c
            else:
                cur += c
                kept += 1
        if cur:
            split.append(cur)
            split_seps.append(sep_after)
        else:
            split_seps[-1] += sep_after
    remap.append(kept)
    if not split:
        raise CorpusError("corpus is entirely punctuation")
    edges = set(itertools.accumulate(len(b) for b in split[:-1]))
    bounds = {p for p in {remap[p] for p in bounds} | edges if 0 < p < kept}
    return split, chars, split_seps, bounds


def reference_render(blocks, separators, boundaries):
    """The separators and blocks joined, one space at each boundary inside
    a block."""
    out, off = [separators[0]], 0
    for block, sep in zip(blocks, separators[1:]):
        out += [" " + c if j and off + j in boundaries else c
                for j, c in enumerate(block)]
        out.append(sep)
        off += len(block)
    return "".join(out)


# -- segmentations and criteria -----------------------------------------------


def char_table(corpus, boundaries):
    """The package's word table of ``boundaries``, its words typed by
    characters, for scoring a boundary set with ``criteria.evaluate``."""
    starts = corpus.word_starts(boundaries)
    return SegmentedText(corpus, starts, corpus.type_words(
        starts, np.diff(starts, append=corpus.n_chars)))


def enumerate_segmentations(corpus):
    """All boundary sets over the corpus (block edges always present)."""
    edges = set(corpus.block_edges().tolist())
    internal = [p for p in range(1, corpus.n_chars)
                if p not in edges and _in_block(corpus, p)]
    for r in range(len(internal) + 1):
        for combo in itertools.combinations(internal, r):
            yield frozenset(edges | set(combo))


def _in_block(corpus, p):
    ends = [*corpus.offsets.tolist()[1:], corpus.n_chars]
    return any(a < p < b for a, b in zip(corpus.offsets.tolist(), ends))


def oracle_criteria(corpus, boundaries):
    """All six criteria straight from the words of each block, as
    ``{id: (value, neg_log_lik, complexity_k, extra)}``.

    The order-n likelihood is a sum over token positions: the token at
    position i of its block is predicted by the order-min(i + 1, n) ML
    model, count(history, word) / count(history followed by a word), both
    counted within blocks.  The order-1 likelihood sums c ln(c / M) per type.
    """
    chars = corpus.char_string()
    cuts = sorted(boundaries)
    blocks = []
    starts = corpus.offsets.tolist()
    for off, end in zip(starts, [*starts[1:], corpus.n_chars]):
        edges = [off, *(p for p in cuts if off < p < end), end]
        blocks.append([chars[x:y] for x, y in zip(edges, edges[1:])])
    unigram = Counter(w for b in blocks for w in b)
    m = sum(unigram.values())
    big_n = sum(len(w) * c for w, c in unigram.items())
    grams, histories = {}, {}
    for k in (2, 3):
        grams[k] = Counter(tuple(b[i:i + k]) for b in blocks
                           for i in range(len(b) - k + 1))
        histories[k] = Counter()
        for g, c in grams[k].items():
            histories[k][g[:-1]] += c
    nll = {1: fsum(-c * log(c / m) for c in unigram.values())}
    for n in (2, 3):
        terms = []
        for b in blocks:
            terms.append(-log(unigram[b[0]] / m))
            for i in range(1, len(b)):
                g = tuple(b[max(0, i - n + 1):i + 1])
                order = len(g)
                terms.append(-log(grams[order][g] / histories[order][g[:-1]]))
        nll[n] = fsum(terms)
    lexicon = sum(1 + len(w) for w in unigram)
    sym = Counter()
    for w in unigram:
        sym.update(w)
    sym[None] = len(unigram)  # the end-of-word mark is no character
    z = sum(sym.values())
    cbl = -fsum(c * log(c / z) for c in sym.values())
    out = {}
    for n in (1, 2, 3):
        if n == 1:
            k = lexicon + len(unigram)
        else:
            k = lexicon + 1 + 2 * len(grams[n])
        if big_n - k - 1 <= 0:
            out[f"aic{n}"] = (math.inf, nll[n], k, math.inf)
        else:
            corr = big_n * k / (big_n - k - 1)
            out[f"aic{n}"] = (nll[n] + corr, nll[n], k, corr)
    for n in (1, 2, 3):
        k = len(unigram) if n == 1 else len(grams[n])
        out[f"mdl{n}"] = (nll[n] + 0.5 * k * log(big_n) + cbl, nll[n], k, cbl)
    return out


def oracle_prf(corpus, gold, hyp_boundaries):
    """Token, boundary and lexicon scores laid out as
    ``SegReport.as_dict()``, from sets of spans and of word strings.  Block
    edges join the hypothesis, as given rather than predicted."""
    n = corpus.n_chars
    edges = set(corpus.block_edges().tolist())
    hyp = set(hyp_boundaries) | edges
    chars = corpus.char_string()

    def spans(bounds):
        cuts = [0] + sorted(set(bounds)) + [n]
        return [(a, b) for a, b in zip(cuts, cuts[1:]) if b > a]

    def prf(hyp_items, gold_items):
        correct, n_hyp, n_gold = (len(hyp_items & gold_items), len(hyp_items),
                                  len(gold_items))
        p = 100.0 * correct / n_hyp if n_hyp else 0.0
        r = 100.0 * correct / n_gold if n_gold else 0.0
        f = 2 * p * r / (p + r) if p + r > 0 else 0.0
        return {"p": p, "r": r, "f": f,
                "degenerate": n_hyp == 0 or n_gold == 0}

    hyp_spans, gold_spans = spans(hyp), spans(gold.boundaries)
    return {
        "token": prf(set(hyp_spans), set(gold_spans)),
        "boundary": prf(hyp - edges, set(gold.boundaries) - edges),
        "lexicon": prf({chars[a:b] for a, b in hyp_spans},
                       {chars[a:b] for a, b in gold_spans}),
    }


def oracle_unigram_scores(corpus, boundaries):
    """AIC1/MDL1 evaluated directly from the boundary set."""
    vals = oracle_criteria(corpus, boundaries)
    return vals["aic1"][0], vals["mdl1"][0]


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


def reference_ranks(values):
    """Fractional ranks by a walk over a stable sort: each run of equal
    values gets the mean of its positions.  NaN equals nothing, so each NaN
    is a run of its own."""
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


def reference_rho(xs, ys):
    """Pearson correlation of ``reference_ranks``, with numpy arithmetic in
    the order ``spearman_rho`` uses, so that results compare by ``repr``."""
    rx, ry = reference_ranks(xs), reference_ranks(ys)
    dx = rx - rx.mean()
    dy = ry - ry.mean()
    sx = float(np.sqrt((dx * dx).sum()))
    sy = float(np.sqrt((dy * dy).sum()))
    if sx == 0.0 or sy == 0.0:
        return float("nan")
    return float((dx * dy).sum() / (sx * sy))


# -- the length cost, one token at a time ------------------------------------


def length_cost(kind):
    """Super-additive per-token length cost g(x) of a checked kind, the
    scalar form of ``learner._cost_table``."""
    if kind == "xlogx":
        return lambda x: x * log(x)
    return lambda x: float(x * x)


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
        fresh_id = len(lex.entries)
    elif fresh_id != len(lex.entries):
        raise ValueError("fresh_id must be the next dense token id")
    old_counts = {w: seq.counts[w] for w in set(s)}
    old_total = seq.total
    assert lex.define(s, "".join(lex.entries[w].surface for w in s)) == fresh_id
    seq.new_token(fresh_id, sum(seq.lengths[w] for w in s))
    for site in sites:
        seq.merge(np.array([site]), fresh_id)
    changes = {w: (old_counts[w], seq.counts[w]) for w in set(s)}
    changes[fresh_id] = (0, len(sites))
    return CompressionDelta(fresh_id, s, len(sites), changes, old_total,
                            seq.total)


def walk(seq):
    """Each block's live positions, found by following the links."""
    nxt = seq.nxt.tolist()
    blocks = []
    for p in seq.offsets.tolist():
        blocks.append([])
        while p != -1:
            blocks[-1].append(p)
            p = nxt[p]
    return blocks


def boundaries(seq):
    """Every boundary position of the sequence, block edges included:
    each live position but 0, found by following the links."""
    return {p for block in walk(seq) for p in block} - {0}


def id_of(index, t):
    """The id whose columns hold n-gram ``t``, or None, by a scan of
    ``tuple_of`` over every id the index has used."""
    return next((i for i in range(index.size) if index.tuple_of(i) == t),
                None)


def score_of(state, t):
    """The score the learner's argmin compares for live n-gram ``t``: its
    entry of the one table ``_scores`` computes."""
    i = id_of(state.index, tuple(t))
    if i is None:
        raise ValueError(f"{tuple(t)} is not a live candidate")
    return float(state._scores()[i])


def full_scores(state):
    """Every id's score below ``index.size``, by the learner's formula
    recomputed over all of them at once, with no cached part and the beta
    length term rebuilt from the ids' tokens: the table ``_scores`` must
    equal bit for bit."""
    index, xlx = state.index, state._xlx
    rows = slice(0, index.size)
    m, n = index.m[rows], index.order[rows]
    acc, lost = 0.0, 0
    for ids, mult in zip(index.comp[:, rows], index.mult[:, rows]):
        c = state.seq.counts[ids]
        c2 = c - m * mult
        acc = acc + (xlx[c2] - xlx[c])
        lost = lost + ((c2 == 0) & (mult > 0))
    out = (-acc - xlx[m]
           + state.options.complexity_sign * 0.5 * (1 - lost) * state._ln_n)
    p = state.params
    if p.alpha:
        out += p.alpha * m * (n - 1)
    if p.beta:
        g = _cost_table(p.kind, state.seq.n_chars)
        lens = state.seq.lengths[index.comp[:, rows]]
        lens[np.arange(index.n_max)[:, None] >= n] = 0  # padding slots
        parts = 0.0
        for gl in g[lens]:              # in slot order
            parts = parts + gl
        out += p.beta * m * (g[lens.sum(0)] - parts)
    total = state.seq.total
    out += xlx[total - m * (n - 1)] - xlx[total]
    return np.where(m > 0, out, np.inf)


def check_objective(state, rel_tol=1e-12):
    """Assert the learner's running objective against a full recompute.
    The running sum drifts by at most 1.6e-14 relative on the toy corpora."""
    fresh = penalized_likelihood(state.seq, state.params,
                                 state.options.complexity_sign)
    if abs(fresh - state.objective) > rel_tol * max(1.0, abs(fresh)):
        raise AssertionError(f"objective drift: incremental "
                             f"{state.objective!r} vs recomputed {fresh!r}")


def _scan_sites(seq, s):
    n = len(s)
    tok, nxt = seq.tok.tolist(), seq.nxt.tolist()
    sites = []
    for start in seq.offsets.tolist():
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


def verify_index(index):
    """Assert that each live position's ``gram[n]`` id names the n tokens
    found there by following links, that every other position holds -1,
    that each live id is one distinct n-gram counted as a full scan counts
    it, and that its columns (order, zero-padded tokens, multiplicity of
    each distinct token at its first slot, self-overlap) match the tuple,
    and that its slice of the occurrence pool holds its live positions,
    strictly ascending, so that reading them in order needs no sort; that
    the scorer's columns are as long as ``m``, and a free id below
    ``size`` reads score part inf and k 0."""
    seq = index.seq
    tok, nxt = seq.tok.tolist(), seq.nxt.tolist()
    live = {p for block in walk(seq) for p in block}
    named = set()
    for n in index.orders:
        gram = index.gram[n].tolist()
        for p, i in enumerate(gram):
            run = [p] if p in live else []
            while run and len(run) < n and nxt[run[-1]] != -1:
                run.append(nxt[run[-1]])
            if len(run) < n:
                assert i == -1, (n, p, i)
                continue
            assert index.tuple_of(i) == tuple(tok[q] for q in run), (n, p, i)
            named.add(i)
    tuples = {i: index.tuple_of(i) for i in range(index.size)}
    ids = [i for i, t in tuples.items() if t is not None]
    assert set(ids) == named
    assert len(index.part) == len(index.k) == len(index.gl) == len(index.m)
    free = [i for i, t in tuples.items() if t is None]
    assert (index.part[free] == np.inf).all() and not index.k[free].any()
    assert len({tuples[i] for i in ids}) == len(ids)
    pad = [0] * index.n_max
    for i in ids:
        t = tuples[i]
        n = len(t)
        assert index.m[i] == count_occurrences(seq, t), i
        assert index.order[i] == n, i
        assert index.comp[:, i].tolist() == [*t, *pad][:index.n_max], i
        mult = [t.count(w) if t.index(w) == k else 0 for k, w in enumerate(t)]
        assert index.mult[:, i].tolist() == [*mult, *pad][:index.n_max], i
        assert index._overlaps[i] == any(t[d:] == t[:n - d]
                                         for d in range(1, n)), i
        # its pool slice lies below the fill mark and holds every position
        # the id is live at, the first of which is the tie-break's
        at, ln = int(index._at[i]), int(index._len[i])
        assert 0 <= at and at + ln <= index._fill <= len(index._pool), i
        held = index._pool[at:at + ln]
        assert (np.diff(held) > 0).all(), i
        held = set(held.tolist())
        gram = index.gram[n]
        assert set(np.flatnonzero(gram == i).tolist()) <= held, i
        assert index.first_position(i) == int(np.argmax(gram == i)), i


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
    tok = seq.tok.tolist()
    for positions in walk(seq):
        block = [tok[p] for p in positions]
        for i in range(n - 1, len(block)):
            counts[tuple(block[i - n + 1:i + 1])] += 1
    return NgramStats(n, dict(counts))


def expand(lex, tid):
    """Recursively expand a lexicon entry down to base characters."""
    e = lex.entries[tid]
    if e.components is None:
        return e.surface
    return "".join(expand(lex, c) for c in e.components)


def verify_sequence(seq, lex, corpus=None):
    """Assert maintained statistics against a from-scratch recount, and
    that every token column is as long as ``counts``, with 0 past the ids
    the lexicon defined."""
    recount = Counter()
    total = 0
    tok = seq.tok.tolist()
    blocks = walk(seq)
    for block in blocks:
        for p in block:
            recount[tok[p]] += 1
            total += 1
    assert total == seq.total, (total, seq.total)
    assert len(seq.counts) == len(seq.lengths) == len(seq.changed)
    used = len(lex.entries)
    assert not seq.counts[used:].any() and not seq.lengths[used:].any()
    for tid, c in enumerate(seq.counts):
        assert recount.get(tid, 0) == c, (tid, recount.get(tid, 0), c)
    conserved = sum(c * seq.lengths[t] for t, c in enumerate(seq.counts))
    assert conserved == seq.n_chars, (conserved, seq.n_chars)
    for tid in recount:
        expanded = expand(lex, tid)
        assert expanded == lex.surface(tid)
        assert len(expanded) == seq.lengths[tid]
    if corpus is not None:
        expanded = "".join(
            lex.surface(tok[p]) for block in blocks for p in block)
        assert expanded == corpus.char_string()

