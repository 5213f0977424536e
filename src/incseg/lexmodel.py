"""Evolving token sequence, lexicon, and incremental n-gram bookkeeping.

The sequence is stored as a doubly linked list over the original character
positions: merging a span keeps its leftmost position alive and unlinks the
rest, so a live position doubles as the global character offset where its
token starts.  Links never cross block edges, which is what keeps candidate
n-grams inside blocks.

Candidate occurrence counts follow greedy left-to-right non-overlapping
semantics; substitution consumes exactly the occurrences that were counted.
The index stores positions only: ``consume_dirty`` hands the counts of the
n-grams whose positions changed to the learner's candidate table, which
keeps the one copy of them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Sequence

from .corpus import RawCorpus

TokenTuple = tuple[int, ...]


@dataclass
class LexEntry:
    surface: str
    components: TokenTuple | None = None  # None for base characters


class Lexicon:
    """Token id -> definition; composed ids follow the base ids in the order
    the compressions happened."""

    def __init__(self) -> None:
        self.entries: list[LexEntry] = []

    def define_base(self, surface: str) -> int:
        self.entries.append(LexEntry(surface))
        return len(self.entries) - 1

    def define(self, components: TokenTuple, surface: str) -> int:
        if len(components) < 2:
            raise ValueError("composed entry needs >= 2 components")
        tid = len(self.entries)
        self.entries.append(LexEntry(surface, tuple(components)))
        return tid

    def surface(self, tid: int) -> str:
        return self.entries[tid].surface

    def __len__(self) -> int:
        return len(self.entries)


class TokenSequence:
    """Per-block token lists with maintained counts, total, and lengths."""

    __slots__ = ("tok", "nxt", "prv", "counts", "lengths", "total", "n_chars",
                 "block_starts")

    def __init__(self, tok, nxt, prv, counts, lengths, total, n_chars,
                 block_starts):
        self.tok: list[int] = tok
        self.nxt: list[int] = nxt
        self.prv: list[int] = prv
        self.counts: list[int] = counts
        self.lengths: list[int] = lengths
        self.total: int = total
        self.n_chars: int = n_chars
        self.block_starts: list[int] = block_starts

    def new_token(self, length: int) -> int:
        self.counts.append(0)
        self.lengths.append(length)
        return len(self.counts) - 1

    def merge_site(self, positions: Sequence[int], fresh: int) -> None:
        """Collapse one occurrence (given live positions) into ``fresh``."""
        tok, nxt, prv, counts = self.tok, self.nxt, self.prv, self.counts
        for p in positions:
            counts[tok[p]] -= 1
        counts[fresh] += 1
        self.total -= len(positions) - 1
        p1 = positions[0]
        pn = positions[-1]
        tok[p1] = fresh
        after = nxt[pn]
        nxt[p1] = after
        if after != -1:
            prv[after] = p1

    def iter_positions(self, start: int) -> Iterator[int]:
        p = start
        nxt = self.nxt
        while p != -1:
            yield p
            p = nxt[p]

    def to_blocks(self) -> list[list[int]]:
        return [[self.tok[p] for p in self.iter_positions(s)]
                for s in self.block_starts]

    def boundary_set(self) -> set[int]:
        """All word-boundary character positions, block edges included."""
        out: set[int] = set()
        for s in self.block_starts:
            out.update(self.iter_positions(s))
        out.discard(0)
        return out

    def n_types(self) -> int:
        return sum(1 for c in self.counts if c > 0)

    def active_items(self) -> Iterator[tuple[int, int]]:
        """(token id, count) over types with count >= 1."""
        return ((t, c) for t, c in enumerate(self.counts) if c > 0)


def init_from_corpus(corpus: RawCorpus) -> tuple[TokenSequence, Lexicon]:
    """Character-level starting state: one token per character."""
    n_base = len(corpus.charmap)
    tok: list[int] = []
    nxt: list[int] = []
    prv: list[int] = []
    starts: list[int] = []
    for block in corpus.blocks:
        base = len(tok)
        starts.append(base)
        last = base + len(block) - 1
        for j, cid in enumerate(block):
            p = base + j
            tok.append(cid)
            prv.append(p - 1 if p > base else -1)
            nxt.append(p + 1 if p < last else -1)
    counts = [0] * n_base
    for t in tok:
        counts[t] += 1
    lengths = [1] * n_base
    seq = TokenSequence(tok, nxt, prv, counts, lengths, len(tok), len(tok),
                        starts)
    lex = Lexicon()
    for ch in corpus.charmap.chars:
        lex.define_base(ch)
    return seq, lex


@dataclass
class CompressionDelta:
    """One applied compression: the new token and how many sites it took."""

    fresh_id: int
    occurrences: int


class CandidateIndex:
    """Incrementally maintained position index of all within-block n-grams.

    For every n-gram (2 <= n <= n_max) present in the sequence, ``positions``
    holds the start positions of its adjacent occurrences.  Mutations go
    through ``apply``, which deregisters the n-grams overlapping each
    substitution site, merges the site, and re-registers the n-grams of the
    new neighborhood.  ``consume_dirty`` then hands the greedy counts of the
    n-grams whose positions changed to the learner's candidate table; the
    index keeps no counts of its own.
    """

    def __init__(self, seq: TokenSequence, n_max: int = 2) -> None:
        if not 2 <= n_max <= 4:
            raise ValueError("n_max must be in 2..4")
        self.seq = seq
        self.n_max = n_max
        self.positions: dict[TokenTuple, set[int]] = {}
        self.pos_dirty: set[TokenTuple] = set()
        for start in seq.block_starts:
            for p in seq.iter_positions(start):
                self._register_at(p)

    # -- registration ------------------------------------------------

    def _register_at(self, p: int) -> None:
        seq = self.seq
        tok, nxt = seq.tok, seq.nxt
        t = [tok[p]]
        q = p
        for _ in range(self.n_max - 1):
            q = nxt[q]
            if q == -1:
                break
            t.append(tok[q])
            key = tuple(t)
            posset = self.positions.get(key)
            if posset is None:
                posset = set()
                self.positions[key] = posset
            posset.add(p)
            self.pos_dirty.add(key)

    def _deregister_at(self, p: int) -> None:
        seq = self.seq
        tok, nxt = seq.tok, seq.nxt
        t = [tok[p]]
        q = p
        for _ in range(self.n_max - 1):
            q = nxt[q]
            if q == -1:
                break
            t.append(tok[q])
            key = tuple(t)
            self.positions[key].remove(p)
            self.pos_dirty.add(key)

    # -- greedy occurrence semantics ----------------------------------

    @staticmethod
    def _self_overlapping(t: TokenTuple) -> bool:
        n = len(t)
        if n == 2:
            return t[0] == t[1]
        return any(t[d:] == t[:n - d] for d in range(1, n))

    def greedy_count(self, t: TokenTuple) -> int:
        if not self._self_overlapping(t):
            return len(self.positions[t])
        return len(self._greedy_sites(t))

    def _greedy_sites(self, t: TokenTuple) -> list[list[int]]:
        nxt = self.seq.nxt
        hops = len(t) - 1
        sites: list[list[int]] = []
        frontier = -1
        for p in sorted(self.positions[t]):
            if p <= frontier:
                continue
            site = [p]
            q = p
            for _ in range(hops):
                q = nxt[q]
                site.append(q)
            sites.append(site)
            frontier = site[-1]
        return sites

    def first_position(self, t: TokenTuple) -> int:
        return min(self.positions[t])

    # -- mutation ------------------------------------------------------

    def apply(self, t: TokenTuple, lex: Lexicon) -> CompressionDelta:
        """Compress all greedy occurrences of ``t``, keeping the index exact."""
        seq = self.seq
        sites = self._greedy_sites(t)
        if not sites:
            raise ValueError(f"candidate {t} does not occur")
        fresh = seq.new_token(sum(seq.lengths[w] for w in t))
        lex.define(t, "".join(lex.entries[w].surface for w in t))
        ctx = self.n_max - 1
        prv = seq.prv
        for site in sites:
            p1 = site[0]
            lctx = []
            q = prv[p1]
            while q != -1 and len(lctx) < ctx:
                lctx.append(q)
                q = prv[q]
            for s0 in lctx:
                self._deregister_at(s0)
            for s0 in site:
                self._deregister_at(s0)
            seq.merge_site(site, fresh)
            for s0 in lctx:
                self._register_at(s0)
            self._register_at(p1)
        return CompressionDelta(fresh, len(sites))

    def consume_dirty(self) -> tuple[list[TokenTuple],
                                     dict[TokenTuple, int]]:
        """Flush the n-grams whose positions ``apply`` touched: returns
        (tuples whose last position went since the last flush, each live
        touched tuple -> its greedy count)."""
        pos_d = self.pos_dirty
        self.pos_dirty = set()
        dead: list[TokenTuple] = []
        counts: dict[TokenTuple, int] = {}
        for t in pos_d:
            if self.positions[t]:
                counts[t] = self.greedy_count(t)
            else:
                del self.positions[t]
                dead.append(t)
        return dead, counts
