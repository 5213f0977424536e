"""Evolving token sequence, lexicon, and the candidate n-gram index.

Candidate counts follow greedy left-to-right non-overlapping semantics; a
compression consumes exactly the occurrences that were counted.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from itertools import product
from typing import Iterable, Iterator

import numpy as np

from .corpus import RawCorpus, distinct, group

TokenTuple = tuple[int, ...]
# the occurrence pool's size, in multiples of the positions it starts with
_POOL_SLACK = 2


@cache
def _slot_columns(n: int) -> tuple[tuple, np.ndarray, np.ndarray]:
    """The slot pairs (a, b), a < b, of an order-n n-gram (n <= 4), and its
    ``mult`` column and self-overlap by the code of its equal pairs, bit j
    set when pair j holds one token twice, which decides both."""
    pairs = tuple((a, b) for b in range(n) for a in range(b))
    mult = np.zeros((n, 1 << len(pairs)), np.int8)
    over = np.zeros(1 << len(pairs), bool)
    for t in product(range(n), repeat=n):
        code = sum(1 << j for j, (a, b) in enumerate(pairs) if t[a] == t[b])
        mult[:, code] = [t.count(w) * (t.index(w) == s)
                         for s, w in enumerate(t)]
        over[code] = any(t[d:] == t[:n - d] for d in range(1, n))
    mult.flags.writeable = over.flags.writeable = False  # shared by all
    return pairs, mult, over


@dataclass
class LexEntry:
    surface: str
    components: TokenTuple | None = None  # None for base characters


class Lexicon:
    """Token id -> definition: the base characters, then the composed ids in
    the order the compressions happened; ``type_of[t]`` numbers token t's
    surface in order of first definition, so (ab)c and a(bc) share one."""

    def __init__(self, chars: Iterable[str] = ()) -> None:
        self.entries: list[LexEntry] = [LexEntry(ch) for ch in chars]
        self._types = {e.surface: t for t, e in enumerate(self.entries)}
        self.type_of = list(range(len(self.entries)))  # chars are distinct

    def define(self, components: TokenTuple, surface: str) -> int:
        if len(components) < 2:
            raise ValueError("composed entry needs >= 2 components")
        tid = len(self.entries)
        self.entries.append(LexEntry(surface, tuple(components)))
        self.type_of.append(self._types.setdefault(surface, len(self._types)))
        return tid

    def surface(self, tid: int) -> str:
        return self.entries[tid].surface


@dataclass(slots=True, eq=False)
class TokenSequence:
    """Tokens over the original character positions, with maintained
    counts, total, and lengths.

    ``tok[p]`` is the token that starts at character p, or -1 once a merge
    swallowed p; ``nxt``/``prv`` link each block's live positions and hold
    -1 at block edges, so no link, and no candidate n-gram, crosses one.
    A merge keeps the leftmost position of its span, so a live position is
    also the character offset where its token starts.  Token ids below
    ``n_ids`` are in use; ``counts`` and ``lengths`` hold 0 past them."""

    tok: np.ndarray
    nxt: np.ndarray
    prv: np.ndarray
    counts: np.ndarray  # int64, one slot per token id, and spare slots
    lengths: np.ndarray  # int64, one slot per token id, and spare slots
    total: int
    n_chars: int
    offsets: np.ndarray  # the corpus's block offsets
    n_ids: int

    def new_token(self, length: int) -> int:
        t = self.n_ids
        if t == len(self.counts):  # double both
            self.counts = np.pad(self.counts, (0, t))
            self.lengths = np.pad(self.lengths, (0, t))
        self.lengths[t] = length
        self.n_ids = t + 1
        return t

    def merge(self, sites: np.ndarray, fresh: int) -> None:
        """Collapse each row of ``sites``, the live positions of one
        occurrence of the same n-gram (rows pairwise disjoint), into
        ``fresh``."""
        tok, nxt = self.tok, self.nxt
        k, n = sites.shape
        for w in tok[sites[0]].tolist():
            self.counts[w] -= k
        self.counts[fresh] += k
        self.total -= k * (n - 1)
        starts = sites[:, 0]
        after = nxt[sites[:, -1]]
        tok[sites[:, 1:]] = -1
        tok[starts] = fresh
        nxt[starts] = after
        linked = after != -1
        self.prv[after[linked]] = starts[linked]

    def to_blocks(self) -> list[list[int]]:
        live = np.flatnonzero(self.tok >= 0)
        cuts = np.searchsorted(live, self.offsets[1:])
        return [b.tolist() for b in np.split(self.tok[live], cuts)]

    def n_types(self) -> int:
        return int(np.count_nonzero(self.counts))

    def active_items(self) -> Iterator[tuple[int, int]]:
        """(token id, count) over types with count >= 1."""
        return ((t, c) for t, c in enumerate(self.counts.tolist()) if c > 0)


def init_from_corpus(corpus: RawCorpus) -> tuple[TokenSequence, Lexicon]:
    """Character-level starting state: one token per character."""
    n_base = len(corpus.chars)
    n = corpus.n_chars
    tok = corpus.codes.copy()  # merges rewrite the sequence's tokens
    starts = corpus.offsets
    nxt = np.arange(1, n + 1, dtype=np.int64)
    nxt[np.append(starts[1:], n) - 1] = -1
    prv = np.arange(-1, n - 1, dtype=np.int64)
    prv[starts] = -1
    counts = np.bincount(tok, minlength=n_base)
    seq = TokenSequence(tok, nxt, prv, counts, np.ones(n_base, np.int64), n,
                        n, starts, n_base)
    return seq, Lexicon(corpus.chars)


def live_words(seq: TokenSequence, lex: Lexicon
               ) -> tuple[np.ndarray, np.ndarray]:
    """Where each live token of ``seq`` starts, ascending, 0 and every block
    start among them, and the surface id ``lex.type_of`` of each."""
    starts = np.flatnonzero(seq.tok >= 0)
    return starts, np.asarray(lex.type_of)[seq.tok[starts]]


@dataclass
class CompressionDelta:
    """One applied compression: the new token and how many sites it took."""

    fresh_id: int
    occurrences: int


class CandidateIndex:
    """Every within-block n-gram (2 <= n <= n_max) of the sequence, by id,
    and the candidate table's columns, indexed by id.

    ``gram[n][p]`` is the id of the n-gram that starts at position p, or -1.
    Columns, filled when the id is born: ``comp[:, i]``, its tokens padded
    with 0; ``mult[:, i]``, each distinct token's count at its first slot
    and 0 elsewhere; ``order[i]``, its length, 0 while i is free;
    ``m[i]``, its greedy occurrence count, the only copy there is;
    ``_pool[_at[i]:_at[i] + _len[i]]``, the positions it held at birth or
    at the pool's last rebuild, ascending, which hold all it has now, as
    an id's positions only leave it.  Ids below ``size`` have been used.  A
    greedy occurrence is any live one, but for a self-overlapping id: one
    rule, ``_greedy``, gives those sites and the counts ``_settle`` redoes.
    """

    def __init__(self, seq: TokenSequence, n_max: int = 2) -> None:
        self.seq = seq
        self.n_max = n_max
        self.orders = range(2, n_max + 1)
        self.gram = {n: np.full(len(seq.tok), -1, np.int64)
                     for n in self.orders}
        self.size = 0
        self.m = np.zeros(1024, np.int64)
        self._overlaps = np.zeros(1024, bool)   # self-overlapping n-gram
        self.order = np.zeros(1024, np.int8)
        self.comp = np.zeros((n_max, 1024), np.int64)
        self.mult = np.zeros((n_max, 1024), np.int8)
        self._at = np.zeros(1024, np.int64)
        self._len = np.zeros(1024, np.int64)
        self._free = self._freed = self._born = np.zeros(0, np.int64)
        live = np.flatnonzero(seq.tok >= 0)
        self._pool = np.empty(int(_POOL_SLACK * len(live) * len(self.orders)),
                              np.int64)  # room for every order's births
        self._fill = 0  # pool entries in use
        self._settle(self._register([live] * len(self.orders)))

    def _intern(self, n: int, keys: np.ndarray, w: int) -> np.ndarray:
        """Ids for the order-n ``keys``, prefix id << w | last token, w the
        bits of a token id, a bigram's first token standing for the prefix
        id.  No live n-gram has one of these keys, so each takes a free id,
        last freed first, then an unused one, and gets its columns."""
        if not len(keys):  # spare the fixed cost below
            return keys
        free = self._free
        kept = max(len(free) - len(keys), 0)  # free ids left over
        top = self.size + len(keys) - (len(free) - kept)
        born = np.concatenate((free[kept:][::-1], np.arange(self.size, top)))
        self._free, self.size = free[:kept], top
        grow = (1 << (top - 1).bit_length()) - len(self.m)
        if grow > 0:  # every column alike, to a power-of-2 capacity
            for name in ("m", "_overlaps", "order", "comp", "mult", "_at",
                         "_len"):
                col = getattr(self, name)
                setattr(self, name, np.pad(
                    col, [(0, 0)] * (col.ndim - 1) + [(0, grow)]))
        pairs, mult, over = _slot_columns(n)
        t = [keys >> w] if n == 2 else list(self.comp.take(keys >> w, 1))
        t[n - 1:] = [keys & ((1 << w) - 1)]
        code = np.packbits([t[a] == t[b] for a, b in pairs], axis=0,
                           bitorder="little")[0]
        for b in range(self.n_max):  # a reused id's padding rows read 0
            self.comp[b][born] = t[b] if b < n else 0
            self.mult[b][born] = mult[b].take(code) if b < n else 0
        self.order[born] = n
        self._overlaps[born] = over.take(code)
        self._born = np.concatenate((self._born, born))
        return born

    def _register(self, reach: list[np.ndarray]) -> list[np.ndarray]:
        """Intern and count the order-n n-grams that start at the distinct
        live positions ``reach[n - 2]``, none of them live yet, and give
        each id born its positions' slice of the pool, ascending; returns
        the ids born, per order."""
        tok, nxt = self.seq.tok, self.seq.nxt
        w = (self.seq.n_ids - 1).bit_length()
        met = []
        for n, pos in zip(self.orders, reach):
            q = pos
            for _ in range(n - 1):
                q = nxt[q]
                ok = q != -1
                pos, q = pos[ok], q[ok]
            head = tok[pos] if n == 2 else self.gram[n - 1][pos]
            keys = head << w | tok[q]
            order, start, cnt = group(keys)
            ids = self._intern(n, keys[order[start]], w)
            self.m[ids] = cnt  # a free id holds m 0
            pos = pos[order]
            self.gram[n][pos] = np.repeat(ids, cnt)
            self._append(ids, start, cnt, pos)
            met.append(ids)
        return met

    def _append(self, ids: np.ndarray, start: np.ndarray, cnt: np.ndarray,
                pos: np.ndarray) -> None:
        """Give each of ``ids`` its run of ``pos``, from ``start`` with
        ``cnt`` entries, as its slice at the pool's fill mark, or rebuild
        the pool if they do not fit: ``gram`` holds them already."""
        if self._fill + len(pos) > len(self._pool):
            return self._rebuild()
        self._at[ids] = self._fill + start
        self._len[ids] = cnt
        self._pool[self._fill:self._fill + len(pos)] = pos
        self._fill += len(pos)

    def _rebuild(self) -> None:
        """Refill the pool from ``gram``, each live id's positions in
        order, in a new one ``_POOL_SLACK`` times their size."""
        live = [np.flatnonzero(self.gram[n] >= 0) for n in self.orders]
        self._pool = np.empty(int(_POOL_SLACK * sum(map(len, live))), np.int64)
        self._len[:] = 0  # free ids own nothing
        self._fill = 0
        for n, pos in zip(self.orders, live):
            order, start, cnt = group(self.gram[n][pos])
            pos = pos[order]
            self._append(self.gram[n][pos[start]], start, cnt, pos)

    def _deregister(self, reach: list[np.ndarray]) -> list[np.ndarray]:
        """Uncount the order-n n-grams that start at ``reach[n - 2]``;
        returns the ids met, once per position."""
        met = []
        for n, pos in zip(self.orders, reach):
            g = self.gram[n]
            ids = g[pos]
            ids = ids[ids >= 0]
            np.subtract.at(self.m, ids, 1)
            g[pos] = -1
            met.append(ids)
        return met

    def _greedy(self, n: int, ids: np.ndarray) -> tuple[np.ndarray, ...]:
        """(start, id) of every greedy occurrence of the order-n
        self-overlapping ascending ``ids``, by id, then left to right, from
        each id's pool slice less the positions that have left it.  A row
        that starts after the end of the row before it, of the same id, is
        kept, as ends rise with starts; only the rows that clash walk the
        frontier, from the end of the last row that did not clash."""
        at, cnt = self._at[ids], self._len[ids]
        who = np.repeat(ids, cnt)
        skip = np.repeat(at - cnt.cumsum() + cnt, cnt)  # pool index less row
        pos = self._pool[skip + np.arange(len(who))]
        keep = self.gram[n][pos] == who
        pos, who = pos[keep], who[keep]
        end = pos
        for _ in range(n - 1):
            end = self.seq.nxt[end]
        clash = (who[1:] == who[:-1]) & (pos[1:] <= end[:-1])
        clash = np.flatnonzero(clash) + 1  # rows overlapping the row before
        keep, last = np.ones(len(pos), bool), -1
        for r, p, e, before in zip(clash.tolist(), pos[clash].tolist(),
                                   end[clash].tolist(),
                                   end[clash - 1].tolist()):
            if r != last + 1:  # row r - 1 did not clash, so it is kept
                frontier = before
            if p > frontier:
                frontier = e
            else:
                keep[r] = False
            last = r
        return pos[keep], who[keep]

    def _sites(self, i: int) -> np.ndarray:
        """The greedy occurrences of n-gram ``i``, taken left to right, one
        row of positions each."""
        n = self.order[i]
        if self._overlaps[i]:
            pos = self._greedy(n, np.array([i]))[0]
        else:  # every live position: its pool slice, less those that left
            pos = self._pool[self._at[i]:self._at[i] + self._len[i]]
            pos = pos[self.gram[n][pos] == i]
        sites = np.empty((len(pos), n), np.int64)
        sites[:, 0] = pos
        for j in range(1, n):
            sites[:, j] = self.seq.nxt[sites[:, j - 1]]
        return sites

    def _settle(self, met: list[np.ndarray]) -> None:
        """Recount the self-overlapping ids met, whose position counts are
        not greedy counts, in one ``_greedy`` call per order; free every id
        met left at 0."""
        ids = distinct(np.concatenate(met))
        over = ids[self._overlaps[ids]]
        for n in distinct(self.order[over]).tolist() if len(over) else ():
            mine = over[self.order[over] == n]
            self.m[mine] = 0
            np.add.at(self.m, self._greedy(n, mine)[1], 1)
        dead = ids[self.m[ids] == 0]
        self.order[dead] = 0
        self._free = np.concatenate((self._free, dead))
        self._freed = np.concatenate((self._freed, dead))

    def tuple_of(self, i: int) -> TokenTuple | None:
        """The n-gram of id ``i``, or None while ``i`` is free."""
        return tuple(self.comp[:self.order[i], i].tolist()) or None

    def first_position(self, i: int) -> int:
        return int(self._sites(i)[0, 0])

    def apply(self, i: int, lex: Lexicon) -> CompressionDelta:
        """Compress all greedy occurrences of n-gram ``i`` in one batch.
        Only the n-grams that reach a site change: every order at the site
        positions, and the orders above j at the j-th position left of a
        site.  Uncount those, merge, and count the ones that start at the
        survivors, each holding the fresh token.  That is what merging site
        by site gives, as the index is a function of the sequence."""
        t = self.tuple_of(i)
        seq = self.seq
        sites = self._sites(i)
        fresh = seq.new_token(sum(seq.lengths[w] for w in t))
        lex.define(t, "".join(lex.entries[w].surface for w in t))
        reach, near, q = [], sites.ravel(), sites[:, 0]
        for _ in self.orders:  # the order-n positions add the (n-1)-th left
            q = seq.prv[q]
            q = q[q != -1]
            near = distinct(np.concatenate((near, q)))
            reach.append(near)
        met = self._deregister(reach)
        seq.merge(sites, fresh)
        self._settle(met + self._register([p[seq.tok[p] >= 0]
                                           for p in reach]))
        return CompressionDelta(fresh, len(sites))

    def consume_dirty(self) -> tuple[np.ndarray, np.ndarray]:
        """int64 arrays of the ids freed and born since the last call; no id
        is in both after a single apply, which frees after all its births."""
        out = self._freed, self._born
        self._freed, self._born = self._freed[:0], self._born[:0]
        return out
