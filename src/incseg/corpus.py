"""Corpus ingestion, hard boundaries, and segmentation serialization.

A corpus is a sequence of *blocks*: spans of segmentable characters between
hard boundaries (line breaks, and optionally punctuation runs).  Characters
are interned to dense integer ids in order of first appearance.  Boundary
positions are global indices into the concatenation of all block
characters: position p is the gap between character p-1 and character p.
"""

from __future__ import annotations

import hashlib
import json
import unicodedata
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterable

import numpy as np


class CorpusError(ValueError):
    """Unreadable or malformed corpus input."""


def positions(boundaries: Iterable[int], n_chars: int) -> np.ndarray:
    """``boundaries`` as an int64 array, an int64 array as it is; a position
    outside 1..n_chars-1 is refused."""
    b = (boundaries.astype(np.int64, copy=False)
         if isinstance(boundaries, np.ndarray)
         else np.fromiter(boundaries, np.int64))
    bad = b[(b <= 0) | (b >= n_chars)]
    if len(bad):
        raise ValueError(
            f"boundary position {bad.min()} outside 1..{n_chars - 1}")
    return b


def runs(v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Where each run of equal values of the sorted ``v`` starts, and its
    length."""
    edge = np.empty(len(v) + 1, bool)
    edge[0] = edge[-1] = True
    np.not_equal(v[1:], v[:-1], out=edge[1:-1])
    edge = edge.nonzero()[0]
    return edge[:-1], edge[1:] - edge[:-1]


def distinct(v: np.ndarray) -> np.ndarray:
    """Sorted distinct values of ``v``, by a sort and a neighbour mask
    (numpy's value-only ``unique`` takes a slower hash path)."""
    v = np.sort(v)
    keep = np.empty(len(v), bool)
    keep[:1] = True
    np.not_equal(v[1:], v[:-1], out=keep[1:])
    return v[keep]


def group(keys: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """A stable order of the non-negative int64 ``keys``, and where each run
    of equal keys starts in it and its length: one sort of each row index
    packed under its key when both fit in 63 bits, else a stable argsort."""
    b = len(keys).bit_length()  # bits enough for a row index
    if int(keys.max(initial=0)) >> (63 - b):  # too wide to pack
        order = np.argsort(keys, kind="stable")
        return (order, *runs(keys[order]))
    packed = np.sort(keys << b | np.arange(len(keys)))
    return (packed & ((1 << b) - 1), *runs(packed >> b))


def dense(keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each key's rank among the distinct ``keys``, and each one's count."""
    order, start, count = group(keys)
    rank = np.empty(len(keys), np.int64)
    rank[order] = np.repeat(np.arange(len(start)), count)
    return rank, count


@dataclass
class RawCorpus:
    """Unsegmented input: character codes, block offsets and restorable
    separators.

    ``codes`` holds the character ids of all blocks, concatenated, and
    ``offsets`` the first position of each block.  ``chars`` maps id to
    character in order of first appearance in the source text, hard
    punctuation included.  ``separators`` has one more element than
    ``offsets``: separators[i] precedes block i and separators[-1] trails
    the final block, so that joining separators and rendered blocks
    reproduces the source text.
    """

    codes: np.ndarray
    offsets: np.ndarray
    chars: list[str]
    separators: list[str]
    source_digest: str

    @property
    def n_chars(self) -> int:
        return len(self.codes)

    def block_edges(self) -> np.ndarray:
        """Block-given boundary positions, a view of ``offsets[1:]``."""
        return self.offsets[1:]

    def _points(self) -> np.ndarray:
        """The code point of every segmentable character, as uint32."""
        return np.array([ord(c) for c in self.chars], np.uint32)[self.codes]

    def char_string(self) -> str:
        """All segmentable characters, concatenated across blocks."""
        return self._points().tobytes().decode("utf-32-le")

    def word_starts(self, boundaries: Iterable[int]) -> np.ndarray:
        """First positions, ascending, of the words that the block edges
        and the ``boundaries`` cut the text into.  A boundary outside
        1..n_chars-1 is refused."""
        return distinct(np.concatenate((positions(boundaries, self.n_chars),
                                        self.offsets)))

    def type_words(self, starts: np.ndarray, lengths: np.ndarray
                   ) -> np.ndarray:
        """Exact type ids of the words at ``starts``, dense from 0: two
        words share an id iff they have the same characters.

        Words of one length are typed together: their rows of character
        ids are packed column by column into int64 keys in base
        ``len(chars)``, ranked densely every ``per`` columns, so few that
        ``group`` can still pack a row index under each key.
        """
        base = max(len(self.chars), 2)
        tid = np.empty(len(starts), np.int64)
        n_types = 0
        order, first, size = group(lengths)
        for s, c in zip(first.tolist(), size.tolist()):
            idx = order[s:s + c]
            key = np.zeros(c, np.int64)
            per = max((63 - 2 * c.bit_length()) // (base - 1).bit_length(), 1)
            at = starts[idx]
            for j in range(int(lengths[idx[0]])):
                if j and j % per == 0:
                    key = dense(key)[0]
                key = key * base + self.codes[at + j]
            key, count = dense(key)
            tid[idx] = key + n_types
            n_types += len(count)
        return tid

    def _render(self, starts: np.ndarray) -> str:
        """Reserialize, inserting one ASCII space before each of the word
        starts that ``word_starts`` gives, but a block's first."""
        firsts = np.searchsorted(starts, self.offsets)
        text = np.insert(self._points(), np.delete(starts, firsts), 32)
        text = text.tobytes().decode("utf-32-le")
        # block i starts after the spaces inserted before it
        cuts = (self.offsets + firsts - np.arange(len(firsts))).tolist()
        out = [self.separators[0]]
        for a, b, sep in zip(cuts, cuts[1:] + [len(text)],
                             self.separators[1:]):
            out += (text[a:b], sep)
        return "".join(out)


@dataclass(frozen=True, eq=False)
class GoldSegmentation:
    """Reference word boundaries over a corpus' character stream.

    ``boundaries``: the sorted int64 boundary positions, block edges
    included, 0 and n_chars not (``eq=False``: an array has no ``==``).
    """

    boundaries: np.ndarray
    n_chars: int


def default_punctuation(text: str) -> set[str]:
    """Characters of the text in Unicode general category P*."""
    return {c for c in set(text) if unicodedata.category(c).startswith("P")}


def load_gold(
    path: str | Path,
    format: str = "brent",
    hard_punct: set[str] | Callable[[str], set[str]] | None = None,
) -> tuple[RawCorpus, GoldSegmentation]:
    """Load a gold-segmented file; derive the unsegmented corpus and gold
    boundaries, the sorted int64 starts of every word but the first.

    Both supported formats are one utterance/passage per line with words
    separated by whitespace; ``brent`` additionally means one symbol per
    phoneme, which needs no special handling since characters are interned
    per Unicode scalar.  The parse is a few array passes over the text's
    code points.  A table by code point gives each character its id, -1
    for whitespace and -2 for ``hard_punct``; a word is a run of ids >= 0,
    and it starts a block when a line break or a mark lies between it and
    the word before.  Marks are dropped from the character stream, and
    every word piece they leave starts a gold word.  The separators keep
    the marks, the line breaks and each line without words verbatim.  A
    callable ``hard_punct`` gets the text's distinct non-space characters
    as one string and returns the set, so that the file is read once.
    """
    if format not in ("brent", "sighan"):
        raise CorpusError(f"unknown format {format!r}")
    raw = Path(path).read_bytes()
    digest = hashlib.sha256(raw).hexdigest()
    try:
        text = raw.decode("utf-8")
    except UnicodeDecodeError as e:
        line = raw.count(b"\n", 0, e.start) + 1
        raise CorpusError(f"{path}: invalid UTF-8 on line {line}: {e.reason}") from None
    del raw
    pts = np.frombuffer(text.encode("utf-32-le"), np.uint32)
    del text
    n = len(pts)
    # each code point's first position, n where it is absent
    table = np.full(int(pts.max(initial=0)) + 1, n, np.int32)
    np.minimum.at(table, pts, np.arange(n, dtype=np.int32))
    new = np.zeros(n, bool)
    new[table[table < n]] = True
    seen = pts[new]  # distinct code points, by first appearance
    firsts = [chr(c) for c in seen.tolist()]
    space = np.array([c.isspace() for c in firsts], bool)
    chars = [c for c, s in zip(firsts, space) if not s]
    if not chars:
        raise CorpusError(f"{path}: empty corpus file")
    if callable(hard_punct):
        hard_punct = hard_punct("".join(chars))
    punct = set(hard_punct or ())
    ids = np.cumsum(~space) - 1
    ids[[c in punct for c in firsts]] = -2
    ids[space] = -1
    table[seen] = ids
    cid = table[pts]
    newline = pts == 10
    # a line without words keeps its whitespace; others keep only marks
    lines = np.append(0, np.flatnonzero(newline) + 1)
    blank = ~np.logical_or.reduceat(np.append(cid != -1, False), lines)
    kept = np.repeat(blank, np.diff(lines, append=n)) | newline | (cid == -2)
    seps = pts[kept].tobytes().decode("utf-32-le")
    del pts, newline
    word = cid >= 0
    codes = cid[word].astype(np.int64)
    del cid
    edges = np.flatnonzero(np.diff(word, prepend=False, append=False))
    if not len(edges):
        raise CorpusError("corpus is entirely punctuation")
    starts, ends = edges[::2], edges[1::2]
    # kept characters before the first word, after each one and after the
    # last; they lie only between blocks, so each block opens a separator
    gaps = np.add.reduceat(np.append(kept, False), np.append(0, ends))
    first = np.append(True, gaps[1:-1] > 0)
    cuts = np.cumsum(gaps)[np.append(first, True)].tolist()
    seps = [seps[a:b] for a, b in zip([0, *cuts], cuts)]
    starts = np.append(0, np.cumsum(ends - starts)[:-1])
    corpus = RawCorpus(codes, starts[first], chars, seps, digest)
    return corpus, GoldSegmentation(starts[1:], len(codes))


def write_segmentation(
    boundaries: Iterable[int],
    corpus: RawCorpus,
    path: str | Path,
) -> None:
    """Write the segmented corpus and a JSON sidecar of the sorted int
    positions it cuts at, the block edges and the ``boundaries``; a
    boundary outside 1..n_chars-1 is refused before either is written."""
    starts = corpus.word_starts(boundaries)
    path = Path(path)
    path.write_text(corpus._render(starts), encoding="utf-8")
    meta = {
        "n_chars": corpus.n_chars,
        "n_blocks": len(corpus.offsets),
        "boundaries": starts[1:].tolist(),
    }
    path.with_suffix(path.suffix + ".json").write_text(
        json.dumps(meta), encoding="utf-8"
    )
