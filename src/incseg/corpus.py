"""Corpus ingestion, hard boundaries, and segmentation serialization.

A corpus is a sequence of *blocks*: spans of segmentable characters between
hard boundaries (line breaks, and optionally punctuation runs).  Characters
are interned to dense integer ids.  Boundary positions are global indices
into the concatenation of all block characters: position p is the gap
between character p-1 and character p.
"""

from __future__ import annotations

import functools
import hashlib
import itertools
import json
import unicodedata
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable

import numpy as np


class CorpusError(ValueError):
    """Unreadable or malformed corpus input."""


class Charmap:
    """Bidirectional character-string <-> dense-id table."""

    def __init__(self) -> None:
        self.chars: list[str] = []
        self.ids: dict[str, int] = {}

    def intern(self, ch: str) -> int:
        i = self.ids.get(ch)
        if i is None:
            i = len(self.chars)
            self.chars.append(ch)
            self.ids[ch] = i
        return i

    def __len__(self) -> int:
        return len(self.chars)


@dataclass
class RawCorpus:
    """Unsegmented input: blocks of character ids plus restorable separators.

    ``separators`` has one more element than ``blocks``: separators[i]
    precedes blocks[i] and separators[-1] trails the final block, so that
    joining separators and rendered blocks reproduces the source text.
    """

    blocks: list[list[int]]
    charmap: Charmap
    separators: list[str]
    source_digest: str = ""

    def __post_init__(self) -> None:
        if len(self.separators) != len(self.blocks) + 1:
            raise CorpusError("need len(blocks)+1 separators")
        if any(len(b) == 0 for b in self.blocks):
            raise CorpusError("empty block")

    @functools.cached_property
    def n_chars(self) -> int:
        return sum(len(b) for b in self.blocks)

    @property
    def block_starts(self) -> list[int]:
        starts = []
        off = 0
        for b in self.blocks:
            starts.append(off)
            off += len(b)
        return starts

    def block_edges(self) -> frozenset[int]:
        """Boundary positions given by block structure (excludes position 0)."""
        return frozenset(s for s in self.block_starts if s > 0)

    def char_string(self) -> str:
        """All segmentable characters, concatenated across blocks."""
        cs = self.charmap.chars
        return "".join(cs[i] for b in self.blocks for i in b)

    @functools.cached_property
    def codes(self) -> np.ndarray:
        """Character ids of all blocks, concatenated; computed once."""
        return np.fromiter(itertools.chain.from_iterable(self.blocks),
                           np.int64, self.n_chars)

    @functools.cached_property
    def offsets(self) -> np.ndarray:
        """First position of each block, ascending; computed once."""
        return np.array(self.block_starts, np.int64)

    def type_words(self, starts: np.ndarray, lengths: np.ndarray
                   ) -> tuple[np.ndarray, np.ndarray]:
        """Exact type ids of the words at ``starts``: two words share an id
        iff they have the same characters.

        Words of one length are typed together: their rows of character
        ids are packed column by column into int64 keys in base
        ``len(charmap)``, ranked densely whenever the next column could
        overflow.  Returns each word's type id and one word index per type.
        """
        base = max(len(self.charmap), 2)
        tid = np.empty(len(starts), np.int64)
        reps = []
        n_types = 0
        order = np.argsort(lengths, kind="stable")
        buckets = np.flatnonzero(np.diff(lengths[order])) + 1
        for idx in np.split(order, buckets):
            key = np.zeros(len(idx), np.int64)
            space = 1  # key < space
            at = starts[idx]
            for j in range(int(lengths[idx[0]])):
                if space * base >= 2**62:
                    _, key = np.unique(key, return_inverse=True)
                    space = len(idx)
                key = key * base + self.codes[at + j]
                space *= base
            _, first, key = np.unique(key, return_index=True,
                                      return_inverse=True)
            tid[idx] = key + n_types
            n_types += len(first)
            reps.append(idx[first])
        return tid, np.concatenate(reps)

    def render(self, boundaries: Iterable[int] = ()) -> str:
        """Reserialize, inserting one ASCII space at each boundary position."""
        bset = set(boundaries)
        cs = self.charmap.chars
        out = [self.separators[0]]
        off = 0
        for b, sep_after in zip(self.blocks, self.separators[1:]):
            piece = []
            for j, cid in enumerate(b):
                if j > 0 and off + j in bset:
                    piece.append(" ")
                piece.append(cs[cid])
            out.append("".join(piece))
            out.append(sep_after)
            off += len(b)
        return "".join(out)


@dataclass(frozen=True)
class GoldSegmentation:
    """Reference word boundaries over a corpus' character stream.

    ``boundaries`` holds every boundary position including block edges
    (positions 0 and n_chars are implicit and never stored).
    """

    boundaries: frozenset[int]
    n_chars: int

    def word_spans(self) -> list[tuple[int, int]]:
        cuts = [0] + sorted(self.boundaries) + [self.n_chars]
        return [(a, b) for a, b in zip(cuts, cuts[1:])]


def default_punctuation(text: str) -> set[str]:
    """Characters of the text in Unicode general category P*."""
    return {c for c in set(text) if unicodedata.category(c).startswith("P")}


def _decode(path: str | Path) -> str:
    raw = Path(path).read_bytes()
    try:
        return raw.decode("utf-8")
    except UnicodeDecodeError as e:
        line = raw.count(b"\n", 0, e.start) + 1
        raise CorpusError(f"{path}: invalid UTF-8 on line {line}: {e.reason}") from None


def load_gold(
    path: str | Path,
    format: str = "brent",
    hard_punct: set[str] | None = None,
) -> tuple[RawCorpus, GoldSegmentation]:
    """Load a gold-segmented file; derive the unsegmented corpus and gold boundaries.

    Both supported formats are one utterance/passage per line with words
    separated by whitespace; ``brent`` additionally means one symbol per
    phoneme, which needs no special handling since characters are interned
    per Unicode scalar.  When ``hard_punct`` is given, punctuation runs
    become hard block separators and are dropped from the character stream
    (gold boundary positions are remapped accordingly).
    """
    if format not in ("brent", "sighan"):
        raise CorpusError(f"unknown format {format!r}")
    text = _decode(path)
    if not text.strip():
        raise CorpusError(f"{path}: empty corpus file")
    corpus, gold = _parse_segmented(text)
    corpus.source_digest = hashlib.sha256(Path(path).read_bytes()).hexdigest()
    if hard_punct:
        corpus, gold = _apply_hard_with_gold(corpus, gold, hard_punct)
    return corpus, gold


def _parse_segmented(text: str) -> tuple[RawCorpus, GoldSegmentation]:
    cm = Charmap()
    blocks: list[list[int]] = []
    seps: list[str] = [""]
    boundaries: set[int] = set()
    off = 0
    parts = text.split("\n")
    for i, line in enumerate(parts):
        tail = "\n" if i < len(parts) - 1 else ""
        words = line.split()
        if not words:
            seps[-1] += line + tail
            continue
        if off > 0:
            boundaries.add(off)
        block: list[int] = []
        for w in words:
            if block:
                boundaries.add(off + len(block))
            block.extend(cm.intern(c) for c in w)
        blocks.append(block)
        seps.append(tail)
        off += len(block)
    if not blocks:
        raise CorpusError("no segmentable content")
    corpus = RawCorpus(blocks, cm, seps)
    return corpus, GoldSegmentation(frozenset(boundaries), off)


def _split_blocks(
    corpus: RawCorpus, punctuation: set[str]
) -> tuple[RawCorpus, list[int]]:
    """Split blocks at punctuation runs.

    Returns the new corpus and, for each old character position, the number
    of surviving characters strictly before it (i.e. its new position).
    """
    cm = corpus.charmap
    punct_ids = {cm.ids[c] for c in punctuation if c in cm.ids}
    new_blocks: list[list[int]] = []
    new_seps: list[str] = [corpus.separators[0]]
    remap: list[int] = []
    kept = 0
    for block, sep_after in zip(corpus.blocks, corpus.separators[1:]):
        cur: list[int] = []
        for cid in block:
            remap.append(kept)
            if cid in punct_ids:
                if cur:
                    new_blocks.append(cur)
                    new_seps.append("")
                    cur = []
                new_seps[-1] += cm.chars[cid]
            else:
                cur.append(cid)
                kept += 1
        if cur:
            new_blocks.append(cur)
            new_seps.append(sep_after)
        else:
            new_seps[-1] += sep_after
    remap.append(kept)
    if not new_blocks:
        raise CorpusError("corpus is entirely punctuation")
    out = RawCorpus(new_blocks, cm, new_seps, corpus.source_digest)
    return out, remap


def _apply_hard_with_gold(
    corpus: RawCorpus, gold: GoldSegmentation, punctuation: set[str]
) -> tuple[RawCorpus, GoldSegmentation]:
    new_corpus, remap = _split_blocks(corpus, punctuation)
    n = new_corpus.n_chars
    edges = new_corpus.block_edges()
    mapped = {remap[p] for p in gold.boundaries}
    mapped |= edges
    mapped = {p for p in mapped if 0 < p < n}
    return new_corpus, GoldSegmentation(frozenset(mapped), n)


def write_segmentation(
    boundaries: Iterable[int],
    corpus: RawCorpus,
    path: str | Path,
) -> None:
    """Write the segmented corpus and a JSON sidecar of boundary positions."""
    bl = sorted(set(boundaries))
    path = Path(path)
    path.write_text(corpus.render(bl), encoding="utf-8")
    meta = {
        "n_chars": corpus.n_chars,
        "n_blocks": len(corpus.blocks),
        "boundaries": bl,
    }
    path.with_suffix(path.suffix + ".json").write_text(
        json.dumps(meta), encoding="utf-8"
    )
