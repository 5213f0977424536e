"""Majority-vote combination of segmentation outputs."""

from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np


def majority_vote(boundary_sets: Sequence[Iterable[int]],
                  block_edges: Iterable[int],
                  n_chars: int) -> frozenset[int]:
    """Keep a position iff strictly more than half of the inputs contain it.

    Block edges do not vote: they are given boundaries and always present in
    the result.  Even splits resolve to no-boundary.
    """
    k = len(boundary_sets)
    if k < 1:
        raise ValueError("need at least one input")
    votes = np.zeros(n_chars + 1, np.int64)
    for bs in boundary_sets:
        b = bs if isinstance(bs, np.ndarray) else np.fromiter(bs, np.int64)
        bad = b[(b <= 0) | (b >= n_chars)]
        if len(bad):
            raise ValueError(
                f"boundary position {bad.min()} outside 1..{n_chars - 1}; "
                "inputs must cover the same character stream")
        votes[b] += 1  # buffered: a repeated position adds one vote
    keep = 2 * votes > k
    keep[np.fromiter(block_edges, np.int64)] = True
    return frozenset(np.flatnonzero(keep).tolist())
