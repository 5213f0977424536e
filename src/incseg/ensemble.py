"""Majority-vote combination of segmentation outputs."""

from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np

from .corpus import positions


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
    votes = np.zeros(n_chars, np.int64)
    for bs in boundary_sets:
        votes[positions(bs, n_chars)] += 1  # a repeated position adds one
    keep = 2 * votes > k
    keep[positions(block_edges, n_chars)] = True
    return frozenset(np.flatnonzero(keep).tolist())
