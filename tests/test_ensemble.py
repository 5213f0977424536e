"""Strict-majority boundary voting."""

import itertools
import random
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from incseg.ensemble import majority_vote


def test_single_input_identity():
    s = {1, 3, 5}
    assert majority_vote([s], set(), 10) == frozenset(s)


def test_two_way_tie_is_no_boundary():
    assert majority_vote([{2}, {3}], set(), 5) == frozenset()
    assert majority_vote([{2}, {2}], set(), 5) == frozenset({2})


def test_three_inputs_vote_pattern():
    sets = [{1, 2}, {1}, set()]
    # votes: position 1 -> 2 (> 1.5, kept), position 2 -> 1 (dropped)
    assert majority_vote(sets, set(), 4) == frozenset({1})


def test_block_edges_always_present():
    edges = {4}
    got = majority_vote([{1}, {2}, {3}], edges, 8)
    assert got == frozenset({4})


def test_out_of_range_rejected():
    with pytest.raises(ValueError):
        majority_vote([{5}], set(), 5)
    with pytest.raises(ValueError):
        majority_vote([{0}], set(), 5)
    with pytest.raises(ValueError, match="position 5 outside 1..4"):
        majority_vote([{1, 2}, np.array([2, 5], np.int64)], set(), 5)
    with pytest.raises(ValueError, match="position 5 outside 1..4"):
        majority_vote([{1, 2}], {5}, 5)  # a block edge too


def test_empty_input_list_rejected():
    with pytest.raises(ValueError):
        majority_vote([], set(), 5)


def test_exhaustive_patterns_k_up_to_5():
    # one position, every membership pattern, every k <= 5
    for k in range(1, 6):
        for pattern in itertools.product((0, 1), repeat=k):
            sets = [{1} if bit else set() for bit in pattern]
            got = majority_vote(sets, set(), 3)
            expect = frozenset({1}) if 2 * sum(pattern) > k else frozenset()
            assert got == expect, (k, pattern)


def spell(s, how, rng):
    """The boundary set ``s`` as a set, a sorted int64 array, or a list
    that repeats some positions."""
    if how == "array":
        return np.array(sorted(s), np.int64)
    if how == "list":
        out = sorted(s) + [p for p in s if rng.random() < 0.5]
        rng.shuffle(out)
        return out
    return set(s)


@given(st.integers(0, 9999))
@settings(max_examples=50, deadline=None)
def test_vote_properties(seed):
    rng = random.Random(seed)
    n = rng.randint(3, 30)
    k = rng.randint(1, 5)
    edges = {p for p in range(1, n) if rng.random() < 0.15}
    sets = [{p for p in range(1, n) if rng.random() < 0.4}
            for _ in range(k)]
    given_ = [spell(s, rng.choice(("set", "array", "list")), rng)
              for s in sets]
    out = majority_vote(given_, edges, n)
    assert all(type(p) is int for p in out)  # JSON-dumpable
    votes = Counter(p for s in sets for p in s)
    assert out == frozenset({p for p, v in votes.items() if 2 * v > k}
                            | edges)
    union = set().union(*sets)
    inter = set(sets[0]).intersection(*sets[1:])
    assert out <= union | edges
    assert inter | edges <= out
    # permutation invariance
    shuffled = given_[:]
    rng.shuffle(shuffled)
    assert majority_vote(shuffled, edges, n) == out
    # unanimous inputs are returned unchanged, with the edges
    assert (majority_vote([given_[0]] * k, edges, n)
            == frozenset(sets[0]) | edges)
