"""Criterion formulas vs hand values and an exhaustive segmentation oracle."""

import math
import random
from collections import Counter
from fractions import Fraction
from itertools import chain, repeat
from math import fsum, log

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from incseg.criteria import (CRITERIA, SegmentedText, codebook_length,
                             evaluate, in_bits, neg_log_likelihood,
                             repeated_fsum)
from incseg.learner import (LearnerOptions, LearnerState, PenaltyParams, run,
                            step)
from incseg.lexmodel import init_from_corpus, live_words

from conftest import benchmark_corpus, make_corpus, random_gold_text
from oracles import (boundaries, char_table, enumerate_segmentations,
                     oracle_criteria, oracle_unigram_scores)


def seg_for(text, boundaries):
    corpus, _ = make_corpus(text)
    return corpus, char_table(corpus, boundaries)


# -- negative log likelihood ---------------------------------------------


def test_nll_unigram_deterministic():
    _, st_ = seg_for("aaaa\n", set())
    assert neg_log_likelihood(st_, 1) == 0.0


def test_nll_bigram_hand_value():
    # [a, b, a, b]: initial unigram cost ln 2; transitions are deterministic
    _, st_ = seg_for("a b a b\n", {1, 2, 3})
    assert neg_log_likelihood(st_, 2) == pytest.approx(math.log(2), abs=1e-12)
    assert neg_log_likelihood(st_, 1) == pytest.approx(4 * math.log(2))


def test_nll_trigram_short_blocks_fall_back():
    # blocks of length 2: no trigram positions; bigram+unigram cover all
    corpus, st_ = seg_for("a b\na b\n", {1, 2, 3})
    assert neg_log_likelihood(st_, 3) == pytest.approx(
        neg_log_likelihood(st_, 2))


def test_nll_invalid_order():
    _, st_ = seg_for("ab\n", set())
    with pytest.raises(ValueError):
        neg_log_likelihood(st_, 4)


def test_nll_bigram_conditionals_are_proper():
    # block-final context occurrences are excluded from the denominator,
    # so deterministic continuations cost zero
    _, st_ = seg_for("x y\nx\n", {1})
    # position 1 of block 1: p(y|x) = 1 since the final x has no successor
    expect = -log(2 / 3) - log(1.0) - log(2 / 3)
    assert neg_log_likelihood(st_, 2) == pytest.approx(expect, abs=1e-12)


# -- complexity ------------------------------------------------------------


def test_aic_complexity_character_inventory():
    _, st_ = seg_for("abcabc\n", {1, 2, 3, 4, 5})
    # C types, all length 1: sum (1+|w|) = 2C, plus C unigrams
    assert evaluate(st_)["aic1"].complexity_k == 3 * 3


def test_aic_complexity_single_composed_type():
    _, st_ = seg_for("ab\n", set())
    assert evaluate(st_)["aic1"].complexity_k == 3 + 1


def test_aic_complexity_no_bigrams():
    _, st_ = seg_for("ab\ncd\n", {2})
    # one-token blocks: no bigrams, k = sum(1+|w|) + 1
    vals = evaluate(st_)
    assert vals["aic2"].complexity_k == (1 + 2) * 2 + 1
    assert vals["aic3"].complexity_k == (1 + 2) * 2 + 1


def test_aic_complexity_counts_types_not_occurrences():
    _, st_ = seg_for("abab\n", {2})
    vals = evaluate(st_)
    assert vals["mdl1"].complexity_k == 1
    assert vals["aic2"].complexity_k == (1 + 2) + 1 + 2 * 1


# -- codebook length --------------------------------------------------------


def test_cbl_single_two_char_entry():
    _, st_ = seg_for("ab\n", set())
    assert codebook_length(st_) == pytest.approx(3 * math.log(3), abs=1e-12)


def test_cbl_single_char_entry():
    _, st_ = seg_for("a\n", set())
    assert codebook_length(st_) == pytest.approx(2 * math.log(2), abs=1e-12)


def test_cbl_ignores_multiplicity():
    _, once = seg_for("ab\n", set())
    _, many = seg_for("ab\nab\nab\n", {2, 4})
    assert codebook_length(once) == codebook_length(many)


# -- AICc / MDL values --------------------------------------------------------------


def test_aicc_pole_is_infinite():
    _, st_ = seg_for("abab\n", {1, 2, 3})
    # N=4, k = 2*2 + 2 = 6 >= N-1
    assert evaluate(st_)["aic1"].value == math.inf


def test_aicc_deterministic_sequence_value():
    _, st_ = seg_for("aaaaaaaaaa\n", set(range(1, 10)))
    cv = evaluate(st_)["aic1"]
    n, k = 10, 3
    assert cv.neg_log_lik == 0.0
    assert cv.value == pytest.approx(n * k / (n - k - 1), abs=1e-12)


def test_mdl_components_reconstruct():
    corpus, _ = make_corpus(random_gold_text(random.Random(1), 200, 6))
    res = run(corpus, PenaltyParams(0.3, 0.3))
    st_ = char_table(corpus, res.hypothesis.boundaries)
    vals = evaluate(st_)
    for n in (1, 2, 3):
        cv = vals[f"mdl{n}"]
        rebuilt = (cv.neg_log_lik + 0.5 * cv.complexity_k *
                   math.log(corpus.n_chars) + cv.extra)
        assert abs(rebuilt - cv.value) <= 1e-9
        av = vals[f"aic{n}"]
        assert av.value == pytest.approx(av.neg_log_lik + av.extra)


def test_mdl_cbl_independent_of_order():
    _, st_ = seg_for("abcabc\n", {3})
    vals = evaluate(st_)
    assert vals["mdl1"].extra == vals["mdl2"].extra == vals["mdl3"].extra


def test_initial_state_cbl_is_character_inventory_cost():
    # character-level segmentation: lexicon = {a, b, c}, coded once each
    corpus, _ = make_corpus("abcabc\n")
    st_ = char_table(corpus, set(range(1, 6)))
    sym = Counter("abc")
    z = sum(sym.values()) + 3  # one end mark per entry
    expect = -fsum(c * log(c / z) for c in sym.values()) - 3 * log(3 / z)
    assert codebook_length(st_) == pytest.approx(expect, abs=1e-12)


def test_nll_doubles_when_corpus_doubles():
    text = "tupa se\nkomi tupa\n"
    corpus1, gold1 = make_corpus(text)
    corpus2, gold2 = make_corpus(text * 2)
    st1 = char_table(corpus1, gold1.boundaries)
    st2 = char_table(corpus2, gold2.boundaries)
    assert neg_log_likelihood(st2, 1) == pytest.approx(
        2 * neg_log_likelihood(st1, 1), abs=1e-9)


def test_evaluate_boundaries_all_six():
    corpus, gold = make_corpus("tupa se\nkomi tupa\n")
    vals = evaluate(char_table(corpus, gold.boundaries))
    assert tuple(vals) == CRITERIA
    assert vals["mdl1"].value > 0


# blocks of one to four words, so orders 2 and 3 often fall back
_BLOCKS = st.lists(st.lists(st.text("abc", min_size=1, max_size=3),
                            min_size=1, max_size=4),
                   min_size=1, max_size=6)


@given(_BLOCKS)
@settings(max_examples=150, deadline=None)
def test_all_six_match_oracle_exactly(blocks):
    corpus, gold = make_corpus("".join(" ".join(b) + "\n" for b in blocks))
    got = _fields(evaluate(char_table(corpus, gold.boundaries)))
    assert tuple(got) == CRITERIA
    assert got == oracle_criteria(corpus, gold.boundaries)


def _fields(vals):
    return {cid: (cv.value, cv.neg_log_lik, cv.complexity_k, cv.extra)
            for cid, cv in vals.items()}


def test_end_mark_is_not_a_character():
    # U+0000 is a character like any other: renaming x to it changes nothing
    scores = []
    for text in ("ax b\na bx\n", "a\x00 b\na b\x00\n"):
        corpus, gold = make_corpus(text)
        scores.append(_fields(evaluate(char_table(corpus, gold.boundaries))))
        assert scores[-1] == oracle_criteria(corpus, gold.boundaries)
    assert scores[0] == scores[1]


@given(_BLOCKS)
@settings(max_examples=50, deadline=None)
def test_renaming_a_character_to_nul_keeps_all_six(blocks):
    text = "".join(" ".join(b) + "\n" for b in blocks)
    scores = []
    for t in (text, text.replace("a", "\x00")):
        corpus, gold = make_corpus(t)
        scores.append(_fields(evaluate(char_table(corpus, gold.boundaries))))
    assert scores[0] == scores[1]


def test_long_words_over_two_symbols_stay_distinct():
    # 65 symbols in base 2 overflow an int64 key, and these two words
    # differ only in their first one
    corpus, gold = make_corpus("a" + "b" * 64 + " " + "b" * 65 + "\n")
    vals = _fields(evaluate(char_table(corpus, gold.boundaries)))
    assert vals == oracle_criteria(corpus, gold.boundaries)
    assert vals["mdl1"][2] == 2


def test_learner_snapshots_match_oracle_exactly(tmp_path):
    # a few hundred benchmark lines fill every length bucket and repeat
    # likelihood terms many times, unlike the tiny hypothesis corpora
    corpus, gold = benchmark_corpus(tmp_path / "c.txt", 300)
    snapshots = [frozenset(), gold.boundaries]
    for ab in (0.0, 0.2, 0.5):
        res = run(corpus, PenaltyParams(ab, ab),
                  LearnerOptions(trace_interval=10, trace_boundaries=True))
        snapshots += [tr.boundaries for tr in res.trace]
    assert len(snapshots) >= 8
    for bounds in snapshots:
        assert (_fields(evaluate(char_table(corpus, bounds)))
                == oracle_criteria(corpus, bounds))


def test_in_bits():
    assert in_bits(math.log(2)) == pytest.approx(1.0)


def merge_at(seq, lex, positions):
    """Merge the tokens at ``positions`` into a new token at this one site."""
    parts = tuple(seq.tok[positions].tolist())
    fresh = lex.define(parts, "".join(lex.surface(w) for w in parts))
    seq.new_token(fresh, sum(seq.lengths[w] for w in parts))
    seq.merge(np.array([positions]), fresh)


def test_surface_canonicalization_merges_duplicate_types():
    # a learner lexicon may reach "abc" by different compositions;
    # criteria must treat them as one type, as the string oracle does
    corpus, _ = make_corpus("abcabc d\n")
    seq, lex = init_from_corpus(corpus)
    merge_at(seq, lex, [0, 1])  # ab
    merge_at(seq, lex, [0, 2])  # (ab)c
    merge_at(seq, lex, [4, 5])  # bc
    merge_at(seq, lex, [3, 4])  # a(bc)
    tok = seq.tok.tolist()
    assert tok[0] != tok[3] and lex.surface(tok[0]) == lex.surface(tok[3])
    bounds = boundaries(seq)
    assert bounds == {3, 6}
    assert char_table(corpus, bounds).type_counts.tolist() == [1, 2]
    assert (_fields(evaluate(char_table(corpus, bounds)))
            == oracle_criteria(corpus, bounds))


# -- the token feed ----------------------------------------------------------


def assert_feeds_agree(corpus, seq, lex):
    """The learner's table of ``seq`` and the boundary table of its live
    positions give the same counts and the same six values."""
    want = char_table(corpus, np.flatnonzero(seq.tok >= 0)[1:])
    assert_tables_agree(SegmentedText(corpus, *live_words(seq, lex)), want)


def assert_tables_agree(got, want):
    assert (got.total, got.k) == (want.total, want.k)
    assert sorted(got.type_counts.tolist()) == sorted(
        want.type_counts.tolist())
    assert evaluate(got) == evaluate(want)


def assert_every_snapshot_agrees(corpus, state):
    assert_feeds_agree(corpus, state.seq, state.lex)
    while step(state) is not None:
        assert_feeds_agree(corpus, state.seq, state.lex)


@given(st.integers(0, 100_000), st.integers(2, 4))
@settings(max_examples=40, deadline=None)
def test_token_feed_matches_boundary_feed_at_every_snapshot(seed, n_max):
    rng = random.Random(seed)
    text = random_gold_text(rng, rng.randint(30, 200), rng.randint(2, 4))
    corpus, _ = make_corpus(text)
    params = PenaltyParams(rng.choice((0.0, 0.1)), rng.choice((0.0, 0.1)),
                           rng.choice(("xlogx", "xsquared")))
    # the literal sign rewards types, so most runs merge dozens of times
    options = LearnerOptions(n_max=n_max, complexity_sign=rng.choice((1, -1)))
    assert_every_snapshot_agrees(corpus, LearnerState(
        *init_from_corpus(corpus), params, options))


@pytest.mark.parametrize("n_max", [2, 3, 4])
def test_token_feed_types_two_compositions_as_one(n_max):
    # "abc" as (ab)c and as a(bc), live side by side, then a learner run on
    corpus, _ = make_corpus("abcabc d\nabc abcd\nd abc\n")
    seq, lex = init_from_corpus(corpus)
    merge_at(seq, lex, [0, 1])  # ab
    merge_at(seq, lex, [0, 2])  # (ab)c
    merge_at(seq, lex, [4, 5])  # bc
    merge_at(seq, lex, [3, 4])  # a(bc)
    tok = seq.tok.tolist()
    assert tok[0] != tok[3] and lex.type_of[tok[0]] == lex.type_of[tok[3]]
    assert_every_snapshot_agrees(corpus, LearnerState(
        seq, lex, PenaltyParams(), LearnerOptions(n_max=n_max)))


@given(_BLOCKS, st.data())
@settings(max_examples=100, deadline=None)
def test_sparse_reversed_ids_give_the_dense_table(blocks, data):
    # the dense character ids mapped injectively to ints with gaps, the
    # first type to the largest
    corpus, gold = make_corpus("".join(" ".join(b) + "\n" for b in blocks))
    starts = corpus.word_starts(gold.boundaries)
    dense = corpus.type_words(starts, np.diff(starts, append=corpus.n_chars))
    n_types = int(dense.max()) + 1
    gaps = data.draw(st.lists(st.integers(1, 40), min_size=n_types,
                              max_size=n_types))
    sparse = np.cumsum(gaps)[::-1][dense]
    assert_tables_agree(SegmentedText(corpus, starts, sparse),
                        SegmentedText(corpus, starts, dense))


# -- the exact repeated sum --------------------------------------------------


def _random_terms(rng, k):
    """Likelihood-like terms, some of them 0.0."""
    return [rng.choice((0.0, -log(rng.random()), rng.uniform(0, 40)))
            for _ in range(k)]


def test_repeated_fsum_is_fsum_of_the_repeats():
    rng = random.Random(3)
    for _ in range(500):
        terms = _random_terms(rng, rng.randint(1, 8))
        counts = [rng.randint(1, 40) for _ in terms]
        assert repeated_fsum(np.array(terms), np.array(counts)) == fsum(
            chain.from_iterable(map(repeat, terms, counts)))


@pytest.mark.parametrize("big", [2**26 - 1, 2**26, 2**27 + 1, 2**40 + 3])
def test_repeated_fsum_is_exact_for_large_counts(big):
    # each product term * count must be exact: fsum(count * term) is not
    rng = random.Random(big)
    for _ in range(500):
        terms = _random_terms(rng, rng.randint(1, 6))
        counts = [rng.choice((big, rng.randint(1, big))) for _ in terms]
        exact = float(sum(Fraction(t) * m for t, m in zip(terms, counts)))
        assert repeated_fsum(np.array(terms), np.array(counts)) == exact


# -- exhaustive enumerator oracle -------------------------------------------




@given(st.integers(0, 100_000))
@settings(max_examples=25, deadline=None)
def test_enumerator_agrees_on_learner_output(seed):
    rng = random.Random(seed)
    n_chars = rng.randint(3, 11)
    text = random_gold_text(rng, n_chars, rng.randint(2, 4),
                            structured=False)
    corpus, _ = make_corpus(text)
    if corpus.n_chars > 12:
        return
    params = PenaltyParams(round(rng.uniform(0, 1.5), 2),
                           round(rng.uniform(0, 1.5), 2))
    res = run(corpus, params)
    hyp = res.hypothesis.boundaries
    seen = False
    for bounds in enumerate_segmentations(corpus):
        if bounds == hyp:
            seen = True
            vals = evaluate(char_table(corpus, bounds))
            aic_o, mdl_o = oracle_unigram_scores(corpus, bounds)
            assert vals["aic1"].value == aic_o
            assert vals["mdl1"].value == mdl_o
    assert seen, "learner output not among enumerated segmentations"
