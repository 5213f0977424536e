"""Token/boundary/lexicon scoring and Spearman rank correlation."""

import itertools
import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from incseg.metrics import (boundary_prf, correlation_report,
                            evaluate_segmentation, fractional_ranks,
                            spearman_rho)

from conftest import make_corpus
from fixtures_metrics import CASES
from oracles import definition_spearman as _definition_spearman
from oracles import oracle_prf, reference_rho, reference_ranks


@pytest.mark.parametrize("case", range(len(CASES)))
def test_fixture_table(case, tmp_path):
    text, hyp, expected = CASES[case]
    corpus, gold = make_corpus(text, tmp_path=tmp_path)
    hyp = set(hyp) | set(corpus.block_edges().tolist())
    report = evaluate_segmentation(corpus, gold, hyp)
    for level, prf in (("token", report.token), ("boundary", report.boundary),
                       ("lexicon", report.lexicon)):
        ep, er, ef = expected[level]
        assert prf.p == pytest.approx(ep, abs=1e-9), (case, level, "P")
        assert prf.r == pytest.approx(er, abs=1e-9), (case, level, "R")
        assert prf.f == pytest.approx(ef, abs=1e-9), (case, level, "F")
    assert report.boundary.degenerate == expected["boundary_degenerate"]


def test_identical_sets_are_perfect(tmp_path):
    corpus, gold = make_corpus("this is fine\nso is this\n",
                               tmp_path=tmp_path)
    rep = evaluate_segmentation(corpus, gold, gold.boundaries)
    assert rep.token.f == rep.boundary.f == rep.lexicon.f == 100.0


def test_all_levels_100_iff_boundaries_identical(tmp_path):
    # "aaaaa" as a|aa|aa shares the type set of gold aa|aa|a but no spans
    corpus, gold = make_corpus("aa aa a\n", tmp_path=tmp_path)
    rep = evaluate_segmentation(corpus, gold, {1, 3})
    assert rep.lexicon.f == 100.0
    assert rep.token.f == 0.0 and rep.boundary.f == 0.0


def test_boundary_symmetry(tmp_path):
    corpus, gold = make_corpus("ab c de\n", tmp_path=tmp_path)
    with pytest.raises(ValueError, match="position 5 outside 1..4"):
        corpus.word_starts({1, 2, 5})  # 5 = n_chars is no boundary
    hyp = corpus.word_starts({1, 2})
    ref = corpus.word_starts(gold.boundaries)
    fwd = boundary_prf(hyp, ref, corpus.offsets)
    rev = boundary_prf(ref, hyp, corpus.offsets)
    assert fwd.p == rev.r and fwd.r == rev.p and fwd.f == rev.f


def test_out_of_range_boundary_rejected(tmp_path):
    corpus, gold = make_corpus("ab cd\n", tmp_path=tmp_path)
    with pytest.raises(ValueError, match="position 4 outside 1..3"):
        evaluate_segmentation(corpus, gold, {4})
    _, other = make_corpus("abc de\n")
    with pytest.raises(ValueError, match="disagree on character count"):
        evaluate_segmentation(corpus, other, {2})


def test_correct_count_bounded(tmp_path):
    corpus, gold = make_corpus("ab cd ef\n", tmp_path=tmp_path)
    rep = evaluate_segmentation(corpus, gold, {2, 3})
    n_hyp, n_gold = 3, 3
    correct = rep.token.p / 100 * n_hyp
    assert correct <= min(n_hyp, n_gold)


_GOLD_BLOCKS = st.lists(st.lists(st.text("ab", min_size=1, max_size=3),
                                 min_size=1, max_size=5),
                        min_size=1, max_size=5)


@given(_GOLD_BLOCKS, st.booleans(),
       st.sampled_from(["none", "every", "reversed", "random"]), st.data())
@settings(max_examples=200, deadline=None)
def test_all_levels_match_set_oracle_exactly(blocks, one_word, kind, data):
    # one_word leaves gold without an internal boundary; "reversed" cuts
    # each block at its gold word lengths in reverse order, so gold types
    # recur at other positions
    if one_word:
        blocks = [["".join(b)] for b in blocks]
    corpus, gold = make_corpus("".join(" ".join(b) + "\n" for b in blocks))
    n = corpus.n_chars
    if kind == "none":
        hyp = set()
    elif kind == "every":
        hyp = set(range(1, n))
    elif kind == "reversed":
        ends = itertools.accumulate(len(w) for b in blocks for w in b[::-1])
        hyp = set(ends) - {n}
    else:
        hyp = data.draw(st.sets(st.integers(1, max(n - 1, 1)))) - {n}
    report = evaluate_segmentation(corpus, gold, hyp)
    assert report.as_dict() == oracle_prf(corpus, gold, hyp)


# -- spearman ---------------------------------------------------------------


def test_spearman_identity_and_reverse():
    xs = [3.0, 1.0, 4.0, 1.5, 9.0]
    assert spearman_rho(xs, xs) == pytest.approx(1.0)
    ys = [-x for x in xs]
    assert spearman_rho(xs, ys) == pytest.approx(-1.0)


def test_spearman_hand_value():
    assert spearman_rho([1, 2, 3], [3, 1, 2]) == pytest.approx(-0.5)


def test_spearman_zero_variance_is_nan():
    assert math.isnan(spearman_rho([1, 1, 1], [1, 2, 3]))
    assert math.isnan(spearman_rho([1, 2, 3], [5, 5, 5]))


def test_spearman_validates_input():
    with pytest.raises(ValueError):
        spearman_rho([1, 2], [1, 2, 3])
    with pytest.raises(ValueError):
        spearman_rho([1], [2])


def test_fractional_ranks_average_ties():
    assert list(fractional_ranks([10, 20, 20, 30])) == [1.0, 2.5, 2.5, 4.0]
    # each NaN ranks alone, after +inf, in input order
    got = fractional_ranks([math.nan, 1, math.inf, math.nan, -math.inf, 1,
                            math.inf])
    assert got.tolist() == [6.0, 2.5, 4.5, 7.0, 1.0, 2.5, 4.5]
    assert fractional_ranks([]).tolist() == []


# few distinct values, so that ties, infinities and NaNs recur
_RANKED = st.one_of(st.sampled_from([0.0, -0.0, 1.0, 2.5, math.inf,
                                     -math.inf, math.nan]),
                    st.floats(allow_nan=True, allow_infinity=True))


@given(st.integers(2, 30), st.data())
@settings(max_examples=300, deadline=None)
def test_ranks_and_correlation_report_match_reference(n, data):
    column = st.lists(_RANKED, min_size=n, max_size=n)
    fs = data.draw(column)
    cols = {"mdl2": data.draw(column), "aic1": data.draw(column)}
    for v in (fs, *cols.values()):
        assert fractional_ranks(v).tolist() == reference_ranks(v).tolist()
    rows = [{"token_f": f, **{c: v[i] for c, v in cols.items()}}
            for i, f in enumerate(fs)]
    rep = correlation_report(rows, list(cols))
    for c, v in cols.items():
        assert repr(rep.rho[c]) == repr(reference_rho(v, fs))
        want = [(float(r), f) for r, f in zip(reference_ranks(v), fs)]
        assert repr(rep.scatter[c]) == repr(want)




def test_spearman_matches_definition_on_random_vectors():
    rng = random.Random(42)
    for trial in range(100):
        n = rng.randint(2, 60)
        xs = [rng.choice([rng.random(), round(rng.random(), 1)])
              for _ in range(n)]
        ys = [rng.choice([rng.random(), round(rng.random(), 1)])
              for _ in range(n)]
        got = spearman_rho(xs, ys)
        want = _definition_spearman(xs, ys)
        if math.isnan(want):
            assert math.isnan(got)
        else:
            assert got == pytest.approx(want, abs=1e-12)


def test_spearman_matches_scipy():
    scipy_stats = pytest.importorskip("scipy.stats")
    rng = random.Random(3)
    for _ in range(20):
        n = rng.randint(3, 50)
        xs = [rng.random() for _ in range(n)]
        ys = [rng.random() for _ in range(n)]
        want = scipy_stats.spearmanr(xs, ys).correlation
        assert spearman_rho(xs, ys) == pytest.approx(want, abs=1e-12)


# integer inputs keep the transforms strictly monotone in float arithmetic
@given(st.lists(st.integers(-10**6, 10**6), min_size=2, max_size=40),
       st.floats(0.1, 5.0))
@settings(max_examples=60, deadline=None)
def test_spearman_invariant_under_monotone_transform(xs, scale):
    ys = [x * 0.5 - 3 for x in xs]
    base = spearman_rho(xs, ys)
    squashed = spearman_rho([scale * x for x in xs],
                            [math.atan(y) for y in ys])
    if math.isnan(base):
        assert math.isnan(squashed)
    else:
        assert squashed == pytest.approx(base, abs=1e-9)


def test_correlation_report_layout():
    rows = [{"token_f": 10.0 * i, "mdl2": 100.0 - i, "aic1": 50.0 + i}
            for i in range(8)]
    rep = correlation_report(rows, ["mdl2", "aic1"], population="outputs")
    assert rep.n == 8
    assert rep.rho["mdl2"] == pytest.approx(-1.0)
    assert rep.rho["aic1"] == pytest.approx(1.0)
    assert len(rep.scatter["mdl2"]) == 8
    ranks = [r for r, _ in rep.scatter["mdl2"]]
    assert sorted(ranks) == list(np.arange(1.0, 9.0))
