"""Learner scoring, stepping, stopping, and determinism."""

import json
import math
import random
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from incseg.learner import (PENALTY_KINDS, LearnerOptions, PenaltyParams,
                            _cost_table, init_state, penalized_likelihood,
                            penalty, run, step, write_trace)
from incseg.lexmodel import init_from_corpus, live_words

from conftest import (benchmark_corpus, make_corpus, random_gold_text,
                      toy_text)
from oracles import (apply_compression, boundaries, check_objective,
                     count_occurrences, full_scores, id_of, length_cost,
                     ngram_stats, score_of, verify_sequence)


def state_for(text, params=None, options=None):
    corpus, gold = make_corpus(text)
    return corpus, init_state(corpus, params or PenaltyParams(),
                              options or LearnerOptions())


def ids(corpus, s):
    return tuple(corpus.chars.index(c) for c in s)


def table_m(state, t):
    """The greedy count the scorer uses: the index's only copy."""
    return int(state.index.m[id_of(state.index, t)])


def live_tuples(state):
    index = state.index
    return {index.tuple_of(i) for i in range(index.size)} - {None}


# -- penalty -----------------------------------------------------------


def test_penalty_all_length_one():
    corpus, _ = make_corpus("ab ba\n")
    seq, _ = init_from_corpus(corpus)
    #|T| tokens of length 1: x log x vanishes, intercept remains
    assert penalty(seq, PenaltyParams(1.0, 7.0, "xlogx")) == pytest.approx(
        -1.0 * seq.total)


def test_penalty_xsquared_single_token():
    corpus, _ = make_corpus("ab\n")
    seq, lex = init_from_corpus(corpus)
    apply_compression(seq, lex, ids(corpus, "ab"))
    assert penalty(seq, PenaltyParams(0.0, 1.0, "xsquared")) == pytest.approx(4.0)


def test_penalty_mixed_lengths():
    # T = [ab, c]: -0.5 per token plus 2 ln 2 for the length-2 token
    corpus, _ = make_corpus("abc\n")
    seq, lex = init_from_corpus(corpus)
    apply_compression(seq, lex, ids(corpus, "ab"))
    got = penalty(seq, PenaltyParams(0.5, 1.0, "xlogx"))
    assert got == pytest.approx(-1.0 + 2 * math.log(2), abs=1e-12)


def test_penalty_params_validated():
    with pytest.raises(ValueError):
        PenaltyParams(-0.1, 0.0)
    with pytest.raises(ValueError):
        PenaltyParams(0.0, float("nan"))
    with pytest.raises(ValueError):
        PenaltyParams(kind="cubic")


def test_learner_options_validated():
    for bad in (0, -5):
        with pytest.raises(ValueError):
            LearnerOptions(trace_interval=bad)
    assert LearnerOptions(trace_interval=1).trace_interval == 1
    with pytest.raises(ValueError, match="trace_mode must be"):
        LearnerOptions(trace_mode="x")
    with pytest.raises(ValueError, match="complexity_sign must be"):
        LearnerOptions(complexity_sign=0)


@given(st.integers(1, 40), st.integers(1, 40))
def test_super_additivity(x, y):
    for kind in ("xlogx", "xsquared"):
        g = length_cost(kind)
        assert g(x + y) >= g(x) + g(y)
        if max(x, y) >= 2:
            assert g(x + y) > g(x) + g(y)


# -- penalized likelihood ----------------------------------------------


def test_objective_abab():
    corpus, state = state_for("abab\n")
    expect = 4 * math.log(2) + math.log(4)
    assert state.objective == pytest.approx(expect, abs=1e-12)


def test_objective_degenerate_distribution():
    corpus, _ = make_corpus("aaaa\n")
    seq, _ = init_from_corpus(corpus)
    got = penalized_likelihood(seq, PenaltyParams(0.3, 2.0))
    # ML term is 0; one type; intercept is -0.3 per token
    assert got == pytest.approx(0.5 * math.log(4) - 0.3 * 4, abs=1e-12)


def test_zero_penalty_reduces_to_pure_objective():
    corpus, _ = make_corpus("abcab\n")
    seq, _ = init_from_corpus(corpus)
    base = penalized_likelihood(seq, PenaltyParams())
    with_pen = penalized_likelihood(seq, PenaltyParams(1.0, 1.0))
    assert with_pen != base
    assert penalty(seq, PenaltyParams()) == 0.0


def test_literal_sign_flips_complexity_term():
    corpus, _ = make_corpus("abab\n")
    seq, _ = init_from_corpus(corpus)
    plus = penalized_likelihood(seq, PenaltyParams(), complexity_sign=1)
    minus = penalized_likelihood(seq, PenaltyParams(), complexity_sign=-1)
    assert plus - minus == pytest.approx(2 * 0.5 * 2 * math.log(4))


# -- candidate scoring ---------------------------------------------------


def test_score_candidate_abab():
    corpus, state = state_for("abab\n")
    got = score_of(state, ids(corpus, "ab"))
    assert got == pytest.approx(-5 * math.log(2), abs=1e-12)


def test_score_candidate_type_bookkeeping():
    # unique components vanish: type count change = 1 - |components dying|
    corpus, state = state_for("xy\nxy\nz\n")
    x, y = ids(corpus, "xy")
    delta = score_of(state, (x, y))
    seq = state.seq
    m, total, n = 2, seq.total, seq.n_chars
    nll_now = -2 * math.log(2 / total) * 2 - math.log(1 / total)
    nll_after = -2 * math.log(2 / 3) - math.log(1 / 3)
    d_types = 1 - 2
    expect = (nll_after - nll_now) + 0.5 * d_types * math.log(n)
    assert delta == pytest.approx(expect, abs=1e-9)


def delta_oracle(corpus, state, t):
    """Full-recompute change for compressing t, on a throwaway copy."""
    seq2, lex2 = init_from_corpus(corpus)
    # replay history
    for tid in range(len(corpus.chars), len(state.lex.entries)):
        apply_compression(seq2, lex2, state.lex.entries[tid].components)
    before = penalized_likelihood(seq2, state.params,
                                  state.options.complexity_sign)
    apply_compression(seq2, lex2, t)
    after = penalized_likelihood(seq2, state.params,
                                 state.options.complexity_sign)
    return after - before


@given(st.integers(0, 10_000))
@settings(max_examples=25, deadline=None)
def test_incremental_delta_matches_oracle(seed):
    rng = random.Random(seed)
    text = random_gold_text(rng, rng.randint(30, 300), rng.randint(2, 8))
    corpus, _ = make_corpus(text)
    params = PenaltyParams(round(rng.uniform(0, 2), 2),
                           round(rng.uniform(0, 2), 2),
                           rng.choice(("xlogx", "xsquared")))
    state = init_state(corpus, params, LearnerOptions(n_max=rng.choice((2, 3))))
    for _ in range(5):
        live = sorted(live_tuples(state))
        if not live:
            break
        t = rng.choice(live)
        incremental = score_of(state, t)
        assert incremental == pytest.approx(delta_oracle(corpus, state, t),
                                            abs=1e-9)
        ev = step(state)
        if ev is None:
            break


# -- stepping ------------------------------------------------------------


def test_step_applies_minimizer_and_updates_objective():
    corpus, state = state_for("abab\n")
    ev = step(state)
    assert ev.token == ids(corpus, "ab")
    assert ev.occurrences == 2
    assert ev.delta == pytest.approx(-5 * math.log(2))
    check_objective(state)
    assert step(state) is None  # merging the rest would not improve


def test_step_stops_when_no_candidate_improves():
    # alpha raises the bar: delta = -5 ln 2 + 2 alpha >= 0 at alpha >= 2.5 ln 2
    corpus, state = state_for("abab\n",
                              PenaltyParams(2.5 * math.log(2) + 0.01, 0.0))
    assert step(state) is None
    assert state.iteration == 0
    corpus, state = state_for("abab\n",
                              PenaltyParams(2.5 * math.log(2) - 0.01, 0.0))
    assert step(state) is not None


def test_step_no_candidates_single_chars():
    corpus, state = state_for("a\nb\nc\n")
    assert step(state) is None


def test_step_is_deterministic_under_ties():
    # two disjoint pair types with identical statistics: earliest position wins
    corpus, state = state_for("abab\ncdcd\n")
    ev = step(state)
    assert ev.token == ids(corpus, "ab")
    ev2 = step(state)
    assert ev2.token == ids(corpus, "cd")


@pytest.mark.parametrize("kind", PENALTY_KINDS)
@pytest.mark.parametrize("n_max", [2, 3, 4])
def test_run_objective_strictly_decreasing(n_max, kind):
    corpus, gold = make_corpus(toy_text(60, seed=3))
    state = init_state(corpus, PenaltyParams(0.2, 0.2, kind),
                       LearnerOptions(n_max=n_max))
    last = state.objective
    while True:
        ev = step(state)
        if ev is None:
            break
        check_objective(state)
        assert ev.delta < 0
        assert ev.objective < last
        last = ev.objective
    verify_sequence(state.seq, state.lex, corpus)


def test_run_terminates_within_n_iterations():
    corpus, _ = make_corpus(toy_text(40, seed=4))
    result = run(corpus, PenaltyParams())
    assert result.iterations <= corpus.n_chars
    assert result.stopped == "converged"


def test_run_determinism():
    text = toy_text(80, seed=6)
    corpus1, _ = make_corpus(text)
    corpus2, _ = make_corpus(text)
    r1 = run(corpus1, PenaltyParams(0.1, 0.4))
    r2 = run(corpus2, PenaltyParams(0.1, 0.4))
    assert r1.hypothesis.boundaries == r2.hypothesis.boundaries
    assert r1.objective == r2.objective
    assert [t.objective for t in r1.trace] == [t.objective for t in r2.trace]


def test_run_stop_at_and_cap_flags():
    corpus, _ = make_corpus(toy_text(80, seed=7))
    full = run(corpus, PenaltyParams())
    assert full.iterations > 2
    early = run(corpus, PenaltyParams(), LearnerOptions(stop_at=2))
    assert early.iterations == 2 and early.stopped == "stop_at"


def test_run_single_char_corpus():
    corpus, _ = make_corpus("a\n")
    result = run(corpus, PenaltyParams())
    assert result.iterations == 0
    assert result.stopped == "converged"
    assert result.hypothesis.boundaries == frozenset()


def test_all_distinct_characters_no_crash():
    corpus, _ = make_corpus("abcdefg\n")
    result = run(corpus, PenaltyParams(5.0, 5.0))
    assert result.iterations == 0


def test_paper_literal_stop():
    corpus, _ = make_corpus("abab\n")
    result = run(corpus, PenaltyParams(),
                 LearnerOptions(literal_stop=True))
    # an improving candidate exists immediately, so the literal rule stops
    assert result.iterations == 0
    assert result.hypothesis.boundaries == frozenset({1, 2, 3})


def test_hypothesis_boundaries_match_final_tokens():
    corpus, _ = make_corpus("abab abab\n")
    result = run(corpus, PenaltyParams())
    seq = result.hypothesis.seq
    assert result.hypothesis.boundaries == frozenset(boundaries(seq))


@given(st.integers(0, 10_000), st.integers(2, 4))
@settings(max_examples=25, deadline=None)
def test_hypothesis_exports_live_words(seed, n_max):
    """A run hands back its live word starts and surface ids as int64
    arrays, and ``boundaries`` as a frozenset of ints the benchmark can
    JSON-dump."""
    rng = random.Random(seed)
    text = random_gold_text(rng, rng.randint(20, 200), rng.randint(2, 6))
    corpus, _ = make_corpus(text)
    hyp = run(corpus, PenaltyParams(),
              LearnerOptions(n_max=n_max, trace_mode="none")).hypothesis
    assert hyp.starts.tolist() == np.flatnonzero(hyp.seq.tok >= 0).tolist()
    assert hyp.ids.tolist() == live_words(hyp.seq, hyp.lexicon)[1].tolist()
    assert hyp.starts.dtype == hyp.ids.dtype == np.int64
    bounds = hyp.boundaries
    assert type(bounds) is frozenset
    assert all(type(b) is int for b in bounds)
    assert bounds == set(hyp.starts[1:].tolist())
    assert json.loads(json.dumps(sorted(bounds))) == sorted(bounds)


def test_trace_records_every_interval():
    corpus, gold = make_corpus(toy_text(100, seed=8))
    result = run(corpus, PenaltyParams(),
                 LearnerOptions(trace_interval=2, trace_mode="light"))
    iters = [t.iteration for t in result.trace]
    assert iters == sorted(iters)
    assert iters[-1] == result.iterations
    expected = [i for i in range(2, result.iterations + 1, 2)]
    if result.iterations % 2:
        expected.append(result.iterations)
    assert iters == expected


def test_trace_criteria_mode_carries_scores(toy_corpus):
    corpus, gold = toy_corpus
    result = run(corpus, PenaltyParams(0.2, 0.2),
                 LearnerOptions(trace_interval=3, trace_mode="criteria"),
                 gold=gold)
    assert result.trace
    for rec in result.trace:
        assert set(rec.criteria) == {"aic1", "aic2", "aic3",
                                     "mdl1", "mdl2", "mdl3"}
        assert rec.token_f is not None


def test_final_state_takes_its_live_words_once(monkeypatch):
    # the closing criteria record and the exported hypothesis share them
    import incseg.learner as learner_mod
    corpus, gold = make_corpus(toy_text(80, seed=8))
    calls = []

    def counted(seq, lex):
        calls.append(seq.total)
        return live_words(seq, lex)

    monkeypatch.setattr(learner_mod, "live_words", counted)
    result = run(corpus, PenaltyParams(),
                 LearnerOptions(stop_at=30, trace_interval=1000,
                                trace_mode="criteria"), gold=gold)
    assert result.iterations == 30 and len(result.trace) == 1
    assert result.trace[0].criteria is not None
    assert calls == [result.trace[0].n_tokens]


def test_trace_snapshots_are_int64_arrays_written_as_ints(tmp_path):
    corpus, _ = make_corpus(toy_text(60, seed=8))
    result = run(corpus, PenaltyParams(),
                 LearnerOptions(trace_interval=3, trace_boundaries=True))
    path = tmp_path / "trace.jsonl"
    write_trace(result.trace, path)
    rows = [json.loads(line) for line in path.read_text().splitlines()]
    assert len(rows) == len(result.trace) > 1
    for rec, row in zip(result.trace, rows):
        assert rec.boundaries.dtype == np.int64
        # json.dumps refuses an np.int64, so the file was written from ints
        snap = json.loads(Path(row["boundary_snapshot"]).read_text())
        assert snap == sorted(snap) == rec.boundaries.tolist()
    assert snap == sorted(result.hypothesis.boundaries)


def test_eq3_literal_sign_changes_behavior():
    corpus, _ = make_corpus(toy_text(40, seed=9))
    default = run(corpus, PenaltyParams())
    literal = run(corpus, PenaltyParams(),
                  LearnerOptions(complexity_sign=-1))
    # literal sign rewards vocabulary growth, so it must merge at least as much
    assert literal.iterations >= default.iterations


def oracle_delta_on_copy(state, t):
    """Score a candidate by full recomputation on a deep copy of the state."""
    import copy
    seq2 = copy.deepcopy(state.seq)
    lex2 = copy.deepcopy(state.lex)
    sign = state.options.complexity_sign
    before = penalized_likelihood(seq2, state.params, sign)
    apply_compression(seq2, lex2, t)
    return penalized_likelihood(seq2, state.params, sign) - before


@given(st.integers(0, 10_000))
@settings(max_examples=12, deadline=None)
def test_selected_candidate_is_global_minimum(seed):
    """Each step's pick must match an exhaustive scan at every iteration."""
    rng = random.Random(seed)
    text = random_gold_text(rng, rng.randint(40, 160), rng.randint(2, 6),
                            n_types=rng.randint(3, 10))
    corpus, _ = make_corpus(text)
    params = PenaltyParams(round(rng.uniform(0, 0.4), 2),
                           round(rng.uniform(0, 0.4), 2),
                           rng.choice(("xlogx", "xsquared")))
    n_max = rng.choice((2, 3))
    state = init_state(corpus, params, LearnerOptions(n_max=n_max))
    while True:
        # candidate universe must be exactly the within-block n-grams
        universe = set()
        for n in range(2, n_max + 1):
            universe.update(ngram_stats(state.seq, n).counts)
        assert live_tuples(state) == universe
        for t in universe:
            assert table_m(state, t) == count_occurrences(state.seq, t)
        floor = (min(oracle_delta_on_copy(state, t) for t in universe)
                 if universe else None)
        ev = step(state)
        if ev is None:
            if floor is not None:
                assert floor >= -1e-9  # nothing improving was left behind
            break
        assert ev.delta <= floor + 1e-9, (ev.token, ev.delta, floor)


def scalar_score(state, t):
    """Reference loop for one candidate's score, term by term as the
    vectorized table adds them: local part, then (X(after) - X(total))."""
    def xlx(x):
        return x * math.log(x) if x > 0 else 0.0
    counts, m = state.seq.counts, table_m(state, t)
    acc = 0.0
    d_types = 1
    for w, r in Counter(t).items():
        c2 = counts[w] - m * r
        acc += xlx(c2) - xlx(counts[w])
        if c2 == 0:
            d_types -= 1
    out = (-acc - xlx(m)
           + state.options.complexity_sign * 0.5 * d_types
           * math.log(state.seq.n_chars))
    p = state.params
    if p.alpha:
        out += p.alpha * m * (len(t) - 1)
    if p.beta:
        g = length_cost(p.kind)
        lengths = state.seq.lengths
        parts = 0.0
        for w in t:
            parts += g(lengths[w])
        out += p.beta * m * (g(sum(lengths[w] for w in t)) - parts)
    total = state.seq.total
    return out + (xlx(total - m * (len(t) - 1)) - xlx(total))


@given(st.integers(0, 10_000), st.integers(2, 4))
@settings(max_examples=25, deadline=None)
def test_step_takes_exact_tie_broken_minimum(seed, n_max):
    """At every step the applied candidate is the exact minimum of
    (score, -m, first position, tuple) over all live candidates, and every
    score equals the scalar reference bit for bit, beta = 0 included, in a
    third of the examples, where the state skips the beta column."""
    rng = random.Random(seed)
    text = random_gold_text(rng, rng.randint(30, 160), rng.randint(2, 5),
                            n_types=rng.randint(3, 12))
    corpus, _ = make_corpus(text)
    alpha, beta = (round(rng.uniform(0, 0.4), 2) for _ in range(2))
    params = PenaltyParams(alpha, 0.0 if seed % 3 == 0 else beta,
                           rng.choice(("xlogx", "xsquared")))
    state = init_state(corpus, params, LearnerOptions(n_max=n_max))
    index = state.index
    while True:
        keyed = []
        scores = state._scores()
        for i in range(index.size):
            t = index.tuple_of(i)
            if t is None:
                assert scores[i] == math.inf, i
                continue
            score, m = float(scores[i]), int(index.m[i])
            assert score == scalar_score(state, t), t
            assert m == count_occurrences(state.seq, t), t
            keyed.append((score, -m, index.first_position(i), t))
        best = min(keyed, default=None)
        ev = step(state)
        if ev is None:
            assert best is None or best[0] >= 0
            break
        assert (ev.delta, -ev.occurrences, ev.token) == (
            best[0], best[1], best[3])


RUN_WORDS = ("aaaa", "abab", "aabaab", "aab", "bababa", "aaaaaa", "ccc",
             "cdcd")


@given(st.integers(0, 10_000), st.integers(2, 4), st.booleans(),
       st.booleans(), st.sampled_from(PENALTY_KINDS))
@settings(max_examples=40, deadline=None)
def test_cached_scores_equal_a_full_rescoring(seed, n_max, runs, penalized,
                                              kind):
    """After init and after every step, the table ``_scores`` builds from
    its cached parts equals the formula over every id bit for bit, on
    random corpora and on runs of self-overlapping n-grams, with and
    without a penalty; a second call with no merge between gives it
    again."""
    rng = random.Random(seed)
    if runs:
        text = "".join(" ".join(rng.choices(RUN_WORDS, k=rng.randint(1, 5)))
                       + "\n" for _ in range(rng.randint(3, 15)))
    else:
        text = random_gold_text(rng, rng.randint(30, 160), rng.randint(2, 5),
                                n_types=rng.randint(3, 12))
    corpus, _ = make_corpus(text)
    ab = [round(rng.uniform(0.01, 0.4), 2) for _ in range(2)]
    params = PenaltyParams(*ab, kind) if penalized else PenaltyParams()
    state = init_state(corpus, params, LearnerOptions(n_max=n_max))
    while True:
        scores = state._scores()
        assert np.array_equal(scores, full_scores(state)), state.iteration
        assert np.array_equal(state._scores(), scores), state.iteration
        if step(state) is None:
            break


@pytest.mark.parametrize("n_max", [2, 3, 4])
def test_cached_scores_survive_merging_token_zero(n_max):
    """Token 0 also pads every short id's columns: merging it refreshes
    those ids too, and the table still equals a full rescoring."""
    text = "aaaa abab aabaab\naab aaaa bababa\n" * 6 + "aaaaaa ccc cdcd\n"
    corpus, _ = make_corpus(text)
    state = init_state(corpus, PenaltyParams(), LearnerOptions(n_max=n_max))
    merged = set()
    while True:
        assert np.array_equal(state._scores(), full_scores(state))
        ev = step(state)
        if ev is None:
            break
        merged.update(ev.token)
    assert 0 in merged and state.iteration > 3


@pytest.mark.parametrize("kind", PENALTY_KINDS)
def test_beta_zero_state_never_fills_the_beta_column(kind):
    params = PenaltyParams(0.1, 0.0, kind)
    _, state = state_for(toy_text(40, seed=4), params, LearnerOptions(n_max=3))
    while step(state) is not None:
        # each merge still flushes the index's births and frees
        assert len(state.index.consume_dirty()[1]) == 0
    assert state.iteration > 10
    assert state._g is None and len(state._gl) == 0


@pytest.mark.parametrize("kind", PENALTY_KINDS)
def test_cost_table_is_length_cost_bit_for_bit(kind):
    """At the edges of the 4,096-entry slices and at the 78k corpus's
    size, every entry is the float the scalar formula gives."""
    g = length_cost(kind)
    for n in (1, 4095, 4096, 4097, 8193, 77_598):
        want = np.array([0.0, *map(g, range(1, n + 1))])
        assert _cost_table(kind, n).tobytes() == want.tobytes(), n


def test_exact_tie_on_benchmark_corpus_goes_to_first_position(tmp_path):
    """Merge 461 on the 78k benchmark corpus (n_max=2, alpha=beta=0) is an
    exact tie between two m=1 candidates.  The lazy heap this learner once
    used held the earlier candidate under a stale key 1.1e-11 too high and
    applied the later one."""
    corpus, _ = benchmark_corpus(tmp_path / "c.txt", 4000)
    state = init_state(corpus, PenaltyParams(), LearnerOptions(n_max=2))
    for _ in range(460):
        step(state)
    lex = state.lex
    live = {"".join(lex.surface(w) for w in t): t
            for t in live_tuples(state)}
    early, late = live["yutitizewadawasukigoki"], live["kidasu6yuti"]
    for t, first in ((early, 25482), (late, 34639)):
        assert score_of(state, t) == -2.260745752730145
        assert table_m(state, t) == 1
        assert state.index.first_position(id_of(state.index, t)) == first
    ev = step(state)
    assert ev.iteration == 461 and ev.token == early
    assert lex.surface(ev.fresh_id) == "yutitizewadawasukigoki"
