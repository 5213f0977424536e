"""Token sequence bookkeeping: greedy counts, compression, n-gram stats."""

import dataclasses
import json
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from incseg import lexmodel
from incseg.cli import main
from incseg.ensemble import majority_vote
from incseg.learner import (LearnerOptions, PenaltyParams,
                            SegmentationHypothesis, init_state, penalty, run)
from incseg.lexmodel import CandidateIndex, init_from_corpus, live_words
from incseg.search import load_boundaries, save_boundaries

from conftest import make_corpus, random_gold_text
from oracles import (_scan_sites, apply_compression, boundaries,
                     count_occurrences, expand, id_of, ngram_stats,
                     verify_index, verify_sequence)


def seq_for(text, tmp_path=None):
    corpus, _ = make_corpus(text, tmp_path=tmp_path)
    seq, lex = init_from_corpus(corpus)
    return corpus, seq, lex


def ids(corpus, s):
    return tuple(corpus.chars.index(c) for c in s)


def test_init_counts():
    corpus, seq, lex = seq_for("abab\n")
    a, b = ids(corpus, "ab")
    assert seq.total == 4
    assert seq.counts[a] == 2 and seq.counts[b] == 2
    assert seq.to_blocks() == [[a, b, a, b]]
    assert lex.surface(a) == "a"


def test_init_single_char():
    _, seq, _ = seq_for("a\n")
    assert seq.total == 1 and seq.n_chars == 1


def test_greedy_count_overlap():
    corpus, seq, _ = seq_for("aaaa\n")
    (a,) = ids(corpus, "a")
    assert count_occurrences(seq, (a, a)) == 2
    corpus, seq, _ = seq_for("aaa\n")
    (a,) = ids(corpus, "a")
    assert count_occurrences(seq, (a, a)) == 1


def test_no_cross_block_candidates():
    corpus, seq, _ = seq_for("ab\nab\n")
    a, b = ids(corpus, "ab")
    assert count_occurrences(seq, (b, a)) == 0
    assert count_occurrences(seq, (a, b)) == 2


def test_count_rejects_unigram():
    corpus, seq, _ = seq_for("ab\n")
    with pytest.raises(ValueError):
        count_occurrences(seq, (0,))


def test_apply_compression_abab():
    corpus, seq, lex = seq_for("abab\n")
    a, b = ids(corpus, "ab")
    delta = apply_compression(seq, lex, (a, b))
    s2 = delta.fresh_id
    assert delta.occurrences == 2
    assert seq.to_blocks() == [[s2, s2]]
    assert seq.counts[s2] == 2 and seq.counts[a] == 0 and seq.counts[b] == 0
    assert seq.total == 2
    assert seq.lengths[s2] == 2
    assert delta.count_changes[a] == (2, 0)
    assert delta.count_changes[s2] == (0, 2)
    assert lex.surface(s2) == "ab"
    verify_sequence(seq, lex, corpus)


def test_apply_compression_partial():
    corpus, seq, lex = seq_for("aab\n")
    a, b = ids(corpus, "ab")
    delta = apply_compression(seq, lex, (a, b))
    s2 = delta.fresh_id
    assert seq.to_blocks() == [[a, s2]]
    assert seq.counts[a] == 1 and seq.counts[s2] == 1
    assert seq.total == 2
    verify_sequence(seq, lex, corpus)


def test_apply_compression_requires_occurrence():
    corpus, seq, lex = seq_for("ab\n")
    a, b = ids(corpus, "ab")
    with pytest.raises(ValueError):
        apply_compression(seq, lex, (b, a))


def test_fresh_id_must_be_dense():
    corpus, seq, lex = seq_for("abab\n")
    a, b = ids(corpus, "ab")
    with pytest.raises(ValueError):
        apply_compression(seq, lex, (a, b), fresh_id=99)


def test_ngram_stats_basics():
    corpus, seq, _ = seq_for("aba\n")
    a, b = ids(corpus, "ab")
    st2 = ngram_stats(seq, 2)
    assert st2.counts == {(a, b): 1, (b, a): 1}
    assert st2.distinct == 2
    assert ngram_stats(seq, 3).counts == {(a, b, a): 1}


def test_ngram_stats_short_block_and_unigram():
    corpus, seq, _ = seq_for("a\nabab\n")
    a, b = ids(corpus, "ab")
    assert ngram_stats(seq, 3).counts == {(a, b, a): 1, (b, a, b): 1}
    st1 = ngram_stats(seq, 1)
    assert st1.counts == {(a,): 3, (b,): 2}
    # no cross-block bigrams: per-block sums are len - 1
    st2 = ngram_stats(seq, 2)
    assert sum(st2.counts.values()) == 0 + 3


def test_expand_composed_chain():
    corpus, seq, lex = seq_for("abcabc\n")
    a, b, c = ids(corpus, "abc")
    d1 = apply_compression(seq, lex, (a, b))
    d2 = apply_compression(seq, lex, (d1.fresh_id, c))
    assert lex.surface(d2.fresh_id) == "abc"
    assert expand(lex, d2.fresh_id) == "abc"
    assert seq.lengths[d2.fresh_id] == 3
    verify_sequence(seq, lex, corpus)


def test_boundary_set_tracks_merges():
    corpus, seq, lex = seq_for("abab\ncd\n")
    a, b = ids(corpus, "ab")
    assert boundaries(seq) == {1, 2, 3, 4, 5}
    apply_compression(seq, lex, (a, b))
    assert boundaries(seq) == {2, 4, 5}


def live_tuples(index):
    return {index.tuple_of(i) for i in range(index.size)} - {None}


def test_index_matches_scan_counts():
    rng = random.Random(5)
    for trial in range(20):
        text = random_gold_text(rng, rng.randint(20, 200), rng.randint(2, 5),
                                structured=False)
        corpus, seq, lex = seq_for(text)
        n_max = rng.randint(2, 4)
        index = CandidateIndex(seq, n_max)
        freed, born = index.consume_dirty()
        assert len(freed) == 0
        for i in born:
            t = index.tuple_of(i)
            assert index.m[i] == count_occurrences(seq, t), (text, t)
            assert id_of(index, t) == i
        # every possible n-gram with an occurrence is indexed and counted
        universe = set()
        for n in range(2, n_max + 1):
            universe.update(ngram_stats(seq, n).counts)
        assert sorted(born) == list(range(index.size))
        assert live_tuples(index) == {index.tuple_of(i) for i in born} \
            == universe
        verify_index(index)


def test_index_stays_exact_under_compressions():
    rng = random.Random(9)
    for trial in range(12):
        text = random_gold_text(rng, rng.randint(30, 250), rng.randint(2, 4),
                                structured=trial % 2 == 0)
        corpus, seq, lex = seq_for(text)
        n_max = rng.randint(2, 3)
        index = CandidateIndex(seq, n_max)
        # the ids a caller knows, kept only from what the flushes report
        known = {i: index.tuple_of(i) for i in index.consume_dirty()[1]}
        for _ in range(12):
            live = sorted(live_tuples(index))
            if not live:
                break
            t = rng.choice(live)
            index.apply(id_of(index, t), lex)
            freed, born = index.consume_dirty()
            for u in freed:
                assert index.tuple_of(u) is None and u not in born
                del known[u]
            known.update((i, index.tuple_of(i)) for i in born)
            verify_sequence(seq, lex, corpus)
            verify_index(index)
            # recount every candidate from scratch
            assert set(known.values()) == live_tuples(index)
            for i, u in known.items():
                assert index.tuple_of(i) == u
                assert index.m[i] == count_occurrences(seq, u)
            for n in range(2, n_max + 1):
                stats = ngram_stats(seq, n)
                live_keys = {k for k in live_tuples(index) if len(k) == n}
                assert live_keys == set(stats.counts)


@given(st.integers(0, 10_000))
@settings(max_examples=30, deadline=None)
def test_conservation_random(seed):
    rng = random.Random(seed)
    text = random_gold_text(rng, 150, rng.randint(2, 6))
    for n_max in (2, 3, 4):
        corpus, seq, lex = seq_for(text)
        index = CandidateIndex(seq, n_max)
        index.consume_dirty()
        n = corpus.n_chars
        for _ in range(6):
            live = sorted(live_tuples(index))
            if not live:
                break
            fresh = index.apply(id_of(index, rng.choice(live)), lex).fresh_id
            # apply re-indexes only the n-grams the merge changed, so every
            # id it creates holds the fresh token
            for i in index.consume_dirty()[1]:
                assert fresh in index.tuple_of(i), (text, n_max, i)
            verify_index(index)
            assert sum(c * seq.lengths[t]
                       for t, c in enumerate(seq.counts)) == n


@pytest.mark.parametrize("text, merged", [("aaaa\nab\n", "aa"),
                                          ("abab abab\nba\n", "ab")])
def test_blocks_and_boundaries_are_json_ints(text, merged, tmp_path):
    # the benchmark JSON-dumps the blocks, the boundaries and the vote
    corpus, _ = make_corpus(text)
    state = init_state(corpus, PenaltyParams(), LearnerOptions(n_max=3))
    state.index.apply(id_of(state.index, ids(corpus, merged)), state.lex)
    blocks = state.seq.to_blocks()
    assert json.loads(json.dumps(blocks)) == blocks
    hyp = SegmentationHypothesis(*live_words(state.seq, state.lex),
                                 state.seq, state.lex)
    bounds = sorted(hyp.boundaries)
    assert bounds == sorted(boundaries(state.seq))
    assert json.loads(json.dumps(bounds)) == bounds
    _, rel = save_boundaries(bounds, tmp_path)
    arr = load_boundaries(tmp_path / rel)
    voted = sorted(majority_vote([arr, arr], corpus.block_edges(),
                                 corpus.n_chars))
    assert voted == bounds
    assert json.loads(json.dumps(voted)) == voted


# runs of one or two letters, so that many n-grams overlap themselves
RUN_UNITS = ("a", "b", "ab", "aab", "ba", "abb")
run_texts = st.lists(
    st.lists(st.tuples(st.sampled_from(RUN_UNITS), st.integers(1, 7)),
             min_size=1, max_size=3),
    min_size=1, max_size=3).map(lambda blocks: "".join(
        " ".join(unit * k for unit, k in block) + "\n" for block in blocks))


@given(run_texts, st.integers(2, 4), st.data())
@settings(max_examples=60, deadline=None)
def test_greedy_counts_and_sites_on_runs(text, n_max, data):
    corpus, seq, lex = seq_for(text)
    index = CandidateIndex(seq, n_max)
    for _ in range(6):
        live = [i for i in range(index.size) if index.order[i]]
        if not live:
            break
        i = data.draw(st.sampled_from(live))
        t = index.tuple_of(i)
        assert index.m[i] == count_occurrences(seq, t), (text, t)
        assert index._sites(i).tolist() == _scan_sites(seq, t), (text, t)
        index.apply(i, lex)
        verify_index(index)


@given(run_texts, st.integers(2, 4), st.sampled_from((0.0, 0.3)))
@settings(max_examples=40, deadline=None)
def test_pool_rebuilt_at_almost_every_birth_changes_no_run(text, n_max, a):
    corpus, _ = make_corpus(text)
    params = PenaltyParams(a, a)
    options = LearnerOptions(n_max=n_max, trace_mode="none")
    plain = run(corpus, params, options)
    apply, rebuild, rebuilds = CandidateIndex.apply, CandidateIndex._rebuild, []

    def checked(self, i, lex):
        out = apply(self, i, lex)
        verify_index(self)
        # a rebuilt pool has no room left, so every later birth rebuilds
        assert not rebuilds or self._fill == len(self._pool)
        return out

    def counted(self):
        rebuilds.append(self._fill)
        rebuild(self)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(lexmodel, "_POOL_SLACK", 1)  # no room beyond the need
        mp.setattr(CandidateIndex, "apply", checked)
        mp.setattr(CandidateIndex, "_rebuild", counted)
        forced = run(corpus, params, options)
    assert (forced.iterations, forced.stopped, repr(forced.objective)) == (
        plain.iterations, plain.stopped, repr(plain.objective))
    assert forced.hypothesis.boundaries == plain.hypothesis.boundaries


def test_settle_recounts_interleaved_self_overlaps_in_one_batch():
    # merging (a, b, c) at n_max 4 changes aa, aaa, aba, bab and five
    # self-overlapping 4-grams just left of the sites; the occurrences they
    # keep interleave in position, clash within each run, and the aba runs
    # of the last two blocks meet at a block edge
    text = "ababab abc\nbababa abc\naaaa abc\naababa\nabab aaa\n"
    corpus, seq, lex = seq_for(text)
    index = CandidateIndex(seq, 4)
    batches = []
    greedy = index._greedy

    def spy(n, ids):
        batches.append((n, {index.tuple_of(i) for i in ids.tolist()}))
        return greedy(n, ids)

    index._greedy = spy
    index.apply(id_of(index, ids(corpus, "abc")), lex)
    aba, bab, aaa, aa = (ids(corpus, s) for s in ("aba", "bab", "aaa", "aa"))
    quads = {ids(corpus, s) for s in ("aaaa", "abaa", "abab", "baab", "baba")}
    # one recount per order; abc does not overlap itself, so its site
    # search reads its pool slice without a greedy pass
    assert batches == [(2, {aa}), (3, {aaa, aba, bab}), (4, quads)]
    for t, m in ((aba, 4), (bab, 4), (aaa, 2), (aa, 4)):
        assert index.m[id_of(index, t)] == count_occurrences(seq, t) == m, t
    verify_index(index)


def test_id_freed_at_a_higher_order_is_reborn_with_zero_padding():
    # ids are reused last freed first, and a merge interns its bigrams
    # before its longer n-grams, so the trigram and 4-gram ids one merge
    # frees come back as lower-order ids in the next
    corpus, seq, lex = seq_for("abcabd abcd bcab\ncabcab dabc\n" * 3)
    index = CandidateIndex(seq, 4)
    born_at = {i: int(index.order[i])  # id -> the order of its last birth
               for i in index.consume_dirty()[1].tolist()}
    reborn = 0
    while (m := index.m[:index.size]).any():
        index.apply(int(np.argmax(m)), lex)
        for i in index.consume_dirty()[1].tolist():
            n = int(index.order[i])
            reborn += born_at.get(i, 0) > n
            born_at[i] = n
            assert not index.comp[n:, i].any(), (i, n)
            assert not index.mult[n:, i].any(), (i, n)
        verify_index(index)
    assert reborn > 0


def test_spare_token_slots_reach_no_reading(tmp_path):
    # counts and lengths grow by doubling, so a run ends with zero slots
    # past the ids in use; cutting them off changes no reading of the
    # sequence, and the lexicon dump lists only the ids in use
    text = "abcabd abcd bcab\ncabcab dabc\n" * 3
    path = tmp_path / "c.txt"
    path.write_text(text, encoding="utf-8")
    corpus, _ = make_corpus(text)
    params = PenaltyParams(0.1, 0.2)
    hyp = run(corpus, params, LearnerOptions(n_max=3)).hypothesis
    seq, used = hyp.seq, len(hyp.lexicon.entries)
    assert used < len(seq.counts) == len(seq.lengths)
    assert not seq.counts[used:].any() and not seq.lengths[used:].any()
    cut = dataclasses.replace(seq, counts=seq.counts[:used],
                              lengths=seq.lengths[:used])
    assert seq.n_types() == cut.n_types()
    assert list(seq.active_items()) == list(cut.active_items())
    assert max(t for t, _ in seq.active_items()) < used
    assert penalty(seq, params) == penalty(cut, params)
    assert seq.to_blocks() == cut.to_blocks()
    assert max(max(b) for b in seq.to_blocks()) < used
    out = tmp_path / "lex.json"
    assert main(["dump-lexicon", str(path), "--nmax", "3", "--alpha", "0.1",
                 "--beta", "0.2", "--out", str(out)]) == 0
    rows = json.loads(out.read_text(encoding="utf-8"))
    assert [r["id"] for r in rows] == list(range(used))
    assert [r["count"] for r in rows] == seq.counts[:used].tolist()
