"""Corpus loading, hard boundaries, and serialization round trips."""

import itertools
import json

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from incseg.corpus import (CorpusError, default_punctuation, dense,
                           distinct, group, load_gold, runs,
                           write_segmentation)

from conftest import make_corpus
from oracles import reference_parse, reference_render


def render(corpus, boundaries=()):
    return corpus._render(corpus.word_starts(boundaries))


def words(corpus, gold):
    s = corpus.char_string()
    cuts = [0, *sorted(gold.boundaries), len(s)]
    return [s[a:b] for a, b in zip(cuts, cuts[1:])]


def test_brent_line(tmp_path):
    corpus, gold = make_corpus("yu want tu si D6 bUk\n", tmp_path=tmp_path)
    assert len(corpus.offsets) == 1
    assert corpus.n_chars == len("yuwanttusiD6bUk")
    assert words(corpus, gold) == ["yu", "want", "tu", "si", "D6", "bUk"]
    assert len(gold.boundaries) == 5  # all internal; single block


def test_single_word_line(tmp_path):
    corpus, gold = make_corpus("a\n", tmp_path=tmp_path)
    assert corpus.n_chars == 1
    assert gold.boundaries.tolist() == []
    assert words(corpus, gold) == ["a"]


def test_two_line_file(tmp_path):
    corpus, gold = make_corpus("ab\ncd\n", tmp_path=tmp_path)
    assert len(corpus.offsets) == 2
    assert corpus.n_chars == 4
    assert gold.boundaries.tolist() == [2]
    assert corpus.block_edges().tolist() == [2]


def test_gold_and_block_edges_are_sorted_int64(tmp_path):
    corpus, gold = make_corpus("ab c de\nf gh\n\ni j k\n", tmp_path=tmp_path)
    for got, want in ((gold.boundaries, [2, 3, 5, 6, 8, 9, 10]),
                      (corpus.block_edges(), [5, 8])):
        assert isinstance(got, np.ndarray) and got.dtype == np.int64
        assert got.tolist() == want


def test_missing_trailing_newline(tmp_path):
    corpus, gold = make_corpus("ab cd", tmp_path=tmp_path)
    assert render(corpus, gold.boundaries) == "ab cd"


def test_empty_file_rejected(tmp_path):
    p = tmp_path / "empty.txt"
    p.write_text("")
    with pytest.raises(CorpusError):
        load_gold(p, "brent")
    p.write_text("\n\n  \n")
    with pytest.raises(CorpusError):
        load_gold(p, "brent")


def test_bad_encoding_reports_line(tmp_path):
    p = tmp_path / "bad.txt"
    p.write_bytes(b"ok line\nbad \xff\xfe line\n")
    with pytest.raises(CorpusError, match="line 2"):
        load_gold(p, "brent")


def test_unknown_format(tmp_path):
    p = tmp_path / "c.txt"
    p.write_text("a b\n")
    with pytest.raises(CorpusError):
        load_gold(p, "nonesuch")


def test_hard_boundaries_cjk_comma(tmp_path):
    corpus, gold = make_corpus("AB，CD\n", tmp_path=tmp_path,
                               hard_punct={"，"})
    assert corpus.offsets.tolist() == [0, 2]
    assert "，" in corpus.separators[1]
    assert corpus.char_string() == "ABCD"
    # round trip restores the comma verbatim
    assert render(corpus, gold.boundaries) == "AB，CD\n"


def test_hard_boundaries_identity_without_punct(tmp_path):
    text = "A，B\n"
    plain, plain_gold = make_corpus(text, tmp_path=tmp_path)
    for punct in (set(), {"。"}):
        corpus, gold = make_corpus(text, tmp_path=tmp_path, hard_punct=punct)
        assert corpus.codes.tolist() == plain.codes.tolist()
        assert corpus.offsets.tolist() == plain.offsets.tolist()
        assert corpus.chars == plain.chars
        assert corpus.separators == plain.separators
        assert gold.boundaries.tolist() == plain_gold.boundaries.tolist()
        assert gold.n_chars == plain_gold.n_chars


def test_leading_punctuation_run(tmp_path):
    corpus, _ = make_corpus("。。AB\n", tmp_path=tmp_path,
                            hard_punct={"。"})
    assert len(corpus.offsets) == 1
    assert corpus.char_string() == "AB"
    assert corpus.separators[0] == "。。"


def test_hard_punct_absent_from_the_text_cuts_nothing(tmp_path):
    # "。" lies below the text's largest code point, the last two above it
    text = "ab，cd e\n"
    want, want_gold = make_corpus(text, tmp_path=tmp_path, hard_punct={"，"})
    absent = {"，", "。", "\U00010100", "\U0010ffff"}
    for punct in (absent, lambda chars: absent):
        corpus, gold = make_corpus(text, tmp_path=tmp_path, hard_punct=punct)
        assert corpus.codes.tolist() == want.codes.tolist()
        assert corpus.offsets.tolist() == want.offsets.tolist() == [0, 2]
        assert corpus.chars == want.chars
        assert corpus.separators == want.separators
        assert gold.boundaries.tolist() == want_gold.boundaries.tolist()
    plain, plain_gold = make_corpus("ab cd\n", tmp_path=tmp_path)
    for punct in (absent, lambda chars: absent):
        corpus, gold = make_corpus("ab cd\n", tmp_path=tmp_path,
                                   hard_punct=punct)
        assert corpus.codes.tolist() == plain.codes.tolist()
        assert corpus.separators == plain.separators == ["", "\n"]
        assert gold.boundaries.tolist() == plain_gold.boundaries.tolist()


def test_hard_boundary_preserves_characters(tmp_path):
    text = "a，b c。\nd e f\n"
    plain, _ = make_corpus(text, tmp_path=tmp_path)
    hard, _ = make_corpus(text, tmp_path=tmp_path,
                          hard_punct={"，", "。"})
    plain_chars = sorted(plain.char_string().replace("，", "")
                         .replace("。", ""))
    assert sorted(hard.char_string()) == plain_chars


def test_all_punctuation_block_absorbed(tmp_path):
    corpus, gold = make_corpus("ab\n！！\ncd\n", fmt="sighan",
                               tmp_path=tmp_path, hard_punct={"！"})
    assert len(corpus.offsets) == 2
    assert render(corpus, gold.boundaries) == "ab\n！！\ncd\n"


def test_gold_remap_under_hard_boundaries(tmp_path):
    # gold "ab, cd e" -> punctuation removed, boundaries remapped
    corpus, gold = make_corpus("ab， cd e\n", fmt="sighan",
                               tmp_path=tmp_path, hard_punct={"，"})
    assert corpus.char_string() == "abcde"
    # block edge at 2 (after ab), word boundary cd|e at 4
    assert gold.boundaries.tolist() == [2, 4]


def test_write_segmentation_roundtrip_gold(tmp_path):
    text = "yu want tu si D6 bUk\nlUk hIr\n"
    corpus, gold = make_corpus(text, tmp_path=tmp_path)
    out = tmp_path / "out.txt"
    write_segmentation(gold.boundaries, corpus, out)
    assert out.read_text(encoding="utf-8") == text
    reloaded_corpus, reloaded = load_gold(out, "brent")
    assert reloaded.boundaries.tolist() == gold.boundaries.tolist()
    # json.dumps refuses an np.int64, so the sidecar was written from ints
    sidecar = json.loads(out.with_suffix(".txt.json").read_text())
    assert sidecar["boundaries"] == gold.boundaries.tolist()


def test_write_no_boundaries_single_words(tmp_path):
    corpus, _ = make_corpus("a b\nc d\n", tmp_path=tmp_path)
    out = tmp_path / "out.txt"
    write_segmentation(corpus.block_edges(), corpus, out)
    assert out.read_text(encoding="utf-8") == "ab\ncd\n"


def test_write_all_boundaries(tmp_path):
    corpus, _ = make_corpus("abc\n", tmp_path=tmp_path)
    out = tmp_path / "out.txt"
    write_segmentation({1, 2}, corpus, out)
    assert out.read_text(encoding="utf-8") == "a b c\n"


def test_write_segmentation_sidecar_holds_what_the_text_holds(tmp_path):
    # the block edge 2 is not given: the sidecar lists the positions the
    # written text has, as it reloads
    corpus, _ = make_corpus("ab\ncd\n", tmp_path=tmp_path)
    out = tmp_path / "out.txt"
    write_segmentation({1}, corpus, out)
    assert out.read_text(encoding="utf-8") == "a b\ncd\n"
    meta = json.loads(out.with_suffix(".txt.json").read_text())
    assert meta["boundaries"] == [1, 2]
    _, reloaded = load_gold(out, "brent")
    assert reloaded.boundaries.tolist() == meta["boundaries"]
    # 0 and 99 lie outside the text
    with pytest.raises(ValueError, match="position 0 outside 1..3"):
        write_segmentation({0, 1, 99}, corpus, tmp_path / "bad.txt")


def test_write_segmentation_refuses_out_of_range_before_writing(tmp_path):
    corpus, _ = make_corpus("ab cd\nef\n", tmp_path=tmp_path)
    out = tmp_path / "out.txt"
    bad = {-5, 3, corpus.n_chars + 7}
    with pytest.raises(ValueError, match="position -5 outside 1..5"):
        write_segmentation(bad, corpus, out)
    assert not out.exists() and not out.with_suffix(".txt.json").exists()
    for p in (-5, corpus.n_chars + 7):
        with pytest.raises(ValueError, match=f"position {p} outside"):
            render(corpus, {3, p})


def test_default_punctuation_categories():
    punct = default_punctuation("a,b。c!d1")
    assert punct == {",", "。", "!"}


def test_reserialize_unsegmented_exact(tmp_path):
    text = "ab cd\n\nef\n"
    corpus, _ = make_corpus(text, tmp_path=tmp_path)
    assert render(corpus) == "abcd\n\nef\n"


words_strategy = st.lists(
    st.lists(st.text(alphabet="abcxyz", min_size=1, max_size=6), min_size=1,
             max_size=5),
    min_size=1, max_size=8)


@given(words_strategy)
@settings(max_examples=60, deadline=None)
def test_roundtrip_random(tmp_path_factory, blocks):
    text = "\n".join(" ".join(ws) for ws in blocks) + "\n"
    corpus, gold = make_corpus(text)
    normalized = "\n".join(" ".join(ws) for ws in blocks) + "\n"
    assert render(corpus, gold.boundaries) == normalized
    # idempotence: re-deriving positions from the written file changes nothing
    corpus2, gold2 = make_corpus(render(corpus, gold.boundaries))
    assert gold2.boundaries.tolist() == gold.boundaries.tolist()
    assert corpus2.char_string() == corpus.char_string()


# "\U00010100" is punctuation above U+FFFF; the last four spaces are
# whitespace to str.isspace and str.split, but not line breaks to
# split("\n")
PUNCT = "，。!\U00010100"
SPACE = st.sampled_from(["", " ", "  ", "\t", "\u3000", "\r", "\x0b",
                         "\x1c", "\x85", "\u2028"])


@st.composite
def gold_line(draw):
    kind = draw(st.sampled_from(["words", "words", "punct", "blank"]))
    if kind == "blank":  # empty or whitespace only
        return draw(SPACE)
    letters = PUNCT if kind == "punct" else "ab\U0001d44e" + PUNCT
    words = draw(st.lists(st.text(alphabet=letters, min_size=1, max_size=5),
                          min_size=1, max_size=4))
    gaps = draw(st.lists(SPACE.filter(bool), min_size=len(words) - 1,
                         max_size=len(words) - 1))
    body = "".join(itertools.chain.from_iterable(
        itertools.zip_longest(words, gaps, fillvalue="")))
    return draw(SPACE) + body + draw(SPACE)


gold_texts = st.builds(lambda lines, end: "\n".join(lines) + end,
                       st.lists(gold_line(), min_size=1, max_size=6),
                       st.sampled_from(["", "\n"]))
punct_sets = st.one_of(st.none(), st.sets(
    st.sampled_from([*PUNCT, " ", "ab"])))


@given(gold_texts, punct_sets)
@settings(max_examples=300, deadline=None)
def test_one_pass_parse_matches_two_pass_reference(text, punct):
    try:
        blocks, chars, seps, bounds = reference_parse(text, punct)
    except CorpusError as e:
        with pytest.raises(CorpusError) as got:
            make_corpus(text, hard_punct=punct)
        assert str(got.value).endswith(str(e))
        return
    corpus, gold = make_corpus(text, hard_punct=punct)
    stream = "".join(blocks)
    assert corpus.chars == chars
    assert corpus.codes.tolist() == [chars.index(c) for c in stream]
    assert corpus.offsets.tolist() == [
        0, *itertools.accumulate(len(b) for b in blocks[:-1])]
    assert corpus.separators == seps
    assert gold.boundaries.tolist() == sorted(bounds)
    assert gold.n_chars == len(stream)
    for cuts in (gold.boundaries, (), range(1, len(stream))):
        assert render(corpus, cuts) == reference_render(blocks, seps,
                                                        set(cuts))
    with pytest.raises(ValueError, match="position -1 outside"):
        render(corpus, range(-1, len(stream) + 2))


@given(st.lists(st.integers(-3, 3) | st.integers(-2**62, 2**62),
                max_size=40))
@example([])
@example([5])
def test_distinct_is_unique(values):
    v = np.array(values, np.int64)
    got = distinct(v)
    assert got.dtype == np.int64
    assert got.tolist() == np.unique(v).tolist()
    assert v.tolist() == values  # the input is left alone


# n rows of w-bit keys take the packed sort iff w + n.bit_length() <= 63:
# up to 40 rows, widths to 56 always do, 62 and 63 mostly fall back to the
# stable argsort, and 57-59 go either way with the row count
_WIDE = st.sampled_from([1, 2, 40, 56, 57, 58, 59, 60, 61, 62, 63]).flatmap(
    lambda w: st.integers(0, 2**w - 1)
    | st.sampled_from([2**w - 1, 2**(w - 1), 2**(w - 1) - 1, 0]))


@given(st.lists(_WIDE, min_size=1, max_size=4), st.data())
@settings(max_examples=300)
def test_group_is_a_stable_sort_into_runs(pool, data):
    # few distinct keys, so that most rows tie
    values = data.draw(st.lists(st.sampled_from(pool), max_size=40))
    keys = np.array(values, np.int64)
    order, start, count = group(keys)
    want = np.argsort(keys, kind="stable")
    assert order.dtype == np.int64 and order.tolist() == want.tolist()
    assert [x.tolist() for x in (start, count)] == [
        x.tolist() for x in runs(keys[want])]
    rank, count = dense(keys)
    _, inverse, counts = np.unique(keys, return_inverse=True,
                                   return_counts=True)
    assert rank.tolist() == inverse.tolist()
    assert count.tolist() == counts.tolist()
    assert keys.tolist() == values  # the input is left alone


def test_group_of_no_keys_is_empty():
    keys = np.zeros(0, np.int64)
    assert [len(x) for x in (*group(keys), *dense(keys))] == [0] * 5
