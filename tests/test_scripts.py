"""The reproduction scripts, run end to end on generated corpora."""

import hashlib
import os
import subprocess
import sys

from incseg.corpus import default_punctuation, load_gold
from incseg.criteria import CRITERIA

from conftest import SCRIPTS, synthetic, toy_text


def test_pku_shaped_corpus_is_pinned_and_cut_at_its_punctuation(tmp_path):
    """The seeded PKU-shaped generator writes the same bytes every time,
    and hard punctuation cuts each line into one block per clause."""
    path = tmp_path / "pku.txt"
    synthetic().build_pku_corpus(path, 900, seed=99)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == (
        "9ee97b13f6ae0b487c4ee8d018f614441bddc349fdea7564c157aa0d32e61899")
    text = path.read_text(encoding="utf-8")
    corpus, gold = load_gold(path, "sighan", hard_punct=default_punctuation)
    lines = text.splitlines()
    assert len(lines) == 900
    assert len(corpus.offsets) == len(lines) + text.count("，")
    assert set(corpus.chars) == set(text) - set(" \n")
    words = [w for w in text.split() if w not in "，。"]
    assert corpus.n_chars == sum(map(len, words)) == 20_190
    assert len(gold.boundaries) == len(words) - 1


def test_reproduce_phonemic_end_to_end(tmp_path):
    corpus = tmp_path / "toy.txt"
    corpus.write_text(toy_text(200, seed=3), encoding="utf-8")
    src = str(SCRIPTS.parent / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, (src, os.environ.get("PYTHONPATH")))))
    proc = subprocess.run(
        [sys.executable, str(SCRIPTS / "reproduce_phonemic.py"),
         "--corpus", str(corpus), "--max", "0.5", "--top", "2",
         "--out", str(tmp_path / "out")],
        capture_output=True, text=True, env=env, timeout=300)
    assert proc.returncode == 0, proc.stderr
    grids = proc.stdout.split("grid (2x2) ==")[1:]
    assert len(grids) == 2  # one per penalty kind
    for grid in grids:
        words = [line.split() for line in grid.splitlines()]
        for cid in CRITERIA:  # the family minimum, not the top-k vote
            assert sum(w[:1] == [cid] and "vote" not in w
                       for w in words) == 1, cid
        for label in (["output", "set"], ["full", "trace"]):
            rows = [w for w in words if w[:2] == label]
            assert len(rows) == 1 and len(rows[0]) == 2 + len(CRITERIA)
