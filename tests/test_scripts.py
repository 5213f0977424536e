"""The reproduction scripts, run end to end on generated corpora."""

import hashlib
import os
import subprocess
import sys

from incseg.corpus import default_punctuation, load_gold
from incseg.criteria import CRITERIA

from conftest import SCRIPTS, synthetic, toy_text


def run_script(name, *args):
    """``scripts/<name>.py`` with ``args``, run on this tree's ``src``."""
    src = str(SCRIPTS.parent / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, (src, os.environ.get("PYTHONPATH")))))
    return subprocess.run([sys.executable, str(SCRIPTS / f"{name}.py"), *args],
                          capture_output=True, text=True, env=env, timeout=300)


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
    proc = run_script("reproduce_phonemic", "--corpus", str(corpus), "--max",
                      "0.5", "--top", "2", "--out", str(tmp_path / "out"))
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


def test_reproduce_orthographic_search_end_to_end(tmp_path):
    """Hard punctuation, the staged search and a criteria trace on SIGHAN
    input."""
    corpus = tmp_path / "zh.txt"
    corpus.write_text("今天 天气 好 ， 我们 出去 玩 。\n好 的 ！\n",
                      encoding="utf-8")
    proc = run_script("reproduce_orthographic", "--corpus", str(corpus),
                      "--search", "--alpha-range", "0:0.5:0.5",
                      "--beta-range", "0:0.5:0.5", "--out", str(tmp_path / "orth"))
    assert proc.returncode == 0, proc.stderr
    assert "search picked (alpha, beta) = " in proc.stdout
    assert (tmp_path / "orth" / "segmented.txt").stat().st_size > 0


def test_synthetic_demo_keeps_its_corpus_and_reports_each_setting(tmp_path):
    kept = tmp_path / "toy.txt"
    proc = run_script("benchmark_synthetic", "--lines", "200", "--types", "40",
                      "--keep", str(kept))
    assert proc.returncode == 0, proc.stderr
    synthetic().build_corpus(tmp_path / "want.txt", 200, 40, 99)
    assert kept.read_bytes() == (tmp_path / "want.txt").read_bytes()
    rows = [line for line in proc.stdout.splitlines()
            if line.startswith("alpha=")]
    assert len(rows) == 4, proc.stdout
