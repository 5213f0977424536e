"""The reproduction scripts, run end to end on generated corpora."""

import os
import subprocess
import sys

from incseg.criteria import CRITERIA

from conftest import SCRIPTS, toy_text


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
