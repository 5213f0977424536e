"""A traced parallel grid killed with SIGKILL resumes to what an
uninterrupted run writes."""

import json
import os
import signal
import subprocess
import sys
import time

import pytest

from incseg.cli import main

from conftest import SCRIPTS, benchmark_corpus

# small penalties keep the runs long: cells of about 0.1 s on 600 lines
GRID = ["--alpha", "0:0.02:0.01", "--beta", "0:0.02:0.01", "--trace",
        "--jobs", "2"]


@pytest.fixture(scope="module")
def reference(tmp_path_factory):
    """The corpus file and the output directory of an uninterrupted grid."""
    root = tmp_path_factory.mktemp("kill")
    benchmark_corpus(root / "c.txt", 600)
    assert main(["grid", str(root / "c.txt"), *GRID,
                 "--out", str(root / "whole")]) == 0
    return root / "c.txt", root / "whole"


def outputs(out):
    """Ledger rows less their wall time, sorted, as they come in completion
    order, and the bytes of every boundary and trace file by name, leaving
    out dot-named temp files."""
    rows = []
    for line in (out / "runs.jsonl").read_text(encoding="utf-8").splitlines():
        row = json.loads(line)
        del row["wall_time"]
        rows.append(json.dumps(row, sort_keys=True))
    files = {f"{d}/{p.name}": p.read_bytes()
             for d in ("boundaries", "traces")
             for p in sorted((out / d).iterdir())
             if not p.name.startswith(".")}
    return sorted(rows), files


def complete_lines(path):
    try:
        return path.read_bytes().count(b"\n")
    except FileNotFoundError:
        return -1


@pytest.mark.parametrize("k", [0, 1, 4])
def test_grid_killed_after_k_rows_resumes_to_the_same_outputs(reference,
                                                              tmp_path, k):
    corpus, whole = reference
    out = tmp_path / "grid"
    src = str(SCRIPTS.parent / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, (src, os.environ.get("PYTHONPATH")))))
    cmd = [sys.executable, "-c",
           "import sys; from incseg.cli import main; sys.exit(main())",
           "grid", str(corpus), *GRID, "--out", str(out)]
    proc = subprocess.Popen(cmd, env=env, start_new_session=True,
                            stdout=subprocess.DEVNULL,
                            stderr=subprocess.DEVNULL)
    try:
        deadline = time.monotonic() + 60
        while complete_lines(out / "runs.jsonl") < k:
            assert proc.poll() is None and time.monotonic() < deadline
            time.sleep(0.002)
        os.killpg(proc.pid, signal.SIGKILL)  # the pool workers too
    finally:
        proc.wait(timeout=60)
    assert proc.returncode == -signal.SIGKILL
    assert complete_lines(out / "runs.jsonl") < 9
    # what a kill between writing a boundary file aside and renaming it
    # leaves; the resume neither reads it nor trips on it
    (out / "boundaries").mkdir(exist_ok=True)
    (out / "boundaries" / f".{'0' * 24}.npy.{proc.pid}.tmp").write_bytes(b"")
    done = subprocess.run(cmd, env=env, capture_output=True, text=True,
                          timeout=120)
    assert done.returncode == 0, done.stderr
    assert "9/9 grid cells complete" in done.stdout
    assert not (out / "errors.jsonl").exists()
    assert outputs(out) == outputs(whole)
