"""Shared fixtures: in-memory corpora and a deterministic toy language."""

from __future__ import annotations

import importlib.util
import random
from pathlib import Path

import pytest

from incseg.corpus import load_gold

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


def make_corpus(text: str, fmt: str = "brent", tmp_path=None, hard_punct=None):
    """Write ``text`` to a temp file and load it as a gold corpus."""
    import tempfile, os
    if tmp_path is not None:
        p = tmp_path / "corpus.txt"
        p.write_text(text, encoding="utf-8")
        return load_gold(p, fmt, hard_punct=hard_punct)
    fd, name = tempfile.mkstemp(suffix=".txt")
    try:
        with open(fd, "w", encoding="utf-8") as fh:
            fh.write(text)
        return load_gold(name, fmt, hard_punct=hard_punct)
    finally:
        os.unlink(name)


TOY_TYPES = ["da", "gu", "bi", "tupa", "komi", "se", "ranu", "pelo", "ki",
             "mota", "lu", "vesti"]


def toy_text(n_lines: int = 200, seed: int = 0,
             types: list[str] | None = None) -> str:
    """Zipf-ish word soup over a small lexicon; segmentation is learnable."""
    rng = random.Random(seed)
    types = types or TOY_TYPES
    weights = [1.0 / (i + 1) for i in range(len(types))]
    lines = [" ".join(rng.choices(types, weights=weights,
                                  k=rng.randint(2, 6)))
             for _ in range(n_lines)]
    return "\n".join(lines) + "\n"


def random_gold_text(rng: random.Random, n_chars: int, alphabet: int,
                     structured: bool = True,
                     n_types: int | None = None) -> str:
    """Random gold-segmented text totalling roughly ``n_chars`` characters.

    Structured mode draws words from a fixed Zipf-weighted lexicon, which
    gives the repetition the compressor feeds on; unstructured mode is
    letter soup and mostly incompressible.
    """
    letters = "abcdefghijklmnopqrstuvwxyz"[:alphabet]
    if structured:
        n_types = n_types or rng.randint(3, 60)
        types = []
        for _ in range(n_types):
            k = rng.randint(1, 5)
            types.append("".join(rng.choice(letters) for _ in range(k)))
        weights = [1.0 / (i + 1) for i in range(len(types))]
    lines = []
    total = 0
    while total < n_chars:
        k = rng.randint(1, 7)
        if structured:
            ws = rng.choices(types, weights=weights, k=k)
        else:
            ws = ["".join(rng.choice(letters)
                          for _ in range(rng.randint(1, 4)))
                  for _ in range(k)]
        lines.append(" ".join(ws))
        total += sum(len(w) for w in ws)
    return "\n".join(lines) + "\n"


def script(name: str):
    """The module ``scripts/<name>.py``."""
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def synthetic():
    """The corpus generators' module, ``scripts/benchmark_synthetic.py``."""
    return script("benchmark_synthetic")


def benchmark_corpus(path: Path, n_lines: int):
    """Write the benchmark generator's corpus,
    ``scripts/benchmark_synthetic.build_corpus(path, n_lines, 400, 99)``,
    and load it as a gold corpus."""
    synthetic().build_corpus(path, n_lines, 400, 99)
    return load_gold(path, "brent")


@pytest.fixture
def toy_corpus(tmp_path):
    return make_corpus(toy_text(150, seed=1), tmp_path=tmp_path)


def pytest_configure(config):
    config.addinivalue_line("markers",
                            "slow: long-running corpus-scale checks")


def pytest_runtest_logreport(report):
    """One visible pass/fail line per acceptance criterion."""
    if "test_acceptance.py" not in report.nodeid:
        return
    name = report.nodeid.split("::")[-1]
    if report.when == "call":
        status = ("SKIP" if report.skipped
                  else "PASS" if report.passed else "FAIL")
    elif report.when == "setup" and report.skipped:
        status = "SKIP"
    else:
        return
    reason = ""
    if status == "SKIP" and report.longrepr:
        reason = f"  ({str(report.longrepr[-1]).removeprefix('Skipped: ')})"
    print(f"\nACCEPTANCE {name}: {status}{reason}")
