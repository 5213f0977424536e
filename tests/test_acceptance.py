"""Acceptance suite: one test per criterion, at the stated tolerances.

Criteria 1-7 are property checks on generated corpora and run in seconds.
Criteria 8-12 reproduce published behavior on the Bernstein-Ratner corpus
and criterion 13 on the SIGHAN PKU training set; those corpora are not
redistributable here, so the tests locate them via environment variables
(INCSEG_BR_CORPUS, INCSEG_PKU_CORPUS) or data/ and skip when absent.

Run with ``pytest tests/test_acceptance.py -v`` for one line per criterion.
"""

from __future__ import annotations

import itertools
import math
import os
import random
import time
from dataclasses import dataclass
from pathlib import Path

import pytest

from incseg.corpus import load_gold, default_punctuation
from incseg.criteria import evaluate
from incseg.ensemble import majority_vote
from incseg.learner import (LearnerOptions, PenaltyParams, init_state,
                            penalized_likelihood, run, step)
from incseg.metrics import evaluate_segmentation, spearman_rho
from incseg.search import (GridSpec, load_boundaries, run_grid,
                           select_family_minimum, select_top_k)

from conftest import make_corpus, random_gold_text
from fixtures_metrics import CASES
from oracles import (char_table, definition_spearman, enumerate_segmentations,
                     oracle_unigram_scores, verify_sequence)

DATA_DIR = Path(__file__).resolve().parent.parent / "data"


def _locate(env: str, *names: str) -> Path | None:
    cand = os.environ.get(env)
    if cand and Path(cand).exists():
        return Path(cand)
    for name in names:
        p = DATA_DIR / name
        if p.exists():
            return p
    return None


def _require_br():
    p = _locate("INCSEG_BR_CORPUS", "br-phono.txt", "br_phono.txt")
    if p is None:
        pytest.skip("Bernstein-Ratner corpus not available in this "
                    "environment (no network); set INCSEG_BR_CORPUS or put "
                    "br-phono.txt under data/ to run this criterion")
    return load_gold(p, "brent")


def _require_pku():
    p = _locate("INCSEG_PKU_CORPUS", "pku_training.utf8")
    if p is None:
        pytest.skip("SIGHAN PKU training set not available; set "
                    "INCSEG_PKU_CORPUS or put pku_training.utf8 under data/")
    punct = default_punctuation(p.read_text(encoding="utf-8"))
    return load_gold(p, "sighan", hard_punct=punct)


# -- criteria 1, 3, 4: audited random-corpus runs ---------------------------


@dataclass
class Audit:
    n_corpora: int
    total_iterations: int
    max_delta_gap: float
    conservation_violations: int
    nonimproving_steps: int
    iteration_overruns: int
    elapsed: float


def _audit_run(corpus, params, options) -> tuple[float, int, int, bool]:
    state = init_state(corpus, params, options)
    sign = options.complexity_sign
    oracle_prev = penalized_likelihood(state.seq, params, sign)
    max_gap = 0.0
    conservation_bad = 0
    nonimproving = 0
    n = corpus.n_chars
    small = n <= 600
    while True:
        ev = step(state)
        if ev is None:
            break
        oracle_now = penalized_likelihood(state.seq, params, sign)
        max_gap = max(max_gap, abs((oracle_now - oracle_prev) - ev.delta))
        oracle_prev = oracle_now
        if ev.delta >= 0:
            nonimproving += 1
        # new_token replaces the counts and lengths arrays, so read them
        # after each step
        counts, lengths = state.seq.counts, state.seq.lengths
        if sum(c * lengths[t] for t, c in enumerate(counts)) != n:
            conservation_bad += 1
        if small or state.iteration % 25 == 0:
            verify_sequence(state.seq, state.lex, corpus)
    return (max_gap, conservation_bad, nonimproving,
            state.iteration <= n, state.iteration)


@pytest.fixture(scope="session")
def random_corpus_audit() -> Audit:
    rng = random.Random(20250809)
    sizes = [rng.randint(100, 600) for _ in range(40)]
    sizes += [rng.randint(1200, 2000) for _ in range(7)]
    sizes += [3000, 3500, 5000]
    assert len(sizes) == 50
    t0 = time.perf_counter()
    iterations = 0
    max_gap = 0.0
    conservation = 0
    nonimproving = 0
    overruns = 0
    for i, size in enumerate(sizes):
        alphabet = rng.randint(2, 20)
        text = random_gold_text(rng, size, alphabet,
                                structured=i % 6 != 5)
        corpus, _ = make_corpus(text)
        if i % 2 == 0:
            params = PenaltyParams(0.0, 0.0)        # deepest runs
        else:
            params = PenaltyParams(round(rng.uniform(0, 0.5), 2),
                                   round(rng.uniform(0, 0.5), 2),
                                   rng.choice(("xlogx", "xsquared")))
        options = LearnerOptions(n_max=3 if i % 7 == 3 else 2,
                                 trace_mode="none")
        gap, bad, noni, within, iters = _audit_run(corpus, params, options)
        iterations += iters
        max_gap = max(max_gap, gap)
        conservation += bad
        nonimproving += noni
        overruns += 0 if within else 1
    return Audit(len(sizes), iterations, max_gap, conservation, nonimproving,
                 overruns, time.perf_counter() - t0)


def test_c01_incremental_delta_matches_oracle(random_corpus_audit):
    a = random_corpus_audit
    assert a.n_corpora == 50
    assert a.total_iterations >= 2000, "audit exercised too few compressions"
    assert a.max_delta_gap <= 1e-9, a
    assert a.elapsed < 60.0, f"audit took {a.elapsed:.1f}s"
    print(f"[criterion 1] max |applied - recomputed| = {a.max_delta_gap:.2e} "
          f"over {a.n_corpora} corpora / {a.total_iterations} iterations "
          f"in {a.elapsed:.1f}s: PASS")


def test_c03_character_conservation(random_corpus_audit):
    assert random_corpus_audit.conservation_violations == 0
    print("[criterion 3] sum(count*len) == N at every iteration: PASS")


def test_c04_monotone_objective_and_termination(random_corpus_audit):
    a = random_corpus_audit
    assert a.nonimproving_steps == 0
    assert a.iteration_overruns == 0
    print("[criterion 4] every applied step improves; runs end within N "
          "iterations: PASS")


# -- criterion 2: exhaustive segmentation oracle -----------------------------


def test_c02_bruteforce_segmentation_oracle():
    rng = random.Random(77)
    t0 = time.perf_counter()
    done = 0
    while done < 30:
        text = random_gold_text(rng, rng.randint(3, 11), rng.randint(2, 4),
                                structured=False)
        corpus, _ = make_corpus(text)
        if corpus.n_chars > 12:
            continue
        done += 1
        params = PenaltyParams(round(rng.uniform(0, 1.5), 2),
                               round(rng.uniform(0, 1.5), 2),
                               rng.choice(("xlogx", "xsquared")))
        hyp = run(corpus, params).hypothesis.boundaries
        matched = False
        for bounds in enumerate_segmentations(corpus):
            if bounds == hyp:
                matched = True
                vals = evaluate(char_table(corpus, bounds))
                aic_o, mdl_o = oracle_unigram_scores(corpus, bounds)
                assert vals["aic1"].value == aic_o, text
                assert vals["mdl1"].value == mdl_o, text
        assert matched, "hypothesis missing from exhaustive enumeration"
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0
    print(f"[criterion 2] 30 corpora, exact AIC1/MDL1 agreement with "
          f"enumerator in {elapsed:.1f}s: PASS")


# -- criterion 5: metric fixture table ---------------------------------------


def test_c05_metric_oracles_fixture_table(tmp_path):
    for i, (text, hyp, expected) in enumerate(CASES):
        corpus, gold = make_corpus(text, tmp_path=tmp_path)
        hyp_full = set(hyp) | set(corpus.block_edges().tolist())
        report = evaluate_segmentation(corpus, gold, hyp_full)
        for level, prf in (("token", report.token),
                           ("boundary", report.boundary),
                           ("lexicon", report.lexicon)):
            ep, er, ef = expected[level]
            assert prf.p == pytest.approx(ep, abs=1e-9), (i, level)
            assert prf.r == pytest.approx(er, abs=1e-9), (i, level)
            assert prf.f == pytest.approx(ef, abs=1e-9), (i, level)
        assert report.boundary.degenerate == expected["boundary_degenerate"]
    print(f"[criterion 5] {len(CASES)}-case P/R/F fixture table exact: PASS")


# -- criterion 6: ensemble vote patterns --------------------------------------


def test_c06_strict_majority_exhaustive():
    for k in range(1, 6):
        for pattern in itertools.product((0, 1), repeat=k):
            sets = [{1} if bit else set() for bit in pattern]
            got = majority_vote(sets, set(), 3)
            expect = frozenset({1}) if 2 * sum(pattern) > k else frozenset()
            assert got == expect, (k, pattern)
    print("[criterion 6] strict-majority rule exhaustive for k <= 5: PASS")


# -- criterion 7: spearman ----------------------------------------------------


def test_c07_spearman_definition_agreement():
    rng = random.Random(4242)
    for _ in range(100):
        n = rng.randint(2, 80)
        xs = [round(rng.uniform(-5, 5), rng.choice((1, 6)))
              for _ in range(n)]
        ys = [round(rng.uniform(-5, 5), rng.choice((1, 6)))
              for _ in range(n)]
        got = spearman_rho(xs, ys)
        want = definition_spearman(xs, ys)
        if math.isnan(want):
            assert math.isnan(got)
        else:
            assert got == pytest.approx(want, abs=1e-12)
    print("[criterion 7] spearman_rho == definition on 100 vectors: PASS")


# -- criteria 8-12: Bernstein-Ratner reproduction -----------------------------


@pytest.fixture(scope="session")
def br():
    return _require_br()


@pytest.fixture(scope="session")
def br_base_run(br):
    corpus, gold = br
    result = run(corpus, PenaltyParams(0.0, 0.0), LearnerOptions(
        trace_mode="none"), gold=gold)
    return corpus, gold, result


def test_c08_br_zero_penalty_natural_stop(br_base_run):
    corpus, gold, result = br_base_run
    rep = evaluate_segmentation(corpus, gold, result.hypothesis.boundaries)
    assert result.wall_time < 60.0, f"run took {result.wall_time:.0f}s"
    assert 15.0 <= rep.token.f <= 27.0, rep.token
    assert rep.boundary.p >= 90.0, rep.boundary
    assert rep.boundary.r <= 25.0, rep.boundary
    print(f"[criterion 8] base run: token F {rep.token.f:.1f} in [15,27], "
          f"BP {rep.boundary.p:.1f} >= 90, BR {rep.boundary.r:.1f} <= 25: "
          "PASS")


def test_c09_br_best_intermediate_500(br):
    corpus, gold = br
    result = run(corpus, PenaltyParams(0.0, 0.0),
                 LearnerOptions(stop_at=500, trace_interval=100,
                                trace_mode="criteria"), gold=gold)
    best = max(rec.token_f for rec in result.trace)
    assert 45.0 <= best <= 60.0, best
    print(f"[criterion 9] best intermediate F {best:.1f} in [45,60]: PASS")


@pytest.fixture(scope="session")
def br_coarse_grid(br, tmp_path_factory):
    corpus, gold = br
    out = os.environ.get("INCSEG_ACCEPT_OUT")
    out_dir = Path(out) if out else tmp_path_factory.mktemp("br_grid")
    spec = GridSpec(alphas=tuple(round(0.5 * i, 10) for i in range(11)),
                    betas=tuple(round(0.5 * i, 10) for i in range(11)),
                    kinds=("xlogx",))
    jobs = min(8, os.cpu_count() or 1)
    t0 = time.perf_counter()
    records = run_grid(corpus, gold, spec, out_dir,
                       options=LearnerOptions(trace_mode="none"),
                       jobs=jobs, trace=True)
    return corpus, gold, out_dir, records, time.perf_counter() - t0


def test_c10_br_coarse_grid_selection(br_coarse_grid):
    corpus, gold, out_dir, records, elapsed = br_coarse_grid
    best_mdl2 = select_family_minimum(records, "mdl2")
    best_aic3 = select_family_minimum(records, "aic3")
    f_mdl2 = best_mdl2.metrics["token"]["f"]
    f_aic3 = best_aic3.metrics["token"]["f"]
    assert f_mdl2 >= 70.0, best_mdl2
    assert f_aic3 >= 70.0, best_aic3
    if (os.cpu_count() or 1) >= 8:
        assert elapsed < 1800.0, f"grid took {elapsed:.0f}s"
    print(f"[criterion 10] coarse grid: MDL2 pick F {f_mdl2:.1f} >= 70 at "
          f"(a={best_mdl2.alpha}, b={best_mdl2.beta}); AIC3 pick F "
          f"{f_aic3:.1f} >= 70 ({elapsed:.0f}s): PASS")


def test_c11_br_top10_ensemble_improves(br_coarse_grid):
    corpus, gold, out_dir, records, _ = br_coarse_grid
    top = select_top_k(records, "mdl2", 10)
    single_f = top[0].metrics["token"]["f"]
    sets = [load_boundaries(out_dir / r.boundary_file) for r in top]
    voted = majority_vote(sets, corpus.block_edges(), corpus.n_chars)
    voted_f = evaluate_segmentation(corpus, gold, voted).token.f
    assert voted_f >= single_f, (voted_f, single_f)
    print(f"[criterion 11] top-10 ensemble F {voted_f:.1f} >= single best "
          f"{single_f:.1f}: PASS")


def test_c12_br_full_trace_rank_correlation(br_coarse_grid):
    import json
    corpus, gold, out_dir, records, _ = br_coarse_grid
    rows = []
    for rec in records:
        assert rec.trace_file, "grid must be run with tracing"
        with (out_dir / rec.trace_file).open(encoding="utf-8") as fh:
            for line in fh:
                row = json.loads(line)
                if row.get("criteria") and row.get("token_f") is not None:
                    rows.append({"token_f": row["token_f"], **row["criteria"]})
    fs = [r["token_f"] for r in rows]
    rho_mdl2 = spearman_rho([r["mdl2"] for r in rows], fs)
    rho_aic1 = spearman_rho([r["aic1"] for r in rows], fs)
    assert rho_mdl2 <= -0.7, rho_mdl2
    assert rho_aic1 >= 0.0, rho_aic1
    print(f"[criterion 12] full-trace rho(F, MDL2) = {rho_mdl2:.2f} <= -0.7; "
          f"rho(F, AIC1) = {rho_aic1:.2f} >= 0: PASS")


# -- criterion 13: SIGHAN PKU (optional, large) -------------------------------


@pytest.mark.slow
def test_c13_pku_known_parameters(request):
    corpus, gold = _require_pku()
    t0 = time.perf_counter()
    result = run(corpus, PenaltyParams(2.0, 3.0, "xlogx"),
                 LearnerOptions(trace_interval=100, trace_mode="criteria"),
                 gold=gold)
    elapsed = time.perf_counter() - t0
    rep = evaluate_segmentation(corpus, gold, result.hypothesis.boundaries)
    assert rep.token.f >= 75.0, rep.token
    iters = [rec.iteration for rec in result.trace]
    fs = [rec.token_f for rec in result.trace]
    trend = spearman_rho(iters, fs)
    assert trend >= 0.9, trend
    assert elapsed < 7200.0
    print(f"[criterion 13] PKU (2.0, 3.0): token F {rep.token.f:.1f} >= 75, "
          f"F-trend rho {trend:.2f}, {elapsed:.0f}s: PASS")
