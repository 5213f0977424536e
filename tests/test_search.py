"""Grid execution, resumable ledger, selection, heat maps, staged search."""

import json
from dataclasses import replace

import numpy as np
import pytest

from incseg.search import (GridSpec, RunRecord, correlation_rows,
                           export_heatmap, load_boundaries,
                           load_ledger, parse_range, run_grid,
                           select_family_minimum, select_top_k, staged_search,
                           save_boundaries, write_heatmap_csv)

from incseg import cli
from incseg.learner import LearnerOptions

from conftest import make_corpus, toy_text
from oracles import char_table


def small_grid_spec():
    return GridSpec(alphas=(0.0, 0.4), betas=(0.0, 0.4), kinds=("xlogx",))


@pytest.fixture
def toy(tmp_path):
    return make_corpus(toy_text(80, seed=2), tmp_path=tmp_path)


def test_parse_range():
    assert parse_range("0:5:0.1") == tuple(round(0.1 * i, 10)
                                           for i in range(51))
    assert len(parse_range("0:5:0.1")) == 51
    assert parse_range("0:5:5") == (0.0, 5.0)
    assert parse_range("2.0") == (2.0,)
    with pytest.raises(ValueError):
        parse_range("5:0:1")
    with pytest.raises(ValueError):
        parse_range("0:1:0")
    with pytest.raises(ValueError):
        parse_range("0:1")
    for spec in ("0:inf:1", "0:1:nan", "-inf:0:1", "inf"):
        with pytest.raises(ValueError, match="must be finite"):
            parse_range(spec)


@pytest.mark.parametrize("alphas, betas, kinds", [
    ((-1.0,), (0.0,), ("xlogx",)),
    ((0.0, 0.5), (0.0, float("nan")), ("xlogx",)),
    ((0.0,), (0.0, float("inf")), ("xsquared",)),
    ((0.0,), (0.0,), ("cubic",)),
    ((), (0.0,), ("xlogx",)),
    ((0.0,), (), ("xlogx",)),
    ((0.0,), (0.0,), ()),
])
def test_grid_spec_rejects_bad_penalty(alphas, betas, kinds):
    with pytest.raises(ValueError):
        GridSpec(alphas, betas, kinds)


def test_staged_search_checks_range_before_running(toy, tmp_path):
    corpus, gold = toy
    for alphas, betas, beta0 in (((0.0,), (0.0, -0.5), 1.0),
                                 ((0.0, -1.0), (0.0,), 1.0),
                                 ((0.0,), (0.0,), -1.0)):
        with pytest.raises(ValueError, match="alpha and beta"):
            staged_search(corpus, gold, "mdl2", alphas, betas,
                          tmp_path / "st", beta0=beta0)
    assert not (tmp_path / "st").exists()


@pytest.mark.parametrize("jobs", [0, -3])
def test_jobs_below_one_is_refused_before_any_output(toy, tmp_path, jobs):
    corpus, gold = toy
    with pytest.raises(ValueError, match=f"at least 1, got {jobs}"):
        run_grid(corpus, gold, small_grid_spec(), tmp_path / "g", jobs=jobs)
    with pytest.raises(ValueError, match="jobs must be at least 1"):
        staged_search(corpus, gold, "mdl2", (0.0,), (0.0,), tmp_path / "st",
                      jobs=jobs)
    assert not (tmp_path / "g").exists() and not (tmp_path / "st").exists()


def test_grid_cell_count():
    spec = GridSpec(parse_range("0:5:0.1"), parse_range("0:5:0.1"),
                    ("xlogx",))
    assert len(spec.cells()) == 2601
    assert len(GridSpec((0.0, 5.0), (0.0, 5.0), ("xlogx",)).cells()) == 4


def test_grid_spec_runs_each_cell_once(toy, tmp_path):
    spec = GridSpec((0.4, 0.0, 0.4), (0.0,), ("xsquared", "xsquared"))
    assert spec.cells() == [("xsquared", 0.4, 0.0), ("xsquared", 0.0, 0.0)]
    corpus, gold = toy
    records = run_grid(corpus, gold, spec, tmp_path / "g")
    assert [r.key() for r in records] == spec.cells()
    assert len(load_ledger(tmp_path / "g")) == 2


def test_run_grid_records_everything(toy, tmp_path):
    corpus, gold = toy
    out = tmp_path / "grid"
    records = run_grid(corpus, gold, small_grid_spec(), out)
    assert len(records) == 4
    for rec in records:
        assert set(rec.criteria) == {"aic1", "aic2", "aic3",
                                     "mdl1", "mdl2", "mdl3"}
        assert rec.metrics is not None
        assert (out / rec.boundary_file).exists()
        bounds = load_boundaries(out / rec.boundary_file)
        assert len(bounds) == rec.n_boundaries
    assert (out / "runs.jsonl").exists()


def test_grid_resume_skips_done(toy, tmp_path):
    corpus, gold = toy
    out = tmp_path / "grid"
    first = run_grid(corpus, gold, small_grid_spec(), out)
    ledger_before = (out / "runs.jsonl").read_text()
    second = run_grid(corpus, gold, small_grid_spec(), out)
    assert (out / "runs.jsonl").read_text() == ledger_before
    assert [r.key() for r in first] == [r.key() for r in second]
    # a widened grid only runs the new cells
    widened = GridSpec((0.0, 0.4, 0.8), (0.0, 0.4), ("xlogx",))
    third = run_grid(corpus, gold, widened, out)
    assert len(third) == 6
    assert len(load_ledger(out)) == 6


def test_resume_after_torn_ledger_line(toy, tmp_path):
    corpus, gold = toy
    out = tmp_path / "grid"
    first = run_grid(corpus, gold, small_grid_spec(), out)
    ledger = out / "runs.jsonl"
    before = ledger.read_bytes()
    # a crash in the middle of an append: half a line, no newline
    with ledger.open("ab") as fh:
        fh.write(before.splitlines(keepends=True)[0][:40])
    with pytest.warns(RuntimeWarning, match="runs.jsonl"):
        resumed = run_grid(corpus, gold, small_grid_spec(), out)
    assert [r.key() for r in resumed] == [r.key() for r in first]
    assert ledger.read_bytes() == before  # torn tail cut, no cell re-run


def test_reading_a_torn_ledger_leaves_it_alone(toy, tmp_path, capsys):
    corpus, gold = toy
    out = tmp_path / "grid"
    first = run_grid(corpus, gold, small_grid_spec(), out)
    ledger = out / "runs.jsonl"
    with ledger.open("ab") as fh:
        fh.write(ledger.read_bytes()[:40])  # half a line, no newline
    torn = ledger.read_bytes()
    with pytest.warns(RuntimeWarning, match="torn last line"):
        assert load_ledger(out) == first
    assert ledger.read_bytes() == torn
    with pytest.warns(RuntimeWarning, match="torn last line"):
        assert cli.main(["select", "--ledger", str(out), "--criterion", "mdl2",
                         "--top", str(len(first))]) == 0
    chosen = json.loads(capsys.readouterr().out)
    assert sorted((r["penalty"], r["alpha"], r["beta"]) for r in chosen) == sorted(
        r.key() for r in first)
    assert ledger.read_bytes() == torn


def test_grid_without_resume_starts_the_ledger_over(toy, tmp_path):
    corpus, gold = toy
    out = tmp_path / "grid"
    spec = GridSpec((0.0, 0.4), (0.0,), ("xlogx",))
    first = run_grid(corpus, gold, spec, out, resume=False)
    again = run_grid(corpus, gold, spec, out, resume=False)
    assert len((out / "runs.jsonl").read_bytes().splitlines()) == 2
    assert [r.key() for r in again] == [r.key() for r in first]


def test_resume_with_another_n_max_is_refused(toy, tmp_path):
    corpus, gold = toy
    out = tmp_path / "grid"
    spec = GridSpec((0.0,), (0.0,), ("xlogx",))
    run_grid(corpus, gold, spec, out, LearnerOptions(n_max=2))
    before = (out / "runs.jsonl").read_bytes()
    with pytest.raises(ValueError, match=r"runs\.jsonl.*n_max 2, not 3"):
        run_grid(corpus, gold, GridSpec((0.0, 0.4), (0.0,), ("xlogx",)),
                 out, LearnerOptions(n_max=3))
    assert (out / "runs.jsonl").read_bytes() == before


def test_resume_over_another_corpus_is_refused(toy, tmp_path, monkeypatch):
    import incseg.search as search_mod
    corpus, gold = toy
    out = tmp_path / "grid"
    spec = GridSpec((0.0,), (0.0,), ("xlogx",))
    run_grid(corpus, gold, spec, out)
    before = {f: (out / f).read_bytes() for f in ("runs.jsonl",
                                                   "identity.json")}
    other, other_gold = make_corpus(toy_text(80, seed=3), tmp_path=tmp_path)
    monkeypatch.setattr(search_mod, "_run_cell", None)  # no cell may run
    with pytest.raises(ValueError, match=r"runs\.jsonl.*corpus_sha256"):
        run_grid(other, other_gold, GridSpec((0.0, 0.4), (0.0,), ("xlogx",)),
                 out)
    with pytest.raises(ValueError, match=r"corpus_sha256"):
        staged_search(other, other_gold, "mdl2", (0.0,), (0.0,), out,
                      beta0=0.0)
    assert {f: (out / f).read_bytes() for f in before} == before


# how a resume changes each identity field of a grid run with BASE_OPTIONS
BASE_OPTIONS = LearnerOptions(stop_at=5)
RESUME_CHANGES = {
    "n_max": {"options": replace(BASE_OPTIONS, n_max=3)},
    "stop_at": {"options": replace(BASE_OPTIONS, stop_at=50)},
    "trace_interval": {"options": replace(BASE_OPTIONS, trace_interval=7)},
    "trace_mode": {"trace": True},
    "trace_boundaries": {
        "options": replace(BASE_OPTIONS, trace_boundaries=True)},
    "complexity_sign": {
        "options": replace(BASE_OPTIONS, complexity_sign=-1)},
    "literal_stop": {"options": replace(BASE_OPTIONS, literal_stop=True)},
    "gold": {"gold": None},
    "corpus_sha256": {"corpus": make_corpus(toy_text(80, seed=3))[0]},
}


@pytest.mark.parametrize("field", sorted(RESUME_CHANGES))
def test_resume_that_changes_an_identity_field_is_refused(
        field, toy, tmp_path, monkeypatch):
    import incseg.search as search_mod
    corpus, gold = toy
    out = tmp_path / "grid"
    run_grid(corpus, gold, GridSpec((0.0,), (0.0,), ("xlogx",)), out,
             BASE_OPTIONS)
    before = {f: (out / f).read_bytes() for f in ("runs.jsonl",
                                                   "identity.json")}
    args = {"corpus": corpus, "gold": gold, "options": BASE_OPTIONS,
            **RESUME_CHANGES[field]}
    monkeypatch.setattr(search_mod, "_run_cell", None)  # no cell may run
    with pytest.raises(ValueError, match=rf"runs\.jsonl holds runs with "
                                         rf"{field} ") as exc:
        run_grid(args["corpus"], args["gold"],
                 GridSpec((0.0, 0.4), (0.0,), ("xlogx",)), out,
                 args["options"], trace=args.get("trace", False))
    assert "\n" not in str(exc.value)
    assert {f: (out / f).read_bytes() for f in before} == before


@pytest.mark.parametrize("damage", ["lacks stop_at", "deleted"])
def test_resume_without_a_complete_identity_is_refused(
        damage, toy, tmp_path, monkeypatch):
    import incseg.search as search_mod
    corpus, gold = toy
    out = tmp_path / "grid"
    run_grid(corpus, gold, GridSpec((0.0,), (0.0,), ("xlogx",)), out,
             BASE_OPTIONS)
    kept = out / "identity.json"
    if damage == "deleted":
        kept.unlink()
        field = "n_max"  # the first field of the identity
    else:
        identity = json.loads(kept.read_text())
        del identity["stop_at"]
        kept.write_text(json.dumps(identity))
        field = "stop_at"
    before = {f.name: f.read_bytes() for f in out.glob("*.json*")}
    monkeypatch.setattr(search_mod, "_run_cell", None)  # no cell may run
    with pytest.raises(ValueError, match=rf"runs\.jsonl holds runs with "
                                         rf"{field} unrecorded, not ") as exc:
        run_grid(corpus, gold, GridSpec((0.0, 0.4), (0.0,), ("xlogx",)), out,
                 BASE_OPTIONS)
    assert "\n" not in str(exc.value)
    assert {f.name: f.read_bytes() for f in out.glob("*.json*")} == before


def test_start_over_binds_the_ledger_to_the_new_identity(toy, tmp_path):
    corpus, gold = toy
    out = tmp_path / "grid"
    spec = GridSpec((0.0,), (0.0,), ("xlogx",))
    run_grid(corpus, gold, spec, out)
    identity = json.loads((out / "identity.json").read_text())
    other, other_gold = make_corpus(toy_text(80, seed=3), tmp_path=tmp_path)
    with pytest.raises(ValueError, match=r"corpus_sha256"):
        run_grid(other, other_gold, spec, out)
    # starting over takes the new corpus's identity
    records = run_grid(other, other_gold, spec, out, resume=False)
    assert json.loads((out / "identity.json").read_text()) != identity
    assert load_ledger(out) == records
    assert run_grid(other, other_gold, spec, out) == records
    with pytest.raises(ValueError, match=r"corpus_sha256"):
        run_grid(corpus, gold, spec, out)
    assert not list(out.glob(".*"))  # no file left aside


def test_bad_ledger_line_names_file_and_line(toy, tmp_path):
    corpus, gold = toy
    out = tmp_path / "grid"
    run_grid(corpus, gold, small_grid_spec(), out)
    ledger = out / "runs.jsonl"
    good = ledger.read_text().splitlines(keepends=True)
    # a cut row, and a row with a field that RunRecord does not have
    for bad in (good[1][:30] + "\n",
                json.dumps({**json.loads(good[1]), "stage": None}) + "\n"):
        ledger.write_text("".join([good[0], bad, *good[2:]]))
        with pytest.raises(ValueError,
                           match=r"runs\.jsonl:2: bad ledger line"):
            load_ledger(out)


def test_traced_cell_scores_final_boundaries_once(toy, tmp_path,
                                                   monkeypatch):
    import incseg.criteria as criteria_mod
    corpus, gold = toy
    calls = []
    real = criteria_mod.evaluate

    def counted(st_):
        calls.append(st_)
        return real(st_)

    monkeypatch.setattr(criteria_mod, "evaluate", counted)
    spec = GridSpec((0.0,), (0.0,), ("xlogx",))
    rec, = run_grid(corpus, gold, spec, tmp_path / "g", trace=True)
    rows = (tmp_path / "g" / rec.trace_file).read_text().splitlines()
    assert len(calls) == len(rows)  # one per snapshot, none more
    bounds = load_boundaries(tmp_path / "g" / rec.boundary_file)
    assert rec.criteria == {cid: cv.value for cid, cv in
                            real(char_table(corpus, bounds)).items()}



def test_traced_cells_six_digits_apart_keep_their_own_files(toy, tmp_path):
    corpus, gold = toy
    spec = GridSpec(parse_range("1:1.0000002:0.0000001"), (0.0,), ("xlogx",))
    assert spec.alphas == (1.0, 1.0000001)
    records = run_grid(corpus, gold, spec, tmp_path / "g", trace=True)
    files = [r.trace_file for r in records]
    assert len(set(files)) == 2
    assert files[0] == "traces/xlogx_a1_b0.jsonl"  # :g spelling kept
    for rec in records:
        row = json.loads((tmp_path / "g" / rec.trace_file).read_text()
                         .splitlines()[-1])
        assert row["iteration"] == rec.iterations
        assert row["objective"] == rec.objective

@pytest.mark.parametrize("trace, mode", [(False, "none"),
                                         (True, "criteria")])
def test_cell_trace_mode_follows_trace_alone(toy, tmp_path, monkeypatch,
                                             trace, mode):
    import incseg.learner as learner_mod
    corpus, gold = toy
    seen = []
    real = learner_mod.run

    def spy(corpus_, params, options, gold=None):
        seen.append(options.trace_mode)
        return real(corpus_, params, options, gold=gold)

    monkeypatch.setattr(learner_mod, "run", spy)
    spec = GridSpec((0.0,), (0.0,), ("xlogx",))
    for i, options in enumerate((None, LearnerOptions(trace_mode="light"),
                                 LearnerOptions(trace_mode="criteria"))):
        run_grid(corpus, gold, spec, tmp_path / f"g{i}", options=options,
                 trace=trace)
    assert seen == [mode] * 3


def test_grid_parallel_matches_serial(toy, tmp_path):
    corpus, gold = toy
    serial = run_grid(corpus, gold, small_grid_spec(), tmp_path / "s")
    parallel = run_grid(corpus, gold, small_grid_spec(), tmp_path / "p",
                        jobs=2)
    for a, b in zip(serial, parallel):
        assert a.key() == b.key()
        assert a.criteria == b.criteria
        assert a.boundary_digest == b.boundary_digest
        assert a.metrics == b.metrics


def test_grid_pool_has_no_more_workers_than_cells(toy, tmp_path,
                                                  monkeypatch):
    import incseg.search as search_mod
    corpus, gold = toy
    started = []

    class FakePool:
        """Runs the cells in this process, as ``imap_unordered`` would."""

        def __init__(self, processes):
            started.append(processes)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def imap_unordered(self, fn, cells):
            return map(fn, cells)

    class FakeContext:
        Pool = FakePool

    monkeypatch.setattr(search_mod, "get_context", lambda method: FakeContext)
    spec = small_grid_spec()
    run_grid(corpus, gold, spec, tmp_path / "g", jobs=8)
    assert started == [4]
    # a resume with three cells left starts three workers
    ledger = tmp_path / "g" / "runs.jsonl"
    lines = ledger.read_text(encoding="utf-8").splitlines(keepends=True)
    ledger.write_text(lines[0], encoding="utf-8")
    assert len(run_grid(corpus, gold, spec, tmp_path / "g", jobs=8)) == 4
    assert started == [4, 3]
    assert not search_mod._WORK  # the grid's inputs are not kept after it


def test_select_family_minimum_and_ties(toy, tmp_path):
    corpus, gold = toy
    records = run_grid(corpus, gold, small_grid_spec(), tmp_path / "g")
    best = select_family_minimum(records, "mdl2")
    assert best.criteria["mdl2"] == min(r.criteria["mdl2"] for r in records)
    only = select_family_minimum([records[0]], "mdl2")
    assert only is records[0]
    with pytest.raises(ValueError):
        select_family_minimum([], "mdl2")
    with pytest.raises(ValueError):
        select_family_minimum(records, "mdl9")


def test_select_tie_break_lexicographic():
    def rec(alpha, beta, value):
        return RunRecord(alpha=alpha, beta=beta, penalty="xlogx", n_max=2,
                         iterations=0, stopped="converged", objective=0.0,
                         n_tokens=1, n_types=1, n_boundaries=0,
                         criteria={"mdl2": value}, metrics=None,
                         boundary_digest="", boundary_file="",
                         trace_file=None, wall_time=0.0)

    records = [rec(1.0, 0.0, 5.0), rec(0.5, 9.0, 5.0), rec(0.5, 1.0, 5.0)]
    assert select_family_minimum(records, "mdl2").beta == 1.0
    top = select_top_k(records, "mdl2", 3)
    assert [(r.alpha, r.beta) for r in top] == [(0.5, 1.0), (0.5, 9.0),
                                                (1.0, 0.0)]


def test_select_top_k(toy, tmp_path):
    corpus, gold = toy
    records = run_grid(corpus, gold, small_grid_spec(), tmp_path / "g")
    top = select_top_k(records, "aic3", 3)
    vals = [r.criteria["aic3"] for r in top]
    assert vals == sorted(vals)
    assert select_top_k(records, "aic3", 1)[0] == select_family_minimum(
        records, "aic3")
    with pytest.raises(ValueError):
        select_top_k(records, "aic3", 99)
    for k in (0, -1):
        with pytest.raises(ValueError, match="k must be at least 1"):
            select_top_k(records, "aic3", k)


def test_export_heatmap(toy, tmp_path):
    corpus, gold = toy
    records = run_grid(corpus, gold, small_grid_spec(), tmp_path / "g")
    alphas, betas, rows = export_heatmap(records, "tokenF")
    assert alphas == [0.0, 0.4] and betas == [0.0, 0.4]
    assert len(rows) == 2 and len(rows[0]) == 2
    # log transform keeps the argmin cell
    _, _, raw = export_heatmap(records, "mdl2")
    _, _, logged = export_heatmap(records, "mdl2", log_transform=True)
    flat = [v for row in raw for v in row]
    flat_log = [v for row in logged for v in row]
    assert flat.index(min(flat)) == flat_log.index(min(flat_log))
    out = tmp_path / "hm.csv"
    write_heatmap_csv(alphas, betas, rows, out)
    lines = out.read_text().strip().split("\n")
    assert len(lines) == 3 and lines[0].startswith("beta/alpha,")


def test_export_heatmap_rejects_ragged(toy, tmp_path):
    corpus, gold = toy
    records = run_grid(corpus, gold, small_grid_spec(), tmp_path / "g")
    with pytest.raises(ValueError):
        export_heatmap(records[:-1], "tokenF")
    mixed = records + run_grid(corpus, gold,
                               GridSpec((0.0,), (0.0,), ("xsquared",)),
                               tmp_path / "g2")
    with pytest.raises(ValueError):
        export_heatmap(mixed, "tokenF")


def test_heatmap_requires_gold_for_f(toy, tmp_path):
    corpus, _ = toy
    records = run_grid(corpus, None, small_grid_spec(), tmp_path / "g")
    with pytest.raises(ValueError):
        export_heatmap(records, "tokenF")
    export_heatmap(records, "mdl2")  # criteria never need gold
    with pytest.raises(ValueError, match="unknown quantity 'foo'"):
        export_heatmap(records, "foo")


def test_correlation_rows_need_gold_and_a_trace(toy, tmp_path):
    corpus, _ = toy
    run_grid(corpus, None, GridSpec((0.0,), (0.0,)), tmp_path / "g")
    with pytest.raises(RuntimeError, match="records lack gold metrics"):
        correlation_rows(tmp_path / "g", "outputs")
    with pytest.raises(RuntimeError, match="no traced snapshots found"):
        correlation_rows(tmp_path / "g", "trace")
    with pytest.raises(RuntimeError, match="no records in"):
        correlation_rows(tmp_path / "empty", "outputs")
    with pytest.raises(ValueError, match="unknown population 'output'"):
        correlation_rows(tmp_path / "g", "output")


def test_staged_search(toy, tmp_path):
    corpus, gold = toy
    final, records = staged_search(corpus, gold, "mdl2",
                                   alphas=(0.0, 0.3, 0.6), betas=(0.0, 0.3),
                                   out_dir=tmp_path / "st", beta0=0.3)
    # stage 1 swept alpha at beta0
    assert [(r.alpha, r.beta) for r in records[:3]] == [(0.0, 0.3), (0.3, 0.3),
                                                        (0.6, 0.3)]
    assert final.criteria["mdl2"] <= min(
        r.criteria["mdl2"] for r in records if r.alpha == final.alpha)
    # the final record came from the beta sweep at the stage-1 winner alpha
    assert final.beta in (0.0, 0.3)
    with pytest.raises(ValueError):
        staged_search(corpus, gold, "nope", (0.0,), (0.0,),
                      tmp_path / "st2")


def test_staged_runs_each_cell_once(toy, tmp_path, monkeypatch):
    import incseg.learner as learner_mod
    corpus, gold = toy
    ran = []
    real = learner_mod.run

    def counted(corpus_, params, options, gold=None):
        ran.append((params.kind, params.alpha, params.beta))
        return real(corpus_, params, options, gold=gold)

    monkeypatch.setattr(learner_mod, "run", counted)
    final, records = staged_search(corpus, gold, "mdl2",
                                   alphas=(0.0, 0.3, 0.6), betas=(0.0, 0.3),
                                   out_dir=tmp_path / "st", beta0=0.3)
    keys = [r.key() for r in records]
    assert len(ran) == 4 and sorted(ran) == sorted(keys)
    assert len(set(keys)) == 4
    # the same final as a stage 2 that reruns the stage-1 winner's cell
    assert final.alpha == select_family_minimum(records[:3], "mdl2").alpha
    stage2 = [r for r in records if r.alpha == final.alpha]
    assert {r.beta for r in stage2} == {0.0, 0.3}
    assert final == select_family_minimum(stage2, "mdl2")
    assert (tmp_path / "st" / final.boundary_file).exists()


def test_staged_degenerate_single_point(toy, tmp_path):
    corpus, gold = toy
    final, records = staged_search(corpus, gold, "mdl2", (0.2,), (0.2,),
                                   tmp_path / "st3", beta0=0.2)
    assert final.alpha == 0.2 and final.beta == 0.2
    assert records == [final]  # stage 2 has no cell of its own to run


def test_boundary_file_roundtrip(tmp_path):
    bounds = {3, 10, 11, 500}
    digest, rel = save_boundaries(bounds, tmp_path)
    assert load_boundaries(tmp_path / rel).tolist() == sorted(bounds)
    digest2, rel2 = save_boundaries(bounds, tmp_path)
    assert digest == digest2 and rel == rel2


@pytest.mark.parametrize("bounds", [{-5, 3}, np.array([3, 2**32])])
def test_boundary_file_refuses_what_uint32_cannot_hold(tmp_path, bounds):
    with pytest.raises(ValueError, match="outside 1..4294967295"):
        save_boundaries(bounds, tmp_path)
    assert list(tmp_path.iterdir()) == []


def test_boundary_file_never_left_half_written(tmp_path, monkeypatch):
    import numpy as np

    def crash(fh, arr):
        fh.write(b"\x93NUMPY")
        raise OSError("disk full")

    with monkeypatch.context() as mp:
        mp.setattr(np, "save", crash)
        with pytest.raises(OSError):
            save_boundaries({3, 10}, tmp_path)
    assert list(tmp_path.iterdir()) == []  # no final name, no leftover
    digest, rel = save_boundaries({3, 10}, tmp_path)
    assert load_boundaries(tmp_path / rel).tolist() == [3, 10]


def test_ledger_roundtrip(toy, tmp_path):
    corpus, gold = toy
    records = run_grid(corpus, gold, small_grid_spec(), tmp_path / "g")
    loaded = load_ledger(tmp_path / "g")
    assert [r.key() for r in loaded] == [r.key() for r in records]
    assert loaded[0].criteria == records[0].criteria


def test_failed_cell_recorded_and_retried(toy, tmp_path, monkeypatch):
    import incseg.search as search_mod
    corpus, gold = toy
    out = tmp_path / "g"
    real = search_mod._execute_cell

    def flaky(corpus_, gold_, options, out_dir, kind, alpha, beta):
        if alpha == 0.4 and beta == 0.0:
            raise RuntimeError("injected failure")
        return real(corpus_, gold_, options, out_dir, kind, alpha, beta)

    monkeypatch.setattr(search_mod, "_execute_cell", flaky)
    records = run_grid(corpus, gold, small_grid_spec(), out)
    assert len(records) == 3  # grid continued past the failure
    errors = (out / "errors.jsonl").read_text()
    assert "injected failure" in errors
    # the failed cell is not marked done: a later resume completes it
    monkeypatch.setattr(search_mod, "_execute_cell", real)
    records = run_grid(corpus, gold, small_grid_spec(), out)
    assert len(records) == 4
