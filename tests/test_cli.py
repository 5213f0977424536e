"""End-to-end command-line behavior on a tiny corpus."""

import json
from pathlib import Path

import pytest

from incseg.cli import main

from conftest import toy_text


@pytest.fixture
def corpus_file(tmp_path):
    p = tmp_path / "toy.txt"
    p.write_text(toy_text(60, seed=5), encoding="utf-8")
    return p


def test_segment_writes_output_and_manifest(corpus_file, tmp_path, capsys):
    out = tmp_path / "seg.txt"
    rc = main(["segment", str(corpus_file), "--alpha", "0.2", "--beta", "0.2",
               "--out", str(out)])
    assert rc == 0
    assert out.exists()
    assert out.with_suffix(".txt.json").exists()
    manifest = json.loads(
        out.with_suffix(".txt.manifest.json").read_text())
    assert manifest["tool"] == "incseg"
    assert manifest["corpus"]["sha256"]
    assert manifest["flags"]["alpha"] == 0.2


def test_segment_then_eval_roundtrip(corpus_file, tmp_path, capsys):
    out = tmp_path / "seg.txt"
    main(["segment", str(corpus_file), "--out", str(out), "--stop-at", "5"])
    capsys.readouterr()
    rc = main(["eval", "--hyp", str(out), "--gold", str(corpus_file),
               "--report", "json"])
    assert rc == 0
    report = json.loads(capsys.readouterr().out)
    assert set(report) == {"token", "boundary", "lexicon"}


def test_eval_gold_vs_gold_is_perfect(corpus_file, capsys):
    rc = main(["eval", "--hyp", str(corpus_file), "--gold", str(corpus_file),
               "--report", "tsv"])
    assert rc == 0
    lines = capsys.readouterr().out.strip().split("\n")
    assert lines[0] == "level\tP\tR\tF"
    for line in lines[1:]:
        level, p, r, f = line.split("\t")
        assert p == r == f == "100.0"


def test_eval_mismatched_streams_errors(corpus_file, tmp_path, capsys):
    other = tmp_path / "other.txt"
    other.write_text("completely different\n", encoding="utf-8")
    rc = main(["eval", "--hyp", str(other), "--gold", str(corpus_file)])
    assert rc == 1
    assert "error" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["eval", "ensemble"])
@pytest.mark.parametrize("hyp", ["ab cdef gh\n", "abc\ndefgh\n"])
def test_misaligned_lines_are_one_line_error(tmp_path, capsys, command, hyp):
    gold, seg = tmp_path / "gold.txt", tmp_path / "hyp.txt"
    gold.write_text("ab cd\nef gh\n", encoding="utf-8")
    seg.write_text(hyp, encoding="utf-8")
    argv = {"eval": ["--gold", str(gold), "--hyp", str(seg)],
            "ensemble": ["--inputs", str(gold), str(seg),
                         "--out", str(tmp_path / "v.txt")]}[command]
    assert main([command, *argv]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and str(seg) in err[0], err
    assert not (tmp_path / "v.txt").exists()


def test_unknown_flag_exits_2(corpus_file):
    with pytest.raises(SystemExit) as exc:
        main(["segment", str(corpus_file), "--frobnicate"])
    assert exc.value.code == 2


def test_bare_trailing_config_exits_2(corpus_file, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["segment", str(corpus_file), "--config"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.splitlines() == ["incseg: error: --config needs a file path"]


def test_grid_select_ensemble_eval_pipeline(corpus_file, tmp_path, capsys):
    grid_dir = tmp_path / "grid"
    rc = main(["grid", str(corpus_file), "--alpha", "0:0.4:0.4",
               "--beta", "0:0.4:0.4", "--penalty", "xlogx",
               "--out", str(grid_dir)])
    assert rc == 0
    assert (grid_dir / "runs.jsonl").exists()

    rc = main(["select", "--ledger", str(grid_dir), "--criterion", "mdl2",
               "--top", "3", "--out", str(tmp_path / "sel.json")])
    assert rc == 0
    chosen = json.loads((tmp_path / "sel.json").read_text())
    assert len(chosen) == 3
    vals = [c["value"] for c in chosen]
    assert vals == sorted(vals)

    # write segmentations for the top 3 and vote them
    from incseg.corpus import load_gold, write_segmentation
    from incseg.search import load_boundaries
    corpus, _ = load_gold(corpus_file, "brent")
    seg_paths = []
    for i, c in enumerate(chosen):
        bounds = load_boundaries(grid_dir / c["boundary_file"])
        p = tmp_path / f"seg{i}.txt"
        write_segmentation(bounds, corpus, p)
        seg_paths.append(str(p))
    rc = main(["ensemble", "--inputs", *seg_paths,
               "--out", str(tmp_path / "voted.txt")])
    assert rc == 0
    rc = main(["eval", "--hyp", str(tmp_path / "voted.txt"),
               "--gold", str(corpus_file), "--report", "json"])
    assert rc == 0


def test_grid_trace_and_correlate(corpus_file, tmp_path, capsys):
    grid_dir = tmp_path / "grid"
    main(["grid", str(corpus_file), "--alpha", "0:0.4:0.2",
          "--beta", "0:0.2:0.2", "--out", str(grid_dir), "--trace",
          "--trace-every", "2"])
    rc = main(["correlate", "--ledger", str(grid_dir),
               "--population", "outputs"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "mdl2" in out and "population=outputs" in out
    rc = main(["correlate", "--ledger", str(grid_dir),
               "--population", "trace",
               "--scatter-out", str(tmp_path / "scatter")])
    assert rc == 0
    assert (tmp_path / "scatter" / "mdl2.csv").exists()


def test_heatmap_csv(corpus_file, tmp_path, capsys):
    grid_dir = tmp_path / "grid"
    main(["grid", str(corpus_file), "--alpha", "0:0.4:0.4",
          "--beta", "0:0.4:0.4", "--out", str(grid_dir)])
    out = tmp_path / "hm.csv"
    rc = main(["heatmap", "--ledger", str(grid_dir), "--quantity", "tokenF",
               "--out", str(out)])
    assert rc == 0
    assert out.read_text().startswith("beta/alpha,")
    rc = main(["heatmap", "--ledger", str(grid_dir), "--quantity", "mdl2",
               "--log", "--out", str(tmp_path / "hm2.csv")])
    assert rc == 0


def test_staged_cli(corpus_file, tmp_path, capsys):
    rc = main(["staged", str(corpus_file), "--alpha", "0:0.4:0.4",
               "--beta", "0:0.4:0.4", "--beta0", "0.4",
               "--criterion", "mdl2", "--out", str(tmp_path / "staged")])
    assert rc == 0
    found = json.loads(capsys.readouterr().out.strip().split("\n")[-1])
    assert {"alpha", "beta", "criterion", "value"} <= set(found)


def test_dump_lexicon(corpus_file, tmp_path):
    out = tmp_path / "lex.json"
    rc = main(["dump-lexicon", str(corpus_file), "--alpha", "0.2",
               "--beta", "0.2", "--out", str(out)])
    assert rc == 0
    rows = json.loads(out.read_text())
    assert all({"id", "surface", "components", "count"} <= set(r)
               for r in rows)
    assert any(r["components"] for r in rows)


def test_config_file_defaults(corpus_file, tmp_path):
    cfg = tmp_path / "incseg.cfg"
    cfg.write_text("# learner\nalpha = 0.2\n\n  \nbeta = 0.3\n  # cap\n"
                   "stop-at = 3\n")
    out = tmp_path / "seg.txt"
    rc = main(["segment", str(corpus_file), "--config", str(cfg),
               "--beta", "0.1", "--out", str(out)])
    assert rc == 0
    manifest = json.loads(out.with_suffix(".txt.manifest.json").read_text())
    assert manifest["flags"]["alpha"] == 0.2   # from config
    assert manifest["flags"]["beta"] == 0.1    # flag wins over config
    assert manifest["flags"]["stop_at"] == 3


def test_config_file_not_utf8_exits_2(corpus_file, tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_bytes(b"alpha = \xff\n")
    with pytest.raises(SystemExit) as exc:
        main(["segment", str(corpus_file), f"--config={cfg}",
              "--out", str(tmp_path / "s.txt")])
    assert exc.value.code == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and str(cfg) in err[0], err
    assert not (tmp_path / "s.txt").exists()


def test_missing_config_file_exits_2(corpus_file, tmp_path, capsys):
    cfg = tmp_path / "none.cfg"
    with pytest.raises(SystemExit) as exc:
        main(["segment", str(corpus_file), "--config", str(cfg),
              "--out", str(tmp_path / "s.txt")])
    assert exc.value.code == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and str(cfg) in err[0], err
    assert not (tmp_path / "s.txt").exists()


def test_grid_penalty_given_twice_runs_once(corpus_file, tmp_path, capsys):
    grid = tmp_path / "grid"
    assert main(["grid", str(corpus_file), "--alpha", "0", "--beta", "0",
                 "--penalty", "x2", "xsquared", "--out", str(grid)]) == 0
    assert "1/1 grid cells complete" in capsys.readouterr().out
    assert len((grid / "runs.jsonl").read_text().splitlines()) == 1


def test_ensemble_sidecar_holds_the_vote(corpus_file, tmp_path, capsys):
    from incseg.corpus import load_gold, write_segmentation
    from incseg.ensemble import majority_vote
    corpus, gold = load_gold(corpus_file, "brent")
    sets = [gold.boundaries, corpus.block_edges(), gold.boundaries[::2]]
    inputs = []
    for i, bounds in enumerate(sets):
        inputs.append(str(tmp_path / f"seg{i}.txt"))
        write_segmentation(bounds, corpus, inputs[-1])
    out = tmp_path / "voted.txt"
    assert main(["ensemble", "--inputs", *inputs, "--out", str(out)]) == 0
    # json.dumps refuses an np.int64, so the sidecar was written from ints
    meta = json.loads(out.with_suffix(".txt.json").read_text())
    want = sorted(majority_vote(sets, corpus.block_edges(), corpus.n_chars))
    assert meta["boundaries"] == want
    assert load_gold(out, "brent")[1].boundaries.tolist() == want


def test_segment_trace_output(corpus_file, tmp_path):
    trace = tmp_path / "trace.jsonl"
    rc = main(["segment", str(corpus_file), "--out",
               str(tmp_path / "seg.txt"), "--trace-every", "2",
               "--trace-out", str(trace)])
    assert rc == 0
    rows = [json.loads(l) for l in trace.read_text().splitlines()]
    assert rows and all("objective" in r for r in rows)


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0


def test_select_bits_option(corpus_file, tmp_path, capsys):
    import math
    grid_dir = tmp_path / "grid"
    main(["grid", str(corpus_file), "--alpha", "0.2", "--beta", "0.2",
          "--out", str(grid_dir)])
    capsys.readouterr()
    main(["select", "--ledger", str(grid_dir), "--criterion", "mdl2"])
    nats = json.loads(capsys.readouterr().out)[0]
    main(["select", "--ledger", str(grid_dir), "--criterion", "mdl2",
          "--bits"])
    bits = json.loads(capsys.readouterr().out)[0]
    assert bits["unit"] == "bits"
    assert bits["value"] == pytest.approx(nats["value"] / math.log(2))


def test_sighan_punct_hard_pipeline(tmp_path, capsys):
    gold = tmp_path / "zh.txt"
    gold.write_text(
        "今天 天气 好 ， 我们 "
        "出去 玩 。\n"
        "好 的 ！\n", encoding="utf-8")
    out = tmp_path / "seg.txt"
    rc = main(["segment", str(gold), "--format", "sighan", "--punct-hard",
               "--alpha", "0.1", "--beta", "0.1", "--out", str(out)])
    assert rc == 0
    text = out.read_text(encoding="utf-8")
    assert "，" in text and "。" in text  # punctuation restored
    capsys.readouterr()
    rc = main(["eval", "--hyp", str(out), "--gold", str(gold),
               "--format", "sighan", "--punct-hard", "--report", "json"])
    assert rc == 0
    report = json.loads(capsys.readouterr().out)
    assert 0.0 <= report["token"]["f"] <= 100.0
    # identity check: the gold evaluated against itself is perfect
    capsys.readouterr()
    main(["eval", "--hyp", str(gold), "--gold", str(gold),
          "--format", "sighan", "--punct-hard"])
    report = json.loads(capsys.readouterr().out)
    assert report["token"]["f"] == 100.0


def test_config_equals_spelling(corpus_file, tmp_path):
    cfg = tmp_path / "a.cfg"
    cfg.write_text("alpha = 0.7\n")
    manifests = []
    for i, spelling in enumerate((["--config", str(cfg)],
                                  [f"--config={cfg}"])):
        out = tmp_path / f"seg{i}.txt"
        rc = main(["segment", str(corpus_file), *spelling, "--stop-at", "3",
                   "--out", str(out)])
        assert rc == 0
        manifest = json.loads(
            out.with_suffix(".txt.manifest.json").read_text())
        manifests.append({k: v for k, v in manifest["flags"].items()
                          if k != "out"})
    assert manifests[0]["alpha"] == 0.7
    assert manifests[0] == manifests[1]


def test_config_multi_value_and_switch(corpus_file, tmp_path):
    cfg = tmp_path / "grid.cfg"
    cfg.write_text("penalty = xlogx x2\nalpha = 0.2\nbeta = 0.2\n"
                   "trace = true\nstop-at = 4\n")
    out = tmp_path / "grid"
    rc = main(["grid", str(corpus_file), "--config", str(cfg),
               "--out", str(out)])
    assert rc == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["flags"]["penalty"] == ["xlogx", "x2"]
    assert manifest["flags"]["trace"] is True
    ledger = [json.loads(l) for l in (out / "runs.jsonl").read_text()
              .splitlines()]
    assert sorted(r["penalty"] for r in ledger) == ["xlogx", "xsquared"]
    assert all(r["trace_file"] for r in ledger)


@pytest.mark.parametrize("entry", ["penalty = foo", "aplha = 1",
                                   "max-iters = 3", "trace = maybe",
                                   "alpha 0.2"])
def test_bad_config_entry_exits_2(corpus_file, tmp_path, capsys, entry):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(entry + "\n")
    with pytest.raises(SystemExit) as exc:
        main(["grid", str(corpus_file), "--config", str(cfg),
              "--out", str(tmp_path / "grid")])
    assert exc.value.code == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("incseg: error: ")
    assert not (tmp_path / "grid").exists()


def test_trace_rows_pinned_key_order(corpus_file, tmp_path):
    base = ["iteration", "objective", "n_tokens", "n_types", "n_boundaries"]
    trace = tmp_path / "trace.jsonl"
    main(["segment", str(corpus_file), "--out", str(tmp_path / "seg.txt"),
          "--trace-every", "2", "--trace-out", str(trace),
          "--trace-snapshots"])
    rows = [json.loads(l) for l in trace.read_text().splitlines()]
    assert rows and all(list(r) == base + ["boundary_snapshot"]
                        for r in rows)
    with open(rows[-1]["boundary_snapshot"], encoding="utf-8") as fh:
        snap = json.load(fh)
    assert snap == sorted(json.loads(
        (tmp_path / "seg.txt.json").read_text())["boundaries"])
    grid_dir = tmp_path / "grid"
    main(["grid", str(corpus_file), "--alpha", "0.2", "--beta", "0.2",
          "--out", str(grid_dir), "--trace", "--trace-every", "2"])
    rec = json.loads((grid_dir / "runs.jsonl").read_text())
    rows = [json.loads(l)
            for l in (grid_dir / rec["trace_file"]).read_text().splitlines()]
    assert rows and all(list(r) == base + ["criteria", "token_f"]
                        for r in rows)


@pytest.mark.parametrize("argv", [
    ["grid", "--alpha=-1", "--beta", "0"],
    ["grid", "--alpha", "0", "--beta", "0:0.4:0.2", "--penalty", "x2",
     "xlogx", "--beta=-0.2"],
    ["staged", "--alpha", "0:0.4:0.2", "--beta=-1"],
    ["staged", "--alpha", "0", "--beta", "0", "--beta0=-1"],
])
def test_bad_penalty_range_is_one_line_error(corpus_file, tmp_path, capsys,
                                              argv):
    out = tmp_path / "out"
    rc = main([argv[0], str(corpus_file), *argv[1:], "--out", str(out)])
    assert rc != 0
    err = capsys.readouterr().err.splitlines()
    assert err == ["incseg: error: alpha and beta must be finite and >= 0"]
    assert not out.exists()


@pytest.mark.parametrize("top", ["0", "-1"])
def test_select_rejects_top_below_one(corpus_file, tmp_path, capsys, top):
    grid_dir = tmp_path / "grid"
    main(["grid", str(corpus_file), "--alpha", "0:0.4:0.4", "--beta", "0",
          "--out", str(grid_dir)])
    capsys.readouterr()
    rc = main(["select", "--ledger", str(grid_dir), "--criterion", "mdl2",
               "--top", top])
    assert rc != 0
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [
        f"incseg: error: k must be at least 1, got {top}"]


@pytest.mark.parametrize("command",
                         ["dump-lexicon", "staged", "segment", "grid"])
def test_trace_every_only_on_traced_commands(corpus_file, tmp_path, capsys,
                                             command):
    # segment traces only with --trace-out, grid only with --trace
    out = tmp_path / "out"
    argv = [command, str(corpus_file), "--out", str(out),
            "--trace-every", "2"]
    if command in ("staged", "grid"):
        argv += ["--alpha", "0", "--beta", "0"]
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("incseg: error: ")
    assert not out.exists()


@pytest.mark.parametrize("every", ["0", "-5"])
def test_trace_every_below_one_is_one_line_error(corpus_file, tmp_path,
                                                 capsys, every):
    rc = main(["segment", str(corpus_file), "--out", str(tmp_path / "s.txt"),
               "--trace-out", str(tmp_path / "t.jsonl"),
               "--trace-every", every])
    assert rc != 0
    assert capsys.readouterr().err.splitlines() == [
        f"incseg: error: trace interval must be at least 1, got {every}"]
    assert list(tmp_path.iterdir()) == [corpus_file]



@pytest.mark.parametrize("from_config", [False, True])
def test_trace_snapshots_needs_trace_out(corpus_file, tmp_path, capsys,
                                         from_config):
    out = tmp_path / "s.txt"
    argv = ["segment", str(corpus_file), "--out", str(out)]
    if from_config:
        cfg = tmp_path / "seg.cfg"
        cfg.write_text("trace-snapshots = true\n", encoding="utf-8")
        argv += ["--config", str(cfg)]
    else:
        argv.append("--trace-snapshots")
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert capsys.readouterr().err.splitlines() == [
        "incseg: error: --trace-snapshots needs --trace-out"]
    assert not out.exists()

REQUIRED_FROM_CONFIG = {  # command: (other words, required flag entries)
    "grid": (["{corpus}", "--alpha", "0", "--beta", "0"], {"out": "{tmp}/g"}),
    "staged": (["{corpus}"], {"alpha": "0", "beta": "0", "out": "{tmp}/st"}),
    "select": ([], {"ledger": "{grid}", "criterion": "mdl2"}),
    "ensemble": ([], {"inputs": "{corpus} {corpus}", "out": "{tmp}/v.txt"}),
    "eval": ([], {"hyp": "{corpus}", "gold": "{corpus}"}),
}


@pytest.mark.parametrize("command", list(REQUIRED_FROM_CONFIG))
def test_required_flags_from_config(corpus_file, tmp_path, capsys, command):
    argv, entries = REQUIRED_FROM_CONFIG[command]
    grid = tmp_path / "grid"
    if command == "select":
        main(["grid", str(corpus_file), "--alpha", "0", "--beta", "0",
              "--out", str(grid)])

    def fill(v):
        return v.format(corpus=corpus_file, tmp=tmp_path, grid=grid)

    argv = [command, *map(fill, argv)]
    capsys.readouterr()
    with pytest.raises(SystemExit) as exc:
        main(argv)  # missing from both the command line and a config
    assert exc.value.code == 2
    err = capsys.readouterr().err.splitlines()
    assert err == ["incseg: error: the following arguments are required: "
                   + ", ".join(f"--{k}" for k in entries)]
    cfg = tmp_path / "req.cfg"
    cfg.write_text("".join(f"{k} = {fill(v)}\n" for k, v in entries.items()))
    assert main([*argv, "--config", str(cfg)]) == 0


def test_punct_set_alone_splits_blocks_in_every_command(tmp_path, capsys):
    gold = tmp_path / "zh.txt"
    gold.write_text("今天 天气 好 ， 我们 出去 玩 。\n好 的 ！\n",
                    encoding="utf-8")
    punct = ["--format", "sighan", "--punct-set", "，"]
    seg = tmp_path / "seg.txt"
    grid = tmp_path / "grid"
    voted = tmp_path / "voted.txt"
    assert main(["segment", str(gold), *punct, "--out", str(seg)]) == 0
    assert main(["grid", str(gold), *punct, "--alpha", "0", "--beta", "0",
                 "--out", str(grid)]) == 0
    assert main(["ensemble", "--inputs", str(seg), str(gold), *punct,
                 "--out", str(voted)]) == 0
    manifests = [seg.with_suffix(".txt.manifest.json"),
                 grid / "manifest.json",
                 voted.with_suffix(".txt.manifest.json")]
    blocks = [json.loads(m.read_text())["corpus"]["n_blocks"]
              for m in manifests]
    assert blocks == [3, 3, 3]
    assert json.loads(seg.with_suffix(".txt.json").read_text())[
        "n_blocks"] == 3
    capsys.readouterr()
    assert main(["eval", "--hyp", str(seg), "--gold", str(gold),
                 *punct]) == 0
    report = json.loads(capsys.readouterr().out)
    assert 0.0 <= report["token"]["f"] <= 100.0


@pytest.mark.parametrize("argv, message", [
    (["segment", "--stop-at", "-5"], "stop_at must be >= 0, got -5"),
    (["grid", "--nmax", "1", "--alpha", "0", "--beta", "0"],
     "n_max must be in 2..4, got 1"),
    (["grid", "--jobs", "0", "--alpha", "0", "--beta", "0"],
     "jobs must be at least 1, got 0"),
    (["staged", "--jobs", "-3", "--alpha", "0", "--beta", "0",
      "--criterion", "mdl2"], "jobs must be at least 1, got -3"),
    (["grid", "--alpha", "0:inf:1", "--beta", "0"],
     "range values must be finite, got '0:inf:1'"),
    (["staged", "--alpha", "0:1:nan", "--beta", "0"],
     "range values must be finite, got '0:1:nan'"),
])
def test_bad_learner_option_is_one_line_error(corpus_file, tmp_path, capsys,
                                              argv, message):
    rc = main([argv[0], str(corpus_file), *argv[1:],
               "--out", str(tmp_path / "out")])
    assert rc != 0
    assert capsys.readouterr().err.splitlines() == [
        f"incseg: error: {message}"]
    assert list(tmp_path.iterdir()) == [corpus_file]


def test_grid_no_resume_flag_is_gone(corpus_file, tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["grid", str(corpus_file), "--alpha", "0", "--beta", "0",
              "--no-resume", "--out", str(tmp_path / "grid")])
    assert exc.value.code == 2
    assert len(capsys.readouterr().err.splitlines()) == 1


def test_grid_resume_with_another_nmax_is_one_line_error(corpus_file,
                                                         tmp_path, capsys):
    grid = tmp_path / "grid"
    argv = ["grid", str(corpus_file), "--alpha", "0", "--beta", "0",
            "--out", str(grid)]
    assert main(argv) == 0
    ledger = (grid / "runs.jsonl").read_bytes()
    manifest = (grid / "manifest.json").read_bytes()
    capsys.readouterr()
    assert main([*argv, "--nmax", "3"]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and "n_max 2, not 3" in err[0]
    assert (grid / "runs.jsonl").read_bytes() == ledger
    assert (grid / "manifest.json").read_bytes() == manifest


def test_grid_resume_over_another_corpus_is_one_line_error(corpus_file,
                                                           tmp_path, capsys):
    grid = tmp_path / "grid"
    cell = ["--alpha", "0", "--beta", "0", "--out", str(grid)]
    assert main(["grid", str(corpus_file), *cell]) == 0
    kept = {f: (grid / f).read_bytes()
            for f in ("runs.jsonl", "manifest.json", "identity.json")}
    other = tmp_path / "toy2.txt"
    other.write_text(toy_text(60, seed=6), encoding="utf-8")
    # the same file split at a punctuation mark gives the learner another
    # stream
    for argv in ([str(other)], [str(corpus_file), "--punct-set", "a"]):
        capsys.readouterr()
        assert main(["grid", *argv, *cell]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and "corpus_sha256" in err[0], err
        assert {f: (grid / f).read_bytes() for f in kept} == kept


def test_punct_hard_reads_each_file_once(tmp_path, capsys, monkeypatch):
    gold = tmp_path / "zh.txt"
    gold.write_text("今天 天气 好 ， 我们 出去 玩 。\n好 的 ！\n",
                    encoding="utf-8")
    seg = tmp_path / "seg.txt"
    reads = []
    for name in ("read_bytes", "read_text"):
        real = getattr(Path, name)

        def counted(self, *args, _real=real, **kwargs):
            reads.append(self.name)
            return _real(self, *args, **kwargs)

        monkeypatch.setattr(Path, name, counted)
    punct = ["--format", "sighan", "--punct-hard"]
    assert main(["segment", str(gold), *punct, "--out", str(seg)]) == 0
    assert reads == ["zh.txt"]
    assert "，" in seg.read_text(encoding="utf-8")
    reads.clear()
    capsys.readouterr()
    assert main(["eval", "--hyp", str(seg), "--gold", str(gold),
                 *punct]) == 0
    assert sorted(reads) == ["seg.txt", "zh.txt"]
    report = json.loads(capsys.readouterr().out)
    assert 0.0 <= report["token"]["f"] <= 100.0


def test_heatmap_quantity_is_checked_as_a_flag(tmp_path, capsys):
    # refused before the ledger, which does not exist, is read
    out = tmp_path / "hm.csv"
    with pytest.raises(SystemExit) as exc:
        main(["heatmap", "--ledger", str(tmp_path / "none"),
              "--quantity", "foo", "--out", str(out)])
    assert exc.value.code == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and "'foo'" in err[0], err
    assert not out.exists()


def test_heatmap_without_records_names_ledger_and_kind(corpus_file,
                                                       tmp_path, capsys):
    grid = tmp_path / "grid"
    assert main(["grid", str(corpus_file), "--alpha", "0", "--beta", "0",
                 "--out", str(grid)]) == 0
    for ledger in (tmp_path, grid):
        capsys.readouterr()
        assert main(["heatmap", "--ledger", str(ledger), "--penalty", "x2",
                     "--out", str(tmp_path / "hm.csv")]) == 1
        assert capsys.readouterr().err.splitlines() == [
            f"incseg: error: {ledger / 'runs.jsonl'} holds no xsquared "
            "records"]


def test_heatmap_of_a_ledger_field_and_its_log(corpus_file, tmp_path,
                                               capsys):
    grid = tmp_path / "grid"
    assert main(["grid", str(corpus_file), "--alpha", "0:0.4:0.4",
                 "--beta", "0", "--stop-at", "0", "--out", str(grid)]) == 0
    rows = [json.loads(line)
            for line in (grid / "runs.jsonl").read_text().splitlines()]
    out = tmp_path / "it.csv"
    assert main(["heatmap", "--ledger", str(grid), "--quantity",
                 "iterations", "--out", str(out)]) == 0
    assert out.read_text().splitlines()[1:] == [
        "0.0," + ",".join(repr(float(r["iterations"])) for r in rows)]
    capsys.readouterr()
    assert main(["heatmap", "--ledger", str(grid), "--quantity",
                 "iterations", "--log", "--out", str(out)]) == 1
    assert capsys.readouterr().err.splitlines() == [
        "incseg: error: log transform needs positive values"]


def test_select_on_a_ledger_without_rows_is_one_line_error(tmp_path,
                                                           capsys):
    (tmp_path / "runs.jsonl").write_text("")
    assert main(["select", "--ledger", str(tmp_path), "--criterion",
                 "mdl2"]) == 1
    assert capsys.readouterr().err.splitlines() == [
        f"incseg: error: no records in {tmp_path}"]


def test_grid_with_a_failed_cell_exits_1(corpus_file, tmp_path, capsys,
                                         monkeypatch):
    import incseg.search as search_mod
    real = search_mod._execute_cell

    def flaky(*args):  # (..., kind, alpha, beta)
        if args[-2:] == (0.4, 0.0):
            raise RuntimeError("injected failure")
        return real(*args)

    grid = tmp_path / "grid"
    argv = ["grid", str(corpus_file), "--alpha", "0:0.4:0.4",
            "--beta", "0:0.4:0.4", "--jobs", "1", "--out", str(grid)]
    with monkeypatch.context() as mp:
        mp.setattr(search_mod, "_execute_cell", flaky)
        assert main(argv) == 1
    assert capsys.readouterr().err.splitlines() == [
        f"incseg: 1 cells failed; see {grid / 'errors.jsonl'}"]
    assert (grid / "manifest.json").exists()

    def cells():
        return [(r["alpha"], r["beta"]) for r in map(
            json.loads, (grid / "runs.jsonl").read_text().splitlines())]

    assert sorted(cells()) == [(0.0, 0.0), (0.0, 0.4), (0.4, 0.4)]
    assert main(argv) == 0  # the resume retries the failed cell
    assert capsys.readouterr().err == ""
    assert cells()[3:] == [(0.4, 0.0)]
