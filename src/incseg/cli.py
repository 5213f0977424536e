"""Command-line interface: segment, search, combine, and evaluate.

Configuration precedence is flags > config file > defaults.  The config
file is flat ``key = value`` text; keys are long option names of the
chosen command, with dashes or underscores, and each value is checked as
that flag's value would be.  Every command that writes outputs drops a
JSON manifest (flags, corpus digest, tool version) next to them.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import NoReturn

from . import __version__
from . import criteria as _criteria
from . import ensemble as _ensemble
from . import learner as _learner
from . import metrics as _metrics
from . import search as _search
from .corpus import (CorpusError, RawCorpus, default_punctuation, load_gold,
                     write_segmentation)
from .learner import LearnerOptions, PenaltyParams

_PENALTY_NAMES = {"xlogx": "xlogx", "x2": "xsquared", "xsquared": "xsquared"}
_SWITCH_VALUES = {"1": True, "true": True, "yes": True, "on": True,
                  "0": False, "false": False, "no": False, "off": False}


class _Parser(argparse.ArgumentParser):
    """Reports a bad flag or config entry on one line and exits 2."""

    def error(self, message: str) -> NoReturn:
        self.exit(2, f"incseg: error: {message}\n")


def _add_corpus_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("corpus", help="gold-segmented input file")
    p.add_argument("--format", choices=("brent", "sighan"), default="brent")
    p.add_argument("--punct-hard", action="store_true",
                   help="treat punctuation runs as hard boundaries")
    p.add_argument("--punct-set", default=None,
                   help="characters whose runs are hard boundaries "
                        "(default with --punct-hard: Unicode category P*)")


def _add_learner_flags(p: argparse.ArgumentParser, with_penalty: bool,
                       traced: bool) -> None:
    if with_penalty:
        p.add_argument("--penalty", default="xlogx",
                       choices=tuple(_PENALTY_NAMES),
                       help="length penalty kind")
    p.add_argument("--nmax", type=int, default=2,
                   help="longest candidate n-gram (2..4)")
    p.add_argument("--stop-at", type=int, default=None,
                   help="force stop after this many iterations")
    if traced:
        p.add_argument("--trace-every", type=int, default=None,
                       help="iterations between trace records (default "
                            f"{LearnerOptions.trace_interval})")
    p.add_argument("--eq3-literal-sign", action="store_true",
                   help="subtract the model-size term instead of adding it")
    p.add_argument("--paper-literal-stop", action="store_true",
                   help="stop as soon as an improving candidate exists")


def _load(ns: argparse.Namespace, paths: list[str]):
    """The first file's corpus and each file's gold segmentation, every file
    cut with the first file's hard punctuation: the characters of
    ``--punct-set``, else with ``--punct-hard`` the Unicode P* characters of
    the first file's text, else none.  A file whose characters or block
    edges differ from the first file's is refused."""
    punct = (set(ns.punct_set) if ns.punct_set is not None
             else default_punctuation if getattr(ns, "punct_hard", False)
             else None)
    base, gold = load_gold(paths[0], ns.format, hard_punct=punct)
    if callable(punct):  # --punct-hard: the first file's P* characters
        punct = punct("".join(base.chars))
    golds, want = [gold], (base.char_string(), base.offsets.tolist())
    for path in paths[1:]:
        corpus, gold = load_gold(path, ns.format, hard_punct=punct)
        if (corpus.char_string(), corpus.offsets.tolist()) != want:
            raise RuntimeError(
                f"{path}: characters or lines differ from {paths[0]}")
        golds.append(gold)
    return base, golds


def _learner_options(ns: argparse.Namespace, **tracing) -> LearnerOptions:
    return LearnerOptions(
        n_max=ns.nmax,
        stop_at=ns.stop_at,
        complexity_sign=-1 if ns.eq3_literal_sign else 1,
        literal_stop=ns.paper_literal_stop,
        **tracing,
    )


def _params(ns: argparse.Namespace) -> PenaltyParams:
    return PenaltyParams(alpha=ns.alpha, beta=ns.beta,
                         kind=_PENALTY_NAMES[ns.penalty])


def _write_manifest(target: Path, ns: argparse.Namespace,
                    corpus: RawCorpus | None) -> None:
    flags = {k: v for k, v in vars(ns).items()
             if k not in ("func", "config") and not callable(v)}
    manifest = {"tool": "incseg", "version": __version__, "flags": flags}
    if corpus is not None:
        manifest["corpus"] = {
            "sha256": corpus.source_digest,
            "n_chars": corpus.n_chars,
            "n_blocks": len(corpus.offsets),
        }
    if target.is_dir():
        out = target / "manifest.json"
    else:
        out = target.with_suffix(target.suffix + ".manifest.json")
    out.write_text(json.dumps(manifest, indent=2, default=str),
                   encoding="utf-8")


def _cmd_segment(ns: argparse.Namespace) -> int:
    corpus, (gold,) = _load(ns, [ns.corpus])
    options = _learner_options(
        ns, trace_interval=ns.trace_every,
        trace_mode="light" if ns.trace_out else "none",
        trace_boundaries=bool(ns.trace_out and ns.trace_snapshots))
    result = _learner.run(corpus, _params(ns), options, gold=gold)
    write_segmentation(result.hypothesis.starts[1:], corpus, ns.out)
    if ns.trace_out:
        _learner.write_trace(result.trace, ns.trace_out)
    _write_manifest(Path(ns.out), ns, corpus)
    print(f"segmented {corpus.n_chars} chars in {result.iterations} "
          f"iterations ({result.stopped}); objective {result.objective:.3f}")
    return 0


def _cmd_dump_lexicon(ns: argparse.Namespace) -> int:
    corpus, _ = _load(ns, [ns.corpus])
    result = _learner.run(corpus, _params(ns),
                          _learner_options(ns, trace_mode="none"))
    seq, lex = result.hypothesis.seq, result.hypothesis.lexicon
    rows = [{"id": tid, "surface": e.surface,
             "components": list(e.components) if e.components else None,
             "count": int(seq.counts[tid])}
            for tid, e in enumerate(lex.entries)]
    Path(ns.out).write_text(json.dumps(rows, ensure_ascii=False, indent=1),
                            encoding="utf-8")
    _write_manifest(Path(ns.out), ns, corpus)
    print(f"wrote {len(rows)} lexicon entries to {ns.out}")
    return 0


def _cmd_grid(ns: argparse.Namespace) -> int:
    kinds = tuple(_PENALTY_NAMES[k] for k in ns.penalty)
    spec = _search.GridSpec(_search.parse_range(ns.alpha),
                            _search.parse_range(ns.beta), kinds)
    corpus, (gold,) = _load(ns, [ns.corpus])
    options = _learner_options(ns, trace_interval=ns.trace_every)
    records = _search.run_grid(corpus, gold, spec, ns.out, options=options,
                               jobs=ns.jobs, trace=ns.trace)
    _write_manifest(Path(ns.out), ns, corpus)
    n_cells = len(spec.cells())
    print(f"{len(records)}/{n_cells} grid cells complete in {ns.out}")
    if len(records) < n_cells:
        print(f"incseg: {n_cells - len(records)} cells failed; "
              f"see {Path(ns.out) / 'errors.jsonl'}", file=sys.stderr)
        return 1
    return 0


def _cmd_staged(ns: argparse.Namespace) -> int:
    corpus, (gold,) = _load(ns, [ns.corpus])
    options = _learner_options(ns)
    final, _records = _search.staged_search(
        corpus, gold, ns.criterion, _search.parse_range(ns.alpha),
        _search.parse_range(ns.beta), ns.out, beta0=ns.beta0,
        kind=_PENALTY_NAMES[ns.penalty], options=options, jobs=ns.jobs)
    _write_manifest(Path(ns.out), ns, corpus)
    print(json.dumps({"alpha": final.alpha, "beta": final.beta,
                      "criterion": ns.criterion,
                      "value": final.criteria[ns.criterion],
                      "boundary_file": final.boundary_file}))
    return 0


def _cmd_select(ns: argparse.Namespace) -> int:
    records = _search.load_ledger(Path(ns.ledger))
    if not records:
        raise RuntimeError(f"no records in {ns.ledger}")
    chosen = _search.select_top_k(records, ns.criterion, ns.top)
    scale = _criteria.in_bits if ns.bits else (lambda v: v)
    rows = [{"alpha": r.alpha, "beta": r.beta, "penalty": r.penalty,
             "value": scale(r.criteria[ns.criterion]),
             "unit": "bits" if ns.bits else "nats",
             "boundary_file": r.boundary_file} for r in chosen]
    text = json.dumps(rows, indent=1)
    if ns.out:
        Path(ns.out).write_text(text, encoding="utf-8")
        _write_manifest(Path(ns.out), ns, None)
    print(text)
    return 0


def _cmd_ensemble(ns: argparse.Namespace) -> int:
    base, golds = _load(ns, ns.inputs)
    voted = _ensemble.majority_vote([g.boundaries for g in golds],
                                    base.block_edges(), base.n_chars)
    write_segmentation(voted, base, ns.out)
    _write_manifest(Path(ns.out), ns, base)
    print(f"voted {len(golds)} inputs -> {len(voted)} boundaries")
    return 0


def _cmd_eval(ns: argparse.Namespace) -> int:
    corpus, (gold, hyp) = _load(ns, [ns.gold, ns.hyp])
    report = _metrics.evaluate_segmentation(corpus, gold, hyp.boundaries)
    if ns.report == "json":
        print(json.dumps(report.as_dict(), indent=1))
    else:
        print("level\tP\tR\tF")
        for level, prf in (("token", report.token),
                           ("boundary", report.boundary),
                           ("lexicon", report.lexicon)):
            p, r, f = prf.rounded()
            print(f"{level}\t{p}\t{r}\t{f}")
    return 0


def _cmd_correlate(ns: argparse.Namespace) -> int:
    rows = _search.correlation_rows(ns.ledger, ns.population)
    rep = _metrics.correlation_report(rows, list(_criteria.CRITERIA),
                                      ns.population)
    print(f"population={rep.population} n={rep.n}")
    for cid, rho in rep.rho.items():
        print(f"{cid}\t{rho:+.2f}")
    if ns.scatter_out:
        sd = Path(ns.scatter_out)
        sd.mkdir(parents=True, exist_ok=True)
        for cid, pts in rep.scatter.items():
            with (sd / f"{cid}.csv").open("w", encoding="utf-8") as fh:
                fh.write("rank,token_f\n")
                for rk, f in pts:
                    fh.write(f"{rk},{f}\n")
        _write_manifest(sd, ns, None)
    return 0


def _cmd_heatmap(ns: argparse.Namespace) -> int:
    kind = _PENALTY_NAMES[ns.penalty]
    records = [r for r in _search.load_ledger(Path(ns.ledger))
               if r.penalty == kind]
    if not records:
        raise RuntimeError(
            f"{Path(ns.ledger) / 'runs.jsonl'} holds no {kind} records")
    alphas, betas, rows = _search.export_heatmap(records, ns.quantity,
                                                 log_transform=ns.log)
    _search.write_heatmap_csv(alphas, betas, rows, ns.out)
    _write_manifest(Path(ns.out), ns, None)
    print(f"wrote {len(betas)}x{len(alphas)} grid to {ns.out}")
    return 0


def _read_config(path: str) -> dict[str, str]:
    out: dict[str, str] = {}
    for i, line in enumerate(Path(path).read_text(encoding="utf-8")
                             .splitlines(), 1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise CorpusError(f"{path}:{i}: expected key = value")
        k, v = line.split("=", 1)
        out[k.strip().replace("-", "_")] = v.strip()
    return out


def _config_defaults(parser: argparse.ArgumentParser,
                     command: argparse.ArgumentParser, argv: list[str],
                     ns: argparse.Namespace) -> dict:
    """The config file's entries, typed and checked as flags of the command.

    Each entry is written as the flag it names (a switch as the bare flag
    when true, a multi-value flag as separate words) and parsed after the
    command line, so the file's values win in that parse only.
    """
    if not ns.config:
        parser.error("--config needs a file path")
    try:
        cfg = _read_config(ns.config)
    except UnicodeDecodeError as e:
        parser.error(f"{ns.config}: invalid UTF-8: {e.reason}")
    except (CorpusError, OSError) as e:
        parser.error(str(e))
    actions = {a.dest: a for a in command._actions
               if a.dest not in ("help", "config")}
    words: list[str] = []
    for key, value in cfg.items():
        flag = "--" + key.replace("_", "-")
        if key not in actions:
            parser.error(f"{ns.config}: {flag} is not a flag of {ns.command}")
        if actions[key].nargs == 0:
            on = _SWITCH_VALUES.get(value.lower())
            if on is None:
                parser.error(f"{ns.config}: {flag} must be true or false, "
                             f"got {value!r}")
            words += [flag] if on else []
        elif actions[key].nargs == "+":
            words += [flag, *value.split()]
        else:
            words.append(f"{flag}={value}")
    typed = parser.parse_args([*argv, *words])
    return {key: getattr(typed, key) for key in cfg}


def build_parser() -> tuple[argparse.ArgumentParser,
                            dict[str, argparse.ArgumentParser]]:
    """The top-level parser and each command's parser, by command name."""
    top = _Parser(prog="incseg")
    top.add_argument("--version", action="version", version=__version__)
    sub = top.add_subparsers(dest="command", required=True)

    p = sub.add_parser("segment", help="run one compression segmentation")
    _add_corpus_flags(p)
    _add_learner_flags(p, with_penalty=True, traced=True)
    p.add_argument("--alpha", type=float, default=0.0)
    p.add_argument("--beta", type=float, default=0.0)
    p.add_argument("--out", default="segmented.txt")
    p.add_argument("--trace-out", default=None, help="JSON-lines trace path")
    p.add_argument("--trace-snapshots", action="store_true",
                   help="also write boundary snapshots per trace record")
    p.set_defaults(func=_cmd_segment)

    p = sub.add_parser("dump-lexicon", help="run and dump the learned lexicon")
    _add_corpus_flags(p)
    _add_learner_flags(p, with_penalty=True, traced=False)
    p.add_argument("--alpha", type=float, default=0.0)
    p.add_argument("--beta", type=float, default=0.0)
    p.add_argument("--out", default="lexicon.json")
    p.set_defaults(func=_cmd_dump_lexicon)

    p = sub.add_parser("grid", help="grid search over alpha and beta")
    _add_corpus_flags(p)
    _add_learner_flags(p, with_penalty=False, traced=True)
    p.add_argument("--alpha", default="0:5:0.1", help="lo:hi:step")
    p.add_argument("--beta", default="0:5:0.1", help="lo:hi:step")
    p.add_argument("--penalty", nargs="+", default=["xlogx"],
                   choices=tuple(_PENALTY_NAMES))
    p.add_argument("--jobs", type=int, default=1)
    p.add_argument("--out", required=True)
    p.add_argument("--trace", action="store_true",
                   help="trace criteria/F every --trace-every iterations")
    p.set_defaults(func=_cmd_grid)

    p = sub.add_parser("staged", help="alpha sweep, then beta sweep")
    _add_corpus_flags(p)
    _add_learner_flags(p, with_penalty=False, traced=False)
    p.add_argument("--penalty", default="xlogx", choices=tuple(_PENALTY_NAMES))
    p.add_argument("--alpha", required=True, help="lo:hi:step")
    p.add_argument("--beta", required=True, help="lo:hi:step")
    p.add_argument("--beta0", type=float, default=1.0,
                   help="beta held fixed during the alpha sweep")
    p.add_argument("--criterion", default="mdl2", choices=_criteria.CRITERIA)
    p.add_argument("--jobs", type=int, default=1)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_staged)

    p = sub.add_parser("select", help="pick minimum/top-k runs from a ledger")
    p.add_argument("--ledger", required=True, help="grid output directory")
    p.add_argument("--criterion", required=True, choices=_criteria.CRITERIA)
    p.add_argument("--top", type=int, default=1)
    p.add_argument("--bits", action="store_true",
                   help="report criterion values in bits instead of nats")
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_select)

    p = sub.add_parser("ensemble", help="majority-vote segmentation files")
    p.add_argument("--inputs", nargs="+", required=True)
    p.add_argument("--format", choices=("brent", "sighan"), default="brent")
    p.add_argument("--punct-set", default=None)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_ensemble)

    p = sub.add_parser("eval", help="score a segmentation against gold")
    p.add_argument("--hyp", required=True)
    p.add_argument("--gold", required=True)
    p.add_argument("--format", choices=("brent", "sighan"), default="brent")
    p.add_argument("--punct-hard", action="store_true")
    p.add_argument("--punct-set", default=None)
    p.add_argument("--report", choices=("json", "tsv"), default="json")
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("correlate",
                       help="rank correlation of criteria vs token F")
    p.add_argument("--ledger", required=True)
    p.add_argument("--population", choices=("outputs", "trace"),
                   default="outputs")
    p.add_argument("--scatter-out", default=None)
    p.set_defaults(func=_cmd_correlate)

    p = sub.add_parser("heatmap", help="export a grid quantity as CSV")
    p.add_argument("--ledger", required=True)
    p.add_argument("--quantity", default="tokenF",
                   choices=_search.QUANTITIES)
    p.add_argument("--penalty", default="xlogx", choices=tuple(_PENALTY_NAMES))
    p.add_argument("--log", action="store_true",
                   help="log-transform the quantity")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_heatmap)

    for sp in sub.choices.values():
        # a bare --config reads as "" and is reported, not taken as a path
        sp.add_argument("--config", nargs="?", const="", default=None,
                        help="flat key=value defaults file")
    return top, sub.choices


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser, commands = build_parser()
    # a required flag may come from --config, so it is checked after that
    required = {a: name for name, sp in commands.items()
                for a in sp._actions if a.required and a.option_strings}
    for a in required:
        a.required = False
    ns = parser.parse_args(argv)
    command = commands[ns.command]
    if ns.config is not None:
        command.set_defaults(**_config_defaults(parser, command, argv, ns))
        ns = parser.parse_args(argv)
    missing = [a.option_strings[0] for a, name in required.items()
               if name == ns.command and getattr(ns, a.dest) is None]
    if missing:
        parser.error(f"the following arguments are required: "
                     f"{', '.join(missing)}")
    traced_by = {"segment": "--trace-out", "grid": "--trace"}.get(ns.command)
    if traced_by and ns.trace_every is None:
        ns.trace_every = LearnerOptions.trace_interval
    elif traced_by and not getattr(ns, traced_by[2:].replace("-", "_")):
        parser.error(f"--trace-every needs {traced_by}")
    if getattr(ns, "trace_snapshots", False) and not ns.trace_out:
        parser.error("--trace-snapshots needs --trace-out")
    try:
        return ns.func(ns)
    except (CorpusError, RuntimeError, ValueError, OSError) as e:
        print(f"incseg: error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
