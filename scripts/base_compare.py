#!/usr/bin/env python3
"""Check that every output of this tree is byte-identical to a base tree's;
``python scripts/base_compare.py BASE_TREE`` prints ``identical`` or each difference."""

import argparse
import contextlib
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

HEAD = Path(__file__).resolve().parents[1]
sys.path.append(str(HEAD / "bench"))
from compare import differences  # noqa: E402  (bench/compare.py)

RUNS = "aaaa abab\naab cdcd ccc aaaa\nbababa aabaab\naaaaaa dcdc abab\nccc aab aaaa\n"


def uncapped(c: str) -> dict[str, str]:
    """The flags of each uncapped ``segment`` run on the corpus ``c``, by output name; each
    writes a light trace, whose last row holds the ``repr`` of the run's objective."""
    flags = {f"{c}-n{m}-{a}": f"--nmax {m} --alpha {a} --beta {a} --penalty {k}"
             for m in (2, 3, 4) for a, k in ((0, "xlogx"), (0.1, "xsquared"))}
    return {**flags, f"{c}-sign": "--eq3-literal-sign",
            f"{c}-stop": "--paper-literal-stop --nmax 3 --alpha 2 --beta 2"}


def cases(src: str) -> None:
    """Every case of the tree at ``src``, run in the current directory so that
    the paths that outputs name match; a command's stdout goes to ``<out>.log``."""
    from benchmark_synthetic import build_corpus, build_pku_corpus
    from incseg import cli
    from incseg.corpus import default_punctuation, load_gold
    if Path(cli.__file__).parents[1] != Path(src):
        raise SystemExit(f"incseg imported from {cli.__file__}, not {src}")
    Path("fixtures").mkdir()  # the CLI smoke tests' corpora and a PKU-shaped one
    build_corpus(Path("fixtures/toy.txt"), 200, 40, 99)
    build_pku_corpus(Path("fixtures/pku.txt"), 2000, 99)
    for name, text in (("runs", RUNS * 20), ("punct", "ab，cd ef。\n\n！！\ngh ij\n"),
                       ("zh", "今天 天气 好 ， 我们 出去 玩 。\n好 的 ！\n")):
        Path(f"fixtures/{name}.txt").write_text(text, encoding="utf-8")
    with open("parse.jsonl", "w", encoding="utf-8") as fh:
        for name, punct in (("toy", None), ("runs", None), ("zh", {*"，"}),
                            ("punct", {*"，。！"}), ("pku", {*"，。"}),
                            ("pku", default_punctuation)):
            corpus, gold = load_gold(f"fixtures/{name}.txt",
                                     "sighan" if punct else "brent", hard_punct=punct)
            fields = {k: getattr(corpus, k) for k in (
                "chars", "codes", "offsets", "separators", "n_chars", "source_digest")}
            fields.update(gold_n_chars=gold.n_chars, boundaries=gold.boundaries)
            print(json.dumps({k: [str(v.dtype), v.tolist()] if hasattr(v, "dtype") else v
                              for k, v in fields.items()}), file=fh)
    commands = []
    for c, n in (("toy", 2), ("runs", 3)):
        seg = f"segment fixtures/{c}.txt --out"
        commands += [f"{seg} {o}.txt {flags} --trace-out {o}.jsonl"
                     for o, flags in uncapped(c).items()] + [
            f"{seg} {c}.txt --trace-out {c}.jsonl --trace-snapshots --trace-every 7",
            *(f"dump-lexicon fixtures/{c}.txt --out lexicon-{c}-n{m}.json --nmax {m}"
              for m in (2, 4)),
            f"grid fixtures/{c}.txt --out grid-{c} --nmax {n} --alpha 0:0.2:0.1 "
            "--beta 0:0.2:0.1 --penalty xlogx x2 --trace --trace-every 5 --jobs 2"]
    for argv in map(str.split, commands):
        with open(f"{argv[3]}.log", "w", encoding="utf-8") as fh:
            with contextlib.redirect_stdout(fh):
                if cli.main(argv) != 0:
                    raise SystemExit(f"incseg {' '.join(argv)} failed")


def read(path: Path) -> bytes:
    """A file's bytes; a ledger's rows sorted and without ``wall_time``."""
    if path.name != "runs.jsonl":
        return path.read_bytes()
    rows = ({**json.loads(line), "wall_time": 0} for line in path.read_bytes().splitlines())
    return b"\n".join(sorted(json.dumps(r, sort_keys=True).encode() for r in rows))


def compare(a: Path, b: Path) -> list[str]:
    """Each file, manifests aside, that only a or b has, or that differs and where."""
    found = []
    for name in sorted({p.relative_to(d).as_posix() for d in (a, b) for p in d.rglob("*")
                        if p.is_file() and not p.name.endswith("manifest.json")}):
        if not ((a / name).is_file() and (b / name).is_file()):
            found.append(f"{name}: only in {a if (a / name).is_file() else b}")
        elif (x := read(a / name)) != (y := read(b / name)):
            lines = [dict(enumerate(data.splitlines(), 1)) for data in (x, y)]
            with contextlib.suppress(ValueError):  # name the field of a JSON line
                rows = [{i: json.loads(v) for i, v in d.items()} for d in lines]
                lines = rows if differences(*rows) else lines
            found.append(f"{name}: line {differences(*lines)[0][1:200]}")
    return found


def check(base: Path, head: Path, work: Path) -> list[str]:
    """What differs between the trees' cases, each run in ``work`` on its own source."""
    for tree, name in ((base, "base"), (head, "head")):
        src = str(tree.resolve() / "src")
        (work / name).mkdir()
        env = dict(os.environ, PYTHONPATH=os.pathsep.join((src, str(HEAD / "scripts"))))
        subprocess.run([sys.executable, "-c", f"import base_compare as b; b.cases({src!r})"],
                       cwd=work / name, env=env, check=True)
    out, found = work / "head", compare(work / "base", work / "head")
    rows = [len(read(out / p).splitlines()) for p in (
        "parse.jsonl", "grid-toy/runs.jsonl", "grid-runs/runs.jsonl")]
    least = {"toy.snap*.json": 2, "runs.snap*.json": 2, "lexicon-*-n?.json": 4, **{
        f"grid-{c}/{sub}/*": 1 for c in ("toy", "runs") for sub in ("traces", "boundaries")},
        **{f"{o}.jsonl": 1 for c in ("toy", "runs") for o in uncapped(c)}}
    if rows != [6, 18, 18] or any(len([*out.glob(p)]) < k for p, k in least.items()):
        found.append(f"too little compared: {rows} lines, or fewer files than {least}")
    return found


def report(found: list[str]) -> int:
    print("\n".join(found) or "identical")
    return 1 if found else 0


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("base", type=Path, help="a checkout of the base commit")
    base = ap.parse_args(argv).base.resolve()
    with tempfile.TemporaryDirectory() as tmp:
        found = check(base, HEAD, Path(tmp))
        for w in ("segment-78k-n4", "grid-78k-traced"):
            records = [Path(tmp, f"{name}-{w}.json") for name in ("base", "head")]
            for tree, record in zip((base, HEAD), records):
                subprocess.run([sys.executable, "bench/run.py", "--workload", w,
                                "--seconds", "1", "--record", str(record)],
                               cwd=tree, check=True, stdout=subprocess.DEVNULL)
            found += [f"bench record {w}{d}" for d in differences(
                *(json.loads(r.read_text(encoding="utf-8")) for r in records))]
    return report(found)


if __name__ == "__main__":
    sys.exit(main())
