"""Parameter grid search, selection, heat-map export, and staged search.

Results are persisted incrementally as a JSON-lines ledger (one run per
line) so an interrupted grid resumes by skipping completed cells.  Boundary
sets are stored out-of-line as delta-encoded uint32 arrays referenced by
content digest.
"""

from __future__ import annotations

import hashlib
import json
import os
import time
import warnings
from dataclasses import asdict, dataclass, replace
from multiprocessing import get_context
from pathlib import Path
from typing import BinaryIO, Callable, Iterable, Sequence

import numpy as np

from . import criteria as _criteria
from . import learner as _learner
from . import metrics as _metrics
from .corpus import GoldSegmentation, RawCorpus, positions
from .criteria import CRITERIA
from .learner import LearnerOptions, PenaltyParams


def parse_range(spec: str) -> tuple[float, ...]:
    """'lo:hi:step' (inclusive endpoints) or a single value."""
    values = [float(p) for p in spec.split(":")]
    if not np.isfinite(values).all():
        raise ValueError(f"range values must be finite, got {spec!r}")
    if len(values) == 1:
        return (round(values[0], 10),)
    if len(values) != 3:
        raise ValueError(f"range must be lo:hi:step, got {spec!r}")
    lo, hi, step = values
    if step <= 0:
        raise ValueError("step must be > 0")
    if lo > hi:
        raise ValueError("range low end exceeds high end")
    count = int((hi - lo) / step + 1e-9) + 1
    return tuple(round(lo + i * step, 10) for i in range(count))


@dataclass(frozen=True)
class GridSpec:
    alphas: tuple[float, ...]
    betas: tuple[float, ...]
    kinds: tuple[str, ...] = ("xlogx",)

    def __post_init__(self) -> None:
        if not self.alphas or not self.betas or not self.kinds:
            raise ValueError("empty grid axis")
        for kind, alpha, beta in self.cells():
            PenaltyParams(alpha, beta, kind)

    def cells(self) -> list[tuple[str, float, float]]:
        """Each (kind, alpha, beta) once, in first-seen order."""
        return list(dict.fromkeys((k, a, b) for k in self.kinds
                                  for a in self.alphas for b in self.betas))


@dataclass
class RunRecord:
    alpha: float
    beta: float
    penalty: str
    n_max: int
    iterations: int
    stopped: str
    objective: float
    n_tokens: int
    n_types: int
    n_boundaries: int
    criteria: dict[str, float]
    metrics: dict | None
    boundary_digest: str
    boundary_file: str
    trace_file: str | None
    wall_time: float

    def key(self) -> tuple[str, float, float]:
        return (self.penalty, self.alpha, self.beta)


def save_boundaries(boundaries: Iterable[int], directory: Path) -> tuple[str, str]:
    """Delta-encode sorted uint32 positions in a file named by their digest."""
    arr = np.sort(positions(boundaries, 2**32)).astype(np.uint32)
    deltas = np.diff(arr, prepend=np.uint32(0)).astype(np.uint32)
    digest = hashlib.sha256(arr.tobytes()).hexdigest()
    directory.mkdir(parents=True, exist_ok=True)
    rel = f"{digest[:24]}.npy"
    fp = directory / rel
    if not fp.exists():
        _publish(fp, lambda fh: np.save(fh, deltas))
    return digest, rel


def _publish(fp: Path, write: Callable[[BinaryIO], object]) -> None:
    """Write ``fp`` aside, then rename: no partial file under its name."""
    tmp = fp.with_name(f".{fp.name}.{os.getpid()}.tmp")
    try:
        with tmp.open("wb") as fh:
            write(fh)
        os.replace(tmp, fp)
    finally:
        tmp.unlink(missing_ok=True)


def load_boundaries(path: Path) -> np.ndarray:
    """The sorted int64 positions that ``save_boundaries`` wrote."""
    return np.cumsum(np.load(path), dtype=np.int64)


# The arguments every cell of a grid shares, (corpus, gold, options,
# out_dir): ``run_grid`` sets them before any cell runs and clears them
# when it returns; pool workers are forked, so they inherit them.
_WORK: dict = {}


def _run_cell(cell: tuple[str, float, float]) -> dict:
    """One cell's ledger row, or an error row if the cell failed."""
    kind, alpha, beta = cell
    try:
        return _execute_cell(*_WORK["work"], kind, alpha, beta)
    except Exception as e:  # recorded per-cell; the grid keeps going
        return {"error": f"{type(e).__name__}: {e}", "penalty": kind,
                "alpha": alpha, "beta": beta}


def _spell(x: float) -> str:
    """``x`` as ``:g`` writes it, or in full where ``:g`` would round it,
    so that distinct values give distinct file names."""
    short = f"{x:g}"
    return short if float(short) == x else repr(x)


def _execute_cell(corpus: RawCorpus, gold: GoldSegmentation | None,
                  options: LearnerOptions, out_dir: Path,
                  kind: str, alpha: float, beta: float) -> dict:
    t0 = time.perf_counter()
    params = PenaltyParams(alpha=alpha, beta=beta, kind=kind)
    result = _learner.run(corpus, params, options, gold=gold)
    hyp = result.hypothesis
    bounds = hyp.starts[1:]
    trace_rel = None
    if options.trace_mode == "criteria":  # ends with a snapshot of bounds
        crit = result.trace[-1].criteria
        trace_rel = f"traces/{kind}_a{_spell(alpha)}_b{_spell(beta)}.jsonl"
        (out_dir / "traces").mkdir(parents=True, exist_ok=True)
        _learner.write_trace(result.trace, out_dir / trace_rel)
    else:
        crit = {cid: cv.value for cid, cv in _criteria.evaluate(
            _criteria.SegmentedText(corpus, hyp.starts, hyp.ids)).items()}
    metrics = None
    if gold is not None:
        metrics = _metrics.evaluate_segmentation(corpus, gold, bounds).as_dict()
    digest, rel = save_boundaries(bounds, out_dir / "boundaries")
    rec = RunRecord(
        alpha=alpha, beta=beta, penalty=kind, n_max=options.n_max,
        iterations=result.iterations, stopped=result.stopped,
        objective=result.objective, n_tokens=hyp.seq.total,
        n_types=hyp.seq.n_types(),
        n_boundaries=len(bounds), criteria=crit, metrics=metrics,
        boundary_digest=digest, boundary_file=f"boundaries/{rel}",
        trace_file=trace_rel, wall_time=time.perf_counter() - t0)
    return asdict(rec)


def load_ledger(out_dir: Path) -> list[RunRecord]:
    """Records of ``runs.jsonl``.  A last line without its newline is what
    a crash mid-append leaves: it is dropped with a warning, and the file is
    left as it is.  A bad line anywhere else is an error naming file and line."""
    path = Path(out_dir) / "runs.jsonl"
    if not path.exists():
        return []
    lines = path.read_bytes().splitlines(keepends=True)
    if lines and not lines[-1].endswith(b"\n"):
        warnings.warn(f"{path}: dropping torn last line", RuntimeWarning)
        lines.pop()
    records = []
    for i, line in enumerate(lines, 1):
        try:
            if line.strip():
                records.append(RunRecord(**json.loads(line)))
        except (ValueError, TypeError, AttributeError) as e:
            raise ValueError(f"{path}:{i}: bad ledger line: {e}") from None
    return records


def correlation_rows(out_dir: str | Path, population: str) -> list[dict]:
    """Token F and the criteria of each output of the grid in ``out_dir``
    (``outputs``), or of each traced snapshot that has both (``trace``)."""
    if population not in ("outputs", "trace"):
        raise ValueError(f"unknown population {population!r}")
    records = load_ledger(Path(out_dir))
    if not records:
        raise RuntimeError(f"no records in {out_dir}")
    rows = []
    for r in records:
        if population == "outputs":
            if r.metrics is None:
                raise RuntimeError("records lack gold metrics")
            rows.append({"token_f": r.metrics["token"]["f"], **r.criteria})
        elif r.trace_file:
            with (Path(out_dir) / r.trace_file).open(encoding="utf-8") as fh:
                for line in fh:
                    row = json.loads(line)
                    if row.get("criteria") and row.get("token_f") is not None:
                        rows.append({"token_f": row["token_f"],
                                     **row["criteria"]})
    if population == "trace" and not rows:
        raise RuntimeError("no traced snapshots found; run grid --trace")
    return rows


def _grid_identity(corpus: RawCorpus, gold: GoldSegmentation | None,
                   options: LearnerOptions) -> dict:
    """What the rows of a grid's ledger depend on besides their cell: the
    options its cells run with, whether gold is present, and a digest of
    the corpus as the learner sees it, its characters, their ids and the
    block offsets."""
    h = hashlib.sha256(json.dumps(corpus.chars).encode("utf-8"))
    for part in (corpus.codes, corpus.offsets):
        h.update(np.int64(len(part)).tobytes())
        h.update(np.ascontiguousarray(part, "<i8"))  # no copy of int64 ids
    return {**asdict(options), "gold": gold is not None,
            "corpus_sha256": h.hexdigest()}


def run_grid(corpus: RawCorpus, gold: GoldSegmentation | None,
             spec: GridSpec, out_dir: str | Path,
             options: LearnerOptions | None = None,
             jobs: int = 1, trace: bool = False,
             resume: bool = True) -> list[RunRecord]:
    """One learner run per (penalty kind, alpha, beta) into a ledger that a
    later call resumes, unless ``resume=False`` deletes it first.

    While ``runs.jsonl`` exists, ``identity.json`` must hold the grid's
    ``_grid_identity`` in every field; otherwise the call is refused
    before any cell runs.  With no ledger, the identity is written."""
    if jobs < 1:
        raise ValueError(f"jobs must be at least 1, got {jobs}")
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    # the options every cell runs with: a criteria trace, or none
    options = replace(options or LearnerOptions(),
                      trace_mode="criteria" if trace else "none")
    ledger_path, kept = out / "runs.jsonl", out / "identity.json"
    identity = _grid_identity(corpus, gold, options)
    if not resume:
        ledger_path.unlink(missing_ok=True)
    if ledger_path.exists():
        old = (json.loads(kept.read_text(encoding="utf-8"))
               if kept.exists() else {})
        for field, value in identity.items():
            held = old[field] if field in old else "unrecorded"
            if held != value:
                raise ValueError(
                    f"{ledger_path} holds runs with {field} {held}, "
                    f"not {value}; start over in a new directory")
    else:
        _publish(kept, lambda fh: fh.write(json.dumps(identity).encode()))
    done = {rec.key(): rec for rec in load_ledger(out)}
    todo = [c for c in spec.cells() if c not in done]

    def _record(row: dict) -> None:
        if "error" in row:
            with (out / "errors.jsonl").open("a", encoding="utf-8") as fh:
                fh.write(json.dumps(row) + "\n")
            return
        ledger.write(json.dumps(row) + "\n")
        ledger.flush()
        done[(row["penalty"], row["alpha"], row["beta"])] = RunRecord(**row)

    ledger = ledger_path.open("a", encoding="utf-8")
    ledger.truncate(ledger_path.read_bytes().rfind(b"\n") + 1)  # cut a torn tail
    _WORK["work"] = (corpus, gold, options, out)
    try:
        if jobs <= 1 or len(todo) <= 1:
            for cell in todo:
                _record(_run_cell(cell))
        else:
            with get_context("fork").Pool(min(jobs, len(todo))) as pool:
                for row in pool.imap_unordered(_run_cell, todo):
                    _record(row)
    finally:
        _WORK.clear()
        ledger.close()
    # failed cells stay out of the ledger, so a resume retries them
    return [done[c] for c in spec.cells() if c in done]


def select_family_minimum(records: Sequence[RunRecord],
                          criterion: str) -> RunRecord:
    """The run minimizing one criterion; ties broken by (alpha, beta)."""
    return select_top_k(records, criterion, 1)[0]


def select_top_k(records: Sequence[RunRecord], criterion: str,
                 k: int) -> list[RunRecord]:
    if k < 1:
        raise ValueError(f"k must be at least 1, got {k}")
    if k > len(records):
        raise ValueError(f"k={k} exceeds {len(records)} records")
    if criterion not in CRITERIA:
        raise ValueError(f"unknown criterion {criterion!r}")
    ordered = sorted(records, key=lambda r: (r.criteria[criterion], r.alpha,
                                             r.beta, r.penalty))
    return ordered[:k]


_F_SCORES = ("tokenF", "boundaryF", "lexiconF")
# what a heat map can show: the F scores, the criteria and six ledger fields
QUANTITIES = (*_F_SCORES, *CRITERIA, "iterations", "n_tokens", "n_types",
              "objective", "wall_time", "n_boundaries")


def record_quantity(rec: RunRecord, quantity: str) -> float:
    if quantity not in QUANTITIES:
        raise ValueError(f"unknown quantity {quantity!r}")
    if quantity in CRITERIA:
        return rec.criteria[quantity]
    if quantity in _F_SCORES:
        if rec.metrics is None:
            raise ValueError(
                f"{quantity} requires gold labels; none recorded for this run")
        return rec.metrics[quantity[:-1]]["f"]
    return float(getattr(rec, quantity))


def export_heatmap(records: Sequence[RunRecord], quantity: str,
                   log_transform: bool = False
                   ) -> tuple[list[float], list[float], list[list[float]]]:
    """Grid table of one quantity: rows = beta ascending, cols = alpha."""
    kinds = {r.penalty for r in records}
    if len(kinds) != 1:
        raise ValueError("heat map requires records of a single penalty kind")
    alphas = sorted({r.alpha for r in records})
    betas = sorted({r.beta for r in records})
    table = {(r.alpha, r.beta): r for r in records}
    if len(table) != len(records) or len(records) != len(alphas) * len(betas):
        raise ValueError("records do not form a rectangular grid")
    rows = []
    for b in betas:
        row = []
        for a in alphas:
            v = record_quantity(table[(a, b)], quantity)
            if log_transform:
                if not v > 0:
                    raise ValueError("log transform needs positive values")
                v = float(np.log(v))
            row.append(v)
        rows.append(row)
    return alphas, betas, rows


def write_heatmap_csv(alphas: Sequence[float], betas: Sequence[float],
                      rows: Sequence[Sequence[float]], path: str | Path) -> None:
    with Path(path).open("w", encoding="utf-8") as fh:
        fh.write("beta/alpha," + ",".join(repr(a) for a in alphas) + "\n")
        for b, row in zip(betas, rows):
            fh.write(repr(b) + "," + ",".join(repr(v) for v in row) + "\n")


def staged_search(corpus: RawCorpus, gold: GoldSegmentation | None,
                  criterion: str, alphas: Sequence[float],
                  betas: Sequence[float], out_dir: str | Path,
                  beta0: float = 1.0, kind: str = "xlogx",
                  options: LearnerOptions | None = None,
                  jobs: int = 1) -> tuple[RunRecord, list[RunRecord]]:
    """Sweep alpha at fixed beta0, fix the best alpha, then sweep beta.

    Both stages select by the same criterion; the stage-2 winner is the
    final record.  Both stages share one ledger in ``out_dir``, so a
    stage-2 cell that stage 1 ran is read back, not run again, and each
    cell is returned once.
    """
    if criterion not in CRITERIA:
        raise ValueError(f"unknown criterion {criterion!r}")
    GridSpec(tuple(alphas), (beta0, *betas), (kind,))  # checks every value
    stage1 = run_grid(corpus, gold,
                      GridSpec(tuple(alphas), (round(beta0, 10),), (kind,)),
                      out_dir, options=options, jobs=jobs)
    best_alpha = select_family_minimum(stage1, criterion).alpha
    stage2 = run_grid(corpus, gold,
                      GridSpec((best_alpha,), tuple(betas), (kind,)),
                      out_dir, options=options, jobs=jobs)
    final = select_family_minimum(stage2, criterion)
    return final, list({r.key(): r for r in stage1 + stage2}.values())
