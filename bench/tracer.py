"""Spans around incseg's public functions, installed from outside the package.

``install`` replaces every public module-level function of the traced
modules, wherever a module of the package has bound it, with a wrapper that
records a span: name, parent span, duration, the time its child spans
cover, and a few counts read off the return value.  Three methods of
``CandidateIndex`` (the constructor, ``apply`` and ``consume_dirty``) are
wrapped too; per-site methods are not, because a wrapper there would cost
more than the work it measures.

Grid cells run in forked pool workers.  A worker inherits the wrappers,
drops the spans it inherited, and appends its own spans to a file in the
spill directory whenever its outermost span ends, since pool workers are
terminated rather than allowed to exit.
"""

from __future__ import annotations

import functools
import inspect
import json
import os
import statistics
import sys
import time
from pathlib import Path

MODULES = ("corpus", "lexmodel", "learner", "criteria", "metrics", "search",
           "ensemble")
INDEX_METHODS = ("__init__", "apply", "consume_dirty")
_PAGE_MB = os.sysconf("SC_PAGE_SIZE") / 2**20


def _rss_mb() -> float:
    with open("/proc/self/statm", encoding="ascii") as fh:
        return int(fh.read().split()[1]) * _PAGE_MB


def _extra_apply(out) -> dict:
    return {"sites": out.occurrences}


def _extra_dirty(out) -> dict:
    dead, affected = out
    return {"dead": len(dead), "affected": len(affected)}


def _extra_run(out) -> dict:
    return {"iterations": out.iterations}


EXTRAS = {"lexmodel.CandidateIndex.apply": _extra_apply,
          "lexmodel.CandidateIndex.consume_dirty": _extra_dirty,
          "learner.run": _extra_run}


class Tracer:
    """Collects spans as ``(name, parent, seconds, child_seconds, extra)``."""

    def __init__(self, spill_dir: Path) -> None:
        self.spill_dir = Path(spill_dir)
        self.spans: list[tuple] = []
        self.stack: list[list] = []
        self.in_worker = False
        self.wrapped: list[str] = []
        os.register_at_fork(after_in_child=self._forked)

    def _forked(self) -> None:
        self.spans = []
        self.stack = []
        self.in_worker = True

    def _spill(self) -> None:
        path = self.spill_dir / f"spans-{os.getpid()}.jsonl"
        with path.open("a", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")
        self.spans = []

    def wrap(self, name: str, fn, rss: bool = False):
        extra_of = EXTRAS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self.stack
            frame = [name, 0.0]
            stack.append(frame)
            rss0 = _rss_mb() if rss else 0.0
            t0 = time.perf_counter()
            out = None
            try:
                out = fn(*args, **kwargs)
                return out
            finally:
                dur = time.perf_counter() - t0
                stack.pop()
                parent = stack[-1][0] if stack else None
                if stack:
                    stack[-1][1] += dur
                extra = extra_of(out) if extra_of and out is not None else {}
                if rss:
                    extra["rss_mb"] = _rss_mb() - rss0
                self.spans.append((name, parent, dur, frame[1], extra))
                if self.in_worker and not stack:
                    self._spill()

        return traced

    def install(self, package) -> None:
        """Wrap the public functions of ``MODULES`` and the index methods."""
        modules = [m for n, m in sorted(sys.modules.items())
                   if n == package.__name__
                   or n.startswith(package.__name__ + ".")]
        for short in MODULES:
            mod = sys.modules[f"{package.__name__}.{short}"]
            for attr, fn in sorted(vars(mod).items()):
                if (attr.startswith("_") or not inspect.isfunction(fn)
                        or fn.__module__ != mod.__name__):
                    continue
                name = f"{short}.{attr}"
                wrapper = self.wrap(name, fn)
                for m in modules:
                    for bound, obj in list(vars(m).items()):
                        if obj is fn:
                            setattr(m, bound, wrapper)
                self.wrapped.append(name)
        index_cls = sys.modules[f"{package.__name__}.lexmodel"].CandidateIndex
        for meth in INDEX_METHODS:
            name = f"lexmodel.CandidateIndex.{meth}"
            setattr(index_cls, meth,
                    self.wrap(name, getattr(index_cls, meth),
                              rss=meth == "__init__"))
            self.wrapped.append(name)

    def collect(self) -> list[tuple]:
        """This process's spans plus every worker's spilled spans."""
        spans = list(self.spans)
        for path in sorted(self.spill_dir.glob("spans-*.jsonl")):
            with path.open(encoding="utf-8") as fh:
                spans.extend(tuple(json.loads(line)) for line in fh)
        return spans


def layer_metrics(spans: list, grid: dict | None) -> dict[str, float]:
    """Per-layer figures of one round, from its spans and grid facts.

    ``grid`` holds what only the grid workload knows: ``jobs`` and the
    ledger's per-cell ``wall_time`` values.  Layers a workload never calls
    read 0.
    """
    def pick(name, parent=None, not_parent=None):
        return [s for s in spans if s[0] == name
                and (parent is None or s[1] == parent)
                and (not_parent is None or s[1] != not_parent)]

    def secs(sel):
        return sum(s[2] for s in sel)

    def count(sel, key):
        return sum(s[4].get(key, 0) for s in sel)

    def per(num, den, scale=1.0):
        return num / den * scale if den else 0.0

    loads = pick("corpus.load_gold")
    applies = pick("lexmodel.CandidateIndex.apply")
    dirty = pick("lexmodel.CandidateIndex.consume_dirty", parent="learner.step")
    builds = pick("lexmodel.CandidateIndex.__init__")
    steps = pick("learner.step")
    step_ms = sorted(s[2] * 1e3 for s in steps)
    step_self = sum(s[2] - s[3] for s in steps)
    affected = count(dirty, "affected")
    sites = count(applies, "sites")
    evals = pick("criteria.evaluate_boundaries")
    grids = pick("search.run_grid")
    out = {
        "corpus.load_s": statistics.median(s[2] for s in loads) if loads
        else 0.0,
        "corpus.write_s": secs(pick("corpus.write_segmentation")),
        "lexmodel.init_s": secs(pick("lexmodel.init_from_corpus")),
        "lexmodel.index_build_s": secs(builds),
        "lexmodel.index_rss_mb": max((s[4]["rss_mb"] for s in builds),
                                     default=0.0),
        "lexmodel.apply_s": secs(applies),
        "lexmodel.sites_merged": sites,
        "lexmodel.apply_us_per_site": per(secs(applies), sites, 1e6),
        "lexmodel.dirty_s": secs(dirty),
        "lexmodel.tuples_affected": affected,
        "lexmodel.tuples_dead": count(dirty, "dead"),
        "learner.run_s": secs(pick("learner.run")),
        "learner.iterations": count(pick("learner.run"), "iterations"),
        "learner.step_self_s": step_self,
        "learner.step_self_us_per_tuple": per(step_self, affected, 1e6),
        "learner.step_ms_p50": statistics.median(step_ms) if step_ms
        else 0.0,
        "learner.step_ms_p99": (statistics.quantiles(step_ms, n=100)[98]
                                if len(step_ms) >= 1000 else 0.0),
        "criteria.evaluate_s": secs(evals),
        "criteria.calls": len(evals),
        "criteria.ms_per_call": per(secs(evals), len(evals), 1e3),
        "criteria.nll_calls": len(pick("criteria.neg_log_likelihood")),
        "criteria.nll_s": secs(pick("criteria.neg_log_likelihood")),
        "metrics.evaluate_s": secs(pick("metrics.evaluate_segmentation"))
        + secs(pick("metrics.token_prf",
                    not_parent="metrics.evaluate_segmentation")),
        "metrics.correlate_s": secs(pick("metrics.correlation_report")),
        "search.grid_s": grids[0][2] if grids else 0.0,
        "search.cell_s_p50": 0.0,
        "search.worker_busy_ratio": 0.0,
        "search.save_boundaries_s": secs(pick("search.save_boundaries")),
        "search.resume_s": grids[1][2] if len(grids) > 1 else 0.0,
        "ensemble.vote_s": secs(pick("ensemble.majority_vote")),
    }
    if grid:
        cells = grid["cell_wall_times"]
        out["search.cell_s_p50"] = statistics.median(cells)
        out["search.worker_busy_ratio"] = per(sum(cells),
                                              grid["jobs"] * out["search.grid_s"])
        for key in ("ledger_bytes", "boundary_bytes", "trace_bytes"):
            out[f"search.{key}"] = grid[key]
    else:
        for key in ("ledger_bytes", "boundary_bytes", "trace_bytes"):
            out[f"search.{key}"] = 0
    return out
