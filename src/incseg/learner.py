"""Greedy compression learner over the penalized unigram objective.

Each iteration scores every candidate n-gram by the exact change the
compression would cause to

    nll(unigram ML) + sign * (types/2) * ln N + penalty

and applies the minimizer while it is negative.  Candidates are the
candidate index's n-gram ids.  One vectorized formula scores them, with
``x ln x`` read from a table that equals the scalar formula bit for bit,
so every score is the same float whichever path asks for it and exact
ties fall to the largest count, then the first position.  A merge
rescores only the ids that hold a token whose count it changed.
"""

from __future__ import annotations

import functools
import json
import math
import time
from dataclasses import dataclass
from itertools import chain
from math import fsum, log
from pathlib import Path
from typing import Sequence

import numpy as np

from . import criteria as _criteria
from . import metrics as _metrics
from .corpus import GoldSegmentation, RawCorpus
from .lexmodel import (CandidateIndex, Lexicon, TokenSequence, TokenTuple,
                       init_from_corpus, live_words)

PENALTY_KINDS = ("xlogx", "xsquared")


@dataclass(frozen=True)
class PenaltyParams:
    """Per-token intercept weight and super-additive length-cost weight."""

    alpha: float = 0.0
    beta: float = 0.0
    kind: str = "xlogx"

    def __post_init__(self) -> None:
        if self.kind not in PENALTY_KINDS:
            raise ValueError(f"penalty kind must be one of {PENALTY_KINDS}")
        for v in (self.alpha, self.beta):
            if not (math.isfinite(v) and v >= 0):
                raise ValueError("alpha and beta must be finite and >= 0")


@dataclass(frozen=True)
class LearnerOptions:
    n_max: int = 2
    stop_at: int | None = None         # forced early stop (lab control)
    trace_interval: int = 100
    trace_mode: str = "light"          # none | light | criteria
    trace_boundaries: bool = False
    complexity_sign: int = 1           # -1: read the model-size term literally
    literal_stop: bool = False         # stop on improvement, as printed

    def __post_init__(self) -> None:
        if not 2 <= self.n_max <= 4:
            raise ValueError(f"n_max must be in 2..4, got {self.n_max}")
        if self.stop_at is not None and self.stop_at < 0:
            raise ValueError(f"stop_at must be >= 0, got {self.stop_at}")
        if self.trace_interval < 1:
            raise ValueError("trace interval must be at least 1, got "
                             f"{self.trace_interval}")
        if self.trace_mode not in ("none", "light", "criteria"):
            raise ValueError("trace_mode must be none|light|criteria")
        if self.complexity_sign not in (1, -1):
            raise ValueError("complexity_sign must be +1 or -1")


@dataclass
class TraceRecord:
    iteration: int
    objective: float
    n_tokens: int
    n_types: int
    n_boundaries: int
    criteria: dict[str, float] | None = None
    token_f: float | None = None
    boundaries: np.ndarray | None = None  # sorted int64


@dataclass
class CompressionEvent:
    iteration: int
    token: TokenTuple
    fresh_id: int
    occurrences: int
    delta: float
    objective: float


@dataclass(eq=False)
class SegmentationHypothesis:
    """A run's segmentation: the sorted int64 word ``starts`` and surface
    ``ids`` that ``live_words`` gives (``eq=False``: arrays have no ==)."""

    starts: np.ndarray
    ids: np.ndarray
    seq: TokenSequence
    lexicon: Lexicon

    @property
    def boundaries(self) -> frozenset[int]:  # built on each read
        return frozenset(self.starts[1:].tolist())


@dataclass
class RunResult:
    hypothesis: SegmentationHypothesis
    iterations: int
    stopped: str                        # converged | stop_at
    objective: float
    trace: list[TraceRecord]
    wall_time: float


@functools.lru_cache(maxsize=2)
def _cost_table(kind: str, n_chars: int) -> np.ndarray:
    """The length cost g(x), x ln x or x * x (0 at 0), for each x up to
    ``n_chars``, bit for bit the scalar formula's float: ln x, or x, times
    x with one rounding, x made in slices so that no second full-size
    array is held.  Shared read-only by the runs over one corpus; it
    covers every count, total and m a run can reach."""
    table = (np.fromiter(chain((0.0,), map(log, range(1, n_chars + 1))),
                         np.float64, n_chars + 1) if kind == "xlogx"
             else np.arange(n_chars + 1, dtype=np.float64))
    for lo in range(0, n_chars + 1, 4096):
        table[lo:lo + 4096] *= np.arange(lo, min(lo + 4096, n_chars + 1))
    table.flags.writeable = False
    return table


def penalty(seq: TokenSequence, params: PenaltyParams) -> float:
    """Sum over token occurrences of -alpha + beta * g(length), in nats;
    g is read from ``_cost_table``, built only when beta > 0."""
    glen = 0.0
    if params.beta:
        g = _cost_table(params.kind, seq.n_chars)
        glen = fsum(c * g[seq.lengths[t]] for t, c in seq.active_items())
    return params.beta * glen - params.alpha * seq.total


def penalized_likelihood(seq: TokenSequence, params: PenaltyParams,
                         complexity_sign: int = 1) -> float:
    """Unigram ML cross-entropy + model-size term + penalty, in nats."""
    m_total = seq.total
    if m_total < 1:
        raise ValueError("empty sequence")
    nll = fsum(-c * log(c / m_total) for _, c in seq.active_items())
    k = seq.n_types()
    return nll + complexity_sign * 0.5 * k * log(seq.n_chars) + penalty(
        seq, params)


class LearnerState:
    """One in-progress compression run: sequence, lexicon and the scores of
    the candidate index's n-gram ids.

    The index owns the candidate table's columns: tokens, multiplicities,
    length and greedy count ``m``; a free id has m 0 and scores inf.  The
    state adds the one column that depends on the penalty kind, each id's
    beta length term ``_gl``, filled at birth and only while beta > 0.
    """

    def __init__(self, seq: TokenSequence, lex: Lexicon,
                 params: PenaltyParams,
                 options: LearnerOptions | None = None) -> None:
        self.options = options or LearnerOptions()
        self.seq = seq
        self.lex = lex
        self.params = params
        self.iteration = 0
        self.index = CandidateIndex(seq, self.options.n_max)
        self._ln_n = log(seq.n_chars)
        self._sign = self.options.complexity_sign
        lost = np.arange(self.index.n_max + 1)  # component types a merge loses
        self._model = self._sign * 0.5 * (1 - lost) * self._ln_n
        self.objective = penalized_likelihood(seq, params, self._sign)
        self._xlx = _cost_table("xlogx", seq.n_chars)
        self._g = (_cost_table(params.kind, seq.n_chars) if params.beta
                   else None)
        self._gl = np.zeros(0, np.float64)
        self._part = np.zeros(0, np.float64)  # scores less the total term
        self._k = np.zeros(0, np.int64)       # m(n - 1), the tokens it saves
        # the tokens whose counts changed since the last _scores: all, at first
        self._mark = np.ones(len(seq.counts), bool)
        self._sync()

    def _sync(self) -> None:
        """Flush the index's frees and births: a freed id's cached score
        turns inf and its k 0; if beta > 0, fill the born ids' beta length
        term g(whole) - (g(l0) + g(l1) + ...), summed in token order."""
        freed, born = self.index.consume_dirty()
        index = self.index
        grow = len(index.m) - len(self._part)
        if grow > 0:
            self._part = np.pad(self._part, (0, grow))
            self._k = np.pad(self._k, (0, grow))
        if len(self._mark) < len(self.seq.counts):
            self._mark = np.pad(self._mark,
                                (0, len(self.seq.counts) - len(self._mark)))
        self._part[freed] = np.inf
        self._k[freed] = 0
        if not self.params.beta:
            return
        if len(self._gl) < len(index.m):
            self._gl = np.pad(self._gl, (0, len(index.m) - len(self._gl)))
        lens = self.seq.lengths[index.comp.take(born, 1)]
        lens[np.arange(index.n_max)[:, None] >= index.order[born]] = 0
        parts = 0.0
        for gl in self._g[lens]:
            parts = parts + gl
        self._gl[born] = self._g[lens.sum(0)] - parts

    # -- scoring -------------------------------------------------------

    def _scores(self) -> np.ndarray:
        """Exact objective change of compressing each id's candidate now,
        for the ids below ``index.size``.

        The one scoring formula: every term is the scalar computation's,
        added in the same order, and ``x ln x`` comes from one table, so an
        id's score does not depend on which other ids are scored with it.
        Free ids score inf.

        Each id's score less the total term ``xlx[total - k] - xlx[total]``
        is kept in ``_part``, and its k = m(n-1) in ``_k``; only the total
        term is added over all ids.  The part's other inputs are its tokens'
        counts, its ``m`` and columns fixed at birth.  A merge changes the
        counts of its tokens and the fresh one only, the tokens ``_mark``
        holds, and ``m`` only of ids that hold one of those.  So only the
        live ids holding such a token are refreshed, by the same operations
        in the same order, and every float is the one a full rescoring
        gives.  Padding slots hold token 0: merging it refreshes more ids
        than needed, never fewer.
        """
        index = self.index
        xlx = self._xlx
        rows = slice(0, index.size)
        mark = self._mark
        stale = mark[index.comp[0, rows]]
        for ids in index.comp[1:, rows]:
            stale |= mark[ids]
        mark[:] = False
        stale = stale.nonzero()[0]
        live = stale[index.order[stale] > 0]  # free ids stay inf
        m = index.m[live]
        n1 = index.order[live] - 1
        mult = index.mult.take(live, 1)
        c = self.seq.counts[index.comp.take(live, 1)]
        c2 = c - m * mult
        acc = 0.0
        for d in xlx[c2] - xlx[c]:      # in slot order
            acc = acc + d
        lost = np.add.reduce((c2 == 0) & (mult > 0), 0)  # counts dropped to 0
        out = -acc - xlx[m] + self._model[lost]
        p = self.params
        if p.alpha:
            out += p.alpha * m * n1
        if p.beta:
            out += p.beta * m * self._gl[live]
        self._part[live], self._k[live] = out, m * n1
        total = self.seq.total
        out = xlx.take(total - self._k[rows]) - xlx[total]
        out += self._part[rows]         # part + (xlx[total - k] - xlx[total])
        return out

    def _select(self) -> tuple[float, int] | None:
        """Exact minimizer's (score, id): lowest score, then largest m,
        then the lowest (first position, n-gram)."""
        index = self.index
        scores = self._scores()
        best = scores.min(initial=np.inf)
        if best == np.inf:
            return None
        tied = (scores == best).nonzero()[0]
        if len(tied) > 1:
            m = index.m[tied]
            tied = tied[m == m.max()]
        i = int(tied[0]) if len(tied) == 1 else min(
            tied.tolist(),
            key=lambda j: (index.first_position(j), index.tuple_of(j)))
        return float(best), i

    # -- stepping ------------------------------------------------------

    def _apply(self, i: int, delta: float) -> CompressionEvent:
        cd = self.index.apply(i, self.lex)
        t = self.lex.entries[cd.fresh_id].components
        self.objective += delta
        self.iteration += 1
        self._sync()
        self._mark[[*t, cd.fresh_id]] = True
        return CompressionEvent(self.iteration, t, cd.fresh_id,
                                cd.occurrences, delta, self.objective)


def init_state(corpus: RawCorpus, params: PenaltyParams,
               options: LearnerOptions | None = None) -> LearnerState:
    seq, lex = init_from_corpus(corpus)
    return LearnerState(seq, lex, params, options)


def step(state: LearnerState) -> CompressionEvent | None:
    """One iteration: apply the best candidate, or report convergence (None)."""
    found = state._select()
    if found is None:
        return None
    delta, i = found
    if (delta < 0) == state.options.literal_stop:  # literal: stop on a gain
        return None
    return state._apply(i, delta)


def run(corpus: RawCorpus, params: PenaltyParams,
        options: LearnerOptions | None = None,
        gold: GoldSegmentation | None = None) -> RunResult:
    """Loop ``step`` to convergence or ``stop_at``, recording a trace.

    Every merge removes at least one token and none crosses a block edge,
    so a run converges within ``n_chars - n_blocks`` iterations.
    """
    options = options or LearnerOptions()
    t0 = time.perf_counter()
    state = init_state(corpus, params, options)
    gold_starts = (corpus.word_starts(gold.boundaries)
                   if gold is not None and options.trace_mode == "criteria"
                   else None)
    trace: list[TraceRecord] = []
    stopped = "converged"
    while True:
        if options.stop_at is not None and state.iteration >= options.stop_at:
            stopped = "stop_at"
            break
        ev = step(state)
        if ev is None:
            break
        if (options.trace_mode != "none"
                and ev.iteration % options.trace_interval == 0):
            trace.append(_trace_record(state, corpus, gold_starts))
    words = live_words(state.seq, state.lex)
    if options.trace_mode != "none" and (
            not trace or trace[-1].iteration != state.iteration):
        trace.append(_trace_record(state, corpus, gold_starts, words))
    hyp = SegmentationHypothesis(*words, state.seq, state.lex)
    return RunResult(hyp, state.iteration, stopped, state.objective,
                     trace, time.perf_counter() - t0)


def _trace_record(state: LearnerState, corpus: RawCorpus,
                  gold_starts: np.ndarray | None,
                  words: tuple | None = None) -> TraceRecord:
    seq, opts = state.seq, state.options
    rec = TraceRecord(iteration=state.iteration, objective=state.objective,
                      n_tokens=seq.total, n_types=seq.n_types(),
                      n_boundaries=seq.total - 1)
    if not opts.trace_boundaries and opts.trace_mode != "criteria":
        return rec  # a light record without a snapshot keeps counts only
    starts, ids = words or live_words(seq, state.lex)
    if opts.trace_boundaries:
        rec.boundaries = starts[1:]
    if opts.trace_mode == "criteria":
        vals = _criteria.evaluate(_criteria.SegmentedText(corpus, starts, ids))
        rec.criteria = {cid: cv.value for cid, cv in vals.items()}
        if gold_starts is not None:
            rec.token_f = _metrics.token_prf(
                starts, gold_starts, corpus.n_chars).f
    return rec


def write_trace(trace: Sequence[TraceRecord], path: str | Path) -> None:
    """Write one JSON row per trace record.

    A row carries ``criteria`` and ``token_f`` when its record has
    criteria.  The boundaries of the i-th record, when it has them, go to
    a file named like ``path`` with the suffix ``.snap<i>.json``, as a
    sorted JSON list that the row names as ``boundary_snapshot``.
    """
    path = Path(path)
    with path.open("w", encoding="utf-8") as fh:
        for i, tr in enumerate(trace):
            row = {"iteration": tr.iteration, "objective": tr.objective,
                   "n_tokens": tr.n_tokens, "n_types": tr.n_types,
                   "n_boundaries": tr.n_boundaries}
            if tr.criteria is not None:
                row["criteria"] = tr.criteria
                row["token_f"] = tr.token_f
            if tr.boundaries is not None:
                snap = path.with_suffix(f".snap{i}.json")
                snap.write_text(json.dumps(tr.boundaries.tolist()),
                                encoding="utf-8")
                row["boundary_snapshot"] = str(snap)
            fh.write(json.dumps(row) + "\n")
