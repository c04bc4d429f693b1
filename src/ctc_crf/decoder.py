"""Decoding: greedy argmax, graph-driven Viterbi beam search with
blank-frame skipping, and error-rate scoring."""
from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import DataError
from .loss import _as_matrix
from .semiring import ZERO
from .symbols import Alphabet
from .wfst import EPS, Wfst


@dataclass(frozen=True)
class BeamConfig:
    width: int = 64                      # max active hypotheses per frame
    slack: float = float("inf")          # prune below best score - slack
    blank_threshold: float | None = None  # skip frames with blank prob above

    def __post_init__(self):
        if self.width < 1:
            raise DataError("beam width must be >= 1")
        if not self.slack >= 0:   # NaN fails too
            raise DataError("beam slack must be >= 0")
        if self.blank_threshold is not None and not 0.0 < self.blank_threshold <= 1.0:
            raise DataError("blank threshold must be in (0, 1]")


@dataclass
class DecodeResult:
    words: list[int]          # output symbol ids along the best path
    score: float              # best complete-path log score
    frames_processed: int
    frames_skipped: int


def greedy_decode(posterior, alphabet: Alphabet) -> list[int]:
    """Per-frame argmax collapsed by the blank-removal map.

    Ties break to the lowest symbol id.  Returns state-symbol ids of the
    surviving labels.
    """
    from .wfst import map_b

    post = _as_matrix(posterior)
    return map_b(np.argmax(post, axis=1).tolist(), alphabet)


class _Trace:
    __slots__ = ("olabel", "parent")

    def __init__(self, olabel, parent):
        self.olabel = olabel
        self.parent = parent


def _emit(trace: _Trace | None) -> list[int]:
    out = []
    while trace is not None:
        if trace.olabel != EPS:
            out.append(trace.olabel)
        trace = trace.parent
    out.reverse()
    return out


def beam_decode(posterior, graph: Wfst, config: BeamConfig) -> DecodeResult:
    """Time-synchronous Viterbi beam search over the decoding graph.

    Each frame expands labeled arcs scored by the matching posterior column,
    then closes epsilon arcs; hypotheses outside the beam are dropped.  When
    blank skipping is on, frames whose blank probability exceeds the
    threshold advance time with all scores unchanged.  With an unlimited
    beam and skipping off the search is exact.
    """
    post = _as_matrix(posterior)
    t_frames, width = post.shape
    if graph.start is None:
        return DecodeResult([], ZERO, t_frames, 0)
    if len(graph.isyms) - 1 != width:
        raise DataError("posterior width does not match the graph alphabet")

    # the initial closure is never pruned: the beam applies per frame
    active: dict[int, tuple[float, _Trace | None]] = {graph.start: (0.0, None)}
    _close_epsilon(graph, active)
    skipped = 0

    blank_ilabel = 1

    for t in range(t_frames):
        skip = (config.blank_threshold is not None
                and np.exp(post[t, 0]) > config.blank_threshold)
        if skip:
            # the frame is taken as a sure blank: traverse only blank arcs,
            # free of acoustic cost (graph blank arcs carry weight one, so
            # hypothesis scores pass through unchanged)
            skipped += 1
        nxt: dict[int, tuple[float, _Trace | None]] = {}
        for state in sorted(active):
            score, trace = active[state]
            for arc in graph.arcs(state):
                if arc.ilabel == EPS or (skip and arc.ilabel != blank_ilabel):
                    continue
                cand = score + arc.weight + (0.0 if skip
                                             else post[t, arc.ilabel - 1])
                if cand == ZERO:
                    continue
                cur = nxt.get(arc.nextstate)
                if cur is None or cand > cur[0]:
                    nxt[arc.nextstate] = (cand, _Trace(arc.olabel, trace))
        _close_epsilon(graph, nxt)
        _prune(nxt, config)
        if not nxt:
            return DecodeResult([], ZERO, t_frames - skipped, skipped)
        active = nxt

    best_score = ZERO
    best_trace: _Trace | None = None
    for state in sorted(active):
        if state not in graph.finals:
            continue
        score, trace = active[state]
        total = score + graph.finals[state]
        if total > best_score:
            best_score = total
            best_trace = trace
    if best_score == ZERO:
        return DecodeResult([], ZERO, t_frames - skipped, skipped)
    return DecodeResult(_emit(best_trace), best_score, t_frames - skipped,
                        skipped)


def _close_epsilon(graph: Wfst, active: dict) -> None:
    """Relax epsilon arcs until no score improves; first writer wins ties."""
    queue = deque(sorted(active))
    queued = set(queue)
    while queue:
        state = queue.popleft()
        queued.remove(state)
        score, trace = active[state]
        for arc in graph.arcs(state):
            if arc.ilabel != EPS:
                continue
            cand = score + arc.weight
            cur = active.get(arc.nextstate)
            if cur is None or cand > cur[0]:
                active[arc.nextstate] = (cand, _Trace(arc.olabel, trace))
                if arc.nextstate not in queued:
                    queue.append(arc.nextstate)
                    queued.add(arc.nextstate)


def _prune(active: dict, config: BeamConfig) -> None:
    if not active:
        return
    best = max(score for score, _ in active.values())
    if config.slack != float("inf"):
        for state in [s for s, (sc, _) in active.items() if sc < best - config.slack]:
            del active[state]
    if len(active) > config.width:
        ranked = sorted(active.items(), key=lambda kv: (-kv[1][0], kv[0]))
        for state, _ in ranked[config.width:]:
            del active[state]


# ---------------------------------------------------------------------------
# Error rates
# ---------------------------------------------------------------------------

@dataclass
class ErrorRateBreakdown:
    substitutions: int = 0
    deletions: int = 0
    insertions: int = 0
    ref_tokens: int = 0

    @property
    def errors(self) -> int:
        return self.substitutions + self.deletions + self.insertions

    @property
    def rate(self) -> float:
        return self.errors / max(self.ref_tokens, 1)


def _align_counts(hyp: Sequence, ref: Sequence) -> tuple[int, int, int]:
    """Substitution / deletion / insertion counts of a minimal alignment."""
    n, m = len(ref), len(hyp)
    # cost[i][j]: (total, subs, dels, ins) for ref[:i] vs hyp[:j]
    cost = [[None] * (m + 1) for _ in range(n + 1)]
    cost[0][0] = (0, 0, 0, 0)
    for j in range(1, m + 1):
        t, s, d, i = cost[0][j - 1]
        cost[0][j] = (t + 1, s, d, i + 1)
    for irow in range(1, n + 1):
        t, s, d, i = cost[irow - 1][0]
        cost[irow][0] = (t + 1, s, d + 1, i)
        for j in range(1, m + 1):
            if ref[irow - 1] == hyp[j - 1]:
                best = cost[irow - 1][j - 1]
            else:
                t, s, d, i = cost[irow - 1][j - 1]
                best = (t + 1, s + 1, d, i)
            t, s, d, i = cost[irow - 1][j]
            if t + 1 < best[0]:
                best = (t + 1, s, d + 1, i)
            t, s, d, i = cost[irow][j - 1]
            if t + 1 < best[0]:
                best = (t + 1, s, d, i + 1)
            cost[irow][j] = best
    _, s, d, i = cost[n][m]
    return s, d, i


def evaluate_error_rate(hyps: Sequence[Sequence],
                        refs: Sequence[Sequence]) -> ErrorRateBreakdown:
    """Corpus-level edit-distance error rate: (S + D + I) / reference tokens."""
    if len(hyps) != len(refs):
        raise DataError(
            f"hypothesis count {len(hyps)} != reference count {len(refs)}")
    out = ErrorRateBreakdown()
    for hyp, ref in zip(hyps, refs):
        s, d, i = _align_counts(list(hyp), list(ref))
        out.substitutions += s
        out.deletions += d
        out.insertions += i
        out.ref_tokens += len(ref)
    return out
