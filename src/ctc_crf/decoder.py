"""Decoding: greedy argmax, graph-driven Viterbi beam search with
blank-frame skipping, and error-rate scoring.

The beam search runs on plain Python values.  A graph's ``Arc`` view is
split once per graph, on the first decode, into per-state lists by kind
(``Wfst.arcs_by_kind``): the input-consuming arcs a frame expands, the blank
arcs a skipped frame expands, and the epsilon arcs the closure relaxes.  The
posterior becomes one list of float rows per utterance, a hypothesis is a
``(score, trace)`` pair in a dict keyed by state, and a trace is a linked
``(olabel, parent)`` tuple chain of the path's words.
"""
from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import DataError
from .loss import as_posterior
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

    post = as_posterior(posterior)
    return map_b(np.argmax(post, axis=1).tolist(), alphabet)


def beam_decode(posterior, graph: Wfst, config: BeamConfig) -> DecodeResult:
    """Time-synchronous Viterbi beam search over the decoding graph.

    Each frame expands labeled arcs scored by the matching posterior column,
    then closes epsilon arcs; hypotheses outside the beam are dropped.  When
    blank skipping is on, frames whose blank probability exceeds the
    threshold advance time with all scores unchanged.  With an unlimited
    beam and skipping off the search is exact.
    """
    post = as_posterior(posterior)
    t_frames, width = post.shape
    if graph.start is None:
        return DecodeResult([], ZERO, t_frames, 0)
    if len(graph.isyms) - 1 != width:
        raise DataError("posterior width does not match the graph alphabet")
    labelled, blanks, eps = graph.arcs_by_kind()
    threshold = config.blank_threshold
    free = [0.0] * width

    # a hypothesis is (score, trace); a trace links the word-emitting arcs
    # of its path as (olabel, parent trace) back to None, and an
    # epsilon-output arc passes its trace on unchanged.  The initial closure
    # is never pruned: the beam applies per frame.
    active: dict[int, tuple] = {graph.start: (0.0, None)}
    _close_epsilon(eps, active)
    skipped = 0

    for row in post.tolist():
        arcs_of = labelled
        if threshold is not None and np.exp(row[0]) > threshold:
            # the frame is taken as a sure blank: traverse only blank arcs,
            # free of acoustic cost (graph blank arcs carry weight one, so
            # hypothesis scores pass through unchanged)
            skipped += 1
            arcs_of, row = blanks, free
        nxt: dict[int, tuple] = {}
        get = nxt.get
        for state in sorted(active):
            score, trace = active[state]
            for ilabel, olabel, weight, dst in arcs_of[state]:
                cand = score + weight + row[ilabel - 1]
                if cand == ZERO:
                    continue
                cur = get(dst)
                if cur is None or cand > cur[0]:
                    nxt[dst] = (cand, trace if olabel == EPS
                                else (olabel, trace))
        _close_epsilon(eps, nxt)
        active = _prune(nxt, config)
        if not active:
            return DecodeResult([], ZERO, t_frames - skipped, skipped)

    best_score = ZERO
    best_trace = None
    for state in sorted(active):
        final = graph.finals.get(state)
        if final is None:
            continue
        score, trace = active[state]
        total = score + final
        if total > best_score:
            best_score = total
            best_trace = trace
    if best_score == ZERO:
        return DecodeResult([], ZERO, t_frames - skipped, skipped)
    words = []
    while best_trace is not None:
        olabel, best_trace = best_trace
        words.append(olabel)
    words.reverse()
    return DecodeResult(words, best_score, t_frames - skipped, skipped)


def _close_epsilon(eps: list, active: dict) -> None:
    """Relax epsilon arcs until no score improves; first writer wins ties.
    ``eps`` holds each state's epsilon arcs; a state with none never enters
    the queue, as relaxing it would change nothing."""
    queue = deque(state for state in sorted(active) if eps[state])
    queued = set(queue)
    get = active.get
    while queue:
        state = queue.popleft()
        queued.remove(state)
        score, trace = active[state]
        for _, olabel, weight, dst in eps[state]:
            cand = score + weight
            cur = get(dst)
            if cur is None or cand > cur[0]:
                active[dst] = (cand, trace if olabel == EPS
                               else (olabel, trace))
                if eps[dst] and dst not in queued:
                    queue.append(dst)
                    queued.add(dst)


def _prune(active: dict, config: BeamConfig) -> dict:
    """The hypotheses within ``slack`` of the best and, of those, the
    ``width`` best, ties broken by lower state id."""
    if active and config.slack != float("inf"):
        floor = max(score for score, _ in active.values()) - config.slack
        active = {s: hyp for s, hyp in active.items() if not hyp[0] < floor}
    if len(active) > config.width:
        ranked = sorted(active.items(), key=lambda kv: (-kv[1][0], kv[0]))
        active = dict(ranked[:config.width])
    return active


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
