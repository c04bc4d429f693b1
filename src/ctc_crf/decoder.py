"""Decoding: greedy argmax, graph-driven Viterbi beam search with
blank-frame skipping, and error-rate scoring.

The beam search runs on plain Python values.  A graph's ``Arc`` view is
split once per graph, on the first decode, into per-state lists by kind
(``Wfst.arcs_by_kind``): the input-consuming arcs a frame expands, the blank
arcs a skipped frame expands, and the epsilon arcs the closure relaxes.  The
posterior becomes one list of float rows per utterance, a hypothesis is a
``(score, trace)`` pair in a dict keyed by state, and a trace is a linked
``(olabel, parent)`` tuple chain of the path's words.  Each posterior row
gets a leading zero column, so an arc reads its input label's score at
``row[ilabel]``.

Each frame the beam keeps the hypotheses within ``slack`` of the best and,
of those, the ``width`` best.  The cut is the ``width``-th best score, found
with one sort of the float scores: every hypothesis above it stays, and the
places left go to the states that score exactly the cut, lowest state id
first.  That keeps the set the first ``width`` hypotheses sorted by
``(-score, state)`` would, and sorts only the ties at the cut.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import DataError, _check_count
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
        _check_count("beam width", self.width)
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
    # column 0 stands for the epsilon input label, which no expanded arc
    # carries, so input label k reads column k and the blank sits at 1
    padded = np.zeros((t_frames, width + 1))
    padded[:, 1:] = post
    free = [0.0] * (width + 1)

    # a hypothesis is (score, trace); a trace links the word-emitting arcs
    # of its path as (olabel, parent trace) back to None, and an
    # epsilon-output arc passes its trace on unchanged.  The initial closure
    # is never pruned: the beam applies per frame.
    active: dict[int, tuple] = {graph.start: (0.0, None)}
    _close_epsilon(eps, active)
    skipped = 0

    for row in padded.tolist():
        arcs_of = labelled
        if threshold is not None and np.exp(row[1]) > threshold:
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
                cand = score + weight + row[ilabel]
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
    the queue, as relaxing it would change nothing.  The queue is a list
    read front to back while it grows, and ``queued`` holds the states in
    it not yet read, so the relaxation order is first in, first out."""
    queue = [state for state in sorted(active) if eps[state]]
    queued = set(queue)
    get = active.get
    append = queue.append
    enqueue = queued.add
    dequeue = queued.remove
    for state in queue:
        dequeue(state)
        score, trace = active[state]
        for _, olabel, weight, dst in eps[state]:
            cand = score + weight
            cur = get(dst)
            if cur is None or cand > cur[0]:
                active[dst] = (cand, trace if olabel == EPS
                               else (olabel, trace))
                if eps[dst] and dst not in queued:
                    append(dst)
                    enqueue(dst)


def _prune(active: dict, config: BeamConfig) -> dict:
    """The hypotheses within ``slack`` of the best and, of those, the
    ``width`` best, ties broken by lower state id.

    The cut is the ``width``-th best score, from one sort of the scores.
    Every hypothesis scoring at or above it is kept; when more states tie
    at the cut than there are places left, the tied states of highest id
    go, so only those ties are sorted.  The result is the set that
    ``sorted((-score, state))[:width]`` keeps."""
    if active and config.slack != float("inf"):
        floor = max(score for score, _ in active.values()) - config.slack
        active = {s: hyp for s, hyp in active.items() if not hyp[0] < floor}
    width = config.width
    if len(active) > width:
        cut = sorted([score for score, _ in active.values()])[-width]
        active = {s: hyp for s, hyp in active.items() if hyp[0] >= cut}
        excess = len(active) - width
        if excess:
            ties = sorted(s for s, hyp in active.items() if hyp[0] == cut)
            for s in ties[-excess:]:
                del active[s]
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
    """Substitution / deletion / insertion counts of a minimal alignment.

    The edit-distance table is filled a row at a time (Wagner and Fischer,
    1974), keeping the previous row only, so memory is linear in the
    hypothesis length.  A cell is ``(total, subs, dels, ins)``; the diagonal
    move wins ties, then the deletion, then the insertion."""
    # prev[j]: the cell for the reference read so far against hyp[:j]
    prev = [(j, 0, 0, j) for j in range(len(hyp) + 1)]
    for r in ref:
        t, s, d, i = prev[0]
        left = (t + 1, s, d + 1, i)
        row = [left]
        append = row.append
        for h, diag, up in zip(hyp, prev, prev[1:]):
            if r == h:
                best = diag
            else:
                t, s, d, i = diag
                best = (t + 1, s + 1, d, i)
            t, s, d, i = up
            if t + 1 < best[0]:
                best = (t + 1, s, d + 1, i)
            t, s, d, i = left
            if t + 1 < best[0]:
                best = (t + 1, s, d, i + 1)
            append(best)
            left = best
        prev = row
    _, s, d, i = prev[-1]
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
