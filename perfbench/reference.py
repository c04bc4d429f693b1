"""Reference computations the benchmark checks the program against.

They share no code with ``ctc_crf.loss`` or ``ctc_crf.decoder``:

* ``objective`` recomputes the CRF objective in the log domain.  Its
  denominator runs over the unflattened denominator graph and closes the
  epsilon (LM backoff) arcs frame by frame, so it checks
  ``flatten_denominator`` and the denominator forward-backward together.
* ``beam_decode`` is a frozen copy of the beam search the project started
  from: same expansion order, pruning and tie-breaking.  A faster decoder
  must return the same words and score.
"""
from __future__ import annotations

import numpy as np

EPS = 0
NEG_INF = float("-inf")


def _logsumexp(values: np.ndarray) -> float:
    m = float(np.max(values)) if values.size else NEG_INF
    if m == NEG_INF:
        return NEG_INF
    return m + float(np.log(np.sum(np.exp(values - m))))


def numerator_mass(post: np.ndarray, labels) -> float:
    """Log-sum over all state sequences that collapse to ``labels``."""
    t_frames = post.shape[0]
    ext = np.zeros(2 * len(labels) + 1, dtype=np.int64)
    ext[1::2] = labels
    s_len = len(ext)
    skip = np.zeros(s_len, dtype=bool)
    skip[2:] = (ext[2:] != 0) & (ext[2:] != ext[:-2])
    alpha = np.full(s_len, NEG_INF)
    alpha[:2] = post[0, ext[:2]]
    for t in range(1, t_frames):
        step = alpha.copy()
        step[1:] = np.logaddexp(step[1:], alpha[:-1])
        step[skip] = np.logaddexp(step[skip], alpha[:-2][skip[2:]])
        alpha = step + post[t, ext]
    return float(np.logaddexp(alpha[-1], alpha[-2])) if s_len > 1 else float(alpha[-1])


class GraphArrays:
    """A log-semiring graph as arrays: labeled arcs grouped by destination,
    epsilon arcs grouped by the longest epsilon path into their source."""

    def __init__(self, graph):
        labeled, eps = [], []
        for q in graph.states():
            for arc in graph.arcs(q):
                row = (q, arc.nextstate, arc.ilabel - 1, arc.weight)
                (eps if arc.ilabel == EPS else labeled).append(row)
        self.num_states = graph.num_states
        self.start = graph.start
        self.final = np.array([graph.final_weight(q) for q in graph.states()])

        labeled.sort(key=lambda r: r[1])
        arr = np.array(labeled, dtype=np.float64).reshape(-1, 4)
        self.src = arr[:, 0].astype(np.int64)
        dst = arr[:, 1].astype(np.int64)
        self.col = arr[:, 2].astype(np.int64)
        self.weight = arr[:, 3]
        self.dst, self.first = np.unique(dst, return_index=True)
        self.segment = np.searchsorted(self.dst, dst)

        # depth[q]: longest epsilon path ending in q; an epsilon cycle would
        # make it unbounded and is rejected
        depth = np.zeros(self.num_states, dtype=np.int64)
        for _ in range(len(eps) + 1):
            changed = False
            for q, r, _, _ in eps:
                if depth[r] < depth[q] + 1:
                    depth[r] = depth[q] + 1
                    changed = True
            if not changed:
                break
        else:
            raise ValueError("epsilon cycle in the reference graph")
        self.eps_levels = []
        for level in sorted({int(depth[q]) for q, _, _, _ in eps}):
            rows = np.array([(q, r, w) for q, r, _, w in eps if depth[q] == level])
            self.eps_levels.append((rows[:, 0].astype(np.int64),
                                    rows[:, 1].astype(np.int64), rows[:, 2]))

    def close(self, alpha: np.ndarray) -> np.ndarray:
        for src, dst, w in self.eps_levels:
            np.logaddexp.at(alpha, dst, alpha[src] + w)
        return alpha


def denominator_mass(post: np.ndarray, graph: GraphArrays) -> float:
    """Log-sum over all complete length-T paths of the graph."""
    alpha = np.full(graph.num_states, NEG_INF)
    alpha[graph.start] = 0.0
    alpha = graph.close(alpha)
    with np.errstate(invalid="ignore"):
        for t in range(post.shape[0]):
            contrib = alpha[graph.src] + graph.weight + post[t, graph.col]
            peak = np.maximum.reduceat(contrib, graph.first)
            shift = np.where(np.isfinite(peak), peak, 0.0)
            total = np.add.reduceat(np.exp(contrib - shift[graph.segment]),
                                    graph.first)
            alpha = np.full(graph.num_states, NEG_INF)
            with np.errstate(divide="ignore"):
                alpha[graph.dst] = shift + np.log(total)
            alpha = graph.close(alpha)
    return _logsumexp(alpha + graph.final)


def objective(post, labels, log_pl: float, graph: GraphArrays,
              aux_weight: float) -> float:
    """(numerator - denominator) + aux_weight * aux for one utterance."""
    post = np.asarray(post, dtype=np.float64)
    num = numerator_mass(post, list(labels))
    return (log_pl + num - denominator_mass(post, graph)) + aux_weight * num


def beam_decode(post, graph, width: int, blank_threshold: float):
    """(words, score) of the beam search with blank-frame skipping."""
    post = np.asarray(post, dtype=np.float64)
    active = {graph.start: (0.0, None)}
    _close(graph, active)
    for t in range(post.shape[0]):
        skip = np.exp(post[t, 0]) > blank_threshold
        nxt = {}
        for state in sorted(active):
            score, trace = active[state]
            for arc in graph.arcs(state):
                if arc.ilabel == EPS or (skip and arc.ilabel != 1):
                    continue
                cand = score + arc.weight + (0.0 if skip else post[t, arc.ilabel - 1])
                if cand == NEG_INF:
                    continue
                cur = nxt.get(arc.nextstate)
                if cur is None or cand > cur[0]:
                    nxt[arc.nextstate] = (cand, (arc.olabel, trace))
        _close(graph, nxt)
        if len(nxt) > width:
            ranked = sorted(nxt.items(), key=lambda kv: (-kv[1][0], kv[0]))
            nxt = dict(ranked[:width])
        if not nxt:
            return [], NEG_INF
        active = nxt
    best, best_trace = NEG_INF, None
    for state in sorted(active):
        if state in graph.finals:
            total = active[state][0] + graph.finals[state]
            if total > best:
                best, best_trace = total, active[state][1]
    words = []
    while best_trace is not None:
        if best_trace[0] != EPS:
            words.append(best_trace[0])
        best_trace = best_trace[1]
    return words[::-1], best


def _close(graph, active: dict) -> None:
    queue = sorted(active)
    while queue:
        state = queue.pop(0)
        score, trace = active[state]
        for arc in graph.arcs(state):
            if arc.ilabel != EPS:
                continue
            cand = score + arc.weight
            cur = active.get(arc.nextstate)
            if cur is None or cand > cur[0]:
                active[arc.nextstate] = (cand, (arc.olabel, trace))
                if arc.nextstate not in queue:
                    queue.append(arc.nextstate)
