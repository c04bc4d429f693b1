"""Independent brute-force reference implementations used by the tests.

Nothing here calls composition, flattening, or the forward-backward code;
expected values come from explicit path enumeration so that agreement is
evidence, not circularity.  The exceptions are the frozen copies of code the
package replaced, kept so that the replacement can be checked against them
for exact equality.
"""
import itertools
from collections import deque
from math import inf, isinf
from typing import NamedTuple

import numpy as np

from ctc_crf.decoder import BeamConfig, DecodeResult
from ctc_crf.errors import DataError
from ctc_crf.loss import (_MIN_SCALE, ForwardResult, _forward_backward_log,
                          _products, as_posterior, crf_loss)
from ctc_crf.semiring import LOG, ONE, ZERO
from ctc_crf.wfst import EPS, Arc, Wfst, trim


def collapse_reference(pi):
    """Blank-collapsing map written independently: group runs, drop zeros."""
    return [sym for sym, _ in itertools.groupby(pi) if sym != 0]


def transducer_outputs(fst, input_ids, eps_budget=None):
    """Set of output strings the machine produces for one input string."""
    if fst.start is None:
        return set()
    if eps_budget is None:
        eps_budget = fst.num_states + 1
    results = set()
    stack = [(fst.start, 0, (), eps_budget)]
    while stack:
        state, pos, out, budget = stack.pop()
        if pos == len(input_ids) and state in fst.finals:
            results.add(out)
        for arc in fst.arcs(state):
            new_out = out if arc.olabel == EPS else out + (arc.olabel,)
            if arc.ilabel == EPS:
                if budget > 0:
                    stack.append((arc.nextstate, pos, new_out, budget - 1))
            elif pos < len(input_ids) and arc.ilabel == input_ids[pos]:
                stack.append((arc.nextstate, pos + 1, new_out, eps_budget))
    return results


def machine(semiring, isyms, osyms, num_states, start, finals, rows):
    """The ``Wfst`` whose arcs are the rows ``(source, ilabel, olabel,
    weight, target)``."""
    return Wfst(semiring, isyms, osyms, num_states, start, finals, *zip(*rows))


def identity_acceptor(syms):
    """Single-state acceptor looping over every non-epsilon symbol with
    weight one; the identity element of composition."""
    return machine(LOG, syms, syms, 1, 0, {0: ONE},
                   [(0, sym_id, sym_id, ONE, 0) for sym_id in range(1, len(syms))])


def weighted_language(fst, max_arcs, plus):
    """Map (input string, output string) -> aggregated weight over all
    complete paths of at most ``max_arcs`` arcs."""
    lang = {}
    if fst.start is None:
        return lang

    def visit(state, inp, out, weight, arcs_left):
        if state in fst.finals:
            key = (inp, out)
            total = weight + fst.finals[state]
            lang[key] = plus(lang[key], total) if key in lang else total
        if arcs_left == 0:
            return
        for arc in fst.arcs(state):
            visit(arc.nextstate,
                  inp if arc.ilabel == EPS else inp + (arc.ilabel,),
                  out if arc.olabel == EPS else out + (arc.olabel,),
                  weight + arc.weight, arcs_left - 1)

    visit(fst.start, (), (), 0.0, max_arcs)
    return lang


def acceptor_mass(g, seq):
    """Log mass of all paths of an acceptor matching one symbol sequence."""
    budget = g.num_states + 1
    terms = []

    def visit(state, pos, left, acc):
        if pos == len(seq) and state in g.finals:
            terms.append(acc + g.finals[state])
        for arc in g.arcs(state):
            if arc.ilabel == EPS:
                if left > 0:
                    visit(arc.nextstate, pos, left - 1, acc + arc.weight)
            elif pos < len(seq) and arc.ilabel == seq[pos]:
                visit(arc.nextstate, pos + 1, budget, acc + arc.weight)

    if g.start is not None:
        visit(g.start, 0, budget, 0.0)
    if not terms or max(terms) == ZERO:
        return ZERO
    arr = np.array(terms)
    m = arr.max()
    return float(m + np.log(np.exp(arr - m).sum()))


def brute_numerator(post, labels, log_pl=0.0):
    """Enumerate every state sequence collapsing to the reference."""
    t_frames, width = post.shape
    target = list(labels)
    terms = []
    for pi in itertools.product(range(width), repeat=t_frames):
        if collapse_reference(pi) == target:
            terms.append(sum(post[t, s] for t, s in enumerate(pi)))
    if not terms:
        return ZERO
    arr = np.array(terms)
    m = arr.max()
    return log_pl + float(m + np.log(np.exp(arr - m).sum()))


def brute_denominator(post, g, label_fst_id=lambda s: s):
    """Enumerate every state sequence; weight = LM mass of the collapsed
    sequence plus the node potentials."""
    t_frames, width = post.shape
    cache = {}
    terms = []
    for pi in itertools.product(range(width), repeat=t_frames):
        key = tuple(collapse_reference(pi))
        if key not in cache:
            cache[key] = acceptor_mass(g, [label_fst_id(s) for s in key])
        if isinf(cache[key]) and cache[key] < 0:
            continue
        terms.append(cache[key] + sum(post[t, s] for t, s in enumerate(pi)))
    if not terms:
        return ZERO
    arr = np.array(terms)
    m = arr.max()
    return float(m + np.log(np.exp(arr - m).sum()))


def brute_acceptor(post, fst):
    """Enumerate every state sequence of an acceptor over state symbols
    (input label = state id + 1, no blank collapsing); weight = the
    acceptor's mass of the sequence plus the node potentials."""
    t_frames, width = post.shape
    terms = []
    for pi in itertools.product(range(width), repeat=t_frames):
        mass = acceptor_mass(fst, [s + 1 for s in pi])
        if mass != ZERO:
            terms.append(mass + sum(post[t, s] for t, s in enumerate(pi)))
    if not terms:
        return ZERO
    arr = np.array(terms)
    m = arr.max()
    return float(m + np.log(np.exp(arr - m).sum()))


def graph_forward(post, fst):
    """Log-sum, over the complete paths of a log acceptor over state symbols
    (input label = state id + 1) with exactly T labeled arcs, of the path
    weight plus the node potentials.  A frame-by-frame forward pass over the
    machine's own arcs; after each frame the epsilon arcs are followed one
    path length at a time until no mass moves, so the epsilon arcs must
    form no cycle."""
    arcs = [(q, a.ilabel, a.nextstate, a.weight)
            for q in fst.states() for a in fst.arcs(q)]
    eps = np.array([a for a in arcs if a[1] == EPS]).reshape(-1, 4)
    lab = np.array([a for a in arcs if a[1] != EPS]).reshape(-1, 4)
    e_src, e_dst = eps[:, 0].astype(int), eps[:, 2].astype(int)
    l_src, l_lab, l_dst = lab[:, :3].T.astype(int)

    def close(alpha):
        total, wave = alpha, alpha
        while (wave > ZERO).any():
            nxt = np.full(fst.num_states, ZERO)
            np.logaddexp.at(nxt, e_dst, wave[e_src] + eps[:, 3])
            total, wave = np.logaddexp(total, nxt), nxt
        return total

    alpha = np.full(fst.num_states, ZERO)
    alpha[fst.start] = 0.0
    alpha = close(alpha)
    for t in range(post.shape[0]):
        step = np.full(fst.num_states, ZERO)
        np.logaddexp.at(step, l_dst, alpha[l_src] + lab[:, 3]
                        + post[t, l_lab - 1])
        alpha = close(step)
    final = np.full(fst.num_states, ZERO)
    final[list(fst.finals)] = list(fst.finals.values())
    arr = alpha + final
    m = arr.max()
    if m == ZERO:
        return ZERO
    return float(m + np.log(np.exp(arr - m).sum()))


def flattened_transitions(fst):
    """The machine that folding a log acceptor's epsilon arcs into its
    labeled arcs should give, found by following every epsilon path:
    ``(start, final, transitions)`` over the states on a start-to-final
    path, numbered in their order.  ``final`` holds their final log weights
    through epsilon paths, and ``transitions`` maps ``(q, s, label)`` to
    the log mass of the epsilon paths ``q ~> r`` times the labeled arcs
    ``r -> s`` on input ``label + 1``.  The epsilon arcs must form no
    cycle."""
    def epsilon_paths(q):
        ends, stack = {}, [(q, 0.0)]
        while stack:
            r, mass = stack.pop()
            ends[r] = np.logaddexp(ends.get(r, ZERO), mass)
            stack.extend((a.nextstate, mass + a.weight) for a in fst.arcs(r)
                         if a.ilabel == EPS)
        return ends

    final, trans = {}, {}
    for q in fst.states():
        for r, mass in epsilon_paths(q).items():
            if mass == ZERO:
                continue
            if r in fst.finals:
                final[q] = np.logaddexp(final.get(q, ZERO),
                                        mass + fst.finals[r])
            for a in fst.arcs(r):
                if a.ilabel != EPS:
                    key = (q, a.nextstate, a.ilabel - 1)
                    trans[key] = np.logaddexp(trans.get(key, ZERO),
                                              mass + a.weight)

    def reach(seeds, edges):
        seen, stack = set(seeds), list(seeds)
        while stack:
            for r in edges.get(stack.pop(), ()):
                if r not in seen:
                    seen.add(r)
                    stack.append(r)
        return seen

    succ, pred = {}, {}
    for q, s, _ in trans:
        succ.setdefault(q, []).append(s)
        pred.setdefault(s, []).append(q)
    live = sorted(reach([fst.start], succ)
                  & reach([q for q, w in final.items() if w > ZERO], pred))
    num = {q: i for i, q in enumerate(live)}
    return (num[fst.start], np.array([final.get(q, ZERO) for q in live]),
            {(num[q], num[s], lab): w for (q, s, lab), w in trans.items()
             if q in num and s in num})


def flattened_matrix(fst):
    """The flattened transition matrix of ``flattened_transitions``, dense:
    entry (q, s) is the probability of q -> s summed over labels."""
    _, final, trans = flattened_transitions(fst)
    mat = np.zeros((len(final), len(final)))
    for (q, s, _), w in trans.items():
        mat[q, s] += np.exp(w)
    return mat


def exhaustive_best_path(graph, post):
    """Best complete-path score and output string by explicit search."""
    t_frames = post.shape[0]
    best = [ZERO, None]
    eps_budget = graph.num_states + 1

    def visit(state, t, left, acc, out):
        if acc == ZERO:
            return
        if t == t_frames and state in graph.finals:
            total = acc + graph.finals[state]
            if total > best[0]:
                best[0] = total
                best[1] = out
        for arc in graph.arcs(state):
            if arc.ilabel == EPS:
                if left > 0:
                    visit(arc.nextstate, t, left - 1, acc + arc.weight,
                          out if arc.olabel == EPS else out + (arc.olabel,))
            elif t < t_frames:
                visit(arc.nextstate, t + 1, eps_budget,
                      acc + arc.weight + post[t, arc.ilabel - 1],
                      out if arc.olabel == EPS else out + (arc.olabel,))

    if graph.start is not None:
        visit(graph.start, 0, eps_budget, 0.0, ())
    return best[0], best[1]


def finite_difference(objective, matrix, step=1e-4):
    """Central-difference gradient of a scalar function of a matrix."""
    grad = np.zeros_like(matrix)
    for t in range(matrix.shape[0]):
        for s in range(matrix.shape[1]):
            saved = matrix[t, s]
            matrix[t, s] = saved + step
            hi = objective(matrix)
            matrix[t, s] = saved - step
            lo = objective(matrix)
            matrix[t, s] = saved
            grad[t, s] = (hi - lo) / (2 * step)
    return grad


# ---------------------------------------------------------------------------
# Frozen beam search
# ---------------------------------------------------------------------------
# The dict-of-tuples beam search ``ctc_crf.decoder.beam_decode`` replaced,
# kept verbatim (only the entry point is renamed) so that the faster search
# can be checked against it for exact equality, ties included.

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


def frozen_beam_decode(posterior, graph: Wfst,
                       config: BeamConfig) -> DecodeResult:
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
# Frozen sparse products
# ---------------------------------------------------------------------------
# The padded CSR factors and the sparse products of ``ctc_crf.loss`` that the
# jagged-diagonal products replaced, kept verbatim (only the entry point is
# new: it builds the CSRs from a table's factor entries and adds the
# log-domain products the fallback pass ran) so that the faster products can
# be checked against them.

NEG_INF = ZERO


class _Factor(NamedTuple):
    """A sparse ``num_src`` x ``num_dst`` matrix as two CSRs: by destination
    (``fwd_*``, for the forward pass) and by source (``bwd_*``, for the
    backward pass), each with its log weights and, for the rescaled pass,
    their exponentials.  ``nnz`` counts its entries before padding."""
    fwd_src: np.ndarray
    fwd_logw: np.ndarray
    fwd_prob: np.ndarray
    fwd_starts: np.ndarray
    bwd_dst: np.ndarray
    bwd_logw: np.ndarray
    bwd_prob: np.ndarray
    bwd_starts: np.ndarray
    nnz: int


def _factor(src, dst, log_weight, num_src: int, num_dst: int) -> _Factor:
    """The factor with log weights ``log_weight`` at ``(src, dst)``.  Each
    index ``k`` whose row or column is empty or missing (``k`` past the
    smaller dimension) gets a -inf pair ``(k, k)``, clipped to the shape,
    so every ``reduceat`` segment is non-empty."""
    src = np.asarray(src, dtype=np.int64)
    dst = np.asarray(dst, dtype=np.int64)
    size = max(num_src, num_dst)
    pad = (np.bincount(src, minlength=size)
           * np.bincount(dst, minlength=size) == 0).nonzero()[0]
    nnz = len(src)
    src = np.concatenate([src, np.minimum(pad, num_src - 1)])
    dst = np.concatenate([dst, np.minimum(pad, num_dst - 1)])
    logw = np.concatenate([log_weight, np.full(len(pad), NEG_INF)])
    prob = np.exp(logw)
    by_dst = np.argsort(dst, kind="stable")
    by_src = np.argsort(src, kind="stable")
    return _Factor(src[by_dst], logw[by_dst], prob[by_dst],
                   np.searchsorted(dst[by_dst], np.arange(num_dst)),
                   dst[by_src], logw[by_src], prob[by_src],
                   np.searchsorted(src[by_src], np.arange(num_src)), nnz)


def frozen_products(table, log=False):
    """The forward and backward products by ``table``'s factors over padded
    CSRs: ``v M`` and ``M v`` by ``reduceat``, or with ``log`` the same over
    log vectors by ``logaddexp.reduceat``."""
    with np.errstate(over="ignore"):
        factors = [_factor(*f) for f in table._factor_entries]
    if log:
        def forward(v):
            for f in factors:
                v = np.logaddexp.reduceat(v[f.fwd_src] + f.fwd_logw,
                                          f.fwd_starts)
            return v

        def backward(v):
            for f in reversed(factors):
                v = np.logaddexp.reduceat(v[f.bwd_dst] + f.bwd_logw,
                                          f.bwd_starts)
            return v

        return forward, backward
    # the factors' arrays unpacked and reduceat bound once, as a frame's
    # cost is mostly numpy call overhead
    fwd = [(f.fwd_src, f.fwd_prob, f.fwd_starts) for f in factors]
    bwd = [(f.bwd_dst, f.bwd_prob, f.bwd_starts)
           for f in reversed(factors)]
    reduceat = np.add.reduceat

    def forward(v):
        for src, prob, starts in fwd:
            v = reduceat(v[src] * prob, starts)
        return v

    def backward(v):
        for dst, prob, starts in bwd:
            v = reduceat(v[dst] * prob, starts)
        return v

    return forward, backward


# ---------------------------------------------------------------------------
# Frozen per-frame rescaled pass
# ---------------------------------------------------------------------------
# The forward-backward of ``ctc_crf.loss`` that rescaled on every frame,
# before it rescaled once per block of frames, kept verbatim (only the entry
# point is renamed) so that the block pass can be checked against it.

def frozen_forward_backward(post: np.ndarray, table) -> ForwardResult:
    """Score and per-frame occupancy of all paths through ``table``.

    Each frame multiplies the forward masses by the transition matrix, then
    by a per-state emission ``exp(post[t] - max(post[t]))``, and rescales
    the result to sum to one.  The score adds back the logs of the rescale
    masses and of the row maxima.  The backward pass multiplies by the
    matrix's transpose and divides by the forward rescale masses, so
    ``alpha * beta`` is a state posterior and the occupancy is its sum by
    state label.  An utterance whose rescale mass underflows or is not
    finite takes the exact log-domain pass.
    """
    t_frames = len(post)
    peak = post.max(axis=1)
    if not np.isfinite(peak).all():
        return _forward_backward_log(post, table)
    emit = np.exp(post - peak[:, None])
    lab = table.state_label
    forward, backward = _products(table)
    add = np.add.reduce

    # rows 1 .. T start as the emissions and end as the rescaled forward
    # masses; with mode="clip" take writes them in place, where the default
    # mode would buffer a T x N copy
    alpha = np.empty((t_frames + 1, table.num_states))
    alpha[0] = 0.0
    alpha[0, table.start] = 1.0
    np.take(emit, lab, axis=1, out=alpha[1:], mode="clip")
    scale = np.empty(t_frames)
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        for t in range(t_frames):
            nxt = alpha[t + 1]
            nxt *= forward(alpha[t])
            scale[t] = mass = add(nxt)
            nxt /= mass
        end = float(alpha[t_frames] @ table._final_prob)
        if not (np.all((_MIN_SCALE < scale) & (scale < np.inf))
                and _MIN_SCALE < end < np.inf):
            return _forward_backward_log(post, table)

        # row t + 1 of alpha becomes the state posterior of frame t
        beta = table._final_prob / end
        for t in range(t_frames - 1, -1, -1):
            gamma = alpha[t + 1]
            gamma *= beta
            if t:
                beta = backward(beta * emit[t][lab])
                beta /= scale[t]
        occupancy = alpha[1:] @ table._label_onehot
    if not np.isfinite(occupancy).all():
        return _forward_backward_log(post, table)
    score = np.log(scale).sum() + peak.sum() + np.log(end)
    return ForwardResult(float(score), occupancy, True)


# ---------------------------------------------------------------------------
# Frozen composition
# ---------------------------------------------------------------------------
# The per-arc breadth-first composition ``ctc_crf.wfst.compose`` replaced,
# kept verbatim (only the entry point is renamed) so that the frontier
# composition can be checked against it state by state, arcs in order.

_F_NEUTRAL, _F_LEFT, _F_RIGHT = 0, 1, 2


def frozen_compose(a: Wfst, b: Wfst) -> Wfst:
    """Compose two machines sharing an inner symbol table.

    Epsilon output arcs of ``a`` and epsilon input arcs of ``b`` are handled
    with a three-state composition filter so that every pair of compatible
    paths contributes exactly once.  The result is trimmed.
    """
    if a.semiring != b.semiring:
        raise DataError(f"semiring mismatch: {a.semiring} vs {b.semiring}")
    if a.osyms != b.isyms:
        raise DataError("symbol table mismatch between left output and right input")

    if a.start is None or b.start is None:
        return Wfst(a.semiring, a.isyms, b.osyms, 0, None, {})

    b_by_ilabel: list[dict[int, list[Arc]]] = [{} for _ in b.states()]
    for qb in b.states():
        for arc in b.arcs(qb):
            b_by_ilabel[qb].setdefault(arc.ilabel, []).append(arc)

    # states are expanded in the order they are numbered: rows come sorted
    start_key = (a.start, b.start, _F_NEUTRAL)
    state_ids = {start_key: 0}
    queue = deque([start_key])
    rows = []
    finals = {}

    def state_for(key):
        sid = state_ids.get(key)
        if sid is None:
            sid = state_ids[key] = len(state_ids)
            queue.append(key)
        return sid

    while queue:
        key = queue.popleft()
        qa, qb, f = key
        src = state_ids[key]
        b_idx = b_by_ilabel[qb]
        b_eps = b_idx.get(EPS, ())

        for arc_a in a.arcs(qa):
            if arc_a.olabel != EPS:
                for arc_b in b_idx.get(arc_a.olabel, ()):
                    dst = state_for((arc_a.nextstate, arc_b.nextstate, _F_NEUTRAL))
                    rows.append((src, arc_a.ilabel, arc_b.olabel,
                                 arc_a.weight + arc_b.weight, dst))
            else:
                if f != _F_RIGHT:
                    dst = state_for((arc_a.nextstate, qb, _F_LEFT))
                    rows.append((src, arc_a.ilabel, EPS, arc_a.weight, dst))
                if f == _F_NEUTRAL:
                    for arc_b in b_eps:
                        dst = state_for((arc_a.nextstate, arc_b.nextstate, _F_NEUTRAL))
                        rows.append((src, arc_a.ilabel, arc_b.olabel,
                                     arc_a.weight + arc_b.weight, dst))
        if f != _F_LEFT:
            for arc_b in b_eps:
                dst = state_for((qa, arc_b.nextstate, _F_RIGHT))
                rows.append((src, EPS, arc_b.olabel, arc_b.weight, dst))

        if qa in a.finals and qb in b.finals:
            finals[src] = a.finals[qa] + b.finals[qb]

    return trim(Wfst(a.semiring, a.isyms, b.osyms, len(state_ids), 0, finals,
                     *zip(*rows)))


# ---------------------------------------------------------------------------
# Frozen alignment counts
# ---------------------------------------------------------------------------
# The full-table edit-distance alignment ``ctc_crf.decoder._align_counts``
# replaced with a two-row one, kept verbatim (renamed, and without argument
# annotations) so that the counts can be checked for equality.

def frozen_align_counts(hyp, ref) -> tuple[int, int, int]:
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


# ---------------------------------------------------------------------------
# Frozen model construction
# ---------------------------------------------------------------------------
# How ``ctc_crf.model.AcousticModel`` built its parameters before one layout
# walk decided them: a chain of per-kind branches, each recurrent direction
# its own object, and the names sorted layer by layer on every access.  Kept
# so that the initial values, their names and their order can be checked
# for equality.

def frozen_model_parameters(input_dim, specs, num_outputs, seed):
    """The ``(name, parameter)`` list of a freshly built model."""
    rng = np.random.default_rng(seed)

    def glorot(fan_in, fan_out):
        bound = np.sqrt(6.0 / (fan_in + fan_out))
        return rng.uniform(-bound, bound, size=(fan_in, fan_out))

    def direction(din, hidden):
        return {"Wx": glorot(din, hidden), "Wh": glorot(hidden, hidden),
                "b": np.zeros(hidden)}

    layers = []
    width = input_dim
    for spec in specs:
        if spec.kind == "affine":
            layers.append({"W": glorot(width, spec.size),
                           "b": np.zeros(spec.size)})
            width = spec.size
        elif spec.kind == "tanh":
            layers.append({})
        elif spec.kind == "recurrent":
            params = {f"fwd.{k}": v
                      for k, v in direction(width, spec.size).items()}
            if spec.bidirectional:
                params.update((f"bwd.{k}", v)
                              for k, v in direction(width, spec.size).items())
            layers.append(params)
            width = spec.size * (2 if spec.bidirectional else 1)
    output = {"W": glorot(width, num_outputs), "b": np.zeros(num_outputs)}
    named = [(f"layer{i}.{name}", layer[name])
             for i, layer in enumerate(layers) for name in sorted(layer)]
    return named + [(f"out.{name}", output[name]) for name in sorted(output)]


# ---------------------------------------------------------------------------
# Frozen minibatch step
# ---------------------------------------------------------------------------
# The loop body ``ctc_crf.training.train`` ran before a minibatch made one
# model pass over its stacked frames: a forward, a ``crf_loss`` and a
# backward per utterance, a degenerate utterance skipped after its forward.
# Kept so that the stacked step can be checked against it.

def frozen_minibatch_step(model, batch, log_pls, den, alpha):
    """Each utterance's posterior, each frame-normalized objective (None
    for a degenerate utterance) and copies of the gradients accumulated
    from zero."""
    model.zero_grads()
    posts, objectives = [], []
    for (features, labels), log_pl in zip(batch, log_pls):
        post = model.forward(features)
        posts.append(post)
        result = crf_loss(post, labels, log_pl, den, alpha=alpha)
        if result.degenerate:
            objectives.append(None)
            continue
        frames = len(post)
        objectives.append(result.objective / frames)
        model.backward(-result.grad / (frames * len(batch)))
    return posts, objectives, [g.copy() for _, g in model.gradients()]
