"""The sequence-CRF objective with blank-collapsing topology.

The objective for one utterance is

    objective = (numerator - denominator) + alpha * aux

where the numerator sums, over every length-T state sequence collapsing to
the reference labels, the sequence-level LM score plus per-frame node
potentials; the denominator sums the same potential over all state sequences
via the denominator graph T∘G (a text FST on disk, whose acyclic backoff
epsilons ``flatten_denominator`` folds into its labeled arcs in memory); and
``aux`` is the plain alignment log-likelihood (the numerator without the LM
constant).  Both are one forward-backward over a ``DenominatorTable``, a
machine whose states each emit one symbol: T∘G for the denominator, the
reference's blank-augmented chain for the numerator.  A table is given its
transition matrix as factors whose product it is: for T∘G the epsilon
closure and then the labeled arcs (for a trigram, about a third of the
entries of their product), for the chain the chain itself.  The pass runs
in the probability domain with a per-frame rescale, as in lattice-free
MMI.  A table of at most ``_DENSE_MAX`` states (the toy bigram, every short
reference chain) forms its dense transition matrix once and makes one
matrix-vector product per frame; a larger one makes one sparse product by
each factor.  A log-domain pass over the sparse factors is the exact
fallback for an utterance whose rescaled mass underflows.  Gradients are
with respect to the node potentials: the difference between the
reference-conditioned and unconstrained per-frame symbol occupancies.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, reduce
from typing import NamedTuple, Sequence

import numpy as np

from .errors import DataError
from .semiring import LOG, ZERO, logsumexp
from .wfst import EPS, Wfst, reachable

NEG_INF = ZERO
# A frame's rescale mass below this is built from subnormal terms and would
# lose precision; such an utterance takes the log-domain pass instead.
_MIN_SCALE = 1e-250
# A table of at most this many states runs its pass over its dense
# transition matrix: one matrix-vector product per frame costs less than the
# numpy calls of the sparse products by its factors.  A trigram's thousands
# of states stay sparse, where a dense product costs N^2 per frame.
_DENSE_MAX = 64


class PosteriorMatrix:
    """T x |state alphabet| matrix of log-softmax node potentials."""

    def __init__(self, values):
        arr = np.ascontiguousarray(values, dtype=np.float64)
        if arr.ndim != 2:
            raise DataError("posterior matrix must be 2-D")
        if np.isnan(arr).any() or (arr == np.inf).any():
            raise DataError("posterior matrix contains NaN or +inf")
        self.values = arr

    @property
    def frames(self) -> int:
        return self.values.shape[0]

    @property
    def width(self) -> int:
        return self.values.shape[1]

    def __array__(self, dtype=None, copy=None):
        if dtype is not None and dtype != self.values.dtype:
            return self.values.astype(dtype)
        return self.values


def _as_matrix(posterior) -> np.ndarray:
    if isinstance(posterior, PosteriorMatrix):
        return posterior.values
    return PosteriorMatrix(posterior).values


class ForwardResult(NamedTuple):
    score: float
    occupancy: np.ndarray  # T x width, rows sum to 1 when feasible
    feasible: bool


@dataclass
class LossResult:
    """Objective plus its gradient with respect to the node potentials."""
    objective: float
    grad: np.ndarray
    numerator: float
    denominator: float
    aux: float
    degenerate: bool = False


# ---------------------------------------------------------------------------
# Denominator table
# ---------------------------------------------------------------------------

class DenominatorTable:
    """A machine over the state alphabet whose states each emit one symbol:
    the numerator and the denominator run their forward-backward on one.

    State ``q`` emits ``state_label[q]``, a state-symbol id that indexes
    posterior columns, and ends a path with log weight ``final[q]``.
    ``factors`` lists sparse matrices whose product is the transition
    matrix, each as ``(src, dst, log_weight, num_src, num_dst)``, from the
    states through any inner dimensions back to the states; repeated entries
    add.  The pass reads the product in one of two forms, each built on
    first use: a table of at most ``_DENSE_MAX`` states forms the dense
    matrix, a larger one never does and runs over the factors as CSRs, which
    the log-domain fallback and ``num_transitions`` also read.  Labels are
    not checked against ``num_labels``: both builders take them from checked
    input.  Immutable.  A table has no file format of its own:
    ``flatten_denominator`` builds it from the T∘G graph, which is stored and
    read as a text FST, with two factors, the epsilon closure and the
    labeled arcs; ``numerator_forward`` builds one per reference with one
    factor, the chain itself.
    """

    def __init__(self, start: int, final, state_label, num_labels: int,
                 factors):
        self.start = int(start)
        self.final = np.ascontiguousarray(final, dtype=np.float64)
        self.state_label = np.ascontiguousarray(state_label, dtype=np.int64)
        self.num_states = len(self.state_label)
        self.num_labels = int(num_labels)
        if len(self.final) != self.num_states:
            raise DataError("final-weight array does not match state count")
        if self.num_labels < 1:
            raise DataError("a table needs at least one label")
        if not 0 <= self.start < self.num_states:
            raise DataError("start state out of range")
        # each factor's rows must be the previous factor's columns, the
        # first's the states and the last's columns the states again
        dims = [self.num_states, *(d for *_, rows, cols in factors
                                   for d in (rows, cols)), self.num_states]
        if len(dims) < 4 or dims[::2] != dims[1::2]:
            raise DataError(f"factor shapes {dims[1:-1]} do not map the "
                            f"{self.num_states} states to themselves")

        self._factor_entries = tuple(factors)
        # state posteriors times these one-hot rows sum them by label
        self._label_onehot = np.eye(self.num_labels)[self.state_label]
        with np.errstate(over="ignore"):
            self._final_prob = np.exp(self.final)

    @cached_property
    def _factors(self) -> list[_Factor]:
        """The factors as CSRs."""
        with np.errstate(over="ignore"):
            return [_factor(*f) for f in self._factor_entries]

    @cached_property
    def _matrix(self) -> np.ndarray:
        """The dense transition matrix in the probability domain."""
        with np.errstate(over="ignore", invalid="ignore"):
            return reduce(np.matmul, [_dense(*f)
                                      for f in self._factor_entries])

    @cached_property
    def num_transitions(self) -> int:
        """The transitions of the flattened machine, counted without forming
        them: the paths through one nonzero entry of each factor.  For T∘G,
        the sum over closure pairs of the labeled arcs leaving their ends."""
        paths = np.ones(self.num_states)
        for f in self._factors:
            paths = np.add.reduceat(paths[f.fwd_src] * (f.fwd_logw > NEG_INF),
                                    f.fwd_starts)
        return int(paths.sum())


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


def _dense(src, dst, log_weight, num_src: int, num_dst: int) -> np.ndarray:
    """The factor as a dense matrix of probabilities."""
    cell = (np.asarray(src, dtype=np.int64) * num_dst
            + np.asarray(dst, dtype=np.int64))
    return np.bincount(cell, np.exp(log_weight), num_src * num_dst).reshape(
        num_src, num_dst)


def _expand(indptr: np.ndarray, rows: np.ndarray):
    """CSR row expansion: the positions ``indptr[r] .. indptr[r + 1] - 1``
    of every row ``r`` in ``rows``, concatenated, and for each position the
    index in ``rows`` of the row it came from."""
    count = indptr[rows + 1] - indptr[rows]
    i = np.repeat(np.arange(len(rows)), count)
    offset = np.arange(len(i)) - (np.cumsum(count) - count)[i]
    return i, indptr[rows][i] + offset


def _merge_pairs(origin, reached, mass, num_states: int):
    """Rows sorted by (origin, reached), repeated pairs' log masses added."""
    key = origin * num_states + reached
    order = np.argsort(key, kind="stable")
    key = key[order]
    starts = np.flatnonzero(np.diff(key, prepend=-1))
    heads = key[starts]
    return (heads // num_states, heads % num_states,
            np.logaddexp.reduceat(mass[order], starts))


def flatten_denominator(den_fst: Wfst) -> DenominatorTable:
    """Fold the epsilon-input (backoff) arcs into the labeled arcs after
    them, then trim.

    Each epsilon path ``q ~> r`` and labeled arc ``r -> s`` give a
    transition ``q -> s``; the final weight of ``q`` sums those of the
    ``r``.  The table never forms these transitions: its two factors are
    the epsilon closure C, from each state ``q`` to the ends ``r`` of its
    epsilon paths, and the labeled arcs L from those ends.  For a 30-label
    trigram's backoff graph that is ~4.8k closure pairs and ~21.2k arcs
    against 72,851 transitions.  The closure grows one epsilon level at a
    time as (origin, reached, log mass) rows from (q, q, 0), one row per
    pair and level however many paths join them.  Backoff epsilons go to a
    shorter context, so they form no cycle and the levels run out; an
    epsilon cycle is a DataError.  States on no start-to-final path are
    dropped, and so are the closure's ends on none.  A live state entered
    on two input labels is a DataError that names it.
    """
    if den_fst.semiring != LOG:
        raise DataError("denominator graph must be in the log semiring")
    if den_fst.start is None:
        raise DataError("denominator graph is empty")
    n = den_fst.num_states
    arcs = np.reshape([(q, *a) for q in den_fst.states()
                       for a in den_fst.arcs(q)], (-1, 5))
    src, ilabel, dst = arcs[:, [0, 1, 4]].T.astype(np.int64)
    weight = arcs[:, 3]
    indptr = np.searchsorted(src, np.arange(n + 1))
    eps = ilabel == EPS

    levels = [(np.arange(n), np.arange(n), np.zeros(n))]
    while len(levels[-1][0]):
        if len(levels) > n:
            raise DataError("epsilon cycle in the denominator graph")
        origin, reached, mass = levels[-1]
        i, arc = _expand(indptr, reached)
        take = eps[arc]
        i, arc = i[take], arc[take]
        levels.append(_merge_pairs(origin[i], dst[arc], mass[i] + weight[arc],
                                   n))
    origin, reached, mass = _merge_pairs(
        *(np.concatenate(rows) for rows in zip(*levels)), n)
    nonzero = mass > NEG_INF
    origin, reached, mass = origin[nonzero], reached[nonzero], mass[nonzero]

    final_in = np.full(n, NEG_INF)
    final_in[list(den_fst.finals)] = list(den_fst.finals.values())
    final = np.full(n, NEG_INF)
    np.logaddexp.at(final, origin, mass + final_in[reached])

    # trimmed as one graph whose nodes are the states, 0 .. n - 1, and the
    # closure's ends, n .. 2n - 1: a closure pair (q, r) is an edge q -> n + r
    # and a labeled arc r -> s an edge n + r -> s
    labeled = ~eps
    edge_src = np.concatenate([origin, n + src[labeled]])
    edge_dst = np.concatenate([n + reached, dst[labeled]])
    live = (reachable([den_fst.start], edge_src, edge_dst, 2 * n)
            & reachable(np.flatnonzero(final > NEG_INF), edge_dst, edge_src,
                        2 * n))
    if not live[den_fst.start]:
        raise DataError("denominator graph has no complete path")
    state, end = live[:n], live[n:]
    row = state[origin] & end[reached]
    arc = labeled & end[src] & state[dst]

    # checked before the renumbering, so an error names the graph's state;
    # a state no arc enters holds mass only before the first frame, and its
    # label, blank's, is never read
    into, label = dst[arc], ilabel[arc]
    state_label = np.ones(n, dtype=np.int64)
    state_label[into] = label
    clash = np.flatnonzero(state_label[into] != label)
    if len(clash):
        q = into[clash[0]]
        raise DataError(f"state {q} is entered on labels {label[clash[0]]} "
                        f"and {state_label[q]}")

    renumber = np.cumsum(state) - 1
    to_end = np.cumsum(end) - 1
    num_states = int(state.sum())
    # a table with no transition keeps one (empty) inner dimension
    num_ends = max(int(end.sum()), 1)
    return DenominatorTable(
        renumber[den_fst.start], final[state], state_label[state] - 1,
        len(den_fst.isyms) - 1,
        [(renumber[origin[row]], to_end[reached[row]], mass[row],
          num_states, num_ends),
         (to_end[src[arc]], renumber[dst[arc]], weight[arc],
          num_ends, num_states)])


# ---------------------------------------------------------------------------
# Numerator and denominator: one forward-backward over a table
# ---------------------------------------------------------------------------

def _reference_chain(labels: Sequence[int], width: int) -> DenominatorTable:
    """The reference's blank-augmented chain as a one-factor table.

    Positions 0 .. 2U are labelled blank, l1, blank, ..., lU, blank.  Each
    position loops and steps to the next, and a label also skips the blank
    before it unless it repeats the label there.  The chain starts in
    position 0, whose moves are exactly the first frame's choices, and is
    final in its last two positions.
    """
    labels = np.asarray(labels, dtype=np.int64)
    if len(labels) and not (labels.min() >= 1 and labels.max() < width):
        bad = labels[(labels < 1) | (labels >= width)][0]
        raise DataError(f"label id {bad} outside the state alphabet")
    n = 2 * len(labels) + 1
    ext = np.zeros(n, dtype=np.int64)
    ext[1::2] = labels
    pos = np.arange(n)
    skip = pos[3::2][labels[1:] != labels[:-1]]
    src = np.concatenate([pos, pos[:-1], skip - 2])
    dst = np.concatenate([pos, pos[1:], skip])
    final = np.full(n, NEG_INF)
    final[-2:] = 0.0
    return DenominatorTable(0, final, ext, width,
                            [(src, dst, np.zeros(len(dst)), n, n)])


def numerator_forward(posterior, labels: Sequence[int],
                      log_pl: float = 0.0) -> ForwardResult:
    """Reference-conditioned score and per-frame occupancy.

    ``score`` is ``log_pl`` plus the log-sum over all length-T state
    sequences collapsing to ``labels`` of the summed node potentials;
    ``occupancy[t][s]`` is the probability that such a sequence emits ``s``
    at frame ``t``.  The LM term is an additive constant with zero gradient.
    Too few frames for the label sequence yields -inf and is flagged.  The
    pass is the denominator's, over the reference's chain.
    """
    post = _as_matrix(posterior)
    res = _forward_backward(post, _reference_chain(labels, post.shape[1]))
    return res._replace(score=log_pl + res.score) if res.feasible else res


def denominator_forward(posterior, den: DenominatorTable) -> ForwardResult:
    """Unconstrained score and per-frame occupancy over the denominator
    graph.  Exact for the flattened machine; any utterance length is
    supported because the transition table is time-invariant."""
    post = _as_matrix(posterior)
    if post.shape[1] != den.num_labels:
        raise DataError(f"posterior width {post.shape[1]} != denominator "
                        f"alphabet {den.num_labels}")
    return _forward_backward(post, den)


def _products(table: DenominatorTable):
    """Functions taking a forward vector ``v`` to ``v M`` and a backward
    vector ``v`` to ``M v``, where ``M`` is the table's transition matrix:
    the dense matrix's own products for a table of at most ``_DENSE_MAX``
    states, else one sparse product by each factor in turn."""
    if table.num_states <= _DENSE_MAX:
        return table._matrix.T.dot, table._matrix.dot
    # the factors' arrays unpacked and reduceat bound once, as a frame's
    # cost is mostly numpy call overhead
    fwd = [(f.fwd_src, f.fwd_prob, f.fwd_starts) for f in table._factors]
    bwd = [(f.bwd_dst, f.bwd_prob, f.bwd_starts)
           for f in reversed(table._factors)]
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


def _forward_backward(post: np.ndarray,
                      table: DenominatorTable) -> ForwardResult:
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


def _forward_backward_log(post: np.ndarray,
                          table: DenominatorTable) -> ForwardResult:
    """The same pass in the log domain, the exact fallback of
    ``_forward_backward``: each factor's product is a ``logaddexp``
    reduction over the same padded CSRs, the emission ``post[t]`` is added
    per state, and nothing is rescaled, so it cannot underflow."""
    t_frames, width = post.shape
    emit = post[:, table.state_label]
    reduceat = np.logaddexp.reduceat
    alpha = np.full((t_frames + 1, table.num_states), NEG_INF)
    alpha[0, table.start] = 0.0
    for t in range(t_frames):
        v = alpha[t]
        for f in table._factors:
            v = reduceat(v[f.fwd_src] + f.fwd_logw, f.fwd_starts)
        alpha[t + 1] = v + emit[t]

    score = logsumexp(alpha[t_frames] + table.final)
    if score == NEG_INF:
        return ForwardResult(NEG_INF, np.zeros((t_frames, width)), False)

    # beta[t + 1] completes a path from a state occupied at frame t
    beta = np.empty_like(alpha)
    beta[t_frames] = table.final
    for t in range(t_frames - 1, 0, -1):
        v = beta[t + 1] + emit[t]
        for f in reversed(table._factors):
            v = reduceat(v[f.bwd_dst] + f.bwd_logw, f.bwd_starts)
        beta[t] = v
    # each frame's state posteriors, rescaled to sum to one: exact where one
    # state holds all the frame's mass, and still not finite where a huge
    # potential lost the pass its precision
    with np.errstate(over="ignore", invalid="ignore"):
        gamma = np.exp(alpha[1:] + beta[1:] - score)
        gamma /= gamma.sum(axis=1, keepdims=True)
        occupancy = gamma @ table._label_onehot
    return ForwardResult(score, occupancy, True)


# ---------------------------------------------------------------------------
# Combined objective
# ---------------------------------------------------------------------------

def crf_loss(posterior, labels: Sequence[int], log_pl: float,
             den: DenominatorTable, alpha: float = 0.0) -> LossResult:
    """Full objective and gradient for one utterance.

    ``alpha`` weights the auxiliary alignment log-likelihood (the numerator
    with the LM constant removed).  Maximization convention; trainers
    negate.  An infeasible numerator against a finite denominator marks the
    utterance degenerate: -inf objective, zero gradient.
    """
    if not alpha >= 0:   # NaN fails too
        raise DataError("auxiliary weight must be >= 0")
    post = _as_matrix(posterior)
    num = numerator_forward(post, labels, log_pl)
    den_res = denominator_forward(post, den)
    if not num.feasible or not den_res.feasible:
        return LossResult(NEG_INF, np.zeros_like(post), num.score,
                          den_res.score, NEG_INF, degenerate=True)
    aux = num.score - log_pl
    objective = (num.score - den_res.score) + alpha * aux
    grad = (1.0 + alpha) * num.occupancy - den_res.occupancy
    return LossResult(objective, grad, num.score, den_res.score, aux)
