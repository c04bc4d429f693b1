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
matrix-vector product per frame.  A larger one (a trigram T∘G, a long
reference chain) makes one sparse product by each factor, held as jagged
diagonals (Saad, 1989): its output rows sorted by entry count, so that the
k-th entries of all rows are one contiguous vector added into a prefix of
the output.  Most rows hold one to three entries, so a product is a gather,
a multiply and a few vector adds, with one ``reduceat`` over the rest of
the few long rows.  A log-domain pass over the same layout is the exact
fallback for an utterance whose rescaled mass underflows.  Gradients are
with respect to the node potentials: the difference between the
reference-conditioned and unconstrained per-frame symbol occupancies.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, reduce
from typing import NamedTuple, Sequence

import numpy as np

from .dataio import nonfinite
from .errors import DataError
from .semiring import LOG, ZERO, logsumexp
from .wfst import (EPS, Wfst, _expand, _final_columns, check_epsilon_acyclic,
                   reachable)

NEG_INF = ZERO
# A frame's rescale mass below this is built from subnormal terms and would
# lose precision; such an utterance takes the log-domain pass instead.
_MIN_SCALE = 1e-250
# A table of at most this many states runs its pass over its dense
# transition matrix: one matrix-vector product per frame costs less than the
# numpy calls of the sparse products by its factors.  A trigram's thousands
# of states stay sparse, where a dense product costs N^2 per frame.
_DENSE_MAX = 64
# A sparse product sums each diagonal of its jagged layout that covers at
# least this share of its rows with one slice add; the entries past the
# last such diagonal, in the few long rows, are summed by one reduceat,
# whose cost is per row.
_MIN_DIAGONAL = 0.25


def as_posterior(values) -> np.ndarray:
    """``values`` as a contiguous float64 T x W matrix of per-frame log
    potentials: a DataError unless it is 2-D with no NaN and no +inf; -inf,
    log zero, is a potential."""
    post = np.ascontiguousarray(values, dtype=np.float64)
    if post.ndim != 2:
        raise DataError(f"posterior must be 2-D, got shape {post.shape}")
    if nonfinite(post, allow_neg_inf=True).any():
        raise DataError("posterior holds NaN or +inf")
    return post


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
    add; a row or a column may be empty.  The pass reads the product in one
    of two forms, each built on first use: a table of at most ``_DENSE_MAX``
    states forms the dense matrix; a larger one never does and runs over
    the factors laid out as jagged diagonals, one layout for the forward
    products and one for the backward, which the log-domain fallback and
    ``num_transitions`` also read.  ``flatten_denominator`` builds neither,
    so set-up does not pay for them.  Labels are not checked against
    ``num_labels``: both builders take them from checked input.  Immutable.
    A table has no file format of its own:
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
    def _layout(self) -> tuple[_Direction, _Direction]:
        """The factors' products as jagged diagonals: forward, by each
        factor in turn, and backward, by their transposes in reverse."""
        entries = self._factor_entries
        return (_direction([(dst, src, logw, num_dst)
                            for src, dst, logw, _, num_dst in entries]),
                _direction([(src, dst, logw, num_src)
                            for src, dst, logw, num_src, _ in entries[::-1]]))

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
        fwd = self._layout[0]
        paths = _jagged(fwd, [(s.logw > NEG_INF) * 1.0 for s in fwd.stages],
                        np.multiply, np.add, 0.0)
        return int(paths(np.ones(self.num_states)).sum())


class _Stage(NamedTuple):
    """One factor's product in one direction as jagged diagonals.  The
    output rows are held in decreasing order of their entry counts, and
    entry ``k`` of each row with more than ``k`` entries lies on diagonal
    ``k``, which adds into a prefix of the output.  Per entry, the input
    position it reads and its weight, as a log and as a probability: the
    diagonals first, each in row order, then the tail, the entries of the
    long rows past the last diagonal, row by row.  ``diagonals`` holds the
    ``(start, end)`` of each diagonal and ``tail_starts`` the offsets of the
    tail's rows from its start."""
    index: np.ndarray
    logw: np.ndarray
    prob: np.ndarray
    rows: int
    diagonals: tuple[tuple[int, int], ...]
    tail_starts: np.ndarray


class _Direction(NamedTuple):
    """A product by several factors in turn.  Each stage's output stays in
    its own row order, which the next stage's input positions already
    follow; ``unsort`` gives each state's position in the last output."""
    stages: tuple[_Stage, ...]
    unsort: np.ndarray


def _direction(factors) -> _Direction:
    """The product by ``factors`` in turn, each ``(row, col, log_weight,
    rows)``: entry ``e`` adds ``v[col[e]]`` times its weight into output
    ``row[e]``; repeated entries add."""
    stages, place = [], None
    for row, col, logw, rows in factors:
        col = np.asarray(col, dtype=np.int64)
        stage, place = _stage(np.asarray(row, dtype=np.int64),
                              col if place is None else place[col],
                              np.asarray(logw, dtype=np.float64), rows)
        stages.append(stage)
    return _Direction(tuple(stages), place)


def _stage(row, col, logw, rows: int):
    """The jagged diagonals of one factor's product, and each row's position
    in its output."""
    count = np.bincount(row, minlength=rows)
    order = np.argsort(-count, kind="stable")
    place = np.empty(rows, dtype=np.int64)
    place[order] = np.arange(rows)
    # length[k] rows have more than k entries; diagonal 0 is always one, so
    # that the tail adds into an output the diagonals have set
    length = np.cumsum(np.bincount(count)[::-1])[::-1][1:]
    wide = min(len(length), max(
        1, int(np.count_nonzero(length >= _MIN_DIAGONAL * rows))))
    # each entry's rank among its row's entries, in entry order
    by_row = np.argsort(row, kind="stable")
    rank = np.empty(len(row), dtype=np.int64)
    rank[by_row] = (np.arange(len(row))
                    - (np.cumsum(count) - count)[row[by_row]])
    pos = place[row]
    tail = rank >= wide
    perm = np.lexsort((np.where(tail, rank, pos), np.where(tail, pos, rank),
                       tail))
    ends = np.cumsum(length[:wide]).tolist()
    long = count[order] - wide
    long = long[long > 0]
    with np.errstate(over="ignore"):
        prob = np.exp(logw[perm])
    return _Stage(col[perm], logw[perm], prob, rows,
                  tuple(zip([0, *ends[:-1]], ends)),
                  np.cumsum(long) - long), place


def _jagged(direction: _Direction, weights, combine, add, fill: float):
    """A function taking a vector ``v`` to its product by the direction's
    factors, each entry's term ``combine(v[index], weight)`` and the terms
    of a row summed by ``add``, with ``weights`` one array per stage: for
    the rescaled pass the probabilities, ``np.multiply`` and ``np.add``,
    for the log-domain pass the log weights, ``np.add`` and
    ``np.logaddexp``.  An empty row holds ``fill``.  Each stage gathers and
    combines its entries into one buffer, then copies or adds each
    diagonal into a prefix of its output, with one ``reduceat`` for the
    tail; the buffers belong to the function, which is not reentrant."""
    plan = []
    for stage, weight in zip(direction.stages, weights):
        terms = np.empty(len(stage.index))
        # diagonal 0 sets the output: where it covers every row it is the
        # output, else it is copied into one that holds fill elsewhere
        full = stage.diagonals[:1] == ((0, stage.rows),)
        out = terms[:stage.rows] if full else np.full(stage.rows, fill)
        diagonals = [(out[:b - a], terms[a:b]) for a, b in stage.diagonals]
        head = diagonals.pop(0) if diagonals else None
        tail = None
        if len(stage.tail_starts):
            tail = (out[:len(stage.tail_starts)],
                    terms[stage.diagonals[-1][1]:], stage.tail_starts)
        plan.append((stage.index, weight, terms, out, None if full else head,
                     diagonals, tail))
    unsort = direction.unsort
    take, copyto, reduceat = np.take, np.copyto, add.reduceat

    def product(v):
        for index, weight, terms, out, head, diagonals, tail in plan:
            # the indices are in range; with mode="clip" take writes into
            # the buffer, where the default mode would buffer a copy
            take(v, index, out=terms, mode="clip")
            combine(terms, weight, out=terms)
            if head is not None:
                copyto(*head)
            for into, part in diagonals:
                add(into, part, out=into)
            if tail is not None:
                into, part, starts = tail
                add(into, reduceat(part, starts), out=into)
            v = out
        return v[unsort]

    return product


def _dense(src, dst, log_weight, num_src: int, num_dst: int) -> np.ndarray:
    """The factor as a dense matrix of probabilities."""
    cell = (np.asarray(src, dtype=np.int64) * num_dst
            + np.asarray(dst, dtype=np.int64))
    return np.bincount(cell, np.exp(log_weight), num_src * num_dst).reshape(
        num_src, num_dst)


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
    src, ilabel, dst, weight = (den_fst.src, den_fst.ilabel, den_fst.dst,
                                den_fst.weight)
    eps = ilabel == EPS

    check_epsilon_acyclic(den_fst, "denominator graph")
    # the epsilon arcs' own CSR: they keep the machine's order by source
    eps_indptr = np.searchsorted(src[eps], np.arange(n + 1))
    eps_dst, eps_weight = dst[eps], weight[eps]
    levels = [(np.arange(n), np.arange(n), np.zeros(n))]
    while len(levels[-1][0]):
        origin, reached, mass = levels[-1]
        starts = eps_indptr[reached]
        i, arc, _ = _expand(starts, eps_indptr[reached + 1] - starts)
        levels.append(_merge_pairs(origin[i], eps_dst[arc],
                                   mass[i] + eps_weight[arc], n))
    origin, reached, mass = _merge_pairs(
        *(np.concatenate(rows) for rows in zip(*levels)), n)
    nonzero = mass > NEG_INF
    origin, reached, mass = origin[nonzero], reached[nonzero], mass[nonzero]

    is_final, final_in = _final_columns(den_fst)
    into_final = is_final[reached]
    final = np.full(n, NEG_INF)
    np.logaddexp.at(final, origin[into_final],
                    mass[into_final] + final_in[reached[into_final]])

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
    post = as_posterior(posterior)
    res = _forward_backward(post, _reference_chain(labels, post.shape[1]))
    return res._replace(score=log_pl + res.score) if res.feasible else res


def denominator_forward(posterior, den: DenominatorTable) -> ForwardResult:
    """Unconstrained score and per-frame occupancy over the denominator
    graph.  Exact for the flattened machine; any utterance length is
    supported because the transition table is time-invariant."""
    post = as_posterior(posterior)
    if post.shape[1] != den.num_labels:
        raise DataError(f"posterior width {post.shape[1]} != denominator "
                        f"alphabet {den.num_labels}")
    return _forward_backward(post, den)


def _products(table: DenominatorTable, log: bool = False):
    """Functions taking a forward vector ``v`` to ``v M`` and a backward
    vector ``v`` to ``M v``, where ``M`` is the table's transition matrix:
    the dense matrix's own products for a table of at most ``_DENSE_MAX``
    states, else the products by its factors as jagged diagonals.  With
    ``log`` the vectors and ``M`` hold logs, and the products always run
    over the factors."""
    if log:
        return tuple(_jagged(d, [s.logw for s in d.stages], np.add,
                             np.logaddexp, NEG_INF) for d in table._layout)
    if table.num_states <= _DENSE_MAX:
        return table._matrix.T.dot, table._matrix.dot
    return tuple(_jagged(d, [s.prob for s in d.stages], np.multiply, np.add,
                         0.0) for d in table._layout)


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
    ``_forward_backward``: the products run over the same jagged
    diagonals with ``logaddexp`` for their sums, the emission ``post[t]`` is
    added per state, and nothing is rescaled, so it cannot underflow."""
    t_frames, width = post.shape
    emit = post[:, table.state_label]
    forward, backward = _products(table, log=True)
    alpha = np.full((t_frames + 1, table.num_states), NEG_INF)
    alpha[0, table.start] = 0.0
    for t in range(t_frames):
        alpha[t + 1] = forward(alpha[t]) + emit[t]

    score = logsumexp(alpha[t_frames] + table.final)
    if score == NEG_INF:
        return ForwardResult(NEG_INF, np.zeros((t_frames, width)), False)

    # beta[t + 1] completes a path from a state occupied at frame t
    beta = np.empty_like(alpha)
    beta[t_frames] = table.final
    for t in range(t_frames - 1, 0, -1):
        beta[t] = backward(beta[t + 1] + emit[t])
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

def check_alpha(alpha) -> None:
    """Raise a DataError unless the auxiliary weight is finite and >= 0."""
    if not 0 <= alpha < np.inf:   # NaN fails too
        raise DataError(f"auxiliary weight must be finite and >= 0, "
                        f"not {alpha!r}")


def crf_loss(posterior, labels: Sequence[int], log_pl: float,
             den: DenominatorTable, alpha: float = 0.0) -> LossResult:
    """Full objective and gradient for one utterance.

    ``alpha`` weights the auxiliary alignment log-likelihood (the numerator
    with the LM constant removed).  Maximization convention; trainers
    negate.  An infeasible numerator against a finite denominator marks the
    utterance degenerate: -inf objective, zero gradient.
    """
    check_alpha(alpha)
    num = numerator_forward(posterior, labels, log_pl)
    den_res = denominator_forward(posterior, den)
    if not num.feasible or not den_res.feasible:
        return LossResult(NEG_INF, np.zeros_like(num.occupancy), num.score,
                          den_res.score, NEG_INF, degenerate=True)
    aux = num.score - log_pl
    objective = (num.score - den_res.score) + alpha * aux
    grad = (1.0 + alpha) * num.occupancy - den_res.occupancy
    return LossResult(objective, grad, num.score, den_res.score, aux)
