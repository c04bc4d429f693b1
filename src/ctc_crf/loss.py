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
reference's blank-augmented chain for the numerator.  The pass runs in the
probability domain with a per-frame rescale, as in lattice-free MMI: per
frame, one sparse matrix-vector product by each factor of the transition
matrix (for T∘G of a trigram, the epsilon closure and then the labeled
arcs, which hold about a third of the entries of their product), with a
log-domain pass kept as the exact fallback for an utterance whose rescaled
mass underflows.  Gradients
are with respect to the node potentials: the difference between the
reference-conditioned and unconstrained per-frame symbol occupancies.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from .errors import DataError
from .semiring import ZERO, logsumexp
from .wfst import EPS, Wfst

NEG_INF = ZERO
# A frame's rescale mass below this is built from subnormal terms and would
# lose precision; such an utterance takes the log-domain pass instead.
_MIN_SCALE = 1e-250


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

    def assert_log_softmax(self, tol: float = 1e-5) -> None:
        row_mass = np.log(np.sum(np.exp(self.values), axis=1))
        if np.max(np.abs(row_mass)) > tol:
            raise DataError("rows are not normalized log-probabilities")

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

    Arrays are parallel over transitions; labels are state-symbol ids that
    index posterior columns.  Immutable.  A table has no file format of its
    own: ``flatten_denominator`` builds it from the T∘G graph, which is
    stored and read as a text FST, and ``numerator_forward`` builds one per
    reference.

    Every transition entering a state carries the state's label, and a
    table that enters one state on two labels is a DataError: T∘G enters
    each state on its own symbol, the reference chain each position on its
    symbol.

    The pass reads the transition matrix as a list of sparse factors whose
    product it is, each sorted by destination and by source in the
    probability domain.  The constructor makes one factor, the transitions
    themselves.  ``flatten_denominator`` replaces it by two, the epsilon
    closure and the labeled arcs, when they hold fewer entries than the
    transitions: for a 30-label trigram, ~4.8k closure pairs and ~21.2k
    arcs against 72,851 transitions.  The transition arrays stay, for the
    log-domain pass and for ``num_transitions``.
    """

    def __init__(self, num_states: int, start: int, from_state, to_state,
                 label, weight, final, num_labels: int):
        self.num_states = int(num_states)
        self.start = int(start)
        self.from_state = np.ascontiguousarray(from_state, dtype=np.int64)
        self.to_state = np.ascontiguousarray(to_state, dtype=np.int64)
        self.label = np.ascontiguousarray(label, dtype=np.int64)
        self.weight = np.ascontiguousarray(weight, dtype=np.float64)
        self.final = np.ascontiguousarray(final, dtype=np.float64)
        self.num_labels = int(num_labels)
        n = len(self.from_state)
        if not (len(self.to_state) == len(self.label) == len(self.weight) == n):
            raise DataError("transition arrays have mismatched lengths")
        if len(self.final) != self.num_states:
            raise DataError("final-weight array does not match state count")
        if self.num_labels < 1:
            raise DataError("a table needs at least one label")
        if n and (self.label.min() < 0 or self.label.max() >= self.num_labels):
            raise DataError("transition label out of range")
        if not 0 <= self.start < self.num_states:
            raise DataError("start state out of range")
        if n and (min(self.from_state.min(), self.to_state.min()) < 0
                  or max(self.from_state.max(), self.to_state.max())
                  >= self.num_states):
            raise DataError("transition state out of range")

        self._state_label = _state_labels(self.num_states, self.to_state,
                                          self.label)
        with np.errstate(over="ignore"):
            prob = np.exp(self.weight)
            self._final_prob = np.exp(self.final)
        # state posteriors times these one-hot rows sum them by label
        self._label_onehot = np.eye(self.num_labels)[self._state_label]
        self._factors = [_factor(self.from_state, self.to_state, prob,
                                 self.num_states, self.num_states)]

    @property
    def num_transitions(self) -> int:
        return len(self.from_state)


class _Factor(NamedTuple):
    """A sparse ``num_src`` x ``num_dst`` matrix in the probability domain
    as two CSRs: by destination (``fwd_*``, for the forward pass) and by
    source (``bwd_*``, for the backward pass).  ``nnz`` counts its entries
    before padding."""
    fwd_src: np.ndarray
    fwd_prob: np.ndarray
    fwd_starts: np.ndarray
    bwd_dst: np.ndarray
    bwd_prob: np.ndarray
    bwd_starts: np.ndarray
    nnz: int


def _factor(src, dst, prob, num_src: int, num_dst: int) -> _Factor:
    """The factor with entries ``prob`` at ``(src, dst)``.  Each index ``k``
    whose row or column is empty or missing (``k`` past the smaller
    dimension) gets a zero-probability pair ``(k, k)``, clipped to the
    shape, so every ``reduceat`` segment is non-empty."""
    size = max(num_src, num_dst)
    pad = (np.bincount(src, minlength=size)
           * np.bincount(dst, minlength=size) == 0).nonzero()[0]
    nnz = len(src)
    src = np.concatenate([src, np.minimum(pad, num_src - 1)])
    dst = np.concatenate([dst, np.minimum(pad, num_dst - 1)])
    prob = np.concatenate([prob, np.zeros(len(pad))])
    by_dst = np.argsort(dst, kind="stable")
    by_src = np.argsort(src, kind="stable")
    return _Factor(src[by_dst], prob[by_dst],
                   np.searchsorted(dst[by_dst], np.arange(num_dst)),
                   dst[by_src], prob[by_src],
                   np.searchsorted(src[by_src], np.arange(num_src)), nnz)


def _state_labels(num_states: int, to_state, label) -> np.ndarray:
    """Each state's label, that of every transition entering it; 0 where
    none does, as such a state holds mass only before the first frame."""
    state_label = np.zeros(num_states, dtype=np.int64)
    state_label[to_state] = label
    clash = np.flatnonzero(state_label[to_state] != label)
    if len(clash):
        q = to_state[clash[0]]
        raise DataError(f"state {q} is entered on labels {label[clash[0]]} "
                        f"and {state_label[q]}")
    return state_label


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


def _reachable(seeds, src, dst, num_states: int) -> np.ndarray:
    """Mask of the states reachable from ``seeds`` along edges ``src -> dst``,
    found one breadth-first level at a time."""
    order = np.argsort(src, kind="stable")
    indptr = np.searchsorted(src[order], np.arange(num_states + 1))
    seen = np.zeros(num_states, dtype=bool)
    frontier = np.asarray(seeds, dtype=np.int64)
    while len(frontier):
        seen[frontier] = True
        nxt = dst[order[_expand(indptr, frontier)[1]]]
        frontier = np.unique(nxt[~seen[nxt]])
    return seen


def flatten_denominator(den_fst: Wfst) -> DenominatorTable:
    """Fold the epsilon-input (backoff) arcs into the labeled arcs after
    them, then trim.

    Each epsilon path ``q ~> r`` and labeled arc ``r -> s`` give a
    transition ``q -> s``, in (q, r, arc) order; the final weight of ``q``
    sums those of the ``r``.  The closure grows one epsilon level at a time
    as (origin, reached, log mass) rows from (q, q, 0), one row per pair
    and level however many paths join them.  Backoff epsilons go to a
    shorter context, so they form no cycle and the levels run out; an
    epsilon cycle is a DataError.  States on no start-to-final path are
    dropped.  A live state entered on two input labels is a DataError that
    names it.

    The transition matrix is the product of the closure C and the labeled
    arcs L.  When C and L hold fewer entries than their product, as for a
    trigram's backoff graph, the table's pass runs over C and L in turn.
    """
    table, factors = _flatten(den_fst)
    if sum(f.nnz for f in factors) < table.num_transitions:
        table._factors = factors
    return table


def _flatten(den_fst: Wfst) -> tuple[DenominatorTable, list[_Factor]]:
    """The flattened table and factors whose product is its transition
    matrix: the live part of the closure C, from the table's states to the
    states with a labeled arc to a live state, and those arcs L."""
    if den_fst.semiring.kind != "log":
        raise DataError("denominator graph must be in the log semiring")
    if den_fst.start is None:
        raise DataError("denominator graph is empty")
    n = den_fst.num_states
    arcs = np.reshape([(q, *a) for q in den_fst.states()
                       for a in den_fst.arcs(q)], (-1, 5))
    src, ilabel, dst = arcs[:, [0, 1, 4]].T.astype(np.int64)
    weight = arcs[:, 3]
    indptr = np.searchsorted(src, np.arange(n + 1))

    def follow(origin, reached, mass, eps):
        """Extend each row by the epsilon (or labeled) arcs of its state."""
        i, arc = _expand(indptr, reached)
        take = (ilabel[arc] == EPS) == eps
        i, arc = i[take], arc[take]
        return origin[i], dst[arc], ilabel[arc], mass[i] + weight[arc]

    levels = [(np.arange(n), np.arange(n), np.zeros(n))]
    while len(levels[-1][0]):
        if len(levels) > n:
            raise DataError("epsilon cycle in the denominator graph")
        origin, reached, _, mass = follow(*levels[-1], eps=True)
        levels.append(_merge_pairs(origin, reached, mass, n))
    origin, reached, mass = _merge_pairs(
        *(np.concatenate(rows) for rows in zip(*levels)), n)
    nonzero = mass > NEG_INF
    origin, reached, mass = origin[nonzero], reached[nonzero], mass[nonzero]

    from_s, to_s, ilab, w = follow(origin, reached, mass, eps=False)
    final_in = np.full(n, NEG_INF)
    final_in[list(den_fst.finals)] = list(den_fst.finals.values())
    final = np.full(n, NEG_INF)
    np.logaddexp.at(final, origin, mass + final_in[reached])

    live = (_reachable([den_fst.start], from_s, to_s, n)
            & _reachable(np.flatnonzero(final > NEG_INF), to_s, from_s, n))
    if not live[den_fst.start]:
        raise DataError("denominator graph has no complete path")
    renumber = np.cumsum(live) - 1
    sel = live[from_s] & live[to_s]
    # checked before the renumbering, so an error names the graph's state
    _state_labels(n, to_s[sel], ilab[sel])
    table = DenominatorTable(
        num_states=int(live.sum()),
        start=renumber[den_fst.start],
        from_state=renumber[from_s[sel]],
        to_state=renumber[to_s[sel]],
        label=ilab[sel] - 1,
        weight=w[sel],
        final=final[live],
        num_labels=len(den_fst.isyms) - 1,
    )

    arc = (ilabel != EPS) & live[dst]
    mid = np.zeros(n, dtype=bool)
    mid[reached[live[origin]]] = True
    mid &= np.bincount(src[arc], minlength=n) > 0
    k = int(mid.sum())
    if not k:   # no live transition: the table's own factor is the product
        return table, table._factors
    row = live[origin] & mid[reached]
    arc &= mid[src]
    to_mid = np.cumsum(mid) - 1
    with np.errstate(over="ignore"):
        return table, [
            _factor(renumber[origin[row]], to_mid[reached[row]],
                    np.exp(mass[row]), table.num_states, k),
            _factor(to_mid[src[arc]], renumber[dst[arc]],
                    np.exp(weight[arc]), k, table.num_states)]


# ---------------------------------------------------------------------------
# Numerator and denominator: one forward-backward over a table
# ---------------------------------------------------------------------------

def _reference_chain(labels: Sequence[int], width: int) -> DenominatorTable:
    """The reference's blank-augmented chain as a table.

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
    return DenominatorTable(n, 0, src, dst, ext[dst], np.zeros(len(dst)),
                            final, width)


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


def _forward_backward(post: np.ndarray,
                      table: DenominatorTable) -> ForwardResult:
    """Score and per-frame occupancy of all paths through ``table``.

    Each frame multiplies the forward masses by the table's factors in
    turn, one sparse matrix-vector product each, then by a per-state
    emission ``exp(post[t] - max(post[t]))``, and rescales the result to
    sum to one.  The score adds back the logs of the rescale masses and of
    the row maxima.  The backward pass multiplies by the factors'
    transposes in reverse order and divides by the forward rescale masses,
    so ``alpha * beta`` is a state posterior and the occupancy is its sum
    by state label.  An utterance whose rescale mass underflows or is not
    finite takes the exact log-domain pass.
    """
    t_frames = len(post)
    peak = post.max(axis=1)
    if not np.isfinite(peak).all():
        return _forward_backward_log(post, table)
    emit = np.exp(post - peak[:, None])
    lab = table._state_label
    # the factors' arrays unpacked and reduceat bound once, as a short
    # utterance's frames cost mostly Python overhead
    fwd = [(f.fwd_src, f.fwd_prob, f.fwd_starts) for f in table._factors]
    bwd = [(f.bwd_dst, f.bwd_prob, f.bwd_starts)
           for f in reversed(table._factors)]
    reduceat = np.add.reduceat

    # rows 1 .. T start as the emissions and end as the rescaled forward
    # masses; with mode="clip" take writes them in place, where the default
    # mode would buffer a T x N copy
    alpha = np.empty((t_frames + 1, table.num_states))
    alpha[0] = 0.0
    alpha[0, table.start] = 1.0
    np.take(emit, lab, axis=1, out=alpha[1:], mode="clip")
    scale = np.empty(t_frames)
    # rows are indexed before their columns: alpha[t][src] takes numpy's
    # fast path, alpha[t, src] does not
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        for t in range(t_frames):
            v = alpha[t]
            for src, prob, starts in fwd:
                v = reduceat(v[src] * prob, starts)
            nxt = alpha[t + 1]
            nxt *= v
            scale[t] = mass = nxt.sum()
            nxt /= mass
        end = float(alpha[t_frames] @ table._final_prob)
    if not (np.all((_MIN_SCALE < scale) & (scale < np.inf))
            and _MIN_SCALE < end < np.inf):
        return _forward_backward_log(post, table)

    # row t + 1 of alpha becomes the state posterior of frame t
    beta = table._final_prob / end
    with np.errstate(over="ignore", invalid="ignore"):
        for t in range(t_frames - 1, -1, -1):
            gamma = alpha[t + 1]
            gamma *= beta
            if t:
                v = beta * emit[t][lab]
                for dst, prob, starts in bwd:
                    v = reduceat(v[dst] * prob, starts)
                beta = v / scale[t]
        occupancy = alpha[1:] @ table._label_onehot
    if not np.isfinite(occupancy).all():
        return _forward_backward_log(post, table)
    score = np.log(scale).sum() + peak.sum() + np.log(end)
    return ForwardResult(float(score), occupancy, True)


def _forward_backward_log(post: np.ndarray,
                          table: DenominatorTable) -> ForwardResult:
    """The same pass in the log domain over the table's own transitions:
    two scatters per frame and no rescaling, so it cannot underflow.  The
    exact fallback of ``_forward_backward``."""
    t_frames, width = post.shape
    src, dst = table.from_state, table.to_state
    lab, w = table.label, table.weight
    alpha = np.full((t_frames + 1, table.num_states), NEG_INF)
    alpha[0, table.start] = 0.0
    for t in range(t_frames):
        contrib = alpha[t, src] + w + post[t, lab]
        np.logaddexp.at(alpha[t + 1], dst, contrib)

    score = logsumexp(alpha[t_frames] + table.final)
    if score == NEG_INF:
        return ForwardResult(NEG_INF, np.zeros((t_frames, width)), False)

    beta = np.full((t_frames + 1, table.num_states), NEG_INF)
    beta[t_frames] = table.final
    for t in range(t_frames - 1, -1, -1):
        contrib = beta[t + 1, dst] + w + post[t, lab]
        np.logaddexp.at(beta[t], src, contrib)

    occupancy = np.zeros((t_frames, width))
    with np.errstate(over="ignore", under="ignore"):
        for t in range(t_frames):
            arc_post = np.exp(alpha[t, src] + w + post[t, lab]
                              + beta[t + 1, dst] - score)
            np.add.at(occupancy[t], lab, arc_post)
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
    if alpha < 0:
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

