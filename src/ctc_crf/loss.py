"""The sequence-CRF objective with blank-collapsing topology.

The objective for one utterance is

    objective = (numerator - denominator) + alpha * aux

where the numerator sums, over every length-T state sequence collapsing to
the reference labels, the sequence-level LM score plus per-frame node
potentials; the denominator sums the same potential over all state sequences
via the denominator graph T∘G (a text FST on disk, whose acyclic backoff
epsilons ``flatten_denominator`` folds into its labeled arcs in memory); and
``aux`` is the plain alignment log-likelihood (the numerator without the LM
constant).  The numerator runs in the log domain.  The denominator runs in
the probability domain with a per-frame rescale, as in lattice-free MMI: one
sparse matrix-vector product per frame, with a log-domain pass kept as the
exact fallback for an utterance whose rescaled mass underflows.  Gradients
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
    """Flattened denominator graph: labeled transitions only.

    Arrays are parallel over transitions; labels are state-symbol ids that
    index posterior columns.  Immutable.  A table has no file format of its
    own: ``flatten_denominator`` builds it from the T∘G graph, which is
    stored and read as a text FST.

    The constructor also compiles the machine the forward-backward runs on,
    in which every state carries one label: the label of each transition
    entering it.  A state entered on several labels is split into one copy
    per label, each copy with the state's out-transitions and final weight.
    In a T∘G table the topology enters a state on that state's own symbol,
    so no state is split and the numbering is kept; a hand-built table, such
    as one state looping on blank and on a label, is split.  The compiled
    arrays hold transitions sorted by destination (forward) and by source
    (backward), with weights and final weights in the probability domain.
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
        if n and (self.label.min() < 0 or self.label.max() >= self.num_labels):
            raise DataError("transition label out of range")
        if not 0 <= self.start < self.num_states:
            raise DataError("start state out of range")
        if n and (min(self.from_state.min(), self.to_state.min()) < 0
                  or max(self.from_state.max(), self.to_state.max())
                  >= self.num_states):
            raise DataError("transition state out of range")

        # one compiled state per (state, entering label), numbered in key
        # order; a state nothing enters keeps one copy, which holds mass
        # only before the first frame, so its label weighs nothing
        width = max(self.num_labels, 1)
        unentered = np.flatnonzero(
            np.bincount(self.to_state, minlength=self.num_states) == 0)
        entry = self.to_state * width + self.label
        keys, _ = _segments(np.sort(np.concatenate([entry, unentered * width]),
                                    kind="stable"))
        # the copies of state q are first[q] .. first[q + 1] - 1, and every
        # copy leaves on every transition: compiled j copies transition arc[j]
        first = np.searchsorted(keys, np.arange(self.num_states + 1) * width)
        arc, src = _expand(first, self.from_state)
        dst = np.searchsorted(keys, entry)[arc]
        with np.errstate(over="ignore"):
            prob = np.exp(self.weight[arc])
            self._final_prob = np.exp(self.final[keys // width])
        self._state_label = keys % width
        self._start = int(first[self.start])
        by_dst = np.argsort(dst, kind="stable")
        self._fwd_src = src[by_dst]
        self._fwd_prob = prob[by_dst]
        self._fwd_heads, self._fwd_starts = _segments(dst[by_dst])
        by_src = np.argsort(src, kind="stable")
        self._bwd_dst = dst[by_src]
        self._bwd_prob = prob[by_src]
        self._bwd_heads, self._bwd_starts = _segments(src[by_src])

    @property
    def num_transitions(self) -> int:
        return len(self.from_state)


def _segments(ids: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Distinct values of a sorted id array and where each run starts: the
    segment offsets ``np.add.reduceat`` sums over."""
    starts = np.flatnonzero(np.diff(ids, prepend=-1))
    return ids[starts], starts


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
    heads, starts = _segments(key[order])
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
    dropped.
    """
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
    return DenominatorTable(
        num_states=int(live.sum()),
        start=renumber[den_fst.start],
        from_state=renumber[from_s[sel]],
        to_state=renumber[to_s[sel]],
        label=ilab[sel] - 1,
        weight=w[sel],
        final=final[live],
        num_labels=len(den_fst.isyms) - 1,
    )


# ---------------------------------------------------------------------------
# Numerator: forward-backward on the extended label lattice
# ---------------------------------------------------------------------------

def _extended_labels(labels: Sequence[int], width: int) -> np.ndarray:
    ext = np.zeros(2 * len(labels) + 1, dtype=np.int64)
    for i, lab in enumerate(labels):
        if not 1 <= lab < width:
            raise DataError(f"label id {lab} outside the state alphabet")
        ext[2 * i + 1] = lab
    return ext


def numerator_forward(posterior, labels: Sequence[int],
                      log_pl: float = 0.0) -> ForwardResult:
    """Reference-conditioned score and per-frame occupancy.

    ``score`` is ``log_pl`` plus the log-sum over all length-T state
    sequences collapsing to ``labels`` of the summed node potentials;
    ``occupancy[t][s]`` is the probability that such a sequence emits ``s``
    at frame ``t``.  The LM term is an additive constant with zero gradient.
    Too few frames for the label sequence yields -inf and is flagged.
    """
    post = _as_matrix(posterior)
    t_frames, width = post.shape
    labels = list(labels)
    ext = _extended_labels(labels, width)
    s_len = len(ext)

    # positions reachable by a skip: non-blank and different from u-2
    skip_ok = np.zeros(s_len, dtype=bool)
    if s_len > 2:
        skip_ok[2:] = (ext[2:] != 0) & (ext[2:] != ext[:-2])

    alpha = np.full((t_frames, s_len), NEG_INF)
    alpha[0, 0] = post[0, ext[0]]
    if s_len > 1:
        alpha[0, 1] = post[0, ext[1]]
    for t in range(1, t_frames):
        prev = alpha[t - 1]
        step = prev.copy()
        step[1:] = np.logaddexp(step[1:], prev[:-1])
        step[2:][skip_ok[2:]] = np.logaddexp(step[2:][skip_ok[2:]],
                                             prev[:-2][skip_ok[2:]])
        alpha[t] = step + post[t, ext]

    tail = alpha[t_frames - 1, s_len - 1]
    if s_len > 1:
        tail = np.logaddexp(tail, alpha[t_frames - 1, s_len - 2])
    path_mass = float(tail)
    if path_mass == NEG_INF:
        return ForwardResult(NEG_INF, np.zeros((t_frames, width)), False)

    beta = np.full((t_frames, s_len), NEG_INF)
    beta[t_frames - 1, s_len - 1] = 0.0
    if s_len > 1:
        beta[t_frames - 1, s_len - 2] = 0.0
    for t in range(t_frames - 2, -1, -1):
        nxt = beta[t + 1] + post[t + 1, ext]
        step = nxt.copy()
        step[:-1] = np.logaddexp(step[:-1], nxt[1:])
        step[:-2][skip_ok[2:]] = np.logaddexp(step[:-2][skip_ok[2:]], nxt[2:][skip_ok[2:]])
        beta[t] = step

    with np.errstate(over="ignore", under="ignore"):
        gamma = np.exp(alpha + beta - path_mass)
    occupancy = np.zeros((t_frames, width))
    for u in range(s_len):
        occupancy[:, ext[u]] += gamma[:, u]
    return ForwardResult(log_pl + path_mass, occupancy, True)


# ---------------------------------------------------------------------------
# Denominator: forward-backward over the flattened graph
# ---------------------------------------------------------------------------

def denominator_forward(posterior, den: DenominatorTable) -> ForwardResult:
    """Unconstrained score and per-frame occupancy over the denominator
    graph.  Exact for the flattened machine; any utterance length is
    supported because the transition table is time-invariant.

    Each frame is one sparse matrix-vector product over the compiled
    transitions times a per-state emission ``exp(post[t] - max(post[t]))``,
    and the result is rescaled to sum to one.  The score adds back the
    logs of the rescale factors and of the row maxima.  The backward pass
    reuses the forward factors, so ``alpha * beta`` is a state posterior and
    the occupancy is its sum by state label.  An utterance whose rescale
    mass underflows or is not finite takes the exact log-domain pass.
    """
    post = _as_matrix(posterior)
    t_frames, width = post.shape
    if width != den.num_labels:
        raise DataError(
            f"posterior width {width} != denominator alphabet {den.num_labels}")
    if den.num_transitions == 0:
        return ForwardResult(NEG_INF, np.zeros((t_frames, width)), False)
    peak = post.max(axis=1)
    if not np.isfinite(peak).all():
        return _denominator_forward_log(post, den)
    emit = np.exp(post - peak[:, None])
    lab = den._state_label

    alpha = np.zeros((t_frames + 1, len(lab)))
    alpha[0, den._start] = 1.0
    scale = np.empty(t_frames)
    for t in range(t_frames):
        nxt = alpha[t + 1]
        nxt[den._fwd_heads] = np.add.reduceat(
            alpha[t, den._fwd_src] * den._fwd_prob, den._fwd_starts)
        nxt *= emit[t, lab]
        scale[t] = nxt.sum()
        if not _MIN_SCALE < scale[t] < np.inf:
            return _denominator_forward_log(post, den)
        nxt /= scale[t]
    end = float(alpha[t_frames] @ den._final_prob)
    if not _MIN_SCALE < end < np.inf:
        return _denominator_forward_log(post, den)

    beta = den._final_prob / end
    occupancy = np.empty((t_frames, width))
    with np.errstate(over="ignore", invalid="ignore"):
        for t in range(t_frames - 1, -1, -1):
            occupancy[t] = np.bincount(lab, alpha[t + 1] * beta,
                                       minlength=width)
            if t:
                step = (beta * emit[t, lab])[den._bwd_dst] * den._bwd_prob
                beta = np.zeros_like(beta)
                beta[den._bwd_heads] = (np.add.reduceat(step, den._bwd_starts)
                                        / scale[t])
    if not np.isfinite(occupancy).all():
        return _denominator_forward_log(post, den)
    score = np.log(scale).sum() + peak.sum() + np.log(end)
    return ForwardResult(float(score), occupancy, True)


def _denominator_forward_log(post: np.ndarray,
                             den: DenominatorTable) -> ForwardResult:
    """The same pass in the log domain over the table's own transitions:
    two scatters per frame and no rescaling, so it cannot underflow.  The
    exact fallback of ``denominator_forward``."""
    t_frames, width = post.shape
    src, dst, lab, w = den.from_state, den.to_state, den.label, den.weight
    alpha = np.full((t_frames + 1, den.num_states), NEG_INF)
    alpha[0, den.start] = 0.0
    for t in range(t_frames):
        contrib = alpha[t, src] + w + post[t, lab]
        np.logaddexp.at(alpha[t + 1], dst, contrib)

    score = logsumexp(alpha[t_frames] + den.final)
    if score == NEG_INF:
        return ForwardResult(NEG_INF, np.zeros((t_frames, width)), False)

    beta = np.full((t_frames + 1, den.num_states), NEG_INF)
    beta[t_frames] = den.final
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

