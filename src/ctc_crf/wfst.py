"""Weighted finite-state transducers: data model, composition, trimming,
the blank-collapsing topology transducer, and graph assembly.

A machine is one immutable value.  Each builder collects its finals and arc
rows and constructs the machine once, so constructed graphs are safe to
share across worker processes.  The graph algorithms read the arc columns:
composition expands one breadth-first frontier of state pairs at a time as
arrays, and trimming walks the machine's own CSR forward and its arcs
sorted by target backward.
"""
from __future__ import annotations

from functools import cached_property
from itertools import count, filterfalse
from typing import NamedTuple, Sequence

import numpy as np

from .dataio import read_lines
from .errors import DataError
from .semiring import LOG, ONE, TROPICAL, ZERO
from .symbols import EPS, Alphabet, SymbolTable

# input label of the blank in a machine whose inputs are the topology's state
# symbols (state symbol 0 is <blk>, input label 0 is epsilon)
BLANK = 1

# the largest weight whose probability, exp(weight), is a float64
MAX_WEIGHT = float(np.log(np.finfo(np.float64).max))


class Arc(NamedTuple):
    ilabel: int
    olabel: int
    weight: float
    nextstate: int


def _check_ids(what: str, ids, limit: int) -> None:
    """Raise a DataError naming the first of ``ids`` outside 0 .. limit - 1."""
    ids = np.asarray(ids, dtype=np.int64)
    bad = np.flatnonzero((ids < 0) | (ids >= limit))
    if len(bad):
        raise DataError(f"{what} {ids[bad[0]]} out of range [0, {limit})")


class Wfst:
    """An immutable transducer over states ``0 .. num_states - 1``, with
    symbol tables carried alongside; ``semiring`` is ``LOG`` or
    ``TROPICAL``, and ``start`` is None for a machine with no paths.  The
    arcs are five columns stable-sorted by source, so state ``q``'s arcs
    are rows ``indptr[q]:indptr[q + 1]`` in the order they were given.
    Int64 and float64 columns already sorted are kept, not copied.  The
    ``Arc`` views that ``arcs`` and ``arcs_by_kind`` read are built on
    first use and are not part of the value, nor of its pickle."""

    def __init__(self, semiring: str, isyms: SymbolTable, osyms: SymbolTable,
                 num_states: int, start: int | None, finals: dict[int, float],
                 src=(), ilabel=(), olabel=(), weight=(), dst=()):
        self.semiring = semiring
        self.isyms = isyms
        self.osyms = osyms
        self.num_states = n = int(num_states)
        self.start = None if start is None else int(start)
        self.finals = {int(q): float(finals[q]) for q in sorted(finals)}
        src, ilabel, olabel, dst = (np.asarray(c, dtype=np.int64)
                                    for c in (src, ilabel, olabel, dst))
        weight = np.asarray(weight, dtype=np.float64)
        _check_ids("start state", [] if start is None else [self.start], n)
        _check_ids("final state", list(self.finals), n)
        _check_ids("arc source", src, n)
        _check_ids("arc target", dst, n)
        _check_ids("input label", ilabel, len(isyms))
        _check_ids("output label", olabel, len(osyms))
        if np.any(src[1:] < src[:-1]):
            order = np.argsort(src, kind="stable")
            src, ilabel, olabel, weight, dst = (
                c[order] for c in (src, ilabel, olabel, weight, dst))
        self.src, self.ilabel, self.olabel = src, ilabel, olabel
        self.weight, self.dst = weight, dst
        self.indptr = np.searchsorted(src, np.arange(n + 1))

    @property
    def num_arcs(self) -> int:
        return len(self.src)

    def states(self) -> range:
        return range(self.num_states)

    def final_weight(self, state: int) -> float:
        return self.finals.get(state, ZERO)

    @cached_property
    def _arc_view(self) -> list[tuple[Arc, ...]]:
        # the arcs into a state share one int for it, so the decoder's dict
        # lookups by state compare by identity
        state_ids = list(self.states())
        arcs = list(map(Arc, self.ilabel.tolist(), self.olabel.tolist(),
                        self.weight.tolist(),
                        map(state_ids.__getitem__, self.dst.tolist())))
        bounds = self.indptr.tolist()
        return [tuple(arcs[i:j]) for i, j in zip(bounds, bounds[1:])]

    def arcs(self, state: int) -> Sequence[Arc]:
        return self._arc_view[state]

    @cached_property
    def _by_kind(self) -> tuple[list[tuple[Arc, ...]], ...]:
        check_epsilon_acyclic(self, "decoding graph")
        labelled = [tuple(a for a in arcs if a.ilabel != EPS)
                    for arcs in self._arc_view]
        blanks = [tuple(a for a in arcs if a.ilabel == BLANK)
                  for arcs in labelled]
        eps = [tuple(a for a in arcs if a.ilabel == EPS)
               for arcs in self._arc_view]
        return labelled, blanks, eps

    def arcs_by_kind(self) -> tuple[list[tuple[Arc, ...]], ...]:
        """Three per-state arc lists: the arcs that consume input, those of
        them that consume the blank (input label ``BLANK``), and the
        epsilon-input arcs.  Each keeps graph order and holds the ``Arc``
        tuples of ``arcs(q)``, not copies; a state's arcs of one kind are a
        tuple, as tuples take less memory than lists and all empty ones are
        one object.  A DataError for a machine whose epsilon arcs form a
        cycle, on which the search's epsilon closure would not end."""
        return self._by_kind

    def __eq__(self, other):
        return (isinstance(other, Wfst)
                and self.semiring == other.semiring
                and self.num_states == other.num_states
                and self.start == other.start
                and self.finals == other.finals
                and all(np.array_equal(getattr(self, c), getattr(other, c))
                        for c in ("src", "ilabel", "olabel", "weight", "dst"))
                and self.isyms == other.isyms
                and self.osyms == other.osyms)

    def __getstate__(self):
        # the views are rebuilt on first use, so a pickle carries arrays only
        return {k: v for k, v in self.__dict__.items()
                if k not in ("_arc_view", "_by_kind")}

    def __repr__(self):
        return (f"Wfst({self.semiring}, states={self.num_states}, "
                f"arcs={self.num_arcs}, finals={len(self.finals)})")


# ---------------------------------------------------------------------------
# Blank-collapsing topology
# ---------------------------------------------------------------------------

def map_b(pi: Sequence[int], alphabet: Alphabet) -> list[int]:
    """Collapse runs of identical state symbols, then drop blanks.

    Reference implementation of the state-to-label mapping; the topology
    transducer built below must agree with it on every input.
    """
    out = []
    prev = None
    for sym in pi:
        if not 0 <= sym < alphabet.num_state_symbols:
            raise DataError(f"state symbol {sym} out of range")
        if sym != prev and sym != 0:
            out.append(sym)
        prev = sym
    return out


def build_ctc_topology(alphabet: Alphabet, semiring: str = LOG) -> Wfst:
    """Transducer realizing the blank-collapsing map with |labels|+1 states.

    State 0 is start and keeps a blank self-loop; each label owns one state
    with an emitting entry arc from 0, a non-emitting self-loop, a blank arc
    back to 0, and emitting cross arcs to every other label state.  All states
    are final and every arc carries weight one, so path weights are decided
    entirely by whatever the topology is composed with.
    """
    n = len(alphabet)
    # label i occupies state i; fst ilabel i+1, olabel i
    rows = [(0, BLANK, EPS, ONE, 0)]
    rows += [(0, i + 1, i, ONE, i) for i in range(1, n + 1)]
    for i in range(1, n + 1):
        rows.append((i, i + 1, EPS, ONE, i))
        rows.append((i, BLANK, EPS, ONE, 0))
        rows += [(i, j + 1, j, ONE, j) for j in range(1, n + 1) if j != i]
    return Wfst(semiring, alphabet.pi_symbol_table(),
                alphabet.label_symbol_table(), n + 1, 0,
                dict.fromkeys(range(n + 1), ONE), *zip(*rows))


# ---------------------------------------------------------------------------
# Trimming
# ---------------------------------------------------------------------------

def reachable(seeds, src, dst, num_nodes: int) -> np.ndarray:
    """Mask of the nodes reachable from ``seeds`` along edges ``src -> dst``:
    ``_walk`` over the edges sorted by source."""
    order = np.argsort(src, kind="stable")
    indptr = np.searchsorted(src[order], np.arange(num_nodes + 1))
    return _walk(seeds, indptr, np.asarray(dst, dtype=np.int64)[order])


def _walk(seeds, indptr, succ) -> np.ndarray:
    """Mask of the nodes reachable from ``seeds`` over a CSR: node q's
    successors are ``succ[indptr[q]:indptr[q + 1]]``.  The walk takes one
    step per edge, so a deep graph costs no more than a shallow one with as
    many edges.  The CSR stays in its int64 arrays, read through
    memoryviews: an edge's target becomes a Python int only while the walk
    reads it."""
    indptr, succ = memoryview(indptr), memoryview(succ)
    seen = bytearray(len(indptr) - 1)
    stack = np.unique(seeds).tolist()
    for q in stack:
        seen[q] = 1
    while stack:
        q = stack.pop()
        for r in succ[indptr[q]:indptr[q + 1]]:
            if not seen[r]:
                seen[r] = 1
                stack.append(r)
    return np.frombuffer(seen, dtype=bool)


def check_epsilon_acyclic(fst: Wfst, what: str) -> None:
    """Raise a DataError naming a state on a cycle of epsilon-input arcs, of
    any weight.  Kahn's algorithm over the epsilon arcs alone: a state is
    walked once every epsilon arc into it has been, so the arcs never walked
    are those on a cycle or after one.  Each arc is walked once, as in
    ``_walk``."""
    eps = fst.ilabel == EPS
    src, dst = fst.src[eps], fst.dst[eps]
    n = fst.num_states
    left = np.bincount(dst, minlength=n)
    indptr = memoryview(np.searchsorted(src, np.arange(n + 1)))
    succ = memoryview(dst)
    count = memoryview(left)
    stack = np.unique(src[left[src] == 0]).tolist()
    while stack:
        q = stack.pop()
        for r in succ[indptr[q]:indptr[q + 1]]:
            count[r] -= 1
            if not count[r]:
                stack.append(r)
    if not left.any():
        return
    # each state left is entered from another state left, so n steps back
    # from one of them, taken by doubling, end on a cycle
    back = np.arange(n)
    on = left[src] > 0
    back[dst[on]] = src[on]
    for _ in range(n.bit_length()):
        back = back[back]
    q = back[np.argmax(left > 0)]
    raise DataError(f"epsilon cycle in the {what} through state {q}")


def trim(a: Wfst) -> Wfst:
    """Drop states that are not on any start-to-final path.

    State numbering of the surviving states is preserved in order, so
    trimming an already-trim machine returns an identical machine.
    """
    if a.start is None:
        return Wfst(a.semiring, a.isyms, a.osyms, 0, None, {})
    # forward over the machine's own arcs, backward over them sorted by
    # target
    live = (_walk([a.start], a.indptr, a.dst)
            & reachable(list(a.finals), a.dst, a.src, a.num_states))
    return _restrict(a.semiring, a.isyms, a.osyms, a.start, a.finals, live,
                     a.src, a.ilabel, a.olabel, a.weight, a.dst)


def _restrict(semiring, isyms, osyms, start, finals, live,
              src, ilabel, olabel, weight, dst) -> Wfst:
    """The machine over the states ``live`` marks, renumbered in order, and
    the arcs between them; one with no paths when the start is not live."""
    if not live[start]:
        return Wfst(semiring, isyms, osyms, 0, None, {})
    keep = live[src] & live[dst]
    renumber = np.cumsum(live) - 1
    return Wfst(semiring, isyms, osyms, renumber[-1] + 1, renumber[start],
                {renumber[q]: w for q, w in finals.items() if live[q]},
                renumber[src[keep]], ilabel[keep], olabel[keep],
                weight[keep], renumber[dst[keep]])


# ---------------------------------------------------------------------------
# Composition
# ---------------------------------------------------------------------------

# Composition filter states.  Runs of left-alone / right-alone epsilon moves
# may not alternate, and a simultaneous epsilon move is only taken from the
# neutral state; otherwise path pairs through epsilons would be counted more
# than once (or, with a naive sequential scheme, dropped).
_F_NEUTRAL, _F_LEFT, _F_RIGHT = 0, 1, 2


def _expand(starts, counts):
    """Runs ``starts[i] .. starts[i] + counts[i] - 1`` for each i in turn:
    each entry's i and the entry itself, and where each run ends."""
    ends = counts.cumsum()
    group = np.arange(len(counts)).repeat(counts)
    return group, np.arange(len(group)) + (starts - ends + counts).repeat(
        counts), ends


def _final_columns(m: Wfst):
    """Each state's final flag and final weight, as two arrays."""
    is_final = np.zeros(m.num_states, dtype=bool)
    weight = np.zeros(m.num_states)
    is_final[list(m.finals)] = True
    weight[list(m.finals)] = list(m.finals.values())
    return is_final, weight


def compose(a: Wfst, b: Wfst) -> Wfst:
    """Compose two machines sharing an inner symbol table.

    Epsilon output arcs of ``a`` and epsilon input arcs of ``b`` are handled
    with a three-state composition filter so that every pair of compatible
    paths contributes exactly once.  The result is trimmed.

    States ``(qa, qb, filter)`` are found breadth first and numbered in the
    order they are first reached.  A state's arcs follow ``a``'s arcs in
    order, each paired with ``b``'s arcs in order, and end with ``b``'s
    epsilon-input arcs taken alone.  A whole frontier is expanded at once,
    as arrays: ``a``'s arcs are gathered through ``indptr`` and joined on
    label with ``b``'s arcs, sorted once by (state, input label), through
    ``searchsorted``.  So the cost is one batch of array calls per frontier
    (some 50 microseconds) plus two dict lookups per arc.  The topology
    composed with a bigram or trigram LM is 4 or 5 frontiers deep, but a
    machine thousands of states deep composes more slowly than a per-arc
    loop would: a 20,000-state chain takes about a second.
    """
    if a.semiring != b.semiring:
        raise DataError(f"semiring mismatch: {a.semiring} vs {b.semiring}")
    if a.osyms != b.isyms:
        raise DataError("symbol table mismatch between left output and right input")

    if a.start is None or b.start is None:
        return Wfst(a.semiring, a.isyms, b.osyms, 0, None, {})

    # b's arcs stable-sorted by (state, input label): those of state q with
    # input label x are the rows that q * labels + x spans in b_key
    labels, nb = len(b.isyms), b.num_states
    b_key = b.src * labels + b.ilabel
    order = np.argsort(b_key, kind="stable")
    b_key = b_key[order]
    # each side's columns end with one more row, the stay: an epsilon move
    # of weight -0.0, as w + -0.0 == w for every w, whose target is the
    # state it leaves
    a_ilabel, a_olabel, a_dst = (np.append(c, EPS)
                                 for c in (a.ilabel, a.olabel, a.dst))
    b_olabel, b_dst = (np.append(c[order], EPS) for c in (b.olabel, b.dst))
    a_weight = np.append(a.weight, -0.0)
    b_weight = np.append(b.weight[order], -0.0)
    a_stay, b_stay = a.num_arcs, b.num_arcs

    # a state's id by its key (qa * nb + qb) * 3 + filter
    ids = {(a.start * nb + b.start) * 3 + _F_NEUTRAL: 0}
    keys, columns = [np.array(list(ids))], []
    while len(keys[-1]):
        first = len(ids) - len(keys[-1])   # the frontier's first id
        qab, f = np.divmod(keys[-1], 3)
        qa, qb = np.divmod(qab, nb)
        # each state's arcs in a, then a stay; and for each, the run of
        # b's arcs it pairs with: same label, or b's epsilon inputs for a stay
        starts = a.indptr[qa]
        s, ai, ends = _expand(starts, a.indptr[qa + 1] - starts + 1)
        ai[ends - 1] = a_stay
        x, fs = a_olabel[ai], f[s]
        query = qb[s] * labels + x
        lo = np.searchsorted(b_key, query)
        span = np.searchsorted(b_key, query + 1) - lo
        # an epsilon output of a moves alone, as b row lo - 1, unless b
        # moved alone last; it pairs with b's epsilon inputs only from the
        # neutral filter, and those move alone unless a moved alone last
        stay = ai == a_stay
        eps = (x == EPS) & ~stay
        left = (eps & (fs != _F_RIGHT)).astype(np.int64)
        span[(eps & (fs != _F_NEUTRAL)) | (stay & (fs == _F_LEFT))] = 0
        g, bi, _ = _expand(lo - left, span + left)
        bi[bi < lo[g]] = b_stay
        s, ai = s[g], ai[g]

        a_moves, b_moves = ai != a_stay, bi != b_stay
        key = ((np.where(a_moves, a_dst[ai], qa[s]) * nb
                + np.where(b_moves, b_dst[bi], qb[s])) * 3
               + np.where(a_moves, np.where(b_moves, _F_NEUTRAL, _F_LEFT),
                          _F_RIGHT))
        # targets not seen before are numbered in the order rows reach them
        key = key.tolist()
        new = dict.fromkeys(filterfalse(ids.__contains__, key))
        ids.update(zip(new, count(len(ids))))
        columns.append((first + s, a_ilabel[ai], b_olabel[bi],
                        a_weight[ai] + b_weight[bi],
                        np.fromiter(map(ids.__getitem__, key), np.int64,
                                    len(key))))
        keys.append(np.fromiter(new, np.int64, len(new)))

    qab = np.concatenate(keys) // 3
    qa, qb = np.divmod(qab, nb)
    a_final, a_final_weight = _final_columns(a)
    b_final, b_final_weight = _final_columns(b)
    end = np.flatnonzero(a_final[qa] & b_final[qb])
    finals = dict(zip(end.tolist(), (a_final_weight[qa[end]]
                                     + b_final_weight[qb[end]]).tolist()))
    # every state was reached from the start, so trimming keeps those that
    # reach a final state
    src, ilabel, olabel, weight, dst = (np.concatenate(c)
                                        for c in zip(*columns))
    return _restrict(a.semiring, a.isyms, b.osyms, 0, finals,
                     reachable(list(finals), dst, src, len(ids)),
                     src, ilabel, olabel, weight, dst)


# ---------------------------------------------------------------------------
# Graph assembly
# ---------------------------------------------------------------------------

def build_denominator_graph(alphabet: Alphabet, lm) -> Wfst:
    """Compose the topology transducer with the label LM acceptor.

    The result is a log-semiring machine whose complete length-T paths carry
    the LM mass of the collapsed label sequence; summed against per-frame
    node potentials it yields the normalizer of the sequence posterior.
    """
    from .lm import lm_to_fst  # local import to avoid a module cycle

    g = lm_to_fst(lm, semiring=LOG)
    if g.isyms != alphabet.label_symbol_table():
        raise DataError("label LM vocabulary does not match the alphabet")
    t = build_ctc_topology(alphabet, semiring=LOG)
    return compose(t, g)


def build_lexicon_fst(alphabet: Alphabet, lexicon: dict[str, list[list[str]]],
                      word_syms: SymbolTable,
                      semiring: str) -> Wfst:
    """Closure of per-word label chains: first label emits the word, the rest
    emit epsilon.  Words are required to have at least one pronunciation."""
    label_syms = alphabet.label_symbol_table()
    root, num_states, rows = 0, 1, []
    for word_id in range(1, len(word_syms)):
        word = word_syms.name(word_id)
        prons = lexicon.get(word)
        if not prons:
            raise DataError(f"word {word!r} has no pronunciation")
        for pron in prons:
            if not pron:
                raise DataError(f"word {word!r} has an empty pronunciation")
            cur = root
            for i, label in enumerate(pron):
                lab_id = label_syms.find(label)
                dst = root
                if i < len(pron) - 1:
                    dst, num_states = num_states, num_states + 1
                rows.append((cur, lab_id, word_id if i == 0 else EPS, ONE, dst))
                cur = dst
    return Wfst(semiring, label_syms, word_syms, num_states, root, {root: ONE},
                *zip(*rows))


def build_decoding_graph(alphabet: Alphabet, word_lm,
                         lexicon: dict[str, list[list[str]]] | None = None) -> Wfst:
    """Tropical-semiring search graph: topology o (lexicon o word LM).

    Without a lexicon the labels themselves are the words.  Input labels are
    state symbols, output labels are words.
    """
    from .lm import lm_to_fst

    g = lm_to_fst(word_lm, semiring=TROPICAL)
    if len(g.isyms) <= 1:
        raise DataError("word LM has an empty vocabulary")
    if lexicon is None:
        if g.isyms != alphabet.label_symbol_table():
            raise DataError("lexicon-free decoding needs a word LM over the labels")
        lg = g
    else:
        lex = build_lexicon_fst(alphabet, lexicon, g.isyms, TROPICAL)
        lg = compose(lex, g)
    t = build_ctc_topology(alphabet, semiring=TROPICAL)
    return compose(t, lg)


# ---------------------------------------------------------------------------
# Text format
# ---------------------------------------------------------------------------

def write_fst_text(fst: Wfst, path) -> None:
    """One arc per line ``src dst ilabel olabel weight`` (tab separated),
    final states as ``state weight``; state 0 is the start state."""
    # the start state and state 0 swap numbers; each state's arcs keep order
    perm = np.arange(fst.num_states)
    if fst.start is not None:
        perm[[0, fst.start]] = perm[[fst.start, 0]]
    src = perm[fst.src]
    order = np.argsort(src, kind="stable")
    columns = (src[order], perm[fst.dst][order], fst.ilabel[order],
               fst.olabel[order], fst.weight[order])
    with open(path, "w", encoding="utf-8") as f:
        f.writelines(f"{q}\t{r}\t{il}\t{ol}\t{w:.9g}\n"
                     for q, r, il, ol, w in zip(*(c.tolist() for c in columns)))
        f.writelines(f"{q}\t{w:.9g}\n" for q, w in
                     sorted((int(perm[q]), w) for q, w in fst.finals.items()))


def read_fst_text(path, semiring: str, isyms: SymbolTable,
                  osyms: SymbolTable) -> Wfst:
    """Read the format ``write_fst_text`` writes.  Every state id from 0 to
    the largest must appear on some line, as it does for any trimmed
    machine, so a file cannot size the machine by an id alone.  Each state
    keeps its arcs in file order.  A weight may be -inf, the semiring zero,
    but not NaN nor above ``MAX_WEIGHT``."""
    def entry(line):
        *ids, weight = line.split("\t")
        if len(ids) not in (1, 4):
            raise ValueError(f"{len(ids) + 1} fields, not 5 or 2")
        ids = [int(i) for i in ids]
        if min(ids[:2]) < 0:
            raise ValueError("negative state id")
        for side, label, syms in zip(("input", "output"), ids[2:],
                                     (isyms, osyms)):
            if not 0 <= label < len(syms):
                raise ValueError(f"{side} label {label} not in symbol table")
        weight = float(weight)
        if not weight <= MAX_WEIGHT:
            raise ValueError(f"weight {weight} is not in [-inf, "
                             f"{MAX_WEIGHT:.2f}]: its probability is not a "
                             f"float")
        if len(ids) == 1:
            return ids[0], weight
        src, dst, il, ol = ids
        return src, il, ol, weight, dst

    entries = read_lines(path, entry)
    rows = [e for e in entries if len(e) == 5]
    finals = dict(e for e in entries if len(e) == 2)
    named = {q for row in rows for q in (row[0], row[4])} | finals.keys()
    if named and len(named) != max(named) + 1:
        raise DataError(f"{path}: names state {max(named)} but only "
                        f"{len(named)} distinct states")
    return Wfst(semiring, isyms, osyms, len(named), 0 if named else None,
                finals, *zip(*rows))
