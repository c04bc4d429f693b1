"""Weighted finite-state transducers: data model, composition, trimming,
the blank-collapsing topology transducer, and graph assembly.

A machine is one immutable value.  Each builder collects its finals and arc
rows and constructs the machine once, so constructed graphs are safe to
share across worker processes.
"""
from __future__ import annotations

from collections import deque
from functools import cached_property
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
    """Mask of the nodes reachable from ``seeds`` along edges ``src -> dst``.
    The walk runs over a CSR of the edges, one step per edge, so a deep graph
    costs no more than a shallow one with as many edges.  The CSR stays in
    int64 arrays, read through memoryviews: an edge's target becomes a
    Python int only while the walk reads it."""
    order = np.argsort(src, kind="stable")
    indptr = memoryview(np.searchsorted(src[order], np.arange(num_nodes + 1)))
    succ = memoryview(np.asarray(dst, dtype=np.int64)[order])
    seen = bytearray(num_nodes)
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
    ``reachable``."""
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
    empty = Wfst(a.semiring, a.isyms, a.osyms, 0, None, {})
    if a.start is None:
        return empty
    n = a.num_states
    live = (reachable([a.start], a.src, a.dst, n)
            & reachable(list(a.finals), a.dst, a.src, n))
    if not live[a.start]:
        return empty
    keep = live[a.src] & live[a.dst]
    renumber = np.cumsum(live) - 1
    return Wfst(a.semiring, a.isyms, a.osyms, renumber[-1] + 1,
                renumber[a.start],
                {renumber[q]: w for q, w in a.finals.items() if live[q]},
                renumber[a.src[keep]], a.ilabel[keep], a.olabel[keep],
                a.weight[keep], renumber[a.dst[keep]])


# ---------------------------------------------------------------------------
# Composition
# ---------------------------------------------------------------------------

# Composition filter states.  Runs of left-alone / right-alone epsilon moves
# may not alternate, and a simultaneous epsilon move is only taken from the
# neutral state; otherwise path pairs through epsilons would be counted more
# than once (or, with a naive sequential scheme, dropped).
_F_NEUTRAL, _F_LEFT, _F_RIGHT = 0, 1, 2


def compose(a: Wfst, b: Wfst) -> Wfst:
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
