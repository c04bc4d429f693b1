"""Weighted finite-state transducers: data model, composition, trimming,
the blank-collapsing topology transducer, and graph assembly.

Machines are built mutably and treated as immutable afterwards; nothing here
mutates a machine it did not create, so constructed graphs are safe to share
across worker processes.
"""
from __future__ import annotations

from collections import deque
from typing import NamedTuple, Sequence

import numpy as np

from .dataio import nonfinite, read_lines
from .errors import DataError
from .semiring import LOG, ONE, TROPICAL, ZERO
from .symbols import EPS, Alphabet, SymbolTable

# input label of the blank in a machine whose inputs are the topology's state
# symbols (state symbol 0 is <blk>, input label 0 is epsilon)
BLANK = 1


class Arc(NamedTuple):
    ilabel: int
    olabel: int
    weight: float
    nextstate: int


class Wfst:
    """A transducer with per-state arc lists, explicit per-state final
    weights, and symbol tables carried alongside.  ``semiring`` is ``LOG``
    or ``TROPICAL``."""

    def __init__(self, semiring: str, isyms: SymbolTable, osyms: SymbolTable):
        self.semiring = semiring
        self.isyms = isyms
        self.osyms = osyms
        # symbol tables are immutable: add_arc checks labels against these
        self._num_isyms = len(isyms)
        self._num_osyms = len(osyms)
        self._arcs: list[list[Arc]] = []
        self.start: int | None = None
        self.finals: dict[int, float] = {}
        self._by_kind = None  # arcs_by_kind's cache; not part of the value

    # -- construction -----------------------------------------------------

    def add_state(self) -> int:
        self._by_kind = None
        self._arcs.append([])
        return len(self._arcs) - 1

    def add_arc(self, state: int, ilabel: int, olabel: int, weight: float,
                nextstate: int) -> None:
        if not 0 <= nextstate < len(self._arcs):
            raise DataError(f"arc target {nextstate} does not exist")
        if not 0 <= ilabel < self._num_isyms:
            raise DataError(f"input label {ilabel} not in symbol table")
        if not 0 <= olabel < self._num_osyms:
            raise DataError(f"output label {olabel} not in symbol table")
        self._by_kind = None
        self._arcs[state].append(Arc(ilabel, olabel, float(weight), nextstate))

    def set_start(self, state: int) -> None:
        self.start = state

    def set_final(self, state: int, weight: float = ONE) -> None:
        self.finals[state] = float(weight)

    # -- inspection --------------------------------------------------------

    @property
    def num_states(self) -> int:
        return len(self._arcs)

    @property
    def num_arcs(self) -> int:
        return sum(len(a) for a in self._arcs)

    def arcs(self, state: int) -> Sequence[Arc]:
        return self._arcs[state]

    def states(self) -> range:
        return range(len(self._arcs))

    def arcs_by_kind(self) -> tuple[list[tuple[Arc, ...]], ...]:
        """Three per-state arc lists, built on the first call and kept until
        the machine changes: the arcs that consume input, those of them that
        consume the blank (input label ``BLANK``), and the epsilon-input
        arcs.  Each keeps graph order and holds the machine's own ``Arc``
        tuples; a state's arcs of one kind are a tuple, as tuples take less
        memory than lists and all empty ones are one object."""
        if self._by_kind is None:
            labelled = [tuple(a for a in arcs if a.ilabel != EPS)
                        for arcs in self._arcs]
            blanks = [tuple(a for a in arcs if a.ilabel == BLANK)
                      for arcs in labelled]
            eps = [tuple(a for a in arcs if a.ilabel == EPS)
                   for arcs in self._arcs]
            self._by_kind = (labelled, blanks, eps)
        return self._by_kind

    def final_weight(self, state: int) -> float:
        return self.finals.get(state, ZERO)

    def __eq__(self, other):
        return (isinstance(other, Wfst)
                and self.semiring == other.semiring
                and self.start == other.start
                and self.finals == other.finals
                and self._arcs == other._arcs
                and self.isyms == other.isyms
                and self.osyms == other.osyms)

    def __getstate__(self):
        return {**self.__dict__, "_by_kind": None}

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
    fst = Wfst(semiring, alphabet.pi_symbol_table(), alphabet.label_symbol_table())
    for _ in range(n + 1):
        fst.add_state()
    fst.set_start(0)
    for s in range(n + 1):
        fst.set_final(s, ONE)

    fst.add_arc(0, BLANK, EPS, ONE, 0)
    for i in range(1, n + 1):
        # label i occupies state i; fst ilabel i+1, olabel i
        fst.add_arc(0, i + 1, i, ONE, i)
    for i in range(1, n + 1):
        fst.add_arc(i, i + 1, EPS, ONE, i)
        fst.add_arc(i, BLANK, EPS, ONE, 0)
        for j in range(1, n + 1):
            if j != i:
                fst.add_arc(i, j + 1, j, ONE, j)
    return fst


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


def trim(a: Wfst) -> Wfst:
    """Drop states that are not on any start-to-final path.

    State numbering of the surviving states is preserved in order, so
    trimming an already-trim machine returns an identical machine.
    """
    out = Wfst(a.semiring, a.isyms, a.osyms)
    if a.start is None:
        return out
    n = a.num_states
    src = np.repeat(np.arange(n), [len(arcs) for arcs in a._arcs])
    dst = np.array([arc.nextstate for arcs in a._arcs for arc in arcs],
                   dtype=np.int64)
    live = (reachable([a.start], src, dst, n)
            & reachable(list(a.finals), dst, src, n))
    if not live[a.start]:
        return out

    keep = np.flatnonzero(live).tolist()
    renumber = (np.cumsum(live) - 1).tolist()
    live = live.tolist()
    for _ in keep:
        out.add_state()
    out.set_start(renumber[a.start])
    for old in keep:
        for arc in a.arcs(old):
            if live[arc.nextstate]:
                out.add_arc(renumber[old], arc.ilabel, arc.olabel, arc.weight,
                            renumber[arc.nextstate])
        if old in a.finals:
            out.set_final(renumber[old], a.finals[old])
    return out


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

    out = Wfst(a.semiring, a.isyms, b.osyms)
    if a.start is None or b.start is None:
        return out

    b_by_ilabel: dict[int, dict[int, list[Arc]]] = {}

    def b_arcs_for(qb: int) -> dict[int, list[Arc]]:
        idx = b_by_ilabel.get(qb)
        if idx is None:
            idx = {}
            for arc in b.arcs(qb):
                idx.setdefault(arc.ilabel, []).append(arc)
            b_by_ilabel[qb] = idx
        return idx

    start_key = (a.start, b.start, _F_NEUTRAL)
    state_ids = {start_key: out.add_state()}
    out.set_start(0)
    queue = deque([start_key])

    def state_for(key):
        sid = state_ids.get(key)
        if sid is None:
            sid = out.add_state()
            state_ids[key] = sid
            queue.append(key)
        return sid

    while queue:
        key = queue.popleft()
        qa, qb, f = key
        src = state_ids[key]
        b_idx = b_arcs_for(qb)
        b_eps = b_idx.get(EPS, ())

        for arc_a in a.arcs(qa):
            if arc_a.olabel != EPS:
                for arc_b in b_idx.get(arc_a.olabel, ()):
                    dst = state_for((arc_a.nextstate, arc_b.nextstate, _F_NEUTRAL))
                    out.add_arc(src, arc_a.ilabel, arc_b.olabel,
                                arc_a.weight + arc_b.weight, dst)
            else:
                if f != _F_RIGHT:
                    dst = state_for((arc_a.nextstate, qb, _F_LEFT))
                    out.add_arc(src, arc_a.ilabel, EPS, arc_a.weight, dst)
                if f == _F_NEUTRAL:
                    for arc_b in b_eps:
                        dst = state_for((arc_a.nextstate, arc_b.nextstate, _F_NEUTRAL))
                        out.add_arc(src, arc_a.ilabel, arc_b.olabel,
                                    arc_a.weight + arc_b.weight, dst)
        if f != _F_LEFT:
            for arc_b in b_eps:
                dst = state_for((qa, arc_b.nextstate, _F_RIGHT))
                out.add_arc(src, EPS, arc_b.olabel, arc_b.weight, dst)

        if qa in a.finals and qb in b.finals:
            out.set_final(src, a.finals[qa] + b.finals[qb])

    return trim(out)


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
    fst = Wfst(semiring, label_syms, word_syms)
    root = fst.add_state()
    fst.set_start(root)
    fst.set_final(root, ONE)
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
                last = i == len(pron) - 1
                dst = root if last else fst.add_state()
                fst.add_arc(cur, lab_id, word_id if i == 0 else EPS, ONE, dst)
                cur = dst
    return fst


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
    order = list(fst.states())
    if fst.start is not None and fst.start != 0:
        order[0], order[fst.start] = order[fst.start], order[0]
    remap = {old: new for new, old in enumerate(order)}
    with open(path, "w", encoding="utf-8") as f:
        for old in order:
            src = remap[old]
            for arc in fst.arcs(old):
                f.write(f"{src}\t{remap[arc.nextstate]}\t{arc.ilabel}\t"
                        f"{arc.olabel}\t{arc.weight:.9g}\n")
        for old in order:
            if old in fst.finals:
                f.write(f"{remap[old]}\t{fst.finals[old]:.9g}\n")


def read_fst_text(path, semiring: str, isyms: SymbolTable,
                  osyms: SymbolTable) -> Wfst:
    """Read the format ``write_fst_text`` writes.  Every state id from 0 to
    the largest must appear on some line, as it does for any trimmed
    machine, so a file cannot size the machine by an id alone.  A weight
    may be -inf, the semiring zero, but not NaN or +inf."""
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
        if nonfinite(weight, allow_neg_inf=True):
            raise ValueError(f"weight {weight} is neither finite nor -inf")
        return ids, weight

    entries = read_lines(path, entry)
    named = {s for ids, _ in entries for s in ids[:2]}
    if named and len(named) != max(named) + 1:
        raise DataError(f"{path}: names state {max(named)} but only "
                        f"{len(named)} distinct states")
    fst = Wfst(semiring, isyms, osyms)
    for _ in range(len(named)):
        fst.add_state()
    if fst.num_states:
        fst.set_start(0)
    for ids, weight in entries:
        if len(ids) == 4:
            src, dst, il, ol = ids
            fst.add_arc(src, il, ol, weight, dst)
        else:
            fst.set_final(ids[0], weight)
    return fst
