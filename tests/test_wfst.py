import itertools
import math
import pickle
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ctc_crf import (Alphabet, DataError, LOG, TROPICAL, ONE, Wfst,
                     build_ctc_topology, build_decoding_graph,
                     build_denominator_graph, build_lexicon_fst, compose,
                     estimate, lm_to_fst, map_b, read_fst_text, trim,
                     write_fst_text)
from ctc_crf.semiring import ZERO
from ctc_crf.symbols import SymbolTable
from ctc_crf.wfst import BLANK, EPS, check_epsilon_acyclic, reachable

from oracles import (acceptor_mass, collapse_reference, frozen_compose,
                     identity_acceptor, machine, transducer_outputs,
                     weighted_language)


def pi_to_fst_ids(pi):
    return [s + 1 for s in pi]


# ---------------------------------------------------------------------------
# map_b
# ---------------------------------------------------------------------------

def test_map_b_examples(ab2):
    assert map_b([1, 1, 0, 2], ab2) == [1, 2]
    assert map_b([0, 1, 0, 1], ab2) == [1, 1]
    assert map_b([], ab2) == []


def test_map_b_out_of_range(ab2):
    with pytest.raises(DataError):
        map_b([3], ab2)
    with pytest.raises(DataError):
        map_b([-1], ab2)


def test_map_b_agrees_with_independent_collapse(ab2, rng):
    for _ in range(200):
        pi = rng.integers(0, 3, size=rng.integers(0, 8)).tolist()
        assert map_b(pi, ab2) == collapse_reference(pi)


# ---------------------------------------------------------------------------
# alphabet
# ---------------------------------------------------------------------------

def test_alphabet_id_layout(ab2):
    assert ab2.num_state_symbols == 3
    assert ab2.state_id("a") == 1 and ab2.state_id("b") == 2
    assert ab2.state_name(0) == "<blk>"
    assert list(ab2.pi_symbol_table()) == ["<eps>", "<blk>", "a", "b"]
    assert list(ab2.label_symbol_table()) == ["<eps>", "a", "b"]


def test_alphabet_validation():
    with pytest.raises(DataError):
        Alphabet(["a", "a"])
    with pytest.raises(DataError):
        Alphabet(["a", ""])
    with pytest.raises(DataError):
        Alphabet(["<blk>"])
    with pytest.raises(DataError):
        Alphabet(["<s>"])


# ---------------------------------------------------------------------------
# topology
# ---------------------------------------------------------------------------

def test_topology_size_two_labels(ab2):
    t = build_ctc_topology(ab2)
    assert t.num_states == 3
    assert t.num_arcs == 9
    assert t.start == 0
    assert set(t.finals) == {0, 1, 2}
    assert all(w == ONE for w in t.finals.values())
    assert all(arc.weight == ONE for s in t.states() for arc in t.arcs(s))


def test_topology_empty_alphabet_rejected():
    with pytest.raises(DataError):
        Alphabet([])


def test_topology_path_examples(ab2):
    t = build_ctc_topology(ab2)
    # "a a <blk> a" -> "a a"
    outs = transducer_outputs(t, pi_to_fst_ids([1, 1, 0, 1]))
    assert outs == {(1, 1)}
    # all-blank maps to the empty string
    assert transducer_outputs(t, pi_to_fst_ids([0, 0])) == {()}


@pytest.mark.parametrize("n_labels", [1, 2, 3])
def test_topology_exhaustive_matches_map_b(n_labels):
    alphabet = Alphabet([f"l{i}" for i in range(n_labels)])
    t = build_ctc_topology(alphabet)
    width = alphabet.num_state_symbols
    for length in range(0, 6):
        for pi in itertools.product(range(width), repeat=length):
            outs = transducer_outputs(t, pi_to_fst_ids(pi))
            assert outs == {tuple(map_b(list(pi), alphabet))}, pi


# ---------------------------------------------------------------------------
# trim
# ---------------------------------------------------------------------------

def _chain(weights, semiring=LOG, extra_states=0, extra_rows=()):
    """A chain of ``x`` arcs, plus states and arc rows added after it."""
    syms = SymbolTable(["<eps>", "x"])
    n = len(weights) + 1
    rows = [(i, 1, 1, w, i + 1) for i, w in enumerate(weights)]
    return machine(semiring, syms, syms, n + extra_states, 0, {n - 1: ONE},
                   rows + list(extra_rows))


def test_trim_removes_unreachable():
    dead = 3
    fst = _chain([-1.0, -2.0], extra_states=1, extra_rows=[(dead, 1, 1, ONE, 0)])
    trimmed = trim(fst)
    assert trimmed.num_states == 3
    assert trimmed == _chain([-1.0, -2.0])


def test_trim_no_final_reachable_gives_empty():
    syms = SymbolTable(["<eps>", "x"])
    fst = machine(LOG, syms, syms, 2, 0, {},
                  [(0, 1, 1, ONE, 1)])  # no finals anywhere
    trimmed = trim(fst)
    assert trimmed.start is None
    assert trimmed.num_states == 0


def test_trim_deep_chain():
    # 100,000 states in one labelled chain plus a dead branch off its
    # middle: the trim walks the whole depth both ways, one step per edge
    n = 100_000
    branch = [n, n + 1, n + 2]
    fst = _chain([-0.1] * (n - 1), extra_states=3,
                 extra_rows=[(p, 1, 1, -0.1, q)
                             for p, q in zip([n // 2] + branch, branch)])
    assert trim(fst) == _chain([-0.1] * (n - 1))


def _epsilon_machine(n, eps_arcs):
    isyms = SymbolTable(["<eps>", "x"])
    return machine(TROPICAL, isyms, isyms, n, 0, {n - 1: ONE},
                   [(p, EPS, EPS, ONE, q) for p, q in eps_arcs]
                   + [(q, 1, 1, ONE, q) for q in range(n)])


@pytest.mark.parametrize("cycle", [[(3, 3)], [(3, 4), (4, 3)],
                                   [(2, 3), (3, 4), (4, 2)]])
def test_epsilon_cycle_names_a_state_on_it(cycle):
    # a chain 6 -> 5 into the cycle and 3 -> 1 -> 0 out of it: the states
    # before and after it, those after with lower ids, are not named, and
    # labelled loops do not count
    fst = _epsilon_machine(7, [(6, 5), (5, cycle[0][0]), *cycle, (3, 1),
                               (1, 0)])
    with pytest.raises(DataError, match="epsilon cycle in the graph through "
                                        "state ") as info:
        check_epsilon_acyclic(fst, "graph")
    assert int(str(info.value).rsplit(" ", 1)[1]) in {p for p, _ in cycle}


def test_epsilon_dag_passes():
    # a state entered twice is walked after both arcs in; a deep chain is
    # walked one step per arc
    check_epsilon_acyclic(_epsilon_machine(4, [(0, 1), (0, 2), (1, 3),
                                               (2, 3)]), "graph")
    n = 100_000
    check_epsilon_acyclic(_epsilon_machine(n, [(q, q + 1)
                                               for q in range(n - 1)]),
                          "graph")


def test_trim_memory_on_trigram_tlg(trigram_tlg):
    # the reachability walks keep their CSR in int64 arrays: about 22 bytes
    # an edge at the walk's peak, against 56 with lists of Python ints; trim
    # itself holds little beyond the machine it returns
    g = trigram_tlg
    src = np.repeat(np.arange(g.num_states),
                    [len(g.arcs(q)) for q in g.states()])
    dst = np.array([a.nextstate for q in g.states() for a in g.arcs(q)])
    tracemalloc.start()
    try:
        reachable(list(g.finals), dst, src, g.num_states)
        walk_peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        trimmed = trim(g)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert trimmed == g
    assert walk_peak < 32 * g.num_arcs, walk_peak
    assert peak - held < 32 * g.num_arcs, (peak - before, held - before)


def test_arcs_by_kind_is_a_cache_outside_the_value(tmp_path, ab2,
                                                   unigram_ab):
    g = build_decoding_graph(ab2, unigram_ab)
    fresh = pickle.loads(pickle.dumps(g))
    labelled, blanks, eps = g.arcs_by_kind()
    for q in g.states():
        arcs = g.arcs(q)
        assert labelled[q] == tuple(a for a in arcs if a.ilabel != EPS)
        assert blanks[q] == tuple(a for a in arcs if a.ilabel == BLANK)
        assert eps[q] == tuple(a for a in arcs if a.ilabel == EPS)
        # the machine's own arcs, not copies
        assert {id(a) for a in labelled[q] + eps[q]} == {id(a) for a in arcs}
    # equality, pickling and the text format ignore the cache
    assert g == fresh
    assert pickle.dumps(g) == pickle.dumps(fresh)
    write_fst_text(g, tmp_path / "cached.fst")
    write_fst_text(fresh, tmp_path / "fresh.fst")
    assert (tmp_path / "cached.fst").read_bytes() == \
        (tmp_path / "fresh.fst").read_bytes()


def test_trim_idempotent():
    fst = _chain([-0.5])
    once = trim(fst)
    assert once == fst
    assert trim(once) == once


def test_trim_preserves_weighted_language(rng):
    syms = SymbolTable(["<eps>", "x", "y"])
    for trial in range(20):
        n = int(rng.integers(2, 8))
        rows = [(int(rng.integers(0, n)), int(rng.integers(0, 3)),
                 int(rng.integers(0, 3)), float(-rng.random()),
                 int(rng.integers(0, n)))
                for _ in range(int(rng.integers(1, 12)))]
        fst = machine(LOG, syms, syms, n, 0, {int(rng.integers(0, n)): ONE},
                      rows)
        trimmed = trim(fst)
        before = weighted_language(fst, 6, np.logaddexp)
        after = weighted_language(trimmed, 6, np.logaddexp)
        assert before.keys() == after.keys()
        for key in before:
            assert before[key] == pytest.approx(after[key], abs=1e-12)


# ---------------------------------------------------------------------------
# compose
# ---------------------------------------------------------------------------

def test_compose_identity(ab2):
    t = build_ctc_topology(ab2)
    ident = identity_acceptor(t.osyms)
    composed = compose(t, ident)
    lang_t = weighted_language(t, 5, np.logaddexp)
    lang_c = weighted_language(composed, 5, np.logaddexp)
    assert lang_t.keys() == lang_c.keys()
    for key in lang_t:
        assert lang_t[key] == pytest.approx(lang_c[key], abs=1e-12)


def test_compose_symbol_table_mismatch(ab2):
    t = build_ctc_topology(ab2)
    other = identity_acceptor(SymbolTable(["<eps>", "q"]))
    with pytest.raises(DataError):
        compose(t, other)


def test_compose_two_linear_chains():
    syms = SymbolTable(["<eps>", "x"])
    a = _chain([-1.0, -2.0])
    b = _chain([-0.25, -0.5])
    c = compose(a, b)
    lang = weighted_language(c, 4, np.logaddexp)
    assert set(lang) == {((1, 1), (1, 1))}
    assert lang[((1, 1), (1, 1))] == pytest.approx(-3.75, abs=1e-12)


def test_compose_topology_with_unigram_matches_direct_scoring(ab2, unigram_ab):
    t = build_ctc_topology(ab2)
    g = lm_to_fst(unigram_ab, LOG)
    tg = compose(t, g)
    for length in range(0, 4):
        for pi in itertools.product(range(3), repeat=length):
            got = acceptor_mass(tg, pi_to_fst_ids(pi))
            want = acceptor_mass(g, map_b(list(pi), ab2))
            if math.isinf(want):
                assert math.isinf(got)
            else:
                assert got == pytest.approx(want, abs=1e-10), pi


def _random_dag_machine(rng, isyms, osyms, max_states=5):
    """Acyclic machine with epsilons; its weighted language is finite, so
    bounded enumeration is exhaustive."""
    n = int(rng.integers(2, max_states + 1))
    n_i, n_o = len(isyms), len(osyms)
    rows = []
    for _ in range(int(rng.integers(2, 9))):
        src = int(rng.integers(0, n - 1))
        dst = int(rng.integers(src + 1, n))
        rows.append((src, int(rng.integers(0, n_i)), int(rng.integers(0, n_o)),
                     float(-rng.random()), dst))
    finals = {int(rng.integers(0, n)): float(-rng.random())
              for _ in range(int(rng.integers(1, 3)))}
    return machine(LOG, isyms, osyms, n, 0, finals, rows)


def test_compose_associativity(rng):
    sx = SymbolTable(["<eps>", "x1", "x2"])
    sy = SymbolTable(["<eps>", "y1", "y2"])
    sz = SymbolTable(["<eps>", "z1", "z2"])
    sw = SymbolTable(["<eps>", "w1", "w2"])
    for trial in range(30):
        a = _random_dag_machine(rng, sx, sy)
        b = _random_dag_machine(rng, sy, sz)
        c = _random_dag_machine(rng, sz, sw)
        left = compose(compose(a, b), c)
        right = compose(a, compose(b, c))
        lang_l = weighted_language(left, 16, np.logaddexp)
        lang_r = weighted_language(right, 16, np.logaddexp)
        assert lang_l.keys() == lang_r.keys(), trial
        for key in lang_l:
            assert lang_l[key] == pytest.approx(lang_r[key], abs=1e-10), trial


def test_compose_no_epsilon_path_double_counting(rng):
    """A machine with an epsilon-output arc composed against one with an
    epsilon-input arc: the joint path must be counted exactly once."""
    sx = SymbolTable(["<eps>", "x"])
    sy = SymbolTable(["<eps>", "y"])
    sz = SymbolTable(["<eps>", "z"])
    a = machine(LOG, sx, sy, 3, 0, {2: ONE},
                [(0, 1, 1, math.log(0.5), 1),
                 (1, 1, 0, math.log(0.25), 2)])  # output epsilon
    b = machine(LOG, sy, sz, 3, 0, {2: ONE},
                [(0, 1, 1, math.log(0.5), 1),
                 (1, 0, 1, math.log(0.125), 2)])  # input epsilon
    c = compose(a, b)
    lang = weighted_language(c, 6, np.logaddexp)
    key = ((1, 1), (1, 1))
    assert set(lang) == {key}
    assert lang[key] == pytest.approx(math.log(0.5 * 0.25 * 0.5 * 0.125), abs=1e-12)


def _assert_same_machine(got, want):
    # state by state, arcs in order, weights and finals to the bit (so a
    # -0.0 for a 0.0 fails: a graph file would print it differently)
    assert got == want
    assert np.array_equal(got.indptr, want.indptr)
    assert np.array_equal(got.weight.view(np.int64),
                          want.weight.view(np.int64))
    assert [(q, w.hex()) for q, w in got.finals.items()] == \
        [(q, w.hex()) for q, w in want.finals.items()]


@pytest.mark.parametrize("semiring", [LOG, TROPICAL])
def test_compose_equals_frozen_on_trigram_graphs(trigram_lm, semiring):
    # the benchmark's T o G (log) and lexicon-free TLG (tropical)
    alphabet, lm = trigram_lm
    t = build_ctc_topology(alphabet, semiring=semiring)
    g = lm_to_fst(lm, semiring=semiring)
    got = compose(t, g)
    _assert_same_machine(got, frozen_compose(t, g))
    assert got.num_states == 2954


def test_compose_equals_frozen_on_lexicon_graphs(trigram_lm):
    # L's chains emit their word on the first label and epsilon after it,
    # so L o G takes left-alone moves next to G's backoff epsilons
    alphabet, _ = trigram_lm
    rng = np.random.default_rng(5)
    labels = list(alphabet.labels)
    lexicon = {f"w{i}": [list(rng.choice(labels, int(rng.integers(1, 5))))
                         for _ in range(int(rng.integers(1, 3)))]
               for i in range(40)}
    words = list(lexicon)
    corpus = [list(rng.choice(words, int(rng.integers(1, 8))))
              for _ in range(300)]
    g = lm_to_fst(estimate(corpus, order=3, discount=0.5, vocab=words),
                  semiring=TROPICAL)
    lex = build_lexicon_fst(alphabet, lexicon, g.isyms, TROPICAL)
    lg = compose(lex, g)
    _assert_same_machine(lg, frozen_compose(lex, g))
    t = build_ctc_topology(alphabet, semiring=TROPICAL)
    _assert_same_machine(compose(t, lg), frozen_compose(t, lg))


def test_compose_equals_frozen_on_a_deep_chain():
    # one frontier per state: 20,000 frontiers of one arc each
    chain = _chain([-0.1] * 19_999)
    got = compose(chain, identity_acceptor(chain.osyms))
    _assert_same_machine(got, frozen_compose(chain,
                                             identity_acceptor(chain.osyms)))
    assert got.num_states == 20_000


@st.composite
def _small_machines(draw, isyms, osyms, semiring):
    n = draw(st.integers(1, 4))
    state, weight = st.integers(0, n - 1), st.sampled_from([-1.5, -0.0, 0.0,
                                                           0.25, ZERO])
    rows = draw(st.lists(st.tuples(state, st.integers(0, len(isyms) - 1),
                                   st.integers(0, len(osyms) - 1), weight,
                                   state), max_size=9))
    finals = draw(st.dictionaries(state, weight, max_size=n))
    return machine(semiring, isyms, osyms, n, draw(state), finals, rows)


_SX = SymbolTable(["<eps>", "x1", "x2"])
_SY = SymbolTable(["<eps>", "y1", "y2"])
_SZ = SymbolTable(["<eps>", "z1", "z2"])


@settings(derandomize=True, deadline=None, max_examples=300)
@given(data=st.data())
def test_compose_equals_frozen_on_small_machines(data):
    # epsilons on both sides of the inner alphabet, cycles, unreachable and
    # dead states, repeated arcs and signed zeros
    semiring = data.draw(st.sampled_from([LOG, TROPICAL]))
    a = data.draw(_small_machines(_SX, _SY, semiring))
    b = data.draw(_small_machines(_SY, _SZ, semiring))
    _assert_same_machine(compose(a, b), frozen_compose(a, b))


# ---------------------------------------------------------------------------
# denominator graph
# ---------------------------------------------------------------------------

def test_denominator_graph_unigram_brute_force(ab2, unigram_ab):
    tden = build_denominator_graph(ab2, unigram_ab)
    g = lm_to_fst(unigram_ab, LOG)
    # total mass over all length-2 state sequences with unit node potentials
    total = ZERO
    for pi in itertools.product(range(3), repeat=2):
        total = np.logaddexp(total, acceptor_mass(g, map_b(list(pi), ab2)))
    got = ZERO
    for pi in itertools.product(range(3), repeat=2):
        got = np.logaddexp(got, acceptor_mass(tden, pi_to_fst_ids(pi)))
    assert got == pytest.approx(total, abs=1e-10)


def test_denominator_graph_input_alphabet_is_state_symbols():
    alphabet = Alphabet([f"l{i}" for i in range(5)])
    corpus = [[f"l{(i + j) % 5}" for j in range(4)] for i in range(6)]
    lm = estimate(corpus, order=3, discount=0.5, vocab=list(alphabet.labels))
    tden = build_denominator_graph(alphabet, lm)
    assert list(tden.isyms) == ["<eps>", "<blk>", "l0", "l1", "l2", "l3", "l4"]
    used = {arc.ilabel for s in tden.states() for arc in tden.arcs(s)}
    assert used <= set(range(0, 7))
    assert set(range(1, 7)) <= used


def test_denominator_graph_wrong_vocabulary(ab2):
    lm = estimate([["a", "c"]], order=1, discount=0.5)
    with pytest.raises(DataError):
        build_denominator_graph(ab2, lm)


# ---------------------------------------------------------------------------
# decoding graph
# ---------------------------------------------------------------------------

def test_decoding_graph_lexicon_free(ab2, unigram_ab):
    graph = build_decoding_graph(ab2, unigram_ab)
    assert graph.semiring == TROPICAL
    assert list(graph.isyms) == ["<eps>", "<blk>", "a", "b"]
    assert list(graph.osyms) == ["<eps>", "a", "b"]


def test_decoding_graph_lexicon_free_needs_label_words(ab2):
    word_lm = estimate([["go", "stop"]], order=1, discount=0.5)
    with pytest.raises(DataError, match="word LM over the labels"):
        build_decoding_graph(ab2, word_lm)


def test_decoding_graph_lexicon_transduction(ab2):
    # pseudo-lexicon: word "go" spelled with labels a, b
    word_lm = estimate([["go"]], order=1, discount=0.5)
    lexicon = {"go": [["a", "b"]]}
    graph = build_decoding_graph(ab2, word_lm, lexicon)
    # state path "a a <blk> b" should transduce to the word "go"
    a, b = 1, 2
    outs = transducer_outputs(graph, pi_to_fst_ids([a, a, 0, b]))
    go = graph.osyms.find("go")
    assert (go,) in outs


def test_decoding_graph_missing_pronunciation(ab2):
    word_lm = estimate([["go"], ["stop"]], order=1, discount=0.5)
    with pytest.raises(DataError, match="stop"):
        build_decoding_graph(ab2, word_lm, {"go": [["a"]]})


def test_lexicon_fst_rejects_empty_pronunciation(ab2):
    syms = SymbolTable(["<eps>", "go"])
    with pytest.raises(DataError):
        build_lexicon_fst(ab2, {"go": [[]]}, syms, TROPICAL)


# ---------------------------------------------------------------------------
# text format
# ---------------------------------------------------------------------------

# the arcs of states 0 and 1 alternate, with a final line among them
_INTERLEAVED = ["0\t1\t2\t1\t-0.5\n", "1\t0\t1\t0\t-0.25\n",
                "0\t0\t1\t0\t-1.5\n", "1\t-0.125\n",
                "1\t1\t3\t2\t-2\n", "0\t1\t3\t2\t-0.75\n"]


def test_fst_text_round_trip(tmp_path, ab2, unigram_ab, trigram_tlg):
    path = tmp_path / "interleaved.fst"
    path.write_text("".join(_INTERLEAVED))
    interleaved = read_fst_text(path, LOG, ab2.pi_symbol_table(),
                                ab2.label_symbol_table())
    for q in interleaved.states():
        assert [f"{q}\t{a.nextstate}\t{a.ilabel}\t{a.olabel}\t{a.weight:g}\n"
                for a in interleaved.arcs(q)] == \
            [line for line in _INTERLEAVED
             if line.startswith(f"{q}\t") and line.count("\t") == 4]
    # the trigram TLG has 22,230 arcs, 994 of them epsilons
    for tden in (build_denominator_graph(ab2, unigram_ab), trigram_tlg,
                 interleaved):
        path = tmp_path / "den.fst"
        write_fst_text(tden, path)
        back = read_fst_text(path, tden.semiring, tden.isyms, tden.osyms)
        assert back.num_states == tden.num_states
        assert back.num_arcs == tden.num_arcs
        assert back.start == 0
        for column in ("src", "ilabel", "olabel", "dst"):
            assert np.array_equal(getattr(back, column), getattr(tden, column))
        assert np.allclose(back.weight, tden.weight, rtol=1e-8, atol=0)
        plus = np.logaddexp if tden.semiring == LOG else np.maximum
        lang_a = weighted_language(tden, 4, plus)
        lang_b = weighted_language(back, 4, plus)
        assert lang_a.keys() == lang_b.keys()
        for key in lang_a:
            assert lang_a[key] == pytest.approx(lang_b[key], abs=1e-7)


_ARC = {"src": 0, "ilabel": 1, "olabel": 0, "weight": ONE, "dst": 1}


@pytest.mark.parametrize("field, value, what", [
    ("src", 2, "arc source"), ("src", -1, "arc source"),
    ("dst", 2, "arc target"), ("ilabel", 4, "input label"),
    ("olabel", 3, "output label"), ("olabel", -1, "output label"),
    ("start", 2, "start state"), ("final", 7, "final state")])
def test_constructor_rejects_out_of_range_ids(ab2, field, value, what):
    # a final weight on state 7 of a small machine once made trim and
    # flatten_denominator raise IndexError
    arc, start, finals = dict(_ARC), 0, {1: ONE}
    if field == "start":
        start = value
    elif field == "final":
        finals = {value: ONE}
    else:
        arc[field] = value
    isyms, osyms = ab2.pi_symbol_table(), ab2.label_symbol_table()
    with pytest.raises(DataError, match=f"^{what} {value} out of range"):
        Wfst(LOG, isyms, osyms, 2, start, finals, *([v] for v in arc.values()))
    assert Wfst(LOG, isyms, osyms, 2, 0, {1: ONE},
                *([v] for v in _ARC.values())).num_arcs == 1


@pytest.mark.parametrize("line", ["-1\t0\t1\t1\t0.25", "-3\t0",
                                  "-2\t0\t1\t1\t0.5", "0\t1\t1\t1\tz",
                                  "0\t1\t99\t1\t0.5", "0\t1\t1\t-1\t0.5",
                                  "0\t1\t1\t1\tnan", "0\t1\t1\t1\tinf",
                                  "0\tnan", "0\tinf"],
                         ids=["negative-source", "negative-final",
                              "negative-source-2", "non-numeric-weight",
                              "input-label-out-of-range",
                              "output-label-out-of-range", "nan-weight",
                              "inf-weight", "nan-final", "inf-final"])
def test_fst_text_rejects_bad_line(tmp_path, ab2, unigram_ab, line):
    tden = build_denominator_graph(ab2, unigram_ab)
    path = tmp_path / "den.fst"
    write_fst_text(tden, path)
    body = path.read_text()
    path.write_text(body + line + "\n")
    with pytest.raises(DataError, match=f"line {len(body.splitlines()) + 1}:"):
        read_fst_text(path, LOG, tden.isyms, tden.osyms)


def test_fst_text_reads_minus_inf_weights(tmp_path, ab2, unigram_ab):
    # -inf is the semiring zero: an arc or a final weight may carry it
    tden = build_denominator_graph(ab2, unigram_ab)
    path = tmp_path / "den.fst"
    write_fst_text(tden, path)
    path.write_text(path.read_text() + "0\t1\t1\t1\t-inf\n1\t-inf\n")
    fst = read_fst_text(path, LOG, tden.isyms, tden.osyms)
    assert fst.arcs(0)[-1].weight == ZERO
    assert fst.finals[1] == ZERO


def test_fst_text_rejects_state_ids_no_line_names(tmp_path, ab2):
    # states 1 .. 1,999,999 appear on no line: the file may not size the
    # machine by its largest id
    path = tmp_path / "sparse.fst"
    path.write_text("0\t2000000\t1\t0\t0.5\n2000000\t0\n")
    tracemalloc.start()
    try:
        with pytest.raises(DataError, match="names state 2000000"):
            read_fst_text(path, LOG, ab2.pi_symbol_table(),
                          ab2.label_symbol_table())
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000, peak


def test_fst_text_deterministic_bytes(tmp_path, ab2, unigram_ab):
    tden = build_denominator_graph(ab2, unigram_ab)
    p1, p2 = tmp_path / "a.fst", tmp_path / "b.fst"
    write_fst_text(tden, p1)
    write_fst_text(tden, p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_symbol_table_round_trip(tmp_path, ab2):
    syms = ab2.pi_symbol_table()
    path = tmp_path / "syms.txt"
    syms.write(path)
    assert SymbolTable.read(path) == syms
    text = path.read_text()
    assert text.splitlines()[0] == "<eps>\t0"


def test_symbol_table_rejects_non_numeric_id(tmp_path):
    path = tmp_path / "syms.txt"
    path.write_text("<eps>\t0\na\tx\n")
    with pytest.raises(DataError, match="line 2"):
        SymbolTable.read(path)
