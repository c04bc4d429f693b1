import copy
import math
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from ctc_crf import (Alphabet, DataError, DenominatorTable, LOG, NGramModel,
                     PosteriorMatrix, SymbolTable,
                     build_denominator_graph, crf_loss, denominator_forward,
                     estimate, flatten_denominator, lm_to_fst,
                     numerator_forward, read_fst_text, score_sequence,
                     write_fst_text)
from ctc_crf import loss
from ctc_crf.loss import _forward_backward_log, _reference_chain
from ctc_crf.semiring import ZERO
from ctc_crf.toydata import generate_dataset, generate_utterance
from ctc_crf.verify import random_log_softmax
from ctc_crf.wfst import EPS, Wfst

from oracles import (brute_acceptor, brute_denominator, brute_numerator,
                     finite_difference, graph_forward)


def uniform_post(frames, width):
    return np.full((frames, width), math.log(1.0 / width))


def degenerate_lm(labels):
    """A hand-built model assigning probability one to every sequence."""
    vocab = SymbolTable(["<eps>", *labels, "<s>", "</s>"])
    entries = {(vocab.find(l),): (0.0, None) for l in labels}
    entries[(vocab.find("</s>"),)] = (0.0, None)
    return NGramModel(1, vocab, entries)


# ---------------------------------------------------------------------------
# PosteriorMatrix
# ---------------------------------------------------------------------------

def test_posterior_matrix_validation(rng):
    post = PosteriorMatrix(random_log_softmax(rng, 4, 3))
    post.assert_log_softmax()
    assert post.frames == 4 and post.width == 3
    with pytest.raises(DataError):
        PosteriorMatrix(np.array([[0.0, np.nan]]))
    skewed = PosteriorMatrix(np.zeros((2, 3)))
    with pytest.raises(DataError):
        skewed.assert_log_softmax()


def test_posterior_matrix_allows_neg_inf():
    post = PosteriorMatrix(np.array([[0.0, ZERO], [ZERO, 0.0]]))
    post.assert_log_softmax()


# ---------------------------------------------------------------------------
# numerator
# ---------------------------------------------------------------------------

def test_numerator_uniform_single_label():
    post = uniform_post(2, 2)
    res = numerator_forward(post, [1], log_pl=0.0)
    assert res.feasible
    assert res.score == pytest.approx(math.log(0.75), abs=1e-12)


def test_numerator_empty_reference():
    post = uniform_post(3, 2)
    res = numerator_forward(post, [], log_pl=-0.7)
    assert res.score == pytest.approx(-0.7 + 3 * math.log(0.5), abs=1e-12)
    assert np.allclose(res.occupancy[:, 0], 1.0)


def test_numerator_too_short_flagged():
    post = uniform_post(1, 3)
    res = numerator_forward(post, [1, 2], log_pl=0.0)
    assert not res.feasible
    assert res.score == ZERO
    assert np.all(res.occupancy == 0.0)


def test_numerator_repeat_needs_separator():
    # "a a" needs at least 3 frames (a, blank, a)
    res = numerator_forward(uniform_post(2, 2), [1, 1], log_pl=0.0)
    assert not res.feasible
    res3 = numerator_forward(uniform_post(3, 2), [1, 1], log_pl=0.0)
    assert res3.feasible


def test_numerator_bad_label(ab2):
    with pytest.raises(DataError):
        numerator_forward(uniform_post(2, 3), [5], log_pl=0.0)


def test_numerator_matches_enumeration(rng):
    for _ in range(40):
        frames = int(rng.integers(1, 6))
        width = int(rng.integers(2, 4))
        post = random_log_softmax(rng, frames, width)
        n_ref = int(rng.integers(0, 4))
        labels = [int(rng.integers(1, width)) for _ in range(n_ref)]
        log_pl = float(rng.normal())
        want = brute_numerator(post, labels, log_pl)
        got = numerator_forward(post, labels, log_pl)
        if want == ZERO:
            assert not got.feasible
        else:
            assert got.score == pytest.approx(want, abs=1e-9)
            assert np.allclose(got.occupancy.sum(axis=1), 1.0, atol=1e-6)


def test_numerator_zero_frames():
    post = np.zeros((0, 3))
    res = numerator_forward(post, [], log_pl=-0.7)
    assert res.feasible and res.score == -0.7
    assert res.occupancy.shape == (0, 3)
    res = numerator_forward(post, [1], log_pl=-0.7)
    assert not res.feasible and res.score == ZERO


@pytest.mark.parametrize("frames", [200, 1000])
def test_numerator_matches_log_domain_on_long_references(frames,
                                                         monkeypatch):
    # labels drawn from three symbols, so many repeat their neighbour and
    # the chain loses those skips
    rng = np.random.default_rng(frames)
    post = random_log_softmax(rng, frames, 31)
    labels = [int(lab) for lab in rng.integers(1, 4, frames // 3)]
    assert sum(a == b for a, b in zip(labels, labels[1:])) > frames // 15
    want = _forward_backward_log(post, _reference_chain(labels, 31))

    def no_fallback(*args):
        raise AssertionError("the rescaled pass fell back")

    monkeypatch.setattr(loss, "_forward_backward_log", no_fallback)
    _assert_matches_log(numerator_forward(post, labels, log_pl=0.0), want)


def test_numerator_underflow_falls_back_to_log_domain():
    # blank and a sit 800 nats below b on every frame, so the rescaled
    # frame mass of the chain for "a" underflows to zero
    post = np.tile([-800.0, -800.0, 0.0], (3, 1))
    got = numerator_forward(post, [1], log_pl=0.0)
    want = _forward_backward_log(post, _reference_chain([1], 3))
    assert got.feasible
    assert got.score == want.score
    assert got.score == pytest.approx(-2400 + math.log(6), abs=1e-9)
    assert np.array_equal(got.occupancy, want.occupancy)


# ---------------------------------------------------------------------------
# denominator
# ---------------------------------------------------------------------------

def test_denominator_degenerate_lm_uniform_posterior(ab1):
    table = flatten_denominator(build_denominator_graph(ab1, degenerate_lm(["a"])))
    res = denominator_forward(uniform_post(2, 2), table)
    assert res.score == pytest.approx(0.0, abs=1e-12)  # log 4 + 2 log 0.5


def test_denominator_unigram_matches_enumeration(ab2, unigram_ab):
    g = lm_to_fst(unigram_ab, LOG)
    table = flatten_denominator(build_denominator_graph(ab2, unigram_ab))
    post = uniform_post(2, 3)
    want = brute_denominator(post, g)
    got = denominator_forward(post, table)
    assert got.score == pytest.approx(want, abs=1e-9)


def test_denominator_occupancy_rows_sum_to_one(ab2, bigram_ab, rng):
    table = flatten_denominator(build_denominator_graph(ab2, bigram_ab))
    for _ in range(20):
        frames = int(rng.integers(1, 7))
        post = random_log_softmax(rng, frames, 3)
        res = denominator_forward(post, table)
        assert res.feasible
        assert np.allclose(res.occupancy.sum(axis=1), 1.0, atol=1e-6)


def test_denominator_width_mismatch(den_table_ab):
    with pytest.raises(DataError):
        denominator_forward(uniform_post(2, 5), den_table_ab)


def test_denominator_matches_enumeration_randomized(rng):
    for _ in range(30):
        n_labels = int(rng.integers(1, 3))
        alphabet = Alphabet([f"l{i}" for i in range(n_labels)])
        order = int(rng.integers(1, 3))
        corpus = [[f"l{int(rng.integers(0, n_labels))}"
                   for _ in range(int(rng.integers(1, 4)))]
                  for _ in range(int(rng.integers(2, 5)))]
        lm = estimate(corpus, order=order, discount=0.5,
                      vocab=list(alphabet.labels))
        g = lm_to_fst(lm, LOG)
        table = flatten_denominator(build_denominator_graph(alphabet, lm))
        frames = int(rng.integers(1, 5))
        post = random_log_softmax(rng, frames, alphabet.num_state_symbols)
        want = brute_denominator(post, g)
        got = denominator_forward(post, table)
        assert got.score == pytest.approx(want, abs=1e-9)


@pytest.fixture(scope="module")
def trigram_graph():
    """30 labels, trigram LM from 1000 generated sentences: the T∘G graph,
    2,954 states and 22,230 arcs, 994 of them backoff epsilons."""
    alphabet = Alphabet([f"p{i:02d}" for i in range(30)])
    rng = np.random.default_rng(0)
    corpus = [[alphabet.state_name(lab) for lab in generate_utterance(
        rng, alphabet, alphabet.num_state_symbols)[1]] for _ in range(1000)]
    lm = estimate(corpus, order=3, discount=0.5, vocab=list(alphabet.labels))
    return build_denominator_graph(alphabet, lm)


@pytest.fixture(scope="module")
def trigram_table(trigram_graph):
    return flatten_denominator(trigram_graph)


def _assert_matches_log(got, want, rel=1e-9, occ_abs=1e-9):
    assert got.feasible and want.feasible
    assert got.score == pytest.approx(want.score, rel=rel, abs=1e-12)
    assert got.occupancy.shape == want.occupancy.shape
    assert np.all(np.abs(got.occupancy - want.occupancy) <= occ_abs)


def test_trigram_table_needs_no_state_split(trigram_table):
    # every T∘G transition into a state carries that state's symbol
    assert trigram_table.num_states > 2500
    entries = np.unique(np.stack([trigram_table.to_state,
                                  trigram_table.label]), axis=1)
    assert entries.shape[1] == len(np.unique(trigram_table.to_state))


def test_trigram_table_matches_unflattened_graph(trigram_graph,
                                                 trigram_table):
    # the table sizes perfbench's train-large workload reports
    assert trigram_table.num_states == 2893
    assert trigram_table.num_transitions == 72851
    post = random_log_softmax(np.random.default_rng(3), 200, 31)
    assert denominator_forward(post, trigram_table).score == pytest.approx(
        graph_forward(post, trigram_graph), rel=1e-9)


def _one_factor(table):
    """The table rebuilt from its transitions, so its pass runs over them."""
    return DenominatorTable(table.num_states, table.start, table.from_state,
                            table.to_state, table.label, table.weight,
                            table.final, table.num_labels)


def _both_forms(fst):
    """The flattened table over one factor, its transitions, and over two,
    the closure and the labeled arcs, whichever one flatten_denominator
    would pick for this graph."""
    table, factors = loss._flatten(fst)
    factored = copy.copy(table)
    factored._factors = factors
    return table, factored


def _dense(factor):
    """The factor as a dense matrix, read from its by-source CSR."""
    rows = len(factor.bwd_starts)
    cols = len(factor.fwd_starts)
    counts = np.diff(np.append(factor.bwd_starts, len(factor.bwd_dst)))
    mat = np.zeros((rows, cols))
    np.add.at(mat, (np.repeat(np.arange(rows), counts), factor.bwd_dst),
              factor.bwd_prob)
    return mat


def test_trigram_table_runs_over_closure_and_arcs(trigram_table):
    closure, arcs = trigram_table._factors
    assert 4700 <= closure.nnz <= 4900
    assert 21100 <= arcs.nnz <= 21300
    assert closure.nnz + arcs.nnz < trigram_table.num_transitions / 2


def test_toy_bigram_table_runs_over_its_transitions():
    # 41 closure pairs and 210 labeled arcs against 210 transitions
    train_set, _, alphabet = generate_dataset(200, 0, seed=7)
    lm = estimate([[alphabet.state_name(lab) for lab in labels]
                   for _, labels in train_set], order=2, discount=0.5,
                  vocab=list(alphabet.labels))
    table = flatten_denominator(build_denominator_graph(alphabet, lm))
    assert len(table._factors) == 1
    assert table._factors[0].nnz == table.num_transitions


def test_closure_times_arcs_is_the_transition_matrix():
    alphabet = Alphabet([f"p{i}" for i in range(5)])
    rng = np.random.default_rng(0)
    corpus = [[alphabet.state_name(lab) for lab in generate_utterance(
        rng, alphabet, alphabet.num_state_symbols)[1]] for _ in range(100)]
    lm = estimate(corpus, order=3, discount=0.5, vocab=list(alphabet.labels))
    table = flatten_denominator(build_denominator_graph(alphabet, lm))
    closure, arcs = table._factors
    want = np.zeros((table.num_states, table.num_states))
    np.add.at(want, (table.from_state, table.to_state), np.exp(table.weight))
    assert np.all(np.abs(_dense(closure) @ _dense(arcs) - want) <= 1e-12)


@pytest.mark.parametrize("frames", [200, 1000])
def test_denominator_matches_log_domain_on_trigram(trigram_table, frames):
    post = random_log_softmax(np.random.default_rng(frames), frames, 31)
    got = denominator_forward(post, trigram_table)
    _assert_matches_log(got, _forward_backward_log(post, trigram_table))
    _assert_matches_log(got, denominator_forward(post,
                                                 _one_factor(trigram_table)),
                        occ_abs=1e-12)


def _chain_acceptor(ab1):
    """blank, a, blank: a strict 3-arc chain."""
    isyms = ab1.pi_symbol_table()
    fst = Wfst(LOG, isyms, isyms)
    states = [fst.add_state() for _ in range(4)]
    fst.set_start(states[0])
    for i in range(3):
        fst.add_arc(states[i], 1 + (i % 2), 0, -0.1, states[i + 1])
    fst.set_final(states[3], 0.0)
    return fst


def test_denominator_underflow_falls_back_to_log_domain(ab1):
    # the only reachable label of each frame sits 800 nats below the row
    # maximum, so the rescaled frame mass underflows to zero
    post = np.array([[-800.0, 0.0], [0.0, -800.0], [-800.0, 0.0]])
    for table in _both_forms(_chain_acceptor(ab1)):
        got = denominator_forward(post, table)
        want = _forward_backward_log(post, table)
        assert got.feasible and np.isfinite(got.score)
        assert got.score == want.score
        assert got.score == pytest.approx(-2400.3, abs=1e-9)
        assert np.array_equal(got.occupancy, want.occupancy)
        assert np.array_equal(got.occupancy, [[1, 0], [0, 1], [1, 0]])


def test_denominator_neg_inf_columns_match_log_domain(den_table_ab, rng):
    post = random_log_softmax(rng, 6, 3)
    post[:, 2] = ZERO
    post[3, 1] = ZERO
    post -= np.log(np.exp(post).sum(axis=1, keepdims=True))
    _assert_matches_log(denominator_forward(post, den_table_ab),
                        _forward_backward_log(post, den_table_ab))


def test_denominator_neg_inf_row_is_infeasible(den_table_ab, rng):
    # a frame no symbol can emit: no complete path, as in the log domain
    post = random_log_softmax(rng, 4, 3)
    post[2] = ZERO
    got = denominator_forward(post, den_table_ab)
    assert not _forward_backward_log(post, den_table_ab).feasible
    assert not got.feasible and got.score == ZERO
    assert np.all(got.occupancy == 0.0)


def test_denominator_matches_log_on_random_tables(rng):
    # hand-built tables with one label per destination state, a start
    # state with incoming transitions, dead ends and -inf transitions
    checked = 0
    for _ in range(60):
        n = int(rng.integers(1, 5))
        width = int(rng.integers(1, 4))
        arcs = int(rng.integers(1, 10))
        final = np.where(rng.random(n) < 0.6, rng.normal(size=n), ZERO)
        state_label = rng.integers(0, width, n)
        to_state = rng.integers(0, n, arcs)
        weight = np.where(rng.random(arcs) < 0.2, ZERO, rng.normal(size=arcs))
        table = DenominatorTable(
            n, int(rng.integers(0, n)), rng.integers(0, n, arcs), to_state,
            state_label[to_state], weight, final, width)
        post = random_log_softmax(rng, int(rng.integers(0, 6)), width)
        got = denominator_forward(post, table)
        want = _forward_backward_log(post, table)
        assert got.feasible == want.feasible
        if want.feasible:
            _assert_matches_log(got, want)
            checked += 1
        else:
            assert got.score == ZERO and np.all(got.occupancy == 0.0)
    assert checked > 20


def _mixed_label_acceptor(ab1):
    """One state looping on blank and on label a at different weights."""
    isyms = ab1.pi_symbol_table()
    fst = Wfst(LOG, isyms, isyms)
    s0 = fst.add_state()
    fst.set_start(s0)
    fst.add_arc(s0, 1, 1, -0.4, s0)   # blank
    fst.add_arc(s0, 2, 2, -1.3, s0)   # label a
    fst.set_final(s0, -0.2)
    return fst


def _one_label_acceptor(ab1):
    """The same weighted language with one state per last-emitted label."""
    isyms = ab1.pi_symbol_table()
    fst = Wfst(LOG, isyms, isyms)
    start, blank, a = fst.add_state(), fst.add_state(), fst.add_state()
    fst.set_start(start)
    for q in (start, blank, a):
        fst.add_arc(q, 1, 1, -0.4, blank)
        fst.add_arc(q, 2, 2, -1.3, a)
        fst.set_final(q, -0.2)
    return fst


def test_mixed_label_table_matches_enumeration(ab1, rng):
    # a state entered on two labels is refused; its one-label equivalent
    # scores what the mixed graph scores
    mixed = _mixed_label_acceptor(ab1)
    with pytest.raises(DataError, match="state 0 is entered on labels 1 and 2"):
        flatten_denominator(mixed)
    table = flatten_denominator(_one_label_acceptor(ab1))
    assert table.num_states == 3 and table.num_transitions == 6
    for frames in (1, 2, 3, 4):
        post = random_log_softmax(rng, frames, 2)
        got = denominator_forward(post, table)
        assert got.score == pytest.approx(brute_acceptor(post, mixed), abs=1e-9)
        assert np.allclose(got.occupancy.sum(axis=1), 1.0, atol=1e-12)


def test_mixed_label_table_file_loads(tmp_path, ab1, rng):
    mixed = _mixed_label_acceptor(ab1)
    path = tmp_path / "den.fst"
    write_fst_text(mixed, path)
    with pytest.raises(DataError, match="state 0 is entered on labels 1 and 2"):
        flatten_denominator(read_fst_text(path, LOG, mixed.isyms, mixed.osyms))
    write_fst_text(_one_label_acceptor(ab1), path)
    table = flatten_denominator(read_fst_text(path, LOG, mixed.isyms,
                                              mixed.osyms))
    for frames in (1, 2, 3, 4):
        post = random_log_softmax(rng, frames, 2)
        assert denominator_forward(post, table).score == pytest.approx(
            brute_acceptor(post, mixed), abs=1e-9)


def test_import_does_not_load_scipy():
    # the denominator is numpy only; scipy.sparse would add ~22 MB of
    # resident memory to every run
    src = Path(__file__).resolve().parent.parent / "src"
    subprocess.run(
        [sys.executable, "-c",
         "import ctc_crf, sys; assert 'scipy' not in sys.modules"],
        check=True, cwd=src)


# ---------------------------------------------------------------------------
# flattening
# ---------------------------------------------------------------------------

def test_flatten_no_epsilons_is_transcription(ab1):
    # hand-build an epsilon-free log acceptor over state symbols
    isyms = ab1.pi_symbol_table()
    fst = Wfst(LOG, isyms, isyms)
    s0, s1 = fst.add_state(), fst.add_state()
    fst.set_start(s0)
    fst.add_arc(s0, 1, 1, -0.5, s1)   # blank
    fst.add_arc(s1, 2, 2, -1.0, s0)   # label a
    fst.set_final(s0, -0.1)
    table = flatten_denominator(fst)
    assert table.num_transitions == 2
    assert table.num_states == 2
    assert sorted(table.label.tolist()) == [0, 1]
    assert table.final[table.start] == pytest.approx(-0.1)


def test_flatten_trims_states_off_every_complete_path(ab1):
    # state 1 reaches no final weight and nothing reaches state 2
    isyms = ab1.pi_symbol_table()
    fst = Wfst(LOG, isyms, isyms)
    s0, s1, s2 = (fst.add_state() for _ in range(3))
    fst.set_start(s0)
    fst.add_arc(s0, 1, 1, -0.5, s0)
    fst.add_arc(s0, 2, 2, -1.0, s1)
    fst.add_arc(s2, 1, 1, -0.5, s0)
    fst.set_final(s0, 0.0)
    fst.set_final(s2, 0.0)
    table = flatten_denominator(fst)
    assert (table.num_states, table.num_transitions) == (1, 1)


def test_flatten_folds_backoff_mass(ab2, bigram_ab):
    graph = build_denominator_graph(ab2, bigram_ab)
    table = flatten_denominator(graph)
    # path mass for length T preserved against the unflattened machine
    for frames in (1, 2, 3, 4):
        post = np.zeros((frames, 3))  # unit node potentials
        got = denominator_forward(post, table).score
        want = _graph_length_mass(graph, frames)
        assert got == pytest.approx(want, abs=1e-9), frames


def test_flatten_zero_weight_epsilon_loop_diverges(ab1):
    isyms = ab1.pi_symbol_table()
    fst = Wfst(LOG, isyms, isyms)
    s0 = fst.add_state()
    fst.set_start(s0)
    fst.add_arc(s0, 0, 0, 0.0, s0)  # epsilon self-loop, mass one
    fst.add_arc(s0, 1, 0, 0.0, s0)
    fst.set_final(s0, 0.0)
    with pytest.raises(DataError, match="epsilon cycle"):
        flatten_denominator(fst)


def _epsilon_cycle_acceptor(ab1, cycle):
    """Two states looping on blank, with epsilon arcs (src, dst, weight)."""
    isyms = ab1.pi_symbol_table()
    fst = Wfst(LOG, isyms, isyms)
    s0, s1 = fst.add_state(), fst.add_state()
    fst.set_start(s0)
    fst.add_arc(s0, 1, 0, math.log(0.25), s0)
    fst.add_arc(s1, 1, 0, math.log(0.25), s1)
    for src, dst, weight in cycle:
        fst.add_arc(src, EPS, 0, weight, dst)
    fst.set_final(s0, 0.0)
    return fst


def test_flatten_light_epsilon_cycle_is_data_error(ab1):
    # every cycle is rejected, whatever its mass: a backoff graph has none
    half = math.log(0.5)
    for cycle in ([(0, 0, half)],                 # closure mass would be 2
                  [(0, 1, half), (1, 0, half)],   # two-state cycle
                  [(0, 1, ZERO), (1, 0, 0.0)]):   # zero mass, still a cycle
        with pytest.raises(DataError, match="epsilon cycle"):
            flatten_denominator(_epsilon_cycle_acceptor(ab1, cycle))
    table = flatten_denominator(_epsilon_cycle_acceptor(ab1, [(1, 0, half)]))
    assert table.num_states == 1   # state 1 cannot be reached


def _random_epsilon_dag(rng, alphabet):
    """A log acceptor over state symbols whose epsilon arcs follow the order
    of a random numbering p: two epsilon paths p0 ~> p2, one epsilon arc of
    weight -inf, states p1 and p2 entered by epsilon arcs only, and one
    label per state entered by labeled arcs."""
    isyms = alphabet.pi_symbol_table()
    fst = Wfst(LOG, isyms, isyms)
    n = int(rng.integers(4, 7))
    for _ in range(n):
        fst.add_state()
    p = [int(q) for q in rng.permutation(n)]
    fst.set_start(p[0])
    eps = [(0, 1), (1, 2), (0, 2)]
    eps += [tuple(sorted(rng.choice(n, 2, replace=False)))
            for _ in range(int(rng.integers(1, 4)))]
    dead = int(rng.integers(len(eps)))
    for k, (q, r) in enumerate(eps):
        fst.add_arc(p[q], EPS, EPS,
                    ZERO if k == dead else rng.normal(-0.5, 0.5), p[r])
    state_label = [int(lab) for lab in rng.integers(1, len(isyms), n)]
    for _ in range(int(rng.integers(3, 10))):
        dst = p[int(rng.integers(3, n))]
        fst.add_arc(int(rng.integers(n)), state_label[dst], state_label[dst],
                    rng.normal(0.0, 0.5), dst)
    for q in range(n):
        if rng.random() < 0.5:
            fst.set_final(q, rng.normal(0.0, 0.5))
    return fst


def test_flatten_random_epsilon_dags_match_enumeration(rng):
    checked = 0
    for _ in range(60):
        alphabet = Alphabet([f"l{i}" for i in range(int(rng.integers(1, 3)))])
        fst = _random_epsilon_dag(rng, alphabet)
        try:
            tables = _both_forms(fst)
            # pairs joined only through the -inf arc give no transition
            assert np.isfinite(tables[0].weight).all()
        except DataError as exc:
            assert "no complete path" in str(exc)
            tables = ()
        for frames in (1, 2, 3):
            post = random_log_softmax(rng, frames, alphabet.num_state_symbols)
            want = brute_acceptor(post, fst)
            for table in tables or (None,):
                got = denominator_forward(post, table) if table else None
                if want == ZERO:
                    assert got is None or not got.feasible
                else:
                    assert got.score == pytest.approx(want, abs=1e-9)
                    checked += 1
    assert checked > 120


def test_denominator_no_complete_path_flagged(ab1):
    # a strict 3-arc chain cannot realize a 2-frame utterance
    table = flatten_denominator(_chain_acceptor(ab1))
    res = denominator_forward(uniform_post(2, 2), table)
    assert not res.feasible
    assert res.score == ZERO
    assert np.all(res.occupancy == 0.0)


def _load_den(path, alphabet):
    """The denominator table as ``train`` loads ``den.fst``."""
    return flatten_denominator(read_fst_text(
        path, LOG, alphabet.pi_symbol_table(), alphabet.label_symbol_table()))


def test_table_round_trip_through_graph_file(tmp_path, ab2, bigram_ab, rng):
    graph = build_denominator_graph(ab2, bigram_ab)
    table = flatten_denominator(graph)
    path = tmp_path / "den.fst"
    write_fst_text(graph, path)
    back = _load_den(path, ab2)
    assert (back.num_states, back.start, back.num_labels) == \
        (table.num_states, table.start, table.num_labels)
    for name in ("from_state", "to_state", "label"):
        assert np.array_equal(getattr(back, name), getattr(table, name)), name
    assert np.allclose(back.weight, table.weight, rtol=0, atol=1e-7)
    assert np.allclose(back.final, table.final, rtol=0, atol=1e-7)
    for post in (uniform_post(3, 3), random_log_softmax(rng, 6, 3)):
        assert denominator_forward(post, back).score == pytest.approx(
            denominator_forward(post, table).score, abs=1e-7)


def test_table_round_trip_with_nonzero_start_state(tmp_path, ab1):
    # write_fst_text renumbers so the start lands at state 0 on disk
    isyms = ab1.pi_symbol_table()
    fst = Wfst(LOG, isyms, isyms)
    s0, s1 = fst.add_state(), fst.add_state()
    fst.set_start(s1)
    fst.add_arc(s1, 1, 0, -0.3, s0)
    fst.add_arc(s0, 2, 0, -0.7, s1)
    fst.set_final(s1, -0.1)
    table = flatten_denominator(fst)
    assert table.start == 1
    path = tmp_path / "t.fst"
    write_fst_text(fst, path)
    back = flatten_denominator(read_fst_text(path, LOG, isyms, isyms))
    assert back.start == 0
    post = uniform_post(2, 2)
    assert denominator_forward(post, back).score == pytest.approx(
        denominator_forward(post, table).score, abs=1e-9)
    assert denominator_forward(post, table).score == pytest.approx(
        math.log(0.5 * 0.5) + (-0.3 - 0.7 - 0.1), abs=1e-9)


@pytest.mark.parametrize("body", [
    "0\tx\t1\t1\t0.5\n0\t0\n",    # non-integer state id
    "0\t-1\t1\t1\t0.5\n0\t0\n",   # negative transition state
    "0\t0\t1\t1\t0.5\n-1\t0\n",   # negative final state
    "",                           # no states, so no start state
], ids=["bad-field", "negative-transition-state", "negative-final-state",
        "no-states"])
def test_table_load_rejects_malformed_lines(tmp_path, ab2, body):
    path = tmp_path / "den.fst"
    path.write_text(body)
    with pytest.raises(DataError):
        _load_den(path, ab2)


@pytest.mark.parametrize("start,to_state", [(0, 2), (2, 1), (-1, 1)],
                         ids=["transition-state", "start", "negative-start"])
def test_table_rejects_out_of_range_states(start, to_state):
    with pytest.raises(DataError, match="out of range"):
        DenominatorTable(2, start, [0], [to_state], [0], [0.0], [0.0, 0.0], 1)


def _graph_length_mass(graph, frames):
    """Total complete-path mass for exactly ``frames`` labeled arcs, walking
    the unflattened graph directly (epsilons free)."""
    from ctc_crf.wfst import EPS

    terms = []
    budget = graph.num_states + 1

    def visit(state, used, left, acc):
        if used == frames:
            f = graph.final_weight(state)
            if f != ZERO:
                terms.append(acc + f)
        for arc in graph.arcs(state):
            if arc.ilabel == EPS:
                if left > 0:
                    visit(arc.nextstate, used, left - 1, acc + arc.weight)
            elif used < frames:
                visit(arc.nextstate, used + 1, budget, acc + arc.weight)

    visit(graph.start, 0, budget, 0.0)
    arr = np.array(terms)
    m = arr.max()
    return float(m + np.log(np.exp(arr - m).sum()))


# ---------------------------------------------------------------------------
# combined loss
# ---------------------------------------------------------------------------

def test_loss_alpha_zero_uniform_example(ab1):
    table = flatten_denominator(build_denominator_graph(ab1, degenerate_lm(["a"])))
    post = uniform_post(2, 2)
    res = crf_loss(post, [1], log_pl=0.0, den=table, alpha=0.0)
    assert res.objective == pytest.approx(math.log(0.75), abs=1e-12)
    assert res.objective == res.numerator - res.denominator


def test_loss_alpha_combines_parts(ab2, bigram_ab, den_table_ab, rng):
    post = random_log_softmax(rng, 4, 3)
    labels = [1, 2]
    log_pl = score_sequence(bigram_ab, ["a", "b"])
    num = numerator_forward(post, labels, log_pl)
    den = denominator_forward(post, den_table_ab)
    res = crf_loss(post, labels, log_pl, den_table_ab, alpha=0.1)
    want = (num.score - den.score) + 0.1 * (num.score - log_pl)
    assert res.objective == pytest.approx(want, abs=1e-12)
    assert res.aux == pytest.approx(num.score - log_pl, abs=1e-12)


def test_loss_gradient_matches_finite_differences(rng):
    ab = Alphabet(["a", "b"])
    lm = estimate([["a", "b"], ["b"]], order=2, discount=0.5,
                  vocab=list(ab.labels))
    table = flatten_denominator(build_denominator_graph(ab, lm))
    log_pl = score_sequence(lm, ["a"])
    for alpha in (0.0, 0.1):
        post = random_log_softmax(rng, 3, 3)
        res = crf_loss(post, [1], log_pl, table, alpha=alpha)

        def objective(mat):
            return crf_loss(mat, [1], log_pl, table, alpha=alpha).objective

        fd = finite_difference(objective, post.copy(), step=1e-4)
        assert np.allclose(fd, res.grad, atol=1e-6), alpha


def test_loss_gradient_rows_sum_to_zero_at_alpha_zero(ab2, den_table_ab, rng):
    post = random_log_softmax(rng, 5, 3)
    res = crf_loss(post, [2, 1], log_pl=-1.0, den=den_table_ab, alpha=0.0)
    assert np.allclose(res.grad.sum(axis=1), 0.0, atol=1e-6)


def test_loss_degenerate_zero_gradient(den_table_ab):
    post = uniform_post(1, 3)
    res = crf_loss(post, [1, 2], log_pl=0.0, den=den_table_ab, alpha=0.1)
    assert res.degenerate
    assert res.objective == ZERO
    assert np.all(res.grad == 0.0)


def test_numerator_bounded_by_denominator(rng):
    for _ in range(40):
        n_labels = int(rng.integers(1, 3))
        ab = Alphabet([f"l{i}" for i in range(n_labels)])
        corpus = [[f"l{int(rng.integers(0, n_labels))}"
                   for _ in range(int(rng.integers(1, 4)))]
                  for _ in range(3)]
        lm = estimate(corpus, order=int(rng.integers(1, 3)), discount=0.5,
                      vocab=list(ab.labels))
        table = flatten_denominator(build_denominator_graph(ab, lm))
        frames = int(rng.integers(1, 6))
        post = random_log_softmax(rng, frames, ab.num_state_symbols)
        labels = [int(rng.integers(1, n_labels + 1))
                  for _ in range(int(rng.integers(0, 3)))]
        log_pl = score_sequence(lm, [ab.state_name(l) for l in labels])
        res = crf_loss(post, labels, log_pl, table, alpha=0.0)
        if res.degenerate:
            continue
        assert res.numerator <= res.denominator + 1e-9
        assert res.objective <= 1e-9


def test_loss_long_utterance_stable(den_table_ab, rng):
    post = random_log_softmax(rng, 1000, 3)
    labels = [1, 2] * 30
    res = crf_loss(post, labels, log_pl=-50.0, den=den_table_ab, alpha=0.1)
    assert np.isfinite(res.objective)
    assert np.isfinite(res.grad).all()

