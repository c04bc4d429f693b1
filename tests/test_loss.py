import math
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from ctc_crf import (Alphabet, BeamConfig, DataError, DenominatorTable, LOG,
                     NGramModel, SymbolTable, beam_decode,
                     build_decoding_graph, build_denominator_graph, crf_loss,
                     denominator_forward, estimate, flatten_denominator,
                     greedy_decode, lm_to_fst, numerator_forward,
                     read_fst_text, score_sequence, write_fst_text)
from ctc_crf import loss
from ctc_crf.loss import _forward_backward_log, _reference_chain
from ctc_crf.semiring import ZERO
from ctc_crf.toydata import generate_dataset, generate_utterance
from ctc_crf.verify import random_log_softmax
from ctc_crf.wfst import EPS

from oracles import (brute_acceptor, brute_denominator,
                     brute_numerator, finite_difference, flattened_matrix,
                     flattened_transitions, frozen_forward_backward,
                     frozen_products, graph_forward, machine)


def uniform_post(frames, width):
    return np.full((frames, width), math.log(1.0 / width))


def dense_then_sparse(monkeypatch):
    """Yield twice, with the size bound set first so that every table of at
    most ``_DENSE_MAX`` states runs over its dense matrix, then so that
    every table runs over its sparse factors."""
    for bound in (loss._DENSE_MAX, 0):
        monkeypatch.setattr(loss, "_DENSE_MAX", bound)
        yield


def degenerate_lm(labels):
    """A hand-built model assigning probability one to every sequence."""
    vocab = SymbolTable(["<eps>", *labels, "<s>", "</s>"])
    entries = {(vocab.find(l),): (0.0, None) for l in labels}
    entries[(vocab.find("</s>"),)] = (0.0, None)
    return NGramModel(1, vocab, entries)


# ---------------------------------------------------------------------------
# The posterior every entry point reads
# ---------------------------------------------------------------------------

# each takes (posterior, alphabet {a, b}, its T∘G table, its decoding graph)
POSTERIOR_READERS = {
    "numerator_forward": lambda post, ab, den, tlg: numerator_forward(
        post, [1]),
    "denominator_forward": lambda post, ab, den, tlg: denominator_forward(
        post, den),
    "crf_loss": lambda post, ab, den, tlg: crf_loss(post, [1], 0.0, den),
    "beam_decode": lambda post, ab, den, tlg: beam_decode(
        post, tlg, BeamConfig()),
    "greedy_decode": lambda post, ab, den, tlg: greedy_decode(post, ab),
}


@pytest.mark.parametrize("reader", sorted(POSTERIOR_READERS))
def test_posterior_is_2d_with_no_nan_or_pos_inf(reader, ab2, den_table_ab,
                                                 unigram_ab):
    tlg = build_decoding_graph(ab2, unigram_ab)

    def read(post):
        return POSTERIOR_READERS[reader](np.array(post), ab2, den_table_ab,
                                         tlg)

    half = math.log(0.5)
    read([[0.0, ZERO, ZERO], [half, half, ZERO]])   # log zero is a potential
    read([[ZERO, ZERO, ZERO], [half, half, ZERO]])  # so is a row of them
    read(np.zeros((0, 3)))                          # and no frame at all
    # one reduction finds a NaN or a +inf wherever it sits
    for bad in ([[0.0, ZERO, ZERO], [half, half, np.nan]],
                [[np.inf, ZERO, ZERO], [half, half, ZERO]],
                [[0.0, ZERO, ZERO], [half, np.inf, ZERO]]):
        with pytest.raises(DataError, match="posterior holds NaN or \\+inf"):
            read(bad)
    for bad in ([0.0, ZERO, ZERO], [[[0.0, ZERO, ZERO]]]):
        shape = np.shape(bad)
        with pytest.raises(DataError, match=re.escape(
                f"posterior must be 2-D, got shape {shape}")):
            read(bad)


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


def test_numerator_matches_enumeration(rng, monkeypatch):
    for _ in range(40):
        frames = int(rng.integers(1, 6))
        width = int(rng.integers(2, 4))
        post = random_log_softmax(rng, frames, width)
        n_ref = int(rng.integers(0, 4))
        labels = [int(rng.integers(1, width)) for _ in range(n_ref)]
        log_pl = float(rng.normal())
        want = brute_numerator(post, labels, log_pl)
        for _ in dense_then_sparse(monkeypatch):
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


def test_numerator_underflow_falls_back_to_log_domain(monkeypatch):
    # blank and a sit 800 nats below b on every frame, so the rescaled
    # frame mass of the chain for "a" underflows to zero
    post = np.tile([-800.0, -800.0, 0.0], (3, 1))
    want = _forward_backward_log(post, _reference_chain([1], 3))
    for _ in dense_then_sparse(monkeypatch):
        got = numerator_forward(post, [1], log_pl=0.0)
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


def test_denominator_unigram_matches_enumeration(ab2, unigram_ab,
                                                 monkeypatch):
    g = lm_to_fst(unigram_ab, LOG)
    table = flatten_denominator(build_denominator_graph(ab2, unigram_ab))
    post = uniform_post(2, 3)
    want = brute_denominator(post, g)
    for _ in dense_then_sparse(monkeypatch):
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


def test_denominator_matches_enumeration_randomized(rng, monkeypatch):
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
        for _ in dense_then_sparse(monkeypatch):
            got = denominator_forward(post, table)
            assert got.score == pytest.approx(want, abs=1e-9)


@pytest.fixture(scope="module")
def trigram_graph(trigram_lm):
    """The T∘G graph of the 30-label trigram: 2,954 states and 22,230 arcs,
    994 of them backoff epsilons."""
    return build_denominator_graph(*trigram_lm)


@pytest.fixture(scope="module")
def trigram_table(trigram_graph):
    return flatten_denominator(trigram_graph)


@pytest.fixture(scope="module")
def trigram_flat(trigram_graph):
    return flattened_transitions(trigram_graph)


def _assert_matches_log(got, want, rel=1e-9, occ_abs=1e-9):
    assert got.feasible and want.feasible
    assert got.score == pytest.approx(want.score, rel=rel, abs=1e-12)
    assert got.occupancy.shape == want.occupancy.shape
    assert np.all(np.abs(got.occupancy - want.occupancy) <= occ_abs)


def test_trigram_table_needs_no_state_split(trigram_table, trigram_flat):
    # every T∘G transition into a state carries that state's symbol
    _, final, trans = trigram_flat
    assert trigram_table.num_states == len(final) > 2500
    _, s, label = np.array(list(trans)).T
    assert np.array_equal(trigram_table.state_label[s], label)


def test_trigram_table_matches_unflattened_graph(trigram_graph,
                                                 trigram_table):
    # the table sizes perfbench's train-large workload reports
    assert trigram_table.num_states == 2893
    assert trigram_table.num_transitions == 72851
    post = random_log_softmax(np.random.default_rng(3), 200, 31)
    assert denominator_forward(post, trigram_table).score == pytest.approx(
        graph_forward(post, trigram_graph), rel=1e-9)


def _one_factor(flat, num_labels):
    """A table over one factor, the transitions ``flattened_transitions``
    found, so its pass runs over them."""
    start, final, trans = flat
    src, dst, label = np.array(list(trans), dtype=np.int64).reshape(-1, 3).T
    state_label = np.zeros(len(final), dtype=np.int64)
    state_label[dst] = label
    return DenominatorTable(start, final, state_label, num_labels,
                            [(src, dst, np.array(list(trans.values())),
                              len(final), len(final))])


def _both_forms(fst):
    """The flattened table over two factors, the closure and the labeled
    arcs, and the oracle's transitions as one factor."""
    table = flatten_denominator(fst)
    return table, _one_factor(flattened_transitions(fst), table.num_labels)


def _dense(factor):
    """The factor as a dense matrix, read from its ``(src, dst, log_weight,
    num_src, num_dst)`` entries."""
    src, dst, log_weight, rows, cols = factor
    mat = np.zeros((rows, cols))
    np.add.at(mat, (src, dst), np.exp(log_weight))
    return mat


def test_trigram_table_runs_over_closure_and_arcs(trigram_table):
    closure, arcs = (len(f[0]) for f in trigram_table._factor_entries)
    assert 4700 <= closure <= 4900
    assert 21100 <= arcs <= 21300
    assert closure + arcs < trigram_table.num_transitions / 2


@pytest.fixture(scope="module")
def toy_bigram_graph():
    """The T∘G graph of perfbench's train-toy workload: 5 labels, bigram."""
    train_set, _, alphabet = generate_dataset(200, 0, seed=7)
    lm = estimate([[alphabet.state_name(lab) for lab in labels]
                   for _, labels in train_set], order=2, discount=0.5,
                  vocab=list(alphabet.labels))
    return build_denominator_graph(alphabet, lm)


def test_toy_bigram_table_runs_over_its_transitions(toy_bigram_graph):
    # 29 states: the pass runs over the dense transition matrix, the product
    # of the 35 live closure pairs and the 210 labeled arcs, and never
    # builds their sparse layout
    table = flatten_denominator(toy_bigram_graph)
    assert table.num_states == 29 <= loss._DENSE_MAX
    post = random_log_softmax(np.random.default_rng(0), 13, 6)
    assert denominator_forward(post, table).feasible
    assert "_layout" not in vars(table)
    want = flattened_matrix(toy_bigram_graph)
    assert np.all(np.abs(table._matrix - want) <= 1e-12)
    closure, arcs = table._factor_entries
    assert (len(closure[0]), len(arcs[0]), table.num_transitions) == \
        (35, 210, 210)
    assert np.all(np.abs(_dense(closure) @ _dense(arcs) - want) <= 1e-12)


def _random_chain(rng, n, width):
    """An n-state table over one factor: each state loops and steps to the
    next at random weights, with random labels, final in its last two."""
    pos = np.arange(n)
    src = np.concatenate([pos, pos[:-1]])
    dst = np.concatenate([pos, pos[1:]])
    final = np.full(n, ZERO)
    final[-2:] = rng.normal(size=2)
    return DenominatorTable(0, final, rng.integers(0, width, n), width,
                            [(src, dst, rng.normal(-0.5, 0.5, len(src)), n,
                              n)])


def test_dense_and_sparse_passes_agree(toy_bigram_graph, monkeypatch):
    # the toy bigram, and chains on both sides of the size bound: the bound
    # picks the dense form for 63 and 64 states and the sparse form for 65
    rng = np.random.default_rng(15)
    tables = [flatten_denominator(toy_bigram_graph),
              *(_random_chain(rng, n, 6) for n in (63, 64, 65))]
    for table in tables:
        denominator_forward(random_log_softmax(rng, 1, 6), table)
        assert ("_matrix" in vars(table)) == (table.num_states <= 64)
    for table in tables:
        post = random_log_softmax(rng, 100, 6)
        monkeypatch.setattr(loss, "_DENSE_MAX", table.num_states)
        dense = denominator_forward(post, table)
        monkeypatch.setattr(loss, "_DENSE_MAX", 0)
        sparse = denominator_forward(post, table)
        assert dense.feasible and sparse.feasible
        assert dense.score == pytest.approx(sparse.score, rel=1e-12, abs=0)
        assert np.all(np.abs(dense.occupancy - sparse.occupancy) <= 1e-12)


def _assert_same_result(got, want, rel=1e-12, occ_abs=1e-12):
    """Two passes' results for one utterance: the same feasibility, and the
    scores and occupancies within the tolerances where it is feasible."""
    assert got.feasible == want.feasible
    if want.feasible:
        _assert_matches_log(got, want, rel, occ_abs)
    else:
        assert got.score == ZERO and np.all(got.occupancy == 0.0)


@pytest.mark.parametrize("frames", [1, 7, 8, 9, 17, 1000])
def test_block_pass_matches_per_frame_and_log_passes(frames, toy_bigram_graph,
                                                     trigram_table,
                                                     monkeypatch):
    # lengths on both sides of a block edge, over the toy bigram, reference
    # chains of 0 to 31 labels and the trigram; only an infeasible
    # utterance falls back to the log domain
    fell_back = []

    def log_pass(post, table):
        fell_back.append(table)
        return _forward_backward_log(post, table)

    monkeypatch.setattr(loss, "_forward_backward_log", log_pass)

    def check(post, table):
        got = loss._forward_backward(post, table)
        assert (table in fell_back) == (not got.feasible)
        _assert_same_result(got, frozen_forward_backward(post, table))
        # the log pass exponentiates alpha + beta - score, each carrying a
        # few ulps of the score: its occupancies are good to that
        want = _forward_backward_log(post, table)
        _assert_same_result(got, want, occ_abs=max(
            1e-12, _SUM_TOL * abs(want.score) if want.feasible else 0))

    rng = np.random.default_rng(frames)
    check(random_log_softmax(rng, frames, 31), trigram_table)
    toy = flatten_denominator(toy_bigram_graph)
    for _ in dense_then_sparse(monkeypatch):
        post = random_log_softmax(rng, frames, 6)
        for table in [toy, *(_reference_chain(rng.integers(1, 6, units), 6)
                             for units in range(32))]:
            check(post, table)
    assert toy._block == trigram_table._block == 8


def test_block_shortens_where_arcs_could_lift_a_subnormal_mass(monkeypatch):
    # one state looping at +300 nats, g = e^300, with a second symbol that
    # no state emits holding each frame's maximum.  Frames 5 and 6 each
    # multiply the mass by e^(300 - 670), to e^-740 on frame 6, deep in the
    # subnormal range where a float keeps about three digits; frame 7 lifts
    # it to e^-440, a mass a rescale check passes.  Blocks of eight would
    # check frame 7 only, and only the backward pass overflowing on frame 6
    # would send the utterance to the log domain.  The growth bound makes
    # this table rescale every frame, where each mass is normal and checked,
    # so the pass needs no fallback and matches the log domain.
    log_weight = 300.0
    table = DenominatorTable(0, [0.0], [0], 2, [([0], [0], [log_weight], 1,
                                                1)])
    post = np.zeros((12, 2))
    post[:5, 0] = post[8:, 0] = -log_weight
    post[5:7, 0] = -670.0
    want = _forward_backward_log(post, table)
    assert want.score == pytest.approx(-740.0 + log_weight, abs=1e-9)

    def no_fallback(*args):
        raise AssertionError("the rescaled pass fell back")

    monkeypatch.setattr(loss, "_forward_backward_log", no_fallback)
    for _ in dense_then_sparse(monkeypatch):
        _assert_matches_log(denominator_forward(post, table), want)
    assert table._block == 1


# float64 sums of the same terms in another order: an entry may differ from
# the frozen reference by at most 8 eps times the sum of its terms' sizes
_SUM_TOL = 8 * np.finfo(np.float64).eps


def _path_terms(table, v, forward, log):
    """The term of every path through one entry of each of the table's
    factors, from an index of ``v`` (forward, as in ``v M``, else backward,
    as in ``M v``), and the output index the path ends at: the path's ``v``
    times, or with ``log`` plus, its entries' weights."""
    factors = [(src, dst, logw) if forward else (dst, src, logw)
               for src, dst, logw, *_ in table._factor_entries]
    node, term = np.arange(len(v)), v
    for into, out, logw in factors if forward else factors[::-1]:
        order = np.argsort(into, kind="stable")
        lo = np.searchsorted(into[order], node)
        count = np.searchsorted(into[order], node, side="right") - lo
        path = np.repeat(np.arange(len(node)), count)
        entry = order[lo[path] + np.arange(len(path))
                      - (np.cumsum(count) - count)[path]]
        node = out[entry]
        term = (term[path] + logw[entry] if log
                else term[path] * np.exp(logw[entry]))
    return node, term


def _assert_matches_frozen(table, rng):
    """The table's sparse products against the frozen CSR products, forward
    and backward, in the probability and the log domain, on a vector with
    zero entries."""
    n = table.num_states
    for log in (False, True):
        got, want = loss._products(table, log), frozen_products(table, log)
        for k, forward in enumerate((True, False)):
            v = rng.random(n) * (rng.random(n) < 0.8)
            if log:
                with np.errstate(divide="ignore"):
                    v = np.log(v)
            node, term = _path_terms(table, v, forward, log)
            some = term > (ZERO if log else 0.0)
            bound = _SUM_TOL * np.bincount(node[some], np.abs(term[some]), n)
            g, w = got[k](v), want[k](v)
            assert g.shape == w.shape == (n,)
            if log:
                assert np.array_equal(g == ZERO, w == ZERO)
                g, w, bound = g[w > ZERO], w[w > ZERO], bound[w > ZERO]
            assert np.all(np.abs(g - w) <= bound)


def _random_factor_table(rng, n, inner, width):
    """A two-factor table through ``inner`` ends, with -inf entries, empty
    rows and columns, and one end that ~40 states enter and ~40 arcs
    leave, so that both directions of both factors reach the tail."""
    factors = []
    for rows, cols in ((n, inner), (inner, n)):
        entries = 2 * max(rows, cols)
        src = rng.integers(1, rows, entries)   # row 0 stays empty
        dst = rng.integers(1, cols, entries)   # and column 0
        src[:40] = rows - 1
        dst[40:80] = cols - 1
        logw = np.where(rng.random(entries) < 0.1, ZERO,
                        rng.normal(size=entries))
        factors.append((src, dst, logw, rows, cols))
    final = rng.normal(size=n)
    return DenominatorTable(0, final, rng.integers(0, width, n), width,
                            factors)


def test_jagged_products_match_frozen_csr_products(trigram_table,
                                                   toy_bigram_graph,
                                                   monkeypatch):
    # the trigram, the toy bigram and reference chains with repeated labels
    # made to run sparse, and random tables whose long rows reach the tail
    monkeypatch.setattr(loss, "_DENSE_MAX", 0)
    rng = np.random.default_rng(19)
    units = (33, 66)
    chains = [_reference_chain(rng.integers(1, 4, u), 4) for u in units]
    assert [c.num_states for c in chains] == [67, 133]
    # a repeated label skips no blank: fewer than the 2n - 1 loops and
    # steps plus u - 1 skips
    assert all(len(c._factor_entries[0][0]) < 2 * c.num_states + u - 2
               for c, u in zip(chains, units))
    tables = [trigram_table, flatten_denominator(toy_bigram_graph), *chains,
              *(_random_factor_table(rng, n, inner, 3)
                for n, inner in ((90, 70), (120, 150), (200, 200)))]
    for table in tables:
        _assert_matches_frozen(table, rng)
    tails = [sum(len(s.tail_starts) > 0 for d in t._layout for s in d.stages)
             for t in tables]
    assert tails[0] >= 3 and tails[-3:] == [4, 4, 4]


def test_closure_times_arcs_is_the_transition_matrix():
    alphabet = Alphabet([f"p{i}" for i in range(5)])
    rng = np.random.default_rng(0)
    corpus = [[alphabet.state_name(lab) for lab in generate_utterance(
        rng, alphabet, alphabet.num_state_symbols)[1]] for _ in range(100)]
    lm = estimate(corpus, order=3, discount=0.5, vocab=list(alphabet.labels))
    graph = build_denominator_graph(alphabet, lm)
    closure, arcs = flatten_denominator(graph)._factor_entries
    want = flattened_matrix(graph)
    assert np.all(np.abs(_dense(closure) @ _dense(arcs) - want) <= 1e-12)


@pytest.mark.parametrize("frames", [200, 1000])
def test_denominator_matches_log_domain_on_trigram(trigram_table,
                                                   trigram_flat, frames):
    post = random_log_softmax(np.random.default_rng(frames), frames, 31)
    got = denominator_forward(post, trigram_table)
    _assert_matches_log(got, _forward_backward_log(post, trigram_table))
    _assert_matches_log(got, denominator_forward(
        post, _one_factor(trigram_flat, 31)), occ_abs=1e-12)


def test_trigram_pass_keeps_one_frames_by_states_array(trigram_table):
    # the forward masses are the pass's one T x N array; a second one would
    # double the pass's peak memory on a long utterance
    frames = 1000
    post = random_log_softmax(np.random.default_rng(1), frames, 31)
    tracemalloc.start()
    try:
        assert denominator_forward(post, trigram_table).feasible
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.25 * frames * trigram_table.num_states * 8, peak


def _chain_acceptor(ab1):
    """blank, a, blank: a strict 3-arc chain."""
    isyms = ab1.pi_symbol_table()
    return machine(LOG, isyms, isyms, 4, 0, {3: 0.0},
                   [(i, 1 + (i % 2), 0, -0.1, i + 1) for i in range(3)])


def test_denominator_underflow_falls_back_to_log_domain(ab1, monkeypatch):
    # the only reachable label of each frame sits 800 nats below the row
    # maximum, so the rescaled frame mass underflows to zero
    post = np.array([[-800.0, 0.0], [0.0, -800.0], [-800.0, 0.0]])
    for table in _both_forms(_chain_acceptor(ab1)):
        want = _forward_backward_log(post, table)
        for _ in dense_then_sparse(monkeypatch):
            got = denominator_forward(post, table)
            assert got.feasible and np.isfinite(got.score)
            assert got.score == want.score
            assert got.score == pytest.approx(-2400.3, abs=1e-9)
            assert np.array_equal(got.occupancy, want.occupancy)
            assert np.array_equal(got.occupancy, [[1, 0], [0, 1], [1, 0]])


def test_denominator_neg_inf_columns_match_log_domain(den_table_ab, rng,
                                                     monkeypatch):
    post = random_log_softmax(rng, 6, 3)
    post[:, 2] = ZERO
    post[3, 1] = ZERO
    post -= np.log(np.exp(post).sum(axis=1, keepdims=True))
    for _ in dense_then_sparse(monkeypatch):
        _assert_matches_log(denominator_forward(post, den_table_ab),
                            _forward_backward_log(post, den_table_ab))


def test_denominator_neg_inf_row_is_infeasible(den_table_ab, rng,
                                               monkeypatch):
    # a frame no symbol can emit: no complete path, as in the log domain
    post = random_log_softmax(rng, 4, 3)
    post[2] = ZERO
    assert not _forward_backward_log(post, den_table_ab).feasible
    for _ in dense_then_sparse(monkeypatch):
        got = denominator_forward(post, den_table_ab)
        assert not got.feasible and got.score == ZERO
        assert np.all(got.occupancy == 0.0)


def test_denominator_matches_log_on_random_tables(rng, monkeypatch):
    # hand-built tables of one factor or two, whose inner dimension may
    # differ from the state count, with a start state with incoming
    # transitions, dead ends, empty rows and columns and -inf entries
    checked, two_factor, uneven, empty_row = 0, 0, 0, 0
    for _ in range(80):
        n = int(rng.integers(1, 5))
        width = int(rng.integers(1, 4))
        final = np.where(rng.random(n) < 0.6, rng.normal(size=n), ZERO)
        dims = [n, *rng.integers(1, 6, int(rng.integers(0, 2))), n]
        factors = []
        for rows, cols in zip(dims, dims[1:]):
            entries = int(rng.integers(1, 10))
            weight = np.where(rng.random(entries) < 0.2, ZERO,
                              rng.normal(size=entries))
            factors.append((rng.integers(0, rows, entries),
                            rng.integers(0, cols, entries), weight,
                            int(rows), int(cols)))
        table = DenominatorTable(int(rng.integers(0, n)), final,
                                 rng.integers(0, width, n), width, factors)
        empty_row += any(stage.diagonals[:1] != ((0, stage.rows),)
                         for direction in table._layout
                         for stage in direction.stages)
        post = random_log_softmax(rng, int(rng.integers(0, 6)), width)
        want = _forward_backward_log(post, table)
        for _ in dense_then_sparse(monkeypatch):
            got = denominator_forward(post, table)
            assert got.feasible == want.feasible
            if want.feasible:
                _assert_matches_log(got, want)
            else:
                assert got.score == ZERO and np.all(got.occupancy == 0.0)
        if want.feasible:
            checked += 1
            if len(dims) == 3:
                two_factor += 1
                uneven += dims[1] != n
    assert checked > 20 and two_factor > 10 and uneven > 5 and empty_row > 20


def _mixed_label_acceptor(ab1):
    """One state looping on blank and on label a at different weights."""
    isyms = ab1.pi_symbol_table()
    return machine(LOG, isyms, isyms, 1, 0, {0: -0.2},
                   [(0, 1, 1, -0.4, 0),    # blank
                    (0, 2, 2, -1.3, 0)])   # label a


def _one_label_acceptor(ab1):
    """The same weighted language with one state per last-emitted label."""
    isyms = ab1.pi_symbol_table()
    start, blank, a = 0, 1, 2
    return machine(LOG, isyms, isyms, 3, start,
                   dict.fromkeys((start, blank, a), -0.2),
                   [row for q in (start, blank, a)
                    for row in ((q, 1, 1, -0.4, blank), (q, 2, 2, -1.3, a))])


def test_mixed_label_table_matches_enumeration(ab1, rng, monkeypatch):
    # a state entered on two labels is refused; its one-label equivalent
    # scores what the mixed graph scores
    mixed = _mixed_label_acceptor(ab1)
    with pytest.raises(DataError, match="state 0 is entered on labels 1 and 2"):
        flatten_denominator(mixed)
    table = flatten_denominator(_one_label_acceptor(ab1))
    assert table.num_states == 3 and table.num_transitions == 6
    for frames in (1, 2, 3, 4):
        post = random_log_softmax(rng, frames, 2)
        want = brute_acceptor(post, mixed)
        for _ in dense_then_sparse(monkeypatch):
            got = denominator_forward(post, table)
            assert got.score == pytest.approx(want, abs=1e-9)
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
    fst = machine(LOG, isyms, isyms, 2, 0, {0: -0.1},
                  [(0, 1, 1, -0.5, 1),    # blank
                   (1, 2, 2, -1.0, 0)])   # label a
    table = flatten_denominator(fst)
    assert table.num_transitions == 2
    assert table.num_states == 2
    assert sorted(table.state_label.tolist()) == [0, 1]
    assert table.final[table.start] == pytest.approx(-0.1)
    closure, arcs = table._factor_entries
    assert np.array_equal(_dense(closure) @ _dense(arcs),
                          flattened_matrix(fst))


def test_flatten_epsilon_arc_listed_between_labeled_arcs(ab2):
    # states 0 and 2 list an epsilon arc between two labeled ones, so the
    # closure must take it alone of the arcs the state lists
    isyms = ab2.pi_symbol_table()
    fst = machine(LOG, isyms, isyms, 4, 0, {1: -0.2, 3: -0.1},
                  [(0, 2, 2, -0.3, 1),      # a
                   (0, EPS, 0, -0.7, 2),
                   (0, 3, 3, -0.4, 3),      # b
                   (1, 1, 1, -0.5, 0),      # blank
                   (1, EPS, 0, -1.0, 2),
                   (2, 2, 2, -0.6, 1),
                   (2, EPS, 0, -0.8, 3),
                   (2, 1, 1, -0.9, 0),
                   (3, 3, 3, -0.2, 3)])
    table = flatten_denominator(fst)
    start, final, trans = flattened_transitions(fst)
    assert table.start == start
    assert np.allclose(table.final, final, atol=1e-12)
    # state 2 is entered by an epsilon arc only, so it is a closure end
    # and not a state: blank, a and b enter states 0, 1 and 3
    assert table.state_label.tolist() == [0, 1, 2]
    closure, arcs = table._factor_entries
    # (q, q) for each state, then 0 and 1 each reach 2 and, through it, 3
    assert len(closure[0]) == 7
    assert np.allclose(_dense(closure) @ _dense(arcs),
                       flattened_matrix(fst), atol=1e-12)
    for frames in (1, 2, 3):
        post = random_log_softmax(np.random.default_rng(frames), frames, 3)
        assert denominator_forward(post, table).score == \
            pytest.approx(brute_acceptor(post, fst), abs=1e-9)


def test_flatten_trims_states_off_every_complete_path(ab1):
    # state 1 reaches no final weight and nothing reaches state 2
    isyms = ab1.pi_symbol_table()
    fst = machine(LOG, isyms, isyms, 3, 0, {0: 0.0, 2: 0.0},
                  [(0, 1, 1, -0.5, 0),
                   (0, 2, 2, -1.0, 1),
                   (2, 1, 1, -0.5, 0)])
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
    fst = machine(LOG, isyms, isyms, 1, 0, {0: 0.0},
                  [(0, 0, 0, 0.0, 0),  # epsilon self-loop, mass one
                   (0, 1, 0, 0.0, 0)])
    with pytest.raises(DataError, match="epsilon cycle"):
        flatten_denominator(fst)


def _epsilon_cycle_acceptor(ab1, cycle):
    """Two states looping on blank, with epsilon arcs (src, dst, weight)."""
    isyms = ab1.pi_symbol_table()
    rows = [(0, 1, 0, math.log(0.25), 0), (1, 1, 0, math.log(0.25), 1)]
    rows += [(src, EPS, 0, weight, dst) for src, dst, weight in cycle]
    return machine(LOG, isyms, isyms, 2, 0, {0: 0.0}, rows)


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
    n = int(rng.integers(4, 7))
    p = [int(q) for q in rng.permutation(n)]
    eps = [(0, 1), (1, 2), (0, 2)]
    eps += [tuple(sorted(rng.choice(n, 2, replace=False)))
            for _ in range(int(rng.integers(1, 4)))]
    dead = int(rng.integers(len(eps)))
    rows = [(p[q], EPS, EPS, ZERO if k == dead else rng.normal(-0.5, 0.5), p[r])
            for k, (q, r) in enumerate(eps)]
    state_label = [int(lab) for lab in rng.integers(1, len(isyms), n)]
    for _ in range(int(rng.integers(3, 10))):
        dst = p[int(rng.integers(3, n))]
        rows.append((int(rng.integers(n)), state_label[dst], state_label[dst],
                     rng.normal(0.0, 0.5), dst))
    finals = {q: rng.normal(0.0, 0.5) for q in range(n) if rng.random() < 0.5}
    return machine(LOG, isyms, isyms, n, p[0], finals, rows)


def test_flatten_random_epsilon_dags_match_enumeration(rng, monkeypatch):
    checked = 0
    for _ in range(60):
        alphabet = Alphabet([f"l{i}" for i in range(int(rng.integers(1, 3)))])
        fst = _random_epsilon_dag(rng, alphabet)
        try:
            tables = _both_forms(fst)
            # pairs joined only through the -inf arc give no closure entry
            assert np.isfinite(tables[0]._factor_entries[0][2]).all()
        except DataError as exc:
            assert "no complete path" in str(exc)
            tables = ()
        for frames in (1, 2, 3):
            post = random_log_softmax(rng, frames, alphabet.num_state_symbols)
            want = brute_acceptor(post, fst)
            for table in tables or (None,):
                for _ in dense_then_sparse(monkeypatch):
                    got = denominator_forward(post, table) if table else None
                    if want == ZERO:
                        assert got is None or not got.feasible
                    else:
                        assert got.score == pytest.approx(want, abs=1e-9)
                if want != ZERO:
                    checked += 1
    assert checked > 120


def test_flatten_deep_chain(ab1):
    # 100,000 states in one chain of labeled arcs, final at states 3 and
    # n - 1: the trim walks the whole depth both ways, one step per edge
    n = 100_000
    isyms = ab1.pi_symbol_table()
    fst = machine(LOG, isyms, isyms, n, 0, {3: -0.2, n - 1: 0.0},
                  [(q, 1 + q % 2, 0, -0.1, q + 1) for q in range(n - 1)])
    table = flatten_denominator(fst)
    assert (table.num_states, table.num_transitions) == (n, n - 1)
    got = denominator_forward(uniform_post(3, 2), table)
    assert got.score == pytest.approx(3 * math.log(0.5) - 0.5, abs=1e-9)


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
    assert np.array_equal(back.state_label, table.state_label)
    assert np.allclose(back.final, table.final, rtol=0, atol=1e-7)
    for got, want in zip(back._factor_entries, table._factor_entries,
                         strict=True):
        src, dst, logw, *shape = got
        assert np.array_equal(src, want[0]) and np.array_equal(dst, want[1])
        assert np.allclose(logw, want[2], rtol=0, atol=1e-7)
        assert shape == list(want[3:])
    for post in (uniform_post(3, 3), random_log_softmax(rng, 6, 3)):
        assert denominator_forward(post, back).score == pytest.approx(
            denominator_forward(post, table).score, abs=1e-7)


def test_table_round_trip_with_nonzero_start_state(tmp_path, ab1):
    # write_fst_text renumbers so the start lands at state 0 on disk
    isyms = ab1.pi_symbol_table()
    fst = machine(LOG, isyms, isyms, 2, 1, {1: -0.1},
                  [(1, 1, 0, -0.3, 0),
                   (0, 2, 0, -0.7, 1)])
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


@pytest.mark.parametrize("start,final,cols,match", [
    (0, [0.0, 0.0], 3, "factor shapes"),
    (2, [0.0, 0.0], 2, "start state out of range"),
    (-1, [0.0, 0.0], 2, "start state out of range"),
    (0, [0.0], 2, "final-weight array does not match"),
], ids=["transition-state", "start", "negative-start", "final-length"])
def test_table_rejects_out_of_range_states(start, final, cols, match):
    # "transition-state": a factor whose columns reach a third state
    with pytest.raises(DataError, match=match):
        DenominatorTable(start, final, [0, 0], 1, [([0], [1], [0.0], 2, cols)])


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


def test_loss_rejects_negative_or_nan_alpha(den_table_ab):
    # an infinite weight gave a -inf objective not marked degenerate, with a
    # non-finite gradient
    for alpha in (-0.1, math.nan, math.inf):
        with pytest.raises(DataError, match="auxiliary weight"):
            crf_loss(uniform_post(2, 3), [1], 0.0, den_table_ab, alpha=alpha)


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

