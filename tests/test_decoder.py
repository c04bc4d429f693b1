import math
import time

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ctc_crf import (Alphabet, BeamConfig, DataError, TROPICAL, decoder,
                     beam_decode, build_decoding_graph, estimate,
                     evaluate_error_rate, greedy_decode)
from ctc_crf.semiring import ZERO
from ctc_crf.toydata import generate_utterance
from ctc_crf.verify import random_log_softmax
from ctc_crf.wfst import BLANK, EPS

from oracles import _prune as frozen_prune
from oracles import (exhaustive_best_path, frozen_align_counts,
                     frozen_beam_decode, machine)


def spiky_posterior(symbols, width, peak=0.95):
    """One confident symbol per frame."""
    rest = (1.0 - peak) / (width - 1)
    post = np.full((len(symbols), width), math.log(rest))
    for t, s in enumerate(symbols):
        post[t, s] = math.log(peak)
    return post


@pytest.fixture
def graph_ab(ab2):
    lm = estimate([["a"], ["b"], ["a", "b"], ["b", "a"]], order=1,
                  discount=0.5, vocab=list(ab2.labels))
    return build_decoding_graph(ab2, lm)


# ---------------------------------------------------------------------------
# greedy
# ---------------------------------------------------------------------------

def test_greedy_collapses_argmax(ab2):
    post = spiky_posterior([0, 1, 1, 0, 2], 3)
    assert greedy_decode(post, ab2) == [1, 2]


def test_greedy_all_blank(ab2):
    post = spiky_posterior([0, 0, 0], 3)
    assert greedy_decode(post, ab2) == []


def test_greedy_tie_breaks_low_id(ab2):
    post = np.zeros((2, 3))
    assert greedy_decode(post, ab2) == []  # argmax ties at blank (id 0)


def test_greedy_agrees_with_beam_on_spiky(ab2, graph_ab, rng):
    for _ in range(10):
        symbols = rng.integers(0, 3, size=rng.integers(1, 7)).tolist()
        post = spiky_posterior(symbols, 3)
        names_greedy = [ab2.state_name(s) for s in greedy_decode(post, ab2)]
        res = beam_decode(post, graph_ab,
                          BeamConfig(width=10_000, blank_threshold=None))
        names_beam = [graph_ab.osyms.name(w) for w in res.words]
        assert names_beam == names_greedy, symbols


# ---------------------------------------------------------------------------
# beam search
# ---------------------------------------------------------------------------

# every combination of width {1, 3, 64, unlimited}, slack {off, 2.0} and
# blank skipping {off, 0.7}
FROZEN_GRID = [BeamConfig(width=width, slack=slack, blank_threshold=threshold)
               for width in (1, 3, 64, 100_000)
               for slack in (float("inf"), 2.0)
               for threshold in (None, 0.7)]


def _outcome(result):
    return (result.words, result.score, result.frames_processed,
            result.frames_skipped)


def _assert_decodes_as_frozen(post, graph, configs):
    for config in configs:
        got = beam_decode(post, graph, config)
        want = frozen_beam_decode(post, graph, config)
        assert _outcome(got) == _outcome(want), config


def test_beam_matches_frozen_search_on_graph_ab(graph_ab, rng):
    posts = [random_log_softmax(rng, int(rng.integers(1, 9)), 3)
             for _ in range(12)]
    posts += [spiky_posterior(rng.integers(0, 3, size=8).tolist(), 3, peak)
              for peak in (0.6, 0.8, 0.95)]
    for post in posts:
        _assert_decodes_as_frozen(post, graph_ab, FROZEN_GRID)


def test_beam_matches_frozen_search_on_trigram_tlg(trigram_lm, trigram_tlg):
    # the benchmark's posteriors: log-softmax of 8 x noisy one-hot features
    alphabet, _ = trigram_lm
    rng = np.random.default_rng(7)
    posts = [random_log_softmax(rng, 4, 31)]
    for _ in range(3):
        feats = generate_utterance(rng, alphabet, 31, min_labels=2,
                                   max_labels=4)[0]
        logits = 8.0 * feats
        posts.append(logits - np.log(np.exp(logits).sum(axis=1,
                                                        keepdims=True)))
    for post in posts:
        _assert_decodes_as_frozen(post, trigram_tlg, FROZEN_GRID)


def test_beam_matches_frozen_search_on_benchmark_length_utterances(
        trigram_lm, trigram_tlg):
    # 20-30 labels, as the benchmark's decode-large draws them, so the beam
    # fills and the width cut and the epsilon closure run on every frame
    alphabet, _ = trigram_lm
    rng = np.random.default_rng(11)
    configs = [BeamConfig(width=64), BeamConfig(width=64, blank_threshold=0.7)]
    for _ in range(2):
        feats = generate_utterance(rng, alphabet, 31, min_labels=20,
                                   max_labels=30)[0]
        logits = 8.0 * feats
        post = logits - np.log(np.exp(logits).sum(axis=1, keepdims=True))
        _assert_decodes_as_frozen(post, trigram_tlg, configs)


# few distinct scores, so that ties straddle the width cut; -0.0 ties 0.0
PRUNE_SCORES = [0.0, -0.0, -0.5, -1.0, -1.5, -3.0, ZERO]


@settings(derandomize=True, deadline=None, max_examples=300)
@given(data=st.data())
def test_prune_keeps_the_frozen_set(data):
    states = data.draw(st.lists(st.integers(0, 40), min_size=1, max_size=24,
                                unique=True))
    scores = data.draw(st.lists(st.sampled_from(PRUNE_SCORES),
                                min_size=len(states), max_size=len(states)))
    # each hypothesis carries its own trace, so a swapped one shows
    active = {s: (score, (s, None)) for s, score in zip(states, scores)}
    n = len(active)
    for width in sorted({max(n - 1, 1), n, n + 1, 1}):
        for slack in (float("inf"), 0.0, 1.0):
            config = BeamConfig(width=width, slack=slack)
            want = dict(active)
            frozen_prune(want, config)
            got = decoder._prune(dict(active), config)
            assert got == want, (width, slack)


def test_exact_ties_decode_as_frozen_search(ab2):
    # a and b score alike in every frame, so:
    #  - two arcs into state 1 tie; the first in graph order (b) keeps it
    #  - the epsilon arc 3 -> 2 ties the labelled arc a: 0 -> 2, which keeps it
    #  - states 1, 2 and 3 tie after frame one; a width of one keeps state 1
    #  - both blank arcs into state 4 tie; state 1, expanded first, keeps it
    #  - state 5 sits exactly one below the best, on a slack of one
    a, b = 2, 3
    g = machine(TROPICAL, ab2.pi_symbol_table(), ab2.label_symbol_table(), 6,
                0, {2: 0.0, 4: 0.0, 5: 2.0},
                [(0, b, 2, 0.0, 1),
                 (0, a, 1, 0.0, 1),
                 (0, a, 1, 0.0, 2),
                 (0, b, EPS, 0.0, 3),
                 (3, EPS, 2, 0.0, 2),
                 (1, BLANK, EPS, 0.0, 4),
                 (2, BLANK, EPS, 0.0, 4),
                 (0, a, 2, -1.0, 5)])
    rows = np.log([[0.5, 0.25, 0.25], [0.6, 0.2, 0.2], [0.8, 0.1, 0.1]])
    configs = [BeamConfig(width=width, slack=slack, blank_threshold=threshold)
               for width in (1, 2, 3, 100) for slack in (float("inf"), 1.0)
               for threshold in (None, 0.7)]
    for post in (rows[:1], rows[:2], rows[[0, 2]]):
        _assert_decodes_as_frozen(post, g, configs)
    assert beam_decode(rows[:1], g, BeamConfig(width=1)).words == []
    assert beam_decode(rows[:1], g, BeamConfig(width=2)).words == [1]
    assert beam_decode(rows[:1], g, BeamConfig(width=4, slack=1.0)).words == [2]
    assert beam_decode(rows[:2], g, BeamConfig(width=2)).words == [2]


def test_beam_unlimited_matches_exhaustive(ab2, graph_ab, rng):
    for trial in range(25):
        frames = int(rng.integers(1, 7))
        post = random_log_softmax(rng, frames, 3)
        res = beam_decode(post, graph_ab,
                          BeamConfig(width=10_000, blank_threshold=None))
        want_score, want_words = exhaustive_best_path(graph_ab, post)
        assert res.score == pytest.approx(want_score, abs=1e-9), trial
        assert tuple(res.words) == want_words, trial


def test_beam_width_one_equals_greedy_on_spiky(ab2, graph_ab, rng):
    for _ in range(10):
        symbols = rng.integers(0, 3, size=rng.integers(1, 6)).tolist()
        post = spiky_posterior(symbols, 3)
        res = beam_decode(post, graph_ab,
                          BeamConfig(width=1, blank_threshold=None))
        names = [graph_ab.osyms.name(w) for w in res.words]
        want = [ab2.state_name(s) for s in greedy_decode(post, ab2)]
        assert names == want


def test_beam_monotone_in_width(ab2, graph_ab, rng):
    post = random_log_softmax(rng, 5, 3)
    scores = []
    for width in (1, 2, 4, 16, 256):
        res = beam_decode(post, graph_ab,
                          BeamConfig(width=width, blank_threshold=None))
        scores.append(res.score)
    assert all(b >= a - 1e-12 for a, b in zip(scores, scores[1:]))


def test_beam_frame_accounting(ab2, graph_ab):
    post = spiky_posterior([1, 0, 1, 0, 2], 3)
    res = beam_decode(post, graph_ab, BeamConfig(width=64, blank_threshold=0.7))
    assert res.frames_processed + res.frames_skipped == 5
    assert res.frames_skipped == 2


def test_blank_skipping_preserves_words(ab2, graph_ab):
    # frames 2 and 4 (1-indexed: 2nd and 4th) are confident blanks
    post = spiky_posterior([1, 0, 2, 0, 1], 3)
    plain = beam_decode(post, graph_ab,
                        BeamConfig(width=256, blank_threshold=None))
    skipping = beam_decode(post, graph_ab,
                           BeamConfig(width=256, blank_threshold=0.7))
    assert skipping.words == plain.words
    assert skipping.frames_skipped == 2
    assert plain.frames_skipped == 0


def test_no_hypothesis_is_flagged_not_crash(ab2, graph_ab):
    # -inf everywhere except blank: with blank-only path the graph still
    # accepts (empty word sequence); force failure with an all -inf column
    post = np.full((2, 3), ZERO)
    res = beam_decode(post, graph_ab, BeamConfig(width=4))
    assert res.words == []
    assert res.score == ZERO


def test_skipped_frames_cost_nothing(ab2, graph_ab):
    post = spiky_posterior([1, 0, 2], 3)
    free = beam_decode(post, graph_ab,
                       BeamConfig(width=64, blank_threshold=0.7))
    plain = beam_decode(post, graph_ab, BeamConfig(width=64))
    assert free.frames_skipped == 1
    assert plain.words == free.words
    # without skipping the search pays the blank score of the middle frame
    assert plain.score == pytest.approx(free.score + post[1, 0], abs=1e-12)


def test_empty_word_lm_is_error_not_crash(ab2):
    from ctc_crf import DataError as DE, NGramModel, SymbolTable, build_decoding_graph
    vocab = SymbolTable(["<eps>", "<s>", "</s>"])
    empty = NGramModel(1, vocab, {})
    with pytest.raises(DE):
        build_decoding_graph(ab2, empty)


@pytest.mark.parametrize("weight", [1.0, 0.0, -1.0])
def test_epsilon_cycle_is_data_error_not_a_hang(ab2, time_limit, weight):
    # at +1 per arc each turn around 0 -> 1 -> 0 raises both scores, so an
    # epsilon closure relaxed until no score improves never ends; a cycle of
    # any weight is rejected, as no decoding graph build-graphs writes has one
    g = machine(TROPICAL, ab2.pi_symbol_table(), ab2.label_symbol_table(), 2,
                0, {0: 0.0},
                [(0, EPS, EPS, weight, 1), (1, EPS, EPS, weight, 0),
                 (0, BLANK, EPS, 0.0, 0)])
    with time_limit(5), pytest.raises(
            DataError, match="epsilon cycle in the decoding graph through "
                             "state [01]$"):
        beam_decode(np.log(np.full((3, 3), 1 / 3)), g, BeamConfig())


def test_beam_config_validation():
    with pytest.raises(DataError):
        BeamConfig(width=0)
    with pytest.raises(DataError):
        BeamConfig(slack=-1.0)
    with pytest.raises(DataError):
        BeamConfig(slack=float("nan"))
    with pytest.raises(DataError):
        BeamConfig(blank_threshold=0.0)
    with pytest.raises(DataError):
        BeamConfig(blank_threshold=1.5)


@pytest.mark.parametrize("width", [float("nan"), 2.5, True])
def test_beam_config_rejects_a_width_that_is_not_an_integer(width):
    # a NaN width never pruned and 2.5 failed mid-search with a TypeError
    with pytest.raises(DataError, match="beam width must be an integer"):
        BeamConfig(width=width)


def test_beam_config_takes_a_numpy_integer_width(ab2, graph_ab):
    post = spiky_posterior([1, 0, 2], 3)
    got = beam_decode(post, graph_ab, BeamConfig(width=np.int64(2)))
    assert got == beam_decode(post, graph_ab, BeamConfig(width=2))


def test_skipped_gap_preserves_repeated_label(ab2, graph_ab):
    # skipped frames still traverse the blank arcs, so a repeated label
    # across an all-skipped gap survives
    post = spiky_posterior([1, 0, 0, 1], 3)
    plain = beam_decode(post, graph_ab, BeamConfig(width=256))
    skipping = beam_decode(post, graph_ab,
                           BeamConfig(width=256, blank_threshold=0.7))
    assert [graph_ab.osyms.name(w) for w in plain.words] == ["a", "a"]
    assert [graph_ab.osyms.name(w) for w in skipping.words] == ["a", "a"]
    assert skipping.frames_skipped == 2


def test_skipping_reduces_wall_clock(ab2, graph_ab, rng):
    # long, mostly-blank utterance with alternating labels: skipping must
    # preserve the words and be strictly faster
    symbols = [0] * 1000
    for k, i in enumerate(range(0, 1000, 25)):
        symbols[i] = 1 + k % 2
    post = spiky_posterior(symbols, 3)
    config_off = BeamConfig(width=256, blank_threshold=None)
    config_on = BeamConfig(width=256, blank_threshold=0.7)

    def best_of_three(config):
        times = []
        for _ in range(3):
            t0 = time.perf_counter()
            result = beam_decode(post, graph_ab, config)
            times.append(time.perf_counter() - t0)
        return result, min(times)

    off, t_off = best_of_three(config_off)
    on, t_on = best_of_three(config_on)
    assert on.frames_skipped > 0.5 * 1000
    assert on.words == off.words
    assert t_on < t_off


# ---------------------------------------------------------------------------
# error rates
# ---------------------------------------------------------------------------

def test_error_rate_identical_is_zero():
    stats = evaluate_error_rate([["a", "b"]], [["a", "b"]])
    assert stats.rate == 0.0
    assert stats.errors == 0


def test_error_rate_substitution():
    stats = evaluate_error_rate([["a", "b"]], [["a", "c"]])
    assert stats.substitutions == 1
    assert stats.deletions == 0
    assert stats.insertions == 0
    assert stats.rate == pytest.approx(0.5)


def test_error_rate_all_deletions():
    stats = evaluate_error_rate([[]], [["a", "b", "c"]])
    assert stats.deletions == 3
    assert stats.rate == pytest.approx(1.0)


def test_error_rate_insertions():
    stats = evaluate_error_rate([["a", "x", "b"]], [["a", "b"]])
    assert stats.insertions == 1
    assert stats.rate == pytest.approx(0.5)


def test_error_rate_corpus_accumulates():
    stats = evaluate_error_rate([["a"], ["b", "b"]], [["a"], ["b", "c"]])
    assert stats.ref_tokens == 3
    assert stats.errors == 1
    assert stats.rate == pytest.approx(1 / 3)


def test_error_rate_length_mismatch():
    with pytest.raises(DataError):
        evaluate_error_rate([["a"]], [["a"], ["b"]])


def test_error_rate_counts_consistent(rng):
    # S + D + I equals the plain edit distance
    def edit_distance(a, b):
        d = list(range(len(b) + 1))
        for i, x in enumerate(a, 1):
            prev, d[0] = d[0], i
            for j, y in enumerate(b, 1):
                prev, d[j] = d[j], min(d[j] + 1, d[j - 1] + 1,
                                       prev + (x != y))
        return d[-1]

    for _ in range(50):
        hyp = rng.integers(0, 3, size=rng.integers(0, 6)).tolist()
        ref = rng.integers(0, 3, size=rng.integers(0, 6)).tolist()
        stats = evaluate_error_rate([hyp], [ref])
        assert stats.errors == edit_distance(hyp, ref)


@settings(derandomize=True, deadline=None, max_examples=300)
@given(data=st.data())
def test_align_counts_equal_the_full_table(data):
    # one token kind makes every pair equal; two or three make heavy repeats
    kinds = data.draw(st.integers(1, 3))
    tokens = st.lists(st.integers(0, kinds - 1), max_size=12)
    hyp, ref = data.draw(tokens), data.draw(tokens)
    assert decoder._align_counts(hyp, ref) == frozen_align_counts(hyp, ref)
