import math
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ctc_crf import (DataError, LOG, NGramModel, SymbolTable, estimate,
                     emit_arpa, lm_to_fst, read_arpa, score_sequence)
from ctc_crf.lm import BOS, EOS, LN10
from ctc_crf.semiring import ZERO

from oracles import acceptor_mass


# ---------------------------------------------------------------------------
# estimation
# ---------------------------------------------------------------------------

def test_unigram_hand_computed():
    # corpus a, a, b; d = 0.5: counts a:2 b:1 </s>:3, N=6, D=3, |V|=3
    lm = estimate([["a"], ["a"], ["b"]], order=1, discount=0.5)
    p = {w: 10 ** lm.conditional_log10((), lm.vocab.find(w))
         for w in ("a", "b", EOS)}
    assert p["a"] == pytest.approx(1.5 / 6 + 0.25 / 3)     # 1/3
    assert p["b"] == pytest.approx(0.5 / 6 + 0.25 / 3)     # 1/6
    assert p[EOS] == pytest.approx(2.5 / 6 + 0.25 / 3)     # 1/2
    assert p["a"] > p["b"] > 0
    assert sum(p.values()) == pytest.approx(1.0, abs=1e-12)


def test_bigram_count_dominates():
    lm = estimate([["a", "b"]], order=2, discount=0.5)
    p_b_given_a = 10 ** lm.conditional_log10(lm.ids(["a"]), lm.vocab.find("b"))
    p_b = 10 ** lm.conditional_log10((), lm.vocab.find("b"))
    assert p_b_given_a == pytest.approx(2 / 3)
    assert p_b == pytest.approx(1 / 3)
    assert p_b_given_a > p_b


def test_single_symbol_corpus():
    lm = estimate([["a"]], order=1, discount=0.5)
    assert lm.event_symbols() == ["a"]
    p_a = 10 ** lm.conditional_log10((), lm.vocab.find("a"))
    p_eos = 10 ** lm.conditional_log10((), lm.eos)
    assert p_a == pytest.approx(0.5)
    assert p_eos == pytest.approx(0.5)


def test_estimate_rejects_bad_inputs():
    with pytest.raises(DataError):
        estimate([], order=1)
    with pytest.raises(DataError):
        estimate([["a"]], order=0)
    with pytest.raises(DataError):
        estimate([["a"]], order=1, discount=1.5)
    with pytest.raises(DataError):
        estimate([["a", "x"]], order=1, vocab=["a"])


@pytest.mark.parametrize("order", [2.5, True, 0, "2"])
def test_order_that_is_not_a_count_is_data_error(order):
    # 2.5 died in range() with a TypeError, and True was taken as order 1
    message = f"n-gram order must be an integer >= 1, not {order!r}"
    with pytest.raises(DataError, match=re.escape(message)):
        estimate([["a"]], order=order)
    vocab = SymbolTable(["<eps>", "a", BOS, EOS])
    with pytest.raises(DataError, match=re.escape(message)):
        NGramModel(order, vocab, {})


def test_string_sentences_count_as_their_tokens():
    assert estimate(["a b", "b"], order=2) == estimate([["a", "b"], ["b"]],
                                                       order=2)


def test_closed_vocab_gives_mass_to_unseen():
    lm = estimate([["a"]], order=1, discount=0.5, vocab=["a", "b"])
    p_b = 10 ** lm.conditional_log10((), lm.vocab.find("b"))
    assert p_b > 0


corpus_strategy = st.lists(
    st.lists(st.sampled_from(["a", "b", "c"]), min_size=0, max_size=5),
    min_size=1, max_size=8)


@settings(max_examples=40, deadline=None)
@given(corpus=corpus_strategy, order=st.integers(1, 3))
def test_normalization_fuzz(corpus, order):
    lm = estimate(corpus, order=order, discount=0.5, vocab=["a", "b", "c"])
    events = [lm.vocab.find(w) for w in ("a", "b", "c")] + [lm.eos]
    contexts = {()} | {g for g in lm.entries
                       if len(g) < order and g[-1] != lm.eos}
    for ctx in contexts:
        total = sum(10 ** lm.conditional_log10(ctx, w) for w in events)
        assert total == pytest.approx(1.0, abs=1e-6), ctx


def test_count_monotonicity():
    base = [["a", "b"], ["b"]]
    lm1 = estimate(base, order=2, discount=0.5, vocab=["a", "b"])
    lm2 = estimate(base + [["a", "b"]], order=2, discount=0.5, vocab=["a", "b"])
    gram = lm2.ids(["a", "b"])
    # an added sentence containing the bigram never lowers its probability
    assert lm2.entries[gram][0] >= lm1.entries[gram][0] - 1e-12


# ---------------------------------------------------------------------------
# scoring
# ---------------------------------------------------------------------------

def test_score_empty_sequence_is_boundary_only():
    lm = estimate([["a"], ["a"]], order=1, discount=0.5)
    want = lm.conditional_log10((), lm.eos) * LN10
    assert score_sequence(lm, []) == pytest.approx(want)


def test_score_single_label_hand_computed():
    lm = estimate([["a"], ["a"], ["b"]], order=1, discount=0.5)
    assert score_sequence(lm, ["a"]) == pytest.approx(math.log(1 / 3 * 1 / 2))


def test_score_deterministic():
    lm = estimate([["a", "b"], ["b", "a", "a"]], order=2, discount=0.5)
    first = score_sequence(lm, ["a", "b", "a"])
    assert score_sequence(lm, ["a", "b", "a"]) == first


def test_score_oov_rejected():
    lm = estimate([["a"]], order=1, discount=0.5)
    with pytest.raises(DataError):
        score_sequence(lm, ["z"])
    with pytest.raises(DataError):
        score_sequence(lm, [BOS])


# ---------------------------------------------------------------------------
# ARPA round-trip
# ---------------------------------------------------------------------------

MINIMAL_ARPA = """\\data\\
ngram 1=3

\\1-grams:
-0.30103\ta
-0.60206\tb
-0.47712\t</s>

\\end\\
"""


@pytest.fixture
def arpa(tmp_path):
    """Write ARPA text to a file and read it back with ``read_arpa``."""
    path = tmp_path / "lm.arpa"

    def read(text):
        path.write_text(text)
        return read_arpa(path)

    read.path = path
    return read


def test_parse_minimal_unigram(arpa):
    lm = arpa(MINIMAL_ARPA)
    assert lm.order == 1
    assert lm.entries[(lm.vocab.find("a"),)][0] == pytest.approx(-0.30103)
    assert lm.entries[(lm.vocab.find("b"),)][0] == pytest.approx(-0.60206)


def test_parse_declared_count_mismatch(arpa):
    bad = MINIMAL_ARPA.replace("ngram 1=3", "ngram 1=4")
    with pytest.raises(DataError, match="declares 4"):
        arpa(bad)


def test_parse_missing_header(arpa):
    with pytest.raises(DataError, match="data"):
        arpa("\\1-grams:\n-0.1 a\n\\end\\\n")


def test_parse_missing_end(arpa):
    with pytest.raises(DataError, match="end"):
        arpa(MINIMAL_ARPA.replace("\\end\\", ""))


# faults found only once the text has ended name the file, as a malformed
# line does, though no line is at fault: a missing \\end\\, no </s>, and a
# bigram over a symbol the unigrams lack
@pytest.mark.parametrize("text, message", [
    (MINIMAL_ARPA.replace("\\end\\", ""),
     "text ends before the \\end\\ marker"),
    (MINIMAL_ARPA.replace("</s>", "c"), "model lacks '</s>'"),
    (MINIMAL_ARPA.replace("ngram 1=3", "ngram 1=3\nngram 2=1").replace(
        "\\end\\", "\\2-grams:\n-0.1\ta z\n\n\\end\\"),
     "2-gram uses unknown symbol: ('a', 'z')"),
], ids=["no-end", "no-eos", "unknown-symbol"])
def test_read_arpa_names_the_file_of_an_end_of_text_fault(arpa, text,
                                                          message):
    with pytest.raises(DataError) as exc:
        arpa(text)
    assert str(exc.value) == f"{arpa.path}: {message}"


@pytest.mark.parametrize("line", ["nan\tb", "inf\tb", "-0.6\tb\tnan",
                                  "-0.6\tb\tinf"])
def test_parse_nan_or_positive_infinity_is_rejected(arpa, line):
    with pytest.raises(DataError, match="1-gram value .* is NaN or \\+inf"):
        arpa(MINIMAL_ARPA.replace("-0.60206\tb", line))


def test_parse_negative_infinity_is_log_zero(arpa):
    lm = arpa(MINIMAL_ARPA.replace("-0.60206\tb", "-inf\tb\t-inf"))
    assert lm.entries[(lm.vocab.find("b"),)] == (ZERO, ZERO)


def test_read_arpa_names_file_and_line(arpa):
    lines = MINIMAL_ARPA.splitlines()
    ln = lines.index("-0.60206\tb") + 1
    lines[ln - 1] = "-0.6x\tb"
    with pytest.raises(DataError, match=f"line {ln}:") as exc:
        arpa("\n".join(lines))
    assert str(exc.value).startswith(f"{arpa.path}: ")


def test_round_trip_identity_orders_1_to_3(arpa):
    corpora = {
        1: [["a"], ["b", "a"]],
        2: [["a", "b"], ["b", "a", "a"], ["b"]],
        3: [["a", "b", "c"], ["c", "b"], ["a", "a", "c"]],
    }
    for order, corpus in corpora.items():
        lm = estimate(corpus, order=order, discount=0.5)
        text = emit_arpa(lm)
        back = arpa(text)
        assert back.order == lm.order
        assert set(back.entries) == set(lm.entries)
        for gram, (p, bow) in lm.entries.items():
            p2, bow2 = back.entries[gram]
            assert p2 == pytest.approx(p, abs=1e-6)
            if bow is None:
                assert bow2 is None
            else:
                assert bow2 == pytest.approx(bow, abs=1e-6)
        # emit is canonical: a second round trip is byte-identical
        assert emit_arpa(back) == text


def test_hand_built_bigram_fixture_round_trip(arpa):
    text = """\\data\\
ngram 1=4
ngram 2=2

\\1-grams:
-0.5\ta\t-0.30103
-0.7\tb\t-0.1
-0.4\t</s>
-99.0\t<s>\t-0.05

\\2-grams:
-0.2\ta b
-0.3\tb </s>

\\end\\
"""
    lm = arpa(text)
    assert emit_arpa(arpa(emit_arpa(lm))) == emit_arpa(lm)
    a, b = lm.vocab.find("a"), lm.vocab.find("b")
    assert lm.entries[(a, b)][0] == pytest.approx(-0.2)
    assert lm.entries[(a,)][1] == pytest.approx(-0.30103)


# ---------------------------------------------------------------------------
# conversion to an acceptor
# ---------------------------------------------------------------------------

def test_unigram_fst_single_context_plus_start():
    lm = estimate([["a"], ["b"]], order=1, discount=0.5)
    fst = lm_to_fst(lm, LOG)
    assert fst.num_states == 2
    a, b = fst.isyms.find("a"), fst.isyms.find("b")
    got = acceptor_mass(fst, [a, b])
    assert got == pytest.approx(score_sequence(lm, ["a", "b"]), abs=1e-9)


def test_bigram_fst_verbatim_sequence_matches_score():
    lm = estimate([["a", "b", "a"]], order=2, discount=0.5)
    fst = lm_to_fst(lm, LOG)
    seq = [fst.isyms.find(w) for w in ("a", "b", "a")]
    # best single path equals the backoff-recursion score
    best = _best_path_mass(fst, seq)
    assert best == pytest.approx(score_sequence(lm, ["a", "b", "a"]), abs=1e-9)


def test_fst_mass_never_below_score(rng):
    corpus = [["a", "b"], ["b", "b", "a"], ["a"]]
    lm = estimate(corpus, order=2, discount=0.5)
    fst = lm_to_fst(lm, LOG)
    for _ in range(30):
        seq_names = [str(rng.choice(["a", "b"])) for _ in range(rng.integers(0, 4))]
        seq = [fst.isyms.find(w) for w in seq_names]
        mass = acceptor_mass(fst, seq)
        want = score_sequence(lm, seq_names)
        assert mass >= want - 1e-9


def test_empty_model_accepts_only_end():
    vocab = SymbolTable(["<eps>", "a", BOS, EOS])
    lm = NGramModel(1, vocab, {})
    fst = lm_to_fst(lm, LOG)
    assert acceptor_mass(fst, []) == pytest.approx(0.0)
    assert acceptor_mass(fst, [vocab.find("a")]) == ZERO


def _best_path_mass(g, seq):
    from ctc_crf.wfst import EPS

    best = [ZERO]
    budget = g.num_states + 1

    def visit(state, pos, left, acc):
        if pos == len(seq) and state in g.finals:
            best[0] = max(best[0], acc + g.finals[state])
        for arc in g.arcs(state):
            if arc.ilabel == EPS:
                if left > 0:
                    visit(arc.nextstate, pos, left - 1, acc + arc.weight)
            elif pos < len(seq) and arc.ilabel == seq[pos]:
                visit(arc.nextstate, pos + 1, budget, acc + arc.weight)

    visit(g.start, 0, budget, 0.0)
    return best[0]
