"""The brute-force enumerators behind ``ctc-crf gradcheck`` against the
independent test oracles."""
import itertools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ctc_crf import Alphabet
from ctc_crf.semiring import ZERO
from ctc_crf.verify import acceptor_sequence_mass, enumerate_paths, random_case

from oracles import acceptor_mass, brute_denominator, brute_numerator


def _close(got, want):
    return got == want == ZERO or got == pytest.approx(want, abs=1e-12)


@settings(derandomize=True, deadline=None, max_examples=100)
@given(st.integers(0, 2**32 - 1))
def test_enumerators_match_the_oracles(seed):
    case = random_case(np.random.default_rng(seed))
    labels = range(1, len(case.alphabet) + 1)
    for length in range(4):
        for seq in itertools.product(labels, repeat=length):
            assert _close(acceptor_sequence_mass(case.graph, seq),
                          acceptor_mass(case.graph, list(seq))), seq

    post, reference = case.posterior, tuple(case.labels)
    numerator = enumerate_paths(
        post, case.alphabet,
        lambda seq: case.log_pl if seq == reference else ZERO)
    assert _close(numerator, brute_numerator(post, case.labels, case.log_pl))
    denominator = enumerate_paths(
        post, case.alphabet,
        lambda seq: acceptor_sequence_mass(case.graph, seq))
    assert _close(denominator, brute_denominator(post, case.graph))


def test_enumeration_asks_the_mass_once_per_label_sequence():
    # the 8 sequences of three frames over blank and one label collapse
    # to three label sequences
    asked = []

    def mass(seq):
        asked.append(seq)
        return 0.0

    post = np.log(np.full((3, 2), 0.5))
    assert enumerate_paths(post, Alphabet(["a"]), mass) == \
        pytest.approx(0.0, abs=1e-12)
    assert sorted(asked) == [(), (1,), (1, 1)]
