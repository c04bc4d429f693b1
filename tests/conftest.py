import signal
import sys
from contextlib import contextmanager
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).parent))

from ctc_crf import (Alphabet, build_decoding_graph, build_denominator_graph,
                     estimate, flatten_denominator)
from ctc_crf.toydata import generate_utterance


@pytest.fixture
def ab2():
    return Alphabet(["a", "b"])


@pytest.fixture
def ab1():
    return Alphabet(["a"])


@pytest.fixture
def unigram_ab(ab2):
    """Uniform-ish unigram over {a, b} from a balanced corpus."""
    return estimate([["a"], ["b"]], order=1, discount=0.5,
                    vocab=list(ab2.labels))


@pytest.fixture
def bigram_ab(ab2):
    return estimate([["a", "b"], ["b", "a"], ["a"]], order=2, discount=0.5,
                    vocab=list(ab2.labels))


@pytest.fixture
def den_table_ab(ab2, bigram_ab):
    return flatten_denominator(build_denominator_graph(ab2, bigram_ab))


@pytest.fixture
def time_limit():
    """A context manager that fails the test, instead of hanging the run,
    when its block is still running after a whole number of seconds.  The
    failure is not an ``Exception``, so no handler in the code under test
    catches it."""
    @contextmanager
    def limit(seconds: int):
        def expire(signum, frame):
            pytest.fail(f"still running after {seconds} s")

        previous = signal.signal(signal.SIGALRM, expire)
        signal.alarm(seconds)
        try:
            yield
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, previous)

    return limit


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


@pytest.fixture(scope="session")
def trigram_lm():
    """(alphabet, LM): 30 labels, a trigram from 1000 generated sentences,
    the benchmark's large recipe."""
    alphabet = Alphabet([f"p{i:02d}" for i in range(30)])
    rng = np.random.default_rng(0)
    corpus = [[alphabet.state_name(lab) for lab in generate_utterance(
        rng, alphabet, alphabet.num_state_symbols)[1]] for _ in range(1000)]
    lm = estimate(corpus, order=3, discount=0.5, vocab=list(alphabet.labels))
    return alphabet, lm


@pytest.fixture(scope="session")
def trigram_tlg(trigram_lm):
    """The decoding graph of the 30-label trigram: 2,954 states, 22,230
    arcs, 994 of them backoff epsilons."""
    return build_decoding_graph(*trigram_lm)
