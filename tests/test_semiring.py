import math

import pytest

from ctc_crf.semiring import ZERO, logsumexp


def test_logsumexp_empty_and_degenerate():
    assert logsumexp([]) == ZERO
    assert logsumexp([ZERO, ZERO]) == ZERO
    assert logsumexp([0.0, ZERO]) == pytest.approx(0.0)
    assert logsumexp([math.log(0.25)] * 4) == pytest.approx(0.0, abs=1e-12)
