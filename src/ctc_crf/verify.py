"""Self-checks against brute-force enumeration and finite differences.

Everything here scores paths by direct enumeration over the raw machines
(never through composition, flattening, or the forward-backward recursions),
so agreement is meaningful evidence that the fast paths are right.  The
enumeration reads a machine through its arc columns: a state's arcs are the
rows its ``indptr`` entries span.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import DataError, _check_count
from .lm import estimate, lm_to_fst, score_sequence
from .loss import (DenominatorTable, crf_loss, denominator_forward,
                   flatten_denominator, numerator_forward)
from .semiring import LOG, ZERO, logsumexp
from .symbols import Alphabet
from .wfst import EPS, Wfst, build_ctc_topology, compose, map_b


def acceptor_sequence_mass(g: Wfst, seq: Sequence[int]) -> float:
    """Log path mass of an acceptor for one exact symbol sequence, epsilon
    arcs included, by exhaustive path recursion."""
    indptr = g.indptr.tolist()
    ilabel, weight, dst = g.ilabel.tolist(), g.weight.tolist(), g.dst.tolist()
    weights: list[float] = []
    eps_budget = g.num_states + 1

    def walk(state: int, pos: int, budget: int, acc: float):
        if pos == len(seq):
            f = g.final_weight(state)
            if f != ZERO:
                weights.append(acc + f)
        for e in range(indptr[state], indptr[state + 1]):
            if ilabel[e] == EPS:
                if budget > 0:
                    walk(dst[e], pos, budget - 1, acc + weight[e])
            elif pos < len(seq) and ilabel[e] == seq[pos]:
                walk(dst[e], pos + 1, eps_budget, acc + weight[e])

    if g.start is not None:
        walk(g.start, 0, eps_budget, 0.0)
    return logsumexp(weights) if weights else ZERO


def enumerate_paths(post: np.ndarray, alphabet: Alphabet,
                    mass: Callable[[tuple[int, ...]], float]) -> float:
    """Log sum over all state sequences of the node potentials plus
    ``mass`` of the label sequence they collapse to, which is asked once
    per label sequence."""
    t_frames, width = post.shape
    mass_cache: dict[tuple[int, ...], float] = {}
    terms = []
    for pi in itertools.product(range(width), repeat=t_frames):
        collapsed = tuple(map_b(pi, alphabet))
        m = mass_cache.get(collapsed)
        if m is None:
            m = mass_cache[collapsed] = mass(collapsed)
        if m != ZERO:
            terms.append(m + sum(post[t, s] for t, s in enumerate(pi)))
    return logsumexp(terms) if terms else ZERO


@dataclass
class RandomCase:
    alphabet: Alphabet
    graph: Wfst
    table: DenominatorTable
    posterior: np.ndarray
    labels: list[int]
    log_pl: float


def random_log_softmax(rng, frames: int, width: int) -> np.ndarray:
    logits = rng.normal(0.0, 2.0, size=(frames, width))
    return logits - np.log(np.exp(logits).sum(axis=1, keepdims=True))


def random_case(rng, max_frames: int = 5) -> RandomCase:
    n_labels = int(rng.integers(1, 3))
    alphabet = Alphabet([f"l{i}" for i in range(n_labels)])
    order = int(rng.integers(1, 3))
    corpus = []
    for _ in range(int(rng.integers(2, 6))):
        length = int(rng.integers(1, 4))
        corpus.append([f"l{int(rng.integers(0, n_labels))}" for _ in range(length)])
    lm = estimate(corpus, order=order, discount=0.5, vocab=list(alphabet.labels))
    graph = lm_to_fst(lm, LOG)
    table = flatten_denominator(compose(build_ctc_topology(alphabet), graph))

    frames = int(rng.integers(1, max_frames + 1))
    post = random_log_softmax(rng, frames, alphabet.num_state_symbols)
    ref_len = int(rng.integers(0, min(frames, 3) + 1))
    labels = [int(rng.integers(1, n_labels + 1)) for _ in range(ref_len)]
    names = [alphabet.state_name(l) for l in labels]
    log_pl = score_sequence(lm, names)
    return RandomCase(alphabet, graph, table, post, labels, log_pl)


def check_settings(trials: int, tol: float, what: str) -> None:
    """Raise a DataError unless there is a trial to run and ``tol`` is a
    bound that an error can pass: an integer count >= 1 and a finite
    tolerance >= 0.  ``what`` names the check: "oracle" or "gradient"."""
    _check_count(f"{what} trials", trials)
    if not 0 <= tol < math.inf:   # NaN fails too
        raise DataError(f"{what} tolerance must be finite and >= 0, "
                        f"not {tol!r}")


def check_oracle_equivalence(trials: int, seed: int = 0,
                             tol: float = 1e-9) -> tuple[float, int]:
    """Max absolute score error and failure count over randomized trials."""
    check_settings(trials, tol, "oracle")
    rng = np.random.default_rng(seed)
    worst = 0.0
    failures = 0
    for _ in range(trials):
        case = random_case(rng)
        den = denominator_forward(case.posterior, case.table)
        den_ref = enumerate_paths(
            case.posterior, case.alphabet,
            lambda seq: acceptor_sequence_mass(case.graph, seq))
        num = numerator_forward(case.posterior, case.labels, case.log_pl)
        reference = tuple(case.labels)
        num_ref = enumerate_paths(
            case.posterior, case.alphabet,
            lambda seq: case.log_pl if seq == reference else ZERO)
        for got, want in ((den.score, den_ref), (num.score, num_ref)):
            if got == ZERO and want == ZERO:
                continue
            err = abs(got - want)
            worst = max(worst, err)
            if not err <= tol:
                failures += 1
    return worst, failures


def check_gradients(trials: int, seed: int = 0, tol: float = 1e-4,
                    alpha: float = 0.0) -> tuple[float, int]:
    """Max relative error of the analytic gradient against central finite
    differences of step 1e-4, over randomized trials."""
    check_settings(trials, tol, "gradient")
    step = 1e-4
    rng = np.random.default_rng(seed)
    worst = 0.0
    failures = 0
    for _ in range(trials):
        case = random_case(rng, max_frames=4)
        base = crf_loss(case.posterior, case.labels, case.log_pl, case.table,
                        alpha=alpha)
        if base.degenerate:
            continue
        frames, width = case.posterior.shape
        for t in range(frames):
            for s in range(width):
                bumped = case.posterior.copy()
                bumped[t, s] += step
                hi = crf_loss(bumped, case.labels, case.log_pl, case.table,
                              alpha=alpha).objective
                bumped[t, s] -= 2 * step
                lo = crf_loss(bumped, case.labels, case.log_pl, case.table,
                              alpha=alpha).objective
                fd = (hi - lo) / (2 * step)
                an = base.grad[t, s]
                err = abs(fd - an) / max(1.0, abs(fd), abs(an))
                worst = max(worst, err)
                if not err <= tol:
                    failures += 1
    return worst, failures
