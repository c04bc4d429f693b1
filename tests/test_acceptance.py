"""Acceptance suite: one test per criterion, each printing a verdict line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines as they complete.
"""
import itertools
import math
import time

import numpy as np
import pytest

from ctc_crf import (AcousticModel, Alphabet, BeamConfig, LayerSpec, LOG,
                     TrainConfig, beam_decode, build_ctc_topology,
                     build_decoding_graph, build_denominator_graph, crf_loss,
                     denominator_forward, emit_arpa, estimate,
                     evaluate_error_rate, flatten_denominator, greedy_decode,
                     lm_to_fst, map_b, numerator_forward, read_arpa,
                     score_sequence, train)
from ctc_crf.semiring import ZERO
from ctc_crf.toydata import generate_dataset
from ctc_crf.verify import random_log_softmax

from oracles import (brute_denominator, brute_numerator, exhaustive_best_path,
                     transducer_outputs)

BLANK_SKIP_THRESHOLD = 0.7   # decoder prunes frames above this blank probability
AUX_WEIGHT = 0.1             # default auxiliary alignment-loss weight


def _verdict(num, name, ok, detail=""):
    line = f"ACCEPTANCE {num:02d} {name}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f" ({detail})"
    print(line)
    assert ok, line


def _random_lm_case(rng, max_frames=5, max_labels=2):
    n_labels = int(rng.integers(1, max_labels + 1))
    alphabet = Alphabet([f"l{i}" for i in range(n_labels)])
    corpus = [[f"l{int(rng.integers(0, n_labels))}"
               for _ in range(int(rng.integers(1, 4)))]
              for _ in range(int(rng.integers(2, 6)))]
    lm = estimate(corpus, order=int(rng.integers(1, 3)), discount=0.5,
                  vocab=list(alphabet.labels))
    graph = lm_to_fst(lm, LOG)
    table = flatten_denominator(build_denominator_graph(alphabet, lm))
    frames = int(rng.integers(1, max_frames + 1))
    post = random_log_softmax(rng, frames, alphabet.num_state_symbols)
    n_ref = int(rng.integers(0, min(frames, 3) + 1))
    labels = [int(rng.integers(1, n_labels + 1)) for _ in range(n_ref)]
    log_pl = score_sequence(lm, [alphabet.state_name(l) for l in labels])
    return alphabet, lm, graph, table, post, labels, log_pl


def test_criterion_01_oracle_equivalence():
    rng = np.random.default_rng(101)
    started = time.perf_counter()
    worst = 0.0
    for _ in range(200):
        _, _, graph, table, post, labels, log_pl = _random_lm_case(rng)
        den = denominator_forward(post, table)
        den_ref = brute_denominator(post, graph)
        worst = max(worst, abs(den.score - den_ref))
        num = numerator_forward(post, labels, log_pl)
        num_ref = brute_numerator(post, labels, log_pl)
        if num_ref == ZERO:
            assert not num.feasible
        else:
            worst = max(worst, abs(num.score - num_ref))
    elapsed = time.perf_counter() - started
    _verdict(1, "oracle equivalence", worst <= 1e-9 and elapsed < 30.0,
             f"max |err| {worst:.2e}, {elapsed:.1f}s")


def test_criterion_02_gradient_correctness():
    rng = np.random.default_rng(202)
    started = time.perf_counter()
    step = 1e-4
    worst = 0.0
    for _ in range(100):
        _, _, _, table, post, labels, log_pl = _random_lm_case(rng, max_frames=4)
        base = crf_loss(post, labels, log_pl, table, alpha=AUX_WEIGHT)
        if base.degenerate:
            continue
        for t in range(post.shape[0]):
            for s in range(post.shape[1]):
                saved = post[t, s]
                post[t, s] = saved + step
                hi = crf_loss(post, labels, log_pl, table, alpha=AUX_WEIGHT).objective
                post[t, s] = saved - step
                lo = crf_loss(post, labels, log_pl, table, alpha=AUX_WEIGHT).objective
                post[t, s] = saved
                fd = (hi - lo) / (2 * step)
                an = base.grad[t, s]
                worst = max(worst, abs(fd - an) / max(1.0, abs(fd), abs(an)))
    node_ok = worst <= 1e-4

    # end-to-end through a model under 500 parameters
    alphabet = Alphabet(["a", "b"])
    lm = estimate([["a", "b"], ["b"], ["a"]], order=2, discount=0.5,
                  vocab=list(alphabet.labels))
    table = flatten_denominator(build_denominator_graph(alphabet, lm))
    model = AcousticModel(8, [LayerSpec("affine", 16), LayerSpec("tanh")],
                          alphabet.num_state_symbols, seed=7)
    assert model.num_params <= 500
    feats = rng.normal(size=(5, 8))
    labels = [1, 2]
    log_pl = score_sequence(lm, ["a", "b"])

    def objective():
        return crf_loss(model.forward(feats), labels, log_pl, table,
                        alpha=AUX_WEIGHT)

    base = objective()
    model.zero_grads()
    model.backward(base.grad)
    analytic = {n: g.copy() for n, g in model.gradients()}
    worst_e2e = 0.0
    for name, p in model.parameters():
        flat = p.reshape(-1)
        for i in range(flat.size):
            saved = flat[i]
            flat[i] = saved + step
            hi = objective().objective
            flat[i] = saved - step
            lo = objective().objective
            flat[i] = saved
            fd = (hi - lo) / (2 * step)
            an = analytic[name].reshape(-1)[i]
            worst_e2e = max(worst_e2e, abs(fd - an) / max(1.0, abs(fd), abs(an)))
    elapsed = time.perf_counter() - started
    _verdict(2, "gradient correctness",
             node_ok and worst_e2e <= 1e-3 and elapsed < 120.0,
             f"node {worst:.2e}, end-to-end {worst_e2e:.2e}, {elapsed:.0f}s")


def test_criterion_03_crf_bound():
    rng = np.random.default_rng(303)
    ok = True
    for _ in range(200):
        _, _, _, table, post, labels, log_pl = _random_lm_case(rng)
        res = crf_loss(post, labels, log_pl, table, alpha=0.0)
        if res.degenerate:
            continue
        ok &= res.numerator <= res.denominator + 1e-9
        ok &= res.objective <= 1e-9
    _verdict(3, "numerator bounded by denominator", ok)


def test_criterion_04_numerical_stability():
    rng = np.random.default_rng(404)
    labels10 = [f"p{i}" for i in range(10)]
    alphabet = Alphabet(labels10)
    corpus = [[labels10[int(rng.integers(0, 10))]
               for _ in range(int(rng.integers(2, 8)))] for _ in range(30)]
    lm = estimate(corpus, order=2, discount=0.5, vocab=labels10)
    table = flatten_denominator(build_denominator_graph(alphabet, lm))
    post = random_log_softmax(rng, 1000, alphabet.num_state_symbols)
    ref = [int(rng.integers(1, 11)) for _ in range(60)]
    log_pl = score_sequence(lm, [alphabet.state_name(l) for l in ref])
    res = crf_loss(post, ref, log_pl, table, alpha=AUX_WEIGHT)
    ok = (np.isfinite(res.objective) and np.isfinite(res.grad).all()
          and not np.isnan(res.grad).any())
    _verdict(4, "numerical stability at T=1000", bool(ok),
             f"objective {res.objective:.1f}")


def test_criterion_05_topology_correctness():
    ok = True
    for n_labels in (1, 2, 3):
        alphabet = Alphabet([f"l{i}" for i in range(n_labels)])
        topo = build_ctc_topology(alphabet)
        width = alphabet.num_state_symbols
        for length in range(0, 6):
            for pi in itertools.product(range(width), repeat=length):
                outs = transducer_outputs(topo, [s + 1 for s in pi])
                ok &= outs == {tuple(map_b(list(pi), alphabet))}
    _verdict(5, "topology realizes the collapsing map", ok)


@pytest.fixture(scope="module")
def toy_run():
    """Train the synthetic task once; several criteria inspect it."""
    train_set, heldout, alphabet = generate_dataset(200, 50, seed=7)
    corpus = [[alphabet.state_name(l) for l in labs] for _, labs in train_set]
    lm = estimate(corpus, order=2, discount=0.5, vocab=list(alphabet.labels))
    table = flatten_denominator(build_denominator_graph(alphabet, lm))
    log_pls = [score_sequence(lm, [alphabet.state_name(l) for l in labs])
               for _, labs in train_set]
    model = AcousticModel(8, [LayerSpec("affine", 32), LayerSpec("tanh")],
                          alphabet.num_state_symbols, seed=0)
    config = TrainConfig(alpha=AUX_WEIGHT, learning_rate=1e-2, epochs=50,
                         batch_size=8, seed=0)
    started = time.perf_counter()
    metrics = train(model, train_set, table, log_pls, config, alphabet,
                    heldout=heldout)
    elapsed = time.perf_counter() - started
    graph = build_decoding_graph(alphabet, lm)
    return dict(model=model, metrics=metrics, heldout=heldout,
                alphabet=alphabet, lm=lm, graph=graph, elapsed=elapsed,
                train_set=train_set, table=table, log_pls=log_pls)


def test_criterion_06_toy_end_to_end(toy_run):
    best = min(m.token_error for m in toy_run["metrics"])
    ok = best <= 0.05 and toy_run["elapsed"] < 600.0
    _verdict(6, "toy training reaches 5% token error",
             ok, f"best {best:.3f} in {toy_run['elapsed']:.0f}s / 50 epochs")


def test_criterion_07_decoder_exactness():
    rng = np.random.default_rng(707)
    ok = True
    graphs = []
    for labels, order in ((["a", "b"], 1), (["a", "b"], 2), (["a"], 1)):
        alphabet = Alphabet(labels)
        corpus = [[labels[int(rng.integers(0, len(labels)))]
                   for _ in range(int(rng.integers(1, 3)))] for _ in range(4)]
        wlm = estimate(corpus, order=order, discount=0.5, vocab=labels)
        graphs.append((alphabet, build_decoding_graph(alphabet, wlm)))
    lex_lm = estimate([["go"], ["on"], ["go", "on"]], order=1, discount=0.5)
    lex_alpha = Alphabet(["g", "o", "n"])
    graphs.append((lex_alpha, build_decoding_graph(
        lex_alpha, lex_lm, {"go": [["g", "o"]], "on": [["o", "n"]]})))
    checked = 0
    for alphabet, graph in graphs:
        assert graph.num_states <= 20, graph
        for frames in range(1, 7):
            for _ in range(4):
                post = random_log_softmax(rng, frames,
                                          alphabet.num_state_symbols)
                res = beam_decode(post, graph, BeamConfig(width=100_000))
                want_score, want_words = exhaustive_best_path(graph, post)
                if want_words is None:
                    ok &= res.score == ZERO
                else:
                    ok &= abs(res.score - want_score) <= 1e-9
                    ok &= tuple(res.words) == want_words
                checked += 1
    _verdict(7, "unlimited-beam decode is exact", ok, f"{checked} decodes")


def test_criterion_08_blank_skipping(toy_run):
    model = toy_run["model"]
    graph = toy_run["graph"]
    alphabet = toy_run["alphabet"]
    refs = [[alphabet.state_name(l) for l in labs]
            for _, labs in toy_run["heldout"]]
    plain_hyps, skip_hyps = [], []
    frames_total = 0
    frames_skipped = 0
    for feats, _ in toy_run["heldout"]:
        post = model.forward(feats)
        plain = beam_decode(post, graph, BeamConfig(width=64))
        skipping = beam_decode(
            post, graph, BeamConfig(width=64,
                                    blank_threshold=BLANK_SKIP_THRESHOLD))
        plain_hyps.append([graph.osyms.name(w) for w in plain.words])
        skip_hyps.append([graph.osyms.name(w) for w in skipping.words])
        frames_total += skipping.frames_processed + skipping.frames_skipped
        frames_skipped += skipping.frames_skipped
    rate_plain = evaluate_error_rate(plain_hyps, refs).rate
    rate_skip = evaluate_error_rate(skip_hyps, refs).rate
    skipped_pct = frames_skipped / frames_total

    # wall clock on a long synthetic utterance
    symbols = [0] * 1000
    for k, i in enumerate(range(0, 1000, 25)):
        symbols[i] = 1 + k % len(alphabet)
    peak, width = 0.97, alphabet.num_state_symbols
    post = np.full((1000, width), math.log((1 - peak) / (width - 1)))
    for t, s in enumerate(symbols):
        post[t, s] = math.log(peak)
    t0 = time.perf_counter()
    beam_decode(post, graph, BeamConfig(width=64))
    t_off = time.perf_counter() - t0
    t0 = time.perf_counter()
    long_skip = beam_decode(post, graph,
                            BeamConfig(width=64,
                                       blank_threshold=BLANK_SKIP_THRESHOLD))
    t_on = time.perf_counter() - t0

    ok = (rate_skip == rate_plain and skipped_pct > 0.10
          and long_skip.frames_skipped > 0 and t_on < t_off)
    _verdict(8, "blank skipping",
             ok, f"rate {rate_skip:.3f} vs {rate_plain:.3f}, "
                 f"{skipped_pct:.0%} skipped, {t_on * 1e3:.0f}ms vs "
                 f"{t_off * 1e3:.0f}ms on T=1000")


def test_criterion_09_arpa_round_trip(tmp_path):
    def round_trip(lm):
        path = tmp_path / "lm.arpa"
        path.write_text(emit_arpa(lm))
        return read_arpa(path)

    corpora = {
        1: [["a"], ["b", "a"], ["c"]],
        2: [["a", "b"], ["b", "c", "a"], ["c"]],
        3: [["a", "b", "c"], ["c", "b"], ["a", "a", "c"], ["b"]],
    }
    ok = True
    for order, corpus in corpora.items():
        first = round_trip(estimate(corpus, order=order, discount=0.5))
        second = round_trip(first)
        ok &= set(first.entries) == set(second.entries)
        for gram, (p, bow) in first.entries.items():
            p2, bow2 = second.entries[gram]
            ok &= abs(p - p2) <= 1e-6
            ok &= (bow is None) == (bow2 is None)
            if bow is not None:
                ok &= abs(bow - bow2) <= 1e-6
    _verdict(9, "arpa round trip", ok)


def test_criterion_10_determinism(toy_run, tmp_path):
    from ctc_crf.training import write_metrics

    def short_train(tag):
        model = AcousticModel(8, [LayerSpec("affine", 32), LayerSpec("tanh")],
                              toy_run["alphabet"].num_state_symbols, seed=0)
        config = TrainConfig(alpha=AUX_WEIGHT, learning_rate=1e-2, epochs=6,
                             batch_size=8, seed=0)
        metrics = train(model, toy_run["train_set"], toy_run["table"],
                        toy_run["log_pls"], config, toy_run["alphabet"],
                        heldout=toy_run["heldout"])
        path = tmp_path / f"metrics-{tag}.tsv"
        write_metrics(path, metrics)
        return path.read_bytes()

    metrics_equal = short_train("one") == short_train("two")

    def decode_all():
        out = []
        for feats, _ in toy_run["heldout"]:
            post = toy_run["model"].forward(feats)
            res = beam_decode(post, toy_run["graph"],
                              BeamConfig(width=64,
                                         blank_threshold=BLANK_SKIP_THRESHOLD))
            out.append((tuple(res.words), res.score))
        return out

    decode_equal = decode_all() == decode_all()
    _verdict(10, "determinism under fixed seed",
             metrics_equal and decode_equal)
