"""The benchmark's workloads: seeded inputs, the program's set-up, one
closed-loop call into the library, and the checks on what it returned.

Every workload is single-process and closed-loop: the next call starts when
the previous one returns.  An op is one utterance trained (once per epoch)
or decoded; it fails on an exception or on a failed output check.
"""
from __future__ import annotations

import math
import sys
import time
import traceback
from dataclasses import dataclass

import numpy as np

from ctc_crf import decoder, lm, loss, model, training, wfst
from ctc_crf.symbols import Alphabet
from ctc_crf.toydata import generate_dataset, generate_utterance

import reference

AUX_WEIGHT = 0.1            # the command line's default
LEARNING_RATE = 1e-2
BEAM = decoder.BeamConfig(width=64, blank_threshold=0.7)
OBJECTIVE_RTOL = 1e-6       # program against reference objective
SCORE_RTOL = 1e-9           # program against reference decode score
LARGE_ALPHABET = Alphabet([f"p{i:02d}" for i in range(30)])
LARGE_FEATURES = LARGE_ALPHABET.num_state_symbols
# The large LM corpus does not follow --seed: every run searches and
# normalises over the same graph, so the seed varies the utterances only and
# run-to-run spread does not mix in graph-to-graph spread.
LARGE_CORPUS_SEED = 0


@dataclass
class Call:
    ops: int
    frames: int
    seconds: float
    failed: int


def _timed(fn):
    """(result, seconds); the result is None when the library raised."""
    started = time.perf_counter()
    try:
        result = fn()
    except Exception:  # the loop goes on; the call's ops count as failed
        traceback.print_exc(file=sys.stderr)
        result = None
    return result, time.perf_counter() - started


def _names(alphabet, labels):
    return [alphabet.state_name(lab) for lab in labels]


def _train_config(epochs, batch_size, seed):
    return training.TrainConfig(alpha=AUX_WEIGHT, learning_rate=LEARNING_RATE,
                                epochs=epochs, batch_size=batch_size, seed=seed)


def _metrics_key(metrics):
    return [(m.epoch, m.objective, m.token_error, m.degenerate) for m in metrics]


def train_metrics_ok(metrics, epochs: int, first=None) -> bool:
    """Objectives finite and at most 0 (the CRF bound); a repeated call
    on the same job must reproduce the first call bit for bit."""
    if metrics is None or len(metrics) != epochs:
        return False
    if not all(math.isfinite(m.objective) and m.objective <= 0.0
               for m in metrics):
        return False
    if first is None:
        return True
    return all(a[:2] == b[:2] and a[3] == b[3]
               and (a[2] == b[2] or (math.isnan(a[2]) and math.isnan(b[2])))
               for a, b in zip(_metrics_key(metrics), first))


def reference_objective(mdl, data, log_pls, graph) -> float:
    """Mean frame-normalized objective of ``data`` under the model's current
    parameters, computed by the reference."""
    values = [reference.objective(mdl.forward(feats), labels, lp, graph,
                                  AUX_WEIGHT) / len(feats)
              for (feats, labels), lp in zip(data, log_pls)]
    return float(np.sum(values) / len(values))


def objective_matches(got: float, want: float) -> bool:
    return abs(got - want) <= OBJECTIVE_RTOL * max(1.0, abs(want))


def decode_ok(result, frames: int, num_labels: int) -> bool:
    return (result is not None and math.isfinite(result.score)
            and result.frames_processed + result.frames_skipped == frames
            and all(1 <= w <= num_labels for w in result.words))


def decode_matches(result, want_words, want_score) -> bool:
    return (list(result.words) == list(want_words)
            and abs(result.score - want_score)
            <= SCORE_RTOL * max(1.0, abs(want_score)))


def greedy_error(mdl, data, alphabet) -> tuple[int, int]:
    hyps = [decoder.greedy_decode(mdl.forward(f), alphabet) for f, _ in data]
    out = decoder.evaluate_error_rate(hyps, [labels for _, labels in data])
    return out.errors, out.ref_tokens


def _den_setup(alphabet, corpus, order, train_set):
    """LM estimation, denominator graph, flattening and the cached log p(l)."""
    den_lm = lm.estimate([_names(alphabet, s) for s in corpus], order=order,
                         discount=0.5, vocab=list(alphabet.labels))
    den_graph = wfst.build_denominator_graph(alphabet, den_lm)
    table = loss.flatten_denominator(den_graph)
    log_pls = [lm.score_sequence(den_lm, _names(alphabet, labels))
               for _, labels in train_set]
    return den_graph, table, log_pls


def _large_corpus():
    """1000 label sequences of 2-6 labels from the utterance generator."""
    rng = np.random.default_rng(LARGE_CORPUS_SEED)
    return [generate_utterance(rng, LARGE_ALPHABET, LARGE_FEATURES)[1]
            for _ in range(1000)]


def _large_utterance(rng, min_labels, max_labels):
    feats, labels, _ = generate_utterance(rng, LARGE_ALPHABET, LARGE_FEATURES,
                                          min_labels=min_labels,
                                          max_labels=max_labels)
    return feats, labels


def _sizes(den_graph=None, table=None, tlg=None) -> dict[str, int]:
    return {
        "wfst.den_graph.states": den_graph.num_states if den_graph else 0,
        "wfst.den_graph.arcs": den_graph.num_arcs if den_graph else 0,
        "loss.den_table.states": table.num_states if table else 0,
        "loss.den_table.transitions": table.num_transitions if table else 0,
        "wfst.tlg.states": tlg.num_states if tlg else 0,
        "wfst.tlg.arcs": tlg.num_arcs if tlg else 0,
        "wfst.tlg.eps_arcs": sum(1 for q in tlg.states() for a in tlg.arcs(q)
                                 if a.ilabel == 0) if tlg else 0,
    }


@dataclass
class Counters:
    """Per-layer counts a workload's calls add up for the traced run."""
    trained_utts: int = 0
    degenerate: int = 0
    decoded_frames: int = 0
    skipped_frames: int = 0


# ---------------------------------------------------------------------------
# train-toy
# ---------------------------------------------------------------------------

@dataclass
class ToyJob:
    train_set: list
    heldout: list
    evalset: list
    alphabet: Alphabet
    den_graph: object = None
    table: object = None
    log_pls: list = None
    model: object = None
    init: list = None
    first: list = None      # metrics of the job's first call
    trained: list = None    # parameters after the job's first call


@dataclass
class ToyState(Counters):
    jobs: list = None


class TrainToy:
    name = "train-toy"
    jobs = 8          # independent toy jobs; the token error pools them
    epochs = 2        # epochs per call, each call from the initial model
    eval_utts = 500   # extra held-out utterances per job for the pooled error

    def inputs(self, seed):
        jobs = []
        for k in range(self.jobs):
            train_set, rest, alphabet = generate_dataset(
                200, 50 + self.eval_utts, seed=seed * self.jobs + k)
            jobs.append(ToyJob(train_set, rest[:50], rest[50:], alphabet))
        return jobs

    def setup(self, inputs):
        jobs = []
        for k, job in enumerate(inputs):
            corpus = [labels for _, labels in job.train_set]
            den_graph, table, log_pls = _den_setup(job.alphabet, corpus, 2,
                                                   job.train_set)
            mdl = model.AcousticModel(
                8, [model.LayerSpec("affine", 32), model.LayerSpec("tanh")],
                job.alphabet.num_state_symbols, seed=k)
            jobs.append(ToyJob(job.train_set, job.heldout, job.evalset,
                               job.alphabet, den_graph, table, log_pls, mdl,
                               mdl.state_copy()))
        return ToyState(jobs=jobs)

    def call_id(self, i):
        return f"job{i % self.jobs}"

    def register(self, tracer, state):
        for k, job in enumerate(state.jobs):
            for split, data in (("train", job.train_set), ("dev", job.heldout)):
                for i, (feats, labels) in enumerate(data):
                    tracer.register(f"job{k}-{split}-{i:03d}", feats, labels)

    def call(self, state, i) -> Call:
        k = i % self.jobs
        job = state.jobs[k]
        ops = self.epochs * len(job.train_set)
        job.model.restore_state(job.init)
        metrics, seconds = _timed(lambda: training.train(
            job.model, job.train_set, job.table, job.log_pls,
            _train_config(self.epochs, 8, k), job.alphabet,
            heldout=job.heldout))
        if metrics is None:
            return Call(ops, 0, seconds, ops)
        ok = train_metrics_ok(metrics, self.epochs, job.first)
        if job.first is None:
            job.first = _metrics_key(metrics)
            job.trained = job.model.state_copy()
        state.trained_utts += ops
        state.degenerate += sum(m.degenerate for m in metrics)
        frames = self.epochs * sum(len(f) for f, _ in job.train_set)
        return Call(ops, frames, seconds, 0 if ok else ops)

    def finish(self, state) -> tuple[float, bool]:
        """Pooled held-out token error after each job's first call, and
        whether one training step matches the reference objective."""
        errors = tokens = 0
        for job in state.jobs:
            if job.trained is None:
                continue
            job.model.restore_state(job.trained)
            e, n = greedy_error(job.model, job.evalset, job.alphabet)
            errors, tokens = errors + e, tokens + n
        job = state.jobs[0]
        batch, log_pls = job.train_set[:8], job.log_pls[:8]
        job.model.restore_state(job.init)
        got = training.train(job.model, batch, job.table, log_pls,
                             _train_config(1, 8, 0), job.alphabet)
        job.model.restore_state(job.init)
        want = reference_objective(job.model, batch, log_pls,
                                   reference.GraphArrays(job.den_graph))
        ok = train_metrics_ok(got, 1) and objective_matches(got[0].objective, want)
        return errors / max(tokens, 1), ok

    def sizes(self, state):
        return _sizes(state.jobs[0].den_graph, state.jobs[0].table)

    def num_params(self, state):
        return state.jobs[0].model.num_params


# ---------------------------------------------------------------------------
# train-large
# ---------------------------------------------------------------------------

@dataclass
class LargeState(Counters):
    batches: list = None
    log_pls: list = None
    heldout: list = None
    den_graph: object = None
    table: object = None
    model: object = None
    init: list = None
    first: list = None      # metrics of each batch's first call
    trained: list = None    # parameters after the first call of batch 0


class TrainLarge:
    name = "train-large"
    pool = 8          # utterances with 67..333 labels, about 200..1000 frames
    heldout_utts = 20

    def inputs(self, seed):
        rng = np.random.default_rng(seed)
        corpus = _large_corpus()
        counts = np.linspace(67, 333, self.pool).round().astype(int)
        utts = [_large_utterance(rng, int(n), int(n)) for n in counts]
        # each batch pairs a long utterance with a short one, so batches
        # carry similar frame counts and mixed lengths; the first batch
        # holds the longest utterance
        batches = [[utts[-1 - j], utts[j]] for j in range(self.pool // 2)]
        heldout = [_large_utterance(rng, 20, 60)
                   for _ in range(self.heldout_utts)]
        return corpus, batches, heldout

    def setup(self, inputs):
        corpus, batches, heldout = inputs
        flat = [u for batch in batches for u in batch]
        den_graph, table, log_pls = _den_setup(LARGE_ALPHABET, corpus, 3, flat)
        mdl = model.AcousticModel(
            LARGE_FEATURES, [model.LayerSpec("recurrent", 64, True)],
            LARGE_ALPHABET.num_state_symbols, seed=0)
        return LargeState(batches=batches,
                          log_pls=[log_pls[2 * b:2 * b + 2]
                                   for b in range(len(batches))],
                          heldout=heldout, den_graph=den_graph, table=table,
                          model=mdl, init=mdl.state_copy(),
                          first=[None] * len(batches))

    def call_id(self, i):
        return f"batch{i % (self.pool // 2)}"

    def register(self, tracer, state):
        for b, batch in enumerate(state.batches):
            for j, (feats, labels) in enumerate(batch):
                tracer.register(f"batch{b}-{j}", feats, labels)

    def call(self, state, i) -> Call:
        b = i % len(state.batches)
        batch = state.batches[b]
        ops = len(batch)
        state.model.restore_state(state.init)
        metrics, seconds = _timed(lambda: training.train(
            state.model, batch, state.table, state.log_pls[b],
            _train_config(1, len(batch), 0), LARGE_ALPHABET))
        if metrics is None:
            return Call(ops, 0, seconds, ops)
        ok = train_metrics_ok(metrics, 1, state.first[b])
        if state.first[b] is None:
            state.first[b] = _metrics_key(metrics)
            if b == 0:
                state.trained = state.model.state_copy()
        state.trained_utts += ops
        state.degenerate += sum(m.degenerate for m in metrics)
        return Call(ops, sum(len(f) for f, _ in batch), seconds, 0 if ok else ops)

    def finish(self, state) -> tuple[float, bool]:
        """Held-out token error after the first step, and whether that
        step's objective matches the reference."""
        if state.trained is None:
            return float("nan"), False
        state.model.restore_state(state.trained)
        errors, tokens = greedy_error(state.model, state.heldout, LARGE_ALPHABET)
        state.model.restore_state(state.init)
        want = reference_objective(state.model, state.batches[0],
                                   state.log_pls[0],
                                   reference.GraphArrays(state.den_graph))
        _, got, _, _ = state.first[0][0]  # batch 0, epoch 1
        return errors / max(tokens, 1), objective_matches(got, want)

    def sizes(self, state):
        return _sizes(state.den_graph, state.table)

    def num_params(self, state):
        return state.model.num_params


# ---------------------------------------------------------------------------
# decode-large
# ---------------------------------------------------------------------------

@dataclass
class DecodeState(Counters):
    tlg: object = None
    model: object = None
    stream: object = None
    results: list = None    # (call index, DecodeResult, reference labels)


class UtteranceStream:
    """Utterances of 20-60 labels, generated on first use and kept, so a
    replay sees the same inputs."""

    def __init__(self, seed):
        self._rng = np.random.default_rng(seed)
        self.utts = []

    def __getitem__(self, i):
        while len(self.utts) <= i:
            self.utts.append(_large_utterance(self._rng, 20, 60))
        return self.utts[i]


class DecodeLarge:
    name = "decode-large"
    checked = 3       # utterances decoded again by the reference

    def inputs(self, seed):
        return _large_corpus(), UtteranceStream(seed)

    def setup(self, inputs):
        corpus, stream = inputs
        word_lm = lm.estimate([_names(LARGE_ALPHABET, s) for s in corpus],
                              order=3, discount=0.5,
                              vocab=list(LARGE_ALPHABET.labels))
        tlg = wfst.build_decoding_graph(LARGE_ALPHABET, word_lm)
        # output weights 8*I on noisy one-hot features give peaky,
        # blank-heavy posteriors without training
        mdl = model.AcousticModel(LARGE_FEATURES, [], LARGE_FEATURES, seed=0)
        dict(mdl.parameters())["out.W"][...] = 8.0 * np.eye(LARGE_FEATURES)
        return DecodeState(tlg=tlg, model=mdl, stream=stream, results=[])

    def call_id(self, i):
        return f"utt{i:05d}"

    def register(self, tracer, state):
        pass  # one utterance per call: the call's span carries its id

    def call(self, state, i) -> Call:
        feats, labels = state.stream[i]
        result, seconds = _timed(lambda: decoder.beam_decode(
            state.model.forward(feats), state.tlg, BEAM))
        ok = decode_ok(result, len(feats), len(LARGE_ALPHABET))
        if ok:
            state.results.append((i, result, labels))
            state.decoded_frames += len(feats)
            state.skipped_frames += result.frames_skipped
        return Call(1, len(feats) if result is not None else 0, seconds,
                    0 if ok else 1)

    def finish(self, state) -> tuple[float, bool]:
        """Token error against the generator's labels, and whether the
        first decodes match the reference search."""
        if not state.results:
            return float("nan"), False
        err = decoder.evaluate_error_rate([r.words for _, r, _ in state.results],
                                          [labels for _, _, labels in state.results])
        ok = True
        for i, result, _ in state.results[:self.checked]:
            feats, _ = state.stream[i]
            words, score = reference.beam_decode(
                state.model.forward(feats), state.tlg, BEAM.width,
                BEAM.blank_threshold)
            ok &= decode_matches(result, words, score)
        return err.rate, ok

    def sizes(self, state):
        return _sizes(tlg=state.tlg)

    def num_params(self, state):
        return state.model.num_params


WORKLOADS = {w.name: w for w in (TrainToy(), TrainLarge(), DecodeLarge())}
