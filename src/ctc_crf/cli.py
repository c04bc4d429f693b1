"""Command-line pipeline: prepare, lm-train, build-graphs, gradcheck, train,
decode, score.

Exit codes: 0 success, 1 usage, 2 data error, 3 numerical failure.
"""
from __future__ import annotations

import argparse
import logging
import multiprocessing
import sys
import time
from pathlib import Path

from . import dataio
from .decoder import BeamConfig, beam_decode, evaluate_error_rate
from .errors import DataError, NumericalError
from .lm import emit_arpa, estimate, read_arpa, score_sequence
from .loss import check_alpha, flatten_denominator
from .model import AcousticModel, LayerSpec
from .semiring import LOG, TROPICAL
from .symbols import Alphabet, SymbolTable
from .training import TrainConfig, train, write_metrics
from .wfst import (build_ctc_topology, build_decoding_graph,
                   build_denominator_graph, read_fst_text, write_fst_text)

log = logging.getLogger("ctc_crf")


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _apply_config(parser: argparse.ArgumentParser, path) -> None:
    """Flat ``key = value`` lines (``#`` starts a comment) become parser
    defaults, converted as the matching flag would convert them."""
    actions = {action.dest: action for action in parser._actions}

    def entry(line):
        line = line.split("#", 1)[0].strip()
        if not line:
            return None
        key, value = (part.strip() for part in line.split("=", 1))
        action = actions.get(key.replace("-", "_"))
        if action is None:
            return None
        if action.type is not None:
            return action.dest, action.type(value)
        if isinstance(action.const, bool) or isinstance(action.default, bool):
            return action.dest, value.lower() in ("1", "true", "yes")
        return action.dest, value

    parser.set_defaults(**dict(e for e in dataio.read_lines(path, entry) if e))


def _parse_layer_specs(spec: str) -> list[LayerSpec]:
    specs = []
    for token in spec.split(","):
        token = token.strip()
        if not token:
            continue
        kind, _, size = token.partition(":")
        if token == "tanh":
            specs.append(LayerSpec("tanh"))
        elif kind in ("affine", "rnn", "birnn") and size.isdecimal() \
                and int(size) > 0:
            specs.append(LayerSpec("affine" if kind == "affine" else "recurrent",
                                   int(size), bidirectional=kind == "birnn"))
        else:
            raise DataError(f"bad layer token {token!r}")
    return specs


def _require(path, what: str) -> Path:
    p = Path(path)
    if not p.exists():
        raise DataError(f"{what} not found: {p}")
    return p


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------

def cmd_prepare(args) -> int:
    alphabet = Alphabet.read(_require(args.alphabet, "alphabet file"))
    labels = dataio.read_labels_file(_require(args.labels, "labels file"))
    lm = read_arpa(_require(args.den_lm, "denominator LM"))
    feat_dir = _require(args.features_dir, "features directory")
    work = dataio.ensure_dir(args.work_dir)

    entries = []
    scores = {}
    for utt in sorted(labels):
        names = labels[utt]
        for name in names:
            if name not in alphabet.labels:
                raise DataError(f"utterance {utt}: label {name!r} not in alphabet")
        feat_path = feat_dir / f"{utt}.mat"
        if not feat_path.exists():
            raise DataError(f"utterance {utt}: missing features {feat_path}")
        feats = dataio.read_matrix(feat_path)
        if not len(feats):
            raise DataError(f"utterance {utt}: no frames in {feat_path}")
        if args.subsample != 1:
            feats = dataio.subsample_frames(feats, args.subsample)
            out_feats = dataio.ensure_dir(work / "feats") / f"{utt}.mat"
            dataio.write_matrix(out_feats, feats)
            feat_path = out_feats
        entries.append((utt, feats.shape[0], str(feat_path), names))
        try:
            scores[utt] = score_sequence(lm, names)
        except DataError as exc:
            raise DataError(f"utterance {utt}: {exc}") from None
    dataio.write_manifest(work / "manifest.tsv", entries)
    dataio.write_logpl(work / "logpl.tsv", scores)
    log.info("prepared %d utterances", len(entries))
    return 0


def cmd_lm_train(args) -> int:
    corpus = [sentence for sentence in
              dataio.read_lines(_require(args.corpus, "corpus"), str.split)
              if sentence]
    vocab = None
    if args.vocab:
        vocab = list(Alphabet.read(_require(args.vocab, "vocabulary")).labels)
    lm = estimate(corpus, order=args.order, discount=args.discount, vocab=vocab)
    Path(args.out).write_text(emit_arpa(lm), encoding="utf-8")
    log.info("estimated order-%d model over %d symbols", lm.order,
             len(lm.event_symbols()))
    return 0


def cmd_build_graphs(args) -> int:
    alphabet = Alphabet.read(_require(args.alphabet, "alphabet file"))
    den_lm = read_arpa(_require(args.den_lm, "denominator LM"))
    if args.word_lm:
        word_lm = read_arpa(_require(args.word_lm, "word LM"))
    else:
        word_lm = den_lm
    lexicon = dataio.read_lexicon(_require(args.lexicon, "lexicon")) \
        if args.lexicon else None
    work = dataio.ensure_dir(args.work_dir)

    topo = build_ctc_topology(alphabet)
    write_fst_text(topo, work / "T.fst")
    topo.isyms.write(work / "T.isyms")
    topo.osyms.write(work / "T.osyms")
    log.info("T.fst: %d states, %d arcs", topo.num_states, topo.num_arcs)

    den_graph = build_denominator_graph(alphabet, den_lm)
    write_fst_text(den_graph, work / "den.fst")
    log.info("den.fst: %d states, %d arcs", den_graph.num_states,
             den_graph.num_arcs)

    graph = build_decoding_graph(alphabet, word_lm, lexicon)
    write_fst_text(graph, work / "TLG.fst")
    graph.isyms.write(work / "TLG.isyms")
    graph.osyms.write(work / "TLG.osyms")
    log.info("TLG.fst: %d states, %d arcs", graph.num_states, graph.num_arcs)
    return 0


def cmd_gradcheck(args) -> int:
    from .verify import (check_gradients, check_oracle_equivalence,
                         check_settings)

    # a usage mistake in either check is reported before any trial runs
    check_settings(args.trials, args.score_tolerance, "oracle")
    check_settings(args.fd_trials, args.tolerance, "gradient")
    check_alpha(args.alpha)
    score_err, score_fail = check_oracle_equivalence(
        args.trials, seed=args.seed, tol=args.score_tolerance)
    print(f"oracle equivalence: max |error| {score_err:.3g} over "
          f"{args.trials} trials (tolerance {args.score_tolerance:g})")
    grad_err, grad_fail = check_gradients(
        args.fd_trials, seed=args.seed, tol=args.tolerance, alpha=args.alpha)
    print(f"gradient check: max relative error {grad_err:.3g} over "
          f"{args.fd_trials} trials (tolerance {args.tolerance:g})")
    if score_fail or grad_fail:
        print("FAIL")
        raise NumericalError(
            f"{score_fail} score failures, {grad_fail} gradient failures")
    print("PASS")
    return 0


def _load_dataset(manifest_path, alphabet):
    dataset = []
    utts = []
    for utt, _, feat_path, names in dataio.read_manifest(manifest_path):
        feats = dataio.read_matrix(feat_path)
        if not len(feats):
            raise DataError(f"utterance {utt}: no frames in {feat_path}")
        dataset.append((feats, [alphabet.state_id(n) for n in names]))
        utts.append(utt)
    return utts, dataset


def cmd_train(args) -> int:
    alphabet = Alphabet.read(_require(args.alphabet, "alphabet file"))
    table = flatten_denominator(read_fst_text(
        _require(args.den_table, "denominator graph"), LOG,
        alphabet.pi_symbol_table(), alphabet.label_symbol_table()))
    utts, dataset = _load_dataset(_require(args.manifest, "manifest"), alphabet)
    if not dataset:
        raise DataError(f"{args.manifest}: empty training set")
    logpl = dataio.read_logpl(_require(args.logpl, "score cache"))
    missing = [u for u in utts if u not in logpl]
    if missing:
        raise DataError(f"utterances missing from score cache: {missing[:5]}")
    log_pls = [logpl[u] for u in utts]
    heldout = None
    if args.heldout_manifest:
        _, heldout = _load_dataset(
            _require(args.heldout_manifest, "held-out manifest"), alphabet)

    config = TrainConfig(
        alpha=args.alpha, learning_rate=args.learning_rate,
        optimizer=args.optimizer, epochs=args.epochs,
        batch_size=args.batch_size, seed=args.seed,
        clip_norm=args.clip_norm)
    input_dim = dataset[0][0].shape[1]
    model = AcousticModel(input_dim, _parse_layer_specs(args.layers),
                          alphabet.num_state_symbols, seed=args.seed,
                          dropout=args.dropout)
    log.info("model with %d parameters", model.num_params)
    metrics = train(model, dataset, table, log_pls, config, alphabet,
                    heldout=heldout)
    model.save(args.checkpoint)
    write_metrics(args.metrics, metrics)
    last = metrics[-1]
    log.info("epoch %d: objective %.6f, token error %.4f", last.epoch,
             last.objective, last.token_error)
    return 0


def _decode_one(feats, graph, config, model):
    started = time.perf_counter()
    post = model.forward(feats)
    result = beam_decode(post, graph, config)
    return result, time.perf_counter() - started


# (graph, config, model), set once in each pool worker by its initializer,
# so that the jobs the pool pickles carry only features
_worker_decoder: tuple = ()


def _init_worker(*decoder) -> None:
    global _worker_decoder
    _worker_decoder = decoder


def _decode_in_worker(feats):
    return _decode_one(feats, *_worker_decoder)


def cmd_decode(args) -> int:
    alphabet = Alphabet.read(_require(args.alphabet, "alphabet file"))
    model = AcousticModel.load(_require(args.checkpoint, "checkpoint"))
    graph_dir = Path(args.graph).parent
    stem = Path(args.graph).stem
    isyms_path = _require(graph_dir / f"{stem}.isyms", "graph isyms")
    isyms = SymbolTable.read(isyms_path)
    # posterior column k is the alphabet's state symbol k; a graph built
    # over another label order would read every label's column wrongly
    if isyms != alphabet.pi_symbol_table():
        raise DataError(f"{isyms_path}: input symbols are not the state "
                        f"symbols of {args.alphabet}")
    osyms = SymbolTable.read(_require(graph_dir / f"{stem}.osyms", "graph osyms"))
    graph = read_fst_text(_require(args.graph, "decoding graph"), TROPICAL,
                          isyms, osyms)
    utts, dataset = _load_dataset(_require(args.manifest, "manifest"), alphabet)

    config = BeamConfig(width=args.beam_width, slack=args.beam_slack,
                        blank_threshold=None if args.no_blank_skip
                        else args.blank_skip)
    jobs = [feats for feats, _ in dataset]
    if args.workers > 1 and len(jobs) > 1:
        with multiprocessing.Pool(args.workers, _init_worker,
                                  (graph, config, model)) as pool:
            outcomes = pool.map(_decode_in_worker, jobs)
    else:
        outcomes = [_decode_one(j, graph, config, model) for j in jobs]

    hyps = {}
    total_frames = 0
    total_skipped = 0
    for utt, (result, elapsed) in zip(utts, outcomes):
        hyps[utt] = [osyms.name(w) for w in result.words]
        total_frames += result.frames_processed + result.frames_skipped
        total_skipped += result.frames_skipped
        log.info("%s: %d frames, %d skipped, %.1f ms", utt,
                 result.frames_processed + result.frames_skipped,
                 result.frames_skipped, elapsed * 1e3)
    dataio.write_hyps(args.hyp, hyps)
    pct = 100.0 * total_skipped / max(total_frames, 1)
    log.info("decoded %d utterances; %.1f%% frames skipped", len(utts), pct)
    return 0


def cmd_score(args) -> int:
    hyps = dataio.read_hyps(_require(args.hyp, "hypothesis file"))
    refs = dataio.read_labels_file(_require(args.ref, "reference file"))
    if sorted(hyps) != sorted(refs):
        raise DataError("hypothesis and reference utterance sets differ")
    order = sorted(refs)
    breakdown = evaluate_error_rate([hyps[u] for u in order],
                                    [refs[u] for u in order])
    report = (f"tokens\t{breakdown.ref_tokens}\n"
              f"substitutions\t{breakdown.substitutions}\n"
              f"deletions\t{breakdown.deletions}\n"
              f"insertions\t{breakdown.insertions}\n"
              f"rate\t{breakdown.rate:.6f}\n")
    if args.out:
        Path(args.out).write_text(report, encoding="utf-8")
    print(report, end="")
    return 0


# ---------------------------------------------------------------------------
# Argument wiring
# ---------------------------------------------------------------------------

def build_parser() -> tuple[_Parser, dict[str, argparse.ArgumentParser]]:
    parser = _Parser(prog="ctc-crf",
                     description="sequence-CRF training and decoding pipeline")
    sub = parser.add_subparsers(dest="command", required=True)
    commands = {}

    def add(name, func, **kwargs):
        p = sub.add_parser(name, **kwargs)
        p.add_argument("--config", help="flat key = value config file")
        p.set_defaults(func=func)
        commands[name] = p
        return p

    p = add("prepare", cmd_prepare, help="validate data, cache LM scores")
    p.add_argument("--features-dir", required=True)
    p.add_argument("--labels", required=True)
    p.add_argument("--alphabet", required=True)
    p.add_argument("--den-lm", required=True, help="denominator LM in ARPA form")
    p.add_argument("--work-dir", required=True)
    p.add_argument("--subsample", type=int, default=1)

    p = add("lm-train", cmd_lm_train, help="estimate a backoff n-gram model")
    p.add_argument("--corpus", required=True)
    p.add_argument("--order", type=int, default=3)
    p.add_argument("--discount", type=float, default=0.5)
    p.add_argument("--vocab", help="alphabet file fixing a closed vocabulary")
    p.add_argument("--out", required=True)

    p = add("build-graphs", cmd_build_graphs,
            help="build topology, denominator and decoding graphs")
    p.add_argument("--alphabet", required=True)
    p.add_argument("--den-lm", required=True)
    p.add_argument("--word-lm", help="decoding LM; defaults to the denominator LM")
    p.add_argument("--lexicon")
    p.add_argument("--work-dir", required=True)

    p = add("gradcheck", cmd_gradcheck,
            help="verify scores and gradients against brute force")
    p.add_argument("--trials", type=int, default=50)
    p.add_argument("--fd-trials", type=int, default=20)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--tolerance", type=float, default=1e-4)
    p.add_argument("--score-tolerance", type=float, default=1e-9)
    p.add_argument("--alpha", type=float, default=0.1)

    p = add("train", cmd_train, help="train the acoustic model")
    p.add_argument("--manifest", required=True)
    p.add_argument("--heldout-manifest")
    p.add_argument("--logpl", required=True)
    p.add_argument("--den-table", required=True)
    p.add_argument("--alphabet", required=True)
    p.add_argument("--layers", default="affine:32,tanh")
    p.add_argument("--alpha", type=float, default=0.1)
    p.add_argument("--learning-rate", type=float, default=1e-2)
    p.add_argument("--optimizer", default="adam", choices=["sgd", "adam"])
    p.add_argument("--epochs", type=int, default=20)
    p.add_argument("--batch-size", type=int, default=8)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--clip-norm", type=float, default=5.0)
    p.add_argument("--dropout", type=float, default=0.0)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--metrics", required=True)

    p = add("decode", cmd_decode, help="beam-search decode with the graph")
    p.add_argument("--manifest", required=True)
    p.add_argument("--alphabet", required=True)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--graph", required=True)
    p.add_argument("--beam-width", type=int, default=64)
    p.add_argument("--beam-slack", type=float, default=float("inf"))
    p.add_argument("--blank-skip", type=float, default=0.7)
    p.add_argument("--no-blank-skip", action="store_true")
    p.add_argument("--hyp", required=True)
    p.add_argument("--workers", type=int, default=1,
                   help="decode with a pool of this many processes")

    p = add("score", cmd_score, help="report the error-rate breakdown")
    p.add_argument("--hyp", required=True)
    p.add_argument("--ref", required=True)
    p.add_argument("--out")

    return parser, commands


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    logging.basicConfig(level=logging.INFO, format="%(levelname)s %(message)s")
    parser, commands = build_parser()
    try:
        args = parser.parse_args(argv)
        if args.config:
            # config values become parser defaults, which a second parse
            # applies under the flags given on the command line
            _apply_config(commands[args.command], args.config)
            args = parser.parse_args(argv)
        return args.func(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except (DataError, OSError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 2
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
