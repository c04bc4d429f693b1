import json
import shutil
import struct
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ctc_crf import (LOG, AcousticModel, Alphabet, DataError, dataio,
                     flatten_denominator, read_fst_text, toydata)
from ctc_crf.cli import main
from ctc_crf.toydata import write_dataset


@pytest.fixture(scope="module")
def toy_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("toy")
    write_dataset(out, num_train=48, num_heldout=8, seed=3)
    return out


def _run(*argv):
    return main([str(a) for a in argv])


def test_lm_train_writes_arpa(toy_dir, tmp_path):
    out = tmp_path / "den.arpa"
    rc = _run("lm-train", "--corpus", toy_dir / "corpus.txt", "--order", 2,
              "--vocab", toy_dir / "alphabet.txt", "--out", out)
    assert rc == 0
    text = out.read_text()
    assert text.startswith("\\data\\")
    assert "\\2-grams:" in text


def test_lm_train_missing_corpus(tmp_path):
    rc = _run("lm-train", "--corpus", tmp_path / "nope.txt",
              "--out", tmp_path / "x.arpa")
    assert rc == 2


def test_usage_error_exit_code():
    assert _run("lm-train") == 1
    assert _run("not-a-command") == 1


def test_toydata_output_prepares_as_the_readme_runs_it(tmp_path):
    # python -m ctc_crf.toydata data, then lm-train and prepare on each split
    data = tmp_path / "data"
    toydata.main([str(data), "--num-train", "6", "--num-heldout", "3"])
    arpa = tmp_path / "den.arpa"
    assert _run("lm-train", "--corpus", data / "corpus.txt", "--order", 2,
                "--vocab", data / "alphabet.txt", "--out", arpa) == 0
    for split, count in (("train", 6), ("dev", 3)):
        assert _run("prepare", "--features-dir", data / "feats",
                    "--labels", data / f"{split}-labels.tsv",
                    "--alphabet", data / "alphabet.txt", "--den-lm", arpa,
                    "--work-dir", tmp_path / split) == 0
        manifest = (tmp_path / split / "manifest.tsv").read_text()
        assert len(manifest.splitlines()) == count
    both = {**dataio.read_labels_file(data / "train-labels.tsv"),
            **dataio.read_labels_file(data / "dev-labels.tsv")}
    assert dataio.read_labels_file(data / "labels.tsv") == both


@pytest.fixture(scope="module")
def pipeline(toy_dir, tmp_path_factory):
    """Full prepare -> lm-train -> build-graphs -> train -> decode -> score."""
    work = tmp_path_factory.mktemp("work")
    for labels_file in ("train-labels.tsv", "dev-labels.tsv"):
        shutil.copy(toy_dir / labels_file, work / labels_file)

    arpa = work / "den.arpa"
    assert _run("lm-train", "--corpus", toy_dir / "corpus.txt", "--order", 2,
                "--vocab", toy_dir / "alphabet.txt", "--out", arpa) == 0

    for split, labels_file in (("train", "train-labels.tsv"),
                               ("dev", "dev-labels.tsv")):
        rc = _run("prepare",
                  "--features-dir", toy_dir / "feats",
                  "--labels", work / labels_file,
                  "--alphabet", toy_dir / "alphabet.txt",
                  "--den-lm", arpa,
                  "--work-dir", work / split)
        assert rc == 0

    assert _run("build-graphs", "--alphabet", toy_dir / "alphabet.txt",
                "--den-lm", arpa, "--work-dir", work / "graphs") == 0

    rc = _run("train",
              "--manifest", work / "train" / "manifest.tsv",
              "--heldout-manifest", work / "dev" / "manifest.tsv",
              "--logpl", work / "train" / "logpl.tsv",
              "--den-table", work / "graphs" / "den.fst",
              "--alphabet", toy_dir / "alphabet.txt",
              "--epochs", 15, "--seed", 0,
              "--checkpoint", work / "model.ckpt",
              "--metrics", work / "metrics.tsv")
    assert rc == 0

    rc = _run("decode",
              "--manifest", work / "dev" / "manifest.tsv",
              "--alphabet", toy_dir / "alphabet.txt",
              "--checkpoint", work / "model.ckpt",
              "--graph", work / "graphs" / "TLG.fst",
              "--hyp", work / "hyp.tsv")
    assert rc == 0
    return work


def test_prepare_outputs(pipeline, toy_dir):
    manifest = dataio.read_manifest(pipeline / "train" / "manifest.tsv")
    assert len(manifest) == 48
    logpl = dataio.read_logpl(pipeline / "train" / "logpl.tsv")
    assert set(logpl) == {utt for utt, _, _, _ in manifest}
    assert all(v < 0 for v in logpl.values())


def test_prepare_three_utterance_set(toy_dir, pipeline, tmp_path):
    labels = dataio.read_labels_file(pipeline / "train-labels.tsv")
    three = dict(list(labels.items())[:3])
    dataio.write_labels_file(tmp_path / "three.tsv", three)
    rc = _run("prepare", "--features-dir", toy_dir / "feats",
              "--labels", tmp_path / "three.tsv",
              "--alphabet", toy_dir / "alphabet.txt",
              "--den-lm", pipeline / "den.arpa",
              "--work-dir", tmp_path / "w3")
    assert rc == 0
    assert len(dataio.read_manifest(tmp_path / "w3" / "manifest.tsv")) == 3
    assert len((tmp_path / "w3" / "logpl.tsv").read_text().splitlines()) == 3


def test_prepare_rejects_oov_label(pipeline, toy_dir, tmp_path):
    bad = {"bad-utt": ["zz"]}
    dataio.write_labels_file(tmp_path / "bad.tsv", bad)
    rc = _run("prepare", "--features-dir", toy_dir / "feats",
              "--labels", tmp_path / "bad.tsv",
              "--alphabet", toy_dir / "alphabet.txt",
              "--den-lm", pipeline / "den.arpa",
              "--work-dir", tmp_path / "w")
    assert rc == 2


def test_prepare_subsampling(toy_dir, pipeline, tmp_path):
    labels = dataio.read_labels_file(pipeline / "train-labels.tsv")
    one = dict(list(labels.items())[:1])
    dataio.write_labels_file(tmp_path / "one.tsv", one)
    rc = _run("prepare", "--features-dir", toy_dir / "feats",
              "--labels", tmp_path / "one.tsv",
              "--alphabet", toy_dir / "alphabet.txt",
              "--den-lm", pipeline / "den.arpa",
              "--work-dir", tmp_path / "sub", "--subsample", 3)
    assert rc == 0
    utt = next(iter(one))
    full = dataio.read_matrix(toy_dir / "feats" / f"{utt}.mat")
    sub = dataio.read_matrix(tmp_path / "sub" / "feats" / f"{utt}.mat")
    assert sub.shape[0] == (full.shape[0] + 2) // 3
    assert np.array_equal(sub, full[::3])


@pytest.mark.parametrize("factor", [0, -2])
def test_prepare_bad_subsample_is_data_error(toy_dir, pipeline, tmp_path,
                                             capsys, factor):
    rc = _run("prepare", "--features-dir", toy_dir / "feats",
              "--labels", pipeline / "train-labels.tsv",
              "--alphabet", toy_dir / "alphabet.txt",
              "--den-lm", pipeline / "den.arpa",
              "--work-dir", tmp_path / "sub", "--subsample", factor)
    assert rc == 2
    assert "subsample factor" in capsys.readouterr().err
    assert not (tmp_path / "sub" / "manifest.tsv").exists()


def test_prepare_zero_frame_utterance_is_data_error(toy_dir, pipeline,
                                                     tmp_path, capsys):
    labels = dataio.read_labels_file(pipeline / "train-labels.tsv")
    utt = sorted(labels)[1]
    feats = tmp_path / "feats"
    shutil.copytree(toy_dir / "feats", feats)
    full = dataio.read_matrix(feats / f"{utt}.mat")
    dataio.write_matrix(feats / f"{utt}.mat", full[:0])
    rc = _run("prepare", "--features-dir", feats,
              "--labels", pipeline / "train-labels.tsv",
              "--alphabet", toy_dir / "alphabet.txt",
              "--den-lm", pipeline / "den.arpa",
              "--work-dir", tmp_path / "w")
    assert rc == 2
    assert f"utterance {utt}: no frames" in capsys.readouterr().err
    assert not (tmp_path / "w" / "manifest.tsv").exists()


def test_build_graphs_artifacts(pipeline):
    graphs = pipeline / "graphs"
    t_lines = (graphs / "T.fst").read_text().splitlines()
    arc_lines = [l for l in t_lines if len(l.split("\t")) == 5]
    final_lines = [l for l in t_lines if len(l.split("\t")) == 2]
    # 5 labels: 6 states, 1 + 5 + 5 + 5 + 20 = 36 arcs
    assert len(arc_lines) == 36
    assert len(final_lines) == 6
    assert (graphs / "den.fst").exists()
    assert (graphs / "TLG.fst").exists()
    assert (graphs / "TLG.osyms").exists()


def test_build_graphs_missing_arpa(toy_dir, tmp_path):
    rc = _run("build-graphs", "--alphabet", toy_dir / "alphabet.txt",
              "--den-lm", tmp_path / "missing.arpa",
              "--work-dir", tmp_path / "g")
    assert rc == 2
    assert not (tmp_path / "g" / "T.fst").exists()


def _arpa_with_value(pipeline, path, field, value):
    """den.arpa with one field of its first unigram line, which has a
    backoff, set to ``value``; returns that line's number."""
    lines = (pipeline / "den.arpa").read_text().splitlines(True)
    ln = lines.index("\\1-grams:\n") + 2
    fields = lines[ln - 1].rstrip("\n").split("\t")
    assert len(fields) == 3
    fields[field] = value
    lines[ln - 1] = "\t".join(fields) + "\n"
    path.write_text("".join(lines))
    return ln


@pytest.mark.parametrize("field, value", [(0, "nan"), (-1, "inf")])
def test_build_graphs_non_finite_arpa_value_is_data_error(
        toy_dir, pipeline, tmp_path, capsys, field, value):
    # a NaN unigram used to give exit 0 and a den.fst with NaN weights
    arpa = tmp_path / "den.arpa"
    ln = _arpa_with_value(pipeline, arpa, field, value)
    assert _run("build-graphs", "--alphabet", toy_dir / "alphabet.txt",
                "--den-lm", arpa, "--work-dir", tmp_path / "g") == 2
    assert f"{arpa}: line {ln}: 1-gram value {value} is NaN or +inf" in \
        capsys.readouterr().err
    assert not (tmp_path / "g" / "den.fst").exists()


@pytest.mark.parametrize("field", [0, -1])
@pytest.mark.parametrize("value", ["1e308", "309"])
def test_build_graphs_arpa_value_past_the_weight_bound_is_data_error(
        toy_dir, pipeline, tmp_path, capsys, field, value):
    # times ln 10, either is a graph weight above log(float64 max): build-
    # graphs used to write it with exit 0, and train then rejected den.fst
    arpa = tmp_path / "den.arpa"
    ln = _arpa_with_value(pipeline, arpa, field, value)
    assert _run("build-graphs", "--alphabet", toy_dir / "alphabet.txt",
                "--den-lm", arpa, "--work-dir", tmp_path / "g") == 2
    assert (f"{arpa}: line {ln}: 1-gram value {float(value)} is above 308.25"
            in capsys.readouterr().err)
    assert not (tmp_path / "g" / "den.fst").exists()


@pytest.mark.parametrize("field", [0, -1])
@pytest.mark.parametrize("value", ["300", "-1e308"])
def test_build_graphs_large_arpa_value_below_the_bound_trains(
        toy_dir, pipeline, tmp_path, field, value):
    arpa = tmp_path / "den.arpa"
    _arpa_with_value(pipeline, arpa, field, value)
    assert _run("build-graphs", "--alphabet", toy_dir / "alphabet.txt",
                "--den-lm", arpa, "--work-dir", tmp_path / "g") == 0
    assert _run(*_train_argv(pipeline, toy_dir, tmp_path,
                             tmp_path / "g" / "den.fst")) == 0


def test_build_graphs_deterministic(toy_dir, pipeline, tmp_path):
    rc = _run("build-graphs", "--alphabet", toy_dir / "alphabet.txt",
              "--den-lm", pipeline / "den.arpa",
              "--work-dir", tmp_path / "again")
    assert rc == 0
    for name in ("T.fst", "den.fst", "TLG.fst", "T.isyms", "TLG.osyms"):
        assert (tmp_path / "again" / name).read_bytes() == \
            (pipeline / "graphs" / name).read_bytes(), name


def test_train_metrics_format(pipeline):
    lines = (pipeline / "metrics.tsv").read_text().splitlines()
    assert len(lines) == 15
    for i, line in enumerate(lines, 1):
        epoch, obj, err = line.split("\t")
        assert int(epoch) == i
        float(obj), float(err)


def test_decode_and_score(pipeline):
    hyp = dataio.read_hyps(pipeline / "hyp.tsv")
    assert len(hyp) == 8
    rc = _run("score", "--hyp", pipeline / "hyp.tsv",
              "--ref", pipeline / "dev-labels.tsv",
              "--out", pipeline / "score.txt")
    assert rc == 0
    report = dict(line.split("\t") for line in
                  (pipeline / "score.txt").read_text().splitlines())
    assert float(report["rate"]) <= 0.25
    assert int(report["tokens"]) > 0


def test_score_directory_input_is_data_error(tmp_path):
    # a permission-denied path is a data error too, but the superuser reads
    # any file, so only the directory case is tested portably
    assert _run("score", "--hyp", tmp_path, "--ref", tmp_path) == 2


def test_score_mismatched_sets(pipeline, tmp_path):
    dataio.write_hyps(tmp_path / "partial.tsv", {"dev-0000": ["ae"]})
    rc = _run("score", "--hyp", tmp_path / "partial.tsv",
              "--ref", pipeline / "dev-labels.tsv")
    assert rc == 2


def test_decode_blank_skip_versus_off(pipeline, toy_dir, tmp_path):
    args = ["decode",
            "--manifest", pipeline / "dev" / "manifest.tsv",
            "--alphabet", toy_dir / "alphabet.txt",
            "--checkpoint", pipeline / "model.ckpt",
            "--graph", pipeline / "graphs" / "TLG.fst"]
    assert _run(*args, "--hyp", tmp_path / "hyp-skip.tsv",
                "--blank-skip", 0.7) == 0
    assert _run(*args, "--hyp", tmp_path / "hyp-plain.tsv",
                "--no-blank-skip") == 0
    skip = dataio.read_hyps(tmp_path / "hyp-skip.tsv")
    plain = dataio.read_hyps(tmp_path / "hyp-plain.tsv")
    assert skip == plain


def test_decode_deterministic(pipeline, toy_dir, tmp_path):
    args = ["decode",
            "--manifest", pipeline / "dev" / "manifest.tsv",
            "--alphabet", toy_dir / "alphabet.txt",
            "--checkpoint", pipeline / "model.ckpt",
            "--graph", pipeline / "graphs" / "TLG.fst"]
    assert _run(*args, "--hyp", tmp_path / "h1.tsv") == 0
    assert _run(*args, "--hyp", tmp_path / "h2.tsv") == 0
    assert (tmp_path / "h1.tsv").read_bytes() == (tmp_path / "h2.tsv").read_bytes()


def test_decode_worker_pool_matches_serial(pipeline, toy_dir, tmp_path):
    args = ["decode",
            "--manifest", pipeline / "dev" / "manifest.tsv",
            "--alphabet", toy_dir / "alphabet.txt",
            "--checkpoint", pipeline / "model.ckpt",
            "--graph", pipeline / "graphs" / "TLG.fst"]
    assert _run(*args, "--hyp", tmp_path / "serial.tsv") == 0
    assert _run(*args, "--hyp", tmp_path / "pooled.tsv", "--workers", 2) == 0
    assert (tmp_path / "serial.tsv").read_bytes() == \
        (tmp_path / "pooled.tsv").read_bytes()


def _train_argv(pipeline, toy_dir, tmp_path, den_table):
    return ["train",
            "--manifest", pipeline / "train" / "manifest.tsv",
            "--logpl", pipeline / "train" / "logpl.tsv",
            "--den-table", den_table,
            "--alphabet", toy_dir / "alphabet.txt",
            "--epochs", 1,
            "--checkpoint", tmp_path / "model.ckpt",
            "--metrics", tmp_path / "metrics.tsv"]


def test_train_rejects_workers(pipeline, toy_dir, tmp_path):
    argv = _train_argv(pipeline, toy_dir, tmp_path,
                       pipeline / "graphs" / "den.fst")
    assert _run(*argv, "--workers", 2) == 1
    assert not (tmp_path / "model.ckpt").exists()


@pytest.mark.parametrize("score", ["nan", "-inf"])
def test_train_non_finite_logpl_is_data_error(pipeline, toy_dir, tmp_path,
                                              capsys, score):
    # a NaN score used to reach the loss, and train ended with exit 3
    lines = (pipeline / "train" / "logpl.tsv").read_text().splitlines(True)
    lines[1] = lines[1].split("\t")[0] + f"\t{score}\n"
    logpl = tmp_path / "logpl.tsv"
    logpl.write_text("".join(lines))
    argv = _train_argv(pipeline, toy_dir, tmp_path,
                       pipeline / "graphs" / "den.fst")
    argv[argv.index("--logpl") + 1] = logpl
    assert _run(*argv) == 2
    assert f"{logpl}: line 2: score {score} is not finite" in \
        capsys.readouterr().err
    assert not (tmp_path / "model.ckpt").exists()


def test_train_empty_manifest_is_data_error(pipeline, toy_dir, tmp_path,
                                             capsys):
    # the model's input size was read off the first utterance: an
    # IndexError, not a data error
    manifest = tmp_path / "manifest.tsv"
    manifest.write_text("")
    argv = _train_argv(pipeline, toy_dir, tmp_path,
                       pipeline / "graphs" / "den.fst")
    argv[argv.index("--manifest") + 1] = manifest
    assert _run(*argv) == 2
    assert f"{manifest}: empty training set" in capsys.readouterr().err
    assert not (tmp_path / "model.ckpt").exists()


def test_train_malformed_den_table_is_data_error(pipeline, toy_dir, tmp_path):
    table = tmp_path / "den.fst"
    table.write_text("0\tx\t1\t1\t0.5\n0\t0\n")
    assert _run(*_train_argv(pipeline, toy_dir, tmp_path, table)) == 2


def test_train_den_table_in_retired_labels_format_is_data_error(
        pipeline, toy_dir, tmp_path):
    # den.fst is the T∘G text FST; the flattened `labels`-header table that
    # build-graphs once wrote is no longer read
    table = tmp_path / "den.fst"
    table.write_text("labels\t6\n0\t1\t1\t-0.5\n1\t0\t0\t-0.2\n1\t0\n")
    assert _run(*_train_argv(pipeline, toy_dir, tmp_path, table)) == 2
    assert not (tmp_path / "model.ckpt").exists()


def test_train_empty_den_table_is_data_error(pipeline, toy_dir, tmp_path):
    table = tmp_path / "den.fst"
    table.write_text("")
    assert _run(*_train_argv(pipeline, toy_dir, tmp_path, table)) == 2
    assert not (tmp_path / "model.ckpt").exists()


def test_train_undecodable_den_table_is_data_error(pipeline, toy_dir, tmp_path):
    data = bytearray((pipeline / "graphs" / "den.fst").read_bytes())
    data[5] = 0xFF
    table = tmp_path / "den.fst"
    table.write_bytes(bytes(data))
    assert _run(*_train_argv(pipeline, toy_dir, tmp_path, table)) == 2


def test_train_den_label_out_of_range_names_the_line(pipeline, toy_dir,
                                                      tmp_path, capsys):
    body = (pipeline / "graphs" / "den.fst").read_text()
    table = tmp_path / "den.fst"
    table.write_text(body + "0\t1\t99\t1\t0.5\n")
    assert _run(*_train_argv(pipeline, toy_dir, tmp_path, table)) == 2
    line = len(body.splitlines()) + 1
    assert (f"{table}: line {line}: input label 99 not in symbol table"
            in capsys.readouterr().err)


def test_train_den_epsilon_cycle_is_data_error(pipeline, toy_dir, tmp_path,
                                               capsys):
    # an epsilon self-loop of mass 0.5 on the start state: its closure would
    # converge, but no backoff graph has an epsilon cycle
    body = (pipeline / "graphs" / "den.fst").read_text()
    table = tmp_path / "den.fst"
    table.write_text(body + "0\t0\t0\t0\t-0.693147181\n")
    assert _run(*_train_argv(pipeline, toy_dir, tmp_path, table)) == 2
    assert "epsilon cycle" in capsys.readouterr().err
    assert not (tmp_path / "model.ckpt").exists()


def test_mixed_label_den_is_data_error(pipeline, toy_dir, tmp_path, capsys):
    # state 2 is entered on blank and on label a: a table state carries one
    # label, and no T∘G graph enters a state on two.  State 1 is trimmed,
    # and the error still names the file's state and input labels.
    table = tmp_path / "den.fst"
    table.write_text("0\t2\t1\t0\t-0.4\n0\t2\t2\t0\t-1.3\n"
                     "1\t0\t1\t0\t-0.3\n2\t-0.2\n")
    alphabet = Alphabet.read(toy_dir / "alphabet.txt")
    graph = read_fst_text(table, LOG, alphabet.pi_symbol_table(),
                          alphabet.label_symbol_table())
    message = "state 2 is entered on labels 1 and 2"
    with pytest.raises(DataError, match=message):
        flatten_denominator(graph)
    assert _run(*_train_argv(pipeline, toy_dir, tmp_path, table)) == 2
    assert message in capsys.readouterr().err
    assert not (tmp_path / "model.ckpt").exists()


def test_train_bad_config_value_is_data_error(pipeline, toy_dir, tmp_path):
    config = tmp_path / "train.cfg"
    config.write_text("epochs = abc\n")
    argv = _train_argv(pipeline, toy_dir, tmp_path,
                       pipeline / "graphs" / "den.fst")
    assert _run(argv[0], "--config", config, *argv[1:]) == 2
    assert not (tmp_path / "model.ckpt").exists()


def test_train_nan_clip_norm_is_data_error(pipeline, toy_dir, tmp_path):
    # NaN would turn clipping off: no gradient norm compares above it
    argv = _train_argv(pipeline, toy_dir, tmp_path,
                       pipeline / "graphs" / "den.fst")
    assert _run(*argv, "--clip-norm", "nan") == 2
    assert not (tmp_path / "model.ckpt").exists()


def test_train_bad_layer_size_is_data_error(pipeline, toy_dir, tmp_path):
    argv = _train_argv(pipeline, toy_dir, tmp_path,
                       pipeline / "graphs" / "den.fst")
    assert _run(*argv, "--layers", "affine:x") == 2
    assert not (tmp_path / "model.ckpt").exists()


_EDGE_VALUES = ["nan", "inf", "-inf", "-1", "0"]


@pytest.mark.parametrize("value", _EDGE_VALUES)
@pytest.mark.parametrize("flag", ["--learning-rate", "--alpha", "--clip-norm",
                                  "--dropout"])
def test_train_float_setting_at_an_edge_exits_0_or_2(pipeline, toy_dir,
                                                     tmp_path, capsys, flag,
                                                     value):
    # an infinite learning rate or auxiliary weight trained into a
    # non-finite update, and train ended with exit 3
    argv = _train_argv(pipeline, toy_dir, tmp_path,
                       pipeline / "graphs" / "den.fst")
    rc = _run(*argv, f"{flag}={value}")   # "-inf" alone reads as a flag
    err = capsys.readouterr().err
    assert rc in (0, 2), err
    assert (tmp_path / "model.ckpt").exists() == (rc == 0)


@pytest.mark.parametrize("value", _EDGE_VALUES)
@pytest.mark.parametrize("flag", ["--beam-slack", "--blank-skip"])
def test_decode_float_setting_at_an_edge_exits_0_or_2(pipeline, toy_dir,
                                                      tmp_path, capsys, flag,
                                                      value):
    rc = _run("decode",
              "--manifest", pipeline / "dev" / "manifest.tsv",
              "--alphabet", toy_dir / "alphabet.txt",
              "--checkpoint", pipeline / "model.ckpt",
              "--graph", pipeline / "graphs" / "TLG.fst",
              "--hyp", tmp_path / "hyp.tsv", f"{flag}={value}")
    err = capsys.readouterr().err
    assert rc in (0, 2), err
    assert (tmp_path / "hyp.tsv").exists() == (rc == 0)


def test_gradcheck_passes():
    assert _run("gradcheck", "--trials", 15, "--fd-trials", 5, "--seed", 1) == 0


def test_gradcheck_seed_changes_trials_not_verdict():
    assert _run("gradcheck", "--trials", 10, "--fd-trials", 3, "--seed", 7) == 0
    assert _run("gradcheck", "--trials", 10, "--fd-trials", 3, "--seed", 8) == 0


def test_gradcheck_impossible_tolerance_fails():
    rc = _run("gradcheck", "--trials", 5, "--fd-trials", 3, "--seed", 1,
              "--tolerance", 1e-12, "--score-tolerance", 1e-18)
    assert rc == 3


@pytest.mark.parametrize("flag", ["--trials", "--fd-trials"])
@pytest.mark.parametrize("count", [0, -1])
def test_gradcheck_without_a_trial_is_data_error(flag, count, capsys):
    # with no trial, nothing is checked, so PASS would mean nothing; a bad
    # --fd-trials once let every oracle trial run and print first
    counts = {"--trials": 2, "--fd-trials": 1, flag: count}
    assert _run("gradcheck", *(v for kv in counts.items() for v in kv)) == 2
    captured = capsys.readouterr()
    assert f"not {count}" in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("flag", ["--tolerance", "--score-tolerance",
                                  "--alpha"])
@pytest.mark.parametrize("value", ["inf", "-1", "nan"])
def test_gradcheck_tolerance_no_check_can_meet_is_data_error(flag, value,
                                                            capsys):
    # an infinite tolerance passed a check that cannot fail, and a negative
    # or NaN one failed every trial with exit 3, a usage mistake reported
    # as a numerical failure; a bad auxiliary weight let every oracle trial
    # run and print before the first gradient trial rejected it
    assert _run("gradcheck", "--trials", 2, "--fd-trials", 1,
                f"{flag}={value}") == 2
    captured = capsys.readouterr()
    what = {"--tolerance": "gradient tolerance",
            "--score-tolerance": "oracle tolerance",
            "--alpha": "auxiliary weight"}[flag]
    assert (f"{what} must be finite and >= 0, not {float(value)!r}"
            in captured.err)
    assert captured.out == ""


def test_config_file_supplies_defaults(toy_dir, tmp_path):
    config = tmp_path / "run.cfg"
    config.write_text("order = 1\n# comment\ndiscount = 0.4\n")
    out = tmp_path / "uni.arpa"
    rc = _run("lm-train", "--config", config, "--corpus", toy_dir / "corpus.txt",
              "--out", out)
    assert rc == 0
    assert "\\2-grams:" not in out.read_text()


def test_config_flag_without_value_is_usage_error():
    assert _run("lm-train", "--config") == 1


def test_cli_flag_overrides_config(toy_dir, tmp_path):
    config = tmp_path / "run.cfg"
    config.write_text("order = 1\n")
    out = tmp_path / "bi.arpa"
    rc = _run("lm-train", "--config", config, "--corpus", toy_dir / "corpus.txt",
              "--order", 2, "--out", out)
    assert rc == 0
    assert "\\2-grams:" in out.read_text()


def test_decode_corrupt_checkpoint_is_data_error(pipeline, toy_dir, tmp_path):
    ckpt = tmp_path / "model.ckpt"
    data = (pipeline / "model.ckpt").read_bytes()
    ckpt.write_bytes(data[:12] + b"#" + data[13:])   # break the JSON header
    assert _run("decode",
                "--manifest", pipeline / "dev" / "manifest.tsv",
                "--alphabet", toy_dir / "alphabet.txt",
                "--checkpoint", ckpt,
                "--graph", pipeline / "graphs" / "TLG.fst",
                "--hyp", tmp_path / "hyp.tsv") == 2
    assert not (tmp_path / "hyp.tsv").exists()


@pytest.fixture(scope="module")
def fuzz_dir(pipeline, tmp_path_factory):
    out = tmp_path_factory.mktemp("fuzz")
    for syms in ("TLG.isyms", "TLG.osyms"):
        shutil.copy(pipeline / "graphs" / syms, out / syms)
    return out


# a weight that is not a number, infinite, or finite but absurd
_ABSURD_WEIGHTS = ["nan", "inf", "-inf", "1e308", "-1e308"]


@settings(derandomize=True, deadline=None, max_examples=100)
@given(data=st.data())
def test_graph_file_with_one_value_changed_exits_0_or_2(pipeline, toy_dir,
                                                        fuzz_dir, data):
    # one line of den.fst (read by train) or TLG.fst (read by decode) gets
    # one absurd weight, or another in-range label or state id.  The run
    # either copes or names the fault: never exit 3, never a traceback.
    # A 1e308 weight on a den.fst arc once made train exit 3.
    name = data.draw(st.sampled_from(["den.fst", "TLG.fst"]))
    lines = (pipeline / "graphs" / name).read_text().splitlines(True)
    i = data.draw(st.integers(0, len(lines) - 1))
    fields = lines[i].rstrip("\n").split("\t")
    alphabet = Alphabet.read(toy_dir / "alphabet.txt")
    # every line starts with a state id, and an arc line's second field is
    # its target
    num_states = len({int(f) for line in lines
                      for f in line.split("\t")[:-1][:2]})
    limits = {0: num_states, 1: num_states,
              2: len(alphabet.pi_symbol_table()),
              3: len(alphabet.label_symbol_table())}
    kind = data.draw(st.sampled_from(["weight", "label", "state"]
                                     if len(fields) == 5 else
                                     ["weight", "state"]))
    if kind == "weight":
        j, value = -1, data.draw(st.sampled_from(_ABSURD_WEIGHTS))
    else:
        j = data.draw(st.sampled_from(
            [2, 3] if kind == "label" else [0, 1] if len(fields) == 5 else [0]))
        value = str(data.draw(st.integers(0, limits[j] - 1).filter(
            lambda v: v != int(fields[j]))))
    fields[j] = value
    path = fuzz_dir / name
    path.write_text("".join(lines[:i] + ["\t".join(fields) + "\n"]
                            + lines[i + 1:]))
    if name == "den.fst":
        rc = _run(*_train_argv(pipeline, toy_dir, fuzz_dir, path))
    else:
        rc = _run("decode",
                  "--manifest", pipeline / "dev" / "manifest.tsv",
                  "--alphabet", toy_dir / "alphabet.txt",
                  "--checkpoint", pipeline / "model.ckpt",
                  "--graph", path,
                  "--hyp", fuzz_dir / "hyp.tsv")
    assert rc in (0, 2), (name, i + 1, kind, value)


# values for an ARPA log10 value or a logpl.tsv score: not a number,
# infinite, finite but absurd, or just past the ARPA bound
_ABSURD_VALUES = ["nan", "1e308", "-1e308", "309"]


@settings(derandomize=True, deadline=None, max_examples=100)
@given(data=st.data())
def test_input_file_with_one_value_changed_exits_0_or_2(pipeline, toy_dir,
                                                        fuzz_dir, data):
    # one value of den.arpa (read by build-graphs) or of logpl.tsv (read by
    # train), or one label of the training manifest set to a name outside
    # the alphabet or to another label of it (read by train): the run copes
    # or names the fault, never exit 3, never a traceback.  Another label
    # of the alphabet is data train must take.  Graphs build-graphs writes,
    # train and decode read: a 1e308 in den.arpa once gave build-graphs
    # exit 0 and a den.fst that train rejected.
    name = data.draw(st.sampled_from(["den.arpa", "logpl.tsv",
                                      "manifest.tsv"]))
    source = {"den.arpa": pipeline / "den.arpa",
              "logpl.tsv": pipeline / "train" / "logpl.tsv",
              "manifest.tsv": pipeline / "train" / "manifest.tsv"}[name]
    lines = source.read_text().splitlines(True)
    # in den.arpa, an n-gram line: log10 probability, words, maybe backoff
    i = data.draw(st.sampled_from(
        [i for i, line in enumerate(lines) if line[:1] not in "\\n\n"]
        if name == "den.arpa" else range(len(lines))))
    fields = lines[i].rstrip("\n").split("\t")
    if name == "manifest.tsv":
        labels = fields[-1].split()
        k = data.draw(st.integers(0, len(labels) - 1))
        alphabet = Alphabet.read(toy_dir / "alphabet.txt").labels
        labels[k] = data.draw(st.sampled_from(
            ["zz", *(a for a in alphabet if a != labels[k])]))
        j, value = -1, " ".join(labels)
    else:
        j = data.draw(st.sampled_from([0, -1] if len(fields) == 3 else [0])) \
            if name == "den.arpa" else -1
        value = data.draw(st.sampled_from(_ABSURD_VALUES))
    fields[j] = value
    path = fuzz_dir / name
    path.write_text("".join(lines[:i] + ["\t".join(fields) + "\n"]
                            + lines[i + 1:]))
    argv = _train_argv(pipeline, toy_dir, fuzz_dir,
                       pipeline / "graphs" / "den.fst")
    if name != "den.arpa":
        argv[argv.index("--logpl" if name == "logpl.tsv" else "--manifest")
             + 1] = path
        rc = _run(*argv)
        assert rc in (0, 2), (name, i + 1, value)
        if name == "manifest.tsv" and "zz" not in value.split():
            assert rc == 0, (i + 1, value)
        return
    graphs = fuzz_dir / "graphs"
    rc = _run("build-graphs", "--alphabet", toy_dir / "alphabet.txt",
              "--den-lm", path, "--work-dir", graphs)
    assert rc in (0, 2), (i + 1, j, value)
    if rc == 0:
        argv[argv.index("--den-table") + 1] = graphs / "den.fst"
        assert _run(*argv) == 0, (i + 1, j, value)
        assert _run("decode",
                    "--manifest", pipeline / "dev" / "manifest.tsv",
                    "--alphabet", toy_dir / "alphabet.txt",
                    "--checkpoint", pipeline / "model.ckpt",
                    "--graph", graphs / "TLG.fst",
                    "--hyp", fuzz_dir / "hyp.tsv") == 0, (i + 1, j, value)


def _epsilon_reach(arcs, state, forward):
    """``state`` and every state it reaches (``forward``) or that reaches it
    over the epsilon-input arcs, given as ``(src, dst)`` pairs."""
    step = {}
    for src, dst in arcs:
        a, b = (src, dst) if forward else (dst, src)
        step.setdefault(a, []).append(b)
    seen, todo = {state}, [state]
    while todo:
        for nxt in step.get(todo.pop(), []):
            if nxt not in seen:
                seen.add(nxt)
                todo.append(nxt)
    return sorted(seen)


@settings(derandomize=True, deadline=None, max_examples=30)
@given(data=st.data())
def test_graph_state_id_changed_into_an_epsilon_cycle_exits_2(
        pipeline, toy_dir, fuzz_dir, data):
    # one state id of an epsilon arc of TLG.fst changed so that the arc
    # closes a cycle of epsilon arcs: its target set to a state that
    # reaches its source, or its source to one its target reaches.  The
    # search around a cycle would not end; decode names it instead.
    lines = (pipeline / "graphs" / "TLG.fst").read_text().splitlines(True)
    rows = [line.rstrip("\n").split("\t") for line in lines]
    eps = [i for i, f in enumerate(rows) if len(f) == 5 and f[2] == "0"]
    arcs = [(int(rows[i][0]), int(rows[i][1])) for i in eps]
    i = data.draw(st.sampled_from(eps))
    src, dst = arcs[eps.index(i)]
    j = data.draw(st.sampled_from([0, 1]))
    rows[i][j] = str(data.draw(st.sampled_from(
        _epsilon_reach(arcs, dst, True) if j == 0
        else _epsilon_reach(arcs, src, False))))
    path = fuzz_dir / "TLG.fst"
    path.write_text("".join("\t".join(f) + "\n" for f in rows))
    assert _run("decode",
                "--manifest", pipeline / "dev" / "manifest.tsv",
                "--alphabet", toy_dir / "alphabet.txt",
                "--checkpoint", pipeline / "model.ckpt",
                "--graph", path,
                "--hyp", fuzz_dir / "hyp.tsv") == 2, (i + 1, j, rows[i][j])


# a checkpoint value past float32's range, which the file holds as an
# infinity, and float32's largest finite values
_ABSURD_TENSOR_VALUES = [1e308, -1e308, 3.4e38, -3.4e38]


@settings(derandomize=True, deadline=None, max_examples=100)
@given(data=st.data())
def test_model_input_with_one_value_changed_exits_0_or_2(pipeline, toy_dir,
                                                        fuzz_dir, data):
    # one feature matrix of the training or the dev manifest with one
    # column too many or too few (read by train or decode), or one value of
    # a checkpoint tensor set to an absurd magnitude (read by decode): the
    # run copes or names the fault, never exit 3, never a traceback
    kind = data.draw(st.sampled_from(["train features", "dev features",
                                      "checkpoint"]))
    manifest = pipeline / kind.split()[0] / "manifest.tsv"
    checkpoint = pipeline / "model.ckpt"
    if kind == "checkpoint":
        model = AcousticModel.load(checkpoint)
        params = model.parameters()
        name, param = params[data.draw(st.integers(0, len(params) - 1))]
        k = data.draw(st.integers(0, param.size - 1))
        value = data.draw(st.sampled_from(_ABSURD_TENSOR_VALUES))
        param.flat[k] = value
        checkpoint = fuzz_dir / "model.ckpt"
        with np.errstate(over="ignore"):
            model.save(checkpoint)
        where = (name, k, value)
    else:
        entries = dataio.read_manifest(manifest)
        u = data.draw(st.integers(0, len(entries) - 1))
        utt, frames, feat_path, labels = entries[u]
        feats = dataio.read_matrix(feat_path)
        extra = data.draw(st.sampled_from([1, -1]))
        feats = np.hstack([feats, feats[:, :1]]) if extra > 0 \
            else feats[:, :-1]
        changed = fuzz_dir / f"{utt}.mat"
        dataio.write_matrix(changed, feats)
        entries[u] = (utt, frames, str(changed), labels)
        manifest = fuzz_dir / "manifest.tsv"
        dataio.write_manifest(manifest, entries)
        where = (kind, u, extra)
    if kind == "train features":
        argv = _train_argv(pipeline, toy_dir, fuzz_dir,
                           pipeline / "graphs" / "den.fst")
        argv[argv.index("--manifest") + 1] = manifest
        rc = _run(*argv)
    else:
        rc = _run("decode",
                  "--manifest", manifest,
                  "--alphabet", toy_dir / "alphabet.txt",
                  "--checkpoint", checkpoint,
                  "--graph", pipeline / "graphs" / "TLG.fst",
                  "--hyp", fuzz_dir / "hyp.tsv")
    assert rc in (0, 2), where


@pytest.mark.parametrize("count", [0, 2])
def test_decode_checkpoint_header_naming_a_tensor_not_once_is_data_error(
        pipeline, toy_dir, tmp_path, capsys, count):
    # a header that left out.b out loaded it as its initial zeros, and one
    # that named it twice read it twice; both decoded with exit 0
    data = (pipeline / "model.ckpt").read_bytes()
    blob_len, = struct.unpack("<I", data[8:12])
    header = json.loads(data[12:12 + blob_len])
    tensors = data[12 + blob_len:]
    name, shape = header["tensors"].pop()
    assert name == "out.b"
    header["tensors"] += [[name, shape]] * count
    tensors += tensors[-4 * int(np.prod(shape)):] * (count - 1)
    blob = json.dumps(header, sort_keys=True).encode("utf-8")
    ckpt = tmp_path / "model.ckpt"
    ckpt.write_bytes(data[:8] + struct.pack("<I", len(blob)) + blob + tensors)
    assert _run("decode",
                "--manifest", pipeline / "dev" / "manifest.tsv",
                "--alphabet", toy_dir / "alphabet.txt",
                "--checkpoint", ckpt,
                "--graph", pipeline / "graphs" / "TLG.fst",
                "--hyp", tmp_path / "hyp.tsv") == 2
    assert (f"{ckpt}: the header names tensor out.b {count} times, not once"
            in capsys.readouterr().err)
    assert not (tmp_path / "hyp.tsv").exists()


def test_decode_checkpoint_with_a_zero_width_layer_is_data_error(
        pipeline, toy_dir, tmp_path, capsys):
    # a layer of size 0 drops the features: such a checkpoint loaded, and
    # decode gave every utterance the same hypothesis with exit 0
    data = (pipeline / "model.ckpt").read_bytes()
    blob_len, = struct.unpack("<I", data[8:12])
    header = json.loads(data[12:12 + blob_len])
    width, outputs = header["input_dim"], header["num_outputs"]
    header["specs"] = [{"kind": "affine", "size": 0, "bidirectional": False}]
    header["tensors"] = [["layer0.W", [width, 0]], ["layer0.b", [0]],
                         ["out.W", [0, outputs]], ["out.b", [outputs]]]
    blob = json.dumps(header, sort_keys=True).encode("utf-8")
    ckpt = tmp_path / "model.ckpt"
    ckpt.write_bytes(data[:8] + struct.pack("<I", len(blob)) + blob
                     + bytes(4 * outputs))
    assert _run("decode",
                "--manifest", pipeline / "dev" / "manifest.tsv",
                "--alphabet", toy_dir / "alphabet.txt",
                "--checkpoint", ckpt,
                "--graph", pipeline / "graphs" / "TLG.fst",
                "--hyp", tmp_path / "hyp.tsv") == 2
    assert (f"{ckpt}: affine layer size must be an integer >= 1, not 0"
            in capsys.readouterr().err)
    assert not (tmp_path / "hyp.tsv").exists()


@pytest.mark.parametrize("value", [np.nan, -np.inf])
def test_decode_non_finite_checkpoint_weight_is_data_error(
        pipeline, toy_dir, tmp_path, capsys, value):
    # one NaN weight used to load, and decode ended with exit 3
    model = AcousticModel.load(pipeline / "model.ckpt")
    name, param = model.parameters()[-1]
    param.flat[3] = value
    ckpt = tmp_path / "model.ckpt"
    model.save(ckpt)
    assert _run("decode",
                "--manifest", pipeline / "dev" / "manifest.tsv",
                "--alphabet", toy_dir / "alphabet.txt",
                "--checkpoint", ckpt,
                "--graph", pipeline / "graphs" / "TLG.fst",
                "--hyp", tmp_path / "hyp.tsv") == 2
    assert f"{ckpt}: tensor {name} holds {value}" in capsys.readouterr().err
    assert not (tmp_path / "hyp.tsv").exists()


def _zero_frame_manifest(pipeline, tmp_path):
    """The dev manifest with its second utterance's features cut to no
    rows, as a hand-written manifest can give; returns it and the id."""
    entries = dataio.read_manifest(pipeline / "dev" / "manifest.tsv")
    utt, _, feat_path, labels = entries[1]
    empty = tmp_path / f"{utt}.mat"
    dataio.write_matrix(empty, dataio.read_matrix(feat_path)[:0])
    entries[1] = (utt, 0, str(empty), labels)
    dataio.write_manifest(tmp_path / "manifest.tsv", entries)
    return tmp_path / "manifest.tsv", utt


def test_train_zero_frame_heldout_utterance_is_data_error(pipeline, toy_dir,
                                                          tmp_path, capsys):
    manifest, utt = _zero_frame_manifest(pipeline, tmp_path)
    argv = _train_argv(pipeline, toy_dir, tmp_path,
                       pipeline / "graphs" / "den.fst")
    assert _run(*argv, "--heldout-manifest", manifest) == 2
    assert f"utterance {utt}: no frames in {tmp_path / utt}.mat" \
        in capsys.readouterr().err
    assert not (tmp_path / "model.ckpt").exists()


def test_decode_zero_frame_utterance_is_data_error(pipeline, toy_dir,
                                                   tmp_path, capsys):
    manifest, utt = _zero_frame_manifest(pipeline, tmp_path)
    assert _run("decode",
                "--manifest", manifest,
                "--alphabet", toy_dir / "alphabet.txt",
                "--checkpoint", pipeline / "model.ckpt",
                "--graph", pipeline / "graphs" / "TLG.fst",
                "--hyp", tmp_path / "hyp.tsv") == 2
    assert f"utterance {utt}: no frames in" in capsys.readouterr().err
    assert not (tmp_path / "hyp.tsv").exists()


@pytest.mark.parametrize("weight", ["nan", "inf"])
def test_decode_non_finite_graph_weight_is_data_error(pipeline, toy_dir,
                                                      tmp_path, capsys,
                                                      weight):
    # the first arc is the start state's blank loop: a NaN there used to
    # empty every hypothesis with exit 0
    for syms in ("TLG.isyms", "TLG.osyms"):
        shutil.copy(pipeline / "graphs" / syms, tmp_path / syms)
    lines = (pipeline / "graphs" / "TLG.fst").read_text().splitlines(True)
    lines[0] = lines[0].rsplit("\t", 1)[0] + f"\t{weight}\n"
    graph = tmp_path / "TLG.fst"
    graph.write_text("".join(lines))
    assert _run("decode",
                "--manifest", pipeline / "dev" / "manifest.tsv",
                "--alphabet", toy_dir / "alphabet.txt",
                "--checkpoint", pipeline / "model.ckpt",
                "--graph", graph,
                "--hyp", tmp_path / "hyp.tsv") == 2
    assert f"{graph}: line 1: weight {weight} is" in capsys.readouterr().err
    assert not (tmp_path / "hyp.tsv").exists()


def test_decode_epsilon_cycle_is_data_error_not_a_hang(pipeline, toy_dir,
                                                       tmp_path, capsys,
                                                       time_limit):
    # epsilon arcs 0 -> 1 -> 0 of weight +1 each: the search's epsilon
    # closure would raise both scores on every turn, and never stop
    for syms in ("TLG.isyms", "TLG.osyms"):
        shutil.copy(pipeline / "graphs" / syms, tmp_path / syms)
    graph = tmp_path / "TLG.fst"
    graph.write_text("0\t1\t0\t0\t1\n1\t0\t0\t0\t1\n0\t0\n")
    with time_limit(5):
        assert _run("decode",
                    "--manifest", pipeline / "dev" / "manifest.tsv",
                    "--alphabet", toy_dir / "alphabet.txt",
                    "--checkpoint", pipeline / "model.ckpt",
                    "--graph", graph,
                    "--hyp", tmp_path / "hyp.tsv") == 2
    assert "epsilon cycle in the decoding graph" in capsys.readouterr().err
    assert not (tmp_path / "hyp.tsv").exists()


def test_decode_graph_over_another_label_order_is_data_error(
        pipeline, toy_dir, tmp_path, capsys):
    # TLG.isyms with two labels swapped has the model's size, and decoded
    # with exit 0, each of the two labels read off the other's column
    for name in ("TLG.fst", "TLG.osyms"):
        shutil.copy(pipeline / "graphs" / name, tmp_path / name)
    lines = (pipeline / "graphs" / "TLG.isyms").read_text().splitlines(True)
    names = [line.split("\t")[0] for line in lines]
    names[2], names[3] = names[3], names[2]
    isyms = tmp_path / "TLG.isyms"
    isyms.write_text("".join(f"{n}\t{i}\n" for i, n in enumerate(names)))
    assert _run("decode",
                "--manifest", pipeline / "dev" / "manifest.tsv",
                "--alphabet", toy_dir / "alphabet.txt",
                "--checkpoint", pipeline / "model.ckpt",
                "--graph", tmp_path / "TLG.fst",
                "--hyp", tmp_path / "hyp.tsv") == 2
    assert (f"{isyms}: input symbols are not the state symbols of "
            f"{toy_dir / 'alphabet.txt'}") in capsys.readouterr().err
    assert not (tmp_path / "hyp.tsv").exists()


def test_decode_infinite_feature_is_data_error(pipeline, toy_dir, tmp_path,
                                               capsys):
    entries = dataio.read_manifest(pipeline / "dev" / "manifest.tsv")
    utt, frames, feat_path, labels = entries[1]
    feats = dataio.read_matrix(feat_path)
    feats[3, 0] = np.inf
    bad = tmp_path / f"{utt}.mat"
    dataio.write_matrix(bad, feats)
    entries[1] = (utt, frames, str(bad), labels)
    dataio.write_manifest(tmp_path / "manifest.tsv", entries)
    assert _run("decode",
                "--manifest", tmp_path / "manifest.tsv",
                "--alphabet", toy_dir / "alphabet.txt",
                "--checkpoint", pipeline / "model.ckpt",
                "--graph", pipeline / "graphs" / "TLG.fst",
                "--hyp", tmp_path / "hyp.tsv") == 2
    assert f"{bad}: row 4: value inf is not finite" in capsys.readouterr().err
    assert not (tmp_path / "hyp.tsv").exists()

