import shutil
from pathlib import Path

import numpy as np
import pytest

from ctc_crf import (LOG, Alphabet, DataError, dataio, flatten_denominator,
                     read_fst_text)
from ctc_crf.cli import main
from ctc_crf.toydata import write_dataset


@pytest.fixture(scope="module")
def toy_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("toy")
    write_dataset(out, num_train=48, num_heldout=8, seed=3)
    return out


def _split_labels(toy_dir, work):
    labels = dataio.read_labels_file(toy_dir / "labels.tsv")
    train = {u: l for u, l in labels.items() if u.startswith("train")}
    dev = {u: l for u, l in labels.items() if u.startswith("dev")}
    dataio.write_labels_file(work / "train-labels.tsv", train)
    dataio.write_labels_file(work / "dev-labels.tsv", dev)
    return train, dev


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


@pytest.fixture(scope="module")
def pipeline(toy_dir, tmp_path_factory):
    """Full prepare -> lm-train -> build-graphs -> train -> decode -> score."""
    work = tmp_path_factory.mktemp("work")
    train_labels, dev_labels = _split_labels(toy_dir, work)

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


def test_train_bad_layer_size_is_data_error(pipeline, toy_dir, tmp_path):
    argv = _train_argv(pipeline, toy_dir, tmp_path,
                       pipeline / "graphs" / "den.fst")
    assert _run(*argv, "--layers", "affine:x") == 2
    assert not (tmp_path / "model.ckpt").exists()


def test_gradcheck_passes():
    assert _run("gradcheck", "--trials", 15, "--fd-trials", 5, "--seed", 1) == 0


def test_gradcheck_seed_changes_trials_not_verdict():
    assert _run("gradcheck", "--trials", 10, "--fd-trials", 3, "--seed", 7) == 0
    assert _run("gradcheck", "--trials", 10, "--fd-trials", 3, "--seed", 8) == 0


def test_gradcheck_impossible_tolerance_fails():
    rc = _run("gradcheck", "--trials", 5, "--fd-trials", 3, "--seed", 1,
              "--tolerance", 1e-12, "--score-tolerance", 1e-18)
    assert rc == 3


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
