import numpy as np
import pytest

from ctc_crf import DataError
from ctc_crf.dataio import (read_hyps, read_labels_file, read_lexicon,
                            read_logpl, read_manifest, read_matrix,
                            subsample_frames, write_hyps, write_labels_file,
                            write_logpl, write_manifest, write_matrix)


def test_matrix_round_trip(tmp_path, rng):
    mat = rng.normal(size=(7, 3)).astype(np.float32)
    path = tmp_path / "m.mat"
    write_matrix(path, mat)
    back = read_matrix(path)
    assert back.shape == (7, 3)
    assert np.array_equal(back.astype(np.float32), mat)
    header = path.read_bytes()[:12]
    assert header[:4] == b"CATM"
    assert int.from_bytes(header[4:8], "little") == 7
    assert int.from_bytes(header[8:12], "little") == 3


def test_matrix_bad_magic(tmp_path):
    path = tmp_path / "bad.mat"
    path.write_bytes(b"XXXX" + b"\x00" * 16)
    with pytest.raises(DataError):
        read_matrix(path)


def test_matrix_truncated(tmp_path, rng):
    path = tmp_path / "t.mat"
    write_matrix(path, rng.normal(size=(4, 4)))
    path.write_bytes(path.read_bytes()[:-8])
    with pytest.raises(DataError):
        read_matrix(path)


def test_matrix_header_claims_more_than_the_file(tmp_path, rng):
    path = tmp_path / "t.mat"
    write_matrix(path, rng.normal(size=(4, 4)))
    data = path.read_bytes()
    path.write_bytes(data[:4] + b"\xff" * 8 + data[12:])   # 0xFFFFFFFF x 0xFFFFFFFF
    with pytest.raises(DataError, match="truncated matrix"):
        read_matrix(path)


def test_matrix_truncated_header(tmp_path, rng):
    path = tmp_path / "t.mat"
    write_matrix(path, rng.normal(size=(4, 4)))
    path.write_bytes(path.read_bytes()[:9])   # ends inside rows/cols
    with pytest.raises(DataError, match="header"):
        read_matrix(path)


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_matrix_non_finite_value_names_the_row(tmp_path, rng, value):
    mat = rng.normal(size=(4, 3))
    mat[2, 1] = value
    path = tmp_path / "m.mat"
    write_matrix(path, mat)
    with pytest.raises(DataError, match=f"{path}: row 3: value {value} is"):
        read_matrix(path)


def test_logpl_non_numeric_score(tmp_path):
    path = tmp_path / "logpl.tsv"
    path.write_text("utt-1\t-1.5\nutt-2\tminus-two\n")
    with pytest.raises(DataError, match="line 2"):
        read_logpl(path)


@pytest.mark.parametrize("score", ["nan", "inf", "-inf"])
def test_logpl_non_finite_score_names_the_line(tmp_path, score):
    path = tmp_path / "logpl.tsv"
    path.write_text(f"utt-1\t-1.5\nutt-2\t{score}\n")
    with pytest.raises(DataError,
                       match=f"{path}: line 2: score {score} is not finite"):
        read_logpl(path)


def test_manifest_non_numeric_frame_count(tmp_path):
    path = tmp_path / "manifest.tsv"
    path.write_text("u1\tten\tfeats/u1.mat\ta b\n")
    with pytest.raises(DataError, match="line 1"):
        read_manifest(path)


def test_text_reader_crlf_and_undecodable_line(tmp_path):
    path = tmp_path / "logpl.tsv"
    path.write_bytes(b"u1\t-1.5\r\n\r\nu2\t-2\r\n")
    assert read_logpl(path) == {"u1": -1.5, "u2": -2.0}
    path.write_bytes(b"u1\t-1.5\r\n\r\nu2\t-2\xff\r\n")
    with pytest.raises(DataError, match="line 3: not UTF-8"):
        read_logpl(path)


def test_logpl_twelve_significant_digits(tmp_path):
    path = tmp_path / "logpl.tsv"
    write_logpl(path, {"utt-1": -1.2345678901234567, "utt-2": -0.5})
    lines = path.read_text().splitlines()
    assert lines[0] == "utt-1\t-1.23456789012"
    back = read_logpl(path)
    assert back["utt-1"] == pytest.approx(-1.23456789012)
    assert back["utt-2"] == -0.5


def test_manifest_round_trip(tmp_path):
    entries = [("u1", 10, "feats/u1.mat", ["a", "b"]),
               ("u2", 3, "feats/u2.mat", ["b"])]
    path = tmp_path / "manifest.tsv"
    write_manifest(path, entries)
    assert read_manifest(path) == entries


def test_labels_and_hyps_round_trip(tmp_path):
    labels = {"u2": ["b"], "u1": ["a", "c"]}
    p = tmp_path / "labels.tsv"
    write_labels_file(p, labels)
    assert read_labels_file(p) == labels
    h = tmp_path / "hyps.tsv"
    write_hyps(h, {"u1": [], "u2": ["x"]})
    assert read_hyps(h) == {"u1": [], "u2": ["x"]}


def test_lexicon_multiple_pronunciations(tmp_path):
    path = tmp_path / "lexicon.tsv"
    path.write_text("go\tg o\ngo\tg o o\non\to n\n")
    lex = read_lexicon(path)
    assert lex["go"] == [["g", "o"], ["g", "o", "o"]]
    assert lex["on"] == [["o", "n"]]


def test_subsample_keeps_every_third():
    mat = np.arange(20).reshape(10, 2)
    sub = subsample_frames(mat, 3)
    assert sub.shape == (4, 2)
    assert np.array_equal(sub, mat[[0, 3, 6, 9]])
    assert np.array_equal(subsample_frames(mat, 1), mat)
    with pytest.raises(DataError):
        subsample_frames(mat, 0)
