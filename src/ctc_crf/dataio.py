"""On-disk formats: binary matrices, label files, manifests, score caches,
and the one reader every line-oriented text format goes through."""
from __future__ import annotations

import io
import os
import struct
from pathlib import Path
from typing import Callable

import numpy as np

from .errors import DataError

MATRIX_MAGIC = b"CATM"


def nonfinite(values, allow_neg_inf: bool = False):
    """Where ``values`` (a float or an array) holds a number no input file
    may hold: NaN, +inf, and -inf unless ``allow_neg_inf``, for the weights
    whose semiring zero is -inf.  A float gives a bool, an array a mask."""
    return ((values != values) | (values == np.inf)
            | ((values == -np.inf) & (not allow_neg_inf)))


def write_matrix(path, matrix) -> None:
    """Binary matrix: magic, u32 rows, u32 cols, row-major f32 little-endian."""
    arr = np.ascontiguousarray(matrix, dtype="<f4")
    if arr.ndim != 2:
        raise DataError("matrix must be 2-D")
    with open(path, "wb") as f:
        f.write(MATRIX_MAGIC)
        f.write(struct.pack("<II", arr.shape[0], arr.shape[1]))
        f.write(arr.tobytes(order="C"))


def read_matrix(path) -> np.ndarray:
    with open(path, "rb") as f:
        magic = f.read(4)
        if magic != MATRIX_MAGIC:
            raise DataError(f"{path}: bad matrix magic {magic!r}")
        header = f.read(8)
        if len(header) != 8:
            raise DataError(f"{path}: truncated matrix header")
        rows, cols = struct.unpack("<II", header)
        if 4 * rows * cols > os.fstat(f.fileno()).st_size - f.tell():
            raise DataError(f"{path}: truncated matrix")
        raw = f.read(4 * rows * cols)
    matrix = np.frombuffer(raw, dtype="<f4").reshape(rows, cols)
    matrix = matrix.astype(np.float64)
    bad = nonfinite(matrix)
    if bad.any():
        row = int(np.argmax(bad.any(axis=1)))
        value = matrix[row][bad[row]][0]
        raise DataError(f"{path}: row {row + 1}: value {value} is not finite")
    return matrix


def read_lines(path, parse: Callable[[str], object]) -> list:
    """``parse(line)`` for each line of a UTF-8 text file that is not empty
    once its newline is removed, in file order.

    Newlines are universal, so a CRLF file reads like an LF file.  Parsers
    unpack their fields (``utt, score = line.split("\\t")``), so a wrong
    field count is a ValueError like a bad number.  A byte sequence that is
    not UTF-8, or a ValueError from ``parse``, raises a DataError naming the
    file and the line.
    """
    raw = Path(path).read_bytes()
    try:
        text = raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        ln = raw.count(b"\n", 0, exc.start) + 1
        raise DataError(f"{path}: line {ln}: not UTF-8 "
                        f"({exc.reason} at byte {exc.start})") from None
    out = []
    for ln, line in enumerate(io.StringIO(text, newline=None), 1):
        line = line.rstrip("\n")
        if line:
            try:
                out.append(parse(line))
            except ValueError as exc:
                raise DataError(f"{path}: line {ln}: {exc}") from None
    return out


def write_logpl(path, scores: dict[str, float]) -> None:
    """Sequence-score cache: utterance id and natural-log value per line."""
    with open(path, "w", encoding="utf-8") as f:
        for utt in sorted(scores):
            f.write(f"{utt}\t{scores[utt]:.12g}\n")


def read_logpl(path) -> dict[str, float]:
    def entry(line):
        utt, score = line.split("\t")
        value = float(score)
        if nonfinite(value):
            raise ValueError(f"score {score} is not finite")
        return utt, value
    return dict(read_lines(path, entry))


def _keyed_labels(line):
    key, labels = line.split("\t")
    return key, labels.split()


def read_labels_file(path) -> dict[str, list[str]]:
    """``utt-id<TAB>label label ...`` per line."""
    return dict(read_lines(path, _keyed_labels))


def write_labels_file(path, labels: dict[str, list[str]]) -> None:
    """``utt-id<TAB>label label ...`` per line, sorted by utterance id."""
    with open(path, "w", encoding="utf-8") as f:
        for utt in sorted(labels):
            f.write(f"{utt}\t{' '.join(labels[utt])}\n")


def write_manifest(path, entries: list[tuple[str, int, str, list[str]]]) -> None:
    """Rows of (utterance id, frames, feature path, labels)."""
    with open(path, "w", encoding="utf-8") as f:
        for utt, frames, feat_path, labels in entries:
            f.write(f"{utt}\t{frames}\t{feat_path}\t{' '.join(labels)}\n")


def read_manifest(path) -> list[tuple[str, int, str, list[str]]]:
    def entry(line):
        utt, frames, feat_path, labels = line.split("\t")
        return utt, int(frames), feat_path, labels.split()
    return read_lines(path, entry)


def read_lexicon(path) -> dict[str, list[list[str]]]:
    """``word<TAB>label label ...``; repeated words add pronunciations."""
    out: dict[str, list[list[str]]] = {}
    for word, labels in read_lines(path, _keyed_labels):
        out.setdefault(word, []).append(labels)
    return out


# hypotheses share the labels format
write_hyps = write_labels_file


def read_hyps(path) -> dict[str, list[str]]:
    """Like a labels file, but an empty hypothesis may drop its tab."""
    def entry(line):
        utt, _, words = line.partition("\t")
        if "\t" in words:
            raise ValueError("more than two fields")
        return utt, words.split()
    return dict(read_lines(path, entry))


def subsample_frames(matrix: np.ndarray, factor: int) -> np.ndarray:
    """Keep every ``factor``-th frame starting at index 0."""
    if factor < 1:
        raise DataError("subsample factor must be >= 1")
    return np.ascontiguousarray(matrix[::factor])


def ensure_dir(path) -> Path:
    p = Path(path)
    try:
        p.mkdir(parents=True)
    except FileExistsError:
        pass
    return p
