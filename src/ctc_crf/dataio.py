"""On-disk formats: binary matrices, label files, manifests, score caches."""
from __future__ import annotations

import struct
from pathlib import Path

import numpy as np

from .errors import DataError

MATRIX_MAGIC = b"CATM"


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
        raw = f.read(4 * rows * cols)
        if len(raw) != 4 * rows * cols:
            raise DataError(f"{path}: truncated matrix")
    return np.frombuffer(raw, dtype="<f4").reshape(rows, cols).astype(np.float64)


def write_logpl(path, scores: dict[str, float]) -> None:
    """Sequence-score cache: utterance id and natural-log value per line."""
    with open(path, "w", encoding="utf-8") as f:
        for utt in sorted(scores):
            f.write(f"{utt}\t{scores[utt]:.12g}\n")


def read_logpl(path) -> dict[str, float]:
    out = {}
    with open(path, encoding="utf-8") as f:
        for ln, line in enumerate(f, 1):
            line = line.rstrip("\n")
            if not line:
                continue
            parts = line.split("\t")
            if len(parts) != 2:
                raise DataError(f"{path}: bad cache line {ln}")
            try:
                out[parts[0]] = float(parts[1])
            except ValueError:
                raise DataError(f"{path}: bad score on line {ln}") from None
    return out


def read_labels_file(path) -> dict[str, list[str]]:
    """``utt-id<TAB>label label ...`` per line."""
    out = {}
    with open(path, encoding="utf-8") as f:
        for ln, line in enumerate(f, 1):
            line = line.rstrip("\n")
            if not line:
                continue
            parts = line.split("\t")
            if len(parts) != 2:
                raise DataError(f"{path}: bad labels line {ln}")
            out[parts[0]] = parts[1].split()
    return out


def write_labels_file(path, labels: dict[str, list[str]]) -> None:
    with open(path, "w", encoding="utf-8") as f:
        for utt in sorted(labels):
            f.write(f"{utt}\t{' '.join(labels[utt])}\n")


def write_manifest(path, entries: list[tuple[str, int, str, list[str]]]) -> None:
    """Rows of (utterance id, frames, feature path, labels)."""
    with open(path, "w", encoding="utf-8") as f:
        for utt, frames, feat_path, labels in entries:
            f.write(f"{utt}\t{frames}\t{feat_path}\t{' '.join(labels)}\n")


def read_manifest(path) -> list[tuple[str, int, str, list[str]]]:
    out = []
    with open(path, encoding="utf-8") as f:
        for ln, line in enumerate(f, 1):
            line = line.rstrip("\n")
            if not line:
                continue
            parts = line.split("\t")
            if len(parts) != 4:
                raise DataError(f"{path}: bad manifest line {ln}")
            try:
                frames = int(parts[1])
            except ValueError:
                raise DataError(f"{path}: bad frame count on line {ln}") from None
            out.append((parts[0], frames, parts[2], parts[3].split()))
    return out


def read_lexicon(path) -> dict[str, list[list[str]]]:
    """``word<TAB>label label ...``; repeated words add pronunciations."""
    out: dict[str, list[list[str]]] = {}
    with open(path, encoding="utf-8") as f:
        for ln, line in enumerate(f, 1):
            line = line.rstrip("\n")
            if not line:
                continue
            parts = line.split("\t")
            if len(parts) != 2:
                raise DataError(f"{path}: bad lexicon line {ln}")
            out.setdefault(parts[0], []).append(parts[1].split())
    return out


def write_hyps(path, hyps: dict[str, list[str]]) -> None:
    with open(path, "w", encoding="utf-8") as f:
        for utt in sorted(hyps):
            f.write(f"{utt}\t{' '.join(hyps[utt])}\n")


def read_hyps(path) -> dict[str, list[str]]:
    out = {}
    with open(path, encoding="utf-8") as f:
        for ln, line in enumerate(f, 1):
            line = line.rstrip("\n")
            if not line:
                continue
            parts = line.split("\t")
            if len(parts) == 1:
                out[parts[0]] = []
            elif len(parts) == 2:
                out[parts[0]] = parts[1].split()
            else:
                raise DataError(f"{path}: bad hypothesis line {ln}")
    return out


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
