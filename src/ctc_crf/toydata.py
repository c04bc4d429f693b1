"""Synthetic desk-scale dataset: noisy one-hot features of a hidden state
sequence.  The generator doubles as the oracle when judging decoders and the
training loop, because the target labels are exactly the collapsed state
sequence the features encode.
"""
from __future__ import annotations

import argparse
from pathlib import Path

import numpy as np

from .dataio import ensure_dir, write_labels_file, write_matrix
from .symbols import Alphabet

DEFAULT_LABELS = ("ae", "ih", "k", "s", "t")


def default_alphabet() -> Alphabet:
    return Alphabet(DEFAULT_LABELS)


def generate_utterance(rng, alphabet: Alphabet, feature_dim: int = 8,
                       noise: float = 0.25,
                       min_labels: int = 2, max_labels: int = 6):
    """One utterance: (features, label ids, state sequence).

    A random label sequence is expanded into a frame-level state sequence
    with random label durations and optional blank runs; equal neighbours
    always get a separating blank.  Features are the one-hot encoding of the
    per-frame state, zero-padded to ``feature_dim``, plus Gaussian noise.
    """
    n_labels = rng.integers(min_labels, max_labels + 1)
    labels = [int(rng.integers(1, len(alphabet) + 1)) for _ in range(n_labels)]
    pi: list[int] = []
    pi.extend([0] * int(rng.integers(0, 3)))
    prev = None
    for lab in labels:
        if prev is not None:
            gap = int(rng.integers(0, 3))
            if lab == prev and gap == 0:
                gap = 1
            pi.extend([0] * gap)
        pi.extend([lab] * int(rng.integers(1, 4)))
        prev = lab
    pi.extend([0] * int(rng.integers(0, 3)))

    width = alphabet.num_state_symbols
    if feature_dim < width:
        raise ValueError("feature_dim must cover the state alphabet")
    feats = np.zeros((len(pi), feature_dim))
    feats[np.arange(len(pi)), pi] = 1.0
    feats += rng.normal(0.0, noise, size=feats.shape)
    return feats, labels, pi


def generate_dataset(num_train: int = 200, num_heldout: int = 50,
                     seed: int = 7, feature_dim: int = 8,
                     noise: float = 0.25, alphabet: Alphabet | None = None):
    """(train, heldout) lists of (features, label ids)."""
    alphabet = alphabet or default_alphabet()
    rng = np.random.default_rng(seed)
    data = []
    for _ in range(num_train + num_heldout):
        feats, labels, _ = generate_utterance(rng, alphabet, feature_dim, noise)
        data.append((feats, labels))
    return data[:num_train], data[num_train:], alphabet


def write_dataset(out_dir, num_train: int = 200, num_heldout: int = 50,
                  seed: int = 7, feature_dim: int = 8, noise: float = 0.25):
    """Materialize a ready-to-run data directory for the command-line tools:
    ``alphabet.txt``, ``feats/``, ``corpus.txt`` (the training labels), the
    labels of each split in ``train-labels.tsv`` and ``dev-labels.tsv``, and
    of both in ``labels.tsv``."""
    out = ensure_dir(out_dir)
    train, heldout, alphabet = generate_dataset(num_train, num_heldout, seed,
                                                feature_dim, noise)
    alphabet.write(out / "alphabet.txt")
    feat_dir = ensure_dir(out / "feats")
    labels: dict[str, list[str]] = {}
    corpus_lines = []
    for split, items in (("train", train), ("dev", heldout)):
        split_labels: dict[str, list[str]] = {}
        for i, (feats, lab_ids) in enumerate(items):
            utt = f"{split}-{i:04d}"
            write_matrix(feat_dir / f"{utt}.mat", feats)
            names = [alphabet.state_name(l) for l in lab_ids]
            split_labels[utt] = names
            if split == "train":
                corpus_lines.append(" ".join(names))
        write_labels_file(out / f"{split}-labels.tsv", split_labels)
        labels.update(split_labels)
    write_labels_file(out / "labels.tsv", labels)
    with open(out / "corpus.txt", "w", encoding="utf-8") as f:
        f.write("\n".join(corpus_lines) + "\n")
    return out


def main(argv=None):
    parser = argparse.ArgumentParser(
        description="generate the synthetic toy dataset")
    parser.add_argument("out_dir", type=Path)
    parser.add_argument("--num-train", type=int, default=200)
    parser.add_argument("--num-heldout", type=int, default=50)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--noise", type=float, default=0.25)
    args = parser.parse_args(argv)
    write_dataset(args.out_dir, args.num_train, args.num_heldout, args.seed,
                  noise=args.noise)


if __name__ == "__main__":
    main()
