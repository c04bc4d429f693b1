"""End-to-end training loop for the sequence-CRF objective."""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .decoder import evaluate_error_rate, greedy_decode
from .errors import DataError, NumericalError, _check_count
from .loss import DenominatorTable, check_alpha, crf_loss
from .model import AcousticModel, Adam, Sgd


@dataclass
class TrainConfig:
    alpha: float = 0.1
    learning_rate: float = 1e-2
    optimizer: str = "adam"       # "sgd" | "adam"
    epochs: int = 20
    batch_size: int = 8
    seed: int = 0
    clip_norm: float = 5.0

    def __post_init__(self):
        _check_count("epochs", self.epochs)
        _check_count("batch size", self.batch_size)
        # numpy's generators take no negative seed
        _check_count("seed", self.seed, least=0)
        # each check holds for valid values, so NaN, which fails every
        # comparison, fails it.  An infinite clip norm turns clipping off;
        # an infinite step or weight would make the first update non-finite
        if not 0 <= self.learning_rate < np.inf:
            raise DataError("learning rate must be finite and >= 0")
        check_alpha(self.alpha)
        if not self.clip_norm > 0:
            raise DataError("clip norm must be positive")
        if self.optimizer not in ("sgd", "adam"):
            raise DataError(f"unknown optimizer {self.optimizer!r}")


@dataclass
class EpochMetrics:
    epoch: int
    objective: float      # mean frame-normalized objective on training data
    token_error: float    # greedy token error on the held-out split
    degenerate: int = 0


def _make_optimizer(config: TrainConfig):
    if config.optimizer == "sgd":
        return Sgd(config.learning_rate)
    return Adam(config.learning_rate)


def _clip_gradients(grads, max_norm: float) -> None:
    total = 0.0
    for _, g in grads:
        total += float(np.sum(g * g))
    norm = np.sqrt(total)
    if norm > max_norm:
        scale = max_norm / norm
        for _, g in grads:
            g *= scale


def heldout_token_error(model: AcousticModel, heldout, alphabet) -> float:
    hyps, refs = [], []
    for features, labels in heldout:
        post = model.forward(features)
        hyps.append(greedy_decode(post, alphabet))
        refs.append(list(labels))
    return evaluate_error_rate(hyps, refs).rate


def train(model: AcousticModel, dataset, den: DenominatorTable,
          log_pls, config: TrainConfig, alphabet,
          heldout=None) -> list[EpochMetrics]:
    """Maximize the mean frame-normalized objective over the dataset.

    ``dataset`` is a list of (features, label ids); ``log_pls`` the matching
    precomputed LM scores.  Deterministic under a fixed seed.  A NaN
    objective aborts and rolls the model back to the end of the last
    finished epoch.
    """
    if not dataset:
        raise DataError("empty training set")
    if len(log_pls) != len(dataset):
        raise DataError("log_pl list does not match the dataset")
    for idx, (features, _) in enumerate(dataset):
        if not len(features):
            raise DataError(f"training utterance {idx} has no frames")
    heldout = heldout or []
    optimizer = _make_optimizer(config)
    order_rng = np.random.default_rng(config.seed)
    metrics: list[EpochMetrics] = []
    snapshot = model.state_copy()

    for epoch in range(1, config.epochs + 1):
        order = order_rng.permutation(len(dataset))
        epoch_obj = 0.0
        epoch_utts = 0
        degenerate = 0
        model.training = True
        try:
            for lo in range(0, len(order), config.batch_size):
                batch = order[lo:lo + config.batch_size]
                model.zero_grads()
                batch_obj = []
                for idx in batch:
                    features, labels = dataset[idx]
                    post = model.forward(features)
                    result = crf_loss(post, labels, log_pls[idx], den,
                                      alpha=config.alpha)
                    if result.degenerate:
                        degenerate += 1
                        continue
                    frames = len(post)
                    batch_obj.append(result.objective / frames)
                    # ascent on the objective == descent on its negation
                    model.backward(-result.grad / (frames * len(batch)))
                if not batch_obj:
                    continue
                epoch_obj += float(np.sum(batch_obj))
                epoch_utts += len(batch_obj)
                grads = model.gradients()
                if not all(np.isfinite(g).all() for _, g in grads):
                    raise NumericalError("non-finite gradient")
                _clip_gradients(grads, config.clip_norm)
                optimizer.step(model.parameters(), grads)
            mean_obj = epoch_obj / epoch_utts if epoch_utts else float("-inf")
            if np.isnan(mean_obj):
                raise NumericalError("NaN objective")
        except NumericalError as exc:
            model.restore_state(snapshot)
            raise NumericalError(
                f"{exc} in epoch {epoch}; model restored to the last "
                f"finished epoch") from None
        finally:
            model.training = False

        snapshot = model.state_copy()
        err = heldout_token_error(model, heldout, alphabet) if heldout else float("nan")
        metrics.append(EpochMetrics(epoch, mean_obj, err, degenerate))
    return metrics


def write_metrics(path, metrics: list[EpochMetrics]) -> None:
    with open(path, "w", encoding="utf-8") as f:
        for m in metrics:
            f.write(f"{m.epoch}\t{m.objective:.12g}\t{m.token_error:.6g}\n")
