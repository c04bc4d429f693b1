"""End-to-end training loop for the sequence-CRF objective."""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .decoder import evaluate_error_rate, greedy_decode
from .errors import DataError, NumericalError, _check_count
from .loss import DenominatorTable, check_alpha, crf_loss
from .model import (_CHECKPOINT_MAX, AcousticModel, Adam, Sgd,
                    _past_checkpoint_range)


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
    """Scale the gradients so that their global norm is at most
    ``max_norm``.  Where the sum of their squares overflows, the norm is
    taken as their largest magnitude times the norm of the gradients
    divided by it, which cannot overflow; elsewhere it is the plain sum's
    square root, bit for bit."""
    total, peak = 0.0, 1.0
    with np.errstate(over="ignore"):
        for _, g in grads:
            total += float(np.sum(g * g))
    if total == math.inf:
        peak = max(float(np.abs(g).max()) for _, g in grads)
        total = sum(float(np.sum((g / peak) ** 2)) for _, g in grads)
    norm = math.sqrt(total)
    # Python floats: a norm past the float range reads inf, with no warning
    if peak * norm > max_norm:
        scale = max_norm / peak / norm
        for _, g in grads:
            g *= scale


def _check_update(params, learning_rate: float) -> None:
    """Raise a DataError naming the learning rate where an update moved a
    parameter past the float32 range a checkpoint stores."""
    name = _past_checkpoint_range(params)
    if name is not None:
        raise DataError(f"learning rate {learning_rate!r} moved {name} "
                        f"past {_CHECKPOINT_MAX:.4g}, the float32 range "
                        f"a checkpoint stores")


def heldout_token_error(model: AcousticModel, heldout, alphabet) -> float:
    hyps, refs = [], []
    for features, labels in heldout:
        post = model.forward(features)
        hyps.append(greedy_decode(post, alphabet))
        refs.append(list(labels))
    return evaluate_error_rate(hyps, refs).rate


def _batch_step(model: AcousticModel, batch, log_pls, den: DenominatorTable,
                alpha: float) -> tuple[np.ndarray, list]:
    """Accumulate into the model's gradients those of the negated mean
    frame-normalized objective of ``batch``, a list of (features, label
    ids), and return the batch's stacked posterior and each utterance's
    frame-normalized objective, or None for a degenerate one.  The model
    runs once, forward and backward, over the batch's frames stacked; the
    loss runs per utterance on its rows, and a degenerate utterance's rows
    carry a zero gradient."""
    lengths = [len(features) for features, _ in batch]
    post = model.forward(np.concatenate([f for f, _ in batch]), lengths)
    upstream = np.zeros_like(post)
    objectives = []
    start = 0
    for (_, labels), log_pl, frames in zip(batch, log_pls, lengths):
        rows = slice(start, start + frames)
        start += frames
        result = crf_loss(post[rows], labels, log_pl, den, alpha=alpha)
        if result.degenerate:
            objectives.append(None)
            continue
        objectives.append(result.objective / frames)
        # ascent on the objective == descent on its negation
        upstream[rows] = -result.grad / (frames * len(batch))
    model.backward(upstream)
    return post, objectives


def train(model: AcousticModel, dataset, den: DenominatorTable,
          log_pls, config: TrainConfig, alphabet,
          heldout=None) -> list[EpochMetrics]:
    """Maximize the mean frame-normalized objective over the dataset.

    ``dataset`` is a list of (features, label ids); ``log_pls`` the matching
    precomputed LM scores.  Each minibatch is one ``_batch_step``: one model
    pass over its stacked frames and one ``crf_loss`` per utterance.
    Deterministic under a fixed seed.  A NaN objective aborts and rolls the
    model back to the end of the last finished epoch.
    """
    if not dataset:
        raise DataError("empty training set")
    if len(log_pls) != len(dataset):
        raise DataError("log_pl list does not match the dataset")
    # checked before any batch is stacked, so an error names the utterance
    for idx, (features, _) in enumerate(dataset):
        if not len(features):
            raise DataError(f"training utterance {idx} has no frames")
        if np.ndim(features) != 2 or np.shape(features)[1] != model.input_dim:
            raise DataError(f"training utterance {idx} has features of shape "
                            f"{np.shape(features)}, the model reads "
                            f"T x {model.input_dim}")
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
                _, objectives = _batch_step(
                    model, [dataset[idx] for idx in batch],
                    [log_pls[idx] for idx in batch], den, config.alpha)
                batch_obj = [obj for obj in objectives if obj is not None]
                degenerate += len(objectives) - len(batch_obj)
                if not batch_obj:
                    continue
                epoch_obj += float(np.sum(batch_obj))
                epoch_utts += len(batch_obj)
                grads = model.gradients()
                if not all(np.isfinite(g).all() for _, g in grads):
                    raise NumericalError("non-finite gradient")
                _clip_gradients(grads, config.clip_norm)
                # an absurd step overflows here, and is named just below
                with np.errstate(over="ignore", invalid="ignore"):
                    optimizer.step(model.parameters(), grads)
                _check_update(model.parameters(), config.learning_rate)
            mean_obj = epoch_obj / epoch_utts if epoch_utts else float("-inf")
            if np.isnan(mean_obj):
                raise NumericalError("NaN objective")
        except (DataError, NumericalError) as exc:
            model.restore_state(snapshot)
            raise type(exc)(
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
