"""Small trainable acoustic model with hand-rolled reverse-mode gradients.

Layers: affine, tanh, and a vanilla recurrent layer (uni- or bidirectional).
A final affine projection to the state alphabet plus log-softmax is always
appended.  Parameters are float64 for clean finite-difference checks;
checkpoints store float32 tensors.
"""
from __future__ import annotations

import json
import math
import operator
import os
import struct
from collections import Counter
from dataclasses import asdict, dataclass

import numpy as np

from .dataio import nonfinite
from .errors import DataError, NumericalError, _check_count

CHECKPOINT_MAGIC = b"ACMD"
CHECKPOINT_VERSION = 1


@dataclass(frozen=True)
class LayerSpec:
    kind: str                     # "affine" | "tanh" | "recurrent"
    size: int | None = None       # output width (affine) or hidden size
    bidirectional: bool = False

    def __post_init__(self):
        if self.kind not in ("affine", "tanh", "recurrent"):
            raise DataError(f"unknown layer kind {self.kind!r}")
        if self.kind != "tanh":
            _check_count(f"{self.kind} layer size", self.size)


def _layout(input_dim, hidden_specs, num_outputs):
    """Each layer's ``(prefix, kind, [(name, shape), ...])``, the hidden
    layers and then the output projection, with each layer's parameters in
    the order the initialiser draws them.  The one place that decides a
    model's parameters; it allocates none of them."""
    _check_count("model input width", input_dim)
    _check_count("model outputs", num_outputs, least=2)
    layout, width = [], input_dim
    for i, spec in enumerate([*hidden_specs, LayerSpec("affine", num_outputs)]):
        size = spec.size
        if spec.kind == "affine":
            shapes = [("W", (width, size)), ("b", (size,))]
        elif spec.kind == "recurrent":
            tags = ("fwd", "bwd") if spec.bidirectional else ("fwd",)
            shapes = [(f"{tag}.{name}", shape) for tag in tags
                      for name, shape in (("Wx", (width, size)),
                                          ("Wh", (size, size)),
                                          ("b", (size,)))]
            size *= len(tags)
        else:
            shapes, size = [], width
        prefix = "out." if i == len(hidden_specs) else f"layer{i}."
        layout.append((prefix, spec.kind, shapes))
        width = size
    return layout


def _initial(rng, shape):
    """A weight is Glorot-uniform over (fan_in, fan_out) (Glorot and Bengio,
    2010); a bias starts at zero."""
    if len(shape) == 1:
        return np.zeros(shape)
    bound = np.sqrt(6.0 / sum(shape))
    return rng.uniform(-bound, bound, size=shape)


class _Layer:
    def __init__(self, params, grads):
        self.params = params
        self.grads = grads


class _Affine(_Layer):
    def forward(self, x):
        self._x = x
        return x @ self.params["W"] + self.params["b"]

    def backward(self, dy):
        self.grads["W"] += self._x.T @ dy
        self.grads["b"] += dy.sum(axis=0)
        return dy @ self.params["W"].T


class _Tanh(_Layer):
    def forward(self, x):
        self._y = np.tanh(x)
        return self._y

    def backward(self, dy):
        return dy * (1.0 - self._y ** 2)


def _in_steps(a, tag):
    """The rows of ``a`` in the order direction ``tag`` visits them; being
    its own inverse, it also maps step order back to time order."""
    return a[::-1] if tag == "bwd" else a


class _Recurrent(_Layer):
    """The tanh recurrence h_t = tanh(Wx x_t + Wh h_{t-1} + b) run over the
    frames in time order ("fwd") and, when bidirectional, in reverse order
    with its own weights ("bwd"); the outputs are concatenated."""

    def __init__(self, params, grads):
        super().__init__(params, grads)
        self.tags = ("fwd", "bwd") if "bwd.b" in params else ("fwd",)
        self.hidden = len(params["fwd.b"])

    def forward(self, x):
        self._x = x
        self._h = {}
        outs = []
        for tag in self.tags:
            xs = _in_steps(x, tag)
            xw = xs @ self.params[f"{tag}.Wx"] + self.params[f"{tag}.b"]
            wh = self.params[f"{tag}.Wh"]
            h = np.zeros((len(xs) + 1, self.hidden))
            for step in range(len(xs)):
                h[step + 1] = np.tanh(xw[step] + h[step] @ wh)
            self._h[tag] = h
            outs.append(_in_steps(h[1:], tag))
        return np.concatenate(outs, axis=1)

    def backward(self, dy):
        # pre[step] is the gradient at the pre-activation of that step; the
        # weight gradients sum its outer products, done as matmuls after
        # the loop
        dxs = []
        for i, tag in enumerate(self.tags):
            dys = _in_steps(dy[:, i * self.hidden:(i + 1) * self.hidden], tag)
            h = self._h[tag]
            wh = self.params[f"{tag}.Wh"]
            pre = np.empty_like(dys)
            carry = np.zeros(self.hidden)
            for step in range(len(dys) - 1, -1, -1):
                pre[step] = (dys[step] + carry) * (1.0 - h[step + 1] ** 2)
                carry = pre[step] @ wh.T
            self.grads[f"{tag}.Wx"] += _in_steps(self._x, tag).T @ pre
            self.grads[f"{tag}.Wh"] += h[:-1].T @ pre
            self.grads[f"{tag}.b"] += pre.sum(axis=0)
            dxs.append(_in_steps(pre @ self.params[f"{tag}.Wx"].T, tag))
        return sum(dxs[1:], dxs[0])


_LAYERS = {"affine": _Affine, "tanh": _Tanh, "recurrent": _Recurrent}


class AcousticModel:
    """Feature matrix -> log-softmax node potentials, with exact gradients."""

    def __init__(self, input_dim: int, hidden_specs: list[LayerSpec],
                 num_outputs: int, seed: int = 0, dropout: float = 0.0):
        layout = _layout(input_dim, hidden_specs, num_outputs)
        if not 0.0 <= dropout < 1.0:
            raise DataError("dropout must be in [0, 1)")
        self.input_dim = input_dim
        self.num_outputs = num_outputs
        self.hidden_specs = list(hidden_specs)
        self.seed = seed
        self.dropout = dropout
        self._rng = np.random.default_rng(seed)
        self.training = False

        # (name, parameter, gradient), each layer's names sorted: the order
        # of parameters() and of a checkpoint's tensors
        self._tensors = []
        self.layers = []
        for prefix, kind, shapes in layout:
            params = {name: _initial(self._rng, shape) for name, shape in shapes}
            grads = {name: np.zeros_like(p) for name, p in params.items()}
            self._tensors += [(prefix + name, params[name], grads[name])
                              for name in sorted(params)]
            self.layers.append(_LAYERS[kind](params, grads))
        self.output = self.layers.pop()
        self._softmax = None
        self._drop_masks = None

    # -- parameter access ---------------------------------------------------

    def parameters(self):
        return [(n, p) for n, p, _ in self._tensors]

    def gradients(self):
        return [(n, g) for n, _, g in self._tensors]

    @property
    def num_params(self) -> int:
        return sum(p.size for _, p, _ in self._tensors)

    def zero_grads(self):
        for _, _, g in self._tensors:
            g[...] = 0.0

    # -- forward / backward --------------------------------------------------

    def forward(self, features) -> np.ndarray:
        """The T x W log-softmax over the state alphabet of T frames."""
        x = np.ascontiguousarray(features, dtype=np.float64)
        if x.ndim != 2 or x.shape[1] != self.input_dim:
            raise DataError(
                f"features must be T x {self.input_dim}, got {x.shape}")
        self._drop_masks = []
        for layer in self.layers:
            x = layer.forward(x)
            if (isinstance(layer, _Recurrent) and self.dropout > 0.0
                    and self.training):
                mask = (self._rng.random(x.shape) >= self.dropout) / (1.0 - self.dropout)
                self._drop_masks.append(mask)
                x = x * mask
            else:
                self._drop_masks.append(None)
        logits = self.output.forward(x)
        if not np.isfinite(logits).all():
            raise NumericalError("model produced non-finite outputs")
        shifted = logits - logits.max(axis=1, keepdims=True)
        log_norm = np.log(np.exp(shifted).sum(axis=1, keepdims=True))
        log_probs = shifted - log_norm
        self._softmax = np.exp(log_probs)
        return log_probs

    def backward(self, upstream) -> None:
        """Accumulate parameter gradients for the most recent forward."""
        dy = np.ascontiguousarray(upstream, dtype=np.float64)
        if self._softmax is None or dy.shape != self._softmax.shape:
            raise DataError("backward shape does not match the last forward")
        if not np.isfinite(dy).all():
            raise NumericalError("non-finite upstream gradient")
        # log-softmax jacobian
        dlogits = dy - self._softmax * dy.sum(axis=1, keepdims=True)
        dx = self.output.backward(dlogits)
        for layer, mask in zip(reversed(self.layers), reversed(self._drop_masks)):
            if mask is not None:
                dx = dx * mask
            dx = layer.backward(dx)

    # -- checkpointing --------------------------------------------------------

    def save(self, path) -> None:
        header = {
            "input_dim": self.input_dim,
            "num_outputs": self.num_outputs,
            "specs": [asdict(s) for s in self.hidden_specs],
            "seed": self.seed,
            "dropout": self.dropout,
            "tensors": [[n, list(p.shape)] for n, p, _ in self._tensors],
        }
        # a numpy integer, which the counts may be, is written as an int
        blob = json.dumps(header, sort_keys=True,
                          default=operator.index).encode("utf-8")
        with open(path, "wb") as f:
            f.write(CHECKPOINT_MAGIC)
            f.write(struct.pack("<II", CHECKPOINT_VERSION, len(blob)))
            f.write(blob)
            for _, p, _ in self._tensors:
                f.write(p.astype("<f4").tobytes(order="C"))

    @classmethod
    def load(cls, path) -> "AcousticModel":
        with open(path, "rb") as f:
            magic = f.read(4)
            if magic != CHECKPOINT_MAGIC:
                raise DataError(f"{path}: not a checkpoint file")
            fixed = f.read(8)
            if len(fixed) != 8:
                raise DataError(f"{path}: truncated checkpoint header")
            version, blob_len = struct.unpack("<II", fixed)
            if version != CHECKPOINT_VERSION:
                raise DataError(f"{path}: unsupported checkpoint version {version}")
            if blob_len > os.fstat(f.fileno()).st_size - f.tell():
                raise DataError(f"{path}: truncated checkpoint header")
            # the header is checked against the model's layout before
            # anything is allocated; an error names the file
            try:
                header = json.loads(f.read(blob_len).decode("utf-8"))
                specs = [LayerSpec(**d) for d in header["specs"]]
                shapes = {prefix + name: list(shape)
                          for prefix, _, layer in _layout(
                              header["input_dim"], specs, header["num_outputs"])
                          for name, shape in layer}
                size = 4 * sum(math.prod(s) for s in shapes.values())
                if size > os.fstat(f.fileno()).st_size - f.tell():
                    raise DataError(f"header claims {size} bytes of tensors, "
                                    f"more than the file holds")
                tensors = [(name, list(shape), shapes[name])
                           for name, shape in header["tensors"]]
                named = Counter(name for name, _, _ in tensors)
                for name in shapes:
                    if named[name] != 1:
                        raise DataError(f"the header names tensor {name} "
                                        f"{named[name]} times, not once")
                for name, shape, want in tensors:
                    if shape != want:
                        raise DataError(f"tensor {name} has shape {shape}, "
                                        f"the model needs {want}")
                model = cls(header["input_dim"], specs,
                            header["num_outputs"], seed=header.get("seed", 0),
                            dropout=header.get("dropout", 0.0))
            except DataError as exc:
                raise DataError(f"{path}: {exc}") from None
            except (KeyError, TypeError, ValueError) as exc:
                raise DataError(f"{path}: bad checkpoint header "
                                f"({type(exc).__name__}: {exc})") from None
            params = dict(model.parameters())
            for name, _, _ in tensors:
                param = params[name]
                raw = f.read(4 * param.size)
                if len(raw) != 4 * param.size:
                    raise DataError(f"{path}: truncated tensor {name}")
                arr = np.frombuffer(raw, dtype="<f4").astype(np.float64)
                bad = nonfinite(arr)
                if bad.any():
                    raise DataError(f"{path}: tensor {name} holds "
                                    f"{arr[bad][0]}, which is not finite")
                param[...] = arr.reshape(param.shape)
        return model

    def state_copy(self):
        return [p.copy() for _, p, _ in self._tensors]

    def restore_state(self, snapshot):
        for (_, p, _), saved in zip(self._tensors, snapshot):
            p[...] = saved


# ---------------------------------------------------------------------------
# Optimizers
# ---------------------------------------------------------------------------

class Sgd:
    def __init__(self, lr: float):
        self.lr = lr

    def step(self, params, grads):
        for (_, p), (_, g) in zip(params, grads):
            p -= self.lr * g


class Adam:
    def __init__(self, lr: float, beta1: float = 0.9, beta2: float = 0.999,
                 eps: float = 1e-8):
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.t = 0
        self.m: dict[str, np.ndarray] = {}
        self.v: dict[str, np.ndarray] = {}

    def step(self, params, grads):
        self.t += 1
        b1, b2 = self.beta1, self.beta2
        for (name, p), (_, g) in zip(params, grads):
            m = self.m.setdefault(name, np.zeros_like(p))
            v = self.v.setdefault(name, np.zeros_like(p))
            m[...] = m * b1 + (1 - b1) * g
            v[...] = v * b2 + (1 - b2) * g * g
            m_hat = m / (1 - b1 ** self.t)
            v_hat = v / (1 - b2 ** self.t)
            p -= self.lr * m_hat / (np.sqrt(v_hat) + self.eps)
