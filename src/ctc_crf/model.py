"""Small trainable acoustic model with hand-rolled reverse-mode gradients.

Layers: affine, tanh, and a vanilla recurrent layer (uni- or bidirectional).
A final affine projection to the state alphabet plus log-softmax is always
appended.  Parameters are float64 for clean finite-difference checks;
checkpoints store float32 tensors.
"""
from __future__ import annotations

import json
import os
import struct
from dataclasses import dataclass

import numpy as np

from .dataio import nonfinite
from .errors import DataError, NumericalError

CHECKPOINT_MAGIC = b"ACMD"
CHECKPOINT_VERSION = 1


@dataclass(frozen=True)
class LayerSpec:
    kind: str                     # "affine" | "tanh" | "recurrent"
    size: int | None = None       # output width (affine) or hidden size
    bidirectional: bool = False

    def to_dict(self):
        return {"kind": self.kind, "size": self.size,
                "bidirectional": self.bidirectional}

    @classmethod
    def from_dict(cls, d):
        return cls(d["kind"], d.get("size"), d.get("bidirectional", False))


def _glorot(rng, fan_in, fan_out):
    bound = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-bound, bound, size=(fan_in, fan_out))


class _Affine:
    def __init__(self, din, dout, rng):
        self.params = {"W": _glorot(rng, din, dout), "b": np.zeros(dout)}
        self.grads = {k: np.zeros_like(v) for k, v in self.params.items()}
        self.out_dim = dout
        self._x = None

    def forward(self, x):
        self._x = x
        return x @ self.params["W"] + self.params["b"]

    def backward(self, dy):
        self.grads["W"] += self._x.T @ dy
        self.grads["b"] += dy.sum(axis=0)
        return dy @ self.params["W"].T


class _Tanh:
    params: dict = {}
    grads: dict = {}

    def __init__(self):
        self._y = None

    def forward(self, x):
        self._y = np.tanh(x)
        return self._y

    def backward(self, dy):
        return dy * (1.0 - self._y ** 2)


class _RecurrentDirection:
    """Single-direction tanh recurrence h_t = tanh(Wx x_t + Wh h_{t-1} + b)."""

    def __init__(self, din, hidden, rng, reverse):
        self.params = {
            "Wx": _glorot(rng, din, hidden),
            "Wh": _glorot(rng, hidden, hidden),
            "b": np.zeros(hidden),
        }
        self.grads = {k: np.zeros_like(v) for k, v in self.params.items()}
        self.reverse = reverse
        self.hidden = hidden
        self._xs = None
        self._h = None

    def _in_steps(self, a):
        """The rows of ``a`` in the order the recurrence visits them; being
        its own inverse, it also maps step order back to time order."""
        return a[::-1] if self.reverse else a

    def forward(self, x):
        xs = self._in_steps(x)
        xw = xs @ self.params["Wx"] + self.params["b"]
        h = np.zeros((len(xs) + 1, self.hidden))
        for step in range(len(xs)):
            h[step + 1] = np.tanh(xw[step] + h[step] @ self.params["Wh"])
        self._xs = xs
        self._h = h
        return self._in_steps(h[1:]).copy()

    def backward(self, dy):
        # pre[step] is the gradient at the pre-activation of that step; the
        # weight gradients sum its outer products, done as matmuls after
        # the loop
        dys = self._in_steps(dy)
        pre = np.empty_like(dys)
        carry = np.zeros(self.hidden)
        for step in range(len(dys) - 1, -1, -1):
            pre[step] = (dys[step] + carry) * (1.0 - self._h[step + 1] ** 2)
            carry = pre[step] @ self.params["Wh"].T
        self.grads["Wx"] += self._xs.T @ pre
        self.grads["Wh"] += self._h[:-1].T @ pre
        self.grads["b"] += pre.sum(axis=0)
        return self._in_steps(pre @ self.params["Wx"].T)


class _Recurrent:
    def __init__(self, din, hidden, bidirectional, rng):
        self.fwd = _RecurrentDirection(din, hidden, rng, reverse=False)
        self.bwd = _RecurrentDirection(din, hidden, rng, reverse=True) \
            if bidirectional else None
        self.out_dim = hidden * (2 if bidirectional else 1)
        self.params = {}
        self.grads = {}
        for tag, d in self._directions():
            for k, v in d.params.items():
                self.params[f"{tag}.{k}"] = v
                self.grads[f"{tag}.{k}"] = d.grads[k]

    def _directions(self):
        yield "fwd", self.fwd
        if self.bwd is not None:
            yield "bwd", self.bwd

    def forward(self, x):
        out = self.fwd.forward(x)
        if self.bwd is not None:
            out = np.concatenate([out, self.bwd.forward(x)], axis=1)
        return out

    def backward(self, dy):
        if self.bwd is None:
            return self.fwd.backward(dy)
        h = self.fwd.hidden
        return self.fwd.backward(dy[:, :h]) + self.bwd.backward(dy[:, h:])


def _param_count(input_dim: int, hidden_specs: list[LayerSpec],
                 num_outputs: int) -> int:
    """Parameters a model of these dimensions holds, counted without
    allocating them."""
    total, width = 0, input_dim
    for spec in hidden_specs:
        if spec.kind == "affine":
            total += (width + 1) * spec.size
            width = spec.size
        elif spec.kind == "recurrent":
            directions = 2 if spec.bidirectional else 1
            total += directions * (width + spec.size + 1) * spec.size
            width = directions * spec.size
    return total + (width + 1) * num_outputs


class AcousticModel:
    """Feature matrix -> log-softmax node potentials, with exact gradients."""

    def __init__(self, input_dim: int, hidden_specs: list[LayerSpec],
                 num_outputs: int, seed: int = 0, dropout: float = 0.0):
        if input_dim < 1 or num_outputs < 2:
            raise DataError("bad model dimensions")
        if not 0.0 <= dropout < 1.0:
            raise DataError("dropout must be in [0, 1)")
        self.input_dim = input_dim
        self.num_outputs = num_outputs
        self.hidden_specs = list(hidden_specs)
        self.seed = seed
        self.dropout = dropout
        self._rng = np.random.default_rng(seed)
        self.training = False

        self.layers = []
        width = input_dim
        for spec in self.hidden_specs:
            if spec.kind == "affine":
                layer = _Affine(width, spec.size, self._rng)
                width = spec.size
            elif spec.kind == "tanh":
                layer = _Tanh()
            elif spec.kind == "recurrent":
                layer = _Recurrent(width, spec.size, spec.bidirectional, self._rng)
                width = layer.out_dim
            else:
                raise DataError(f"unknown layer kind {spec.kind!r}")
            self.layers.append(layer)
        self.output = _Affine(width, num_outputs, self._rng)
        self._softmax = None
        self._drop_masks = None

    # -- parameter access ---------------------------------------------------

    def _param_layers(self):
        for i, layer in enumerate(self.layers):
            for name in sorted(layer.params):
                yield f"layer{i}.{name}", layer.params[name], layer.grads[name]
        for name in sorted(self.output.params):
            yield f"out.{name}", self.output.params[name], self.output.grads[name]

    def parameters(self):
        return [(n, p) for n, p, _ in self._param_layers()]

    def gradients(self):
        return [(n, g) for n, _, g in self._param_layers()]

    @property
    def num_params(self) -> int:
        return sum(p.size for _, p in self.parameters())

    def zero_grads(self):
        for _, _, g in self._param_layers():
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
            "specs": [s.to_dict() for s in self.hidden_specs],
            "seed": self.seed,
            "dropout": self.dropout,
            "tensors": [[n, list(p.shape)] for n, p in self.parameters()],
        }
        blob = json.dumps(header, sort_keys=True).encode("utf-8")
        with open(path, "wb") as f:
            f.write(CHECKPOINT_MAGIC)
            f.write(struct.pack("<II", CHECKPOINT_VERSION, len(blob)))
            f.write(blob)
            for _, p in self.parameters():
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
            try:
                header = json.loads(f.read(blob_len).decode("utf-8"))
                specs = [LayerSpec.from_dict(d) for d in header["specs"]]
                size = 4 * _param_count(header["input_dim"], specs,
                                        header["num_outputs"])
                if size > os.fstat(f.fileno()).st_size - f.tell():
                    raise DataError(f"{path}: header claims {size} bytes of "
                                    f"tensors, more than the file holds")
                model = cls(header["input_dim"], specs,
                            header["num_outputs"], seed=header.get("seed", 0),
                            dropout=header.get("dropout", 0.0))
                params = dict(model.parameters())
                tensors = [(name, params[name], list(shape))
                           for name, shape in header["tensors"]]
            except (KeyError, TypeError, ValueError) as exc:
                raise DataError(f"{path}: bad checkpoint header "
                                f"({type(exc).__name__}: {exc})") from None
            named = [name for name, _, _ in tensors]
            for name in params:
                if named.count(name) != 1:
                    raise DataError(f"{path}: the header names tensor {name} "
                                    f"{named.count(name)} times, not once")
            for name, param, shape in tensors:
                if shape != list(param.shape):
                    raise DataError(f"{path}: tensor {name} has shape {shape}, "
                                    f"the model needs {list(param.shape)}")
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
        return [p.copy() for _, p in self.parameters()]

    def restore_state(self, snapshot):
        for (_, p), saved in zip(self.parameters(), snapshot):
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
