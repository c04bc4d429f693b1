"""Spans around the calls into the ctc_crf layers, for the traced run.

``Tracer.install`` wraps every public function of the layer modules, and the
model's forward, backward and optimizer steps, at each name a caller
resolves: ``training`` imports ``crf_loss`` and ``greedy_decode`` by name, so
``ctc_crf.training.crf_loss`` is replaced as well as ``ctc_crf.loss.crf_loss``.
A span records its name, start, end, parent span and utterance id.  Spans are
kept in memory and written out once, by ``dump``, when the run ends.
"""
from __future__ import annotations

import gzip
import inspect
import json
import sys
import time
from contextlib import contextmanager

import numpy as np

LAYERS = ("wfst", "lm", "loss", "model", "training", "decoder")
METHODS = {
    ("AcousticModel", "forward"): "model.forward",
    ("AcousticModel", "backward"): "model.backward",
    ("Adam", "step"): "model.optimizer",
    ("Sgd", "step"): "model.optimizer",
}
# spans that count the frames of their first argument (a posterior or
# feature matrix)
FRAME_COUNTED = {"loss.denominator_forward", "loss.numerator_forward",
                 "decoder.beam_decode", "model.forward"}

NAME, START, END, PARENT, UTT, FRAMES, ARCS = range(7)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._utt_of: dict[int, str] = {}
        self._patches: list[tuple[object, str, object]] = []

    def register(self, utt: str, *objects) -> None:
        """Tag input objects (feature matrices, label lists) with an
        utterance id; a span whose arguments include one carries that id,
        other spans inherit their parent's.  The objects must stay alive."""
        for obj in objects:
            self._utt_of[id(obj)] = utt

    @contextmanager
    def span(self, name: str, utt: str | None = None):
        rec = self._open(name, utt, 0, 0)
        try:
            yield
        finally:
            self._close(rec)

    def _open(self, name, utt, frames, arcs):
        parent = self._stack[-1] if self._stack else None
        if utt is None and parent is not None:
            utt = self.spans[parent][UTT]
        rec = [name, 0, 0, parent, utt, frames, arcs]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        rec[START] = time.perf_counter_ns()
        return rec

    def _close(self, rec):
        rec[END] = time.perf_counter_ns()
        self._stack.pop()

    def _wrap(self, name: str, fn, is_method: bool):
        tracer = self

        def wrapper(*args, **kwargs):
            data = args[1:] if is_method else args
            utt = None
            for obj in data[:3]:
                utt = tracer._utt_of.get(id(obj))
                if utt is not None:
                    break
            frames = np.shape(data[0])[0] if name in FRAME_COUNTED else 0
            arcs = (frames * getattr(data[1], "num_transitions", 0)
                    if name == "loss.denominator_forward" else 0)
            rec = tracer._open(name, utt, frames, arcs)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer._close(rec)

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self) -> None:
        wrappers = {}
        for layer in LAYERS:
            module = sys.modules[f"ctc_crf.{layer}"]
            for attr, obj in vars(module).items():
                if (inspect.isfunction(obj) and not attr.startswith("_")
                        and obj.__module__ == module.__name__):
                    wrappers[obj] = self._wrap(f"{layer}.{attr}", obj, False)
        for modname, module in list(sys.modules.items()):
            if modname != "ctc_crf" and not modname.startswith("ctc_crf."):
                continue
            for attr, obj in list(vars(module).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    self._patch(module, attr, wrappers[obj])
        model = sys.modules["ctc_crf.model"]
        for (cls_name, method), span_name in METHODS.items():
            cls = getattr(model, cls_name)
            self._patch(cls, method,
                        self._wrap(span_name, getattr(cls, method), True))

    def _patch(self, owner, attr, replacement) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    @contextmanager
    def installed(self):
        self.install()
        try:
            yield
        finally:
            self.uninstall()

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, total and self seconds, frames and
        arc-frames.  Self time is a span's duration minus its children's."""
        child = [0] * len(self.spans)
        for rec in self.spans:
            if rec[PARENT] is not None:
                child[rec[PARENT]] += rec[END] - rec[START]
        out: dict[str, dict[str, float]] = {}
        for i, rec in enumerate(self.spans):
            agg = out.setdefault(rec[NAME], {"calls": 0, "total_s": 0.0,
                                             "self_s": 0.0, "frames": 0,
                                             "arc_frames": 0})
            dur = rec[END] - rec[START]
            agg["calls"] += 1
            agg["total_s"] += dur * 1e-9
            agg["self_s"] += (dur - child[i]) * 1e-9
            agg["frames"] += rec[FRAMES]
            agg["arc_frames"] += rec[ARCS]
        return out

    def top_level_s(self, since: int = 0) -> float:
        """Summed duration of the spans without a parent, from index
        ``since`` on."""
        return sum(rec[END] - rec[START] for rec in self.spans[since:]
                   if rec[PARENT] is None) * 1e-9

    def dump(self, path) -> None:
        """Write the spans as gzipped JSON lines:
        name, start_ns, end_ns, parent index, utterance id."""
        with gzip.open(path, "wt", encoding="utf-8") as f:
            for rec in self.spans:
                f.write(json.dumps(rec[:FRAMES]) + "\n")
