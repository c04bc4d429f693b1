"""Self-tests of the benchmark: seeded inputs are reproducible, corrupted
program outputs are caught, the trace wrappers sit where callers look, and
both modes print exactly the metrics BENCHMARK.json names.

    PYTHONPATH=src python -m pytest -q perfbench
"""
import hashlib
import json
import shutil
import subprocess
import sys
from dataclasses import fields, is_dataclass
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import ctc_crf  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from ctc_crf.symbols import Alphabet  # noqa: E402

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def _digest(obj, h=None):
    h = h or hashlib.sha256()
    if isinstance(obj, np.ndarray):
        h.update(repr((obj.dtype.str, obj.shape)).encode())
        h.update(obj.tobytes())
    elif isinstance(obj, (list, tuple)):
        h.update(b"[")
        for item in obj:
            _digest(item, h)
        h.update(b"]")
    elif isinstance(obj, workloads.UtteranceStream):
        _digest([obj[i] for i in range(5)], h)
    elif isinstance(obj, Alphabet):
        _digest(list(obj.labels), h)
    elif is_dataclass(obj):
        _digest([getattr(obj, f.name) for f in fields(obj)], h)
    elif isinstance(obj, (int, float, str, np.integer, type(None))):
        h.update(repr(obj).encode())
    else:
        raise TypeError(f"cannot digest {type(obj)}")
    return h.hexdigest()


# graph size counts each workload must reproduce, as (low, high) ranges
SIZES = {
    "train-toy": {"loss.den_table.states": (29, 29)},
    "train-large": {"loss.den_table.states": (2700, 3100),
                    "loss.den_table.transitions": (65_000, 80_000)},
    "decode-large": {"wfst.tlg.states": (2700, 3100),
                     "wfst.tlg.arcs": (20_000, 25_000),
                     "wfst.tlg.eps_arcs": (900, 1100)},
}


@pytest.mark.parametrize("name", run.WORKLOAD_NAMES)
def test_inputs_and_graph_sizes_are_deterministic(name):
    workload = workloads.WORKLOADS[name]
    first = workload.inputs(3)
    assert _digest(first) == _digest(workload.inputs(3))
    assert _digest(first) != _digest(workload.inputs(4))
    sizes = workload.sizes(workload.setup(first))
    assert sizes == workload.sizes(workload.setup(workload.inputs(3)))
    for key, (low, high) in SIZES[name].items():
        assert low <= sizes[key] <= high, (key, sizes[key])


def _corrupt(monkeypatch, module, name, change):
    original = getattr(module, name)

    def corrupted(*args, **kwargs):
        return change(original(*args, **kwargs))

    monkeypatch.setattr(module, name, corrupted)


def _shift_objective(delta):
    def change(result):
        result.objective += delta
        return result
    return change


def test_train_outputs_pass_on_the_program():
    toy = workloads.WORKLOADS["train-toy"]
    state = toy.setup(toy.inputs(2))
    assert toy.call(state, 0).failed == 0
    token_error, ok = toy.finish(state)
    assert ok and 0.0 < token_error < 0.2


def test_objective_above_the_crf_bound_fails_the_op(monkeypatch):
    toy = workloads.WORKLOADS["train-toy"]
    state = toy.setup(toy.inputs(2))
    _corrupt(monkeypatch, ctc_crf.training, "crf_loss", _shift_objective(100.0))
    call = toy.call(state, 0)
    assert call.ops > 0 and call.failed == call.ops


def test_objective_off_the_reference_is_caught(monkeypatch):
    toy = workloads.WORKLOADS["train-toy"]
    state = toy.setup(toy.inputs(2))
    # small enough to keep every objective below 0
    _corrupt(monkeypatch, ctc_crf.training, "crf_loss", _shift_objective(-1e-3))
    _, ok = toy.finish(state)
    assert not ok


def test_nondeterministic_training_fails_the_repeat(monkeypatch):
    toy = workloads.WORKLOADS["train-toy"]
    state = toy.setup(toy.inputs(2))
    assert toy.call(state, 0).failed == 0
    _corrupt(monkeypatch, ctc_crf.training, "crf_loss", _shift_objective(-1e-9))
    call = toy.call(state, toy.jobs)  # the same job again
    assert call.failed == call.ops


def _decode_state(monkeypatch, change=None):
    decode = workloads.WORKLOADS["decode-large"]
    state = decode.setup(decode.inputs(2))
    if change is not None:
        _corrupt(monkeypatch, ctc_crf.decoder, "beam_decode", change)
    return decode, state


def test_decode_outputs_pass_on_the_program(monkeypatch):
    decode, state = _decode_state(monkeypatch)
    assert decode.call(state, 0).failed == 0
    token_error, ok = decode.finish(state)
    assert ok and 0.0 <= token_error < 0.5


def test_out_of_range_word_fails_the_op(monkeypatch):
    def change(result):
        result.words = list(result.words) + [99]
        return result
    decode, state = _decode_state(monkeypatch, change)
    assert decode.call(state, 0).failed == 1


def test_hypothesis_off_the_reference_is_caught(monkeypatch):
    def change(result):
        result.words = list(result.words)[:-1]
        return result
    decode, state = _decode_state(monkeypatch, change)
    assert decode.call(state, 0).failed == 0  # still a well-formed output
    _, ok = decode.finish(state)
    assert not ok


def test_wrappers_replace_the_names_callers_resolve():
    tracer = tracing.Tracer()
    originals = (ctc_crf.loss.crf_loss, ctc_crf.training.greedy_decode,
                 ctc_crf.model.AcousticModel.forward)
    with tracer.installed():
        assert ctc_crf.training.crf_loss.__wrapped__ is originals[0]
        assert ctc_crf.loss.crf_loss.__wrapped__ is originals[0]
        assert ctc_crf.crf_loss.__wrapped__ is originals[0]
        assert ctc_crf.training.greedy_decode.__wrapped__ is originals[1]
        toy = workloads.WORKLOADS["train-toy"]
        state = toy.setup(toy.inputs(2))
        toy.register(tracer, state)
        toy.call(state, 0)
    assert (ctc_crf.loss.crf_loss, ctc_crf.training.greedy_decode,
            ctc_crf.model.AcousticModel.forward) == originals
    names = {rec[tracing.NAME]: rec for rec in tracer.spans}
    crf = names["loss.crf_loss"]
    assert tracer.spans[crf[tracing.PARENT]][tracing.NAME] == "training.train"
    assert crf[tracing.UTT].startswith("job0-train-")
    den = names["loss.denominator_forward"]
    assert tracer.spans[den[tracing.PARENT]][tracing.NAME] == "loss.crf_loss"
    self_s = sum(agg["self_s"] for agg in tracer.summary().values())
    assert self_s == pytest.approx(tracer.top_level_s())


def _run(capsys, monkeypatch, tmp_path, workload, trace):
    monkeypatch.setattr(run, "OUT_DIR", tmp_path)
    assert run.main(["--workload", workload, "--seed", "5", "--seconds",
                     "0.5", "--trace", str(trace)]) == 0
    return json.loads(capsys.readouterr().out.splitlines()[-1])


def test_untraced_run_prints_every_end_to_end_metric(capsys, monkeypatch, tmp_path):
    result = _run(capsys, monkeypatch, tmp_path, "train-toy", 0)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    assert set(result["metrics"]) == {e["name"] for e in SPEC["end_to_end"]}
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_traced_run_prints_every_per_layer_metric(capsys, monkeypatch, tmp_path):
    result = _run(capsys, monkeypatch, tmp_path, "train-toy", 1)
    assert result["correct"]
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    assert set(metrics) == {e["name"] for e in SPEC["per_layer"]}
    assert metrics["loss.crf_loss.self_s"] > 0
    assert metrics["loss.denominator_forward.calls"] > 0
    assert metrics["decoder.beam_decode.calls"] == 0
    assert 0 <= metrics["trace.untraced_pct"] < 5
    assert list(tmp_path.glob("trace-train-toy-5.jsonl.gz"))


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / HERE.name,
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, str(tmp_path / HERE.name / "run.py"), "--workload",
         "train-toy", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert "{" not in proc.stdout
