"""Benchmark of the ctc-crf engine: train-toy, train-large and decode-large.

    python3 perfbench/run.py --workload train-toy --seed 1 --seconds 25 --trace 0

Run from the root of a checkout; the package is imported from ``src/``.
Inputs come from ``--seed`` alone.  With ``--trace 0`` the run measures the
end-to-end metrics with tracing off; with ``--trace 1`` it measures the same
calls untraced and then traced, and reports the per-layer metrics.  The last
line of standard output is one JSON object; lines before it starting with
``#`` are for people.  ``--workload all`` runs every workload in turn, each
in its own process.
"""
from __future__ import annotations

import os

# BLAS pinned to one thread before numpy is imported
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import gc
import json
import math
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT_DIR = HERE / "out"
SETUP_REPEATS = 7
FRAME_SHIFT_S = 0.01
WORKLOAD_NAMES = ("train-toy", "train-large", "decode-large")

# ROADMAP baselines, 2-core box, large scale at T=1000
BASELINES = {
    "loss.denominator_forward.s_per_1k_frames": (8.0, "s"),
    "decoder.beam_decode.s_per_1k_frames": (2.4, "s"),
    "loss.numerator_forward.ms_per_1k_frames": (49.0, "ms"),
}


def percentile(values, q):
    ordered = sorted(values)
    if len(ordered) == 1:
        return ordered[0]
    return statistics.quantiles(ordered, n=100, method="inclusive")[q - 1]


def closed_loop(workload, state, seconds=None, count=None, tracer=None):
    """Calls back to back until ``seconds`` of wall time have passed or
    ``count`` calls are made; returns the calls and the wall time."""
    calls = []
    started = time.perf_counter()
    while (len(calls) < count if count is not None
           else time.perf_counter() - started < seconds):
        i = len(calls)
        if tracer is None:
            calls.append(workload.call(state, i))
        else:
            with tracer.span("bench.call", utt=workload.call_id(i)):
                calls.append(workload.call(state, i))
    return calls, time.perf_counter() - started


def end_to_end(workload, seed, seconds):
    inputs = workload.inputs(seed)
    setup_s = []
    for _ in range(SETUP_REPEATS):
        gc.collect()  # each set-up starts from a collected heap
        started = time.perf_counter()
        state = workload.setup(inputs)
        setup_s.append(time.perf_counter() - started)
    calls, _ = closed_loop(workload, state, seconds=seconds)
    token_error, reference_ok = workload.finish(state)

    busy = sum(c.seconds for c in calls)
    frames = sum(c.frames for c in calls)
    rtf = [c.seconds / (c.frames * FRAME_SHIFT_S) for c in calls if c.frames]
    attempted = sum(c.ops for c in calls)
    failed = attempted if not reference_ok else sum(c.failed for c in calls)
    metrics = {
        "setup_s": statistics.median(setup_s),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "frames_per_s": frames / busy if busy else 0.0,
        "rtf_p50": percentile(rtf, 50) if rtf else 0.0,
        "rtf_p80": percentile(rtf, 80) if rtf else 0.0,
        "token_error": token_error,
    }
    # the same numbers under the names the issue tracker uses
    named = {"calls": len(calls), "ops": attempted, "ops_failed": failed}
    if workload.name.startswith("train"):
        named["train_frames_per_s"] = metrics["frames_per_s"]
        named["train_token_error"] = token_error
    else:
        latency = [c.seconds * 1e3 for c in calls]
        named["decode_rtf"] = busy / (frames * FRAME_SHIFT_S) if frames else 0.0
        named["decode_utt_ms_p50"] = percentile(latency, 50)
        named["decode_utt_ms_p80"] = percentile(latency, 80)
        named["decode_token_error"] = token_error
    print(f"# {workload.name}: " + " ".join(
        f"{k}={v:.6g}" for k, v in named.items()))
    return metrics, attempted, failed, reference_ok and failed == 0


def per_layer(workload, seed, seconds):
    import tracing

    tracer = tracing.Tracer()
    inputs = workload.inputs(seed)
    with tracer.installed(), tracer.span("bench.setup"):
        state = workload.setup(inputs)
    untraced, wall_untraced = closed_loop(workload, state,
                                          seconds=seconds / 2)
    workload.register(tracer, state)
    mark = len(tracer.spans)
    with tracer.installed():
        traced, wall = closed_loop(workload, state, count=len(untraced),
                                   tracer=tracer)
    _, reference_ok = workload.finish(state)
    OUT_DIR.mkdir(exist_ok=True)
    tracer.dump(OUT_DIR / f"trace-{workload.name}-{seed}.jsonl.gz")

    spans = tracer.summary()

    def get(name, key):
        return spans.get(name, {}).get(key, 0)

    def ratio(num, den, scale=1.0):
        return num * scale / den if den else 0.0

    den, num, beam = ("loss.denominator_forward", "loss.numerator_forward",
                      "decoder.beam_decode")
    m = {f"{name}.{key}": get(name, key) for name, keys in (
        (den, ("calls", "self_s", "frames", "arc_frames")),
        (num, ("calls", "self_s", "frames")),
        ("model.forward", ("calls", "self_s")),
        ("model.backward", ("calls", "self_s")),
        (beam, ("calls", "self_s")),
        ("wfst.compose", ("calls", "self_s")),
        ("lm.score_sequence", ("calls", "self_s")),
        ("loss.crf_loss", ("self_s",)),
        ("training.train", ("self_s",)),
        ("model.optimizer", ("self_s",)),
        ("decoder.greedy_decode", ("self_s",)),
        ("wfst.trim", ("self_s",)),
        ("loss.flatten_denominator", ("self_s",)),
        ("lm.estimate", ("self_s",)),
        ("lm.lm_to_fst", ("self_s",)),
        ("bench.call", ("self_s",)),
    ) for key in keys}
    m[f"{den}.ns_per_arc_frame"] = ratio(get(den, "self_s"), get(den, "arc_frames"), 1e9)
    m[f"{den}.s_per_1k_frames"] = ratio(get(den, "self_s"), get(den, "frames"), 1e3)
    m[f"{num}.ms_per_1k_frames"] = ratio(get(num, "self_s"), get(num, "frames"), 1e6)
    m[f"{beam}.us_per_frame"] = ratio(get(beam, "self_s"), get(beam, "frames"), 1e6)
    m[f"{beam}.s_per_1k_frames"] = ratio(get(beam, "self_s"), get(beam, "frames"), 1e3)
    m["loss.degenerate_share"] = ratio(state.degenerate, state.trained_utts)
    m["decoder.skip_rate"] = ratio(state.skipped_frames, state.decoded_frames)
    m["model.params"] = workload.num_params(state)
    m.update(workload.sizes(state))
    m["trace.wall_s"] = wall
    m["trace.untraced_pct"] = ratio(wall - tracer.top_level_s(mark), wall, 100.0)
    m["trace.overhead_pct"] = ratio(wall - wall_untraced, wall_untraced, 100.0)

    print("# " + workload.name + ": " + "  ".join(
        f"{name} {m[name]:.4g} {unit} (ROADMAP baseline {quote:g} {unit})"
        for name, (quote, unit) in BASELINES.items()))
    attempted = sum(c.ops for c in untraced + traced)
    failed = attempted if not reference_ok else sum(c.failed for c in untraced + traced)
    return m, attempted, failed, reference_ok and failed == 0


def run_all(args) -> int:
    """Every workload in its own process, so that peak memory is its own."""
    status = 0
    for name in WORKLOAD_NAMES:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed",
             str(args.seed), "--seconds", str(args.seconds), "--trace",
             str(args.trace)], check=False)
        status = status or proc.returncode
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds positive")
    if not (SRC / "ctc_crf" / "__init__.py").is_file():
        print(f"error: no ctc_crf package under {SRC}; run from the root of "
              "a checkout", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)

    sys.path.insert(0, str(SRC))
    import numpy as np
    import workloads

    print(f"# python={platform.python_version()} numpy={np.__version__} "
          f"nproc={os.cpu_count()} workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    units = {entry["name"]: entry["unit"]
             for entry in spec["per_layer" if args.trace else "end_to_end"]}
    workload = workloads.WORKLOADS[args.workload]
    measure = per_layer if args.trace else end_to_end
    metrics, attempted, failed, correct = measure(workload, args.seed,
                                                  args.seconds)
    if set(metrics) != set(units):
        print(f"error: metrics {sorted(set(metrics) ^ set(units))} differ "
              "from BENCHMARK.json", file=sys.stderr)
        return 1
    for name, value in metrics.items():
        if not math.isfinite(value):
            print(f"# non-finite metric {name}", file=sys.stderr)
            correct = False
    print(json.dumps({
        "correct": bool(correct),
        "attempted": int(attempted),
        "failed": int(failed),
        "metrics": {name: {"value": float(value) if math.isfinite(value)
                           else None, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
