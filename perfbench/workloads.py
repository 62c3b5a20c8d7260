"""The benchmark's workloads, each run in its own process by run.py.

    python3 perfbench/workloads.py --workload train_toy --seed 1 --seconds 36 --trace 0

Each workload is a closed loop with one caller: the next call starts when
the previous one returned. Inputs come from ``--seed`` only. Outputs are
checked outside the timed calls. The last stdout line is the JSON result;
the lines before it name the metrics the way the benchmark's README does.
"""

from __future__ import annotations

import argparse
import json
import math
import resource
import statistics
import time
from contextlib import nullcontext
from dataclasses import dataclass, field

import numpy as np

from localattn.attention import masked_full_attention_oracle
from localattn.autodiff import Graph
from localattn.data import standardize_split_window, synth_series
from localattn.lam import default_window, lam_forward
from localattn.model import (
    ForecastModel,
    ModelConfig,
    TrainDivergenceError,
    evaluate,
    train,
)
from localattn.tensor import Tensor

from reference import memory_loop, mixed_loop, slowdown
from tracing import LAM_STAGES, Tracer, block_labels, lam_closed_forms

# the toy forecasting config of acceptance criterion 7
TOY = dict(d_features=3, n=96, m=24, d_model=8, num_layers=2, heads=2, kind="lam")
LR, BATCH = 1e-2, 32
# train_toy: 32 training windows (1 step) and 4 validation windows per epoch,
# so one timed epoch is short and a run holds over a hundred of them
TRAIN_SERIES, TRAIN_STRIDE, VAL_FRACTION, EPOCHS = 815, 8, 0.352, 10
# kernel_long: 60000 rows, d=8, window 64; 64 does not divide 60000
LONG_N, LONG_D = 60000, 8
ORACLE_TOL = 1e-10
SETUPS = 9


def toy_config(seed: int) -> ModelConfig:
    return ModelConfig(**TOY, seed=seed)


@dataclass
class Measured:
    """What one timed phase of a workload produced."""

    work: int = 0  # windows or rows processed in the throughput units
    # (wall ms, reference slowdown measured right after) of each equal-work
    # throughput unit and of each latency sample; the same unit in both,
    # except on forecast_eval
    units: list[tuple[float, float]] = field(default_factory=list)
    latencies: list[tuple[float, float]] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    oracle_ms: list[float] = field(default_factory=list)
    extra: dict = field(default_factory=dict)


# -- train_toy --------------------------------------------------------------


def setup_train_toy(seed: int) -> dict:
    t0 = time.perf_counter()
    raw = synth_series("sines", TRAIN_SERIES, d=TOY["d_features"], seed=seed)
    t1 = time.perf_counter()
    dataset = standardize_split_window(
        raw, n=TOY["n"], m=TOY["m"], stride=TRAIN_STRIDE, val_fraction=VAL_FRACTION
    )
    t2 = time.perf_counter()
    model = ForecastModel(toy_config(seed))
    x, y = dataset.train[0]
    g = Graph()
    out, _ = model.forward_graph(g, x)
    g.backward(g.mse(out, y))
    untrained_val, _ = evaluate(model, dataset.val)
    return {
        "seed": seed,
        "dataset": dataset,
        "untrained_val": untrained_val,
        "data": (t1 - t0, t2 - t1, len(dataset.train) + len(dataset.val) + len(dataset.test)),
    }


def _matches_oracle(model: ForecastModel, x: Tensor, oracle_ms: list[float]) -> bool:
    """The model's forecast is finite and equals the oracle-backed forward."""
    window = model.config.window
    pred = model.forward(x)
    t0 = time.perf_counter()
    ref = model.forward(x, inner=lambda ops, q, k, v: masked_full_attention_oracle(q, k, v, window))
    oracle_ms.append((time.perf_counter() - t0) * 1e3)
    return bool(np.isfinite(pred.data).all() and np.max(np.abs(pred.data - ref.data)) <= ORACLE_TOL)


def measure_train_toy(state: dict, seconds: float, tracer=None) -> Measured:
    """Train fresh models for EPOCHS epochs each, back to back.

    Every run starts from the same seeded model, so each must reach the
    same validation MSE bit for bit; it must also beat the untrained model,
    and its forecast of the first validation window must be finite and match
    the forward run on the quadratic oracle to 1e-10.
    """
    dataset = state["dataset"]
    x_check, _ = dataset.val[0]
    got = Measured(extra={"steps": 0, "train_calls_s": 0.0})
    steps = EPOCHS * math.ceil(len(dataset.train) / BATCH)
    val = None
    start = time.perf_counter()
    while True:
        model = ForecastModel(toy_config(state["seed"]))
        got.attempted += 1
        call_start = epoch_start = time.perf_counter()
        reference_s = 0.0

        def epoch_done(_line):
            nonlocal epoch_start, reference_s
            end = time.perf_counter()
            got.work += len(dataset.train)
            got.units.append(((end - epoch_start) * 1e3, slowdown(mixed_loop)))
            got.latencies.append(got.units[-1])
            epoch_start = time.perf_counter()
            reference_s += epoch_start - end

        try:
            report = train(model, dataset, epochs=EPOCHS, lr=LR, batch=BATCH, patience=0,
                           log=epoch_done)
        except TrainDivergenceError:
            got.failed += 1
            report = None
        done = time.perf_counter()
        got.extra["steps"] += steps
        got.extra["train_calls_s"] += done - call_start - reference_s
        if report is not None:
            best = min(report.val_mse)
            val = best if val is None else val
            ok = math.isfinite(best) and best < state["untrained_val"] and best == val
            got.failed += not (ok and _matches_oracle(model, x_check, got.oracle_ms))
        elapsed = done - start
        if elapsed + (done - call_start) > seconds:
            break
    got.extra["val_mse"] = val
    return got


# -- forecast_eval --------------------------------------------------------------


def setup_forecast_eval(seed: int) -> dict:
    t0 = time.perf_counter()
    raw = synth_series("sines", TRAIN_SERIES, d=TOY["d_features"], seed=seed)
    t1 = time.perf_counter()
    dataset = standardize_split_window(
        raw, n=TOY["n"], m=TOY["m"], stride=TRAIN_STRIDE, val_fraction=VAL_FRACTION
    )
    t2 = time.perf_counter()
    windows = dataset.train + dataset.val + dataset.test
    model = ForecastModel(toy_config(seed))
    model.forward(windows[0][0])
    return {"seed": seed, "model": model, "windows": windows, "singles": dataset.test,
            "data": (t1 - t0, t2 - t1, len(windows))}


def measure_forecast_eval(state: dict, seconds: float, tracer=None) -> Measured:
    """Alternate evaluate() over every window with one-at-a-time forecasts.

    The model is a seeded untrained one: the eager forward costs the same
    whatever the weights. Checks: every evaluate() returns the first call's
    finite MSE and MAE bit for bit; every single forecast is finite, and one
    per round (in turn) equals the forward run on the quadratic oracle to
    1e-10.
    """
    model, windows, singles = state["model"], state["windows"], state["singles"]
    got = Measured()
    first = None
    start = time.perf_counter()
    while time.perf_counter() - start < seconds:
        t0 = time.perf_counter()
        with tracer.window("eval", len(windows)) if tracer is not None else nullcontext():
            scores = evaluate(model, windows)
        eval_ms = (time.perf_counter() - t0) * 1e3
        preds, single_ms = [], []
        for x, _ in singles:
            t0 = time.perf_counter()
            with tracer.window("eval") if tracer is not None else nullcontext():
                preds.append(model.forward(x))
            single_ms.append((time.perf_counter() - t0) * 1e3)
        slow = slowdown(mixed_loop)
        got.work += len(windows)
        got.units.append((eval_ms, slow))
        got.latencies += [(ms, slow) for ms in single_ms]

        first = scores if first is None else first
        got.attempted += 1 + len(preds)
        got.failed += not (scores == first and all(map(math.isfinite, scores)))
        got.failed += sum(not np.isfinite(p.data).all() for p in preds)
        pick = len(got.units) % len(singles)
        got.failed += not _matches_oracle(model, singles[pick][0], got.oracle_ms)
    return got


# -- kernel_long ----------------------------------------------------------------


def setup_kernel_long(seed: int) -> dict:
    rng = np.random.default_rng(seed)
    q, k, v = (Tensor(rng.standard_normal((LONG_N, LONG_D))) for _ in range(3))
    window = default_window(LONG_N)
    lam_forward(q, k, v, window)
    return {"seed": seed, "qkv": (q, k, v), "window": window, "data": (0.0, 0.0, 0)}


def _oracle_rows(q, k, v, window: int, a: int, b: int) -> np.ndarray:
    """Rows a..b-1 of banded attention via the oracle on a slice with history."""
    lo = max(0, a - window + 1)
    part = [Tensor(t.data[lo:b]) for t in (q, k, v)]
    return masked_full_attention_oracle(*part, window).data[a - lo :]


def measure_kernel_long(state: dict, seconds: float, tracer=None) -> Measured:
    """Call lam_forward back to back on one long sequence.

    Checks per call: every output is finite, and three row ranges match the
    oracle to 1e-10: blocks 0-1 (the padded block), the last block plus
    the remainder rows, and one seeded random range.
    """
    q, k, v = state["qkv"]
    w = state["window"]
    n = LONG_N
    rem = n % w
    fixed = [(0, 2 * w), (n - rem - w, n)]
    rng = np.random.default_rng(state["seed"] + 1)
    got = Measured()
    start = time.perf_counter()
    while time.perf_counter() - start < seconds:
        t0 = time.perf_counter()
        with tracer.window("kernel") if tracer is not None else nullcontext():
            out = lam_forward(q, k, v, w)
        dt = time.perf_counter() - t0
        got.work += n
        got.units.append((dt * 1e3, slowdown(memory_loop)))
        got.latencies.append(got.units[-1])

        got.attempted += 1
        a = int(rng.integers(w, n - 3 * w))
        ok = bool(np.isfinite(out.data).all())
        for lo, hi in fixed + [(a, a + 2 * w)]:
            t0 = time.perf_counter()
            ref = _oracle_rows(q, k, v, w, lo, hi)
            got.oracle_ms.append((time.perf_counter() - t0) * 1e3)
            ok &= bool(np.max(np.abs(out.data[lo:hi] - ref)) <= ORACLE_TOL)
        got.failed += not ok
    s = n // w
    got.extra["working_set_bytes"] = {
        "scores": s * w * (2 * w - 1) * 8,
        "kv_slabs": 2 * s * (2 * w - 1) * LONG_D * 8,
    }
    return got


# the tracing windows whose work is one unit of each workload
WINDOW_KINDS = {"train_toy": ("train",), "forecast_eval": ("eval",), "kernel_long": ("kernel",)}

# set-up, measurement, and the reference loop of the same character as the work
WORKLOADS = {
    "train_toy": (setup_train_toy, measure_train_toy, mixed_loop),
    "forecast_eval": (setup_forecast_eval, measure_forecast_eval, mixed_loop),
    "kernel_long": (setup_kernel_long, measure_kernel_long, memory_loop),
}

# the issue-facing name of each generic end-to-end metric, per workload
NAMED = {
    "train_toy": {"throughput_per_s": "train_windows_per_s", "latency_ms_p50": "train_epoch_ms_p50"},
    "forecast_eval": {"throughput_per_s": "eval_windows_per_s", "latency_ms_p50": "forecast_ms_p50"},
    "kernel_long": {"throughput_per_s": "kernel_rows_per_s", "latency_ms_p50": "kernel_ms_p50"},
}


# -- metrics ----------------------------------------------------------------------


def normalized_ms(samples: list[tuple[float, float]]) -> np.ndarray:
    """Each sample's wall time over the reference slowdown measured after it."""
    wall_ms, slow = np.array(samples).T
    return wall_ms / slow


def end_to_end(got: Measured, setup_s: float) -> dict:
    return {
        "throughput_per_s": (got.work / (normalized_ms(got.units).sum() * 1e-3), "1/s"),
        "latency_ms_p50": (float(np.median(normalized_ms(got.latencies))), "ms"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6, "MB"),
    }


def _per(total: float, count: int) -> float:
    return total / count if count else 0.0


def per_layer(name: str, tracer: Tracer, got: Measured, data, overhead_pct: float) -> dict:
    """Per-layer metrics of one traced phase; zero where a layer did not run."""
    acc, units, _ = tracer.total(WINDOW_KINDS[name])
    ms = 1e-6
    out = {
        "tensor.ops_per_window": (_per(acc["tensor.ops"], units), "count"),
        "tensor.dot_products_per_window": (_per(acc["tensor.dot_products"], units), "count"),
        "tensor.op_us_mean": (_per(acc["tensor.op_ns"], acc["tensor.ops"]) * 1e-3, "us"),
    }
    for metric, op in (("matmul", "matmul_batched"), ("softmax", "softmax_lastdim"),
                       ("gather", "gather_rows_padded")):
        out[f"tensor.{metric}_ms"] = (_per(acc[f"tensor.ns.{op}"], units) * ms, "ms")

    train_acc, train_units, _ = tracer.total(("train",))
    for metric, key in (("tape_nodes_per_window", "autodiff.tape_nodes"),
                        ("record_ms_per_window", "autodiff.record_ns"),
                        ("backward_ms_per_window", "autodiff.backward_ns")):
        scale = 1 if key.endswith("nodes") else ms
        out[f"autodiff.{metric}"] = (_per(train_acc[key], train_units) * scale,
                                     "count" if scale == 1 else "ms")

    for label in dict.fromkeys(tracer.labels):
        out[f"attention.block_ms.{label}"] = (_per(acc[f"attention.ns.{label}"], units) * ms, "ms")
    out["attention.oracle_check_ms"] = (statistics.median(got.oracle_ms) if got.oracle_ms else 0.0, "ms")

    calls = acc["lam.calls"]
    out["lam.calls_per_window"] = (_per(calls, units), "count")
    out["lam.call_ms"] = (_per(acc["lam.ns"], calls) * ms, "ms")
    for stage in LAM_STAGES:
        out[f"lam.stage.{stage}_ms"] = (_per(acc[f"lam.stage_ns.{stage}"], calls) * ms, "ms")
    lam_calls = tracer.lam_calls
    out["lam.dot_products"] = (lam_calls[0][2] if lam_calls else 0, "count")
    out["lam.peak_score_elements"] = (max((c[3] for c in lam_calls), default=0), "count")
    out["lam.bytes_computed"] = (_per(acc["lam.bytes"], calls), "bytes")

    eval_acc, eval_units, eval_calls = tracer.total(("eval",))
    out["model.forward_ms_per_window"] = (_per(eval_acc["wall_ns"], eval_units) * ms, "ms")
    out["model.grad_ms_per_window"] = (_per(train_acc["wall_ns"], train_units) * ms, "ms")
    residual_ms = got.extra.get("train_calls_s", 0.0) * 1e3 - (train_acc["wall_ns"] + eval_acc["wall_ns"]) * ms
    out["model.optimizer_ms_per_step"] = (_per(residual_ms, got.extra.get("steps", 0)), "ms")
    out["model.eval_in_train_ms"] = (_per(eval_acc["wall_ns"], eval_calls) * ms if train_units else 0.0, "ms")

    synth_s, window_s, windows = data
    out["data.synth_ms"] = (synth_s * 1e3, "ms")
    out["data.window_ms"] = (window_s * 1e3, "ms")
    out["data.windows"] = (windows, "count")
    out["trace.overhead_pct"] = (overhead_pct, "%")
    return out


def exact_count_failures(name: str, tracer: Tracer) -> list[str]:
    """Counts that must repeat exactly: per-window op and tape counts, and
    every kernel call's dot products and peak score elements (criterion 2)."""
    problems = []
    for key in ("tensor.ops", "autodiff.tape_nodes"):
        values = tracer.per_unit_values(WINDOW_KINDS[name], key)
        if len(values) != 1:
            problems.append(f"{key} per window differs across windows: {sorted(values)}")
    for n, w, dots, peak in tracer.lam_calls:
        if (dots, peak) != lam_closed_forms(n, w):
            problems.append(f"lam n={n} w={w}: dots={dots} peak={peak}, "
                            f"closed form {lam_closed_forms(n, w)}")
    return problems


# -- running --------------------------------------------------------------------------


def run(name: str, seed: int, seconds: float, trace: bool) -> dict:
    setup, measure, loop = WORKLOADS[name]
    durations = []
    for _ in range(SETUPS):
        t0 = time.perf_counter()
        state = setup(seed)
        durations.append((time.perf_counter() - t0) / slowdown(loop))
    setup_s = statistics.median(durations)

    lines = []
    if not trace:
        got = measure(state, seconds)
        metrics = end_to_end(got, setup_s)
        attempted, failed = got.attempted, got.failed
        for key, issue_name in NAMED[name].items():
            value, unit = metrics[key]
            lines.append(f"{name} {issue_name} = {value:.6g} {unit}")
        wall_ms, slow = np.array(got.latencies).T
        lines.append(f"{name} samples: {len(got.units)} throughput units, {len(wall_ms)} latency, "
                     f"{SETUPS} setups")
        lines.append(f"{name} before normalising: latency p50 {np.median(wall_ms):.6g} ms wall; "
                     f"reference slowdown p10/p50/p90 "
                     + "/".join(f"{v:.4g}" for v in np.percentile(slow, [10, 50, 90])))
    else:
        plain = measure(state, seconds / 2)
        cfg = toy_config(seed)
        with Tracer(block_labels(cfg.num_layers, cfg.heads)) as tracer:
            got = measure(state, seconds / 2, tracer)
        base, traced = np.median(normalized_ms(plain.latencies)), np.median(normalized_ms(got.latencies))
        overhead = (traced / base - 1.0) * 100.0
        metrics = per_layer(name, tracer, got, state["data"], overhead)
        problems = exact_count_failures(name, tracer)
        lines += [f"{name} exact-count check failed: {p}" for p in problems]
        attempted = plain.attempted + got.attempted
        failed = plain.failed + got.failed + len(problems)
        lines.append(f"{name} tracing overhead: {overhead:+.1f}% on latency p50 "
                     f"({base:.4g} ms untraced, {traced:.4g} ms traced)")
    if "val_mse" in got.extra:
        lines.append(f"{name} train_val_mse = {got.extra['val_mse']!r} "
                     f"(untrained {state['untrained_val']!r})")
    if "working_set_bytes" in got.extra:
        lines.append(f"{name} working set (computed): {json.dumps(got.extra['working_set_bytes'])}")
    lines.append(f"{name} setup_s = {setup_s:.6g} s")
    lines.append(f"{name} ops_failed_frac = {failed / attempted:.6g} ({failed} of {attempted})")
    return {
        "lines": lines,
        "result": {
            "correct": failed == 0,
            "attempted": attempted,
            "failed": failed,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        },
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    out = run(args.workload, args.seed, args.seconds, bool(args.trace))
    for line in out["lines"]:
        print(line)
    print(json.dumps(out["result"]))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
