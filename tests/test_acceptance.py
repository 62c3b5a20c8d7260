"""Acceptance gate: one test and one printed PASS/FAIL line per criterion.

Run with ``pytest -s tests/test_acceptance.py -v`` to see the lines as
they complete. The slow entries, marked ``slow``, are criterion 3
(timing sweep up to n=16384) and criterion 7 (two toy training runs);
everything else is seconds. Budgets asserted here are wall-clock on a
plain CPU box.
"""

import math
import time

import numpy as np
import pytest

from localattn.attention import (
    full_attention,
    masked_full_attention_oracle,
    permute_rows,
)
from localattn.cli import bench_records, fit_slopes
from localattn.data import baseline_metrics, standardize_split_window, synth_series
from localattn.lam import LamCounters, lam_forward
from localattn.model import (
    ForecastModel,
    ModelConfig,
    load_checkpoint,
    positional_encoding,
    save_checkpoint,
    train,
)
from localattn.data import Scaler
from localattn.tensor import Tensor
from localattn import verify
from localattn.verify import (
    suite_counting,
    suite_equivariance,
    suite_gradients,
    suite_masking,
    suite_oracle_equivalence,
)


def report(number: int, name: str, passed: bool, detail: str):
    status = "PASS" if passed else "FAIL"
    line = f"{status} criterion-{number} {name}: {detail}"
    print(line, flush=True)
    assert passed, line


def seeded_qkv(n: int, d: int, seed: int = 0):
    rng = np.random.default_rng(seed)
    return (
        Tensor._wrap(rng.normal(size=(n, d))),
        Tensor._wrap(rng.normal(size=(n, d))),
        Tensor._wrap(rng.normal(size=(n, d))),
    )


def test_criterion_1_oracle_equivalence():
    t0 = time.perf_counter()
    result = suite_oracle_equivalence(trials=200, seed=0)
    elapsed = time.perf_counter() - t0
    ok = result.passed and verify._TOL_ORACLE == 1e-10 and elapsed < 60.0
    report(1, "oracle-equivalence", ok, f"{result.detail}; {elapsed:.1f}s (< 60s)")


def test_criterion_2_operation_counting():
    result = suite_counting(trials=40, seed=0)
    spot = []
    for n, window in ((8, 4), (96, 32), (128, 16)):
        q, k, v = seeded_qkv(n, 8, seed=n)
        counters = LamCounters()
        lam_forward(q, k, v, window, counters=counters)
        assert counters.dot_products == (2 * window - 1) * n
        blocks = n // window
        assert counters.peak_score_elements == blocks * window * (2 * window - 1)
        spot.append(f"n={n},L={window}: dots={counters.dot_products}")
    # ragged case stays under the stated bound
    q, k, v = seeded_qkv(100, 8, seed=100)
    counters = LamCounters()
    lam_forward(q, k, v, 16, counters=counters)
    assert counters.dot_products <= (2 * 16 - 1) * (100 + 16)
    # quadratic reference wired through the same counters
    q, k, v = seeded_qkv(64, 8, seed=64)
    counters = LamCounters()
    full_attention(q, k, v, counters=counters)
    assert counters.dot_products == 64 * 64
    assert counters.peak_score_elements == 64 * 64
    ok = result.passed
    report(2, "operation-counting", ok, f"{result.detail}; spot checks exact")


@pytest.mark.slow
def test_criterion_3_scaling_slopes():
    t0 = time.perf_counter()
    records, skipped = bench_records(
        n_list=[512, 1024, 2048, 4096, 8192, 16384],
        mechanisms=["lam", "full"],
        l_rule="fixed:32",
        repeats=5,
        d_model=8,
        seed=0,
    )
    elapsed = time.perf_counter() - t0
    assert not skipped, f"unexpected skips: {skipped}"
    for r in records:
        if r.mechanism == "lam":
            assert r.dot_products == 63 * r.n  # 32 divides every n in the sweep
        else:
            assert r.dot_products == r.n * r.n
    slopes = fit_slopes(records)
    gap = slopes["full"] - slopes["lam"]
    ok = (
        slopes["lam"] <= 1.35
        and slopes["full"] >= 1.7
        and gap >= 0.5
        and elapsed < 600.0
    )
    report(
        3,
        "scaling-slopes",
        ok,
        f"slope(lam)={slopes['lam']:.3f} (<= 1.35), "
        f"slope(full)={slopes['full']:.3f} (>= 1.7), gap={gap:.3f} (>= 0.5); "
        f"{elapsed:.1f}s (< 600s)",
    )


def test_criterion_4_gradient_checks():
    result = suite_gradients(trials=20, seed=0)
    ok = result.passed and verify._TOL_GRAD == 1e-6
    report(4, "gradient-checks", ok, result.detail)


def test_criterion_5_permutation_equivariance():
    result = suite_equivariance(permutations=10, seed=0)
    report(5, "permutation-equivariance", result.passed, result.detail)


def test_criterion_6_masking_and_fault_injection():
    result = suite_masking(trials=25, seed=0)

    # disabling the first block's padding mask must corrupt exactly the
    # rows that see padded keys (row index < window - 1) and no others
    n, window = 64, 16
    q, k, v = seeded_qkv(n, 8, seed=6)
    oracle = masked_full_attention_oracle(q, k, v, window)
    faulty = lam_forward(q, k, v, window, pad_guard=False)
    row_dev = np.max(np.abs(faulty.data - oracle.data), axis=1)
    early = float(row_dev[: window - 1].max())
    late = float(row_dev[window - 1 :].max())
    fault_localized = early > 1e-3 and late <= 1e-10

    broken_build = suite_oracle_equivalence(trials=30, seed=0, inject_fault=True)
    ok = (
        result.passed
        and verify._TOL_ROWSUM == 1e-12
        and fault_localized
        and not broken_build.passed
    )
    report(
        6,
        "masking-semantics",
        ok,
        f"{result.detail}; fault build: early rows dev {early:.2e} (> 1e-3), "
        f"later rows {late:.2e} (<= 1e-10), equivalence suite fails as required",
    )


@pytest.mark.slow
def test_criterion_7_toy_forecasting():
    t0 = time.perf_counter()
    raw = synth_series("sines", 20000, d=3, seed=42)
    dataset = standardize_split_window(raw, n=96, m=24, stride=8)
    results = {}
    for kind in ("lam", "full"):
        model = ForecastModel(
            ModelConfig(
                d_features=3, n=96, m=24, d_model=8, num_layers=2, heads=2,
                kind=kind, seed=0,
            )
        )
        report_ = train(model, dataset, epochs=20, lr=1e-2, batch=32)
        results[kind] = report_.test_mse
    base_mse, _ = baseline_metrics(dataset.test)
    elapsed = time.perf_counter() - t0
    vs_base = results["lam"] / base_mse
    vs_full = results["lam"] / results["full"]
    ok = vs_base <= 0.5 and vs_full <= 1.05 and elapsed < 900.0
    report(
        7,
        "toy-forecasting",
        ok,
        f"banded test mse {results['lam']:.4f} vs baseline {base_mse:.4f} "
        f"(ratio {vs_base:.3f} <= 0.5) and vs full {results['full']:.4f} "
        f"(ratio {vs_full:.3f} <= 1.05); {elapsed:.0f}s (< 900s)",
    )


def test_criterion_8_position_signal():
    pe = positional_encoding(96, 8)
    row0_ones = bool(np.all(pe.data[0] == 1.0))
    bounded = bool(np.all(np.abs(pe.data) <= math.sqrt(2.0) + 1e-12))

    rng = np.random.default_rng(8)
    x = Tensor._wrap(rng.normal(size=(16, 3)))
    pi = list(rng.permutation(16))
    deviations = {}
    for with_signal in (False, True):
        model = ForecastModel(
            ModelConfig(
                d_features=3, n=16, m=4, d_model=8, num_layers=1, heads=2,
                kind="full", seed=3,
            )
        )
        if not with_signal:  # the control arm: a zero position signal
            model.pe = Tensor.zeros(model.pe.shape)
        lhs = permute_rows(model.encode(x), pi)
        rhs = model.encode(permute_rows(x, pi))
        deviations[with_signal] = float(np.max(np.abs(lhs.data - rhs.data)))
    ok = (
        row0_ones
        and bounded
        and deviations[False] <= 1e-10
        and deviations[True] > 1e-6
    )
    report(
        8,
        "position-signal",
        ok,
        f"row 0 all ones, entries within [-sqrt(2), sqrt(2)]; encoder "
        f"equivariant without signal ({deviations[False]:.2e} <= 1e-10), "
        f"broken with it ({deviations[True]:.2e} > 1e-6)",
    )


def test_criterion_9_checkpoint_round_trip(tmp_path):
    config = ModelConfig(
        d_features=3, n=32, m=8, d_model=8, num_layers=2, heads=2,
        kind="lam", seed=11,
    )
    model = ForecastModel(config)
    rng = np.random.default_rng(9)
    x = Tensor._wrap(rng.normal(size=(32, 3)))
    before = model.forward(x)
    scaler = Scaler(mean=np.arange(3.0), std=np.ones(3) * 2.0)
    path = save_checkpoint(
        model, str(tmp_path / "model.npz"), scaler=scaler,
        feature_names=("a", "b", "c"),
    )
    loaded, loaded_scaler, names = load_checkpoint(path)
    after = loaded.forward(x)
    bitwise = bool(np.array_equal(before.data, after.data))
    ok = (
        bitwise
        and loaded.config == config
        and np.array_equal(loaded_scaler.mean, scaler.mean)
        and names == ["a", "b", "c"]
    )
    report(9, "checkpoint-round-trip", ok, "save -> load -> forward bitwise identical")
