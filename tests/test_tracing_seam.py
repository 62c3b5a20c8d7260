"""The seams the benchmark's tracer wraps still exist and still split the kernel.

``perfbench/tracing.py`` patches names in ``localattn.tensor``,
``localattn.lam`` and ``localattn.model`` by string and cuts a kernel call
into stages at its two block matmuls. A rename or a reordering there breaks
the traced benchmark without failing any other test; this runs the tracer
over one kernel call and runs the two model workloads traced for a second.
"""

import importlib
import json
from pathlib import Path

import numpy as np
import pytest

import localattn.lam as lam
from localattn.tensor import Tensor

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


@pytest.fixture
def tracing(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    return importlib.import_module("tracing")


def test_traced_kernel_call_keeps_counts_and_stages(tracing):
    n, window = 70, 8  # 8 does not divide 70: the remainder path runs too
    rng = np.random.default_rng(0)
    q, k, v = (Tensor(rng.standard_normal((n, 4))) for _ in range(3))
    kernel = lam._lam_attention
    with tracing.Tracer(["enc0"]) as tracer:
        with tracer.window("kernel"):
            out = lam.lam_forward(q, k, v, window)
    assert lam._lam_attention is kernel  # the tracer restores what it wrapped
    assert np.isfinite(out.data).all()

    assert tracer.lam_calls == [(n, window, *tracing.lam_closed_forms(n, window))]
    (kind, units, acc), = tracer.windows
    assert (kind, units, acc["lam.calls"]) == ("kernel", 1, 1)
    for stage in tracing.LAM_STAGES:
        assert acc[f"lam.stage_ns.{stage}"] > 0, stage


@pytest.mark.parametrize("name", ["train_toy", "forecast_eval"])
def test_traced_model_workload_gives_a_strict_json_result(tracing, name):
    workloads = importlib.import_module("workloads")
    result = workloads.run(name, 7, 1.0, True)["result"]
    json.dumps(result, allow_nan=False)  # a NaN metric would not be a result
    metrics = {key: entry["value"] for key, entry in result["metrics"].items()}
    assert result["correct"] and result["failed"] == 0
    assert metrics["attention.block_ms.enc0"] > 0
    if name == "train_toy":
        assert metrics["autodiff.tape_nodes_per_window"] > 0
