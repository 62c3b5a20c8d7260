"""Per-layer tracing, installed from the benchmark's side of the library.

Nothing here edits localattn. Inside ``with Tracer(labels):`` wrappers sit
on the library's own seams and are removed again on exit:

* the ``localattn.tensor`` op functions: calls and wall time per op,
  outermost calls only (an ``affine`` that calls ``matmul_batched`` is one
  op), plus the shared dot-product counter;
* ``localattn.model.Graph``: a subclass that reports the tape size and
  splits a training window into recording and ``backward``;
* ``localattn.model._resolve_inner``: a probe around every attention call,
  labelled by call order as ``cli._capture_projected_qk`` does;
* ``localattn.lam._lam_attention``, ``local_mask`` and ``_remainder_mask``:
  per-call ``LamCounters`` and the kernel's stage times;
* ``localattn.model.evaluate`` as ``train`` calls it: validation time.

Work is grouped into *windows*: a training window (opened and closed by
the Graph subclass), one ``evaluate`` call inside ``train`` (as many units
as it has windows), or a kernel call (opened by the workload with
:meth:`Tracer.window`). Each closed window keeps a counter of what happened
inside it.
"""

from __future__ import annotations

import time
from collections import Counter
from contextlib import contextmanager

import localattn.lam as lam_mod
import localattn.model as model_mod
import localattn.tensor as tensor_mod
from localattn.lam import LamCounters

TENSOR_OPS = (
    "matmul_batched",
    "softmax_lastdim",
    "gather_rows_padded",
    "concat_axis0",
    "concat_lastdim",
    "affine",
    "leaky_relu",
    "add",
    "scale",
    "transpose_last2",
    "reshape",
)
VIEW_OPS = ("transpose_last2", "reshape")
LAM_STAGES = ("slab", "score", "softmax", "value", "remainder")

now = time.perf_counter_ns


def block_labels(num_layers: int, heads: int) -> list[str]:
    """Label of every attention call in one forward, in call order."""
    labels = []
    for i in range(num_layers):
        labels += [f"enc{i}"] * heads
    for i in range(num_layers):
        labels += [f"dec{i}.self"] * heads
        labels += [f"dec{i}.cross"] * heads
    return labels


def lam_closed_forms(n: int, window: int) -> tuple[int, int]:
    """(dot products, peak score elements) of one kernel call, criterion 2.

    The blocks hold s*w*(2w-1) scores; the trailing rows add rem*(rem+w-1)
    dot products after the block scores are freed, so the peak is the
    block term alone.
    """
    s, rem = divmod(n, window)
    blocks = s * window * (2 * window - 1)
    return blocks + rem * (rem + window - 1), blocks


def _lam_stages(start: int, end: int, events, mask_ns: int) -> dict[str, int] | None:
    """Split one kernel call into stages from its op events (name, t0, t1).

    slab: up to the first score op; score: through the first matmul;
    softmax: mask build plus everything up to the value matmul; value:
    that matmul and the reshape after it; remainder: the rest of the call.
    Returns None when the call does not have the score/value matmul pair.
    """
    matmuls = [i for i, e in enumerate(events) if e[0] == "matmul_batched"]
    if len(matmuls) < 2:
        return None
    score_at = next(i for i, e in enumerate(events) if e[0] in ("transpose_last2", "matmul_batched"))
    value_end = events[matmuls[1]][2]
    after = matmuls[1] + 1
    if after < len(events) and events[after][0] == "reshape":
        value_end = events[after][2]
    return {
        "slab": events[score_at][1] - start - mask_ns,
        "score": events[matmuls[0]][2] - events[score_at][1],
        "softmax": events[matmuls[1]][1] - events[matmuls[0]][2] + mask_ns,
        "value": value_end - events[matmuls[1]][1],
        "remainder": end - value_end,
    }


class Tracer:
    """Installs the wrappers and aggregates what they record."""

    def __init__(self, labels: list[str]):
        self.labels = labels
        self.windows: list[tuple[str, int, Counter]] = []
        self.lam_calls: list[tuple[int, int, int, int]] = []  # n, window, dots, peak
        self._acc: Counter | None = None
        self._opened = 0
        self._dots0 = 0
        self._depth = 0
        self._lam_events: list | None = None
        self._mask_ns = 0
        self._saved: list[tuple[object, str, object]] = []

    # -- windows -----------------------------------------------------------

    def _open(self) -> None:
        if self._acc is not None:
            raise RuntimeError("tracing window opened inside another")
        self._acc = Counter()
        self._opened = now()
        self._dots0 = tensor_mod.op_counter().dot_products

    def _close(self, kind: str, units: int) -> None:
        acc = self._acc
        acc["wall_ns"] += now() - self._opened
        acc["tensor.dot_products"] += tensor_mod.op_counter().dot_products - self._dots0
        self.windows.append((kind, units, acc))
        self._acc = None

    @contextmanager
    def window(self, kind: str, units: int = 1):
        """Attribute everything inside the block to ``units`` windows of ``kind``."""
        self._open()
        try:
            yield
        finally:
            self._close(kind, units)

    # -- installation --------------------------------------------------------

    def _patch(self, module, name: str, value) -> None:
        self._saved.append((module, name, getattr(module, name)))
        setattr(module, name, value)

    def __enter__(self) -> "Tracer":
        for name in TENSOR_OPS:
            self._patch(tensor_mod, name, self._traced_op(name, getattr(tensor_mod, name)))
        self._patch(model_mod, "Graph", self._graph_class(model_mod.Graph))
        self._patch(model_mod, "_resolve_inner", self._traced_resolve(model_mod._resolve_inner))
        self._patch(model_mod, "evaluate", self._traced_evaluate(model_mod.evaluate))
        self._patch(lam_mod, "_lam_attention", self._traced_lam(lam_mod._lam_attention))
        self._patch(lam_mod, "local_mask", self._traced_mask(lam_mod.local_mask, block=True))
        self._patch(lam_mod, "_remainder_mask", self._traced_mask(lam_mod._remainder_mask, block=False))
        return self

    def __exit__(self, *exc) -> None:
        while self._saved:
            module, name, value = self._saved.pop()
            setattr(module, name, value)

    # -- wrappers --------------------------------------------------------------

    def _traced_op(self, name: str, fn):
        def traced(*args, **kwargs):
            if self._depth or self._acc is None:
                return fn(*args, **kwargs)
            self._depth += 1
            t0 = now()
            try:
                out = fn(*args, **kwargs)
            finally:
                self._depth -= 1
            t1 = now()
            acc = self._acc
            acc["tensor.ops"] += 1
            acc["tensor.op_ns"] += t1 - t0
            acc[f"tensor.ns.{name}"] += t1 - t0
            if self._lam_events is not None:
                self._lam_events.append((name, t0, t1))
                if name not in VIEW_OPS:
                    acc["lam.bytes"] += out.data.nbytes
            return out

        return traced

    def _graph_class(self, base):
        tracer = self

        class TracedGraph(base):
            def __init__(self):
                super().__init__()
                tracer._open()

            def backward(self, loss):
                recorded = now()
                grads = super().backward(loss)
                acc = tracer._acc
                acc["autodiff.tape_nodes"] += len(self.nodes)
                acc["autodiff.record_ns"] += recorded - tracer._opened
                acc["autodiff.backward_ns"] += now() - recorded
                tracer._close("train", 1)
                return grads

        return TracedGraph

    def _traced_resolve(self, resolve):
        def traced_resolve(kind, window, seed):
            inner = resolve(kind, window, seed)

            def probe(ops, q, k, v):
                t0 = now()
                out = inner(ops, q, k, v)
                acc = self._acc
                if acc is not None:
                    label = self.labels[acc["attention.calls"] % len(self.labels)]
                    acc["attention.calls"] += 1
                    acc[f"attention.ns.{label}"] += now() - t0
                return out

            return probe

        return traced_resolve

    def _traced_evaluate(self, evaluate):
        def traced_evaluate(model, windows):
            with self.window("eval", len(windows)):
                return evaluate(model, windows)

        return traced_evaluate

    def _traced_lam(self, lam_attention):
        def traced_lam(ops, q, k, v, window, counters=None, pad_guard=True):
            own = LamCounters()
            outer_events, self._lam_events = self._lam_events, []
            self._mask_ns = 0
            start = now()
            try:
                out = lam_attention(ops, q, k, v, window, own, pad_guard)
            finally:
                events, self._lam_events = self._lam_events, outer_events
            end = now()
            if counters is not None:
                counters.dot_products += own.dot_products
                counters.score_alloc(own.peak_score_elements)
                counters.score_free(own.peak_score_elements)
            n = ops.value(q).shape[0]
            self.lam_calls.append((n, window, own.dot_products, own.peak_score_elements))
            acc = self._acc
            if acc is not None:
                acc["lam.calls"] += 1
                acc["lam.ns"] += end - start
                stages = _lam_stages(start, end, events, self._mask_ns)
                for stage, ns in (stages or {}).items():
                    acc[f"lam.stage_ns.{stage}"] += ns
            return out

        return traced_lam

    def _traced_mask(self, build, block: bool):
        def traced_mask(*args, **kwargs):
            t0 = now()
            mask = build(*args, **kwargs)
            if block:
                self._mask_ns += now() - t0
            if self._acc is not None and self._lam_events is not None:
                self._acc["lam.bytes"] += mask.data.nbytes
            return mask

        return traced_mask

    # -- aggregation ---------------------------------------------------------

    def total(self, kinds) -> tuple[Counter, int, int]:
        """Summed counters, units and window count over windows of ``kinds``."""
        acc, units, count = Counter(), 0, 0
        for kind, u, c in self.windows:
            if kind in kinds:
                acc.update(c)
                units += u
                count += 1
        return acc, units, count

    def per_unit_values(self, kinds, key: str) -> set[float]:
        """Distinct per-unit values of one counter across windows of ``kinds``."""
        return {c[key] / u for kind, u, c in self.windows if kind in kinds}
