"""Tape-recorded reverse-mode differentiation over the tensor kernels.

A :class:`Graph` exposes the same operation vocabulary as the eager
backend, the :mod:`localattn.tensor` module itself, so any kernel written
against that interface can be recorded and differentiated without a
second implementation. Forward values are computed immediately
(define-by-run); the tape's insertion order is a topological order by
construction, and backward walks it in reverse accumulating
vector-Jacobian products.

Masked softmax entries (-inf inputs) are structural zeros: their output is
exactly 0 and no gradient flows through them, which is the limit of the
finite-mask case.

:func:`finite_diff_grad` is the independent oracle used to verify every
rule here; it never touches the tape.
"""

from __future__ import annotations

from itertools import accumulate
from typing import Callable, Sequence

import numpy as np

from .tensor import DimensionError, Tensor
from . import tensor as T

__all__ = ["Node", "Graph", "GraphContractError", "finite_diff_grad"]


class GraphContractError(ValueError):
    """A graph operation was used outside its contract."""


class Node:
    """One record on the tape: op kind, input node ids, saved forward value."""

    __slots__ = ("id", "op", "inputs", "value", "grad", "_vjp")

    def __init__(self, id: int, op: str, inputs: tuple[int, ...], value: Tensor, vjp):
        self.id = id
        self.op = op
        self.inputs = inputs
        self.value = value
        self.grad: np.ndarray | None = None
        self._vjp = vjp

    @property
    def shape(self) -> tuple[int, ...]:
        return self.value.shape

    def __repr__(self) -> str:
        return f"Node({self.id}, {self.op}, shape={self.value.shape})"


class Graph:
    """Append-only tape of operations; insertion order is topological."""

    def __init__(self):
        self.nodes: list[Node] = []

    def _record(self, op: str, inputs: Sequence[Node], value: Tensor, vjp) -> Node:
        node = Node(len(self.nodes), op, tuple(n.id for n in inputs), value, vjp)
        self.nodes.append(node)
        return node

    # -- leaves ----------------------------------------------------------

    def parameter(self, t: Tensor) -> Node:
        return self._record("parameter", (), t, None)

    def constant(self, t: Tensor) -> Node:
        return self._record("constant", (), t, None)

    # -- operations ------------------------------------------------------

    def matmul_batched(self, a: Node, b: Node) -> Node:
        out = T.matmul_batched(a.value, b.value)
        av, bv = a.value.data, b.value.data

        def vjp(g):
            ga = np.matmul(g, np.swapaxes(bv, -1, -2))
            gb = np.matmul(np.swapaxes(av, -1, -2), g)
            return ga, gb

        return self._record("matmul_batched", (a, b), out, vjp)

    def transpose_last2(self, a: Node) -> Node:
        out = T.transpose_last2(a.value)

        def vjp(g):
            return (np.swapaxes(g, -1, -2),)

        return self._record("transpose_last2", (a,), out, vjp)

    def masked_softmax(self, scores: Node, mask: Tensor | None, c: float) -> Node:
        out = T.masked_softmax(scores.value, mask, c)
        y = out.data

        def vjp(g):
            # y is exactly 0 at masked inputs, so those entries get zero grad
            inner = np.sum(g * y, axis=-1, keepdims=True)
            return (y * (g - inner) * c,)

        return self._record("masked_softmax", (scores,), out, vjp)

    def add(self, a: Node, b: Node) -> Node:
        out = T.add(a.value, b.value)

        def vjp(g):
            return g, g

        return self._record("add", (a, b), out, vjp)

    def affine(self, x: Node, w: Node, b: Node, alpha: float | None = None) -> Node:
        out = T.affine(x.value, w.value, b.value)
        pre = out.data
        if alpha is not None:
            out = Tensor._wrap(T._leaky(pre, alpha))
        xv, wv = x.value.data, w.value.data

        def vjp(g):
            gpre = g if alpha is None else g * np.where(pre >= 0, 1.0, alpha)
            return gpre @ wv.T, xv.T @ gpre, gpre.sum(axis=0)

        return self._record("affine", (x, w, b), out, vjp)

    def row_blocks(self, m: Node, window: int, width: int) -> Node:
        out = T.row_blocks(m.value, window, width)
        n, d = m.value.shape
        s, lead = out.shape[0], width - window

        def vjp(g):
            # overlap-add: each block's last `window` rows are its own source
            # rows, its first `lead` rows the previous block's last ones
            gm = np.zeros((n, d), dtype=g.dtype)
            gm[: s * window] = g[:, lead:].reshape(s * window, d)
            prev = gm[: (s - 1) * window].reshape(s - 1, window, d)
            prev[:, window - lead :] += g[1:, :lead]
            return (gm,)

        return self._record("row_blocks", (m,), out, vjp)

    def rows(self, m: Node, start: int, stop: int) -> Node:
        out = T.rows(m.value, start, stop)
        src_shape = m.value.shape

        def vjp(g):
            gm = np.zeros(src_shape, dtype=g.dtype)
            gm[start:stop] = g
            return (gm,)

        return self._record("rows", (m,), out, vjp)

    def concat_axis0(self, blocks: Sequence[Node]) -> Node:
        out = T.concat_axis0([b.value for b in blocks])
        ends = list(accumulate(b.value.shape[0] for b in blocks))

        def vjp(g):
            return [g[start:stop] for start, stop in zip([0] + ends, ends)]

        return self._record("concat_axis0", tuple(blocks), out, vjp)

    def concat_lastdim(self, parts: Sequence[Node]) -> Node:
        out = T.concat_lastdim([p.value for p in parts])
        ends = list(accumulate(p.value.shape[-1] for p in parts))

        def vjp(g):
            return [g[..., start:stop] for start, stop in zip([0] + ends, ends)]

        return self._record("concat_lastdim", tuple(parts), out, vjp)

    def reshape(self, a: Node, shape) -> Node:
        out = T.reshape(a.value, shape)
        orig = a.value.shape

        def vjp(g):
            return (g.reshape(orig),)

        return self._record("reshape", (a,), out, vjp)

    def mse(self, pred: Node, target: Tensor) -> Node:
        if pred.value.shape != target.shape:
            raise DimensionError(
                f"mse shapes disagree: {pred.value.shape} vs {target.shape}"
            )
        diff = pred.value.data - target.data
        out = Tensor._wrap(np.asarray(np.mean(diff * diff)))

        def vjp(g):
            return (g * 2.0 * diff / diff.size,)

        return self._record("mse", (pred,), out, vjp)

    def value(self, node: Node) -> Tensor:
        return node.value

    # -- reverse pass ------------------------------------------------------

    def backward(self, loss: Node) -> dict[int, Tensor]:
        """Gradients of a scalar loss w.r.t. every parameter node.

        Returns a map from parameter node id to its gradient tensor.
        """
        if loss.value.ndim != 0 and loss.value.size != 1:
            raise GraphContractError(
                f"loss must be scalar, got shape {loss.value.shape}"
            )
        for node in self.nodes:
            node.grad = None
        loss.grad = np.ones_like(loss.value.data)
        for node in reversed(self.nodes[: loss.id + 1]):
            if node.grad is None or node._vjp is None:
                continue
            for input_id, g in zip(node.inputs, node._vjp(node.grad)):
                src = self.nodes[input_id]
                if src.op == "constant":
                    continue
                if src.grad is None:
                    src.grad = np.array(g)
                else:
                    src.grad += g
        return {
            n.id: Tensor._wrap(n.grad if n.grad is not None else np.zeros_like(n.value.data))
            for n in self.nodes
            if n.op == "parameter"
        }


def finite_diff_grad(f: Callable[[Tensor], float], x: Tensor) -> Tensor:
    """Central-difference gradient estimate at the fixed step h = 1e-5.

    Coordinate by coordinate, (f(x + h e_i) - f(x - h e_i)) / 2h.
    Independent of the tape: only evaluates ``f``. Raises
    ``ArithmeticError`` if an evaluation comes back non-finite.
    """
    h = 1e-5
    flat = x.data.reshape(-1)
    grad = np.zeros_like(flat)
    for i in range(flat.size):
        bumped = flat.copy()
        bumped[i] = flat[i] + h
        fp = f(Tensor._wrap(bumped.reshape(x.shape)))
        bumped[i] = flat[i] - h
        fm = f(Tensor._wrap(bumped.reshape(x.shape)))
        if not (np.isfinite(fp) and np.isfinite(fm)):
            raise ArithmeticError(f"non-finite evaluation at coordinate {i}")
        grad[i] = (fp - fm) / (2.0 * h)
    return Tensor._wrap(grad.reshape(x.shape))
