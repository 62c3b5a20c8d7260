"""Tape-recorded reverse-mode differentiation over the tensor kernels.

A :class:`Graph` exposes the same operation vocabulary as the eager
backend, the :mod:`localattn.tensor` module itself, so any kernel written
against that interface can be recorded and differentiated without a
second implementation. Each differentiable op, the ``mse`` loss too, is
one row of :data:`VJPS`; a recorder built for the row's arity (one node
input, two, a ``SEQUENCE`` of nodes, or any other count) makes every row
a ``Graph`` method that looks up the eager ``tensor`` function of that
name at each call, runs it and stores its output and static arguments.
Each record holds its input nodes themselves, and no gradient. Backward
walks the tape (topological by construction) in reverse, reading each VJP
rule from the table when it runs; it sums vector-Jacobian products in one
local map keyed by node id and drops a node's gradient once its VJP runs.

Masked ``softmax_lastdim`` entries (-inf inputs) are structural zeros:
their output is exactly 0 and no gradient flows through them, which is
the limit of the finite-mask case.

:func:`finite_diff_grad` is the independent oracle used to verify every
rule here; it never touches the tape.
"""

from __future__ import annotations

from itertools import accumulate
from typing import Callable

import numpy as np

from .tensor import Tensor
from . import tensor as T

__all__ = ["Node", "Graph", "GraphContractError", "VJPS", "SEQUENCE", "finite_diff_grad"]


class GraphContractError(ValueError):
    """A graph operation was used outside its contract."""


class Node:
    """One tape record: op kind, input nodes, forward value, static args; VJP ``VJPS[op]``.

    It holds no gradient: :meth:`Graph.backward` keeps those in a local map.
    """

    __slots__ = ("id", "op", "inputs", "value", "static")

    def __init__(self, id: int, op: str, inputs: tuple[Node, ...], value: Tensor, static=()):
        self.id = id
        self.op = op
        self.inputs = inputs
        self.value = value
        self.static = static

    @property
    def shape(self) -> tuple[int, ...]:
        return self.value.shape

    def __repr__(self) -> str:
        return f"Node({self.id}, {self.op}, shape={self.value.shape})"


def _matmul_vjp(g, out, arrays):
    a, b = arrays
    return np.matmul(g, b.swapaxes(-1, -2)), np.matmul(a.swapaxes(-1, -2), g)


def _softmax_vjp(g, y, arrays, mask=None, c=1.0):
    # y is exactly 0 at masked inputs, so those entries get zero grad;
    # y * (g - inner) * c, evaluated in the one owned temporary g * y
    t = g * y
    inner = t.sum(axis=-1, keepdims=True)
    np.subtract(g, inner, out=t)
    np.multiply(y, t, out=t)
    t *= c
    return (t,)


def _affine_vjp(g, out, arrays, alpha=None):
    x, w, _ = arrays
    # a slope alpha > 0 keeps the sign, so out >= 0 exactly where x @ w + b >= 0
    gpre = g if alpha is None else g * np.where(out >= 0, 1.0, alpha)
    return gpre @ w.T, x.T @ gpre, gpre.sum(axis=0)


def _row_blocks_vjp(g, out, arrays, window, width):
    # overlap-add: each block's last `window` rows are its own source
    # rows, its first `lead` rows the previous block's last ones
    (n, d), s, lead = arrays[0].shape, out.shape[0], width - window
    gm = np.zeros((n, d), dtype=g.dtype)
    gm[: s * window] = g[:, lead:].reshape(s * window, d)
    if lead:
        prev = gm[: (s - 1) * window].reshape(s - 1, window, d)
        prev[:, window - lead :] += g[1:, :lead]
    return (gm,)


def _rows_vjp(g, out, arrays, start, stop):
    gm = np.zeros(arrays[0].shape, dtype=g.dtype)
    gm[start:stop] = g
    return (gm,)


def _split_vjp(axis: int):
    """The VJP of a concatenation along ``axis`` (0 or -1): g cut back into the parts."""
    lead = () if axis == 0 else (Ellipsis,)

    def vjp(g, out, arrays):
        ends = list(accumulate(a.shape[axis] for a in arrays))
        return [g[(*lead, slice(start, stop))] for start, stop in zip([0] + ends, ends)]

    return vjp


def _mse_vjp(g, out, arrays, target):
    diff = arrays[0] - target.data
    return (g * 2.0 * diff / diff.size,)


SEQUENCE = "sequence"  # the node inputs are one list of nodes, the first argument

# op name -> (node inputs, VJP rule). The node inputs are the leading
# arguments of ``tensor.<name>`` (or its first one, a list, for SEQUENCE);
# the arguments after them are static. A rule maps (g, out, input arrays,
# *static) to one gradient per node input.
VJPS = {
    "matmul_batched": (2, _matmul_vjp),
    "transpose_last2": (1, lambda g, out, arrays: (g.swapaxes(-1, -2),)),
    "softmax_lastdim": (1, _softmax_vjp),
    "add": (2, lambda g, out, arrays: (g, g)),
    "affine": (3, _affine_vjp),
    "row_blocks": (1, _row_blocks_vjp),
    "rows": (1, _rows_vjp),
    "concat_axis0": (SEQUENCE, _split_vjp(0)),
    "concat_lastdim": (SEQUENCE, _split_vjp(-1)),
    "reshape": (1, lambda g, out, arrays, shape: (g.reshape(arrays[0].shape),)),
    "mse": (1, _mse_vjp),
}


class Graph:
    """Append-only tape of operations; insertion order is topological.

    Every :data:`VJPS` op is a method too: ``tensor``'s arguments, nodes for the node inputs.
    """

    def __init__(self):
        self.nodes: list[Node] = []

    def _append(self, op: str, inputs: tuple[Node, ...], value: Tensor, static=()) -> Node:
        nodes = self.nodes
        node = Node(len(nodes), op, inputs, value, static)
        nodes.append(node)
        return node

    # -- leaves ----------------------------------------------------------

    def parameter(self, t: Tensor) -> Node:
        return self._append("parameter", (), t)

    def constant(self, t: Tensor) -> Node:
        return self._append("constant", (), t)

    def value(self, node: Node) -> Tensor:
        return node.value

    # -- reverse pass ------------------------------------------------------

    def backward(self, loss: Node) -> dict[int, Tensor]:
        """Gradients of a scalar loss on this tape w.r.t. every parameter node.

        Returns a map from parameter node id to its gradient tensor. Each
        node's gradient is popped from one local map just before its VJP
        runs. A first contribution is kept as it is, not copied; each later
        one makes a new sum, so no gradient is ever written through.
        """
        if loss.id >= len(self.nodes) or self.nodes[loss.id] is not loss:
            raise GraphContractError(f"loss {loss!r} was not recorded on this tape")
        if loss.value.ndim != 0 and loss.value.size != 1:
            raise GraphContractError(f"loss must be scalar, got shape {loss.value.shape}")
        grads = {loss.id: np.ones_like(loss.value.data)}
        for node in reversed(self.nodes[: loss.id + 1]):
            if node.id not in grads or (row := VJPS.get(node.op)) is None:
                continue
            srcs = node.inputs
            # a 1-tuple for the common one-input node: cheaper than the list
            arrays = (srcs[0].value.data,) if len(srcs) == 1 else [s.value.data for s in srcs]
            g_out = grads.pop(node.id)  # no later step reads it: freed as the walk goes
            for src, g in zip(srcs, row[1](g_out, node.value.data, arrays, *node.static)):
                if src.op != "constant":
                    prev = grads.get(src.id)
                    grads[src.id] = g if prev is None else prev + g
        return {
            n.id: Tensor._wrap(grads[n.id] if n.id in grads else np.zeros_like(n.value.data))
            for n in self.nodes
            if n.op == "parameter"
        }


def _recorder(name: str, arity: int | str) -> Callable[..., Node]:
    """The Graph method of table op ``name``: its eager forward, then one tape record.

    The method is built for the op's arity (one input, two, ``SEQUENCE``
    or any other count), so a call builds no argument list. The forward
    is looked up as ``tensor.<name>`` at every call, never bound early, so
    a wrapper installed on the module attribute sees each taped op too.
    """
    if arity == 1:
        def record(self: Graph, a: Node, *static) -> Node:
            return self._append(name, (a,), getattr(T, name)(a.value, *static), static)
    elif arity == 2:
        def record(self: Graph, a: Node, b: Node, *static) -> Node:
            out = getattr(T, name)(a.value, b.value, *static)
            return self._append(name, (a, b), out, static)
    elif arity is SEQUENCE:
        def record(self: Graph, parts, *static) -> Node:
            parts = tuple(parts)  # any iterable of nodes, read once
            out = getattr(T, name)([n.value for n in parts], *static)
            return self._append(name, parts, out, static)
    else:
        def record(self: Graph, *args) -> Node:
            nodes, static = args[:arity], args[arity:]
            out = getattr(T, name)(*[n.value for n in nodes], *static)
            return self._append(name, nodes, out, static)

    record.__name__, record.__qualname__ = name, f"Graph.{name}"
    record.__doc__ = f"``tensor.{name}`` on the nodes' values, recorded for its VJP."
    return record


for _name, (_arity, _) in VJPS.items():
    setattr(Graph, _name, _recorder(_name, _arity))


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
