"""Dense tensors of rank 0-3 and the numeric kernels everything else composes.

Values are always float64. The masking sentinel is the IEEE -inf:
exp(-inf) == 0, so masked softmax entries come out as exact zeros rather
than small positives. -inf is only legal in tensors built as masks or
pre-softmax scores; NaN is never legal and is rejected at construction.

All public operations are pure: inputs are never mutated. Every batched
matrix product runs through :func:`matmul_batched`, which counts dot
products into a module-level counter.

This module is also the eager ``ops`` backend: code written against the
op vocabulary (``constant``, ``matmul_batched``, ``masked_softmax``,
``row_blocks``, ``rows``, ``concat_axis0``, ``concat_lastdim``,
``affine``, ``add``, ``transpose_last2``, ``reshape``, ``value``) takes
the module itself as ``ops`` to run plainly, or a
:class:`localattn.autodiff.Graph` to run on the tape.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

__all__ = [
    "Tensor",
    "DimensionError",
    "DegenerateRowError",
    "OpCounter",
    "op_counter",
    "matmul_batched",
    "softmax_lastdim",
    "masked_softmax",
    "gather_rows_padded",
    "row_blocks",
    "rows",
    "concat_axis0",
    "concat_lastdim",
    "affine",
    "leaky_relu",
    "add",
    "scale",
    "transpose_last2",
    "reshape",
    "constant",
    "value",
]


class DimensionError(ValueError):
    """Operand shapes do not fit the operation."""


class DegenerateRowError(ValueError):
    """A softmax row contained no finite entry and cannot be normalized."""


class Tensor:
    """Immutable-by-convention dense array of rank 0 to 3, row-major.

    Thin wrapper over a numpy array that enforces the no-NaN invariant and
    restricts -inf to explicitly flagged tensors (masks, pre-softmax
    scores). Operations never write through ``data``.
    """

    __slots__ = ("data",)

    def __init__(self, data, allow_neg_inf: bool = False):
        arr = np.asarray(data, dtype=np.float64)
        if arr.ndim > 3:
            raise DimensionError(f"rank {arr.ndim} > 3 not supported (shape {arr.shape})")
        if np.isnan(arr).any():
            raise ValueError("NaN entries are not permitted in a Tensor")
        if np.isposinf(arr).any():
            raise ValueError("+inf entries are not permitted in a Tensor")
        if not allow_neg_inf and np.isneginf(arr).any():
            raise ValueError(
                "-inf entries are only permitted in mask / pre-softmax score tensors"
            )
        self.data = arr

    # Internal constructor for op results whose cleanliness is guaranteed
    # by the producing kernel; skips the O(size) scans.
    @classmethod
    def _wrap(cls, arr: np.ndarray) -> "Tensor":
        t = object.__new__(cls)
        t.data = arr
        return t

    @classmethod
    def zeros(cls, shape: Sequence[int]) -> "Tensor":
        return cls._wrap(np.zeros(tuple(shape)))

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    @property
    def dtype(self):
        return self.data.dtype

    def item(self) -> float:
        return float(self.data)

    def __repr__(self) -> str:
        return f"Tensor(shape={self.shape}, dtype={self.dtype.name})"


@dataclass
class OpCounter:
    """Running total of vector dot products performed by matmul_batched."""

    dot_products: int = 0


_COUNTER = OpCounter()


def op_counter() -> OpCounter:
    """The module-level chokepoint counter."""
    return _COUNTER


def matmul_batched(a: Tensor, b: Tensor) -> Tensor:
    """Matrix product on the last two axes, batched over a leading one.

    Both operands are rank 2, or both rank 3 with equal batch extents.
    Counts one dot product per output element into the module counter.
    """
    if a.ndim != b.ndim or a.ndim not in (2, 3):
        raise DimensionError(f"matmul operands must both be rank 2 or both rank 3, "
                             f"got {a.shape} vs {b.shape}")
    if a.shape[:-2] != b.shape[:-2]:
        raise DimensionError(f"batch extents disagree: {a.shape} vs {b.shape}")
    if a.shape[-1] != b.shape[-2]:
        raise DimensionError(f"inner extents disagree: {a.shape} vs {b.shape}")
    out = np.matmul(a.data, b.data)
    _COUNTER.dot_products += out.size
    return Tensor._wrap(out)


def _softmax_lastdim_inplace(arr: np.ndarray) -> np.ndarray:
    """Softmax over the last axis, overwriting ``arr`` (caller must own it).

    Row-max subtraction keeps exp in range; -inf inputs map to exact zeros.
    """
    rowmax = np.max(arr, axis=-1, keepdims=True)
    if np.isneginf(rowmax).any():
        raise DegenerateRowError("softmax row with no finite entry cannot be normalized")
    arr -= rowmax
    np.exp(arr, out=arr)
    arr /= np.sum(arr, axis=-1, keepdims=True)
    return arr


def softmax_lastdim(t: Tensor) -> Tensor:
    """Row-stochastic softmax over the last axis.

    Entries at -inf inputs are exactly 0; every row must contain at least
    one finite entry or :class:`DegenerateRowError` is raised.
    """
    return Tensor._wrap(_softmax_lastdim_inplace(np.array(t.data)))


def _plus_mask(arr: np.ndarray, m: np.ndarray) -> np.ndarray:
    """arr + m in a new array; a short rank-3 mask repeats its last block."""
    if arr.ndim == 3 and m.ndim == 3 and m.shape[1:] == arr.shape[1:] and 1 <= len(m) <= len(arr):
        out = np.empty_like(arr)
        b = len(m) - 1
        np.add(arr[:b], m[:b], out=out[:b])
        np.add(arr[b:], m[b], out=out[b:])
        return out
    if m.shape != arr.shape:
        raise DimensionError(f"mask shape {m.shape} does not fit scores {arr.shape}")
    return arr + m


def masked_softmax(scores: Tensor, mask: Tensor | None, c: float) -> Tensor:
    """softmax((scores + mask) * c) over the last axis, in one owned buffer.

    ``mask`` is additive (0 keeps an entry, -inf drops it) or None. Against
    rank-3 scores of s blocks a rank-3 mask may hold b <= s blocks: mask
    block r applies to score block r and the last mask block to every
    later one, so a band most blocks share is stored once. ``c`` must be
    positive and finite (a negative factor would turn -inf into +inf).
    """
    if not (np.isfinite(c) and c > 0):
        raise ValueError(f"softmax scale must be positive and finite, got {c}")
    if mask is None:
        out = scores.data * c
    else:
        out = _plus_mask(scores.data, mask.data)
        out *= c
    return Tensor._wrap(_softmax_lastdim_inplace(out))


def gather_rows_padded(m: Tensor, indices: Sequence[int], pad: float) -> Tensor:
    """Select rows of a rank-2 tensor; out-of-range indices yield pad rows.

    Negative or >= n indices are not errors -- they produce rows filled
    with ``pad``, which is what lets block decompositions reference
    positions before the start of a sequence.
    """
    if m.ndim != 2:
        raise DimensionError(f"gather source must be rank 2, got shape {m.shape}")
    idx = np.asarray(list(indices), dtype=np.int64)
    if idx.ndim != 1:
        raise DimensionError("indices must be a flat sequence")
    n, d = m.shape
    out = np.full((idx.shape[0], d), pad, dtype=m.dtype)
    valid = (idx >= 0) & (idx < n)
    out[valid] = m.data[idx[valid]]
    return Tensor._wrap(out)


def row_blocks(m: Tensor, window: int, width: int) -> Tensor:
    """Overlapping blocks of rows of a rank-2 tensor, shape (s, width, d).

    Block r < s = n // window holds rows r*window-(width-window) ..
    r*window+window-1: zeros for rows before the start, and rows past
    s*window are never reached. The result is a read-only strided view of
    one zero-padded copy, so neighbouring blocks share their overlap.
    """
    if m.ndim != 2:
        raise DimensionError(f"row_blocks source must be rank 2, got shape {m.shape}")
    n, d = m.shape
    if not 1 <= window <= n or not window <= width < 2 * window:
        raise ValueError(f"need 1 <= window <= {n} and window <= width < 2*window, "
                         f"got window={window}, width={width}")
    s, lead = n // window, width - window
    padded = np.zeros((lead + s * window, d))
    padded[lead:] = m.data[: s * window]
    row, col = padded.strides
    return Tensor._wrap(np.lib.stride_tricks.as_strided(
        padded, (s, width, d), (window * row, row, col), writeable=False))


def rows(m: Tensor, start: int, stop: int) -> Tensor:
    """Rows start .. stop-1 of a rank-2 tensor, as a view of the source."""
    if m.ndim != 2:
        raise DimensionError(f"rows source must be rank 2, got shape {m.shape}")
    if not 0 <= start <= stop <= m.shape[0]:
        raise ValueError(f"need 0 <= start <= stop <= {m.shape[0]}, "
                         f"got start={start}, stop={stop}")
    return Tensor._wrap(m.data[start:stop])


def concat_axis0(blocks: Sequence[Tensor]) -> Tensor:
    """Stack rank-2 blocks along rows, preserving block order."""
    if not blocks:
        raise DimensionError("need at least one block to concatenate")
    width = blocks[0].shape[-1]
    for b in blocks:
        if b.ndim != 2:
            raise DimensionError(f"blocks must be rank 2, got shape {b.shape}")
        if b.shape[-1] != width:
            raise DimensionError(
                f"trailing extents disagree: {b.shape[-1]} vs {width}"
            )
    return Tensor._wrap(np.concatenate([b.data for b in blocks], axis=0))


def concat_lastdim(parts: Sequence[Tensor]) -> Tensor:
    """Concatenate tensors along the last axis."""
    if not parts:
        raise DimensionError("need at least one part to concatenate")
    lead = parts[0].shape[:-1]
    for p in parts:
        if p.shape[:-1] != lead:
            raise DimensionError(f"leading extents disagree: {p.shape} vs {parts[0].shape}")
    return Tensor._wrap(np.concatenate([p.data for p in parts], axis=-1))


def _leaky(arr: np.ndarray, alpha: float) -> np.ndarray:
    return np.where(arr >= 0, arr, alpha * arr)


def affine(x: Tensor, w: Tensor, b: Tensor, alpha: float | None = None) -> Tensor:
    """``act(x @ w + b)`` with act = identity or leaky-ReLU of slope alpha."""
    if x.ndim != 2 or w.ndim != 2 or b.ndim != 1:
        raise DimensionError(
            f"affine expects x rank 2, w rank 2, b rank 1; got {x.shape}, {w.shape}, {b.shape}"
        )
    if w.shape[1] != b.shape[0]:
        raise DimensionError(f"bias extent {b.shape[0]} != output width {w.shape[1]}")
    pre = matmul_batched(x, w).data + b.data
    if alpha is not None:
        pre = _leaky(pre, alpha)
    return Tensor._wrap(pre)


def leaky_relu(t: Tensor, alpha: float) -> Tensor:
    """x for x >= 0 else alpha*x, elementwise."""
    return Tensor._wrap(_leaky(t.data, alpha))


def add(a: Tensor, b: Tensor) -> Tensor:
    """Elementwise sum of same-shape tensors (masks may contribute -inf)."""
    if a.shape != b.shape:
        raise DimensionError(f"add shapes disagree: {a.shape} vs {b.shape}")
    return Tensor._wrap(a.data + b.data)


def scale(t: Tensor, c: float) -> Tensor:
    """Multiply by a finite scalar (-inf entries stay -inf for c > 0)."""
    if not np.isfinite(c):
        raise ValueError(f"scale factor must be finite, got {c}")
    return Tensor._wrap(t.data * c)


def transpose_last2(t: Tensor) -> Tensor:
    if t.ndim < 2:
        raise DimensionError(f"need rank >= 2 to transpose, got shape {t.shape}")
    return Tensor._wrap(np.swapaxes(t.data, -1, -2))


def reshape(t: Tensor, shape: Iterable[int]) -> Tensor:
    """Row-major reshape; element order is preserved."""
    shape = tuple(shape)
    if len(shape) > 3:
        raise DimensionError(f"rank {len(shape)} > 3 not supported")
    return Tensor._wrap(t.data.reshape(shape))


def constant(t: Tensor) -> Tensor:
    """A tensor as an operand of the ops below (identity; ``Graph`` records it)."""
    return t


def value(t: Tensor) -> Tensor:
    """The plain tensor behind an operand (identity; ``Graph`` unwraps a node)."""
    return t
