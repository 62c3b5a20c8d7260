"""Dense tensors of rank 0-3 and the numeric kernels everything else composes.

Values are always float64. The masking sentinel is the IEEE -inf:
exp(-inf) == 0, so masked softmax entries come out as exact zeros rather
than small positives. -inf is only legal in tensors built as masks or
pre-softmax scores; NaN is never legal and is rejected at construction.

All public operations are pure: inputs are never mutated. Every batched
matrix product runs through :func:`matmul_batched`, which counts dot
products into a module-level counter. :func:`softmax_lastdim`, the one
softmax, fuses mask, scale and softmax; under a :class:`BandMask` (-inf
outside each row's diagonal band) it normalizes the band only, in one
pass, skipping the add where the mask is zero on its band, with weights
bitwise equal to its dense path.

This module is also the eager ``ops`` backend: code written against the
op vocabulary (the :data:`localattn.autodiff.VJPS` ops, ``constant`` and
``value``) takes the module itself as ``ops`` to run plainly, or a
:class:`localattn.autodiff.Graph`, which records each op it calls here,
to run on the tape.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

__all__ = [
    "Tensor",
    "BandMask",
    "DimensionError",
    "DegenerateRowError",
    "OpCounter",
    "op_counter",
    "matmul_batched",
    "softmax_lastdim",
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
    "mse",
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
        if not np.isfinite(arr).all():  # one scan of a clean array; the kinds only on failure
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


class BandMask(Tensor):
    """A rank-3 additive mask that is -inf everywhere outside each row's diagonal band.

    Over its last two axes, R rows by C >= R columns, row i keeps at most
    columns i .. i+C-R: every entry outside them is -inf. Under such a
    mask :func:`softmax_lastdim` normalizes the band alone. Build one with
    :meth:`of`, which checks the band once.
    """

    __slots__ = ()

    @classmethod
    def of(cls, data) -> "BandMask":
        """``data`` (rank 3, as a read-only row-major copy if needed) checked to be a band mask."""
        arr = np.ascontiguousarray(Tensor(data, allow_neg_inf=True).data).view()
        if arr.ndim != 3 or arr.shape[-1] < arr.shape[-2]:
            raise DimensionError(f"a band mask needs rank 3 and at least as many "
                                 f"columns as rows, got shape {arr.shape}")
        r, c = arr.shape[-2:]
        lag = np.arange(c) - np.arange(r)[:, np.newaxis]
        if (arr[..., (lag < 0) | (lag > c - r)] != -np.inf).any():
            raise ValueError("band mask has a finite entry outside its band")
        arr.flags.writeable = False  # on a view: a caller's own array stays writeable
        return cls._wrap(arr)


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
    ash, bsh = a.data.shape, b.data.shape
    if not (2 <= len(ash) == len(bsh) <= 3 and ash[:-2] == bsh[:-2] and ash[-1] == bsh[-2]):
        if len(ash) != len(bsh) or len(ash) not in (2, 3):
            raise DimensionError(f"matmul operands must both be rank 2 or both rank 3, "
                                 f"got {ash} vs {bsh}")
        if ash[:-2] != bsh[:-2]:
            raise DimensionError(f"batch extents disagree: {ash} vs {bsh}")
        raise DimensionError(f"inner extents disagree: {ash} vs {bsh}")
    out = np.matmul(a.data, b.data)
    _COUNTER.dot_products += out.size
    return Tensor._wrap(out)


def _row_max(arr: np.ndarray) -> np.ndarray:
    """Max over the last axis, keeping it; a row with no finite entry cannot be normalized."""
    rowmax = arr.max(axis=-1, keepdims=True)
    if (rowmax == -np.inf).any():
        raise DegenerateRowError("softmax row with no finite entry cannot be normalized")
    return rowmax


def _softmax_lastdim_inplace(arr: np.ndarray) -> np.ndarray:
    """Softmax over the last axis, overwriting ``arr`` (caller must own it).

    Row-max subtraction keeps exp in range; -inf inputs map to exact zeros.
    """
    arr -= _row_max(arr)
    np.exp(arr, out=arr)
    arr /= arr.sum(axis=-1, keepdims=True)
    return arr


def _check_mask(arr: np.ndarray, m: np.ndarray) -> None:
    """``m`` has the scores' shape, or holds 1 <= b <= s blocks of rank-3 scores of s blocks."""
    blocks = arr.ndim == m.ndim == 3 and m.shape[1:] == arr.shape[1:] and 1 <= len(m) <= len(arr)
    if not (blocks or m.shape == arr.shape):
        raise DimensionError(f"mask shape {m.shape} does not fit scores {arr.shape}")


def _add_mask(arr: np.ndarray, m: np.ndarray, out: np.ndarray) -> np.ndarray:
    """out = arr + m: leading index r of arr takes block min(r, b-1) of a b-block mask."""
    if m.shape == arr.shape:  # b = s
        return np.add(arr, m, out=out)
    own = len(m) - 1  # the first b-1 take their own block, the rest the last
    np.add(arr[:own], m[:own], out=out[:own])
    np.add(arr[own:], m[-1], out=out[own:])
    return out


def _band(arr: np.ndarray, width: int) -> np.ndarray:
    """Zero-copy view of each row's band of a contiguous array: row i, columns i .. i+width-1."""
    *lead, rows, _ = arr.shape
    *steps, row, col = arr.strides
    return np.ndarray((*lead, rows, width), arr.dtype, arr, 0, (*steps, row + col, col))


def _band_softmax(scores: np.ndarray, mask: np.ndarray, c: float) -> np.ndarray:
    """:func:`softmax_lastdim` under a band mask, computed on the band only, in one pass.

    The band is masked, scaled, shifted and exponentiated in a contiguous
    temporary and copied into the output's band; outside it the output
    keeps its zeros. The full output rows are summed, which repeats the
    dense path's reduction, and only the band is divided by those sums
    (0/x is +0.0), so the weights are bitwise the dense path's for scores
    without NaN or +inf. A mask that is zero on its whole band is not
    added, only the scale applied: x + 0.0 differs from x only in the
    sign of a zero, which the row-max subtraction and exp map to the same
    weight.
    """
    scores = np.ascontiguousarray(scores)  # the band view reads the buffer; no copy for the core
    width = scores.shape[-1] - scores.shape[-2] + 1
    out = np.zeros(scores.shape)
    sb, mb, ob = _band(scores, width), _band(mask, width), _band(out, width)
    if mb.any():
        t = _add_mask(sb, mb, np.empty(sb.shape))
        t *= c
    else:
        t = sb * c
    t -= _row_max(t)
    np.exp(t, out=t)  # faster here than into the strided band
    ob[...] = t
    np.divide(t, out.sum(axis=-1, keepdims=True), out=ob)
    return out


def softmax_lastdim(scores: Tensor, mask: Tensor | None = None, c: float = 1.0) -> Tensor:
    """softmax((scores + mask) * c) over the last axis, in one owned buffer.

    The one softmax: with no mask and c = 1 it is the plain one (x * 1.0
    is x). ``mask`` is additive (0 keeps an entry, -inf drops it) or None.
    Against rank-3 scores of s blocks a rank-3 mask may hold b <= s blocks:
    score block r takes mask block min(r, b-1) (:func:`_add_mask`, the one
    add rule), so a band most blocks share is stored once. ``c`` must be
    positive and finite (a negative factor would turn -inf into +inf).

    Under a :class:`BandMask` the scores are masked, scaled, exponentiated
    and divided on the band only, and a mask that is zero on its band is
    not added; the weights are bitwise those of the dense path, which
    every other mask takes.
    """
    if not (math.isfinite(c) and c > 0):
        raise ValueError(f"softmax scale must be positive and finite, got {c}")
    if mask is None:
        out = scores.data * c
    else:
        _check_mask(scores.data, mask.data)
        if isinstance(mask, BandMask):
            return Tensor._wrap(_band_softmax(scores.data, mask.data, c))
        out = _add_mask(scores.data, mask.data, np.empty(scores.shape))
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
    s*window are never reached. At width == window there are no rows
    before the start, and the result is a read-only strided view of m's
    own rows (m itself stays as writeable as it was); at width > window it
    is a read-only strided view of one zero-padded copy, so neighbouring
    blocks share their overlap.
    """
    if m.ndim != 2:
        raise DimensionError(f"row_blocks source must be rank 2, got shape {m.shape}")
    n, d = m.shape
    if not 1 <= window <= n or not window <= width < 2 * window:
        raise ValueError(f"need 1 <= window <= {n} and window <= width < 2*window, "
                         f"got window={window}, width={width}")
    s, lead = n // window, width - window
    if lead == 0:  # splitting the row axis in two is a view in any layout
        blocks = m.data[: s * window].reshape(s, window, d)
    else:
        padded = np.zeros((lead + s * window, d))
        padded[lead:] = m.data[: s * window]
        row, col = padded.strides
        blocks = np.ndarray((s, width, d), padded.dtype, padded, 0, (window * row, row, col))
    blocks.flags.writeable = False
    return Tensor._wrap(blocks)


def rows(m: Tensor, start: int, stop: int) -> Tensor:
    """Leading indices start .. stop-1 of a rank-2 or rank-3 tensor (rows or blocks), as a view."""
    if m.ndim not in (2, 3):
        raise DimensionError(f"rows source must be rank 2 or 3, got shape {m.shape}")
    if not 0 <= start <= stop <= m.shape[0]:
        raise ValueError(f"need 0 <= start <= stop <= {m.shape[0]}, "
                         f"got start={start}, stop={stop}")
    return Tensor._wrap(m.data[start:stop])


def concat_axis0(blocks: Sequence[Tensor]) -> Tensor:
    """Join rank-2 or rank-3 tensors along the leading axis, preserving their order."""
    if not blocks:
        raise DimensionError("need at least one block to concatenate")
    trail = blocks[0].shape[1:]
    for b in blocks:
        if b.ndim not in (2, 3):
            raise DimensionError(f"blocks must be rank 2 or 3, got shape {b.shape}")
        if b.shape[1:] != trail:
            raise DimensionError(f"trailing extents disagree: {b.shape[1:]} vs {trail}")
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
    # bitwise np.where(arr >= 0, arr, alpha * arr) for alpha > 0: rounded, alpha*x
    # stays <= x for x >= 0 and >= x for x < 0 (the reverse for alpha > 1),
    # and where the two are equal they share their sign, zeros included
    return (np.maximum if alpha <= 1 else np.minimum)(arr, alpha * arr)


def affine(x: Tensor, w: Tensor, b: Tensor, alpha: float | None = None) -> Tensor:
    """``act(x @ w + b)``, act = identity (alpha None) or leaky-ReLU of finite slope alpha > 0."""
    if alpha is not None and not (math.isfinite(alpha) and alpha > 0):
        raise ValueError(f"leaky slope must be None or finite and > 0, got {alpha}")
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
    arr = t.data
    if arr.ndim < 2:
        raise DimensionError(f"need rank >= 2 to transpose, got shape {arr.shape}")
    return Tensor._wrap(arr.swapaxes(-1, -2))


def reshape(t: Tensor, shape: Iterable[int]) -> Tensor:
    """Row-major reshape; element order is preserved."""
    shape = tuple(shape)
    if len(shape) > 3:
        raise DimensionError(f"rank {len(shape)} > 3 not supported")
    return Tensor._wrap(t.data.reshape(shape))


def mse(pred: Tensor, target: Tensor) -> Tensor:
    """Mean squared error over all entries, rank 0: the tape's loss and the eager metric."""
    if pred.shape != target.shape:
        raise DimensionError(f"mse shapes disagree: {pred.shape} vs {target.shape}")
    diff = pred.data - target.data
    return Tensor._wrap(np.asarray(np.mean(diff * diff)))


def constant(t: Tensor) -> Tensor:
    """A tensor as an operand of the ops below (identity; ``Graph`` records it)."""
    return t


def value(t: Tensor) -> Tensor:
    """The plain tensor behind an operand (identity; ``Graph`` unwraps a node)."""
    return t
