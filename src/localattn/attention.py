"""Dense attention baselines, masks, and the contracts the blocked kernel must meet.

This module holds everything the banded kernel is measured against: full
(quadratic) attention, the banded causal mask, the masked-full-attention
oracle that defines ground truth, permutation utilities for the
equivariance checks, and :func:`band_mass`, the diagnostic that measures
how much attention weight trailing bands of given widths would capture.

:func:`_full_attention` and :func:`_multi_head` take an ``ops`` backend
(the :mod:`localattn.tensor` module or a :class:`localattn.autodiff.Graph`)
and work on that backend's values, so the same code path runs plain or
recorded: :func:`_full_attention` is the one attention core
(``localattn.lam`` calls it per block), and :func:`_multi_head` is the
model's multi-head wrapping. The public functions are eager and normalize
through one in-place chain, :func:`_softmax_weights`, so
:func:`full_attention` and the oracle stay an independent reference the
core is checked against. :func:`_check_qkv`
and :func:`_check_window` are plain shape and window checks, shared with
``localattn.lam`` and ``localattn.model``.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from .tensor import (
    DimensionError,
    Tensor,
    matmul_batched,
    transpose_last2,
    _softmax_lastdim_inplace,
)

__all__ = [
    "band_mask",
    "full_attention",
    "masked_full_attention_oracle",
    "band_mass",
    "permute_rows",
]


def _check_window(n: int, window: int) -> None:
    if not 1 <= window <= n:
        raise ValueError(f"window must be in [1, {n}], got {window}")


def band_mask(n: int, window: int) -> Tensor:
    """Additive n x n mask keeping, per row i, columns i-window+1 .. i.

    Kept positions are 0, all others -inf, so adding the mask before the
    softmax zeroes everything outside the trailing band. Row i has exactly
    min(i+1, window) zeros: early rows have shorter history.
    """
    _check_window(n, window)
    i = np.arange(n)[:, np.newaxis]
    j = np.arange(n)[np.newaxis, :]
    keep = (j <= i) & (j >= i - window + 1)
    return Tensor._wrap(np.where(keep, 0.0, -np.inf))


def _check_qkv(q: Tensor, k: Tensor, v: Tensor | None = None) -> tuple[int, int]:
    """Shape checks shared by every eager entry point; returns (n, d_q).

    q and k must be the same (n, d_q) with d_q >= 1 (the scores are scaled
    by 1/sqrt(d_q)); v, when given, must be rank 2 with n rows.
    """
    operands = (q, k) if v is None else (q, k, v)
    if any(t.ndim != 2 for t in operands):
        raise DimensionError(
            f"q, k, v must be rank 2, got {', '.join(str(t.shape) for t in operands)}"
        )
    n, d_q = q.shape
    if k.shape != (n, d_q):
        raise DimensionError(f"k shape {k.shape} != q shape {q.shape}")
    if d_q == 0:
        raise DimensionError(f"q and k need at least one column, got shape {q.shape}")
    if v is not None and v.shape[0] != n:
        raise DimensionError(f"v has {v.shape[0]} rows, expected {n}")
    return n, d_q


def _softmax_weights(q: Tensor, k: Tensor, mask: Tensor | None = None) -> np.ndarray:
    """softmax((q kᵀ + mask) / sqrt(d_q)) in place on one owned score array.

    The eager reference chain: full attention and the band-mass
    diagnostic both normalize through it.
    """
    arr = matmul_batched(q, transpose_last2(k)).data
    if mask is not None:
        arr += mask.data
    arr *= 1.0 / math.sqrt(q.shape[-1])
    return _softmax_lastdim_inplace(arr)


def full_attention(
    q: Tensor, k: Tensor, v: Tensor, mask: Tensor | None = None, counters=None
) -> Tensor:
    """softmax((q kᵀ + mask) / sqrt(d_q)) v, the quadratic reference path.

    Scores, mask addition, scaling and softmax run in place on one owned
    n x n buffer, so peak extra memory is a single score matrix. With
    ``counters`` (any object with ``dot_products`` and score-lifetime
    hooks) the score-stage work is recorded.
    """
    n, _ = _check_qkv(q, k, v)
    if mask is not None and mask.shape != (n, n):
        raise DimensionError(f"mask shape {mask.shape} != ({n}, {n})")
    weights = _softmax_weights(q, k, mask)
    if counters is not None:
        counters.dot_products += n * n
        counters.score_alloc(n * n)
    out = matmul_batched(Tensor._wrap(weights), v)
    if counters is not None:
        counters.score_free(n * n)
    return out


# eager _full_attention weights rank-3 scores of more than this many elements (2 MB)
# a chunk of at most this size of leading blocks at a time (one block at least);
# the only chunk budget: softmax_lastdim normalizes each chunk in one pass
_SCORE_CHUNK = 2**18


def _chunk_mask(mask: Tensor | None, g0: int, g1: int) -> Tensor | None:
    """The mask of score blocks g0 .. g1-1: a b-block mask's blocks min(g0, b-1) .. min(g1, b)-1.

    A slice of a band mask along its leading axis is still one, and still
    row-major, so it keeps the class without a second check.
    """
    if mask is None:
        return None
    b = len(mask.data)
    return type(mask)._wrap(mask.data[min(g0, b - 1) : min(g1, b)])


def _full_attention(ops, q, k, v, mask: Tensor | None = None, counters=None):
    """softmax((q kᵀ + mask) / sqrt(d_q)) v on any backend: the one attention core.

    Works over the last two axes, so rank-3 operands attend block by block
    (the banded kernel's blocks and its remainder slab both run here);
    ``mask`` is a ``softmax_lastdim`` mask. All scores come from one
    ``matmul_batched``; eager rank-3 scores of more than ``_SCORE_CHUNK``
    elements are then normalized and multiplied by v on ``rows`` slices of
    G = max(1, _SCORE_CHUNK // (rows * cols)) blocks at a time, joined by
    one ``concat_axis0``, so one chunk of weights (and, under a
    ``BandMask``, one band temporary of at most that size) is alive at
    once. An eager call drops its key operand once the scores exist and
    joins the chunk outputs only after dropping the scores, so the kernel's
    key slab copy is gone before the chunk loop and the scores and the
    joined output are never alive together. This is the attention core's
    only chunk loop: ``softmax_lastdim`` takes each chunk in one pass.
    No chunk needs another's softmax state, so the output is bitwise the
    one-chunk output. Every other call (every rank-2 one, and every call
    on the tape, where ``ops.value`` unwraps a node) runs the one-chunk op
    sequence: a tape keeps each chunk's weights for ``backward`` anyway,
    so chunking there saves no memory, and each chunk's ``rows`` VJP would
    zero-fill a scores-sized gradient, quadratic in n above the budget.
    With ``counters`` the score tensor's size is recorded as dot products
    and as live score elements until the value product is done. Bitwise
    equal to :func:`full_attention`.
    """
    scores = ops.matmul_batched(q, ops.transpose_last2(k))
    del k  # eagerly, this frees the kernel's key slab copy
    shape, size = ops.value(scores).shape, ops.value(scores).size
    if counters is not None:
        counters.dot_products += size
        counters.score_alloc(size)
    c = 1.0 / math.sqrt(ops.value(q).shape[-1])
    s, step = shape[0], max(1, _SCORE_CHUNK // (shape[-2] * shape[-1]))
    if len(shape) == 2 or step >= s or ops.value(scores) is not scores:
        out = ops.matmul_batched(ops.softmax_lastdim(scores, mask, c), v)
    else:
        spans = [(g0, min(g0 + step, s)) for g0 in range(0, s, step)]
        # one expression per chunk, so a chunk's weights are freed before the next is made
        outs = [
            ops.matmul_batched(
                ops.softmax_lastdim(ops.rows(scores, g0, g1), _chunk_mask(mask, g0, g1), c),
                ops.rows(v, g0, g1),
            )
            for g0, g1 in spans
        ]
        del scores  # eagerly, the scores are freed before the join
        out = ops.concat_axis0(outs)
    if counters is not None:
        counters.score_free(size)
    return out


def masked_full_attention_oracle(q: Tensor, k: Tensor, v: Tensor, window: int) -> Tensor:
    """Banded attention computed the quadratic way: the ground truth.

    Builds the full n x n score matrix, applies :func:`band_mask`, and
    normalizes. The blocked kernel must reproduce this to 64-bit
    tolerance; every equivalence test compares against this function.
    """
    n, _ = _check_qkv(q, k, v)
    return full_attention(q, k, v, band_mask(n, window))


def _multi_head(ops, q, k, v, head_ws, w_out, inner):
    """Project q, k, v per head, run ``inner`` on each triple, merge.

    ``head_ws`` is a sequence of (w_q, w_k, w_v) backend values, each
    (d_in, d_head) for its input's width d_in, so a head's projection is
    ``x @ w`` with no transpose; ``inner`` is a callable
    (ops, q, k, v) -> backend value.
    """
    outs = []
    for wq, wk, wv in head_ws:
        qh = ops.matmul_batched(q, wq)
        kh = ops.matmul_batched(k, wk)
        vh = ops.matmul_batched(v, wv)
        outs.append(inner(ops, qh, kh, vh))
    merged = outs[0] if len(outs) == 1 else ops.concat_lastdim(outs)
    return ops.matmul_batched(merged, w_out)


def band_mass(q: Tensor, k: Tensor, bands: Sequence[int]) -> list[float]:
    """Per band L, the row mean of the unmasked softmax weight on columns i-L+1 .. i.

    The kept columns are the zeros of :func:`band_mask`; each value lies in
    [0, 1]. The softmax runs once and every band is read from it.
    """
    n, _ = _check_qkv(q, k)
    for band in bands:
        _check_window(n, band)
    weights = _softmax_weights(q, k)
    lag = np.arange(n)[:, np.newaxis] - np.arange(n)
    return [float(np.sum(weights * ((lag >= 0) & (lag < band)), axis=1).mean()) for band in bands]


def permute_rows(x: Tensor, pi: Sequence[int]) -> Tensor:
    """Row permutation out[i, .] = x[pi[i], .]; pi must be a bijection."""
    if x.ndim != 2:
        raise DimensionError(f"need rank 2, got shape {x.shape}")
    n = x.shape[0]
    idx = np.asarray(list(pi), dtype=np.int64)
    if idx.shape != (n,) or not np.array_equal(np.sort(idx), np.arange(n)):
        raise ValueError(f"pi is not a bijection on 0..{n - 1}")
    return Tensor._wrap(x.data[idx])
