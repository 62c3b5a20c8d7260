"""Dense attention baselines, masks, and the contracts the blocked kernel must meet.

This module holds everything the banded kernel is measured against: full
(quadratic) attention, the banded causal mask, the masked-full-attention
oracle that defines ground truth, a sampled-query attention baseline,
permutation utilities for the equivariance checks, and the band-mass
diagnostic that quantifies how much attention weight a band of a given
width would capture.

Functions prefixed with an underscore take an ``ops`` backend
(:class:`localattn.tensor.EagerOps` or :class:`localattn.autodiff.Graph`)
and work on that backend's values, so the same code path runs plain or
recorded: :func:`_full_attention` is the attention core every mechanism
but the sampled one runs through (``localattn.lam`` calls it per block),
and :func:`_multi_head` is the model's multi-head wrapping. The public
functions are eager; :func:`full_attention` and the oracle keep their own
in-place code as the independent reference the core is checked against.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from .tensor import (
    DimensionError,
    Tensor,
    matmul_batched,
    op_counter,
    transpose_last2,
    _softmax_lastdim_inplace,
)

__all__ = [
    "band_mask",
    "full_attention",
    "masked_full_attention_oracle",
    "prob_attention",
    "attention_band_mass",
    "band_mass_per_row",
    "permute_rows",
]


def band_mask(n: int, window: int) -> Tensor:
    """Additive n x n mask keeping, per row i, columns i-window+1 .. i.

    Kept positions are 0, all others -inf, so adding the mask before the
    softmax zeroes everything outside the trailing band. Row i has exactly
    min(i+1, window) zeros: early rows have shorter history.
    """
    if not 1 <= window <= n:
        raise ValueError(f"window must be in [1, {n}], got {window}")
    i = np.arange(n)[:, np.newaxis]
    j = np.arange(n)[np.newaxis, :]
    keep = (j <= i) & (j >= i - window + 1)
    return Tensor._wrap(np.where(keep, 0.0, -np.inf))


def _check_qkv(q: Tensor, k: Tensor, v: Tensor) -> tuple[int, int, int]:
    if q.ndim != 2 or k.ndim != 2 or v.ndim != 2:
        raise DimensionError(
            f"q, k, v must be rank 2, got {q.shape}, {k.shape}, {v.shape}"
        )
    n, d_q = q.shape
    if k.shape != (n, d_q):
        raise DimensionError(f"k shape {k.shape} != q shape {q.shape}")
    if v.shape[0] != n:
        raise DimensionError(f"v has {v.shape[0]} rows, expected {n}")
    return n, d_q, v.shape[1]


def full_attention(
    q: Tensor, k: Tensor, v: Tensor, mask: Tensor | None = None, counters=None
) -> Tensor:
    """softmax((q kᵀ + mask) / sqrt(d_q)) v, the quadratic reference path.

    Scores, mask addition, scaling and softmax run in place on one owned
    n x n buffer, so peak extra memory is a single score matrix. With
    ``counters`` (any object with ``dot_products`` and score-lifetime
    hooks) the score-stage work is recorded.
    """
    n, d_q, _ = _check_qkv(q, k, v)
    if mask is not None and mask.shape != (n, n):
        raise DimensionError(f"mask shape {mask.shape} != ({n}, {n})")
    before = op_counter().dot_products
    scores = matmul_batched(q, transpose_last2(k))
    score_dots = op_counter().dot_products - before
    arr = scores.data
    if mask is not None:
        arr += mask.data
    arr *= 1.0 / math.sqrt(d_q)
    _softmax_lastdim_inplace(arr)
    if counters is not None:
        counters.dot_products += score_dots
        counters.score_alloc(n * n)
    out = matmul_batched(Tensor._wrap(arr), v)
    if counters is not None:
        counters.score_free(n * n)
    return out


def _full_attention(ops, q, k, v, mask: Tensor | None = None, counters=None):
    """softmax((q kᵀ + mask) / sqrt(d_q)) v on any backend: the one attention core.

    Works over the last two axes, so rank-3 operands attend block by block
    (the banded kernel's blocks and its remainder slab both run here);
    ``mask`` is a ``masked_softmax`` mask. With ``counters`` the score
    tensor's size is recorded as dot products and as live score elements
    until the value product is done. Bitwise equal to :func:`full_attention`.
    """
    scores = ops.matmul_batched(q, ops.transpose_last2(k))
    size = ops.value(scores).size
    if counters is not None:
        counters.dot_products += size
        counters.score_alloc(size)
    weights = ops.masked_softmax(scores, mask, 1.0 / math.sqrt(ops.value(q).shape[-1]))
    out = ops.matmul_batched(weights, v)
    if counters is not None:
        counters.score_free(size)
    return out


def masked_full_attention_oracle(q: Tensor, k: Tensor, v: Tensor, window: int) -> Tensor:
    """Banded attention computed the quadratic way: the ground truth.

    Builds the full n x n score matrix, applies :func:`band_mask`, and
    normalizes. The blocked kernel must reproduce this to 64-bit
    tolerance; every equivalence test compares against this function.
    """
    n, _, _ = _check_qkv(q, k, v)
    return full_attention(q, k, v, band_mask(n, window))


def _multi_head(ops, q, k, v, head_ws, w_out, inner):
    """Project q, k, v per head, run ``inner`` on each triple, merge.

    ``head_ws`` is a sequence of (w_q, w_k, w_v) backend values; ``inner``
    is a callable (ops, q, k, v) -> backend value.
    """
    outs = []
    for wq, wk, wv in head_ws:
        qh = ops.matmul_batched(q, ops.transpose_last2(wq))
        kh = ops.matmul_batched(k, ops.transpose_last2(wk))
        vh = ops.matmul_batched(v, ops.transpose_last2(wv))
        outs.append(inner(ops, qh, kh, vh))
    merged = outs[0] if len(outs) == 1 else ops.concat_lastdim(outs)
    return ops.matmul_batched(merged, w_out)


def _resolve_inner(kind: str, window: int | None, seed: int):
    """The attention callable (ops, q, k, v) -> out of one model kind, full or lam.

    ``seed`` is unused by both kinds; the signature stays (kind, window,
    seed) because the benchmark's tracer wraps this function by name and
    calls it with three positional arguments.
    """
    if kind == "full":
        return lambda ops, q, k, v: _full_attention(ops, q, k, v)
    if kind == "lam":
        if window is None:
            raise ValueError("kind 'lam' needs a window")
        from .lam import _lam_attention

        return lambda ops, q, k, v: _lam_attention(ops, q, k, v, window)
    raise ValueError(f"unknown attention kind {kind!r}; expected full or lam")


def sample_count(n: int) -> int:
    """How many queries / sampled keys the sampled baseline uses: 5*ceil(log2 n)."""
    if n < 1:
        raise ValueError(f"sequence length must be >= 1, got {n}")
    if n == 1:
        return 1
    return min(n, 5 * math.ceil(math.log2(n)))


def prob_attention(q: Tensor, k: Tensor, v: Tensor, seed: int = 0) -> Tensor:
    """Sampled-query attention: exact scores for few rows, value mean elsewhere.

    Picks u = 5*ceil(log2 n) queries whose sampled scores look least
    uniform (max minus mean over 5*ceil(log2 n) sampled keys each, drawn
    with replacement), gives those rows exact softmax attention over all
    keys, and fills every other row with the column mean of v, the limit
    of a zeroed query. When u >= n the selection saturates and the result
    is exactly full attention.
    """
    n, d_q, _ = _check_qkv(q, k, v)
    u = sample_count(n)
    if u >= n:
        return full_attention(q, k, v)
    rng = np.random.default_rng(seed)
    sampled = rng.integers(0, n, size=(n, u))
    # one (u x d_q) @ (d_q x 1) product per query, through the counted path
    k_samp = Tensor._wrap(k.data[sampled])
    q_col = Tensor._wrap(q.data[:, :, np.newaxis])
    samp_scores = matmul_batched(k_samp, q_col).data[..., 0] / math.sqrt(d_q)
    sparsity = samp_scores.max(axis=1) - samp_scores.mean(axis=1)
    order = np.argsort(-sparsity, kind="stable")
    selected = np.sort(order[:u])

    out = np.tile(v.data.mean(axis=0), (n, 1))
    scores = matmul_batched(Tensor._wrap(q.data[selected]), transpose_last2(k))
    arr = scores.data
    arr *= 1.0 / math.sqrt(d_q)
    _softmax_lastdim_inplace(arr)
    out[selected] = matmul_batched(Tensor._wrap(arr), v).data
    return Tensor._wrap(out)


def band_mass_per_row(q: Tensor, k: Tensor, window: int) -> Tensor:
    """Per query row, the unmasked softmax weight falling inside the band.

    Row i's value is the sum of attention scores over columns
    max(0, i-window+1) .. i of the dense, unmasked score matrix; in [0, 1].
    """
    n, d_q, _ = _check_qkv(q, k, Tensor.zeros((q.shape[0], 1)))
    if not 1 <= window <= n:
        raise ValueError(f"window must be in [1, {n}], got {window}")
    scores = matmul_batched(q, transpose_last2(k))
    arr = scores.data
    arr *= 1.0 / math.sqrt(d_q)
    _softmax_lastdim_inplace(arr)
    i = np.arange(n)[:, np.newaxis]
    j = np.arange(n)[np.newaxis, :]
    inside = (j <= i) & (j >= i - window + 1)
    return Tensor._wrap(np.sum(arr * inside, axis=1))


def attention_band_mass(q: Tensor, k: Tensor, window: int) -> float:
    """Mean over rows of :func:`band_mass_per_row`: fraction of mass kept."""
    return float(band_mass_per_row(q, k, window).data.mean())


def permute_rows(x: Tensor, pi: Sequence[int]) -> Tensor:
    """Row permutation out[i, .] = x[pi[i], .]; pi must be a bijection."""
    if x.ndim != 2:
        raise DimensionError(f"need rank 2, got shape {x.shape}")
    n = x.shape[0]
    idx = np.asarray(list(pi), dtype=np.int64)
    if idx.shape != (n,) or not np.array_equal(np.sort(idx), np.arange(n)):
        raise ValueError(f"pi is not a bijection on 0..{n - 1}")
    return Tensor._wrap(x.data[idx])
