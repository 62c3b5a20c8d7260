"""Banded causal attention in Θ(n*window) via block decomposition.

Each query row i attends to the ``window`` positions i-window+1 .. i. The
quadratic reference (:func:`localattn.attention.masked_full_attention_oracle`)
materializes all n^2 scores and masks most of them away; here the rows are
cut into s = floor(n / window) query blocks of ``window`` rows, each paired
with the (2*window - 1) key rows its band can reach, so only
s * window * (2*window - 1) scores ever exist. Row indexing between the
flat and blocked layouts:

    block r = i // window, offset i1 = i mod window
    key column j lands in block r at slot j1 = j - (r-1)*window - 1

Both layouts come from the ``row_blocks`` op: queries are its width-window
blocks, a read-only strided view of the query rows themselves (no copy),
and keys and values its width-(2*window-1) blocks, a strided view over
one zero-padded copy in which neighbouring key slabs share window-1 rows
(the "sliding chunks" layout of Longformer). Block 0's key slab starts
before the sequence; those rows are zero and block 0's mask shuts them
off (without that guard the zero rows would win softmax weight, which is
the seeded fault used by the masking tests). Every later block shares one
band, so the mask holds at most two blocks, O(window^2) at any n. It is
a :class:`~localattn.tensor.BandMask`: every query row sees at most
``window`` consecutive slab columns, and -inf fills the rest, so
``softmax_lastdim`` masks, scales and normalizes only those band columns,
bitwise equal to the dense softmax, and only scales a chunk of blocks
that takes the shared band alone, which is zero on its band. Rows past
s*window (when window does not divide n) run as one direct masked slab:
a ``rows`` slice of the queries against the last window-1+remainder
keys, under a plain mask cut from the unguarded band block's corner
(rem < window keeps that slab small). Both masks are pure functions of
integers, built once per key in a bounded memo and shared read-only: the
block mask keyed on (blocks, window, pad_guard), the corner on (rem, window).
:func:`score_counts` is the closed form of the work this layout does,
the one copy every count check compares against.

The blocks and the slab both attend through
:func:`localattn.attention._full_attention`, which also keeps the
counters, and all heavy math goes through the ``ops`` backend, so the
same kernel runs eagerly or on the autodiff tape. Above 2^18 block
scores (2 MB) the core normalizes and weights them a chunk of blocks at
a time, so a long call holds its scores and one chunk of weights, never
the whole weights; every block's band lies inside its own slab, so no
chunk needs another's softmax state and the output is bitwise the
one-chunk output. Toy and n=720 calls stay within the budget and record
the same tape; a recorded call above it adds ``rows`` nodes whose VJPs
each zero-fill a scores-sized gradient.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .attention import _check_qkv, _check_window, _full_attention
from . import tensor
from .tensor import BandMask, Tensor

__all__ = [
    "LamCounters",
    "score_counts",
    "local_mask",
    "lam_forward",
    "default_window",
]


@dataclass
class LamCounters:
    """Work and memory instrumentation for one or more attention forwards.

    ``dot_products`` accumulates score-stage products (query-key dots
    only, so the count is comparable across mechanisms).
    ``peak_score_elements`` is the largest number of score-matrix elements
    alive at once, tracked by alloc/free lifetime hooks.
    """

    dot_products: int = 0
    peak_score_elements: int = 0
    _live: int = field(default=0, repr=False)

    def score_alloc(self, count: int) -> None:
        self._live += count
        if self._live > self.peak_score_elements:
            self.peak_score_elements = self._live

    def score_free(self, count: int) -> None:
        self._live = max(0, self._live - count)


def score_counts(n: int, window: int) -> tuple[int, int]:
    """(dot_products, peak_score_elements) that one kernel call counts.

    The s = floor(n / window) blocks hold s*window*(2*window-1) scores; the
    rem = n mod window trailing rows add rem*(rem+window-1) more, after the
    block scores are freed, so the blocks alone set the peak.
    """
    _check_window(n, window)
    s, rem = divmod(n, window)
    blocked = s * window * (2 * window - 1)
    return blocked + rem * (rem + window - 1), blocked


def local_mask(s: int, window: int, pad_guard: bool = True) -> BandMask:
    """Additive block band mask: zero inside the band, -inf outside.

    Score block r's mask entry [i1, j1] is zero iff i1 <= j1 <= i1+window-1
    (the band in slab coordinates) and, for block 0, j1 >= window-1 so the
    zero-padded key rows stay unreachable. Only the distinct blocks are
    stored: block 0, then the band blocks 1 .. s-1 share, so the result
    holds min(s, 2) blocks and ``softmax_lastdim`` applies the last one to
    every later score block. ``pad_guard=False`` drops block 0's guard,
    leaving the one band block; it exists only to demonstrate the failure
    it causes. The mask is built once per (blocks, window, pad_guard), one
    block at every s unguarded, and shared read-only by later calls.
    """
    if s < 1 or window < 1:
        raise ValueError(f"need s >= 1 and window >= 1, got s={s}, window={window}")
    return _block_mask(min(s, 2) if pad_guard else 1, window, pad_guard)


@functools.lru_cache(maxsize=8)
def _block_mask(blocks: int, window: int, pad_guard: bool) -> BandMask:
    width = 2 * window - 1
    i1 = np.arange(window)[:, np.newaxis]
    j1 = np.arange(width)[np.newaxis, :]
    band = (i1 <= j1) & (j1 <= i1 + window - 1)
    kept = [band & (j1 >= window - 1), band][:blocks] if pad_guard else [band]
    return BandMask.of(np.where(np.stack(kept), 0.0, -np.inf))


@functools.lru_cache(maxsize=8)
def _remainder_mask(rem: int, window: int) -> Tensor:
    """Read-only mask for the trailing rows against their key slab, built once per key.

    Slab column c maps to source row s*window - window + 1 + c; row t
    (source row s*window + t) keeps c in [t, t + window - 1], as in the
    unguarded band block, whose top-left corner this copies.
    """
    mask = Tensor._wrap(_block_mask(1, window, False).data[0, :rem, : rem + window - 1].copy())
    mask.data.flags.writeable = False
    return mask


def _lam_attention(ops, q, k, v, window: int, counters: LamCounters | None = None,
                   pad_guard: bool = True):
    """Backend-generic banded attention; see module docstring for layout."""
    n = ops.value(q).shape[0]
    _check_window(n, window)
    s, rem = divmod(n, window)
    width = 2 * window - 1
    blocked = _full_attention(
        ops,
        ops.row_blocks(q, window, window),
        ops.row_blocks(k, window, width),
        ops.row_blocks(v, window, width),
        local_mask(s, window, pad_guard),
        counters,
    )
    main = ops.reshape(blocked, (s * window, ops.value(v).shape[-1]))
    if rem == 0:
        return main

    # trailing rows: one direct masked slab, no padding (s >= 1 here)
    base = s * window - window + 1
    rem_out = _full_attention(
        ops, ops.rows(q, s * window, n), ops.rows(k, base, n), ops.rows(v, base, n),
        _remainder_mask(rem, window), counters,
    )
    return ops.concat_axis0([main, rem_out])


def lam_forward(q: Tensor, k: Tensor, v: Tensor, window: int,
                counters: LamCounters | None = None, pad_guard: bool = True) -> Tensor:
    """Banded attention over the trailing window, computed blockwise.

    Equals the quadratic masked oracle to 64-bit tolerance while touching
    Θ(n*window) scores. ``counters`` collects dot products and peak score
    elements; ``pad_guard=False`` disables block 0's padding mask (a
    deliberate fault switch for negative tests).
    """
    _check_qkv(q, k, v)
    return _lam_attention(tensor, q, k, v, window, counters, pad_guard)


def default_window(n: int) -> int:
    """Window width as a function of sequence length: 4*ceil(log2 n), clamped to [1, n]."""
    if n < 1:
        raise ValueError(f"sequence length must be >= 1, got {n}")
    if n == 1:
        return 1
    return min(n, 4 * math.ceil(math.log2(n)))
