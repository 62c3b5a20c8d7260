"""Dense attention baselines: masks, oracle, heads, permutations."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose, assert_array_equal

import localattn.attention as attention
from localattn.attention import (
    _multi_head,
    band_mask,
    band_mass,
    full_attention,
    _chunk_mask,
    _full_attention,
    masked_full_attention_oracle,
    permute_rows,
)
from localattn import tensor
from localattn.autodiff import Graph
from localattn.lam import LamCounters, local_mask
from localattn.model import _resolve_inner
from localattn.tensor import BandMask, DimensionError, Tensor
from localattn.verify import _PreActProbe

NEG_INF = float("-inf")


class TestBandMask:
    def test_window1_keeps_diagonal_only(self):
        m = band_mask(3, 1).data
        assert_array_equal(np.isfinite(m), np.eye(3, dtype=bool))

    def test_window_n_is_causal_lower_triangle(self):
        m = band_mask(3, 3).data
        assert_array_equal(np.isfinite(m), np.tril(np.ones((3, 3), dtype=bool)))

    def test_n6_window2_rows(self):
        m = band_mask(6, 2).data
        assert list(np.nonzero(np.isfinite(m[0]))[0]) == [0]
        for i in range(1, 6):
            assert list(np.nonzero(np.isfinite(m[i]))[0]) == [i - 1, i]

    def test_row_zero_counts(self):
        for n, window in [(5, 2), (7, 3), (4, 4), (6, 1)]:
            m = band_mask(n, window).data
            for i in range(n):
                assert np.isfinite(m[i]).sum() == min(i + 1, window)

    def test_kept_entries_are_exact_zero(self):
        m = band_mask(5, 3).data
        assert (m[np.isfinite(m)] == 0.0).all()

    def test_window_out_of_range(self):
        with pytest.raises(ValueError):
            band_mask(3, 4)
        with pytest.raises(ValueError):
            band_mask(3, 0)


class TestFullAttention:
    def test_single_row_returns_value(self):
        q = Tensor([[2.0, -1.0]])
        k = Tensor([[0.5, 0.5]])
        v = Tensor([[7.0, 8.0, 9.0]])
        assert_array_equal(full_attention(q, k, v).data, v.data)

    def test_zero_keys_give_column_mean(self):
        rng = np.random.default_rng(42)
        q = Tensor(rng.standard_normal((5, 3)))
        k = Tensor.zeros((5, 3))
        v = Tensor(rng.standard_normal((5, 2)))
        out = full_attention(q, k, v)
        assert_allclose(out.data, np.tile(v.data.mean(axis=0), (5, 1)), atol=1e-15)

    def test_banded_case_matches_per_row_manual(self):
        rng = np.random.default_rng(7)
        q = Tensor(rng.standard_normal((4, 2)))
        k = Tensor(rng.standard_normal((4, 2)))
        v = Tensor(rng.standard_normal((4, 3)))
        out = full_attention(q, k, v, band_mask(4, 2))
        for i in range(4):
            lo = max(0, i - 1)
            raw = q.data[i] @ k.data[lo : i + 1].T / math.sqrt(2.0)
            w = np.exp(raw - raw.max())
            w /= w.sum()
            assert_allclose(out.data[i], w @ v.data[lo : i + 1], atol=1e-12)

    def test_rejects_mismatched_shapes(self):
        with pytest.raises(DimensionError):
            full_attention(
                Tensor.zeros((3, 2)), Tensor.zeros((4, 2)), Tensor.zeros((3, 1))
            )
        with pytest.raises(DimensionError):
            full_attention(
                Tensor.zeros((3, 2)), Tensor.zeros((3, 2)), Tensor.zeros((2, 1))
            )
        empty = Tensor.zeros((3, 0))  # zero-width q and k
        with pytest.raises(DimensionError, match="at least one column"):
            full_attention(empty, empty, Tensor.zeros((3, 1)))

    def test_generic_path_bitwise_equals_fused(self):
        rng = np.random.default_rng(11)
        q = Tensor(rng.standard_normal((6, 3)))
        k = Tensor(rng.standard_normal((6, 3)))
        v = Tensor(rng.standard_normal((6, 2)))
        for mask in (None, band_mask(6, 2)):
            fused = full_attention(q, k, v, mask)
            generic = _full_attention(tensor, q, k, v, mask)
            assert_array_equal(fused.data, generic.data)


class TestChunkedCore:
    """Eager rank-3 scores above the budget attend a chunk of blocks at a time, bitwise as one."""

    @staticmethod
    def draw_mask(data, rng, s, window):
        """None, or a BandMask or plain mask of b = 1, 2 or s blocks over (window, 2*window-1) slabs."""
        kind = data.draw(st.sampled_from(["none", "band", "plain"]), label="mask")
        if kind == "none":
            return None
        b = min(s, data.draw(st.sampled_from([1, 2, s]), label="blocks"))
        arr = local_mask(2, window).data[np.minimum(np.arange(b), 1)]  # block 0, then the shared band
        if kind == "band":
            return BandMask.of(arr)
        arr = np.where(rng.random(arr.shape) < 0.3, NEG_INF, 0.0)  # holes anywhere in the row
        arr[..., np.arange(window), rng.integers(0, 2 * window - 1, window)] = 0.0
        return Tensor(arr, allow_neg_inf=True)

    @given(st.data())
    @settings(max_examples=150, deadline=None)
    def test_chunks_are_bitwise_one_chunk_on_both_backends(self, data):
        s = data.draw(st.integers(1, 12), label="s")
        window = data.draw(st.integers(1, 6), label="window")
        d_q, d_v = data.draw(st.integers(1, 4), label="d_q"), data.draw(st.integers(1, 4), label="d_v")
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
        width = 2 * window - 1
        q, k, v = (Tensor._wrap(rng.standard_normal(shape))
                   for shape in ((s, window, d_q), (s, width, d_q), (s, width, d_v)))
        mask = self.draw_mask(data, rng, s, window)
        budget = data.draw(st.integers(1, s * window * width), label="budget")
        chunks = -(-s // max(1, budget // (window * width)))  # 1 .. s

        whole, counted = LamCounters(), LamCounters()
        want = _full_attention(tensor, q, k, v, mask, whole).data
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(attention, "_SCORE_CHUNK", budget)
            probe = _PreActProbe()  # the eager backend, recording each softmax call
            got = _full_attention(probe, q, k, v, mask, counted).data
            g = Graph()
            node = _full_attention(g, g.parameter(q), g.parameter(k), g.parameter(v), mask)
        assert got.tobytes() == want.tobytes()
        assert g.value(node).data.tobytes() == want.tobytes()
        assert (counted.dot_products, counted.peak_score_elements) == (whole.dot_products,
                                                                       whole.peak_score_elements)
        assert len(probe.softmaxes) == chunks  # eagerly, one softmax per chunk
        # the tape keeps every chunk's weights anyway, so it records the one-chunk sequence
        assert [n.op for n in g.nodes if n.op not in ("parameter", "constant")] == [
            "transpose_last2", "matmul_batched", "softmax_lastdim", "matmul_batched"]

    def test_rank2_scores_are_never_split(self, monkeypatch):
        monkeypatch.setattr(attention, "_SCORE_CHUNK", 1)
        rng = np.random.default_rng(3)
        q, k, v = (Tensor(rng.standard_normal((5, 2))) for _ in range(3))
        g = Graph()
        _full_attention(g, g.parameter(q), g.parameter(k), g.parameter(v), band_mask(5, 2))
        assert [n.op for n in g.nodes if n.op not in ("parameter", "constant")] == [
            "transpose_last2", "matmul_batched", "softmax_lastdim", "matmul_batched"]

    def test_chunk_mask_keeps_class_and_takes_the_covering_blocks(self):
        band = local_mask(5, 3)  # block 0 guarded, block 1 shared by every later block
        assert _chunk_mask(None, 0, 2) is None
        for g0, g1, want in [(0, 1, [0]), (0, 3, [0, 1]), (1, 4, [1]), (3, 5, [1])]:
            part = _chunk_mask(band, g0, g1)
            assert type(part) is BandMask and not part.data.flags.writeable
            assert_array_equal(part.data, band.data[want])
        plain = Tensor(np.zeros((4, 2, 3)))
        assert type(_chunk_mask(plain, 1, 3)) is Tensor
        assert_array_equal(_chunk_mask(plain, 1, 3).data, plain.data[1:3])


class TestMaskedOracle:
    def test_window_n_equals_causal_full(self):
        rng = np.random.default_rng(3)
        q = Tensor(rng.standard_normal((5, 2)))
        k = Tensor(rng.standard_normal((5, 2)))
        v = Tensor(rng.standard_normal((5, 2)))
        causal = Tensor._wrap(
            np.where(np.tril(np.ones((5, 5), dtype=bool)), 0.0, -np.inf)
        )
        assert_array_equal(
            masked_full_attention_oracle(q, k, v, 5).data,
            full_attention(q, k, v, causal).data,
        )

    def test_window1_returns_values(self):
        rng = np.random.default_rng(4)
        q = Tensor(rng.standard_normal((6, 3)))
        k = Tensor(rng.standard_normal((6, 3)))
        v = Tensor(rng.standard_normal((6, 2)))
        assert_allclose(
            masked_full_attention_oracle(q, k, v, 1).data, v.data, atol=1e-15
        )

    def test_two_term_rows_by_hand(self):
        rng = np.random.default_rng(5)
        q = Tensor(rng.standard_normal((6, 2)))
        k = Tensor(rng.standard_normal((6, 2)))
        v = Tensor(rng.standard_normal((6, 3)))
        out = masked_full_attention_oracle(q, k, v, 2)
        for i in range(1, 6):
            raw = np.array(
                [q.data[i] @ k.data[i - 1], q.data[i] @ k.data[i]]
            ) / math.sqrt(2.0)
            w = np.exp(raw - raw.max())
            w /= w.sum()
            assert_allclose(out.data[i], w[0] * v.data[i - 1] + w[1] * v.data[i],
                            atol=1e-12)

    def test_rows_stay_in_value_hull(self):
        rng = np.random.default_rng(6)
        q = Tensor(rng.standard_normal((9, 2)))
        k = Tensor(rng.standard_normal((9, 2)))
        v = Tensor(rng.standard_normal((9, 3)))
        window = 3
        out = masked_full_attention_oracle(q, k, v, window)
        for i in range(9):
            lo = max(0, i - window + 1)
            hull = v.data[lo : i + 1]
            assert (out.data[i] >= hull.min(axis=0) - 1e-12).all()
            assert (out.data[i] <= hull.max(axis=0) + 1e-12).all()


def seeded_heads(seed, heads, d_head, d_q, d_v):
    """Per-head (w_q, w_k, w_v) weights and the output projection."""
    rng = np.random.default_rng(seed)
    draw = lambda *shape: Tensor(rng.uniform(-0.5, 0.5, size=shape))
    head_ws = [(draw(d_q, d_head), draw(d_q, d_head), draw(d_v, d_head)) for _ in range(heads)]
    return head_ws, draw(heads * d_head, d_v)


def multi_head(q, k, v, head_ws, w_out, kind="full", window=None):
    return _multi_head(tensor, q, k, v, head_ws, w_out, _resolve_inner(kind, window, 0))


class TestMultiHead:
    def test_identity_projections_reduce_to_full(self):
        rng = np.random.default_rng(8)
        q = Tensor(rng.standard_normal((5, 3)))
        k = Tensor(rng.standard_normal((5, 3)))
        v = Tensor(rng.standard_normal((5, 3)))
        eye = Tensor(np.eye(3))
        assert_array_equal(
            multi_head(q, k, v, [(eye, eye, eye)], eye).data,
            full_attention(q, k, v).data,
        )

    def test_zero_output_projection_annihilates(self):
        head_ws, _ = seeded_heads(0, heads=2, d_head=1, d_q=3, d_v=2)
        rng = np.random.default_rng(9)
        out = multi_head(
            Tensor(rng.standard_normal((4, 3))),
            Tensor(rng.standard_normal((4, 3))),
            Tensor(rng.standard_normal((4, 2))),
            head_ws,
            Tensor.zeros((2, 2)),
        )
        assert_array_equal(out.data, np.zeros((4, 2)))

    def test_full_attention_is_permutation_equivariant(self):
        head_ws, w_out = seeded_heads(1, heads=2, d_head=2, d_q=4, d_v=4)
        rng = np.random.default_rng(10)
        q = Tensor(rng.standard_normal((12, 4)))
        k = Tensor(rng.standard_normal((12, 4)))
        v = Tensor(rng.standard_normal((12, 4)))
        base = multi_head(q, k, v, head_ws, w_out)
        for trial in range(10):
            pi = np.random.default_rng(100 + trial).permutation(12)
            permuted = multi_head(
                permute_rows(q, pi), permute_rows(k, pi), permute_rows(v, pi), head_ws, w_out
            )
            dev = np.max(np.abs(permuted.data - permute_rows(base, pi).data))
            assert dev <= 1e-10

    def test_banded_attention_is_not_equivariant(self):
        head_ws, w_out = seeded_heads(2, heads=2, d_head=2, d_q=4, d_v=4)
        hits = 0
        for trial in range(10):
            rng = np.random.default_rng(200 + trial)
            q = Tensor(rng.standard_normal((12, 4)))
            k = Tensor(rng.standard_normal((12, 4)))
            v = Tensor(rng.standard_normal((12, 4)))
            pi = rng.permutation(12)
            while (pi == np.arange(12)).all():
                pi = rng.permutation(12)
            base = multi_head(q, k, v, head_ws, w_out, kind="lam", window=3)
            permuted = multi_head(
                permute_rows(q, pi), permute_rows(k, pi), permute_rows(v, pi),
                head_ws, w_out, kind="lam", window=3,
            )
            if np.max(np.abs(permuted.data - permute_rows(base, pi).data)) > 1e-3:
                hits += 1
        assert hits >= 9

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="kind"):
            _resolve_inner("banded", 2, 0)

    def test_lam_kind_needs_window(self):
        with pytest.raises(ValueError, match="window"):
            _resolve_inner("lam", None, 0)


def reference_band_mass(q, k, band):
    """Per-row band mass the quadratic way: full attention's weights on band_mask's zeros."""
    n = q.shape[0]
    weights = full_attention(q, k, Tensor(np.eye(n))).data
    return np.sum(weights * (band_mask(n, band).data == 0), axis=1)


class TestBandMass:
    def test_single_position_is_one(self):
        q = Tensor([[1.0]])
        k = Tensor([[2.0]])
        assert band_mass(q, k, [1]) == [1.0]

    def test_zero_keys_closed_form(self):
        rng = np.random.default_rng(16)
        n, window = 10, 3
        q = Tensor(rng.standard_normal((n, 2)))
        k = Tensor.zeros((n, 2))
        expect = np.mean([min(i + 1, window) / n for i in range(n)])
        (mass,) = band_mass(q, k, [window])
        assert_allclose(mass, expect, atol=1e-12)

    def test_monotone_in_window(self):
        rng = np.random.default_rng(17)
        q = Tensor(rng.standard_normal((12, 3)))
        k = Tensor(rng.standard_normal((12, 3)))
        masses = band_mass(q, k, range(1, 13))
        assert all(a <= b + 1e-15 for a, b in zip(masses, masses[1:]))

    def test_bitwise_equal_to_masked_reference(self):
        """Each band's value is the row mean of the masked quadratic weights, bit for bit."""
        rng = np.random.default_rng(18)
        for _ in range(40):
            n, d = int(rng.integers(1, 80)), int(rng.integers(1, 7))
            q = Tensor(rng.standard_normal((n, d)))
            k = Tensor(rng.standard_normal((n, d)))
            bands = [int(b) for b in rng.integers(1, n + 1, size=int(rng.integers(1, 6)))]
            bands.append(n)
            rows = [reference_band_mass(q, k, band) for band in bands]
            assert band_mass(q, k, bands) == [float(r.mean()) for r in rows]
            assert all(((r >= 0) & (r <= 1 + 1e-12)).all() for r in rows)
            assert_allclose(rows[-1][-1], 1.0, atol=1e-12)  # last row, full window

    @pytest.mark.parametrize("bands", [[0], [1, 7], [3, -1]])
    def test_bad_band_rejected(self, bands):
        q = Tensor(np.ones((6, 2)))
        with pytest.raises(ValueError, match="window must be in"):
            band_mass(q, q, bands)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(DimensionError):
            band_mass(Tensor(np.ones((6, 2))), Tensor(np.ones((5, 2))), [1])


class TestPermuteRows:
    def test_identity(self):
        x = Tensor([[1.0], [2.0]])
        assert_array_equal(permute_rows(x, [0, 1]).data, x.data)

    def test_reversal(self):
        x = Tensor([[1.0], [2.0]])
        assert_array_equal(permute_rows(x, [1, 0]).data, [[2.0], [1.0]])

    def test_composition_with_inverse_restores(self):
        rng = np.random.default_rng(19)
        x = Tensor(rng.standard_normal((6, 2)))
        pi = rng.permutation(6)
        inv = np.argsort(pi)
        assert_array_equal(permute_rows(permute_rows(x, inv), pi).data, x.data)

    def test_non_bijection_rejected(self):
        x = Tensor([[1.0], [2.0]])
        with pytest.raises(ValueError):
            permute_rows(x, [0, 0])
        with pytest.raises(ValueError):
            permute_rows(x, [0])
