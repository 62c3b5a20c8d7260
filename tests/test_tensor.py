"""Tensor container and kernel tests: frozen examples plus properties."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose, assert_array_equal

from localattn.attention import _chunk_mask
import localattn.tensor as tensor_mod
from localattn.lam import local_mask
from localattn.tensor import (
    BandMask,
    DegenerateRowError,
    DimensionError,
    Tensor,
    add,
    affine,
    concat_axis0,
    concat_lastdim,
    gather_rows_padded,
    leaky_relu,
    matmul_batched,
    op_counter,
    reshape,
    row_blocks,
    rows,
    scale,
    softmax_lastdim,
    transpose_last2,
)
from test_lam import row_blocks_loop

NEG_INF = float("-inf")


class TestTensorConstruction:
    def test_accepts_rank_0_through_3(self):
        assert Tensor(1.5).ndim == 0
        assert Tensor([1.0, 2.0]).shape == (2,)
        assert Tensor([[1.0], [2.0]]).shape == (2, 1)
        assert Tensor(np.zeros((2, 3, 4))).shape == (2, 3, 4)

    def test_rejects_rank_4(self):
        with pytest.raises(DimensionError):
            Tensor(np.zeros((1, 1, 1, 1)))

    def test_rejects_nan(self):
        with pytest.raises(ValueError):
            Tensor([1.0, float("nan")])

    def test_rejects_pos_inf(self):
        with pytest.raises(ValueError):
            Tensor([float("inf")])

    def test_neg_inf_needs_flag(self):
        with pytest.raises(ValueError):
            Tensor([NEG_INF])
        t = Tensor([NEG_INF], allow_neg_inf=True)
        assert np.isneginf(t.data).all()

    def test_integer_input_becomes_float64(self):
        t = Tensor([[1, 2], [3, 4]])
        assert t.dtype == np.float64

    def test_full_permits_mask_fill(self):
        m = Tensor(np.full((2, 2), NEG_INF), allow_neg_inf=True)
        assert np.isneginf(m.data).all()


class TestMatmulBatched:
    def test_identity_batch1(self):
        a = Tensor(np.eye(2)[np.newaxis])
        b = Tensor([[[1.0, 2.0], [3.0, 4.0]]])
        out = matmul_batched(a, b)
        assert_array_equal(out.data, [[[1.0, 2.0], [3.0, 4.0]]])

    def test_manual_dot_product(self):
        out = matmul_batched(Tensor([[1.0, 2.0]]), Tensor([[3.0], [4.0]]))
        assert_array_equal(out.data, [[11.0]])

    def test_batch_of_two_identities(self):
        a = Tensor(np.stack([np.eye(2), np.eye(2)]))
        x = np.arange(8, dtype=np.float64).reshape(2, 2, 2)
        out = matmul_batched(a, Tensor(x))
        assert_array_equal(out.data, x)

    def test_rank2_inputs_give_rank2_output(self):
        out = matmul_batched(Tensor(np.eye(3)), Tensor(np.ones((3, 2))))
        assert out.shape == (3, 2)

    def test_inner_mismatch_names_shapes(self):
        with pytest.raises(DimensionError, match=r"\(1, 2\)"):
            matmul_batched(Tensor([[1.0, 2.0]]), Tensor([[1.0, 2.0]]))

    def test_batch_mismatch(self):
        a = Tensor(np.zeros((2, 2, 2)))
        b = Tensor(np.zeros((3, 2, 2)))
        with pytest.raises(DimensionError):
            matmul_batched(a, b)

    @pytest.mark.parametrize("a_shape, b_shape", [((2, 3), (1, 3, 4)), ((1, 2, 3), (3, 4))])
    def test_mixed_ranks_rejected(self, a_shape, b_shape):
        with pytest.raises(DimensionError, match="both be rank 2 or both rank 3"):
            matmul_batched(Tensor(np.ones(a_shape)), Tensor(np.ones(b_shape)))

    @pytest.mark.parametrize("a_shape, b_shape, message", [
        ((3,), (3,), r"{rank} \(3,\) vs \(3,\)"),
        ((), (), r"{rank} \(\) vs \(\)"),
        ((2, 3), (3,), r"{rank} \(2, 3\) vs \(3,\)"),
        ((2, 2, 2), (3, 2, 2), r"batch extents disagree: \(2, 2, 2\) vs \(3, 2, 2\)"),
        ((1, 2), (1, 2), r"inner extents disagree: \(1, 2\) vs \(1, 2\)"),
        ((2, 4, 3), (2, 4, 5), r"inner extents disagree: \(2, 4, 3\) vs \(2, 4, 5\)"),
    ])
    def test_each_shape_fault_keeps_its_message(self, a_shape, b_shape, message):
        rank = "matmul operands must both be rank 2 or both rank 3, got"
        with pytest.raises(DimensionError, match="^" + message.replace("{rank}", rank) + "$"):
            matmul_batched(Tensor(np.ones(a_shape)), Tensor(np.ones(b_shape)))

    def test_counter_counts_s_p_r(self):
        before = op_counter().dot_products
        matmul_batched(Tensor(np.zeros((3, 4, 5))), Tensor(np.zeros((3, 5, 7))))
        assert op_counter().dot_products - before == 3 * 4 * 7

    def test_counter_accumulates(self):
        before = op_counter().dot_products
        a, b = Tensor(np.eye(2)), Tensor(np.eye(2))
        matmul_batched(a, b)
        matmul_batched(a, b)
        assert op_counter().dot_products - before == 8

    def test_matches_numpy_oracle(self):
        rng = np.random.default_rng(42)
        a = rng.standard_normal((4, 5, 6))
        b = rng.standard_normal((4, 6, 3))
        out = matmul_batched(Tensor(a), Tensor(b))
        assert_allclose(out.data, np.matmul(a, b), rtol=0, atol=0)


class TestSoftmax:
    def test_symmetric_pair(self):
        out = softmax_lastdim(Tensor([0.0, 0.0]))
        assert_array_equal(out.data, [0.5, 0.5])

    def test_mask_sentinel_forces_exact_zero(self):
        for x in (0.0, -3.0, 100.0):
            out = softmax_lastdim(Tensor([x, NEG_INF], allow_neg_inf=True))
            assert out.data[0] == 1.0
            assert out.data[1] == 0.0

    def test_ln2_row(self):
        out = softmax_lastdim(Tensor([np.log(2.0), 0.0]))
        assert_allclose(out.data, [2.0 / 3.0, 1.0 / 3.0], atol=1e-15)

    def test_degenerate_row_raises(self):
        m = Tensor(np.full((2, 2), NEG_INF), allow_neg_inf=True)
        with pytest.raises(DegenerateRowError):
            softmax_lastdim(m)

    def test_input_not_mutated(self):
        t = Tensor([1.0, 2.0])
        before = t.data.copy()
        softmax_lastdim(t)
        assert_array_equal(t.data, before)

    def test_large_scores_do_not_overflow(self):
        out = softmax_lastdim(Tensor([1e4, 1e4 - 1.0]))
        assert np.isfinite(out.data).all()
        assert abs(out.data.sum() - 1.0) <= 1e-12

    @given(
        st.lists(
            st.floats(min_value=-50, max_value=50, allow_nan=False),
            min_size=1,
            max_size=8,
        )
    )
    @settings(max_examples=100, deadline=None)
    def test_rows_stochastic(self, row):
        out = softmax_lastdim(Tensor(row))
        assert out.data.min() >= 0.0
        assert abs(out.data.sum() - 1.0) <= 1e-12

    @given(
        st.lists(
            st.floats(min_value=-30, max_value=30, allow_nan=False),
            min_size=2,
            max_size=8,
        ),
        st.floats(min_value=-100, max_value=100, allow_nan=False),
    )
    @settings(max_examples=100, deadline=None)
    def test_shift_invariance(self, row, c):
        base = softmax_lastdim(Tensor(row))
        shifted = softmax_lastdim(Tensor(np.asarray(row) + c))
        assert np.max(np.abs(base.data - shifted.data)) <= 1e-12


def _mask_blocks(rng, shape):
    """A random additive mask: about a third of the slots -inf, column 0 always kept."""
    arr = np.where(rng.random(shape) < 0.33, NEG_INF, 0.0)
    arr[..., 0] = 0.0
    return Tensor(arr, allow_neg_inf=True)


class TestMaskedSoftmax:
    # (scores shape, mask blocks or None); a rank-2 mask has the scores' shape
    CASES = {
        "rank2": ((4, 5), 4),
        "rank3-b2-of-s3": ((3, 4, 5), 2),
        "rank3-b1-of-s3": ((3, 4, 5), 1),
        "rank3-b-equals-s": ((3, 4, 5), 3),
        "no-mask": ((3, 4, 5), None),
    }

    @pytest.mark.parametrize("case", CASES)
    def test_equals_add_scale_softmax_chain(self, case):
        shape, blocks = self.CASES[case]
        rng = np.random.default_rng(0)
        scores = Tensor(rng.standard_normal(shape))
        before = scores.data.copy()
        c = 0.37
        if blocks is None:
            mask, chain = None, scale(scores, c)
        else:
            mask = _mask_blocks(rng, (blocks, *shape[1:]) if len(shape) == 3 else shape)
            per_block = mask.data
            if len(shape) == 3:  # the last mask block covers every later score block
                per_block = per_block[np.minimum(np.arange(shape[0]), blocks - 1)]
            chain = scale(add(scores, Tensor(per_block, allow_neg_inf=True)), c)
        got = softmax_lastdim(scores, mask, c)
        assert_array_equal(got.data, softmax_lastdim(chain).data)
        assert_array_equal(scores.data, before)

    ERRORS = {
        "more-mask-blocks-than-scores": ((2, 3, 4), (3, 3, 4), 1.0, DimensionError),
        "trailing-shape-disagrees": ((3, 3, 4), (2, 3, 5), 1.0, DimensionError),
        "rank2-shape-disagrees": ((3, 4), (2, 4), 1.0, DimensionError),
        "rank-disagrees": ((3, 3, 4), (3, 4), 1.0, DimensionError),
        "zero-scale": ((3, 4), None, 0.0, ValueError),
        "negative-scale": ((3, 4), None, -1.0, ValueError),
        "infinite-scale": ((3, 4), None, float("inf"), ValueError),
        "nan-scale": ((3, 4), None, float("nan"), ValueError),
        "fully-masked-row": ((2, 3, 4), "row", 1.0, DegenerateRowError),
    }

    @pytest.mark.parametrize("case", ERRORS)
    def test_rejects(self, case):
        shape, mask_shape, c, error = self.ERRORS[case]
        scores = Tensor(np.ones(shape))
        if mask_shape == "row":
            arr = np.zeros((1, *shape[1:]))
            arr[0, 1] = NEG_INF
            mask = Tensor(arr, allow_neg_inf=True)
        else:
            mask = None if mask_shape is None else Tensor(np.zeros(mask_shape))
        with pytest.raises(error) as info:
            softmax_lastdim(scores, mask, c)
        assert type(info.value) is error

    @given(st.data())
    @settings(max_examples=150, deadline=None)
    def test_one_add_rule_equals_numpy_softmax_bitwise(self, data):
        """Plain masks, full rank 2, full rank 3 or short rank 3: block r takes mask block min(r, b-1)."""
        kind = data.draw(st.sampled_from(["rank2-full", "rank3-full", "rank3-short"]), label="kind")
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
        r, cols = data.draw(st.integers(1, 8), label="rows"), data.draw(st.integers(1, 24), label="cols")
        s = data.draw(st.integers(2 if kind == "rank3-short" else 1, 6), label="s")
        b = data.draw(st.integers(1, s - 1), label="b") if kind == "rank3-short" else s
        shape, mask_shape = ((r, cols),) * 2 if kind == "rank2-full" else ((s, r, cols), (b, r, cols))
        mask = np.where(rng.random(mask_shape) < 0.4, NEG_INF, rng.choice([0.0, -0.0, 0.5], mask_shape))
        keep = rng.integers(0, cols, (*mask_shape[:-1], 1))  # one kept slot per row
        np.put_along_axis(mask, keep, 0.0, axis=-1)
        if data.draw(st.booleans(), label="signed zeros and ties"):
            scores = TestBandMask.signed_zeros_and_ties(rng, shape)
        else:
            scores = 3.0 * rng.standard_normal(shape)
        c = data.draw(st.floats(1e-3, 10.0), label="c")
        expanded = mask if kind == "rank2-full" else mask[np.minimum(np.arange(s), b - 1)]
        x = (scores + expanded) * c
        e = np.exp(x - x.max(axis=-1, keepdims=True))
        want = e / e.sum(axis=-1, keepdims=True)
        got = softmax_lastdim(Tensor._wrap(scores), Tensor._wrap(mask), c)
        assert got.data.tobytes() == want.tobytes()


class TestBandMask:
    """Under a BandMask, softmax_lastdim's band path equals the dense path bitwise."""

    @staticmethod
    def with_holes(rng, mask, s):
        """``mask`` as s own blocks, about 40% of its band -inf; each row keeps its last band slot."""
        arr = np.array(mask.data[np.minimum(np.arange(s), len(mask.data) - 1)])
        arr[rng.random(arr.shape) < 0.4] = NEG_INF
        r, c = arr.shape[-2:]
        arr[..., np.arange(r), np.arange(r) + c - r] = 0.0
        return BandMask.of(arr)

    @staticmethod
    def with_offsets(rng, mask):
        """``mask`` with a finite non-zero entry in every block's band, the shared last block included."""
        arr = np.array(mask.data)
        kept = np.isfinite(arr)
        arr[kept] = rng.standard_normal(kept.sum())
        return BandMask.of(arr)

    @staticmethod
    def signed_zeros_and_ties(rng, shape):
        """Scores in {-1, ±0.0, 1}: many ties at the row maximum, zeros of both signs."""
        arr = rng.integers(-1, 2, shape).astype(float)
        arr[arr == 0] *= rng.choice([1.0, -1.0], (arr == 0).sum())
        return arr

    KINDS = ["blocks", "blocks-with-holes", "blocks-with-offsets"]

    @given(st.data())
    @settings(max_examples=150, deadline=None)
    def test_band_path_equals_dense_path_bitwise(self, data):
        kind = data.draw(st.sampled_from(self.KINDS), label="kind")
        window = data.draw(st.integers(1, 12), label="window")
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
        s = data.draw(st.integers(1, 20), label="s")
        mask = local_mask(s, window, data.draw(st.booleans(), label="pad_guard"))
        if kind == "blocks-with-holes":
            mask = self.with_holes(rng, mask, s)
        elif kind == "blocks-with-offsets":
            mask = self.with_offsets(rng, mask)
        shape = (s, window, 2 * window - 1)
        c = data.draw(st.floats(1e-3, 10.0), label="c")
        if data.draw(st.booleans(), label="signed zeros and ties"):
            scores = Tensor._wrap(self.signed_zeros_and_ties(rng, shape))
        else:
            scores = Tensor._wrap(3.0 * rng.standard_normal(shape))
        dense = softmax_lastdim(scores, Tensor._wrap(mask.data), c).data
        assert softmax_lastdim(scores, mask, c).data.tobytes() == dense.tobytes()
        # a chunk of blocks as the attention core passes it: a rows view and its mask blocks
        g0 = data.draw(st.integers(0, s - 1), label="g0")
        g1 = data.draw(st.integers(g0 + 1, s), label="g1")
        part = softmax_lastdim(rows(scores, g0, g1), _chunk_mask(mask, g0, g1), c)
        assert part.data.tobytes() == dense[g0:g1].tobytes()

    @pytest.mark.parametrize("kind, starts", [
        ("guarded", [0]),  # only block 0 has its own mask block; the shared one is zero on the band
        ("unguarded", []),  # one shared block, zero on the band: every chunk is only scaled
        ("holes", [0, 2, 4]),
        ("offsets", [0, 2, 4]),
    ])
    def test_mask_add_runs_only_where_the_mask_is_not_zero(self, monkeypatch, kind, starts):
        """Per call, the add runs exactly when the mask has a non-zero entry on its band."""
        rng = np.random.default_rng(3)
        mask = local_mask(5, 4, pad_guard=kind != "unguarded")
        if kind == "holes":
            mask = self.with_holes(rng, mask, 5)
        elif kind == "offsets":
            mask = self.with_offsets(rng, mask)
        scores = Tensor._wrap(self.signed_zeros_and_ties(rng, (5, *mask.shape[1:])))
        dense = softmax_lastdim(scores, Tensor._wrap(mask.data), 0.5).data
        calls, added = [], []
        add_mask = tensor_mod._add_mask
        monkeypatch.setattr(tensor_mod, "_add_mask", lambda *a: calls.append(a) or add_mask(*a))
        for g0, g1 in [(0, 2), (2, 4), (4, 5)]:  # the core's chunks of 2 blocks, one call each
            part = softmax_lastdim(rows(scores, g0, g1), _chunk_mask(mask, g0, g1), 0.5)
            assert part.data.tobytes() == dense[g0:g1].tobytes()
            if calls:
                added.append(g0)
            calls.clear()
        assert added == starts

    def test_band_path_holds_the_output_and_one_chunk(self):
        """One call is one chunk: it holds its output and one band temporary, not a second score buffer."""
        mask = local_mask(2000, 8)
        scores = Tensor._wrap(np.random.default_rng(0).standard_normal((2000, 8, 15)))
        tracemalloc.start()
        try:
            out = softmax_lastdim(scores, mask, 1.0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        band, row_vector = 2000 * 8 * 8 * 8, 2000 * 8 * 8  # the band temporary; row maxima or sums
        # the band, the row maxima and sums, and numpy's ufunc buffers
        assert 0 < peak - out.data.nbytes <= band + 2 * row_vector + 2**16 < out.data.nbytes

    @pytest.mark.parametrize("path", ["band", "dense"])
    def test_fully_masked_band_row_raises_on_both_paths(self, path):
        arr = np.array(local_mask(3, 4).data)
        arr[1, 2] = NEG_INF  # block 1 and every later one: row 2 keeps nothing
        mask = BandMask.of(arr) if path == "band" else Tensor(arr, allow_neg_inf=True)
        with pytest.raises(DegenerateRowError):
            softmax_lastdim(Tensor(np.ones((3, 4, 7))), mask, 1.0)

    def test_any_layout_equals_the_dense_path_bitwise(self):
        """Scores and mask sources that are not row-major take the band path and match the dense path."""
        rng = np.random.default_rng(4)
        mask = self.with_offsets(rng, local_mask(6, 3))
        mixed = np.ascontiguousarray(mask.data.transpose(1, 0, 2)).transpose(1, 0, 2)
        assert not (mixed.flags.c_contiguous or mixed.flags.f_contiguous)
        from_mixed = BandMask.of(mixed)
        scores = rng.standard_normal((12, 3, 5))
        for arr in (np.asfortranarray(scores[:6]), scores[::2]):
            dense = softmax_lastdim(Tensor._wrap(arr), Tensor._wrap(mask.data), 0.7).data
            for band_mask in (mask, from_mixed):
                band = softmax_lastdim(Tensor._wrap(arr), band_mask, 0.7).data
                assert band.tobytes() == dense.tobytes()

    def test_of_rejects_a_finite_entry_outside_the_band(self):
        arr = np.array(local_mask(3, 4).data)
        arr[1, 0, 4] = 0.0  # row 0 keeps columns 0 .. 3 only
        with pytest.raises(ValueError, match="outside its band"):
            BandMask.of(arr)

    @pytest.mark.parametrize("shape", [(4,), (3, 2), (2, 5, 4), (1, 1, 2, 2), (3, 4)])
    def test_of_rejects_a_shape_without_a_band(self, shape):
        with pytest.raises(DimensionError):
            BandMask.of(np.zeros(shape))

    def test_of_makes_the_mask_read_only(self):
        mask = BandMask.of(np.where(np.eye(3, 4) == 1, 0.0, NEG_INF)[np.newaxis])
        assert isinstance(mask, Tensor) and not mask.data.flags.writeable

    def test_of_leaves_the_callers_array_writeable(self):
        a = np.where(np.eye(2, 3) == 1, 0.0, NEG_INF)[np.newaxis]  # contiguous float64 (1, 2, 3)
        mask = BandMask.of(a)
        assert a.flags.writeable and not mask.data.flags.writeable


class TestGatherRowsPadded:
    M = Tensor([[1.0], [2.0], [3.0]])

    def test_identity_gather(self):
        out = gather_rows_padded(self.M, (0, 1, 2), 0.0)
        assert_array_equal(out.data, [[1.0], [2.0], [3.0]])

    def test_negative_index_pads(self):
        out = gather_rows_padded(self.M, (-1, 0), 0.0)
        assert_array_equal(out.data, [[0.0], [1.0]])

    def test_duplicate_index_reads_twice(self):
        out = gather_rows_padded(self.M, (2, 2), 0.0)
        assert_array_equal(out.data, [[3.0], [3.0]])

    def test_overflow_index_pads(self):
        out = gather_rows_padded(self.M, (3, 99), -1.0)
        assert_array_equal(out.data, [[-1.0], [-1.0]])

    def test_rank3_source_rejected(self):
        with pytest.raises(DimensionError):
            gather_rows_padded(Tensor(np.zeros((1, 2, 3))), (0,), 0.0)


class TestRows:
    M = Tensor([[1.0], [2.0], [3.0]])

    def test_slice_is_a_view(self):
        out = rows(self.M, 1, 3)
        assert_array_equal(out.data, [[2.0], [3.0]])
        assert np.shares_memory(out.data, self.M.data)

    def test_empty_range(self):
        assert rows(self.M, 2, 2).shape == (0, 1)

    @pytest.mark.parametrize("start, stop", [(-1, 2), (2, 1), (0, 4)])
    def test_out_of_range_rejected(self, start, stop):
        with pytest.raises(ValueError, match="start"):
            rows(self.M, start, stop)

    def test_rank0_and_rank1_sources_rejected(self):
        for shape in [(), (3,)]:
            with pytest.raises(DimensionError):
                rows(Tensor(np.zeros(shape)), 0, 0)

    def test_rank3_source_slices_blocks(self):
        m = Tensor(np.arange(24.0).reshape(4, 2, 3))
        out = rows(m, 1, 3)
        assert_array_equal(out.data, m.data[1:3])
        assert np.shares_memory(out.data, m.data)


class TestRowBlocks:
    def test_read_only_strided_view_of_one_padded_buffer(self):
        m = Tensor(np.arange(24.0).reshape(8, 3))
        out = row_blocks(m, 2, 3).data
        assert not out.flags.writeable
        with pytest.raises(ValueError):
            out[0, 0, 0] = 1.0
        assert np.shares_memory(out[0], out[1])
        assert not np.shares_memory(out, m.data)
        row, col = 3 * 8, 8  # the padded copy is C-contiguous float64, d = 3
        assert out.strides == (2 * row, row, col)

    @pytest.mark.parametrize("writeable", [True, False])
    def test_width_window_is_a_read_only_view_of_m(self, writeable):
        arr = np.arange(24.0).reshape(8, 3)
        arr.flags.writeable = writeable
        out = row_blocks(Tensor._wrap(arr), 3, 3).data
        assert np.shares_memory(out, arr)
        assert not out.flags.writeable and arr.flags.writeable == writeable
        with pytest.raises(ValueError):
            out[0, 0, 0] = 1.0
        assert_array_equal(out, arr[:6].reshape(2, 3, 3))

    SOURCES = {
        "rows-slice": lambda a: rows(Tensor(a), 1, 12),
        "fortran": lambda a: Tensor(np.asfortranarray(a)),
        "rows-slice-of-fortran": lambda a: rows(Tensor(np.asfortranarray(a)), 2, 13),
    }

    @pytest.mark.parametrize("source", SOURCES)
    @pytest.mark.parametrize("window, width", [(3, 3), (4, 4), (3, 5), (4, 6)])
    def test_any_layout_matches_the_loop(self, source, window, width):
        m = self.SOURCES[source](np.random.default_rng(0).standard_normal((13, 4)))
        want, _ = row_blocks_loop(m.data, window, width, np.zeros((len(m.data) // window, width, 4)))
        out = row_blocks(m, window, width).data
        assert_array_equal(out, want)
        assert not out.flags.writeable
        assert np.shares_memory(out, m.data) == (width == window)


class TestConcat:
    def test_two_singletons(self):
        out = concat_axis0([Tensor([[1.0]]), Tensor([[2.0]])])
        assert_array_equal(out.data, [[1.0], [2.0]])

    def test_single_block_identity(self):
        b = Tensor([[1.0, 2.0]])
        out = concat_axis0([b])
        assert_array_equal(out.data, b.data)

    def test_three_constant_blocks_keep_order(self):
        blocks = [Tensor(np.full((2, 1), v)) for v in (5.0, 7.0, 9.0)]
        out = concat_axis0(blocks)
        assert_array_equal(out.data.ravel(), [5, 5, 7, 7, 9, 9])

    def test_trailing_mismatch(self):
        with pytest.raises(DimensionError):
            concat_axis0([Tensor([[1.0]]), Tensor([[1.0, 2.0]])])

    def test_empty_rejected(self):
        with pytest.raises(DimensionError):
            concat_axis0([])

    def test_rank3_blocks_join_along_the_leading_axis(self):
        m = np.arange(24.0).reshape(4, 2, 3)
        out = concat_axis0([Tensor(m[:1]), Tensor(m[1:])])
        assert_array_equal(out.data, m)

    @pytest.mark.parametrize("shapes", [[(1, 2, 3), (1, 3, 3)], [(2, 3), (1, 2, 3)], [(3,), (3,)]])
    def test_mismatched_or_bad_rank_blocks_rejected(self, shapes):
        with pytest.raises(DimensionError):
            concat_axis0([Tensor.zeros(shape) for shape in shapes])

    def test_lastdim_concat(self):
        out = concat_lastdim([Tensor([[1.0]]), Tensor([[2.0, 3.0]])])
        assert_array_equal(out.data, [[1.0, 2.0, 3.0]])

    def test_gather_then_concat_roundtrip(self):
        rng = np.random.default_rng(42)
        m = Tensor(rng.standard_normal((6, 3)))
        halves = [
            gather_rows_padded(m, range(0, 3), 0.0),
            gather_rows_padded(m, range(3, 6), 0.0),
        ]
        assert_array_equal(concat_axis0(halves).data, m.data)


class TestAffine:
    def test_leaky_applies_slope_to_negative(self):
        out = affine(
            Tensor([[1.0, -1.0]]), Tensor(np.eye(2)), Tensor([0.0, 0.0]), alpha=0.01
        )
        assert_allclose(out.data, [[1.0, -0.01]], atol=0)

    def test_identity_no_activation(self):
        x = Tensor([[3.0, -4.0]])
        out = affine(x, Tensor(np.eye(2)), Tensor([0.0, 0.0]))
        assert_array_equal(out.data, x.data)

    def test_scalar_case(self):
        out = affine(Tensor([[2.0]]), Tensor([[3.0]]), Tensor([1.0]))
        assert_array_equal(out.data, [[7.0]])

    def test_bias_width_mismatch(self):
        with pytest.raises(DimensionError):
            affine(Tensor([[1.0]]), Tensor([[1.0]]), Tensor([0.0, 0.0]))

    @pytest.mark.parametrize("alpha", [float("nan"), float("inf"), float("-inf"), 0.0, -0.01])
    def test_rejects_slope_not_finite_and_positive(self, alpha):
        with pytest.raises(ValueError, match="leaky slope"):
            affine(Tensor([[1.0, -1.0]]), Tensor(np.eye(2)), Tensor([0.0, 0.0]), alpha)

    @pytest.mark.parametrize("alpha", [0.01, 0.5, 1.0, 1.5, 3.0])
    def test_leaky_is_bitwise_the_where_form(self, alpha):
        """Signed zeros, infinities, subnormals and Gaussians, as the np.where rule gives them."""
        tiny = np.finfo(np.float64).smallest_subnormal
        special = [0.0, -0.0, np.inf, -np.inf, tiny, -tiny, 3 * tiny, -3 * tiny,
                   np.finfo(np.float64).smallest_normal * 0.75, -1e-310, 1e-310]
        x = np.concatenate([special, np.random.default_rng(7).standard_normal(2000)])
        want = np.where(x >= 0, x, alpha * x)
        assert tensor_mod._leaky(x, alpha).tobytes() == want.tobytes()

    def test_counted_through_chokepoint(self):
        before = op_counter().dot_products
        affine(Tensor(np.ones((4, 3))), Tensor(np.ones((3, 2))), Tensor(np.zeros(2)))
        assert op_counter().dot_products - before == 4 * 2


class TestElementwise:
    def test_add_same_shape(self):
        out = add(Tensor([1.0, 2.0]), Tensor([10.0, 20.0]))
        assert_array_equal(out.data, [11.0, 22.0])

    def test_add_shape_mismatch(self):
        with pytest.raises(DimensionError):
            add(Tensor([1.0]), Tensor([1.0, 2.0]))

    def test_add_mask_keeps_neg_inf(self):
        scores = Tensor([[1.0, 2.0]])
        mask = Tensor([[0.0, NEG_INF]], allow_neg_inf=True)
        out = add(scores, mask)
        assert out.data[0, 0] == 1.0
        assert np.isneginf(out.data[0, 1])

    def test_scale(self):
        assert_array_equal(scale(Tensor([2.0, -4.0]), 0.5).data, [1.0, -2.0])

    def test_scale_rejects_non_finite_factor(self):
        with pytest.raises(ValueError):
            scale(Tensor([1.0]), float("inf"))

    def test_leaky_relu_values(self):
        out = leaky_relu(Tensor([2.0, -2.0, 0.0]), 0.01)
        assert_array_equal(out.data, [2.0, -0.02, 0.0])

    def test_transpose_last2(self):
        t = Tensor(np.arange(6, dtype=np.float64).reshape(2, 3))
        assert transpose_last2(t).shape == (3, 2)

    def test_reshape_row_major(self):
        t = Tensor(np.arange(6, dtype=np.float64).reshape(2, 3))
        out = reshape(t, (3, 2))
        assert_array_equal(out.data.ravel(), np.arange(6))


class TestDeterminism:
    def test_repeated_calls_bitwise_equal(self):
        rng = np.random.default_rng(42)
        a = Tensor(rng.standard_normal((5, 8, 4)))
        b = Tensor(rng.standard_normal((5, 4, 6)))
        first = matmul_batched(a, b).data
        for _ in range(3):
            assert_array_equal(matmul_batched(a, b).data, first)

    def test_batched_equals_per_slice(self):
        rng = np.random.default_rng(7)
        a = rng.standard_normal((4, 3, 5))
        b = rng.standard_normal((4, 5, 2))
        batched = matmul_batched(Tensor(a), Tensor(b)).data
        for i in range(4):
            single = matmul_batched(Tensor(a[i]), Tensor(b[i])).data
            assert_array_equal(batched[i], single)
