"""Tensor container and kernel tests: frozen examples plus properties."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose, assert_array_equal

from localattn.tensor import (
    DegenerateRowError,
    DimensionError,
    Tensor,
    add,
    affine,
    concat_axis0,
    concat_lastdim,
    gather_rows_padded,
    leaky_relu,
    masked_softmax,
    matmul_batched,
    op_counter,
    reshape,
    rows,
    scale,
    softmax_lastdim,
    transpose_last2,
)

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
        got = masked_softmax(scores, mask, c)
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
            masked_softmax(scores, mask, c)
        assert type(info.value) is error


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

    def test_rank3_source_rejected(self):
        with pytest.raises(DimensionError):
            rows(Tensor(np.zeros((1, 2, 3))), 0, 1)


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
