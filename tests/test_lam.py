"""Blocked banded attention: block layout, mask, kernel, counters."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose, assert_array_equal

import localattn.attention as attention
from localattn.attention import masked_full_attention_oracle
from localattn.autodiff import VJPS, Graph
import localattn.lam as lam
from localattn.lam import LamCounters, _lam_attention, default_window, lam_forward, local_mask
from localattn.lam import score_counts
import localattn.tensor as tensor
from localattn.tensor import DimensionError, Tensor, row_blocks
from localattn.verify import _TOL_GRAD, _check_op, run_all, suite_counting, suite_gradients
import localattn.verify as verify
from localattn.verify import suite_masking
from localattn.verify import suite_oracle_equivalence

NEG_INF = float("-inf")


def random_qkv(rng, n, d_q, d_v):
    return (
        Tensor(rng.standard_normal((n, d_q))),
        Tensor(rng.standard_normal((n, d_q))),
        Tensor(rng.standard_normal((n, d_v))),
    )


class TestSplits:
    def test_queries_n6_w2_three_blocks(self):
        q = Tensor(np.arange(12, dtype=np.float64).reshape(6, 2))
        out = row_blocks(q, 2, 2)
        assert out.shape == (3, 2, 2)
        for r in range(3):
            assert_array_equal(out.data[r], q.data[2 * r : 2 * r + 2])

    def test_queries_window_n_single_block(self):
        rng = np.random.default_rng(42)
        q = Tensor(rng.standard_normal((4, 3)))
        out = row_blocks(q, 4, 4)
        assert out.shape == (1, 4, 3)
        assert_array_equal(out.data[0], q.data)

    def test_queries_drop_remainder_rows(self):
        q = Tensor(np.arange(10, dtype=np.float64).reshape(5, 2))
        out = row_blocks(q, 2, 2)
        assert out.shape == (2, 2, 2)
        assert_array_equal(out.data.reshape(4, 2), q.data[:4])

    def test_keys_interior_block_rows(self):
        k = Tensor(np.arange(6, dtype=np.float64).reshape(6, 1))
        out = row_blocks(k, 2, 3)
        assert out.shape == (3, 3, 1)
        assert_array_equal(out.data[1].ravel(), [1, 2, 3])

    def test_keys_block0_zero_padded(self):
        k = Tensor(np.arange(1, 7, dtype=np.float64).reshape(6, 1))
        out = row_blocks(k, 2, 3)
        assert_array_equal(out.data[0].ravel(), [0, 1, 2])

    def test_keys_window_n_padding_prefix(self):
        rng = np.random.default_rng(1)
        k = Tensor(rng.standard_normal((4, 2)))
        out = row_blocks(k, 4, 7)
        assert out.shape == (1, 7, 2)
        assert_array_equal(out.data[0, :3], np.zeros((3, 2)))
        assert_array_equal(out.data[0, 3:], k.data)

    def test_values_split_same_layout(self):
        rng = np.random.default_rng(2)
        v = Tensor(rng.standard_normal((6, 3)))
        kv = row_blocks(Tensor(v.data.copy()), 2, 3)
        vv = row_blocks(v, 2, 3)
        assert_array_equal(kv.data, vv.data)


def row_blocks_loop(m, window, width, g):
    """row_blocks spelled out, and its gradient for upstream gradient g.

    Slot c of block r holds row r*window-(width-window)+c, or zeros before
    row 0; the gradient sums every slot's g back onto the row it holds.
    """
    n, d = m.shape
    out, grad = np.zeros((n // window, width, d)), np.zeros((n, d))
    for r in range(n // window):
        for c in range(width):
            i = r * window - (width - window) + c
            if i >= 0:
                out[r, c] = m[i]
                grad[i] += g[r, c]
    return out, grad


class TestProperties:
    @given(st.data())
    @settings(max_examples=100, deadline=None)
    def test_row_blocks_matches_loop(self, data):
        n = data.draw(st.integers(1, 40), label="n")
        window = data.draw(st.integers(1, n), label="window")
        width = data.draw(st.integers(window, 2 * window - 1), label="width")
        d = data.draw(st.integers(1, 4), label="d")
        rng = np.random.default_rng(n * 1000 + window)
        m = rng.standard_normal((n, d))
        g = rng.standard_normal((n // window, width, d))
        want, want_grad = row_blocks_loop(m, window, width, g)
        out = row_blocks(Tensor(m), window, width)
        assert_array_equal(out.data, want)
        assert not out.data.flags.writeable

        graph = Graph()
        node = graph.row_blocks(graph.parameter(Tensor(m)), window, width)
        (grad,) = VJPS["row_blocks"][1](g, node.value.data, [m], *node.static)
        assert_allclose(grad, want_grad, rtol=0, atol=1e-12)

    @given(st.data())
    @settings(max_examples=100, deadline=None)
    def test_lam_forward_matches_oracle(self, data):
        n = data.draw(st.integers(1, 64), label="n")
        window = data.draw(st.integers(1, n), label="window")
        d_q = data.draw(st.integers(1, 8), label="d_q")
        d_v = data.draw(st.integers(1, 8), label="d_v")
        seed = data.draw(st.integers(0, 2**32 - 1), label="seed")
        q, k, v = random_qkv(np.random.default_rng(seed), n, d_q, d_v)
        got = lam_forward(q, k, v, window)
        want = masked_full_attention_oracle(q, k, v, window)
        assert np.max(np.abs(got.data - want.data)) <= 1e-10


class TestLocalMask:
    """The compact layout: block 0 (pad-guarded), then the band every later block shares."""

    def test_window2_interior_slices(self):
        m = local_mask(3, 2).data
        assert m.shape == (2, 2, 3)
        assert_array_equal(m[1], [[0.0, 0.0, NEG_INF], [NEG_INF, 0.0, 0.0]])

    def test_window2_block0_guards_padding(self):
        m = local_mask(3, 2).data
        assert_array_equal(m[0], [[NEG_INF, 0.0, NEG_INF], [NEG_INF, 0.0, 0.0]])

    def test_window1_all_zero(self):
        m = local_mask(4, 1).data
        assert m.shape == (2, 1, 1)
        assert_array_equal(m, np.zeros((2, 1, 1)))

    def test_guard_off_differs_only_in_block0(self):
        guarded = local_mask(3, 3).data
        bare = local_mask(3, 3, pad_guard=False).data
        assert bare.shape == (1, 3, 5)
        assert_array_equal(bare[0], guarded[1])
        assert not np.array_equal(guarded[0], bare[0])

    def test_finite_count_per_row(self):
        m = local_mask(2, 4).data
        # interior rows keep exactly window entries
        assert (np.isfinite(m[1]).sum(axis=1) == 4).all()

    @pytest.mark.parametrize("s, pad_guard, blocks", [
        (1, True, 1), (2, True, 2), (900, True, 2), (1, False, 1), (900, False, 1),
    ])
    def test_block_count_independent_of_length(self, s, pad_guard, blocks):
        assert local_mask(s, 5, pad_guard).shape == (blocks, 5, 9)


def reference_block_mask(s, window, pad_guard):
    """The block mask in source coordinates, built afresh on every call.

    Block r's row i1 is source row r*window + i1 and its slab column j1 is
    source row r*window - window + 1 + j1; a row keeps keys i-window+1 .. i,
    and block 0 also needs j >= 0 when guarded. Unguarded, only the band
    that every block r >= 1 shares is kept.
    """
    blocks = range(min(s, 2)) if pad_guard else [1]
    masks = []
    for r in blocks:
        i = r * window + np.arange(window)[:, np.newaxis]
        j = r * window - window + 1 + np.arange(2 * window - 1)[np.newaxis, :]
        masks.append(np.where((i - window + 1 <= j) & (j <= i) & (j >= 0), 0.0, -np.inf))
    return np.stack(masks)


def reference_remainder_mask(rem, window):
    """Trailing row t is source row window + t; slab column c is source row 1 + c."""
    i = window + np.arange(rem)[:, np.newaxis]
    j = 1 + np.arange(rem + window - 1)[np.newaxis, :]
    return np.where((i - window + 1 <= j) & (j <= i), 0.0, -np.inf)


class TestMaskMemo:
    """Both masks are built once per key and shared read-only."""

    @given(st.integers(1, 40), st.integers(1, 16), st.booleans())
    @settings(max_examples=60, deadline=None)
    def test_block_mask_equals_fresh_reference(self, s, window, pad_guard):
        assert_array_equal(local_mask(s, window, pad_guard).data,
                           reference_block_mask(s, window, pad_guard))

    @given(st.data())
    @settings(max_examples=60, deadline=None)
    def test_remainder_mask_equals_fresh_reference(self, data):
        window = data.draw(st.integers(2, 16), label="window")
        rem = data.draw(st.integers(1, window - 1), label="rem")
        assert_array_equal(lam._remainder_mask(rem, window).data,
                           reference_remainder_mask(rem, window))

    def test_remainder_mask_is_a_corner_of_the_one_unguarded_band_block(self):
        for window in range(2, 41):
            band = local_mask(1, window, pad_guard=False).data
            assert local_mask(window + 2, window, pad_guard=False).data is band
            for rem in range(1, window):
                m = lam._remainder_mask(rem, window).data
                assert m.flags.c_contiguous and not m.flags.writeable
                assert_array_equal(m, band[0, :rem, : rem + window - 1])

    @pytest.mark.parametrize("build", [lambda: local_mask(3, 4), lambda: local_mask(3, 4, False),
                                       lambda: lam._remainder_mask(2, 4)])
    def test_masks_are_read_only(self, build):
        m = build().data
        assert not m.flags.writeable
        with pytest.raises(ValueError):
            m[0, 0] = 1.0

    def test_one_key_one_shared_array(self):
        # block counts 3 and 7 both store min(s, 2) = 2 blocks
        assert local_mask(3, 4).data is local_mask(7, 4).data
        assert local_mask(3, 4, False).data is local_mask(5, 4, False).data
        assert local_mask(3, 4).data is not local_mask(3, 4, False).data
        assert lam._remainder_mask(2, 4).data is lam._remainder_mask(2, 4).data

    def test_guarded_and_unguarded_calls_do_not_share_a_mask(self):
        """Criterion 6's fault stays visible in any call order within one process."""
        rng = np.random.default_rng(12)
        q, k, v = random_qkv(rng, 14, 3, 2)  # window 4 leaves two trailing rows
        want = masked_full_attention_oracle(q, k, v, 4)
        row_dev = lambda pad_guard: np.max(
            np.abs(lam_forward(q, k, v, 4, pad_guard=pad_guard).data - want.data), axis=1)
        assert row_dev(True).max() <= 1e-12
        bad = row_dev(False)
        assert (bad[:3] > 1e-3).all() and (bad[3:] <= 1e-12).all()
        assert row_dev(True).max() <= 1e-12


class TestKernel:
    def test_window1_returns_values_exactly(self):
        rng = np.random.default_rng(5)
        q, k, v = random_qkv(rng, 9, 3, 2)
        assert_array_equal(lam_forward(q, k, v, 1).data, v.data)

    def test_n6_w2_matches_oracle(self):
        rng = np.random.default_rng(6)
        q, k, v = random_qkv(rng, 6, 4, 3)
        got = lam_forward(q, k, v, 2)
        want = masked_full_attention_oracle(q, k, v, 2)
        assert np.max(np.abs(got.data - want.data)) <= 1e-12

    def test_n6_w2_dot_product_count(self):
        rng = np.random.default_rng(7)
        q, k, v = random_qkv(rng, 6, 4, 3)
        c = LamCounters()
        lam_forward(q, k, v, 2, counters=c)
        assert c.dot_products == (2 * 2 - 1) * 6 == 18

    def test_remainder_path_matches_oracle(self):
        rng = np.random.default_rng(8)
        q, k, v = random_qkv(rng, 7, 3, 2)
        got = lam_forward(q, k, v, 2)
        want = masked_full_attention_oracle(q, k, v, 2)
        assert np.max(np.abs(got.data - want.data)) <= 1e-12

    @pytest.mark.parametrize(
        "n,window", [(8, 4), (8, 1), (8, 8), (7, 3), (5, 3), (4, 3), (9, 5), (2, 2)]
    )
    def test_edge_shapes_match_oracle(self, n, window):
        rng = np.random.default_rng(n * 100 + window)
        q, k, v = random_qkv(rng, n, 3, 2)
        got = lam_forward(q, k, v, window)
        want = masked_full_attention_oracle(q, k, v, window)
        assert np.max(np.abs(got.data - want.data)) <= 1e-10

    def test_early_rows_use_padding_zone(self):
        # rows i < window-1 are the ones touching zero-padded keys
        rng = np.random.default_rng(9)
        q, k, v = random_qkv(rng, 12, 3, 2)
        got = lam_forward(q, k, v, 6)
        want = masked_full_attention_oracle(q, k, v, 6)
        assert np.max(np.abs(got.data[:5] - want.data[:5])) <= 1e-12

    def test_guard_off_breaks_only_early_rows(self):
        rng = np.random.default_rng(10)
        q, k, v = random_qkv(rng, 12, 4, 2)
        bad = lam_forward(q, k, v, 4, pad_guard=False)
        want = masked_full_attention_oracle(q, k, v, 4)
        row_dev = np.max(np.abs(bad.data - want.data), axis=1)
        assert (row_dev[:3] > 1e-3).all()
        assert (row_dev[3:] <= 1e-12).all()

    def test_divisible_count_exact(self):
        rng = np.random.default_rng(11)
        for n, window in [(12, 3), (12, 4), (16, 8), (10, 1)]:
            q, k, v = random_qkv(rng, n, 3, 2)
            c = LamCounters()
            lam_forward(q, k, v, window, counters=c)
            assert c.dot_products == (2 * window - 1) * n

    def test_remainder_count_bound(self):
        rng = np.random.default_rng(12)
        for n, window in [(13, 3), (11, 4), (7, 5), (9, 2)]:
            q, k, v = random_qkv(rng, n, 3, 2)
            c = LamCounters()
            lam_forward(q, k, v, window, counters=c)
            assert c.dot_products <= (2 * window - 1) * (n + window)

    def test_peak_score_elements(self):
        rng = np.random.default_rng(13)
        for n, window in [(12, 3), (13, 3), (8, 8), (9, 2)]:
            q, k, v = random_qkv(rng, n, 3, 2)
            c = LamCounters()
            lam_forward(q, k, v, window, counters=c)
            s = n // window
            assert c.peak_score_elements == s * window * (2 * window - 1)

    def test_counters_accumulate_over_calls(self):
        rng = np.random.default_rng(14)
        q, k, v = random_qkv(rng, 6, 2, 2)
        c = LamCounters()
        lam_forward(q, k, v, 2, counters=c)
        first = c.dot_products
        lam_forward(q, k, v, 2, counters=c)
        assert c.dot_products == 2 * first

    def test_output_in_value_hull(self):
        rng = np.random.default_rng(15)
        q, k, v = random_qkv(rng, 11, 3, 2)
        window = 4
        out = lam_forward(q, k, v, window)
        for i in range(11):
            lo = max(0, i - window + 1)
            hull = v.data[lo : i + 1]
            assert (out.data[i] >= hull.min(axis=0) - 1e-12).all()
            assert (out.data[i] <= hull.max(axis=0) + 1e-12).all()

    def test_repeat_runs_bitwise_identical(self):
        rng = np.random.default_rng(16)
        q, k, v = random_qkv(rng, 10, 3, 2)
        first = lam_forward(q, k, v, 3).data
        for _ in range(3):
            assert_array_equal(lam_forward(q, k, v, 3).data, first)

    def test_recorded_forward_bitwise_equals_eager(self):
        rng = np.random.default_rng(17)
        for n, window in [(8, 4), (7, 3)]:
            q, k, v = random_qkv(rng, n, 3, 2)
            eager = lam_forward(q, k, v, window)
            g = Graph()
            node = _lam_attention(
                g, g.parameter(q), g.constant(k), g.constant(v), window
            )
            assert_array_equal(g.value(node).data, eager.data)

    def test_rejects_bad_shapes(self):
        z = Tensor.zeros((4, 2))
        with pytest.raises(DimensionError):
            lam_forward(z, Tensor.zeros((5, 2)), z, 2)
        with pytest.raises(DimensionError):
            lam_forward(z, z, Tensor.zeros((3, 2)), 2)
        with pytest.raises(ValueError):
            lam_forward(z, z, z, 5)
        empty = Tensor.zeros((4, 0))  # zero-width q and k
        with pytest.raises(DimensionError, match="at least one column"):
            lam_forward(empty, empty, z, 2)

    def test_randomized_against_oracle(self):
        rng = np.random.default_rng(18)
        worst = 0.0
        for _ in range(40):
            n = int(rng.integers(2, 49))
            window = int(rng.integers(1, n + 1))
            d_q = int(rng.integers(1, 9))
            d_v = int(rng.integers(1, 9))
            q, k, v = random_qkv(rng, n, d_q, d_v)
            got = lam_forward(q, k, v, window)
            want = masked_full_attention_oracle(q, k, v, window)
            worst = max(worst, float(np.max(np.abs(got.data - want.data))))
        assert worst <= 1e-10


class TestBandPath:
    """The kernel through softmax_lastdim's band path keeps the verify guarantees."""

    @staticmethod
    def count_band_calls(monkeypatch):
        calls = []
        band_softmax = tensor._band_softmax
        monkeypatch.setattr(tensor, "_band_softmax", lambda *a: calls.append(a) or band_softmax(*a))
        return calls

    def test_forced_band_path_passes_verify(self, monkeypatch):
        calls = self.count_band_calls(monkeypatch)  # every block call, eager and taped
        for suite in (suite_oracle_equivalence(40), suite_masking(25), suite_gradients(2)):
            assert suite.passed, suite.detail
        faulty = run_all(trials=12, inject_fault=True)
        assert [r.name for r in faulty if not r.passed] == ["oracle-equivalence"]
        assert calls

    def test_long_call_takes_the_band_path_bitwise(self, monkeypatch):
        n, window = 20000, 60  # 333 blocks: ten chunks of at most 36, then 20 trailing rows
        chunks = -(-(n // window) // (attention._SCORE_CHUNK // (window * (2 * window - 1))))
        calls = self.count_band_calls(monkeypatch)
        q, k, v = random_qkv(np.random.default_rng(30), n, 4, 3)
        counters = LamCounters()
        out = lam_forward(q, k, v, window, counters=counters).data
        assert len(calls) == chunks == 10  # one pass per chunk; the trailing slab is dense
        assert (counters.dot_products, counters.peak_score_elements) == score_counts(n, window)

        # the dense reference: the same block masks as plain tensors
        monkeypatch.setattr(lam, "local_mask", lambda *a: Tensor._wrap(local_mask(*a).data))
        calls.clear()
        assert lam_forward(q, k, v, window).data.tobytes() == out.tobytes()
        assert not calls
        for lo in range(0, n, 2000):  # every chunk boundary
            hi, start = min(lo + 2000, n), max(0, lo - window + 1)
            part = [Tensor._wrap(t.data[start:hi]) for t in (q, k, v)]
            want = masked_full_attention_oracle(*part, window).data[lo - start :]
            assert np.max(np.abs(out[lo:hi] - want)) <= 1e-10


@pytest.mark.parametrize("mutant", ["stale-hook-name", "kernel-bypasses-probe"])
def test_masking_suite_fails_when_weights_go_unrecorded(monkeypatch, mutant):
    """A case that records fewer weight tensors than its softmax calls fails the suite.

    Under a stale hook name the probe's attribute fallback runs the plain op
    and records nothing; a kernel run off the probe records only the n x n check.
    """
    if mutant == "stale-hook-name":
        hook = verify._PreActProbe.softmax_lastdim
        monkeypatch.delattr(verify._PreActProbe, "softmax_lastdim")
        monkeypatch.setattr(verify._PreActProbe, "masked_softmax", hook, raising=False)
    else:
        monkeypatch.setattr(verify, "_lam_attention", lambda ops, *a: _lam_attention(tensor, *a))
    result = suite_masking(5)
    recorded = 0 if mutant == "stale-hook-name" else 5
    assert not result.passed
    assert f"5 cases, {recorded} weight tensors" in result.detail
    assert "5 cases recorded fewer weight tensors than softmax calls" in result.detail


class TestChunkedKernel:
    """The kernel with the core's score budget small enough to split a call into chunks of blocks."""

    @given(st.data())
    @settings(max_examples=100, deadline=None)
    def test_chunked_call_matches_oracle_and_counts(self, data):
        n = data.draw(st.integers(1, 64), label="n")
        window = data.draw(st.integers(1, n), label="window")
        d_q, d_v = data.draw(st.integers(1, 6), label="d_q"), data.draw(st.integers(1, 6), label="d_v")
        q, k, v = random_qkv(np.random.default_rng(data.draw(st.integers(0, 2**32 - 1))), n, d_q, d_v)
        budget = data.draw(st.integers(1, score_counts(n, window)[1]), label="budget")
        counters = LamCounters()
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(attention, "_SCORE_CHUNK", budget)
            got = lam_forward(q, k, v, window, counters=counters)
        want = masked_full_attention_oracle(q, k, v, window)
        assert np.max(np.abs(got.data - want.data)) <= 1e-10
        assert (counters.dot_products, counters.peak_score_elements) == score_counts(n, window)

    @pytest.mark.parametrize("wrt", [0, 1, 2])  # q, k, v
    def test_chunked_tape_passes_the_gradient_check(self, monkeypatch, wrt):
        n, window = 14, 3  # four blocks and two trailing rows
        monkeypatch.setattr(attention, "_SCORE_CHUNK", 2 * window * (2 * window - 1))
        qkv = random_qkv(np.random.default_rng(31 + wrt), n, 3, 2)

        def build(g, x):
            ops = [g.constant(t) for t in qkv]
            ops[wrt] = x
            return _lam_attention(g, *ops, window)

        g = Graph()
        build(g, g.parameter(qkv[wrt]))
        assert sum(node.op == "softmax_lastdim" for node in g.nodes) == 3  # two chunks, one slab
        assert _check_op(qkv[wrt], build) <= _TOL_GRAD

    def test_long_call_never_holds_the_whole_weights(self):
        n, d = 20000, 8
        window = default_window(n)
        assert window == 60
        q, k, v = random_qkv(np.random.default_rng(32), n, d, d)
        tracemalloc.start()
        try:
            lam_forward(q, k, v, window)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        scores = score_counts(n, window)[1] * 8
        buffers = 4 * attention._SCORE_CHUNK * 8  # a chunk of weights, its softmax temporaries
        operands = 5 * n * d * 8  # three zero-padded copies, the chunk outputs and their join
        # holding the whole weights next to the scores would take about 2 * scores
        assert peak <= scores + buffers + operands < 2 * scores

    def test_long_call_frees_the_key_slab_and_joins_after_the_scores(self):
        n, d = 20000, 32
        window, width = 60, 119
        s, step = n // window, attention._SCORE_CHUNK // (window * width)
        assert default_window(n) == window and -(-s // step) == 10  # ten core chunks
        q, k, v = random_qkv(np.random.default_rng(33), n, d, d)
        tracemalloc.start()
        try:
            lam_forward(q, k, v, window)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        scores = score_counts(n, window)[1] * 8
        slab = (s * window + window - 1) * d * 8  # one zero-padded key or value copy
        outputs = n * d * 8  # the chunk outputs, or their join
        chunk = attention._SCORE_CHUNK * 8  # one chunk's weights or band temporary
        # next to the scores: the value slab, the chunk outputs and one chunk's
        # buffers; the key slab or the joined output there would each add n * d * 8
        assert peak <= scores + slab + outputs + 2 * chunk


class TestScoreCounts:
    @pytest.mark.parametrize("n, window, want", [
        (12, 3, (60, 60)),
        (8, 8, (120, 120)),
        (13, 3, (63, 60)),
        (9, 2, (26, 24)),
        (96, 28, (5088, 4620)),  # the toy call: 12 trailing rows
        (60000, 64, (7618976, 7615936)),
    ])
    def test_equals_counters(self, n, window, want):
        q, k, v = random_qkv(np.random.default_rng(n), n, 2, 1)
        c = LamCounters()
        lam_forward(q, k, v, window, counters=c)
        assert score_counts(n, window) == (c.dot_products, c.peak_score_elements) == want

    def test_rejects_window_out_of_range(self):
        with pytest.raises(ValueError, match="window"):
            score_counts(4, 5)

    def test_counting_suite_catches_one_extra_slab_product(self, monkeypatch):
        core = lam._full_attention

        def one_more(ops, q, k, v, mask=None, counters=None):
            out = core(ops, q, k, v, mask, counters)
            if counters is not None and ops.value(q).ndim == 2:  # the trailing slab
                counters.dot_products += 1
            return out

        monkeypatch.setattr(lam, "_full_attention", one_more)
        result = suite_counting(40, 0)
        assert not result.passed and "dot, peak" in result.detail


class TestDefaultWindow:
    def test_length_one(self):
        assert default_window(1) == 1

    def test_power_of_two(self):
        assert default_window(256) == 32
        # math.log(2**29, 2) is 29.000000000000004, which would round up to 30
        assert default_window(2**29) == 4 * 29

    def test_non_power_rounds_up(self):
        # log2(1000) = 9.97, ceil -> 10, times 4; log2(100) = 6.64 -> 28
        assert default_window(1000) == 40
        assert default_window(100) == 28

    def test_clamped_to_n(self):
        assert default_window(2) == 2
        assert default_window(4) == 4
