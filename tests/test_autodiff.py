"""Reverse-mode tape tests: frozen examples plus finite-difference checks.

The central-difference oracle is independent of the tape; every
vector-Jacobian rule is verified against it at h = 1e-5 in 64-bit with
relative error = max|g_a - g_f| / max(1, max|g_f|) <= 1e-6.
"""

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from localattn import tensor
from localattn.autodiff import Graph, GraphContractError, finite_diff_grad
from localattn.tensor import Tensor

NEG_INF = float("-inf")
H = 1e-5
TOL = 1e-6

# the ``ops`` vocabulary the kernels and the model are written against
OPS_INTERFACE = (
    "constant",
    "matmul_batched",
    "masked_softmax",
    "row_blocks",
    "rows",
    "concat_axis0",
    "concat_lastdim",
    "affine",
    "add",
    "transpose_last2",
    "reshape",
    "value",
)


def rel_err(analytic: np.ndarray, numeric: np.ndarray) -> float:
    return float(
        np.max(np.abs(analytic - numeric)) / max(1.0, np.max(np.abs(numeric)))
    )


def check_against_fd(build_loss, x: Tensor) -> float:
    """Gradient of build_loss at x via the tape vs central differences."""
    g = Graph()
    p = g.parameter(x)
    loss = build_loss(g, p)
    grads = g.backward(loss)

    def f(t: Tensor) -> float:
        g2 = Graph()
        return build_loss(g2, g2.parameter(t)).value.item()

    fd = finite_diff_grad(f, x, h=H)
    return rel_err(grads[p.id].data, fd.data)


class TestFiniteDiffOracle:
    def test_square_at_3(self):
        def f(t):
            return float(t.data[0] ** 2)

        g = finite_diff_grad(f, Tensor([3.0]), h=H)
        assert_allclose(g.data, [6.0], atol=1e-9)

    def test_constant_function(self):
        g = finite_diff_grad(lambda t: 5.0, Tensor([1.0, 2.0]), h=H)
        assert_array_equal(g.data, [0.0, 0.0])

    def test_sum_gives_ones(self):
        rng = np.random.default_rng(42)
        x = Tensor(rng.standard_normal((2, 3)))
        g = finite_diff_grad(lambda t: float(t.data.sum()), x, h=H)
        assert_allclose(g.data, np.ones((2, 3)), atol=1e-9)

    def test_rejects_nonpositive_step(self):
        with pytest.raises(ValueError):
            finite_diff_grad(lambda t: 0.0, Tensor([1.0]), h=0.0)

    def test_rejects_non_finite_evaluation(self):
        with pytest.raises(ArithmeticError):
            finite_diff_grad(
                lambda t: float("nan"), Tensor([1.0]), h=H
            )


class TestBackwardExamples:
    def test_mse_of_single_element(self):
        g = Graph()
        x = g.parameter(Tensor([3.0]))
        loss = g.mse(x, Tensor([0.0]))
        grads = g.backward(loss)
        assert_allclose(grads[x.id].data, [6.0], atol=0)

    def test_identity_affine_chain(self):
        g = Graph()
        x = g.parameter(Tensor([[1.0, 2.0], [3.0, 4.0]]))
        out = g.affine(x, g.constant(Tensor(np.eye(2))), g.constant(Tensor([0.0, 0.0])))
        # sum via mse against zero times a known factor is awkward; use
        # matmul with a ones column instead, then mse against zero on 1x1
        ones = g.constant(Tensor(np.ones((2, 1)) * 0.5))
        col = g.matmul_batched(out, ones)
        pool = g.matmul_batched(g.constant(Tensor(np.ones((1, 2)) * 0.5)), col)
        grads = g.backward(g.mse(pool, Tensor([[0.0]])))
        # pool = mean of all entries; mse = pool^2; d/dx = 2*pool * 1/4
        pool_val = x.value.data.mean()
        assert_allclose(grads[x.id].data, np.full((2, 2), 2 * pool_val / 4), atol=1e-12)

    def test_masked_softmax_entry_gets_zero_grad(self):
        g = Graph()
        x = g.parameter(Tensor([[2.0, 1.0]]))
        mask = Tensor([[0.0, NEG_INF]], allow_neg_inf=True)
        s = g.masked_softmax(x, mask, 1.0)
        loss = g.mse(s, Tensor([[0.0, 0.0]]))
        grads = g.backward(loss)
        # output row is constant [1, 0] regardless of x: all grads vanish
        assert_array_equal(grads[x.id].data, [[0.0, 0.0]])

    def test_non_scalar_loss_rejected(self):
        g = Graph()
        x = g.parameter(Tensor([[1.0, 2.0]]))
        with pytest.raises(GraphContractError):
            g.backward(g.masked_softmax(x, None, 1.0))

    def test_parameter_off_the_loss_path_gets_zero(self):
        g = Graph()
        x = g.parameter(Tensor([3.0]))
        unused = g.parameter(Tensor([1.0, 2.0]))
        grads = g.backward(g.mse(x, Tensor([0.0])))
        assert_array_equal(grads[unused.id].data, [0.0, 0.0])

    def test_grad_reused_node_accumulates(self):
        g = Graph()
        x = g.parameter(Tensor([2.0]))
        y = g.add(x, x)
        grads = g.backward(g.mse(y, Tensor([0.0])))
        # y = 2x, loss = 4x^2, dloss/dx = 8x = 16
        assert_allclose(grads[x.id].data, [16.0], atol=0)

    @pytest.mark.parametrize("name", OPS_INTERFACE)
    def test_both_backends_offer_the_op(self, name):
        assert callable(getattr(tensor, name, None))
        assert callable(getattr(Graph(), name, None))

    def test_forward_values_match_eager(self):
        rng = np.random.default_rng(42)
        x = Tensor(rng.standard_normal((3, 4)))
        w = Tensor(rng.standard_normal((4, 2)))
        b = Tensor(rng.standard_normal(2))
        g = Graph()
        node = g.affine(g.parameter(x), g.parameter(w), g.parameter(b), alpha=0.01)
        eager = tensor.affine(x, w, b, alpha=0.01)
        assert_array_equal(g.value(node).data, eager.data)


class TestPerOpGradients:
    """Each rule vs central differences, >= 20 random trials per op."""

    def _trials(self, build, shape, trials=20, seed=0):
        rng = np.random.default_rng(seed)
        worst = 0.0
        for _ in range(trials):
            x = Tensor(rng.standard_normal(shape))
            worst = max(worst, check_against_fd(build, x))
        assert worst <= TOL, f"worst relative error {worst:.3e}"

    def test_matmul_left(self):
        rng = np.random.default_rng(42)
        b_fixed = Tensor(rng.standard_normal((4, 3)))
        t_fixed = Tensor(rng.standard_normal((2, 3)))

        def build(g, p):
            out = g.matmul_batched(p, g.constant(b_fixed))
            return g.mse(out, t_fixed)

        self._trials(build, (2, 4), seed=1)

    def test_matmul_right(self):
        rng = np.random.default_rng(43)
        a_fixed = Tensor(rng.standard_normal((2, 4)))
        t_fixed = Tensor(rng.standard_normal((2, 3)))

        def build(g, p):
            out = g.matmul_batched(g.constant(a_fixed), p)
            return g.mse(out, t_fixed)

        self._trials(build, (4, 3), seed=2)

    def test_matmul_batched_3d(self):
        rng = np.random.default_rng(44)
        b_fixed = Tensor(rng.standard_normal((3, 2, 4)))
        t_fixed = Tensor(rng.standard_normal((3, 5, 4)))

        def build(g, p):
            out = g.matmul_batched(p, g.constant(b_fixed))
            return g.mse(out, t_fixed)

        self._trials(build, (3, 5, 2), seed=3)

    def test_softmax(self):
        rng = np.random.default_rng(45)
        t_fixed = Tensor(rng.standard_normal((3, 4)))

        def build(g, p):
            return g.mse(g.masked_softmax(p, None, 1.0), t_fixed)

        self._trials(build, (3, 4), seed=4)

    def test_softmax_with_mask(self):
        rng = np.random.default_rng(46)
        mask_arr = np.zeros((3, 4))
        mask_arr[0, 3] = mask_arr[2, 0] = NEG_INF
        mask = Tensor(mask_arr, allow_neg_inf=True)
        t_fixed = Tensor(rng.standard_normal((3, 4)))

        def build(g, p):
            s = g.masked_softmax(p, mask, 1.0)
            return g.mse(s, t_fixed)

        self._trials(build, (3, 4), seed=5)

    def test_affine_x(self):
        rng = np.random.default_rng(47)
        w = Tensor(rng.standard_normal((4, 3)))
        b = Tensor(rng.standard_normal(3))
        t_fixed = Tensor(rng.standard_normal((2, 3)))

        def build(g, p):
            return g.mse(g.affine(p, g.constant(w), g.constant(b), alpha=0.01), t_fixed)

        self._trials(build, (2, 4), seed=6)

    def test_affine_w(self):
        rng = np.random.default_rng(48)
        x = Tensor(rng.standard_normal((2, 4)))
        b = Tensor(rng.standard_normal(3))
        t_fixed = Tensor(rng.standard_normal((2, 3)))

        def build(g, p):
            return g.mse(g.affine(g.constant(x), p, g.constant(b), alpha=0.01), t_fixed)

        self._trials(build, (4, 3), seed=7)

    def test_affine_b(self):
        rng = np.random.default_rng(49)
        x = Tensor(rng.standard_normal((2, 4)))
        w = Tensor(rng.standard_normal((4, 3)))
        t_fixed = Tensor(rng.standard_normal((2, 3)))

        def build(g, p):
            return g.mse(g.affine(g.constant(x), g.constant(w), p, alpha=0.01), t_fixed)

        self._trials(build, (3,), seed=8)

    def test_add(self):
        rng = np.random.default_rng(51)
        other = Tensor(rng.standard_normal((2, 3)))
        t_fixed = Tensor(rng.standard_normal((2, 3)))

        def build(g, p):
            return g.mse(g.add(p, g.constant(other)), t_fixed)

        self._trials(build, (2, 3), seed=10)

    def test_scale(self):
        """Gradient through masked_softmax's scale factor (positive by contract)."""
        rng = np.random.default_rng(52)
        t_fixed = Tensor(rng.standard_normal((2, 3)))

        def build(g, p):
            return g.mse(g.masked_softmax(p, None, 1.7), t_fixed)

        self._trials(build, (2, 3), seed=11)

    def test_transpose(self):
        rng = np.random.default_rng(53)
        t_fixed = Tensor(rng.standard_normal((3, 2)))

        def build(g, p):
            return g.mse(g.transpose_last2(p), t_fixed)

        self._trials(build, (2, 3), seed=12)

    def test_gather_scatter_add(self):
        """A ``rows`` slice gathers rows; its VJP scatters g into zeros."""
        rng = np.random.default_rng(54)
        t_fixed = Tensor(rng.standard_normal((2, 3)))

        def build(g, p):
            return g.mse(g.rows(p, 1, 3), t_fixed)

        self._trials(build, (4, 3), seed=13)

    def test_concat_axis0(self):
        rng = np.random.default_rng(55)
        other = Tensor(rng.standard_normal((2, 3)))
        t_fixed = Tensor(rng.standard_normal((5, 3)))

        def build(g, p):
            return g.mse(g.concat_axis0([p, g.constant(other)]), t_fixed)

        self._trials(build, (3, 3), seed=14)

    def test_concat_lastdim(self):
        rng = np.random.default_rng(56)
        other = Tensor(rng.standard_normal((3, 2)))
        t_fixed = Tensor(rng.standard_normal((3, 6)))

        def build(g, p):
            return g.mse(g.concat_lastdim([g.constant(other), p]), t_fixed)

        self._trials(build, (3, 4), seed=15)

    def test_reshape(self):
        rng = np.random.default_rng(57)
        t_fixed = Tensor(rng.standard_normal((6, 2)))

        def build(g, p):
            return g.mse(g.reshape(p, (6, 2)), t_fixed)

        self._trials(build, (3, 4), seed=16)

    def test_composite_attention_shaped_chain(self):
        """softmax(QK^T / sqrt(d)) V with grads through Q."""
        rng = np.random.default_rng(58)
        k = Tensor(rng.standard_normal((5, 3)))
        v = Tensor(rng.standard_normal((5, 2)))
        t_fixed = Tensor(rng.standard_normal((4, 2)))

        def build(g, p):
            kt = g.transpose_last2(g.constant(k))
            weights = g.masked_softmax(g.matmul_batched(p, kt), None, 1.0 / np.sqrt(3.0))
            return g.mse(g.matmul_batched(weights, g.constant(v)), t_fixed)

        self._trials(build, (4, 3), seed=17)
