"""Reverse-mode tape tests: frozen examples plus finite-difference checks.

The central-difference oracle is independent of the tape. Every
vector-Jacobian rule is checked against it through ``verify``'s op cases
and harness: h = 1e-5 in 64-bit, relative error
max|g_a - g_f| / max(1, max|g_f|) <= 1e-6.
"""

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from localattn import tensor, verify
from localattn.autodiff import Graph, GraphContractError, finite_diff_grad
from localattn.tensor import Tensor

NEG_INF = float("-inf")

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


def assert_op_gradients(*names, trials=20):
    """``verify._check_op`` passes its gate on the named op cases in every seeded trial."""
    for trial in range(trials):
        rng = np.random.default_rng(trial)
        cases = {name: (x, build) for name, x, build in verify._op_cases(rng)}
        for name in names:
            err = verify._check_op(*cases[name])
            assert err <= verify._TOL_GRAD, f"{name} trial {trial}: rel err {err:.3e}"


class TestFiniteDiffOracle:
    def test_square_at_3(self):
        def f(t):
            return float(t.data[0] ** 2)

        g = finite_diff_grad(f, Tensor([3.0]))
        assert_allclose(g.data, [6.0], atol=1e-9)

    def test_constant_function(self):
        g = finite_diff_grad(lambda t: 5.0, Tensor([1.0, 2.0]))
        assert_array_equal(g.data, [0.0, 0.0])

    def test_sum_gives_ones(self):
        rng = np.random.default_rng(42)
        x = Tensor(rng.standard_normal((2, 3)))
        g = finite_diff_grad(lambda t: float(t.data.sum()), x)
        assert_allclose(g.data, np.ones((2, 3)), atol=1e-9)

    def test_rejects_non_finite_evaluation(self):
        with pytest.raises(ArithmeticError):
            finite_diff_grad(lambda t: float("nan"), Tensor([1.0]))


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
    """Each VJP rule vs central differences, 20 seeded trials per op.

    The cases and the check are ``verify``'s own (criterion 4 runs them
    too); each test names the cases of one op.
    """

    def test_matmul_left(self):
        assert_op_gradients("matmul-left-2d")

    def test_matmul_right(self):
        assert_op_gradients("matmul-right-2d")

    def test_matmul_batched_3d(self):
        assert_op_gradients("matmul-left", "matmul-right")

    def test_softmax(self):
        assert_op_gradients("masked-softmax-unmasked")

    def test_softmax_with_mask(self):
        assert_op_gradients("masked-softmax", "masked-softmax-2-blocks", "masked-softmax-1-block")

    def test_affine_x(self):
        assert_op_gradients("affine-x")

    def test_affine_w(self):
        assert_op_gradients("affine-w")

    def test_affine_b(self):
        assert_op_gradients("affine-b")

    def test_add(self):
        assert_op_gradients("add")

    def test_scale(self):
        """Gradient through masked_softmax's scale factor (positive by contract)."""
        assert_op_gradients("masked-softmax-unmasked", "attention-chain")

    def test_transpose(self):
        assert_op_gradients("transpose")

    def test_gather_scatter_add(self):
        """A ``rows`` slice gathers rows; its VJP scatters g into zeros."""
        assert_op_gradients("rows")

    def test_concat_axis0(self):
        assert_op_gradients("concat-rows")

    def test_concat_lastdim(self):
        assert_op_gradients("concat-features")

    def test_reshape(self):
        assert_op_gradients("reshape")

    def test_composite_attention_shaped_chain(self):
        """softmax(QK^T / sqrt(d)) V with grads through Q."""
        assert_op_gradients("attention-chain")
