"""Reverse-mode tape tests: frozen examples plus finite-difference checks.

The central-difference oracle is independent of the tape. Every
vector-Jacobian rule is checked against it through ``verify``'s op cases
and harness: h = 1e-5 in 64-bit, relative error
max|g_a - g_f| / max(1, max|g_f|) <= 1e-6.
"""

import tracemalloc

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from collections import Counter

from localattn import tensor, verify
from localattn.autodiff import SEQUENCE, VJPS, Graph, GraphContractError, finite_diff_grad
from localattn.model import ForecastModel, ModelConfig
from localattn.tensor import Tensor

NEG_INF = float("-inf")


def assert_op_gradients(*names, trials=20):
    """``verify._check_op`` passes its gate on the named op cases in every seeded trial."""
    for trial in range(trials):
        rng = np.random.default_rng(trial)
        cases = {
            label: (x, build)
            for op_cases in verify._op_cases(rng).values()
            for label, x, build in op_cases
        }
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
        s = g.softmax_lastdim(x, mask, 1.0)
        loss = g.mse(s, Tensor([[0.0, 0.0]]))
        grads = g.backward(loss)
        # output row is constant [1, 0] regardless of x: all grads vanish
        assert_array_equal(grads[x.id].data, [[0.0, 0.0]])

    def test_non_scalar_loss_rejected(self):
        g = Graph()
        x = g.parameter(Tensor([[1.0, 2.0]]))
        with pytest.raises(GraphContractError):
            g.backward(g.softmax_lastdim(x, None, 1.0))

    def test_loss_from_another_tape_rejected(self):
        """Whether the foreign loss's id falls inside this tape or past its end."""
        tapes, losses = [], []
        for depth in (1, 4):
            g = Graph()
            x = g.parameter(Tensor([1.0, 2.0, 3.0]))
            for _ in range(depth):
                x = g.add(x, x)
            tapes.append(g)
            losses.append(g.mse(x, Tensor(np.zeros(3))))
        short, long_ = tapes
        assert losses[0].id < len(long_.nodes) and losses[1].id >= len(short.nodes)
        for tape, foreign in ((long_, losses[0]), (short, losses[1])):
            with pytest.raises(GraphContractError, match="not recorded on this tape"):
                tape.backward(foreign)

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

    @pytest.mark.parametrize("name", [*VJPS, "constant", "value"])
    def test_both_backends_offer_the_op(self, name):
        assert callable(getattr(tensor, name, None))
        assert callable(getattr(Graph(), name, None))

    def test_graph_records_exactly_the_table_ops(self):
        leaves = {"parameter", "constant", "value", "backward"}
        public = {name for name in vars(Graph) if not name.startswith("_")}
        assert public - leaves == set(VJPS)

    def test_backward_reads_each_rule_from_the_table(self, monkeypatch):
        """A row wrapped after the tape was recorded still sees every backward call of its op."""
        g = Graph()
        x = g.parameter(Tensor(np.random.default_rng(6).standard_normal((3, 4))))
        out = g.matmul_batched(g.matmul_batched(x, g.constant(Tensor(np.ones((4, 2))))),
                               g.constant(Tensor(np.ones((2, 2)))))
        loss = g.mse(out, Tensor.zeros((3, 2)))
        arity, rule = VJPS["matmul_batched"]
        seen = []

        def counted(g, out, arrays):
            seen.append(out.shape)
            return rule(g, out, arrays)

        monkeypatch.setitem(VJPS, "matmul_batched", (arity, counted))
        g.backward(loss)
        assert seen == [(3, 2), (3, 2)]

    def test_every_recorder_calls_the_tensor_attribute_at_call_time(self, monkeypatch):
        """A wrapper set on ``tensor.<name>`` after import sees one call per recorded node.

        ``verify``'s gradient cases record every table op (``row_blocks``,
        ``rows`` and ``mse`` too); only outermost calls count, since
        ``affine`` calls ``matmul_batched`` itself.
        """
        cases = [case for op_cases in verify._op_cases(np.random.default_rng(9)).values()
                 for case in op_cases]
        calls, depth = Counter(), [0]

        def counted(name, fn):
            def wrapper(*args):
                calls[name] += depth[0] == 0
                depth[0] += 1
                try:
                    return fn(*args)
                finally:
                    depth[0] -= 1

            return wrapper

        for name in VJPS:
            monkeypatch.setattr(tensor, name, counted(name, getattr(tensor, name)))
        recorded = Counter()
        for _, x, build in cases:
            g = Graph()
            build(g, g.parameter(x))
            recorded.update(node.op for node in g.nodes if node.op in VJPS)
        assert set(recorded) == set(VJPS)
        assert +calls == recorded

    def test_gradient_suite_fails_for_an_op_without_cases(self, monkeypatch):
        monkeypatch.setitem(VJPS, "uncovered_op", VJPS["reshape"])
        result = verify.suite_gradients(trials=1)
        assert not result.passed and "uncovered_op" in result.detail

    def test_forward_values_match_eager(self):
        """Every taped op in every gradient case holds bitwise the eager op's output."""
        seen = set()
        for cases in verify._op_cases(np.random.default_rng(42)).values():
            for label, x, build in cases:
                g = Graph()
                build(g, g.parameter(x))
                for node in g.nodes:
                    if node.op not in VJPS:
                        continue
                    seen.add(node.op)
                    args = [src.value for src in node.inputs]
                    if VJPS[node.op][0] is SEQUENCE:
                        args = [args]
                    eager = getattr(tensor, node.op)(*args, *node.static).data
                    got = node.value.data
                    assert got.shape == eager.shape, label
                    assert got.tobytes() == eager.tobytes(), f"{label}: {node.op}"
        assert seen == set(VJPS)

    def test_inputs_are_nodes_recorded_earlier_on_the_same_tape(self):
        """The order the reverse walk relies on, on the toy lam window tape."""
        net = ForecastModel(ModelConfig(d_features=3, n=96, m=24, kind="lam", seed=4))
        g = Graph()
        out, _ = net.forward_graph(g, Tensor(np.random.default_rng(12).standard_normal((96, 3))))
        g.mse(out, Tensor.zeros((24, 3)))
        assert sum(len(node.inputs) for node in g.nodes) > len(g.nodes)
        for node in g.nodes:
            earlier = g.nodes[: node.id]
            assert all(any(src is n for n in earlier) for src in node.inputs), (node.id, node.op)


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
        """Gradient through softmax_lastdim's scale factor (positive by contract)."""
        assert_op_gradients("masked-softmax-unmasked", "attention-chain")

    def test_transpose(self):
        assert_op_gradients("transpose")

    def test_gather_scatter_add(self):
        """A ``rows`` slice gathers rows or blocks; its VJP scatters g into zeros."""
        assert_op_gradients("rows", "rows-blocks")

    def test_concat_axis0(self):
        assert_op_gradients("concat-rows", "concat-blocks")

    def test_concat_lastdim(self):
        assert_op_gradients("concat-features")

    def test_reshape(self):
        assert_op_gradients("reshape")

    def test_composite_attention_shaped_chain(self):
        """softmax(QK^T / sqrt(d)) V with grads through Q."""
        assert_op_gradients("attention-chain")


def reference_backward(graph, loss):
    """Every node's gradient with each first contribution copied: the ownership-free rule."""
    grads = {loss.id: np.ones_like(loss.value.data)}
    for node in reversed(graph.nodes[: loss.id + 1]):
        if node.id not in grads or node.op not in VJPS:
            continue
        arrays = [src.value.data for src in node.inputs]
        vjps = VJPS[node.op][1](grads[node.id], node.value.data, arrays, *node.static)
        for src, g in zip(node.inputs, vjps):
            if src.op == "constant":
                continue
            if src.id in grads:
                grads[src.id] += g
            else:
                grads[src.id] = np.array(g)
    return grads


def watch_vjps(monkeypatch):
    """Wrap every VJP rule in the table to keep what each of its calls saw.

    Returns (seen, incoming). ``seen`` holds (array, copy) of every
    incoming and outgoing gradient; the incoming one is copied before the
    rule runs, so a rule that writes into it is caught as well.
    ``incoming`` holds (out, g) per call: the node's forward output and
    the gradient it received.
    """
    seen, incoming = [], []

    def wrap(rule):
        def watched(g, out, *saved):
            before = np.array(g)
            outs = rule(g, out, *saved)
            seen.append((g, before))
            seen.extend((a, np.array(a)) for a in outs)
            incoming.append((out, g))
            return outs

        return watched

    for op, (arity, rule) in VJPS.items():
        monkeypatch.setitem(VJPS, op, (arity, wrap(rule)))
    return seen, incoming


def gradients_seen(graph, grads, incoming):
    """Every non-constant node's gradient, as ``backward`` used or returned it.

    A parameter's comes from ``backward``'s return value ``grads``; any
    other node's is the incoming g of its own VJP call, found by
    ``out is node.value.data`` (one forward output per recorded op).
    """
    got = {}
    for node in graph.nodes:
        if node.op == "parameter":
            got[node.id] = grads[node.id].data
        elif node.op != "constant":
            (got[node.id],) = [g for out, g in incoming if out is node.value.data]
    return got


def model_tape(kind, n=96, m=24):
    """The seeded forecaster's tape for one window (n, m) and its MSE loss node."""
    net = ForecastModel(ModelConfig(d_features=3, n=n, m=m, kind=kind, seed=4))
    rng = np.random.default_rng(12)
    x, y = Tensor(rng.standard_normal((n, 3))), Tensor(rng.standard_normal((m, 3)))
    g = Graph()
    out, _ = net.forward_graph(g, x)
    return g, g.mse(out, y)


def build_self_add(g, x):
    """add(x, x): both of add's VJP outputs are one array."""
    return g.add(x, x)


def build_diamond(g, x):
    """x feeds three products, so its gradient gets a kept, a summed and an in-place term."""
    rng = np.random.default_rng(3)
    w = [g.constant(Tensor(rng.standard_normal((4, 2)))) for _ in range(3)]
    p, q, r = (g.matmul_batched(x, wi) for wi in w)
    return g.add(g.add(p, q), r)


def build_shared_transpose(g, x):
    """A transpose_last2 view with two consumers, recorded after x's direct consumer.

    Backward reaches x first through the view's VJP (a view of the
    transpose node's gradient), then through the direct product.
    """
    rng = np.random.default_rng(4)
    direct = g.matmul_batched(x, g.constant(Tensor(rng.standard_normal((4, 3)))))
    t = g.transpose_last2(x)
    a = g.matmul_batched(g.constant(Tensor(rng.standard_normal((3, 4)))), t)
    b = g.matmul_batched(g.constant(Tensor(rng.standard_normal((3, 4)))), t)
    return g.add(direct, g.add(a, b))


class TestGradientOwnership:
    """First contributions are kept uncopied, and no stored gradient is written through."""

    X = Tensor(np.random.default_rng(2).standard_normal((3, 4)))

    def loss(self, build, x):
        g = Graph()
        p = g.parameter(x)
        out = build(g, p)
        return g, p, g.mse(out, Tensor(np.zeros(out.shape)))

    @pytest.mark.parametrize("build", [build_self_add, build_diamond, build_shared_transpose])
    def test_gradients_match_finite_differences(self, build):
        g, p, loss = self.loss(build, self.X)
        got = g.backward(loss)[p.id].data
        want = finite_diff_grad(lambda t: self.loss(build, t)[2].value.item(), self.X).data
        assert np.max(np.abs(got - want)) / max(1.0, np.max(np.abs(want))) <= 1e-6

    @pytest.mark.parametrize("build", [build_self_add, build_diamond, build_shared_transpose])
    def test_no_saved_gradient_changes_later(self, build, monkeypatch):
        g, _, loss = self.loss(build, self.X)
        seen, _ = watch_vjps(monkeypatch)
        g.backward(loss)
        assert seen
        for arr, snapshot in seen:
            assert_array_equal(arr, snapshot)

    @pytest.mark.parametrize("kind", ["lam", "full"])
    def test_toy_model_tape_is_bitwise_the_reference_and_writes_no_saved_gradient(
        self, kind, monkeypatch
    ):
        """Every op the toy model records, the in-place softmax VJP included."""
        g, loss = model_tape(kind)
        seen, incoming = watch_vjps(monkeypatch)
        got = gradients_seen(g, g.backward(loss), incoming)
        assert "softmax_lastdim" in {node.op for node in g.nodes}
        for arr, snapshot in seen:
            assert arr.tobytes() == snapshot.tobytes()
        want = reference_backward(g, loss)
        assert got.keys() == want.keys()
        for node in g.nodes:
            if node.op != "constant":
                assert got[node.id].tobytes() == want[node.id].tobytes(), (node.id, node.op)

    @pytest.mark.parametrize("build", [build_self_add, build_diamond, build_shared_transpose])
    def test_bitwise_equal_to_copying_every_first_term(self, build, monkeypatch):
        g, _, loss = self.loss(build, self.X)
        _, incoming = watch_vjps(monkeypatch)
        got = gradients_seen(g, g.backward(loss), incoming)
        want = reference_backward(g, loss)
        assert got.keys() == want.keys()
        for node in g.nodes:
            if node.op != "constant":
                assert_array_equal(got[node.id], want[node.id])

    def test_backward_frees_each_gradient_once_its_vjp_has_run(self):
        """The n=720 full tape: a bounded number of 720x720 score-sized arrays alive at once.

        Keeping every interior gradient until the end held about 24.6
        score matrices at the peak; dropping each once consumed, about 2.2.
        """
        g, loss = model_tape("full", n=720, m=96)
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            g.backward(loss)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 3 * 720 * 720 * 8, peak / (720 * 720 * 8)
