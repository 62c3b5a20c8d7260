"""Self-verification suites shared by the CLI and the acceptance tests.

Each suite runs an independent oracle against the implementation and
returns a :class:`SuiteResult` with a pass flag and a human-readable
detail line. ``run_all`` executes them in a fixed order. The suites
are deliberately redundant with the unit tests: they are the runtime
check a user can execute on their own machine via ``localattn verify``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .attention import _full_attention, _multi_head, band_mask, full_attention
from .attention import masked_full_attention_oracle, permute_rows
from .autodiff import VJPS, Graph, finite_diff_grad
from .lam import LamCounters, _lam_attention, score_counts
from .model import ForecastModel, ModelConfig, _resolve_inner
from . import tensor
from .tensor import Tensor

__all__ = [
    "SuiteResult",
    "suite_oracle_equivalence",
    "suite_counting",
    "suite_masking",
    "suite_equivariance",
    "suite_gradients",
    "run_all",
]


# fixed pass gates; a banded output moving by more than _TOL_BREAK is broken
_TOL_ORACLE = 1e-10
_TOL_ROWSUM = 1e-12
_TOL_EQUI = 1e-10
_TOL_GRAD = 1e-6
_TOL_BREAK = 1e-3


@dataclass(frozen=True)
class SuiteResult:
    name: str
    passed: bool
    detail: str


def _check_count(label: str, count: int) -> None:
    """A suite that runs no case checks nothing, so a count below 1 is a ValueError."""
    if count < 1:
        raise ValueError(f"{label} must be >= 1, got {count}")


# -- oracle equivalence ----------------------------------------------------

# always-exercised shapes: divisible, non-divisible, L=1, L=n, n<2L,
# and rows i < L-1 (every case with L >= 2 has them)
_STRUCTURED_CASES = (
    (2, 1),
    (2, 2),
    (5, 4),
    (5, 5),
    (8, 1),
    (8, 4),
    (8, 8),
    (9, 4),
    (96, 32),
    (127, 16),
    (128, 16),
    (128, 128),
)


def _cases(trials: int, rng, n_max: int) -> list[tuple[int, int]]:
    """The structured (n, window) cases, then random ones with n in [2, n_max]."""
    cases = list(_STRUCTURED_CASES[:trials])
    while len(cases) < trials:
        n = int(rng.integers(2, n_max + 1))
        cases.append((n, int(rng.integers(1, n + 1))))
    return cases


def suite_oracle_equivalence(
    trials: int = 200, seed: int = 0, inject_fault: bool = False
) -> SuiteResult:
    """Blocked kernel vs quadratic masked oracle over a randomized grid.

    ``inject_fault`` disables the padding mask on the first block; the
    suite then reports where the deviations fall (they must be confined
    to rows i < window-1, the zero-padded key zone).
    """
    name = "oracle-equivalence"
    _check_count("trials", trials)
    rng = np.random.default_rng(seed)
    cases = _cases(trials, rng, 128)

    worst = 0.0
    worst_case = None
    worst_early = 0.0  # rows i < window-1
    worst_late = 0.0  # rows i >= window-1
    for n, window in cases:
        d_q = int(rng.integers(1, 17))
        d_v = int(rng.integers(1, 17))
        q = Tensor._wrap(rng.normal(size=(n, d_q)))
        k = Tensor._wrap(rng.normal(size=(n, d_q)))
        v = Tensor._wrap(rng.normal(size=(n, d_v)))
        got = _lam_attention(tensor, q, k, v, window, pad_guard=not inject_fault)
        want = masked_full_attention_oracle(q, k, v, window)
        dev_rows = np.max(np.abs(got.data - want.data), axis=1)
        dev = float(dev_rows.max())
        if dev > worst:
            worst, worst_case = dev, (n, window, d_q, d_v)
        cut = window - 1
        if cut > 0:
            worst_early = max(worst_early, float(dev_rows[:cut].max()))
        if cut < n:
            worst_late = max(worst_late, float(dev_rows[cut:].max()))

    passed = worst <= _TOL_ORACLE
    detail = f"{len(cases)} cases, worst |dev| = {worst:.3e} (tol {_TOL_ORACLE:.0e})"
    if worst_case is not None and not passed:
        n, window, d_q, d_v = worst_case
        detail += f" at n={n} window={window} d_q={d_q} d_v={d_v}"
    if inject_fault:
        detail += (
            f"; fault injected: dev rows<window-1 = {worst_early:.3e}, "
            f"rows>=window-1 = {worst_late:.3e}"
        )
    return SuiteResult(name, passed, detail)


# -- counting ---------------------------------------------------------------


def suite_counting(trials: int = 40, seed: int = 0) -> SuiteResult:
    """Exact dot-product and peak-score-memory accounting vs closed forms.

    Every kernel call must count exactly :func:`localattn.lam.score_counts`,
    ragged n included, and stay within (2L-1)(n+L) dot products; the
    quadratic reference must count n^2 of each.
    """
    name = "counting"
    _check_count("trials", trials)
    rng = np.random.default_rng(seed)
    cases = _cases(trials, rng, 256)

    failures = []
    for n, window in cases:
        q = Tensor._wrap(rng.normal(size=(n, 3)))
        k = Tensor._wrap(rng.normal(size=(n, 3)))
        v = Tensor._wrap(rng.normal(size=(n, 2)))
        counters = LamCounters()
        _lam_attention(tensor, q, k, v, window, counters=counters)
        got = (counters.dot_products, counters.peak_score_elements)
        if got != score_counts(n, window):
            failures.append(f"dot, peak n={n} L={window}: {got} != {score_counts(n, window)}")
        if counters.dot_products > (2 * window - 1) * (n + window):
            failures.append(f"dot-bound n={n} L={window}: {counters.dot_products}")

        oracle_counters = LamCounters()
        full_attention(q, k, v, band_mask(n, window), counters=oracle_counters)
        if oracle_counters.dot_products != n * n:
            failures.append(f"oracle-dot n={n}: {oracle_counters.dot_products}")
        if oracle_counters.peak_score_elements != n * n:
            failures.append(f"oracle-peak n={n}: {oracle_counters.peak_score_elements}")

    detail = f"{len(cases)} cases, closed-form counts exact"
    if failures:
        detail = f"{len(failures)} mismatches, first: {failures[0]}"
    return SuiteResult(name, not failures, detail)


# -- masking semantics -------------------------------------------------------


def suite_masking(trials: int = 25, seed: int = 0) -> SuiteResult:
    """Softmax rows sum to one and masked slots are exactly zero.

    Checked on the n x n banded matrix and on every weight tensor the
    blocked kernel produces as it runs (its score blocks and its
    trailing-row slab), each against the mask it was normalized under.
    A case that records fewer weight tensors than those softmax calls
    fails the suite, so a probe that stops seeing them cannot pass.
    """
    name = "masking"
    _check_count("trials", trials)
    rng = np.random.default_rng(seed)
    worst_sum = 0.0
    nonzero_masked = 0
    recorded = short = 0
    for _ in range(trials):
        n = int(rng.integers(2, 65))
        window = int(rng.integers(1, n + 1))
        d_q = int(rng.integers(1, 9))
        q = Tensor._wrap(rng.normal(size=(n, d_q)))
        k = Tensor._wrap(rng.normal(size=(n, d_q)))

        probe = _PreActProbe()
        _full_attention(probe, q, k, q, band_mask(n, window))
        _lam_attention(probe, q, k, q, window)  # the weights do not depend on v
        recorded += len(probe.softmaxes)
        short += len(probe.softmaxes) < 2 + (n % window > 0)  # n x n, blocks, trailing slab
        for weights, mask in probe.softmaxes:
            w = weights.data
            worst_sum = max(worst_sum, float(np.abs(w.sum(axis=-1) - 1.0).max()))
            dropped = np.isneginf(tensor._add_mask(np.zeros_like(w), mask.data, np.empty(w.shape)))
            nonzero_masked += int(np.count_nonzero(w[dropped]))

    passed = worst_sum <= _TOL_ROWSUM and nonzero_masked == 0 and short == 0
    detail = (
        f"{trials} cases, {recorded} weight tensors, worst |rowsum-1| = {worst_sum:.3e} "
        f"(tol {_TOL_ROWSUM:.0e}), nonzero masked slots = {nonzero_masked}"
    )
    if short:
        detail += f", {short} cases recorded fewer weight tensors than softmax calls"
    return SuiteResult(name, passed, detail)


# -- permutation equivariance -------------------------------------------------


def suite_equivariance(permutations: int = 10, seed: int = 0) -> SuiteResult:
    """Full multi-head attention commutes with row permutations; banded does not.

    The banded kernel is required to break equivariance in at least 9 of
    10 trials (a permutation could in principle preserve the band).
    """
    name = "equivariance"
    _check_count("permutations", permutations)
    rng = np.random.default_rng(seed)
    n, d, heads, d_head, window = 24, 8, 2, 4, 4
    full, lam = _resolve_inner("full", None, seed), _resolve_inner("lam", window, seed)
    bound = 1.0 / math.sqrt(d)  # every projection here has fan-in d
    worst_full = 0.0
    lam_breaks = 0
    for trial in range(permutations):
        w_rng = np.random.default_rng(seed + trial)
        draw = lambda *shape: Tensor._wrap(w_rng.uniform(-bound, bound, size=shape))
        head_ws = [(draw(d, d_head), draw(d, d_head), draw(d, d_head)) for _ in range(heads)]
        w_out = draw(heads * d_head, d)

        def attend(x, inner):
            return _multi_head(tensor, x, x, x, head_ws, w_out, inner)

        x = Tensor._wrap(rng.normal(size=(n, d)))
        idx = rng.permutation(n)
        while np.array_equal(idx, np.arange(n)):
            idx = rng.permutation(n)
        xp = permute_rows(x, idx)

        full_dev = permute_rows(attend(x, full), idx).data - attend(xp, full).data
        worst_full = max(worst_full, float(np.abs(full_dev).max()))
        lam_dev = permute_rows(attend(x, lam), idx).data - attend(xp, lam).data
        if float(np.abs(lam_dev).max()) > _TOL_BREAK:
            lam_breaks += 1

    need = max(permutations - 1, 1)
    passed = worst_full <= _TOL_EQUI and lam_breaks >= need
    detail = (
        f"{permutations} permutations, full worst dev = {worst_full:.3e} "
        f"(tol {_TOL_EQUI:.0e}), banded broke in {lam_breaks} (need >= {need})"
    )
    return SuiteResult(name, passed, detail)


# -- gradients ----------------------------------------------------------------


def _rel_err(analytic: np.ndarray, numeric: np.ndarray) -> float:
    scale = max(1.0, float(np.abs(numeric).max(initial=0.0)))
    return float(np.abs(analytic - numeric).max(initial=0.0)) / scale


def _op_cases(rng):
    """Op name -> its (label, x, build) cases; build maps a graph and the node of x to a node.

    Every :data:`~localattn.autodiff.VJPS` op has an entry (``suite_gradients``
    fails otherwise); ``attention`` runs the attention core, which chains several.
    """
    a3 = Tensor._wrap(rng.normal(size=(2, 3, 4)))
    b3 = Tensor._wrap(rng.normal(size=(2, 4, 2)))
    m23 = Tensor._wrap(rng.normal(size=(2, 3)))
    m34 = Tensor._wrap(rng.normal(size=(3, 4)))
    w = Tensor._wrap(rng.normal(size=(4, 5)))
    bias = Tensor._wrap(rng.normal(size=(5,)))
    mask_arr = np.zeros((3, 3))
    mask_arr[0, 2] = mask_arr[1, 0] = -np.inf
    mask = Tensor(mask_arr, allow_neg_inf=True)
    sm_in = Tensor._wrap(rng.normal(size=(3, 3)))
    sm_blocks = Tensor._wrap(rng.normal(size=(3, 2, 3)))
    block_mask = Tensor(np.stack([mask_arr[:2], mask_arr[1:]]), allow_neg_inf=True)
    rows_src = Tensor._wrap(rng.normal(size=(3, 4)))
    block_src = Tensor._wrap(rng.normal(size=(7, 2)))  # window 3 leaves one row over
    cat_a = Tensor._wrap(rng.normal(size=(2, 3)))
    cat_b = Tensor._wrap(rng.normal(size=(4, 3)))
    keys = Tensor._wrap(rng.normal(size=(5, 3)))
    values = Tensor._wrap(rng.normal(size=(5, 2)))
    queries = Tensor._wrap(rng.normal(size=(4, 3)))
    target = Tensor._wrap(rng.normal(size=(3, 4)))
    blocks_src = Tensor._wrap(rng.normal(size=(4, 2, 3)))  # drawn last: the cases above keep theirs
    blocks_tail = Tensor._wrap(rng.normal(size=(2, 2, 3)))

    return {
        "matmul_batched": [
            ("matmul-left", a3, lambda g, x: g.matmul_batched(x, g.constant(b3))),
            ("matmul-right", b3, lambda g, x: g.matmul_batched(g.constant(a3), x)),
            ("matmul-left-2d", m23, lambda g, x: g.matmul_batched(x, g.constant(m34))),
            ("matmul-right-2d", m34, lambda g, x: g.matmul_batched(g.constant(m23), x)),
        ],
        "softmax_lastdim": [
            ("masked-softmax", sm_in, lambda g, x: g.softmax_lastdim(x, mask, 0.7)),
            (
                "masked-softmax-2-blocks",
                sm_blocks,
                lambda g, x: g.softmax_lastdim(x, block_mask, 0.7),
            ),
            (
                "masked-softmax-1-block",
                sm_blocks,
                lambda g, x: g.softmax_lastdim(x, Tensor._wrap(block_mask.data[1:]), 0.7),
            ),
            ("masked-softmax-unmasked", sm_in, lambda g, x: g.softmax_lastdim(x, None, 1.7)),
        ],
        "affine": [
            ("affine-x", m34, lambda g, x: g.affine(x, g.constant(w), g.constant(bias), 0.01)),
            ("affine-w", w, lambda g, x: g.affine(g.constant(m34), x, g.constant(bias), 0.01)),
            ("affine-b", bias, lambda g, x: g.affine(g.constant(m34), g.constant(w), x, 0.01)),
        ],
        "add": [("add", m23, lambda g, x: g.add(x, g.constant(m23)))],
        "transpose_last2": [("transpose", m34, lambda g, x: g.transpose_last2(x))],
        "rows": [
            ("rows", rows_src, lambda g, x: g.rows(x, 1, 3)),
            ("rows-blocks", blocks_src, lambda g, x: g.rows(x, 1, 3)),
        ],
        "row_blocks": [
            ("row-blocks", block_src, lambda g, x: g.row_blocks(x, 3, 3)),
            ("row-blocks-slab", block_src, lambda g, x: g.row_blocks(x, 3, 5)),
        ],
        "concat_axis0": [
            ("concat-rows", cat_a, lambda g, x: g.concat_axis0([x, g.constant(cat_b)])),
            (
                "concat-blocks",
                blocks_src,
                lambda g, x: g.concat_axis0([g.constant(blocks_tail), x]),
            ),
        ],
        "concat_lastdim": [
            ("concat-features", cat_a, lambda g, x: g.concat_lastdim([x, g.constant(m23)])),
        ],
        "reshape": [("reshape", m34, lambda g, x: g.reshape(x, (2, 2, 3)))],
        "mse": [("mse", m34, lambda g, x: g.mse(x, target))],
        "attention": [
            (
                "attention-chain",
                queries,
                lambda g, x: _full_attention(g, x, g.constant(keys), g.constant(values)),
            ),
        ],
    }


def _check_op(x: Tensor, build) -> float:
    """Relative error of the tape gradient of mse(build(x), 0) against central differences."""

    def loss(g: Graph, t: Tensor):
        node = g.parameter(t)
        out = build(g, node)
        return node, g.mse(out, Tensor.zeros(out.shape))

    g = Graph()
    node, taped = loss(g, x)
    analytic = g.backward(taped)[node.id].data
    numeric = finite_diff_grad(lambda t: loss(Graph(), t)[1].value.item(), x).data
    return _rel_err(analytic, numeric)


class _PreActProbe:
    """Eager ops wrapper recording activation kink margins and softmax weights.

    Central differences are only valid where the function is smooth
    within the step, so model gradient checks are run at points whose
    leaky-ReLU pre-activations all clear the kink by a safe margin;
    draws that land too close are resampled. The masking suite checks
    the recorded softmax weights.
    """

    def __init__(self):
        self.min_abs_pre = math.inf
        self.softmaxes = []  # (weights, mask) of each call, in call order

    def softmax_lastdim(self, scores, mask=None, c=1.0):
        weights = tensor.softmax_lastdim(scores, mask, c)
        self.softmaxes.append((weights, mask))
        return weights

    def affine(self, x, w, b, alpha=None):
        pre = tensor.affine(x, w, b)
        if alpha is None:
            return pre
        self.min_abs_pre = min(self.min_abs_pre, float(np.abs(pre.data).min()))
        return Tensor._wrap(tensor._leaky(pre.data, alpha))

    def __getattr__(self, name):
        return getattr(tensor, name)


# how far every leaky-ReLU pre-activation must stay from 0 at a check point
_KINK_MARGIN = 1e-3


def _smooth_model_point(kind: str, seed: int):
    """A (model, x, y) triple whose forward stays clear of activation kinks."""
    for attempt in range(50):
        cfg = ModelConfig(
            d_features=1, n=8, m=2, d_model=4, num_layers=1, heads=2,
            kind=kind, window=4, seed=seed + 7919 * attempt,
        )
        model = ForecastModel(cfg)
        rng = np.random.default_rng(seed + 7919 * attempt + 1)
        x = Tensor._wrap(rng.normal(size=(8, 1)))
        y = Tensor._wrap(rng.normal(size=(2, 1)))
        probe = _PreActProbe()
        model._forward(probe, x, lambda name: model.params[name], model._inner())
        if probe.min_abs_pre > _KINK_MARGIN:
            return model, x, y
    raise RuntimeError("could not find a kink-free gradient-check point")


def _check_model(kind: str, seed: int) -> float:
    model, x, y = _smooth_model_point(kind, seed)

    g = Graph()
    out, nodes = model.forward_graph(g, x)
    grads = g.backward(g.mse(out, y))

    worst = 0.0
    baseline = {name: t for name, t in model.params.items()}
    for name, node in nodes.items():
        def f(t: Tensor, _name=name) -> float:
            model.params[_name] = t
            try:
                return tensor.mse(model.forward(x), y).item()
            finally:
                model.params[_name] = baseline[_name]

        numeric = finite_diff_grad(f, model.params[name]).data
        worst = max(worst, _rel_err(grads[node.id].data, numeric))
    return worst


def suite_gradients(trials: int = 20, seed: int = 0) -> SuiteResult:
    """Analytic gradients vs central finite differences, per op and full model."""
    name = "gradients"
    _check_count("trials", trials)
    untested = [op for op in VJPS if op not in _op_cases(np.random.default_rng(seed))]
    if untested:
        return SuiteResult(name, False, f"no gradient case for op {', '.join(untested)}")
    worst_op = ("", 0.0)
    for trial in range(trials):
        rng = np.random.default_rng(seed + 1000 * trial)
        for cases in _op_cases(rng).values():
            for label, x, build in cases:
                err = _check_op(x, build)
                if err > worst_op[1]:
                    worst_op = (label, err)

    worst_model = ("", 0.0)
    for trial in range(trials):
        for kind in ("full", "lam"):
            err = _check_model(kind, seed + trial)
            if err > worst_model[1]:
                worst_model = (kind, err)

    passed = worst_op[1] <= _TOL_GRAD and worst_model[1] <= _TOL_GRAD
    detail = (
        f"{trials} trials: worst op rel err = {worst_op[1]:.3e} ({worst_op[0]}), "
        f"worst model rel err = {worst_model[1]:.3e} (kind={worst_model[0]}, "
        f"tol {_TOL_GRAD:.0e})"
    )
    return SuiteResult(name, passed, detail)


def run_all(trials: int = 200, seed: int = 0, inject_fault: bool = False):
    """Every suite in a fixed order, case counts derived from ``trials``."""
    grad_trials = min(20, max(1, trials // 10))
    return [
        suite_oracle_equivalence(trials, seed, inject_fault=inject_fault),
        suite_counting(min(trials, 40), seed),
        suite_masking(min(trials, 25), seed),
        suite_equivariance(min(trials, 10), seed),
        suite_gradients(grad_trials, seed),
    ]
