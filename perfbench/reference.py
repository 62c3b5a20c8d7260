"""Reference loops: how fast the shared machine runs at this moment.

The machine the benchmark was written on, a 2-CPU Xeon VM shared with
other tenants, runs the same code up to 1.8x slower for stretches of a
tenth of a second to several minutes. A median of wall times over a
minute then mostly says how much of that minute was slow. So every timed
unit of a workload is followed by a fixed loop of the same character as the
workload's own work, and the unit's time is reported rescaled by the loop's
nominal time over its measured time: the wall time the unit would have
taken with the machine running the loop at its nominal speed.

Interpreter-bound work slows far more than memory-bound work in the slow
stretches, so there is a loop of each kind, and the toy workloads, whose
tape and arrays outgrow the small loop's caches, run both in turn. No loop
calls localattn, so a change to the program cannot move them.
"""

from __future__ import annotations

import time

import numpy as np

_rng = np.random.default_rng(0)

# interpreter: small numpy ops with a Python-object tape, like a toy window
_A = _rng.standard_normal((2, 12, 4))
_B = _rng.standard_normal((2, 4, 12))
INTERP_REPEATS = 1000


class _Node:
    __slots__ = ("value", "parents", "op")

    def __init__(self, value, parents, op):
        self.value, self.parents, self.op = value, parents, op


def interpreter_loop() -> None:
    for _ in range(INTERP_REPEATS):
        tape = []
        a = _A @ _B
        tape.append(_Node(a, (_A, _B), "matmul"))
        shifted = a - a.max(-1, keepdims=True)
        tape.append(_Node(shifted, (a,), "sub"))
        e = np.exp(shifted)
        tape.append(_Node(e, (shifted,), "exp"))
        p = e / e.sum(-1, keepdims=True)
        tape.append(_Node(p, (e,), "div"))
        out = p @ _B.transpose(0, 2, 1)
        tape.append(_Node(out, (p,), "matmul"))
        grad = np.ones_like(out)
        for node in reversed(tape):
            grad = grad.sum() * np.ones_like(node.value)


# memory: slab gather, batched scores and softmax over about 20 MB, like
# a slice of the banded kernel at n=60000, w=64
_KEYS = _rng.standard_normal((60000, 8))
_SLABS = (np.arange(300)[:, None] * 64 + np.arange(127)[None, :]) % len(_KEYS)
_QUERIES = _rng.standard_normal((300, 64, 8))


def _memory_pass(blocks: int) -> None:
    for lo in range(0, len(_SLABS), blocks):
        slab = _KEYS[_SLABS[lo : lo + blocks]]
        scores = _QUERIES[lo : lo + blocks] @ slab.transpose(0, 2, 1)
        weights = np.exp(scores - scores.max(-1, keepdims=True))
        (weights / weights.sum(-1, keepdims=True)) @ slab


def memory_loop() -> None:
    _memory_pass(len(_SLABS))


def mixed_loop() -> None:
    """Both kinds; the memory part in 2 MB pieces, so that the toy
    workloads' peak memory stays their own."""
    interpreter_loop()
    _memory_pass(30)


# each loop's time in the fast state of the machine named above
NOMINAL_MS = {interpreter_loop: 36.0, memory_loop: 40.0}
NOMINAL_MS[mixed_loop] = NOMINAL_MS[interpreter_loop] + NOMINAL_MS[memory_loop]


def slowdown(loop) -> float:
    """Run ``loop`` once; its measured time over its nominal time."""
    t0 = time.perf_counter()
    loop()
    return (time.perf_counter() - t0) * 1e3 / NOMINAL_MS[loop]
