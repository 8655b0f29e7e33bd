"""Calibration of timings against a fixed reference task.

The host slows this process down by up to 1.5x for seconds to minutes at
a time, and the slowdown hits any Python code run at that moment about
equally.  So the benchmark times a fixed, pure-Python reference task
right before and after each slice of verdicts, and reports every time
scaled by ``REFERENCE_S`` over the reference's time around it: the time
the work would have taken on a host where the reference takes
``REFERENCE_S``.

The reference task is the benchmark's own code and never changes with
loopcert, so a change to loopcert moves only the work it measures.  It
does what loopcert mostly does: it builds a tree of small objects, walks
it recursively with a dictionary environment, and prints it to a string.
"""

from __future__ import annotations

import statistics
import time
from typing import Callable, List, Tuple

# The reference task's time on the machine the benchmark was tuned on
# (2 vCPUs of an Intel Xeon at 2.1 GHz, Python 3.11.7, quiet host), so
# that calibrated times read close to wall time there.
REFERENCE_S = 0.003

# Verdict time after which the reference runs again.  A reference takes
# three runs of about 3 ms, so this costs about a seventh of the timed
# pass; the host's speed changes over seconds, not milliseconds.
SLICE_S = 0.06


class _Node:
    __slots__ = ("op", "left", "right")

    def __init__(self, op: str, left: object, right: object) -> None:
        self.op, self.left, self.right = op, left, right


def _build(depth: int, index: int) -> object:
    if depth == 0:
        return ("var", f"x{index % 7}")
    return _Node("+-*"[index % 3], _build(depth - 1, 2 * index), _build(depth - 1, 2 * index + 1))


def _evaluate(node: object, env: dict) -> int:
    if isinstance(node, tuple):
        return env[node[1]]
    left, right = _evaluate(node.left, env), _evaluate(node.right, env)
    if node.op == "+":
        return left + right
    if node.op == "-":
        return left - right
    return (left * right) % 1000003


def _show(node: object) -> str:
    if isinstance(node, tuple):
        return node[1]
    return "(" + _show(node.left) + node.op + _show(node.right) + ")"


def reference_task() -> int:
    tree = _build(10, 1)
    env = {f"x{k}": k + 1 for k in range(7)}
    return sum(_evaluate(tree, env) for _ in range(3)) + len(_show(tree))


class Calibrator:
    """Times the reference task between slices of work and scales the
    work's times by it."""

    def __init__(self) -> None:
        for _ in range(20):
            reference_task()
        self.raw_s: List[float] = []  # every reference time, for the info line

    def reference(self) -> float:
        """The median of three back-to-back runs of the reference task."""
        times = []
        for _ in range(3):
            start = time.perf_counter()
            reference_task()
            times.append(time.perf_counter() - start)
        median = statistics.median(times)
        self.raw_s.append(median)
        return median

    def factor(self, before: float, after: float) -> float:
        """Scale for work done between two reference times."""
        return REFERENCE_S / ((before + after) / 2)

    def time(self, fn: Callable[[], object]) -> Tuple[float, float, object]:
        """(calibrated, raw) seconds of one call of `fn`, and its result."""
        before = self.reference()
        start = time.perf_counter()
        result = fn()
        raw = time.perf_counter() - start
        return raw * self.factor(before, self.reference()), raw, result
