"""The parser and the checkers grow linearly: their Python calls at size
N and 2N.

Call counts repeat exactly from run to run and do not depend on the hash
seed, so a ratio per doubling tells linear (about 2) from quadratic
(about 4) on any host.  They are counted as the bench's count run counts
them (`bench/tracing.py`): every call of a Python function that the
C-level profiler sees while `parser.parse` runs, or check-source and
check-target.  The IS and ID chains are the bench's own inputs, read from
`bench/workloads.py`; the nests are parenthesised expressions and terms,
each level of which used to give back a parse of the whole rest of the
nest.  The ID chain repeats one group of coercions, so the checkers'
calls per statement also show that their memo tables (see
`dependent.CheckCtx`) answer the repeats.
"""

import cProfile
import importlib.util
import os
import sys

import pytest

from loopcert import pipeline
from loopcert.parser import parse

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BOUND = 2.2  # per doubling; on these families a linear parse reads 1.98-2.00
# check-source plus check-target on the ID chain: 27.8-28.0 calls a
# statement with the memo tables, and over 66 without any one of them
CHECK_CEILING = 35


def _workloads():
    spec = importlib.util.spec_from_file_location(
        "bench_workloads", os.path.join(ROOT, "bench", "workloads.py")
    )
    module = importlib.util.module_from_spec(spec)
    dont_write = sys.dont_write_bytecode
    sys.dont_write_bytecode = True  # read only: no __pycache__ under bench/
    sys.modules[spec.name] = module  # its dataclasses look their module up
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = dont_write
        del sys.modules[spec.name]
    return module


def _expr_nest(depth):
    return "discipline IS;\nmain {\n  z := " + "(" * depth + "0" + ")" * depth + ";\n} out [z : nat]\n"


def _term_nest(depth):
    return "discipline FS;\ncst c = " + "(" * depth + "0" + ")" * depth + ";\n"


_BENCH = _workloads()
FAMILIES = {
    "is_chain": (_BENCH.is_chain, 1000),
    "id_chain": (_BENCH.id_chain, 1000),
    "expr_nest": (_expr_nest, 100),
    "term_nest": (_term_nest, 100),
}


def python_calls(run, *args):
    """The Python calls that run(*args) makes."""
    profiler = cProfile.Profile()
    profiler.enable()
    try:
        run(*args)
    finally:
        profiler.disable()
    return sum(entry.callcount for entry in profiler.getstats() if not isinstance(entry.code, str))


@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_parse_calls_grow_linearly(family):
    make, n = FAMILIES[family]
    small, large = python_calls(parse, make(n)), python_calls(parse, make(2 * n))
    assert large / small <= BOUND, (small, large, large / small)


def _checks(sf, image):
    checked = pipeline.check_source(sf)
    pipeline.check_target(sf, checked, image)


def test_check_calls_grow_linearly_and_repeats_are_memoised():
    counts = []
    for n in (1000, 2000):
        sf = parse(_BENCH.id_chain(n))
        counts.append((n, python_calls(_checks, sf, pipeline.translate_file(sf))))
    (n, small), (_, large) = counts
    assert large / small <= BOUND, counts
    for n, calls in counts:
        assert calls / n <= CHECK_CEILING, counts
