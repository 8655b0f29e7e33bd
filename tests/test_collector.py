"""Syntax nodes are slotted and final, and run_pipeline's collection
policy is local to the run: it acts while the phases build their trees
and leaves the collector's settings as it found them, whatever the
run's outcome.
"""

import ast
import gc
import os
import sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import MISSING, fields

import pytest

from loopcert import pipeline, runtime
from loopcert import syntax as S

CORPUS = os.path.join(os.path.dirname(__file__), "..", "corpus")
# thresholds no run would set, so that a restore is seen
CALLER_THRESHOLD = (500, 7, 9)


def test_plans_hold_exactly_the_node_classes_of_syntax():
    assert len(S._PLANS) == 72
    for cls in S._PLANS:
        assert getattr(S, cls.__name__) is cls, cls.__name__


def test_exact_class_dispatch_decides_as_isinstance():
    """The walks tell nodes apart by `type(x) is C`, which decides as
    isinstance only while no node class has a subclass; a match
    statement's class patterns would be isinstance tests."""
    classes = list(S._PLANS) + [runtime.Clos, runtime.ContV, runtime.IClos] + [
        cls for cls in vars(runtime).values()
        if isinstance(cls, type) and issubclass(cls, runtime.RTerm) and cls is not runtime.RTerm
    ]
    assert len(classes) == 72 + 3 + 12
    assert [cls.__name__ for cls in classes if cls.__subclasses__()] == []
    src = os.path.dirname(S.__file__)
    matches = []
    for name in sorted(os.listdir(src)):
        if name.endswith(".py"):
            with open(os.path.join(src, name)) as f:
                tree = ast.parse(f.read())
            matches += [f"{name}:{node.lineno}" for node in ast.walk(tree) if isinstance(node, ast.Match)]
    assert matches == []


def test_nodes_have_no_dict():
    def instance(cls):
        return cls(*(None for f in fields(cls) if f.default is MISSING and f.default_factory is MISSING))

    assert [cls.__name__ for cls in S._PLANS if hasattr(instance(cls), "__dict__")] == []


@pytest.fixture
def collector():
    """The collector's settings, put back after the test."""
    threshold, enabled = gc.get_threshold(), gc.isenabled()
    try:
        yield
    finally:
        gc.set_threshold(*threshold)
        (gc.enable if enabled else gc.disable)()


@pytest.fixture
def collections():
    """The thresholds in force at each collection that starts while it is
    open."""
    seen = []

    def hook(phase, info):
        if phase == "start":
            seen.append(gc.get_threshold())

    gc.callbacks.append(hook)
    try:
        yield seen
    finally:
        gc.callbacks.remove(hook)


def _chain(n):
    """An IS program of n increments: enough allocation for collections."""
    return (
        "discipline IS;\ncst chain = proc [x : nat] out [z : nat] {\n  z := x;\n"
        + "  inc(z);\n" * n
        + "};\nmain {\n  chain(0; z);\n} out [z : nat]\n"
    )


DEEP = "discipline IS;\nmain {\n  z := " + "(" * 100_000 + "0" + ")" * 100_000 + ";\n} out [z : nat]\n"
RUNS = {
    "success": (lambda: pipeline.run_pipeline(os.path.join(CORPUS, "figure1.loop")), pipeline.EXIT_OK),
    "parse error": (
        lambda: pipeline.run_pipeline("x.loop", text="discipline IS;\nmain {"),
        pipeline.EXIT_PARSE,
    ),
    "source type error": (
        lambda: pipeline.run_pipeline(os.path.join(CORPUS, "negative", "neg_unbound.loop")),
        pipeline.EXIT_SOURCE,
    ),
    "evaluation failure": (
        lambda: pipeline.run_pipeline(os.path.join(CORPUS, "figure1.loop"), fuel=1),
        pipeline.EXIT_RUNTIME,
    ),
    "limit": (lambda: pipeline.run_pipeline("deep.loop", text=DEEP), pipeline.EXIT_PARSE),
}


@pytest.mark.parametrize("case", sorted(RUNS))
def test_a_run_restores_the_collector(collector, case):
    run, exit_code = RUNS[case]
    gc.set_threshold(*CALLER_THRESHOLD)
    report = run()
    assert report.exit_code == exit_code, report.diagnostics
    if case == "limit":
        assert report.diagnostics[0]["rule"] == "LIMIT"
    assert gc.get_threshold() == CALLER_THRESHOLD
    assert gc.isenabled()


class _Defect(Exception):
    """Not a phase error: run_phase lets it escape."""


def test_an_escaping_exception_restores_the_collector(collector, monkeypatch):
    def parse(text):
        raise _Defect()

    monkeypatch.setattr(pipeline, "parse", parse)
    gc.set_threshold(*CALLER_THRESHOLD)
    with pytest.raises(_Defect):
        pipeline.run_pipeline(os.path.join(CORPUS, "figure1.loop"))
    assert gc.get_threshold() == CALLER_THRESHOLD
    assert gc.isenabled()


def test_the_policy_acts_during_the_run(collector, collections):
    gc.set_threshold(*CALLER_THRESHOLD)
    assert pipeline.run_pipeline("chain.loop", text=_chain(2000)).exit_code == pipeline.EXIT_OK
    assert collections
    assert set(collections) == {pipeline.GC_THRESHOLD}
    assert gc.get_threshold() == CALLER_THRESHOLD


@pytest.mark.parametrize("off", ["disable", "threshold 0"])
def test_collection_turned_off_stays_off(collector, collections, off):
    if off == "disable":
        gc.disable()
    else:
        gc.set_threshold(0, 7, 9)
    threshold, enabled = gc.get_threshold(), gc.isenabled()
    assert pipeline.run_pipeline("chain.loop", text=_chain(2000)).exit_code == pipeline.EXIT_OK
    assert collections == []
    assert (gc.get_threshold(), gc.isenabled()) == (threshold, enabled)


def test_concurrent_runs_restore_the_collector(collector):
    """Each run saves and restores the process-wide thresholds; runs that
    overlap must still leave the caller's."""
    gc.set_threshold(*CALLER_THRESHOLD)
    paths = [os.path.join(CORPUS, name) for name in ("figure1.loop", "figure2.loop", "addition_is.loop")] * 4
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        with ThreadPoolExecutor(max_workers=4) as pool:
            codes = list(pool.map(lambda p: pipeline.run_pipeline(p).exit_code, paths, timeout=60))
    finally:
        sys.setswitchinterval(interval)
    assert codes == [pipeline.EXIT_OK] * len(paths)
    assert gc.get_threshold() == CALLER_THRESHOLD
