"""Syntax and runtime nodes are slotted, final and immutable, and are
built in one Python call; and run_pipeline's collection policy is local
to the run: it acts while the phases build their trees and leaves the
collector's settings as it found them, whatever the run's outcome.
"""

import ast
import copy
import gc
import glob
import inspect
import os
import pickle
import random
import sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import MISSING, FrozenInstanceError, fields, is_dataclass, replace

import pytest

from loopcert import fuzz, gen, pipeline, runtime
from loopcert import syntax as S

CORPUS = os.path.join(os.path.dirname(__file__), "..", "corpus")
FIXTURES = os.path.join(os.path.dirname(__file__), "..", "bench", "fixtures")
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


# every dataclass that syntax or runtime defines, taken from their names
# as syntax._PLANS is, so that no new node class escapes the tests below
NODES = [
    cls
    for module in (S, runtime)
    for cls in vars(module).values()
    if isinstance(cls, type) and is_dataclass(cls) and cls.__module__ == module.__name__
]


def init_fields(cls):
    return [f for f in fields(cls) if f.init]


def values(cls, mark="a"):
    """A value for each field of cls that __init__ takes, each its own."""
    return tuple(f"{mark}.{f.name}" for f in init_fields(cls))


def contents(node):
    """Every field of node, those that == ignores included."""
    return tuple(getattr(node, f.name) for f in fields(node))


def ignored(cls):
    """The fields that == and hash ignore: spans, binder hints and
    RFn.loop, and the hint of a for, whose presence alone counts."""
    return {f.name for f in fields(cls) if not f.compare} | ({"idx"} if cls is S.CFor else set())


def raises_frozen(action):
    try:
        action()
    except FrozenInstanceError:
        return True
    return False


def test_the_node_classes_are_those_of_syntax_and_runtime():
    assert len(NODES) == 72 + 12
    assert {cls for cls in NODES if not issubclass(cls, runtime.RTerm)} == set(S._PLANS)
    assert all(issubclass(cls, S.Immutable) for cls in NODES)


def test_nodes_have_no_dict():
    assert [cls.__name__ for cls in NODES if hasattr(cls(*values(cls)), "__dict__")] == []


def test_no_field_of_a_node_can_be_assigned_or_deleted():
    """Dict keys and hashes rely on it; the spans, the binder hints and
    RFn.loop included."""
    writable = []
    for cls in NODES:
        node = cls(*values(cls))
        before = contents(node)
        for name in [f.name for f in fields(cls)] + ["other"]:
            if not raises_frozen(lambda: setattr(node, name, "b")):
                writable.append(f"{cls.__name__}.{name} = ...")
            if not raises_frozen(lambda: delattr(node, name)):
                writable.append(f"del {cls.__name__}.{name}")
        assert contents(node) == before
    assert writable == []


def test_keyword_and_positional_construction_agree():
    for cls in NODES:
        names = [f.name for f in init_fields(cls)]
        positional = cls(*values(cls))
        keyword = cls(**dict(zip(names, values(cls))))
        assert contents(positional) == contents(keyword), cls.__name__
        parameters = list(inspect.signature(cls).parameters.values())
        assert [p.name for p in parameters] == names, cls.__name__
        assert [p.default for p in parameters] == [
            inspect.Parameter.empty if f.default is MISSING else f.default for f in init_fields(cls)
        ], cls.__name__
        # a field that __init__ does not take has its default
        assert all(getattr(positional, f.name) == f.default for f in fields(cls) if not f.init), cls.__name__


def test_replace_changes_one_field_and_keeps_the_rest():
    for cls in NODES:
        node = cls(*values(cls))
        for f in init_fields(cls):
            changed = replace(node, **{f.name: "b"})
            expected = list(contents(node))
            expected[[g.name for g in fields(cls)].index(f.name)] = "b"
            assert type(changed) is cls and list(contents(changed)) == expected, (cls.__name__, f.name)


def test_eq_and_hash_ignore_spans_hints_and_loops():
    for cls in NODES:
        node = cls(*values(cls))
        skip = ignored(cls)
        other = cls(*(b if f.name in skip else a for f, a, b in zip(init_fields(cls), values(cls), values(cls, "b"))))
        if cls is runtime.RFn:
            object.__setattr__(other, "loop", "b.loop")
        assert node == other and hash(node) == hash(other), cls.__name__
        for f in init_fields(cls):
            if f.name not in skip:
                assert node != replace(node, **{f.name: "b"}), (cls.__name__, f.name)


def test_copy_and_pickle_rebuild_a_node():
    for cls in NODES:
        node = cls(*values(cls))
        for twin in (copy.copy(node), copy.deepcopy(node), pickle.loads(pickle.dumps(node))):
            assert type(twin) is cls and contents(twin) == contents(node), cls.__name__


def python_calls(cls, args):
    """The Python-level call events of building cls(*args)."""
    calls = 0

    def profile(frame, event, arg):
        nonlocal calls
        if event == "call":
            calls += 1

    sys.setprofile(profile)
    try:
        cls(*args)
    finally:
        sys.setprofile(None)
    return calls


def test_a_node_is_built_in_one_python_call():
    """Its __init__ and nothing else: no __setattr__ or __post_init__ runs."""
    assert {cls.__name__: python_calls(cls, values(cls)) for cls in NODES} == {cls.__name__: 1 for cls in NODES}


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
    """An IS program of n increments.  At 4,000 a run allocates enough for
    collections under the policy, whatever the tests before it left
    allocated: translate and erasure share the chain's variable and
    step, so most of its nodes are the lets."""
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
    assert pipeline.run_pipeline("chain.loop", text=_chain(4000)).exit_code == pipeline.EXIT_OK
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
    assert pipeline.run_pipeline("chain.loop", text=_chain(4000)).exit_code == pipeline.EXIT_OK
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


def test_runs_leave_no_cyclic_garbage(collector):
    """Everything a run builds is freed by reference counting alone: with
    the collector off, a collection after each run finds nothing
    unreachable.  Runs of the corpus, of the machine's fixtures and of
    generated programs, many of whose loops are never entered (a loop
    that held a function holding its own fn would keep the fn and its
    body in a cycle).  mul_nested and the three-deep nest run their
    outer loops in kernels that take the nested loops as links of their
    chains, whose loops hold what they keep of the inner ones."""
    runs = [(path, None) for path in sorted(glob.glob(os.path.join(CORPUS, "*.loop")))]
    runs += [(path, None) for path in sorted(glob.glob(os.path.join(CORPUS, "negative", "*.loop")))]
    runs += [
        (os.path.join(CORPUS, "addition_is.loop"), (30, 20)),
        (os.path.join(FIXTURES, "mul_nested.loop"), (5, 6)),
        (os.path.join(FIXTURES, "mul_nested.loop"), (40, 30)),
        (os.path.join(FIXTURES, "jump_loop.loop"), (9,)),
    ]
    deep = (
        "discipline IS;\n"
        "cst p = proc [x : nat, y : nat] out [z : nat, w : nat] {\n"
        "  z := 0; w := y;\n"
        "  for i := 0 until x { for j := 0 until y { for k := 0 until x { inc(z); dec(w); }[z : nat, w : nat];"
        " }[z : nat, w : nat]; inc(w); }[z : nat, w : nat];\n"
        "};\n"
        "main { p(20, 9; z, w); } out [z : nat, w : nat]\n"
    )
    gc.collect()
    gc.disable()
    gc.freeze()  # so that each collection walks only what the runs made
    try:
        for path, args in runs:
            pipeline.run_pipeline(path, args=args)
            assert gc.collect() == 0, path
        report = pipeline.run_pipeline("deep_nest.loop", text=deep)
        assert report.phases[-1]["payload"]["value"] == "<3600, 1>", report.phases
        assert gc.collect() == 0
        for index in range(300):
            rng = random.Random(f"901:{index}")
            sf, entry, arity = gen.gen_is_program(rng, 30)
            assert fuzz.run_one(sf, entry, gen.gen_inputs(rng, arity)) is None
            assert gc.collect() == 0, index
    finally:
        gc.unfreeze()
