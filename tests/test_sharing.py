"""Shared nodes and the checkers' memo tables.

The parser builds one object for each distinct individual, type atom and
family of a file, and `dependent.CheckCtx` memoises the coercion and axiom
rules' kernel calls on them by identity.  Past the parser, translate
shares its variables and steps, erasure its variables, zero and steps,
and the checkers the types of their succ and pred steps.  None of these
may change what a file means or what a report says.
"""

import cProfile
import dataclasses
import glob
import os

import pytest

from loopcert import dependent, pipeline, runtime
from loopcert import syntax as S
from loopcert.errors import ParseError
from loopcert.parser import parse
from loopcert.printer import show_file

from test_growth import _BENCH

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
CORPUS = os.path.join(ROOT, "corpus")


def _nodes(value, out):
    """Every node in value (nodes or tuples), in pre-order."""
    if type(value) is tuple:
        for item in value:
            _nodes(item, out)
    elif isinstance(value, S.Node):
        out.append(value)
        for name in S.node_fields(value):
            _nodes(getattr(value, name), out)
    return out


def test_each_individual_type_atom_and_family_is_one_object():
    m = S.IBound(0)  # under the procedure's `forall m.`, and i under `{i/…}`
    nodes = _nodes(parse(_BENCH.id_chain(50)), [])
    for wanted, occurrences in (
        (S.IAdd(S.IZero(), m), 20),  # add(0, m), twice in each of the 10 groups
        (S.FNat(m), 32),  # nat(m) of the header and nat(i) of the 30 families
        (S.Fam("i", S.FNat(m)), 30),
    ):
        found = [node for node in nodes if type(node) is type(wanted) and node == wanted]
        assert len(found) == occurrences, (wanted, len(found))
        assert len({id(node) for node in found}) == 1, wanted


def _corpus_files():
    return sorted(glob.glob(os.path.join(CORPUS, "*.loop")) + glob.glob(os.path.join(CORPUS, "negative", "*.loop")))


def test_the_printed_file_parses_back_to_the_file():
    parsed = 0
    for path in _corpus_files():
        with open(path, "r", encoding="utf-8") as handle:
            text = handle.read()
        try:
            sf = parse(text)
        except ParseError:  # neg_meta_subst.loop is a parse error
            continue
        again = parse(show_file(sf))
        # the printer writes no comments, so the notes they carry are gone
        assert again == S.SourceFile(sf.discipline, sf.csts, sf.main, (), sf.warnings), path
        parsed += 1
    assert parsed == 26


def _nested(q_inc="", p_inc=""):
    """Procedure q inside procedure p: each opens `forall m.` over the same
    header and coercions, so each reads the same shared add(0, m) and m."""
    group = "z := z :> {i/nat(i)}[add(0, m) = m];"
    back = "z := z :> {i/nat(i)}[m = add(0, m)];"
    header = "proc forall m. [y : nat(m)] out [z : nat(m)]"
    return (
        f"discipline ID;\n\ncst p = {header} {{\n  z := y;\n  {group}\n"
        f"  cst q = {header} {{\n    z := y;\n    {group}\n    {q_inc}{back}\n  }};\n"
        f"  {p_inc}{back}\n}};\n\nmain {{\n  p{{2}}(2; z);\n}} out [z : nat(2)]\n"
    )


def test_each_procedure_reads_its_own_eigenvariable():
    """p opens m!1 and q, inside it, m!2.  A read memo kept across the open
    of q reads q's add(0, m) as p's, and one kept across its close reads
    p's as q's.  Checked against these mutants of `CheckCtx`, each of which
    fails this test: `close` that does not empty `reads`, and `open` that
    does not empty it."""
    report = pipeline.run_pipeline("nested.loop", text=_nested())
    assert report.exit_code == pipeline.EXIT_OK, report.diagnostics
    for text, eigen in ((_nested(q_inc="inc(z); "), "m!2"), (_nested(p_inc="inc(z); "), "m!1")):
        report = pipeline.run_pipeline("nested.loop", text=text)
        assert report.exit_code == pipeline.EXIT_SOURCE
        [error] = [d["message"] for d in report.diagnostics if d["severity"] == "error"]
        assert error == f"subject has type nat(succ(add(0, {eigen}))), expected nat(add(0, {eigen}))"


@pytest.mark.parametrize("path", sorted(glob.glob(os.path.join(CORPUS, "*.loop"))), ids=os.path.basename)
def test_accepted_checks_print_nothing(path, monkeypatch):
    """dependent builds a message only where it raises one."""
    shown = []
    monkeypatch.setattr(dependent, "show", lambda value: shown.append(value) or "")
    with open(path, "r", encoding="utf-8") as handle:
        sf = parse(handle.read())
    checked = pipeline.check_source(sf)
    pipeline.check_target(sf, checked, pipeline.translate_file(sf))
    assert shown == []


def _erased_nodes(term):
    """Every node of an erased term, once for each place that holds it."""
    out, stack = [], [term]
    while stack:
        node = stack.pop()
        out.append(node)
        for f in dataclasses.fields(node):
            child = getattr(node, f.name)
            stack.extend([c for c in (child if type(child) is tuple else (child,)) if isinstance(c, runtime.RTerm)])
    return out


# Two equal rec steps, each fn acc with a loop of its own
TWIN_LOOPS = ("discipline FS;\ncst c = fn n : nat => <"
              + ", ".join(["rec(n, <0>, fn i : nat => fn a : <nat> => let <z> = a in let z = succ(z) in <z>)"] * 2)
              + ">;\n")


# An IS chain that repeats two numerals
NUMERALS = ("discipline IS;\nmain {\n" + "  z := 2;\n  z := 3;\n  inc(z);\n" * 10 + "} out [z : nat]\n")


@pytest.mark.parametrize("text", [_BENCH.is_chain(50), _BENCH.id_chain(50), NUMERALS],
                         ids=["is_chain", "id_chain", "numerals"])
def test_an_image_holds_one_variable_one_step_and_one_numeral_each(text):
    """One `TVar` for each name, one `TSucc` or `TPred` of it for each
    name (the images of `inc` and `dec`) and one chain for each numeral."""
    nodes = _nodes(pipeline.translate_file(parse(text)), [])
    variables = [node for node in nodes if type(node) is S.TVar]
    assert len({id(node) for node in variables}) == len({node.name for node in variables}) < len(variables) / 2
    for cls in (S.TSucc, S.TPred):
        steps = [node for node in nodes if type(node) is cls and type(node.arg) is S.TVar]
        assert len({id(node) for node in steps}) == len({node.arg.name for node in steps})
    if text is NUMERALS:  # the chains of 2 and 3, and succ(z)
        assert len({id(node) for node in nodes if type(node) is S.TSucc}) == 2 + 3 + 1


def _resolve(term, scope):
    """Each variable of an erased term names the binder its index reaches;
    scope holds the names bound around term, the innermost last."""
    cls = type(term)
    if cls is runtime.RVar:
        assert term.index is not None and scope[-1 - term.index] == term.name, (term, scope[-5:])
        return
    for f in dataclasses.fields(term):
        child = getattr(term, f.name)
        inner = scope
        if f.name == "body":
            if cls is runtime.RLet or cls is runtime.RFn:
                inner = scope + [term.name if cls is runtime.RLet else term.param]
            elif cls is runtime.RLetMatch:
                inner = scope + list(term.names)
        for c in child if type(child) is tuple else (child,):
            if isinstance(c, runtime.RTerm):
                _resolve(c, inner)


def test_an_erasure_holds_one_variable_per_name_and_index_and_shares_no_fn():
    """One `RVar` for each (name, index), each of which reaches a binder
    of its name, and each fn where it stands: the fn acc of each rec step
    carries its own loop.  An erasure table that keys a variable by its
    name alone fails this test."""
    reads = "discipline FS;\ncst c = let x = 0 in let y = x in let w = x in <x, y, w>;\n"
    for text in (_BENCH.is_chain(50), _BENCH.id_chain(50), TWIN_LOOPS, reads):
        sf = parse(text)
        if sf.discipline == "FS":
            erased = pipeline.erase_image(sf, "c")
        else:
            erased = pipeline.erase_image(pipeline.translate_file(sf))
        _resolve(erased, [])
        nodes = _erased_nodes(erased)
        variables = {}
        for node in nodes:
            if type(node) is runtime.RVar:
                variables.setdefault((node.name, node.index), set()).add(id(node))
        assert all(len(ids) == 1 for ids in variables.values())
        if text is not reads:  # each variable of reads stands once
            assert len(variables) < sum(type(node) is runtime.RVar for node in nodes)
        if text is TWIN_LOOPS:
            fns = [node for node in nodes if type(node) is runtime.RFn]
            assert len({id(fn) for fn in fns}) == len(fns) > len(set(fns))  # equal fns, none shared
            assert sum(fn.loop is not None for fn in fns) == 2


def test_a_check_builds_one_type_per_step():
    """check-source (T_INC, T_DEC) and check-target (TC_SUCC, TC_PRED_D)
    build one nat(succ(i)) and one nat(pred(i)) for each index i they
    step, however many inc/dec pairs the ID chain repeats: the count of
    FNat nodes they build does not grow with the chain."""
    code = S.FNat.__init__.__code__

    def built(n):
        sf = parse(_BENCH.id_chain(n))
        image = pipeline.translate_file(sf)
        profiler = cProfile.Profile()
        profiler.enable()
        try:
            pipeline.check_target(sf, pipeline.check_source(sf), image)
        finally:
            profiler.disable()
        return sum(entry.callcount for entry in profiler.getstats() if entry.code is code)

    assert built(100) == built(200)
