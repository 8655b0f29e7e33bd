"""Shared nodes and the checkers' memo tables.

The parser builds one object for each distinct individual, type atom and
family of a file, and `dependent.CheckCtx` memoises the coercion and axiom
rules' kernel calls on them by identity.  Neither may change what a file
means or what a report says.
"""

import glob
import os

import pytest

from loopcert import dependent, pipeline
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
