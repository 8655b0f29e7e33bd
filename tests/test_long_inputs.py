"""Program length costs no host stack, and nesting depth that does ends
in a report.

Sequences are flat and every phase walks them, and the let chains of
their images, with loops.  These tests run in-process under Python's
default recursion limit of 1,000 frames, whatever an earlier test (the
CLI raises the limit) left behind.
"""

import sys

import pytest

from loopcert import cli, pipeline
from loopcert import syntax as S
from loopcert.parser import parse
from loopcert.printer import show, show_file, show_term

DEFAULT_LIMIT = 1000


@pytest.fixture(autouse=True)
def default_recursion_limit():
    old = sys.getrecursionlimit()
    sys.setrecursionlimit(DEFAULT_LIMIT)
    try:
        yield
    finally:
        sys.setrecursionlimit(old)


def _store(report):
    for phase in report.phases:
        if phase["name"] == "evaluate":
            return phase["payload"].get("store")
    return None


def test_a_long_is_chain():
    n = 100_000
    text = (
        "discipline IS;\n\n"
        "cst chain = proc [x : nat] out [z : nat] {\n  z := x;\n" + "  inc(z);\n" * n + "};\n\n"
        "main {\n  chain(0; z);\n} out [z : nat]\n"
    )
    report = pipeline.run_pipeline("is_chain.loop", text=text)
    assert report.exit_code == pipeline.EXIT_OK, report.diagnostics
    assert _store(report) == {"z": str(n)}


def test_a_long_id_coercion_chain():
    """z keeps its type nat(m) through coercions and an inc/dec pair."""
    group = (
        "  z := z :> {i/nat(i)}[add(0, m) = m];\n"
        "  z := z :> {i/nat(i)}[m = add(0, m)];\n"
        "  inc(z);\n"
        "  dec(z);\n"
        "  z := z :> {i/nat(i)}[m = pred(succ(m))];\n"
    )
    text = (
        "discipline ID;\n\n"
        "cst chain = proc forall m. [y : nat(m)] out [z : nat(m)] {\n  z := y;\n"
        + group * (20_000 // 5)
        + "};\n\nmain {\n  chain{2}(2; z);\n} out [z : nat(succ(succ(0)))]\n"
    )
    report = pipeline.run_pipeline("id_chain.loop", text=text)
    assert report.exit_code == pipeline.EXIT_OK, report.diagnostics
    assert _store(report) == {"z": "2"}


def unpack_chain(n):
    """An ID procedure of n blocks, each closing an existential that the
    next '?w<k>.' opens; every unpack has its own name."""
    groups = "".join(
        f"  {{ [w{k - 1} in exists u. [z : nat(u)]] }} exists u. [z : nat(u)];\n  ?w{k}.\n"
        for k in range(1, n + 1)
    )
    return (
        "discipline ID;\n\n"
        "cst chain = proc forall w0. [x : nat(w0)] out exists v. [z : nat(v)] {\n  z := x;\n"
        + groups
        + f"  [w{n} in exists v. [z : nat(v)]]\n}};\n\n"
        "main {\n  chain{1}(1; z);\n  ?r.\n  [r in exists v. [z : nat(v)]]\n} out exists v. [z : nat(v)]\n"
    )


def test_a_long_unpack_chain():
    """Each '?w<k>.' scopes over the rest of the sequence, and its image's
    '?w<k>.' over the rest of the let chain; opening one is no walk of
    that rest."""
    report = pipeline.run_pipeline("unpack_chain.loop", text=unpack_chain(2000))
    assert report.exit_code == pipeline.EXIT_OK, report.diagnostics
    assert _store(report) == {"z": "1"}


def test_a_for_nest_of_depth_100():
    body = "inc(z);"
    for k in range(100):
        body = f"for i{k} := 0 until 1 {{ {body} }}[z : nat];"
    text = "discipline IS;\nmain {\n  z := 0;\n  " + body + "\n} out [z : nat]\n"
    report = pipeline.run_pipeline("nest.loop", text=text)
    assert report.exit_code == pipeline.EXIT_OK, report.diagnostics
    assert _store(report) == {"z": "1"}


DEEP = 100_000
DEEP_INPUTS = {
    "parentheses": "discipline IS;\nmain {\n  z := " + "(" * DEEP + "0" + ")" * DEEP + ";\n} out [z : nat]\n",
    "numeral": "discipline IS;\nmain {\n  z := " + "succ(" * DEEP + "0" + ")" * DEEP + ";\n} out [z : nat]\n",
}


@pytest.mark.parametrize("name", sorted(DEEP_INPUTS))
def test_deep_nesting_is_a_limit_report(name):
    report = pipeline.run_pipeline(f"{name}.loop", text=DEEP_INPUTS[name])
    assert report.exit_code == pipeline.EXIT_PARSE
    assert [(d["rule"], d["span"]) for d in report.diagnostics] == [("LIMIT", None)]
    assert [(p["name"], p["ok"]) for p in report.phases] == [("parse", False)]


def test_a_limit_in_a_later_phase_has_that_phase_exit_code():
    """A `for` nest that parses and checks but whose image is too deep to
    re-check under 1,000 frames."""
    body = "inc(z);"
    for k in range(200):
        body = f"for i{k} := 0 until 1 {{ {body} }}[z : nat];"
    text = "discipline IS;\nmain {\n  z := 0;\n  " + body + "\n} out [z : nat]\n"
    report = pipeline.run_pipeline("nest.loop", text=text)
    failed = [p["name"] for p in report.phases if not p["ok"]]
    codes = {"parse": 1, "check-source": 2, "translate": 3, "check-target": 3, "evaluate": 4}
    assert len(failed) == 1 and report.exit_code == codes[failed[0]]
    assert [d["rule"] for d in report.diagnostics] == ["LIMIT"]


def test_fmt_reports_a_limit(tmp_path, capsys):
    path = tmp_path / "deep.loop"
    path.write_text(DEEP_INPUTS["parentheses"], encoding="utf-8")
    assert cli.main(["fmt", str(path)]) == pipeline.EXIT_PARSE
    assert "[LIMIT]" in capsys.readouterr().err


def _for_nest(depth, block=False):
    """An IS main whose `inc(z)` is nested depth deep in `for` loops, or
    in blocks, each framing [z : nat]."""
    frame = (("z", S.FNat()),)
    body = S.Seq((S.CInc("z"),))
    for k in range(depth):
        inner = S.CBlock(body, S.QSimple(frame)) if block else S.CFor(f"i{k}", None, S.ENum(1), body, frame)
        body = S.Seq((inner,))
    main = S.MainI(S.Seq((S.CAssign("z", S.ENum(0)),) + body.items), S.QSimple(frame))
    return S.SourceFile("IS", (), main)


@pytest.mark.parametrize("block", [False, True], ids=["for", "block"])
def test_check_source_reaches_the_depth_it_reached_before(block):
    """Under 1,000 frames and pytest's own, IS check-source passed a `for`
    nest and a block nest 476 deep (495 from a bare script); this
    checks 470, to leave room for other Python versions.  Checking
    may take no more host frames per nesting level than that."""
    checked = pipeline.check_source(_for_nest(470, block))
    assert checked.trace.count("T_BLOCK" if block else "T_FOR") == 470


PARSER_DEPTHS = {
    # family: (text at depth d, depth checked)
    "block nest": (lambda d: "discipline IS;\nmain {\n  z := 0;\n" + "{\n" * d + "  inc(z);\n"
                   + "}[z : nat];\n" * d + "} out [z : nat]\n", 470),
    "for nest": (lambda d: "discipline IS;\nmain {\n  z := 0;\n"
                 + "".join(f"for i{k} := 0 until 1 {{\n" for k in range(d)) + "  inc(z);\n"
                 + "}[z : nat];\n" * d + "} out [z : nat]\n", 470),
    "negation chain": (lambda d: "discipline FD;\ncst c = fn x : " + "~" * d + "nat => x;\n", 940),
    "succ index": (lambda d: "discipline FD;\ncst c = fn x : nat(" + "succ(" * d + "0" + ")" * d + ") => x;\n", 940),
    "nested arrows": (lambda d: "discipline FD;\ncst c = fn x : " + "nat -> (" * d + "nat" + ")" * d + " => x;\n", 230),
    "parenthesised expression": (lambda d: "discipline IS;\nmain {\n  z := " + "(" * d + "0" + ")" * d
                                 + ";\n} out [z : nat]\n", 310),
}


@pytest.mark.parametrize("family", sorted(PARSER_DEPTHS))
def test_the_parser_reaches_the_depths_it_reached_before(family):
    """Under 1,000 frames the parser read a block nest 493 deep, a `for`
    nest 494 deep, a `~` chain 987 deep, `succ(` 986 deep in an index,
    arrows nested 246 deep to the right and a parenthesised expression
    329 deep from a bare script (475, 475, 950, 949, 237 and 317 under pytest);
    this checks a little less, to leave room for other Python versions.
    A reader may take no more host frames per nesting level than that, or
    the CLI's deep nests change their exit codes."""
    text, depth = PARSER_DEPTHS[family]
    assert parse(text(depth)).discipline in ("IS", "FD")


def _nested(depth, leaf, wrap):
    node = leaf
    for _ in range(depth):
        node = wrap(node)
    return node


def test_the_printer_reaches_the_depths_it_reached_before():
    """Under 1,000 frames, printing reaches the depths that a printer of
    string-returning functions reached from a bare script: 248 `succ`s,
    497 left-nested arrows, and a `for` nest 495 deep in the source and
    197 deep in the image.  The printer may take no more host frames per
    nesting level than that, or LIMIT could move into an earlier phase."""
    assert show_term(_nested(248, S.TZero(), S.TSucc)).count("succ(") == 248
    arrows = show(_nested(497, S.FNat(), lambda phi: S.FArrow(phi, S.FNat())))
    assert arrows.startswith("(" * 496 + "nat -> nat) -> nat)")
    assert show_file(_for_nest(495)).count("for i") == 495
    assert show_file(pipeline.translate_file(_for_nest(197))).count("rec(") == 197
