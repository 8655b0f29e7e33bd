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
