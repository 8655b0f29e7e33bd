"""Pipeline reports conform to the shipped JSON schema."""

import dataclasses
import json
import os
import sys

import jsonschema
import pytest

from loopcert import pipeline, printer
from loopcert import syntax as S

HERE = os.path.dirname(__file__)
CORPUS = os.path.normpath(os.path.join(HERE, "..", "corpus"))
SCHEMA_PATH = os.path.normpath(os.path.join(HERE, "..", "docs", "report.schema.json"))
GOLDEN = os.path.join(HERE, "golden", "reports.json")

with open(SCHEMA_PATH, "r", encoding="utf-8") as handle:
    SCHEMA = json.load(handle)


@pytest.mark.parametrize(
    "name",
    [
        "figure1.loop",
        "figure2.loop",
        "addition_is.loop",
        os.path.join("negative", "neg_bad_axiom.loop"),
        os.path.join("negative", "neg_meta_subst.loop"),
    ],
)
def test_report_matches_schema(name):
    report = pipeline.run_pipeline(os.path.join(CORPUS, name))
    jsonschema.validate(report.to_dict(), SCHEMA)


def _nodes(value):
    """The nodes of a syntax value, counted by reflection over every field."""
    if isinstance(value, tuple):
        return sum(_nodes(item) for item in value)
    if isinstance(value, S.Node):
        return 1 + sum(_nodes(getattr(value, f.name)) for f in dataclasses.fields(value))
    return 0


@pytest.mark.parametrize("name", sorted(f for f in os.listdir(CORPUS) if f.endswith(".loop")))
def test_translate_counts_the_image_and_prints_no_term(name, monkeypatch):
    """The report prints no image constant: with printer.show_term raising
    wherever it is bound, each positive corpus file's report is still the
    one pinned in golden/reports.json, and the translate payload's `terms`
    holds the node count of each constant of the image."""
    def refuse(term):
        raise AssertionError("show_term ran")

    for module in [m for key, m in sys.modules.items() if key.startswith("loopcert")]:
        for attr, value in list(vars(module).items()):
            if value is printer.show_term:
                monkeypatch.setattr(module, attr, refuse)
    rel = f"corpus/{name}"
    with open(os.path.join(CORPUS, name), "r", encoding="utf-8") as handle:
        report = pipeline.run_pipeline(rel, text=handle.read(), want_trace=True)
    data = report.to_dict()
    for phase in data["phases"]:
        phase["elapsed_s"] = 0
    with open(GOLDEN, "r", encoding="utf-8") as handle:
        assert json.dumps(data, sort_keys=True) == json.load(handle)[rel]
    (terms,) = [phase["payload"]["terms"] for phase in data["phases"] if phase["name"] == "translate"]
    assert terms == {cst: _nodes(term) for cst, term in report.image.csts}


def test_failed_phase_truncates_list():
    report = pipeline.run_pipeline(os.path.join(CORPUS, "negative", "neg_bad_axiom.loop"))
    names = [p["name"] for p in report.phases]
    assert names == ["parse", "check-source"]
    assert report.phases[-1]["ok"] is False


def test_concurrent_checking_is_safe():
    """Distinct files may be checked by concurrent callers; reports match
    the serial runs (modulo elapsed times)."""
    from concurrent.futures import ThreadPoolExecutor

    paths = [
        os.path.join(CORPUS, name)
        for name in ("figure1.loop", "figure2.loop", "addition_is.loop", "exists_pair.loop")
    ] * 4

    def strip(report):
        data = report.to_dict()
        for phase in data["phases"]:
            phase.pop("elapsed_s")
        return data

    serial = [strip(pipeline.run_pipeline(p)) for p in paths]
    with ThreadPoolExecutor(max_workers=8) as pool:
        parallel = list(pool.map(lambda p: strip(pipeline.run_pipeline(p)), paths))
    assert parallel == serial


def test_unit_and_pred_rules_are_reached():
    """No corpus file reaches T_UNIT (a `var` without a value) or TC_PRED
    (the FS image of `dec`)."""
    text = "discipline IS;\nmain {\n  var x;\n  z := 2;\n  dec(z);\n} out [z : nat]\n"
    report = pipeline.run_pipeline("unit_pred.loop", text=text, want_trace=True)
    assert report.exit_code == pipeline.EXIT_OK
    phases = {p["name"]: p["payload"] for p in report.phases}
    assert "T_UNIT" in phases["check-source"]["trace"]
    assert "TC_PRED" in phases["check-target"]["trace"]
    assert phases["evaluate"]["store"] == {"z": "1"}
    assert phases["evaluate"]["interpreter"] == "<1>"


def test_limit_report_matches_schema():
    depth = 100_000
    text = "discipline IS;\nmain {\n  z := " + "(" * depth + "0" + ")" * depth + ";\n} out [z : nat]\n"
    report = pipeline.run_pipeline("deep.loop", text=text).to_dict()
    jsonschema.validate(report, SCHEMA)
    assert [d["rule"] for d in report["diagnostics"]] == ["LIMIT"]
    assert "LIMIT" in SCHEMA["properties"]["diagnostics"]["items"]["properties"]["rule"]["description"]


def test_io_report_matches_schema(tmp_path):
    report = pipeline.run_pipeline(str(tmp_path / "nothere.loop")).to_dict()
    jsonschema.validate(report, SCHEMA)
    assert [d["rule"] for d in report["diagnostics"]] == ["IO"]
    assert report["exit_code"] == pipeline.EXIT_PARSE
    assert "IO" in SCHEMA["properties"]["diagnostics"]["items"]["properties"]["rule"]["description"]


with open(os.path.join(CORPUS, "addition_is.loop"), "r", encoding="utf-8") as handle:
    ADDITION_IS = handle.read()


@pytest.mark.parametrize(
    "system, text, message",
    [
        ("XX", ADDITION_IS, "unknown discipline XX"),
        ("IS", "discipline FS;\nmain = 0;\n", None),
        ("ID", "discipline FD;\nmain = 0;\n", None),
        ("FS", "discipline IS;\nmain {\n  z := 1;\n} out [z : nat]\n", None),
        ("FD", "discipline ID;\nmain {\n  z := 1;\n} out [z : nat]\n", None),
    ],
)
def test_a_system_that_cannot_check_the_file_is_a_failed_check(system, text, message):
    """An unknown discipline, or one of the other language than the file's
    main, fails the check-source phase with rule CHECK and exit 2, instead
    of escaping as an exception."""
    message = message or f"main is written in the other language; it cannot be checked as {system}"
    data = pipeline.run_pipeline("system.loop", text=text, system=system).to_dict()
    jsonschema.validate(data, SCHEMA)
    assert [(p["name"], p["ok"]) for p in data["phases"]] == [("parse", True), ("check-source", False)]
    assert [(d["severity"], d["rule"], d["message"]) for d in data["diagnostics"]] == [("error", "CHECK", message)]
    assert data["discipline"] == ("" if system == "XX" else system)
    assert data["exit_code"] == pipeline.EXIT_SOURCE == 2


def test_a_checker_warning_reaches_the_diagnostics():
    text = "discipline IS;\nmain {\n  cst x = 0;\n  var x := 1;\n  z := x;\n} out [z : nat]\n"
    report = pipeline.run_pipeline("shadow.loop", text=text)
    assert report.exit_code == pipeline.EXIT_OK
    assert report.diagnostics == [{
        "severity": "warning", "rule": "CHECK", "span": None,
        "message": "'x' is bound both as constant and store variable; the store wins",
    }]
    assert report.phases[-1]["payload"]["store"] == {"z": "1"}
