"""Pipeline reports conform to the shipped JSON schema."""

import json
import os

import jsonschema
import pytest

from loopcert import pipeline

HERE = os.path.dirname(__file__)
CORPUS = os.path.normpath(os.path.join(HERE, "..", "corpus"))
SCHEMA_PATH = os.path.normpath(os.path.join(HERE, "..", "docs", "report.schema.json"))

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
