"""The command-line driver: exit codes, JSON reports, translate output."""

import glob
import json
import os
import subprocess
import sys

import pytest

from loopcert import cli, pipeline
from loopcert.parser import parse
from loopcert.printer import show_file

CORPUS = os.path.normpath(os.path.join(os.path.dirname(__file__), "..", "corpus"))


def run_cli(args, **kw):
    return cli.main(args)


def test_check_ok(capsys):
    assert run_cli(["check", os.path.join(CORPUS, "figure1.loop")]) == 0
    out = capsys.readouterr().out
    assert "check-source" in out and "p_add" in out


def test_check_source_error(capsys):
    path = os.path.join(CORPUS, "negative", "neg_bad_axiom.loop")
    assert run_cli(["check", path]) == 2
    assert "[T_AX]" in capsys.readouterr().out


def test_parse_error_exit(capsys):
    path = os.path.join(CORPUS, "negative", "neg_meta_subst.loop")
    assert run_cli(["check", path]) == 1


def test_pipeline_json_deterministic(capsys):
    path = os.path.join(CORPUS, "figure1.loop")
    assert run_cli(["pipeline", path, "--json"]) == 0
    first = json.loads(capsys.readouterr().out)
    assert run_cli(["pipeline", path, "--json"]) == 0
    second = json.loads(capsys.readouterr().out)

    def strip(report):
        for phase in report["phases"]:
            phase.pop("elapsed_s")
        return report

    assert strip(first) == strip(second)
    names = [p["name"] for p in first["phases"]]
    assert names == ["parse", "check-source", "translate", "check-target", "evaluate"]


def test_pipeline_args_override_eval(capsys):
    path = os.path.join(CORPUS, "figure1.loop")
    assert run_cli(["pipeline", path, "--args", "4,1", "--json"]) == 0
    report = json.loads(capsys.readouterr().out)
    evaluate = [p for p in report["phases"] if p["name"] == "evaluate"][0]
    assert evaluate["payload"]["value"] == "<5>"


def test_translate_writes_recheckable_file(tmp_path, capsys):
    src = os.path.join(CORPUS, "figure1.loop")
    out = str(tmp_path / "figure1.t")
    assert run_cli(["translate", src, "-o", out]) == 0
    capsys.readouterr()
    assert run_cli(["check", out]) == 0
    text = capsys.readouterr().out
    assert "FD" in text


def test_translate_uses_the_system_override(tmp_path, capsys):
    src = tmp_path / "top.loop"
    src.write_text("discipline ID;\nmain {\n  z := *;\n} out [z : top]\n", encoding="utf-8")
    out = tmp_path / "top.t"
    assert run_cli(["translate", "--system", "IS", str(src), "-o", str(out)]) == 0
    assert out.read_text(encoding="utf-8").startswith("discipline FS;")
    capsys.readouterr()
    assert run_cli(["check", str(out)]) == 0


@pytest.mark.parametrize(
    "name", sorted(os.path.basename(p) for p in glob.glob(os.path.join(CORPUS, "*.loop")))
)
def test_translate_writes_the_pipeline_image(name, tmp_path, capsys):
    src = os.path.join(CORPUS, name)
    out = tmp_path / (os.path.splitext(name)[0] + ".t")
    assert run_cli(["translate", src, "-o", str(out)]) == 0
    with open(src, "r", encoding="utf-8") as handle:
        want = show_file(pipeline.translate_file(parse(handle.read())))
    assert out.read_text(encoding="utf-8") == want
    capsys.readouterr()
    assert run_cli(["check", str(out)]) == 0


def test_translate_refuses_a_functional_file(tmp_path, capsys):
    src = tmp_path / "f.t"
    src.write_text("discipline FS;\ncst a = 0;\n", encoding="utf-8")
    out = tmp_path / "g.t"
    assert run_cli(["translate", str(src), "-o", str(out), "--json"]) == pipeline.EXIT_SOURCE
    report = json.loads(capsys.readouterr().out)
    assert [d["rule"] for d in report["diagnostics"]] == ["TRANSLATE"]
    assert not out.exists()


def _too_deep(*_):
    raise RecursionError("maximum recursion depth exceeded")


def test_translate_reports_an_image_too_deep_to_print(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(cli, "show_file", _too_deep)
    out = tmp_path / "figure1.t"
    argv = ["translate", os.path.join(CORPUS, "figure1.loop"), "-o", str(out), "--json"]
    assert run_cli(argv) == pipeline.EXIT_TARGET
    report = json.loads(capsys.readouterr().out)
    assert [d["rule"] for d in report["diagnostics"]] == ["LIMIT"]
    assert report["diagnostics"][0]["message"] == (
        "the input nests too deeply for write: the host recursion limit was reached"
    )
    writes = [p for p in report["phases"] if p["name"] == "write"]
    assert [(p["ok"], p["payload"]) for p in writes] == [(False, {})]
    assert report["exit_code"] == pipeline.EXIT_TARGET
    assert not out.exists()


def test_fmt_reports_an_input_too_deep_to_print(capsys, monkeypatch):
    monkeypatch.setattr(cli, "show_file", _too_deep)
    assert run_cli(["fmt", os.path.join(CORPUS, "figure1.loop")]) == pipeline.EXIT_PARSE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "[LIMIT] the input nests too deeply for fmt: the host recursion limit was reached\n"


def _cli_process(argv, cwd):
    """Run the CLI in a process of its own, in directory cwd."""
    src = os.path.join(os.path.dirname(CORPUS), "src")
    env = {**os.environ, "PYTHONPATH": src + os.pathsep + os.environ.get("PYTHONPATH", "")}
    return subprocess.run(
        [sys.executable, "-m", "loopcert.cli", *argv], cwd=cwd, env=env, capture_output=True, text=True
    )


@pytest.mark.parametrize(
    "argv, phase, code",
    [
        (["check", "nothere.loop"], "parse", pipeline.EXIT_PARSE),
        (["pipeline", "nothere.loop"], "parse", pipeline.EXIT_PARSE),
        (["translate", os.path.join(CORPUS, "figure1.loop"), "-o", os.path.join("missing", "dir", "f.t")],
         "write", pipeline.EXIT_TARGET),
    ],
)
def test_a_file_that_cannot_be_read_or_written_is_reported(tmp_path, argv, phase, code):
    """A missing input, or an output in a missing directory, ends in one
    IO diagnostic and the exit code of the phase it stopped: no traceback."""
    proc = _cli_process(argv + ["--json"], tmp_path)
    assert "Traceback" not in proc.stderr
    assert proc.returncode == code
    report = json.loads(proc.stdout)
    assert [(d["rule"], d["span"]) for d in report["diagnostics"]] == [("IO", None)]
    assert "No such file or directory" in report["diagnostics"][0]["message"]
    assert [p["name"] for p in report["phases"] if not p["ok"]] == [phase]
    assert report["exit_code"] == code
    assert not (tmp_path / "missing").exists()


def test_fmt_reports_a_file_that_cannot_be_read(tmp_path):
    proc = _cli_process(["fmt", "nothere.loop"], tmp_path)
    assert proc.returncode == pipeline.EXIT_PARSE
    assert proc.stdout == ""
    assert proc.stderr == "[IO] fmt could not access 'nothere.loop': No such file or directory\n"


# byte 0xff, which is no part of UTF-8, at line 3, column 10
NOT_UTF8 = b"discipline IS;\nmain {\r\n  z := 0;\xff\n} out [z : nat]\n"
NOT_UTF8_MESSAGE = "parse error at 3:10: byte 0xff is not UTF-8 (invalid start byte)"


@pytest.mark.parametrize("command", ["check", "pipeline"])
def test_an_input_that_is_not_utf8_is_a_parse_error(tmp_path, command):
    (tmp_path / "bad.loop").write_bytes(NOT_UTF8)
    proc = _cli_process([command, "bad.loop", "--json"], tmp_path)
    assert "Traceback" not in proc.stderr
    assert proc.returncode == pipeline.EXIT_PARSE
    report = json.loads(proc.stdout)
    assert report["diagnostics"] == [
        {"severity": "error", "rule": "PARSE", "span": [3, 10], "message": NOT_UTF8_MESSAGE}
    ]
    assert [(p["name"], p["ok"]) for p in report["phases"]] == [("parse", False)]


def test_fmt_reports_an_input_that_is_not_utf8(tmp_path):
    (tmp_path / "bad.loop").write_bytes(NOT_UTF8)
    proc = _cli_process(["fmt", "bad.loop"], tmp_path)
    assert proc.returncode == pipeline.EXIT_PARSE
    assert proc.stdout == ""
    assert proc.stderr == f"[PARSE] {NOT_UTF8_MESSAGE}\n"


# a UTF-8 byte-order mark, which some editors write at the start of a file
BOM = b"\xef\xbb\xbf"
PLAIN = b"discipline IS; main { z := 0; } out [z : nat]\n"


def _without_times(report):
    for phase in report["phases"]:
        del phase["elapsed_s"]
    return report


@pytest.mark.parametrize("command", ["check", "pipeline", "fmt"])
def test_a_leading_byte_order_mark_is_read_as_nothing(tmp_path, command, capsys):
    (tmp_path / "bom.loop").write_bytes(BOM + PLAIN)
    (tmp_path / "plain.loop").write_bytes(PLAIN)
    outputs = []
    for name in ("bom.loop", "plain.loop"):
        assert run_cli([command, str(tmp_path / name)] + ([] if command == "fmt" else ["--json"])) == 0
        out = capsys.readouterr().out
        outputs.append(out if command == "fmt" else _without_times(json.loads(out)) | {"file": None})
    assert outputs[0] == outputs[1]
    if command == "pipeline":
        assert outputs[0]["phases"][-1]["payload"]["store"] == {"z": "0"}


def test_a_byte_that_is_not_utf8_after_a_byte_order_mark_keeps_its_span(tmp_path):
    (tmp_path / "bad.loop").write_bytes(BOM + NOT_UTF8)
    proc = _cli_process(["check", "bad.loop", "--json"], tmp_path)
    assert proc.returncode == pipeline.EXIT_PARSE
    assert json.loads(proc.stdout)["diagnostics"] == [
        {"severity": "error", "rule": "PARSE", "span": [3, 10], "message": NOT_UTF8_MESSAGE}
    ]


def test_the_input_is_read_with_every_line_end_as_a_newline(tmp_path):
    # a lone "\r" and "\r\n" end a line, as in text mode
    path = tmp_path / "crlf.loop"
    path.write_bytes(b"discipline IS;\r\nmain {\r  z := 0;\r\n} out [z : nat]\n")
    assert pipeline.read_source(str(path)) == "discipline IS;\nmain {\n  z := 0;\n} out [z : nat]\n"


def test_pipeline_evaluates_a_translated_main(tmp_path, capsys):
    out = tmp_path / "figure2.t"
    assert run_cli(["translate", os.path.join(CORPUS, "figure2.loop"), "-o", str(out)]) == 0
    capsys.readouterr()
    assert run_cli(["pipeline", str(out), "--json"]) == 0
    report = json.loads(capsys.readouterr().out)
    evaluate = [p for p in report["phases"] if p["name"] == "evaluate"][0]
    assert evaluate["payload"] == {"value": "<5>"}


def test_fmt_round_trip(tmp_path, capsys):
    src = os.path.join(CORPUS, "witness_call.loop")
    assert run_cli(["fmt", src]) == 0
    formatted = capsys.readouterr().out
    path = tmp_path / "w.loop"
    path.write_text(formatted, encoding="utf-8")
    assert run_cli(["check", str(path)]) == 0


def test_pipeline_all_uses_corpus_env(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("LOOPCERT_CORPUS", CORPUS)
    assert run_cli(["pipeline", "--all"]) == 0
    out = capsys.readouterr().out
    assert "figure1.loop" in out and "figure2.loop" in out


def test_pipeline_all_refuses_files_too(tmp_path, capsys, monkeypatch):
    """`--all` and a file list are alternatives: a file given with --all
    would not be run."""
    monkeypatch.setenv("LOOPCERT_CORPUS", CORPUS)
    bad = tmp_path / "bad.loop"
    bad.write_text("discipline IS;\nmain { z := ; } out [z : nat]\n", encoding="utf-8")
    with pytest.raises(SystemExit) as err:
        run_cli(["pipeline", "--all", str(bad)])
    assert err.value.code == "--all runs every corpus file; give it no files"
    assert capsys.readouterr().out == ""


def test_translate_refuses_one_output_for_several_inputs(tmp_path, capsys):
    out = tmp_path / "out.t"
    inputs = [os.path.join(CORPUS, "addition_is.loop"), os.path.join(CORPUS, "figure1.loop")]
    argv = ["translate", *inputs, "-o", str(out)]
    with pytest.raises(SystemExit) as err:
        run_cli(argv)
    assert err.value.code == "-o names one output file, but 2 input files were given"
    assert capsys.readouterr().out == "" and not out.exists()
    process = _cli_process(argv, tmp_path)
    assert process.returncode == 1 and process.stdout == ""
    assert "-o names one output file" in process.stderr


def test_a_fresh_parameter_of_the_translation_captures_no_constant(tmp_path, capsys):
    """A constant named like a parameter the translation makes up (`_v1`)
    keeps its meaning in the image."""
    path = tmp_path / "capture_v.loop"
    path.write_text(
        "discipline IS;\n\ncst _v1 = 5;\ncst p = proc [x : nat] out [z : nat] { z := _v1; };\n\n"
        "main {\n  p(3; z);\n} out [z : nat]\n",
        encoding="utf-8",
    )
    assert run_cli(["pipeline", str(path)]) == 0
    out = capsys.readouterr().out
    assert "store: z = 5" in out and "p : <nat> -> <nat>" in out


def test_a_tuple_pattern_parameter_captures_no_name(tmp_path, capsys):
    """The parameter that `fn (x : a) => t` is read with is named like no
    identifier of the input, so an unbound `_w1` in t stays unbound."""
    path = tmp_path / "capture_w.loop"
    path.write_text("discipline FS;\n\ncst f = fn (x : nat) => _w1;\n", encoding="utf-8")
    assert run_cli(["check", str(path)]) == pipeline.EXIT_SOURCE
    assert "[TC_VAR] unbound variable '_w1'" in capsys.readouterr().out


def test_fuzz_exit_zero(capsys):
    assert run_cli(["fuzz", "--count", "5", "--seed", "3"]) == 0
    assert "5/5 passed" in capsys.readouterr().out


@pytest.mark.parametrize("args", ["-3,2", "3,x", "3,+2", "1,,2", "3,2,", ",3,2"])
def test_eval_rejects_args_that_are_not_naturals(args, capsys):
    with pytest.raises(SystemExit) as err:
        run_cli(["eval", os.path.join(CORPUS, "addition_is.loop"), f"--args={args}"])
    assert "naturals" in str(err.value.code)


def test_empty_args_apply_a_zero_parameter_entry(tmp_path, capsys):
    path = tmp_path / "zero.loop"
    path.write_text("discipline IS;\ncst one = proc [] out [z : nat] {\n  z := 1;\n};\n", encoding="utf-8")
    assert run_cli(["pipeline", str(path), "--args", ""]) == 0
    assert "value = <1>" in capsys.readouterr().out


@pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"), reason="int() converts any length")
def test_eval_rejects_a_natural_too_long_to_convert(capsys):
    digits = "9" * 5000  # over the default limit of 4,300
    with pytest.raises(SystemExit) as err:
        run_cli(["pipeline", os.path.join(CORPUS, "addition_is.loop"), f"--args=1,{digits}"])
    assert err.value.code == f"--args: a natural of {len(digits)} digits is too long"
    assert capsys.readouterr().out == ""


# the most digits that int() and str() convert; 0 for no limit
INT_DIGITS = sys.get_int_max_str_digits() if hasattr(sys, "get_int_max_str_digits") else 0


@pytest.mark.skipif(not INT_DIGITS, reason="str() converts any length")
@pytest.mark.parametrize("flags", [[], ["--json"]], ids=["text", "json"])
def test_a_value_too_long_to_print_is_a_limit(flags, capsys):
    # 1 plus the longest natural that --args converts has one digit more
    limit = INT_DIGITS
    path = os.path.join(CORPUS, "addition_is.loop")
    assert run_cli(["pipeline", path, f"--args=1,{'9' * limit}", *flags]) == pipeline.EXIT_RUNTIME
    out = capsys.readouterr().out
    message = f"evaluate made a natural of more than {limit} digits, too long to print"
    if flags:
        report = json.loads(out)
        assert [(d["rule"], d["message"]) for d in report["diagnostics"]] == [("LIMIT", message)]
        assert [(p["name"], p["ok"]) for p in report["phases"]][-1] == ("evaluate", False)
    else:
        assert f"error: [LIMIT] {message}" in out


@pytest.mark.parametrize(
    "argv, message",
    [
        (["pipeline", os.path.join(CORPUS, "addition_is.loop"), "--fuel=-1"], "--fuel expects a natural, got -1"),
        (["eval", os.path.join(CORPUS, "addition_is.loop"), "--fuel=-5"], "--fuel expects a natural, got -5"),
        (["fuzz", "--count=-2", "--json"], "--count expects a natural, got -2"),
        (["fuzz", "--count=1", "--size-bound=-1"], "--size-bound expects a natural, got -1"),
    ],
)
def test_negative_numbers_are_refused(argv, message, capsys):
    with pytest.raises(SystemExit) as err:
        run_cli(argv)
    assert err.value.code == message
    assert capsys.readouterr().out == ""


def test_zero_fuel_is_a_natural(capsys):
    assert run_cli(["pipeline", os.path.join(CORPUS, "addition_is.loop"), "--fuel=0", "--json"]) == 4
    report = json.loads(capsys.readouterr().out)
    assert "step budget of 0 exhausted" in json.dumps(report["diagnostics"])


def test_the_pinned_step_count_is_the_least_fuel_that_runs(capsys):
    # 93 is addition_is's count in golden/steps.json
    path = os.path.join(CORPUS, "addition_is.loop")
    assert run_cli(["pipeline", path, "--fuel=93", "--json"]) == 0
    capsys.readouterr()
    assert run_cli(["pipeline", path, "--fuel=92", "--json"]) == 4
    report = json.loads(capsys.readouterr().out)
    assert [(d["rule"], d["reason"], d["message"]) for d in report["diagnostics"]] == [
        ("EVAL", "FuelExhausted", "FuelExhausted: step budget of 92 exhausted")
    ]


def test_eval_runtime_value(capsys):
    assert run_cli(["eval", os.path.join(CORPUS, "figure2.loop"), "--json"]) == 0
    report = json.loads(capsys.readouterr().out)
    evaluate = [p for p in report["phases"] if p["name"] == "evaluate"][0]
    assert evaluate["payload"]["store"] == {"z": "5"}


def test_eval_is_an_alias_of_pipeline(capsys):
    def report(command):
        assert run_cli([command, os.path.join(CORPUS, "addition_is.loop"), "--args", "3,2", "--json"]) == 0
        data = json.loads(capsys.readouterr().out)
        for phase in data["phases"]:
            phase["elapsed_s"] = 0
        return data

    piped = report("pipeline")
    assert piped["phases"][-1]["payload"]["value"] == "<5>"
    assert report("eval") == piped


def test_console_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "loopcert.cli", "check", os.path.join(CORPUS, "figure1.loop")],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0


def test_no_pred_rule_applies_to_its_own_run_only(capsys):
    path = os.path.join(CORPUS, "dec_pred.loop")
    assert run_cli(["pipeline", "--no-pred-rule", "--json", path]) == pipeline.EXIT_TARGET
    report = json.loads(capsys.readouterr().out)
    assert [d["rule"] for d in report["diagnostics"]] == ["TC_PRED_D"]
    assert pipeline.run_pipeline(path).exit_code == pipeline.EXIT_OK
    assert pipeline.run_pipeline(path, allow_pred=False).exit_code == pipeline.EXIT_TARGET
    assert run_cli(["pipeline", path]) == pipeline.EXIT_OK


@pytest.mark.parametrize(
    "name, args, wanted",
    [
        ("addition_is.loop", (1,), "takes 2"),
        ("addition_is.loop", (1, 2, 3), "takes 2"),
        ("figure1.loop", (4,), "takes 2"),
        ("figure2.loop", (1,), "not a procedure over naturals"),
    ],
)
def test_args_are_checked_against_the_entry_type(name, args, wanted, monkeypatch):
    def refuse(*_):
        raise AssertionError("the machine was started")

    monkeypatch.setattr(pipeline.runtime, "erase", refuse)
    monkeypatch.setattr(pipeline.runtime, "evaluate", refuse)
    report = pipeline.run_pipeline(os.path.join(CORPUS, name), args=args)
    assert report.exit_code == pipeline.EXIT_RUNTIME
    assert report.phases[-1]["name"] == "evaluate" and not report.phases[-1]["ok"]
    [diag] = [d for d in report.diagnostics if d["severity"] == "error"]
    assert diag["rule"] == "EVAL" and wanted in diag["message"]
    assert f"--args gives {len(args)} argument" in diag["message"]


def test_args_need_an_entry():
    text = "discipline IS;\nmain {\n  z := 1;\n} out [z : nat]\n"
    report = pipeline.run_pipeline("no_cst.loop", text=text, args=(1,))
    assert report.exit_code == pipeline.EXIT_RUNTIME
    [diag] = report.diagnostics
    assert diag["rule"] == "EVAL" and "no constant" in diag["message"]
