"""The differential fuzzer: determinism, the mutation smoke check, and
shrinking."""

import os
import random
import subprocess
import sys
import textwrap

import pytest

from loopcert import fuzz, gen, translate
from loopcert import syntax as S
from loopcert.errors import CheckError, LoopcertError


def test_count_zero_empty_report():
    report = fuzz.fuzz_differential(0, 42)
    assert report["count"] == 0 and report["passed"] == 0 and report["failures"] == []


def test_report_deterministic():
    a = fuzz.fuzz_differential(25, 7)
    b = fuzz.fuzz_differential(25, 7)
    assert a == b


def test_small_run_clean():
    report = fuzz.fuzz_differential(40, 1234, size_bound=25)
    assert report["failures"] == []


# Counts the Python calls of fuzz.run_one on one generated program, on its
# first run in a fresh interpreter and again after 100 other programs.
COLD_AND_WARM = textwrap.dedent("""
    import random, sys
    from loopcert import fuzz, gen

    def program(seed):
        rng = random.Random(seed)
        sf, entry, arity = gen.gen_is_program(rng, 30)
        return sf, entry, gen.gen_inputs(rng, arity)

    def calls(args):
        count = 0
        def profile(frame, event, arg):
            nonlocal count
            count += event == "call"
        sys.setprofile(profile)
        try:
            assert fuzz.run_one(*args) is None
        finally:
            sys.setprofile(None)
        return count

    first = calls(program("3:2"))
    for index in range(100):
        assert fuzz.run_one(*program(f"3:{1000 + index}")) is None
    print(first, calls(program("3:2")))
""")


def test_a_program_makes_as_many_python_calls_on_its_first_run_as_later():
    """No state that a run leaves behind changes the work of a later one,
    as a cache of code made per loop shape would: the program's runs
    enter the machine's loop kernel."""
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = {**os.environ, "PYTHONPATH": src + os.pathsep + os.environ.get("PYTHONPATH", "")}
    proc = subprocess.run([sys.executable, "-c", COLD_AND_WARM], env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    first, later = proc.stdout.split()
    assert first == later


def test_corrupted_inc_translation_is_caught(monkeypatch):
    """Corrupting the inc rule to emit pred must surface within 200 programs,
    and the counterexample shrinks."""
    original = translate._translate_command

    def corrupted(cmd, tail, tctx):
        if isinstance(cmd, S.CInc):
            return S.TLet(cmd.name, S.TPred(S.TVar(cmd.name)), tail)
        return original(cmd, tail, tctx)

    monkeypatch.setattr(translate, "_translate_command", corrupted)
    report = fuzz.fuzz_differential(200, 42, 30)
    assert report["failures"], "the corrupted translation went unnoticed"
    first = report["failures"][0]
    assert first["phase"] == "differential"
    assert len(first["shrunk"]) <= len(first["program"])
    assert "inc(" in first["shrunk"]


def test_run_one_names_the_failing_phase(monkeypatch):
    """Shrinking keeps only check-target and differential failures, so
    run_one must name the pipeline phase that raised."""
    rng = random.Random(5)
    sf, entry, arity = gen.gen_is_program(rng, 20)
    inputs = gen.gen_inputs(rng, arity)
    assert fuzz.run_one(sf, entry, inputs) is None
    unbound = S.SourceFile("IS", ((entry, S.EVar("missing")),), None)
    assert fuzz.run_one(unbound, entry, inputs)["phase"] == "check-source"

    def refuse(expr, tctx):
        raise CheckError("T_TEST", "no translation")

    monkeypatch.setattr(translate, "translate_expr", refuse)
    assert fuzz.run_one(sf, entry, inputs)["phase"] == "translate"
    monkeypatch.setattr(translate, "translate_expr", lambda expr, tctx: S.TZero())
    failure = fuzz.run_one(sf, entry, inputs)
    assert failure["phase"] == "check-target" and "TYPE_PRESERVATION" in failure["message"]


@pytest.mark.parametrize(
    "error, message",
    [
        (LoopcertError("no translation"), "[TRANSLATE] no translation"),
        (RecursionError(), "[LIMIT] the input nests too deeply for translate: the host recursion limit was reached"),
    ],
    ids=["LoopcertError", "RecursionError"],
)
def test_run_one_reports_host_errors_of_a_phase(monkeypatch, error, message):
    """run_one maps what a phase raises as run_pipeline does, so neither
    the fuzz command nor the shrinker sees a traceback."""
    rng = random.Random(5)
    sf, entry, arity = gen.gen_is_program(rng, 20)
    inputs = gen.gen_inputs(rng, arity)

    def refuse(expr, tctx):
        raise error

    monkeypatch.setattr(translate, "translate_expr", refuse)
    assert fuzz.run_one(sf, entry, inputs) == {"phase": "translate", "message": message}
