"""Robustness: the checkers and parser reject garbage with their own
error types, never host-language exceptions."""

import random
import string
import sys

import pytest

from loopcert import dependent, gen, pipeline
from loopcert.dependent import CheckCtx
from loopcert.errors import CheckError, ParseError
from loopcert.parser import Parser

import syntax_gen


def test_checkers_never_crash_on_random_terms():
    rng = random.Random(404)
    checked = 0
    for _ in range(400):
        t = syntax_gen.gen_term(rng, 4, vars_=("x",), ivars=("n",))
        sigma = (("x", syntax_gen.gen_formula(rng, 2, vars_=("n",))),)
        for check in (dependent.fs_check_term, dependent.fd_check_term):
            try:
                check(sigma, t)
            except CheckError:
                pass
            checked += 1
    assert checked == 800


def test_id_checker_never_crashes_on_random_goals():
    rng = random.Random(405)
    for _ in range(200):
        q = syntax_gen.gen_qenv(rng, 2)
        p = syntax_gen.gen_prop(rng, 3)
        try:
            dependent._id_seq((), (("z", p),), gen_seq(rng), q, CheckCtx(), False)
        except CheckError:
            pass


def gen_seq(rng):
    sf, _, _ = gen.gen_is_program(rng, 6)
    return sf.csts[0][1].header.body


_ALPHABET = [
    "cst", "var", "main", "proc", "out", "for", "until", "jump", "inc", "dec",
    "nat", "top", "bot", "forall", "exists", "fn", "lam", "let", "in", "rec",
    "callcc", "throw", "pack", "succ", "pred", "add", "F32",
    "{", "}", "[", "]", "(", ")", "<", ">", ",", ";", ":", ".", "/", "=",
    ":=", ":>", "<:", "=>", "->", "~", "*", "?", "x", "y", "z", "0", "1", "5",
]


def test_parser_never_crashes_on_token_soup():
    rng = random.Random(406)
    outcomes = {"ok": 0, "parse_error": 0}
    for _ in range(1500):
        text = "discipline IS;\n" + " ".join(
            rng.choice(_ALPHABET) for _ in range(rng.randrange(0, 40))
        )
        try:
            Parser(text).parse_file()
            outcomes["ok"] += 1
        except ParseError:
            outcomes["parse_error"] += 1
    assert sum(outcomes.values()) == 1500
    assert outcomes["parse_error"] > 0


def test_lexer_rejects_stray_bytes():
    for ch in "@#$&|!'\"`\\":
        try:
            Parser(f"discipline IS; cst x = {ch};").parse_file()
        except ParseError:
            continue
        raise AssertionError(ch)


@pytest.mark.parametrize(
    "text, span",
    [
        ("discipline IS;\nmain {\n  var z := ²;\n} out [z : nat]\n", [3, 12]),
        ("discipline IS;\nmain {\n  var z := 12²;\n} out [z : nat]\n", [3, 12]),
        ("discipline IS;\nmain {\n  var z := succ(²);\n} out [z : nat]\n", [3, 17]),
        ("discipline ID;\nmain {\n  var z := 0;\n} out [z : nat(²)]\n", [4, 16]),
        ("discipline FS;\ncst a = succ(²);\n", [2, 14]),
        pytest.param(
            "discipline IS;\nmain {\n  z := " + "9" * 5000 + ";\n} out [z : nat]\n", [3, 8],
            marks=pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"), reason="int() converts any length"),
            id="5000-digits",
        ),
    ],
)
def test_non_decimal_digits_are_parse_errors(text, span):
    """The lexer keeps `isdigit` runs such as '12²' as one int token; the
    parser rejects them at the token, in expressions, numerals,
    individuals and terms alike, and a numeral longer than int() converts
    (4,300 digits by default) too."""
    report = pipeline.run_pipeline("x.loop", text=text)
    assert report.exit_code == pipeline.EXIT_PARSE
    assert [(d["rule"], d["span"]) for d in report.diagnostics] == [("PARSE", span)]
