"""Concrete syntax: parse/print round trips and the file envelope."""

import glob
import os
import random
import re

import pytest

from loopcert import gen, pipeline
from loopcert import syntax as S
from loopcert.errors import ParseError
from loopcert.parser import (
    Parser,
    parse,
    parse_expr,
    parse_formula,
    parse_prop,
    parse_qenv,
    parse_seq,
    parse_term,
)
from loopcert.printer import show, show_file

import syntax_gen

CORPUS = os.path.join(os.path.dirname(__file__), "..", "corpus")


def corpus_files():
    return sorted(glob.glob(os.path.join(CORPUS, "*.loop")))


def test_corpus_is_present():
    assert len(corpus_files()) >= 8


@pytest.mark.parametrize("path", corpus_files())
def test_corpus_round_trip(path):
    with open(path, "r", encoding="utf-8") as handle:
        sf = parse(handle.read())
    again = parse(show_file(sf))
    assert S.alpha_eq(again.csts, sf.csts)
    assert S.alpha_eq(again.main, sf.main)
    assert again.discipline == sf.discipline


def test_figure1_prototype_shape():
    with open(os.path.join(CORPUS, "figure1.loop"), "r", encoding="utf-8") as handle:
        sf = parse(handle.read())
    name, expr = sf.csts[0]
    assert name == "p_add"
    assert isinstance(expr, S.EProc)
    header = expr.header
    assert isinstance(header, S.HForall) and header.var == "n"
    assert isinstance(header.body, S.HForall) and header.body.var == "m"


def test_empty_main_body():
    sf = parse("discipline IS;\nmain { } out [z : top]")
    assert isinstance(sf.main.body, S.Seq) and sf.main.body.items == ()


def test_simple_proc_round_trip():
    text = "proc [x : nat] out [y : nat] { y := x; }"
    e = parse_expr(text)
    again = parse_expr(show(e))
    assert S.alpha_eq(e, again)


def test_print_nat_succ():
    assert show(parse_formula("nat(succ(0))")) == "nat(succ(0))"


def test_var_without_initializer_desugars_with_warning():
    p = Parser("var y; y := 0;")
    item = p.parse_seq().items[0]
    assert isinstance(item, S.SVar) and isinstance(item.value, S.EStar)
    assert any("desugared" in w for w in p.warnings)


def test_unicode_aliases():
    a = parse_formula("∀n. nat(n) → ⊤")
    b = parse_formula("forall n. nat(n) -> top")
    assert S.alpha_eq(a, b)
    c = parse_formula("∃n. ⟨nat(n), ¬nat(n)⟩")
    d = parse_formula("exists n. <nat(n), ~nat(n)>")
    assert S.alpha_eq(c, d)
    e = parse_term("λn. fn x : ⊥ ⇒ ⟨⟩")
    f = parse_term("lam n. fn x : bot => <>")
    assert S.alpha_eq(e, f)
    g = parse_expr("⋆")
    assert isinstance(g, S.EStar)


def test_meta_substitution_rejected():
    with pytest.raises(ParseError) as err:
        parse_prop("nat(n)[n = 0]")
    assert "unsupported construct" in str(err.value)


def test_parse_error_has_location():
    with pytest.raises(ParseError) as err:
        parse("discipline IS;\ncst x = ;")
    assert err.value.line == 2


@pytest.mark.parametrize("text, message", [
    # a token that is missing, and a phrase that is missing
    ("discipline IS", "parse error at 1:14: found 'end of input' (expected one of: ;)"),
    ("discipline FD; cst f = fn x : nat => ", "parse error at 1:38: found 'end of input' (expected one of: term)"),
])
def test_the_end_of_input_is_worded_one_way(text, message):
    with pytest.raises(ParseError) as err:
        parse(text)
    assert str(err.value) == message


def test_neg_proc_bottom_identification():
    # a never-returning prototype is printed back as a negation
    p = parse_prop("proc([nat(x)] out [bot])")
    assert S.alpha_eq(p, parse_prop("~(nat(x))"))
    assert show(p) == "~(nat(x))"


def test_neg_formula_is_arrow_to_absurd():
    phi = parse_formula("~nat(0)")
    assert S.alpha_eq(phi, parse_formula("nat(0) -> <bot>"))
    assert show(phi) == "~nat(0)"


def test_generated_round_trips():
    """parse . print is the identity (up to alpha) on 500 generated ASTs."""
    rng = random.Random(2024)
    cases = 0
    for _ in range(120):
        phi = syntax_gen.gen_formula(rng, 4)
        assert S.alpha_eq(parse_formula(show(phi)), phi)
        cases += 1
    for _ in range(100):
        p = syntax_gen.gen_prop(rng, 3)
        assert S.alpha_eq(parse_prop(show(p)), p)
        cases += 1
    for _ in range(80):
        q = syntax_gen.gen_qenv(rng, 3)
        assert S.alpha_eq(parse_qenv(show(q)), q)
        cases += 1
    for _ in range(120):
        t = syntax_gen.gen_term(rng, 4)
        assert S.alpha_eq(parse_term(show(t)), t)
        cases += 1
    for k in range(80):
        prng = random.Random(f"rt:{k}")
        sf, _, _ = gen.gen_is_program(prng, 14)
        again = parse(show_file(sf))
        assert S.alpha_eq(again.csts, sf.csts)
        cases += 1
    assert cases == 500


@pytest.mark.parametrize(
    "body, span",
    [
        ("((z := x;) :> {i/[z : nat(i)]}[add(0, m) = m]); inc(z);", [4, 51]),
        ("((z := x;) :> {i/[z : nat(i)]}[add(0, m) = m]);\n  ();\n  ?n. inc(z);", [6, 3]),
    ],
)
def test_coerced_group_followed_by_items_is_reported_at_the_first(body, span):
    """A ':>' group ends its sequence; an item after it is reported where it starts."""
    text = (
        "discipline ID;\n\n"
        "cst p = proc forall m. [x : nat(m)] out [z : nat(m)] {\n"
        f"  {body}\n}};\n"
    )
    report = pipeline.run_pipeline("x.loop", text=text)
    assert report.exit_code == pipeline.EXIT_PARSE
    assert [(d["rule"], d["span"]) for d in report.diagnostics] == [("PARSE", span)]
    assert "cannot be followed by commands" in report.diagnostics[0]["message"]


def test_coerced_group_may_end_its_sequence():
    """An empty group after a ':>' group adds no item."""
    sf = parse(
        "discipline ID;\n\n"
        "cst p = proc forall m. [x : nat(m)] out [z : nat(m)] {\n"
        "  ((z := x;) :> {i/[z : nat(i)]}[add(0, m) = m]);\n  ();\n};\n"
    )
    (item,) = sf.csts[0][1].header.body.body.items
    assert isinstance(item, S.SSubst)


def test_an_unpack_spliced_from_a_group_scopes_over_the_rest():
    """A `?n.` that ends a `( ... )` group binds n in the items after the
    group; after the sequence, n is free again."""
    seq = parse_seq("( inc(z); ?n. ) z := x :> {k/nat(add(k, n))}[0 = 0]; { }[z : nat(n)];")
    _, unpack, assign, block = seq.items
    assert type(unpack) is S.SUnpack
    assert assign.value.fam.body == S.FNat(S.IAdd(S.IBound(0), S.IBound(1)))
    assert block.ann == S.QSimple((("z", S.FNat(S.IBound(0))),))
    outer = parse_seq("{ ( ?n. ) }[z : nat(0)]; z := z :> {k/nat(n)}[0 = 0];")
    assert outer.items[1].value.fam.body == S.FNat(S.IVar("n"))


# `:> {i/nat(i)}[p]` in an FD constant, with each of its tokens blanked in
# turn: the token, and what the parser reports, the ParseError as
# [text, line, col] or the file printed back
_COERCION_LINE = "cst c = fn p : (0 = 0) => 0 :> {i/nat(i)}[p];"
_COERCION_DROPS = [
    (":>", ["parse error at 2:34: found '/' (expected one of: })", 2, 34]),
    ("{", ["parse error at 2:33: found 'i' (expected one of: {)", 2, 33]),
    ("i", ["parse error at 2:34: found '/' (expected one of: identifier)", 2, 34]),
    ("/", ["parse error at 2:35: found 'nat' (expected one of: /)", 2, 35]),
    ("nat", "discipline FD;\n\ncst c = fn p : (0 = 0) => 0 :> {i/i}[p];\n"),
    ("(", ["parse error at 2:39: found 'i' (expected one of: })", 2, 39]),
    ("i", ["parse error at 2:40: found ')' (expected one of: individual)", 2, 40]),
    (")", ["parse error at 2:41: found '}' (expected one of: ))", 2, 41]),
    ("}", ["parse error at 2:42: found '[' (expected one of: })", 2, 42]),
    ("[", ["parse error at 2:43: found 'p' (expected one of: [)", 2, 43]),
    ("p", ["parse error at 2:44: found ']' (expected one of: term)", 2, 44]),
    ("]", ["parse error at 2:45: found ';' (expected one of: ])", 2, 45]),
]


@pytest.mark.parametrize("k", range(len(_COERCION_DROPS)))
def test_a_term_coercion_with_one_token_dropped(k):
    """The term `:>` reader, which the corpus deletions in golden/parses.json
    do not reach: each token of the coercion blanked in turn."""
    token, want = _COERCION_DROPS[k]
    offset = _COERCION_LINE.index(":>")
    m = list(re.finditer(r":>|\w+|\S", _COERCION_LINE[offset:-1]))[k]
    assert m.group() == token
    start, end = offset + m.start(), offset + m.end()
    text = "discipline FD;\n" + _COERCION_LINE[:start] + " " * (end - start) + _COERCION_LINE[end:] + "\n"
    try:
        got = show_file(parse(text))
    except ParseError as ex:
        got = [str(ex), ex.line, ex.col]
    assert got == want


@pytest.mark.parametrize(
    "text",
    [
        "discipline ID;\n\ncst p = proc [a : ~X[y = 1]] out [z : nat] { z := 0; };\n",
        "discipline FD;\n\ncst f = fn a : ~X[y = 1] => a;\n",
    ],
)
def test_a_meta_substitution_in_a_negation_argument_is_rejected(text):
    """A negation reads its argument as any prop or formula does, so the
    meta-substitution after it is reported where it starts."""
    with pytest.raises(ParseError) as err:
        parse(text)
    assert str(err.value).startswith("parse error at 3:")
    assert "unsupported construct: meta-substitution" in str(err.value)
    assert (err.value.line, err.value.col) == (3, text.splitlines()[2].index("[y") + 1)
