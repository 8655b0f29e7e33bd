"""FS term checking, IS pseudo-dynamic checking, and the translation
between them."""

import random

import pytest

from loopcert import dependent, gen, pipeline, runtime, translate
from loopcert import syntax as S
from loopcert.dependent import CheckCtx
from loopcert.errors import CheckError
from loopcert.parser import parse, parse_expr, parse_formula, parse_seq, parse_term

from test_kernel import _reflective_alpha

ADDITION = """proc [x : nat, y : nat] out [z : nat] {
  z := y;
  for i := 0 until x {
    inc(z);
  }[z : nat];
}"""


# ---------------------------------------------------------------------------
# FS
# ---------------------------------------------------------------------------

def test_fs_lam_succ():
    t = parse_term("fn x : nat => succ(x)")
    assert S.alpha_eq(dependent.fs_check_term((), t), parse_formula("nat -> nat"))


def test_fs_rec_simple():
    t = parse_term("rec(succ(0), 0, fn y : nat => fn a : nat => succ(a))")
    assert S.alpha_eq(dependent.fs_check_term((), t), parse_formula("nat"))


def test_fs_tuple_match():
    t = parse_term("let <a, b> = <0, succ(0)> in b")
    assert S.alpha_eq(dependent.fs_check_term((), t), parse_formula("nat"))


@pytest.mark.parametrize(
    "text, form, rule",
    [
        ("lam n. 0", S.TIndLam, "FS"),
        ("(lam n. 0) {0}", S.TIndApp, "FS"),
        ("pack(0, 0 : exists n. nat(n))", S.TPack, "FS"),
        ("?n. 0", S.TUnpack, "FS"),
        ("add(0, 0) = 0", S.TAxiom, "FS"),
        ("0 :> {n/nat(n)}[add(0, 0) = 0]", S.TCoerce, "FS"),
        ("callcc (fn k : ~nat => 0)", S.TCallcc, "FS"),
        ("throw[nat] 0 0", S.TThrow, "FS"),
        ("fn x : nat(0) => x", S.TFn, "FS"),
        ("rec{m. nat}(0, 0, fn y : nat => fn a : nat => a)", S.TRec, "TC_REC"),
    ],
    ids=["lam", "inst", "pack", "unpack", "axiom", "coerce", "callcc", "throw",
         "indexed_annotation", "motive"],
)
def test_fs_rejects_dependent_terms(text, form, rule):
    t = parse_term(text)
    assert isinstance(t, form)
    with pytest.raises(CheckError) as err:
        dependent.fs_check_term((), t)
    assert err.value.rule == rule


def test_fs_pred_ignores_the_optional_dependent_rule():
    ctx = CheckCtx(trace=[], allow_pred=False)
    assert dependent.fs_check_term((), parse_term("pred(0)"), ctx) == S.FNat(None)
    assert ctx.trace == ["TC_ZERO", "TC_PRED"]


def test_fs_unbound():
    with pytest.raises(CheckError) as err:
        dependent.fs_check_term((), parse_term("q"))
    assert err.value.reason == "UnboundVariable"


def test_fs_type_error_cites_rule():
    for text, rule in [
        ("succ(<>)", "TC_SUCC"),
        ("pred(<>)", "TC_PRED"),
        ("(fn x : nat => x) <>", "TC_APP"),
        ("rec(<>, 0, fn y : nat => fn a : nat => a)", "TC_REC"),
        ("rec(0, 0, fn y : nat => fn a : nat => <>)", "TC_REC"),
        ("let <a> = <0, 0> in a", "TC_MATCH"),
    ]:
        with pytest.raises(CheckError) as err:
            dependent.fs_check_term((), parse_term(text))
        assert err.value.rule == rule, text


def test_fs_derivation_report_replays():
    t = parse_term("fn x : nat => succ(x)")
    first, second = CheckCtx(trace=[]), CheckCtx(trace=[])
    ty = dependent.fs_check_term((), t, first)
    assert ty == dependent.fs_check_term((), t, second)
    assert first.trace == second.trace
    assert S.alpha_eq(ty, parse_formula("nat -> nat"))
    assert "TC_LAM" in first.trace and "TC_VAR" in first.trace and "TC_SUCC" in first.trace


# ---------------------------------------------------------------------------
# IS
# ---------------------------------------------------------------------------

def test_is_env_store_wins():
    got = dependent.is_check_expr((("x", S.FTop()),), (("x", S.FNat(None)),), parse_expr("x"))
    assert got == S.FNat(None)


def test_is_star_unit():
    assert dependent.is_check_expr((), (), parse_expr("*")) == S.FTop()


def test_is_addition_proc_type():
    ty = dependent.is_check_expr((), (), parse_expr(ADDITION))
    assert S.alpha_eq(ty, S.proc_t(S.ProtoBase((S.FNat(None), S.FNat(None)), S.OSimple((S.FNat(None),)))))


def _check_is_main(body, out="[z : nat]"):
    """check-source of an IS file whose main sequence is body."""
    return pipeline.check_source(parse(f"discipline IS;\nmain {{ {body} }} out {out}"), [])


def test_is_empty_returns_store():
    """A block starts from its frame [z : nat], and its empty body ends
    with that store."""
    checked = _check_is_main("z := 0; { }[z : nat];")
    assert checked.trace == ["T_NUM", "T_ASSIGN", "T_BLOCK", "T_EMPTY", "T_EMPTY"]


def test_is_pseudo_dynamic_retyping():
    """The output y starts at top; assigning 0 retypes it to nat."""
    _check_is_main("y := 0;", "[y : nat]")
    with pytest.raises(CheckError) as err:
        _check_is_main("", "[y : nat]")
    assert err.value.reason == "OutputMismatch"
    assert err.value.message == "main ends with store [y : top], declared out is [y : nat]"


def test_is_for_invariant_frame():
    checked = _check_is_main("z := 0; for y := 0 until 2 { inc(z); }[z : nat];")
    assert checked.trace.count("T_FOR") == 1


def test_is_for_frame_not_invariant():
    with pytest.raises(CheckError) as err:
        _check_is_main("z := 0; for y := 0 until 2 { z := *; }[z : nat];")
    assert err.value.reason == "LoopFrameNotInvariant" and err.value.rule == "T_FOR"


def test_is_output_mismatch():
    with pytest.raises(CheckError) as err:
        dependent.is_check_expr((), (), parse_expr("proc [x : nat] out [z : nat] { }"))
    assert err.value.reason == "OutputMismatch"


# ---------------------------------------------------------------------------
# translation
# ---------------------------------------------------------------------------

def test_translate_types():
    assert translate.translate_type(S.FNat(None)) == S.FNat(None)
    assert translate.translate_type(S.FTop()) == S.FTop()
    proc = S.proc_t(S.ProtoBase((S.FNat(None), S.FNat(None)), S.OSimple((S.FNat(None),))))
    assert S.alpha_eq(translate.translate_type(proc), parse_formula("<nat, nat> -> <nat>"))
    empty = S.proc_t(S.ProtoBase((), S.OSimple(())))
    assert S.alpha_eq(translate.translate_type(empty), parse_formula("<> -> <>"))


def test_translate_empty_seq_returns_live_tuple():
    t = translate.translate_seq(parse_seq(""), ("a", "b"), translate.TranslateCtx("FS"))
    assert S.alpha_eq(t, parse_term("<a, b>"))


def test_translate_inc():
    t = translate.translate_seq(parse_seq("inc(z);"), ("z",), translate.TranslateCtx("FS"))
    assert S.alpha_eq(t, parse_term("let z = succ(z) in <z>"))


def test_translate_addition_shape():
    t = translate.translate_expr(parse_expr(ADDITION), translate.TranslateCtx("FS"))
    expected = parse_term(
        "fn (x : nat, y : nat) => let z = y in "
        "let <z> = rec(x, <z>, fn i : nat => fn (z : nat) => let z = succ(z) in <z>) in <z>"
    )
    assert _reflective_alpha(t, expected, {}, {}, 0)
    assert S.alpha_eq(dependent.fs_check_term((), t), parse_formula("<nat, nat> -> <nat>"))


def test_type_preservation_on_generated_programs():
    for k in range(60):
        rng = random.Random(f"tp:{k}")
        sf, entry, _ = gen.gen_is_program(rng, 20)
        gamma: S.Env = ()
        for name, expr in sf.csts:
            ty = dependent.is_check_expr(gamma, (), expr)
            gamma = gamma + ((name, ty),)
        tctx = translate.TranslateCtx("FS")
        sigma: S.Env = ()
        for (name, expr), (_, ty) in zip(sf.csts, gamma):
            term = translate.translate_expr(expr, tctx)
            fty = dependent.fs_check_term(sigma, term)
            assert S.alpha_eq(fty, translate.translate_type(ty))
            sigma = sigma + ((name, fty),)


def test_interpreter_matches_machine_on_addition():
    sf = parse(
        "discipline IS;\ncst add_proc = " + ADDITION + ";\nmain { add_proc(3, 2; z); } out [z : nat]"
    )
    got = runtime.interpret_program(sf.csts, sf.main, None, ())
    assert got == (5,)
    for a in range(4):
        for b in range(4):
            out = runtime.interpret_program(sf.csts, None, "add_proc", (a, b))
            assert out == (a + b,)
