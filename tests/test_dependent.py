"""FD term checking, ID checking, defined negation, and the dependent
translation."""

import glob
import os
import random

import pytest

from loopcert import dependent, envs, pipeline, translate
from loopcert import syntax as S
from loopcert.dependent import CheckCtx
from loopcert.errors import CheckError
from loopcert.parser import (
    lex,
    parse_expr,
    parse_formula,
    parse_prop,
    parse_qenv,
    parse_seq,
    parse_term,
)
from loopcert.printer import show

import syntax_gen
from test_kernel import _reflective_alpha

CORPUS = os.path.join(os.path.dirname(__file__), "..", "corpus")


# ---------------------------------------------------------------------------
# FD
# ---------------------------------------------------------------------------

def test_fd_callcc():
    t = parse_term("callcc (fn k : ~nat(0) => 0)")
    assert S.alpha_eq(dependent.fd_check_term((), t), parse_formula("nat(0)"))


def test_fd_pack():
    t = parse_term("pack(0, 0 : exists n. nat(n))")
    assert S.alpha_eq(dependent.fd_check_term((), t), parse_formula("exists n. nat(n)"))


def test_fd_forall_intro_elim():
    t = parse_term("lam n. fn x : nat(n) => x")
    ty = dependent.fd_check_term((), t)
    assert S.alpha_eq(ty, parse_formula("forall n. nat(n) -> nat(n)"))
    inst = parse_term("(lam n. fn x : nat(n) => x){succ(0)}")
    assert S.alpha_eq(dependent.fd_check_term((), inst), parse_formula("nat(succ(0)) -> nat(succ(0))"))


def test_fd_axiom_both_directions():
    assert S.alpha_eq(
        dependent.fd_check_term((), parse_term("add(0, m) = m")),
        parse_formula("add(0, m) = m"),
    )
    # the symmetric reading is admitted by the second axiom rule
    assert S.alpha_eq(
        dependent.fd_check_term((), parse_term("3 = F32(0)")),
        parse_formula("succ(succ(succ(0))) = F32(0)"),
    )


def test_fd_coercion():
    t = parse_term("0 :> {i/nat(i)}[add(0, 0) = 0]")
    assert S.alpha_eq(dependent.fd_check_term((), t), parse_formula("nat(add(0, 0))"))


def test_fd_throw_result_is_annotation():
    t = parse_term("fn k : ~nat(0) => throw[top] k 0")
    assert S.alpha_eq(dependent.fd_check_term((), t), parse_formula("~nat(0) -> top"))


def test_fd_rec_needs_motive():
    with pytest.raises(CheckError) as err:
        dependent.fd_check_term((), parse_term("rec(0, 0, fn y : nat(0) => fn a : nat(0) => a)"))
    assert err.value.reason == "MissingMotive"


def test_fd_dependent_rec_positive():
    t = parse_term(
        "fn x : nat(succ(0)) => "
        "rec{v.nat(v)}(x, 0, lam l. fn y : nat(l) => fn a : nat(l) => succ(a))"
    )
    ty = dependent.fd_check_term((), t)
    assert S.alpha_eq(ty, parse_formula("nat(succ(0)) -> nat(succ(0))"))


def test_fd_dependent_rec_bad_step_rejected():
    t = parse_term(
        "fn x : nat(succ(0)) => "
        "rec{v.nat(v)}(x, 0, lam l. fn y : nat(l) => fn a : nat(l) => a)"
    )
    with pytest.raises(CheckError) as err:
        dependent.fd_check_term((), t)
    assert err.value.rule == "TC_REC"


def test_fd_pred_gated():
    t = parse_term("fn x : nat(succ(0)) => pred(x)")
    ty = dependent.fd_check_term((), t, CheckCtx(allow_pred=True))
    assert S.alpha_eq(ty, parse_formula("nat(succ(0)) -> nat(pred(succ(0)))"))
    with pytest.raises(CheckError) as err:
        dependent.fd_check_term((), t, CheckCtx(allow_pred=False))
    assert err.value.rule == "TC_PRED_D"


def test_fd_eigen_escape_detected():
    t = parse_term("fn w : exists n. <nat(n)> => let <x> = w in ?n. x")
    with pytest.raises(CheckError) as err:
        dependent.fd_check_term((), t)
    assert err.value.reason == "EigenEscape"


def test_fd_unpack_required():
    t = parse_term("fn w : exists n. <nat(n)> => let <x> = w in 0")
    with pytest.raises(CheckError) as err:
        dependent.fd_check_term((), t)
    assert err.value.reason == "MissingUnpack"


def test_fd_unpack_ok_when_no_escape():
    t = parse_term("fn w : exists n. <nat(n)> => let <x> = w in 0")
    t_ok = parse_term("fn w : exists n. <nat(n)> => let <x> = w in ?n. 0")
    assert S.alpha_eq(
        dependent.fd_check_term((), t_ok), parse_formula("(exists n. <nat(n)>) -> nat(0)")
    )


# ---------------------------------------------------------------------------
# defined negation
# ---------------------------------------------------------------------------

def test_neg_simple_output():
    out = S.OSimple((S.FNat(S.IZero()),))
    assert S.alpha_eq(S.PNeg(out), parse_prop("~(nat(0))"))


def test_neg_figure2_continuation():
    _, out = envs.qsplit(parse_qenv("exists u. [r : nat(u), mk : ~(nat(F32(u)))]"))
    neg = S.PNeg(out)
    assert isinstance(neg, S.PNeg) and isinstance(neg.out, S.OExists)
    # translating it gives the negation of the translated output
    assert S.alpha_eq(
        translate.translate_type(neg),
        parse_formula("~exists u. <nat(u), ~<nat(F32(u))>>"),
    )


def test_neg_translation_coherence_depth3():
    rng = random.Random(5)
    for _ in range(120):
        out = syntax_gen.gen_output(rng, 3)
        lhs = translate.translate_type(S.PNeg(out))
        rhs = S.neg_f(translate.translate_output(out))
        assert S.alpha_eq(lhs, rhs)


# ---------------------------------------------------------------------------
# ID expressions and sequences
# ---------------------------------------------------------------------------

def test_id_star_and_numerals():
    assert dependent.id_check_expr((), (), parse_expr("*")) == S.FTop()
    assert S.alpha_eq(
        dependent.id_check_expr((), (), parse_expr("succ(succ(0))")),
        parse_prop("nat(succ(succ(0)))"),
    )


def test_id_empty_subset():
    omega = (("x", S.FNat(S.IZero())), ("y", S.FTop()))
    dependent._id_seq((), omega, parse_seq(""), parse_qenv("[x : nat(0)]"), CheckCtx(), False)


def test_id_empty_subset_violation():
    omega = (("x", S.FNat(S.IZero())),)
    with pytest.raises(CheckError) as err:
        dependent._id_seq((), omega, parse_seq(""), parse_qenv("[x : nat(succ(0))]"), CheckCtx(), False)
    assert err.value.rule == "T_EMPTY"


def test_id_cont_inst_result_is_jumpable():
    fam = parse_qenv("exists u. [k0 : nat(u)]")
    _, out = envs.qsplit(fam)
    gamma = (("k", S.PNeg(out)),)
    e = parse_expr("k <: {u/[nat(u)]}{succ(0)}")
    got = dependent.id_check_expr(gamma, (), e)
    assert S.alpha_eq(got, parse_prop("~(nat(succ(0)))"))


def test_id_inst_on_continuation_rejected():
    _, out = envs.qsplit(parse_qenv("exists u. [k0 : nat(u)]"))
    gamma = (("k", S.PNeg(out)),)
    with pytest.raises(CheckError) as err:
        dependent.id_check_expr(gamma, (), parse_expr("k{0}"))
    assert err.value.rule == "T_PROC_INST"


def test_id_proc_inst_normalizes_bottom():
    gamma = (("p", parse_prop("proc forall n. ([nat(n)] out [bot])")),)
    got = dependent.id_check_expr(gamma, (), parse_expr("p{0}"))
    assert S.alpha_eq(got, parse_prop("~(nat(0))"))


def test_id_figure1_prototype():
    text = """proc forall n. forall m. [x : nat(n), y : nat(m)] out [z : nat(add(n, m))] {
      z := y :> {i/nat(i)}[add(0, m) = m];
      for l : nat(l) := 0 until x {
        inc(z);
        z := z :> {i/nat(i)}[add(succ(l), m) = succ(add(l, m))];
      }[z : nat(add(l, m))];
    }"""
    ty = dependent.id_check_expr((), (), parse_expr(text))
    want = parse_prop("proc forall n. forall m. ([nat(n), nat(m)] out [nat(add(n, m))])")
    assert S.alpha_eq(ty, want)


# ---------------------------------------------------------------------------
# dependent translation
# ---------------------------------------------------------------------------

def test_translate_prototype():
    rho = parse_prop("proc forall n. forall m. ([nat(n), nat(m)] out [nat(add(n, m))])")
    want = parse_formula("forall n. forall m. <nat(n), nat(m)> -> <nat(add(n, m))>")
    assert S.alpha_eq(translate.translate_type(rho), want)


def test_translate_qenv_examples():
    names, phi = translate.translate_qenv(parse_qenv("[x : nat(0)]"))
    assert names == ("x",) and S.alpha_eq(phi, parse_formula("<nat(0)>"))
    names, phi = translate.translate_qenv(parse_qenv("exists u. [r : nat(u), mk : ~(nat(F32(u)))]"))
    assert names == ("r", "mk")
    assert S.alpha_eq(phi, parse_formula("exists u. <nat(u), ~<nat(F32(u))>>"))


def test_translate_witness_packs():
    seq = parse_seq("[0 in exists n. [z : nat(n)]]")
    t = translate.translate_seq(seq, ("z",), translate.TranslateCtx("FD"))
    assert S.alpha_eq(t, parse_term("pack(0, <z> : exists n. <nat(n)>)"))


def test_translate_jump_throws():
    seq = parse_seq("jump(mk, y)[r : nat(0)];")
    t = translate.translate_seq(seq, ("r",), translate.TranslateCtx("FD"))
    assert S.alpha_eq(t, parse_term("let <r> = throw[<nat(0)>] mk <y> in <r>"))


def test_translate_cont_inst_eta_expands():
    e = parse_expr("k <: {u/[nat(u)]}{x}")
    t = translate.translate_expr(e, translate.TranslateCtx("FD"))
    want = parse_term("fn v : <nat(x)> => k pack(x, v : exists u. <nat(u)>)")
    assert _reflective_alpha(t, want, {}, {}, 0)


def test_translate_label_callcc():
    seq = parse_seq("k : { jump(k, 0)[z : nat(0)]; }[z : nat(0)];")
    t = translate.translate_seq(seq, ("z",), translate.TranslateCtx("FD"))
    want = parse_term(
        "let <z> = callcc (fn k : ~<nat(0)> => let <z> = throw[<nat(0)>] k <0> in <z>) in <z>"
    )
    assert S.alpha_eq(t, want)


def test_translate_fresh_names_deterministic():
    e = parse_expr("k <: {u/[nat(u)]}{x}")
    a = show(translate.translate_expr(e, translate.TranslateCtx("FD")))
    b = show(translate.translate_expr(e, translate.TranslateCtx("FD")))
    assert a == b and "_v1" in a


def test_translate_fresh_names_skip_the_names_of_the_source():
    """`_v1` names a term of the source, so the continuation's parameter
    is `_v2`, and the image of the source's `_v1` stays as it is."""
    e = parse_expr("_v1 <: {u/[nat(u)]}{x}")
    want = "fn _v2 : <nat(x)> => _v1 pack(x, _v2 : exists u. <nat(u)>)"
    assert show(translate.translate_expr(e, translate.TranslateCtx("FD"))) == want


def _named_like_fresh_names(text):
    """text with each identifier after the discipline renamed `_v<k>`, k
    counting the names in order of first use: the names the translation
    makes up for its parameters."""
    tokens, _ = lex(text)
    line_starts = [0] + [k + 1 for k, ch in enumerate(text) if ch == "\n"]
    names, out, last = {}, [], 0
    for k in range(2, len(tokens)):
        value = tokens.values[k]
        if tokens.kind[value] == "ident":
            line, col = tokens.source.position(k)
            start = line_starts[line - 1] + col - 1
            name = names.setdefault(value, f"_v{len(names) + 1}")
            out += [text[last:start], name]
            last = start + len(value)
    return "".join(out) + text[last:], names


@pytest.mark.parametrize("path", sorted(glob.glob(os.path.join(CORPUS, "*.loop"))), ids=os.path.basename)
def test_a_corpus_file_named_like_the_fresh_names_runs_the_same(path):
    """No parameter the translation makes up captures a name of the source:
    with every name renamed `_v<k>`, each corpus file still passes every
    phase and ends with the same store, renamed."""
    with open(path, encoding="utf-8") as handle:
        text = handle.read()
    renamed, names = _named_like_fresh_names(text)

    def store(report):
        assert report.exit_code == 0, report.diagnostics
        return [p["payload"].get("store") for p in report.phases if p["name"] == "evaluate"]

    stores = store(pipeline.run_pipeline(path, text=text))
    want = [{names[k]: v for k, v in s.items()} if s else s for s in stores]
    assert store(pipeline.run_pipeline(path, text=renamed)) == want


# ---------------------------------------------------------------------------
# freshness of declarations
# ---------------------------------------------------------------------------

def test_id_var_may_shadow_constants_but_not_outputs():
    gamma = (("w", S.FTop()),)
    omega = (("z", S.FTop()),)
    # shadowing a constant is fine
    dependent._id_seq(
        gamma, omega, parse_seq("var w := 0; z := w;"), parse_qenv("[z : nat(0)]"), CheckCtx(), False
    )
    with pytest.raises(CheckError) as err:
        dependent._id_seq(gamma, omega, parse_seq("var z := 0;"), parse_qenv("[z : top]"), CheckCtx(), False)
    assert err.value.reason == "FreshnessViolation"


def test_id_cst_may_not_shadow_store():
    omega = (("z", S.FTop()),)
    with pytest.raises(CheckError) as err:
        dependent._id_seq((), omega, parse_seq("cst z = 0;"), parse_qenv("[z : top]"), CheckCtx(), False)
    assert err.value.reason == "FreshnessViolation" and err.value.rule == "T_CST"


def test_header_param_output_collision_rejected():
    with pytest.raises(CheckError):
        dependent.id_check_expr(
            (), (), parse_expr("proc [x : nat(0)] out [x : nat(0)] { x := 0; }")
        )


def test_id_for_without_index_binder():
    gamma = (("x", parse_prop("nat(succ(0))")),)
    omega = (("z", parse_prop("nat(0)")),)
    subject = parse_seq("for i := 0 until x { }[z : nat(0)];")
    dependent._id_seq(gamma, omega, subject, parse_qenv("[z : nat(0)]"), CheckCtx(), False)


def test_id_index_free_loop_under_quantified_header():
    # the constant frame mentions the header's binder: the loop binds an
    # index no name refers to, and the frame's index of n skips it
    text = """proc forall n. [x : nat(n)] out [z : nat(n)] {
      z := x;
      for i := 0 until x { }[z : nat(n)];
    }"""
    ty = dependent.id_check_expr((), (), parse_expr(text))
    assert S.alpha_eq(ty, parse_prop("proc forall n. ([nat(n)] out [nat(n)])"))


def test_id_goal_trace_deterministic():
    gamma = (("k", S.PNeg(S.OSimple((parse_prop("nat(0)"),)))),)
    omega = (("z", S.FTop()),)
    subject = parse_seq("k : { jump(k, 0)[z : nat(0)]; }[z : nat(0)];")
    expected = parse_qenv("[z : nat(0)]")
    first, second = CheckCtx(trace=[]), CheckCtx(trace=[])
    for ctx in (first, second):
        dependent._id_seq(gamma, omega, subject, expected, ctx, False)
    assert first.trace == second.trace
    assert "T_LABEL" in first.trace and "T_JUMP" in first.trace and "T_EMPTY" in first.trace


# ---------------------------------------------------------------------------
# Rejections through the pipeline: (id, file, rule, a fragment of the message)
# ---------------------------------------------------------------------------

REJECTED = [
    ("witness-of-a-non-existential",
     "discipline ID;\nmain {\n  z := 0;\n  [0 in [z : nat(0)]]\n} out [z : nat(0)]\n",
     "T_WITNESS", "witness annotates non-existential"),
    ("coercion-proof-is-no-equation",
     "discipline ID;\nmain {\n  (\n    z := 0;\n  ) :> {n/[z : nat(n)]}[*];\n} out [z : nat(0)]\n",
     "T_SUBST", "expected an equation"),
    ("coercion-misses-the-goal",
     "discipline ID;\nmain {\n  (\n    z := 0;\n  ) :> {n/[z : nat(n)]}[add(0, 0) = 0];\n} out [z : nat(0)]\n",
     "T_SUBST", "coercion yields [z : nat(add(0, 0))], the goal is [z : nat(0)]"),
    ("leading-unpack",
     "discipline ID;\nmain {\n  ?n.\n  z := 0;\n} out [z : nat(0)]\n",
     "TC_UPDATE_SEQ_II", "'?n.' may only follow"),
    ("existential-output-without-witness",
     "discipline ID;\nmain {\n  z := 0;\n} out exists v. [z : nat(v)]\n",
     "T_EMPTY", "a witness annotation is required"),
    ("jump-to-an-existential-continuation",
     "discipline ID;\nmain {\n  k : {\n    jump(k, 0)[z : nat(0)];\n    [0 in exists u. [z : nat(u)]]\n"
     "  } exists u. [z : nat(u)];\n  ?u.\n  [u in exists v. [z : nat(v)]]\n} out exists v. [z : nat(v)]\n",
     "T_JUMP", "instantiate it with '<:'"),
    ("pack-at-a-non-existential",
     "discipline FD;\ncst c = pack(0, 0 : nat(0));\n",
     "TC_EXISTS_I", "pack annotation nat(0) is not existential"),
    ("dependent-rec-step-without-lam",
     "discipline FD;\ncst c = rec{n. nat(n)}(0, 0, fn y : nat => y);\n",
     "TC_REC", "dependent rec step must be"),
    ("unpack-outside-a-match",
     "discipline FD;\ncst c = ?n. 0;\n",
     "TC_EXISTS", "only meaningful under a tuple match"),
    ("instantiated-non-universal",
     "discipline ID;\ncst p = proc [x : nat(0)] out [z : nat(0)] {\n  z := x;\n};\ncst q = p{0};\n",
     "T_PROC_INST", "instantiated a non-universal"),
]


@pytest.mark.parametrize("text, rule, message", [case[1:] for case in REJECTED], ids=[case[0] for case in REJECTED])
def test_check_source_rejects_with_the_rule(text, rule, message):
    report = pipeline.run_pipeline("rejected.loop", text=text)
    assert report.exit_code == pipeline.EXIT_SOURCE == 2
    [diag] = report.diagnostics
    assert diag["severity"] == "error" and diag["rule"] == rule and message in diag["message"], diag
