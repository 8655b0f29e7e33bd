"""The two type languages share their atoms and their equality rules.

`nat(i)`, `i = j`, `top`, `bot` and proposition variables are one set of
classes on both sides, so an imperative type atom is its own translation,
and the axiom and coercion rules give the same types in FD and in ID.
"""

import pytest

from loopcert import dependent, translate
from loopcert import syntax as S
from loopcert.errors import CheckError
from loopcert.parser import parse_expr, parse_formula, parse_prop, parse_term

ATOMS = ["nat", "nat(succ(n))", "top", "bot", "P", "m = add(0, m)"]


@pytest.mark.parametrize("text", ATOMS)
def test_an_atom_parses_alike_in_both_languages(text):
    atom = parse_prop(text)
    assert atom == parse_formula(text)
    assert isinstance(atom, S.Formula) and isinstance(atom, S.Prop)


@pytest.mark.parametrize("text", ATOMS)
def test_an_atom_is_its_own_translation(text):
    atom = parse_prop(text)
    assert translate.translate_type(atom) is atom


def _both(sigma, text):
    """The FD type and trace of text as a term, and its ID type and trace
    as an expression, with the same constants in scope."""
    fd_trace, id_trace = [], []
    fd_ty = dependent.fd_check_term(sigma, parse_term(text), dependent.CheckCtx(trace=fd_trace))
    id_ty = dependent.id_check_expr(sigma, (), parse_expr(text), dependent.CheckCtx(trace=id_trace))
    return fd_ty, fd_trace, id_ty, id_trace


def test_the_axiom_rule_is_one_rule():
    fd_ty, fd_trace, id_ty, id_trace = _both((), "add(0, m) = m")
    assert fd_ty == id_ty == parse_prop("add(0, m) = m")
    assert (fd_trace, id_trace) == (["TC_AX_I"], ["T_AX_I"])
    fd_ty, fd_trace, id_ty, id_trace = _both((), "m = add(0, m)")
    assert fd_ty == id_ty
    assert (fd_trace, id_trace) == (["TC_AX_II"], ["T_AX_II"])


def test_the_coercion_rule_is_one_rule():
    sigma = (("x", parse_prop("nat(m)")),)
    fd_ty, fd_trace, id_ty, id_trace = _both(sigma, "x :> {i/nat(i)}[add(0, m) = m]")
    assert fd_ty == id_ty == parse_prop("nat(add(0, m))")
    # the proof is checked before the subject
    assert fd_trace == ["TC_AX_I", "TC_VAR", "TC_EQUAL_E"]
    assert id_trace == ["T_AX_I", "T_ENV_I", "T_EQUAL_E"]


@pytest.mark.parametrize(
    "text, fd_rule, id_rule, message",
    [
        ("add(0, m) = succ(m)", "TC_AX", "T_AX", "'add(0, m) = succ(m)' is not an axiom instance"),
        ("x :> {i/nat(i)}[x]", "TC_EQUAL_E", "T_EQUAL_E", "coercion proof has type nat(m), expected an equation"),
        (
            "x :> {i/nat(i)}[m = add(0, m)]",
            "TC_EQUAL_E",
            "T_EQUAL_E",
            "subject has type nat(m), expected nat(add(0, m))",
        ),
    ],
)
def test_both_rules_fail_alike(text, fd_rule, id_rule, message):
    sigma = (("x", parse_prop("nat(m)")),)
    with pytest.raises(CheckError) as fd_err:
        dependent.fd_check_term(sigma, parse_term(text))
    with pytest.raises(CheckError) as id_err:
        dependent.id_check_expr(sigma, (), parse_expr(text))
    assert (fd_err.value.rule, id_err.value.rule) == (fd_rule, id_rule)
    assert fd_err.value.message == id_err.value.message == message
