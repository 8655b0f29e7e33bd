"""Scoping of the term environment in the FS and FD checkers.

Each binder (let, fn, let <..>, the step variable of a dependent rec)
binds its names for its body only: after the body, a shadowed outer
binding is visible again and a fresh name is unbound again.
"""

import pytest

from loopcert import dependent
from loopcert import syntax as S
from loopcert.errors import CheckError
from loopcert.parser import parse_formula, parse_term

# (term, type) pairs that check in both systems, FS type first
BOTH = [
    # inner let shadows an outer let; the outer binding is used after it
    ("let x = 0 in <(let x = <> in x), x>", "<<>, nat>", "<<>, nat(0)>"),
    # a fn parameter shadows an outer let
    ("let x = 0 in <(fn x : <> => x), x>", "<<> -> <>, nat>", "<<> -> <>, nat(0)>"),
    # a tuple match shadows an outer let
    ("let x = 0 in <(let <x, y> = <<>, <>> in x), x>", "<<>, nat>", "<<>, nat(0)>"),
    # a repeated name in a match: the last one wins inside, the outer one after
    ("let x = 0 in <(let <x, x> = <<>, <<>>> in x), x>", "<<<>>, nat>", "<<<>>, nat(0)>"),
    # a binding inside an application's function does not reach its argument
    ("let x = 0 in (let x = <> in fn y : nat => x) x", "<>", None),
    ("let x = 0 in (let x = <> in fn y : nat(0) => x) x", None, "<>"),
]


@pytest.mark.parametrize("text,fs_type,_", [c for c in BOTH if c[1]])
def test_fs_scopes(text, fs_type, _):
    assert S.alpha_eq(dependent.fs_check_term((), parse_term(text)), parse_formula(fs_type))


@pytest.mark.parametrize("text,_,fd_type", [c for c in BOTH if c[2]])
def test_fd_scopes(text, _, fd_type):
    assert S.alpha_eq(dependent.fd_check_term((), parse_term(text)), parse_formula(fd_type))


UNBOUND_AFTER = [
    "<(let y = 0 in y), y>",
    "<(fn y : <> => y), y>",
    "<(let <y> = <<>> in y), y>",
    "(fn y : <> => y) y",
]


@pytest.mark.parametrize("text", UNBOUND_AFTER)
@pytest.mark.parametrize("check", [dependent.fs_check_term, dependent.fd_check_term])
def test_binding_ends_with_its_body(check, text):
    with pytest.raises(CheckError) as err:
        check((), parse_term(text))
    assert err.value.rule == "TC_VAR"


REC = "rec{v.nat(v)}(x, 0, lam l. fn y : nat(l) => fn a : nat(l) => succ(a))"


def test_fd_rec_step_variable_is_scoped():
    t = parse_term(f"fn x : nat(succ(0)) => let y = <> in <{REC}, y>")
    assert S.alpha_eq(
        dependent.fd_check_term((), t), parse_formula("nat(succ(0)) -> <nat(succ(0)), <>>")
    )
    with pytest.raises(CheckError) as err:
        dependent.fd_check_term((), parse_term(f"fn x : nat(succ(0)) => <{REC}, y>"))
    assert err.value.rule == "TC_VAR"


@pytest.mark.parametrize("check", [dependent.fs_check_term, dependent.fd_check_term])
def test_tuple_environment_rightmost_wins(check):
    sigma = (("x", S.FNat(None)), ("x", S.FTuple(())))
    assert check(sigma, S.TVar("x")) == S.FTuple(())


@pytest.mark.parametrize("check", [dependent.fs_check_term, dependent.fd_check_term])
def test_caller_environment_is_not_changed(check):
    sigma = (("x", S.FTuple(())),)
    check(sigma, parse_term("let x = 0 in let z = x in z"))
    assert sigma == (("x", S.FTuple(())),)
