"""Seeded generators of random untyped syntax (individuals, formulas,
propositions, outputs, protocols, environments and terms) for the
parser/printer round trips and the kernel properties.

vars_ holds the names in scope; the last `bound` of them, innermost
last, are of binders, the others are free.
"""

from __future__ import annotations

import random
from typing import Tuple

from loopcert import syntax as S

Rng = random.Random

IDENTS = ("x", "y", "z", "u", "v", "w", "r", "k", "a", "b", "c")


def gen_ind(rng: Rng, depth: int, vars_: Tuple[str, ...] = (), bound: int = 0) -> S.Ind:
    if depth <= 0 or rng.random() < 0.3:
        if vars_ and rng.random() < 0.5:
            name, binders = rng.choice(vars_), vars_[len(vars_) - bound:][::-1]
            return S.IBound(binders.index(name)) if name in binders else S.IVar(name)
        return S.num_ind(rng.randrange(0, 4))
    kind = rng.randrange(6)
    if kind == 0:
        return S.ISucc(gen_ind(rng, depth - 1, vars_, bound))
    if kind == 1:
        return S.IPred(gen_ind(rng, depth - 1, vars_, bound))
    if kind == 2:
        return S.IAdd(gen_ind(rng, depth - 1, vars_, bound), gen_ind(rng, depth - 1, vars_, bound))
    if kind == 3:
        return S.ISub(gen_ind(rng, depth - 1, vars_, bound), gen_ind(rng, depth - 1, vars_, bound))
    if kind == 4:
        return S.IMult(gen_ind(rng, depth - 1, vars_, bound), gen_ind(rng, depth - 1, vars_, bound))
    return S.IF32(gen_ind(rng, depth - 1, vars_, bound))


def gen_formula(rng: Rng, depth: int, vars_: Tuple[str, ...] = (), bound: int = 0) -> S.Formula:
    if depth <= 0:
        return rng.choice(
            [S.FTop(), S.FBot(), S.FNat(gen_ind(rng, 1, vars_, bound)), S.FProp(rng.choice(IDENTS).upper())]
        )
    kind = rng.randrange(8)
    if kind == 0:
        return S.FArrow(gen_formula(rng, depth - 1, vars_, bound), gen_formula(rng, depth - 1, vars_, bound))
    if kind == 1:
        return S.neg_f(gen_formula(rng, depth - 1, vars_, bound))
    if kind == 2:
        var = rng.choice(IDENTS)
        return S.FForall(var, gen_formula(rng, depth - 1, vars_ + (var,), bound + 1))
    if kind == 3:
        var = rng.choice(IDENTS)
        return S.FExists(var, gen_formula(rng, depth - 1, vars_ + (var,), bound + 1))
    if kind == 4:
        return S.FTuple(tuple(gen_formula(rng, depth - 1, vars_, bound) for _ in range(rng.randrange(0, 3))))
    if kind == 5:
        return S.FEq(gen_ind(rng, depth - 1, vars_, bound), gen_ind(rng, depth - 1, vars_, bound))
    if kind == 6:
        return S.FNat(gen_ind(rng, depth - 1, vars_, bound))
    return S.FTop()


def gen_prop(rng: Rng, depth: int, vars_: Tuple[str, ...] = (), bound: int = 0) -> S.Prop:
    if depth <= 0:
        return gen_formula(rng, 0, vars_, bound)
    kind = rng.randrange(6)
    if kind == 0:
        return S.PNeg(gen_output(rng, depth - 1, vars_, bound))
    if kind == 1:
        return S.proc_t(gen_proto(rng, depth - 1, vars_, bound))
    if kind == 2:
        return S.FEq(gen_ind(rng, depth - 1, vars_, bound), gen_ind(rng, depth - 1, vars_, bound))
    if kind == 3:
        return S.FNat(gen_ind(rng, depth - 1, vars_, bound))
    return gen_prop(rng, 0, vars_, bound)


def gen_output(rng: Rng, depth: int, vars_: Tuple[str, ...] = (), bound: int = 0) -> S.Output:
    if depth <= 0 or rng.random() < 0.5:
        return S.OSimple(tuple(gen_prop(rng, depth - 1, vars_, bound) for _ in range(rng.randrange(1, 3))))
    var = rng.choice(IDENTS)
    return S.OExists(var, gen_output(rng, depth - 1, vars_ + (var,), bound + 1))


def gen_proto(rng: Rng, depth: int, vars_: Tuple[str, ...] = (), bound: int = 0) -> S.Proto:
    if depth > 0 and rng.random() < 0.4:
        var = rng.choice(IDENTS)
        return S.ProtoAll(var, gen_proto(rng, depth - 1, vars_ + (var,), bound + 1))
    params = tuple(gen_prop(rng, max(depth - 1, 0), vars_, bound) for _ in range(rng.randrange(0, 3)))
    return S.ProtoBase(params, gen_output(rng, max(depth - 1, 0), vars_, bound))


def gen_qenv(rng: Rng, depth: int, vars_: Tuple[str, ...] = (), bound: int = 0) -> S.QEnv:
    if depth <= 0 or rng.random() < 0.5:
        names = rng.sample(IDENTS, rng.randrange(1, 4))
        return S.QSimple(tuple((x, gen_prop(rng, max(depth - 1, 0), vars_, bound)) for x in names))
    var = rng.choice(IDENTS)
    return S.QExists(var, gen_qenv(rng, depth - 1, vars_ + (var,), bound + 1))


def gen_term(
    rng: Rng, depth: int, vars_: Tuple[str, ...] = (), ivars: Tuple[str, ...] = (), ibound: int = 0
) -> S.Term:
    if depth <= 0:
        if vars_ and rng.random() < 0.6:
            return S.TVar(rng.choice(vars_))
        return S.TZero()
    kind = rng.randrange(12)
    if kind == 0:
        return S.TSucc(gen_term(rng, depth - 1, vars_, ivars, ibound))
    if kind == 1:
        var = rng.choice(IDENTS)
        ann = gen_formula(rng, depth - 1, ivars, ibound)
        return S.TFn(var, ann, gen_term(rng, depth - 1, vars_ + (var,), ivars, ibound))
    if kind == 2:
        return S.TApp(gen_term(rng, depth - 1, vars_, ivars, ibound), gen_term(rng, depth - 1, vars_, ivars, ibound))
    if kind == 3:
        var = rng.choice(IDENTS)
        return S.TIndLam(var, gen_term(rng, depth - 1, vars_, ivars + (var,), ibound + 1))
    if kind == 4:
        return S.TIndApp(gen_term(rng, depth - 1, vars_, ivars, ibound), gen_ind(rng, depth - 1, ivars, ibound))
    if kind == 5:
        return S.TTuple(tuple(gen_term(rng, depth - 1, vars_, ivars, ibound) for _ in range(rng.randrange(0, 3))))
    if kind == 6:
        var = rng.choice(IDENTS)
        value = gen_term(rng, depth - 1, vars_, ivars, ibound)
        return S.TLet(var, value, gen_term(rng, depth - 1, vars_ + (var,), ivars, ibound))
    if kind == 7:
        names = tuple(rng.sample(IDENTS, rng.randrange(1, 3)))
        value = gen_term(rng, depth - 1, vars_, ivars, ibound)
        return S.TLetMatch(names, value, gen_term(rng, depth - 1, vars_ + names, ivars, ibound))
    if kind == 8:
        var = rng.choice(IDENTS)
        return S.TPack(
            gen_ind(rng, depth - 1, ivars, ibound),
            gen_term(rng, depth - 1, vars_, ivars, ibound),
            S.FExists(var, gen_formula(rng, depth - 1, ivars + (var,), ibound + 1)),
        )
    if kind == 9:
        return S.TCallcc(gen_term(rng, depth - 1, vars_, ivars, ibound))
    if kind == 10:
        return S.TThrow(
            gen_formula(rng, depth - 1, ivars, ibound),
            gen_term(rng, depth - 1, vars_, ivars, ibound),
            gen_term(rng, depth - 1, vars_, ivars, ibound),
        )
    var = rng.choice(IDENTS)
    return S.TCoerce(
        gen_term(rng, depth - 1, vars_, ivars, ibound),
        S.Fam(var, gen_formula(rng, depth - 1, ivars + (var,), ibound + 1)),
        gen_term(rng, depth - 1, vars_, ivars, ibound),
    )
