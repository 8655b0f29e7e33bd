"""The imperative-to-functional translation: ID to FD, with IS to FS as
its index-free fragment.

Types and terms translate by one definition.  A type atom (`nat(i)`,
`i = j`, `top`, `bot`, a proposition variable) is shared by both type
languages and is its own image; procedure types and negations become
arrows.  The only place where the
targets differ is the `for` loop: its FS image is a `rec` whose step
takes a plain `nat`, with no motive; its FD image abstracts the
iteration index and carries the frame as the motive.  Translation is
defined on checked programs and must be run after checking.

Each binder over individuals of an FD image stands for one of the
source, at the same place (a `for` image's `lam i.` and motive for the
loop's index, which an index-free loop binds too), so the indices of
the source are the image's and none is shifted.

Each walk tells nodes apart by their exact class (`type(e) is C`), the
most frequent cases first; only `translate_type` asks `isinstance`, of
the abstract class `Formula`.
"""

from __future__ import annotations

from typing import List, Set, Tuple

from . import envs
from . import syntax as S


class TranslateCtx:
    """Fresh-name supply for translation-introduced binders (_v namespace),
    and the target discipline, "FS" or "FD".

    `names` holds the source names that the image's variables built so
    far refer to: each `S.TVar` of a source name adds its name.  A fresh
    name skips them, and is taken only once the image of its binder's
    scope is built, so it captures no name of the source."""

    def __init__(self, target: str) -> None:
        self.target = target
        self.names: Set[str] = set()
        self._count = 0

    def fresh(self) -> str:
        self._count += 1
        while f"_v{self._count}" in self.names:
            self._count += 1
        return f"_v{self._count}"


def fn_over_tuple(
    names: Tuple[str, ...], types: Tuple[S.Formula, ...], body: S.Term, tctx: TranslateCtx
) -> S.Term:
    """fn (x1 : t1, ..., xk : tk) => body, as a unary fn plus a match."""
    fresh = tctx.fresh()
    return S.TFn(fresh, S.FTuple(types), S.TLetMatch(names, S.TVar(fresh), body))


# ---------------------------------------------------------------------------
# Types
# ---------------------------------------------------------------------------

def translate_type(p: S.Prop) -> S.Formula:
    if isinstance(p, S.Formula):  # an atom of both type languages is its own image
        return p
    cls = type(p)
    if cls is S.PProc:
        return translate_proto(p.proto)
    if cls is S.PNeg:
        # absent from the printed translation; the unique choice that
        # makes the label and jump translations well-typed
        return S.neg_f(translate_output(p.out))
    raise AssertionError(p)


def translate_types(types: Tuple[S.Prop, ...]) -> Tuple[S.Formula, ...]:
    return tuple([translate_type(p) for p in types])


def translate_output(out: S.Output) -> S.Formula:
    cls = type(out)
    if cls is S.OSimple:
        return S.FTuple(translate_types(out.types))
    if cls is S.OExists:
        return S.FExists(out.var, translate_output(out.body))
    raise AssertionError(out)


def translate_proto(rho: S.Proto) -> S.Formula:
    cls = type(rho)
    if cls is S.ProtoBase:
        return S.FArrow(S.FTuple(translate_types(rho.params)), translate_output(rho.out))
    if cls is S.ProtoAll:
        return S.FForall(rho.var, translate_proto(rho.body))
    raise AssertionError(rho)


def translate_qenv(theta: S.QEnv) -> Tuple[Tuple[str, ...], S.Formula]:
    """TR_QENV: the ident tuple together with the translated formula."""
    names, out = envs.qsplit(theta)
    return names, translate_output(out)


# ---------------------------------------------------------------------------
# Terms
# ---------------------------------------------------------------------------

def translate_expr(e: S.Expr, tctx: TranslateCtx) -> S.Term:
    cls = type(e)  # the cases go most frequent first
    if cls is S.EVar:
        tctx.names.add(e.name)
        return S.TVar(e.name)
    if cls is S.ENum:
        term: S.Term = S.TZero()
        for _ in range(e.value):
            term = S.TSucc(term)
        return term
    if cls is S.EProc:
        return translate_header(e.header, tctx)
    if cls is S.EStar:
        return S.TTuple(())
    if cls is S.ECoerce:
        fam, body = e.fam, translate_type(e.fam.body)
        if body is not fam.body:  # a type atom is its own image, and so is its family
            fam = S.Fam(fam.var, body)
        return S.TCoerce(translate_expr(e.subject, tctx), fam, translate_expr(e.proof, tctx))
    if cls is S.EAxiom:
        return S.TAxiom(e.left, e.right)
    if cls is S.EInst:
        return S.TIndApp(translate_expr(e.fn, tctx), e.arg)
    if cls is S.EContInst:
        fn = translate_expr(e.fn, tctx)
        body_f = translate_output(e.fam.body)
        fresh = tctx.fresh()
        pack = S.TPack(e.arg, S.TVar(fresh), S.FExists(e.fam.var, body_f))
        return S.TFn(fresh, S.subst_ind(body_f, e.arg), S.TApp(fn, pack))
    raise AssertionError(e)


def translate_header(header: S.Header, tctx: TranslateCtx) -> S.Term:
    cls = type(header)
    if cls is S.HBase:
        names, types = envs.split(header.params)
        live, _ = envs.qsplit(header.out)
        inner = translate_seq(header.body, live, tctx)
        return fn_over_tuple(names, translate_types(types), inner, tctx)
    if cls is S.HForall:
        return S.TIndLam(header.var, translate_header(header.body, tctx))
    raise AssertionError(header)


def translate_seq(s: S.Seq, live: Tuple[str, ...], tctx: TranslateCtx) -> S.Term:
    """State-passing translation; live is the ident vector threaded through.

    The image nests each item's binder around the image of the items
    after it, so it is built in two loops.  The first, front to back,
    translates what is translated before the items after it: a
    declaration's value, and a closing `:>` group.  The second, back to
    front, wraps the end in each item; a command is translated there,
    after the items that follow it, which fixes the numbering of fresh
    names."""
    flat: List = []
    values: List[S.Term] = []
    tctx.names.update(live)
    end: S.Term = S.TTuple(tuple([S.TVar(x) for x in live]))
    for item in s.items:
        cls = type(item)
        if cls is S.SSubst:
            _, phi = translate_qenv(item.fam.body)
            end = S.TCoerce(
                translate_seq(item.body, live, tctx),
                S.Fam(item.fam.var, phi),
                translate_expr(item.proof, tctx),
            )
            break
        flat.append(item)
        if cls is S.SCst or cls is S.SVar:
            values.append(translate_expr(item.value, tctx))
    term = end
    for item in reversed(flat):
        cls = type(item)
        if cls is S.SCst or cls is S.SVar:
            term = S.TLet(item.name, values.pop(), term)
        elif cls is S.SUnpack:
            term = S.TUnpack(item.var, term)
        elif cls is S.SWitness:
            _, phi = translate_qenv(item.ann)
            term = S.TPack(item.witness, term, phi)
        else:
            term = _translate_command(item, term, tctx)
    return term


def _translate_command(cmd: S.Command, tail: S.Term, tctx: TranslateCtx) -> S.Term:
    cls = type(cmd)  # the cases go most frequent first
    if cls is S.CAssign:
        return S.TLet(cmd.name, translate_expr(cmd.value, tctx), tail)
    if cls is S.CInc:
        tctx.names.add(cmd.name)
        return S.TLet(cmd.name, S.TSucc(S.TVar(cmd.name)), tail)
    if cls is S.CCall:
        call = S.TApp(
            translate_expr(cmd.fn, tctx),
            S.TTuple(tuple([translate_expr(a, tctx) for a in cmd.args])),
        )
        return S.TLetMatch(cmd.outs, call, tail)
    if cls is S.CFor:
        names, types = envs.split(cmd.frame)
        ftypes = translate_types(types)
        inner = translate_seq(cmd.body, names, tctx)
        state = fn_over_tuple(names, ftypes, inner, tctx)
        tctx.names.update(names)
        start = S.TTuple(tuple([S.TVar(x) for x in names]))
        if tctx.target == "FS":
            step = S.TFn(cmd.var, S.FNat(None), state)
            loop = S.TRec(translate_expr(cmd.bound, tctx), start, step)
        else:
            # the loop's index, which an index-free loop binds too
            hint = "i" if cmd.idx is None else cmd.idx
            step = S.TIndLam(hint, S.TFn(cmd.var, S.FNat(S.IBound(0)), state))
            motive = S.Fam(hint, S.FTuple(ftypes))
            loop = S.TRec(translate_expr(cmd.bound, tctx), start, step, motive)
        return S.TLetMatch(names, loop, tail)
    if cls is S.CDec:
        tctx.names.add(cmd.name)
        return S.TLet(cmd.name, S.TPred(S.TVar(cmd.name)), tail)
    if cls is S.CBlock:
        names, _ = envs.qsplit(cmd.ann)
        return S.TLetMatch(names, translate_seq(cmd.body, names, tctx), tail)
    if cls is S.CJump:
        names, phi = translate_qenv(cmd.ann)
        throw = S.TThrow(
            phi,
            translate_expr(cmd.target, tctx),
            S.TTuple(tuple([translate_expr(a, tctx) for a in cmd.args])),
        )
        return S.TLetMatch(names, throw, tail)
    if cls is S.CLabel:
        names, phi = translate_qenv(cmd.ann)
        inner = translate_seq(cmd.body, names, tctx)
        return S.TLetMatch(names, S.TCallcc(S.TFn(cmd.name, S.neg_f(phi), inner)), tail)
    raise AssertionError(cmd)
