"""The imperative-to-functional translation: ID to FD, with IS to FS as
its index-free fragment.

Types and terms translate by one definition.  The only place where the
targets differ is the `for` loop: its FS image is a `rec` whose step
takes a plain `nat`, with no motive; its FD image abstracts the
iteration index and carries the frame as the motive.  Translation is
defined on checked programs and must be run after checking.
"""

from __future__ import annotations

from typing import List, Tuple

from . import envs
from . import syntax as S


class TranslateCtx:
    """Fresh-name supply for translation-introduced binders (_v namespace),
    and the target discipline, "FS" or "FD"."""

    def __init__(self, target: str) -> None:
        self.target = target
        self._count = 0

    def fresh(self) -> str:
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
    match p:
        case S.PProp(name):
            return S.FProp(name)
        case S.PTop():
            return S.FTop()
        case S.PBot():
            return S.FBot()
        case S.PNat(idx):
            return S.FNat(idx)
        case S.PEq(left, right):
            return S.FEq(left, right)
        case S.PProc(proto):
            return translate_proto(proto)
        case S.PNeg(out):
            # absent from the printed translation; the unique choice that
            # makes the label and jump translations well-typed
            return S.neg_f(translate_output(out))
    raise AssertionError(p)


def translate_types(types: Tuple[S.Prop, ...]) -> Tuple[S.Formula, ...]:
    return tuple(translate_type(p) for p in types)


def translate_output(out: S.Output) -> S.Formula:
    match out:
        case S.OSimple(types):
            return S.FTuple(translate_types(types))
        case S.OExists(var, body):
            return S.FExists(var, translate_output(body))
    raise AssertionError(out)


def translate_proto(rho: S.Proto) -> S.Formula:
    match rho:
        case S.ProtoBase(params, out):
            return S.FArrow(S.FTuple(translate_types(params)), translate_output(out))
        case S.ProtoAll(var, body):
            return S.FForall(var, translate_proto(body))
    raise AssertionError(rho)


def translate_qenv(theta: S.QEnv) -> Tuple[Tuple[str, ...], S.Formula]:
    """TR_QENV: the ident tuple together with the translated formula."""
    names, out = envs.qsplit(theta)
    return names, translate_output(out)


# ---------------------------------------------------------------------------
# Terms
# ---------------------------------------------------------------------------

def translate_expr(e: S.Expr, tctx: TranslateCtx) -> S.Term:
    match e:
        case S.ENum(value):
            term: S.Term = S.TZero()
            for _ in range(value):
                term = S.TSucc(term)
            return term
        case S.EVar(name):
            return S.TVar(name)
        case S.EStar():
            return S.TTuple(())
        case S.EAxiom(left, right):
            return S.TAxiom(left, right)
        case S.EProc(header):
            return translate_header(header, tctx)
        case S.EInst(fn, arg):
            return S.TIndApp(translate_expr(fn, tctx), arg)
        case S.EContInst(fn, fam, arg):
            body_f = translate_output(fam.body)
            fresh = tctx.fresh()
            pack = S.TPack(arg, S.TVar(fresh), S.FExists(fam.var, body_f))
            return S.TFn(
                fresh,
                S.subst_ind(body_f, fam.var, arg),
                S.TApp(translate_expr(fn, tctx), pack),
            )
        case S.ECoerce(subject, fam, proof):
            return S.TCoerce(
                translate_expr(subject, tctx),
                S.Fam(fam.var, translate_type(fam.body)),
                translate_expr(proof, tctx),
            )
    raise AssertionError(e)


def translate_header(header: S.Header, tctx: TranslateCtx) -> S.Term:
    match header:
        case S.HForall(var, body):
            return S.TIndLam(var, translate_header(body, tctx))
        case S.HBase(params, out, body):
            names, types = envs.split(params)
            live, _ = envs.qsplit(out)
            inner = translate_seq(body, live, tctx)
            return fn_over_tuple(names, translate_types(types), inner, tctx)
    raise AssertionError(header)


def translate_seq(s: S.Seq, live: Tuple[str, ...], tctx: TranslateCtx) -> S.Term:
    """State-passing translation; live is the ident vector threaded through.

    The image nests each item's binder around the image of the items
    after it, so it is built in two loops.  The first, front to back,
    follows the sequence into the rest of a `?n.` or a witness and
    translates what is translated before the rest: a declaration's value,
    and a closing `:>` group.  The second, back to front, wraps the end
    in each item; a command is translated there, after the items that
    follow it, which fixes the numbering of fresh names."""
    flat: List = []
    values: List[S.Term] = []
    end: S.Term = S.TTuple(tuple(S.TVar(x) for x in live))
    items, k = s.items, 0
    while k < len(items):
        item = items[k]
        k += 1
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
        elif cls is S.SUnpack or cls is S.SWitness:
            items, k = item.rest.items, 0
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
    match cmd:
        case S.CAssign(name, value):
            return S.TLet(name, translate_expr(value, tctx), tail)
        case S.CInc(name):
            return S.TLet(name, S.TSucc(S.TVar(name)), tail)
        case S.CDec(name):
            return S.TLet(name, S.TPred(S.TVar(name)), tail)
        case S.CCall(fn, args, outs):
            call = S.TApp(
                translate_expr(fn, tctx),
                S.TTuple(tuple(translate_expr(a, tctx) for a in args)),
            )
            return S.TLetMatch(outs, call, tail)
        case S.CBlock(body, ann):
            names, _ = envs.qsplit(ann)
            return S.TLetMatch(names, translate_seq(body, names, tctx), tail)
        case S.CLabel(name, body, ann):
            names, phi = translate_qenv(ann)
            inner = translate_seq(body, names, tctx)
            return S.TLetMatch(names, S.TCallcc(S.TFn(name, S.neg_f(phi), inner)), tail)
        case S.CJump(target, args, ann):
            names, phi = translate_qenv(ann)
            throw = S.TThrow(
                phi,
                translate_expr(target, tctx),
                S.TTuple(tuple(translate_expr(a, tctx) for a in args)),
            )
            return S.TLetMatch(names, throw, tail)
        case S.CFor(var, idx, bound, body, frame):
            names, types = envs.split(frame)
            ftypes = translate_types(types)
            inner = translate_seq(body, names, tctx)
            state = fn_over_tuple(names, ftypes, inner, tctx)
            start = S.TTuple(tuple(S.TVar(x) for x in names))
            if tctx.target == "FS":
                step = S.TFn(var, S.FNat(None), state)
                loop = S.TRec(translate_expr(bound, tctx), start, step)
            else:
                if idx is None:
                    idx = S._fresh_name("i", S.free_ind_vars(types) | {var})
                step = S.TIndLam(idx, S.TFn(var, S.FNat(S.IVar(idx)), state))
                motive = S.Fam(idx, S.FTuple(ftypes))
                loop = S.TRec(translate_expr(bound, tctx), start, step, motive)
            return S.TLetMatch(names, loop, tail)
    raise AssertionError(cmd)
