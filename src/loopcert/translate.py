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

The image shares what repeats, from tables of the `TranslateCtx` that
live for one translation and are keyed by name or value, as the
parser's are (hash-consing; Filliâtre & Conchon, "Type-Safe Modular
Hash-Consing", ML Workshop 2006): one `TVar` per name, one `TSucc` and
one `TPred` of it per name (the images of `inc` and `dec`) and one
numeral chain per value.  The translation counts the image's nodes as
it builds them, for the translate payload's `terms`: each node it
builds adds one, and each subtree it uses again adds that subtree's
size, memoised by id (`TranslateCtx.size`).  Such subtrees are the
shared variables, steps and numerals, the source's type atoms,
families and individuals, and a `for` frame's type list, which an FD
image holds twice.

Each walk tells nodes apart by their exact class (`type(e) is C`), the
most frequent cases first; only `translate_type` asks `isinstance`, of
the abstract class `Formula`.
"""

from __future__ import annotations

from typing import Any, Dict, List, Tuple

from . import envs
from . import syntax as S


class TranslateCtx:
    """Fresh-name supply for translation-introduced binders (_v namespace),
    the target discipline, "FS" or "FD", the tables of shared nodes and
    the node count of the image built so far (see the module docstring).

    `vars` holds the `TVar` of each source name that the image refers
    to, `succs` and `preds` the `TSucc` and `TPred` of each, and
    `numerals` the chain of each value.  A fresh name skips the names in
    `vars`, and is taken only once the image of its binder's scope is
    built, so it captures no name of the source.

    `terms` counts the image's nodes, as a walk of the image as a tree
    would: a shared node once for each place that holds it.  `sizes`
    memoises the size of each subtree used again by its id; each entry
    holds its subtree, so that no id is reused while it lives."""

    __slots__ = ("target", "vars", "succs", "preds", "numerals", "terms", "sizes", "_count")

    def __init__(self, target: str) -> None:
        self.target = target
        self.vars: Dict[str, S.TVar] = {}
        self.succs: Dict[str, S.TSucc] = {}
        self.preds: Dict[str, S.TPred] = {}
        self.numerals: Dict[int, S.Term] = {}
        self.terms = 0
        self.sizes: Dict[int, Tuple[Any, int]] = {}  # id(value) -> (value, its node count)
        self._count = 0

    def fresh(self) -> str:
        self._count += 1
        while f"_v{self._count}" in self.vars:
            self._count += 1
        return f"_v{self._count}"

    def var(self, name: str) -> S.TVar:
        """The shared TVar of a source name; the walks look `vars` up
        inline and call this on a miss."""
        var = self.vars[name] = S.TVar(name)
        return var

    def size(self, value: Any) -> int:
        """The node count of value (a node or a tuple of them), memoised by
        id; by one iterative walk, so that no nesting is too deep for it.
        A tuple, which the translation builds afresh, is the sum of its
        items'."""
        sizes = self.sizes
        if type(value) is tuple:
            count = 0
            for item in value:
                entry = sizes.get(id(item))
                count += self.size(item) if entry is None else entry[1]
            return count
        entry = sizes.get(id(value))
        if entry is not None:
            return entry[1]
        count, stack, fields = 0, [value], S.CHILD_FIELDS
        while stack:
            top = stack.pop()
            if type(top) is tuple:
                stack.extend(top)
            else:
                names = fields.get(type(top))
                if names is not None:  # else a name, an int or None
                    count += 1
                    for name in names:
                        stack.append(getattr(top, name))
        sizes[id(value)] = (value, count)
        return count


def fn_over_tuple(
    names: Tuple[str, ...], types: Tuple[S.Formula, ...], body: S.Term, tctx: TranslateCtx
) -> S.Term:
    """fn (x1 : t1, ..., xk : tk) => body, as a unary fn plus a match."""
    fresh = tctx.fresh()
    tctx.terms += 4 + tctx.size(types)
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
        tctx.terms += 1
        var = tctx.vars.get(e.name)
        if var is None:
            var = tctx.vars[e.name] = S.TVar(e.name)
        return var
    if cls is S.ENum:
        tctx.terms += 1 + e.value
        term = tctx.numerals.get(e.value)
        if term is None:
            term = S.TZero()
            for _ in range(e.value):
                term = S.TSucc(term)
            tctx.numerals[e.value] = term
        return term
    if cls is S.EProc:
        return translate_header(e.header, tctx)
    if cls is S.EStar:
        tctx.terms += 1
        return S.TTuple(())
    if cls is S.ECoerce:
        fam, body = e.fam, translate_type(e.fam.body)
        if body is not fam.body:  # a type atom is its own image, and so is its family
            fam = S.Fam(fam.var, body)
        tctx.terms += 1 + tctx.size(fam)
        return S.TCoerce(translate_expr(e.subject, tctx), fam, translate_expr(e.proof, tctx))
    if cls is S.EAxiom:
        tctx.terms += 1 + tctx.size(e.left) + tctx.size(e.right)
        return S.TAxiom(e.left, e.right)
    if cls is S.EInst:
        tctx.terms += 1 + tctx.size(e.arg)
        return S.TIndApp(translate_expr(e.fn, tctx), e.arg)
    if cls is S.EContInst:
        fn = translate_expr(e.fn, tctx)
        body_f = translate_output(e.fam.body)
        fresh = tctx.fresh()
        pack = S.TPack(e.arg, S.TVar(fresh), S.FExists(e.fam.var, body_f))
        ann = S.subst_ind(body_f, e.arg)
        # the fn, the application, the pack, its variable and its formula
        tctx.terms += 5 + tctx.size(ann) + tctx.size(e.arg) + tctx.size(body_f)
        return S.TFn(fresh, ann, S.TApp(fn, pack))
    raise AssertionError(e)


def translate_header(header: S.Header, tctx: TranslateCtx) -> S.Term:
    cls = type(header)
    if cls is S.HBase:
        names, types = envs.split(header.params)
        live, _ = envs.qsplit(header.out)
        inner = translate_seq(header.body, live, tctx)
        return fn_over_tuple(names, translate_types(types), inner, tctx)
    if cls is S.HForall:
        tctx.terms += 1
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
    shared = tctx.vars
    # the live names' variables, made before any item takes a fresh name
    threaded = tuple([shared.get(x) or tctx.var(x) for x in live])
    for item in s.items:
        cls = type(item)
        if cls is S.SSubst:
            _, phi = translate_qenv(item.fam.body)
            tctx.terms += 2 + tctx.size(phi)  # the coercion and its family
            end = S.TCoerce(
                translate_seq(item.body, live, tctx),
                S.Fam(item.fam.var, phi),
                translate_expr(item.proof, tctx),
            )
            break
        flat.append(item)
        if cls is S.SCst or cls is S.SVar:
            values.append(translate_expr(item.value, tctx))
    else:  # no closing group: the end is the live names' tuple
        tctx.terms += 1 + len(threaded)
        end = S.TTuple(threaded)
    term = end
    for item in reversed(flat):
        cls = type(item)
        if cls is S.SCst or cls is S.SVar:
            tctx.terms += 1
            term = S.TLet(item.name, values.pop(), term)
        elif cls is S.SUnpack:
            tctx.terms += 1
            term = S.TUnpack(item.var, term)
        elif cls is S.SWitness:
            _, phi = translate_qenv(item.ann)
            tctx.terms += 1 + tctx.size(item.witness) + tctx.size(phi)
            term = S.TPack(item.witness, term, phi)
        else:
            term = _translate_command(item, term, tctx)
    return term


def _translate_command(cmd: S.Command, tail: S.Term, tctx: TranslateCtx) -> S.Term:
    cls = type(cmd)  # the cases go most frequent first
    if cls is S.CAssign:
        tctx.terms += 1
        return S.TLet(cmd.name, translate_expr(cmd.value, tctx), tail)
    if cls is S.CInc:
        tctx.terms += 3  # the let, and the shared succ of the variable
        step = tctx.succs.get(cmd.name)
        if step is None:
            step = tctx.succs[cmd.name] = S.TSucc(tctx.vars.get(cmd.name) or tctx.var(cmd.name))
        return S.TLet(cmd.name, step, tail)
    if cls is S.CCall:
        tctx.terms += 3
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
        shared = tctx.vars
        tctx.terms += 1 + len(names)
        start = S.TTuple(tuple([shared.get(x) or tctx.var(x) for x in names]))
        if tctx.target == "FS":
            tctx.terms += 4  # the step's fn and nat, the rec, the match
            step = S.TFn(cmd.var, S.FNat(None), state)
            loop = S.TRec(translate_expr(cmd.bound, tctx), start, step)
        else:
            # the loop's index, which an index-free loop binds too
            hint = "i" if cmd.idx is None else cmd.idx
            # the lam, the step's fn, nat and index, the motive and its
            # tuple, the rec, the match
            tctx.terms += 8 + tctx.size(ftypes)
            step = S.TIndLam(hint, S.TFn(cmd.var, S.FNat(S.IBound(0)), state))
            motive = S.Fam(hint, S.FTuple(ftypes))
            loop = S.TRec(translate_expr(cmd.bound, tctx), start, step, motive)
        return S.TLetMatch(names, loop, tail)
    if cls is S.CDec:
        tctx.terms += 3  # the let, and the shared pred of the variable
        step = tctx.preds.get(cmd.name)
        if step is None:
            step = tctx.preds[cmd.name] = S.TPred(tctx.vars.get(cmd.name) or tctx.var(cmd.name))
        return S.TLet(cmd.name, step, tail)
    if cls is S.CBlock:
        names, _ = envs.qsplit(cmd.ann)
        tctx.terms += 1
        return S.TLetMatch(names, translate_seq(cmd.body, names, tctx), tail)
    if cls is S.CJump:
        names, phi = translate_qenv(cmd.ann)
        tctx.terms += 3 + tctx.size(phi)  # the match, the throw, its tuple
        throw = S.TThrow(
            phi,
            translate_expr(cmd.target, tctx),
            S.TTuple(tuple([translate_expr(a, tctx) for a in cmd.args])),
        )
        return S.TLetMatch(names, throw, tail)
    if cls is S.CLabel:
        names, phi = translate_qenv(cmd.ann)
        inner = translate_seq(cmd.body, names, tctx)
        neg = S.neg_f(phi)
        tctx.terms += 3 + tctx.size(neg)  # the match, the callcc, the fn
        return S.TLetMatch(names, S.TCallcc(S.TFn(cmd.name, neg, inner)), tail)
    raise AssertionError(cmd)
