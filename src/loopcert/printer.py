"""Deterministic pretty-printer.

Output stays within the concrete grammar so that parse(print(x)) == x.

It is one writer, linear in the length of its output: each node appends
its pieces to one list, which each public entry point joins once.  Nodes
are told apart by their exact class.  Binder chains, quantifier
prefixes, the last child of a term and sequence items are walked in
loops, and a nested body gets its indentation as a prefix passed down.
A nesting level takes one host frame, or two inside brackets (a tuple,
`succ(...)`, `rec(...)`), never more than the checkers take for it.

A binder over individuals is named with the first of its hint `n`,
`n_2`, ... that is neither free in its body nor the name of a binder
around it that its body refers to.  That is known only once the body is
written, so the list holds the binder, not its name, wherever the name
goes, and the names are chosen outermost first when it is joined.
"""

from __future__ import annotations

from operator import itemgetter
from typing import Any, Callable

from . import syntax as S


class Out(list):
    """The pieces of a text: strings, and binders [name, free names of its
    body, binders around it that its body refers to, by id].  `scope`
    holds the binders around what is being written, innermost last."""

    __slots__ = ("scope", "binders")


def _bind(out: Out, before: str, hint: Any, after: str) -> None:
    """Write a binder with hint between before and after; it scopes over
    what is written until it leaves out.scope."""
    binder = [hint, set(), {}]
    out.binders.append(binder)
    out.extend((before, binder, after))
    out.scope.append(binder)


def show(node: Any) -> str:
    """Render any syntax value; a tuple as its items, separated by commas."""
    if isinstance(node, tuple):
        return ", ".join(show(x) for x in node)
    return _text(_SHOW[type(node)], node)


def show_term(t: S.Term) -> str:
    return _text(_term, t)


def show_env(env: S.Env) -> str:
    return _text(_env, env)


def show_qenv(q: S.QEnv) -> str:
    return _text(_prop, q)


def show_file(f: S.SourceFile) -> str:
    return _text(_file, f)


def _text(write: Callable, node: Any) -> str:
    out = Out()
    out.scope, out.binders = [], []
    write(node, out)
    for binder in out.binders:  # outermost first
        stem, free, refs = binder
        taken = free.union(map(itemgetter(0), refs.values()))
        k = 2
        while binder[0] in taken:
            binder[0] = f"{stem}_{k}"
            k += 1
    return "".join([x if type(x) is str else x[0] for x in out] if out.binders else out)


def _file(f: S.SourceFile, out: Out) -> None:
    functional = f.discipline in ("FS", "FD")
    out.append(f"discipline {f.discipline};\n")
    for name, value in f.csts:
        _list(out, f"\ncst {name} = ", (value,), ";\n", _term if functional else _expr)
    if f.main is not None and functional:
        _list(out, "\nmain = ", (f.main.term,), ";\n", _term)
    elif f.main is not None:
        out.append("\nmain {\n")
        _seq(f.main.body, out, "  ")
        _list(out, "} out ", (f.main.out,), "\n", _prop)


def _list(out: Out, before: str, items: Any, after: str, write: Callable, *args: Any) -> None:
    """Write items, separated by commas, between before and after."""
    for x in items:
        out.append(before)
        write(x, out, *args)
        before = ", "
    out.append(after if items else before + after)


_IND_HEADS = {S.ISucc: "succ(", S.IPred: "pred(", S.IF32: "F32(",
              S.IAdd: "add(", S.ISub: "sub(", S.IMult: "mult("}
_NAMES = {S.IZero: "0", S.FNat: "nat", S.FTop: "top", S.FBot: "bot", S.EStar: "*"}


def _ind(i: S.Ind, out: Out, before: str = "", after: str = "") -> None:
    """Write individual i between before and after."""
    out.append(before)
    depth = 0  # the right spine is walked in the loop
    while type(i) in _IND_HEADS:
        out.append(_IND_HEADS[type(i)])
        depth += 1
        if type(i) in (S.ISucc, S.IPred, S.IF32):
            i = i.arg
        else:
            _ind(i.left, out, "", ", ")
            i = i.right
    cls = type(i)
    if cls is S.IBound:
        binder = out.scope[-1 - i.index]
        for inner in out.scope[len(out.scope) - i.index:]:  # they must not take its name
            inner[2][id(binder)] = binder
        out.extend((binder, ")" * depth + after))
        return
    if cls is S.IVar:
        for around in out.scope:
            around[1].add(i.name)
    out.append((i.name if cls is S.IVar else _NAMES[cls]) + ")" * depth + after)


# -- types ------------------------------------------------------------------

def _formula(phi: S.Formula, out: Out, ctx: int = 0) -> None:
    """ctx is phi's position: 0 anywhere, 1 an arrow's domain, 2 an atom
    position.  A form that binds looser is put in parentheses."""
    close = 0
    scoped = len(out.scope)
    while True:
        cls = type(phi)
        if cls is S.FArrow:
            neg = S.as_neg_f(phi)
            if ctx > (0 if neg is None else 1):
                out.append("(")
                close += 1
            if neg is None:
                _formula(phi.dom, out, 1)
                out.append(" -> ")
                phi, ctx = phi.cod, 0
            else:
                out.append("~")
                phi, ctx = neg, 2
        elif cls is S.FForall or cls is S.FExists:
            if ctx:
                out.append("(")
                close += 1
            _bind(out, "forall " if cls is S.FForall else "exists ", phi.var, ". ")
            phi, ctx = phi.body, 0
        else:
            break
    if cls is S.FNat and phi.index is not None:
        _ind(phi.index, out, "nat(", ")")
    elif cls is S.FTuple:
        _list(out, "<", phi.items, ">", _formula)
    elif cls is S.FEq:
        _ind(phi.left, out, "(", " = ")
        _ind(phi.right, out, "", ")")
    else:
        out.append(phi.name if cls is S.FProp else _NAMES[cls])
    out.append(")" * close)
    del out.scope[scoped:]


def _prop(p: Any, out: Out, ctx: int = 2) -> None:
    """An imperative-side type: a prop, an output, a prototype or a
    quantified environment.  A prop that is a formula is printed as a
    formula at position ctx (an atom, unless in an environment)."""
    scoped = len(out.scope)
    while True:
        cls = type(p)
        if cls is S.OExists or cls is S.QExists or cls is S.ProtoAll:
            _bind(out, "forall " if cls is S.ProtoAll else "exists ", p.var, ". ")
            p = p.body
        elif cls is S.PProc:
            out.append("proc ")
            p = p.proto
        elif cls is S.PNeg and type(p.out) is not S.OSimple:
            out.append("~")
            p = p.out
        else:
            break
    if cls is S.OSimple:
        _list(out, "[", p.types, "]", _prop)
    elif cls is S.PNeg:
        _list(out, "~(", p.out.types, ")", _prop)
    elif cls is S.QSimple:
        _env(p.env, out)
    elif cls is S.ProtoBase:
        _list(out, "([", p.params, "] out ", _prop)
        _prop(p.out, out)
        out.append(")")
    else:
        _formula(p, out, ctx)
    del out.scope[scoped:]


def _env(env: S.Env, out: Out) -> None:
    out.append("[")
    for k, (x, t) in enumerate(env):
        out.append(f", {x} : " if k else f"{x} : ")
        _prop(t, out, 0)
    out.append("]")


# -- functional terms -------------------------------------------------------

# how tightly each form binds: 2 an atom, 1 an application, 0 the rest
_TERM_PREC = {S.TVar: 2, S.TZero: 2, S.TSucc: 2, S.TPred: 2, S.TTuple: 2, S.TRec: 2, S.TPack: 2,
              S.TApp: 1, S.TIndApp: 1}


def _term(t: S.Term, out: Out, ctx: int = 0) -> None:
    """ctx is t's position: 0 anywhere, 1 the function of an application,
    2 an argument or other atom position.  A form that binds looser is
    put in parentheses.  The loop walks the last child of a non-atom."""
    if type(t) is S.TVar:  # the most frequent call, taken before the loop
        out.append(t.name)
        return
    closers = []
    scoped = len(out.scope)
    while True:
        cls = type(t)
        prec = _TERM_PREC.get(cls, 0)
        if prec == 2:
            break
        if prec < ctx:
            out.append("(")
            closers.append(")")
        if cls is S.TLet or cls is S.TLetMatch:
            out.append(f"let {t.name} = " if cls is S.TLet else f"let <{', '.join(t.names)}> = ")
            _term(t.value, out)
            out.append(" in ")
            t, ctx = t.body, 0
        elif cls is S.TApp:
            _term(t.fn, out, 1)
            out.append(" ")
            t, ctx = t.arg, 2
        elif cls is S.TFn:
            out.append(f"fn {t.param} : ")
            _formula(t.ann, out)
            out.append(" => ")
            t, ctx = t.body, 0
        elif cls is S.TIndLam or cls is S.TUnpack:
            _bind(out, "lam " if cls is S.TIndLam else "?", t.var, ". ")
            t, ctx = t.body, 0
        elif cls is S.TCoerce:
            _term(t.subject, out, 1)
            _family(out, " :> {", t.fam, "/", _formula, "}[")
            closers.append("]")
            t, ctx = t.proof, 0
        elif cls is S.TThrow:
            _list(out, "throw[", (t.ann,), "] ", _formula)
            _term(t.cont, out, 2)
            out.append(" ")
            t, ctx = t.arg, 2
        elif cls is S.TCallcc:
            out.append("callcc ")
            t, ctx = t.arg, 2
        else:
            break
    if cls is S.TVar:
        out.append(t.name)
    elif cls is S.TTuple:
        _list(out, "<", t.items, ">", _term)
    elif cls is S.TIndApp:
        _term(t.fn, out, 1)
        _ind(t.arg, out, "{", "}")
    elif cls is S.TZero:
        out.append("0")
    elif cls is S.TSucc or cls is S.TPred:
        _list(out, "succ(" if cls is S.TSucc else "pred(", (t.arg,), ")", _term)
    elif cls is S.TRec:
        if t.motive is not None:
            _family(out, "rec{", t.motive, ".", _formula, "}")
        _list(out, "(" if t.motive else "rec(", (t.bound, t.base, t.step), ")", _term)
    elif cls is S.TAxiom:
        _ind(t.left, out, "", " = ")
        _ind(t.right, out)
    elif cls is S.TPack:
        _ind(t.witness, out, "pack(", ", ")
        _term(t.value, out)
        _list(out, " : ", (t.ann,), ")", _formula)
    else:
        raise AssertionError(t)
    if closers:
        out.extend(reversed(closers))
    del out.scope[scoped:]


def _family(out: Out, before: str, fam: S.Fam, sep: str, write: Callable, after: str) -> None:
    _bind(out, before, fam.var, sep)
    write(fam.body, out)
    out.scope.pop()
    out.append(after)


# -- imperative expressions, sequences and commands -------------------------

def _expr(e: S.Expr, out: Out, ind: str = "", post: bool = False) -> None:
    """ind prefixes the lines of a proc literal's body after the first.  As
    the subject of a postfix form (post), an equation is parenthesised."""
    cls = type(e)
    if cls is S.EVar or cls is S.ENum:
        out.append(e.name if cls is S.EVar else str(e.value))
    elif cls is S.EInst or cls is S.EContInst:
        _expr(e.fn, out, ind, True)
        if cls is S.EContInst:
            _family(out, " <: {", e.fam, "/", _prop, "}")
        _ind(e.arg, out, "{", "}")
    elif cls is S.ECoerce:
        _expr(e.subject, out, ind, True)
        _family(out, " :> {", e.fam, "/", _prop, "}[")
        _expr(e.proof, out, ind)
        out.append("]")
    elif cls is S.EProc:
        out.append("proc ")
        h = e.header
        scoped = len(out.scope)
        while type(h) is S.HForall:
            _bind(out, "forall ", h.var, ". ")
            h = h.body
        _env(h.params, out)
        _list(out, " out ", (h.out,), " {\n", _prop)
        _seq(h.body, out, ind + "  ")
        out.append(ind + "}")
        del out.scope[scoped:]
    elif cls is S.EAxiom:
        _ind(e.left, out, "(" if post else "", " = ")
        _ind(e.right, out, "", ")" if post else "")
    else:
        out.append(_NAMES[cls])


_ASSIGNS = {S.CAssign: "{} := ", S.SVar: "var {} := ", S.SCst: "cst {} = "}


def _seq(s: S.Seq, out: Out, ind: str) -> None:
    """The items of s, one a line, each line (a nested body's too)
    prefixed with ind and ended by a newline."""
    inner = ind + "  "
    scoped = len(out.scope)
    for item in s.items:
        cls = type(item)
        out.append(ind)
        if cls is S.CInc or cls is S.CDec:
            out.append(f"{'inc' if cls is S.CInc else 'dec'}({item.name});")
        elif cls in _ASSIGNS:
            out.append(_ASSIGNS[cls].format(item.name))
            _expr(item.value, out, ind)
            out.append(";")
        elif cls is S.CCall:
            _expr(item.fn, out, ind, True)
            _list(out, "(", item.args, f"; {', '.join(item.outs)});", _expr, ind)
        elif cls is S.CFor:
            if item.idx is None:  # the index that no name refers to
                out.append(f"for {item.var} := 0 until ")
                binder = [None, set(), {}]
            else:
                _bind(out, f"for {item.var} : nat(", item.idx, ") := 0 until ")
                binder = out.scope.pop()
            _expr(item.bound, out, ind)
            out.append(" {\n")
            out.scope.append(binder)  # over the body and the frame
            _seq(item.body, out, inner)
            _list(out, ind + "}", (item.frame,), ";", _env)
            out.scope.pop()
        elif cls is S.CBlock or cls is S.CLabel:
            out.append("{\n" if cls is S.CBlock else f"{item.name} : {{\n")
            _seq(item.body, out, inner)
            _list(out, ind + "}", (item.ann,), ";", _prop)
        elif cls is S.CJump:
            out.append("jump(")
            _expr(item.target, out, ind, True)
            for arg in item.args:
                out.append(", ")
                _expr(arg, out, ind)
            _list(out, ")", (item.ann,), ";", _prop)
        elif cls is S.SUnpack:
            _bind(out, "?", item.var, ".")
        elif cls is S.SWitness:
            _ind(item.witness, out, "[", " in ")
            _prop(item.ann, out)
            out.append("]")
        elif cls is S.SSubst:
            out.append("(\n")
            _seq(item.body, out, inner)
            _family(out, ind + ") :> {", item.fam, "/", _prop, "}[")
            _expr(item.proof, out, ind)
            out.append("];")
        else:
            raise AssertionError(item)
        out.append("\n")
    del out.scope[scoped:]


def _lines(s: S.Seq, out: Out) -> None:
    """A sequence on its own: its items one a line, with no final newline."""
    _seq(s, out, "")
    if s.items:
        out.pop()


# show's writer for every node class: that of the first category it is in
_CATEGORIES = (
    (S.Ind, _ind), (S.Formula, _formula), (S.Prop, _prop), (S.Output, _prop), (S.Proto, _prop),
    (S.QEnv, _prop), (S.Term, _term), (S.Expr, _expr), (S.Seq, _lines),
    (S.Command, lambda c, out: _lines(S.Seq((c,)), out)),
    (S.SourceFile, _file),
    (S.Header, lambda h, out: _expr(S.EProc(h), out)),
)
_SHOW = {cls: write for base, write in reversed(_CATEGORIES)
         for cls in vars(S).values() if isinstance(cls, type) and issubclass(cls, base)}
