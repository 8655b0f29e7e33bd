"""Deterministic pretty-printer.

Output stays within the concrete grammar so that parse(print(x)) is
alpha-equal to x for every node; binder names are printed verbatim.
"""

from __future__ import annotations

from typing import Any

from . import syntax as S


def show(node: Any) -> str:
    """Render any syntax value."""
    match node:
        case S.Ind():
            return show_ind(node)
        case S.Formula():
            return show_formula(node)
        case S.Prop():
            return show_prop(node)
        case S.Output():
            return show_output(node)
        case S.Proto():
            return show_proto(node)
        case S.QEnv():
            return show_qenv(node)
        case S.Term():
            return show_term(node)
        case S.Expr():
            return show_expr(node)
        case S.Seq():
            return show_seq(node)
        case S.Command():
            return show_command(node)
        case S.SourceFile():
            return show_file(node)
        case S.Header():
            return "proc " + show_header(node)
        case tuple():
            return ", ".join(show(x) for x in node)
    raise AssertionError(f"unprintable: {node!r}")


# -- individuals ------------------------------------------------------------

def show_ind(i: S.Ind) -> str:
    match i:
        case S.IVar(name):
            return name
        case S.IZero():
            return "0"
        case S.ISucc(a):
            return f"succ({show_ind(a)})"
        case S.IPred(a):
            return f"pred({show_ind(a)})"
        case S.IAdd(a, b):
            return f"add({show_ind(a)}, {show_ind(b)})"
        case S.ISub(a, b):
            return f"sub({show_ind(a)}, {show_ind(b)})"
        case S.IMult(a, b):
            return f"mult({show_ind(a)}, {show_ind(b)})"
        case S.IF32(a):
            return f"F32({show_ind(a)})"
    raise AssertionError(i)


# -- formulas ---------------------------------------------------------------

def show_formula(phi: S.Formula) -> str:
    neg = S.as_neg_f(phi)
    if neg is not None:
        return f"~{_formula_atom(neg)}"
    match phi:
        case S.FForall(var, body):
            return f"forall {var}. {show_formula(body)}"
        case S.FExists(var, body):
            return f"exists {var}. {show_formula(body)}"
        case S.FArrow(dom, cod):
            return f"{_formula_arrow_dom(dom)} -> {show_formula(cod)}"
        case _:
            return _formula_atom(phi)


def _formula_arrow_dom(phi: S.Formula) -> str:
    if S.as_neg_f(phi) is not None:
        return show_formula(phi)
    if isinstance(phi, (S.FArrow, S.FForall, S.FExists)):
        return f"({show_formula(phi)})"
    return _formula_atom(phi)


def _formula_atom(phi: S.Formula) -> str:
    match phi:
        case S.FProp(name):
            return name
        case S.FTop():
            return "top"
        case S.FBot():
            return "bot"
        case S.FNat(None):
            return "nat"
        case S.FNat(idx):
            return f"nat({show_ind(idx)})"
        case S.FEq(a, b):
            return f"({show_ind(a)} = {show_ind(b)})"
        case S.FTuple(items):
            return "<" + ", ".join(show_formula(t) for t in items) + ">"
        case _:
            return f"({show_formula(phi)})"


# -- imperative-side types --------------------------------------------------

def show_prop(p: S.Prop) -> str:
    match p:
        case S.Formula():  # an atom, printed as on the functional side
            return _formula_atom(p)
        case S.PProc(proto):
            return "proc " + show_proto(proto)
        case S.PNeg(S.OSimple(types)):
            return "~(" + ", ".join(show_prop(t) for t in types) + ")"
        case S.PNeg(out):
            return "~" + show_output(out)
    raise AssertionError(p)


def show_output(out: S.Output) -> str:
    match out:
        case S.OSimple(types):
            return "[" + ", ".join(show_prop(t) for t in types) + "]"
        case S.OExists(var, body):
            return f"exists {var}. {show_output(body)}"
    raise AssertionError(out)


def show_proto(rho: S.Proto) -> str:
    match rho:
        case S.ProtoAll(var, body):
            return f"forall {var}. {show_proto(body)}"
        case S.ProtoBase(params, out):
            inside = "[" + ", ".join(show_prop(p) for p in params) + "]"
            return f"({inside} out {show_output(out)})"
    raise AssertionError(rho)


def show_env(env: S.Env) -> str:
    return "[" + ", ".join(f"{x} : {show(t)}" for x, t in env) + "]"


def show_qenv(q: S.QEnv) -> str:
    match q:
        case S.QSimple(env):
            return show_env(env)
        case S.QExists(var, body):
            return f"exists {var}. {show_qenv(body)}"
    raise AssertionError(q)


# -- functional terms -------------------------------------------------------

def show_term(t: S.Term) -> str:
    # a chain of binder prefixes (let, let <...>, fn, lam, ?n.) is printed
    # in a loop: an image's let chain is as long as its source sequence
    prefixes = []
    while True:
        match t:
            case S.TLet(name, value, body):
                prefixes.append(f"let {name} = {show_term(value)} in ")
            case S.TLetMatch(names, value, body):
                prefixes.append(f"let <{', '.join(names)}> = {show_term(value)} in ")
            case S.TFn(param, ann, body):
                prefixes.append(f"fn {param} : {show_formula(ann)} => ")
            case S.TIndLam(var, body):
                prefixes.append(f"lam {var}. ")
            case S.TUnpack(var, body):
                prefixes.append(f"?{var}. ")
            case _:
                break
        t = body
    prefixes.append(_show_term_rest(t))
    return "".join(prefixes)


def _show_term_rest(t: S.Term) -> str:
    match t:
        case S.TCallcc(arg):
            return f"callcc {_term_atom(arg)}"
        case S.TThrow(ann, cont, arg):
            return f"throw[{show_formula(ann)}] {_term_atom(cont)} {_term_atom(arg)}"
        case S.TAxiom(a, b):
            return f"{show_ind(a)} = {show_ind(b)}"
        case S.TCoerce(subject, fam, proof):
            return (
                f"{_term_app(subject)} :> "
                f"{{{fam.var}/{show_formula(fam.body)}}}[{show_term(proof)}]"
            )
        case _:
            return _term_app(t)


def _term_app(t: S.Term) -> str:
    match t:
        case S.TApp(fn, arg):
            return f"{_term_app(fn)} {_term_atom(arg)}"
        case S.TIndApp(fn, arg):
            return f"{_term_app(fn)}{{{show_ind(arg)}}}"
        case _:
            return _term_atom(t)


def _term_atom(t: S.Term) -> str:
    match t:
        case S.TVar(name):
            return name
        case S.TZero():
            return "0"
        case S.TSucc(a):
            return f"succ({show_term(a)})"
        case S.TPred(a):
            return f"pred({show_term(a)})"
        case S.TTuple(items):
            return "<" + ", ".join(show_term(x) for x in items) + ">"
        case S.TRec(bound, base, step, motive):
            head = "rec"
            if motive is not None:
                head += f"{{{motive.var}.{show_formula(motive.body)}}}"
            return f"{head}({show_term(bound)}, {show_term(base)}, {show_term(step)})"
        case S.TPack(witness, value, ann):
            return f"pack({show_ind(witness)}, {show_term(value)} : {show_formula(ann)})"
        case _:
            return f"({show_term(t)})"


# -- imperative expressions -------------------------------------------------

def show_expr(e: S.Expr) -> str:
    match e:
        case S.EAxiom(a, b):
            return f"{show_ind(a)} = {show_ind(b)}"
        case _:
            return _expr_post(e)


def _expr_post(e: S.Expr) -> str:
    match e:
        case S.EInst(fn, arg):
            return f"{_expr_post(fn)}{{{show_ind(arg)}}}"
        case S.EContInst(fn, fam, arg):
            return (
                f"{_expr_post(fn)} <: "
                f"{{{fam.var}/{show_output(fam.body)}}}{{{show_ind(arg)}}}"
            )
        case S.ECoerce(subject, fam, proof):
            return (
                f"{_expr_post(subject)} :> "
                f"{{{fam.var}/{show_prop(fam.body)}}}[{show_expr(proof)}]"
            )
        case _:
            return _expr_atom(e)


def _expr_atom(e: S.Expr) -> str:
    match e:
        case S.EVar(name):
            return name
        case S.EStar():
            return "*"
        case S.ENum(value):
            return str(value)
        case S.EProc(header):
            return "proc " + show_header(header)
        case _:
            return f"({show_expr(e)})"


def show_header(h: S.Header) -> str:
    match h:
        case S.HForall(var, body):
            return f"forall {var}. {show_header(body)}"
        case S.HBase(params, out, body):
            return f"{show_env(params)} out {show_qenv(out)} {{\n{_indent(show_seq(body))}}}"
    raise AssertionError(h)


def _indent(text: str) -> str:
    if not text:
        return ""
    return "".join(f"  {line}\n" for line in text.splitlines())


# -- commands and sequences -------------------------------------------------

def show_command(c: S.Command) -> str:
    match c:
        case S.CBlock(body, ann):
            return f"{{\n{_indent(show_seq(body))}}}{show_qenv(ann)};"
        case S.CFor(var, None, bound, body, frame):
            return (
                f"for {var} := 0 until {show_expr(bound)} "
                f"{{\n{_indent(show_seq(body))}}}{show_env(frame)};"
            )
        case S.CFor(var, idx, bound, body, frame):
            return (
                f"for {var} : nat({idx}) := 0 until {show_expr(bound)} "
                f"{{\n{_indent(show_seq(body))}}}{show_env(frame)};"
            )
        case S.CAssign(name, value):
            return f"{name} := {show_expr(value)};"
        case S.CInc(name):
            return f"inc({name});"
        case S.CDec(name):
            return f"dec({name});"
        case S.CCall(fn, args, outs):
            a = ", ".join(show_expr(x) for x in args)
            o = ", ".join(outs)
            return f"{_expr_post(fn)}({a}; {o});"
        case S.CJump(target, args, ann):
            rest = "".join(", " + show_expr(x) for x in args)
            return f"jump({_expr_post(target)}{rest}){show_qenv(ann)};"
        case S.CLabel(name, body, ann):
            return f"{name} : {{\n{_indent(show_seq(body))}}}{show_qenv(ann)};"
    raise AssertionError(c)


def show_seq(s: S.Seq) -> str:
    parts = []
    items = s.items
    k = 0
    while k < len(items):
        item = items[k]
        k += 1
        match item:
            case S.SCst(name, value):
                parts.append(f"cst {name} = {show_expr(value)};")
            case S.SVar(name, value):
                parts.append(f"var {name} := {show_expr(value)};")
            case S.SUnpack(var, rest):
                parts.append(f"?{var}.")
                items, k = rest.items, 0
            case S.SWitness(witness, ann, rest):
                parts.append(f"[{show_ind(witness)} in {show_qenv(ann)}]")
                items, k = rest.items, 0
            case S.SSubst(body, fam, proof):
                parts.append(
                    f"(\n{_indent(show_seq(body))}) :> "
                    f"{{{fam.var}/{show_qenv(fam.body)}}}[{show_expr(proof)}];"
                )
            case _:
                parts.append(show_command(item))
    return "\n".join(parts)


# -- files ------------------------------------------------------------------

def show_file(f: S.SourceFile) -> str:
    out = [f"discipline {f.discipline};", ""]
    functional = f.discipline in ("FS", "FD")
    for name, value in f.csts:
        if functional:
            out.append(f"cst {name} = {show_term(value)};")
        else:
            out.append(f"cst {name} = {show_expr(value)};")
        out.append("")
    if f.main is not None:
        if functional:
            out.append(f"main = {show_term(f.main.term)};")
        else:
            out.append(
                f"main {{\n{_indent(show_seq(f.main.body))}}} out {show_qenv(f.main.out)}"
            )
    return "\n".join(out).rstrip() + "\n"
