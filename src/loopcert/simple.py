"""The simply-typed half: IS pseudo-dynamic checking.

IS checking is syntax directed and synthesizes types; assignment may
retype a store variable ("pseudo-dynamic"), which has no ID counterpart,
so it stays a checker of its own.  FS checking is the index-free
fragment of FD checking and lives in `dependent.py`, as the IS-to-FS
translation is the index-free fragment of the one in `translate.py`;
`fs_check_term` and `CheckCtx` are re-exported here.
"""

from __future__ import annotations

from typing import Optional

from . import envs, translate
from . import syntax as S
from .dependent import CheckCtx, check_header_idents, check_ident, fs_check_term  # noqa: F401
from .errors import CheckError
from .printer import show, show_env


# ---------------------------------------------------------------------------
# IS: imperative pseudo-dynamic simple type system
# ---------------------------------------------------------------------------

def _fresh_for_store(name: str, omega: S.Env, rule: str, span) -> None:
    """Declarations may not shadow live store idents: a shadowed store
    name would resolve differently in the checker (rightmost binding)
    and in the let-based translation (innermost binding)."""
    if envs.lookup(omega, name) is not None:
        raise CheckError(
            rule,
            f"'{name}' shadows a live store variable; rename the declaration",
            span=span,
            reason="FreshnessViolation",
        )


def _simple_prop(p: S.Prop, span=None) -> None:
    match p:
        case S.FTop():
            return
        case S.FNat(None):
            return
        case S.PProc(S.ProtoBase(params, S.OSimple(types))):
            for q in params:
                _simple_prop(q, span)
            for q in types:
                _simple_prop(q, span)
            return
    raise CheckError("IS", f"{show(p)} is not a simple type", span=span)


def is_check_expr(gamma: S.Env, omega: S.Env, e: S.Expr, ctx: Optional[CheckCtx] = None) -> S.Prop:
    ctx = ctx or CheckCtx()
    match e:
        case S.EVar(name):
            return check_ident(gamma, omega, name, ctx, e.span)
        case S.EStar():
            ctx.rule("T_UNIT")
            return S.FTop()
        case S.ENum(_):
            ctx.rule("T_NUM")
            return S.FNat(None)
        case S.EProc(header):
            return S.proc_t(is_check_header(gamma, header, ctx, span=e.span))
    raise CheckError("IS", f"expression not in the simple fragment: {show(e)}", span=getattr(e, "span", None))


def is_check_header(gamma: S.Env, header: S.Header, ctx: CheckCtx, span=None) -> S.Proto:
    """T_PROC: check a procedure literal against its declared prototype."""
    if not isinstance(header, S.HBase):
        raise CheckError("T_PROC", "quantified headers are not simple", span=span)
    if not isinstance(header.out, S.QSimple):
        raise CheckError("T_PROC", "existential outputs are not simple", span=span)
    for _, p in header.params:
        _simple_prop(p, span)
    out_env = header.out.env
    for _, p in out_env:
        _simple_prop(p, span)
    names, types = envs.split(out_env)
    check_header_idents(header.params, names, "T_PROC", span)
    start = envs.init(names, S.FTop())
    gamma2 = envs.append(gamma, header.params)
    ctx.rule("T_PROC")
    final = is_check_seq(gamma2, start, header.body, ctx)
    if not S.alpha_env(final, out_env):
        raise CheckError(
            "T_PROC",
            f"body ends with store {show_env(final)}, declared out is {show_env(out_env)}",
            span=span,
            reason="OutputMismatch",
        )
    _, param_types = envs.split(header.params)
    return S.ProtoBase(param_types, S.OSimple(types))


def is_check_seq(gamma: S.Env, omega: S.Env, s: S.Seq, ctx: Optional[CheckCtx] = None) -> S.Env:
    """Synthesize the final store typing of a simple sequence.  The items
    are checked in a loop; each `var` item's local is dropped from the
    final store afterwards, innermost first."""
    ctx = ctx or CheckCtx()
    local_vars = []
    for item in s.items:
        cls = type(item)
        if cls is S.SCst:
            _fresh_for_store(item.name, omega, "T_CST", item.span)
            ty = is_check_expr(gamma, omega, item.value, ctx)
            ctx.rule("T_CST")
            gamma = gamma + ((item.name, ty),)
        elif cls is S.SVar:
            _fresh_for_store(item.name, omega, "T_VAR", item.span)
            ty = is_check_expr(gamma, omega, item.value, ctx)
            ctx.rule("T_VAR")
            omega = omega + ((item.name, ty),)
            local_vars.append(item)
        elif isinstance(item, S.Command):
            omega = _is_command(gamma, omega, item, ctx)
        else:
            raise CheckError("IS", "sequence form not in the simple fragment", span=item.span)
    ctx.rule("T_EMPTY")
    for item in reversed(local_vars):
        if not omega or omega[-1][0] != item.name:
            raise CheckError("T_VAR", f"store does not end with '{item.name}'", span=item.span)
        omega = omega[:-1]
    return omega


def _is_command(gamma: S.Env, omega: S.Env, cmd: S.Command, ctx: CheckCtx) -> S.Env:
    match cmd:
        case S.CAssign(name, value):
            envs.require(omega, name, "T_ASSIGN", cmd.span)
            ty = is_check_expr(gamma, omega, value, ctx)
            ctx.rule("T_ASSIGN")
            return envs.update(omega, name, ty, "T_ASSIGN", cmd.span)
        case S.CInc(name) | S.CDec(name):
            rule = "T_INC" if isinstance(cmd, S.CInc) else "T_DEC"
            ty = envs.require(omega, name, rule, cmd.span)
            if not S.alpha_eq(ty, S.FNat(None)):
                raise CheckError(rule, f"'{name}' has type {show(ty)}, expected nat", span=cmd.span)
            ctx.rule(rule)
            return omega
        case S.CBlock(body, ann):
            if not isinstance(ann, S.QSimple):
                raise CheckError("T_BLOCK", "existential block annotations are not simple", span=cmd.span)
            frame = ann.env
            envs.subset(frame, omega, "T_BLOCK", cmd.span)
            ctx.rule("T_BLOCK")
            result = is_check_seq(gamma, frame, body, ctx)
            return envs.multi_update(omega, result, "T_BLOCK", cmd.span)
        case S.CFor(var, idx, bound, body, frame):
            if idx is not None:
                raise CheckError("T_FOR", "indexed loops are not simple", span=cmd.span)
            envs.subset(frame, omega, "T_FOR", cmd.span)
            bty = is_check_expr(gamma, omega, bound, ctx)
            if not S.alpha_eq(bty, S.FNat(None)):
                raise CheckError("T_FOR", f"loop bound has type {show(bty)}, expected nat", span=cmd.span)
            ctx.rule("T_FOR")
            result = is_check_seq(gamma + ((var, S.FNat(None)),), frame, body, ctx)
            if not S.alpha_env(result, frame):
                raise CheckError(
                    "T_FOR",
                    f"loop body maps frame {show_env(frame)} to {show_env(result)}",
                    span=cmd.span,
                    reason="LoopFrameNotInvariant",
                )
            return omega
        case S.CCall(fn, args, outs):
            if len(set(outs)) != len(outs):
                raise CheckError("T_CALL", "output idents of a call must be distinct", span=cmd.span)
            fnty = is_check_expr(gamma, omega, fn, ctx)
            match fnty:
                case S.PProc(S.ProtoBase(params, S.OSimple(types))):
                    pass
                case _:
                    raise CheckError("T_CALL", f"called a non-procedure of type {show(fnty)}", span=cmd.span)
            if len(args) != len(params):
                raise CheckError(
                    "T_CALL",
                    f"{len(args)} arguments for {len(params)} parameters",
                    span=cmd.span,
                    reason="LengthMismatch",
                )
            ctx.rule("T_CALL")
            for arg, want in zip(args, params):
                got = is_check_expr(gamma, omega, arg, ctx)
                ctx.rule("T_EXPS_II")
                if not S.alpha_eq(got, want):
                    raise CheckError(
                        "T_EXPS", f"argument has type {show(got)}, expected {show(want)}", span=cmd.span
                    )
            binding = envs.zip_env(outs, types, "T_CALL", cmd.span)
            return envs.multi_update(omega, binding, "T_CALL", cmd.span)
        case S.CJump() | S.CLabel():
            raise CheckError("IS", "jumps and labels are not simple", span=cmd.span)
    raise AssertionError(cmd)


# bench/tracing.py wraps this name; it goes with the next change to the benchmark.
translate_is_expr = translate.translate_expr
