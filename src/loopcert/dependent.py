"""The dependently-typed half: the one functional checker, for FD terms
and for FS terms as their index-free fragment, and ID checking with
quantified environments, labels and jumps and defined negation.  The
ID-to-FD translation is in `translate.py`.

FS checking is FD checking with every index erased: `0`, `succ` and
`pred` give a bare `nat`, `fn` annotations must be simple types, `rec`
takes no motive and a plain `nat -> tau -> tau` step, and the forms with
no simple counterpart are refused with rule FS.  FS traces `TC_PRED` and
`TCTE_PRODUCT` where FD traces `TC_PRED_D` and `TC_PRODUCT`, and FS
`pred` does not depend on `allow_pred`.  The entry point that is called,
`fd_check_term` or `fs_check_term` (re-exported by `simple`), picks the
fragment.

Checking is bidirectional by annotation: sequence goals flow down from
proc, label, block and jump annotations, and every witness, axiom
instance and coercion must be written in the program.  Hypothetical
premises over individuals are realized with eigenvariables; a fresh
eigenvariable must never escape into a type visible outside its scope.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from . import envs
from . import syntax as S
from .axioms import try_match_axiom
from .errors import CheckError
from .printer import show


class CheckCtx:
    """Per-run checker state: rule trace, warnings, and whether the
    optional TC_PRED_D rule of FD checking is on."""

    def __init__(
        self,
        trace: Optional[List[str]] = None,
        warnings: Optional[List[str]] = None,
        allow_pred: bool = True,
    ):
        self.trace = trace
        self.warnings = warnings if warnings is not None else []
        self.allow_pred = allow_pred
        self.fresh = S.Freshener()

    def rule(self, label: str) -> None:
        if self.trace is not None:
            self.trace.append(label)

    def warn(self, message: str) -> None:
        self.warnings.append(message)


def check_header_idents(params: S.Env, out_names: Tuple[str, ...], rule: str, span) -> None:
    """Parameter and output idents are distinct, and do not collide."""
    pnames = [x for x, _ in params]
    if len(set(pnames)) != len(pnames):
        raise CheckError(rule, "duplicate parameter idents", span=span)
    if len(set(out_names)) != len(out_names):
        raise CheckError(rule, "duplicate output idents", span=span)
    clash = set(pnames) & set(out_names)
    if clash:
        raise CheckError(rule, f"ident '{sorted(clash)[0]}' is both parameter and output", span=span)


def check_ident(gamma: S.Env, omega: S.Env, name: str, ctx: CheckCtx, span) -> S.Prop:
    """T_ENV_II / T_ENV_I: an identifier's type; the store wins over a
    constant of the same name.  Shared by IS and ID checking."""
    local = envs.lookup(omega, name)
    const = envs.lookup(gamma, name)
    if local is not None:
        if const is not None:
            ctx.warn(f"'{name}' is bound both as constant and store variable; the store wins")
        ctx.rule("T_ENV_II")
        return local
    if const is not None:
        ctx.rule("T_ENV_I")
        return const
    raise CheckError("T_ENV", f"unbound ident '{name}'", span=span, reason="UnboundVariable")


def neg_output(out: S.Output) -> S.Prop:
    """Defined negation of an output.

    A simple output gives the continuation type ~(psi, ...); negating an
    existentially quantified output keeps the quantifier, which is what
    makes it instantiable like a universally quantified procedure.
    """
    return S.PNeg(out)


# ---------------------------------------------------------------------------
# FD, and FS as its index-free fragment
# ---------------------------------------------------------------------------

_NAT = S.FNat(None)


def fd_check_term(sigma: S.Env, t: S.Term, ctx: Optional[CheckCtx] = None) -> S.Formula:
    """Synthesize the dependent type of t, or raise CheckError.

    TC_PRED_D is not part of the core functional rule set; it is forced by
    the imperative dec rule (which retypes through pred).  It is on unless
    ctx.allow_pred turns it off.
    """
    return _fd(dict(sigma), t, ctx or CheckCtx(), False)


def fs_check_term(sigma: S.Env, t: S.Term, ctx: Optional[CheckCtx] = None) -> S.Formula:
    """Synthesize the unique simple type of t, or raise CheckError."""
    return _fd(dict(sigma), t, ctx or CheckCtx(), True)


# The term environment is one scoped map per check (see envs.bind).
# fs is True when checking the FS fragment (see the module docstring).
def _fd(env: dict, t: S.Term, ctx: CheckCtx, fs: bool) -> S.Formula:
    match t:
        case S.TVar(name):
            ty = env.get(name)
            if ty is None:
                raise CheckError("TC_VAR", f"unbound variable '{name}'", span=t.span, reason="UnboundVariable")
            ctx.rule("TC_VAR")
            return ty
        case S.TZero():
            ctx.rule("TC_ZERO")
            return _NAT if fs else S.FNat(S.IZero())
        case S.TSucc(arg):
            ity = _fd_nat(env, arg, ctx, fs, "TC_SUCC", t.span)
            ctx.rule("TC_SUCC")
            return _NAT if fs else S.FNat(S.ISucc(ity))
        case S.TPred(arg):
            if fs:
                _fd_nat(env, arg, ctx, fs, "TC_PRED", t.span)
                ctx.rule("TC_PRED")
                return _NAT
            if not ctx.allow_pred:
                raise CheckError("TC_PRED_D", "the optional pred rule is disabled", span=t.span)
            ity = _fd_nat(env, arg, ctx, fs, "TC_PRED_D", t.span)
            ctx.rule("TC_PRED_D")
            return S.FNat(S.IPred(ity))
        case S.TFn(param, ann, body):
            if fs and not S.is_simple_formula(ann):
                raise CheckError("FS", f"{show(ann)} is not a simple type", span=t.span)
            shadowed = envs.bind(env, param, ann)
            cod = _fd(env, body, ctx, fs)
            envs.unbind(env, param, shadowed)
            ctx.rule("TC_LAM")
            return S.FArrow(ann, cod)
        case S.TApp(fn, arg):
            fnty = _fd(env, fn, ctx, fs)
            if not isinstance(fnty, S.FArrow):
                raise CheckError("TC_APP", f"applied a non-function of type {show(fnty)}", span=t.span)
            got = _fd(env, arg, ctx, fs)
            if not S.alpha_eq(got, fnty.dom):
                raise CheckError(
                    "TC_APP", f"argument has type {show(got)}, expected {show(fnty.dom)}", span=t.span
                )
            ctx.rule("TC_APP")
            return fnty.cod
        case S.TTuple(items):
            types = tuple([_fd(env, item, ctx, fs) for item in items])
            ctx.rule("TC_TUPLE")
            return S.FTuple(types)
        case S.TLet(name, value, body):
            ty = _fd(env, value, ctx, fs)
            ctx.rule("TC_LET")
            shadowed = envs.bind(env, name, ty)
            result = _fd(env, body, ctx, fs)
            envs.unbind(env, name, shadowed)
            return result
        case S.TLetMatch(names, value, body):
            ty = _fd(env, value, ctx, fs)
            if fs and not (isinstance(ty, S.FTuple) and len(ty.items) == len(names)):
                raise CheckError(
                    "TC_MATCH", f"pattern <{', '.join(names)}> does not match {show(ty)}", span=t.span
                )
            ctx.rule("TC_MATCH")
            return _fd_extended(env, names, ty, body, ctx, fs, t.span)
        case S.TRec(bound, base, step, motive) if fs:
            if motive is not None:
                raise CheckError("TC_REC", "simple rec carries no motive", span=t.span)
            _fd_nat(env, bound, ctx, fs, "TC_REC", t.span)
            tau = _fd(env, base, ctx, fs)
            got = _fd(env, step, ctx, fs)
            want = S.FArrow(_NAT, S.FArrow(tau, tau))
            if not S.alpha_eq(got, want):
                raise CheckError("TC_REC", f"step has type {show(got)}, expected {show(want)}", span=t.span)
            ctx.rule("TC_REC")
            return tau
        case _ if fs:
            raise CheckError("FS", f"term not in the simple fragment: {show(t)}", span=getattr(t, "span", None))
        case S.TIndLam(var, body):
            eigen, opened = ctx.fresh.open(var, body)
            phi = _fd(env, opened, ctx, fs)
            ctx.rule("TC_FORALL_I")
            return _generalize(var, eigen, phi, S.FForall)
        case S.TIndApp(fn, arg):
            fnty = _fd(env, fn, ctx, fs)
            if not isinstance(fnty, S.FForall):
                raise CheckError(
                    "TC_FORALL_E", f"instantiated a non-universal of type {show(fnty)}", span=t.span
                )
            ctx.rule("TC_FORALL_E")
            return S.subst_ind(fnty.body, fnty.var, arg)
        case S.TPack(witness, value, ann):
            if not isinstance(ann, S.FExists):
                raise CheckError("TC_EXISTS_I", f"pack annotation {show(ann)} is not existential", span=t.span)
            want = S.subst_ind(ann.body, ann.var, witness)
            got = _fd(env, value, ctx, fs)
            if not S.alpha_eq(got, want):
                raise CheckError(
                    "TC_EXISTS_I", f"witness body has type {show(got)}, expected {show(want)}", span=t.span
                )
            ctx.rule("TC_EXISTS_I")
            return ann
        case S.TRec(bound, base, step, motive):
            if motive is None:
                raise CheckError("TC_REC", "dependent rec requires a motive", span=t.span, reason="MissingMotive")
            idx = _fd_nat(env, bound, ctx, fs, "TC_REC", t.span)
            base_want = S.subst_ind(motive.body, motive.var, S.IZero())
            base_got = _fd(env, base, ctx, fs)
            if not S.alpha_eq(base_got, base_want):
                raise CheckError(
                    "TC_REC", f"base has type {show(base_got)}, expected {show(base_want)}", span=t.span
                )
            match step:
                case S.TIndLam(svar, S.TFn(yname, yann, sbody)):
                    eigen = ctx.fresh.fresh(svar)
                    ev = S.IVar(eigen)
                    if not S.alpha_eq(S.subst_ind(yann, svar, ev), S.FNat(ev)):
                        raise CheckError(
                            "TC_REC", f"step counter annotated {show(yann)}, expected nat({svar})", span=t.span
                        )
                    opened = S.subst_ind(sbody, svar, ev)
                    want = S.FArrow(
                        S.subst_ind(motive.body, motive.var, ev),
                        S.subst_ind(motive.body, motive.var, S.ISucc(ev)),
                    )
                    shadowed = envs.bind(env, yname, S.FNat(ev))
                    got = _fd(env, opened, ctx, fs)
                    envs.unbind(env, yname, shadowed)
                    if not S.alpha_eq(got, want):
                        raise CheckError(
                            "TC_REC", f"step has type {show(got)}, expected {show(want)}", span=t.span
                        )
                case _:
                    raise CheckError(
                        "TC_REC", "dependent rec step must be 'lam n. fn y : nat(n) => ...'", span=t.span
                    )
            ctx.rule("TC_REC")
            return S.subst_ind(motive.body, motive.var, idx)
        case S.TAxiom(left, right):
            name = try_match_axiom(left, right)
            if name is not None:
                ctx.rule("TC_AX_I")
                return S.FEq(left, right)
            name = try_match_axiom(right, left)
            if name is not None:
                ctx.rule("TC_AX_II")
                return S.FEq(left, right)
            raise CheckError(
                "TC_AX", f"'{show(left)} = {show(right)}' is not an axiom instance", span=t.span, reason="NoAxiom"
            )
        case S.TCoerce(subject, fam, proof):
            proof_ty = _fd(env, proof, ctx, fs)
            if not isinstance(proof_ty, S.FEq):
                raise CheckError(
                    "TC_EQUAL_E", f"coercion proof has type {show(proof_ty)}, expected an equation", span=t.span
                )
            want = S.subst_ind(fam.body, fam.var, proof_ty.right)
            got = _fd(env, subject, ctx, fs)
            if not S.alpha_eq(got, want):
                raise CheckError(
                    "TC_EQUAL_E", f"subject has type {show(got)}, expected {show(want)}", span=t.span
                )
            ctx.rule("TC_EQUAL_E")
            return S.subst_ind(fam.body, fam.var, proof_ty.left)
        case S.TThrow(ann, cont, arg):
            cont_ty = _fd(env, cont, ctx, fs)
            negated = S.as_neg_f(cont_ty)
            if negated is None:
                raise CheckError(
                    "TC_THROW", f"throw target has type {show(cont_ty)}, expected a negation", span=t.span
                )
            got = _fd(env, arg, ctx, fs)
            if not S.alpha_eq(got, negated):
                raise CheckError(
                    "TC_THROW", f"thrown value has type {show(got)}, expected {show(negated)}", span=t.span
                )
            ctx.rule("TC_THROW")
            return ann
        case S.TCallcc(arg):
            ty = _fd(env, arg, ctx, fs)
            shape_err = CheckError(
                "TC_CALLCC", f"callcc argument has type {show(ty)}, expected ~phi -> phi", span=t.span
            )
            if not isinstance(ty, S.FArrow):
                raise shape_err
            negated = S.as_neg_f(ty.dom)
            if negated is None or not S.alpha_eq(negated, ty.cod):
                raise shape_err
            ctx.rule("TC_CALLCC")
            return ty.cod
        case S.TUnpack():
            raise CheckError("TC_EXISTS", "'?n.' is only meaningful under a tuple match", span=t.span)
    raise CheckError("FD", f"unhandled term {show(t)}", span=getattr(t, "span", None))


def _fd_nat(env: dict, t: S.Term, ctx: CheckCtx, fs: bool, rule: str, span) -> Optional[S.Ind]:
    """The index of t's nat type; in FS, a bare nat and no index."""
    ty = _fd(env, t, ctx, fs)
    if not isinstance(ty, S.FNat) or (ty.index is None) != fs:
        wanted = "nat" if fs else "an indexed nat"
        raise CheckError(rule, f"expected {wanted}, found {show(ty)}", span=span)
    return ty.index


def _fd_extended(
    env: dict,
    names: Tuple[str, ...],
    phi: S.Formula,
    body: S.Term,
    ctx: CheckCtx,
    fs: bool,
    span,
) -> S.Formula:
    """Sigma, <x...> : phi |- body (TC_PRODUCT / TC_EXISTS; TCTE_PRODUCT in FS)."""
    if isinstance(phi, S.FExists):
        if not isinstance(body, S.TUnpack):
            raise CheckError(
                "TC_EXISTS",
                f"matched value has existential type {show(phi)}; the body must begin with '?n.'",
                span=span,
                reason="MissingUnpack",
            )
        eigen = ctx.fresh.fresh(body.var)
        ev = S.IVar(eigen)
        phi_open = S.subst_ind(phi.body, phi.var, ev)
        body_open = S.subst_ind(body.body, body.var, ev)
        ctx.rule("TC_EXISTS")
        result = _fd_extended(env, names, phi_open, body_open, ctx, fs, span)
        if eigen in S.free_ind_vars(result):
            raise CheckError(
                "TC_EXISTS",
                f"eigenvariable {eigen} escapes into the result type {show(result)}",
                span=span,
                reason="EigenEscape",
            )
        return result
    if isinstance(phi, S.FTuple):
        if len(phi.items) != len(names):
            raise CheckError(
                "TC_PRODUCT",
                f"pattern <{', '.join(names)}> does not match {show(phi)}",
                span=span,
            )
        ctx.rule("TCTE_PRODUCT" if fs else "TC_PRODUCT")
        saved = envs.bind_all(env, names, phi.items)
        result = _fd(env, body, ctx, fs)
        envs.unbind_all(env, names, saved)
        return result
    raise CheckError("TC_PRODUCT", f"cannot match a tuple pattern against {show(phi)}", span=span)


def _generalize(var: str, eigen: str, phi: S.Formula, wrap) -> S.Formula:
    free = S.free_ind_vars(phi) - {eigen}
    binder = S._fresh_name(var, free)
    return wrap(binder, S.subst_ind(phi, eigen, S.IVar(binder)))


# ---------------------------------------------------------------------------
# ID: imperative dependent type system
# ---------------------------------------------------------------------------

def proto_of_header(header: S.Header) -> S.Proto:
    match header:
        case S.HForall(var, body):
            return S.ProtoAll(var, proto_of_header(body))
        case S.HBase(params, out, _):
            _, types = envs.split(params)
            _, output = envs.qsplit(out)
            return S.ProtoBase(types, output)
    raise AssertionError(header)


def id_check_expr(gamma: S.Env, omega: S.Env, e: S.Expr, ctx: Optional[CheckCtx] = None) -> S.Prop:
    ctx = ctx or CheckCtx()
    match e:
        case S.EVar(name):
            return check_ident(gamma, omega, name, ctx, e.span)
        case S.EStar():
            ctx.rule("T_TRUE")
            return S.PTop()
        case S.ENum(value):
            ctx.rule("T_ZERO" if value == 0 else "T_SUCC")
            return S.PNat(S.num_ind(value))
        case S.EAxiom(left, right):
            if try_match_axiom(left, right) is not None:
                ctx.rule("T_AX_I")
                return S.PEq(left, right)
            if try_match_axiom(right, left) is not None:
                ctx.rule("T_AX_II")
                return S.PEq(left, right)
            raise CheckError(
                "T_AX",
                f"'{show(left)} = {show(right)}' is not an axiom instance",
                span=e.span,
                reason="NoAxiom",
            )
        case S.ECoerce(subject, fam, proof):
            proof_ty = id_check_expr(gamma, omega, proof, ctx)
            if not isinstance(proof_ty, S.PEq):
                raise CheckError(
                    "T_EQUAL_E", f"coercion proof has type {show(proof_ty)}, expected an equation", span=e.span
                )
            want = S.subst_ind(fam.body, fam.var, proof_ty.right)
            got = id_check_expr(gamma, omega, subject, ctx)
            if not S.alpha_eq(got, want):
                raise CheckError(
                    "T_EQUAL_E", f"subject has type {show(got)}, expected {show(want)}", span=e.span
                )
            ctx.rule("T_EQUAL_E")
            return S.subst_ind(fam.body, fam.var, proof_ty.left)
        case S.EInst(fn, arg):
            fnty = id_check_expr(gamma, omega, fn, ctx)
            match fnty:
                case S.PProc(S.ProtoAll(var, body)):
                    ctx.rule("T_PROC_INST")
                    return S.proc_t(S.subst_ind(body, var, arg))
                case S.PNeg(S.OExists()):
                    raise CheckError(
                        "T_PROC_INST",
                        "a continuation is instantiated with '<: {n/phi}{i}', not '{i}'",
                        span=e.span,
                    )
                case _:
                    raise CheckError(
                        "T_PROC_INST",
                        f"instantiated a non-universal of type {show(fnty)}",
                        span=e.span,
                    )
        case S.EContInst(fn, fam, arg):
            want = neg_output(S.OExists(fam.var, fam.body))
            got = id_check_expr(gamma, omega, fn, ctx)
            if not S.alpha_eq(got, want):
                raise CheckError(
                    "T_CONT_INST",
                    f"continuation has type {show(got)}, the annotation negates to {show(want)}",
                    span=e.span,
                    reason="NegationMismatch",
                )
            ctx.rule("T_CONT_INST")
            return S.PNeg(S.subst_ind(fam.body, fam.var, arg))
        case S.EProc(header):
            declared = proto_of_header(header)
            _id_check_header(gamma, omega, header, ctx, getattr(e, "span", None))
            return S.proc_t(declared)
    raise CheckError("ID", f"unhandled expression {show(e)}", span=getattr(e, "span", None))


def _id_check_header(gamma: S.Env, omega: S.Env, header: S.Header, ctx: CheckCtx, span) -> None:
    match header:
        case S.HForall(var, body):
            _, opened = ctx.fresh.open(var, body)
            ctx.rule("T_PROC_ABS")
            _id_check_header(gamma, omega, opened, ctx, span)
        case S.HBase(params, out, body):
            names, _ = envs.qsplit(out)
            check_header_idents(params, names, "T_PROC_DECL", span)
            start = envs.init(names, S.PTop())
            gamma2 = envs.append(gamma, params)
            ctx.rule("T_PROC_DECL")
            id_check_seq(gamma2, start, body, out, ctx)
        case _:
            raise AssertionError(header)


def id_check_exprs(
    gamma: S.Env,
    omega: S.Env,
    args: Tuple[S.Expr, ...],
    wanted: Tuple[S.Prop, ...],
    ctx: CheckCtx,
    rule: str,
    span,
) -> None:
    if len(args) != len(wanted):
        raise CheckError(
            rule, f"{len(args)} arguments for {len(wanted)} parameters", span=span, reason="LengthMismatch"
        )
    for arg, want in zip(args, wanted):
        got = id_check_expr(gamma, omega, arg, ctx)
        ctx.rule("T_EXPS_II")
        if not S.alpha_eq(got, want):
            raise CheckError(
                rule,
                f"argument {show(arg)} has type {show(got)}, expected {show(want)}",
                span=span,
            )


def id_check_seq(
    gamma: S.Env, omega: S.Env, s: S.Seq, expected: S.QEnv, ctx: Optional[CheckCtx] = None
) -> None:
    """Check a sequence against an expected quantified output environment."""
    ctx = ctx or CheckCtx()
    match s:
        case S.SEmpty():
            match expected:
                case S.QSimple(env):
                    envs.subset(env, omega, "T_EMPTY", s.span)
                    ctx.rule("T_EMPTY")
                case S.QExists():
                    raise CheckError(
                        "T_EMPTY",
                        f"output {show(expected)} is existential; a witness annotation is required",
                        span=s.span,
                        reason="MissingWitness",
                    )
            return
        case S.SWitness(witness, ann, rest):
            if not isinstance(ann, S.QExists):
                raise CheckError(
                    "T_WITNESS", f"witness annotates non-existential {show(ann)}", span=s.span,
                    reason="WitnessMismatch",
                )
            if not S.alpha_eq(ann, expected):
                raise CheckError(
                    "T_WITNESS",
                    f"witness annotation {show(ann)} does not match the goal {show(expected)}",
                    span=s.span,
                    reason="WitnessMismatch",
                )
            ctx.rule("T_WITNESS")
            id_check_seq(gamma, omega, rest, S.subst_ind(ann.body, ann.var, witness), ctx)
            return
        case S.SSubst(body, fam, proof):
            proof_ty = id_check_expr(gamma, omega, proof, ctx)
            if not isinstance(proof_ty, S.PEq):
                raise CheckError(
                    "T_SUBST", f"coercion proof has type {show(proof_ty)}, expected an equation", span=s.span
                )
            claimed = S.subst_ind(fam.body, fam.var, proof_ty.left)
            if not S.alpha_eq(claimed, expected):
                raise CheckError(
                    "T_SUBST",
                    f"coercion yields {show(claimed)}, the goal is {show(expected)}",
                    span=s.span,
                )
            ctx.rule("T_SUBST")
            id_check_seq(gamma, omega, body, S.subst_ind(fam.body, fam.var, proof_ty.right), ctx)
            return
        case S.SCst(name, value, rest):
            if envs.lookup(omega, name) is not None:
                raise CheckError(
                    "T_CST",
                    f"'{name}' shadows a live store variable; rename the constant",
                    span=s.span,
                    reason="FreshnessViolation",
                )
            ty = id_check_expr(gamma, omega, value, ctx)
            ctx.rule("T_CST")
            id_check_seq(gamma + ((name, ty),), omega, rest, expected, ctx)
            return
        case S.SVar(name, value, rest):
            ty = id_check_expr(gamma, omega, value, ctx)
            if envs.belongs(name, expected):
                raise CheckError(
                    "T_VAR",
                    f"local '{name}' must not occur in the output environment {show(expected)}",
                    span=s.span,
                    reason="FreshnessViolation",
                )
            ctx.rule("T_VAR")
            id_check_seq(gamma, omega + ((name, ty),), rest, expected, ctx)
            return
        case S.SUnpack():
            raise CheckError(
                "TC_UPDATE_SEQ_II",
                "'?n.' may only follow a call, block, label or jump delivering an existential",
                span=s.span,
            )
        case S.SCmd(cmd, rest):
            _id_command(gamma, omega, cmd, rest, expected, ctx)
            return
    raise AssertionError(s)


def _id_command(
    gamma: S.Env, omega: S.Env, cmd: S.Command, rest: S.Seq, expected: S.QEnv, ctx: CheckCtx
) -> None:
    match cmd:
        case S.CAssign(name, value):
            envs.require(omega, name, "T_ASSIGN", cmd.span)
            ty = id_check_expr(gamma, omega, value, ctx)
            ctx.rule("T_ASSIGN")
            id_check_seq(gamma, envs.update(omega, name, ty, "T_ASSIGN", cmd.span), rest, expected, ctx)
            return
        case S.CInc(name) | S.CDec(name):
            rule = "T_INC" if isinstance(cmd, S.CInc) else "T_DEC"
            ty = envs.require(omega, name, rule, cmd.span)
            if not isinstance(ty, S.PNat) or ty.index is None:
                raise CheckError(rule, f"'{name}' has type {show(ty)}, expected an indexed nat", span=cmd.span)
            new_index = S.ISucc(ty.index) if isinstance(cmd, S.CInc) else S.IPred(ty.index)
            ctx.rule(rule)
            omega2 = envs.update(omega, name, S.PNat(new_index), rule, cmd.span)
            id_check_seq(gamma, omega2, rest, expected, ctx)
            return
        case S.CBlock(body, ann):
            ctx.rule("T_BLOCK")
            id_check_seq(gamma, omega, body, ann, ctx)
            _id_update_seq(gamma, omega, ann, rest, expected, ctx, cmd.span)
            return
        case S.CLabel(name, body, ann):
            _, out = envs.qsplit(ann)
            cont_ty = neg_output(out)
            ctx.rule("T_LABEL")
            id_check_seq(gamma + ((name, cont_ty),), omega, body, ann, ctx)
            _id_update_seq(gamma, omega, ann, rest, expected, ctx, cmd.span)
            return
        case S.CJump(target, args, ann):
            target_ty = id_check_expr(gamma, omega, target, ctx)
            match target_ty:
                case S.PNeg(S.OSimple(types)):
                    id_check_exprs(gamma, omega, args, types, ctx, "T_JUMP", cmd.span)
                case S.PNeg(S.OExists()):
                    raise CheckError(
                        "T_JUMP",
                        f"jump target expects an existential package {show(target_ty)}; instantiate it with '<:'",
                        span=cmd.span,
                        reason="NegationMismatch",
                    )
                case _:
                    raise CheckError(
                        "T_JUMP",
                        f"jump target has type {show(target_ty)}, expected a negation",
                        span=cmd.span,
                        reason="NegationMismatch",
                    )
            ctx.rule("T_JUMP")
            _id_update_seq(gamma, omega, ann, rest, expected, ctx, cmd.span)
            return
        case S.CFor(var, idx, bound, body, frame):
            frame0 = S.subst_ind(frame, idx, S.IZero()) if idx else frame
            envs.subset(frame0, omega, "T_FOR", cmd.span)
            bound_ty = id_check_expr(gamma, omega, bound, ctx)
            if not isinstance(bound_ty, S.PNat) or bound_ty.index is None:
                raise CheckError(
                    "T_FOR", f"loop bound has type {show(bound_ty)}, expected an indexed nat", span=cmd.span
                )
            eigen = ctx.fresh.fresh(idx or "i")
            ev = S.IVar(eigen)
            if idx is not None:
                body_n = S.subst_ind(body, idx, ev)
                frame_n = S.subst_ind(frame, idx, ev)
                frame_s = S.subst_ind(frame, idx, S.ISucc(ev))
                frame_end = S.subst_ind(frame, idx, bound_ty.index)
            else:
                body_n, frame_n, frame_s, frame_end = body, frame, frame, frame
            ctx.rule("T_FOR")
            id_check_seq(gamma + ((var, S.PNat(ev)),), frame_n, body_n, S.QSimple(frame_s), ctx)
            omega2 = envs.multi_update(omega, frame_end, "T_FOR", cmd.span)
            id_check_seq(gamma, omega2, rest, expected, ctx)
            return
        case S.CCall(fn, args, outs):
            if len(set(outs)) != len(outs):
                raise CheckError("T_CALL", "output idents of a call must be distinct", span=cmd.span)
            fnty = id_check_expr(gamma, omega, fn, ctx)
            match fnty:
                case S.PProc(S.ProtoBase(params, out)):
                    pass
                case S.PProc(S.ProtoAll()):
                    raise CheckError(
                        "T_CALL", f"procedure of type {show(fnty)} must be instantiated before the call",
                        span=cmd.span,
                    )
                case S.PNeg():
                    raise CheckError(
                        "T_CALL",
                        f"'{show(fn)}' is a continuation of type {show(fnty)}; use jump",
                        span=cmd.span,
                    )
                case _:
                    raise CheckError(
                        "T_CALL", f"called a non-procedure of type {show(fnty)}", span=cmd.span
                    )
            id_check_exprs(gamma, omega, args, params, ctx, "T_CALL", cmd.span)
            theta = envs.qzip(outs, out, "T_CALL", cmd.span)
            ctx.rule("T_CALL")
            _id_update_seq(gamma, omega, theta, rest, expected, ctx, cmd.span)
            return
    raise AssertionError(cmd)


def _id_update_seq(
    gamma: S.Env,
    omega: S.Env,
    theta: S.QEnv,
    s: S.Seq,
    expected: S.QEnv,
    ctx: CheckCtx,
    span,
) -> None:
    """Continue checking from the store updated by theta (TC_UPDATE_SEQ)."""
    match theta:
        case S.QSimple(env):
            ctx.rule("TC_UPDATE_SEQ_I")
            omega2 = envs.multi_update(omega, env, "TC_UPDATE_SEQ", span)
            id_check_seq(gamma, omega2, s, expected, ctx)
            return
        case S.QExists(var, body):
            if not isinstance(s, S.SUnpack):
                raise CheckError(
                    "TC_UPDATE_SEQ_II",
                    f"the store update {show(theta)} is existential; the continuation must begin with '?{var}.'",
                    span=span,
                    reason="MissingUnpack",
                )
            eigen = ctx.fresh.fresh(s.var)
            ev = S.IVar(eigen)
            theta_open = S.subst_ind(body, var, ev)
            rest_open = S.subst_ind(s.rest, s.var, ev)
            ctx.rule("TC_UPDATE_SEQ_II")
            _id_update_seq(gamma, omega, theta_open, rest_open, expected, ctx, span)
            return
    raise AssertionError(theta)
