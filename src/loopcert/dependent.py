"""The dependently-typed half: the one functional checker, for FD terms
and for FS terms as their index-free fragment, and the one imperative
checker, for ID with quantified environments, labels and jumps and
defined negation, and for IS as its index-free fragment.  The
translations are in `translate.py`.

FS checking is FD checking with every index erased: `0`, `succ` and
`pred` give a bare `nat`, `fn` annotations must be simple types, `rec`
takes no motive and a plain `nat -> tau -> tau` step, and the forms with
no simple counterpart are refused with rule FS.  FS traces `TC_PRED` and
`TCTE_PRODUCT` where FD traces `TC_PRED_D` and `TC_PRODUCT`, and FS
`pred` does not depend on `allow_pred`.  The entry point that is called,
`fd_check_term` or `fs_check_term`, picks the fragment.

IS checking is ID checking with every index erased.  Assignment may
retype a store variable in both ("pseudo-dynamic" in IS).  Numerals and
`*` give a bare `nat` and unit, traced `T_NUM` and `T_UNIT` where ID
traces `T_ZERO`/`T_SUCC` and `T_TRUE`, and a procedure header traces
`T_PROC` where ID traces `T_PROC_DECL`; its parameter and output types
must be simple.  Quantified headers, existential outputs and blocks,
indexed loops, labels and jumps and the proof forms are refused.  Where
ID checks a sequence against an annotated goal that its store must
contain, IS synthesizes the store the sequence ends with and compares it
exactly: a procedure's or main's with the declared outputs
(OutputMismatch), a `for` body's with its frame (LoopFrameNotInvariant).
An IS block or `for` body starts from its frame, not from the whole
store, and a block or call updates the store by `multi_update` where ID
traces `TC_UPDATE_SEQ_I`.  IS traces `T_CALL` before the arguments, not
after them, and a `var`, like a `cst`, may not shadow a live store
variable.  The entry point that is called, `id_check_expr` or
`is_check_expr`, picks the fragment; `check_main` takes it as an
argument.

Checking is bidirectional by annotation: sequence goals flow down from
proc, label, block and jump annotations, and every witness, axiom
instance and coercion must be written in the program.  Hypothetical
premises over individuals are realized with eigenvariables; a fresh
eigenvariable must never escape into a type visible outside its scope.

An eigenvariable instantiates an index where syntax is read, not by
substitution: opening a binder (`forall`, `lam n.`, `?n.`, a `for`
index, a `rec` step) pushes a fresh eigenvariable on `CheckCtx.opened`,
and the body is checked as written.  The indices that escape the
individuals, types, families and annotations the checker reads from the
syntax, and the syntax a message prints, are instantiated from that
stack, so opening costs nothing per node of the body.  `lam n.` closes
its eigenvariable back into the index of the `forall` it types.

Each walk tells nodes apart by their exact class (`type(t) is C`), the
most frequent cases first, and records a rule with `CheckCtx.rule`, the
bound `append` of the trace list.
"""

from __future__ import annotations

from typing import Any, Callable, List, Optional, Tuple

from . import envs
from . import syntax as S
from .axioms import try_match_axiom
from .errors import CheckError
from .printer import show, show_env


class CheckCtx:
    """Per-run checker state: rule trace, warnings, whether the optional
    TC_PRED_D rule of FD checking is on, the open binders, and the memo
    tables of the coercion and axiom rules.

    `rule(label)` records a rule: it is the bound `append` of the trace
    list, so recording costs no Python call; a context made without a
    trace gets a list of its own.

    `opened` holds the eigenvariable of each open binder over
    individuals, the innermost last: the checker opens a binder where
    the syntax it descends into does, so the index k that escapes what
    it reads belongs to the binder of opened[-1 - k].

    The memo tables serve `recall`, `instance` and `check_axiom`, on the
    individuals, type atoms and families that the parser shares (one
    object for each distinct one in a file) and on what these build from
    them, so that a repeated coercion costs a few dict lookups.  They are
    keyed by the ids of their inputs, which cost no recursive == or hash,
    and each entry holds its inputs, so that no id is reused while it
    lives.  `reads` is emptied by `open` and `close`, as a read depends
    on the open binders; the others live as long as the context, which
    is one check.

    Two more tables give one `FNat(ISucc(i))` and one `FNat(IPred(i))`
    per individual i, keyed by id(i): `succs` for TC_SUCC and T_INC,
    `preds` for TC_PRED_D and T_DEC.  Each entry holds i, so the type of
    a step on a shared index is itself shared, as the parser's atoms
    are.  The rules look them up inline and call `step` on a miss."""

    def __init__(self, trace: Optional[List[str]] = None, allow_pred: bool = True):
        self.trace = trace if trace is not None else []
        self.rule: Callable[[str], None] = self.trace.append
        self.warnings: List[str] = []
        self.allow_pred = allow_pred
        self.fresh = S.Freshener()
        self.opened: list = []
        self.reads: dict = {}  # id(value) -> (value, value read)
        self.instances: dict = {}  # (id(body), id(replacement)) -> (body, replacement, instance)
        self.axioms: dict = {}  # (id(left), id(right)) -> (rule suffix, left = right), which holds both
        self.succs: dict = {}  # id(i) -> nat(succ(i)), which holds i
        self.preds: dict = {}  # id(i) -> nat(pred(i)), which holds i

    def open(self, hint: str) -> S.IVar:
        """Open a binder: its index reads as a fresh eigenvariable until closed."""
        ev = S.IVar(self.fresh.fresh(hint))
        self.opened.append(ev)
        if self.reads:
            self.reads.clear()
        return ev

    def close(self, count: int = 1) -> None:
        """Close the count binders opened last."""
        del self.opened[len(self.opened) - count:]
        if self.reads:
            self.reads.clear()

    def read(self, value: Any, depth: int = 0) -> Any:
        """value as written, with the open binders' indices instantiated
        by their eigenvariables; depth binders around value in the syntax
        are not open yet, and their indices stay."""
        return S.open_inds(value, self.opened, depth) if self.opened else value

    def recall(self, value: Any) -> Any:
        """read(value), memoised while the open binders stay."""
        if not self.opened:
            return value
        entry = self.reads.get(id(value))
        if entry is None:
            entry = self.reads[id(value)] = (value, S.open_inds(value, self.opened, 0))
        return entry[1]

    def instance(self, body: Any, replacement: S.Ind) -> Any:
        """S.subst_ind(body, replacement), memoised."""
        key = (id(body), id(replacement))
        entry = self.instances.get(key)
        if entry is None:
            entry = self.instances[key] = (body, replacement, S.subst_ind(body, replacement))
        return entry[2]

    def step(self, index: S.Ind, succ: bool) -> S.FNat:
        """The shared nat(succ(index)), or nat(pred(index)), on a miss."""
        if succ:
            nat = self.succs[id(index)] = S.FNat(S.ISucc(index))
        else:
            nat = self.preds[id(index)] = S.FNat(S.IPred(index))
        return nat

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


# The axiom and coercion rules are one judgement read in both languages;
# prefix is "TC" for FD and FS terms and "T" for ID expressions.

def check_axiom(left: S.Ind, right: S.Ind, ctx: CheckCtx, prefix: str, span) -> S.FEq:
    """AX_I, or AX_II on the mirrored pair: left = right is an axiom
    instance.  AX_REFL is symmetric, so the mirrored match skips it."""
    left, right = ctx.recall(left), ctx.recall(right)
    key = (id(left), id(right))
    entry = ctx.axioms.get(key)
    if entry is None:
        if try_match_axiom(left, right) is not None:
            side = "_AX_I"
        elif try_match_axiom(right, left, refl=False) is not None:
            side = "_AX_II"
        else:
            raise CheckError(
                prefix + "_AX", f"'{show(left)} = {show(right)}' is not an axiom instance", span=span,
                reason="NoAxiom",
            )
        entry = ctx.axioms[key] = (side, S.FEq(left, right))
    ctx.rule(prefix + entry[0])
    return entry[1]


def check_coercion(
    check: Callable[[Any], Any], subject: Any, fam: S.Fam, proof: Any, ctx: CheckCtx, prefix: str, span
) -> Any:
    """EQUAL_E: a proof of i = j takes subject from {n/X}[j] to {n/X}[i].
    check types a subterm; the proof is checked before the subject."""
    rule = prefix + "_EQUAL_E"
    fam = ctx.recall(fam)
    proof_ty = check(proof)
    if not isinstance(proof_ty, S.FEq):
        raise CheckError(rule, f"coercion proof has type {show(proof_ty)}, expected an equation", span=span)
    want = ctx.instance(fam.body, proof_ty.right)
    got = check(subject)
    if got is not want and not S.alpha_eq(got, want):
        raise CheckError(rule, f"subject has type {show(got)}, expected {show(want)}", span=span)
    ctx.rule(rule)
    return ctx.instance(fam.body, proof_ty.left)


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
    cls = type(t)  # the cases go most frequent first
    if cls is S.TVar:
        ty = env.get(t.name)
        if ty is None:
            raise CheckError("TC_VAR", f"unbound variable '{t.name}'", span=t.span, reason="UnboundVariable")
        ctx.rule("TC_VAR")
        return ty
    if cls is S.TSucc:
        ity = _fd_nat(env, t.arg, ctx, fs, "TC_SUCC", t.span)
        ctx.rule("TC_SUCC")
        return _NAT if fs else ctx.succs.get(id(ity)) or ctx.step(ity, True)
    if cls is S.TTuple:
        types = tuple([_fd(env, item, ctx, fs) for item in t.items])
        ctx.rule("TC_TUPLE")
        return S.FTuple(types)
    if cls is S.TZero:
        ctx.rule("TC_ZERO")
        return _NAT if fs else S.FNat(S.IZero())
    if cls is S.TFn:
        ann = ctx.read(t.ann)
        if fs and not S.is_simple_formula(ann):
            raise CheckError("FS", f"{show(ann)} is not a simple type", span=t.span)
        shadowed = envs.bind(env, t.param, ann)
        cod = _fd(env, t.body, ctx, fs)
        envs.unbind(env, t.param, shadowed)
        ctx.rule("TC_LAM")
        return S.FArrow(ann, cod)
    if cls is S.TLet or cls is S.TLetMatch:
        return _fd_lets(env, t, ctx, fs)
    if cls is S.TApp:
        fnty = _fd(env, t.fn, ctx, fs)
        if type(fnty) is not S.FArrow:
            raise CheckError("TC_APP", f"applied a non-function of type {show(fnty)}", span=t.span)
        got = _fd(env, t.arg, ctx, fs)
        if not S.alpha_eq(got, fnty.dom):
            raise CheckError(
                "TC_APP", f"argument has type {show(got)}, expected {show(fnty.dom)}", span=t.span
            )
        ctx.rule("TC_APP")
        return fnty.cod
    if cls is S.TRec and fs:
        if t.motive is not None:
            raise CheckError("TC_REC", "simple rec carries no motive", span=t.span)
        _fd_nat(env, t.bound, ctx, fs, "TC_REC", t.span)
        tau = _fd(env, t.base, ctx, fs)
        got = _fd(env, t.step, ctx, fs)
        want = S.FArrow(_NAT, S.FArrow(tau, tau))
        if not S.alpha_eq(got, want):
            raise CheckError("TC_REC", f"step has type {show(got)}, expected {show(want)}", span=t.span)
        ctx.rule("TC_REC")
        return tau
    if cls is S.TPred:
        if fs:
            _fd_nat(env, t.arg, ctx, fs, "TC_PRED", t.span)
            ctx.rule("TC_PRED")
            return _NAT
        if not ctx.allow_pred:
            raise CheckError("TC_PRED_D", "the optional pred rule is disabled", span=t.span)
        ity = _fd_nat(env, t.arg, ctx, fs, "TC_PRED_D", t.span)
        ctx.rule("TC_PRED_D")
        return ctx.preds.get(id(ity)) or ctx.step(ity, False)
    if fs:
        raise CheckError("FS", f"term not in the simple fragment: {show(t)}", span=getattr(t, "span", None))
    if cls is S.TCoerce:
        return check_coercion(lambda x: _fd(env, x, ctx, fs), t.subject, t.fam, t.proof, ctx, "TC", t.span)
    if cls is S.TAxiom:
        return check_axiom(t.left, t.right, ctx, "TC", t.span)
    if cls is S.TPack:
        witness, ann = ctx.read(t.witness), ctx.read(t.ann)
        if type(ann) is not S.FExists:
            raise CheckError("TC_EXISTS_I", f"pack annotation {show(ann)} is not existential", span=t.span)
        want = S.subst_ind(ann.body, witness)
        got = _fd(env, t.value, ctx, fs)
        if not S.alpha_eq(got, want):
            raise CheckError(
                "TC_EXISTS_I", f"witness body has type {show(got)}, expected {show(want)}", span=t.span
            )
        ctx.rule("TC_EXISTS_I")
        return ann
    if cls is S.TIndApp:
        fnty = _fd(env, t.fn, ctx, fs)
        if type(fnty) is not S.FForall:
            raise CheckError(
                "TC_FORALL_E", f"instantiated a non-universal of type {show(fnty)}", span=t.span
            )
        ctx.rule("TC_FORALL_E")
        return S.subst_ind(fnty.body, ctx.read(t.arg))
    if cls is S.TIndLam:
        ev = ctx.open(t.var)
        phi = _fd(env, t.body, ctx, fs)
        ctx.close()
        ctx.rule("TC_FORALL_I")
        return S.FForall(t.var, S.close_ind(phi, ev.name))
    if cls is S.TRec:
        if t.motive is None:
            raise CheckError("TC_REC", "dependent rec requires a motive", span=t.span, reason="MissingMotive")
        motive = ctx.read(t.motive)
        idx = _fd_nat(env, t.bound, ctx, fs, "TC_REC", t.span)
        base_want = S.subst_ind(motive.body, S.IZero())
        base_got = _fd(env, t.base, ctx, fs)
        if not S.alpha_eq(base_got, base_want):
            raise CheckError(
                "TC_REC", f"base has type {show(base_got)}, expected {show(base_want)}", span=t.span
            )
        step = t.step
        if type(step) is not S.TIndLam or type(step.body) is not S.TFn:
            raise CheckError(
                "TC_REC", "dependent rec step must be 'lam n. fn y : nat(n) => ...'", span=t.span
            )
        svar, fn = step.var, step.body
        yann = ctx.read(fn.ann, 1)  # its index 0 is svar's
        ev = ctx.open(svar)
        if yann != S.FNat(S.IBound(0)):
            shown = show(S.subst_ind(yann, S.IVar(svar)))
            raise CheckError("TC_REC", f"step counter annotated {shown}, expected nat({svar})", span=t.span)
        want = S.FArrow(S.subst_ind(motive.body, ev), S.subst_ind(motive.body, S.ISucc(ev)))
        shadowed = envs.bind(env, fn.param, S.FNat(ev))
        got = _fd(env, fn.body, ctx, fs)
        envs.unbind(env, fn.param, shadowed)
        ctx.close()
        if not S.alpha_eq(got, want):
            raise CheckError("TC_REC", f"step has type {show(got)}, expected {show(want)}", span=t.span)
        ctx.rule("TC_REC")
        return S.subst_ind(motive.body, idx)
    if cls is S.TThrow:
        cont_ty = _fd(env, t.cont, ctx, fs)
        negated = S.as_neg_f(cont_ty)
        if negated is None:
            raise CheckError(
                "TC_THROW", f"throw target has type {show(cont_ty)}, expected a negation", span=t.span
            )
        got = _fd(env, t.arg, ctx, fs)
        if not S.alpha_eq(got, negated):
            raise CheckError(
                "TC_THROW", f"thrown value has type {show(got)}, expected {show(negated)}", span=t.span
            )
        ctx.rule("TC_THROW")
        return ctx.read(t.ann)
    if cls is S.TCallcc:
        ty = _fd(env, t.arg, ctx, fs)
        negated = S.as_neg_f(ty.dom) if type(ty) is S.FArrow else None
        if negated is None or not S.alpha_eq(negated, ty.cod):
            raise CheckError(
                "TC_CALLCC", f"callcc argument has type {show(ty)}, expected ~phi -> phi", span=t.span
            )
        ctx.rule("TC_CALLCC")
        return ty.cod
    if cls is S.TUnpack:
        raise CheckError("TC_EXISTS", "'?n.' is only meaningful under a tuple match", span=t.span)
    raise CheckError("FD", f"unhandled term {show(ctx.read(t))}", span=getattr(t, "span", None))


def _fd_nat(env: dict, t: S.Term, ctx: CheckCtx, fs: bool, rule: str, span) -> Optional[S.Ind]:
    """The index of t's nat type; in FS, a bare nat and no index."""
    ty = _fd(env, t, ctx, fs)
    if not isinstance(ty, S.FNat) or (ty.index is None) != fs:
        wanted = "nat" if fs else "an indexed nat"
        raise CheckError(rule, f"expected {wanted}, found {show(ty)}", span=span)
    return ty.index


def _fd_lets(env: dict, t: S.Term, ctx: CheckCtx, fs: bool) -> S.Formula:
    """TC_LET and TC_MATCH along a chain of lets, with a loop: an image's
    chain is as long as its source sequence.  The chain's type is its
    end's.  Afterwards the bindings are undone, and no eigenvariable a
    match opened may escape into that type (checked innermost first)."""
    bound: list = []  # (names, what unbind_all needs), outermost first
    opened: list = []  # (eigenvariable, span of its match), outermost first
    while True:
        cls = type(t)
        if cls is S.TLet:
            ty = _fd(env, t.value, ctx, fs)
            ctx.rule("TC_LET")
            bound.append(((t.name,), [envs.bind(env, t.name, ty)]))
            t = t.body
        elif cls is S.TLetMatch:
            names = t.names
            ty = _fd(env, t.value, ctx, fs)
            if fs and not (isinstance(ty, S.FTuple) and len(ty.items) == len(names)):
                raise CheckError(
                    "TC_MATCH", f"pattern <{', '.join(names)}> does not match {show(ty)}", span=t.span
                )
            ctx.rule("TC_MATCH")
            t = _fd_match(env, names, ty, t.body, ctx, fs, t.span, bound, opened)
        else:
            break
    result = _fd(env, t, ctx, fs)
    for names, shadowed in reversed(bound):
        envs.unbind_all(env, names, shadowed)
    if not opened:
        return result
    ctx.close(len(opened))
    free = S.free_ind_vars(result)
    for eigen, span in reversed(opened):
        if eigen in free:
            raise CheckError(
                "TC_EXISTS",
                f"eigenvariable {eigen} escapes into the result type {show(result)}",
                span=span,
                reason="EigenEscape",
            )
    return result


def _fd_match(
    env: dict,
    names: Tuple[str, ...],
    phi: S.Formula,
    body: S.Term,
    ctx: CheckCtx,
    fs: bool,
    span,
    bound: list,
    opened: list,
) -> S.Term:
    """Sigma, <x...> : phi |- body (TC_PRODUCT / TC_EXISTS; TCTE_PRODUCT in
    FS): open phi's existentials against body's '?n.'s, bind the names,
    and return what is left of body.  The bindings and the eigenvariables
    go on `_fd_lets`'s lists."""
    while isinstance(phi, S.FExists):
        if not isinstance(body, S.TUnpack):
            raise CheckError(
                "TC_EXISTS",
                f"matched value has existential type {show(phi)}; the body must begin with '?n.'",
                span=span,
                reason="MissingUnpack",
            )
        ev = ctx.open(body.var)
        phi = S.subst_ind(phi.body, ev)
        body = body.body
        ctx.rule("TC_EXISTS")
        opened.append((ev.name, span))
    if isinstance(phi, S.FTuple):
        if len(phi.items) != len(names):
            raise CheckError(
                "TC_PRODUCT",
                f"pattern <{', '.join(names)}> does not match {show(phi)}",
                span=span,
            )
        ctx.rule("TCTE_PRODUCT" if fs else "TC_PRODUCT")
        bound.append((names, envs.bind_all(env, names, phi.items)))
        return body
    raise CheckError("TC_PRODUCT", f"cannot match a tuple pattern against {show(phi)}", span=span)


# ---------------------------------------------------------------------------
# ID, and IS as its index-free fragment
# ---------------------------------------------------------------------------

def _fresh_for_store(name: str, omega: S.Env, rule: str, span, what: str) -> None:
    """A cst (or in IS a var) may not shadow a live store ident: a shadowed
    store name would resolve differently in the checker (rightmost
    binding) and in the let-based translation (innermost binding)."""
    if envs.lookup(omega, name) is not None:
        raise CheckError(
            rule,
            f"'{name}' shadows a live store variable; rename the {what}",
            span=span,
            reason="FreshnessViolation",
        )


def _simple_prop(p: S.Prop, span) -> None:
    """IS parameter and output types: unit, nat, and procedures over them."""
    cls = type(p)
    if cls is S.FNat and p.index is None or cls is S.FTop:
        return
    if cls is S.PProc and type(p.proto) is S.ProtoBase and type(p.proto.out) is S.OSimple:
        for q in p.proto.params + p.proto.out.types:
            _simple_prop(q, span)
        return
    raise CheckError("IS", f"{show(p)} is not a simple type", span=span)


def proto_of_header(header: S.Header) -> S.Proto:
    cls = type(header)
    if cls is S.HBase:
        _, types = envs.split(header.params)
        _, output = envs.qsplit(header.out)
        return S.ProtoBase(types, output)
    if cls is S.HForall:
        return S.ProtoAll(header.var, proto_of_header(header.body))
    raise AssertionError(header)


def id_check_expr(gamma: S.Env, omega: S.Env, e: S.Expr, ctx: Optional[CheckCtx] = None) -> S.Prop:
    """The dependent type of e, or raise CheckError."""
    return _id_expr(gamma, omega, e, ctx or CheckCtx(), False)


def is_check_expr(gamma: S.Env, omega: S.Env, e: S.Expr, ctx: Optional[CheckCtx] = None) -> S.Prop:
    """The simple type of e, or raise CheckError."""
    return _id_expr(gamma, omega, e, ctx or CheckCtx(), True)


def check_main(gamma: S.Env, main: S.MainI, ctx: CheckCtx, simple: bool) -> None:
    """An imperative file's main sequence, checked as the body of a
    procedure with no parameters; simple picks the IS fragment."""
    _id_check_header(gamma, S.HBase((), main.out, main.body), ctx, main.span, simple, main=True)


# simple is True when checking the IS fragment (see the module docstring).
def _id_expr(gamma: S.Env, omega: S.Env, e: S.Expr, ctx: CheckCtx, simple: bool) -> S.Prop:
    cls = type(e)  # the cases go most frequent first
    if cls is S.EVar:
        return check_ident(gamma, omega, e.name, ctx, e.span)
    if cls is S.ENum:
        if simple:
            ctx.rule("T_NUM")
            return _NAT
        ctx.rule("T_ZERO" if e.value == 0 else "T_SUCC")
        return S.FNat(S.num_ind(e.value))
    if cls is S.EProc:
        declared = proto_of_header(e.header)
        if not simple:
            declared = ctx.read(declared)
        _id_check_header(gamma, e.header, ctx, e.span, simple)
        return S.proc_t(declared)
    if cls is S.EStar:
        ctx.rule("T_UNIT" if simple else "T_TRUE")
        return S.FTop()
    if simple:
        raise CheckError(
            "IS", f"expression not in the simple fragment: {show(e)}", span=getattr(e, "span", None)
        )
    if cls is S.ECoerce:
        return check_coercion(
            lambda x: _id_expr(gamma, omega, x, ctx, simple), e.subject, e.fam, e.proof, ctx, "T", e.span
        )
    if cls is S.EAxiom:
        return check_axiom(e.left, e.right, ctx, "T", e.span)
    if cls is S.EInst:
        fnty = _id_expr(gamma, omega, e.fn, ctx, simple)
        if type(fnty) is S.PProc and type(fnty.proto) is S.ProtoAll:
            ctx.rule("T_PROC_INST")
            return S.proc_t(S.subst_ind(fnty.proto.body, ctx.read(e.arg)))
        if type(fnty) is S.PNeg and type(fnty.out) is S.OExists:
            raise CheckError(
                "T_PROC_INST",
                "a continuation is instantiated with '<: {n/phi}{i}', not '{i}'",
                span=e.span,
            )
        raise CheckError("T_PROC_INST", f"instantiated a non-universal of type {show(fnty)}", span=e.span)
    if cls is S.EContInst:
        fam, arg = ctx.read(e.fam), ctx.read(e.arg)
        want = S.PNeg(S.OExists(fam.var, fam.body))
        got = _id_expr(gamma, omega, e.fn, ctx, simple)
        if not S.alpha_eq(got, want):
            raise CheckError(
                "T_CONT_INST",
                f"continuation has type {show(got)}, the annotation negates to {show(want)}",
                span=e.span,
                reason="NegationMismatch",
            )
        ctx.rule("T_CONT_INST")
        return S.PNeg(S.subst_ind(fam.body, arg))
    raise CheckError("ID", f"unhandled expression {show(ctx.read(e))}", span=getattr(e, "span", None))


def _id_check_header(
    gamma: S.Env, header: S.Header, ctx: CheckCtx, span, simple: bool, main: bool = False
) -> None:
    """T_PROC_DECL, T_PROC in IS: the body, from a store of its outputs at
    unit, reaches the declared outputs.  The main sequence is checked as
    a header with no parameters (main is True), which adds no rule to the
    trace and has its own IS messages."""
    cls = type(header)
    if cls is S.HBase:
        params, out, body = header.params, header.out, header.body
        rule = "T_PROC" if simple else "T_PROC_DECL"
        if not simple:
            params, out = ctx.read(params), ctx.read(out)
        elif type(out) is not S.QSimple:
            if main:
                raise CheckError(rule, "IS main cannot declare an existential output", span=span)
            raise CheckError(rule, "existential outputs are not simple", span=span)
        elif not main:
            for _, p in params + out.env:
                _simple_prop(p, span)
        names, _ = envs.qsplit(out)
        check_header_idents(params, names, rule, span)
        if not main:
            gamma = envs.append(gamma, params)
            ctx.rule(rule)
        final = _id_seq(gamma, envs.init(names, S.FTop()), body, out, ctx, simple)
        if simple and final != out.env:
            raise CheckError(
                rule,
                f"{'main' if main else 'body'} ends with store {show_env(final)}, "
                f"declared out is {show_env(out.env)}",
                span=span,
                reason="OutputMismatch",
            )
    elif cls is S.HForall:
        if simple:
            raise CheckError("T_PROC", "quantified headers are not simple", span=span)
        ctx.open(header.var)
        ctx.rule("T_PROC_ABS")
        _id_check_header(gamma, header.body, ctx, span, simple)
        ctx.close()
    else:
        raise AssertionError(header)


def id_check_exprs(
    gamma: S.Env,
    omega: S.Env,
    args: Tuple[S.Expr, ...],
    wanted: Tuple[S.Prop, ...],
    ctx: CheckCtx,
    rule: str,
    span,
    simple: bool,
) -> None:
    """T_EXPS: each argument has its parameter's type.  In IS the caller's
    rule is traced here, before the arguments; in ID the caller traces it
    after them."""
    if len(args) != len(wanted):
        raise CheckError(
            rule, f"{len(args)} arguments for {len(wanted)} parameters", span=span, reason="LengthMismatch"
        )
    if simple:
        ctx.rule(rule)
    for arg, want in zip(args, wanted):
        got = _id_expr(gamma, omega, arg, ctx, simple)
        ctx.rule("T_EXPS_II")
        if not S.alpha_eq(got, want):
            if simple:
                raise CheckError("T_EXPS", f"argument has type {show(got)}, expected {show(want)}", span=span)
            raise CheckError(
                rule,
                f"argument {show(ctx.read(arg))} has type {show(got)}, expected {show(want)}",
                span=span,
            )


def _id_seq(
    gamma: S.Env, omega: S.Env, s: S.Seq, expected: Optional[S.QEnv], ctx: CheckCtx, simple: bool
) -> Optional[S.Env]:
    """Check a sequence against an expected quantified output environment;
    in IS, return the store it ends with, without its locals, and do not
    read expected.

    The items are checked in a loop.  A `?n.` is read with the command
    before it, and the binder it opens stays open to the end of s; a
    `:>` group, which ends the sequence, is checked against the goal it
    leaves.
    """
    items, k = s.items, 0
    opened = 0  # the '?n.'s opened so far; they scope over the rest of s
    live = len(omega)  # the store before the locals of s's var items
    while k < len(items):
        item = items[k]
        k += 1
        cls = type(item)
        if cls is S.SCst:
            _fresh_for_store(item.name, omega, "T_CST", item.span, "declaration" if simple else "constant")
            ty = _id_expr(gamma, omega, item.value, ctx, simple)
            ctx.rule("T_CST")
            gamma = gamma + ((item.name, ty),)
        elif cls is S.SVar:
            if simple:
                _fresh_for_store(item.name, omega, "T_VAR", item.span, "declaration")
            ty = _id_expr(gamma, omega, item.value, ctx, simple)
            if not simple and envs.belongs(item.name, expected):
                raise CheckError(
                    "T_VAR",
                    f"local '{item.name}' must not occur in the output environment {show(expected)}",
                    span=item.span,
                    reason="FreshnessViolation",
                )
            ctx.rule("T_VAR")
            omega = omega + ((item.name, ty),)
        elif simple and not isinstance(item, S.Command):
            raise CheckError("IS", "sequence form not in the simple fragment", span=item.span)
        elif cls is S.SWitness:
            ann = ctx.read(item.ann)
            if not isinstance(ann, S.QExists):
                raise CheckError(
                    "T_WITNESS", f"witness annotates non-existential {show(ann)}", span=item.span,
                    reason="WitnessMismatch",
                )
            if not S.alpha_eq(ann, expected):
                raise CheckError(
                    "T_WITNESS",
                    f"witness annotation {show(ann)} does not match the goal {show(expected)}",
                    span=item.span,
                    reason="WitnessMismatch",
                )
            ctx.rule("T_WITNESS")
            expected = S.subst_ind(ann.body, ctx.read(item.witness))
        elif cls is S.SSubst:
            fam = ctx.recall(item.fam)
            proof_ty = _id_expr(gamma, omega, item.proof, ctx, simple)
            if not isinstance(proof_ty, S.FEq):
                raise CheckError(
                    "T_SUBST", f"coercion proof has type {show(proof_ty)}, expected an equation", span=item.span
                )
            claimed = ctx.instance(fam.body, proof_ty.left)
            if claimed is not expected and not S.alpha_eq(claimed, expected):
                raise CheckError(
                    "T_SUBST",
                    f"coercion yields {show(claimed)}, the goal is {show(expected)}",
                    span=item.span,
                )
            ctx.rule("T_SUBST")
            _id_seq(gamma, omega, item.body, ctx.instance(fam.body, proof_ty.right), ctx, simple)
            ctx.close(opened)
            return None
        elif cls is S.SUnpack:
            raise CheckError(
                "TC_UPDATE_SEQ_II",
                "'?n.' may only follow a call, block, label or jump delivering an existential",
                span=item.span,
            )
        else:
            omega, theta = _id_command(gamma, omega, item, ctx, simple)
            if theta is None:
                continue
            # TC_UPDATE_SEQ: go on from the store updated by theta
            while isinstance(theta, S.QExists):
                unpack = items[k] if k < len(items) else None
                if not isinstance(unpack, S.SUnpack):
                    raise CheckError(
                        "TC_UPDATE_SEQ_II",
                        f"the store update {show(theta)} is existential; the continuation must begin with '?{theta.var}.'",
                        span=item.span,
                        reason="MissingUnpack",
                    )
                ev = ctx.open(unpack.var)
                opened += 1
                theta = S.subst_ind(theta.body, ev)
                k += 1
                ctx.rule("TC_UPDATE_SEQ_II")
            ctx.rule("TC_UPDATE_SEQ_I")
            omega = envs.multi_update(omega, theta.env, "TC_UPDATE_SEQ", item.span)
    if opened:
        ctx.close(opened)
    if simple:
        ctx.rule("T_EMPTY")
        return omega[:live]  # without the locals
    if type(expected) is S.QSimple:
        envs.subset(expected.env, omega, "T_EMPTY", s.span)
        ctx.rule("T_EMPTY")
    elif type(expected) is S.QExists:
        raise CheckError(
            "T_EMPTY",
            f"output {show(expected)} is existential; a witness annotation is required",
            span=s.span,
            reason="MissingWitness",
        )
    return None


def _id_command(
    gamma: S.Env, omega: S.Env, cmd: S.Command, ctx: CheckCtx, simple: bool
) -> Tuple[S.Env, Optional[S.QEnv]]:
    """Check one command: the store after it, and for an ID block, label,
    jump or call the output environment theta it updates the store with
    (TC_UPDATE_SEQ), else None.  An IS block or call updates the store
    itself, by multi_update."""
    cls = type(cmd)  # the cases go most frequent first
    if cls is S.CAssign:
        envs.require(omega, cmd.name, "T_ASSIGN", cmd.span)
        ty = _id_expr(gamma, omega, cmd.value, ctx, simple)
        ctx.rule("T_ASSIGN")
        return envs.update(omega, cmd.name, ty, "T_ASSIGN", cmd.span), None
    if cls is S.CInc or cls is S.CDec:
        name = cmd.name
        rule = "T_INC" if cls is S.CInc else "T_DEC"
        ty = envs.require(omega, name, rule, cmd.span)
        if type(ty) is not S.FNat or (ty.index is None) != simple:
            wanted = "nat" if simple else "an indexed nat"
            raise CheckError(rule, f"'{name}' has type {show(ty)}, expected {wanted}", span=cmd.span)
        ctx.rule(rule)
        if simple:
            return omega, None
        index = ty.index
        if cls is S.CInc:
            ty = ctx.succs.get(id(index)) or ctx.step(index, True)
        else:
            ty = ctx.preds.get(id(index)) or ctx.step(index, False)
        return envs.update(omega, name, ty, rule, cmd.span), None
    if cls is S.CCall:
        outs = cmd.outs
        if len(set(outs)) != len(outs):
            raise CheckError("T_CALL", "output idents of a call must be distinct", span=cmd.span)
        fnty = _id_expr(gamma, omega, cmd.fn, ctx, simple)
        if type(fnty) is not S.PProc or type(fnty.proto) is not S.ProtoBase:
            if type(fnty) is S.PProc and type(fnty.proto) is S.ProtoAll:
                raise CheckError(
                    "T_CALL", f"procedure of type {show(fnty)} must be instantiated before the call",
                    span=cmd.span,
                )
            if type(fnty) is S.PNeg:
                raise CheckError(
                    "T_CALL",
                    f"'{show(ctx.read(cmd.fn))}' is a continuation of type {show(fnty)}; use jump",
                    span=cmd.span,
                )
            raise CheckError("T_CALL", f"called a non-procedure of type {show(fnty)}", span=cmd.span)
        out = fnty.proto.out
        id_check_exprs(gamma, omega, cmd.args, fnty.proto.params, ctx, "T_CALL", cmd.span, simple)
        if simple:
            binding = envs.zip_env(outs, out.types, "T_CALL", cmd.span)
            return envs.multi_update(omega, binding, "T_CALL", cmd.span), None
        theta = envs.qzip(outs, out, "T_CALL", cmd.span)
        ctx.rule("T_CALL")
        return omega, theta
    if cls is S.CFor:
        idx, frame = cmd.idx, cmd.frame
        if simple and idx is not None:
            raise CheckError("T_FOR", "indexed loops are not simple", span=cmd.span)
        if not simple:
            frame = ctx.read(frame, 1)  # its index 0 is the loop's
        frame0 = S.subst_ind(frame, S.IZero()) if idx else frame
        envs.subset(frame0, omega, "T_FOR", cmd.span)
        bound_ty = _id_expr(gamma, omega, cmd.bound, ctx, simple)
        if type(bound_ty) is not S.FNat or (bound_ty.index is None) != simple:
            wanted = "nat" if simple else "an indexed nat"
            raise CheckError("T_FOR", f"loop bound has type {show(bound_ty)}, expected {wanted}", span=cmd.span)
        if simple:
            # an IS body starts from the frame, and must end with it
            ctx.rule("T_FOR")
            result = _id_seq(gamma + ((cmd.var, _NAT),), frame, cmd.body, None, ctx, simple)
            if result != frame:
                raise CheckError(
                    "T_FOR",
                    f"loop body maps frame {show_env(frame)} to {show_env(result)}",
                    span=cmd.span,
                    reason="LoopFrameNotInvariant",
                )
            return omega, None
        ev = ctx.open("i" if idx is None else idx)
        frame_n = S.subst_ind(frame, ev)
        frame_s = S.subst_ind(frame, S.ISucc(ev))
        frame_end = S.subst_ind(frame, bound_ty.index)
        ctx.rule("T_FOR")
        _id_seq(gamma + ((cmd.var, S.FNat(ev)),), frame_n, cmd.body, S.QSimple(frame_s), ctx, simple)
        ctx.close()
        return envs.multi_update(omega, frame_end, "T_FOR", cmd.span), None
    if cls is S.CBlock:
        ann = cmd.ann
        if simple:
            # an IS block starts from its frame, not from the whole store
            if type(ann) is not S.QSimple:
                raise CheckError("T_BLOCK", "existential block annotations are not simple", span=cmd.span)
            envs.subset(ann.env, omega, "T_BLOCK", cmd.span)
            ctx.rule("T_BLOCK")
            result = _id_seq(gamma, ann.env, cmd.body, ann, ctx, simple)
            return envs.multi_update(omega, result, "T_BLOCK", cmd.span), None
        ann = ctx.read(ann)
        ctx.rule("T_BLOCK")
        _id_seq(gamma, omega, cmd.body, ann, ctx, simple)
        return omega, ann
    if (cls is S.CLabel or cls is S.CJump) and simple:
        raise CheckError("IS", "jumps and labels are not simple", span=cmd.span)
    if cls is S.CJump:
        ann = ctx.read(cmd.ann)
        target_ty = _id_expr(gamma, omega, cmd.target, ctx, simple)
        if type(target_ty) is not S.PNeg:
            raise CheckError(
                "T_JUMP",
                f"jump target has type {show(target_ty)}, expected a negation",
                span=cmd.span,
                reason="NegationMismatch",
            )
        if type(target_ty.out) is S.OExists:
            raise CheckError(
                "T_JUMP",
                f"jump target expects an existential package {show(target_ty)}; instantiate it with '<:'",
                span=cmd.span,
                reason="NegationMismatch",
            )
        id_check_exprs(gamma, omega, cmd.args, target_ty.out.types, ctx, "T_JUMP", cmd.span, simple)
        ctx.rule("T_JUMP")
        return omega, ann
    if cls is S.CLabel:
        ann = ctx.read(cmd.ann)
        _, out = envs.qsplit(ann)
        ctx.rule("T_LABEL")
        _id_seq(gamma + ((cmd.name, S.PNeg(out)),), omega, cmd.body, ann, ctx, simple)
        return omega, ann
    raise AssertionError(cmd)
