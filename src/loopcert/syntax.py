"""Abstract syntax for both languages and both type disciplines.

Two term languages share one kernel:

* the functional language (terms ``T*``) with formulas ``F*`` as types,
* the imperative language (expressions ``E*``, commands ``C*``,
  sequences ``S*``) with props, outputs, prototypes and quantified
  environments as types.

First-order index terms ("individuals", ``I*``) are common to both, and
so are the type atoms: ``nat(i)``, ``i = j``, ``top``, ``bot`` and
proposition variables are one set of classes (``FNat``, ``FEq``,
``FTop``, ``FBot``, ``FProp``), each both a ``Formula`` and a ``Prop``.
Only procedure types and negations (``PProc``, ``PNeg``) are props alone.
All nodes are immutable and slotted (no per-node ``__dict__``);
operations in this module are pure functions.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields, is_dataclass
from typing import Any, Optional, Tuple

Span = Tuple[int, int]  # (line, column)

# Eigenvariables live in a reserved namespace the lexer cannot produce.
EIGEN_MARK = "!"


class Node:
    """Base class for all syntax nodes."""

    __slots__ = ()


def _span_field() -> Any:
    return field(default=None, compare=False, repr=False)


# ---------------------------------------------------------------------------
# Individuals
# ---------------------------------------------------------------------------

class Ind(Node):
    __slots__ = ()


@dataclass(frozen=True, slots=True)
class IVar(Ind):
    name: str


@dataclass(frozen=True, slots=True)
class IZero(Ind):
    pass


@dataclass(frozen=True, slots=True)
class ISucc(Ind):
    arg: Ind


@dataclass(frozen=True, slots=True)
class IPred(Ind):
    arg: Ind


@dataclass(frozen=True, slots=True)
class IAdd(Ind):
    left: Ind
    right: Ind


@dataclass(frozen=True, slots=True)
class ISub(Ind):
    left: Ind
    right: Ind


@dataclass(frozen=True, slots=True)
class IMult(Ind):
    left: Ind
    right: Ind


@dataclass(frozen=True, slots=True)
class IF32(Ind):
    arg: Ind


def num_ind(n: int) -> Ind:
    """Digit literals become zero/succ chains at parse time."""
    out: Ind = IZero()
    for _ in range(n):
        out = ISucc(out)
    return out


# ---------------------------------------------------------------------------
# Types: Formula on the functional side (the simple sublanguage is
# index-free), Prop on the imperative side; the atoms are both
# ---------------------------------------------------------------------------

class Formula(Node):
    __slots__ = ()


class Prop(Node):
    __slots__ = ()


@dataclass(frozen=True, slots=True)
class FProp(Formula, Prop):
    name: str


@dataclass(frozen=True, slots=True)
class FTop(Formula, Prop):
    pass


@dataclass(frozen=True, slots=True)
class FBot(Formula, Prop):
    pass


@dataclass(frozen=True, slots=True)
class FNat(Formula, Prop):
    index: Optional[Ind] = None  # None in the simple discipline


@dataclass(frozen=True, slots=True)
class FEq(Formula, Prop):
    left: Ind
    right: Ind


@dataclass(frozen=True, slots=True)
class FArrow(Formula):
    dom: Formula
    cod: Formula


@dataclass(frozen=True, slots=True)
class FForall(Formula):
    var: str
    body: Formula

    _binds_ind = (("var", ("body",)),)


@dataclass(frozen=True, slots=True)
class FExists(Formula):
    var: str
    body: Formula

    _binds_ind = (("var", ("body",)),)


@dataclass(frozen=True, slots=True)
class FTuple(Formula):
    items: Tuple[Formula, ...]


_ABSURD = FTuple((FBot(),))


def neg_f(phi: Formula) -> Formula:
    """Negation on the functional side is the arrow into the absurd tuple.

    ``callcc``/``throw`` eliminate it by application, so it must *be* an
    arrow; the printer spells it ``~phi``.
    """
    return FArrow(phi, _ABSURD)


def as_neg_f(phi: Formula) -> Optional[Formula]:
    if isinstance(phi, FArrow) and phi.cod == _ABSURD:
        return phi.dom
    return None


def is_simple_formula(phi: Formula) -> bool:
    """The simple sublanguage: top, bare nat, arrows and tuples only."""
    match phi:
        case FTop():
            return True
        case FNat(index):
            return index is None
        case FArrow(dom, cod):
            return is_simple_formula(dom) and is_simple_formula(cod)
        case FTuple(items):
            return all(is_simple_formula(i) for i in items)
        case _:
            return False


# ---------------------------------------------------------------------------
# Imperative-side types: props, outputs, prototypes, quantified environments
# ---------------------------------------------------------------------------

class Output(Node):
    __slots__ = ()


class Proto(Node):
    __slots__ = ()


class QEnv(Node):
    __slots__ = ()


# ordered ident:type list; the type side is Prop (imperative) or Formula
Env = Tuple[Tuple[str, Any], ...]


@dataclass(frozen=True, slots=True)
class PProc(Prop):
    proto: Proto


@dataclass(frozen=True, slots=True)
class PNeg(Prop):
    """~phi: the type of a continuation accepting phi's value vector.

    Simple outputs give the concrete ``~(psi, ...)``; negating an
    existential output (labels over quantified annotations) keeps the
    quantifier here rather than materialising a forall-prototype.
    """

    out: Output


@dataclass(frozen=True, slots=True)
class OSimple(Output):
    types: Tuple[Prop, ...]


@dataclass(frozen=True, slots=True)
class OExists(Output):
    var: str
    body: Output

    _binds_ind = (("var", ("body",)),)


@dataclass(frozen=True, slots=True)
class ProtoBase(Proto):
    params: Tuple[Prop, ...]
    out: Output


@dataclass(frozen=True, slots=True)
class ProtoAll(Proto):
    var: str
    body: Proto

    _binds_ind = (("var", ("body",)),)


@dataclass(frozen=True, slots=True)
class QSimple(QEnv):
    env: Env


@dataclass(frozen=True, slots=True)
class QExists(QEnv):
    var: str
    body: QEnv

    _binds_ind = (("var", ("body",)),)


def proc_t(proto: Proto) -> Prop:
    """Smart constructor for proc types.

    A procedure whose output is exactly ``[bot]`` never returns; such a
    prototype *is* the negation of its parameter vector, and Figure-2
    style programs assign these literals into continuation slots.
    """
    if isinstance(proto, ProtoBase) and proto.params and proto.out == OSimple((FBot(),)):
        return PNeg(OSimple(proto.params))
    return PProc(proto)


@dataclass(frozen=True, slots=True)
class Fam(Node):
    """A one-binder parametrized node {n/X}; X may be of any category."""

    var: str
    body: Any

    _binds_ind = (("var", ("body",)),)


# ---------------------------------------------------------------------------
# Functional terms
# ---------------------------------------------------------------------------

class Term(Node):
    __slots__ = ()


@dataclass(frozen=True, slots=True)
class TVar(Term):
    name: str
    span: Optional[Span] = _span_field()


@dataclass(frozen=True, slots=True)
class TZero(Term):
    span: Optional[Span] = _span_field()


@dataclass(frozen=True, slots=True)
class TSucc(Term):
    arg: Term
    span: Optional[Span] = _span_field()


@dataclass(frozen=True, slots=True)
class TPred(Term):
    arg: Term
    span: Optional[Span] = _span_field()


@dataclass(frozen=True, slots=True)
class TFn(Term):
    param: str
    ann: Formula
    body: Term
    span: Optional[Span] = _span_field()

    _binds_term = (("param", ("body",)),)


@dataclass(frozen=True, slots=True)
class TApp(Term):
    fn: Term
    arg: Term
    span: Optional[Span] = _span_field()


@dataclass(frozen=True, slots=True)
class TIndLam(Term):
    var: str
    body: Term
    span: Optional[Span] = _span_field()

    _binds_ind = (("var", ("body",)),)


@dataclass(frozen=True, slots=True)
class TIndApp(Term):
    fn: Term
    arg: Ind
    span: Optional[Span] = _span_field()


@dataclass(frozen=True, slots=True)
class TRec(Term):
    bound: Term
    base: Term
    step: Term
    motive: Optional[Fam] = None  # required in dependent mode, absent in simple
    span: Optional[Span] = _span_field()


@dataclass(frozen=True, slots=True)
class TTuple(Term):
    items: Tuple[Term, ...]
    span: Optional[Span] = _span_field()


@dataclass(frozen=True, slots=True)
class TLet(Term):
    name: str
    value: Term
    body: Term
    span: Optional[Span] = _span_field()

    _binds_term = (("name", ("body",)),)


@dataclass(frozen=True, slots=True)
class TLetMatch(Term):
    names: Tuple[str, ...]
    value: Term
    body: Term
    span: Optional[Span] = _span_field()

    _binds_term = (("names", ("body",)),)


@dataclass(frozen=True, slots=True)
class TPack(Term):
    witness: Ind
    value: Term
    ann: Formula  # an exists formula
    span: Optional[Span] = _span_field()


@dataclass(frozen=True, slots=True)
class TUnpack(Term):
    var: str
    body: Term
    span: Optional[Span] = _span_field()

    _binds_ind = (("var", ("body",)),)


@dataclass(frozen=True, slots=True)
class TCoerce(Term):
    subject: Term
    fam: Fam  # {n/phi}
    proof: Term
    span: Optional[Span] = _span_field()


@dataclass(frozen=True, slots=True)
class TAxiom(Term):
    left: Ind
    right: Ind
    span: Optional[Span] = _span_field()


@dataclass(frozen=True, slots=True)
class TCallcc(Term):
    arg: Term
    span: Optional[Span] = _span_field()


@dataclass(frozen=True, slots=True)
class TThrow(Term):
    ann: Formula
    cont: Term
    arg: Term
    span: Optional[Span] = _span_field()


# ---------------------------------------------------------------------------
# Imperative expressions, headers, commands, sequences
# ---------------------------------------------------------------------------

class Expr(Node):
    __slots__ = ()


class Header(Node):
    __slots__ = ()


class Command(Node):
    __slots__ = ()


@dataclass(frozen=True, slots=True)
class EVar(Expr):
    name: str
    span: Optional[Span] = _span_field()


@dataclass(frozen=True, slots=True)
class EStar(Expr):
    span: Optional[Span] = _span_field()


@dataclass(frozen=True, slots=True)
class ENum(Expr):
    value: int
    span: Optional[Span] = _span_field()


@dataclass(frozen=True, slots=True)
class EInst(Expr):
    fn: Expr
    arg: Ind
    span: Optional[Span] = _span_field()


@dataclass(frozen=True, slots=True)
class EContInst(Expr):
    fn: Expr
    fam: Fam  # {n/Output}
    arg: Ind
    span: Optional[Span] = _span_field()


@dataclass(frozen=True, slots=True)
class ECoerce(Expr):
    subject: Expr
    fam: Fam  # {n/Prop}
    proof: Expr
    span: Optional[Span] = _span_field()


@dataclass(frozen=True, slots=True)
class EAxiom(Expr):
    left: Ind
    right: Ind
    span: Optional[Span] = _span_field()


@dataclass(frozen=True, slots=True)
class EProc(Expr):
    header: Header
    span: Optional[Span] = _span_field()


@dataclass(frozen=True, slots=True)
class HBase(Header):
    params: Env  # gamma
    out: QEnv  # theta (simple env for the simple discipline)
    body: Seq


@dataclass(frozen=True, slots=True)
class HForall(Header):
    var: str
    body: Header

    _binds_ind = (("var", ("body",)),)


@dataclass(frozen=True, slots=True)
class CBlock(Command):
    body: Seq
    ann: QEnv
    span: Optional[Span] = _span_field()


@dataclass(frozen=True, slots=True)
class CFor(Command):
    var: str  # loop counter ident
    idx: Optional[str]  # index binder over body and frame; None when simple
    bound: Expr
    body: Seq
    frame: Env
    span: Optional[Span] = _span_field()

    _binds_ind = (("idx", ("body", "frame")),)


@dataclass(frozen=True, slots=True)
class CAssign(Command):
    name: str
    value: Expr
    span: Optional[Span] = _span_field()


@dataclass(frozen=True, slots=True)
class CInc(Command):
    name: str
    span: Optional[Span] = _span_field()


@dataclass(frozen=True, slots=True)
class CDec(Command):
    name: str
    span: Optional[Span] = _span_field()


@dataclass(frozen=True, slots=True)
class CCall(Command):
    fn: Expr
    args: Tuple[Expr, ...]
    outs: Tuple[str, ...]
    span: Optional[Span] = _span_field()


@dataclass(frozen=True, slots=True)
class CJump(Command):
    target: Expr
    args: Tuple[Expr, ...]
    ann: QEnv
    span: Optional[Span] = _span_field()


@dataclass(frozen=True, slots=True)
class CLabel(Command):
    name: str
    body: Seq
    ann: QEnv
    span: Optional[Span] = _span_field()


@dataclass(frozen=True, slots=True)
class Seq(Node):
    """A sequence: its items (commands and the declaration items below)
    run left to right, and a `cst` or `var` item scopes over the items
    after it.  `?n.` and a witness hold the rest of the sequence in their
    own `rest`, and a `:>` group ends the sequence, so each of these three
    is the last item when present.  The span is where the sequence ends:
    an unmet output is reported there."""

    items: Tuple[Any, ...]
    span: Optional[Span] = _span_field()


class SeqItem(Node):
    """A sequence item that is not a command."""

    __slots__ = ()


@dataclass(frozen=True, slots=True)
class SCst(SeqItem):
    name: str
    value: Expr
    span: Optional[Span] = _span_field()


@dataclass(frozen=True, slots=True)
class SVar(SeqItem):
    name: str
    value: Expr
    span: Optional[Span] = _span_field()


@dataclass(frozen=True, slots=True)
class SUnpack(SeqItem):
    var: str
    rest: Seq
    span: Optional[Span] = _span_field()

    _binds_ind = (("var", ("rest",)),)


@dataclass(frozen=True, slots=True)
class SWitness(SeqItem):
    witness: Ind
    ann: QEnv
    rest: Seq
    span: Optional[Span] = _span_field()


@dataclass(frozen=True, slots=True)
class SSubst(SeqItem):
    body: Seq
    fam: Fam  # {n/QEnv}
    proof: Expr
    span: Optional[Span] = _span_field()


# ---------------------------------------------------------------------------
# Source files
# ---------------------------------------------------------------------------

@dataclass(frozen=True, slots=True)
class MainI(Node):
    body: Seq
    out: QEnv
    span: Optional[Span] = _span_field()


@dataclass(frozen=True, slots=True)
class MainF(Node):
    term: Term
    span: Optional[Span] = _span_field()


@dataclass(frozen=True, slots=True)
class SourceFile(Node):
    discipline: str  # IS | ID | FS | FD
    csts: Tuple[Tuple[str, Any], ...]  # Expr in I files, Term in F files
    main: Optional[Any] = None
    notes: Tuple[str, ...] = ()
    warnings: Tuple[str, ...] = ()


# ---------------------------------------------------------------------------
# Generic traversal machinery
# ---------------------------------------------------------------------------

# Field annotations whose values never hold syntax; traversals for
# substitution and free variables skip them.
_ATOM_TYPES = frozenset({"str", "int", "Optional[str]", "Tuple[str, ...]"})


class _Plan:
    """What the generic traversals need to know about one node class,
    worked out once per class instead of at every node."""

    __slots__ = ("cls", "fields", "syntax_fields", "has_span", "ind_binds", "term_binds",
                 "handled", "binder_fields")

    def __init__(self, cls: type) -> None:
        all_fields = fields(cls)
        self.cls = cls
        self.has_span = all_fields[-1].name == "span" if all_fields else False
        own = all_fields[:-1] if self.has_span else all_fields
        assert all(f.name != "span" for f in own), f"{cls.__name__}: span must come last"
        self.fields = tuple(f.name for f in own)
        self.syntax_fields = tuple(f.name for f in own if f.type not in _ATOM_TYPES)
        self.ind_binds = getattr(cls, "_binds_ind", ())
        self.term_binds = getattr(cls, "_binds_term", ())
        # fields subst_inds leaves to the binder handling
        self.handled = frozenset(f for _, scoped in self.ind_binds for f in scoped) | {
            bf for bf, _ in self.ind_binds
        }
        self.binder_fields = frozenset(bf for bf, _ in self.ind_binds + self.term_binds)

    def build(self, node: Node, changes: dict) -> Node:
        """A copy of node with some fields replaced, its span kept."""
        values = [changes[f] if f in changes else getattr(node, f) for f in self.fields]
        if self.has_span:
            values.append(node.span)
        return self.cls(*values)


# every concrete node class; any other value (str, int, None) has no plan.
# Taken from this module's names, not from Node.__subclasses__(): that
# walk would also find the class objects that dataclass(slots=True)
# replaces, and keep them alive.
_PLANS = {
    cls: _Plan(cls)
    for cls in globals().values()
    if isinstance(cls, type) and issubclass(cls, Node) and is_dataclass(cls)
}


def node_fields(node: Node) -> Tuple[str, ...]:
    return _PLANS[type(node)].fields


def free_ind_vars(node: Any) -> frozenset:
    """Free individual variables of any syntax value (nodes or tuples)."""
    out: set = set()
    _free_ind(node, out, ())
    return frozenset(out)


def _free_ind(value: Any, acc: set, bound: Tuple[str, ...]) -> None:
    cls = type(value)
    while cls is TLet or cls is TLetMatch:  # a let chain binds no individuals
        _free_ind(value.value, acc, bound)
        value = value.body
        cls = type(value)
    if cls is IVar:
        if value.name not in bound:
            acc.add(value.name)
        return
    if cls is tuple:
        for item in value:
            _free_ind(item, acc, bound)
        return
    plan = _PLANS.get(cls)
    if plan is None:
        return
    if not plan.ind_binds:
        for fname in plan.syntax_fields:
            _free_ind(getattr(value, fname), acc, bound)
        return
    bound_fields: dict = {}
    for binder_field, scoped in plan.ind_binds:
        binder = getattr(value, binder_field)
        if binder is not None:
            for name in scoped:
                bound_fields.setdefault(name, []).append(binder)
    for fname in plan.syntax_fields:
        extra = bound_fields.get(fname)
        _free_ind(getattr(value, fname), acc, bound + tuple(extra) if extra else bound)


def _rebuild(node: Node, **changes: Any) -> Node:
    if not changes:
        return node
    return _PLANS[type(node)].build(node, changes)


def subst_ind(value: Any, name: str, replacement: Ind) -> Any:
    """Capture-avoiding substitution of an individual for a variable.

    Works uniformly over every category admitting meta-application;
    binders that would capture free variables of the replacement are
    renamed first.  Subtrees in which nothing changes are shared with
    the input: when name is not free in value, value itself is returned.
    """
    free_repl = free_ind_vars(replacement)
    return subst_inds(value, {name: replacement}, free_repl)


def subst_inds(value: Any, sub: dict, free_repl: frozenset | set) -> Any:
    """subst_ind of every variable sub maps, at once.  free_repl holds the
    free variables of sub's individuals; sub is never changed."""
    cls = type(value)
    if cls is IVar:
        return sub.get(value.name, value)
    if cls is tuple:
        out = None
        for k, item in enumerate(value):
            new = subst_inds(item, sub, free_repl)
            if new is not item:
                if out is None:
                    out = list(value[:k])
                out.append(new)
            elif out is not None:
                out.append(item)
        return value if out is None else tuple(out)
    if cls is TLet or cls is TLetMatch:
        return _subst_lets(value, sub, free_repl)
    plan = _PLANS.get(cls)
    if plan is None:
        return value
    if plan.ind_binds:
        return _subst_binder(value, plan, sub, free_repl)
    changes = None
    for fname in plan.syntax_fields:
        old = getattr(value, fname)
        new = subst_inds(old, sub, free_repl)
        if new is not old:
            if changes is None:
                changes = {}
            changes[fname] = new
    return value if changes is None else plan.build(value, changes)


def _subst_lets(value: Node, sub: dict, free_repl: frozenset) -> Node:
    """subst_inds along a chain of lets, with a loop: a chain is as long as the
    sequence it translates.  The lets are rebuilt innermost first."""
    chain = []
    while type(value) is TLet or type(value) is TLetMatch:
        chain.append((value, subst_inds(value.value, sub, free_repl)))
        value = value.body
    body = subst_inds(value, sub, free_repl)
    for node, new_value in reversed(chain):
        if new_value is not node.value or body is not node.body:
            body = _rebuild(node, value=new_value, body=body)
        else:
            body = node
    return body


def _subst_binder(value: Node, plan: _Plan, sub: dict, free_repl: frozenset) -> Node:
    """subst_inds at a node binding individuals: drop shadowed substitutions,
    rename the binder where it would capture a variable of the replacement."""
    changes: dict = {}
    for binder_field, scoped in plan.ind_binds:
        binder = getattr(value, binder_field)
        if binder is None:
            # an absent binder (index-free loops) binds nothing
            for f in scoped:
                changes[f] = subst_inds(getattr(value, f), sub, free_repl)
            continue
        live = sub if binder not in sub else {k: v for k, v in sub.items() if k != binder}
        if binder in free_repl:
            # rename only when a substitution really reaches under the binder
            live = {
                k: v
                for k, v in live.items()
                if any(_occurs(getattr(value, f), k) for f in scoped)
            }
        if not live:
            continue
        if binder in free_repl:
            fresh = _fresh_name(binder, free_repl | free_ind_vars(value) | set(live))
            changes[binder_field] = fresh
            rename = {binder: IVar(fresh)}
            for f in scoped:
                changes[f] = subst_inds(getattr(value, f), rename, frozenset({fresh}))
        for f in scoped:
            base = changes.get(f, getattr(value, f))
            changes[f] = subst_inds(base, live, free_repl)
    for fname in plan.syntax_fields:
        if fname not in plan.handled:
            changes[fname] = subst_inds(getattr(value, fname), sub, free_repl)
    for fname, new in changes.items():
        if new is not getattr(value, fname):
            return plan.build(value, changes)
    return value


def _occurs(value: Any, name: str) -> bool:
    return name in free_ind_vars(value)


def _fresh_name(base: str, avoid: frozenset | set) -> str:
    """A parser-representable name not in avoid (for capture renames)."""
    stem = base.split(EIGEN_MARK)[0] or "n"
    if stem not in avoid:
        return stem
    k = 2
    while f"{stem}_{k}" in avoid:
        k += 1
    return f"{stem}_{k}"


class Freshener:
    """Per-run eigenvariable supply for the checkers."""

    def __init__(self) -> None:
        self._count = 0

    def fresh(self, base: str) -> str:
        self._count += 1
        stem = base.split(EIGEN_MARK)[0] or "n"
        return f"{stem}{EIGEN_MARK}{self._count}"


# ---------------------------------------------------------------------------
# Alpha equivalence
# ---------------------------------------------------------------------------

def alpha_eq(a: Any, b: Any) -> bool:
    """Equality up to consistent renaming of bound variables (individual
    binders and term-level binders alike).

    All equality premises of the typing rules dispatch through this; no
    arithmetic normalization is ever performed.  Structural equality
    (spans do not compare) implies alpha-equivalence, so it is tried
    first, except on a let chain: == recurses once per let, and _alpha
    walks the chain with a loop.  The renaming-aware walk runs only when
    the structural test fails.
    """
    if a is b or type(a) is not TLet and type(a) is not TLetMatch and a == b:
        return True
    return _alpha(a, b, ({}, {}), ({}, {}), 0)


def _alpha(a: Any, b: Any, la: tuple, lb: tuple, depth: int) -> bool:
    ca, cb = type(a), type(b)
    if ca is cb and (ca is TLet or ca is TLetMatch):
        # a let chain, walked with a loop; the maps are copied once for it
        la, lb = (la[0], dict(la[1])), (lb[0], dict(lb[1]))
        while ca is cb and (ca is TLet or ca is TLetMatch):
            if not _alpha(a.value, b.value, la, lb, depth):
                return False
            na = a.names if ca is TLetMatch else (a.name,)
            nb = b.names if cb is TLetMatch else (b.name,)
            if len(na) != len(nb):
                return False
            for xa, xb in zip(na, nb):
                la[1][xa] = depth
                lb[1][xb] = depth
                depth += 1
            a, b = a.body, b.body
            ca, cb = type(a), type(b)
    if ca is IVar or cb is IVar:
        if ca is not cb:
            return False
        ia, ib = la[0].get(a.name), lb[0].get(b.name)
        if ia is None and ib is None:
            return a.name == b.name
        return ia == ib
    if ca is TVar or cb is TVar:
        if ca is not cb:
            return False
        ia, ib = la[1].get(a.name), lb[1].get(b.name)
        if ia is None and ib is None:
            return a.name == b.name
        return ia == ib
    plan = _PLANS.get(ca)
    if plan is not None or isinstance(b, Node):
        if ca is not cb:
            return False
        scoped_fields: set = set()
        la2, lb2 = la, lb
        for kind, spec in ((0, plan.ind_binds), (1, plan.term_binds)):
            for binder_field, scoped in spec:
                ba = getattr(a, binder_field)
                bb = getattr(b, binder_field)
                if (ba is None) != (bb is None):
                    return False
                if ba is None:
                    continue
                na = ba if type(ba) is tuple else (ba,)
                nb = bb if type(bb) is tuple else (bb,)
                if len(na) != len(nb):
                    return False
                if la2 is la:
                    la2 = (dict(la[0]), dict(la[1]))
                    lb2 = (dict(lb[0]), dict(lb[1]))
                for xa, xb in zip(na, nb):
                    la2[kind][xa] = depth
                    lb2[kind][xb] = depth
                    depth += 1
                scoped_fields.update(scoped)
        for fname in plan.fields:
            if fname in plan.binder_fields:
                continue
            if fname in scoped_fields:
                if not _alpha(getattr(a, fname), getattr(b, fname), la2, lb2, depth):
                    return False
            elif not _alpha(getattr(a, fname), getattr(b, fname), la, lb, depth):
                return False
        return True
    if ca is tuple and cb is tuple:
        if len(a) != len(b):
            return False
        for x, y in zip(a, b):
            if not _alpha(x, y, la, lb, depth):
                return False
        return True
    return a == b


def alpha_env(a: Env, b: Env) -> bool:
    """Environment equality: same idents in the same order, alpha types."""
    if len(a) != len(b):
        return False
    return all(xa == xb and alpha_eq(ta, tb) for (xa, ta), (xb, tb) in zip(a, b))
