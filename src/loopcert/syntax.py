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

Binders over individuals are locally nameless.  Each class with a
``_binds_ind`` attribute binds one individual over the fields it lists:
``forall``/``exists`` in formulas, outputs and quantified environments,
``ProtoAll``, ``{n/...}`` families, ``lam n.``, ``?n.`` in terms,
``HForall`` and the index of a ``for``.  A ``?n.`` item of a sequence
binds one over the items after it, so a sequence is flat: ``open_inds``
goes one binder deeper after each ``?n.`` of a tuple.  A bound individual
is ``IBound(k)``, where k counts the binders between it and its own, and
only a free one is an ``IVar``.  A binder's name is a hint for the
printer that ``==`` and ``hash`` ignore, so equality is alpha-equality.
A ``for`` written without an index binds one that no name refers to
(hint None); ``==`` tells the two apart.  Term variables stay named.

So substitution never renames: ``subst_ind`` instantiates a binder,
``open_inds`` the indices that escape a value, and ``close_ind`` turns a
free name into the index of a binder put around a value.  The checkers
instantiate with locally closed individuals (no index escapes them); the
translation may not, and ``subst_ind`` lifts the escaping indices of the
replacement under the binders it passes.  The parser resolves names to
indices as it reads, and the printer picks names from the hints.

The kernel (``alpha_eq``, ``subst_ind``, ``open_inds``, ``close_ind`` and
``free_ind_vars``) acts on types and individuals only.  Terms compare by
``==``, their binder names included, and only tests compare them.
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


def _hint() -> Any:
    """A binder's name: a printing hint that == and hash ignore."""
    return field(compare=False)


# ---------------------------------------------------------------------------
# Individuals
# ---------------------------------------------------------------------------

class Ind(Node):
    __slots__ = ()


@dataclass(frozen=True, slots=True)
class IVar(Ind):
    name: str


@dataclass(frozen=True, slots=True)
class IBound(Ind):
    """An individual bound by the index-th binder around it, from 0."""

    index: int


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
    var: str = _hint()
    body: Formula

    _binds_ind = ("body",)


@dataclass(frozen=True, slots=True)
class FExists(Formula):
    var: str = _hint()
    body: Formula

    _binds_ind = ("body",)


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
    cls = type(phi)
    if cls is FNat:
        return phi.index is None
    if cls is FTuple:
        return all(is_simple_formula(i) for i in phi.items)
    if cls is FArrow:
        return is_simple_formula(phi.dom) and is_simple_formula(phi.cod)
    return cls is FTop


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
    var: str = _hint()
    body: Output

    _binds_ind = ("body",)


@dataclass(frozen=True, slots=True)
class ProtoBase(Proto):
    params: Tuple[Prop, ...]
    out: Output


@dataclass(frozen=True, slots=True)
class ProtoAll(Proto):
    var: str = _hint()
    body: Proto

    _binds_ind = ("body",)


@dataclass(frozen=True, slots=True)
class QSimple(QEnv):
    env: Env


@dataclass(frozen=True, slots=True)
class QExists(QEnv):
    var: str = _hint()
    body: QEnv

    _binds_ind = ("body",)


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

    var: str = _hint()
    body: Any

    _binds_ind = ("body",)


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


@dataclass(frozen=True, slots=True)
class TApp(Term):
    fn: Term
    arg: Term
    span: Optional[Span] = _span_field()


@dataclass(frozen=True, slots=True)
class TIndLam(Term):
    var: str = _hint()
    body: Term
    span: Optional[Span] = _span_field()

    _binds_ind = ("body",)


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


@dataclass(frozen=True, slots=True)
class TLetMatch(Term):
    names: Tuple[str, ...]
    value: Term
    body: Term
    span: Optional[Span] = _span_field()


@dataclass(frozen=True, slots=True)
class TPack(Term):
    witness: Ind
    value: Term
    ann: Formula  # an exists formula
    span: Optional[Span] = _span_field()


@dataclass(frozen=True, slots=True)
class TUnpack(Term):
    var: str = _hint()
    body: Term
    span: Optional[Span] = _span_field()

    _binds_ind = ("body",)


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
    var: str = _hint()
    body: Header

    _binds_ind = ("body",)


@dataclass(frozen=True, slots=True)
class CBlock(Command):
    body: Seq
    ann: QEnv
    span: Optional[Span] = _span_field()


@dataclass(frozen=True, slots=True, eq=False)
class CFor(Command):
    var: str  # loop counter ident
    idx: Optional[str]  # the index's hint; None when the loop is written without one
    bound: Expr
    body: Seq
    frame: Env
    span: Optional[Span] = _span_field()

    _binds_ind = ("body", "frame")

    # == ignores the hint, but not whether there is one
    def __eq__(self, other: Any) -> bool:
        return type(other) is CFor and (self.idx is None) == (other.idx is None) and (
            self.var, self.bound, self.body, self.frame) == (other.var, other.bound, other.body, other.frame)

    def __hash__(self) -> int:
        return hash((self.var, self.idx is None, self.bound, self.body, self.frame))


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
    run left to right, and a `cst`, `var` or `?n.` item scopes over the
    items after it; the items are flat, and a `?n.` binds an individual
    over those that follow it.  A `:>` group ends the sequence, so it is
    the last item when present.  The span is where the sequence ends: an
    unmet output is reported there."""

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
    var: str = _hint()
    span: Optional[Span] = _span_field()


@dataclass(frozen=True, slots=True)
class SWitness(SeqItem):
    witness: Ind
    ann: QEnv
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

    __slots__ = ("cls", "fields", "has_span", "shifts")

    def __init__(self, cls: type) -> None:
        all_fields = fields(cls)
        self.cls = cls
        self.has_span = all_fields[-1].name == "span" if all_fields else False
        own = all_fields[:-1] if self.has_span else all_fields
        assert all(f.name != "span" for f in own), f"{cls.__name__}: span must come last"
        self.fields = tuple(f.name for f in own)
        # (field, 1 if the node's binder scopes over it else 0), for the
        # fields that may hold syntax
        scoped = getattr(cls, "_binds_ind", ())
        self.shifts = tuple((f.name, int(f.name in scoped)) for f in own if f.type not in _ATOM_TYPES)

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
    """The free individual variables of any syntax value (nodes or
    tuples): the names of its IVars, as a bound individual has none."""
    out: set = set()
    _free_ind(node, out)
    return frozenset(out)


def _free_ind(value: Any, acc: set) -> None:
    cls = type(value)
    if cls is IVar:
        acc.add(value.name)
    elif cls is tuple:
        for item in value:
            _free_ind(item, acc)
    else:
        plan = _PLANS.get(cls)
        if plan is not None:
            for fname, _ in plan.shifts:
                _free_ind(getattr(value, fname), acc)


def _rebuild(node: Node, **changes: Any) -> Node:
    return _PLANS[type(node)].build(node, changes)


def subst_ind(body: Any, replacement: Ind) -> Any:
    """Instantiate a binder: body, the syntax a binder scopes over, with
    the individual it binds replaced by replacement, an individual of the
    binder's own scope.  Subtrees in which nothing changes are shared
    with the input."""
    return open_inds(body, (replacement,))


def close_ind(value: Any, name: str) -> Any:
    """The body of a binder of name around value, which must be locally
    closed: value with each free `name` turned into that binder's index."""
    return open_inds(value, (), 0, name)


def open_inds(value: Any, subs: Any, depth: int = 0, name: Optional[str] = None) -> Any:
    """value with each index that escapes it past its own binders and
    depth more replaced from subs, which lists the binders the indices
    escape to, the innermost last: the one that escapes by j more by
    subs[-1 - j], and one that escapes past subs lowered by len(subs).
    With a name, close_ind's walk instead."""
    cls = type(value)
    if cls is IBound:
        j = value.index - depth
        if j < 0:
            return value
        if j >= len(subs):
            return IBound(value.index - len(subs)) if subs else value
        sub = subs[-1 - j]
        return sub if depth == 0 or type(sub) is IVar else _lift(sub, depth)
    if cls is IVar:
        return IBound(depth) if value.name == name else value
    if cls is tuple:
        out = None
        for k, item in enumerate(value):
            new = open_inds(item, subs, depth, name)
            if new is not item:
                if out is None:
                    out = list(value[:k])
                out.append(new)
            elif out is not None:
                out.append(item)
            if type(item) is SUnpack:  # a sequence's `?n.` binds over the items after it
                depth += 1
        return value if out is None else tuple(out)
    plan = _PLANS.get(cls)
    if plan is None:
        return value
    changes = None
    for fname, shift in plan.shifts:
        old = getattr(value, fname)
        new = open_inds(old, subs, depth + shift, name)
        if new is not old:
            if changes is None:
                changes = {}
            changes[fname] = new
    return value if changes is None else plan.build(value, changes)


def _lift(i: Ind, by: int) -> Ind:
    """Individual i under by more binders: its indices raised by by.  A
    subtree with no index in it is shared with the input."""
    cls = type(i)
    if cls is IBound:
        return IBound(i.index + by)
    plan = _PLANS[cls]
    changes = None
    for fname, _ in plan.shifts:
        old = getattr(i, fname)
        new = _lift(old, by)
        if new is not old:
            if changes is None:
                changes = {}
            changes[fname] = new
    return i if changes is None else plan.build(i, changes)


class Freshener:
    """Per-run eigenvariable supply for the checkers."""

    def __init__(self) -> None:
        self._count = 0

    def fresh(self, base: str) -> str:
        self._count += 1
        return f"{base}{EIGEN_MARK}{self._count}"


# ---------------------------------------------------------------------------
# Equality
# ---------------------------------------------------------------------------

def alpha_eq(a: Any, b: Any) -> bool:
    """Equality of types and individuals up to the names of bound variables.

    Bound individuals are indices and binder names are hints that == and
    hash ignore (spans do not compare either), so this is ==.  The kernel
    acts on types and individuals only: terms compare by ==, their binder
    names included, and only tests compare them.  All equality premises
    of the typing rules dispatch through this; no arithmetic
    normalization is ever performed.
    """
    return a == b
