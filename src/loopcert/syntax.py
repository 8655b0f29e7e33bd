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
All nodes are slotted (no per-node ``__dict__``) and immutable.  Every
node class is made by the decorator ``node``: a dataclass whose
``__init__`` writes each field through its slot descriptor, below the
one ``__setattr__`` and ``__delattr__`` of the base ``Immutable``, which
raise ``FrozenInstanceError``.  So a ``TLet`` is built in 0.48 µs, against
1.28 µs as a frozen dataclass, which calls ``object.__setattr__`` per
field (timeit, Python 3.11.7).  Operations in this module are pure
functions.

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
``open_inds``, the walk of ``subst_ind`` and ``close_ind`` too, takes each
node by the walk of its exact class, compiled from the class's fields at
import as its ``__init__`` is: one Python call a node, and a node in
which nothing changes comes back itself.
"""

from __future__ import annotations

from dataclasses import MISSING, FrozenInstanceError, dataclass, field, fields, is_dataclass
from typing import Any, Callable, Optional, Tuple

Span = Tuple[int, int]  # (line, column); a parsed node's is a parser.Mark, read the same way

# Eigenvariables live in a reserved namespace the lexer cannot produce.
EIGEN_MARK = "!"


class Immutable:
    """Base class of the syntax and the runtime nodes: no attribute of a
    node can be assigned or deleted.  Only a node's own __init__ writes
    its fields, through their slot descriptors (see `node`)."""

    __slots__ = ()

    def __setattr__(self, name: str, value: Any) -> None:
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    def __reduce__(self) -> Tuple[type, Tuple[Any, ...]]:
        # copy and pickle rebuild a node through its __init__; the default
        # would assign its slots
        return type(self), tuple(getattr(self, f.name) for f in fields(self) if f.init)


class Node(Immutable):
    """Base class for all syntax nodes."""

    __slots__ = ()


def node(cls: Optional[type] = None, *, eq: bool = True) -> Any:
    """The decorator of every node class, `@node` or `@node(eq=False)`: a
    slotted dataclass with == and hash (unless eq=False) and the __init__
    of `_init_of`.  Its base, `Node` or `runtime.RTerm`, derives from
    `Immutable`, which keeps it immutable."""

    def wrap(cls: type) -> type:
        if cls.__doc__ is None:  # else dataclass writes one from inspect.signature, slowly
            cls.__doc__ = cls.__name__
        cls = dataclass(cls, slots=True, init=False, eq=eq, unsafe_hash=eq)
        cls.__init__ = _init_of(cls)
        return cls

    return wrap if cls is None else wrap(cls)


def _init_of(cls: type) -> Callable[..., None]:
    """The __init__ of a slotted dataclass cls: it takes the parameters,
    defaults included, that dataclass's own would, and writes each field
    (an init=False one with its default) by calling the __set__ of the
    field's slot descriptor, so a node is built in one Python call and
    no __setattr__ runs.  Compiled from source once per class, as
    dataclass compiles its methods."""
    params, lines, free = [], [], {}
    for f in fields(cls):
        assert f.default_factory is MISSING, f"{cls.__name__}.{f.name}: no default_factory"
        free[f"_set_{f.name}"] = cls.__dict__[f.name].__set__
        if f.default is not MISSING:
            free[f"_default_{f.name}"] = f.default
        if f.init:
            params.append(f.name if f.default is MISSING else f"{f.name}=_default_{f.name}")
        lines.append(f"        _set_{f.name}(self, {f.name if f.init else f'_default_{f.name}'})\n")
    source = (f"def make({', '.join(free)}):\n"
              f"    def __init__({', '.join(['self'] + params)}):\n"
              + ("".join(lines) or "        pass\n")
              + "    return __init__\n")
    namespace: dict = {}
    exec(source, {}, namespace)  # the code's file is "<string>"
    init = namespace["make"](**free)
    init.__qualname__ = f"{cls.__qualname__}.__init__"
    return init


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


@node
class IVar(Ind):
    name: str


@node
class IBound(Ind):
    """An individual bound by the index-th binder around it, from 0."""

    index: int


@node
class IZero(Ind):
    pass


@node
class ISucc(Ind):
    arg: Ind


@node
class IPred(Ind):
    arg: Ind


@node
class IAdd(Ind):
    left: Ind
    right: Ind


@node
class ISub(Ind):
    left: Ind
    right: Ind


@node
class IMult(Ind):
    left: Ind
    right: Ind


@node
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


@node
class FProp(Formula, Prop):
    name: str


@node
class FTop(Formula, Prop):
    pass


@node
class FBot(Formula, Prop):
    pass


@node
class FNat(Formula, Prop):
    index: Optional[Ind] = None  # None in the simple discipline


@node
class FEq(Formula, Prop):
    left: Ind
    right: Ind


@node
class FArrow(Formula):
    dom: Formula
    cod: Formula


@node
class FForall(Formula):
    var: str = _hint()
    body: Formula

    _binds_ind = ("body",)


@node
class FExists(Formula):
    var: str = _hint()
    body: Formula

    _binds_ind = ("body",)


@node
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


@node
class PProc(Prop):
    proto: Proto


@node
class PNeg(Prop):
    """~phi: the type of a continuation accepting phi's value vector.

    Simple outputs give the concrete ``~(psi, ...)``; negating an
    existential output (labels over quantified annotations) keeps the
    quantifier here rather than materialising a forall-prototype.
    """

    out: Output


@node
class OSimple(Output):
    types: Tuple[Prop, ...]


@node
class OExists(Output):
    var: str = _hint()
    body: Output

    _binds_ind = ("body",)


@node
class ProtoBase(Proto):
    params: Tuple[Prop, ...]
    out: Output


@node
class ProtoAll(Proto):
    var: str = _hint()
    body: Proto

    _binds_ind = ("body",)


@node
class QSimple(QEnv):
    env: Env


@node
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


@node
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


@node
class TVar(Term):
    name: str
    span: Optional[Span] = _span_field()


@node
class TZero(Term):
    span: Optional[Span] = _span_field()


@node
class TSucc(Term):
    arg: Term
    span: Optional[Span] = _span_field()


@node
class TPred(Term):
    arg: Term
    span: Optional[Span] = _span_field()


@node
class TFn(Term):
    param: str
    ann: Formula
    body: Term
    span: Optional[Span] = _span_field()


@node
class TApp(Term):
    fn: Term
    arg: Term
    span: Optional[Span] = _span_field()


@node
class TIndLam(Term):
    var: str = _hint()
    body: Term
    span: Optional[Span] = _span_field()

    _binds_ind = ("body",)


@node
class TIndApp(Term):
    fn: Term
    arg: Ind
    span: Optional[Span] = _span_field()


@node
class TRec(Term):
    bound: Term
    base: Term
    step: Term
    motive: Optional[Fam] = None  # required in dependent mode, absent in simple
    span: Optional[Span] = _span_field()


@node
class TTuple(Term):
    items: Tuple[Term, ...]
    span: Optional[Span] = _span_field()


@node
class TLet(Term):
    name: str
    value: Term
    body: Term
    span: Optional[Span] = _span_field()


@node
class TLetMatch(Term):
    names: Tuple[str, ...]
    value: Term
    body: Term
    span: Optional[Span] = _span_field()


@node
class TPack(Term):
    witness: Ind
    value: Term
    ann: Formula  # an exists formula
    span: Optional[Span] = _span_field()


@node
class TUnpack(Term):
    var: str = _hint()
    body: Term
    span: Optional[Span] = _span_field()

    _binds_ind = ("body",)


@node
class TCoerce(Term):
    subject: Term
    fam: Fam  # {n/phi}
    proof: Term
    span: Optional[Span] = _span_field()


@node
class TAxiom(Term):
    left: Ind
    right: Ind
    span: Optional[Span] = _span_field()


@node
class TCallcc(Term):
    arg: Term
    span: Optional[Span] = _span_field()


@node
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


@node
class EVar(Expr):
    name: str
    span: Optional[Span] = _span_field()


@node
class EStar(Expr):
    span: Optional[Span] = _span_field()


@node
class ENum(Expr):
    value: int
    span: Optional[Span] = _span_field()


@node
class EInst(Expr):
    fn: Expr
    arg: Ind
    span: Optional[Span] = _span_field()


@node
class EContInst(Expr):
    fn: Expr
    fam: Fam  # {n/Output}
    arg: Ind
    span: Optional[Span] = _span_field()


@node
class ECoerce(Expr):
    subject: Expr
    fam: Fam  # {n/Prop}
    proof: Expr
    span: Optional[Span] = _span_field()


@node
class EAxiom(Expr):
    left: Ind
    right: Ind
    span: Optional[Span] = _span_field()


@node
class EProc(Expr):
    header: Header
    span: Optional[Span] = _span_field()


@node
class HBase(Header):
    params: Env  # gamma
    out: QEnv  # theta (simple env for the simple discipline)
    body: Seq


@node
class HForall(Header):
    var: str = _hint()
    body: Header

    _binds_ind = ("body",)


@node
class CBlock(Command):
    body: Seq
    ann: QEnv
    span: Optional[Span] = _span_field()


@node(eq=False)
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


@node
class CAssign(Command):
    name: str
    value: Expr
    span: Optional[Span] = _span_field()


@node
class CInc(Command):
    name: str
    span: Optional[Span] = _span_field()


@node
class CDec(Command):
    name: str
    span: Optional[Span] = _span_field()


@node
class CCall(Command):
    fn: Expr
    args: Tuple[Expr, ...]
    outs: Tuple[str, ...]
    span: Optional[Span] = _span_field()


@node
class CJump(Command):
    target: Expr
    args: Tuple[Expr, ...]
    ann: QEnv
    span: Optional[Span] = _span_field()


@node
class CLabel(Command):
    name: str
    body: Seq
    ann: QEnv
    span: Optional[Span] = _span_field()


@node
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


@node
class SCst(SeqItem):
    name: str
    value: Expr
    span: Optional[Span] = _span_field()


@node
class SVar(SeqItem):
    name: str
    value: Expr
    span: Optional[Span] = _span_field()


@node
class SUnpack(SeqItem):
    var: str = _hint()
    span: Optional[Span] = _span_field()


@node
class SWitness(SeqItem):
    witness: Ind
    ann: QEnv
    span: Optional[Span] = _span_field()


@node
class SSubst(SeqItem):
    body: Seq
    fam: Fam  # {n/QEnv}
    proof: Expr
    span: Optional[Span] = _span_field()


# ---------------------------------------------------------------------------
# Source files
# ---------------------------------------------------------------------------

@node
class MainI(Node):
    body: Seq
    out: QEnv
    span: Optional[Span] = _span_field()


@node
class MainF(Node):
    term: Term
    span: Optional[Span] = _span_field()


@node
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


def node_count(value: Any) -> int:
    """The number of nodes in a syntax value (nodes or tuples), by one
    iterative walk, so that no nesting is too deep for it."""
    count, stack = 0, [value]
    while stack:
        value = stack.pop()
        if type(value) is tuple:
            stack.extend(value)
        elif type(value) in _PLANS:
            count += 1
            for fname, _ in _PLANS[type(value)].shifts:
                stack.append(getattr(value, fname))
    return count


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
    return _OPEN.get(type(value), _same)(value, subs, depth, name)


def _same(value: Any, subs: Any, depth: int, name: Optional[str]) -> Any:
    return value


def _open_bound(i: IBound, subs: Any, depth: int, name: Optional[str]) -> Ind:
    j = i.index - depth
    if j < 0:
        return i
    if j >= len(subs):
        return IBound(i.index - len(subs)) if subs else i
    sub = subs[-1 - j]
    return sub if depth == 0 or type(sub) is IVar else _lift(sub, depth)


def _open_var(i: IVar, subs: Any, depth: int, name: Optional[str]) -> Ind:
    return IBound(depth) if i.name == name else i


def _open_tuple(value: tuple, subs: Any, depth: int, name: Optional[str]) -> tuple:
    out = None
    for k, item in enumerate(value):
        new = _OPEN[type(item)](item, subs, depth, name)
        if new is not item:
            if out is None:
                out = list(value[:k])
            out.append(new)
        elif out is not None:
            out.append(item)
        if type(item) is SUnpack:  # a sequence's `?n.` binds over the items after it
            depth += 1
    return value if out is None else tuple(out)


def _open_of(plan: _Plan) -> Callable[..., Any]:
    """open_inds's walk of a node of plan's class, compiled as `_init_of`
    compiles __init__: each field that may hold syntax goes to the walk of
    its value's exact class, one binder deeper where the node's binder
    scopes over it; the node comes back itself when no field changed."""
    shifts, walk = plan.shifts, f"open_{plan.cls.__name__}"
    new = {fname: f"n{k}" for k, (fname, _) in enumerate(shifts)}
    args = [new.get(f, f"v.{f}") for f in plan.fields] + ["v.span"] * plan.has_span
    source = (f"def make(walks, cls):\n    def {walk}(v, subs, depth, name):\n"
              + "".join(f"        o{k} = v.{fname}\n"
                        f"        n{k} = walks[type(o{k})](o{k}, subs, depth{' + 1' * shift}, name)\n"
                        for k, (fname, shift) in enumerate(shifts))
              + f"        if {' and '.join(f'n{k} is o{k}' for k in range(len(shifts)))}:\n"
              f"            return v\n        return cls({', '.join(args)})\n    return {walk}\n")
    namespace: dict = {}
    exec(source, {}, namespace)  # the code's file is "<string>"
    return namespace["make"](_OPEN, plan.cls)


# open_inds's walk of each exact class a syntax field may hold; the
# generated walks dispatch their fields through it
_OPEN: dict = {tuple: _open_tuple, IBound: _open_bound, IVar: _open_var, str: _same, type(None): _same}
_OPEN.update({cls: _open_of(plan) if plan.shifts else _same for cls, plan in _PLANS.items() if cls not in _OPEN})


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
    return i if changes is None else cls(*[changes.get(f, getattr(i, f)) for f in plan.fields])


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
