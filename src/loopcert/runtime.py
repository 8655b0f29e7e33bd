"""Erasure, an environment machine for the functional language with
first-class continuations and primitive recursion, and a direct
big-step interpreter for jump-free imperative programs used as the
differential-testing oracle.

The machine is the semantics of record: continuation stacks are
persistent, so captured continuations are multi-shot; throw applies a
continuation (or a never-returning closure), abandoning the current
context; rec unfolds its step through machine frames, so deep loops are
iterative rather than stack-consuming.

Fuel is one unit per transition, and a turn of the machine's loop makes
one transition: a term in control pushes its frame or yields its value,
and a value returns to one frame.  There is one exception, the return
to a rec's frame.  There the machine also returns into the loop frame
without building it, applies the curried step fn i => fn acc => ... to
the counter and the accumulator without building the closure in
between, and may run a loop kernel (below).  It does so only when the
fuel left covers every transition it makes, and charges each;
otherwise it single-steps.  So step counts, the point where fuel runs
out and errors are those of the single-step machine.

The body of a rec step fn i => fn acc => body runs once per iteration.
When the whole body is one straight-line run (lets and let <...> whose
value is an atom, succ or pred of an atom, a tuple of atoms or a nested
rec, below) ending in its closing tuple of atoms, and each item of that
tuple is a chain from its own slot or from a value (below), as
`addition_is`'s step fn i => fn _v1 => let <z> = _v1 in let z = succ(z)
in <z> is, erasure marks the step's fn acc => body with a loop
(_compile_loop): the run's total transitions (3 for a let of an atom, 5
for succ or pred of an atom, 3 + 2n for a tuple of n atoms, 1 + 2n for
the closing tuple of n atoms) and the chains, which hold only integers.
The machine reads the loop at one place, the return to a rec's frame,
right after the step's curried application: when the fuel left covers
total, it calls the loop kernel, kernels.run_loop(loop, acc, k, cenv,
bound, budget), cenv being the step's closure environment, which takes
the iterations in closed form, with no work per iteration.  The first
iteration charges total; each later one charges total + 4 (the returns
to the iteration's frame and to the loop, and the step's curried
application), and runs only while the counter has not reached the bound
and the fuel left covers all of it.  The kernel returns the counter, the
closing tuple and the fuel left of the last iteration it took, or None
where a check below fails.  The machine then rebuilds the iteration's
frame and goes on by single steps, in the environment (acc, (k, cenv))
that the application made: it runs out of fuel, gets stuck or leaves the
loop exactly where the single-step machine does.

A chain is a run of succ, pred and nested recs from one origin: the
item of its own slot of acc, or a value, which is an outer variable of
the step (an item of cenv), a numeral or the counter.  `z := y; inc(z)`
is a chain from y, `z := 1` a succ of 0 and `w := i` a chain from the
counter with no maps.  Each map is x -> max(x + a, b), and so is their
composition.  The kernel makes the checks of every iteration once, at
entry: acc is a tuple of the loop's arity whose items that the run
reads as they are (by a succ, a pred or a nested rec's check) are
naturals, and so are the outer variables that the run reads as they
are or puts unchanged into such a slot.  Where they hold, no iteration
gets stuck, for each such item is a natural in every later iteration
too.  The kernel works out at once how many iterations the bound and
the fuel allow, 1 + m with m = min(bound - 1 - k, (budget - total) //
(total + 4)), charges total + m * (total + 4) and gives each slot its
value after them.  A chain from its own slot takes its (1 + m)-th power:
n iterations of x -> max(x + a, b) are x -> max(x + n*a, b + max(0,
(n - 1)*a)).  A chain from a value is applied once, to the value in the
last iteration (k + m for the counter): after one iteration, a slot
reset from a value stays fixed, as in the acceleration of loops by
Bozga, Iosif & Konečný ("Fast Acceleration of Ultimately Periodic
Relations", CAV 2010).

Erasure makes a loop in one walk of the run, and nothing is made or
kept per shape of run.  Any other body runs by single steps: one whose
closing tuple fills a slot from another slot (a move), one that matches
a value that is no tuple the iteration built nor acc, or whose
straight-line run is only part of it.  A loop is no part of a term: ==,
hash, repr and pattern matching ignore it.

Such a run may pass through labels, as a source `k : { ... jump(k, ...)
... }` translates: a let or let <...> whose value is callcc (fn k =>
body), body being a straight-line run that ends in a throw to k of an
atom or a tuple of atoms (as a let's value, whose dead body is not
looked at, or as body's tail) or in its own closing tuple of atoms, and
that reads k nowhere else.  The let of a label charges 1 + 3 + body + 1
(the let's push; callcc's push, closing and application; the label's
value returning to the let's frame); a let whose value is such a throw
1 + 3 + arg + 1 (the let's push; the throw's push, reaching k and the
push of its argument's frame; the argument; the return to that frame),
a throw as body's tail the same without the first 1; and the throw's
arg 1 + 2n for a tuple of n atoms, 1 for a lone atom.  The label's
value, the thrown or the returned one, is then the let's value like any
other, so a kernel runs a label with no continuation and no frame:
`jump_loop`'s step body let <z> = _v1 in let <z> = callcc (fn k => let
<z> = throw k <z> in <z>) in <z> is a run of total 19.  A label that
reads k as a value, a throw to any other continuation and a label in a
label leave the step to single steps.

A run may hold nested loops too, as a `for` nest translates: a let or
let <...> whose value is rec(y, <atoms>, fn j => fn acc => body), y
being an outer variable of the step and fn acc a loop each of whose
slots has a chain from its own item, and which reads no outer variable
as it is.  `mul_nested`'s outer step fn i => fn _v2 => let <z> = _v2 in
let <z> = rec(y, <z>, fn j => fn _v1 => ...) in <z> is one.  Every
iteration of such an inner loop maps each item by the same x -> max(x +
a, b), and its y iterations by that map's y-th power, which is one more
map of the chain that the item's base atom starts, so the kernel takes
the nest, of any depth, in closed form as it takes a one-level loop.
The rec charges 9 + 2n for a base of n atoms, and then y times the inner
iteration's charge plus 4, so an iteration's charge hangs on y: the
loop's total covers only its static part.  The kernel works out the
rest from y before the first iteration, and where y is no natural or
the fuel left does not cover a whole iteration it returns None.  The
machine then runs the iteration by single steps, where the kernel takes
over the inner rec, and so runs out of fuel where the single-step
machine does.  A nested rec whose bound is a numeral or a value of the
iteration leaves the step to single steps.

Erasure resolves every variable once, to its de Bruijn index (None when
the name is unbound, which is an error only if the machine reaches it);
binder names stay on the terms as hints.  A machine environment is a
linked tuple (value, parent), innermost binding first, and a frame is a
tuple whose first item is a small-int tag.

The interpreter runs a `for` whose body holds only inc, dec and such
`for`s (a counter body) in closed form too, by one walk of the body
that composes its maps x -> max(x + a, b) (_counter_effect), and any
other body through exec_seq, once per iteration.  It shares no code
with the machine or its kernel, so each closed form is checked against
the other, and both against the machine by single steps.

Runtime terms are immutable nodes made by the decorator of the syntax
nodes, `syntax.node`.  Erasure, the machine and the interpreter tell
nodes apart by their exact class (`type(t) is C`), the most frequent
cases first.
"""

from __future__ import annotations

import sys
from collections import defaultdict
from dataclasses import field
from typing import Any, Dict, List, Optional, Tuple

from . import syntax as S
from .errors import EvalError, FuelExhausted, NonErasable, StuckTerm, TooLong
from .kernels import _B_PRED, _B_SUCC, run_loop

DEFAULT_FUEL = 10_000_000


# ---------------------------------------------------------------------------
# Runtime terms (the functional fragment after erasure)
# ---------------------------------------------------------------------------

class RTerm(S.Immutable):
    __slots__ = ()


@S.node
class RVar(RTerm):
    name: str
    index: Optional[int] = None  # de Bruijn index; None when unbound


@S.node
class RNum(RTerm):
    value: int


@S.node
class RSucc(RTerm):
    arg: RTerm


@S.node
class RPred(RTerm):
    arg: RTerm


@S.node
class RFn(RTerm):
    param: str
    body: RTerm
    # set by erase on the accumulator fn of a rec step (_compile_loop); no
    # part of the term's identity
    loop: Any = field(default=None, init=False, compare=False, repr=False)


@S.node
class RApp(RTerm):
    fn: RTerm
    arg: RTerm


@S.node
class RTuple(RTerm):
    items: Tuple[RTerm, ...]


@S.node
class RLet(RTerm):
    name: str
    value: RTerm
    body: RTerm


@S.node
class RLetMatch(RTerm):
    names: Tuple[str, ...]
    value: RTerm
    body: RTerm


@S.node
class RRec(RTerm):
    bound: RTerm
    base: RTerm
    step: RTerm


@S.node
class RCallcc(RTerm):
    arg: RTerm


@S.node
class RThrow(RTerm):
    cont: RTerm
    arg: RTerm


def erase(t: S.Term) -> RTerm:
    """Strip the specificational layer: individuals, packs, coercions and
    axiom terms; throw keeps both subterms and drops its formula.  Each
    variable gets its de Bruijn index."""
    return _erase(t, defaultdict(list), 0)


# the classes _erase_lets walks in its loop
_CHAINED = frozenset({S.TLet, S.TLetMatch, S.TCoerce, S.TIndLam, S.TIndApp, S.TPack, S.TUnpack})


def _erase(t: S.Term, scope: Dict[str, List[int]], depth: int) -> RTerm:
    """scope maps each name to the depths of its binders around t, and depth
    counts the binders; the cases go most frequent first."""
    cls = type(t)
    if cls is S.TVar:
        bound = scope.get(t.name)
        return RVar(t.name, depth - 1 - bound[-1] if bound else None)
    if cls is S.TSucc:
        return RSucc(_erase(t.arg, scope, depth))
    if cls is S.TTuple:
        return RTuple(tuple([_erase(x, scope, depth) for x in t.items]))
    if cls is S.TZero:
        return RNum(0)
    if cls is S.TFn:
        scope[t.param].append(depth)
        erased = RFn(t.param, _erase(t.body, scope, depth + 1))
        scope[t.param].pop()
        return erased
    if cls in _CHAINED:
        return _erase_lets(t, scope, depth)
    if cls is S.TApp:
        return RApp(_erase(t.fn, scope, depth), _erase(t.arg, scope, depth))
    if cls is S.TRec:
        bound, base = _erase(t.bound, scope, depth), _erase(t.base, scope, depth)
        step = _erase(t.step, scope, depth)
        if type(step) is RFn and type(step.body) is RFn:
            _compile_loop(step.body)
        return RRec(bound, base, step)
    if cls is S.TPred:
        return RPred(_erase(t.arg, scope, depth))
    if cls is S.TCallcc:
        return RCallcc(_erase(t.arg, scope, depth))
    if cls is S.TThrow:
        return RThrow(_erase(t.cont, scope, depth), _erase(t.arg, scope, depth))
    if cls is S.TAxiom:
        raise NonErasable("an axiom term survives only inside a discarded coercion proof")
    raise AssertionError(t)


def _erase_lets(t: S.Term, scope: Dict[str, List[int]], depth: int) -> RTerm:
    """_erase along a chain of lets and of the forms erasure drops
    (coercions, whose equality proof is computationally irrelevant, index
    abstraction and application, packs and unpacks), with a loop: an
    image's chain is as long as its source sequence."""
    chain = []  # (let, its erased value), outermost first
    while True:
        cls = type(t)
        if cls is S.TLet:
            chain.append((t, _erase(t.value, scope, depth)))
            scope[t.name].append(depth)
            depth += 1
        elif cls is S.TLetMatch:
            chain.append((t, _erase(t.value, scope, depth)))
            # the items are bound left to right, so a repeated name ends on its last item
            for k, name in enumerate(t.names):
                scope[name].append(depth + k)
            depth += len(t.names)
        elif cls is S.TCoerce:
            t = t.subject
            continue
        elif cls is S.TIndApp:
            t = t.fn
            continue
        elif cls is S.TPack:
            t = t.value
            continue
        elif cls is S.TIndLam or cls is S.TUnpack:
            pass
        else:
            break
        t = t.body
    erased = _erase(t, scope, depth)
    for let, value in reversed(chain):
        if type(let) is S.TLet:
            erased = RLet(let.name, value, erased)
            scope[let.name].pop()
        else:
            erased = RLetMatch(let.names, value, erased)
            for name in let.names:
                scope[name].pop()
    return erased


_ACC = "acc"  # the binding of acc in _compile_loop's walk


def _compile_loop(fn: RFn) -> None:
    """Set fn.loop when fn, the accumulator fn of a rec step, has a body
    that is one straight-line run ending in its closing tuple, each of
    whose items is a chain from its own slot or from a value (see the
    module docstring).  A loop is (total, reads, template, nodes, checked,
    naturals), which kernels.run_loop takes in closed form.  It holds only
    integers and nothing that refers back to fn, so it leaves no reference
    cycle.

    A chain is (origin, pieces): pieces are _B_SUCC, _B_PRED and (r, i)
    for item i of the loop's nested rec r, applied in turn, and origin is
    what they apply to.  The walk numbers the values that a chain may
    start from: 0 is the counter, and the others are the variables the run
    reads from the step's closure environment (its outer variables) and
    its numerals, numbered as the run first meets them; the item of slot j
    of acc is the origin ~j.  reads holds (gap, number) for each outer
    variable in the order of their positions, gap being the distance from
    the previous position, and template each numeral at its number, None
    elsewhere.

    The walk gives each binding of the iteration a chain, or a list of
    chains for a tuple the iteration built; acc itself may only be matched,
    with the arity of the closing tuple, and a built tuple only matched
    with its own.  A succ or pred extends its operand's chain.  An
    operand of another kind, a tuple pattern on a chain and an unbound
    variable end the walk with no loop, and so does a closing tuple that
    fills a slot from another slot (a move).  checked are the slots whose
    item a succ, a pred or a nested rec reads as it is, and naturals the
    outer variables read so, or fed unchanged into such a slot.  nodes
    are those of the nested recs, inner recs first, and last the loop's
    own, (0, total, chains, children): chains holds each slot's chain,
    with origin None for its own item, and children the distance back to
    each nested rec's own node.

    A let or let <...> whose value is a nested rec(bound, <atoms>, fn j =>
    fn acc => body) gives the rec's tuple, each item its base atom's chain
    and then the rec's map of that item.  Its bound is an outer variable,
    so no iteration changes it, and the inner fn acc has a loop of its
    own chains only that reads no outer variable as it is, whose nodes
    join this loop's, each bound, an outer variable of the inner loop,
    read as one of this loop: the inner loop's closure environment is
    this iteration's.  The rec charges 9 + 2n for a tuple of n atoms (the
    let's push; the rec's push, its bound, the return to the bound's
    frame; the tuple; the return to the base's frame, the step's closure,
    the first return to the loop frame; the rec's value returning to the
    let's frame), plus its inner iterations, which the kernel works out
    from the bound's value.  A numeral bound leaves the step to single
    steps: a numeral of 1 or more erases to a unary chain succ^n(0), which
    is no atom.

    The walk goes through a label's body as through the step's (see the
    module docstring for what a label and its throw charge), with k in
    scope as None: a binding that reads k ends the walk.  The throw or
    the closing tuple that leaves the label gives the label's value, which
    the label's let then binds as any let binds its value."""
    t, total = fn.body, 0
    scope: List[Any] = [(0, ()), _ACC]  # the iteration's bindings, outermost first: i and acc, then the body's
    outer: Dict[int, Tuple] = {}  # position in the closure environment -> the chain of its value
    numerals: Dict[int, Tuple] = {}  # a numeral -> the chain of its value
    values = 1
    label = None  # in a label's body: (the label's let, the length of scope outside it)
    nodes: List[Tuple] = []  # the nested recs' nodes
    recs: List[int] = []  # the index in nodes of each nested rec's own node
    arity, checked, as_is = None, set(), set()  # as_is: the values read as they are

    while True:
        cls = type(t)
        if cls is RLet or cls is RLetMatch:
            value = t.value
            vcls = type(value)
            if vcls is RTuple:
                items, cost = value.items, 3 + 2 * len(value.items)
            elif vcls is RSucc or vcls is RPred:
                items, cost = (value.arg,), 5
            elif vcls is RCallcc:
                if label is not None or type(value.arg) is not RFn:
                    return
                label = (t, len(scope))
                scope.append(None)  # k, which no binding may read
                total += 4  # push the let's frame; push, close the fn, apply it to k
                t = value.arg.body
                continue
            elif vcls is RThrow:
                total += 1  # push the let's frame, which the throw abandons with its body
                t = value
                continue
            elif vcls is RRec:
                step, base, bound = value.step, value.base, value.bound
                if type(bound) is not RVar or bound.index is None or bound.index < len(scope):
                    return
                inner = step.body.loop if type(step) is RFn and type(step.body) is RFn else None
                if inner is None or inner[5] or type(base) is not RTuple or len(inner[3][-1][2]) != len(base.items):
                    return
                items, cost = (bound, *base.items), 9 + 2 * len(base.items)
            else:
                items, cost = (value,), 3
        elif cls is RTuple:
            vcls, items, cost = RTuple, t.items, 1 + 2 * len(t.items)
        elif (cls is RThrow and label is not None and type(t.cont) is RVar
              and t.cont.index == len(scope) - 1 - label[1]):
            # a throw to the label's k: push, reach k, push the argument's
            # frame; the argument; the return to that frame
            if type(t.arg) is RTuple:
                vcls, items, cost = RTuple, t.arg.items, 5 + 2 * len(t.arg.items)
            else:
                vcls, items, cost = None, (t.arg,), 5  # a lone atom
        else:
            return
        atoms = []
        for a in items:
            if type(a) is RVar and a.index is not None:
                if a.index < len(scope):
                    atoms.append(scope[-1 - a.index])
                    continue
                position = a.index - len(scope)
                if position not in outer:
                    outer[position], values = (values, ()), values + 1
                atoms.append(outer[position])
            elif type(a) is RNum:
                if a.value not in numerals:
                    numerals[a.value], values = (values, ()), values + 1
                atoms.append(numerals[a.value])
            else:
                return
        total += cost
        read = atoms  # the chains that the binding reads as they are
        if vcls is RSucc or vcls is RPred:
            if type(atoms[0]) is not tuple:
                return
            result = (atoms[0][0], atoms[0][1] + (_B_SUCC if vcls is RSucc else _B_PRED,))
        elif vcls is RTuple or vcls is RRec:
            for a in atoms:
                if type(a) is not tuple:
                    return
            result, read = atoms, ()
            if vcls is RRec:
                # the inner loop's closure environment is this iteration's,
                # and its own node's bound is the rec's
                remap, position = {0: atoms[0][0]}, 0
                for gap, n in inner[1]:
                    position += gap
                    if position < len(scope):
                        return
                    if position - len(scope) not in outer:
                        outer[position - len(scope)], values = (values, ()), values + 1
                    remap[n] = outer[position - len(scope)][0]
                for node in inner[3]:
                    nodes.append((remap[node[0]],) + node[1:])
                recs.append(len(nodes) - 1)
                result, read = [], []
                for j, (origin, pieces) in enumerate(inner[3][-1][2]):
                    if origin is not None:
                        return  # an inner chain from a value
                    a = atoms[1 + j]
                    result.append((a[0], a[1] + ((len(recs) - 1, j),)) if pieces else a)
                for j in inner[4]:
                    read.append(atoms[1 + j])
        else:  # an atom
            result, read = atoms[0], ()
            if result is None:
                return
        for origin, pieces in read:
            if not pieces:
                if origin < 0:
                    checked.add(~origin)
                elif origin:
                    as_is.add(origin)
        if cls is RTuple and label is None:
            break  # the step's closing tuple
        if cls is RThrow or cls is RTuple:
            # the label's value returns to its let's frame
            total += 1
            t, outside = label
            del scope[outside:]
            label, cls = None, type(t)
        if cls is RLet:
            scope.append(result)
        elif result is _ACC and arity in (None, len(t.names)):
            arity = len(t.names)
            for j in range(arity):
                scope.append((~j, ()))
        elif type(result) is list and len(result) == len(t.names):
            scope.extend(result)
        else:
            return
        t = t.body
    # the loop's own node: the closing tuple puts into each slot a chain
    # from that same slot or from a value
    if arity not in (None, len(atoms)):
        return
    chains = []
    for j, (origin, pieces) in enumerate(atoms):
        if origin < 0:
            if origin != ~j:
                return  # a move
            origin = None
        chains.append((origin, pieces))
    for j in checked:
        origin, pieces = chains[j]
        if origin and not pieces:
            as_is.add(origin)  # read as it is in the next iteration
    children = []
    for i in recs:
        children.append(len(nodes) - i)
    nodes.append((0, total, tuple(chains), tuple(children)))
    template = [None] * values  # each value by number: its numeral, or None
    for n, (number, _) in numerals.items():
        template[number] = n
    reads, position = [], 0
    for p in sorted(outer):
        reads.append((p - position, outer[p][0]))
        position = p
    naturals = []
    for n in as_is:
        if template[n] is None:  # an outer variable; a numeral is a natural
            naturals.append(n)
    loop = (total, tuple(reads), tuple(template), tuple(nodes), tuple(checked), tuple(naturals))
    object.__setattr__(fn, "loop", loop)


# ---------------------------------------------------------------------------
# Values and environments
# ---------------------------------------------------------------------------

class Clos:
    __slots__ = ("param", "body", "env")

    def __init__(self, param: str, body: RTerm, env):
        self.param = param
        self.body = body
        self.env = env

    def __repr__(self) -> str:
        return "<closure>"


class ContV:
    __slots__ = ("kont",)

    def __init__(self, kont):
        self.kont = kont

    def __repr__(self) -> str:
        return "<cont>"


# values: int | tuple of values | Clos | ContV
# environments: None | (value, environment), the innermost binding first

def show_value(v: Any) -> str:
    if isinstance(v, bool):
        raise AssertionError("no booleans at runtime")
    if isinstance(v, int):
        try:
            return str(v)
        except ValueError:  # longer than sys.get_int_max_str_digits()
            raise TooLong(f"a natural of more than {sys.get_int_max_str_digits()} digits, too long to print") from None
    if isinstance(v, tuple):
        return "<" + ", ".join(show_value(x) for x in v) + ">"
    return repr(v)


# ---------------------------------------------------------------------------
# The machine
# ---------------------------------------------------------------------------

_HALT = None

# Frame tags, most frequent first.  A frame is a tuple (tag, ..., parent);
# the machine below builds each and reads it back in the same layout.
(_SUCC, _LET, _TUPLE, _MATCH, _REC_NEXT, _REC_LOOP, _ARG, _APP, _REC_BASE, _REC_STEP, _PRED,
 _CALLCC, _THROW_FN, _THROW_ARG, _REC_ACC) = range(15)


def _not_numeral(value: Any) -> StuckTerm:
    return StuckTerm(f"expected a numeral, found {show_value(value)}")


def evaluate(t: RTerm, fuel: int = DEFAULT_FUEL) -> Any:
    """Run a closed runtime term to a value, or raise FuelExhausted.

    A turn of the loop makes one transition and charges one unit: a term
    in control pushes its frame or yields its value, and a value returns
    to one frame.  The one exception is the return to a rec's frame (see
    the module docstring), which also makes the step's curried
    application and may run the loop kernel.  budget is the fuel left
    after the transitions made so far.  The cases go most frequent
    first."""
    control: Any = t  # None while a value returns to kont
    env: Any = None
    kont: Any = _HALT
    value: Any = None
    budget = fuel
    while True:
        budget -= 1
        if budget < 0:
            raise FuelExhausted(fuel)
        if control is not None:
            cls = type(control)
            if cls is RVar:
                index = control.index
                if index is None:
                    raise StuckTerm(f"unbound runtime variable '{control.name}'")
                link = env
                while index:
                    link, index = link[1], index - 1
                value, control = link[0], None
            elif cls is RSucc or cls is RPred:
                kont = (_SUCC if cls is RSucc else _PRED, kont)
                control = control.arg
            elif cls is RLet:
                kont = (_LET, control.body, env, kont)
                control = control.value
            elif cls is RTuple:
                items = control.items
                if items:
                    kont = (_TUPLE, items, 1, (), env, kont)
                    control = items[0]
                else:
                    value, control = (), None
            elif cls is RNum:
                value, control = control.value, None
            elif cls is RLetMatch:
                kont = (_MATCH, control, env, kont)
                control = control.value
            elif cls is RFn:
                value, control = Clos(control.param, control.body, env), None
            elif cls is RApp:
                kont = (_ARG, control.arg, env, kont)
                control = control.fn
            elif cls is RRec:
                kont = (_REC_BASE, control, env, kont)
                control = control.bound
            elif cls is RCallcc:
                kont = (_CALLCC, kont)
                control = control.arg
            elif cls is RThrow:
                kont = (_THROW_FN, control.arg, env, kont)
                control = control.cont
            else:
                raise StuckTerm(f"bad control {control!r}")
            continue
        # returning a value to kont; a frame that applies a function sets fn,
        # arg and kont and falls through to the application below
        if kont is _HALT:
            return value
        tag = kont[0]
        if tag == _SUCC or tag == _PRED:
            if not isinstance(value, int):
                raise _not_numeral(value)
            value = value + 1 if tag == _SUCC else max(value - 1, 0)
            kont = kont[1]
            continue
        elif tag == _LET:
            _, control, env, kont = kont
            env = (value, env)
            continue
        elif tag == _TUPLE:
            _, items, k, done, tenv, parent = kont
            done += (value,)
            if k == len(items):
                value, kont = done, parent
            else:
                kont = (_TUPLE, items, k + 1, done, tenv, parent)
                control, env = items[k], tenv
            continue
        elif tag == _MATCH:
            _, term, env, kont = kont
            names = term.names
            if not isinstance(value, tuple) or len(value) != len(names):
                raise StuckTerm(f"tuple pattern <{', '.join(names)}> against {show_value(value)}")
            for item in value:
                env = (item, env)
            control = term.body
            continue
        elif tag == _REC_NEXT or tag == _REC_LOOP:
            if tag == _REC_NEXT:
                _, bound, k, stepv, parent = kont
                if budget < 1:
                    kont = (_REC_LOOP, bound, k + 1, value, parent)
                    value = stepv
                    continue
                # and the return to the _REC_LOOP frame, without building it
                budget -= 1
                acc, k = value, k + 1
            else:
                _, bound, k, acc, parent = kont
                stepv = value
            if k == bound:
                value, kont = acc, parent
                continue
            if type(stepv) is Clos and type(stepv.body) is RFn and budget > 1:
                budget -= 2  # apply the step to k, close its fn, apply that to acc
                cenv = stepv.env
                control, env = stepv.body.body, (acc, (k, cenv))
                loop = stepv.body.loop
                if loop is not None and budget >= loop[0]:
                    # the loop kernel; where a check fails or the fuel left
                    # does not cover an iteration, it leaves the iteration
                    # to single steps
                    done = run_loop(loop, acc, k, cenv, bound, budget)
                    if done is not None:
                        k, value, budget = done
                        control = None  # the closing tuple returns to kont
                kont = (_REC_NEXT, bound, k, stepv, parent)
                continue
            fn, arg = stepv, k
            kont = (_REC_ACC, bound, k, acc, stepv, parent)
        elif tag == _ARG:
            _, control, env, parent = kont
            kont = (_APP, value, parent)
            continue
        elif tag == _APP:
            _, fn, kont = kont
            arg = value
        elif tag == _REC_BASE:
            _, term, env, parent = kont
            if not isinstance(value, int):
                raise _not_numeral(value)
            kont = (_REC_STEP, value, term.step, env, parent)
            control = term.base
            continue
        elif tag == _REC_STEP:
            _, bound, control, env, parent = kont
            kont = (_REC_LOOP, bound, 0, value, parent)
            continue
        elif tag == _CALLCC:
            kont = kont[1]
            fn, arg = value, ContV(kont)
        elif tag == _THROW_FN:
            _, control, env, parent = kont
            kont = (_THROW_ARG, value, parent)
            continue
        elif tag == _THROW_ARG:
            fn, arg = kont[1], value
            kont = _HALT  # the current context is abandoned
        elif tag == _REC_ACC:
            _, bound, k, acc, stepv, parent = kont
            fn, arg = value, acc
            kont = (_REC_NEXT, bound, k, stepv, parent)
        else:
            raise StuckTerm(f"bad frame {tag!r}")
        # apply fn to arg, returning to kont
        if type(fn) is Clos:
            control, env = fn.body, (arg, fn.env)
        elif type(fn) is ContV:
            kont, value, control = fn.kont, arg, None
        else:
            raise StuckTerm(f"applied a non-function {show_value(fn)}")


# ---------------------------------------------------------------------------
# Direct interpreter for the jump-free imperative fragment (the oracle)
# ---------------------------------------------------------------------------

class IClos:
    __slots__ = ("header", "gamma")

    def __init__(self, header: S.HBase, gamma: Dict[str, Any]):
        self.header = header
        self.gamma = gamma

    def __repr__(self) -> str:
        return "<proc>"


def eval_i_expr(e: S.Expr, gamma: Dict[str, Any], store: Dict[str, Any]) -> Any:
    cls = type(e)
    if cls is S.EVar:
        name = e.name
        if name in store:
            return store[name]
        if name in gamma:
            return gamma[name]
        raise EvalError("UnboundIdent", f"'{name}' at runtime")
    if cls is S.ENum:
        return e.value
    if cls is S.EProc:
        if type(e.header) is not S.HBase:
            raise EvalError("Unsupported", "quantified headers are outside the simple interpreter")
        return IClos(e.header, dict(gamma))
    if cls is S.EStar:
        return ()
    raise EvalError("Unsupported", f"expression {cls.__name__} is outside the simple interpreter")


def call_proc(clos: IClos, args: Tuple[Any, ...]) -> Tuple[Any, ...]:
    header = clos.header
    names = [x for x, _ in header.params]
    gamma = dict(clos.gamma)
    gamma.update(zip(names, args))
    assert isinstance(header.out, S.QSimple)
    out_names = [x for x, _ in header.out.env]
    store: Dict[str, Any] = {x: () for x in out_names}
    exec_seq(header.body, gamma, store)
    return tuple([store[x] for x in out_names])


def exec_seq(s: S.Seq, gamma: Dict[str, Any], store: Dict[str, Any]) -> None:
    """Run s on store; gamma is never mutated, so a caller may reuse it."""
    locals_: List[str] = []
    for item in s.items:
        cls = type(item)
        if cls is S.CInc:
            store[item.name] += 1
        elif cls is S.CAssign:
            store[item.name] = eval_i_expr(item.value, gamma, store)
        elif cls is S.CDec:
            store[item.name] = max(store[item.name] - 1, 0)
        elif cls is S.SCst:
            value = eval_i_expr(item.value, gamma, store)
            gamma = dict(gamma)
            gamma[item.name] = value
        elif cls is S.SVar:
            store[item.name] = eval_i_expr(item.value, gamma, store)
            locals_.append(item.name)
        elif isinstance(item, S.Command):
            exec_command(item, gamma, store)
        else:
            raise EvalError("Unsupported", f"sequence {cls.__name__} is outside the simple interpreter")
    for name in reversed(locals_):
        del store[name]


def _counter_effect(
    loop: S.CFor, n: int, gamma: Dict[str, Any], store: Dict[str, Any]
) -> Optional[Dict[str, Tuple[int, Optional[int]]]]:
    """The effect of n runs of the body of loop on its frame, store, when
    the body is a counter body; None when it is not.  An effect maps each
    name it changes to (a, b), which stands for x -> max(x + a, b), b None
    for x -> x + a: inc is (1, None) and dec (-1, 0).  Such maps are the
    affine maps of the max-plus semiring: (a1, b1) then (a2, b2) is (a1 +
    a2, max(b1 + a2, b2)), and the m-th power of (a, b) is (m*a, b +
    max(0, (m - 1)*a)), the identity for m = 0.  So an effect costs one
    walk of the body, whatever the bounds.

    A counter body holds only inc and dec of names in its loop's frame,
    and index-free `for`s whose frame is part of the enclosing one, whose
    body is a counter body and whose bound is a numeral or a name that is
    no enclosing loop's index and that no inc or dec of the body changes.
    Such a bound has the same value in every iteration, the value read
    here once, from store when the enclosing frame holds the name and from
    gamma otherwise.  A name bound in neither, a frame value that is not a
    natural, and anything else in the body leave the loop to exec_command's
    other paths.  The nested `for`s are walked with a stack, so that a
    loop entry costs one call."""
    changed, bounds = set(), set()  # the names the body changes and reads as bounds
    nest = []  # the enclosing loops' walks: (items, position, effect, frame, bound)
    indices = [loop.var]  # the enclosing loops' indices
    items, at, effect, frame, m = loop.body.items, 0, {}, {x for x, _ in loop.frame}, n
    while True:
        if at < len(items):
            item = items[at]
            at += 1
            cls = type(item)
            if cls is S.CInc or cls is S.CDec:
                if item.name not in frame:
                    return None
                changed.add(item.name)
                then = {item.name: (1, None) if cls is S.CInc else (-1, 0)}
            elif cls is S.CFor and item.idx is None:
                bound = item.bound
                if type(bound) is S.ENum:
                    k = bound.value
                elif type(bound) is S.EVar and bound.name not in indices:
                    name = bound.name
                    if name in frame:
                        k = store[name]
                    elif name in gamma:
                        k = gamma[name]
                    else:
                        return None
                    bounds.add(name)
                else:
                    return None
                inner = {x for x, _ in item.frame}
                if type(k) is not int or k < 0 or not inner <= frame:
                    return None
                nest.append((items, at, effect, frame, m))
                indices.append(item.var)
                items, at, effect, frame, m = item.body.items, 0, {}, inner, k
                continue
            else:
                return None
        else:
            # the body is done: its m-th power joins the enclosing body
            then = {}
            if m:
                for name, (a, b) in effect.items():
                    then[name] = (m * a, None if b is None else b + max(0, (m - 1) * a))
            if not nest:
                break
            items, at, effect, frame, m = nest.pop()
            indices.pop()
        for name, (a2, b2) in then.items():
            a1, b1 = effect.get(name, (0, None))
            effect[name] = (a1 + a2, b2 if b1 is None else b1 + a2 if b2 is None else max(b1 + a2, b2))
    if not changed.isdisjoint(bounds) or any(type(store[x]) is not int for x in then):
        return None
    return then


def exec_command(cmd: S.Command, gamma: Dict[str, Any], store: Dict[str, Any]) -> None:
    """The commands that open a frame or call; exec_seq runs the rest.
    A `for` of n > 0 iterations whose body is a counter body runs in
    closed form, its effect (_counter_effect) applied once to the frame.
    Any other `for` copies gamma once per loop, not once per iteration,
    and runs its body through exec_seq."""
    cls = type(cmd)
    if cls is S.CFor and cmd.idx is None:
        n = eval_i_expr(cmd.bound, gamma, store)
        frame_names = [x for x, _ in cmd.frame]
        sub = {x: store[x] for x in frame_names}
        effect = _counter_effect(cmd, n, gamma, sub) if type(n) is int and n > 0 else None
        if effect is not None:
            for name, (a, b) in effect.items():
                x = sub[name] + a
                sub[name] = x if b is None or x > b else b
        else:
            # one copy serves every iteration: the body does not mutate it
            inner = dict(gamma)
            var, body = cmd.var, cmd.body
            for k in range(n):
                inner[var] = k
                exec_seq(body, inner, sub)
        for x in frame_names:
            store[x] = sub[x]
        return
    if cls is S.CCall:
        clos = eval_i_expr(cmd.fn, gamma, store)
        if type(clos) is not IClos:
            raise EvalError("Unsupported", "called a non-procedure value")
        argvals = tuple([eval_i_expr(a, gamma, store) for a in cmd.args])
        results = call_proc(clos, argvals)
        for name, v in zip(cmd.outs, results):
            store[name] = v
        return
    if cls is S.CBlock:
        assert type(cmd.ann) is S.QSimple
        frame_names = [x for x, _ in cmd.ann.env]
        sub = {x: store[x] for x in frame_names}
        exec_seq(cmd.body, gamma, sub)
        for x in frame_names:
            store[x] = sub[x]
        return
    raise EvalError("Unsupported", f"command {cls.__name__} is outside the simple interpreter")


def interpret_program(
    csts: Tuple[Tuple[str, S.Expr], ...],
    main: Optional[S.MainI],
    entry: Optional[str],
    inputs: Tuple[int, ...],
) -> Tuple[Any, ...]:
    """Run an IS file directly; returns the final output values in order."""
    gamma: Dict[str, Any] = {}
    for name, value in csts:
        gamma[name] = eval_i_expr(value, gamma, {})
    if entry is not None:
        clos = gamma[entry]
        if not isinstance(clos, IClos):
            raise EvalError("Unsupported", f"entry '{entry}' is not a procedure")
        return call_proc(clos, inputs)
    if main is None:
        raise EvalError("NoMain", "the file has no main sequence and no entry was chosen")
    return call_proc(IClos(S.HBase((), main.out, main.body), gamma), ())
