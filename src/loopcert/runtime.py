"""Erasure, an environment machine for the functional language with
first-class continuations and primitive recursion, and a direct
big-step interpreter for jump-free imperative programs used as the
differential-testing oracle.

The machine is the semantics of record: continuation stacks are
persistent, so captured continuations are multi-shot; throw applies a
continuation (or a never-returning closure), abandoning the current
context; rec unfolds its step through machine frames, so deep loops are
iterative rather than stack-consuming.

Fuel is one unit per transition.  Most transitions of a translated loop
or sequence push a frame, look up a variable and pop the frame again;
the machine makes such a run in one turn of its loop: where a frame's
operand is an atom (a bound variable or a numeral), the atom is looked
up and the frame's return is run at once, without building the frame.
That covers let and let <...> of an atom, succ and pred of an atom,
tuples of atoms, an atom applied to an atom and throw of atoms.
Likewise a curried rec step fn i => fn acc => ... is applied to the
counter and the accumulator without building the closure in between (and
one iteration returns into the next without building the loop frame),
and callcc's fn is applied to the continuation without being closed.  A
group is taken only when the fuel left covers every transition in it,
and it is charged for each; otherwise the machine single-steps.  So step
counts, the point where fuel runs out and errors are those of the
single-step machine.

The body of a rec step fn i => fn acc => body runs once per iteration,
so erasure compiles its straight-line work (_compile_blocks).  On the
body's let chain, the head of every maximal run of let and let <...>
whose value is an atom, succ or pred of an atom, or a tuple of atoms
carries a block, a superinstruction: the run's ops with resolved
indices, its total transitions (3 for a let of an atom, 5 for succ or
pred of an atom, 3 + 2n for a tuple of n atoms, 1 + 2n for a closing
tuple of n atoms), and the closing tuple of atoms the run may end in or
else the term after it.  A run of 3 transitions (a lone let of an atom,
which the machine groups anyway, or of <>) gets no block.  The machine
runs a block in one turn when the fuel left covers its total, and
charges the total.  If an op would be stuck (succ or pred of a
non-numeral, a tuple pattern that does not fit), it drops the
environment it built and single-steps from the head, so the block
changes no step count and no error.  Chains outside rec steps run at
most once per call and get no block.  A block is no part of a term:
==, hash, repr and pattern matching ignore it.

Erasure resolves every variable once, to its de Bruijn index (None when
the name is unbound, which is an error only if the machine reaches it);
binder names stay on the terms as hints.  A machine environment is a
linked tuple (value, parent), innermost binding first, and a frame is a
tuple whose first item is a small-int tag.

Erasure, the machine and the interpreter tell nodes apart by their exact
class (`type(t) is C`), the most frequent cases first.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from . import syntax as S
from .errors import EvalError, FuelExhausted, NonErasable, StuckTerm

DEFAULT_FUEL = 10_000_000


# ---------------------------------------------------------------------------
# Runtime terms (the functional fragment after erasure)
# ---------------------------------------------------------------------------

class RTerm:
    __slots__ = ()


@dataclass(frozen=True, slots=True)
class RVar(RTerm):
    name: str
    index: Optional[int] = None  # de Bruijn index; None when unbound


@dataclass(frozen=True, slots=True)
class RNum(RTerm):
    value: int


@dataclass(frozen=True, slots=True)
class RSucc(RTerm):
    arg: RTerm


@dataclass(frozen=True, slots=True)
class RPred(RTerm):
    arg: RTerm


@dataclass(frozen=True, slots=True)
class RFn(RTerm):
    param: str
    body: RTerm


@dataclass(frozen=True, slots=True)
class RApp(RTerm):
    fn: RTerm
    arg: RTerm


@dataclass(frozen=True, slots=True)
class RTuple(RTerm):
    items: Tuple[RTerm, ...]


@dataclass(frozen=True, slots=True)
class RLet(RTerm):
    name: str
    value: RTerm
    body: RTerm
    # set by erase on the head of a straight-line run (_compile_blocks);
    # no part of the term's identity
    block: Any = field(default=None, init=False, compare=False, repr=False)


@dataclass(frozen=True, slots=True)
class RLetMatch(RTerm):
    names: Tuple[str, ...]
    value: RTerm
    body: RTerm
    block: Any = field(default=None, init=False, compare=False, repr=False)


@dataclass(frozen=True, slots=True)
class RRec(RTerm):
    bound: RTerm
    base: RTerm
    step: RTerm


@dataclass(frozen=True, slots=True)
class RCallcc(RTerm):
    arg: RTerm


@dataclass(frozen=True, slots=True)
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
            _compile_blocks(step.body.body)
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


# The kinds of a block's op: the value it computes from its atoms.
_B_ATOM, _B_SUCC, _B_PRED, _B_TUPLE = range(4)
_B_RETURN = -1  # the arity of a run's closing tuple, which binds nothing


def _compile_blocks(t: RTerm) -> None:
    """Put a block on the head of every maximal straight-line run of t's
    let chain (see the module docstring).  A block is (total, ops, rest).
    An op is (kind, arity, operand): arity is None for a let, the pattern's
    length for a let <...> and _B_RETURN for a closing tuple, which ends
    the run with rest None; operand is an atom, or a tuple of atoms for
    _B_TUPLE.  An atom is a variable's de Bruijn index or ~n for the
    numeral n."""
    head = None  # the let that heads the run being built
    while True:
        cls = type(t)
        kind = None
        if cls is RLet or cls is RLetMatch:
            arity = None if cls is RLet else len(t.names)
            value = t.value
            vcls = type(value)
            if vcls is RTuple:
                kind, items, cost = _B_TUPLE, value.items, 3 + 2 * len(value.items)
            elif vcls is RSucc or vcls is RPred:
                kind, items, cost = _B_SUCC if vcls is RSucc else _B_PRED, (value.arg,), 5
            else:
                kind, items, cost = _B_ATOM, (value,), 3
        elif cls is RTuple and head is not None:
            kind, items, cost, arity = _B_TUPLE, t.items, 1 + 2 * len(t.items), _B_RETURN
        if kind is not None:
            atoms = []
            for a in items:
                if type(a) is RVar and a.index is not None:
                    atoms.append(a.index)
                elif type(a) is RNum:
                    atoms.append(~a.value)
                else:
                    kind = None
                    break
        if kind is None:
            if head is not None:
                if total > 3:  # a lone let of an atom takes one turn already
                    object.__setattr__(head, "block", (total, tuple(ops), t))
                head = None
            if cls is not RLet and cls is not RLetMatch:
                return
        else:
            if head is None:
                head, total, ops = t, 0, []
            total += cost
            ops.append((kind, arity, tuple(atoms) if kind == _B_TUPLE else atoms[0]))
            if arity == _B_RETURN:
                object.__setattr__(head, "block", (total, tuple(ops), None))
                return
        t = t.body


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
        return str(v)
    if isinstance(v, tuple):
        return "<" + ", ".join(show_value(x) for x in v) + ">"
    return repr(v)


# ---------------------------------------------------------------------------
# The machine
# ---------------------------------------------------------------------------

_HALT = None

# Frame tags, most frequent first.  A frame is a tuple (tag, ..., parent);
# the machine below builds each and reads it back in the same layout.
(_REC_NEXT, _LET, _MATCH, _THROW_ARG, _APP, _TUPLE, _REC_LOOP, _SUCC, _PRED, _CALLCC, _ARG,
 _THROW_FN, _REC_ACC, _REC_BASE, _REC_STEP) = range(15)


def _not_numeral(value: Any) -> StuckTerm:
    return StuckTerm(f"expected a numeral, found {show_value(value)}")


def _no_match(names: Tuple[str, ...], value: Any) -> StuckTerm:
    return StuckTerm(f"tuple pattern <{', '.join(names)}> against {show_value(value)}")


def evaluate(t: RTerm, fuel: int = DEFAULT_FUEL) -> Any:
    """Run a closed runtime term to a value, or raise FuelExhausted.

    A turn of the loop makes one transition, or one group of them (see
    the module docstring); budget is the fuel left after the transitions
    made so far."""
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
            if cls is RLet or cls is RLetMatch:
                block = control.block
                if block is not None and budget >= block[0] - 1:
                    # the whole run in this turn, binding into benv; an op
                    # that would be stuck sends the machine to single steps
                    benv = env
                    for kind, arity, a in block[1]:
                        if kind == _B_TUPLE:
                            value = ()
                            for index in a:
                                if index < 0:
                                    value += (~index,)
                                else:
                                    link = benv
                                    while index:
                                        link, index = link[1], index - 1
                                    value += (link[0],)
                        else:
                            if a < 0:
                                value = ~a
                            else:
                                link = benv
                                while a:
                                    link, a = link[1], a - 1
                                value = link[0]
                            if kind:  # _B_SUCC or _B_PRED
                                if type(value) is not int:
                                    break
                                value = value + 1 if kind == _B_SUCC else max(value - 1, 0)
                        if arity is None:
                            benv = (value, benv)
                        elif arity >= 0:
                            if type(value) is not tuple or len(value) != arity:
                                break
                            for item in value:
                                benv = (item, benv)
                    else:
                        budget -= block[0] - 1
                        env, control = benv, block[2]
                        continue
                a = control.value
                if budget > 1 and (type(a) is RVar and a.index is not None or type(a) is RNum):
                    budget -= 2  # push, reach the atom, bind
                    if type(a) is RNum:
                        value = a.value
                    else:
                        link, index = env, a.index
                        while index:
                            link, index = link[1], index - 1
                        value = link[0]
                    if cls is RLet:
                        env = (value, env)
                    else:
                        names = control.names
                        if not isinstance(value, tuple) or len(value) != len(names):
                            raise _no_match(names, value)
                        for item in value:
                            env = (item, env)
                    control = control.body
                elif cls is RLet:
                    kont = (_LET, control.body, env, kont)
                    control = a
                else:
                    kont = (_MATCH, control, env, kont)
                    control = a
                continue
            elif cls is RTuple:
                # each atom item is reached and returned to the tuple frame
                items = control.items
                done = ()
                for a in items:
                    if budget < 2:
                        break
                    if type(a) is RVar:
                        index = a.index
                        if index is None:
                            break
                        link = env
                        while index:
                            link, index = link[1], index - 1
                        done += (link[0],)
                    elif type(a) is RNum:
                        done += (a.value,)
                    else:
                        break
                    budget -= 2
                else:
                    value, control = done, None
                    continue
                k = len(done)
                kont = (_TUPLE, items, k + 1, done, env, kont)
                control = items[k]
                continue
            elif cls is RSucc or cls is RPred:
                a = control.arg
                if budget > 1 and (type(a) is RVar and a.index is not None or type(a) is RNum):
                    budget -= 2  # push, reach the atom, count
                    if type(a) is RNum:
                        value = a.value
                    else:
                        link, index = env, a.index
                        while index:
                            link, index = link[1], index - 1
                        value = link[0]
                    if not isinstance(value, int):
                        raise _not_numeral(value)
                    value = value + 1 if cls is RSucc else max(value - 1, 0)
                    control = None
                else:
                    kont = (_SUCC if cls is RSucc else _PRED, kont)
                    control = a
                continue
            elif cls is RVar:
                index = control.index
                if index is None:
                    raise StuckTerm(f"unbound runtime variable '{control.name}'")
                link = env
                while index:
                    link, index = link[1], index - 1
                value, control = link[0], None
                continue
            elif cls is RFn:
                value, control = Clos(control.param, control.body, env), None
                continue
            elif cls is RApp or cls is RThrow:
                a = control.fn if cls is RApp else control.cont
                if not (budget > 1 and (type(a) is RVar and a.index is not None or type(a) is RNum)):
                    kont = (_ARG if cls is RApp else _THROW_FN, control.arg, env, kont)
                    control = a
                    continue
                budget -= 2  # push, reach the function, push its argument's frame
                if type(a) is RNum:
                    fn = a.value
                else:
                    link, index = env, a.index
                    while index:
                        link, index = link[1], index - 1
                    fn = link[0]
                a = control.arg
                if not (budget > 1 and (type(a) is RVar and a.index is not None or type(a) is RNum)):
                    kont = (_APP if cls is RApp else _THROW_ARG, fn, kont)
                    control = a
                    continue
                budget -= 2  # reach the argument, apply
                if type(a) is RNum:
                    arg = a.value
                else:
                    link, index = env, a.index
                    while index:
                        link, index = link[1], index - 1
                    arg = link[0]
                if cls is RThrow:
                    kont = _HALT  # the current context is abandoned
            elif cls is RCallcc:
                if type(control.arg) is RFn and budget > 1:
                    # push, close the fn, apply it to the current continuation
                    budget -= 2
                    control, env = control.arg.body, (ContV(kont), env)
                else:
                    kont = (_CALLCC, kont)
                    control = control.arg
                continue
            elif cls is RRec:
                kont = (_REC_BASE, control, env, kont)
                control = control.bound
                continue
            elif cls is RNum:
                value, control = control.value, None
                continue
            else:
                raise StuckTerm(f"bad control {control!r}")
        else:
            # returning a value to kont; a frame that applies a function sets
            # fn, arg and kont and falls through to the application below
            if kont is _HALT:
                return value
            tag = kont[0]
            if tag == _REC_NEXT or tag == _REC_LOOP:
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
                    kont = (_REC_NEXT, bound, k, stepv, parent)
                    control, env = stepv.body.body, (acc, (k, stepv.env))
                    continue
                fn, arg = stepv, k
                kont = (_REC_ACC, bound, k, acc, stepv, parent)
            elif tag == _LET:
                _, control, env, kont = kont
                env = (value, env)
                continue
            elif tag == _MATCH:
                _, term, env, kont = kont
                names = term.names
                if not isinstance(value, tuple) or len(value) != len(names):
                    raise _no_match(names, value)
                for item in value:
                    env = (item, env)
                control = term.body
                continue
            elif tag == _THROW_ARG:
                fn, arg = kont[1], value
                kont = _HALT  # the current context is abandoned
            elif tag == _APP:
                _, fn, kont = kont
                arg = value
            elif tag == _TUPLE:
                _, items, k, done, tenv, parent = kont
                done += (value,)
                if k == len(items):
                    value, kont = done, parent
                else:
                    kont = (_TUPLE, items, k + 1, done, tenv, parent)
                    control, env = items[k], tenv
                continue
            elif tag == _SUCC or tag == _PRED:
                if not isinstance(value, int):
                    raise _not_numeral(value)
                value = value + 1 if tag == _SUCC else max(value - 1, 0)
                kont = kont[1]
                continue
            elif tag == _CALLCC:
                kont = kont[1]
                fn, arg = value, ContV(kont)
            elif tag == _ARG:
                _, control, env, parent = kont
                kont = (_APP, value, parent)
                continue
            elif tag == _THROW_FN:
                _, control, env, parent = kont
                kont = (_THROW_ARG, value, parent)
                continue
            elif tag == _REC_ACC:
                _, bound, k, acc, stepv, parent = kont
                fn, arg = value, acc
                kont = (_REC_NEXT, bound, k, stepv, parent)
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


def exec_command(cmd: S.Command, gamma: Dict[str, Any], store: Dict[str, Any]) -> None:
    """The commands that open a frame or call; exec_seq runs the rest."""
    cls = type(cmd)
    if cls is S.CFor and cmd.idx is None:
        n = eval_i_expr(cmd.bound, gamma, store)
        frame_names = [x for x, _ in cmd.frame]
        sub = {x: store[x] for x in frame_names}
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
    assert isinstance(main.out, S.QSimple)
    out_names = [x for x, _ in main.out.env]
    store: Dict[str, Any] = {x: () for x in out_names}
    exec_seq(main.body, gamma, store)
    return tuple([store[x] for x in out_names])
