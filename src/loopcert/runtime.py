"""Erasure, an environment machine for the functional language with
first-class continuations and primitive recursion, and a direct
big-step interpreter for jump-free imperative programs used as the
differential-testing oracle.

The machine is the semantics of record: continuation stacks are
persistent, so captured continuations are multi-shot; throw applies a
continuation (or a never-returning closure), abandoning the current
context; rec unfolds its step through machine frames, so deep loops are
iterative rather than stack-consuming.

Erasure resolves every variable once, to its de Bruijn index (None when
the name is unbound, which is an error only if the machine reaches it);
binder names stay on the terms as hints.  A machine environment is a
linked tuple (value, parent), innermost binding first, and a frame is a
tuple whose first item is a small-int tag.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
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


@dataclass(frozen=True, slots=True)
class RLetMatch(RTerm):
    names: Tuple[str, ...]
    value: RTerm
    body: RTerm


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


def _erase(t: S.Term, scope: Dict[str, List[int]], depth: int) -> RTerm:
    """scope maps each name to the depths of its binders around t, and depth
    counts the binders; the cases go most frequent first."""
    match t:
        case S.TVar(name):
            bound = scope.get(name)
            return RVar(name, depth - 1 - bound[-1] if bound else None)
        case S.TLet() | S.TLetMatch() | S.TCoerce() | S.TIndLam() | S.TIndApp() | S.TPack() | S.TUnpack():
            return _erase_lets(t, scope, depth)
        case S.TSucc(arg):
            return RSucc(_erase(arg, scope, depth))
        case S.TTuple(items):
            return RTuple(tuple(_erase(x, scope, depth) for x in items))
        case S.TZero():
            return RNum(0)
        case S.TFn(param, _, body):
            scope[param].append(depth)
            erased = RFn(param, _erase(body, scope, depth + 1))
            scope[param].pop()
            return erased
        case S.TPred(arg):
            return RPred(_erase(arg, scope, depth))
        case S.TApp(fn, arg):
            return RApp(_erase(fn, scope, depth), _erase(arg, scope, depth))
        case S.TRec(bound, base, step, _):
            return RRec(_erase(bound, scope, depth), _erase(base, scope, depth), _erase(step, scope, depth))
        case S.TCallcc(arg):
            return RCallcc(_erase(arg, scope, depth))
        case S.TThrow(_, cont, arg):
            return RThrow(_erase(cont, scope, depth), _erase(arg, scope, depth))
        case S.TAxiom():
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
(_TUPLE, _MATCH, _REC_LOOP, _REC_ACC, _REC_NEXT, _LET, _SUCC, _CALLCC, _THROW_FN, _THROW_ARG,
 _ARG, _APP, _REC_BASE, _REC_STEP, _PRED) = range(15)


def evaluate(t: RTerm, fuel: int = DEFAULT_FUEL) -> Any:
    """Run a closed runtime term to a value, or raise FuelExhausted."""
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
                    link = link[1]
                    index -= 1
                value, control = link[0], None
            elif cls is RLetMatch:
                kont = (_MATCH, control, env, kont)
                control = control.value
            elif cls is RTuple:
                items = control.items
                if items:
                    kont = (_TUPLE, items, 1, (), env, kont)
                    control = items[0]
                else:
                    value, control = (), None
            elif cls is RFn:
                value, control = Clos(control.param, control.body, env), None
            elif cls is RLet:
                kont = (_LET, control.body, env, kont)
                control = control.value
            elif cls is RSucc:
                kont = (_SUCC, kont)
                control = control.arg
            elif cls is RCallcc:
                kont = (_CALLCC, kont)
                control = control.arg
            elif cls is RThrow:
                kont = (_THROW_FN, control.arg, env, kont)
                control = control.cont
            elif cls is RRec:
                kont = (_REC_BASE, control, env, kont)
                control = control.bound
            elif cls is RNum:
                value, control = control.value, None
            elif cls is RApp:
                kont = (_ARG, control.arg, env, kont)
                control = control.fn
            elif cls is RPred:
                kont = (_PRED, kont)
                control = control.arg
            else:
                raise StuckTerm(f"bad control {control!r}")
            continue
        # returning a value to kont; a frame that applies a function sets
        # fn, arg and kont and falls through to the application below
        if kont is _HALT:
            return value
        tag = kont[0]
        if tag == _TUPLE:
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
        elif tag == _REC_LOOP:
            _, bound, k, acc, parent = kont
            if k == bound:
                value, kont = acc, parent
                continue
            fn, arg = value, k
            kont = (_REC_ACC, bound, k, acc, value, parent)
        elif tag == _REC_ACC:
            _, bound, k, acc, stepv, parent = kont
            fn, arg = value, acc
            kont = (_REC_NEXT, bound, k, stepv, parent)
        elif tag == _REC_NEXT:
            _, bound, k, stepv, parent = kont
            kont = (_REC_LOOP, bound, k + 1, value, parent)
            value = stepv
            continue
        elif tag == _LET:
            _, control, env, kont = kont
            env = (value, env)
            continue
        elif tag == _SUCC:
            if not isinstance(value, int):
                raise StuckTerm(f"expected a numeral, found {show_value(value)}")
            value += 1
            kont = kont[1]
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
                raise StuckTerm(f"expected a numeral, found {show_value(value)}")
            kont = (_REC_STEP, value, term.step, env, parent)
            control = term.base
            continue
        elif tag == _REC_STEP:
            _, bound, control, env, parent = kont
            kont = (_REC_LOOP, bound, 0, value, parent)
            continue
        elif tag == _PRED:
            if not isinstance(value, int):
                raise StuckTerm(f"expected a numeral, found {show_value(value)}")
            value = max(value - 1, 0)
            kont = kont[1]
            continue
        else:
            raise StuckTerm(f"bad frame {tag!r}")
        # apply fn to arg, returning to kont
        if type(fn) is Clos:
            control, env = fn.body, (arg, fn.env)
        elif type(fn) is ContV:
            kont, value = fn.kont, arg
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
    match e:
        case S.EVar(name):
            if name in store:
                return store[name]
            if name in gamma:
                return gamma[name]
            raise EvalError("UnboundIdent", f"'{name}' at runtime")
        case S.EStar():
            return ()
        case S.ENum(value):
            return value
        case S.EProc(header):
            if not isinstance(header, S.HBase):
                raise EvalError("Unsupported", "quantified headers are outside the simple interpreter")
            return IClos(header, dict(gamma))
    raise EvalError("Unsupported", f"expression {type(e).__name__} is outside the simple interpreter")


def call_proc(clos: IClos, args: Tuple[Any, ...]) -> Tuple[Any, ...]:
    header = clos.header
    names = [x for x, _ in header.params]
    gamma = dict(clos.gamma)
    gamma.update(zip(names, args))
    assert isinstance(header.out, S.QSimple)
    out_names = [x for x, _ in header.out.env]
    store: Dict[str, Any] = {x: () for x in out_names}
    exec_seq(header.body, gamma, store)
    return tuple(store[x] for x in out_names)


def exec_seq(s: S.Seq, gamma: Dict[str, Any], store: Dict[str, Any]) -> None:
    locals_: List[str] = []
    for item in s.items:
        cls = type(item)
        if cls is S.SCst:
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
    match cmd:
        case S.CAssign(name, value):
            store[name] = eval_i_expr(value, gamma, store)
            return
        case S.CInc(name):
            store[name] = store[name] + 1
            return
        case S.CDec(name):
            store[name] = max(store[name] - 1, 0)
            return
        case S.CBlock(body, ann):
            assert isinstance(ann, S.QSimple)
            frame_names = [x for x, _ in ann.env]
            sub = {x: store[x] for x in frame_names}
            exec_seq(body, gamma, sub)
            for x in frame_names:
                store[x] = sub[x]
            return
        case S.CFor(var, None, bound, body, frame):
            n = eval_i_expr(bound, gamma, store)
            frame_names = [x for x, _ in frame]
            sub = {x: store[x] for x in frame_names}
            for k in range(n):
                gamma2 = dict(gamma)
                gamma2[var] = k
                exec_seq(body, gamma2, sub)
            for x in frame_names:
                store[x] = sub[x]
            return
        case S.CCall(fn, args, outs):
            clos = eval_i_expr(fn, gamma, store)
            if not isinstance(clos, IClos):
                raise EvalError("Unsupported", "called a non-procedure value")
            argvals = tuple(eval_i_expr(a, gamma, store) for a in args)
            results = call_proc(clos, argvals)
            for name, v in zip(outs, results):
                store[name] = v
            return
    raise EvalError("Unsupported", f"command {type(cmd).__name__} is outside the simple interpreter")


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
    return tuple(store[x] for x in out_names)
