"""A second, independent oracle for the machine: a CPS meta-circular
evaluator where captured continuations are host-language functions.

Small terms only; the host stack carries the control structure, so the
oracle is exercised on desk-size programs."""

import os
import random
import sys

import pytest

from loopcert import gen, pipeline, runtime
from loopcert.parser import parse, parse_term
from loopcert.runtime import RApp, RNum, RTuple, erase, evaluate


class _Halt(Exception):
    def __init__(self, value):
        self.value = value


def cps_eval(term, env, k, halt):
    match term:
        case runtime.RVar(name):
            while env is not None:
                if env[0] == name:
                    return k(env[1])
                env = env[2]
            raise AssertionError(f"unbound {name}")
        case runtime.RNum(n):
            return k(n)
        case runtime.RSucc(a):
            return cps_eval(a, env, lambda v: k(v + 1), halt)
        case runtime.RPred(a):
            return cps_eval(a, env, lambda v: k(max(v - 1, 0)), halt)
        case runtime.RFn(param, body):
            return k(("clos", param, body, env))
        case runtime.RApp(fn, arg):
            return cps_eval(
                fn, env, lambda f: cps_eval(arg, env, lambda a: _apply(f, a, k, halt), halt), halt
            )
        case runtime.RTuple(items):
            def go(idx, acc):
                if idx == len(items):
                    return k(tuple(acc))
                return cps_eval(items[idx], env, lambda v: go(idx + 1, acc + [v]), halt)

            return go(0, [])
        case runtime.RLet(name, value, body):
            return cps_eval(
                value, env, lambda v: cps_eval(body, (name, v, env), k, halt), halt
            )
        case runtime.RLetMatch(names, value, body):
            def bind(v):
                assert isinstance(v, tuple) and len(v) == len(names)
                env2 = env
                for name, item in zip(names, v):
                    env2 = (name, item, env2)
                return cps_eval(body, env2, k, halt)

            return cps_eval(value, env, bind, halt)
        case runtime.RRec(bound, base, step):
            def with_bound(n):
                def with_base(acc0):
                    def with_step(f):
                        def loop(i, acc):
                            if i == n:
                                return k(acc)
                            return _apply(
                                f, i, lambda g: _apply(g, acc, lambda acc2: loop(i + 1, acc2), halt), halt
                            )

                        return loop(0, acc0)

                    return cps_eval(step, env, with_step, halt)

                return cps_eval(base, env, with_base, halt)

            return cps_eval(bound, env, with_bound, halt)
        case runtime.RCallcc(arg):
            return cps_eval(arg, env, lambda f: _apply(f, ("cont", k), k, halt), halt)
        case runtime.RThrow(cont, arg):
            return cps_eval(
                cont, env, lambda c: cps_eval(arg, env, lambda a: _apply(c, a, halt, halt), halt), halt
            )
    raise AssertionError(term)


def _apply(fn, arg, k, halt):
    if isinstance(fn, tuple) and fn[0] == "clos":
        _, param, body, env = fn
        return cps_eval(body, (param, arg, env), k, halt)
    if isinstance(fn, tuple) and fn[0] == "cont":
        return fn[1](arg)
    raise AssertionError(f"applied {fn!r}")


def cps_run(term):
    def top(value):
        raise _Halt(value)

    old = sys.getrecursionlimit()
    sys.setrecursionlimit(100000)
    try:
        cps_eval(term, None, top, top)
        raise AssertionError("evaluation ended without reaching the toplevel continuation")
    except _Halt as stop:
        return stop.value
    finally:
        sys.setrecursionlimit(old)


CASES = [
    "rec(succ(succ(0)), 0, fn y : nat => fn a : nat => succ(a))",
    "callcc (fn k : ~nat => succ(throw[nat] k 0))",
    "callcc (fn k : ~nat => succ(succ(0)))",
    "let <a, b> = <succ(0), 0> in rec(a, b, fn y : nat => fn a : nat => succ(succ(a)))",
    "callcc (fn k : ~nat => succ(throw[nat] (fn v : nat => throw[<bot>] k succ(v)) 0))",
    # the continuation escapes and is applied later, twice
    "let p = callcc (fn k : ~<nat -> nat> => <fn v : nat => succ(v)>) in let <f> = p in f (f 0)",
]


@pytest.mark.parametrize("text", CASES)
def test_machine_agrees_with_cps(text):
    term = erase(parse_term(text))
    assert evaluate(term, 100000) == cps_run(term)


CORPUS = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "corpus")


@pytest.mark.parametrize("name", sorted(f for f in os.listdir(CORPUS) if f.endswith(".loop")))
def test_machine_agrees_with_cps_on_corpus_images(name):
    # the IS and ID images alike; figure2 and label_jump capture and throw continuations
    with open(os.path.join(CORPUS, name), "r", encoding="utf-8") as handle:
        sf = parse(handle.read())
    term = pipeline.erase_image(pipeline.translate_file(sf))
    assert evaluate(term, 100000) == cps_run(term)


def test_machine_agrees_with_cps_on_generated_programs():
    for k in range(40):
        rng = random.Random(f"cps:{k}")
        sf, entry, arity = gen.gen_is_program(rng, 12)
        erased = pipeline.erase_image(pipeline.translate_file(sf), entry)
        for iv in gen.gen_inputs(rng, arity, count=2, bound=3):
            applied = RApp(erased, RTuple(tuple(RNum(n) for n in iv)))
            assert evaluate(applied, 500000) == cps_run(applied)
