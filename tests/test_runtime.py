"""Erasure and the continuation machine, with the direct interpreter as
differential oracle."""

import collections
import random
import sys

import pytest

from loopcert import fuzz, kernels, pipeline, runtime, translate
from loopcert import syntax as S
from loopcert.errors import CheckError, FuelExhausted, NonErasable, StuckTerm
from loopcert.parser import parse, parse_term
from loopcert.runtime import RApp, RNum, RTuple, erase, evaluate, show_value

import syntax_gen
from test_cps_oracle import cps_run
from test_machine_steps import (_load as load_steps, case_keys, corpus_keys, generated_keys, step_count, term_of,
                                without_loops)


def run(text: str, fuel: int = 100000):
    return evaluate(erase(parse_term(text)), fuel)


def test_erase_pack():
    assert erase(parse_term("pack(0, 0 : exists n. nat(n))")) == RNum(0)


def test_erase_indlam():
    t = erase(parse_term("lam n. fn x : nat(n) => x"))
    assert isinstance(t, runtime.RFn)


def test_erase_coercion_discards_proof():
    t = erase(parse_term("0 :> {i/nat(i)}[add(0, 0) = 0]"))
    assert t == RNum(0)


def test_erase_bare_axiom_is_an_error():
    with pytest.raises(NonErasable):
        erase(parse_term("add(0, 0) = 0"))


def test_rec_two_unfoldings():
    assert run("rec(succ(succ(0)), 0, fn y : nat => fn a : nat => succ(a))") == 2


def test_rec_step_sees_ascending_counter():
    # rec(3, <>, s) applies s to 0, then 1, then 2; collect the last counter
    v = run("rec(succ(succ(succ(0))), 0, fn y : nat => fn a : nat => y)")
    assert v == 2


def test_callcc_throw_abandons_context():
    assert run("callcc (fn k : ~nat => succ(throw[nat] k 0))") == 0


def test_callcc_normal_return():
    assert run("callcc (fn k : ~nat => succ(0))") == 1


def test_throw_applies_closures_too():
    # a never-returning closure used as a continuation
    assert (
        run(
            "callcc (fn k : ~nat => succ(throw[nat] (fn v : nat => throw[<bot>] k succ(v)) 0))"
        )
        == 1
    )


def test_throw_to_a_closure_abandons_the_context():
    assert run("succ(throw[nat] (fn v : nat => v) 0)") == 0


def test_a_continuation_as_rec_step_returns_the_counter():
    # rec applies its step to the counter 0, which jumps out of the loop
    assert run("callcc (fn k : ~nat => rec(succ(0), succ(succ(0)), k))") == 0


def test_context_abandonment_paired():
    rng = random.Random(13)
    for _ in range(40):
        n = rng.randrange(0, 5)
        plug = f"succ({'succ(' * n}0{')' * n})"
        via_throw = run(f"callcc (fn k : ~nat => succ(succ(throw[nat] k {plug})))")
        direct = run(plug)
        assert via_throw == direct


def test_multi_shot_continuation():
    # the captured continuation is applied twice through state passing
    text = (
        "let p = callcc (fn k : ~<nat -> nat> => <fn v : nat => succ(v)>) in "
        "let <f> = p in f (f 0)"
    )
    assert run(text) == 2


def test_fuel_exhaustion_reported():
    with pytest.raises(FuelExhausted):
        run("rec(succ(succ(succ(succ(succ(0))))), 0, fn y : nat => fn a : nat => succ(a))", fuel=10)


def test_value_printing():
    assert show_value((3, (), runtime.Clos("x", RNum(0), None))) == "<3, <>, <closure>>"


def test_unbound_runtime_variable_is_stuck():
    with pytest.raises(StuckTerm, match="unbound runtime variable 'ghost'$"):
        evaluate(runtime.RVar("ghost"), 100)


def assert_stuck_at(text, steps):
    """The machine gets stuck on transition number `steps`: with less fuel
    it runs out first, and with more it gets stuck there too.  A loop
    kernel that took an iteration which gets stuck by single steps would
    run past that transition."""
    for fuel in range(steps):
        with pytest.raises(FuelExhausted):
            run(text, fuel)
    for fuel in range(steps, 2 * steps):
        with pytest.raises(StuckTerm):
            run(text, fuel)


# (term, message, the transition on which the machine gets stuck)
STUCK = [
    ("succ(<>)", "expected a numeral, found <>", 3),
    ("pred(<0>)", "expected a numeral, found <0>", 5),
    ("rec(<>, 0, fn y : nat => fn a : nat => a)", "expected a numeral, found <>", 3),
    ("let <a, b> = <0> in a", "tuple pattern <a, b> against <0>", 5),
    ("let <a> = 0 in a", "tuple pattern <a> against 0", 3),
    ("let f = 0 in f 0", "applied a non-function 0", 8),
    ("rec(succ(0), 0, 0)", "applied a non-function 0", 9),
    ("callcc 0", "applied a non-function 0", 3),
    ("throw[nat] 0 0", "applied a non-function 0", 5),
    # the same with atom operands, each reached by a transition of its own
    ("let x = <> in succ(x)", "expected a numeral, found <>", 6),
    ("let x = <0> in pred(x)", "expected a numeral, found <0>", 8),
    ("let x = <0> in let <a, b> = x in a", "tuple pattern <a, b> against <0>", 8),
    ("let x = 0 in let <a> = x in a", "tuple pattern <a> against 0", 6),
    ("let f = 0 in let y = 0 in f y", "applied a non-function 0", 11),
    ("let f = 0 in f <>", "applied a non-function 0", 8),
    ("let k = 0 in throw[nat] k 0", "applied a non-function 0", 8),
    ("let k = <> in let y = 0 in throw[nat] k y", "applied a non-function <>", 11),
    ("let x = <> in rec(succ(0), 0, fn y : nat => fn a : nat => succ(x))", "expected a numeral, found <>", 17),
    # a straight-line chain in a rec step, which the machine may take as one block
    ("rec(succ(0), 0, fn i : nat => fn a : nat => let <b> = a in let c = succ(b) in <c>)",
     "tuple pattern <b> against 0", 14),
    ("rec(succ(0), <0>, fn i : nat => fn a : <nat> => let <b> = a in let c = succ(a) in <c>)",
     "expected a numeral, found <0>", 20),
    ("rec(succ(0), 0, fn i : nat => fn a : nat => let b = a in let c = succ(ghost) in <c>)",
     "unbound runtime variable 'ghost'", 17),
    ("rec(succ(succ(0)), <0>, fn i : nat => fn a : <nat> => let <b> = a in let c = succ(b) in let d = <c, i> in d)",
     "tuple pattern <b> against <1, 0>", 38),
    # a step whose body is one block, which the machine may run as one loop,
    # stuck in its second iteration
    ("rec(succ(succ(succ(0))), <0>, fn i : nat => fn a : <nat> => let <b> = a in let c = succ(b) in <c, i>)",
     "tuple pattern <b> against <1, 0>", 37),
    ("rec(succ(succ(succ(0))), <0>, fn i : nat => fn a : <nat> => let <b> = a in let c = succ(b) in <a>)",
     "expected a numeral, found <0>", 39),
    # stuck in its last iteration: single steps resumed in the environment
    # of another iteration would leave the loop with a value
    ("rec(succ(succ(0)), <0>, fn i : nat => fn a : <nat> => let <b> = a in let c = succ(b) in <c, i>)",
     "tuple pattern <b> against <1, 0>", 35),
    # stuck in a later iteration, on a pred and on a later op's pattern
    ("rec(3, <0, <>>, fn i : nat => fn a : <nat, <>> => let <b, c> = a in let d = pred(b) in <c, d>)",
     "expected a numeral, found <>", 43),
    ("rec(3, <0, 0>, fn i : nat => fn a : <nat, nat> => let <b, c> = a in let d = succ(b) in let <> = <> in <d>)",
     "tuple pattern <b, c> against <1>", 40),
    # a step that enters a label, stuck in a later iteration: on a thrown
    # value that does not fit the let's pattern, and inside the label's body
    ("rec(3, <<0>>, fn i : nat => fn a : <<nat>> =>"
     " let <z> = a in let <y> = callcc (fn k : ~<nat> => throw[<nat>] k z) in <i>)",
     "tuple pattern <y> against 0", 52),
    ("rec(3, <0>, fn i : nat => fn a : <nat> =>"
     " let <z> = a in let <z> = callcc (fn k : ~<nat> => let z = succ(z) in <a>) in <z>)",
     "expected a numeral, found <0>", 51),
]


@pytest.mark.parametrize("text, message, steps", STUCK, ids=[f"{text}-{message}" for text, message, _ in STUCK])
def test_ill_typed_terms_are_stuck(text, message, steps):
    with pytest.raises(StuckTerm) as err:
        run(text)
    assert str(err.value) == f"StuckTerm: {message}"
    assert_stuck_at(text, steps)


# Rec steps fn i => fn a => body whose body is one straight-line run ending
# in its closing tuple, which the machine may take as one loop: (id, term,
# value, the least fuel that returns).
LOOPS = [
    ("four-lets", "rec(succ(succ(succ(0))), <0>, fn i : nat => fn a : <nat> =>"
     " let <b> = a in let c = succ(b) in let d = <c, i> in let <e, f> = d in <e>)", (3,), 91),
    ("counter-and-outer-variable", "let x = 5 in rec(4, <0, 0, 0>, fn i : nat => fn a : <nat, nat, nat> =>"
     " let <s, t, w> = a in let u = succ(s) in <u, i, x>)", (4, 3, 5), 111),
    # as a source loop nest translates: the outer step is no such run
    ("nested", "let y = 3 in rec(4, <0>, fn i : nat => fn a : <nat> => let <z> = a in"
     " let <z> = rec(y, <z>, fn j : nat => fn b : <nat> => let <z> = b in let z = succ(z) in <z>) in <z>)",
     (12,), 291),
    ("no-iteration", "rec(0, <0>, fn i : nat => fn a : <nat> => let <z> = a in let z = succ(z) in <z>)", (0,), 10),
    ("one-iteration", "rec(1, <0>, fn i : nat => fn a : <nat> => let <z> = a in let z = succ(z) in <z>)", (1,), 27),
    ("outer-variables-two-links-out", "let x = 5 in let y = 7 in rec(3, <0, 0, 0>, fn i : nat =>"
     " fn a : <nat, nat, nat> => let <s, t, w> = a in let u = succ(s) in <u, y, x>)", (3, 7, 5), 107),
    ("counter-in-succ", "rec(3, <0>, fn i : nat => fn a : <nat> => let <z> = a in let c = succ(i) in <c>)",
     (3,), 61),
    ("pred-at-zero", "rec(3, <1>, fn i : nat => fn a : <nat> => let <z> = a in let z = pred(z) in <z>)",
     (0,), 63),
    ("empty-pattern", "rec(2, <0>, fn i : nat => fn a : <nat> =>"
     " let <> = <> in let <z> = a in let z = succ(z) in <z>)", (2,), 50),
    ("repeated-name", "rec(3, <0, 1>, fn i : nat => fn a : <nat, nat> =>"
     " let <z, z> = a in let z = succ(z) in <z, z>)", (4, 4), 71),
    ("numeral-operand", "rec(2, <5>, fn i : nat => fn a : <nat> =>"
     " let <z> = a in let c = 0 in let d = succ(c) in <d>)", (1,), 60),
    # program names that a compiled loop might use for its own variables
    ("kernel-local-names", "let acc = 4 in rec(3, <0>, fn k : nat => fn value : <nat> =>"
     " let <budget> = value in let cenv = succ(acc) in <cenv>)", (5,), 72),
]


@pytest.mark.parametrize("text, value, steps", [case[1:] for case in LOOPS], ids=[case[0] for case in LOOPS])
def test_a_straight_line_rec_step_runs_out_at_every_transition_before_the_last(text, value, steps):
    assert run(text, steps) == value == cps_run(erase(parse_term(text)))
    for fuel in range(steps):
        with pytest.raises(FuelExhausted):
            run(text, fuel)


# Rec steps that enter a label, as a source `k : { ... jump(k, ...) ... }`
# translates: (id, term, value, the least fuel that returns).
LABELS = [
    ("jump-in-a-let", "rec(3, <0>, fn i : nat => fn a : <nat> => let <z> = a in let <z> = callcc"
     " (fn k : ~<nat> => let <z> = throw[<nat>] k <z> in <z>) in let z = succ(z) in <z>)", (3,), 100),
    ("jump-as-the-tail", "rec(3, <0>, fn i : nat => fn a : <nat> => let <z> = a in let <z> = callcc"
     " (fn k : ~<nat> => throw[<nat>] k <z>) in let z = succ(z) in <z>)", (3,), 97),
    ("no-jump", "rec(3, <0>, fn i : nat => fn a : <nat> => let <z> = a in let <z> = callcc"
     " (fn k : ~<nat> => let z = succ(z) in <z>) in <z>)", (3,), 85),
    ("lets-read-the-counter-and-an-outer-variable", "let x = 5 in rec(3, <0, 0, 0>, fn i : nat =>"
     " fn a : <nat, nat, nat> => let <s, t, r> = a in let <s, t, r> = callcc (fn k : ~<nat, nat, nat> =>"
     " let u = succ(s) in let v = <i, x> in let <p, q> = v in let <s, t, r> = throw[<nat, nat, nat>] k <u, p, q>"
     " in <s, t, r>) in <s, t, r>)", (3, 2, 5), 171),
    ("jump-carries-a-numeral", "rec(3, <0>, fn i : nat => fn a : <nat> => let <z> = a in let <y, z> = callcc"
     " (fn k : ~<nat, nat> => let <y, z> = throw[<nat, nat>] k <0, z> in <y, z>) in let z = succ(z) in <z>)",
     (3,), 106),
    ("jump-carries-a-lone-atom", "rec(3, <0>, fn i : nat => fn a : <nat> => let <z> = a in let b = callcc"
     " (fn k : ~nat => let b = throw[nat] k z in b) in let c = succ(b) in <c>)", (3,), 94),
    ("unbound-variable-after-the-jump", "rec(3, <0>, fn i : nat => fn a : <nat> => let <z> = a in let <z> = callcc"
     " (fn k : ~<nat> => let <z> = throw[<nat>] k <z> in <ghost>) in let z = succ(z) in <z>)", (3,), 100),
    ("two-labels", "rec(3, <0, 0>, fn i : nat => fn a : <nat, nat> => let <z, w> = a in let <z> = callcc"
     " (fn k : ~<nat> => let z = succ(z) in let <z> = throw[<nat>] k <z> in <z>) in let <w> = callcc"
     " (fn k : ~<nat> => throw[<nat>] k <i>) in <z, w>)", (3, 2), 144),
]


@pytest.mark.parametrize("text, value, steps", [case[1:] for case in LABELS], ids=[case[0] for case in LABELS])
def test_a_rec_step_through_a_label_runs_out_at_every_transition_before_the_last(text, value, steps):
    assert run(text, steps) == value == cps_run(erase(parse_term(text)))
    for fuel in range(steps):
        with pytest.raises(FuelExhausted):
            run(text, fuel)


def loop_of(term):
    """The loop of the first rec along term's lets and labels."""
    while type(term) is not runtime.RRec:
        if type(term) is runtime.RCallcc:
            term = term.arg.body
        elif type(term.value) is runtime.RRec:
            term = term.value
        else:
            term = term.body
    return term.step.body.loop


@pytest.mark.parametrize("text", [case[1] for case in LABELS], ids=[case[0] for case in LABELS])
def test_a_rec_step_through_a_label_is_a_loop(text):
    assert loop_of(erase(parse_term(text))) is not None


# Rec steps whose label is no straight-line run, which stay single steps:
# (id, term, value, the least fuel that returns).
UNCOMPILED_LABELS = [
    ("k-in-a-tuple", "rec(3, <0>, fn i : nat => fn a : <nat> => let <z> = a in let <z> = callcc"
     " (fn k : ~<nat> => let p = <k> in throw[<nat>] k <z>) in let z = succ(z) in <z>)", (3,), 112),
    ("k-passed-to-an-application", "let f = fn c : ~<nat> => 0 in rec(3, <0>, fn i : nat => fn a : <nat> =>"
     " let <z> = a in let <z> = callcc (fn k : ~<nat> => let u = f k in throw[<nat>] k <z>) in"
     " let z = succ(z) in <z>)", (3,), 124),
    ("throw-to-a-continuation-outside-the-step", "callcc (fn j : ~<nat> => rec(3, <0>, fn i : nat =>"
     " fn a : <nat> => let <z> = a in let <z> = callcc (fn k : ~<nat> => let z = succ(z) in"
     " let <z> = throw[<nat>] j <z> in <z>) in <z>))", (1,), 41),
    ("nested-label", "rec(3, <0>, fn i : nat => fn a : <nat> => let <z> = a in let <z> = callcc (fn k : ~<nat> =>"
     " let <z> = callcc (fn h : ~<nat> => throw[<nat>] h <z>) in let <z> = throw[<nat>] k <z> in <z>) in"
     " let z = succ(z) in <z>)", (3,), 136),
]


@pytest.mark.parametrize("text, value, steps", [case[1:] for case in UNCOMPILED_LABELS],
                         ids=[case[0] for case in UNCOMPILED_LABELS])
def test_a_label_that_is_no_straight_line_run_leaves_its_step_to_single_steps(text, value, steps):
    assert loop_of(erase(parse_term(text))) is None
    assert run(text, steps) == value == cps_run(erase(parse_term(text)))
    for fuel in range(steps):
        with pytest.raises(FuelExhausted):
            run(text, fuel)


def test_an_inline_for_through_a_label_is_a_loop():
    sf = parse(
        "discipline ID;\nmain {\n  z := 0;\n  for l : nat(l) := 0 until 3 {\n"
        "    k : {\n      jump(k, z)[z : nat(0)];\n    }[z : nat(0)];\n  }[z : nat(0)];\n} out [z : nat(0)]\n"
    )
    term = pipeline.erase_image(pipeline.translate_file(sf))
    assert loop_of(term) is not None
    assert evaluate(term, 1000) == (0,)


# A rec of bound o = 0 that reads the accumulator's first item, dropped:
# its step never runs, so the item may be the closure g and the iteration
# still completes, though the kernel's checks fail on it.
UNREAD_OUTER = "let o = 0 in let g = fn y : nat => y in"
READ_BY_NO_RUN = "let <u> = rec(o, <a0>, fn l : nat => fn b : <nat> => let <c> = b in let c = succ(c) in <c>) in"


def random_label_step(rng, labels=1, bound=4, closure=False, start=None, counted=False, chains=False):
    """A rec whose step enters from labels to three labels (none makes a
    straight-line step) among random lets of atoms, succ, pred, tuples
    and tuple patterns, each label left by a throw in a let, a tail throw
    or its closing tuple; about one label in eight reads k or holds a
    label of its own, which leaves the step to single steps.  The rec's
    bound is at most bound.  With closure, the outer variable f, a
    closure, is an atom like the naturals, so a succ or pred of it, or
    of an accumulator item that the closing tuple fills with it, gets
    stuck.  start is the width of the initial accumulator, that of the
    step's pattern when None.  With counted, the body opens with a succ
    or pred of the outer variable x, which keeps it from being a counter
    loop.  With chains, the body is instead a chain of succ and pred,
    among lets of atoms, for each accumulator item, which the closing
    tuple puts back in the item's place; now and then a chain starts at
    another item or the closing tuple repeats a chain's end.
    The initial accumulator's items are then 0 to 5.  With labels 0, one
    step in eight reads its first item only by a dropped rec that never
    runs (READ_BY_NO_RUN), and starts with the closure g there: the
    kernel's checks fail in the first iteration, which completes, and
    hold from the next one on, unless a chain keeps the item as it is."""
    fresh = iter(range(1000))
    width = rng.randint(1, 3)
    acc = [f"a{j}" for j in range(width)]
    unread = labels == 0 and rng.random() < 0.125
    # the atoms bound to names in scope
    nats = ["i", "x"] + acc[unread:] + (["f"] if closure else [])
    parts = [f"let <{', '.join(acc)}> = a in"]
    if unread:
        parts.append(READ_BY_NO_RUN)
    if counted:
        parts.append(f"let n = {rng.choice(['succ', 'pred'])}(x) in")
        nats.append("n")

    def atom():
        return rng.choice(nats + ["0"])

    def atoms(n):
        return "<" + ", ".join([atom() for _ in range(n)]) + ">"

    def lets():
        for _ in range(rng.randint(0, 3)):
            name = rng.choice([f"v{next(fresh)}", rng.choice(nats)])
            kind = rng.randrange(4)
            if kind == 3:
                n = rng.randint(0, 2)
                names = [f"v{next(fresh)}" for _ in range(n)]
                parts.append(f"let t = {atoms(n)} in let <{', '.join(names)}> = t in")
                nats.extend(names)
                continue
            parts.append(f"let {name} = {('succ({})', 'pred({})', '{}')[kind].format(atom())} in")
            nats.append(name)

    if chains:
        ends = [acc[j if rng.random() < 0.85 else rng.randrange(width)] for j in range(width)]
        ops = [j for j in range(width) for _ in range(rng.randint(0, 3))] or [0]
        rng.shuffle(ops)
        for j in ops:
            name = f"v{next(fresh)}"
            parts.append(f"let {name} = {rng.choice(['succ', 'pred'])}({ends[j]}) in")
            ends[j] = name
            if rng.random() < 0.2:
                ends[j] = f"v{next(fresh)}"
                parts.append(f"let {ends[j]} = {name} in")
        if width > 1 and rng.random() < 0.1:
            ends[1] = ends[0]
        body = " ".join(parts + [f"<{', '.join(ends)}>"])
        starts = ", ".join(["g" if unread and j == 0 else str(rng.randint(0, 5)) for j in range(width)])
        return (f"let x = 2 in {(UNREAD_OUTER + ' ') * unread}rec({rng.randint(0, bound)}, <{starts}>, fn i : nat =>"
                f" fn a : <{', '.join(['nat'] * width)}> => {body})")
    for _ in range(rng.randint(labels, 3)):
        lets()
        n = rng.randint(0, 3)
        outside = list(nats)
        if n == 0:  # a lone atom
            parts.append("let v = callcc (fn k : ~nat =>")
        else:
            names = [rng.choice([f"v{next(fresh)}", rng.choice(nats)]) for _ in range(n)]
            parts.append(f"let <{', '.join(names)}> = callcc (fn k : ~<{', '.join(['nat'] * n)}> =>")
        if rng.random() < 0.0625:
            parts.append("let c = <k> in")
        lets()
        if rng.random() < 0.0625:
            parts.append("let <c> = callcc (fn h : ~<nat> => throw[<nat>] h <0>) in")
        value = atom() if n == 0 else atoms(n)
        end = rng.randrange(3 if n else 2)
        if end == 0:
            parts.append(f"let q = throw[nat] k {value} in ghost)" if n == 0 else
                         f"let <q> = throw[nat] k {value} in <ghost>)")
        elif end == 1:
            parts.append(f"throw[nat] k {value})")
        else:
            parts.append(f"{value})")
        parts.append("in")
        nats[:] = outside + (["v"] if n == 0 else names)
    lets()
    parts.append(atoms(width))
    body = " ".join(parts)
    outer = ("let x = 2 in let f = fn y : nat => y in" if closure else "let x = 2 in") + f" {UNREAD_OUTER}" * unread
    zeros = ", ".join((["g"] if unread else []) + ["0"] * ((width if start is None else start) - unread))
    return (f"{outer} rec({rng.randint(0, bound)}, <{zeros}>, fn i : nat =>"
            f" fn a : <{', '.join(['nat'] * width)}> => {body})")


def test_rec_steps_through_random_labels_keep_values_and_least_fuel():
    rng = random.Random(5)
    compiled = 0
    for _ in range(450):
        text = random_label_step(rng)
        term = erase(parse_term(text))
        compiled += loop_of(term) is not None
        steps = step_count(term)
        assert evaluate(term, steps) == cps_run(erase(parse_term(text))), text
        assert step_count(without_loops(erase(parse_term(text)))) == steps, text
    assert compiled > 200


def outcome(term, fuel):
    """What the machine makes of term on fuel: a value (printed, since
    closures compare by identity), fuel run out or a stuck term's message."""
    try:
        return "value", show_value(evaluate(term, fuel))
    except FuelExhausted:
        return "fuel", None
    except StuckTerm as err:
        return "stuck", str(err)


def least_fuel(term):
    """The least fuel on which term returns a value or gets stuck."""
    hi = 1
    while outcome(term, hi)[0] == "fuel":
        hi *= 2
    lo = hi // 2  # fuel runs out at lo (or lo is 0)
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (lo, mid) if outcome(term, mid)[0] != "fuel" else (mid, hi)
    return hi


# Rec steps stuck in the first iteration, on an initial accumulator of the
# wrong arity, and in the second, on a closure that the closing tuple feeds
# from an outer variable into the slot that the next iteration's succ reads,
# also where a tuple of the body holds that variable (no succ or pred
# checks it in the first iteration).
STUCK_STEPS = [
    "rec(5, <0>, fn i : nat => fn a : <nat, nat> => let <b, c> = a in let d = succ(b) in <d, c>)",
    "let f = fn y : nat => y in rec(5, <0, 0>, fn i : nat => fn a : <nat, nat> =>"
    " let <b, c> = a in let d = succ(c) in <d, f>)",
    "let f = fn y : nat => y in rec(5, <0, 0>, fn i : nat => fn a : <nat, nat> =>"
    " let <b, c> = a in let d = succ(c) in let t = <f> in <d, f>)",
]


def entered_loops(monkeypatch):
    """The list of the loops that kernels.run_loop runs from now on, each
    once an entry."""
    entered, run_loop = [], runtime.run_loop
    monkeypatch.setattr(runtime, "run_loop", lambda loop, *rest: entered.append(loop) or run_loop(loop, *rest))
    return entered


def kernel_results(monkeypatch):
    """The list of what kernels.run_loop returns from now on."""
    results, run_loop = [], runtime.run_loop
    monkeypatch.setattr(runtime, "run_loop", lambda *args: results.append(run_loop(*args)) or results[-1])
    return results


def entered_after_a_miss(results):
    """Whether a kernel call that returned None was followed by one that
    ran: a miss in an iteration that completed."""
    return None in results and any(r is not None for r in results[results.index(None):])


def test_the_steady_state_of_a_kernel_agrees_with_single_steps(monkeypatch):
    """A kernel makes the checks of every iteration once, at entry, and
    then takes the iterations of a loop in closed form.  On random steps,
    straight-line or through labels, with bounds up to 50, and with fuel
    at the least fuel, one below it and three random points, the kernels
    and single steps (without_loops) must agree on the value, the point
    where fuel runs out and the stuck message.  A quarter of the steps
    open with a succ or pred of the outer variable x, and more than 15 of
    those enter a kernel.  Sixty more are chains of succ and pred on the
    accumulator items, more than 15 of which are loops, and more than 5
    of which move an item into another slot and so are none.  In more
    than 5 steps a kernel runs after it has returned None in an iteration
    that completed (READ_BY_NO_RUN).

    Each of these changes, made on a copy, fails this test:
    n = bound - k + 1 iterations in kernels.run_loop; the first iteration
    charging c - 1; the kernel's turn in runtime.evaluate charging
    charge + 1; the power's clamp b read as b + 1; the composed clamp
    without its + a; the arity check on acc dropped; the entry check on
    the outer values in naturals dropped; a chain from a value powered n
    times; the counter origin read as the first iteration's k;
    runtime._compile_loop leaving out of naturals an outer variable that
    the closing tuple feeds unchanged into a checked slot, not adding the
    slot of a succ's operand to checked, or taking a closing tuple that
    fills an item from another item; the kernel tried at the _REC_NEXT
    frame as well, from the next counter, and charged as at the _REC_LOOP
    frame, one transition short."""
    entered = entered_loops(monkeypatch)
    results = kernel_results(monkeypatch)
    rng = random.Random(11)
    texts = [(text, 0) for text in STUCK_STEPS]
    for case in range(200):
        # 1: a succ or pred of x; 2: the closure f among the atoms; 3: an
        # initial accumulator wider than the pattern
        mode = case % 4
        texts.append((random_label_step(rng, labels=0, bound=50, closure=mode == 2,
                                        start=4 if mode == 3 else None, counted=mode == 1), mode))
    # 4: chains of succ and pred on the accumulator items
    texts += [(random_label_step(rng, labels=0, bound=50, chains=True), 4) for _ in range(60)]
    seen = collections.Counter()
    for text, mode in texts:
        term, single = erase(parse_term(text)), without_loops(erase(parse_term(text)))
        steps = least_fuel(single)
        entered.clear()
        results.clear()
        for fuel in [steps, steps - 1] + [rng.randint(0, 2 * steps) for _ in range(3)]:
            assert outcome(term, fuel) == outcome(single, fuel), (text, fuel)
        loop = loop_of(term)
        seen[outcome(single, steps)[0], loop is not None] += 1
        seen["after a miss"] += entered_after_a_miss(results)
        if mode == 1:
            seen["counted", bool(entered)] += 1
        if mode == 4:
            seen["closed", loop is not None] += 1
    assert outcome(erase(parse_term(STUCK_STEPS[0])), 100) == ("stuck", "StuckTerm: tuple pattern <b, c> against <0>")
    for text in STUCK_STEPS[1:]:
        assert outcome(erase(parse_term(text)), 100) == ("stuck", "StuckTerm: expected a numeral, found <closure>")
    assert seen["value", True] > 40 and seen["stuck", True] > 20 and seen["counted", True] > 15, seen
    assert seen["closed", True] > 15 and seen["closed", False] > 5, seen
    assert seen["after a miss"] > 5, seen


def random_chain_step(rng):
    """A rec whose step gives each of one to three accumulator items a
    chain of up to three succ and pred from one origin: the item itself,
    the outer variable x or y (`z := x`), the numeral 0 (`z := 0`),
    succ(0) (`z := 1`), the counter i (`z := i`) or, one time in ten,
    another item (a move).  A chain may run through a label, left by a
    tail throw, a throw in a let or the label's closing tuple, and
    through a nested rec of bound x.  One step in four also reads the
    closure f: as the operand of a succ whose value is dropped, as an
    item's origin where the step reads that item as it is, or by a succ in
    its nested rec's step.  One step in five reads its first item first
    by a dropped rec that never runs (READ_BY_NO_RUN) and starts with the
    closure g there: the kernel's checks fail in the first iteration,
    which completes unless the step reads the item otherwise, and hold
    from the next one on where the item's chain starts from a value.
    Returns the rec's text and whether erasure must leave the step with no
    loop (a move, or a nested rec that reads f)."""
    fresh = iter(range(1000))
    width = rng.randint(1, 3)
    acc = [f"a{j}" for j in range(width)]
    parts, ends, refused = [f"let <{', '.join(acc)}> = a in"], [], False
    unread = rng.random() < 0.2
    if unread:
        parts.append(READ_BY_NO_RUN)
    closure = rng.randrange(3) if rng.random() < 0.25 else None
    for j in range(width):
        roll = rng.random()
        if roll < 0.1 and width > 1:
            end, refused = acc[(j + rng.randint(1, width - 1)) % width], True
        elif roll < 0.35:
            end = acc[j]
        else:
            end = f"v{next(fresh)}"
            origin = "f" if closure == 2 and j == 0 else rng.choice(["x", "y", "0", "succ(0)", "i"])
            parts.append(f"let {end} = {origin} in")
            if origin == "f":
                parts.append(f"let d = succ({acc[j]}) in")  # the item's slot, read as it is
        label = rng.random() < 0.25
        if label:
            parts.append(f"let <w{j}> = callcc (fn k : ~<nat> =>")
        for _ in range(rng.randint(0, 3)):
            name = f"v{next(fresh)}"
            parts.append(f"let {name} = {rng.choice(['succ', 'pred'])}({end}) in")
            end = name
        if rng.random() < 0.2:
            inner = "let e = succ(f) in " if closure == 1 else ""
            refused = refused or closure == 1
            name = f"v{next(fresh)}"
            parts.append(f"let <{name}> = rec(x, <{end}>, fn l : nat => fn b : <nat> => let <c> = b in {inner}"
                         f"let c = {rng.choice(['succ', 'pred'])}(c) in <c>) in")
            end = name
        if label:
            parts.append(rng.choice([f"throw[<nat>] k <{end}>)", f"let <q> = throw[<nat>] k <{end}> in <q>)",
                                     f"<{end}>)"]) + " in")
            end = f"w{j}"
        ends.append(end)
    if closure == 0:
        parts.insert(1, "let d = succ(f) in")
    starts = ", ".join(["g" if unread and j == 0 else str(rng.randint(0, 5)) for j in range(width)])
    return (f"let x = 2 in let y = 3 in let f = fn u : nat => u in {(UNREAD_OUTER + ' ') * unread}rec({rng.randint(0, 30)}, <{starts}>,"
            f" fn i : nat => fn a : <{', '.join(['nat'] * width)}> => {' '.join(parts)} <{', '.join(ends)}>)",
            refused)


def test_chains_from_values_agree_with_single_steps(monkeypatch):
    """A kernel takes an item whose chain starts from a value (an outer
    variable, a numeral or the counter) by applying the chain once, to the
    value in the last iteration.  On random steps (random_chain_step), the
    kernels and single steps (without_loops) must agree on the value, the
    point where fuel runs out and the stuck message, at the least fuel,
    one below it and three seeded points; a step that moves an item into
    another slot, or whose nested rec reads a value as it is, must have no
    loop, and every other step a loop.  More than 40 of the steps enter a
    kernel with an item from each kind of origin, more than 20 get stuck
    and more than 20 have no loop, and in more than 15 a kernel runs after
    it has returned None in an iteration that completed (READ_BY_NO_RUN).

    Each of these changes, made on a copy, fails this test: a chain from
    a value powered n times, like an item's own (kernels.run_loop); the
    counter origin read as the first iteration's k instead of the last's;
    n = bound - k + 1 iterations; the entry check on the outer values in
    naturals dropped; (n - 1) read as n in the power's clamp; the
    kernel's turn in runtime.evaluate charging charge + 1; a move
    accepted as a chain from the slot's own item (runtime._compile_loop);
    an inner loop that reads a value as it is accepted as a nested rec;
    an outer variable that the closing tuple feeds unchanged into a
    checked slot left out of naturals; the kernel tried at the _REC_NEXT
    frame as well, from the next counter, and charged as at the _REC_LOOP
    frame, one transition short."""
    entered = entered_loops(monkeypatch)
    results = kernel_results(monkeypatch)
    rng = random.Random(37)
    seen = collections.Counter()
    for _ in range(300):
        text, refused = random_chain_step(rng)
        term, single = erase(parse_term(text)), without_loops(erase(parse_term(text)))
        assert (loop_of(term) is None) == refused, text
        steps = least_fuel(single)
        entered.clear()
        results.clear()
        for fuel in [steps, steps - 1] + [rng.randint(0, 2 * steps) for _ in range(3)]:
            assert outcome(term, fuel) == outcome(single, fuel), (text, fuel)
        seen["after a miss"] += entered_after_a_miss(results)
        origins = set()
        for loop in entered:
            for origin, _ in loop[2][-1][2]:
                origins.add("own" if origin is None else "counter" if origin == 0 else
                            "numeral" if loop[1][origin] is not None else "outer")
        seen.update(origins)
        seen[outcome(single, steps)[0]] += 1
        seen["refused"] += refused
    assert min(seen["own"], seen["counter"], seen["numeral"], seen["outer"]) > 40, seen
    assert seen["stuck"] > 20 and seen["refused"] > 20 and seen["after a miss"] > 15, seen


def test_place_loop_runs_in_closed_form_at_a_trillion_iterations():
    """The erased entry of CI's place_loop (`dec(z); w := i; inc(v); v :=
    y; inc(v);`) at 10**12 iterations, at its least fuel of 35
    transitions an iteration plus 47, and one below it."""
    sf = parse("discipline IS;\ncst run = proc [x : nat, y : nat] out [z : nat, w : nat, v : nat] {\n"
               "  z := y;\n  w := 0;\n  v := 0;\n  for i := 0 until x {\n    dec(z);\n    w := i;\n    inc(v);\n"
               "    v := y;\n    inc(v);\n  }[z : nat, w : nat, v : nat];\n};\n")
    term = RApp(pipeline.erase_image(pipeline.translate_file(sf), "run"), RTuple((RNum(10**12), RNum(7))))
    assert evaluate(term, 35 * 10**12 + 47) == (0, 10**12 - 1, 8)
    with pytest.raises(FuelExhausted):
        evaluate(term, 35 * 10**12 + 46)


def test_a_succ_of_an_outer_variable_enters_the_kernel(monkeypatch):
    """As the IS loop `dec(z); w := i; inc(v); v := y; inc(v);` translates:
    z's item is a chain from its own slot, w's from the counter and v's a
    succ of the outer variable y, so one kernel call takes every
    iteration in closed form."""
    entered = entered_loops(monkeypatch)
    fn = erase(parse_term("fn n : nat => let y = 7 in rec(n, <7, 0, 0>, fn i : nat => fn a : <nat, nat, nat> =>"
                          " let <z, w, v> = a in let z = pred(z) in let w = i in let v = succ(v) in let v = y in"
                          " let v = succ(v) in <z, w, v>)"))
    term = RApp(fn, RNum(100000))
    assert evaluate(term, 3500050) == (0, 99999, 8)  # 35 transitions an iteration
    assert entered == [loop_of(fn.body)]
    assert entered[0][2][-1][2] == ((None, (kernels._B_PRED,)), (0, ()), (1, (kernels._B_SUCC,)))
    with pytest.raises(FuelExhausted):
        evaluate(term, 3500049)
    assert outcome(RApp(fn, RNum(40)), 1000) == outcome(RApp(without_loops(fn), RNum(40)), 1000)


# Functions of a bound x whose body is the rec of addition_is, place_loop
# (CI) or jump_loop (a label left by a throw), as it erases: (id, fn,
# value at x = 6).
WHOLE = [
    ("addition_is", "fn x : nat => rec(x, <2>, fn i : nat => fn a : <nat> =>"
     " let <z> = a in let z = succ(z) in <z>)", (8,)),
    ("place_loop", "fn x : nat => let y = 7 in rec(x, <7, 0, 0>, fn i : nat => fn a : <nat, nat, nat> =>"
     " let <z, w, v> = a in let z = pred(z) in let w = i in let v = succ(v) in let v = y in"
     " let v = succ(v) in <z, w, v>)", (1, 5, 8)),
    ("jump_loop", "fn x : nat => rec(x, <6>, fn i : nat => fn a : <nat> => let <z> = a in"
     " let <z> = callcc (fn k : ~<nat> => let <z> = throw[<nat>] k <z> in <z>) in <z>)", (6,)),
]


@pytest.mark.parametrize("text, value", [case[1:] for case in WHOLE], ids=[case[0] for case in WHOLE])
def test_the_kernel_runs_whole_at_any_fuel(monkeypatch, text, value):
    """The kernel takes every remaining iteration in one turn, the rec's
    first return to its loop frame, whatever the fuel left, and charges
    each transition it makes.  At bound 0 that turn leaves the loop, and
    one more returns the value, so the turn is at the least fuel of bound
    0 less one.  On every fuel from there up to the least fuel at bound
    6, run_loop is entered once, and the run raises FuelExhausted below
    the least fuel and gives the value at it."""
    fn = erase(parse_term(text))
    turn = least_fuel(RApp(fn, RNum(0))) - 1
    term = RApp(fn, RNum(6))
    steps = least_fuel(term)
    entered = entered_loops(monkeypatch)
    for fuel in range(turn, steps + 1):
        entered.clear()
        assert outcome(term, fuel) == (("fuel", None) if fuel < steps else ("value", show_value(value))), fuel
        assert entered == [loop_of(fn.body)], fuel
    entered.clear()
    assert outcome(term, turn - 1) == ("fuel", None) and entered == []


@pytest.mark.parametrize("first, second, values", [
    # the same run under other names
    ("rec(3, <0>, fn i : nat => fn a : <nat> => let <z> = a in let z = succ(z) in <z>)",
     "rec(5, <2>, fn j : nat => fn b : <nat> => let <y> = b in let y = succ(y) in <y>)", ((3,), (7,))),
    # the same run with its outer variables at other positions
    ("let x = 1 in let y = 4 in rec(2, <0, 0>, fn i : nat => fn a : <nat, nat> =>"
     " let <u, z> = a in let z = succ(x) in <y, z>)",
     "let x = 3 in let v = 0 in let w = 0 in let y = 6 in rec(2, <0, 0>, fn i : nat => fn a : <nat, nat> =>"
     " let <u, z> = a in let z = succ(x) in <y, z>)", ((4, 2), (6, 4))),
    # the same run with a let of an atom more
    ("rec(3, <0>, fn i : nat => fn a : <nat> => let <z> = a in let z = succ(z) in <z>)",
     "rec(3, <0>, fn i : nat => fn a : <nat> => let <z> = a in let y = z in let z = succ(y) in <z>)", ((3,), (3,))),
])
def test_steps_of_one_shape_have_the_same_chains(first, second, values):
    # a loop's template and chains hold only integers: the runs differ in
    # their reads from the closure environment and in their totals at most
    first, second = erase(parse_term(first)), erase(parse_term(second))
    assert (evaluate(first, 1000), evaluate(second, 1000)) == values
    assert (loop_of(first)[1], loop_of(first)[2][-1][2]) == (loop_of(second)[1], loop_of(second)[2][-1][2])


# Rec steps whose straight-line run is only part of the body, and one whose
# body is its closing tuple alone: (id, term, value, the least fuel that
# returns).
PARTIAL = [
    ("run-then-application", "rec(3, <0>, fn i : nat => fn a : <nat> =>"
     " let <b> = a in let c = succ(b) in let d = (fn x : nat => x) c in <d>)", (3,), 85),
    ("run-then-variable", "rec(3, <0>, fn i : nat => fn a : <nat> =>"
     " let <b> = a in let c = succ(b) in let d = <c> in d)", (3,), 70),
    ("run-closes-the-body", "rec(3, <0>, fn i : nat => fn a : <nat> =>"
     " let <b> = a in let f = fn x : nat => x in let c = f b in let e = succ(c) in <e>)", (3,), 94),
    ("closing-tuple-alone", "rec(3, <0>, fn i : nat => fn a : <nat> => <i>)", (2,), 37),
]


@pytest.mark.parametrize("text, value, steps", [case[1:] for case in PARTIAL], ids=[case[0] for case in PARTIAL])
def test_a_partial_straight_line_run_runs_out_at_every_transition_before_the_last(text, value, steps):
    assert run(text, steps) == value == cps_run(erase(parse_term(text)))
    for fuel in range(steps):
        with pytest.raises(FuelExhausted):
            run(text, fuel)


# Atom operands, each reached by a transition of its own: an application
# and a throw whose function and argument are variables, and a loop whose
# closing tuple holds a numeral: (id, term, value, the least fuel that
# returns).
ATOM_OPERANDS = [
    ("application-of-atoms", "let f = fn x : nat => succ(x) in let y = 2 in f y", 3, 19),
    ("throw-of-atoms", "callcc (fn k : ~<nat> => let y = 2 in throw[<nat>] k y)", 2, 16),
    ("numeral-in-closing-tuple", "rec(3, <0, 0>, fn i : nat => fn a : <nat, nat> =>"
     " let <x, y> = a in let z = succ(x) in <z, 0>)", (3, 0), 69),
]


@pytest.mark.parametrize("text, value, steps", [case[1:] for case in ATOM_OPERANDS],
                         ids=[case[0] for case in ATOM_OPERANDS])
def test_atom_operands_run_out_at_every_transition_before_the_last(text, value, steps):
    assert run(text, steps) == value == cps_run(erase(parse_term(text)))
    for fuel in range(steps):
        with pytest.raises(FuelExhausted):
            run(text, fuel)


def test_a_rec_step_that_is_no_curried_fn_takes_the_generic_path():
    """The step's value is a closure whose body is a let, not a `fn`, so
    each iteration applies it to the counter and returns the function it
    gives to the accumulator frame, which applies that to the accumulator."""
    text = "rec(3, 0, fn i : nat => let g = fn a : nat => succ(a) in g)"
    assert run(text, 44) == 3 == cps_run(erase(parse_term(text)))
    for fuel in range(44):
        with pytest.raises(FuelExhausted):
            run(text, fuel)


@pytest.mark.parametrize(
    "text, steps",
    [
        ("succ(ghost)", 2),
        ("pred(ghost)", 2),
        ("let x = ghost in x", 2),
        ("let <a> = ghost in a", 2),
        ("<0, ghost>", 4),
        ("let f = fn y : nat => y in f ghost", 7),
        ("ghost 0", 2),
        ("callcc (fn k : ~nat => throw[nat] k ghost)", 7),
        ("throw[nat] ghost 0", 2),
    ],
)
def test_a_reached_unbound_operand_is_stuck(text, steps):
    with pytest.raises(StuckTerm) as err:
        run(text)
    assert str(err.value) == "StuckTerm: unbound runtime variable 'ghost'"
    assert_stuck_at(text, steps)


@pytest.mark.parametrize("key", corpus_keys() + case_keys())
def test_fuel_runs_out_at_every_transition_before_the_last(key):
    # A loop kernel charged for fewer transitions than it makes would let
    # some fuel below the pinned count run to a value.
    steps = load_steps()[key]
    term = term_of(key)
    value = evaluate(term, steps)
    for fuel in range(steps):
        with pytest.raises(FuelExhausted):
            evaluate(term, fuel)
    assert evaluate(term, steps) == value


def test_fuel_runs_out_at_every_transition_of_generated_programs():
    steps = load_steps()
    early = []
    for key in generated_keys():
        term = term_of(key)
        for fuel in range(steps[key]):
            try:
                evaluate(term, fuel)
            except FuelExhausted:
                continue
            early.append((key, fuel))
            break
    assert early == []


def test_kernels_agree_with_single_steps_on_every_pinned_term():
    """On each term of golden/steps.json (corpus images, CPS cases and
    generated entries), at the pinned least fuel, one below it and three
    seeded points, the machine with its loop kernels and without them
    (without_loops) agree on the value, the point where fuel runs out and
    the stuck message."""
    rng = random.Random(17)
    steps = load_steps()
    disagreements = []
    for key in corpus_keys() + case_keys() + generated_keys():
        term, single = term_of(key), without_loops(term_of(key))
        for fuel in [steps[key], steps[key] - 1] + [rng.randint(0, 2 * steps[key]) for _ in range(3)]:
            if outcome(term, fuel) != outcome(single, fuel):
                disagreements.append((key, fuel))
    assert disagreements == []


def test_a_non_term_is_bad_control():
    with pytest.raises(StuckTerm, match="bad control 42"):
        evaluate(42, 10)


def test_nested_let_shadowing():
    assert run("let x = 0 in let x = succ(x) in let x = succ(succ(x)) in x") == 3
    # the inner x is gone once its body ends
    assert run("let x = 0 in let y = (let x = succ(succ(0)) in x) in <x, y>") == (0, 2)


def test_let_match_rightmost_duplicate_wins():
    text = "let <a, b, a> = <succ(0), 0, succ(succ(0))> in <a, b>"
    assert run(text) == (2, 0)
    body = erase(parse_term(text)).body
    assert body.items == (runtime.RVar("a", 0), runtime.RVar("b", 1))


def test_a_name_is_unbound_after_its_body():
    t = erase(parse_term("<fn x : nat => x, let y = 0 in y, x, y>"))
    assert [item.index for item in t.items[2:]] == [None, None]
    with pytest.raises(StuckTerm, match="unbound runtime variable 'x'"):
        evaluate(t, 100)


def test_closure_keeps_a_shadowed_outer_binding():
    text = "let x = succ(0) in let f = fn y : nat => x in let x = succ(succ(succ(0))) in <f x, x>"
    assert run(text) == (1, 3)


@pytest.mark.parametrize(
    "text",
    [
        "let f = fn y : nat => ghost in 0",
        "rec(0, 0, fn y : nat => fn a : nat => ghost)",
        "callcc (fn k : ~nat => <throw[nat] k 0, ghost>)",
    ],
)
def test_unbound_variable_in_an_unreached_branch_still_evaluates(text):
    assert run(text) == 0


def test_scoping_is_lexical_when_an_unbound_variable_is_reached():
    # z is bound where g is applied, not where g is defined
    with pytest.raises(StuckTerm, match="unbound runtime variable 'z'$"):
        run("let g = fn y : nat => z in let z = 0 in g z")


def test_differential_on_corpus_addition():
    sf = parse(
        "discipline IS;\n"
        "cst add_proc = proc [x : nat, y : nat] out [z : nat] {\n"
        "  z := y;\n"
        "  for i := 0 until x { inc(z); }[z : nat];\n"
        "};\n"
        "main { add_proc(3, 2; z); } out [z : nat]"
    )
    tctx = translate.TranslateCtx("FS")
    terms = [(name, translate.translate_expr(e, tctx)) for name, e in sf.csts]
    closed: S.Term = S.TVar("add_proc")
    for name, term in reversed(terms):
        closed = S.TLet(name, term, closed)
    erased = erase(closed)
    for a in range(5):
        for b in range(5):
            machine = evaluate(RApp(erased, RTuple((RNum(a), RNum(b)))), 100000)
            oracle = runtime.interpret_program(sf.csts, None, "add_proc", (a, b))
            assert machine == oracle == (a + b,)


def oracle_loop(decls: str, body: str, frame: str, outs: str) -> str:
    """An IS procedure `p` over parameters x (the loop bound) and y: decls
    run first, then `for i := 0 until x { body }[frame];`."""
    out_env = ", ".join(f"{name} : nat" for name in outs.split())
    return (
        "discipline IS;\n"
        "cst c = 5;\n"
        f"cst p = proc [x : nat, y : nat] out [{out_env}] {{\n"
        f"  {decls}\n"
        f"  for i := 0 until x {{ {body} }}[{frame}];\n"
        "};\n"
    )


# IS loops whose oracle runs take both paths of exec_command's CFor case:
# counter bodies and nests in closed form; bodies that run through
# exec_seq (a :=, a nested for whose bound is the index or a name the
# body changes, a block, a var).  Each expected tuple is a
# function of the bound x, with y = 3.
ORACLE_LOOPS = [
    ("inc", oracle_loop("z := y;", "inc(z);", "z : nat", "z"), lambda x: (3 + x,)),
    ("dec_clamps", oracle_loop("z := y;", "dec(z);", "z : nat", "z"), lambda x: (max(3 - x, 0),)),
    ("dec_then_inc", oracle_loop("z := y;", "dec(z); dec(z); inc(z);", "z : nat", "z"),
     lambda x: (max(3 - x, 1),)),
    ("numeral", oracle_loop("z := 0; w := 0;", "inc(z); w := 7;", "z : nat, w : nat", "z w"),
     lambda x: (x, 7 if x else 0)),
    ("index", oracle_loop("z := 0;", "z := i;", "z : nat", "z"), lambda x: (max(x - 1, 0),)),
    ("index_then_inc", oracle_loop("z := y;", "z := i; inc(z);", "z : nat", "z"), lambda x: (x if x else 3,)),
    ("parameter", oracle_loop("z := 0; w := 0;", "inc(w); z := y; inc(z);", "z : nat, w : nat", "z w"),
     lambda x: (4 if x else 0, x)),
    ("cst", oracle_loop("z := 0; cst d = 2;", "z := c; inc(z); z := d;", "z : nat", "z"),
     lambda x: (2 if x else 0,)),
    ("rotate", oracle_loop("u := 1; v := 2; w := 3; var t := 0;", "t := u; u := v; v := w; w := t;",
                           "u : nat, v : nat, w : nat, t : nat", "u v w"),
     lambda x: ((1, 2, 3), (2, 3, 1), (3, 1, 2))[x % 3]),
    ("nested_for", oracle_loop("z := y;", "for j := 0 until 2 { inc(z); }[z : nat]; inc(z);", "z : nat", "z"),
     lambda x: (3 + 3 * x,)),
    ("counter_nest", oracle_loop("z := y; w := 0;", "dec(z); for j := 0 until y { inc(z); inc(w); }[z : nat, w : nat];"
                                 " dec(w);", "z : nat, w : nat", "z w"), lambda x: (3 + 2 * x, 2 * x)),
    ("index_bound", oracle_loop("z := y;", "for j := 0 until i { inc(z); }[z : nat];", "z : nat", "z"),
     lambda x: (3 + x * (x - 1) // 2,)),
    ("changed_bound", oracle_loop("z := y; w := 0;", "for j := 0 until z { inc(w); }[w : nat]; inc(z);",
                                  "z : nat, w : nat", "z w"), lambda x: (3 + x, 3 * x + x * (x - 1) // 2)),
    ("block", oracle_loop("z := y;", "{ dec(z); }[z : nat]; z := i;", "z : nat", "z"),
     lambda x: (x - 1 if x else 3,)),
    ("var", oracle_loop("z := y;", "var t := z; inc(t); z := t;", "z : nat", "z"), lambda x: (3 + x,)),
]


@pytest.mark.parametrize("text, expected", [case[1:] for case in ORACLE_LOOPS], ids=[c[0] for c in ORACLE_LOOPS])
@pytest.mark.parametrize("x", [0, 1, 5, 1000])
def test_the_oracle_agrees_with_the_machine_on_loop_bodies(text, expected, x):
    sf = parse(text)
    pipeline.check_source(sf)
    erased = pipeline.erase_image(pipeline.translate_file(sf), "p")
    machine = evaluate(RApp(erased, RTuple((RNum(x), RNum(3)))))
    assert runtime.interpret_program(sf.csts, None, "p", (x, 3)) == machine == expected(x)


def random_counter_program(rng, parameters=False):
    """An IS procedure p over x and y whose outputs u, v and w start at 0
    to 5 and then run a `for` nest of inc and dec up to three deep.  A
    bound is a numeral up to 12, a parameter, an output or, now and then,
    an enclosing loop's index; an index is now and then named x or y and
    hides that parameter.  One item in sixteen is a `:=`.  A `:=`, a
    bound read from an index and a bound that the nest changes leave the
    nest to the oracle's per-iteration paths.  With parameters, every
    bound is x or y and no index hides them, so that the machine's
    kernels run the nested loops of a `for` whole."""
    fresh = iter(range(1000))
    names = ["u", "v", "w"]

    def bound(indices):
        if parameters:
            return rng.choice(["x", "y"])
        roll = rng.random()
        if roll < 0.4:
            return str(rng.randint(0, 12))
        if roll < 0.6:
            return rng.choice(["x", "y"])
        return rng.choice(names if roll < 0.9 or not indices else indices)

    def loop(frame, depth, indices):
        var = rng.choice(["x", "y"]) if rng.random() < 0.15 and not parameters else f"j{next(fresh)}"
        head = f"for {var} := 0 until {bound(indices)}"
        indices = indices + [var]
        items = []
        for _ in range(rng.randint(1, 3)):
            roll = rng.random()
            if roll < 0.3 and depth < 3:
                items.append(loop(sorted(rng.sample(frame, rng.randint(1, len(frame)))), depth + 1, indices))
            elif roll < 0.36:
                items.append(f"{rng.choice(frame)} := {rng.choice(frame + indices + ['y', '1'])};")
            else:
                items.append(f"{rng.choice(['inc', 'inc', 'dec'])}({rng.choice(frame)});")
        return f"{head} {{ {' '.join(items)} }}[{', '.join(f'{x} : nat' for x in frame)}];"

    starts = " ".join(f"{x} := {rng.randint(0, 5)};" for x in names)
    return ("discipline IS;\n"
            "cst p = proc [x : nat, y : nat] out [u : nat, v : nat, w : nat] {\n"
            f"  {starts}\n  {loop(names, 0, [])}\n}};\n")


def test_counter_loops_in_closed_form_agree_with_single_steps(monkeypatch):
    """The oracle runs a `for` whose body holds only inc, dec and such
    `for`s in closed form (runtime._counter_effect); on random counter
    nests it must agree with the machine by single steps (without_loops),
    an independent reference, and so must the nests that its other paths
    run.  A nest that the IS checker refuses is skipped, and so is one
    that the machine cannot finish on 300,000 transitions.

    Each of these changes to runtime._counter_effect, made on a copy,
    fails this test: (m - 1) read as m in the power; the + a2 dropped
    from the clamp of a composition; a bound read from an enclosing
    index (which may hide a parameter)."""
    effects = []
    counter_effect = runtime._counter_effect
    monkeypatch.setattr(runtime, "_counter_effect", lambda *a: effects.append(counter_effect(*a)) or effects[-1])
    rng = random.Random(29)
    ran = collections.Counter()
    for _ in range(400):
        text = random_counter_program(rng)
        sf = parse(text)
        try:
            pipeline.check_source(sf)
        except CheckError:
            ran["refused"] += 1
            continue
        args = (rng.randint(0, 12), rng.randint(0, 12))
        single = without_loops(pipeline.erase_image(pipeline.translate_file(sf), "p"))
        try:
            machine = evaluate(RApp(single, RTuple(tuple(RNum(n) for n in args))), 300_000)
        except FuelExhausted:
            ran["long"] += 1
            continue
        del effects[:]
        assert runtime.interpret_program(sf.csts, None, "p", args) == machine, (text, args)
        ran["none" if not effects else "closed" if effects[0] is not None else "other"] += 1
    assert ran["closed"] > 150 and ran["other"] > 50, ran


# Nested rec steps whose inner loop reads an item that is no natural: a
# closure, a tuple that the closing tuple feeds back, and a closure that
# the closing tuple replaces by a numeral.  With the inner bound n at 0 the
# inner loop never reads it, and the machine returns it, or in the third
# the numeral: there the kernel's checks fail in the first iteration only,
# so the kernel takes the rest from the second.  Otherwise the machine
# gets stuck.
NESTED_STUCK = [
    "fn n : nat => let f = fn y : nat => y in rec(3, <f, 0>, fn i : nat => fn a : <nat, nat> =>"
    " let <z, w> = a in let w = succ(w) in let <z> = rec(n, <z>, fn j : nat => fn b : <nat> =>"
    " let <v> = b in let v = succ(v) in <v>) in <z, w>)",
    "fn n : nat => rec(3, <0, 0>, fn i : nat => fn a : <nat, nat> => let <z, w> = a in"
    " let <z> = rec(n, <z>, fn j : nat => fn b : <nat> => let <v> = b in let v = pred(v) in <v>)"
    " in let t = <z> in <t, w>)",
    "fn n : nat => let f = fn y : nat => y in rec(3, <f, 0>, fn i : nat => fn a : <nat, nat> =>"
    " let <z, w> = a in let w = succ(w) in let <z> = rec(n, <z>, fn j : nat => fn b : <nat> =>"
    " let <v> = b in let v = succ(v) in <v>) in let z = 0 in <z, w>)",
]


def test_nested_counter_loops_agree_with_single_steps(monkeypatch):
    """A kernel takes a nested rec as one more map of the chains that
    its base items start, and charges its iterations from the bound's
    value.  On random counter nests (random_counter_program), half of
    them with every bound a parameter, and on NESTED_STUCK at inner
    bounds 0 to 2, the machine with its kernels and by single steps
    (without_loops) must agree on the value, the point where fuel runs
    out and the stuck message, at the least fuel, one below it and three
    seeded points.  More than 50 of the programs enter a kernel with a
    nested rec, and more than 10 a kernel with a nest three deep.

    Each of these changes, made on a copy, fails this test: a nested
    rec's charge off by one (n * (cost + 3) for n * (cost + 4) in
    kernels.run_loop); the composed clamp missing its + a term (max(b,
    b2) for max(b + a2, b2) in run_loop's chain of maps); (n - 1) read as
    n in the power's clamp; n = bound - k + 1 iterations of the loop's
    own node; the kernel's turn in runtime.evaluate charging charge + 1,
    or the kernel tried at the _REC_NEXT frame as well, from the next
    counter and charged as at the _REC_LOOP frame; an inner bound
    accepted from a slot that the enclosing step changes
    (runtime._compile_loop taking any variable of the iteration as the
    bound); a loop that skips the check of its checked items, or whose
    succ of an item does not add the item's slot to them."""
    loops = entered_loops(monkeypatch)

    def depth(nodes, i):
        # the depth of the nest of recs under node i (kernels.run_loop)
        return max([1 + depth(nodes, i - d) for d in nodes[i][3]], default=0)

    rng = random.Random(31)
    terms, nested, deep, outcomes = [], 0, 0, set()
    for text in NESTED_STUCK:
        terms += [(text, RNum(n)) for n in range(3)]
    for case in range(400):
        sf = parse(random_counter_program(rng, parameters=case % 2 == 1))
        try:
            pipeline.check_source(sf)
        except CheckError:
            continue
        terms.append((sf, RTuple(tuple(RNum(rng.randint(0, 4)) for _ in range(2)))))
    for source, arg in terms:
        if isinstance(source, str):
            term, single = erase(parse_term(source)), without_loops(erase(parse_term(source)))
        else:
            image = pipeline.translate_file(source)
            term, single = pipeline.erase_image(image, "p"), without_loops(pipeline.erase_image(image, "p"))
        term, single = RApp(term, arg), RApp(single, arg)
        if outcome(single, 50_000)[0] == "fuel":
            continue  # a nest whose bounds grow as it runs
        loops.clear()
        steps = least_fuel(term)
        most = max([depth(loop[2], len(loop[2]) - 1) for loop in loops], default=0)  # of the kernels entered
        nested += most > 0
        deep += most > 1
        outcomes.add(outcome(single, steps)[0])
        for fuel in [steps, steps - 1] + [rng.randint(0, 2 * steps) for _ in range(3)]:
            assert outcome(term, fuel) == outcome(single, fuel), (source, arg, fuel)
    assert outcomes == {"value", "stuck"} and nested > 50 and deep > 10, (outcomes, nested, deep)


def python_calls(path, args):
    """The Python calls of one run_pipeline."""
    calls = 0

    def profile(frame, event, arg):
        nonlocal calls
        if event == "call":
            calls += 1

    sys.setprofile(profile)
    try:
        pipeline.run_pipeline(path, args=args)
    finally:
        sys.setprofile(None)
    return calls


@pytest.mark.parametrize(
    "path, small, large",
    [("corpus/addition_is.loop", (1000, 0), (2000, 0)), ("bench/fixtures/mul_nested.loop", (3, 1000), (3, 2000)),
     ("bench/fixtures/mul_nested.loop", (1000, 3), (2000, 3))],
)
def test_a_larger_rec_bound_makes_no_more_python_calls(path, small, large):
    # the machine runs a straight-line loop, and a loop whose step holds a
    # nested counter loop, in one kernel call, and the oracle runs a
    # counter for nest in closed form
    assert python_calls(path, small) == python_calls(path, large)


def test_a_counter_loop_costs_the_same_at_any_rec_bound():
    """The machine's kernel and the oracle both run addition_is's loop in
    closed form, so a bound of 10**12 takes milliseconds, at the exact
    least fuel of 15 transitions an iteration plus 33.  So do they
    mul_nested's nest at 10**12 by 10**12, at the least fuel 33 + x(21 +
    15y) of the single-step machine."""
    for path, args, value, steps in [
        ("corpus/addition_is.loop", (10**12, 7), "<1000000000007>", 15 * 10**12 + 33),
        ("bench/fixtures/mul_nested.loop", (10**12, 10**12), "<1000000000000000000000000>", 15000000000021000000000033),
    ]:
        report = pipeline.run_pipeline(path, args=args, fuel=steps)
        assert report.exit_code == pipeline.EXIT_OK, report.diagnostics
        assert report.phases[-1]["payload"] == {"value": value, "interpreter": value}
        report = pipeline.run_pipeline(path, args=args, fuel=steps - 1)
        assert [(d["rule"], d["reason"]) for d in report.diagnostics] == [("EVAL", "FuelExhausted")]
    path = "corpus/addition_is.loop"
    with open(path, "r", encoding="utf-8") as handle:
        sf = parse(handle.read())
    assert runtime.interpret_program(sf.csts, None, "add_proc", (10**15, 7)) == (10**15 + 7,)
    with open("bench/fixtures/mul_nested.loop", "r", encoding="utf-8") as handle:
        sf = parse(handle.read())
    assert runtime.interpret_program(sf.csts, None, "mul", (10**15, 10**15)) == (10**30,)


def test_a_disagreement_of_the_oracle_is_reported(monkeypatch):
    monkeypatch.setattr(runtime, "interpret_program", lambda csts, main, entry, inputs: (6,))
    report = pipeline.run_pipeline("corpus/addition_is.loop")
    assert report.exit_code == pipeline.EXIT_RUNTIME
    (diag,) = report.diagnostics
    assert (diag["rule"], diag["reason"]) == ("EVAL", "Discrepancy")
    assert diag["message"] == "Discrepancy: interpreter yields <6>, machine yields <5>"
    with open("corpus/addition_is.loop", "r", encoding="utf-8") as handle:
        sf = parse(handle.read())
    failure = fuzz.run_one(sf, "add_proc", [(1, 2)])
    assert failure["phase"] == "differential" and failure["inputs"] == (1, 2)
    assert failure["message"].startswith("[EVAL] Discrepancy: interpreter yields <6>, machine yields <3>")


def test_erasure_commutes_with_substitution():
    rng = random.Random(21)
    for _ in range(80):
        t = syntax_gen.gen_term(rng, 4, ivars=("n",))
        assert erase(S.subst_ind(S.close_ind(t, "n"), S.num_ind(2))) == erase(t)


def test_zero_iteration_loop():
    sf = parse(
        "discipline IS;\n"
        "cst add_proc = proc [x : nat, y : nat] out [z : nat] {\n"
        "  z := y;\n"
        "  for i := 0 until x { inc(z); }[z : nat];\n"
        "};\nmain { add_proc(0, 0; z); } out [z : nat]"
    )
    for k in range(9):
        assert runtime.interpret_program(sf.csts, None, "add_proc", (0, k)) == (k,)


def test_figure2_machine_value():
    with open("corpus/figure2.loop", "r", encoding="utf-8") as handle:
        sf = parse(handle.read())
    tctx = translate.TranslateCtx("FD")
    terms = tuple((name, translate.translate_expr(e, tctx)) for name, e in sf.csts)
    body = translate.translate_seq(sf.main.body, ("z",), tctx)
    closed: S.Term = body
    for name, term in reversed(terms):
        closed = S.TLet(name, term, closed)
    assert evaluate(erase(closed), 1000000) == (5,)


def test_a_procedure_built_in_a_loop_keeps_its_own_index():
    # The interpreter copies gamma once per loop, not per iteration; a
    # procedure built in the body must still see the index of the
    # iteration that built it when a later iteration calls it.
    text = (
        "discipline IS;\n"
        "cst run = proc [x : nat] out [z : nat, w : nat] {\n"
        "  z := 0;\n"
        "  var p := proc [] out [r : nat] { r := 0; };\n"
        "  for i := 0 until x {\n"
        "    p(; z);\n"
        "    p := proc [] out [r : nat] { r := i; };\n"
        "  }[z : nat, p : proc([] out [nat])];\n"
        "  p(; w);\n"
        "};\n"
        "main { run(0; z, w); } out [z : nat, w : nat]\n"
    )
    for x in range(6):
        report = pipeline.run_pipeline("loop_proc.loop", text=text, args=(x,))
        assert report.exit_code == 0, report.diagnostics
        payload = report.phases[-1]["payload"]
        want = f"<{max(x - 2, 0)}, {max(x - 1, 0)}>"
        assert payload["value"] == payload["interpreter"] == want
