"""Erasure and the continuation machine, with the direct interpreter as
differential oracle."""

import random

import pytest

from loopcert import gen, pipeline, runtime, translate
from loopcert import syntax as S
from loopcert.errors import FuelExhausted, NonErasable, StuckTerm
from loopcert.parser import parse, parse_term
from loopcert.runtime import RApp, RNum, RTuple, erase, evaluate, show_value

from test_cps_oracle import cps_run
from test_machine_steps import _load as load_steps, case_keys, corpus_keys, generated_keys, term_of


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
    it runs out first.  A group of transitions taken on fuel that does not
    cover it would get stuck too early."""
    for fuel in range(steps):
        with pytest.raises(FuelExhausted):
            run(text, fuel)
    with pytest.raises(StuckTerm):
        run(text, steps)


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
    # the same with atom operands, which the machine takes in one group
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
]


@pytest.mark.parametrize("text, value, steps", [case[1:] for case in LOOPS], ids=[case[0] for case in LOOPS])
def test_a_straight_line_rec_step_runs_out_at_every_transition_before_the_last(text, value, steps):
    assert run(text, steps) == value == cps_run(erase(parse_term(text)))
    for fuel in range(steps):
        with pytest.raises(FuelExhausted):
            run(text, fuel)


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


# Atom operands where the machine may take a group of transitions: an
# application and a throw whose function and argument are variables, and a
# loop whose closing tuple holds a numeral: (id, term, value, the least fuel
# that returns).
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
    # A group of transitions charged for fewer than it makes would let
    # some budget below the pinned count run to a value.
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


def test_erasure_commutes_with_substitution():
    rng = random.Random(21)
    for _ in range(80):
        t = gen.gen_term(rng, 4, ivars=("n",))
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
