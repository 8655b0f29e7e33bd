"""Acceptance criteria, one test per criterion.

Each criterion prints a pass/fail line (visible with pytest -s); the
stated time bounds are asserted.
"""

import glob
import os
import random
import re
import time

import pytest

from loopcert import dependent, envs, fuzz, pipeline, runtime, translate
from loopcert import syntax as S
from loopcert.axioms import SCHEMAS, try_match_axiom
from loopcert.parser import parse, parse_formula, parse_prop, parse_qenv
from loopcert.printer import show, show_file
from loopcert.runtime import RApp, RNum, RTuple, evaluate
import syntax_gen
from test_axioms import eval_individual

CORPUS = os.path.normpath(os.path.join(os.path.dirname(__file__), "..", "corpus"))


def corpus(name: str) -> str:
    return os.path.join(CORPUS, name)


def _report(criterion: str, ok: bool, detail: str = "") -> None:
    mark = "pass" if ok else "FAIL"
    print(f"acceptance {criterion}: {mark} {detail}".rstrip())
    assert ok, f"{criterion}: {detail}"


def unary_add(a: int, b: int) -> int:
    """Independent unary oracle: addition as chain concatenation."""
    return len(("s" * a) + ("s" * b))


def test_criterion_1_figure1_certification():
    start = time.monotonic()
    report = pipeline.run_pipeline(corpus("figure1.loop"))
    assert report.exit_code == 0, report.to_dict()

    with open(corpus("figure1.loop"), "r", encoding="utf-8") as handle:
        sf = parse(handle.read())
    source_ty = dependent.id_check_expr((), (), sf.csts[0][1])
    want_proto = parse_prop("proc forall n. forall m. ([nat(n), nat(m)] out [nat(add(n, m))])")
    assert S.alpha_eq(source_ty, want_proto), show(source_ty)

    tctx = translate.TranslateCtx("FD")
    term = translate.translate_expr(sf.csts[0][1], tctx)
    target_ty = dependent.fd_check_term((), term)
    want_f = parse_formula("forall n. forall m. <nat(n), nat(m)> -> <nat(add(n, m))>")
    assert S.alpha_eq(target_ty, want_f), show(target_ty)

    erased = pipeline.erase_image(pipeline.translate_file(sf), "p_add")
    assert evaluate(RApp(erased, RTuple((RNum(3), RNum(2)))), 100000) == (5,)
    for a in range(7):
        for b in range(7):
            got = evaluate(RApp(erased, RTuple((RNum(a), RNum(b)))), 100000)
            assert got == (unary_add(a, b),), (a, b, got)
    elapsed = time.monotonic() - start
    _report("1 (figure 1)", elapsed < 1.0, f"({elapsed:.3f}s < 1s, 49 evaluation pairs)")


def test_criterion_2_figure2_certification():
    start = time.monotonic()
    report = pipeline.run_pipeline(corpus("figure2.loop"))
    assert report.exit_code == 0, report.to_dict()
    phases = {p["name"]: p for p in report.phases}
    for name in ("parse", "check-source", "translate", "check-target", "evaluate"):
        assert phases[name]["ok"], name

    with open(corpus("figure2.loop"), "r", encoding="utf-8") as handle:
        sf = parse(handle.read())
    # the final output environment carries z : nat(add(3, 2)) exactly
    out = sf.main.out
    assert isinstance(out, S.QSimple)
    assert out.env[0][0] == "z"
    assert S.alpha_eq(out.env[0][1], parse_prop("nat(add(succ(succ(succ(0))), succ(succ(0))))"))
    assert S.alpha_eq(out.env[0][1], S.FNat(S.IAdd(S.num_ind(3), S.num_ind(2))))

    assert phases["evaluate"]["payload"]["store"] == {"z": "5"}
    machine_value = evaluate(pipeline.erase_image(pipeline.translate_file(sf)), 1000000)
    assert machine_value == (5,)
    # cross-check against the closed-individual evaluator: F32(0) + F32(1)
    assert machine_value == (eval_individual(S.IAdd(S.num_ind(3), S.num_ind(2))),)
    assert machine_value == (eval_individual(S.IF32(S.IZero())) + eval_individual(S.IF32(S.num_ind(1))),)

    # every scope adjustment is listed in the report
    notes = [d for d in report.diagnostics if d["severity"] == "note"]
    assert len(notes) >= 4
    note_text = " ".join(d["message"] for d in notes)
    for expected in ("instantiated", "free prop variable", "cst m = mk", "main is new"):
        assert expected in note_text, expected
    elapsed = time.monotonic() - start
    _report("2 (figure 2)", elapsed < 2.0, f"({elapsed:.3f}s < 2s, z = 5)")


def test_criterion_3_axiom_suite():
    # positives: each printed schema with free variables where it has slots
    positives = [
        ("AX_REFL", S.IVar("i"), S.IVar("i")),
        ("AX_PRED_0", S.IPred(S.IZero()), S.IZero()),
        ("AX_PRED_S", S.IPred(S.ISucc(S.IVar("i"))), S.IVar("i")),
        ("AX_ADD_0", S.IAdd(S.IZero(), S.IVar("m")), S.IVar("m")),
        (
            "AX_ADD_S",
            S.IAdd(S.ISucc(S.IVar("l")), S.IVar("m")),
            S.ISucc(S.IAdd(S.IVar("l"), S.IVar("m"))),
        ),
        ("AX_MULT_0", S.IMult(S.IZero(), S.IVar("m")), S.IVar("m")),
        (
            "AX_MULT_S",
            S.IMult(S.ISucc(S.IVar("l")), S.IVar("m")),
            S.IAdd(S.IMult(S.IVar("l"), S.IVar("m")), S.IVar("m")),
        ),
        ("AX_F32_0", S.IF32(S.IZero()), S.num_ind(3)),
        ("AX_F32_S", S.IF32(S.ISucc(S.IVar("i"))), S.num_ind(2)),
    ]
    assert len(positives) == 9
    for name, left, right in positives:
        assert try_match_axiom(left, right) == name

    # 50 closed near-misses: one-constructor perturbations whose sides
    # evaluate differently, so no sound schema may accept them
    rng = random.Random(2025)
    rejected = 0
    seen = set()
    while rejected < 50:
        name, left, right = positives[rng.randrange(1, 9)]
        metas = sorted(S.free_ind_vars(left) | S.free_ind_vars(right))
        for meta in metas:
            value = S.num_ind(rng.randrange(0, 5))
            left = S.subst_ind(S.close_ind(left, meta), value)
            right = S.subst_ind(S.close_ind(right, meta), value)
        kind = rng.randrange(4)
        if kind == 0:
            left = S.ISucc(left)
        elif kind == 1:
            right = S.ISucc(right)
        elif kind == 2:
            left, right = S.IPred(left), right
        else:
            left, right = right, S.ISucc(left)
        key = (show(left), show(right))
        if key in seen or eval_individual(left) == eval_individual(right):
            continue
        seen.add(key)
        assert try_match_axiom(left, right) is None, key
        rejected += 1

    # soundness link, exhaustive for arguments <= 6
    numerals = [S.num_ind(k) for k in range(7)]
    import itertools

    for name, left, right in SCHEMAS:
        metas = sorted(S.free_ind_vars(left) | S.free_ind_vars(right))
        for values in itertools.product(numerals, repeat=len(metas)):
            li, ri = left, right
            for meta, value in zip(metas, values):
                li = S.subst_ind(S.close_ind(li, meta), value)
                ri = S.subst_ind(S.close_ind(ri, meta), value)
            assert try_match_axiom(li, ri) is not None
            assert eval_individual(li) == eval_individual(ri)
    _report("3 (axiom suite)", True, "(9 schemas, 50 near-misses, exhaustive <= 6)")


def test_criterion_4_simple_differential():
    start = time.monotonic()
    report = fuzz.fuzz_differential(200, 42, 30)
    elapsed = time.monotonic() - start
    ok = report["failures"] == [] and report["passed"] == 200 and elapsed < 60.0
    _report("4 (simple differential)", ok, f"(200/200, seed 42, {elapsed:.1f}s < 60s)")


DEPENDENT_CORPUS = [
    "figure1.loop",
    "figure2.loop",
    "label_jump.loop",
    "witness_call.loop",
    "subst_seq.loop",
    "for_frame.loop",
    "dec_pred.loop",
    "block_exists.loop",
    "exists_pair.loop",
]


def test_criterion_5_dependent_preservation_on_corpus():
    assert len(DEPENDENT_CORPUS) >= 5
    for name in DEPENDENT_CORPUS:
        report = pipeline.run_pipeline(corpus(name))
        assert report.exit_code == 0, (name, report.to_dict())
        assert report.exit_code != 3
        phase_names = [p["name"] for p in report.phases]
        for required in ("parse", "check-source", "translate", "check-target"):
            assert required in phase_names, (name, required)
    _report("5 (dependent corpus)", True, f"({len(DEPENDENT_CORPUS)} programs, exit 3 never)")


def test_criterion_6_kernel_property_suites():
    rng = random.Random(77)
    # environment algebra round trips
    for _ in range(200):
        names = rng.sample(["a", "b", "c", "d", "e"], rng.randrange(0, 5))
        env = tuple((x, syntax_gen.gen_prop(rng, 2)) for x in names)
        ns, ts = envs.split(env)
        assert envs.zip_env(ns, ts) == env
        assert envs.restrict(env, ns) == env
        if env:
            target = rng.choice(ns)
            updated = envs.update(env, target, syntax_gen.gen_prop(rng, 2))
            assert envs.split(updated)[0] == ns
        extra = tuple((x, syntax_gen.gen_prop(rng, 1)) for x in rng.sample(["p", "q"], 2))
        envs.subset(env, envs.append(extra, env))

    # parse . print on the corpus
    for path in sorted(glob.glob(os.path.join(CORPUS, "*.loop"))):
        with open(path, "r", encoding="utf-8") as handle:
            sf = parse(handle.read())
        again = parse(show_file(sf))
        assert S.alpha_eq(again.csts, sf.csts) and S.alpha_eq(again.main, sf.main)

    # parse . print on 500 generated ASTs (mixed categories)
    from loopcert.parser import parse_formula as pf, parse_prop as pp, parse_qenv as pq, parse_term as pt

    cases = 0
    for _ in range(150):
        phi = syntax_gen.gen_formula(rng, 4)
        assert S.alpha_eq(pf(show(phi)), phi)
        cases += 1
    for _ in range(150):
        p = syntax_gen.gen_prop(rng, 3)
        assert S.alpha_eq(pp(show(p)), p)
        cases += 1
    for _ in range(100):
        t = syntax_gen.gen_term(rng, 4)
        assert S.alpha_eq(pt(show(t)), t)
        cases += 1
    for _ in range(100):
        q = syntax_gen.gen_qenv(rng, 3)
        assert S.alpha_eq(pq(show(q)), q)
        cases += 1
    assert cases == 500

    # open/close round trip: a binder's body opened at an eigenvariable
    # and closed again
    for _ in range(100):
        body = S.close_ind(syntax_gen.gen_formula(rng, 3, vars_=("n", "m")), "n")
        eigen = S.Freshener().fresh("n")
        opened = S.subst_ind(body, S.IVar(eigen))
        assert S.alpha_eq(S.close_ind(opened, eigen), body)

    # negation/translation coherence to existential depth 3
    for _ in range(150):
        out = syntax_gen.gen_output(rng, 3)
        lhs = translate.translate_type(S.PNeg(out))
        rhs = S.neg_f(translate.translate_output(out))
        assert S.alpha_eq(lhs, rhs)
    _report("6 (kernel properties)", True, "(env algebra, 500 round trips, open/subst, neg coherence)")


def test_criterion_7_negative_suite():
    files = sorted(glob.glob(os.path.join(CORPUS, "negative", "*.loop")))
    assert len(files) >= 12, "at least twelve deliberately broken variants"
    for path in files:
        with open(path, "r", encoding="utf-8") as handle:
            text = handle.read()
        want_exit = int(re.search(r"expect-exit: (\d+)", text).group(1))
        want_rule = re.search(r"expect-rule: (\S+)", text).group(1)
        report = pipeline.run_pipeline(path, text=text)
        assert report.exit_code == want_exit, (path, report.exit_code, want_exit)
        rules = [d["rule"] for d in report.diagnostics if d["severity"] == "error"]
        assert want_rule in rules, (path, want_rule, rules)
    _report("7 (negative suite)", True, f"({len(files)} broken variants, designated exits and rules)")
