"""The axiom schema matcher and the closed evaluator, including the
soundness link between them.  The evaluator is the soundness oracle and
lives here: the toolchain itself never evaluates individuals."""

import itertools
import random
from typing import Dict, Optional

import pytest

from loopcert import syntax as S
from loopcert.axioms import SCHEMAS, _match, match_axiom, try_match_axiom
from loopcert.errors import CheckError, EvalError
from loopcert.parser import Parser
from loopcert.syntax import IAdd, IF32, IMult, IPred, ISub, ISucc, IVar, IZero, Ind

import syntax_gen


class OpenIndividual(EvalError):
    def __init__(self, name: str):
        super().__init__("OpenIndividual", f"variable '{name}' in a closed evaluation")


def eval_individual(i: Ind) -> int:
    """Closed individuals as naturals; pred and sub are truncated."""
    match i:
        case IVar(name):
            raise OpenIndividual(name)
        case IZero():
            return 0
        case ISucc(a):
            return eval_individual(a) + 1
        case IPred(a):
            return max(eval_individual(a) - 1, 0)
        case IAdd(a, b):
            return eval_individual(a) + eval_individual(b)
        case ISub(a, b):
            return max(eval_individual(a) - eval_individual(b), 0)
        case IMult(a, b):
            # mult(0, m) = m and mult(succ(n), m) = add(mult(n, m), m)
            return (eval_individual(a) + 1) * eval_individual(b)
        case IF32(a):
            return 3 if eval_individual(a) == 0 else 2
    raise AssertionError(i)


def ind(text: str) -> S.Ind:
    p = Parser(text)
    out = p.parse_ind()
    assert p.kinds[p.pos] == "eof"
    return out


# one positive instance per schema, with free variables where allowed
POSITIVE = [
    ("AX_REFL", "add(n, m)", "add(n, m)"),
    ("AX_PRED_0", "pred(0)", "0"),
    ("AX_PRED_S", "pred(succ(k))", "k"),
    ("AX_ADD_0", "add(0, m)", "m"),
    ("AX_ADD_S", "add(succ(l), m)", "succ(add(l, m))"),
    ("AX_MULT_0", "mult(0, m)", "m"),
    ("AX_MULT_S", "mult(succ(l), m)", "add(mult(l, m), m)"),
    ("AX_F32_0", "F32(0)", "3"),
    ("AX_F32_S", "F32(succ(k))", "2"),
]


@pytest.mark.parametrize("name,left,right", POSITIVE)
def test_schema_positive(name, left, right):
    assert try_match_axiom(ind(left), ind(right)) == name


def test_no_symmetry_here():
    # callers flip the pair; the matcher itself never does
    assert try_match_axiom(ind("0"), ind("pred(0)")) is None
    assert try_match_axiom(ind("3"), ind("F32(0)")) is None


def test_figure1_annotations():
    assert try_match_axiom(ind("add(0, m)"), ind("m")) == "AX_ADD_0"
    assert try_match_axiom(ind("add(succ(l), m)"), ind("succ(add(l, m))")) == "AX_ADD_S"


def test_figure2_annotations():
    assert try_match_axiom(ind("F32(0)"), ind("3")) == "AX_F32_0"
    assert try_match_axiom(ind("F32(succ(i))"), ind("2")) == "AX_F32_S"


def test_schema_variable_consistency():
    # the metavariable must bind the same individual on both sides
    assert try_match_axiom(ind("pred(succ(k))"), ind("j")) is None
    assert try_match_axiom(ind("add(succ(l), m)"), ind("succ(add(l, l))")) is None


def test_match_axiom_raises():
    with pytest.raises(CheckError) as err:
        match_axiom(ind("add(0, m)"), ind("succ(m)"))
    assert err.value.reason == "NoAxiom"


def test_sub_never_matches():
    assert try_match_axiom(ind("sub(succ(0), succ(0))"), ind("0")) is None


def test_eval_examples():
    assert eval_individual(ind("succ(succ(0))")) == 2
    assert eval_individual(ind("F32(succ(succ(0)))")) == 2
    assert eval_individual(ind("F32(0)")) == 3
    # mult follows the printed schemas: mult(0, m) = m
    assert eval_individual(ind("mult(succ(0), succ(succ(0)))")) == 4
    assert eval_individual(ind("mult(0, succ(succ(0)))")) == 2
    assert eval_individual(ind("pred(0)")) == 0
    assert eval_individual(ind("sub(succ(0), succ(succ(0)))")) == 0


def test_eval_open_individual():
    with pytest.raises(OpenIndividual):
        eval_individual(ind("add(n, 0)"))


def _closed_instances():
    """(name, left, right) for every instance of every schema with
    arguments up to 6."""
    numerals = [S.num_ind(k) for k in range(7)]
    for name, left, right in SCHEMAS:
        metas = sorted(S.free_ind_vars(left) | S.free_ind_vars(right))
        for values in itertools.product(numerals, repeat=len(metas)):
            li, ri = left, right
            for meta, value in zip(metas, values):
                li = S.subst_ind(S.close_ind(li, meta), value)
                ri = S.subst_ind(S.close_ind(ri, meta), value)
            yield name, li, ri


def test_soundness_link_exhaustive():
    """match_axiom implies equal evaluation, for all closed instances with
    arguments up to 6."""
    checked = 0
    for name, li, ri in _closed_instances():
        assert try_match_axiom(li, ri) == name or try_match_axiom(li, ri) is not None
        assert eval_individual(li) == eval_individual(ri), name
        checked += 1
    # 2 closed schemas, 4 unary ones over 0..6, 2 binary ones over [0,6]^2
    assert checked == 2 + 4 * 7 + 2 * 49


def _linear_scan(i1: Ind, i2: Ind) -> Optional[str]:
    """try_match_axiom as a scan of the whole schema table."""
    if S.alpha_eq(i1, i2):
        return "AX_REFL"
    for name, left, right in SCHEMAS:
        binding: Dict[str, Ind] = {}
        if _match(left, i1, binding) and _match(right, i2, binding):
            return name
    return None


def test_schema_index_agrees_with_a_linear_scan():
    """Looking up only the schemas whose left pattern has the subject's
    class finds the same schema as trying the whole table in order."""
    pairs = [(li, ri) for _, li, ri in _closed_instances()]
    rng = random.Random(7)
    ivars = ("m", "n")
    for _ in range(400):
        # a schema instance over random open individuals, one side perturbed
        # half of the time, and an unrelated pair
        _, left, right = rng.choice(SCHEMAS)
        for meta in sorted(S.free_ind_vars(left) | S.free_ind_vars(right)):
            value = syntax_gen.gen_ind(rng, 2, ivars)
            left = S.subst_ind(S.close_ind(left, meta), value)
            right = S.subst_ind(S.close_ind(right, meta), value)
        if rng.random() < 0.5:
            right = S.ISucc(right) if rng.random() < 0.5 else syntax_gen.gen_ind(rng, 2, ivars)
        pairs.append((left, right))
        pairs.append((syntax_gen.gen_ind(rng, 3, ivars), syntax_gen.gen_ind(rng, 3, ivars)))
    found = set()
    for left, right in pairs:
        for i1, i2 in ((left, right), (right, left)):
            want = _linear_scan(i1, i2)
            assert try_match_axiom(i1, i2) == want, (i1, i2)
            found.add(want)
    assert found == {name for name, _, _ in SCHEMAS} | {"AX_REFL", None}


def test_refl_on_generated_individuals():
    rng = random.Random(11)
    for _ in range(100):
        i = syntax_gen.gen_ind(rng, 3)
        assert try_match_axiom(i, i) is not None
