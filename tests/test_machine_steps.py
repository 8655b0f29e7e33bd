"""Machine step counts are pinned.

`golden/steps.json` holds, for each term below, the least fuel `n` for
which `evaluate(t, n)` returns; with `n - 1` it must raise
`FuelExhausted`.  Fuel is one unit per machine transition, so the count
is the number of transitions, and a change that is meant to keep the
machine's transitions (a speed-up) must leave this test passing
untouched.  The terms are the erased closed `main` of every positive
corpus image, every `CASES` term of `test_cps_oracle.py`, and the
entries of 50 `gen.gen_is_program` programs (seeds `steps:0` ..
`steps:49`), each applied to two input vectors drawn from the same
seeded generator.  To regenerate the file from the code on the path,
after a change that is meant to alter the machine's transitions, run

    PYTHONPATH=src python tests/test_machine_steps.py --write

The writer counts on `without_loops(term)`, by single steps, so the
pinned counts do not come from the loop kernels that these tests check.
"""

import dataclasses
import json
import os
import random
import sys

import pytest

from loopcert import gen, pipeline
from loopcert.errors import FuelExhausted
from loopcert.parser import parse, parse_term
from loopcert.runtime import RApp, RFn, RNum, RTerm, RTuple, erase, evaluate

from test_cps_oracle import CASES

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
GOLDEN = os.path.join(HERE, "golden", "steps.json")
GENERATED = 50


def corpus_keys():
    names = sorted(f for f in os.listdir(os.path.join(ROOT, "corpus")) if f.endswith(".loop"))
    return [f"corpus/{name}" for name in names]


def case_keys():
    return [f"cps:{k}" for k in range(len(CASES))]


def generated_keys():
    return [f"gen:{k}:{i}" for k in range(GENERATED) for i in range(2)]


def term_of(key: str):
    kind, _, rest = key.partition(":")
    if kind == "cps":
        return erase(parse_term(CASES[int(rest)]))
    if kind == "gen":
        k, i = rest.split(":")
        rng = random.Random(f"steps:{k}")
        sf, entry, arity = gen.gen_is_program(rng, 30)
        inputs = gen.gen_inputs(rng, arity, count=2, bound=3)[int(i)]
        erased = pipeline.erase_image(pipeline.translate_file(sf), entry)
        return RApp(erased, RTuple(tuple(RNum(n) for n in inputs)))
    with open(os.path.join(ROOT, key), "r", encoding="utf-8") as handle:
        sf = parse(handle.read())
    return pipeline.erase_image(pipeline.translate_file(sf))


def without_loops(term):
    """term with every fn's loop reset to None, in place: with no loop
    left, the machine never enters its loop kernel, and is the
    single-step machine, one transition a turn."""
    stack = [term]
    while stack:
        t = stack.pop()
        if type(t) is RFn:
            object.__setattr__(t, "loop", None)
        for f in dataclasses.fields(t):
            child = getattr(t, f.name)
            stack.extend([c for c in (child if type(child) is tuple else (child,)) if isinstance(c, RTerm)])
    return term


def _runs(term, fuel: int) -> bool:
    try:
        evaluate(term, fuel)
    except FuelExhausted:
        return False
    return True


def step_count(term) -> int:
    """The least fuel with which `term` runs to a value."""
    hi = 1
    while not _runs(term, hi):
        hi *= 2
    lo = hi // 2  # evaluation fails at lo (or lo is 0)
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if _runs(term, mid):
            hi = mid
        else:
            lo = mid
    return hi


def _load():
    with open(GOLDEN, "r", encoding="utf-8") as handle:
        return json.load(handle)


def test_golden_covers_every_term():
    assert sorted(_load()) == sorted(corpus_keys() + case_keys() + generated_keys())


@pytest.mark.parametrize("key", corpus_keys() + case_keys())
def test_step_count_is_pinned(key):
    steps = _load()[key]
    term = term_of(key)
    evaluate(term, steps)
    with pytest.raises(FuelExhausted):
        evaluate(term, steps - 1)


def test_generated_step_counts_are_pinned():
    golden = _load()
    drifted = []
    for key in generated_keys():
        term = term_of(key)
        if not _runs(term, golden[key]) or _runs(term, golden[key] - 1):
            drifted.append(key)
    assert drifted == []


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        raise SystemExit(__doc__)
    os.makedirs(os.path.dirname(GOLDEN), exist_ok=True)
    with open(GOLDEN, "w", encoding="utf-8") as handle:
        keys = corpus_keys() + case_keys() + generated_keys()
        json.dump({key: step_count(without_loops(term_of(key))) for key in keys}, handle, indent=1, sort_keys=True)
        handle.write("\n")
