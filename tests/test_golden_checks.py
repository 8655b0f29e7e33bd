"""The results of both functional checkers are pinned.

`golden/checks.json` holds, for 3,000 generated term and type pairs
(drawn as in `test_robustness.py`), the FS result, the FD result and the
FD result with the optional pred rule off; and the FS result for every
constant of the 300 generated IS programs whose images
`test_golden_images.py` pins.  A success is the shown type and the rule
trace, joined by spaces; a failure is `[rule, reason]`.  Messages are
not pinned.  A change that is meant to keep what the checkers accept
and reject (a refactor) must leave this test passing untouched.  To
regenerate the file from the code on the path, run

    PYTHONPATH=src python tests/test_golden_checks.py --write
"""

import json
import os
import random
import sys

from loopcert import dependent, gen, pipeline
from loopcert.dependent import CheckCtx
from loopcert.errors import CheckError
from loopcert.printer import show

HERE = os.path.dirname(os.path.abspath(__file__))
GOLDEN = os.path.join(HERE, "golden", "checks.json")
PAIRS = 3000
IMAGES = 300


def _checked(check, sigma, term, **options):
    """(type or None, pinned result)"""
    ctx = CheckCtx(trace=[], **options)
    try:
        ty = check(sigma, term, ctx)
    except CheckError as err:
        return None, [err.rule, err.reason]
    return ty, {"type": show(ty), "trace": " ".join(ctx.trace)}


def term_results():
    rng = random.Random(404)
    out = []
    for _ in range(PAIRS):
        t = gen.gen_term(rng, 4, vars_=("x",), ivars=("n",))
        sigma = (("x", gen.gen_formula(rng, 2, vars_=("n",))),)
        out.append(
            {
                "FS": _checked(dependent.fs_check_term, sigma, t)[1],
                "FD": _checked(dependent.fd_check_term, sigma, t)[1],
                "FD_no_pred": _checked(dependent.fd_check_term, sigma, t, allow_pred=False)[1],
            }
        )
    return out


def image_results():
    """image:k -> [[constant, FS result], ...], each constant checked
    under the types of the constants before it, as check_target does."""
    out = {}
    for k in range(IMAGES):
        sf, _, _ = gen.gen_is_program(random.Random(f"image:{k}"), 30)
        sigma = ()
        rows = []
        for name, term in pipeline.translate_file(sf).csts:
            ty, result = _checked(dependent.fs_check_term, sigma, term)
            rows.append([name, result])
            if ty is not None:
                sigma = sigma + ((name, ty),)
        out[f"image:{k}"] = rows
    return out


def _load():
    with open(GOLDEN, "r", encoding="utf-8") as handle:
        return json.load(handle)


def _as_json(data):
    return json.loads(json.dumps(data))


def test_term_results_are_pinned():
    golden = _load()["terms"]
    got = _as_json(term_results())
    assert len(got) == len(golden) == PAIRS
    drifted = [(k, golden[k], got[k]) for k in range(PAIRS) if got[k] != golden[k]]
    assert drifted == []


def test_image_results_are_pinned():
    golden = _load()["images"]
    got = _as_json(image_results())
    assert sorted(got) == sorted(golden)
    drifted = [(key, golden[key], got[key]) for key in sorted(golden) if got[key] != golden[key]]
    assert drifted == []


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        raise SystemExit(__doc__)
    os.makedirs(os.path.dirname(GOLDEN), exist_ok=True)
    images = image_results()
    rows = [json.dumps(row, sort_keys=True) for row in term_results()]
    rows += [f"{json.dumps(key)}: {json.dumps(images[key])}" for key in sorted(images)]
    with open(GOLDEN, "w", encoding="utf-8") as handle:
        # one pair or one image a line
        handle.write('{"terms": [\n' + ",\n".join(rows[:PAIRS]) + '\n],\n"images": {\n')
        handle.write(",\n".join(rows[PAIRS:]) + "\n}}\n")
