"""What IS checking of a source file gives is pinned.

`golden/is_checks.json` holds the result of `pipeline.check_source` on
each of these, checked as IS:

- every corpus and negative file: an IS file as written, and an ID file
  forced to IS, as `--system IS` does (so every refusal of a form that
  is not simple is reached);
- `EXTRA`, a few hand-written IS files for the rules and messages that
  nothing else here reaches;
- 300 programs of `gen.gen_is_program`, printed and parsed back so that
  their nodes carry spans;
- one mutant of each of those, with one statement deleted or the type of
  one store, parameter or frame binding changed.

A success is the constants' shown types, the rule trace joined by spaces
and the warnings; a CheckError is its rule, reason, span and message; a
ParseError is its message.  A change that is meant to keep what IS
checking accepts and rejects, and how it says so, must leave this test
passing untouched.  To regenerate the file from the code on the path,
run

    PYTHONPATH=src python tests/test_golden_is_checks.py --write
"""

import dataclasses
import glob
import json
import os
import random
import sys

from loopcert import gen, pipeline
from loopcert import syntax as S
from loopcert.errors import CheckError, ParseError
from loopcert.parser import parse
from loopcert.printer import show, show_file

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
GOLDEN = os.path.join(HERE, "golden", "is_checks.json")
PROGRAMS = 300


# The IS rules that neither the corpus nor the mutants reach, one file each.
_HEAD = "discipline IS;\n"
EXTRA = {
    "shadowing_cst": _HEAD + "main { z := 0; cst z = 1; } out [z : nat]",
    "shadowing_var": _HEAD + "main { z := 0; var z := 1; } out [z : nat]",
    "locals_dropped": _HEAD + "main { var y := 0; z := y; var w := *; w := 1; } out [z : nat]",
    "store_wins": _HEAD + "cst z = *;\nmain { z := 0; z := z; } out [z : nat]",
    "main_mismatch": _HEAD + "main { z := *; } out [z : nat]",
    "main_indexed_out": _HEAD + "main { z := 0; } out [z : nat(0)]",
    "main_duplicate_out": _HEAD + "main { z := 0; } out [z : nat, z : nat]",
    "existential_block": _HEAD + "main { z := 0; { } exists n. [z : nat(n)]; } out [z : nat]",
    "block_retypes": _HEAD + "main { z := 0; y := *; { y := 0; }[y : top]; } out [z : nat, y : nat]",
    "indexed_loop": _HEAD + "main { z := 0; for i : nat(i) := 0 until 1 { }[z : nat]; } out [z : nat]",
    "loop_bound_unit": _HEAD + "main { z := 0; for i := 0 until * { }[z : nat]; } out [z : nat]",
    "nested_frame": _HEAD
    + "main { z := 0; for i := 0 until 1 { for j := 0 until 1 { z := *; }[z : nat]; }[z : nat]; } out [z : nat]",
    "call_non_proc": _HEAD + "cst c = 0;\nmain { c(; z); } out [z : nat]",
    "call_arity": _HEAD + "cst c = proc [x : nat] out [z : nat] { z := x; };\nmain { c(; z); } out [z : nat]",
    "call_outs": _HEAD + "cst c = proc [x : nat] out [z : nat] { z := x; };\nmain { c(0; z, z); } out [z : nat]",
    "call_out_count": _HEAD + "cst c = proc [x : nat] out [z : nat] { z := x; };\nmain { y := 0; c(0; z, y); } out [z : nat, y : nat]",
    "call_arg_type": _HEAD + "cst c = proc [x : nat] out [z : nat] { z := x; };\nmain { c(*; z); } out [z : nat]",
    "call_proc_arg": _HEAD
    + "cst id = proc [x : nat] out [z : nat] { z := x; };\n"
    + "cst ap = proc [f : proc ([nat] out [nat]), x : nat] out [z : nat] { f(x; z); };\n"
    + "main { ap(id, 2; z); } out [z : nat]",
    "duplicate_params": _HEAD + "cst c = proc [x : nat, x : nat] out [z : nat] { z := x; };",
    "param_is_output": _HEAD + "cst c = proc [z : nat] out [z : nat] { };",
    "unit_param": _HEAD + "cst c = proc [x : top] out [z : top] { z := x; };",
    "witness_item": _HEAD + "main { z := 0; [0 in exists n. [z : nat(n)]] } out [z : nat]",
    "axiom_expr": _HEAD + "main { z := add(0, 0) = 0; } out [z : top]",
    "inc_unit": _HEAD + "main { z := *; inc(z); } out [z : top]",
    "dec": _HEAD + "main { z := 2; dec(z); } out [z : nat]",
}


def check_as_is(sf):
    sf = S.SourceFile("IS", sf.csts, sf.main, sf.notes, sf.warnings)
    try:
        checked = pipeline.check_source(sf, [])
    except CheckError as err:
        span = list(err.span) if err.span else None
        return {"rule": err.rule, "reason": err.reason, "span": span, "message": err.message}
    return {
        "types": [[name, show(ty)] for name, ty in checked.cst_types],
        "trace": " ".join(checked.trace),
        "warnings": list(checked.warnings),
    }


def record(text):
    try:
        sf = parse(text)
    except ParseError as err:
        return {"parse_error": str(err)}
    return check_as_is(sf)


class _Mutator:
    """Rebuilds a file with its site number `target` changed.  The sites,
    in preorder, are every item of every sequence (deleted) and every
    binding type of an environment (nat and unit swapped, anything else
    made nat).  With a target of -1 it only counts the sites."""

    def __init__(self, target):
        self.target = target
        self.sites = 0

    def _hit(self):
        self.sites += 1
        return self.sites - 1 == self.target

    def walk(self, x):
        if isinstance(x, S.Seq):
            items = tuple(self.walk(item) for item in x.items if not self._hit())
            return dataclasses.replace(x, items=items)
        if isinstance(x, tuple):
            if len(x) == 2 and isinstance(x[0], str) and isinstance(x[1], (S.Prop, S.Formula)):
                name, ty = x
                if self._hit():
                    return (name, S.FTop() if isinstance(ty, S.FNat) else S.FNat(None))
                return (name, self.walk(ty))
            return tuple(self.walk(y) for y in x)
        if isinstance(x, S.Node):
            changes = {f.name: self.walk(getattr(x, f.name)) for f in dataclasses.fields(x) if f.name != "span"}
            return dataclasses.replace(x, **changes)
        return x


def mutant(sf, rng):
    counter = _Mutator(-1)
    counter.walk(sf)
    return _Mutator(rng.randrange(counter.sites)).walk(sf)


def results():
    out = {}
    paths = sorted(glob.glob(os.path.join(ROOT, "corpus", "*.loop")))
    paths += sorted(glob.glob(os.path.join(ROOT, "corpus", "negative", "*.loop")))
    for path in paths:
        rel = os.path.relpath(path, ROOT).replace(os.sep, "/")
        with open(path, "r", encoding="utf-8") as handle:
            out[rel] = record(handle.read())
    for name, text in EXTRA.items():
        out[f"extra:{name}"] = record(text)
    for k in range(PROGRAMS):
        sf, _, _ = gen.gen_is_program(random.Random(f"is_check:{k}"), 30)
        parsed = parse(show_file(sf))
        out[f"gen:{k}"] = check_as_is(parsed)
        out[f"mutant:{k}"] = check_as_is(mutant(parsed, random.Random(f"is_mutant:{k}")))
    return out


def _load():
    with open(GOLDEN, "r", encoding="utf-8") as handle:
        return json.load(handle)


def test_is_checks_are_pinned():
    golden = _load()
    got = json.loads(json.dumps(results()))
    assert sorted(got) == sorted(golden)
    drifted = [(key, golden[key], got[key]) for key in golden if got[key] != golden[key]]
    assert drifted == []


def test_the_pinned_cases_pass_and_fail():
    """The generated programs are well typed, and the mutants and files
    fail in more than a few ways."""
    golden = _load()
    assert all("trace" in golden[f"gen:{k}"] for k in range(PROGRAMS))
    failures = [value for value in golden.values() if "rule" in value]
    assert len({(value["rule"], value["reason"]) for value in failures}) >= 10


def write(data):
    os.makedirs(os.path.dirname(GOLDEN), exist_ok=True)
    rows = [f"{json.dumps(key)}: {json.dumps(value, sort_keys=True)}" for key, value in data.items()]
    with open(GOLDEN, "w", encoding="utf-8") as handle:
        # one case a line
        handle.write("{\n" + ",\n".join(rows) + "\n}\n")


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        raise SystemExit(__doc__)
    write(results())
