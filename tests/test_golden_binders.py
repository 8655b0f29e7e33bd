"""How binders over individuals compare and print is pinned.

`golden/binders.json` holds two things.

- `alpha`: for generated formulas, props and quantified environments,
  printed as text, whether the parse of that text is alpha-equal to the
  parse of a variant of it.  The variants are made on the tokens: every
  binder and its occurrences renamed apart (`renamed`), every binder and
  its occurrences renamed to `n`, which captures where binders nest
  (`collapsed`), only the binders renamed (`binders_only`), and one leaf
  changed (`mutant`; null when the text has no leaf to change).
- `checks`: the result of `dependent.fd_check_term` on hand-written and
  generated FD terms, and of `pipeline.check_source` on hand-written ID
  files, whose types or messages print a binder that must not capture a
  name of its body: instantiations whose argument clashes with an inner
  binder, `lam n.` over a body whose type has `n` free, packs, `rec`
  motives, coercion families and `<:` instances, and shadowed chains.
  A success is the shown types and the rule trace; a CheckError is its
  rule, reason and message.

A change that is meant to keep what is alpha-equal and how types print
must leave this test passing untouched.  To regenerate the file from the
code on the path, run

    PYTHONPATH=src python tests/test_golden_binders.py --write
"""

import json
import os
import random
import sys

from loopcert import dependent, gen, pipeline
from loopcert import syntax as S
from loopcert.dependent import CheckCtx
from loopcert.errors import CheckError
from loopcert.parser import lex, parse, parse_formula, parse_prop, parse_qenv, parse_term
from loopcert.printer import show

HERE = os.path.dirname(os.path.abspath(__file__))
GOLDEN = os.path.join(HERE, "golden", "binders.json")
ALPHA = 120  # texts of each kind
GENERATED = 300  # generated FD checks

# -- alpha-equality of text pairs ---------------------------------------------

_CLOSERS = {")": "(", ">": "<", "]": "[", "}": "{"}


def _scopes(values):
    """{binder position: [positions of its bound occurrences]} for the
    tokens of a printed type.  A quantifier's scope ends at a comma or a
    closing bracket of its own nesting level, or at the end."""
    bound = {}
    active = []  # (name, binder position, bracket depth)
    depth = 0
    for k, value in enumerate(values):
        if k >= 2 and values[k - 2] in ("forall", "exists") and value == ".":
            continue
        if value in ("(", "<", "[", "{"):
            depth += 1
        elif value in _CLOSERS:
            depth -= 1
            while active and active[-1][2] > depth:
                active.pop()
        elif value == ",":
            while active and active[-1][2] >= depth:
                active.pop()
        elif k >= 1 and values[k - 1] in ("forall", "exists"):
            bound[k] = []
            active.append((value, k, depth))
        elif _is_leaf(values, k) and not value.isdigit():
            for name, at, _ in reversed(active):
                if name == value:
                    bound[at].append(k)
                    break
    return bound


def _is_leaf(values, k):
    """An individual variable or numeral, or a `top` or `bot`."""
    value = values[k]
    if value in ("top", "bot") or value.isdigit():
        return True
    word = value[:1].isalpha() and value.islower() and value.isidentifier()
    return word and value not in _KEYWORDS and values[k + 1] != ":" and values[k - 1] not in ("forall", "exists")


_KEYWORDS = {"forall", "exists", "nat", "top", "bot", "proc", "out", "succ", "pred", "add", "sub", "mult"}


def _variants(text, rng):
    tokens, _ = lex(text)
    values = list(tokens.values[: len(tokens) - 1]) + [""]
    scopes = _scopes(values)

    def renamed(name_of, occurrences=True):
        out = list(values)
        for k, (binder, uses) in enumerate(sorted(scopes.items())):
            out[binder] = name_of(k)
            if occurrences:
                for use in uses:
                    out[use] = name_of(k)
        return " ".join(out)

    leaves = [k for k in range(len(values) - 1) if _is_leaf(values, k)]
    mutant = None
    if leaves:
        k = rng.choice(leaves)
        out = list(values)
        out[k] = {"top": "bot", "bot": "top"}.get(values[k], "q" if values[k].isdigit() else "0")
        mutant = " ".join(out)
    return {
        "renamed": renamed(lambda k: f"b{k}"),
        "collapsed": renamed(lambda k: "n"),
        "binders_only": renamed(lambda k: f"b{k}", occurrences=False),
        "mutant": mutant,
    }


def alpha_results():
    rng = random.Random(1414)
    kinds = (
        ("formula", lambda: gen.gen_formula(rng, 4, vars_=("n",)), parse_formula),
        ("prop", lambda: gen.gen_prop(rng, 3, vars_=("n",)), parse_prop),
        ("qenv", lambda: gen.gen_qenv(rng, 3, vars_=("n",)), parse_qenv),
    )
    out = []
    for kind, make, parse_kind in kinds:
        for _ in range(ALPHA):
            text = show(make())
            base = parse_kind(text)
            row = {"kind": kind, "text": text}
            for mode, variant in _variants(text, rng).items():
                row[mode] = None if variant is None else S.alpha_eq(base, parse_kind(variant))
            out.append(row)
    return out


# -- check results that print renamed binders ----------------------------------

# (sigma, term): sigma is a list of (name, formula text)
FD_CASES = {
    "inst_clash": ([("x", "forall n. forall m. nat(add(n, m))")], "x{m}"),
    "inst_twice": ([("x", "forall n. forall m. nat(add(n, m))")], "x{m}{n}"),
    "inst_clash_exists": ([("x", "forall n. exists m. <nat(add(n, m))>")], "x{m}"),
    "inst_clash_deep": ([("x", "forall n. forall m. forall m_2. nat(add(n, add(m, m_2)))")], "x{m}"),
    "inst_clash_twice": ([("x", "forall n. forall k. forall m. nat(add(n, add(k, m)))")], "x{m}{m}"),
    "inst_clash_arrow": ([("x", "forall n. (forall m. nat(add(n, m))) -> forall m. nat(m)")], "x{succ(m)}"),
    "lam_over_free": ([("z", "nat(n)")], "lam n. z"),
    "lam_over_free_fn": ([("z", "nat(n)")], "lam n. fn y : nat(n) => z"),
    "lam_generalizes_inner": ([("x", "forall k. forall n. nat(add(k, n))")], "lam n. x{n}"),
    "lam_generalizes_clash": ([("x", "forall k. forall n. nat(add(k, n))"), ("z", "nat(n_2)")],
                              "lam n. fn y : nat(n_2) => x{n}"),
    "lam_shadowed_chain": ([("x", "forall a. forall b. nat(add(a, b))")], "lam n. lam n. x{n}"),
    "lam_shadowed_chain_outer": ([("x", "forall a. forall b. nat(add(a, b))")], "lam n. lam m. lam n. x{m}"),
    "lam_chain_inner": ([("x", "forall m. forall n. nat(add(m, n))")], "lam n. lam m. x{n}"),
    "shadowed_annotation": ([], "fn y : forall n. forall n. nat(n) => y"),
    "pack_clash": ([("y", "forall k. nat(add(m, k))")], "pack(m, y : exists n. forall m. nat(add(n, m)))"),
    "pack_clash_wrong": ([("y", "nat(m)")], "pack(m, y : exists n. forall m. nat(add(n, m)))"),
    "pack_under_lam": ([("y", "forall k. nat(add(0, k))")], "lam m. pack(0, y : exists n. forall m. nat(add(n, m)))"),
    "rec_motive_clash": (
        [
            ("b", "nat(m)"),
            ("z", "forall m. nat(add(0, m))"),
            ("s", "forall k. (forall m. nat(add(k, m))) -> forall m. nat(add(succ(k), m))"),
        ],
        "rec{n. forall m. nat(add(n, m))}(b, z, lam k. fn y : nat(k) => fn a : forall m. nat(add(k, m)) => s{k} a)",
    ),
    "rec_motive_base_wrong": (
        [("b", "nat(m)")],
        "rec{n. forall m. nat(add(n, m))}(b, 0, lam k. fn y : nat(k) => fn a : nat(k) => a)",
    ),
    "rec_step_wrong": (
        [("b", "nat(m)"), ("z", "forall m. nat(add(0, m))")],
        "rec{n. forall m. nat(add(n, m))}(b, z, lam m. fn y : nat(m) => fn a : nat(m) => a)",
    ),
    "coerce_clash": (
        [("x", "forall k. nat(add(add(0, n), k))")],
        "x :> {m/forall n. nat(add(m, n))}[n = add(0, n)]",
    ),
    "coerce_clash_wrong": ([("x", "nat(n)")], "x :> {m/forall n. nat(add(m, n))}[n = add(0, n)]"),
    "coerce_under_lam": (
        [("x", "forall k. nat(add(add(0, 0), k))")],
        "lam n. x :> {m/forall n. nat(add(m, n))}[0 = add(0, 0)]",
    ),
    "throw_clash": ([("k", "~(forall m. nat(m))"), ("v", "forall n. nat(n)")], "lam m. throw[forall m. nat(m)] k v"),
}

ID = "discipline ID;\n\n"
ID_CASES = {
    # the type of f{m}, m free: f's inner m is renamed
    "inst_clash_cst": ID + """cst f = proc forall n. forall m. [x : nat(n), y : nat(m)] out [z : nat(n)] {
  z := x;
};

cst g = f{m};
""",
    # the same in a call: the message prints the renamed m
    "inst_clash_call": ID + """cst f = proc forall n. forall m. [x : nat(n), y : nat(m)] out [z : nat(n)] {
  z := x;
};

cst g = proc [x : nat(m)] out [z : nat(m)] {
  f{m}(x, x; z);
};
""",
    # a <: instance whose family's inner binder clashes with the argument
    "cont_inst_clash": ID + """cst f = proc [x : nat(n)] out exists u. exists v. [z : nat(add(u, v))] {
  k : {
    k <: {m/exists n. [nat(add(m, n))]}{n}(x; z);
  } exists m. exists n. [z : nat(add(m, n))];
  ?u. ?v.
  [u in exists u. exists v. [z : nat(add(u, v))]]
  [v in exists v. [z : nat(add(u, v))]]
};
""",
    # a coercion family whose inner binder clashes with the proof's index
    "coerce_family_clash": ID + """cst g = proc [a : nat(0)] out [r : nat(0)] {
  r := a;
};

cst f = proc [x : ~exists k. [nat(add(add(0, n), k))]] out [z : nat(0)] {
  g(x :> {m/~exists n. [nat(add(m, n))]}[n = add(0, n)]; z);
};
""",
    # a witness whose annotation's inner binder clashes with the witness
    "witness_clash": ID + """cst f = proc [x : nat(m)] out exists n. [z : ~exists m. [nat(add(n, m))]] {
  z := x;
  [m in exists n. [z : ~exists m. [nat(add(n, m))]]]
};
""",
    # shadowed chains of quantified headers
    "shadowed_headers": ID + """cst f = proc forall n. forall n. [x : nat(n)] out [z : nat(n)] {
  z := x;
};

cst g = f{0};

cst h = f{n};
""",
}


def _fd_result(sigma, text):
    ctx = CheckCtx(trace=[])
    try:
        env = tuple((name, parse_formula(ty)) for name, ty in sigma)
        ty = dependent.fd_check_term(env, parse_term(text), ctx)
    except CheckError as err:
        return {"rule": err.rule, "reason": err.reason, "message": err.message}
    return {"type": show(ty), "trace": " ".join(ctx.trace)}


def _source_result(text):
    try:
        checked = pipeline.check_source(parse(text))
    except CheckError as err:
        return {"rule": err.rule, "reason": err.reason, "message": err.message}
    return {"types": [[name, show(ty)] for name, ty in checked.cst_types], "trace": " ".join(checked.trace)}


_NAMES = ("n", "m")


def _type_text(rng, depth, scope):
    """A formula over binders and free variables named n and m."""
    roll = rng.random()
    if depth <= 0 or roll < 0.2:
        return f"nat({_ind_text(rng, scope)})"
    if roll < 0.55:
        var = rng.choice(_NAMES)
        quantifier = "forall" if rng.random() < 0.75 else "exists"
        return f"{quantifier} {var}. {_type_text(rng, depth - 1, scope + (var,))}"
    if roll < 0.75:
        return f"<{_type_text(rng, depth - 1, scope)}, {_type_text(rng, depth - 1, scope)}>"
    return f"({_type_text(rng, depth - 1, scope)}) -> {_type_text(rng, depth - 1, scope)}"


def _ind_text(rng, scope):
    pool = scope + _NAMES
    if rng.random() < 0.5:
        return rng.choice(pool)
    return f"add({rng.choice(pool)}, {rng.choice(pool)})"


def _term_text(rng):
    """x instantiated under lam binders, with arguments that clash."""
    lams = tuple(rng.choice(_NAMES) for _ in range(rng.randrange(0, 3)))
    args = "".join("{" + _ind_text(rng, lams) + "}" for _ in range(rng.randrange(1, 3)))
    return "".join(f"lam {v}. " for v in lams) + "x" + args


def check_results():
    out = {}
    for name, (sigma, text) in FD_CASES.items():
        out[f"fd:{name}"] = _fd_result(sigma, text)
    for name, text in ID_CASES.items():
        out[f"id:{name}"] = _source_result(text)
    rng = random.Random(1515)
    for k in range(GENERATED):
        sigma = [("x", _type_text(rng, 4, ()))]
        text = _term_text(rng)
        out[f"gen:{k}"] = {"sigma": sigma[0][1], "term": text, **_fd_result(sigma, text)}
    return out


def renamed_count(checks):
    """How many check results print a renamed binder."""
    return sum("_2" in json.dumps({k: v for k, v in row.items() if k not in ("sigma", "term")})
               for row in checks.values())


# -- the golden file ---------------------------------------------------------

def _load():
    with open(GOLDEN, "r", encoding="utf-8") as handle:
        return json.load(handle)


def _as_json(data):
    return json.loads(json.dumps(data))


def test_alpha_results_are_pinned():
    golden = _load()["alpha"]
    got = _as_json(alpha_results())
    assert len(got) == len(golden) == 3 * ALPHA
    drifted = [(k, golden[k], got[k]) for k in range(len(golden)) if got[k] != golden[k]]
    assert drifted == []


def test_check_results_are_pinned():
    golden = _load()["checks"]
    got = _as_json(check_results())
    assert sorted(got) == sorted(golden)
    drifted = [(key, golden[key], got[key]) for key in sorted(golden) if got[key] != golden[key]]
    assert drifted == []


def test_pinned_results_rename_and_capture():
    data = _load()
    assert renamed_count(data["checks"]) > 0
    modes = {mode: {row[mode] for row in data["alpha"]} for mode in ("renamed", "collapsed", "mutant")}
    assert modes["renamed"] == {True}
    assert modes["collapsed"] == {True, False}
    assert False in modes["mutant"]


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        raise SystemExit(__doc__)
    os.makedirs(os.path.dirname(GOLDEN), exist_ok=True)
    checks = check_results()
    rows = [json.dumps(row, sort_keys=True) for row in alpha_results()]
    rows += [f"{json.dumps(key)}: {json.dumps(checks[key], sort_keys=True)}" for key in sorted(checks)]
    with open(GOLDEN, "w", encoding="utf-8") as handle:
        # one pair or one check a line
        handle.write('{"alpha": [\n' + ",\n".join(rows[: 3 * ALPHA]) + '\n],\n"checks": {\n')
        handle.write(",\n".join(rows[3 * ALPHA:]) + "\n}}\n")
    print(f"{renamed_count(checks)} of {len(checks)} check results print a renamed binder")
