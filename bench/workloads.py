"""The benchmark's workloads: their inputs, made from a seed, and the
reference each verdict is checked against.

A verdict is one program taken through ``pipeline.run_pipeline`` with its
report serialised by ``json.dumps`` (as ``loopcert pipeline --json`` does),
or, in ``fuzz``, one program generated by ``gen`` and run through
``fuzz.run_one``.  No reference comes from the code under test: negative
files carry their own ``// expect-exit:``/``// expect-rule:`` headers,
positive corpus files are checked against a hand-written table of stores,
and generated programs against values computed here from their size or
arguments.
"""

from __future__ import annotations

import json
import os
import random
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
FIXTURES = os.path.join(HERE, "fixtures")
EXPECTED_STORES = os.path.join(FIXTURES, "expected_stores.json")

WORKLOADS = ("corpus", "long_seq", "machine", "fuzz")

# long_seq sizes: N and 2N statements.  Both stay far below the roughly
# 20,000-statement depth at which the CLI's recursion limit gives out.
LONG_N = 2000
FUZZ_ROUND = 25  # generated programs per fuzz round
FUZZ_SIZE_BOUND = 30  # the default of `loopcert fuzz`


@dataclass
class Item:
    """One verdict to make: ``run`` does the work that is timed and
    ``check`` compares its result with the reference (None when it agrees)."""

    key: str  # the program; verdicts of one key are repetitions
    run: Callable[[], Any]
    check: Callable[[Any], Optional[str]]
    source_chars: int = 0
    iters: int = 0  # source-loop iterations the machine runs, when known
    family: str = ""  # "is"/"id" for long_seq growth pairs
    size: int = 0


@dataclass
class Workload:
    name: str
    round_items: Callable[[int], List[Item]]  # round index -> items
    warmup: List[Item]
    count_rounds: int = 1  # rounds the count pass covers


# ---------------------------------------------------------------------------
# References
# ---------------------------------------------------------------------------

def phase_payload(report: Dict[str, Any], name: str) -> Dict[str, Any]:
    """The payload of the report's phase `name`, or {} if it did not run."""
    for phase in report["phases"]:
        if phase["name"] == name:
            return phase["payload"]
    return {}


def expect_store(store: Dict[str, str]) -> Callable[[Tuple[str, Dict[str, Any]]], Optional[str]]:
    def check(result: Tuple[str, Dict[str, Any]]) -> Optional[str]:
        report = result[1]
        if report["exit_code"] != 0:
            return f"exit {report['exit_code']}: {report['diagnostics']}"
        got = phase_payload(report, "evaluate").get("store")
        return None if got == store else f"store {got}, expected {store}"

    return check


def expect_value(values: Tuple[int, ...]) -> Callable[[Tuple[str, Dict[str, Any]]], Optional[str]]:
    want = "<" + ", ".join(str(v) for v in values) + ">"

    def check(result: Tuple[str, Dict[str, Any]]) -> Optional[str]:
        report = result[1]
        if report["exit_code"] != 0:
            return f"exit {report['exit_code']}: {report['diagnostics']}"
        got = phase_payload(report, "evaluate").get("value")
        return None if got == want else f"value {got}, expected {want}"

    return check


def expect_rejection(text: str) -> Callable[[Tuple[str, Dict[str, Any]]], Optional[str]]:
    headers = {}
    for line in text.splitlines():
        if line.startswith("// expect-"):
            key, _, value = line[len("// expect-"):].partition(":")
            headers[key.strip()] = value.strip()
    if "exit" not in headers or "rule" not in headers:
        raise ValueError("negative corpus file without expect-exit/expect-rule headers")
    want_exit, want_rule = int(headers["exit"]), headers["rule"]

    def check(result: Tuple[str, Dict[str, Any]]) -> Optional[str]:
        report = result[1]
        rules = [d["rule"] for d in report["diagnostics"] if d["severity"] == "error"]
        if report["exit_code"] != want_exit or rules[:1] != [want_rule]:
            return f"exit {report['exit_code']} rules {rules}, expected exit {want_exit} rule {want_rule}"
        return None

    return check


# ---------------------------------------------------------------------------
# Verdicts
# ---------------------------------------------------------------------------

def pipeline_item(lc, key: str, path: str, text: str, check, args=None, **extra) -> Item:
    run_pipeline = lc.pipeline.run_pipeline

    def run() -> Tuple[str, Dict[str, Any]]:
        report = run_pipeline(path, text=text, args=args).to_dict()
        return json.dumps(report), report

    return Item(key, run, check, source_chars=len(text), **extra)


def fuzz_item(lc, seed: int, index: int) -> Item:
    gen, fuzz = lc.gen, lc.fuzz

    def run() -> Optional[Dict[str, Any]]:
        # seeded exactly as fuzz.fuzz_differential seeds program `index`
        rng = random.Random(f"{seed}:{index}")
        sf, entry, arity = gen.gen_is_program(rng, FUZZ_SIZE_BOUND)
        return fuzz.run_one(sf, entry, gen.gen_inputs(rng, arity))

    def check(failure: Optional[Dict[str, Any]]) -> Optional[str]:
        return None if failure is None else f"fuzz failure: {failure}"

    return Item(f"fuzz.{index}", run, check)


# ---------------------------------------------------------------------------
# Inputs
# ---------------------------------------------------------------------------

def is_chain(n: int) -> str:
    """An IS procedure of n `inc(z);` statements after `z := x`; main ends with z = n."""
    body = "  inc(z);\n" * n
    return (
        "discipline IS;\n\n"
        "cst chain = proc [x : nat] out [z : nat] {\n  z := x;\n" + body + "};\n\n"
        "main {\n  chain(0; z);\n} out [z : nat]\n"
    )


_ID_GROUP = (
    "  z := z :> {i/nat(i)}[add(0, m) = m];\n"
    "  z := z :> {i/nat(i)}[m = add(0, m)];\n"
    "  inc(z);\n"
    "  dec(z);\n"
    "  z := z :> {i/nat(i)}[m = pred(succ(m))];\n"
)


def id_chain(n: int) -> str:
    """An ID procedure of about n statements that keeps z : nat(m) through
    coercions and an inc/dec pair; main ends with z = 2."""
    body = _ID_GROUP * max(1, n // 5)
    return (
        "discipline ID;\n\n"
        "cst chain = proc forall m. [y : nat(m)] out [z : nat(m)] {\n  z := y;\n" + body + "};\n\n"
        "main {\n  chain{2}(2; z);\n} out [z : nat(succ(succ(0)))]\n"
    )


def _read(path: str) -> str:
    with open(path, "r", encoding="utf-8") as handle:
        return handle.read()


def _shuffled_rounds(items: List[Item], seed: int) -> Callable[[int], List[Item]]:
    """Every round runs all items, in an order drawn afresh from the seed.
    A fixed order would make each program always follow the same one, and
    pay that program's garbage-collection debt in every round."""

    def round_items(r: int) -> List[Item]:
        order = list(items)
        random.Random(f"{seed}:{r}").shuffle(order)
        return order

    return round_items


def corpus_workload(lc, root: str, seed: int, expected: Dict[str, Dict[str, str]]) -> Workload:
    """Every corpus file, positive and negative, once per round."""
    corpus = os.path.join(root, "corpus")
    paths = sorted(
        os.path.join(d, f)
        for d in (corpus, os.path.join(corpus, "negative"))
        for f in os.listdir(d)
        if f.endswith(".loop")
    )
    items = []
    for path in paths:
        text = _read(path)
        name = os.path.basename(path)
        if os.path.basename(os.path.dirname(path)) == "negative":
            check = expect_rejection(text)
        elif name in expected:
            check = expect_store(expected[name])
        else:
            raise ValueError(f"no expected store for corpus file {name}")
        items.append(pipeline_item(lc, name, os.path.relpath(path, root), text, check))
    return Workload("corpus", _shuffled_rounds(items, seed), items[:1])


def long_seq_workload(lc, seed: int, n: int = LONG_N) -> Workload:
    """Straight-line IS and ID programs at n and 2n statements."""

    def family(size: int) -> List[Item]:
        return [
            pipeline_item(lc, f"is.{size}", f"is_chain_{size}.loop", is_chain(size),
                          expect_store({"z": str(size)}), family="is", size=size),
            pipeline_item(lc, f"id.{size}", f"id_chain_{size}.loop", id_chain(size),
                          expect_store({"z": "2"}), family="id", size=size),
        ]

    return Workload("long_seq", _shuffled_rounds(family(n) + family(2 * n), seed), family(max(5, n // 40)))


def machine_workload(lc, root: str, seed: int, scale: int = 1) -> Workload:
    """Small programs with large arguments: the machine dominates.  The
    seed shifts the arguments by a few units, keeping the work the same
    to within a fraction of a percent."""
    shift = random.Random(seed).randrange(0, 5)

    def programs(x_add: int, x_mul: int, x_jump: int) -> List[Item]:
        add = (x_add + shift, x_add - shift)
        mul = (x_mul + shift, x_mul - shift)
        jump = x_jump + shift
        specs = [
            ("addition_is", os.path.join("corpus", "addition_is.loop"), add, (add[0] + add[1],), add[0]),
            ("mul_nested", os.path.relpath(os.path.join(FIXTURES, "mul_nested.loop"), root),
             mul, (mul[0] * mul[1],), mul[0] * mul[1]),
            ("jump_loop", os.path.relpath(os.path.join(FIXTURES, "jump_loop.loop"), root),
             (jump,), (jump,), jump),
        ]
        return [
            pipeline_item(lc, key, path, _read(os.path.join(root, path)), expect_value(want),
                          args=args, iters=iters)
            for key, path, args, want, iters in specs
        ]

    items = programs(10000 // scale, 200 // scale, 10000 // scale)
    return Workload("machine", _shuffled_rounds(items, seed), programs(20, 10, 20))


def fuzz_workload(lc, seed: int, round_size: int = FUZZ_ROUND) -> Workload:
    """Round r holds generated programs r*round_size .. (r+1)*round_size - 1."""

    def round_items(r: int) -> List[Item]:
        return [fuzz_item(lc, seed, r * round_size + k) for k in range(round_size)]

    # warm-up on indices no round uses; the count pass covers 800 programs,
    # enough that the seed moves py_calls_per_verdict by only about 2%
    warmup = [fuzz_item(lc, seed, -1 - k) for k in range(5)]
    return Workload("fuzz", round_items, warmup, count_rounds=max(1, 800 // round_size))


def make_workload(name: str, lc, root: str, seed: int, tiny: bool = False,
                  expected_path: str = EXPECTED_STORES) -> Workload:
    """Build workload `name`; `tiny` shrinks sizes for the smoke test."""
    if name == "corpus":
        with open(expected_path, "r", encoding="utf-8") as handle:
            expected = json.load(handle)
        return corpus_workload(lc, root, seed, expected)
    if name == "long_seq":
        return long_seq_workload(lc, seed, n=40 if tiny else LONG_N)
    if name == "machine":
        return machine_workload(lc, root, seed, scale=20 if tiny else 1)
    if name == "fuzz":
        return fuzz_workload(lc, seed, round_size=3 if tiny else FUZZ_ROUND)
    raise ValueError(f"unknown workload {name!r}; choose from {', '.join(WORKLOADS)}")
