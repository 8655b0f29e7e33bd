"""Differential fuzzing of the simple pipeline.

Generates well-typed jump-free imperative programs, takes each through
the pipeline's check-source, translate and check-target phases, and
compares the direct interpreter against the machine on random inputs.
Failures are shrunk by dropping sequence items and decrementing
numerals.
"""

from __future__ import annotations

import random
from typing import Any, Dict, Iterator, List, Optional, Tuple

from . import gen, pipeline, runtime
from . import syntax as S
from .errors import CheckError, EvalError
from .printer import show_file

FUZZ_FUEL = 1_000_000


def run_one(
    sf: S.SourceFile, entry: str, inputs: List[Tuple[int, ...]], fuel: int = FUZZ_FUEL
) -> Optional[Dict[str, Any]]:
    """Returns a failure description, or None if all properties hold."""
    phase = "check-source"
    try:
        checked = pipeline.check_source(sf)
        phase = "translate"
        image = pipeline.translate_file(sf)
        phase = "check-target"
        pipeline.check_target(sf, checked, image)
    except CheckError as ex:
        return {"phase": phase, "message": str(ex)}
    erased = runtime.erase(pipeline.closed_term(image, entry))
    for iv in inputs:
        try:
            want = runtime.interpret_program(sf.csts, None, entry, iv)
        except EvalError as ex:
            return {"phase": "differential", "message": f"interpreter: {ex}", "inputs": iv}
        applied = runtime.RApp(erased, runtime.RTuple(tuple(runtime.RNum(n) for n in iv)))
        try:
            got = runtime.evaluate(applied, fuel)
        except EvalError as ex:
            return {"phase": "differential", "message": f"machine: {ex}", "inputs": iv}
        if got != want:
            return {
                "phase": "differential",
                "message": f"stores disagree on input {iv}: "
                f"interpreter {runtime.show_value(want)}, machine {runtime.show_value(got)}",
                "inputs": iv,
            }
    return None


# ---------------------------------------------------------------------------
# Shrinking
# ---------------------------------------------------------------------------

def _variants(value: Any) -> Iterator[Any]:
    """One-change simplifications: drop a sequence item or lower a numeral."""
    if isinstance(value, S.Seq):
        items = value.items
        for k, item in enumerate(items):
            if isinstance(item, (S.Command, S.SCst, S.SVar)):
                yield S.Seq(items[:k] + items[k + 1 :], value.span)
            for new_item in _variants(item):
                yield S.Seq(items[:k] + (new_item,) + items[k + 1 :], value.span)
        return
    if isinstance(value, S.ENum) and value.value > 0:
        yield S.ENum(value.value - 1)
    if isinstance(value, S.Node):
        for fname in S.node_fields(value):
            child = getattr(value, fname)
            for new_child in _variants(child):
                yield S._rebuild(value, **{fname: new_child})
        return
    if isinstance(value, tuple):
        for k, item in enumerate(value):
            for new_item in _variants(item):
                yield value[:k] + (new_item,) + value[k + 1 :]


def shrink(
    sf: S.SourceFile, entry: str, inputs: List[Tuple[int, ...]], budget: int = 400
) -> S.SourceFile:
    """Greedily minimize while the program still fails past check-source."""
    current = sf
    spent = 0
    improved = True
    while improved and spent < budget:
        improved = False
        for candidate in _variants(current):
            spent += 1
            if spent >= budget:
                break
            failure = run_one(candidate, entry, inputs)
            if failure is not None and failure["phase"] in ("check-target", "differential"):
                current = candidate
                improved = True
                break
    return current


def fuzz_differential(count: int, seed: int, size_bound: int = 30) -> Dict[str, Any]:
    """The statistics report; deterministic given (count, seed, size_bound)."""
    failures: List[Dict[str, Any]] = []
    for index in range(count):
        rng = random.Random(f"{seed}:{index}")
        sf, entry, arity = gen.gen_is_program(rng, size_bound)
        inputs = gen.gen_inputs(rng, arity)
        failure = run_one(sf, entry, inputs)
        if failure is not None:
            small = shrink(sf, entry, inputs)
            failure = dict(failure)
            failure["index"] = index
            failure["program"] = show_file(sf)
            failure["shrunk"] = show_file(small)
            failures.append(failure)
    return {
        "count": count,
        "seed": seed,
        "size_bound": size_bound,
        "passed": count - len(failures),
        "failures": failures,
    }
