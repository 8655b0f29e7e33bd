"""Per-layer measurement from outside the program.

The traced run wraps the public functions of each ``loopcert`` module in
spans (name, start, end, parent, verdict id), kept in flat arrays until
the run ends.  A wrapped function called while a span of the same group
is innermost runs unrecorded, so recursion and a module's calls into its
own public functions collapse into one span: the kernel counts are of
outermost calls only.  A span's self time is its duration minus its
children's, and a layer's self time sums its spans' self times, so the
self times of all layers add up to the traced verdict time.

The count run uses the C-level profiler (``cProfile``) only for its call
counts, which repeat exactly from process to process.
"""

from __future__ import annotations

import cProfile
import os
import time
from array import array
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Tuple

LAYERS = ("parser", "simple", "dependent", "syntax", "envs", "axioms", "printer",
          "pipeline", "runtime", "gen", "fuzz")

ENVS_FUNCTIONS = ("lookup", "require", "lookup_many", "update", "multi_update", "append",
                  "subset", "restrict", "split", "init", "zip_env", "qsplit", "qzip",
                  "belongs", "notin")


def _by_discipline(phase: str) -> Callable[[Tuple[Any, ...]], str]:
    """Span name of a pipeline phase: the `simple` layer checks and
    translates IS files, the `dependent` layer ID files."""
    simple, dependent = f"simple.{phase}", f"dependent.{phase}"
    return lambda args: simple if args[0].discipline == "IS" else dependent


# (module, function, span name or a function of the call's arguments, group)
TARGETS: List[Tuple[str, str, Any, str]] = [
    ("parser", "parse", "parser.parse", "parser"),
    ("parser", "lex", "parser.lex", "parser.lex"),
    ("pipeline", "check_source", _by_discipline("check_source"), "phase"),
    ("pipeline", "translate_file", _by_discipline("translate"), "phase"),
    ("pipeline", "check_target", _by_discipline("check_target"), "phase"),
    # fuzz.run_one reaches the simple layer directly, not through pipeline
    ("simple", "is_check_expr", "simple.check_source", "phase"),
    ("simple", "translate_is_expr", "simple.translate", "phase"),
    ("simple", "fs_check_term", "simple.check_target", "phase"),
    ("syntax", "alpha_eq", "syntax.alpha_eq", "syntax"),
    ("syntax", "subst_ind", "syntax.subst_ind", "syntax"),
    ("syntax", "free_ind_vars", "syntax.free_ind_vars", "syntax"),
    ("axioms", "try_match_axiom", "axioms.match", "axioms"),
    ("axioms", "match_axiom", "axioms.match", "axioms"),
    ("printer", "show", "printer.show", "printer"),
    ("printer", "show_term", "printer.show", "printer"),
    ("printer", "show_env", "printer.show", "printer"),
    ("printer", "show_qenv", "printer.show", "printer"),
    ("printer", "show_file", "printer.show", "printer"),
    ("runtime", "erase", "runtime.erase", "runtime"),
    ("runtime", "evaluate", "runtime.evaluate", "runtime"),
    ("runtime", "interpret_program", "runtime.interpret", "runtime"),
    ("gen", "gen_is_program", "gen.gen", "gen"),
    ("gen", "gen_inputs", "gen.gen", "gen"),
    ("fuzz", "run_one", "fuzz.run_one", "fuzz"),
] + [("envs", fn, "envs", "envs") for fn in ENVS_FUNCTIONS]

ROOT_PIPELINE = "pipeline.verdict"
ROOT_FUZZ = "fuzz.verdict"


class Tracer:
    """Spans in flat arrays; `install` patches every binding of each target
    function in the loopcert modules and `uninstall` restores them."""

    def __init__(self) -> None:
        self.names: List[str] = []
        self._name_ids: Dict[str, int] = {}
        self.name_id = array("l")
        self.parent = array("l")
        self.verdict = array("l")
        self.start = array("d")
        self.end = array("d")
        self.verdicts = 0
        self._stack: List[Tuple[int, str]] = []  # (span index, group)
        self._patches: List[Tuple[Any, str, Any]] = []

    def _open(self, name: str, group: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        index = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1][0] if self._stack else -1)
        self.verdict.append(self.verdicts - 1)
        self._stack.append((index, group))
        self.end.append(0.0)
        self.start.append(time.perf_counter())
        return index

    def _close(self, index: int) -> None:
        self.end[index] = time.perf_counter()
        self._stack.pop()

    def verdict_span(self, root: str, run: Callable[[], Any]) -> Any:
        """Runs one verdict under a root span; verdict ids count from 0."""
        self.verdicts += 1
        index = self._open(root, "root")
        try:
            return run()
        finally:
            self._close(index)

    def _wrap(self, fn: Callable[..., Any], name: Any, group: str) -> Callable[..., Any]:
        stack, open_, close = self._stack, self._open, self._close
        fixed = isinstance(name, str)

        def wrapper(*args: Any, **kwargs: Any) -> Any:
            if stack and stack[-1][1] == group:
                return fn(*args, **kwargs)
            index = open_(name if fixed else name(args), group)
            try:
                return fn(*args, **kwargs)
            finally:
                close(index)

        return wrapper

    def install(self, modules: Dict[str, Any]) -> None:
        for module_name, fn_name, span, group in TARGETS:
            original = getattr(modules[module_name], fn_name)
            wrapper = self._wrap(original, span, group)
            for module in modules.values():
                for attr, value in list(vars(module).items()):
                    if value is original:
                        self._patches.append((module, attr, value))
                        setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        for module, attr, value in reversed(self._patches):
            setattr(module, attr, value)
        self._patches.clear()

    # -- aggregation --------------------------------------------------------

    def summary(self) -> "TraceSummary":
        n = len(self.start)
        dur = [self.end[i] - self.start[i] for i in range(n)]
        child = [0.0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += dur[i]
        summary = TraceSummary(self.verdicts)
        for i in range(n):
            name = self.names[self.name_id[i]]
            layer = name.split(".", 1)[0]
            summary.self_s[layer] = summary.self_s.get(layer, 0.0) + dur[i] - child[i]
            summary.total_s[name] = summary.total_s.get(name, 0.0) + dur[i]
            summary.calls[name] = summary.calls.get(name, 0) + 1
            per_verdict = summary.by_verdict.setdefault(self.verdict[i], {})
            per_verdict[name] = per_verdict.get(name, 0.0) + dur[i]
        return summary


@dataclass
class TraceSummary:
    verdicts: int
    self_s: Dict[str, float] = field(default_factory=dict)  # layer -> self time
    total_s: Dict[str, float] = field(default_factory=dict)  # span name -> time
    calls: Dict[str, int] = field(default_factory=dict)  # span name -> spans
    by_verdict: Dict[int, Dict[str, float]] = field(default_factory=dict)  # verdict -> span name -> time


# ---------------------------------------------------------------------------
# Call counts
# ---------------------------------------------------------------------------

def module_of(filename: str, package_dir: str) -> str:
    """The loopcert module a code object belongs to; dataclass-generated
    methods (file "<string>") are counted with `syntax`, which holds
    nearly all of the package's dataclasses."""
    if filename == "<string>":
        return "syntax"
    directory, base = os.path.split(filename)
    if os.path.abspath(directory) == package_dir and base.endswith(".py"):
        return base[:-3]
    return "other"


class CallCounter:
    """Counts profile-hook call events made while `run` executes."""

    def __init__(self, package_dir: str) -> None:
        self.package_dir = os.path.abspath(package_dir)
        self.profiler = cProfile.Profile()

    def run(self, fn: Callable[[], Any]) -> Any:
        self.profiler.enable()
        try:
            return fn()
        finally:
            self.profiler.disable()

    def counts(self) -> Dict[str, int]:
        """py_calls per module, plus `c_calls` for built-in functions."""
        out: Dict[str, int] = {"c_calls": 0}
        for entry in self.profiler.getstats():
            code = entry.code
            if isinstance(code, str):
                if "_lsprof.Profiler" not in code:
                    out["c_calls"] += entry.callcount
                continue
            module = module_of(code.co_filename, self.package_dir)
            out[module] = out.get(module, 0) + entry.callcount
        return out
