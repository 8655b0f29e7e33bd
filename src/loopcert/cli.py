"""Command-line driver.

Subcommands: check, translate, pipeline (alias eval), fuzz, fmt.
Reports are human-readable by default; --json emits one report object
per run on standard output.  LOOPCERT_CORPUS points `pipeline --all` at
the corpus directory.
"""

from __future__ import annotations

import argparse
import glob
import json
import os
import sys
from typing import List, Optional, Tuple

from . import fuzz, pipeline, runtime
from .parser import parse
from .printer import show_file


def _parse_args_list(text: Optional[str]) -> Optional[Tuple[int, ...]]:
    if text is None:
        return None
    if text.strip() == "":
        return ()  # the empty vector, which applies a zero-parameter entry
    parts = [part.strip() for part in text.split(",")]  # an empty item is no natural
    if not all(part.isdecimal() for part in parts):
        raise SystemExit(f"--args expects a comma-separated list of naturals, got {text!r}")
    try:
        return tuple(int(part) for part in parts)
    except ValueError:  # longer than sys.get_int_max_str_digits()
        raise SystemExit(f"--args: a natural of {max(map(len, parts))} digits is too long") from None


def _natural(flag: str, value: int) -> int:
    if value < 0:
        raise SystemExit(f"{flag} expects a natural, got {value}")
    return value


def _print_report(report: pipeline.Report, as_json: bool) -> None:
    if as_json:
        print(json.dumps(report.to_dict(), indent=2, sort_keys=True))
        return
    print(f"{report.file} [{report.discipline or '?'}]")
    for phase in report.phases:
        mark = "ok" if phase["ok"] else "FAIL"
        line = f"  {phase['name']:13s} {mark:4s} ({phase['elapsed_s']:.3f}s)"
        payload = phase["payload"]
        if "types" in payload:
            for name, ty in payload["types"].items():
                line += f"\n      {name} : {ty}"
        if "value" in payload:
            line += f"\n      value = {payload['value']}"
        if "store" in payload:
            pairs = ", ".join(f"{k} = {v}" for k, v in payload["store"].items())
            line += f"\n      store: {pairs}"
        print(line)
    for diag in report.diagnostics:
        span = f"{diag['span'][0]}:{diag['span'][1]} " if diag["span"] else ""
        print(f"  {diag['severity']}: {span}[{diag['rule']}] {diag['message']}")
    print(f"  exit {report.exit_code}")


def _write(path: str, text: str) -> str:
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(text)
    return path


def _corpus_files(paths: List[str], use_all: bool) -> List[str]:
    if not use_all:
        return paths
    if paths:
        raise SystemExit("--all runs every corpus file; give it no files")
    root = os.environ.get("LOOPCERT_CORPUS", "corpus")
    found = sorted(glob.glob(os.path.join(root, "*.loop")))
    if not found:
        raise SystemExit(f"no .loop files under {root!r} (set LOOPCERT_CORPUS)")
    return found


def main(argv: Optional[List[str]] = None) -> int:
    sys.setrecursionlimit(20000)  # the phases recurse once per level of nesting
    ap = argparse.ArgumentParser(prog="loopcert", description=__doc__)
    sub = ap.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser) -> None:
        p.add_argument("files", nargs="*", help=".loop or .t files")
        p.add_argument("--system", choices=["IS", "ID", "FS", "FD"], help="override the file directive")
        p.add_argument("--json", action="store_true")
        p.add_argument("--trace", action="store_true", help="dump derivation rule labels")
        p.add_argument("--no-pred-rule", action="store_true", help="disable the optional TC_PRED_D pred rule")

    p_check = sub.add_parser("check", help="parse and type-check the source")
    common(p_check)
    p_tr = sub.add_parser("translate", help="translate and write the functional image")
    common(p_tr)
    p_tr.add_argument("-o", "--output", help="output path (default: input with .t suffix)")
    p_pipe = sub.add_parser("pipeline", aliases=["eval"], help="the whole certification pipeline")
    common(p_pipe)
    p_pipe.add_argument("--args", help="comma-separated naturals applied to the last cst")
    p_pipe.add_argument("--fuel", type=int, default=runtime.DEFAULT_FUEL)
    p_pipe.add_argument("--all", action="store_true", help="run every corpus file")
    p_fuzz = sub.add_parser("fuzz", help="differential testing of the pipeline on generated IS programs")
    p_fuzz.add_argument("--count", type=int, default=200)
    p_fuzz.add_argument("--seed", type=int, default=42)
    p_fuzz.add_argument("--size-bound", type=int, default=30)
    p_fuzz.add_argument("--json", action="store_true")
    p_fmt = sub.add_parser("fmt", help="parse and pretty-print")
    p_fmt.add_argument("files", nargs="+")

    ns = ap.parse_args(argv)

    if ns.command == "fuzz":
        report = fuzz.fuzz_differential(
            _natural("--count", ns.count), ns.seed, _natural("--size-bound", ns.size_bound)
        )
        if ns.json:
            print(json.dumps(report, indent=2, sort_keys=True))
        else:
            print(f"fuzz: {report['passed']}/{report['count']} passed (seed {report['seed']})")
            for failure in report["failures"]:
                print(f"  FAIL #{failure['index']} [{failure['phase']}] {failure['message']}")
                print("  shrunk counterexample:")
                for line in failure["shrunk"].splitlines():
                    print(f"    {line}")
        return pipeline.EXIT_FUZZ if report["failures"] else pipeline.EXIT_OK

    if ns.command == "fmt":
        for path in ns.files:
            try:
                sys.stdout.write(show_file(parse(pipeline.read_source(path))))
            except pipeline.PHASE_ERRORS as ex:  # a parse error, out of host stack, or a file that cannot be read
                rule, _, message, _ = pipeline.diagnose("fmt", ex)
                print(f"[{rule}] {message}", file=sys.stderr)
                return pipeline.EXIT_PARSE
        return pipeline.EXIT_OK

    allow_pred = not ns.no_pred_rule
    fuel = _natural("--fuel", getattr(ns, "fuel", runtime.DEFAULT_FUEL))
    files = _corpus_files(list(ns.files), getattr(ns, "all", False))
    if not files:
        raise SystemExit("no input files")
    if getattr(ns, "output", None) is not None and len(files) > 1:
        raise SystemExit(f"-o names one output file, but {len(files)} input files were given")
    worst = pipeline.EXIT_OK
    for path in files:
        if ns.command == "check":
            report = pipeline.run_pipeline(
                path, system=ns.system, want_trace=ns.trace, stop_after="check-source",
                allow_pred=allow_pred,
            )
        elif ns.command == "translate":
            report = pipeline.run_pipeline(
                path, system=ns.system, want_trace=ns.trace, stop_after="translate",
                allow_pred=allow_pred,
            )
            if report.exit_code == pipeline.EXIT_OK:
                out_path = ns.output or os.path.splitext(path)[0] + ".t"
                report.run_phase(
                    "write", pipeline.EXIT_TARGET, lambda: _write(out_path, show_file(report.image)),
                    lambda out: {"output": out},
                )
        else:  # pipeline, or its alias eval
            report = pipeline.run_pipeline(
                path,
                system=ns.system,
                args=_parse_args_list(ns.args),
                fuel=fuel,
                want_trace=ns.trace,
                allow_pred=allow_pred,
            )
        _print_report(report, ns.json)
        worst = worst or report.exit_code
    return worst


if __name__ == "__main__":
    sys.exit(main())
