"""The certification pipeline: parse, check the source, translate,
re-check the image, evaluate; with machine-readable reports.

Exit codes: 0 all phases pass; 1 parse error; 2 source type error;
3 translation-target type error (always a defect in the toolchain);
4 runtime discrepancy or evaluation failure; 5 fuzz counterexample.
Input nested too deeply for the host stack gets rule LIMIT and the exit
code of the phase it stopped: 1, 2, 3 (translate and check-target) or 4.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from . import dependent, envs, runtime, simple, translate
from . import syntax as S
from .errors import CheckError, EvalError, LoopcertError, ParseError
from .parser import parse
from .printer import show, show_env, show_qenv, show_term
from .dependent import CheckCtx

EXIT_OK = 0
EXIT_PARSE = 1
EXIT_SOURCE = 2
EXIT_TARGET = 3
EXIT_RUNTIME = 4
EXIT_FUZZ = 5


@dataclass
class Report:
    file: str
    discipline: str = ""
    phases: List[Dict[str, Any]] = field(default_factory=list)
    diagnostics: List[Dict[str, Any]] = field(default_factory=list)
    exit_code: int = EXIT_OK
    image: Optional[S.SourceFile] = None  # the FS/FD translation; not in to_dict

    def phase(self, name: str, ok: bool, elapsed: float, payload: Dict[str, Any]) -> None:
        self.phases.append({"name": name, "ok": ok, "elapsed_s": round(elapsed, 6), "payload": payload})

    def diag(self, rule: str, span, message: str, severity: str = "error") -> None:
        self.diagnostics.append(
            {
                "severity": severity,
                "rule": rule,
                "span": list(span) if span else None,
                "message": message,
            }
        )

    def to_dict(self) -> Dict[str, Any]:
        return {
            "file": self.file,
            "discipline": self.discipline,
            "phases": self.phases,
            "diagnostics": self.diagnostics,
            "exit_code": self.exit_code,
        }


@dataclass
class CheckedFile:
    sf: S.SourceFile
    cst_types: Tuple[Tuple[str, Any], ...]  # Prop (I) or Formula (F)
    trace: List[str]
    warnings: Tuple[str, ...] = ()


# The constant checker of each discipline: (constants, value, ctx) -> type.
_CST_CHECKERS = {
    "IS": lambda gamma, e, ctx: simple.is_check_expr(gamma, (), e, ctx),
    "ID": lambda gamma, e, ctx: dependent.id_check_expr(gamma, (), e, ctx),
    "FS": lambda gamma, t, ctx: simple.fs_check_term(gamma, t, ctx),
    "FD": lambda gamma, t, ctx: dependent.fd_check_term(gamma, t, ctx),
}


def check_source(
    sf: S.SourceFile, trace: Optional[List[str]] = None, allow_pred: bool = True
) -> CheckedFile:
    """Check every cst and the main sequence of a file, any discipline.
    allow_pred turns the optional TC_PRED_D rule of FD checking on or off."""
    ctx = CheckCtx(trace=trace if trace is not None else [], allow_pred=allow_pred)
    check = _CST_CHECKERS.get(sf.discipline)
    if check is None:
        raise LoopcertError(f"unknown discipline {sf.discipline}")
    gamma: S.Env = ()
    for name, value in sf.csts:
        gamma = gamma + ((name, check(gamma, value, ctx)),)
    types = gamma
    main = sf.main
    if main is not None and sf.discipline == "IS":
        if not isinstance(main.out, S.QSimple):
            raise CheckError("T_PROC", "IS main cannot declare an existential output", span=main.span)
        out_env = main.out.env
        names, _ = envs.split(out_env)
        dependent.check_header_idents((), names, "T_PROC", main.span)
        final = simple.is_check_seq(gamma, envs.init(names, S.PTop()), main.body, ctx)
        if not S.alpha_env(final, out_env):
            raise CheckError(
                "T_PROC",
                f"main ends with store {show_env(final)}, declared out is {show_env(out_env)}",
                span=main.span,
                reason="OutputMismatch",
            )
    elif main is not None and sf.discipline == "ID":
        names, _ = envs.qsplit(main.out)
        dependent.check_header_idents((), names, "T_PROC_DECL", main.span)
        dependent.id_check_seq(gamma, envs.init(names, S.PTop()), main.body, main.out, ctx)
    elif main is not None:
        types = gamma + (("main", check(gamma, main.term, ctx)),)
    return CheckedFile(sf, types, ctx.trace or [], tuple(ctx.warnings))


def translate_file(sf: S.SourceFile) -> S.SourceFile:
    """Translate a checked imperative file into its FS/FD image."""
    target = {"IS": "FS", "ID": "FD"}.get(sf.discipline)
    if target is None:
        raise LoopcertError(f"{sf.discipline} files are already functional; nothing to translate")
    tctx = translate.TranslateCtx(target)
    terms = tuple((name, translate.translate_expr(e, tctx)) for name, e in sf.csts)
    main = None
    if sf.main is not None:
        names, _ = envs.qsplit(sf.main.out)
        main = S.MainF(translate.translate_seq(sf.main.body, names, tctx))
    return S.SourceFile(target, terms, main)


def check_target(
    sf: S.SourceFile,
    checked: CheckedFile,
    image: S.SourceFile,
    trace: Optional[List[str]] = None,
    allow_pred: bool = True,
) -> Tuple[Tuple[str, S.Formula], ...]:
    """Re-check the translation and verify type preservation."""
    ctx = CheckCtx(trace=trace if trace is not None else [], allow_pred=allow_pred)
    functional_check = simple.fs_check_term if sf.discipline == "IS" else dependent.fd_check_term
    sigma: S.Env = ()
    result: List[Tuple[str, S.Formula]] = []
    for (name, term), (_, source_ty) in zip(image.csts, checked.cst_types):
        fty = functional_check(sigma, term, ctx)
        want = translate.translate_type(source_ty)
        if not S.alpha_eq(fty, want):
            raise CheckError(
                "TYPE_PRESERVATION",
                f"'{name}' translates at {show(fty)}, the source type maps to {show(want)}",
            )
        sigma = sigma + ((name, fty),)
        result.append((name, fty))
    if image.main is not None:
        fty = functional_check(sigma, image.main.term, ctx)
        _, want = translate.translate_qenv(sf.main.out)
        if not S.alpha_eq(fty, want):
            raise CheckError(
                "TYPE_PRESERVATION",
                f"main translates at {show(fty)}, the declared output maps to {show(want)}",
            )
        result.append(("main", fty))
    return tuple(result)


def closed_term(image: S.SourceFile, entry: Optional[str]) -> S.Term:
    """The image's main term, or the constant `entry`, under let-bindings
    of every constant of the image."""
    if entry is not None:
        body: S.Term = S.TVar(entry)
    elif image.main is not None:
        body = image.main.term
    else:
        raise EvalError("NoMain", "the file has no main sequence and no entry was chosen")
    for name, term in reversed(image.csts):
        body = S.TLet(name, term, body)
    return body


def _entry(sf: S.SourceFile, types: Tuple[Tuple[str, S.Formula], ...], args: Tuple[int, ...]) -> str:
    """The constant that --args apply to: the last one, whose functional
    type must be, under any foralls, a function of len(args) naturals."""
    given = f"--args gives {len(args)} argument{'' if len(args) == 1 else 's'}"
    if not sf.csts:
        raise EvalError("ArgsMismatch", f"{given}, but the file has no constant to apply them to")
    entry = sf.csts[-1][0]
    ty = types[len(sf.csts) - 1][1]
    while isinstance(ty, S.FForall):
        ty = ty.body
    params = ty.dom.items if isinstance(ty, S.FArrow) and isinstance(ty.dom, S.FTuple) else None
    if params is None or not all(isinstance(p, S.FNat) for p in params):
        raise EvalError(
            "ArgsMismatch", f"{given}, but entry '{entry}' is not a procedure over naturals: {show(ty)}"
        )
    if len(params) != len(args):
        raise EvalError("ArgsMismatch", f"{given}, but entry '{entry}' takes {len(params)}: {show(ty)}")
    return entry


def evaluate_file(
    sf: S.SourceFile,
    image: S.SourceFile,
    types: Tuple[Tuple[str, S.Formula], ...],
    args: Optional[Tuple[int, ...]],
    fuel: int,
) -> Dict[str, Any]:
    """Erase and run; for jump-free IS input the direct interpreter must
    agree with the machine on the final store.  types are the functional
    types of the image's constants; with args, the entry is checked
    against its type before anything runs."""
    entry = _entry(sf, types, args) if args is not None else None
    erased = runtime.erase(closed_term(image, entry))
    if args is not None:
        erased = runtime.RApp(erased, runtime.RTuple(tuple(runtime.RNum(n) for n in args)))
    value = runtime.evaluate(erased, fuel)
    payload: Dict[str, Any] = {"value": runtime.show_value(value)}
    if entry is None and sf.discipline in ("IS", "ID") and sf.main is not None:
        names, _ = envs.qsplit(sf.main.out)
        if isinstance(value, tuple) and len(value) == len(names):
            payload["store"] = {x: runtime.show_value(v) for x, v in zip(names, value)}
    if sf.discipline == "IS":
        oracle = runtime.interpret_program(sf.csts, sf.main, entry, args or ())
        payload["interpreter"] = runtime.show_value(oracle)
        if oracle != value:
            raise EvalError(
                "Discrepancy",
                f"interpreter yields {runtime.show_value(oracle)}, machine yields {runtime.show_value(value)}",
            )
    return payload


def run_pipeline(
    path: str,
    text: Optional[str] = None,
    system: Optional[str] = None,
    args: Optional[Tuple[int, ...]] = None,
    fuel: int = runtime.DEFAULT_FUEL,
    want_trace: bool = False,
    stop_after: str = "evaluate",
    allow_pred: bool = True,
) -> Report:
    """Take a file through the phases.  Every failure ends in a report: a
    phase that runs out of host stack on deeply nested input reports rule
    LIMIT with that phase's exit code."""
    report = Report(file=path)
    if text is None:
        with open(path, "r", encoding="utf-8") as handle:
            text = handle.read()

    start = time.monotonic()
    try:
        sf = parse(text)
    except ParseError as ex:
        report.phase("parse", False, time.monotonic() - start, {})
        report.diag("PARSE", (ex.line, ex.col), str(ex))
        report.exit_code = EXIT_PARSE
        return report
    except RecursionError:
        return _hit_limit(report, "parse", start, EXIT_PARSE)
    if system is not None:
        sf = S.SourceFile(system, sf.csts, sf.main, sf.notes, sf.warnings)
    report.discipline = sf.discipline
    for note in sf.notes:
        report.diag("NOTE", None, note, severity="note")
    for warning in sf.warnings:
        report.diag("PARSE", None, warning, severity="warning")
    report.phase(
        "parse", True, time.monotonic() - start,
        {"csts": [name for name, _ in sf.csts], "has_main": sf.main is not None},
    )

    start = time.monotonic()
    trace: List[str] = []
    try:
        checked = check_source(sf, trace, allow_pred)
        payload = {
            "types": {name: show(ty) for name, ty in checked.cst_types},
            "derivation_size": len(trace),
        }
        if sf.main is not None and sf.discipline in ("IS", "ID"):
            payload["main_out"] = show_qenv(sf.main.out)
    except CheckError as ex:
        report.phase("check-source", False, time.monotonic() - start, {})
        report.diag(ex.rule, ex.span, ex.message)
        report.exit_code = EXIT_SOURCE
        return report
    except RecursionError:
        return _hit_limit(report, "check-source", start, EXIT_SOURCE)
    for warning in checked.warnings:
        report.diag("CHECK", None, warning, severity="warning")
    if want_trace:
        payload["trace"] = list(trace)
    report.phase("check-source", True, time.monotonic() - start, payload)
    if stop_after == "check-source":
        return report

    if sf.discipline in ("FS", "FD"):  # the file is its own image
        if stop_after == "translate":
            report.phase("translate", False, 0.0, {})
            report.diag(
                "TRANSLATE", None, f"{sf.discipline} files are already functional; nothing to translate"
            )
            report.exit_code = EXIT_SOURCE
        elif sf.main is not None or args is not None:
            _run_eval_phase(report, sf, sf, checked.cst_types, args, fuel)
        return report

    start = time.monotonic()
    try:
        image = translate_file(sf)
        payload = {"terms": {name: len(show_term(t)) for name, t in image.csts}}
    except LoopcertError as ex:
        report.phase("translate", False, time.monotonic() - start, {})
        report.diag("TRANSLATE", None, str(ex))
        report.exit_code = EXIT_TARGET
        return report
    except RecursionError:
        return _hit_limit(report, "translate", start, EXIT_TARGET)
    report.phase("translate", True, time.monotonic() - start, payload)
    report.image = image
    if stop_after == "translate":
        return report

    start = time.monotonic()
    trace2: List[str] = []
    try:
        target_types = check_target(sf, checked, image, trace2, allow_pred)
        payload = {
            "types": {name: show(ty) for name, ty in target_types},
            "derivation_size": len(trace2),
        }
    except CheckError as ex:
        report.phase("check-target", False, time.monotonic() - start, {})
        report.diag(ex.rule, ex.span, ex.message)
        report.exit_code = EXIT_TARGET
        return report
    except RecursionError:
        return _hit_limit(report, "check-target", start, EXIT_TARGET)
    if want_trace:
        payload["trace"] = list(trace2)
    report.phase("check-target", True, time.monotonic() - start, payload)

    if sf.main is not None or args is not None:
        _run_eval_phase(report, sf, image, target_types, args, fuel)
    return report


def _hit_limit(report: Report, phase: str, start: float, exit_code: int) -> Report:
    """Rule LIMIT: the phase ran out of host stack on deeply nested input."""
    report.phase(phase, False, time.monotonic() - start, {})
    report.diag("LIMIT", None, f"the input nests too deeply for {phase}: the host recursion limit was reached")
    report.exit_code = exit_code
    return report


def _run_eval_phase(
    report: Report,
    sf: S.SourceFile,
    image: S.SourceFile,
    types: Tuple[Tuple[str, S.Formula], ...],
    args: Optional[Tuple[int, ...]],
    fuel: int,
) -> None:
    start = time.monotonic()
    try:
        payload = evaluate_file(sf, image, types, args, fuel)
    except (EvalError, LoopcertError) as ex:
        report.phase("evaluate", False, time.monotonic() - start, {})
        report.diag("EVAL", None, str(ex))
        report.exit_code = EXIT_RUNTIME
        return
    except RecursionError:
        _hit_limit(report, "evaluate", start, EXIT_RUNTIME)
        return
    report.phase("evaluate", True, time.monotonic() - start, payload)
