"""The certification pipeline: parse, check the source, translate,
re-check the image, evaluate; with machine-readable reports.

`run_pipeline` takes every phase through one runner, which times it,
records its payload, and maps what it raised to one diagnostic
(`diagnose`).  The fuzzer runs the same phases on generated programs
and shares that mapping, the erasure of an image (`erase_image`) and the
run of the machine against the IS interpreter (`run_erased`).

Exit codes: 0 all phases pass; 1 parse error; 2 source type error;
3 translation-target type error (always a defect in the toolchain);
4 runtime discrepancy or evaluation failure; 5 fuzz counterexample.
Input nested too deeply for the host stack gets rule LIMIT and the exit
code of the phase it stopped: 1, 2, 3 (translate and check-target) or 4.
So does a value with more digits than the host prints (exit 4).
A file that cannot be read or written gets rule IO and the exit code of
the phase it stopped: 1 (parse, which reads the input) or 3 (write).  An
input byte that is not UTF-8 is a parse error: rule PARSE, its line and
column as span, exit code 1; a leading byte-order mark is read as
nothing.
"""

from __future__ import annotations

import gc
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple

from . import dependent, envs, runtime, translate
from . import syntax as S
from .errors import CheckError, EvalError, LoopcertError, ParseError, TooLong
from .parser import parse
from .printer import show, show_qenv, show_term
from .dependent import CheckCtx

EXIT_OK = 0
EXIT_PARSE = 1
EXIT_SOURCE = 2
EXIT_TARGET = 3
EXIT_RUNTIME = 4
EXIT_FUZZ = 5

# The collection policy of a run.  Syntax trees are acyclic and freed by
# reference counting, yet every young and middle collection walks the
# live nodes again.  Generation 0 collects about 14 times less often
# than with the defaults (700, 10, 10).  The older generations' lower
# thresholds keep full collections at their default cadence, about one
# per 10,000 * 3 * 3 net allocations against 700 * 11 * 11, so cyclic
# garbage is freed as often as before and peak memory does not grow.
GC_THRESHOLD = (10_000, 2, 2)


# What a phase may raise and have reported; anything else is a defect and
# propagates.
PHASE_ERRORS = (LoopcertError, RecursionError, OSError)


def diagnose(phase: str, ex: BaseException) -> Tuple[str, Optional[Tuple[int, int]], str, Dict[str, str]]:
    """The diagnostic of a phase that raised ex: rule, span, message and
    extra fields.  A phase out of host stack on deeply nested input gets
    rule LIMIT, and so does one that made a natural too long to print
    (TooLong); one that could not read or write a file gets rule IO, every
    other failure of translate rule TRANSLATE, and a failed run rule EVAL
    with the EvalError's reason.  A parse error gets rule PARSE and its
    span; an input that is not UTF-8 is one (read_source), at its first
    bad byte."""
    if isinstance(ex, RecursionError):
        return "LIMIT", None, f"the input nests too deeply for {phase}: the host recursion limit was reached", {}
    if isinstance(ex, TooLong):
        return "LIMIT", None, f"{phase} made {ex}", {}
    if isinstance(ex, OSError):
        return "IO", None, f"{phase} could not access {ex.filename!r}: {ex.strerror}", {}
    if phase == "translate":
        return "TRANSLATE", None, str(ex), {}
    if isinstance(ex, ParseError):
        return "PARSE", (ex.line, ex.col), str(ex), {}
    if isinstance(ex, CheckError):
        return ex.rule, ex.span, ex.message, {}
    return "EVAL", None, str(ex), {"reason": getattr(ex, "reason", type(ex).__name__)}


@dataclass
class Report:
    file: str
    discipline: str = ""
    phases: List[Dict[str, Any]] = field(default_factory=list)
    diagnostics: List[Dict[str, Any]] = field(default_factory=list)
    exit_code: int = EXIT_OK
    image: Optional[S.SourceFile] = None  # the FS/FD translation; not in to_dict

    def run_phase(
        self, name: str, exit_code: int, step: Callable[[], Any], describe: Callable[[Any], Dict[str, Any]]
    ) -> Any:
        """Run one phase: step() computes the result and describe(result)
        the payload, both timed.  A failure is recorded with its diagnostic
        and exit_code, and gives None."""
        start = time.monotonic()
        try:
            result = step()
            payload = describe(result)
        except PHASE_ERRORS as ex:
            result, payload = None, {}
            rule, span, message, extra = diagnose(name, ex)
            self.diag(rule, span, message, **extra)
            self.exit_code = exit_code
        elapsed = round(time.monotonic() - start, 6)
        self.phases.append({"name": name, "ok": result is not None, "elapsed_s": elapsed, "payload": payload})
        return result

    def diag(self, rule: str, span, message: str, severity: str = "error", **extra: str) -> None:
        self.diagnostics.append(
            {
                "severity": severity,
                "rule": rule,
                "span": list(span) if span else None,
                "message": message,
                **extra,
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
    cst_types: Tuple[Tuple[str, Any], ...]  # Prop (I) or Formula (F)
    trace: List[str]
    warnings: Tuple[str, ...] = ()


# The constant checker of each discipline: (constants, value, ctx) -> type.
_CST_CHECKERS = {
    "IS": lambda gamma, e, ctx: dependent.is_check_expr(gamma, (), e, ctx),
    "ID": lambda gamma, e, ctx: dependent.id_check_expr(gamma, (), e, ctx),
    "FS": lambda gamma, t, ctx: dependent.fs_check_term(gamma, t, ctx),
    "FD": lambda gamma, t, ctx: dependent.fd_check_term(gamma, t, ctx),
}


def check_source(
    sf: S.SourceFile, trace: Optional[List[str]] = None, allow_pred: bool = True
) -> CheckedFile:
    """Check every cst and the main sequence of a file, any discipline.
    allow_pred turns the optional TC_PRED_D rule of FD checking on or off."""
    ctx = CheckCtx(trace, allow_pred=allow_pred)
    check = _CST_CHECKERS.get(sf.discipline)
    if check is None:
        raise CheckError("CHECK", f"unknown discipline {sf.discipline}")
    gamma: S.Env = ()
    for name, value in sf.csts:
        gamma = gamma + ((name, check(gamma, value, ctx)),)
    types = gamma
    main = sf.main
    if main is not None and isinstance(main, S.MainF) != (sf.discipline in ("FS", "FD")):
        raise CheckError("CHECK", f"main is written in the other language; it cannot be checked as {sf.discipline}")
    if isinstance(main, S.MainI):
        dependent.check_main(gamma, main, ctx, sf.discipline == "IS")
    elif main is not None:
        types = gamma + (("main", check(gamma, main.term, ctx)),)
    return CheckedFile(types, ctx.trace, tuple(ctx.warnings))


def translate_file(sf: S.SourceFile) -> S.SourceFile:
    """Translate a checked imperative file into its FS/FD image."""
    target = {"IS": "FS", "ID": "FD"}.get(sf.discipline)
    if target is None:
        raise LoopcertError(f"{sf.discipline} files are already functional; nothing to translate")
    tctx = translate.TranslateCtx(target)
    terms = tuple([(name, translate.translate_expr(e, tctx)) for name, e in sf.csts])
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
    ctx = CheckCtx(trace, allow_pred=allow_pred)
    functional_check = dependent.fs_check_term if sf.discipline == "IS" else dependent.fd_check_term
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


def erase_image(image: S.SourceFile, entry: Optional[str] = None) -> runtime.RTerm:
    """The erased runtime term of the image's main, or of its constant
    `entry`, under let-bindings of every constant of the image."""
    if entry is not None:
        body: S.Term = S.TVar(entry)
    elif image.main is not None:
        body = image.main.term
    else:
        raise EvalError("NoMain", "the file has no main sequence and no entry was chosen")
    for name, term in reversed(image.csts):
        body = S.TLet(name, term, body)
    return runtime.erase(body)


def _entry(sf: S.SourceFile, types: Tuple[Tuple[str, S.Formula], ...], args: Tuple[int, ...]) -> str:
    """The constant that --args apply to: the last one, whose functional
    type must be, under any foralls, a function of len(args) naturals."""
    given = f"--args gives {len(args)} argument{'' if len(args) == 1 else 's'}"
    if not sf.csts:
        raise EvalError("ArgsMismatch", f"{given}, but the file has no constant to apply them to")
    entry = sf.csts[-1][0]
    ty = types[len(sf.csts) - 1][1]
    while isinstance(ty, S.FForall):
        ty = S.subst_ind(ty.body, S.IVar(ty.var))  # shown with the binder's name
    params = ty.dom.items if isinstance(ty, S.FArrow) and isinstance(ty.dom, S.FTuple) else None
    if params is None or not all(isinstance(p, S.FNat) for p in params):
        raise EvalError(
            "ArgsMismatch", f"{given}, but entry '{entry}' is not a procedure over naturals: {show(ty)}"
        )
    if len(params) != len(args):
        raise EvalError("ArgsMismatch", f"{given}, but entry '{entry}' takes {len(params)}: {show(ty)}")
    return entry


def run_erased(
    sf: S.SourceFile, erased: runtime.RTerm, entry: Optional[str], args: Optional[Tuple[int, ...]], fuel: int
) -> Tuple[Any, Any]:
    """Run the erased image of sf, applied to args if given, on the machine.
    For IS input the direct interpreter runs too and must agree on the
    final store.  Returns the machine's value and the interpreter's, which
    is None for other disciplines."""
    if args is not None:
        erased = runtime.RApp(erased, runtime.RTuple(tuple([runtime.RNum(n) for n in args])))
    value = runtime.evaluate(erased, fuel)
    if sf.discipline != "IS":
        return value, None
    oracle = runtime.interpret_program(sf.csts, sf.main, entry, args or ())
    if oracle != value:
        raise EvalError(
            "Discrepancy",
            f"interpreter yields {runtime.show_value(oracle)}, machine yields {runtime.show_value(value)}",
        )
    return value, oracle


def evaluate_file(
    sf: S.SourceFile,
    image: S.SourceFile,
    types: Tuple[Tuple[str, S.Formula], ...],
    args: Optional[Tuple[int, ...]],
    fuel: int,
) -> Dict[str, Any]:
    """Erase and run the image (run_erased); the payload of the evaluate
    phase.  types are the functional types of the image's constants; with
    args, the entry is checked against its type before anything runs."""
    entry = _entry(sf, types, args) if args is not None else None
    value, oracle = run_erased(sf, erase_image(image, entry), entry, args, fuel)
    payload: Dict[str, Any] = {"value": runtime.show_value(value)}
    if entry is None and sf.discipline in ("IS", "ID") and sf.main is not None:
        names, _ = envs.qsplit(sf.main.out)
        if isinstance(value, tuple) and len(value) == len(names):
            payload["store"] = {x: runtime.show_value(v) for x, v in zip(names, value)}
    if oracle is not None:
        payload["interpreter"] = runtime.show_value(oracle)
    return payload


def _typing(
    types: Tuple[Tuple[str, Any], ...], trace: List[str], want_trace: bool, out: Optional[S.QEnv] = None
) -> Dict[str, Any]:
    """The payload of a checking phase; out is the output of an imperative main."""
    payload = {"types": {name: show(ty) for name, ty in types}, "derivation_size": len(trace)}
    if out is not None:
        payload["main_out"] = show_qenv(out)
    if want_trace:
        payload["trace"] = list(trace)
    return payload


def _newlines(text: str) -> str:
    """text with every line end ("\r\n", "\r" or "\n") read as "\n", as
    a file opened in text mode reads it."""
    return text.replace("\r\n", "\n").replace("\r", "\n")


def read_source(path: str) -> str:
    """The text of the UTF-8 file at path, without a leading byte-order
    mark.  A byte that is not UTF-8 is a parse error at the line and column
    where it stands."""
    with open(path, "rb") as handle:
        data = handle.read().removeprefix(b"\xef\xbb\xbf")
    try:
        return _newlines(data.decode("utf-8"))
    except UnicodeDecodeError as ex:
        before = _newlines(data[: ex.start].decode("utf-8"))
        line, col = before.count("\n") + 1, len(before) - before.rfind("\n")
        raise ParseError(f"byte 0x{data[ex.start]:02x} is not UTF-8 ({ex.reason})", line, col) from None


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
    """Take a file through the phases, each by Report.run_phase, so every
    failure ends in a report; the parse phase reads the file at path when
    no text is given.  The run collects garbage by GC_THRESHOLD
    and restores the caller's thresholds on exit, also when an exception
    escapes; a caller who turned automatic collection off (gc.disable()
    or a threshold of 0) keeps it off."""
    found = gc.get_threshold()
    # a caller's threshold of 0 (collection off) is kept; a threshold
    # that is already the policy belongs to a concurrent run, which
    # restores it
    ours = found[0] != 0 and found != GC_THRESHOLD
    if ours:
        gc.set_threshold(*GC_THRESHOLD)
    try:
        report = Report(file=path)
        sf = report.run_phase(
            "parse", EXIT_PARSE, lambda: parse(read_source(path) if text is None else text),
            lambda sf: {"csts": [name for name, _ in sf.csts], "has_main": sf.main is not None},
        )
        if sf is None:
            return report
        if system is not None:
            sf = S.SourceFile(system, sf.csts, sf.main, sf.notes, sf.warnings)
        report.discipline = sf.discipline if sf.discipline in _CST_CHECKERS else ""
        for note in sf.notes:
            report.diag("NOTE", None, note, severity="note")
        for warning in sf.warnings:
            report.diag("PARSE", None, warning, severity="warning")

        imperative = sf.discipline in ("IS", "ID")
        trace: List[str] = []
        checked = report.run_phase(
            "check-source", EXIT_SOURCE, lambda: check_source(sf, trace, allow_pred),
            lambda checked: _typing(
                checked.cst_types, trace, want_trace, sf.main.out if imperative and sf.main is not None else None
            ),
        )
        if checked is None:
            return report
        for warning in checked.warnings:
            report.diag("CHECK", None, warning, severity="warning")
        if stop_after == "check-source":
            return report

        if not imperative and stop_after != "translate":  # the file is its own image
            image, types = sf, checked.cst_types
        else:
            # translate_file refuses a functional file: a fault of the input
            image = report.run_phase(
                "translate", EXIT_TARGET if imperative else EXIT_SOURCE, lambda: translate_file(sf),
                lambda image: {"terms": {name: len(show_term(t)) for name, t in image.csts}},
            )
            if image is None:
                return report
            report.image = image
            if stop_after == "translate":
                return report
            target_trace: List[str] = []
            types = report.run_phase(
                "check-target", EXIT_TARGET,
                lambda: check_target(sf, checked, image, target_trace, allow_pred),
                lambda types: _typing(types, target_trace, want_trace),
            )
            if types is None:
                return report

        if sf.main is not None or args is not None:
            report.run_phase(
                "evaluate", EXIT_RUNTIME, lambda: evaluate_file(sf, image, types, args, fuel),
                lambda payload: payload,
            )
        return report
    finally:
        if ours:
            gc.set_threshold(*found)
