"""The loopcert benchmark.

    python3 bench/run.py --workload corpus --seed 1 --seconds 10 --trace 0

Run from the root of a checkout.  One process, one client in a closed
loop, no extra threads.  The run sets up (several times; the median is
`setup_s`), makes verdicts for `--seconds` in whole rounds, checks every
verdict against its reference, then counts the Python calls of one pass
over the first rounds.  Times are calibrated against a reference task
run between slices of the work (see calibrate.py).  With `--trace 1`
the time is split between an untraced and a traced pass, and the
per-layer metrics are printed instead of the end-to-end ones.  The last line of standard output is the
result object; the line before it carries the details (environment,
sample counts, the first failures).  See bench/README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import io
import json
import os
import platform
import resource
import statistics
import sys
import time
from collections import defaultdict
from types import SimpleNamespace
from typing import Any, Callable, Dict, List, Optional, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import calibrate  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

SETUP_REPEATS = 10
MODULES = ("errors", "syntax", "parser", "printer", "envs", "axioms", "simple", "dependent",
           "runtime", "pipeline", "gen", "fuzz", "cli")
CLI_PROBE = os.path.join("corpus", "figure1.loop")


class Checker:
    """Makes verdicts, checks each against its reference and counts the
    ones that disagree or raise."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.failures: List[str] = []

    def record(self, key: str, error: Optional[str]) -> None:
        self.attempted += 1
        if error is not None:
            self.failed += 1
            if len(self.failures) < 5:
                self.failures.append(f"{key}: {error}"[:500])

    def verdict(self, item: workloads.Item, run: Optional[Callable[[], Any]] = None) -> Tuple[float, Any]:
        result, error = None, None
        start = time.perf_counter()
        try:
            result = (run or item.run)()
        except Exception as ex:  # an escaped host exception is a failed verdict
            error = f"{type(ex).__name__}: {ex}"
        elapsed = time.perf_counter() - start
        if error is None:
            error = item.check(result)
        self.record(item.key, error)
        return elapsed, result


def import_loopcert(root: str) -> SimpleNamespace:
    """A fresh import of the package from `root`/src."""
    src = os.path.join(root, "src")
    if src not in sys.path:
        sys.path.insert(0, src)
    for name in [m for m in sys.modules if m == "loopcert" or m.startswith("loopcert.")]:
        del sys.modules[name]
    modules = {name: importlib.import_module(f"loopcert.{name}") for name in MODULES}
    return SimpleNamespace(modules=modules, **modules)


def set_up(name: str, seed: int, root: str, tiny: bool, expected_path: str,
           checker: Checker) -> Tuple[SimpleNamespace, workloads.Workload]:
    """Import, make the inputs, call the CLI once (the process inherits
    whatever it sets, such as the recursion limit) and warm up."""
    lc = import_loopcert(root)
    workload = workloads.make_workload(name, lc, root, seed, tiny=tiny, expected_path=expected_path)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = lc.cli.main(["pipeline", "--json", os.path.join(root, CLI_PROBE)])
    if code != 0:
        error: Optional[str] = f"exit {code}"
    else:
        error = workloads.expect_store({"z": "5"})(("", json.loads(out.getvalue())))
    checker.record("cli " + CLI_PROBE, error)
    for item in workload.warmup:
        checker.verdict(item)
    return lc, workload


def timed_pass(workload: workloads.Workload, seconds: float, checker: Checker,
               calib: calibrate.Calibrator,
               wrap: Optional[Callable[[workloads.Item], Callable[[], Any]]] = None,
               on_result: Optional[Callable[[workloads.Item, Any], None]] = None):
    """Whole rounds until `seconds` have passed.  The reference task runs
    after every `calibrate.SLICE_S` of verdict time, and each verdict's
    time is scaled by the reference times around its slice.  Returns the
    calibrated latencies of each key, the raw verdict time and the number
    of rounds."""
    latencies: Dict[str, List[float]] = defaultdict(list)
    pending: List[Tuple[str, float]] = []
    pending_s = raw_s = 0.0
    before = calib.reference()

    def flush() -> None:
        nonlocal before, pending_s
        after = calib.reference()
        factor = calib.factor(before, after)
        for key, elapsed in pending:
            latencies[key].append(elapsed * factor)
        pending.clear()
        pending_s, before = 0.0, after

    deadline = time.perf_counter() + seconds
    rounds = 0
    while True:
        for item in workload.round_items(rounds):
            elapsed, result = checker.verdict(item, wrap(item) if wrap else None)
            pending.append((item.key, elapsed))
            pending_s += elapsed
            raw_s += elapsed
            if on_result is not None:
                on_result(item, result)
            if pending_s >= calibrate.SLICE_S:
                flush()
        rounds += 1
        if time.perf_counter() >= deadline:
            if pending:
                flush()
            return latencies, raw_s, rounds


def percentile(values: List[float], q: int) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def count_pass(workload: workloads.Workload, root: str, checker: Checker) -> Dict[str, float]:
    """Python and C call counts per verdict over the first rounds."""
    counter = tracing.CallCounter(os.path.join(root, "src", "loopcert"))
    items = [item for r in range(workload.count_rounds) for item in workload.round_items(r)]
    for item in items:
        checker.verdict(item, lambda: counter.run(item.run))
    counts = counter.counts()
    per_verdict = {module: counts.get(module, 0) / len(items) for module in tracing.LAYERS}
    per_verdict["c_calls"] = counts["c_calls"] / len(items)
    per_verdict["total_py"] = sum(v for k, v in counts.items() if k != "c_calls") / len(items)
    return per_verdict


def layer_metrics(summary: tracing.TraceSummary, items: List[workloads.Item],
                  reports: List[Optional[Dict[str, Any]]]) -> Dict[str, float]:
    """The per-layer metrics of a traced pass.  Times are seconds per
    verdict, counts are calls per verdict; a metric the workload cannot
    measure (no report, no size pair, no known iteration count) reads 0."""
    n = max(1, summary.verdicts)
    by_v = summary.by_verdict

    def t(span: str) -> float:
        return summary.total_s.get(span, 0.0) / n

    def span_of(v: int, *spans: str) -> float:
        return sum(by_v.get(v, {}).get(s, 0.0) for s in spans)

    def ratio(num: float, den: float) -> float:
        return num / den if den > 0 else 0.0

    m: Dict[str, float] = {}
    parsed = [v for v in range(summary.verdicts) if span_of(v, "parser.parse") > 0]
    m["parser.parse_s"] = t("parser.parse")
    m["parser.lex_s"] = t("parser.lex")
    m["parser.kchars_per_s"] = ratio(sum(items[v].source_chars for v in parsed) / 1000,
                                     sum(span_of(v, "parser.parse") for v in parsed))

    def growth(family: str, span: str) -> float:
        sizes: Dict[int, List[float]] = defaultdict(list)
        for v, item in enumerate(items):
            if item.family == family:
                sizes[item.size].append(span_of(v, span))
        if len(sizes) < 2:
            return 0.0
        small, large = min(sizes), max(sizes)
        return ratio(statistics.median(sizes[large]), statistics.median(sizes[small]))

    m["parser.parse.growth.is"] = growth("is", "parser.parse")
    m["parser.parse.growth.id"] = growth("id", "parser.parse")
    for layer, discipline, family in (("simple", "IS", "is"), ("dependent", "ID", "id")):
        for phase in ("check_source", "translate", "check_target"):
            m[f"{layer}.{phase}_s"] = t(f"{layer}.{phase}")
        mine = [v for v, rep in enumerate(reports) if rep is not None and rep["discipline"] == discipline]
        rules = sum(workloads.phase_payload(reports[v], "check-source").get("derivation_size", 0)
                    + workloads.phase_payload(reports[v], "check-target").get("derivation_size", 0) for v in mine)
        checking = sum(span_of(v, f"{layer}.check_source", f"{layer}.check_target") for v in mine)
        m[f"{layer}.rules_per_s"] = ratio(rules, checking)
        translated = [v for v in mine if workloads.phase_payload(reports[v], "translate").get("terms")]
        m[f"{layer}.image_ratio"] = ratio(
            sum(sum(workloads.phase_payload(reports[v], "translate")["terms"].values()) for v in translated),
            sum(items[v].source_chars for v in translated))
        m[f"{layer}.check_source.growth"] = growth(family, f"{layer}.check_source")
        m[f"{layer}.check_target.growth"] = growth(family, f"{layer}.check_target")
    for kernel in ("alpha_eq", "subst_ind", "free_ind_vars"):
        m[f"syntax.{kernel}.calls"] = summary.calls.get(f"syntax.{kernel}", 0) / n
        m[f"syntax.{kernel}_s"] = t(f"syntax.{kernel}")
    m["envs.calls"] = summary.calls.get("envs", 0) / n
    m["axioms.match.calls"] = summary.calls.get("axioms.match", 0) / n
    m["axioms.match_s"] = t("axioms.match")
    m["printer.show_s"] = t("printer.show")
    m["runtime.erase_s"] = t("runtime.erase")
    m["runtime.evaluate_s"] = t("runtime.evaluate")
    m["runtime.interpret_s"] = t("runtime.interpret")
    looped = [v for v, item in enumerate(items) if item.iters > 0]
    m["runtime.iters_per_s"] = ratio(sum(items[v].iters for v in looped),
                                     sum(span_of(v, "runtime.evaluate") for v in looped))
    interpreted = [v for v in range(summary.verdicts) if span_of(v, "runtime.interpret") > 0]
    m["runtime.machine_over_interp"] = ratio(sum(span_of(v, "runtime.evaluate") for v in interpreted),
                                             sum(span_of(v, "runtime.interpret") for v in interpreted))
    m["runtime.evaluate.growth"] = growth("is", "runtime.evaluate")
    m["gen.gen_s"] = t("gen.gen")
    m["fuzz.run_one_s"] = t("fuzz.run_one")
    for layer in tracing.LAYERS:
        m[f"{layer}.self_s"] = summary.self_s.get(layer, 0.0) / n
    return m


def src_lines(root: str) -> int:
    package = os.path.join(root, "src", "loopcert")
    total = 0
    for name in sorted(os.listdir(package)):
        if name.endswith(".py"):
            with open(os.path.join(package, name), "r", encoding="utf-8") as handle:
                total += sum(1 for _ in handle)
    return total


def _traced_pass(name: str, lc: SimpleNamespace, workload: workloads.Workload, seconds: float,
                 checker: Checker, calib: calibrate.Calibrator):
    """The traced pass: (per-layer metrics, latencies per key, sample counts)."""
    tracer = tracing.Tracer()
    root_span = tracing.ROOT_FUZZ if name == "fuzz" else tracing.ROOT_PIPELINE
    items: List[workloads.Item] = []
    reports: List[Optional[Dict[str, Any]]] = []

    def keep(item: workloads.Item, result: Any) -> None:
        items.append(item)
        reports.append(result[1] if isinstance(result, tuple) else None)

    tracer.install(lc.modules)
    try:
        latencies, _, _ = timed_pass(
            workload, seconds, checker, calib,
            wrap=lambda item: lambda: tracer.verdict_span(root_span, item.run),
            on_result=keep)
    finally:
        tracer.uninstall()
    summary = tracer.summary()
    verdict_s = sum(summary.total_s.get(root, 0.0) for root in (tracing.ROOT_PIPELINE, tracing.ROOT_FUZZ))
    # every span's self time belongs to exactly one layer, so this reads 1
    accounted = sum(summary.self_s.values()) / verdict_s
    sample = {"verdicts": len(items), "spans": len(tracer.start), "self_s_over_verdict_s": accounted}
    return layer_metrics(summary, items, reports), latencies, sample


def measure(name: str, seed: int, seconds: float, trace: bool, root: str, tiny: bool = False,
            expected_path: str = workloads.EXPECTED_STORES) -> Dict[str, Any]:
    """One benchmark run; returns {"result": last line, "info": details}."""
    checker = Checker()
    calib = calibrate.Calibrator()
    setups, raw_setups = [], []
    for _ in range(SETUP_REPEATS):
        setup_s, raw_setup_s, (lc, workload) = calib.time(
            lambda: set_up(name, seed, root, tiny, expected_path, checker))
        setups.append(setup_s)
        raw_setups.append(raw_setup_s)

    latencies, raw_s, rounds = timed_pass(workload, seconds / 2 if trace else seconds, checker, calib)
    traced = _traced_pass(name, lc, workload, seconds / 2, checker, calib) if trace else None
    medians = {key: statistics.median(v) for key, v in latencies.items()}
    verdicts = sum(len(v) for v in latencies.values())
    counts = count_pass(workload, root, checker)

    info: Dict[str, Any] = {
        "workload": name,
        "seed": seed,
        "python": platform.python_version(),
        "pythonhashseed": os.environ.get("PYTHONHASHSEED", "random"),
        "nproc": len(os.sched_getaffinity(0)),
        "recursion_limit": sys.getrecursionlimit(),
        "setup_runs_s": setups,
        "timed": {"verdicts": verdicts, "rounds": rounds, "programs": len(medians)},
        "raw": {"setup_s": statistics.median(raw_setups), "verdicts_per_s": verdicts / raw_s,
                "reference_ms": statistics.median(calib.raw_s) * 1000,
                "reference_runs": len(calib.raw_s)},
        "counts_per_verdict": counts,
    }
    values = sorted(medians.values())
    end_to_end = {
        "setup_s": (statistics.median(setups), "s"),
        "verdicts_per_s": (verdicts / sum(sum(v) for v in latencies.values()), "1/s"),
        "verdict_ms.p50": (statistics.median(values) * 1000, "ms"),
        "verdict_ms.p90": (percentile(values, 90) * 1000, "ms"),
        "py_calls_per_verdict": (counts["total_py"], "count"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }

    if traced is not None:
        metrics, traced_latencies, info["traced"] = traced
        common = [key for key in traced_latencies if key in medians]
        metrics["trace.overhead"] = (sum(statistics.median(traced_latencies[k]) for k in common)
                                     / sum(medians[k] for k in common))
        for module in tracing.LAYERS:
            metrics[f"{module}.py_calls"] = counts[module]
        metrics["c_calls_per_verdict"] = counts["c_calls"]
        metrics["src.lines"] = src_lines(root)
        reported = {k: {"value": v, "unit": _layer_unit(k)} for k, v in metrics.items()}
    else:
        reported = {k: {"value": v, "unit": u} for k, (v, u) in end_to_end.items()}

    info["failed_ratio"] = checker.failed / checker.attempted
    info["failures"] = checker.failures
    info["end_to_end"] = {k: v for k, (v, _) in end_to_end.items()}
    result = {"correct": checker.failed == 0, "attempted": checker.attempted,
              "failed": checker.failed, "metrics": reported}
    return {"result": result, "info": info}


def _layer_unit(metric: str) -> str:
    if metric.endswith("kchars_per_s"):
        return "kchar/s"
    if metric.endswith("per_s"):
        return "1/s"
    if metric.endswith("_s"):
        return "s"
    if metric.endswith(".calls") or metric.endswith("py_calls") or metric.startswith("c_calls"):
        return "count"
    if metric == "src.lines":
        return "lines"
    return "ratio"


def main(argv: Optional[List[str]] = None) -> int:
    ap = argparse.ArgumentParser(description="The loopcert benchmark (see bench/README.md).")
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ns = ap.parse_args(argv)
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "loopcert", "pipeline.py")):
        print(f"bench: no loopcert sources under {os.path.join(root, 'src')}; "
              "run from the root of a checkout", file=sys.stderr)
        return 2
    out = measure(ns.workload, ns.seed, ns.seconds, bool(ns.trace), root)
    print(json.dumps({"info": out["info"]}, sort_keys=True))
    print(json.dumps(out["result"], sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
