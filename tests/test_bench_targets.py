"""The traced bench run (`bench/run.py --trace 1`) wraps loopcert
functions by name; deleting or renaming one of them must fail here, not
only in that run."""

import importlib
import importlib.util
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _tracing():
    spec = importlib.util.spec_from_file_location(
        "bench_tracing", os.path.join(ROOT, "bench", "tracing.py")
    )
    module = importlib.util.module_from_spec(spec)
    dont_write = sys.dont_write_bytecode
    sys.dont_write_bytecode = True  # read only: no __pycache__ under bench/
    sys.modules[spec.name] = module  # its dataclasses look their module up
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = dont_write
        del sys.modules[spec.name]
    return module


def test_every_traced_function_exists():
    targets = _tracing().TARGETS
    missing = [
        f"{module}.{name}"
        for module, name, _, _ in targets
        if not callable(getattr(importlib.import_module(f"loopcert.{module}"), name, None))
    ]
    assert targets and missing == []
