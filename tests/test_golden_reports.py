"""Corpus reports are pinned byte for byte, apart from elapsed times.

`golden/reports.json` holds `run_pipeline(p, want_trace=True).to_dict()`
for every corpus file, with each phase's `elapsed_s` set to 0.  A change
that is meant to keep behaviour (a refactor, a speed-up) must leave this
test passing untouched.  To regenerate the file from the code on the
path, after a change that is meant to alter reports, run

    PYTHONPATH=src python tests/test_golden_reports.py --write
"""

import json
import os
import sys

import pytest

from loopcert import pipeline

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
GOLDEN = os.path.join(HERE, "golden", "reports.json")


def corpus_paths():
    """Corpus files relative to the repository root, positive then negative."""
    out = []
    for sub in ("corpus", os.path.join("corpus", "negative")):
        names = sorted(f for f in os.listdir(os.path.join(ROOT, sub)) if f.endswith(".loop"))
        out.extend(f"{sub}/{name}".replace(os.sep, "/") for name in names)
    return out


def report_text(rel: str) -> str:
    with open(os.path.join(ROOT, rel), "r", encoding="utf-8") as handle:
        text = handle.read()
    data = pipeline.run_pipeline(rel, text=text, want_trace=True).to_dict()
    for phase in data["phases"]:
        phase["elapsed_s"] = 0
    return json.dumps(data, sort_keys=True)


def _load():
    with open(GOLDEN, "r", encoding="utf-8") as handle:
        return json.load(handle)


def test_golden_covers_the_corpus():
    assert sorted(_load()) == sorted(corpus_paths())


@pytest.mark.parametrize("rel", corpus_paths())
def test_report_is_byte_identical(rel):
    assert report_text(rel) == _load()[rel]


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        raise SystemExit(__doc__)
    os.makedirs(os.path.dirname(GOLDEN), exist_ok=True)
    with open(GOLDEN, "w", encoding="utf-8") as handle:
        json.dump({rel: report_text(rel) for rel in corpus_paths()}, handle, indent=1, sort_keys=True)
        handle.write("\n")
