"""Translation images are pinned: a digest of `show_file(translate_file(sf))`
for every positive corpus file (FS and FD images) and for 300 seeded
`gen.gen_is_program` programs, which reach loops, blocks, calls, `dec`,
`var` and local constants.  A change that is meant to keep the
translation (a refactor) must leave this test passing untouched.  To
regenerate the file from the code on the path, after a change that is
meant to alter images, run

    PYTHONPATH=src python tests/test_golden_images.py --write
"""

import hashlib
import json
import os
import random
import sys

import pytest

from loopcert import gen, pipeline
from loopcert.parser import parse
from loopcert.printer import show_file

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
GOLDEN = os.path.join(HERE, "golden", "images.json")
GENERATED = 300


def corpus_paths():
    """Positive corpus files relative to the repository root."""
    names = sorted(f for f in os.listdir(os.path.join(ROOT, "corpus")) if f.endswith(".loop"))
    return [f"corpus/{name}" for name in names]


def generated_keys():
    return [f"gen:{k}" for k in range(GENERATED)]


def source_of(key: str):
    if key.startswith("gen:"):
        sf, _, _ = gen.gen_is_program(random.Random(f"image:{key[4:]}"), 30)
        return sf
    with open(os.path.join(ROOT, key), "r", encoding="utf-8") as handle:
        return parse(handle.read())


def image_digest(key: str) -> str:
    text = show_file(pipeline.translate_file(source_of(key)))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


def _load():
    with open(GOLDEN, "r", encoding="utf-8") as handle:
        return json.load(handle)


def test_golden_covers_corpus_and_generated_programs():
    assert sorted(_load()) == sorted(corpus_paths() + generated_keys())


@pytest.mark.parametrize("key", corpus_paths())
def test_corpus_image_is_pinned(key):
    assert image_digest(key) == _load()[key]


def test_generated_images_are_pinned():
    golden = _load()
    drifted = [key for key in generated_keys() if image_digest(key) != golden[key]]
    assert drifted == []


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        raise SystemExit(__doc__)
    os.makedirs(os.path.dirname(GOLDEN), exist_ok=True)
    with open(GOLDEN, "w", encoding="utf-8") as handle:
        keys = corpus_paths() + generated_keys()
        json.dump({key: image_digest(key) for key in keys}, handle, indent=1, sort_keys=True)
        handle.write("\n")
