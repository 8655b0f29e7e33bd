"""What the parser makes of its inputs is pinned.

`golden/parses.json` holds, for every corpus file, every one-token
deletion of each corpus file, and 200 generated IS programs printed with
`show_file`, either the parse or the ParseError.  A parse is the file
printed back plus every node span, in preorder; a sequence's items are
flat, and a sequence adds `["end", line, col]`, the place its end is
reported at, unless it ends in a `:>` group.  For a one-token
deletion that still parses, the record is the SHA-256 of that parse in
canonical JSON, which keeps the file small.  A ParseError is
`[str(error), line, col]`.  A change that is meant to keep what the
parser accepts and rejects, and where it reports, must leave this test
passing untouched.  To regenerate the file from the code on the path,
run

    PYTHONPATH=src python tests/test_golden_parses.py --write
"""

import glob
import hashlib
import json
import os
import random
import re
import sys

from loopcert import gen
from loopcert import syntax as S
from loopcert.errors import ParseError
from loopcert.parser import parse
from loopcert.printer import show_file

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
GOLDEN = os.path.join(HERE, "golden", "parses.json")
PROGRAMS = 200

# one token of the concrete syntax, for the deletions; comments are skipped
_TOKEN = re.compile(r"//[^\n]*|:=|:>|<:|=>|->|\w+|\S")


def _spans(node, out):
    cls = type(node)
    if cls is tuple:
        for item in node:
            _spans(item, out)
        return
    if not isinstance(node, S.Node):
        return
    if cls is S.Seq:
        _spans(node.items, out)
        if not (node.items and type(node.items[-1]) is S.SSubst):
            out.append(["end", *node.span])
        return
    if getattr(node, "span", None) is not None:
        out.append([cls.__name__, *node.span])
    for fname in S.node_fields(node):
        _spans(getattr(node, fname), out)


def record(text):
    try:
        sf = parse(text)
    except ParseError as ex:
        return [str(ex), ex.line, ex.col]
    spans = []
    _spans(sf.csts, spans)
    _spans(sf.main, spans)
    return {"file": show_file(sf), "spans": spans}


def _digest(parsed):
    canonical = json.dumps(parsed, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def inputs():
    """(key, text, whether it is a one-token deletion) for every input."""
    corpus = os.path.join(ROOT, "corpus")
    paths = sorted(glob.glob(os.path.join(corpus, "*.loop")))
    paths += sorted(glob.glob(os.path.join(corpus, "negative", "*.loop")))
    for path in paths:
        rel = os.path.relpath(path, ROOT).replace(os.sep, "/")
        with open(path, "r", encoding="utf-8") as handle:
            text = handle.read()
        yield rel, text, False
        tokens = [m.span() for m in _TOKEN.finditer(text) if not m.group().startswith("//")]
        for k, (start, end) in enumerate(tokens):
            yield f"{rel}:-{k}", text[:start] + text[end:], True
    for k in range(PROGRAMS):
        sf, _, _ = gen.gen_is_program(random.Random(f"parse:{k}"), 30)
        yield f"gen:{k}", show_file(sf), False


def results():
    out = {}
    for key, text, deletion in inputs():
        got = record(text)
        out[key] = _digest(got) if deletion and isinstance(got, dict) else got
    return out


def _load():
    with open(GOLDEN, "r", encoding="utf-8") as handle:
        return json.load(handle)


def test_parses_are_pinned():
    golden = _load()
    got = json.loads(json.dumps(results()))
    assert sorted(got) == sorted(golden)
    drifted = [(key, golden[key], got[key]) for key in golden if got[key] != golden[key]]
    assert drifted == []


def write(data):
    os.makedirs(os.path.dirname(GOLDEN), exist_ok=True)
    rows = [f"{json.dumps(key)}: {json.dumps(value)}" for key, value in data.items()]
    with open(GOLDEN, "w", encoding="utf-8") as handle:
        # one input a line
        handle.write("{\n" + ",\n".join(rows) + "\n}\n")


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        raise SystemExit(__doc__)
    write(results())
