"""The translate payload's `terms`: the node count of each constant's
image, which translate counts as it builds the image
(`translate.TranslateCtx`), against a reference walk of the image as a
tree, `node_count`.

The image shares its variables, the steps of `inc` and `dec`, its
numerals, the source's type atoms, families and individuals, and an FD
`for` image holds its frame's type list twice; a tree walk counts a
shared node once for each place that holds it, and so must the count.
"""

import glob
import os
import random

import pytest

from loopcert import gen, pipeline
from loopcert import syntax as S
from loopcert.parser import parse

from test_growth import _BENCH

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def node_count(value):
    """The number of nodes in a syntax value (nodes or tuples), by one
    iterative walk, so that no nesting is too deep for it."""
    count, stack = 0, [value]
    while stack:
        value = stack.pop()
        if type(value) is tuple:
            stack.extend(value)
        elif isinstance(value, S.Node):
            count += 1
            stack.extend([getattr(value, name) for name in S.node_fields(value)])
    return count


def counted(sf):
    """translate's own count of each constant of sf's image, and the
    reference walk's."""
    sizes = {}
    image = pipeline.translate_file(sf, sizes)
    return sizes, {name: node_count(term) for name, term in image.csts}


# Hand-written ID files, each checked and run by the pipeline: a `for`
# whose frame has two types around a label, a jump and a coercion chain;
# a continuation instantiated by `<:` and witnesses closed by unpacks; a
# `:>` group around a `for` whose body coerces after an inc/dec pair.
HAND_WRITTEN = {
    "frame_label": """discipline ID;

cst count = proc forall n. [x : nat(n)] out [z : nat(n), w : nat(0)] {
  z := x;
  w := 0;
  for l : nat(l) := 0 until x {
    k : {
      jump(k, z, w)[z : nat(n), w : nat(0)];
    }[z : nat(n), w : nat(0)];
    z := z :> {i/nat(i)}[add(0, n) = n] :> {i/nat(i)}[n = add(0, n)];
  }[z : nat(n), w : nat(0)];
};

main {
  count{2}(2; z, w);
} out [z : nat(succ(succ(0))), w : nat(0)]
""",
    "cont_inst_witness": """discipline ID;

cst pick = proc [x : nat(succ(0))] out exists u. [r : nat(u)] {
  k : {
    jump(k <: {u/[nat(u)]}{succ(0)}, x)[r : nat(succ(0))];
    [succ(0) in exists u. [r : nat(u)]]
  } exists u. [r : nat(u)];
  ?v.
  [v in exists u. [r : nat(u)]]
};

main {
  var w := *;
  pick(1; w);
  ?u.
  y := w;
  [u in exists v. [y : nat(v)]]
} out exists v. [y : nat(v)]
""",
    "group_frame": """discipline ID;

cst cast = proc [x : nat(succ(0))] out [z : nat(add(0, succ(0))), w : nat(0)] {
  w := 0;
  (
    z := x;
    for l : nat(l) := 0 until x {
      inc(w);
      dec(w);
      w := w :> {i/nat(i)}[0 = pred(succ(0))];
    }[z : nat(succ(0)), w : nat(0)];
  ) :> {n/[z : nat(n), w : nat(0)]}[add(0, succ(0)) = succ(0)];
};

main {
  cast(1; z, w);
} out [z : nat(add(0, succ(0))), w : nat(0)]
""",
}


def _corpus_files():
    corpus = os.path.join(ROOT, "corpus")
    return sorted(glob.glob(os.path.join(corpus, "*.loop")) + glob.glob(os.path.join(corpus, "negative", "*.loop")))


def test_the_payload_is_the_reference_count_on_every_corpus_image_and_hand_written_file():
    """Through run_pipeline, on each file whose check-source passes.  Each
    of these changes to translate, made on a copy, fails this test: the
    type list of a `for` frame counted once in an FD image, where its
    motive holds it a second time; a shared `inc` step counted as one
    node, not as the succ and the variable it holds."""
    images = 0
    sources = [(path, None) for path in _corpus_files()] + [(key, text) for key, text in HAND_WRITTEN.items()]
    for path, text in sources:
        report = pipeline.run_pipeline(path, text=text, stop_after="translate")
        phases = {phase["name"]: phase for phase in report.phases}
        if "translate" not in phases:  # a parse or source type error
            continue
        translate = phases["translate"]
        assert translate["ok"], (path, report.diagnostics)
        want = {name: node_count(term) for name, term in report.image.csts}
        assert translate["payload"]["terms"] == want, path
        images += 1
    assert images == 10 + len(HAND_WRITTEN)
    for key, text in HAND_WRITTEN.items():
        assert pipeline.run_pipeline(key, text=text).exit_code == pipeline.EXIT_OK, key


def test_the_count_is_the_reference_count_on_generated_programs():
    """The images of `gen_is_program` seeds 0-1999 of seed 7, as the
    fuzzer seeds them."""
    for k in range(2000):
        rng = random.Random(f"7:{k}")
        sf, _, _ = gen.gen_is_program(rng, 30)
        sizes, want = counted(sf)
        assert sizes == want, k


@pytest.mark.parametrize("n", [2000, 4000])
@pytest.mark.parametrize("family", ["is_chain", "id_chain"])
def test_the_count_is_the_reference_count_on_the_bench_chains(family, n):
    sizes, want = counted(parse(getattr(_BENCH, family)(n)))
    assert sizes == want
