"""The methods of the node classes that `syntax.node` makes: ==, hash and
repr agree with a dataclass made from the same fields, and importing the
package compiles one source per field shape, none for hash or repr.
"""

import os
import random
import subprocess
import sys
import textwrap
from dataclasses import MISSING, field, fields, make_dataclass

from test_collector import NODES

from loopcert import syntax as S


def reference(cls):
    """A dataclass with cls's fields, == and hash (compare flags) and repr
    (repr flags), as dataclass itself makes them."""
    specs = []
    for f in fields(cls):
        options = {"init": f.init, "compare": f.compare, "repr": f.repr}
        if f.default is not MISSING:
            options["default"] = f.default
        specs.append((f.name, f.type, field(**options)))
    return make_dataclass(cls.__name__, specs, eq=True, unsafe_hash=True, repr=True)


def child(kind, rng):
    """Two field values of one kind: the same object, equal but distinct
    objects, or different objects; each a node, a tuple of nodes, a str,
    an int or None."""
    shape = rng.randrange(5)
    make = [
        lambda n: S.ISucc(S.IVar(f"x{n}")),
        lambda n: (S.IVar(f"x{n}"), S.CInc(f"y{n}", span=(n, rng.randrange(9)))),
        lambda n: "".join(["x", str(n)]),  # a new str object each call
        lambda n: 10**30 + n,  # a new int object each call
        lambda n: None if n == 0 else S.IZero(),
    ][shape]
    if kind == "identical":
        value = make(0)
        return value, value
    return make(0), make(0 if kind == "equal" else 1)


def pairs(cls, rng, count=40):
    """Pairs of argument vectors for cls: each field in turn the only one
    that differs, then random mixes of identical, equal and different
    children."""
    names = [f.name for f in fields(cls) if f.init]
    mixes = [["different" if name == changed else "equal" for name in names] for changed in names]
    mixes += [[rng.choice(("identical", "equal", "different")) for _ in names] for _ in range(count)]
    for kinds in mixes:
        values = [child(kind, rng) for kind in kinds]
        yield tuple(a for a, _ in values), tuple(b for _, b in values)


def test_eq_hash_and_repr_agree_with_a_dataclass():
    rng = random.Random(40)
    for cls in NODES:
        if cls is S.CFor:
            continue
        ref = reference(cls)
        for a, b in pairs(cls, rng):
            ours, theirs = (cls(*a), cls(*b)), (ref(*a), ref(*b))
            if cls.__name__ == "RFn":  # as runtime._compile_loop sets it
                object.__setattr__(ours[1], "loop", "a loop")
                object.__setattr__(theirs[1], "loop", "a loop")
            assert (ours[0] == ours[1]) == (theirs[0] == theirs[1]), (cls.__name__, a, b)
            assert (ours[0] != ours[1]) == (theirs[0] != theirs[1]), (cls.__name__, a, b)
            for node, twin in zip(ours, theirs):
                assert hash(node) == hash(twin), (cls.__name__, node)
                assert repr(node) == repr(twin), cls.__name__
                # another class, or no node, is never equal
                assert node.__eq__(twin) is NotImplemented and twin.__eq__(node) is NotImplemented
                assert node != twin and node != a


def test_a_for_compares_whether_it_has_a_hint_and_not_the_hint():
    """CFor keeps its own == and hash: var, bound, body and frame compare,
    and of the index's hint only whether there is one."""
    ref = reference(S.CFor)
    rng = random.Random(41)
    hints = ("i", "j", None)
    for a, b in pairs(S.CFor, rng):
        a, b = list(a), list(b)
        a[1], b[1] = rng.choice(hints), rng.choice(hints)
        x, y = S.CFor(*a), S.CFor(*b)
        same = (a[1] is None) == (b[1] is None) and (a[0], a[2], a[3], a[4]) == (b[0], b[2], b[3], b[4])
        assert (x == y) == same and (x != y) != same
        assert hash(x) == hash((a[0], a[1] is None, a[2], a[3], a[4]))
        assert repr(x) == repr(ref(*a))
        if same:
            assert hash(x) == hash(y)


# Counts, while syntax and runtime are imported, the functions defined by
# the sources compiled from strings.  Each such source defines one
# function that returns what the source compiles (a node method or walk),
# as each of dataclass's own does on every Python since 3.10; so the
# functions one level down are the methods and walks, whatever the number
# of sources dataclass groups them in.
COMPILED = textwrap.dedent("""
    import sys, types

    compiled = 0

    def count(event, args):
        global compiled
        if event == "exec" and type(args[0]) is types.CodeType and args[0].co_filename == "<string>":
            for outer in args[0].co_consts:
                if type(outer) is types.CodeType:
                    compiled += sum(type(inner) is types.CodeType for inner in outer.co_consts)

    sys.addaudithook(count)
    import loopcert.runtime
    print(compiled)
""")


def test_importing_the_nodes_compiles_one_function_per_field_shape():
    """84 classes have 52 __init__ shapes, 39 == shapes (CFor has its own)
    and 37 walk shapes; hash and repr compile nothing.  With dataclass's
    methods, 392 were compiled."""
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = {**os.environ, "PYTHONPATH": src + os.pathsep + os.environ.get("PYTHONPATH", "")}
    proc = subprocess.run([sys.executable, "-c", COMPILED], env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert 0 < int(proc.stdout) <= 128
