"""The reach gate: every top-level function and class of src/loopcert is
named somewhere in src/ outside its own definition, so that src/ holds no
API that only tests use, and src/ holds no `global` statement, so that no
module-level flag is mutated at run time.  A use is a name or an
attribute in the syntax tree; docstrings, comments and imports are
none."""

import ast
import collections
import os

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src", "loopcert")

# Definitions that only tests and bench/tracing.py name; the tracer looks
# each up by name, so they go when the benchmark next changes.
UNREACHED = dict.fromkeys(
    ["axioms.match_axiom", "envs.lookup_many", "envs.restrict", "envs.notin", "printer.show_term"],
    "goes with the next benchmark change (ROADMAP item 20)",
)


def modules():
    """Each module of src/loopcert by name, parsed."""
    trees = {}
    for name in sorted(os.listdir(SRC)):
        if name.endswith(".py"):
            with open(os.path.join(SRC, name), "r", encoding="utf-8") as handle:
                trees[name[:-3]] = ast.parse(handle.read(), name)
    return trees


def uses(tree):
    """How often tree names each identifier, as a name or an attribute."""
    found = collections.Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            found[node.id] += 1
        elif isinstance(node, ast.Attribute):
            found[node.attr] += 1
    return found


def unreached(trees):
    """The top-level definitions that src/ names nowhere outside their own."""
    everywhere = collections.Counter()
    for tree in trees.values():
        everywhere.update(uses(tree))
    found = set()
    for module, tree in trees.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                if everywhere[node.name] == uses(node)[node.name]:
                    found.add(f"{module}.{node.name}")
    return found


def test_every_definition_is_named_outside_its_own():
    assert unreached(modules()) == set(UNREACHED)


def test_src_holds_no_global_statement():
    trees = modules()
    assert [module for module, tree in trees.items() for node in ast.walk(tree) if isinstance(node, ast.Global)] == []


def test_a_definition_named_only_in_a_docstring_or_a_comment_is_unreached():
    tree = ast.parse('def f():\n    """calls g"""\n    return 0  # g\n\n\ndef g():\n    return g\n')
    assert unreached({"m": tree, "n": ast.parse("import m\nm.f()\n")}) == {"m.g"}
