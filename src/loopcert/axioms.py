"""The axiom judgment |- i = i' as a schema matcher.

The nine schemas are matched schematically: metavariables bind arbitrary
individuals, including free program variables and eigenvariables, so
``add(0, m) = m`` is an AX_ADD_0 instance with ``m`` free.  Symmetry is
never applied here; callers try the flipped pair themselves.

Note that AX_MULT_0 reads ``mult(0, i') = i'`` as printed, which makes
``mult`` denote (n+1)*m; eval_ind, the evaluator of closed individuals,
reads it the same way.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from .errors import CheckError
from .syntax import (
    IAdd,
    IBound,
    IF32,
    IMult,
    IPred,
    ISub,
    ISucc,
    IVar,
    IZero,
    Ind,
    alpha_eq,
    num_ind,
)

_I = IVar("%i")
_J = IVar("%j")

# (name, left pattern, right pattern); %-names are schema metavariables
SCHEMAS: Tuple[Tuple[str, Ind, Ind], ...] = (
    ("AX_PRED_0", IPred(IZero()), IZero()),
    ("AX_PRED_S", IPred(ISucc(_I)), _I),
    ("AX_ADD_0", IAdd(IZero(), _J), _J),
    ("AX_ADD_S", IAdd(ISucc(_I), _J), ISucc(IAdd(_I, _J))),
    ("AX_MULT_0", IMult(IZero(), _J), _J),
    ("AX_MULT_S", IMult(ISucc(_I), _J), IAdd(IMult(_I, _J), _J)),
    ("AX_F32_0", IF32(IZero()), num_ind(3)),
    ("AX_F32_S", IF32(ISucc(_I)), num_ind(2)),
)

# SCHEMAS grouped by the class of their left pattern, in table order.  No
# left pattern is a metavariable and _match fails at once on a class
# mismatch, so a subject's group holds every schema that can match it.
_BY_CLASS: Dict[type, Tuple[Tuple[str, Ind, Ind], ...]] = {
    cls: tuple(schema for schema in SCHEMAS if type(schema[1]) is cls)
    for cls in dict.fromkeys(type(left) for _, left, _ in SCHEMAS)
}


def _match(pattern: Ind, subject: Ind, binding: Dict[str, Ind]) -> bool:
    cls = type(pattern)
    if cls is IVar and pattern.name.startswith("%"):
        bound = binding.get(pattern.name)
        if bound is None:
            binding[pattern.name] = subject
            return True
        return alpha_eq(bound, subject)
    if cls is not type(subject):
        return False
    if cls is IZero:
        return True
    if cls is ISucc or cls is IPred or cls is IF32:
        return _match(pattern.arg, subject.arg, binding)  # type: ignore[union-attr]
    if cls is IAdd or cls is ISub or cls is IMult:
        return _match(pattern.left, subject.left, binding) and _match(  # type: ignore[union-attr]
            pattern.right, subject.right, binding  # type: ignore[union-attr]
        )
    if cls is IVar:
        return pattern.name == subject.name  # type: ignore[union-attr]
    raise AssertionError(pattern)


def try_match_axiom(i1: Ind, i2: Ind, refl: bool = True) -> Optional[str]:
    """The schema name instantiating to (i1, i2) exactly, or None.

    AX_REFL is realized as alpha equality and tried first, matching the
    printed order of the axioms; with refl false it is not tried, for a
    caller that has decided it already.
    """
    if refl and alpha_eq(i1, i2):
        return "AX_REFL"
    for name, left, right in _BY_CLASS.get(type(i1), ()):
        binding: Dict[str, Ind] = {}
        if _match(left, i1, binding) and _match(right, i2, binding):
            return name
    return None


def match_axiom(i1: Ind, i2: Ind, rule: str = "AXIOM", span=None) -> str:
    name = try_match_axiom(i1, i2)
    if name is None:
        from .printer import show

        raise CheckError(
            rule,
            f"'{show(i1)} = {show(i2)}' is not an axiom instance",
            span=span,
            reason="NoAxiom",
        )
    return name



def eval_ind(i: Ind, env: Dict[str, int]) -> Optional[int]:
    """The natural that the individual i denotes, each variable read from
    env, or None where i holds a variable that env lacks.  pred and sub
    are truncated, mult(n, m) is (n+1)*m (see the module note) and F32(n)
    is 3 at 0 and 2 elsewhere, as the schemas read them.  The walk keeps
    its own stack, since a numeral is a succ chain as deep as its value."""
    nodes, todo = [], [i]  # the nodes in pre-order, the right operand first
    while todo:
        node = todo.pop()
        nodes.append(node)
        cls = type(node)
        if cls is IAdd or cls is ISub or cls is IMult:
            todo.append(node.left)
            todo.append(node.right)
        elif cls is ISucc or cls is IPred or cls is IF32:
            todo.append(node.arg)
    values: List[int] = []  # a node's operands are done before it, the left one first
    for node in reversed(nodes):
        cls = type(node)
        if cls is IZero:
            values.append(0)
        elif cls is ISucc:
            values[-1] += 1
        elif cls is IPred:
            values[-1] = max(values[-1] - 1, 0)
        elif cls is IF32:
            values[-1] = 3 if values[-1] == 0 else 2
        elif cls is IVar:
            if node.name not in env:
                return None
            values.append(env[node.name])
        elif cls is IBound:
            return None
        else:
            right = values.pop()
            left = values[-1]
            values[-1] = left + right if cls is IAdd else max(left - right, 0) if cls is ISub else (left + 1) * right
    return values[0]
