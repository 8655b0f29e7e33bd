"""The axiom judgment |- i = i' as a schema matcher.

The nine schemas are matched schematically: metavariables bind arbitrary
individuals, including free program variables and eigenvariables, so
``add(0, m) = m`` is an AX_ADD_0 instance with ``m`` free.  Symmetry is
never applied here; callers try the flipped pair themselves.

Note that AX_MULT_0 reads ``mult(0, i') = i'`` as printed, which makes
``mult`` denote (n+1)*m; the closed evaluator that the tests hold the
schemas sound against reads it the same way.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

from .errors import CheckError
from .syntax import (
    IAdd,
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


def try_match_axiom(i1: Ind, i2: Ind) -> Optional[str]:
    """The schema name instantiating to (i1, i2) exactly, or None.

    AX_REFL is realized as alpha equality and tried first, matching the
    printed order of the axioms.
    """
    if alpha_eq(i1, i2):
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

