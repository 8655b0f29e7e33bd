"""Environment judgments: lookup, update, append, subset, restrict,
split, init, zip and their quantified-environment variants.

Environments are ordered ident:type lists; lookup returns the rightmost
binding and update rebinds the rightmost occurrence, so shadowing and
ordering are observable (split exposes the order, and the translation's
tuple layout follows it).  The imperative checkers keep their stores and
constants in these.

The functional checkers keep their term environment in a scoped map
instead: one dict per check, where `bind` sets a name before a binder's
body is checked and `unbind` puts back what it shadowed afterwards.  A
lookup is a dict lookup that sees the innermost binding, which is the
rightmost one of the tuple environment the map stands for.
"""

from __future__ import annotations

from typing import Any, Optional, Tuple

from .errors import CheckError
from .syntax import (
    Env,
    Output,
    OExists,
    OSimple,
    QEnv,
    QExists,
    QSimple,
    alpha_eq,
)


_UNBOUND = object()


def bind(scope: dict, name: str, ty: Any) -> Any:
    """Bind name in a scoped map; returns what unbind needs to undo it."""
    shadowed = scope.get(name, _UNBOUND)
    scope[name] = ty
    return shadowed


def unbind(scope: dict, name: str, shadowed: Any) -> None:
    if shadowed is _UNBOUND:
        del scope[name]
    else:
        scope[name] = shadowed


def bind_all(scope: dict, names: Tuple[str, ...], types: Tuple[Any, ...]) -> list:
    """Bind names left to right, so a repeated name ends on its last type."""
    return [bind(scope, name, ty) for name, ty in zip(names, types)]


def unbind_all(scope: dict, names: Tuple[str, ...], shadowed: list) -> None:
    """Undo bind_all right to left, so a repeated name gets its outer value."""
    for k in range(len(shadowed) - 1, -1, -1):
        unbind(scope, names[k], shadowed[k])


def lookup(env: Env, name: str) -> Optional[Any]:
    """Rightmost binding of name, or None (LOOKUP_I/II)."""
    for ident, ty in reversed(env):
        if ident == name:
            return ty
    return None


def require(env: Env, name: str, rule: str, span=None) -> Any:
    ty = lookup(env, name)
    if ty is None:
        raise CheckError(rule, f"unbound ident '{name}'", span=span, reason="NotFound")
    return ty


def lookup_many(env: Env, names: Tuple[str, ...], rule: str, span=None) -> Tuple[Any, ...]:
    return tuple([require(env, x, rule, span) for x in names])


def update(env: Env, name: str, ty: Any, rule: str = "UPDATE", span=None) -> Env:
    """Rebind the rightmost occurrence; UPDATE has no insertion case."""
    out = list(env)
    for k in range(len(out) - 1, -1, -1):
        if out[k][0] == name:
            out[k] = (name, ty)
            return tuple(out)
    raise CheckError(rule, f"cannot update undeclared ident '{name}'", span=span, reason="NotFound")


def multi_update(env: Env, bindings: Env, rule: str = "MULTI_UPDATE", span=None) -> Env:
    for name, ty in bindings:
        env = update(env, name, ty, rule, span)
    return env


def append(env: Env, more: Env) -> Env:
    return env + more


def subset(small: Env, big: Env, rule: str = "TC_SUBSET", span=None) -> None:
    """Each binding of the small env occurs (rightmost, alpha-equal) in the big."""
    for name, ty in small:
        found = lookup(big, name)
        if found is None:
            raise CheckError(
                rule, f"ident '{name}' not present in the store", span=span, reason="SubsetViolation"
            )
        if not alpha_eq(found, ty):
            from .printer import show

            raise CheckError(
                rule,
                f"ident '{name}' has type {show(found)}, the annotation requires {show(ty)}",
                span=span,
                reason="SubsetViolation",
            )


def restrict(env: Env, names: Tuple[str, ...], rule: str = "TC_RESTRICT", span=None) -> Env:
    return tuple([(x, require(env, x, rule, span)) for x in names])


def split(env: Env) -> Tuple[Tuple[str, ...], Tuple[Any, ...]]:
    if not env:
        return (), ()
    names, types = zip(*env)
    return tuple(names), tuple(types)


def init(names: Tuple[str, ...], ty: Any) -> Env:
    return tuple([(x, ty) for x in names])


def zip_env(names: Tuple[str, ...], types: Tuple[Any, ...], rule: str = "TC_ZIP", span=None) -> Env:
    if len(names) != len(types):
        raise CheckError(
            rule,
            f"{len(names)} idents for {len(types)} types",
            span=span,
            reason="LengthMismatch",
        )
    return tuple(zip(names, types))


def qsplit(qenv: QEnv) -> Tuple[Tuple[str, ...], Output]:
    """Split a quantified environment into idents and a quantified output."""
    cls = type(qenv)
    if cls is QSimple:
        names, types = split(qenv.env)
        return names, OSimple(types)
    if cls is QExists:
        names, out = qsplit(qenv.body)
        return names, OExists(qenv.var, out)
    raise AssertionError(qenv)


def qzip(names: Tuple[str, ...], out: Output, rule: str = "TC_QZIP", span=None) -> QEnv:
    cls = type(out)
    if cls is OSimple:
        return QSimple(zip_env(names, out.types, rule, span))
    if cls is OExists:
        return QExists(out.var, qzip(names, out.body, rule, span))
    raise AssertionError(out)


def belongs(name: str, qenv: QEnv) -> bool:
    """Membership in a quantified environment (BELONGS_I/II)."""
    cls = type(qenv)
    if cls is QSimple:
        return lookup(qenv.env, name) is not None
    if cls is QExists:
        return belongs(name, qenv.body)
    raise AssertionError(qenv)


def notin(name: str, qenv: QEnv) -> bool:
    return not belongs(name, qenv)
