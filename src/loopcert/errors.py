"""Error types shared across the toolchain."""

from __future__ import annotations

from typing import Optional, Tuple

Span = Tuple[int, int]


class LoopcertError(Exception):
    pass


class ParseError(LoopcertError):
    def __init__(self, message: str, line: int, col: int, expected: Tuple[str, ...] = ()):
        self.message = message
        self.line = line
        self.col = col
        self.expected = expected
        loc = f"{line}:{col}"
        if expected:
            message = f"{message} (expected one of: {', '.join(expected)})"
        super().__init__(f"parse error at {loc}: {message}")


class CheckError(LoopcertError):
    """A typing failure, carrying the rule label it arose in."""

    def __init__(self, rule: str, message: str, span: Optional[Span] = None, reason: str = "TypeError"):
        self.rule = rule
        self.message = message
        self.span = span
        self.reason = reason
        loc = f" at {span[0]}:{span[1]}" if span else ""
        super().__init__(f"[{rule}]{loc} {message}")


class EvalError(LoopcertError):
    def __init__(self, reason: str, message: str):
        self.reason = reason
        self.message = message
        super().__init__(f"{reason}: {message}")


class FuelExhausted(EvalError):
    def __init__(self, budget: int):
        super().__init__("FuelExhausted", f"step budget of {budget} exhausted")


class StuckTerm(EvalError):
    def __init__(self, message: str):
        super().__init__("StuckTerm", message)


class NonErasable(EvalError):
    def __init__(self, message: str):
        super().__init__("NonErasable", message)
