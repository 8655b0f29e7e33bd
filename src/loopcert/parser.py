"""Concrete ASCII syntax: lexer and recursive-descent parser.

The grammar ships in docs/grammar.ebnf.  Unicode spellings of the logic
symbols are accepted as aliases; the printer emits ASCII only.  The
parser resolves the name of a bound individual to its index as it reads
it (see syntax.py), so it keeps the binders it is under.
"""

from __future__ import annotations

import re
from bisect import bisect_right
from collections import defaultdict
from itertools import accumulate, islice
from typing import Any, Callable, Dict, List, Optional, Tuple

from . import syntax as S
from .errors import ParseError

KEYWORDS = {
    "discipline", "cst", "var", "main", "out", "proc", "for", "until",
    "inc", "dec", "jump", "in", "nat", "top", "bot", "forall", "exists",
    "fn", "lam", "let", "rec", "callcc", "throw", "pack", "succ", "pred",
    "add", "sub", "mult", "F32",
}

_UNICODE = {
    "∀": "forall", "∃": "exists", "⊤": "top", "⊥": "bot",
    "⟨": "<", "⟩": ">", "⋆": "*", "¬": "~",
    "→": "->", "⇒": "=>", "λ": "lam",
}

# The general lexer: one match per token.  Horizontal layout is skipped in
# front of it, and the alternatives are newline, comment, punctuator, word,
# digits and any other character (which `_lex_other` looks at).  A digit
# run that goes on into a non-ASCII digit (str.isdigit, wider than [0-9])
# is left to `_lex_other` too, so int tokens span exactly the isdigit runs.
_TOKEN = re.compile(
    r"[ \t\r]*(?:"
    r"(\n)"
    r"|(//[^\n]*)"
    r"|(:=|:>|<:|=>|->|[{}\[\]()<>,;:.=~*?/])"
    r"|([A-Za-z_]\w*)"
    r"|([0-9]+(?![0-9]|[^\x00-\x7f]))"
    r"|([^ \t\r\n]))"
)
_NEWLINE, _COMMENT, _PUNCT, _WORD, _INT = range(1, 6)  # group 6: any other character
_WORD_TAIL = re.compile(r"\w*")  # str.isalnum() or "_", exactly

# The fast lexer, for text in which every character outside comments is
# layout or lexes without `_lex_other` (no `_ODD` match): comments are
# blanked to spaces, so offsets stay, and one `split` on the token
# alternatives gives layout and tokens in turn.
_COMMENTS = re.compile(r"//([^\n]*)")
_SPLIT = re.compile(
    r"(:=|:>|<:|=>|->|[{}\[\]()<>,;:.=~*?/]|[A-Za-z_]\w*|[0-9]+(?![0-9]|[^\x00-\x7f])|[^ \t\r\n])"
)
_ODD = re.compile(r"[^\x00-\x7f]|[^ \t\r\n\w{}\[\]()<>,;:.=~*?/-]|-(?!>)")

# a token's kind by its value, or for a word or digit run by its first character
_KINDS = {p: "punct" for p in ":= :> <: => -> { } [ ] ( ) < > , ; : . = ~ * ? /".split()}
_KINDS.update((k, "kw") for k in KEYWORDS)
_KINDS.update((d, "int") for d in "0123456789")
_PAD = 2  # how far past the eof token a parser may look


class Tokens:
    """A token stream as parallel lists of kind (ident, kw, int, punct or
    eof), value and start offset, the last token the eof; a token's line
    and column are worked out on demand.  The lists repeat the eof token
    `_PAD` more times, so that a reader may look two tokens past it; len()
    does not count the repeats."""

    __slots__ = ("kinds", "values", "starts", "line_starts")

    def __init__(self, text: str, kinds: List[str], values: List[str], starts: List[int]):
        kinds += ["eof"] * (1 + _PAD)
        values += [""] * (1 + _PAD)
        starts += [len(text)] * (1 + _PAD)
        self.kinds = kinds
        self.values = values
        self.starts = starts
        self.line_starts = [0]
        self.line_starts += accumulate([len(line) + 1 for line in text.split("\n")[:-1]])

    def __len__(self) -> int:
        return len(self.values) - _PAD

    def position(self, k: int) -> S.Span:
        offset = self.starts[k]
        line = bisect_right(self.line_starts, offset)
        return line, offset - self.line_starts[line - 1] + 1


def lex(text: str) -> Tuple[Tokens, List[str]]:
    """The tokens of text, and the `// note:` comments in it."""
    notes = []
    if "//" in text:
        for comment in _COMMENTS.findall(text):
            comment = comment.strip()
            if comment.startswith("note:"):
                notes.append(comment[5:].strip())
        clean = _COMMENTS.sub(lambda m: " " * len(m.group()), text)
    else:
        clean = text
    if _ODD.search(clean) is not None:
        return _lex_general(text), notes
    parts = _SPLIT.split(clean)
    values = parts[1::2]
    starts = list(islice(accumulate(map(len, parts)), 0, len(parts) - 1, 2))
    kinds_of = _KINDS.get
    kinds = [kinds_of(v) or kinds_of(v[0]) or "ident" for v in values]
    return Tokens(text, kinds, values, starts), notes


def _lex_general(text: str) -> Tokens:
    kinds: List[str] = []
    values: List[str] = []
    starts: List[int] = []
    match = _TOKEN.match
    pos = 0
    while True:
        m = match(text, pos)
        if m is None:  # only layout is left
            break
        group = m.lastindex
        start, pos = m.span(group)
        if group == _PUNCT or group == _WORD or group == _INT:
            value = text[start:pos]
            if group == _WORD:
                kinds.append("kw" if value in KEYWORDS else "ident")
            else:
                kinds.append("punct" if group == _PUNCT else "int")
            values.append(value)
            starts.append(start)
        elif group != _NEWLINE and group != _COMMENT:
            pos = _lex_other(text, start, kinds, values, starts)
    return Tokens(text, kinds, values, starts)


def _lex_other(text: str, pos: int, kinds: List[str], values: List[str], starts: List[int]) -> int:
    """One token at a character outside the ASCII fast paths: a Unicode
    alias, a digit run, or an identifier; returns the offset after it."""
    ch = text[pos]
    alias = _UNICODE.get(ch)
    end = pos + 1
    if alias is not None:
        kind, value = "kw" if alias in KEYWORDS else "punct", alias
    elif ch.isdigit():
        while end < len(text) and text[end].isdigit():
            end += 1
        kind, value = "int", text[pos:end]
    elif ch.isalpha():
        end = _WORD_TAIL.match(text, end).end()
        value = text[pos:end]
        kind = "kw" if value in KEYWORDS else "ident"
    else:
        line = text.count("\n", 0, pos) + 1
        raise ParseError(f"unsupported character {ch!r}", line, pos - text.rfind("\n", 0, pos))
    kinds.append(kind)
    values.append(value)
    starts.append(pos)
    return end


_UNARY_IND = {"succ": S.ISucc, "pred": S.IPred, "F32": S.IF32}
_BINARY_IND = {"add": S.IAdd, "sub": S.ISub, "mult": S.IMult}
_IND_OPERATORS = frozenset(_UNARY_IND) | frozenset(_BINARY_IND)
_SEQ_ENDS = frozenset({"}", ")", ""})  # "" is the value of the eof token
_TERM_ARG_STARTS = frozenset({"<", "(", "succ", "pred", "rec", "pack"})


class Parser:
    def __init__(self, text: str):
        self.tokens, self.notes = lex(text)
        self.kinds = self.tokens.kinds
        self.values = self.tokens.values
        self.last = len(self.tokens) - 1  # the eof token
        self.pos = 0
        self.warnings: List[str] = []
        self._fresh = 0
        self._spelt: Optional[frozenset] = None  # every token value, once a fresh name is asked for
        self.binders: List[Optional[str]] = []  # of the binders over individuals around, innermost last
        # each name's positions in binders, innermost last: a bound name is
        # resolved without a walk of binders
        self.where: Dict[Optional[str], List[int]] = defaultdict(list)

    # -- token plumbing -----------------------------------------------------
    # The hot paths below read self.values and self.kinds directly.  A
    # punctuator or keyword is known by its value alone: no identifier or
    # numeral is spelt like one.

    def at(self, value: str) -> bool:
        return self.values[self.pos] == value

    def eat(self, value: str) -> None:
        if self.values[self.pos] != value:
            raise self._found((value,))
        self.pos += 1

    def eat_ident(self) -> str:
        pos = self.pos
        if self.kinds[pos] != "ident":
            raise self._found(("identifier",))
        self.pos = pos + 1
        return self.values[pos]

    def _found(self, expected: Tuple[str, ...]) -> ParseError:
        k = min(self.pos, self.last)
        shown = self.values[k] if self.kinds[k] != "eof" else "end of input"
        return ParseError(f"found {shown!r}", *self.tokens.position(k), expected)

    def number(self) -> int:
        """Consume an int token.  The lexer keeps a run of `isdigit`
        characters whole, so a non-decimal digit such as '²' fails here,
        and so does a numeral longer than `int` converts
        (sys.get_int_max_str_digits)."""
        pos = self.pos
        value = self.values[pos]
        if pos < self.last:
            self.pos = pos + 1
        if value.isdecimal():
            try:
                return int(value)
            except ValueError:
                problem = f"a numeral of {len(value)} digits is too long"
        else:
            problem = f"{value!r} is not a decimal numeral"
        raise ParseError(problem, *self.tokens.position(pos))

    def span(self) -> S.Span:
        return self.tokens.position(self.pos)

    def fail(self, what: str) -> ParseError:
        return self._found((what,))

    def fresh_name(self) -> str:
        """A tuple pattern's parameter: `_w<n>` for the next n at which it
        spells no token of the input, so that it captures no name."""
        if self._spelt is None:
            self._spelt = frozenset(self.values)
        self._fresh += 1
        while f"_w{self._fresh}" in self._spelt:
            self._fresh += 1
        return f"_w{self._fresh}"

    def open(self, name: Optional[str]) -> None:
        """Open a binder of name over what is read next."""
        self.where[name].append(len(self.binders))
        self.binders.append(name)

    def close(self, start: int) -> None:
        """Close the binders opened since there were start of them."""
        binders, where = self.binders, self.where
        while len(binders) > start:
            where[binders.pop()].pop()

    def bound(self, parse: Callable[[], Any], name: str) -> Any:
        """parse() under a binder of name."""
        positions = self.where[name]
        positions.append(len(self.binders))
        self.binders.append(name)
        value = parse()
        self.binders.pop()
        positions.pop()
        return value

    def prefix(self) -> str:
        """A binder prefix: the token at pos and `x.`; returns x.  The token
        is a `forall`/`exists`/`lam` keyword, the `?` of an unpack or the
        `{` of a motive."""
        self.pos += 1
        var = self.eat_ident()
        self.eat(".")
        return var

    def binder(self, cls: type, parse: Callable[[], Any], *tail: Any) -> Any:
        """A binder prefix and then parse() under it, as cls(x, body, *tail)."""
        var = self.prefix()
        return cls(var, self.bound(parse, var), *tail)

    def family(self, parse: Callable[[], Any]) -> S.Fam:
        """`{x/…}`, with the body read by parse() under a binder of x."""
        self.eat("{")
        var = self.eat_ident()
        self.eat("/")
        fam = S.Fam(var, self.bound(parse, var))
        self.eat("}")
        return fam

    def coercion(self, cls: type, subject: Any, parse_type: Callable[[], Any],
                 parse_proof: Callable[[], Any], span: S.Span) -> Any:
        """`:> {x/type}[proof]` after subject, as cls(subject, family, proof)."""
        self.pos += 1
        fam = self.family(parse_type)
        self.eat("[")
        proof = parse_proof()
        self.eat("]")
        return cls(subject, fam, proof, span=span)

    def items(self, parse: Callable[[], Any], close: str, nonempty: bool = False) -> Tuple[Any, ...]:
        """A comma list of parse() items up to the token close, which is
        read too; an empty list only when nonempty is false."""
        out = []
        if nonempty or self.values[self.pos] != close:
            out.append(parse())
            while self.values[self.pos] == ",":
                self.pos += 1
                out.append(parse())
        self.eat(close)
        return tuple(out)

    # -- individuals ----------------------------------------------------------

    def parse_ind(self) -> S.Ind:
        pos = self.pos
        kind = self.kinds[pos]
        value = self.values[pos]
        if kind == "int":
            return S.num_ind(self.number())
        if kind == "ident":
            self.pos = pos + 1
            positions = self.where.get(value)
            if positions:
                return S.IBound(len(self.binders) - 1 - positions[-1])
            return S.IVar(value)
        if kind == "kw":
            unary = _UNARY_IND.get(value)
            if unary is not None:
                self.pos = pos + 1
                self.eat("(")
                arg = self.parse_ind()
                self.eat(")")
                return unary(arg)
            binary = _BINARY_IND.get(value)
            if binary is not None:
                self.pos = pos + 1
                self.eat("(")
                left = self.parse_ind()
                self.eat(",")
                right = self.parse_ind()
                self.eat(")")
                return binary(left, right)
        if value == "(":
            self.pos = pos + 1
            inner = self.parse_ind()
            self.eat(")")
            return inner
        raise self.fail("individual")

    def _no_ind_at(self, pos: int) -> bool:
        """True when parse_ind at pos is sure to fail, as the next tokens
        show; False when it may succeed."""
        kinds, values = self.kinds, self.values
        kind = kinds[pos]
        if kind == "int":
            return not values[pos].isdecimal()
        if kind == "ident":
            return False
        value = values[pos]
        if value == "(":
            kind = kinds[pos + 1]
            if kind == "ident" or kind == "int" and values[pos + 1].isdecimal():
                return values[pos + 2] != ")"
            return self._no_ind_at(pos + 1)
        return value not in _IND_OPERATORS

    def try_equation(self) -> Optional[Tuple[S.Ind, S.Ind]]:
        """`ind = ind`, or None with nothing consumed.  The next tokens
        decide in most cases; otherwise a parse is tried and given back."""
        save = self.pos
        if self._no_ind_at(save):
            return None
        if self.kinds[save] == "ident" or self.kinds[save] == "int":
            if self.values[save + 1] != "=":  # a one-token individual is all of the left side
                return None
        try:
            left = self.parse_ind()
            if self.values[self.pos] != "=":
                self.pos = save
                return None
            self.pos += 1
            if self._no_ind_at(self.pos):
                self.pos = save
                return None
            right = self.parse_ind()
            return left, right
        except ParseError:
            self.pos = save
            return None

    # -- formulas -------------------------------------------------------------

    def parse_formula(self) -> S.Formula:
        value = self.values[self.pos]
        if value == "forall" or value == "exists":
            return self.binder(S.FForall if value == "forall" else S.FExists, self.parse_formula)
        left = self.parse_formula_unit()
        if self.values[self.pos] == "->":
            self.pos += 1
            return S.FArrow(left, self.parse_formula())
        return left

    def parse_formula_unit(self) -> S.Formula:
        if self.values[self.pos] == "~":
            self.pos += 1
            if self.at("forall") or self.at("exists"):
                return S.neg_f(self.parse_formula())
            return S.neg_f(self.parse_formula_unit())
        if self.values[self.pos] == "<":  # no equation begins with '<'
            self.pos += 1
            phi = S.FTuple(self.items(self.parse_formula, ">"))
        else:
            phi = self._type_atom("formula", self.parse_formula)
        self._reject_meta_subst()
        return phi

    def _type_atom(self, what: str, parse_inner: Callable[[], Any]) -> Any:
        """An atom of both type languages, or a parenthesised `parse_inner`
        phrase; a failure expects `what`."""
        eq = self.try_equation()
        if eq is not None:
            return S.FEq(*eq)
        pos = self.pos
        value = self.values[pos]
        if self.kinds[pos] == "ident":
            self.pos = pos + 1
            return S.FProp(value)
        if value == "nat":
            self.pos = pos + 1
            if self.values[pos + 1] == "(":
                self.pos = pos + 2
                idx = self.parse_ind()
                self.eat(")")
                return S.FNat(idx)
            return S.FNat(None)
        if value == "top":
            self.pos = pos + 1
            return S.FTop()
        if value == "bot":
            self.pos = pos + 1
            return S.FBot()
        if value == "(":
            self.pos = pos + 1
            inner = parse_inner()
            self.eat(")")
            return inner
        raise self.fail(what)

    def _reject_meta_subst(self) -> None:
        # the grammar lists phi[x=i] but no rule consumes it
        pos = self.pos
        if self.values[pos] == "[" and self.kinds[pos + 1] == "ident" and self.values[pos + 2] == "=":
            raise ParseError(
                "unsupported construct: meta-substitution 'phi[x = i]' is in the "
                "grammar but used by no rule",
                *self.span(),
            )

    # -- imperative-side types ------------------------------------------------

    def parse_prop(self) -> S.Prop:
        value = self.values[self.pos]
        if value == "proc":
            self.pos += 1
            return S.proc_t(self.parse_proto())
        if value != "~":
            p = self._type_atom("type", self.parse_prop)
            self._reject_meta_subst()
            return p
        # a negation: of a parenthesised list, of an output, or of one prop
        self.pos += 1
        if self.at("("):
            self.pos += 1
            return S.PNeg(S.OSimple(self.items(self.parse_prop, ")", nonempty=True)))
        if self.at("[") or self.at("exists"):
            return S.PNeg(self.parse_output())
        return S.PNeg(S.OSimple((self.parse_prop(),)))

    def parse_output(self) -> S.Output:
        if self.at("exists"):
            return self.binder(S.OExists, self.parse_output)
        self.eat("[")
        return S.OSimple(self.items(self.parse_prop, "]"))

    def parse_proto(self) -> S.Proto:
        if self.at("forall"):
            return self.binder(S.ProtoAll, self.parse_proto)
        self.eat("(")
        self.eat("[")
        params = self.items(self.parse_prop, "]")
        self.eat("out")
        out = self.parse_output()
        self.eat(")")
        return S.ProtoBase(params, out)

    def parse_bindings(self, close: str, types: Callable[[], Any]) -> S.Env:
        """A comma list of `x : type` up to the token close, each type read
        by types()."""

        def binding() -> Tuple[str, Any]:
            name = self.eat_ident()
            self.eat(":")
            return name, types()

        return self.items(binding, close)

    def parse_qenv(self) -> S.QEnv:
        if self.at("exists"):
            return self.binder(S.QExists, self.parse_qenv)
        self.eat("[")
        return S.QSimple(self.parse_bindings("]", self.parse_prop))

    # -- imperative expressions -------------------------------------------------

    def parse_expr(self) -> S.Expr:
        start = self.pos
        eq = self.try_equation()
        if eq is not None:
            return S.EAxiom(*eq, span=self.tokens.position(start))
        return self.parse_expr_post()

    def parse_expr_post(self) -> S.Expr:
        e = self.parse_expr_atom()
        values = self.values
        while True:
            pos = self.pos
            value = values[pos]
            if value == "{":
                # an instantiation e{i}, unless the '{' opens a loop or block body
                kind = self.kinds[pos + 1]
                if kind == "ident" or kind == "int" and values[pos + 1].isdecimal():
                    if values[pos + 2] != "}":
                        return e
                    self.pos = pos + 1
                    arg = self.parse_ind()
                    self.pos += 1
                elif self._no_ind_at(pos + 1):
                    return e
                else:
                    try:
                        self.pos = pos + 1
                        arg = self.parse_ind()
                        self.eat("}")
                    except ParseError:
                        self.pos = pos
                        return e
                e = S.EInst(e, arg, span=self.tokens.position(pos))
            elif value == "<:":
                self.pos = pos + 1
                fam = self.family(self.parse_output)
                self.eat("{")
                arg = self.parse_ind()
                self.eat("}")
                e = S.EContInst(e, fam, arg, span=self.tokens.position(pos))
            elif value == ":>":
                e = self.coercion(S.ECoerce, e, self.parse_prop, self.parse_expr, self.tokens.position(pos))
            else:
                return e

    def parse_expr_atom(self) -> S.Expr:
        pos = self.pos
        span = self.tokens.position(pos)
        kind = self.kinds[pos]
        value = self.values[pos]
        if kind == "ident":
            self.pos = pos + 1
            return S.EVar(value, span=span)
        if kind == "int":
            return S.ENum(self.number(), span=span)
        if value == "succ":
            return S.ENum(self._parse_numeral(), span=span)
        if value == "*":
            self.pos = pos + 1
            return S.EStar(span=span)
        if value == "proc":
            self.pos = pos + 1
            return S.EProc(self.parse_header(), span=span)
        if value == "(":
            self.pos = pos + 1
            inner = self.parse_expr()
            self.eat(")")
            return inner
        raise self.fail("expression")

    def _parse_numeral(self) -> int:
        if self.kinds[self.pos] == "int":
            return self.number()
        self.eat("succ")
        self.eat("(")
        value = self._parse_numeral() + 1
        self.eat(")")
        return value

    def parse_header(self) -> S.Header:
        if self.at("forall"):
            return self.binder(S.HForall, self.parse_header)
        self.eat("[")
        params = self.parse_bindings("]", self.parse_prop)
        self.eat("out")
        out = self.parse_qenv()
        self.eat("{")
        body = self.parse_seq()
        self.eat("}")
        return S.HBase(params, out, body)

    # -- sequences and commands ---------------------------------------------

    def parse_seq(self) -> S.Seq:
        """A sequence, item by item in a loop, as a flat tuple of items.
        A `?n.` binds n over the items after it, to the end of the
        sequence.  A `(...)` group that no `:>` follows is spliced in, and
        a `?n.` in it scopes over the rest of the sequence too."""
        values = self.values
        start = len(self.binders)
        items: List[Any] = []
        coerced = False  # whether a group spliced in ended with a ':>' group
        while True:
            pos = self.pos
            value = values[pos]
            if value in _SEQ_ENDS:
                break
            if value == "cst":
                span = self.tokens.position(pos)
                self.pos = pos + 1
                name = self.eat_ident()
                self.eat("=")
                items.append(S.SCst(name, self.parse_expr(), span=span))
                self.eat(";")
            elif value == "var":
                span = self.tokens.position(pos)
                self.pos = pos + 1
                name = self.eat_ident()
                if self.at(":="):
                    self.pos += 1
                    init = self.parse_expr()
                else:
                    init = S.EStar(span=span)
                    self.warnings.append(
                        f"{span[0]}:{span[1]}: 'var {name};' desugared to 'var {name} := *;'"
                    )
                self.eat(";")
                items.append(S.SVar(name, init, span=span))
            elif value == "?":
                var = self.prefix()
                self.open(var)
                items.append(S.SUnpack(var, span=self.tokens.position(pos)))
            elif value == "[":
                span = self.tokens.position(pos)
                self.pos = pos + 1
                witness = self.parse_ind()
                self.eat("in")
                ann = self.parse_qenv()
                self.eat("]")
                if self.at(";"):
                    self.pos += 1
                items.append(S.SWitness(witness, ann, span=span))
            elif value == "(":
                span = self.tokens.position(pos)
                self.pos = pos + 1
                group = self.parse_seq()
                self.eat(")")
                if self.at(":>"):
                    items.append(self.coercion(S.SSubst, group, self.parse_qenv, self.parse_expr, span))
                    if self.at(";"):
                        self.pos += 1
                    if values[self.pos] not in _SEQ_ENDS:
                        raise self.fail("end of sequence after ':>' coercion")
                    break
                if self.at(";"):
                    self.pos += 1
                for item in group.items:
                    if type(item) is S.SUnpack:
                        self.open(item.var)
                items += group.items
                coerced = coerced or bool(items) and type(items[-1]) is S.SSubst
            else:
                items.append(self.parse_command())
        if coerced:
            # a ':>' group ends its sequence: report the first item after one
            for item, follower in zip(items, items[1:]):
                if type(item) is S.SSubst:
                    raise ParseError("a ':>'-coerced sequence cannot be followed by commands", *follower.span)
        if len(self.binders) > start:  # the sequence's '?n.'s
            self.close(start)
        return S.Seq(tuple(items), span=self.span())

    def parse_command(self) -> S.Command:
        pos = self.pos
        span = self.tokens.position(pos)
        values = self.values
        value = values[pos]
        if value == "inc" or value == "dec":
            self.pos = pos + 1
            self.eat("(")
            name = self.eat_ident()
            self.eat(")")
            self.eat(";")
            return (S.CInc if value == "inc" else S.CDec)(name, span=span)
        if value == "jump":
            self.pos = pos + 1
            self.eat("(")
            target, *args = self.items(self.parse_expr, ")", nonempty=True)
            ann = self.parse_qenv()
            self.eat(";")
            return S.CJump(target, tuple(args), ann, span=span)
        if value == "for":
            self.pos = pos + 1
            var = self.eat_ident()
            idx: Optional[str] = None
            if self.at(":"):
                self.pos += 1
                self.eat("nat")
                self.eat("(")
                idx = self.eat_ident()
                self.eat(")")
            self.eat(":=")
            if self.kinds[self.pos] != "int" or values[self.pos] != "0":
                raise ParseError("for loops start at literal 0", *self.span())
            self.pos += 1
            self.eat("until")
            bound = self.parse_expr()
            self.eat("{")
            self.open(idx)  # over the body and the frame; None for no name
            body = self.parse_seq()
            self.eat("}")
            self.eat("[")
            frame = self.parse_bindings("]", self.parse_prop)
            self.close(len(self.binders) - 1)
            self.eat(";")
            return S.CFor(var, idx, bound, body, frame, span=span)
        if value == "{":
            self.pos = pos + 1
            body = self.parse_seq()
            self.eat("}")
            ann = self.parse_qenv()
            self.eat(";")
            return S.CBlock(body, ann, span=span)
        if self.kinds[pos] == "ident":
            if values[pos + 1] == ":=":
                self.pos = pos + 2
                assigned = self.parse_expr()
                self.eat(";")
                return S.CAssign(value, assigned, span=span)
            if values[pos + 1] == ":" and values[pos + 2] == "{":
                self.pos = pos + 3
                body = self.parse_seq()
                self.eat("}")
                ann = self.parse_qenv()
                self.eat(";")
                return S.CLabel(value, body, ann, span=span)
        # a call: expr '(' args ';' outs ')'
        fn = self.parse_expr_post()
        self.eat("(")
        args = self.items(self.parse_expr, ";")
        outs = self.items(self.eat_ident, ")", nonempty=True)
        self.eat(";")
        return S.CCall(fn, args, outs, span=span)

    # -- functional terms -----------------------------------------------------

    def parse_term(self) -> S.Term:
        """A term.  A chain of `let`s and `?n.`s, as long as the sequence
        an image translates, is read in a loop and put together innermost
        first."""
        values = self.values
        chain: List[Tuple[Any, ...]] = []  # (class, binder, bound value or None, span)
        start = len(self.binders)
        while True:
            pos = self.pos
            value = values[pos]
            if value == "let":
                span = self.tokens.position(pos)
                self.pos = pos + 1
                if self.at("<"):
                    self.pos += 1
                    cls, binder = S.TLetMatch, self.items(self.eat_ident, ">")
                else:
                    cls, binder = S.TLet, self.eat_ident()
                self.eat("=")
                bound = self.parse_term()
                self.eat("in")
                chain.append((cls, binder, bound, span))
            elif value == "?":
                var = self.prefix()
                self.open(var)
                chain.append((S.TUnpack, var, None, self.tokens.position(pos)))
            else:
                break
        term = self._parse_term_rest()
        if len(self.binders) > start:  # the chain's '?n.'s
            self.close(start)
        for cls, binder, bound, span in reversed(chain):
            if cls is S.TUnpack:
                term = S.TUnpack(binder, term, span=span)
            else:
                term = cls(binder, bound, term, span=span)
        return term

    def _parse_term_rest(self) -> S.Term:
        pos = self.pos
        span = self.tokens.position(pos)
        value = self.values[pos]
        if value == "fn":
            self.pos = pos + 1
            return self.parse_fn_tail(span)
        if value == "lam":
            return self.binder(S.TIndLam, self.parse_term, span)
        if value == "callcc":
            self.pos = pos + 1
            return S.TCallcc(self.parse_term(), span=span)
        if value == "throw":
            self.pos = pos + 1
            self.eat("[")
            ann = self.parse_formula()
            self.eat("]")
            cont = self.parse_term_atom()
            arg = self.parse_term_atom()
            return S.TThrow(ann, cont, arg, span=span)
        eq = self.try_equation()
        if eq is not None:
            return S.TAxiom(*eq, span=span)
        term = self.parse_term_app()
        while self.at(":>"):
            term = self.coercion(S.TCoerce, term, self.parse_formula, self.parse_term, span)
        return term

    def parse_fn_tail(self, span: S.Span) -> S.Term:
        if self.at("("):
            # tuple pattern sugar: fn (x : a, y : b) => t
            self.pos += 1
            params = self.parse_bindings(")", self.parse_formula)
            self.eat("=>")
            body = self.parse_term()
            fresh = self.fresh_name()
            names = tuple(p[0] for p in params)
            anns = tuple(p[1] for p in params)
            return S.TFn(
                fresh,
                S.FTuple(anns),
                S.TLetMatch(names, S.TVar(fresh), body),
                span=span,
            )
        name = self.eat_ident()
        self.eat(":")
        ann = self.parse_formula()
        self.eat("=>")
        return S.TFn(name, ann, self.parse_term(), span=span)

    def parse_term_app(self) -> S.Term:
        term = self.parse_term_atom()
        kinds, values = self.kinds, self.values
        while True:
            pos = self.pos
            value = values[pos]
            if value == "{":
                self.pos = pos + 1
                arg = self.parse_ind()
                self.eat("}")
                term = S.TIndApp(term, arg, span=self.tokens.position(pos))
                continue
            kind = kinds[pos]
            if kind == "ident" or kind == "int" or value in _TERM_ARG_STARTS:
                term = S.TApp(term, self.parse_term_atom(), span=self.tokens.position(pos))
                continue
            return term

    def parse_term_atom(self) -> S.Term:
        pos = self.pos
        span = self.tokens.position(pos)
        kind = self.kinds[pos]
        value = self.values[pos]
        if kind == "ident":
            self.pos = pos + 1
            return S.TVar(value, span=span)
        if kind == "int":
            term: S.Term = S.TZero(span=span)
            for _ in range(self.number()):
                term = S.TSucc(term, span=span)
            return term
        if value == "succ" or value == "pred":
            self.pos = pos + 1
            self.eat("(")
            arg = self.parse_term()
            self.eat(")")
            return (S.TSucc if value == "succ" else S.TPred)(arg, span=span)
        if value == "<":
            self.pos = pos + 1
            return S.TTuple(self.items(self.parse_term, ">"), span=span)
        if value == "rec":
            self.pos = pos + 1
            motive: Optional[S.Fam] = None
            if self.at("{"):
                motive = self.binder(S.Fam, self.parse_formula)
                self.eat("}")
            self.eat("(")
            bound = self.parse_term()
            self.eat(",")
            base = self.parse_term()
            self.eat(",")
            step = self.parse_term()
            self.eat(")")
            return S.TRec(bound, base, step, motive, span=span)
        if value == "pack":
            self.pos = pos + 1
            self.eat("(")
            witness = self.parse_ind()
            self.eat(",")
            packed = self.parse_term()
            self.eat(":")
            ann = self.parse_formula()
            self.eat(")")
            return S.TPack(witness, packed, ann, span=span)
        if value == "(":
            self.pos = pos + 1
            inner = self.parse_term()
            self.eat(")")
            return inner
        raise self.fail("term")

    # -- files ----------------------------------------------------------------

    def parse_file(self) -> S.SourceFile:
        self.eat("discipline")
        pos = self.pos
        discipline = self.values[pos]
        if self.kinds[pos] != "ident" or discipline not in ("IS", "ID", "FS", "FD"):
            raise ParseError(f"unknown discipline {discipline!r}", *self.span(), ("IS", "ID", "FS", "FD"))
        self.pos = pos + 1
        self.eat(";")
        functional = discipline in ("FS", "FD")
        csts: List[Tuple[str, Any]] = []
        main: Optional[Any] = None
        while self.at("cst"):
            self.pos += 1
            name = self.eat_ident()
            self.eat("=")
            value: Any = self.parse_term() if functional else self.parse_expr()
            self.eat(";")
            csts.append((name, value))
        if self.at("main"):
            span = self.span()
            self.pos += 1
            if functional:
                self.eat("=")
                term = self.parse_term()
                self.eat(";")
                main = S.MainF(term, span=span)
            else:
                self.eat("{")
                body = self.parse_seq()
                self.eat("}")
                self.eat("out")
                out = self.parse_qenv()
                if self.at(";"):
                    self.pos += 1
                main = S.MainI(body, out, span=span)
        if self.kinds[self.pos] != "eof":
            raise ParseError(f"unexpected {self.values[self.pos]!r}", *self.span())
        return S.SourceFile(
            discipline,
            tuple(csts),
            main,
            notes=tuple(self.notes),
            warnings=tuple(self.warnings),
        )


def parse(text: str) -> S.SourceFile:
    """Parse a source file."""
    return Parser(text).parse_file()


def _parse_whole(text: str, production: Callable[[Parser], Any]) -> Any:
    """Parse all of text as one production, or raise ParseError."""
    p = Parser(text)
    node = production(p)
    if p.kinds[p.pos] != "eof":
        raise p.fail("end of input")
    return node


def parse_term(text: str) -> S.Term:
    return _parse_whole(text, Parser.parse_term)


def parse_formula(text: str) -> S.Formula:
    return _parse_whole(text, Parser.parse_formula)


def parse_prop(text: str) -> S.Prop:
    return _parse_whole(text, Parser.parse_prop)


def parse_expr(text: str) -> S.Expr:
    return _parse_whole(text, Parser.parse_expr)


def parse_seq(text: str) -> S.Seq:
    return _parse_whole(text, Parser.parse_seq)


def parse_qenv(text: str) -> S.QEnv:
    return _parse_whole(text, Parser.parse_qenv)
