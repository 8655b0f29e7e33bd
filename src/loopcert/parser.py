"""Concrete ASCII syntax: lexer and recursive-descent parser.

The grammar ships in docs/grammar.ebnf.  Unicode spellings of the logic
symbols are accepted as aliases; the printer emits ASCII only.  A token
is its value, the text it spells (an alias its ASCII spelling), and its
kind is looked up by value.  A parsed node's span is a `Mark`: the index
of its first token, whose line and column are worked out only when the
span is shown.  The parser resolves the name of a bound individual to
its index as it reads it (see syntax.py), so it keeps the binders it is
under.
"""

from __future__ import annotations

import re
from collections import defaultdict
from functools import partial
from itertools import islice
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

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

# The ASCII lexer: comments go, each punctuator gets a space on either side
# and str.split cuts the text at layout.  A two-character one goes through a
# stand-in outside ASCII, in an order that reads overlaps as the general
# lexer does (`<:=` as `<:` `=`, `:=>` as `:=` `>`).  A piece that is no
# token (a stray character, digits run into a word, or "\x00" for a control
# character that str.split takes for layout) leaves the text to that lexer.
_COMMENTS = re.compile(r"//([^\n]*)")
_PAIRS = {p: chr(0x80 + k) for k, p in enumerate(("<:", ":=", ":>", "=>", "->"))}  # and their stand-ins
_SPACING = [*_PAIRS.items(), *((c, f" {c} ") for c in "{}[]()<>,;:.=~*?/"),
            *((s, f" {p} ") for p, s in _PAIRS.items()), *((c, "\x00") for c in "\x0b\x0c\x1c\x1d\x1e\x1f")]

# The general lexer: one match per token after horizontal layout, in groups
# newline, comment, a punctuator, word or digit run as it stands, and any
# other character (which `_lex_other` looks at).  A digit run that goes on
# into a non-ASCII digit (str.isdigit, wider than [0-9]) is left to
# `_lex_other` too, so int tokens span exactly the isdigit runs.
_TOKEN = re.compile(r"[ \t\r]*(?:(\n)|(//[^\n]*)|(:=|:>|<:|=>|->|[{}\[\]()<>,;:.=~*?/]|[A-Za-z_]\w*"
                    r"|[0-9]+(?![0-9]|[^\x00-\x7f]))|([^ \t\r\n]))")
_COMMENT, _OTHER = 2, 4
_LAYOUT = re.compile(r"(?:[ \t\r\n]+|//[^\n]*)*")  # comments too
_TAILED = re.compile(r"(?::=|:>|<:|=>|->|[A-Za-z_]\w*|[0-9]+|[^ \t\r\n])" + _LAYOUT.pattern)  # an ASCII token, layout
_WORD_TAIL = re.compile(r"\w*")  # str.isalnum() or "_", exactly

# the kind of a punctuator, keyword or the eof token ""; see _word_kinds
_KINDS = {p: "punct" for p in ":= :> <: => -> { } [ ] ( ) < > , ; : . = ~ * ? /".split()}
_KINDS.update((k, "kw") for k in KEYWORDS)
_KINDS[""] = "eof"
_PAD = 2  # how far past the eof token a parser may look


def _word_kinds(values: List[str]) -> Dict[str, str]:
    """The kind of each value that is no punctuator or keyword: int or
    ident, or odd for a piece of ASCII text that is no token."""
    return {word: "int" if word.isdigit() else "ident" if word.isidentifier() or not word.isascii() else "odd"
            for word in set(values).difference(_KINDS)}


class Source:
    """A text, and where its tokens start as far as a place was asked for: in
    ASCII text the ends of `_TAILED` matches, else the general lexer's offsets."""

    def __init__(self, text: str):
        self.text = text
        self.starts: List[int] = []
        self.scan: Iterator[int] = iter(())

    def position(self, k: int) -> S.Span:
        """The (line, column) of token k; past the eof token, the eof's."""
        text, starts = self.text, self.starts
        if not starts:
            if text.isascii():
                starts.append(_LAYOUT.match(text).end())
                self.scan = map(re.Match.end, _TAILED.finditer(text, starts[0]))
            else:
                starts += _lex_general(text)[1] + [len(text)]
        if len(starts) <= k:
            starts += islice(self.scan, k + 1 - len(starts))
        offset = starts[min(k, len(starts) - 1)]
        return text.count("\n", 0, offset) + 1, offset - text.rfind("\n", 0, offset)


class Mark:
    """A parsed node's span before it is shown: token k of a source.  Read
    as a span, it is that token's (line, column), worked out then."""

    __slots__ = ("source", "k")

    def __init__(self, source: Source, k: int):
        self.source = source
        self.k = k

    def __iter__(self):
        return iter(self.source.position(self.k))

    def __getitem__(self, i: int) -> int:
        return self.source.position(self.k)[i]


class Tokens:
    """A file's tokens.  A token is its value: a word, a numeral, a
    punctuator (an alias in its ASCII spelling) or "" for the eof token,
    which comes last and `_PAD` more times, so that a reader may look two
    tokens past it (len() does not count the repeats).  `kind` maps every
    value to its kind: ident, kw, int, punct or eof.  No token keeps its
    place; `source` finds it when a span or an error is shown."""

    def __init__(self, text: str, values: List[str], words: Dict[str, str]):
        self.kind = {**_KINDS, **words}
        values += [""] * (1 + _PAD)
        self.values = values
        self.source = Source(text)

    def __len__(self) -> int:
        return len(self.values) - _PAD


def lex(text: str) -> Tuple[Tokens, List[str]]:
    """The tokens of text, and the `// note:` comments in it."""
    notes, clean = [], text
    if "//" in text:
        comments = [comment.strip() for comment in _COMMENTS.findall(text)]
        notes = [comment[5:].strip() for comment in comments if comment.startswith("note:")]
        clean = _COMMENTS.sub("", text)
    if clean.isascii():
        for old, new in _SPACING:
            clean = clean.replace(old, new)
        values = clean.split()
        words = _word_kinds(values)
        if "odd" not in words.values():
            return Tokens(text, values, words), notes
    values = _lex_general(text)[0]
    return Tokens(text, values, _word_kinds(values)), notes


def _lex_general(text: str) -> Tuple[List[str], List[int]]:
    """The token values of text and their offsets, a match at a time."""
    values: List[str] = []
    starts: List[int] = []
    match, pos = _TOKEN.match, 0
    while True:
        m = match(text, pos)
        if m is None:  # only layout is left
            return values, starts
        group = m.lastindex
        start, pos = m.span(group)
        if group > _COMMENT:
            value = text[start:pos]
            if group == _OTHER:
                value, pos = _lex_other(text, start)
            values.append(value)
            starts.append(start)


def _lex_other(text: str, pos: int) -> Tuple[str, int]:
    """One token at a character outside the ASCII fast paths, a Unicode
    alias, a digit run or an identifier: its value and the offset after it."""
    ch = text[pos]
    alias = _UNICODE.get(ch)
    end = pos + 1
    if alias is not None:
        return alias, end
    if ch.isdigit():
        while end < len(text) and text[end].isdigit():
            end += 1
    elif ch.isalpha():
        end = _WORD_TAIL.match(text, end).end()
    else:
        line = text.count("\n", 0, pos) + 1
        raise ParseError(f"unsupported character {ch!r}", line, pos - text.rfind("\n", 0, pos))
    return text[pos:end], end


_IND_OPERATORS = {"succ": S.ISucc, "pred": S.IPred, "F32": S.IF32, "add": S.IAdd, "sub": S.ISub,
                  "mult": S.IMult}
_BINARY_IND = frozenset({"add", "sub", "mult"})
_SEQ_ENDS = frozenset({"}", ")", ""})  # "" is the value of the eof token
_TERM_ARG_STARTS = frozenset({"<", "(", "succ", "pred", "rec", "pack"})


class Parser:
    def __init__(self, text: str):
        tokens, self.notes = lex(text)
        self.values = tokens.values
        self.kind = tokens.kind  # of every value the input spells
        self.source = tokens.source
        self.last = len(tokens) - 1  # the eof token
        self.pos = 0
        self.read: Dict[int, Tuple[S.Ind, int]] = {}  # at a '(': what parse_ind read there, and its end
        # one node for each distinct individual, type atom and family read
        # (see `share`): a free name, an index, a numeral's text, or the
        # class and operand ids of a compound, which the node keeps alive
        self.shared: Dict[Any, Any] = {}
        self.warnings: List[str] = []
        self._fresh = 0
        self.binders: List[Optional[str]] = []  # of the binders over individuals around, innermost last
        # each name's positions in binders, innermost last: a bound name is
        # resolved without a walk of binders
        self.where: Dict[Optional[str], List[int]] = defaultdict(list)

    # -- token plumbing -----------------------------------------------------
    # The hot paths below read self.values and self.kind directly.  A
    # punctuator or keyword is known by its value alone: no identifier or
    # numeral is spelt like one.

    def at(self, value: str) -> bool:
        return self.values[self.pos] == value

    def eat(self, value: str) -> None:
        if self.values[self.pos] != value:
            raise self.fail(value)
        self.pos += 1

    def eat_ident(self) -> str:
        value = self.values[self.pos]
        if self.kind[value] != "ident":
            raise self.fail("identifier")
        self.pos += 1
        return value

    def fail(self, *expected: str) -> ParseError:
        """The error of the token at pos, which is none of expected."""
        k = min(self.pos, self.last)
        shown = self.values[k] if k < self.last else "end of input"
        return ParseError(f"found {shown!r}", *self.source.position(k), expected)

    def number(self) -> int:
        """Consume an int token.  The lexer keeps a run of `isdigit` characters
        whole, so a non-decimal digit such as '²' fails here, and so does a
        numeral longer than `int` converts (sys.get_int_max_str_digits)."""
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
        raise ParseError(problem, *self.source.position(pos))

    def fresh_name(self) -> str:
        """A tuple pattern's parameter: `_w<n>` for the next n at which it
        spells no token of the input, so that it captures no name."""
        self._fresh += 1
        while f"_w{self._fresh}" in self.kind:
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

    def share(self, key: Any, cls: type, *fields: Any) -> Any:
        """The node cls(*fields) that key names in this parse, built the
        first time.  A compound's key holds the ids of its operands, which
        are shared already: ids cost no recursive == or hash, and the
        node, kept in the table, keeps them from being reused."""
        node = self.shared.get(key)
        if node is None:
            node = self.shared[key] = cls(*fields)
        return node

    def family(self, parse: Callable[[], Any]) -> S.Fam:
        """`{x/…}`, with the body read by parse() under a binder of x."""
        self.eat("{")
        var = self.eat_ident()
        self.eat("/")
        body = self.bound(parse, var)
        self.eat("}")
        return self.share((var, id(body)), S.Fam, var, body)  # the hint in the key keeps printed names

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
        """An individual, shared (see `share`), inline on the hot paths."""
        pos = self.pos
        values, shared = self.values, self.shared
        value = values[pos]
        kind = self.kind[value]
        if kind == "ident":
            self.pos = pos + 1
            positions = self.where.get(value)
            key = len(self.binders) - 1 - positions[-1] if positions else value  # an index or a free name
            ind = shared.get(key)
            if ind is None:
                ind = shared[key] = S.IBound(key) if positions else S.IVar(value)
            return ind
        if kind == "int":  # keyed by its text, which no name spells
            ind = shared.get(value)
            if ind is None:
                ind = shared[value] = S.num_ind(self.number())
            else:
                self.pos = pos + 1
            return ind
        operator = _IND_OPERATORS.get(value)
        if operator is not None:
            self.pos = pos + 1
            if values[pos + 1] != "(":
                raise self.fail("(")
            self.pos = pos + 2
            left = self.parse_ind()
            if value in _BINARY_IND:
                if values[self.pos] != ",":
                    raise self.fail(",")
                self.pos += 1
                right = self.parse_ind()
                key = (operator, id(left), id(right))
            else:
                right = None
                key = (operator, id(left))
            if values[self.pos] != ")":
                raise self.fail(")")
            self.pos += 1
            ind = shared.get(key)
            if ind is None:
                ind = shared[key] = operator(left) if right is None else operator(left, right)
            return ind
        if value == "(":
            read = self.read.get(pos)
            if read is None:
                self.pos = pos + 1
                inner = self.parse_ind()
                self.eat(")")
                self.read[pos] = read = inner, self.pos
            self.pos = read[1]
            return read[0]
        raise self.fail("individual")

    def _no_ind_at(self, pos: int) -> bool:
        """True when parse_ind at pos is sure to fail, as the next tokens
        show; False when it may succeed."""
        kind, values = self.kind, self.values
        value = values[pos]
        while value == "(":
            if pos in self.read:  # parse_ind read an individual here
                return False
            pos += 1
            value = values[pos]
            if kind[value] == "ident" or kind[value] == "int" and value.isdecimal():
                return values[pos + 1] != ")"
        if kind[value] == "int":
            return not value.isdecimal()
        return kind[value] != "ident" and value not in _IND_OPERATORS

    def try_equation(self) -> Optional[Tuple[S.Ind, S.Ind]]:
        """`ind = ind`, or None with nothing consumed.  The next tokens
        decide in most cases; otherwise a parse is tried and given back."""
        save = self.pos
        value = self.values[save]
        kind = self.kind[value]
        if kind == "ident" or kind == "int" and value.isdecimal():
            if self.values[save + 1] != "=":  # a one-token individual is all of the left side
                return None
        elif self._no_ind_at(save):
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
        pos = self.pos
        value = self.values[pos]
        if value == "nat":
            self.pos = pos + 1
            if self.values[pos + 1] == "(":
                self.pos = pos + 2
                idx = self.parse_ind()
                self.eat(")")
            else:
                idx = None
            return self.share((S.FNat, id(idx)), S.FNat, idx)
        if value == "top":
            self.pos = pos + 1
            return S.FTop()
        if value == "bot":
            self.pos = pos + 1
            return S.FBot()
        eq = self.try_equation()  # no equation begins with nat, top or bot
        if eq is not None:
            return self.share((S.FEq, id(eq[0]), id(eq[1])), S.FEq, *eq)
        if self.kind[value] == "ident":
            self.pos = pos + 1
            return S.FProp(value)
        if value == "(":
            self.pos = pos + 1
            inner = parse_inner()
            self.eat(")")
            return inner
        raise self.fail(what)

    def _reject_meta_subst(self) -> None:
        # the grammar lists phi[x=i] but no rule consumes it
        pos, values = self.pos, self.values
        if values[pos] == "[" and self.kind[values[pos + 1]] == "ident" and values[pos + 2] == "=":
            raise ParseError("unsupported construct: meta-substitution 'phi[x = i]' is in the "
                             "grammar but used by no rule", *self.source.position(pos))

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
            return S.EAxiom(*eq, span=Mark(self.source, start))
        return self.parse_expr_post()

    def parse_expr_post(self) -> S.Expr:
        e = self.parse_expr_atom()
        values = self.values
        while True:
            pos = self.pos
            value = values[pos]
            if value == "{":
                # an instantiation e{i}, unless the '{' opens a loop or block body
                kind = self.kind[values[pos + 1]]
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
                e = S.EInst(e, arg, span=Mark(self.source, pos))
            elif value == "<:":
                self.pos = pos + 1
                fam = self.family(self.parse_output)
                self.eat("{")
                arg = self.parse_ind()
                self.eat("}")
                e = S.EContInst(e, fam, arg, span=Mark(self.source, pos))
            elif value == ":>":
                e = self.coercion(S.ECoerce, e, self.parse_prop, self.parse_expr, Mark(self.source, pos))
            else:
                return e

    def parse_expr_atom(self) -> S.Expr:
        pos = self.pos
        span = Mark(self.source, pos)
        value = self.values[pos]
        kind = self.kind[value]
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
        if self.kind[self.values[self.pos]] == "int":
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
                span = Mark(self.source, pos)
                self.pos = pos + 1
                name = self.eat_ident()
                self.eat("=")
                items.append(S.SCst(name, self.parse_expr(), span=span))
                self.eat(";")
            elif value == "var":
                span = Mark(self.source, pos)
                self.pos = pos + 1
                name = self.eat_ident()
                if self.at(":="):
                    self.pos += 1
                    init = self.parse_expr()
                else:
                    init = S.EStar(span=span)
                    self.warnings.append(f"{span[0]}:{span[1]}: 'var {name};' desugared to 'var {name} := *;'")
                self.eat(";")
                items.append(S.SVar(name, init, span=span))
            elif value == "?":
                var = self.prefix()
                self.open(var)
                items.append(S.SUnpack(var, span=Mark(self.source, pos)))
            elif value == "[":
                span = Mark(self.source, pos)
                self.pos = pos + 1
                witness = self.parse_ind()
                self.eat("in")
                ann = self.parse_qenv()
                self.eat("]")
                if self.at(";"):
                    self.pos += 1
                items.append(S.SWitness(witness, ann, span=span))
            elif value == "(":
                span = Mark(self.source, pos)
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
        return S.Seq(tuple(items), span=Mark(self.source, self.pos))

    def parse_command(self) -> S.Command:
        pos = self.pos
        span = Mark(self.source, pos)
        values = self.values
        value = values[pos]
        if value == "inc" or value == "dec":
            name = values[pos + 2]
            if (values[pos + 1] != "(" or self.kind[name] != "ident"
                    or values[pos + 3] != ")" or values[pos + 4] != ";"):
                self.pos = pos + 1
                self.eat("(")  # one of these four raises
                self.eat_ident()
                self.eat(")")
                self.eat(";")
            self.pos = pos + 5
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
            if values[self.pos] != "0":
                raise ParseError("for loops start at literal 0", *self.source.position(self.pos))
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
        if self.kind[value] == "ident":
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
                span = Mark(self.source, pos)
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
                chain.append((S.TUnpack, var, None, Mark(self.source, pos)))
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
        span = Mark(self.source, pos)
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
            names, anns = tuple(p[0] for p in params), tuple(p[1] for p in params)
            return S.TFn(fresh, S.FTuple(anns), S.TLetMatch(names, S.TVar(fresh), body), span=span)
        name = self.eat_ident()
        self.eat(":")
        ann = self.parse_formula()
        self.eat("=>")
        return S.TFn(name, ann, self.parse_term(), span=span)

    def parse_term_app(self) -> S.Term:
        term = self.parse_term_atom()
        kind_of, values = self.kind, self.values
        while True:
            pos = self.pos
            value = values[pos]
            if value == "{":
                self.pos = pos + 1
                arg = self.parse_ind()
                self.eat("}")
                term = S.TIndApp(term, arg, span=Mark(self.source, pos))
                continue
            kind = kind_of[value]
            if kind == "ident" or kind == "int" or value in _TERM_ARG_STARTS:
                term = S.TApp(term, self.parse_term_atom(), span=Mark(self.source, pos))
                continue
            return term

    def parse_term_atom(self) -> S.Term:
        pos = self.pos
        span = Mark(self.source, pos)
        value = self.values[pos]
        kind = self.kind[value]
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
        if discipline not in ("IS", "ID", "FS", "FD"):
            raise ParseError(f"unknown discipline {discipline!r}", *self.source.position(pos),
                             ("IS", "ID", "FS", "FD"))
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
            span = Mark(self.source, self.pos)
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
        if self.pos < self.last:
            raise ParseError(f"unexpected {self.values[self.pos]!r}", *self.source.position(self.pos))
        return S.SourceFile(discipline, tuple(csts), main, notes=tuple(self.notes), warnings=tuple(self.warnings))


def parse(text: str) -> S.SourceFile:
    """Parse a source file."""
    return Parser(text).parse_file()


def _parse_whole(text: str, production: Callable[[Parser], Any]) -> Any:
    """Parse all of text as one production, or raise ParseError."""
    p = Parser(text)
    node = production(p)
    if p.pos < p.last:
        raise p.fail("end of input")
    return node


# each parses all of a string as one phrase of its category
parse_term = partial(_parse_whole, production=Parser.parse_term)
parse_formula = partial(_parse_whole, production=Parser.parse_formula)
parse_prop = partial(_parse_whole, production=Parser.parse_prop)
parse_expr = partial(_parse_whole, production=Parser.parse_expr)
parse_seq = partial(_parse_whole, production=Parser.parse_seq)
parse_qenv = partial(_parse_whole, production=Parser.parse_qenv)
