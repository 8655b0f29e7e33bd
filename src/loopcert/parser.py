"""Concrete ASCII syntax: lexer and recursive-descent parser.

The grammar ships in docs/grammar.ebnf.  Unicode spellings of the logic
symbols are accepted as aliases; the printer emits ASCII only.
"""

from __future__ import annotations

import re
from bisect import bisect_right
from itertools import accumulate, islice
from typing import Any, Callable, List, Optional, Tuple

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


class Token:
    """One token of a stream, as `Parser.peek` shows it."""

    __slots__ = ("kind", "value", "line", "col")

    def __init__(self, kind: str, value: str, line: int, col: int):
        self.kind = kind  # ident | kw | int | punct | eof
        self.value = value
        self.line = line
        self.col = col

    def __repr__(self) -> str:  # pragma: no cover
        return f"Token({self.kind}, {self.value!r})"


class Tokens:
    """A token stream as parallel lists of kind, value and start offset, the
    last token the eof; a token's line and column are worked out on demand.
    The lists repeat the eof token `_PAD` more times, so that a reader may
    look two tokens past it; len() does not count the repeats."""

    __slots__ = ("kinds", "values", "starts", "line_starts")

    def __init__(self, text: str, kinds: List[str], values: List[str], starts: List[int]):
        kinds += ["eof"] * (1 + _PAD)
        values += [""] * (1 + _PAD)
        starts += [len(text)] * (1 + _PAD)
        self.kinds = kinds
        self.values = values
        self.starts = starts
        self.line_starts = [0]
        self.line_starts += accumulate(len(line) + 1 for line in text.split("\n")[:-1])

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

    # -- token plumbing -----------------------------------------------------
    # The hot paths below read self.values and self.kinds directly.  A
    # punctuator or keyword is known by its value alone: no identifier or
    # numeral is spelt like one.

    def peek(self, ahead: int = 0) -> Token:
        k = min(self.pos + ahead, self.last)
        return Token(self.kinds[k], self.values[k], *self.tokens.position(k))

    def next(self) -> Token:
        tok = self.peek()
        if self.pos < self.last:
            self.pos += 1
        return tok

    def at(self, value: str, ahead: int = 0) -> bool:
        return self.values[self.pos + ahead] == value

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
        tok = self.peek()
        return ParseError(f"found {tok.value!r}", tok.line, tok.col, expected)

    def number(self) -> int:
        """Consume an int token.  The lexer keeps a run of `isdigit`
        characters whole, so a non-decimal digit such as '²' fails here."""
        pos = self.pos
        value = self.values[pos]
        if pos < self.last:
            self.pos = pos + 1
        if not value.isdecimal():
            line, col = self.tokens.position(pos)
            raise ParseError(f"{value!r} is not a decimal numeral", line, col)
        return int(value)

    def span(self) -> S.Span:
        return self.tokens.position(self.pos)

    def fail(self, what: str) -> ParseError:
        tok = self.peek()
        shown = tok.value if tok.kind != "eof" else "end of input"
        return ParseError(f"found {shown!r}", tok.line, tok.col, (what,))

    def fresh_name(self) -> str:
        self._fresh += 1
        return f"_w{self._fresh}"

    # -- individuals ----------------------------------------------------------

    def parse_ind(self) -> S.Ind:
        pos = self.pos
        kind = self.kinds[pos]
        value = self.values[pos]
        if kind == "int":
            return S.num_ind(self.number())
        if kind == "ident":
            self.pos = pos + 1
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
            self.pos += 1
            var = self.eat_ident()
            self.eat(".")
            body = self.parse_formula()
            return S.FForall(var, body) if value == "forall" else S.FExists(var, body)
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
        phi = self.parse_formula_atom()
        self._reject_meta_subst()
        return phi

    def parse_formula_atom(self) -> S.Formula:
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
        if value == "<":
            self.pos = pos + 1
            items: List[S.Formula] = []
            if not self.at(">"):
                items.append(self.parse_formula())
                while self.at(","):
                    self.pos += 1
                    items.append(self.parse_formula())
            self.eat(">")
            return S.FTuple(tuple(items))
        if value == "(":
            self.pos = pos + 1
            inner = self.parse_formula()
            self.eat(")")
            return inner
        raise self.fail("formula")

    def _reject_meta_subst(self) -> None:
        # the grammar lists phi[x=i] but no rule consumes it
        pos = self.pos
        if self.values[pos] == "[" and self.kinds[pos + 1] == "ident" and self.values[pos + 2] == "=":
            line, col = self.span()
            raise ParseError(
                "unsupported construct: meta-substitution 'phi[x = i]' is in the "
                "grammar but used by no rule",
                line,
                col,
            )

    # -- imperative-side types ------------------------------------------------

    def parse_prop(self) -> S.Prop:
        value = self.values[self.pos]
        if value == "~":
            self.pos += 1
            return self.parse_neg_tail()
        if value == "proc":
            self.pos += 1
            return S.proc_t(self.parse_proto())
        p = self.parse_prop_atom()
        self._reject_meta_subst()
        return p

    def parse_neg_tail(self) -> S.Prop:
        if self.at("("):
            self.pos += 1
            types = [self.parse_prop()]
            while self.at(","):
                self.pos += 1
                types.append(self.parse_prop())
            self.eat(")")
            return S.PNeg(S.OSimple(tuple(types)))
        if self.at("[") or self.at("exists"):
            return S.PNeg(self.parse_output())
        return S.PNeg(S.OSimple((self.parse_prop_inner(),)))

    def parse_prop_inner(self) -> S.Prop:
        # a negation argument: one tightly-bound prop
        if self.at("proc"):
            self.pos += 1
            return S.proc_t(self.parse_proto())
        if self.at("~"):
            self.pos += 1
            return self.parse_neg_tail()
        return self.parse_prop_atom()

    def parse_prop_atom(self) -> S.Prop:
        eq = self.try_equation()
        if eq is not None:
            return S.PEq(*eq)
        pos = self.pos
        value = self.values[pos]
        if self.kinds[pos] == "ident":
            self.pos = pos + 1
            return S.PProp(value)
        if value == "nat":
            self.pos = pos + 1
            if self.values[pos + 1] == "(":
                self.pos = pos + 2
                idx = self.parse_ind()
                self.eat(")")
                return S.PNat(idx)
            return S.PNat(None)
        if value == "top":
            self.pos = pos + 1
            return S.PTop()
        if value == "bot":
            self.pos = pos + 1
            return S.PBot()
        if value == "(":
            self.pos = pos + 1
            inner = self.parse_prop()
            self.eat(")")
            return inner
        raise self.fail("type")

    def parse_output(self) -> S.Output:
        if self.at("exists"):
            self.pos += 1
            var = self.eat_ident()
            self.eat(".")
            return S.OExists(var, self.parse_output())
        self.eat("[")
        types: List[S.Prop] = []
        if not self.at("]"):
            types.append(self.parse_prop())
            while self.at(","):
                self.pos += 1
                types.append(self.parse_prop())
        self.eat("]")
        return S.OSimple(tuple(types))

    def parse_proto(self) -> S.Proto:
        if self.at("forall"):
            self.pos += 1
            var = self.eat_ident()
            self.eat(".")
            return S.ProtoAll(var, self.parse_proto())
        self.eat("(")
        self.eat("[")
        params: List[S.Prop] = []
        if not self.at("]"):
            params.append(self.parse_prop())
            while self.at(","):
                self.pos += 1
                params.append(self.parse_prop())
        self.eat("]")
        self.eat("out")
        out = self.parse_output()
        self.eat(")")
        return S.ProtoBase(tuple(params), out)

    def parse_bindings(self, close: str, types: str) -> S.Env:
        pairs: List[Tuple[str, Any]] = []
        if not self.at(close):
            while True:
                name = self.eat_ident()
                self.eat(":")
                ty = self.parse_prop() if types == "prop" else self.parse_formula()
                pairs.append((name, ty))
                if self.at(","):
                    self.pos += 1
                    continue
                break
        self.eat(close)
        return tuple(pairs)

    def parse_qenv(self) -> S.QEnv:
        if self.at("exists"):
            self.pos += 1
            var = self.eat_ident()
            self.eat(".")
            return S.QExists(var, self.parse_qenv())
        self.eat("[")
        return S.QSimple(self.parse_bindings("]", "prop"))

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
                self.eat("{")
                var = self.eat_ident()
                self.eat("/")
                out = self.parse_output()
                self.eat("}")
                self.eat("{")
                arg = self.parse_ind()
                self.eat("}")
                e = S.EContInst(e, S.Fam(var, out), arg, span=self.tokens.position(pos))
            elif value == ":>":
                self.pos = pos + 1
                self.eat("{")
                var = self.eat_ident()
                self.eat("/")
                ty = self.parse_prop()
                self.eat("}")
                self.eat("[")
                proof = self.parse_expr()
                self.eat("]")
                e = S.ECoerce(e, S.Fam(var, ty), proof, span=self.tokens.position(pos))
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
            self.pos += 1
            var = self.eat_ident()
            self.eat(".")
            return S.HForall(var, self.parse_header())
        self.eat("[")
        params = self.parse_bindings("]", "prop")
        self.eat("out")
        out = self.parse_qenv()
        self.eat("{")
        body = self.parse_seq()
        self.eat("}")
        return S.HBase(params, out, body)

    # -- sequences and commands ---------------------------------------------

    def parse_seq(self) -> S.Seq:
        """A sequence, item by item in a loop.  A `?n.` or a witness owns
        the rest of the sequence: it waits in `owners`, with the items
        before it, until the rest is parsed, and the owners are then put
        together innermost first.  A `(...)` group that no `:>` follows
        is spliced in."""
        values = self.values
        items: List[Any] = []
        owners: List[Tuple[List[Any], Any]] = []
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
                span = self.tokens.position(pos)
                self.pos = pos + 1
                var = self.eat_ident()
                self.eat(".")
                owners.append((items, S.SUnpack(var, None, span=span)))
                items = []
            elif value == "[":
                span = self.tokens.position(pos)
                self.pos = pos + 1
                witness = self.parse_ind()
                self.eat("in")
                ann = self.parse_qenv()
                self.eat("]")
                if self.at(";"):
                    self.pos += 1
                owners.append((items, S.SWitness(witness, ann, None, span=span)))
                items = []
            elif value == "(":
                span = self.tokens.position(pos)
                self.pos = pos + 1
                group = self.parse_seq()
                self.eat(")")
                if self.at(":>"):
                    self.pos += 1
                    self.eat("{")
                    var = self.eat_ident()
                    self.eat("/")
                    qenv = self.parse_qenv()
                    self.eat("}")
                    self.eat("[")
                    proof = self.parse_expr()
                    self.eat("]")
                    if self.at(";"):
                        self.pos += 1
                    if values[self.pos] not in _SEQ_ENDS:
                        raise self.fail("end of sequence after ':>' coercion")
                    items.append(S.SSubst(group, S.Fam(var, qenv), proof, span=span))
                    break
                if self.at(";"):
                    self.pos += 1
                while group.items and isinstance(group.items[-1], (S.SUnpack, S.SWitness)):
                    owner = group.items[-1]
                    owners.append((items + list(group.items[:-1]), owner))
                    items, group = [], owner.rest
                items += group.items
                coerced = coerced or bool(items) and type(items[-1]) is S.SSubst
            else:
                items.append(self.parse_command())
        if coerced:
            # a ':>' group ends its sequence: report the first item after one
            followers = [(before, before[1:] + [owner]) for before, owner in owners]
            for before, after in followers + [(items, items[1:])]:
                for item, follower in zip(before, after):
                    if type(item) is S.SSubst:
                        raise ParseError(
                            "a ':>'-coerced sequence cannot be followed by commands", *follower.span
                        )
        seq = S.Seq(tuple(items), span=self.span())
        while owners:
            items, owner = owners.pop()
            items.append(S._rebuild(owner, rest=seq))
            seq = S.Seq(tuple(items), span=seq.span)
        return seq

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
            target = self.parse_expr()
            args: List[S.Expr] = []
            while self.at(","):
                self.pos += 1
                args.append(self.parse_expr())
            self.eat(")")
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
                line, col = self.span()
                raise ParseError("for loops start at literal 0", line, col)
            self.pos += 1
            self.eat("until")
            bound = self.parse_expr()
            self.eat("{")
            body = self.parse_seq()
            self.eat("}")
            self.eat("[")
            frame = self.parse_bindings("]", "prop")
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
        args = []
        if not self.at(";"):
            args.append(self.parse_expr())
            while self.at(","):
                self.pos += 1
                args.append(self.parse_expr())
        self.eat(";")
        outs = [self.eat_ident()]
        while self.at(","):
            self.pos += 1
            outs.append(self.eat_ident())
        self.eat(")")
        self.eat(";")
        return S.CCall(fn, tuple(args), tuple(outs), span=span)

    # -- functional terms -----------------------------------------------------

    def parse_term(self) -> S.Term:
        """A term.  A chain of `let`s and `?n.`s, as long as the sequence
        an image translates, is read in a loop and put together innermost
        first."""
        values = self.values
        chain: List[Tuple[Any, ...]] = []  # (class, binder, bound value or None, span)
        while True:
            pos = self.pos
            value = values[pos]
            if value == "let":
                span = self.tokens.position(pos)
                self.pos = pos + 1
                if self.at("<"):
                    self.pos += 1
                    names: List[str] = []
                    if not self.at(">"):
                        names.append(self.eat_ident())
                        while self.at(","):
                            self.pos += 1
                            names.append(self.eat_ident())
                    self.eat(">")
                    self.eat("=")
                    bound = self.parse_term()
                    self.eat("in")
                    chain.append((S.TLetMatch, tuple(names), bound, span))
                else:
                    name = self.eat_ident()
                    self.eat("=")
                    bound = self.parse_term()
                    self.eat("in")
                    chain.append((S.TLet, name, bound, span))
            elif value == "?":
                span = self.tokens.position(pos)
                self.pos = pos + 1
                var = self.eat_ident()
                self.eat(".")
                chain.append((S.TUnpack, var, None, span))
            else:
                break
        term = self._parse_term_rest()
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
            self.pos = pos + 1
            var = self.eat_ident()
            self.eat(".")
            return S.TIndLam(var, self.parse_term(), span=span)
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
            self.pos += 1
            self.eat("{")
            var = self.eat_ident()
            self.eat("/")
            phi = self.parse_formula()
            self.eat("}")
            self.eat("[")
            proof = self.parse_term()
            self.eat("]")
            term = S.TCoerce(term, S.Fam(var, phi), proof, span=span)
        return term

    def parse_fn_tail(self, span: S.Span) -> S.Term:
        if self.at("("):
            # tuple pattern sugar: fn (x : a, y : b) => t
            self.pos += 1
            params: List[Tuple[str, S.Formula]] = []
            if not self.at(")"):
                while True:
                    name = self.eat_ident()
                    self.eat(":")
                    params.append((name, self.parse_formula()))
                    if self.at(","):
                        self.pos += 1
                        continue
                    break
            self.eat(")")
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
            items: List[S.Term] = []
            if not self.at(">"):
                items.append(self.parse_term())
                while self.at(","):
                    self.pos += 1
                    items.append(self.parse_term())
            self.eat(">")
            return S.TTuple(tuple(items), span=span)
        if value == "rec":
            self.pos = pos + 1
            motive: Optional[S.Fam] = None
            if self.at("{"):
                self.pos += 1
                var = self.eat_ident()
                self.eat(".")
                phi = self.parse_formula()
                self.eat("}")
                motive = S.Fam(var, phi)
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
            line, col = self.span()
            raise ParseError(
                f"unknown discipline {discipline!r}", line, col,
                ("IS", "ID", "FS", "FD"),
            )
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
            line, col = self.span()
            raise ParseError(f"unexpected {self.values[self.pos]!r}", line, col)
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
