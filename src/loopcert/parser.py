"""Concrete ASCII syntax: lexer and recursive-descent parser.

The grammar ships in docs/grammar.ebnf.  Unicode spellings of the logic
symbols are accepted as aliases; the printer emits ASCII only.
"""

from __future__ import annotations

import re
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

# One match per token: horizontal layout is skipped in front of it, and
# the alternatives are newline, comment, punctuator, word, digits and any
# other character (which `_lex_other` looks at).  A digit run that goes on
# into a non-ASCII digit (str.isdigit, wider than [0-9]) is left to
# `_lex_other` too, so int tokens span exactly the isdigit runs.
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


class Token:
    __slots__ = ("kind", "value", "line", "col")

    def __init__(self, kind: str, value: str, line: int, col: int):
        self.kind = kind  # ident | kw | int | punct | eof
        self.value = value
        self.line = line
        self.col = col

    def __repr__(self) -> str:  # pragma: no cover
        return f"Token({self.kind}, {self.value!r})"


def lex(text: str) -> Tuple[List[Token], List[str]]:
    tokens: List[Token] = []
    notes: List[str] = []
    match = _TOKEN.match
    line, line_start, pos = 1, 0, 0
    while True:
        m = match(text, pos)
        if m is None:  # only layout is left
            break
        group = m.lastindex
        start, pos = m.span(group)
        if group == _PUNCT:
            tokens.append(Token("punct", text[start:pos], line, start - line_start + 1))
        elif group == _WORD:
            word = text[start:pos]
            tokens.append(Token("kw" if word in KEYWORDS else "ident", word, line, start - line_start + 1))
        elif group == _NEWLINE:
            line += 1
            line_start = pos
        elif group == _INT:
            tokens.append(Token("int", text[start:pos], line, start - line_start + 1))
        elif group == _COMMENT:
            comment = text[start + 2 : pos].strip()
            if comment.startswith("note:"):
                notes.append(comment[5:].strip())
        else:
            pos = _lex_other(text, start, line, start - line_start + 1, tokens)
    tokens.append(Token("eof", "", line, len(text) - line_start + 1))
    return tokens, notes


def _lex_other(text: str, pos: int, line: int, col: int, tokens: List[Token]) -> int:
    """One token at a character outside the ASCII fast paths: a Unicode
    alias, a digit run, or an identifier; returns the offset after it."""
    ch = text[pos]
    alias = _UNICODE.get(ch)
    if alias is not None:
        tokens.append(Token("kw" if alias in KEYWORDS else "punct", alias, line, col))
        return pos + 1
    if ch.isdigit():
        end = pos + 1
        while end < len(text) and text[end].isdigit():
            end += 1
        tokens.append(Token("int", text[pos:end], line, col))
        return end
    if ch.isalpha():
        end = _WORD_TAIL.match(text, pos + 1).end()
        word = text[pos:end]
        tokens.append(Token("kw" if word in KEYWORDS else "ident", word, line, col))
        return end
    raise ParseError(f"unsupported character {ch!r}", line, col)


class Parser:
    def __init__(self, text: str):
        self.tokens, self.notes = lex(text)
        self.pos = 0
        self.warnings: List[str] = []
        self._fresh = 0

    # -- token plumbing -----------------------------------------------------

    def peek(self, ahead: int = 0) -> Token:
        try:
            return self.tokens[self.pos + ahead]
        except IndexError:
            return self.tokens[-1]  # eof

    def next(self) -> Token:
        tok = self.tokens[self.pos]
        if tok.kind != "eof":
            self.pos += 1
        return tok

    def at(self, value: str, ahead: int = 0) -> bool:
        tok = self.peek(ahead)
        return tok.value == value and tok.kind in ("punct", "kw")

    def eat(self, value: str) -> Token:
        tok = self.peek()
        if tok.value != value or tok.kind == "ident":
            raise ParseError(f"found {tok.value!r}", tok.line, tok.col, (value,))
        return self.next()

    def eat_ident(self) -> str:
        tok = self.peek()
        if tok.kind != "ident":
            raise ParseError(f"found {tok.value!r}", tok.line, tok.col, ("identifier",))
        self.next()
        return tok.value

    def number(self) -> int:
        """Consume an int token.  The lexer keeps a run of `isdigit`
        characters whole, so a non-decimal digit such as '²' fails here."""
        tok = self.next()
        if not tok.value.isdecimal():
            raise ParseError(f"{tok.value!r} is not a decimal numeral", tok.line, tok.col)
        return int(tok.value)

    def span(self) -> S.Span:
        tok = self.peek()
        return (tok.line, tok.col)

    def fail(self, what: str) -> ParseError:
        tok = self.peek()
        shown = tok.value if tok.kind != "eof" else "end of input"
        return ParseError(f"found {shown!r}", tok.line, tok.col, (what,))

    def fresh_name(self) -> str:
        self._fresh += 1
        return f"_w{self._fresh}"

    # -- individuals ----------------------------------------------------------

    def parse_ind(self) -> S.Ind:
        tok = self.peek()
        if tok.kind == "int":
            return S.num_ind(self.number())
        if tok.kind == "ident":
            self.next()
            return S.IVar(tok.value)
        unary = {"succ": S.ISucc, "pred": S.IPred, "F32": S.IF32}
        binary = {"add": S.IAdd, "sub": S.ISub, "mult": S.IMult}
        if tok.kind == "kw" and tok.value in unary:
            self.next()
            self.eat("(")
            arg = self.parse_ind()
            self.eat(")")
            return unary[tok.value](arg)
        if tok.kind == "kw" and tok.value in binary:
            self.next()
            self.eat("(")
            left = self.parse_ind()
            self.eat(",")
            right = self.parse_ind()
            self.eat(")")
            return binary[tok.value](left, right)
        if self.at("("):
            self.next()
            inner = self.parse_ind()
            self.eat(")")
            return inner
        raise self.fail("individual")

    def try_equation(self) -> Optional[Tuple[S.Ind, S.Ind]]:
        """Backtracking parse of `ind = ind`."""
        save = self.pos
        try:
            left = self.parse_ind()
            if not self.at("="):
                self.pos = save
                return None
            self.next()
            right = self.parse_ind()
            return left, right
        except ParseError:
            self.pos = save
            return None

    # -- formulas -------------------------------------------------------------

    def parse_formula(self) -> S.Formula:
        if self.at("forall") or self.at("exists"):
            kw = self.next().value
            var = self.eat_ident()
            self.eat(".")
            body = self.parse_formula()
            return S.FForall(var, body) if kw == "forall" else S.FExists(var, body)
        left = self.parse_formula_unit()
        if self.at("->"):
            self.next()
            return S.FArrow(left, self.parse_formula())
        return left

    def parse_formula_unit(self) -> S.Formula:
        if self.at("~"):
            self.next()
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
        tok = self.peek()
        if tok.kind == "ident":
            self.next()
            return S.FProp(tok.value)
        if self.at("nat"):
            self.next()
            if self.at("("):
                self.next()
                idx = self.parse_ind()
                self.eat(")")
                return S.FNat(idx)
            return S.FNat(None)
        if self.at("top"):
            self.next()
            return S.FTop()
        if self.at("bot"):
            self.next()
            return S.FBot()
        if self.at("<"):
            self.next()
            items: List[S.Formula] = []
            if not self.at(">"):
                items.append(self.parse_formula())
                while self.at(","):
                    self.next()
                    items.append(self.parse_formula())
            self.eat(">")
            return S.FTuple(tuple(items))
        if self.at("("):
            self.next()
            inner = self.parse_formula()
            self.eat(")")
            return inner
        raise self.fail("formula")

    def _reject_meta_subst(self) -> None:
        # the grammar lists phi[x=i] but no rule consumes it
        if self.at("[") and self.peek(1).kind == "ident" and self.at("=", 2):
            tok = self.peek()
            raise ParseError(
                "unsupported construct: meta-substitution 'phi[x = i]' is in the "
                "grammar but used by no rule",
                tok.line,
                tok.col,
            )

    # -- imperative-side types ------------------------------------------------

    def parse_prop(self) -> S.Prop:
        if self.at("~"):
            self.next()
            return self.parse_neg_tail()
        if self.at("proc"):
            self.next()
            return S.proc_t(self.parse_proto())
        p = self.parse_prop_atom()
        self._reject_meta_subst()
        return p

    def parse_neg_tail(self) -> S.Prop:
        if self.at("("):
            self.next()
            types = [self.parse_prop()]
            while self.at(","):
                self.next()
                types.append(self.parse_prop())
            self.eat(")")
            return S.PNeg(S.OSimple(tuple(types)))
        if self.at("[") or self.at("exists"):
            return S.PNeg(self.parse_output())
        return S.PNeg(S.OSimple((self.parse_prop_inner(),)))

    def parse_prop_inner(self) -> S.Prop:
        # a negation argument: one tightly-bound prop
        if self.at("proc"):
            self.next()
            return S.proc_t(self.parse_proto())
        if self.at("~"):
            self.next()
            return self.parse_neg_tail()
        return self.parse_prop_atom()

    def parse_prop_atom(self) -> S.Prop:
        eq = self.try_equation()
        if eq is not None:
            return S.PEq(*eq)
        tok = self.peek()
        if tok.kind == "ident":
            self.next()
            return S.PProp(tok.value)
        if self.at("nat"):
            self.next()
            if self.at("("):
                self.next()
                idx = self.parse_ind()
                self.eat(")")
                return S.PNat(idx)
            return S.PNat(None)
        if self.at("top"):
            self.next()
            return S.PTop()
        if self.at("bot"):
            self.next()
            return S.PBot()
        if self.at("("):
            self.next()
            inner = self.parse_prop()
            self.eat(")")
            return inner
        raise self.fail("type")

    def parse_output(self) -> S.Output:
        if self.at("exists"):
            self.next()
            var = self.eat_ident()
            self.eat(".")
            return S.OExists(var, self.parse_output())
        self.eat("[")
        types: List[S.Prop] = []
        if not self.at("]"):
            types.append(self.parse_prop())
            while self.at(","):
                self.next()
                types.append(self.parse_prop())
        self.eat("]")
        return S.OSimple(tuple(types))

    def parse_proto(self) -> S.Proto:
        if self.at("forall"):
            self.next()
            var = self.eat_ident()
            self.eat(".")
            return S.ProtoAll(var, self.parse_proto())
        self.eat("(")
        self.eat("[")
        params: List[S.Prop] = []
        if not self.at("]"):
            params.append(self.parse_prop())
            while self.at(","):
                self.next()
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
                    self.next()
                    continue
                break
        self.eat(close)
        return tuple(pairs)

    def parse_qenv(self) -> S.QEnv:
        if self.at("exists"):
            self.next()
            var = self.eat_ident()
            self.eat(".")
            return S.QExists(var, self.parse_qenv())
        self.eat("[")
        return S.QSimple(self.parse_bindings("]", "prop"))

    # -- imperative expressions -------------------------------------------------

    def parse_expr(self) -> S.Expr:
        span = self.span()
        eq = self.try_equation()
        if eq is not None:
            return S.EAxiom(*eq, span=span)
        return self.parse_expr_post()

    def parse_expr_post(self) -> S.Expr:
        e = self.parse_expr_atom()
        while True:
            span = self.span()
            if self.at("{"):
                # backtracking: a '{' may open a loop or block body instead
                save = self.pos
                try:
                    self.next()
                    arg = self.parse_ind()
                    self.eat("}")
                except ParseError:
                    self.pos = save
                    return e
                e = S.EInst(e, arg, span=span)
            elif self.at("<:"):
                self.next()
                self.eat("{")
                var = self.eat_ident()
                self.eat("/")
                out = self.parse_output()
                self.eat("}")
                self.eat("{")
                arg = self.parse_ind()
                self.eat("}")
                e = S.EContInst(e, S.Fam(var, out), arg, span=span)
            elif self.at(":>"):
                self.next()
                self.eat("{")
                var = self.eat_ident()
                self.eat("/")
                ty = self.parse_prop()
                self.eat("}")
                self.eat("[")
                proof = self.parse_expr()
                self.eat("]")
                e = S.ECoerce(e, S.Fam(var, ty), proof, span=span)
            else:
                return e

    def parse_expr_atom(self) -> S.Expr:
        span = self.span()
        tok = self.peek()
        if tok.kind == "ident":
            self.next()
            return S.EVar(tok.value, span=span)
        if tok.kind == "int":
            return S.ENum(self.number(), span=span)
        if self.at("succ"):
            return S.ENum(self._parse_numeral(), span=span)
        if self.at("*"):
            self.next()
            return S.EStar(span=span)
        if self.at("proc"):
            self.next()
            return S.EProc(self.parse_header(), span=span)
        if self.at("("):
            self.next()
            inner = self.parse_expr()
            self.eat(")")
            return inner
        raise self.fail("expression")

    def _parse_numeral(self) -> int:
        if self.peek().kind == "int":
            return self.number()
        self.eat("succ")
        self.eat("(")
        value = self._parse_numeral() + 1
        self.eat(")")
        return value

    def parse_header(self) -> S.Header:
        if self.at("forall"):
            self.next()
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
        span = self.span()
        if self.at("}") or self.at(")") or self.peek().kind == "eof":
            return S.SEmpty(span=span)
        if self.at("cst"):
            self.next()
            name = self.eat_ident()
            self.eat("=")
            value = self.parse_expr()
            self.eat(";")
            return S.SCst(name, value, self.parse_seq(), span=span)
        if self.at("var"):
            self.next()
            name = self.eat_ident()
            if self.at(":="):
                self.next()
                value = self.parse_expr()
            else:
                value = S.EStar(span=span)
                self.warnings.append(
                    f"{span[0]}:{span[1]}: 'var {name};' desugared to 'var {name} := *;'"
                )
            self.eat(";")
            return S.SVar(name, value, self.parse_seq(), span=span)
        if self.at("?"):
            self.next()
            var = self.eat_ident()
            self.eat(".")
            return S.SUnpack(var, self.parse_seq(), span=span)
        if self.at("["):
            self.next()
            witness = self.parse_ind()
            self.eat("in")
            ann = self.parse_qenv()
            self.eat("]")
            if self.at(";"):
                self.next()
            return S.SWitness(witness, ann, self.parse_seq(), span=span)
        if self.at("("):
            self.next()
            group = self.parse_seq()
            self.eat(")")
            if self.at(":>"):
                self.next()
                self.eat("{")
                var = self.eat_ident()
                self.eat("/")
                qenv = self.parse_qenv()
                self.eat("}")
                self.eat("[")
                proof = self.parse_expr()
                self.eat("]")
                if self.at(";"):
                    self.next()
                if not (self.at("}") or self.at(")") or self.peek().kind == "eof"):
                    raise self.fail("end of sequence after ':>' coercion")
                return S.SSubst(group, S.Fam(var, qenv), proof, span=span)
            if self.at(";"):
                self.next()
            return _append_seq(group, self.parse_seq())
        cmd = self.parse_command()
        return S.SCmd(cmd, self.parse_seq(), span=span)

    def parse_command(self) -> S.Command:
        span = self.span()
        if self.at("inc") or self.at("dec"):
            kw = self.next().value
            self.eat("(")
            name = self.eat_ident()
            self.eat(")")
            self.eat(";")
            cls = S.CInc if kw == "inc" else S.CDec
            return cls(name, span=span)
        if self.at("jump"):
            self.next()
            self.eat("(")
            target = self.parse_expr()
            args: List[S.Expr] = []
            while self.at(","):
                self.next()
                args.append(self.parse_expr())
            self.eat(")")
            ann = self.parse_qenv()
            self.eat(";")
            return S.CJump(target, tuple(args), ann, span=span)
        if self.at("for"):
            self.next()
            var = self.eat_ident()
            idx: Optional[str] = None
            if self.at(":"):
                self.next()
                self.eat("nat")
                self.eat("(")
                idx = self.eat_ident()
                self.eat(")")
            self.eat(":=")
            zero = self.next()
            if zero.kind != "int" or zero.value != "0":
                raise ParseError("for loops start at literal 0", zero.line, zero.col)
            self.eat("until")
            bound = self.parse_expr()
            self.eat("{")
            body = self.parse_seq()
            self.eat("}")
            self.eat("[")
            frame = self.parse_bindings("]", "prop")
            self.eat(";")
            return S.CFor(var, idx, bound, body, frame, span=span)
        if self.at("{"):
            self.next()
            body = self.parse_seq()
            self.eat("}")
            ann = self.parse_qenv()
            self.eat(";")
            return S.CBlock(body, ann, span=span)
        if self.peek().kind == "ident" and self.at(":=", 1):
            name = self.eat_ident()
            self.next()
            value = self.parse_expr()
            self.eat(";")
            return S.CAssign(name, value, span=span)
        if self.peek().kind == "ident" and self.at(":", 1) and self.at("{", 2):
            name = self.eat_ident()
            self.next()
            self.next()
            body = self.parse_seq()
            self.eat("}")
            ann = self.parse_qenv()
            self.eat(";")
            return S.CLabel(name, body, ann, span=span)
        # a call: expr '(' args ';' outs ')'
        fn = self.parse_expr_post()
        self.eat("(")
        args = []
        if not self.at(";"):
            args.append(self.parse_expr())
            while self.at(","):
                self.next()
                args.append(self.parse_expr())
        self.eat(";")
        outs = [self.eat_ident()]
        while self.at(","):
            self.next()
            outs.append(self.eat_ident())
        self.eat(")")
        self.eat(";")
        return S.CCall(fn, tuple(args), tuple(outs), span=span)

    # -- functional terms -----------------------------------------------------

    def parse_term(self) -> S.Term:
        span = self.span()
        if self.at("fn"):
            self.next()
            return self.parse_fn_tail(span)
        if self.at("lam"):
            self.next()
            var = self.eat_ident()
            self.eat(".")
            return S.TIndLam(var, self.parse_term(), span=span)
        if self.at("let"):
            self.next()
            if self.at("<"):
                self.next()
                names: List[str] = []
                if not self.at(">"):
                    names.append(self.eat_ident())
                    while self.at(","):
                        self.next()
                        names.append(self.eat_ident())
                self.eat(">")
                self.eat("=")
                value = self.parse_term()
                self.eat("in")
                return S.TLetMatch(tuple(names), value, self.parse_term(), span=span)
            name = self.eat_ident()
            self.eat("=")
            value = self.parse_term()
            self.eat("in")
            return S.TLet(name, value, self.parse_term(), span=span)
        if self.at("?"):
            self.next()
            var = self.eat_ident()
            self.eat(".")
            return S.TUnpack(var, self.parse_term(), span=span)
        if self.at("callcc"):
            self.next()
            return S.TCallcc(self.parse_term(), span=span)
        if self.at("throw"):
            self.next()
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
            self.next()
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
            self.next()
            params: List[Tuple[str, S.Formula]] = []
            if not self.at(")"):
                while True:
                    name = self.eat_ident()
                    self.eat(":")
                    params.append((name, self.parse_formula()))
                    if self.at(","):
                        self.next()
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
        while True:
            span = self.span()
            if self.at("{"):
                self.next()
                arg = self.parse_ind()
                self.eat("}")
                term = S.TIndApp(term, arg, span=span)
                continue
            tok = self.peek()
            if tok.kind in ("ident", "int") or self.at("<") or self.at("(") or (
                tok.kind == "kw" and tok.value in ("succ", "pred", "rec", "pack")
            ):
                term = S.TApp(term, self.parse_term_atom(), span=span)
                continue
            return term

    def parse_term_atom(self) -> S.Term:
        span = self.span()
        tok = self.peek()
        if tok.kind == "ident":
            self.next()
            return S.TVar(tok.value, span=span)
        if tok.kind == "int":
            term: S.Term = S.TZero(span=span)
            for _ in range(self.number()):
                term = S.TSucc(term, span=span)
            return term
        if self.at("succ") or self.at("pred"):
            kw = self.next().value
            self.eat("(")
            arg = self.parse_term()
            self.eat(")")
            cls = S.TSucc if kw == "succ" else S.TPred
            return cls(arg, span=span)
        if self.at("<"):
            self.next()
            items: List[S.Term] = []
            if not self.at(">"):
                items.append(self.parse_term())
                while self.at(","):
                    self.next()
                    items.append(self.parse_term())
            self.eat(">")
            return S.TTuple(tuple(items), span=span)
        if self.at("rec"):
            self.next()
            motive: Optional[S.Fam] = None
            if self.at("{"):
                self.next()
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
        if self.at("pack"):
            self.next()
            self.eat("(")
            witness = self.parse_ind()
            self.eat(",")
            value = self.parse_term()
            self.eat(":")
            ann = self.parse_formula()
            self.eat(")")
            return S.TPack(witness, value, ann, span=span)
        if self.at("("):
            self.next()
            inner = self.parse_term()
            self.eat(")")
            return inner
        raise self.fail("term")

    # -- files ----------------------------------------------------------------

    def parse_file(self) -> S.SourceFile:
        self.eat("discipline")
        tok = self.peek()
        if tok.kind != "ident" or tok.value not in ("IS", "ID", "FS", "FD"):
            raise ParseError(
                f"unknown discipline {tok.value!r}", tok.line, tok.col,
                ("IS", "ID", "FS", "FD"),
            )
        self.next()
        discipline = tok.value
        self.eat(";")
        functional = discipline in ("FS", "FD")
        csts: List[Tuple[str, Any]] = []
        main: Optional[Any] = None
        while self.at("cst"):
            self.next()
            name = self.eat_ident()
            self.eat("=")
            value: Any = self.parse_term() if functional else self.parse_expr()
            self.eat(";")
            csts.append((name, value))
        if self.at("main"):
            span = self.span()
            self.next()
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
                    self.next()
                main = S.MainI(body, out, span=span)
        tok = self.peek()
        if tok.kind != "eof":
            raise ParseError(f"unexpected {tok.value!r}", tok.line, tok.col)
        return S.SourceFile(
            discipline,
            tuple(csts),
            main,
            notes=tuple(self.notes),
            warnings=tuple(self.warnings),
        )


def _append_seq(front: S.Seq, back: S.Seq) -> S.Seq:
    match front:
        case S.SEmpty():
            return back
        case S.SCmd(cmd, rest):
            return S.SCmd(cmd, _append_seq(rest, back), span=front.span)
        case S.SCst(name, value, rest):
            return S.SCst(name, value, _append_seq(rest, back), span=front.span)
        case S.SVar(name, value, rest):
            return S.SVar(name, value, _append_seq(rest, back), span=front.span)
        case S.SUnpack(var, rest):
            return S.SUnpack(var, _append_seq(rest, back), span=front.span)
        case S.SWitness(witness, ann, rest):
            return S.SWitness(witness, ann, _append_seq(rest, back), span=front.span)
        case S.SSubst():
            if isinstance(back, S.SEmpty):
                return front
            raise ParseError("a ':>'-coerced sequence cannot be followed by commands", 0, 0)
    raise AssertionError(front)


def parse(text: str) -> S.SourceFile:
    """Parse a source file."""
    return Parser(text).parse_file()


def _parse_whole(text: str, production: Callable[[Parser], Any]) -> Any:
    """Parse all of text as one production, or raise ParseError."""
    p = Parser(text)
    node = production(p)
    if p.peek().kind != "eof":
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
