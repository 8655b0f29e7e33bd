"""The lexer's token stream, pinned: kinds, values, lines and columns.

The expected streams were recorded from the per-character lexer that the
regex lexer replaced; `_reference_lex` is that lexer, kept here as the
oracle for the generated inputs.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from loopcert.errors import ParseError
from loopcert.parser import KEYWORDS, Parser, lex

GOLDEN = {
    "∀ ∃ ⊤ ⊥ ⟨ ⟩ ⋆ ¬ → ⇒ λ": (
        [("kw", "forall", 1, 1), ("kw", "exists", 1, 3), ("kw", "top", 1, 5), ("kw", "bot", 1, 7),
         ("punct", "<", 1, 9), ("punct", ">", 1, 11), ("punct", "*", 1, 13), ("punct", "~", 1, 15),
         ("punct", "->", 1, 17), ("punct", "=>", 1, 19), ("kw", "lam", 1, 21), ("eof", "", 1, 22)],
        [],
    ),
    "λx xλ λλ": (
        [("kw", "lam", 1, 1), ("ident", "x", 1, 2), ("ident", "xλ", 1, 4), ("kw", "lam", 1, 7),
         ("kw", "lam", 1, 8), ("eof", "", 1, 9)],
        [],
    ),
    "a\tb\r\nc  // note: first  \r\n\t// plain comment\nd // note:second": (
        [("ident", "a", 1, 1), ("ident", "b", 1, 3), ("ident", "c", 2, 1), ("ident", "d", 4, 1),
         ("eof", "", 4, 17)],
        ["first", "second"],
    ),
    ":= :> <: => -> { } [ ] ( ) < > , ; : . = ~ * ? /": (
        [("punct", ":=", 1, 1), ("punct", ":>", 1, 4), ("punct", "<:", 1, 7), ("punct", "=>", 1, 10),
         ("punct", "->", 1, 13), ("punct", "{", 1, 16), ("punct", "}", 1, 18), ("punct", "[", 1, 20),
         ("punct", "]", 1, 22), ("punct", "(", 1, 24), ("punct", ")", 1, 26), ("punct", "<", 1, 28),
         ("punct", ">", 1, 30), ("punct", ",", 1, 32), ("punct", ";", 1, 34), ("punct", ":", 1, 36),
         ("punct", ".", 1, 38), ("punct", "=", 1, 40), ("punct", "~", 1, 42), ("punct", "*", 1, 44),
         ("punct", "?", 1, 46), ("punct", "/", 1, 48), ("eof", "", 1, 49)],
        [],
    ),
    "12ab x_1 _y 007 a1b2": (
        [("int", "12", 1, 1), ("ident", "ab", 1, 3), ("ident", "x_1", 1, 6), ("ident", "_y", 1, 10),
         ("int", "007", 1, 13), ("ident", "a1b2", 1, 17), ("eof", "", 1, 21)],
        [],
    ),
    # '²' is a digit (str.isdigit) but not a decimal digit (regex \d)
    "²  12² x²": (
        [("int", "²", 1, 1), ("int", "12²", 1, 4), ("ident", "x²", 1, 8), ("eof", "", 1, 10)],
        [],
    ),
    "٣٤": ([("int", "٣٤", 1, 1), ("eof", "", 1, 3)], []),
    "z:=succ(z);inc(z)//x": (
        [("ident", "z", 1, 1), ("punct", ":=", 1, 2), ("kw", "succ", 1, 4), ("punct", "(", 1, 8),
         ("ident", "z", 1, 9), ("punct", ")", 1, 10), ("punct", ";", 1, 11), ("kw", "inc", 1, 12),
         ("punct", "(", 1, 15), ("ident", "z", 1, 16), ("punct", ")", 1, 17), ("eof", "", 1, 21)],
        [],
    ),
    "": ([("eof", "", 1, 1)], []),
}

UNSUPPORTED = {
    "a\n  b @": ("@", 2, 5),
    "x\t§": ("§", 1, 3),
    "½": ("½", 1, 1),
    "x\xa0y": ("\xa0", 1, 2),
}


def _stream(tokens):
    return [(tokens.kinds[k], tokens.values[k], *tokens.position(k)) for k in range(len(tokens))]


@pytest.mark.parametrize("text", sorted(GOLDEN))
def test_token_stream_golden(text):
    tokens, notes = lex(text)
    assert (_stream(tokens), notes) == GOLDEN[text]


@pytest.mark.parametrize("text", sorted(UNSUPPORTED))
def test_unsupported_character_location(text):
    ch, line, col = UNSUPPORTED[text]
    with pytest.raises(ParseError) as err:
        lex(text)
    assert (err.value.line, err.value.col) == (line, col)
    assert f"unsupported character {ch!r}" in str(err.value)


def test_peek_past_the_end_is_eof():
    p = Parser("x")
    assert p.peek(5).kind == "eof"
    p.next()
    p.next()
    assert p.peek().kind == "eof" and p.peek(1).kind == "eof"


_UNICODE = {
    "∀": "forall", "∃": "exists", "⊤": "top", "⊥": "bot",
    "⟨": "<", "⟩": ">", "⋆": "*", "¬": "~",
    "→": "->", "⇒": "=>", "λ": "lam",
}


def _reference_lex(text):
    """The per-character lexer, as it was before the regex lexer."""
    tokens, notes = [], []
    line, col, k = 1, 1, 0
    n = len(text)
    while k < n:
        ch = text[k]
        if ch == "\n":
            line, col, k = line + 1, 1, k + 1
            continue
        if ch in " \t\r":
            k, col = k + 1, col + 1
            continue
        if text.startswith("//", k):
            end = text.find("\n", k)
            end = n if end == -1 else end
            comment = text[k + 2:end].strip()
            if comment.startswith("note:"):
                notes.append(comment[5:].strip())
            col += end - k
            k = end
            continue
        if ch in _UNICODE:
            alias = _UNICODE[ch]
            tokens.append(("kw" if alias in KEYWORDS else "punct", alias, line, col))
            k, col = k + 1, col + 1
            continue
        two = text[k:k + 2]
        if two in (":=", ":>", "<:", "=>", "->"):
            tokens.append(("punct", two, line, col))
            k, col = k + 2, col + 2
            continue
        if ch.isdigit() or ch.isalpha() or ch == "_":
            j = k
            if ch.isdigit():
                while j < n and text[j].isdigit():
                    j += 1
                kind = "int"
            else:
                while j < n and (text[j].isalnum() or text[j] == "_"):
                    j += 1
                kind = "kw" if text[k:j] in KEYWORDS else "ident"
            tokens.append((kind, text[k:j], line, col))
            col += j - k
            k = j
            continue
        if ch in "{}[]()<>,;:.=~*?/":
            tokens.append(("punct", ch, line, col))
            k, col = k + 1, col + 1
            continue
        return ("error", ch, line, col), notes
    tokens.append(("eof", "", line, col))
    return tokens, notes


def _lex_or_error(text):
    try:
        tokens, notes = lex(text)
    except ParseError as ex:
        return ("error", ex.message[len("unsupported character "):], ex.line, ex.col), None
    return _stream(tokens), notes


_ALPHABET = list("az_09 \t\r\n/:=<>-{}()[],;.~*?!@x") + list(_UNICODE) + ["²", "٣", "½", "é", "\xa0"]


@settings(max_examples=300, deadline=None)
@given(st.lists(st.sampled_from(_ALPHABET + ["//", "note:", "inc", "succ", "12"]), max_size=40))
def test_lexer_agrees_with_reference(parts):
    text = "".join(parts)
    got, notes = _lex_or_error(text)
    want, want_notes = _reference_lex(text)
    if isinstance(want, tuple):  # an unsupported character
        assert got == ("error", repr(want[1]), want[2], want[3])
    else:
        assert (got, notes) == (want, want_notes)
