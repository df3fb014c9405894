"""The character-loop tokenizer, kept as a reference oracle for the lexer.

:mod:`repro.lang.lexer` scans with one master regex and works out source
positions only when an error needs them.  This module is the tokenizer it
replaced: it walks the source one character at a time and tracks the line
and column of every token as it goes.  The differential tests in
``tests/test_lexer_oracle.py`` check that both agree on every token's
kind, text, line and column and on the position of every lexical error.
"""

from __future__ import annotations

from repro.core.errors import ParseError
from repro.lang.lexer import Token

_KEYWORDS = frozenset({"if", "then", "else", "new", "as", "any", "eps", "none"})

PUNCTUATION = [
    "<<",
    ">>",
    "||",
    "[",
    "]",
    "(",
    ")",
    "{",
    "}",
    "<",
    ">",
    "|",
    "+",
    "-",
    "*",
    "!",
    "?",
    "~",
    ";",
    ":",
    ",",
    ".",
    "=",
]


def reference_tokenize(source: str) -> list[Token]:
    """Tokenize ``source`` one character at a time.

    Raises :class:`ParseError` with the line and column of a foreign
    character.
    """

    tokens: list[Token] = []
    line = 1
    column = 1
    index = 0
    length = len(source)
    while index < length:
        char = source[index]
        if char == "\n":
            line += 1
            column = 1
            index += 1
            continue
        if char in " \t\r":
            index += 1
            column += 1
            continue
        if char == "#":
            while index < length and source[index] != "\n":
                index += 1
            continue
        if char.isalpha() or char == "_":
            start = index
            while index < length and (
                source[index].isalnum() or source[index] in "_'"
            ):
                index += 1
            text = source[start:index]
            kind = text if text in _KEYWORDS else "NAME"
            tokens.append(Token(kind, text, line, column))
            column += index - start
            continue
        if char.isdigit():
            start = index
            while index < length and source[index].isdigit():
                index += 1
            text = source[start:index]
            tokens.append(Token("NUMBER", text, line, column))
            column += index - start
            continue
        for punct in PUNCTUATION:
            if source.startswith(punct, index):
                tokens.append(Token(punct, punct, line, column))
                index += len(punct)
                column += len(punct)
                break
        else:
            raise ParseError(f"unexpected character {char!r}", line, column)
    tokens.append(Token("EOF", "", line, column))
    return tokens
