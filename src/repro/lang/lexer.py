"""Tokenizer for the concrete syntax of the calculus and its patterns.

One lexer serves both the system/process grammar and the pattern grammar
(patterns occur inside input prefixes, so they share a token stream).  The
token vocabulary:

====================  =======================================
kind                  examples
====================  =======================================
``NAME``              ``m``, ``judge1``, ``x'``
``NUMBER``            ``0``
``keyword``           ``if then else new as any eps none``
punctuation           ``[ ] ( ) { } < > << >> | || + - * ! ? ~``
                      ``; : , . =``
``EOF``               end of input
====================  =======================================

Comments run from ``#`` to end of line.  ``<<``/``>>``/``||`` are matched
greedily before ``<``/``>``/``|``; names are exactly ``names.NAME_RE``.

One ``findall`` of a master regex scans the source: each match skips blanks
and comments and captures a token, a catch-all alternative captures any
other character (none is skipped silently), and the empty match at the end
is ``EOF``.  A dict lookup per text gives its kind; :class:`TokenStream` is
an integer cursor over the parallel ``texts`` and ``kinds`` lists.  No
positions are tracked: a parse error carries its token index, and
:func:`position` rescans the source only when the error leaves a public
``parse_*`` entry point, since the parsers backtrack by raising errors.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from itertools import islice
from typing import Callable, Iterator, TypeVar

from repro.core.errors import ParseError
from repro.core.names import NAME_RE

__all__ = ["Token", "TokenStream", "tokenize", "position", "KEYWORDS"]

KEYWORDS = frozenset({"if", "then", "else", "new", "as", "any", "eps", "none"})

_PUNCTUATION = "<< >> || [ ] ( ) { } < > | + - * ! ? ~ ; : , . =".split()

# blanks and comments, then a name, a number, punctuation (longest first),
# any other character, or the end of the input
_TOKEN_RE = re.compile(
    r"(?:[ \t\r\n]|#[^\n]*)*("
    + "|".join([NAME_RE.pattern, "[0-9]+", *map(re.escape, _PUNCTUATION)])
    + r"|.|\Z)"
)
_KINDS = {text: text for text in (*KEYWORDS, *_PUNCTUATION)} | {"": "EOF"}

_T = TypeVar("_T")


class _Kinds(dict):
    """Token text → kind, classifying names and numbers on first sight."""

    def __missing__(self, text: str) -> str | None:
        name, number = NAME_RE.fullmatch(text), "0" <= text[0] <= "9"
        self[text] = kind = "NAME" if name else "NUMBER" if number else None
        return kind  # None for a foreign character


def _scan(source: str) -> tuple[list[str], list[str]]:
    texts = _TOKEN_RE.findall(source)
    if len(texts) > 1 and not texts[-2]:
        del texts[-1]  # trailing blanks end in a second, empty match
    kinds = list(map(_Kinds(_KINDS).__getitem__, texts))
    if None in kinds:
        index = kinds.index(None)
        raise ParseError(
            f"unexpected character {texts[index]!r}", *position(source, index)
        )
    return texts, kinds


def _positions(source: str) -> Iterator[tuple[int, int]]:
    """1-based line and column of each token of ``source``, ``EOF`` last."""

    offsets = [match.start(1) for match in _TOKEN_RE.finditer(source)]
    if len(offsets) > 1 and offsets[-2] == len(source):
        del offsets[-1]  # as in _scan
    # a comment on the last line does not move EOF past its ``#``
    comment = source.find("#", source.rfind("\n") + 1)
    if comment >= 0:
        offsets[-1] = comment
    line, line_start, previous = 1, 0, 0
    for offset in offsets:
        line += source.count("\n", previous, offset)
        line_start = max(line_start, source.rfind("\n", previous, offset) + 1)
        previous = offset
        yield line, offset - line_start + 1


def position(source: str, index: int) -> tuple[int, int]:
    """The 1-based line and column of token ``index`` of ``source``."""

    return next(islice(_positions(source), index, None))


@dataclass(frozen=True, slots=True)
class Token:
    """A lexeme with its source position (1-based line/column)."""

    kind: str
    text: str
    line: int
    column: int

    def __str__(self) -> str:
        return f"{self.kind}({self.text!r})@{self.line}:{self.column}"


def tokenize(source: str) -> list[Token]:
    """Tokenize ``source``; raises :class:`ParseError` on foreign characters."""

    texts, kinds = _scan(source)
    return [
        Token(kind, text, line, column)
        for kind, text, (line, column) in zip(kinds, texts, _positions(source))
    ]


class TokenStream:
    """An integer cursor over the token ``texts`` and ``kinds`` of a source.

    Parsers backtrack by restoring ``index``.  :meth:`error` records the
    token index, which :meth:`parse` turns into a line and column.
    """

    __slots__ = ("source", "texts", "kinds", "index")

    def __init__(self, source: str) -> None:
        self.source = source
        self.texts, self.kinds = _scan(source)
        self.index = 0

    def peek(self, offset: int = 0) -> str:
        return self.kinds[self.index + offset]

    def at(self, kind: str) -> bool:
        return self.kinds[self.index] == kind

    def advance(self) -> str:
        """Consume the current token; returns its text."""

        self.index += 1
        return self.texts[self.index - 1]

    def expect(self, kind: str) -> str:
        """Consume a token of ``kind``; returns its text."""

        index = self.index
        if self.kinds[index] != kind:
            raise self.error(
                f"expected {kind!r}, found {self.kinds[index]!r}"
                f" ({self.texts[index]!r})"
            )
        self.index = index + 1
        return self.texts[index]

    def accept(self, kind: str) -> bool:
        """Consume the current token if it has ``kind``."""

        if self.kinds[self.index] == kind:
            self.index += 1
            return True
        return False

    def error(self, message: str) -> ParseError:
        error = ParseError(message)
        error.token = self.index
        return error

    def parse(self, rule: Callable[[], _T]) -> _T:
        """Run ``rule``, which must consume the whole input."""

        try:
            result = rule()
            self.expect("EOF")
        except ParseError as error:
            line, column = position(self.source, error.token)
            raise ParseError(str(error), line, column) from None
        return result
