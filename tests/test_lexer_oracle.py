"""Differential tests of the regex lexer against the character-loop oracle.

Both tokenizers must agree on every token's kind, text, line and column,
and on the line and column of every lexical error.  Parse errors are
located lazily from the token index they carry; the position they report
must be a token position the oracle also reports, and backtracking must
never resolve one.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.lang.lexer as lexer
from repro.core.errors import ParseError
from repro.lang import parse_process, parse_system, tokenize
from tests.lexer_oracle import PUNCTUATION, reference_tokenize

NAMES = st.from_regex(r"[A-Za-z_][A-Za-z0-9_']{0,4}", fullmatch=True)
FRAGMENTS = st.one_of(
    NAMES,
    st.from_regex(r"[0-9]{1,3}", fullmatch=True),
    st.sampled_from(sorted(lexer.KEYWORDS)),
    st.sampled_from(PUNCTUATION),
    st.sampled_from([" ", "\t", "\r", "\n", "\r\n"]),
    st.from_regex(r"#[ -~]{0,8}", fullmatch=True),
    # any other ASCII character, foreign ones included
    st.characters(max_codepoint=127),
)
SOURCES = st.lists(FRAGMENTS, max_size=40).map("".join)


def _outcome(tokenizer, source):
    try:
        return [(t.kind, t.text, t.line, t.column) for t in tokenizer(source)]
    except ParseError as error:
        return ("error", str(error), error.line, error.column)


@settings(max_examples=400, deadline=None)
@given(SOURCES)
def test_tokens_and_errors_match_the_oracle(source):
    assert _outcome(tokenize, source) == _outcome(reference_tokenize, source)


@settings(max_examples=200, deadline=None)
@given(SOURCES)
def test_parse_errors_point_at_an_oracle_token(source):
    try:
        positions = {(t.line, t.column) for t in reference_tokenize(source)}
    except ParseError:
        return
    try:
        parse_system(source)
    except ParseError as error:
        assert (error.line, error.column) in positions


@pytest.mark.parametrize(
    "source, position",
    [
        ("", (1, 1)),
        ("a # trailing comment", (1, 3)),
        ("a\n  # comment\n", (3, 1)),
        ("a  \t", (1, 5)),
    ],
)
def test_eof_position_matches_the_oracle(source, position):
    eof = tokenize(source)[-1]
    assert eof.kind == "EOF" and (eof.line, eof.column) == position
    assert reference_tokenize(source)[-1] == eof


def _count_positions(monkeypatch) -> list:
    calls = []
    resolve = lexer.position

    def counted(source, index):
        calls.append(index)
        return resolve(source, index)

    monkeypatch.setattr(lexer, "position", counted)
    return calls


def test_backtracking_resolves_no_position(monkeypatch):
    calls = _count_positions(monkeypatch)
    # every bare binder is first tried as a pattern, which fails and
    # backtracks: 5,000 caught errors
    source = "a[" + " | ".join(f"c{i}(x).0" for i in range(5_000)) + "]"
    parse_system(source)
    assert calls == []


def test_an_escaping_error_resolves_one_position(monkeypatch):
    calls = _count_positions(monkeypatch)
    with pytest.raises(ParseError) as info:
        parse_process("c(x).d(y).\n  e(z).")
    assert len(calls) == 1
    assert (info.value.line, info.value.column) == (2, 8)
