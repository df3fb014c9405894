"""Tests for the concrete syntax: lexer, parser, pretty-printer round-trips."""

import pytest
from hypothesis import given, settings

from repro.core.builder import av, ch, pr, var
from repro.core.errors import ParseError
from repro.core.names import Channel, Principal, Variable
from repro.core.process import (
    Inaction,
    InputSum,
    Match,
    Output,
    Parallel,
    Replication,
    Restriction,
)
from repro.core.provenance import EMPTY, InputEvent, OutputEvent, Provenance
from repro.core.system import Located, Message, SysParallel, SysRestriction
from repro.lang import (
    parse_identifier,
    parse_process,
    parse_provenance,
    parse_system,
    pretty_process,
    pretty_provenance,
    pretty_system,
    tokenize,
)
from tests.conftest import systems


class TestLexer:
    def test_names_keywords_punctuation(self):
        kinds = [t.kind for t in tokenize("if m<v> then *P else 0")]
        assert kinds == ["if", "NAME", "<", "NAME", ">", "then", "*", "NAME",
                         "else", "NUMBER", "EOF"]

    def test_greedy_double_tokens(self):
        kinds = [t.kind for t in tokenize("a || b << >> | <")]
        assert kinds == ["NAME", "||", "NAME", "<<", ">>", "|", "<", "EOF"]

    def test_comments_skipped(self):
        kinds = [t.kind for t in tokenize("a # a comment\n b")]
        assert kinds == ["NAME", "NAME", "EOF"]

    def test_positions_reported(self):
        tokens = tokenize("ab\n  cd")
        assert (tokens[0].line, tokens[0].column) == (1, 1)
        assert (tokens[1].line, tokens[1].column) == (2, 3)

    def test_unknown_character_rejected_with_position(self):
        with pytest.raises(ParseError) as info:
            tokenize("a $ b")
        assert info.value.column == 3


class TestParseProvenance:
    def test_empty(self):
        assert parse_provenance("{}") == EMPTY

    def test_events_most_recent_first(self):
        k = parse_provenance("{c?{}; a!{}}")
        assert k == Provenance.of(
            InputEvent(Principal("c"), EMPTY), OutputEvent(Principal("a"), EMPTY)
        )

    def test_nested_channel_provenance(self):
        k = parse_provenance("{a!{b?{}}}")
        assert k.head.channel_provenance.head == InputEvent(Principal("b"), EMPTY)

    def test_round_trip(self):
        text = "{c?{}; s!{a!{}}; a!{}}"
        assert pretty_provenance(parse_provenance(text)) == text


class TestParseIdentifier:
    def test_bare_name_is_channel_value(self):
        assert parse_identifier("m") == av(ch("m"))

    def test_principal_hint(self):
        assert parse_identifier("a", principals={"a"}) == av(pr("a"))

    def test_annotation_forces_value(self):
        value = parse_identifier("v:{a!{}}")
        assert value.provenance == Provenance.of(OutputEvent(Principal("a"), EMPTY))


class TestParseProcess:
    def test_output(self):
        p = parse_process("m<v, w>")
        assert isinstance(p, Output) and p.arity == 2

    def test_input_with_bare_binder_defaults_to_any(self):
        p = parse_process("m(x).n<x>")
        assert isinstance(p, InputSum)
        assert str(p.branches[0].patterns[0]) == "any"
        assert p.branches[0].binders == (Variable("x"),)

    def test_input_with_pattern(self):
        p = parse_process("m(c!any;any as x).0")
        assert "c!any;any" == str(p.branches[0].patterns[0])

    def test_bound_variable_recognized_in_continuation(self):
        p = parse_process("m(x).x<y>")
        continuation = p.branches[0].continuation
        assert continuation.channel == Variable("x")

    def test_sum_merges_branches_on_same_channel(self):
        p = parse_process("m(x).0 + m(y).0")
        assert isinstance(p, InputSum) and len(p.branches) == 2

    def test_sum_on_distinct_channels_rejected(self):
        with pytest.raises(ParseError):
            parse_process("m(x).0 + n(y).0")

    def test_sum_of_non_inputs_rejected(self):
        with pytest.raises(ParseError):
            parse_process("m<v> + m(x).0")

    def test_if_then_else(self):
        p = parse_process("if v = w then m<v> else n<w>")
        assert isinstance(p, Match)

    def test_dangling_else_binds_inner(self):
        p = parse_process("if a = b then if c = d then m<v> else n<v> else k<v>")
        assert isinstance(p, Match)
        assert isinstance(p.then_branch, Match)

    def test_restriction_and_replication(self):
        p = parse_process("(new k)(*(k<v>))")
        assert isinstance(p, Restriction)
        assert isinstance(p.body, Replication)

    def test_parallel(self):
        p = parse_process("m<v> | n<w> | 0")
        assert isinstance(p, Parallel) and len(p.parts) == 3

    def test_polyadic_input(self):
        p = parse_process("m(any as x, c!any as y).0")
        assert p.branches[0].arity == 2


class TestParseSystem:
    def test_located_names_become_principals(self):
        s = parse_system("a[m<a>]")
        assert isinstance(s, Located)
        # the payload `a` refers to the principal, not a channel
        assert s.process.payload[0] == av(pr("a"))

    def test_forward_located_reference(self):
        s = parse_system("x[m<b>] || b[m(y).0]")
        assert s.parts[0].process.payload[0] == av(pr("b"))

    def test_message(self):
        s = parse_system("m<<v, w>>")
        assert isinstance(s, Message) and s.arity == 2

    def test_message_with_provenance(self):
        s = parse_system("m<<v:{a!{}}>>")
        assert s.payload[0].provenance == Provenance.of(
            OutputEvent(Principal("a"), EMPTY)
        )

    def test_system_restriction(self):
        s = parse_system("(new n)(a[n<v>] || b[n(x).0])")
        assert isinstance(s, SysRestriction)

    def test_empty_system(self):
        assert parse_system("0") == SysParallel(())

    def test_extra_principals_argument(self):
        s = parse_system("m<<d>>", principals={"d"})
        assert s.payload[0] == av(pr("d"))

    def test_trailing_junk_rejected(self):
        with pytest.raises(ParseError):
            parse_system("a[0] ]")


class TestForeignCharacters:
    """Only what the name rule accepts scans as a name."""

    def test_non_ascii_principal_rejected_at_its_position(self):
        with pytest.raises(ParseError) as info:
            parse_system("é[0]")
        assert (info.value.line, info.value.column) == (1, 1)

    def test_non_ascii_name_character_rejected_at_its_position(self):
        source = "a[c²<d>]"
        with pytest.raises(ParseError) as info:
            parse_system(source)
        assert (info.value.line, info.value.column) == (1, source.index("²") + 1)


def _depth(process) -> int:
    """Nesting depth of a prefix chain, walked without recursion."""

    depth = 0
    while not isinstance(process, Inaction):
        depth += 1
        if isinstance(process, InputSum):
            process = process.branches[0].continuation
        else:
            process = process.body
    return depth


class TestLongPrefixChains:
    """Prefix chains fold from an explicit stack, so no depth overflows."""

    DEPTH = 10_000

    def test_input_prefix_chain(self):
        source = "".join(f"c{i}(x{i})." for i in range(self.DEPTH)) + "0"
        process = parse_process(source)
        assert _depth(process) == self.DEPTH
        last = process
        for _ in range(self.DEPTH - 1):
            last = last.branches[0].continuation
        assert last.channel == av(ch(f"c{self.DEPTH - 1}"))
        assert last.branches[0].binders == (Variable(f"x{self.DEPTH - 1}"),)

    def test_binders_scope_over_the_rest_of_the_chain(self):
        process = parse_process("c(x).d(y).x<y>")
        inner = process.branches[0].continuation.branches[0].continuation
        assert inner == Output(Variable("x"), (Variable("y"),))

    def test_restriction_chain(self):
        source = "".join(f"(new c{i})" for i in range(self.DEPTH)) + "0"
        process = parse_process(source)
        assert _depth(process) == self.DEPTH
        assert isinstance(process, Restriction) and process.channel == Channel("c0")

    def test_replication_chain(self):
        process = parse_process("*" * self.DEPTH + "0")
        assert _depth(process) == self.DEPTH
        assert isinstance(process, Replication)


class TestRoundTrip:
    CASES = [
        "a[m<v>]",
        "m<<v, w>>",
        "a[m(any as x).n<x>]",
        "a[(m(any as x).0 + m(eps as y).k<y>)]",
        "a[if v = w then m<v> else 0]",
        "(new n)(a[n<v>] || b[n(any as x).0])",
        "a[*(m<v>)]",
        "a[(new k)(k<v>)]",
        "a[(m<v> | n<w>)]" ,
        "m<<v:{c?{}; s!{}; s?{}; a!{}}>>",
        "a[pub((any;c1!any) as x, any as y).0]",
    ]

    @pytest.mark.parametrize("text", CASES)
    def test_parse_pretty_parse_fixpoint(self, text):
        once = parse_system(text)
        again = parse_system(pretty_system(once))
        assert once == again

    @settings(max_examples=60, deadline=None)
    @given(systems())
    def test_random_system_round_trip(self, system):
        printed = pretty_system(system)
        principals = {p.name for p in _hosts(system)}
        reparsed = parse_system(printed, principals=principals)
        assert reparsed == system


def _hosts(system):
    from repro.core.system import system_principals

    return system_principals(system)
