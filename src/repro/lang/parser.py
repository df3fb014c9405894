"""Recursive-descent parser for the concrete syntax.

The parser resolves the calculus' three name sorts contextually:

* a name directly followed by ``[`` hosts a located process — it is a
  **principal** (a pre-scan collects these before parsing, so forward
  references work); extra principal names can be supplied via the
  ``principals`` argument for data-only principals (e.g. a value ``d``
  sent in a payload when ``d`` never hosts a process);
* a name bound by an enclosing input binder is a **variable**;
* every other name in identifier position is a **channel**.

Provenance annotations (``v:{a!{}}``) always force the value reading.

Patterns inside input prefixes use the sample language of Table 3
(:mod:`repro.patterns.parse`); the calculus itself remains parametric in
the pattern language, but the concrete syntax commits to the paper's
sample language.

Prefix chains (input prefixes, ``(new c)`` and ``*``) are folded inside-out
from an explicit stack, so a chain of any length parses without recursion.
"""

from __future__ import annotations

from functools import partial
from typing import Callable, Iterable

from repro.core.errors import ParseError
from repro.core.names import Channel, Principal, Variable
from repro.core.patterns import Pattern
from repro.core.process import (
    Inaction,
    InputBranch,
    InputSum,
    Match,
    Output,
    Parallel,
    Process,
    Replication,
    Restriction,
)
from repro.core.provenance import EMPTY, Event, InputEvent, OutputEvent, Provenance
from repro.core.system import Located, Message, SysParallel, SysRestriction, System
from repro.core.values import AnnotatedValue, Identifier
from repro.lang.lexer import TokenStream
from repro.patterns.ast import AnyPattern
from repro.patterns.parse import parse_pattern_stream

__all__ = ["parse_system", "parse_process", "parse_provenance", "parse_identifier"]


def parse_system(source: str, principals: Iterable[str] = ()) -> System:
    """Parse a complete system term."""

    stream = TokenStream(source)
    return stream.parse(_Parser(stream, _scan_principals(stream, principals)).system)


def parse_process(source: str, principals: Iterable[str] = ()) -> Process:
    """Parse a complete process term."""

    stream = TokenStream(source)
    return stream.parse(_Parser(stream, set(principals)).process)


def parse_provenance(source: str) -> Provenance:
    """Parse a braced provenance literal, e.g. ``{c?{}; s!{}}``."""

    stream = TokenStream(source)
    return stream.parse(_Parser(stream, set()).provenance)


def parse_identifier(source: str, principals: Iterable[str] = ()) -> Identifier:
    """Parse a standalone identifier (value, annotated value or variable).

    Free bare names parse as channels unless listed in ``principals``.
    """

    stream = TokenStream(source)
    return stream.parse(_Parser(stream, set(principals)).identifier)


def _scan_principals(stream: TokenStream, extra: Iterable[str]) -> set[str]:
    """Names immediately followed by ``[`` host located processes."""

    kinds, texts = stream.kinds, stream.texts  # kinds[-1] is EOF, not NAME
    return set(extra).union(
        texts[i - 1]
        for i, kind in enumerate(kinds) if kind == "[" and kinds[i - 1] == "NAME"
    )


class _Parser:
    def __init__(self, stream: TokenStream, principals: set[str]) -> None:
        self.stream = stream
        self.principals = principals
        self._bound: list[str] = []

    # -- systems ---------------------------------------------------------

    def system(self) -> System:
        parts = [self.sysatom()]
        while self.stream.accept("||"):
            parts.append(self.sysatom())
        if len(parts) == 1:
            return parts[0]
        return SysParallel(tuple(parts))

    def sysatom(self) -> System:
        stream = self.stream
        kind = stream.peek()
        if kind == "(":
            if stream.peek(1) == "new":
                stream.index += 2
                name = stream.expect("NAME")
                stream.expect(")")
                return SysRestriction(Channel(name), self.sysatom())
            stream.advance()
            system = self.system()
            stream.expect(")")
            return system
        if kind == "NUMBER" and stream.texts[stream.index] == "0":
            stream.advance()
            return SysParallel(())
        if kind == "NAME":
            if stream.peek(1) == "[":
                name = stream.advance()
                self.principals.add(name)
                stream.advance()
                process = self.process()
                stream.expect("]")
                return Located(Principal(name), process)
            if stream.peek(1) == "<<":
                name = stream.advance()
                stream.advance()
                payload = self._list(self._value, ">>")
                stream.expect(">>")
                return Message(Channel(name), tuple(payload))
        raise stream.error(f"expected a system, found {kind!r}")

    def _value(self) -> AnnotatedValue:
        identifier = self.identifier()
        if not isinstance(identifier, AnnotatedValue):
            raise self.stream.error(
                f"message payloads must be values, found variable {identifier}"
            )
        return identifier

    def _list(self, item: Callable, closer: str, separator: str = ",") -> list:
        """``item (separator item)*``, or nothing when ``closer`` is next."""

        items = []
        if not self.stream.at(closer):
            items.append(item())
            while self.stream.accept(separator):
                items.append(item())
        return items

    # -- processes ---------------------------------------------------------

    def process(self) -> Process:
        parts = [self.sumterm()]
        while self.stream.accept("|"):
            parts.append(self.sumterm())
        if len(parts) == 1:
            return parts[0]
        return Parallel(tuple(parts))

    def sumterm(self) -> Process:
        first = self.patom()
        if not self.stream.at("+"):
            return first
        summands = [self._as_single_sum(first)]
        while self.stream.accept("+"):
            summands.append(self._as_single_sum(self.patom()))
        channel = summands[0].channel
        for other in summands[1:]:
            if other.channel != channel:
                raise self.stream.error(
                    "input-guarded sums must share one channel "
                    f"({other.channel} vs {channel})"
                )
        branches = tuple(
            branch for summand in summands for branch in summand.branches
        )
        return InputSum(channel, branches)

    def _as_single_sum(self, process: Process) -> InputSum:
        if isinstance(process, InputSum):
            return process
        raise self.stream.error("only input prefixes may be summed with '+'")

    def patom(self) -> Process:
        """An atom under a chain of prefixes, folded without recursion.

        Each prefix pushes the function that wraps its body; input binders
        stay in scope until the atom ending the chain is parsed.
        """

        stream = self.stream
        depth = len(self._bound)
        wraps: list = []
        try:
            while True:
                kind = stream.peek()
                if kind == "(" and stream.peek(1) == "new":
                    stream.index += 2
                    wraps.append(partial(Restriction, Channel(stream.expect("NAME"))))
                    stream.expect(")")
                elif stream.accept("*"):
                    wraps.append(Replication)
                elif kind != "NAME":
                    process = self._atom(kind)
                    break
                else:
                    subject = self.identifier()
                    if not stream.at("("):
                        process = self._output(subject)
                        break
                    wraps.append(self._input_prefix(subject))
        finally:
            del self._bound[depth:]
        for wrap in reversed(wraps):
            process = wrap(process)
        return process

    def _atom(self, kind: str) -> Process:
        stream = self.stream
        if kind == "(":
            stream.advance()
            process = self.process()
            stream.expect(")")
            return process
        if kind == "NUMBER" and stream.texts[stream.index] == "0":
            stream.advance()
            return Inaction()
        if kind == "if":
            return self._match()
        raise stream.error(f"expected a process, found {kind!r}")

    def _output(self, subject: Identifier) -> Output:
        stream = self.stream
        if not stream.accept("<"):
            raise stream.error(
                "expected '<' (output) or '(' (input) after channel"
            )
        payload = self._list(self.identifier, ">")
        stream.expect(">")
        return Output(subject, tuple(payload))

    def _match(self) -> Process:
        stream = self.stream
        stream.expect("if")
        left = self.identifier()
        stream.expect("=")
        right = self.identifier()
        stream.expect("then")
        then_branch = self.patom()
        stream.expect("else")
        else_branch = self.patom()
        return Match(left, right, then_branch, else_branch)

    def _input_prefix(self, subject: Identifier):
        """Parse ``(π as x, …).``, bind its binders and return its wrap."""

        stream = self.stream
        stream.expect("(")
        bindings = self._list(self._binding, ")")
        stream.expect(")")
        stream.expect(".")
        patterns = tuple(pattern for pattern, _ in bindings)
        binders = tuple(binder for _, binder in bindings)
        self._bound.extend(binder.name for binder in binders)
        return lambda body: InputSum(
            subject, (InputBranch(patterns, binders, body),)
        )

    def _binding(self) -> tuple[Pattern, Variable]:
        stream = self.stream
        mark = stream.index
        try:
            pattern = parse_pattern_stream(stream)
            if stream.accept("as"):
                return pattern, Variable(stream.expect("NAME"))
        except ParseError:
            pass
        stream.index = mark
        return AnyPattern(), Variable(stream.expect("NAME"))

    # -- identifiers and provenance ---------------------------------------

    def identifier(self) -> Identifier:
        stream = self.stream
        name = stream.expect("NAME")
        if stream.accept(":"):
            provenance = self.provenance()
            return AnnotatedValue(self._plain(name), provenance)
        if name in self._bound:
            return Variable(name)
        return AnnotatedValue(self._plain(name), EMPTY)

    def _plain(self, name: str):
        if name in self.principals:
            return Principal(name)
        return Channel(name)

    def provenance(self) -> Provenance:
        stream = self.stream
        stream.expect("{")
        events = self._list(self._event, "}", ";")
        stream.expect("}")
        return Provenance(tuple(events))

    def _event(self) -> Event:
        stream = self.stream
        name = stream.expect("NAME")
        principal = Principal(name)
        self.principals.add(name)
        if stream.accept("!"):
            return OutputEvent(principal, self.provenance())
        if stream.accept("?"):
            return InputEvent(principal, self.provenance())
        raise stream.error("expected '!' or '?' in provenance event")
