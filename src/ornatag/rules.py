"""Logic rules over melodies: a small DSL, evaluation, and the weight matrix.

One rule per line::

    IF duration(@t) > 3 THEN tag(@t) = trills WEIGHT 2.0
    IF pred(@t-1) == trills THEN tag(@t) = none WEIGHT 0.5

The antecedent is a conjunction of clauses of one form: a feature at a
position relative to the anchor ``@t``, a comparator and a literal.  The
features are the note's ``duration``, ``midi``, ``octave`` and ``step``,
the resolved ``position``, and ``pred``, the tag of the base path (the
tagger's Viterbi path) at that position.  ``step`` and ``pred`` take
only ``==`` and ``!=``.  A rule with a ``pred`` clause reads predictions
and is Type 2, otherwise Type 1.

A file may open with ``H1 <w>`` / ``H2 <w>`` directives giving the
default confidences for Type 1 and Type 2 rules (:class:`RuleSet`'s
defaults when absent); an explicit ``WEIGHT`` overrides the default.
``#`` starts a comment at the beginning of a line or after whitespace.

Numbers are ASCII: ``INT``, ``INT/INT`` or a decimal with an optional
exponent, at most :func:`digit_limit` digits plus exponent.
:func:`parse_number` reads each one to an exact ``Fraction``, for
rule files and for the CLI's numeric settings alike; a weight or
confidence is its nearest float, finite and above zero.

The weight matrix starts as all ones, H rows (tags) by T columns
(positions).  Each rule, in source order, multiplies the cell of its
consequent tag at ``anchor + consequent offset`` by its weight wherever
its antecedent holds; out-of-range targets are skipped.  Weights below
1 suppress, above 1 boost.  A cell is multiplied in firing order (rule
source order, then anchors left to right), so reordering rules changes
``p1`` only by floating-point rounding, and not at all when the
weights are powers of two.

:func:`fire_batch` fires a batch of melodies in one pass over their
:func:`number_notes` numbering, which ``combine.tag_corpus`` shares
with its CRF pass.  Each rule is one boolean mask over the padded grid
of melodies by positions, built and read before the next, so memory
grows with the cells and the firings, not with rules times cells; each
note test runs once per distinct note.  Nothing is kept from one call
to the next.  Firings stay arrays (:class:`Firings`); :class:`Firing`
records are built on demand.
"""

from __future__ import annotations

import math
import operator
import re
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Sequence, Union

import numpy as np

from .errors import InputError
from .score import (
    Melody,
    Note,
    StateSequence,
    TagMatrix,
    TagSet,
    digit_limit,
    exceeds_digit_limit,
    iter_data_lines,
    number_notes,
)

FEATURES = ("duration", "midi", "octave", "step", "position", "pred")

_COMPARE = {
    "<": operator.lt,
    "<=": operator.le,
    ">": operator.gt,
    ">=": operator.ge,
    "==": operator.eq,
    "!=": operator.ne,
}

_KEYWORDS = frozenset({"IF", "AND", "THEN", "WEIGHT"})


@dataclass(frozen=True)
class Clause:
    """``feature(@t+offset) comparator value``; ``pred`` values are tag indices."""

    feature: str
    offset: int
    comparator: str
    value: Union[Fraction, int, str]


@dataclass(frozen=True)
class Rule:
    """One parsed rule; Type 2 iff any clause reads the prediction."""

    clauses: tuple[Clause, ...]
    consequent_offset: int
    consequent_tag: str
    consequent_index: int
    weight: float | None
    source_line: int = field(compare=False)

    def __post_init__(self):
        if not self.clauses:
            raise ValueError("a rule needs at least one clause")
        if self.weight is not None and not 0 < self.weight < math.inf:
            raise ValueError(f"weight must be finite and positive: {self.weight}")

    @property
    def rule_class(self) -> int:
        return 2 if any(c.feature == "pred" for c in self.clauses) else 1


@dataclass(frozen=True)
class RuleSet:
    """Rules in source order plus the per-class default confidences."""

    tagset: TagSet
    rules: tuple[Rule, ...]
    h1: float = 2.0
    h2: float = 2.0

    def __post_init__(self):
        object.__setattr__(self, "rules", tuple(self.rules))
        if not (0 < self.h1 < math.inf and 0 < self.h2 < math.inf):
            raise ValueError("default confidences must be finite and positive")

    def __len__(self) -> int:
        return len(self.rules)

    def __iter__(self):
        return iter(self.rules)

    def effective_weight(self, rule: Rule) -> float:
        if rule.weight is not None:
            return rule.weight
        return self.h1 if rule.rule_class == 1 else self.h2


class WeightMatrix(TagMatrix):
    """Rule multipliers p1: strictly positive."""

    def _check(self, values: np.ndarray) -> None:
        if not np.all(values > 0):
            raise ValueError("weight matrix entries must be strictly positive")


@dataclass(frozen=True)
class Firing:
    """One recorded rule application, for explanation output."""

    rule_line: int
    anchor: int
    target: int
    tag: str
    tag_index: int
    weight: float


# -- scanner -------------------------------------------------------------------

# numerator / denominator, or whole part, fraction digits and exponent
_NUMBER_RE = re.compile(
    r"([0-9]+)/([0-9]+)|([0-9]+)(?:\.([0-9]+))?(?:[eE]([-+]?[0-9]+))?")

_TOKEN_RE = re.compile(
    r"(?P<POSREF>@t(?:[+-][0-9]+)?)"
    rf"|(?P<NUMBER>{_NUMBER_RE.pattern})"
    r"|(?P<IDENT>[A-Za-z_][A-Za-z0-9_]*)"
    r"|(?P<OP>==|!=|>=|<=|>|<|=)"
    r"|(?P<LPAREN>\()"
    r"|(?P<RPAREN>\))"
    r"|(?P<WS>[ \t]+)")


@dataclass(frozen=True)
class _Token:
    kind: str
    text: str
    column: int


def _scan(data: str, lineno: int) -> list[_Token]:
    tokens = []
    pos = 0
    while pos < len(data):
        match = _TOKEN_RE.match(data, pos)
        if not match:
            raise InputError(
                f"unexpected character {data[pos]!r}",
                line=lineno, column=pos + 1, expected="a rule token")
        kind = match.lastgroup
        if kind in ("POSREF", "NUMBER"):
            _check_size(match.group(), lineno, pos + 1)
        if kind != "WS":
            tokens.append(_Token(kind, match.group(), pos + 1))
        pos = match.end()
    return tokens


def _check_size(text: str, lineno: int, column: int) -> None:
    """Reject a number whose digits plus decimal exponent pass the limit."""
    if exceeds_digit_limit(text):
        limit = digit_limit()
        raise InputError(
            f"number too large: its digits plus its exponent exceed {limit}",
            line=lineno, column=column,
            expected=f"at most {limit} digits, exponent included")


def parse_number(text: str) -> Fraction:
    """The exact value of ``text``, one number of the rule grammar.

    Raises ValueError when ``text`` is anything else, passes the digit
    limit or has a zero denominator.  Built from the digit runs.
    """
    match = _NUMBER_RE.fullmatch(text)
    if not match or exceeds_digit_limit(text):
        raise ValueError(f"not a number of the rule grammar: {text!r}")
    num, den, whole, digits, exponent = match.groups()
    if num is not None:
        if not int(den):
            raise ValueError(f"zero denominator: {text!r}")
        return Fraction(int(num), int(den))
    mantissa = int(whole + (digits or ""))
    scale = int(exponent or 0) - len(digits or "")
    return (Fraction(mantissa * 10 ** scale) if scale >= 0
            else Fraction(mantissa, 10 ** -scale))


class _LineParser:
    """Recursive-descent parser for one rule line."""

    def __init__(self, tokens: list[_Token], lineno: int, tagset: TagSet):
        self.tokens = tokens
        self.lineno = lineno
        self.tagset = tagset
        self.i = 0

    def peek(self) -> _Token | None:
        return self.tokens[self.i] if self.i < len(self.tokens) else None

    def next(self, expected: str) -> _Token:
        token = self.peek()
        if token is None:
            end = self.tokens[-1].column + len(self.tokens[-1].text)
            raise InputError(
                "unexpected end of rule",
                line=self.lineno, column=end, expected=expected)
        self.i += 1
        return token

    def expect(self, kind: str, text: str | None = None,
               expected: str | None = None) -> _Token:
        label = expected or (f"'{text}'" if text else kind.lower())
        token = self.next(label)
        if token.kind != kind or (text is not None and token.text != text):
            self.fail(token, label)
        return token

    def fail(self, token: _Token, expected: str):
        raise InputError(
            f"unexpected token {token.text!r}",
            line=self.lineno, column=token.column, expected=expected)

    def number(self, token: _Token, what: str) -> Fraction:
        """Exact value of a NUMBER token; a zero denominator fails."""
        try:
            return parse_number(token.text)
        except ValueError:  # the scanner checked all but the denominator
            raise InputError(
                f"zero denominator in {what}: {token.text}", token=token.text,
                line=self.lineno, column=token.column,
                expected="a nonzero denominator") from None

    def parse_positive(self, what: str) -> float:
        """The next number as a float: finite and above zero."""
        token = self.expect("NUMBER", expected="a positive number")
        try:
            value = float(self.number(token, what))
        except OverflowError:  # past float range
            raise InputError(
                f"{what} is out of range: {token.text}", token=token.text,
                line=self.lineno, column=token.column,
                expected="a finite number") from None
        if value <= 0:
            raise InputError(
                f"{what} must be positive: {token.text}", token=token.text,
                line=self.lineno, column=token.column)
        return value

    # grammar productions

    def parse_directive(self) -> float:
        """``H1 posnum`` or ``H2 posnum``: a default confidence."""
        head = self.next("a directive")
        if len(self.tokens) != 2 or self.tokens[1].kind != "NUMBER":
            raise InputError(
                f"malformed {head.text} directive",
                line=self.lineno, column=head.column + len(head.text),
                expected=f"{head.text} <positive number>")
        return self.parse_positive(head.text)

    def parse_rule(self) -> Rule:
        self.expect("IDENT", "IF")
        clauses = [self.parse_clause()]
        while True:
            token = self.peek()
            if token and token.kind == "IDENT" and token.text == "AND":
                self.i += 1
                clauses.append(self.parse_clause())
            else:
                break
        self.expect("IDENT", "THEN")
        self.expect("IDENT", "tag")
        offset = self.parse_position()
        self.expect("OP", "=")
        index = self.parse_tag()
        weight = None
        token = self.peek()
        if token is not None:
            if token.kind == "IDENT" and token.text == "WEIGHT":
                self.i += 1
                weight = self.parse_positive("weight")
                token = self.peek()
            if token is not None:
                self.fail(token, "end of rule")
        return Rule(
            clauses=tuple(clauses),
            consequent_offset=offset,
            consequent_tag=self.tagset.name(index),
            consequent_index=index,
            weight=weight,
            source_line=self.lineno)

    def parse_clause(self) -> Clause:
        head = self.next("a feature or 'pred'")
        if head.kind != "IDENT" or head.text in _KEYWORDS:
            self.fail(head, "a feature or 'pred'")
        if head.text not in FEATURES:
            raise InputError(
                f"unknown feature {head.text!r}", token=head.text,
                line=self.lineno, column=head.column)
        feature = head.text
        offset = self.parse_position()
        op = self.expect("OP", expected="a comparator")
        if op.text == "=":
            self.fail(op, "a comparator ('==' for equality)")
        if feature in ("step", "pred") and op.text not in ("==", "!="):
            self.fail(op, f"'==' or '!=' ({feature} only supports equality tests)")
        return Clause(feature, offset, op.text, self.parse_literal(feature))

    def parse_position(self) -> int:
        """``( posref )``: the offset from the anchor."""
        self.expect("LPAREN")
        token = self.expect("POSREF", expected="'@t', '@t+INT', or '@t-INT'")
        self.expect("RPAREN")
        return int(token.text[2:]) if len(token.text) > 2 else 0

    def parse_tag(self) -> int:
        """A tag name of the bound tag set, as its index."""
        token = self.expect("IDENT", expected="a tag name")
        if token.text not in self.tagset:
            raise InputError(
                f"unknown tag {token.text!r}", token=token.text,
                line=self.lineno, column=token.column)
        return self.tagset.index(token.text)

    def parse_literal(self, feature: str):
        if feature == "pred":
            return self.parse_tag()
        if feature == "step":
            token = self.next("a step letter")
            letter = token.text.upper()
            if token.kind != "IDENT" or len(letter) != 1 or letter not in "CDEFGAB":
                self.fail(token, "a step letter (C through B)")
            return letter
        token = self.expect("NUMBER", expected="a numeric literal")
        if feature == "duration":
            return self.number(token, feature)
        if not token.text.isdigit():
            self.fail(token, f"an integer literal ({feature} is integral)")
        return int(token.text)


def parse_rules(text: str, tagset: TagSet) -> RuleSet:
    """Parse a ruleset file; rule order and line numbers are preserved."""
    defaults: dict[str, float] = {}
    rules: list[Rule] = []
    for lineno, data in iter_data_lines(text):
        tokens = _scan(data, lineno)
        if not tokens:
            continue
        parser = _LineParser(tokens, lineno, tagset)
        head = tokens[0]
        if head.kind != "IDENT" or head.text not in ("H1", "H2"):
            rules.append(parser.parse_rule())
        elif rules:
            raise InputError(
                f"{head.text} directive after the first rule",
                line=lineno, column=head.column,
                expected="directives before all rules")
        else:
            defaults[head.text.lower()] = parser.parse_directive()
    return RuleSet(tagset, tuple(rules), **defaults)


def _format_posref(offset: int) -> str:
    if offset == 0:
        return "@t"
    return f"@t+{offset}" if offset > 0 else f"@t-{-offset}"


def _format_clause(clause: Clause, tagset: TagSet) -> str:
    value = tagset.name(clause.value) if clause.feature == "pred" else clause.value
    return (f"{clause.feature}({_format_posref(clause.offset)}) "
            f"{clause.comparator} {value}")


def serialize_rules(ruleset: RuleSet) -> str:
    """Canonical ruleset text; reparsing yields an equal RuleSet."""
    lines = [f"H1 {ruleset.h1!r}", f"H2 {ruleset.h2!r}"]
    for rule in ruleset:
        antecedent = " AND ".join(
            _format_clause(c, ruleset.tagset) for c in rule.clauses)
        line = (f"IF {antecedent} THEN tag({_format_posref(rule.consequent_offset)})"
                f" = {rule.consequent_tag}")
        if rule.weight is not None:
            line += f" WEIGHT {rule.weight!r}"
        lines.append(line)
    return "".join(f"{line}\n" for line in lines)


# -- evaluation ------------------------------------------------------------------


_NOTE_ATTRS = {"duration": "duration_ql", "midi": "midi", "octave": "octave",
               "step": "step"}


@dataclass(frozen=True, eq=False)
class Firings:
    """One melody's firings as parallel arrays, in firing order."""

    tagset: TagSet
    length: int
    rule_line: np.ndarray
    anchor: np.ndarray
    target: np.ndarray
    tag_index: np.ndarray
    weight: np.ndarray

    def records(self) -> list[Firing]:
        tags = self.tag_index.tolist()
        return list(map(Firing, self.rule_line.tolist(), self.anchor.tolist(),
                        self.target.tolist(), map(self.tagset.name, tags), tags,
                        self.weight.tolist()))

    def weight_matrix(self) -> WeightMatrix:
        """Ones, each firing's cell times its weight, one firing at a time.

        The plain float product: a product out of float range overflows
        or fails the strictly positive check, where ``tag_corpus``
        saturates (see ``ornatag.combine``)."""
        values = np.ones((len(self.tagset), self.length))
        np.multiply.at(values, (self.tag_index, self.target), self.weight)
        return WeightMatrix(values)


def _and_shifted(mask: np.ndarray, truth: np.ndarray, offset: int) -> None:
    """``mask[..., t] &= truth[..., t + offset]`` at each t, and False where
    ``t + offset`` is past either end of the last axis; in place, by slices."""
    T = mask.shape[-1]
    k = max(-T, min(T, offset))
    if k == 0:
        mask &= truth
    elif k > 0:
        mask[..., :T - k] &= truth[..., k:]
        mask[..., T - k:] = False
    else:
        mask[..., -k:] &= truth[..., :T + k]
        mask[..., :-k] = False


def fire_batch(ruleset: RuleSet, numbered: tuple[list[Note], list[np.ndarray]],
               bases: Sequence[StateSequence | np.ndarray]) -> list[Firings]:
    """Each melody's firings: every (rule, anchor) whose antecedent holds
    and whose target is in range, given its base path (a StateSequence
    or an array of tag indices).

    ``numbered`` is :func:`number_notes` of the melodies, all that is
    read of them.  Each rule is one mask over the batch's B x T grid,
    padded past each melody's end and held alone, so memory does not
    grow with the rule count: the anchors whose target is inside, ANDed
    with each clause's truth shifted by its offset (false outside the
    melody).  Note tests run exactly, on Python values, once per distinct
    note.  Firings go by melody, then rule in source order, then anchor.
    """
    distinct, ids = numbered
    if not ids:
        return []
    lengths = [len(row) for row in ids]
    B, T = len(ids), max(lengths)
    inside = np.arange(T) < np.array(lengths)[:, None]
    grid = np.full((B, T), -1)  # -1: a note test's all-False last column
    grid[inside] = np.concatenate(ids)
    pred = np.zeros((B, T), dtype=int)
    pred[inside] = np.concatenate(bases)
    cells = []  # per rule, the flat grid cells of its anchors
    for rule in ruleset:
        mask = inside.copy()
        _and_shifted(mask, inside, rule.consequent_offset)
        for clause in rule.clauses:
            compare = _COMPARE[clause.comparator]
            if clause.feature == "pred":
                truth = compare(pred, clause.value) & inside
            elif clause.feature == "position":
                truth = compare(np.arange(T), min(clause.value, T)) & inside
            else:
                attr = _NOTE_ATTRS[clause.feature]
                truth = np.array(
                    [compare(getattr(note, attr), clause.value)
                     for note in distinct] + [False], dtype=bool).take(grid)
            _and_shifted(mask, truth, clause.offset)
        cells.append(np.flatnonzero(mask))
    rule_at = np.repeat(np.arange(len(cells)), [len(c) for c in cells])
    cells = np.concatenate([np.empty(0, dtype=np.intp), *cells])
    # a stable sort by melody keeps rule, then anchor order within each
    melody_at = (cells // T).astype(np.min_scalar_type(B))
    order = melody_at.argsort(kind="stable")
    bounds = np.bincount(melody_at, minlength=B).cumsum().tolist()
    rule_at = rule_at[order]
    anchor = cells[order] % T
    del cells, order
    # offsets clipped into int64: a rule fires only where |offset| < T
    line, tag, offset = np.array(
        [(r.source_line, r.consequent_index,
          max(-2**62, min(2**62, r.consequent_offset))) for r in ruleset],
        dtype=int).reshape(-1, 3).T
    weight = np.array([ruleset.effective_weight(r) for r in ruleset])
    target = anchor + offset[rule_at]
    line, tag, weight = line[rule_at], tag[rule_at], weight[rule_at]
    return [Firings(ruleset.tagset, length, line[i:j], anchor[i:j],
                    target[i:j], tag[i:j], weight[i:j])
            for length, i, j in zip(lengths, [0, *bounds], bounds)]


def fire(ruleset: RuleSet, melody: Melody, base: StateSequence) -> Firings:
    """:func:`fire_batch` on one melody."""
    return fire_batch(ruleset, number_notes([melody]), [base])[0]


def collect_firings(ruleset: RuleSet, melody: Melody,
                    base: StateSequence) -> list[Firing]:
    """:func:`fire` on one melody, as Firing records."""
    return fire(ruleset, melody, base).records()


def build_weight_matrix(ruleset: RuleSet, melody: Melody,
                        base: StateSequence) -> WeightMatrix:
    """p1 of the firings on one melody, each cell multiplied in firing
    order; rule order changes it only by rounding."""
    return fire(ruleset, melody, base).weight_matrix()
