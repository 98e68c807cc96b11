"""Rule DSL parsing, rule firing, and weight-matrix construction."""

import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from oracles import melody_from_tokens, random_melody, reference_firings
from ornatag.errors import InputError, ShapeMismatch
from ornatag.rules import (
    FEATURES,
    Clause,
    Firing,
    Rule,
    RuleSet,
    build_weight_matrix,
    collect_firings,
    fire,
    fire_batch,
    _NUMBER_RE,
    parse_number,
    parse_rules,
    serialize_rules,
)
from ornatag.score import (
    Melody,
    StateSequence,
    TagSet,
    digit_limit,
    exceeds_digit_limit,
    number_notes,
    parse_corpus,
)
from ornatag.tagger import _pad

TAGS = TagSet(("none", "trills", "fermata", "mordent"))


def parse_one(line: str) -> Rule:
    ruleset = parse_rules(line + "\n", TAGS)
    assert len(ruleset) == 1
    return ruleset.rules[0]


class TestParseRules:
    """Grammar, classification, and error reporting."""

    def test_long_note_rule(self):
        rule = parse_one("IF duration(@t) > 3 THEN tag(@t) = trills WEIGHT 2.0")
        assert rule.rule_class == 1
        assert rule.weight == 2.0
        assert rule.consequent_tag == "trills"
        assert rule.consequent_index == 1
        assert rule.consequent_offset == 0
        assert rule.clauses == (Clause("duration", 0, ">", Fraction(3)),)

    def test_state_clause_makes_type2(self):
        rule = parse_one("IF pred(@t-1) == trills THEN tag(@t) = none WEIGHT 0.5")
        assert rule.rule_class == 2
        assert rule.clauses == (Clause("pred", -1, "==", 1),)

    def test_conjunction(self):
        rule = parse_one(
            "IF duration(@t) >= 2 AND step(@t+1) == C "
            "AND pred(@t) != none THEN tag(@t+1) = fermata")
        assert rule.rule_class == 2
        assert len(rule.clauses) == 3
        assert rule.consequent_offset == 1
        assert rule.weight is None

    def test_empty_file(self):
        ruleset = parse_rules("", TAGS)
        assert len(ruleset) == 0
        assert ruleset.h1 == 2.0 and ruleset.h2 == 2.0

    def test_comments_and_blanks(self):
        ruleset = parse_rules(
            "# boost long notes\n\n"
            "IF duration(@t) > 3 THEN tag(@t) = trills  # same line\n", TAGS)
        assert len(ruleset) == 1
        assert ruleset.rules[0].source_line == 3

    def test_directives(self):
        ruleset = parse_rules(
            "H1 4.0\nH2 0.25\nIF duration(@t) > 3 THEN tag(@t) = trills\n", TAGS)
        assert ruleset.h1 == 4.0 and ruleset.h2 == 0.25

    def test_directive_after_rule_rejected(self):
        with pytest.raises(InputError,
                           match="H1 directive after the first rule") as exc:
            parse_rules(
                "IF duration(@t) > 3 THEN tag(@t) = trills\nH1 4.0\n", TAGS)
        assert exc.value.line == 2

    def test_unknown_consequent_tag(self):
        with pytest.raises(InputError, match="unknown tag 'vibrato'") as exc:
            parse_one("IF duration(@t) > 3 THEN tag(@t) = vibrato WEIGHT 2")
        assert exc.value.line == 1

    def test_unknown_pred_tag(self):
        with pytest.raises(InputError, match="unknown tag 'vibrato'"):
            parse_one("IF pred(@t) == vibrato THEN tag(@t) = none")

    def test_unknown_feature(self):
        with pytest.raises(InputError,
                           match="unknown feature 'velocity'") as exc:
            parse_one("IF velocity(@t) > 3 THEN tag(@t) = trills")
        assert exc.value.line == 1

    def test_nonpositive_weight(self):
        with pytest.raises(InputError, match="weight must be positive") as exc:
            parse_one("IF duration(@t) > 3 THEN tag(@t) = trills WEIGHT 0")
        assert exc.value.line == 1

    def test_nonpositive_directive(self):
        with pytest.raises(InputError, match="H1 must be positive"):
            parse_rules("H1 0\n", TAGS)

    @pytest.mark.parametrize("number, expected", [
        ("1/0", "a nonzero denominator"),
        ("1/00", "a nonzero denominator"),
        ("1e400", "a finite number"),
        ("9" * 400 + "/1", "a finite number"),
    ])
    @pytest.mark.parametrize("template, column", [
        ("IF duration(@t) > 3 THEN tag(@t) = trills WEIGHT {}", 50),
        ("H1 {}", 4),
        ("H2 {}", 4),
    ])
    def test_bad_number_is_located(self, template, column, number,
                                   expected):
        message = {"a nonzero denominator": "zero denominator in",
                   "a finite number": "is out of range"}[expected]
        with pytest.raises(InputError, match=message) as exc:
            parse_rules(template.format(number) + "\n", TAGS)
        assert (exc.value.line, exc.value.column) == (1, column)
        assert exc.value.token == number
        assert exc.value.expected == expected

    @pytest.mark.parametrize("template, column", [
        ("IF duration(@t+{}) > 3 THEN tag(@t) = trills", 13),
        ("IF midi(@t) > {} THEN tag(@t) = trills", 15),
        ("IF duration(@t) > 1/{} THEN tag(@t) = trills", 19),
        ("IF duration(@t) > 3 THEN tag(@t) = trills WEIGHT {}", 50),
    ])
    def test_long_digit_run_is_located(self, template, column):
        with pytest.raises(InputError, match="number too large") as exc:
            parse_rules(template.format("1" * (digit_limit() + 1)) + "\n", TAGS)
        assert (exc.value.line, exc.value.column) == (1, column)

    @pytest.mark.parametrize("number", [
        "1e10000000", "1e{limit}", "1.5e-{less}", "1e" + "0" * 5000 + "1",
    ], ids=["huge-exponent", "exponent-at-limit", "digits-plus-exponent",
            "long-exponent-run"])
    def test_digits_plus_exponent_are_bounded(self, number):
        limit = digit_limit()
        number = number.format(limit=limit, less=limit - 1)
        with pytest.raises(InputError, match="number too large") as exc:
            parse_one(f"IF duration(@t) > {number} THEN tag(@t) = trills")
        assert (exc.value.line, exc.value.column) == (1, 19)

    def test_number_at_the_digit_limit_round_trips(self):
        exponent = digit_limit() - 1
        ruleset = parse_rules(
            f"IF duration(@t) > 1e{exponent} THEN tag(@t) = trills\n", TAGS)
        assert ruleset.rules[0].clauses[0].value == 10 ** exponent
        assert parse_rules(serialize_rules(ruleset), TAGS) == ruleset

    @pytest.mark.parametrize("line", [
        "IF duration(@t) > 3 THEN tag(@t) = trills WEIGHT \u0663",
        "IF duration(@t+\u0663) > 3 THEN tag(@t) = trills",
        "IF midi(@t) > \u0666\u0660 THEN tag(@t) = trills",
    ])
    def test_numbers_take_ascii_digits_only(self, line):
        # Arabic-Indic digits match \d and int() reads them
        with pytest.raises(InputError, match="unexpected character"):
            parse_one(line)

    def test_fractional_weight_and_directive(self):
        ruleset = parse_rules(
            "H1 3/2\nH2 1/4\nIF duration(@t) > 3 THEN tag(@t) = trills"
            " WEIGHT 5/2\n", TAGS)
        assert (ruleset.h1, ruleset.h2) == (1.5, 0.25)
        assert ruleset.rules[0].weight == 2.5

    @pytest.mark.parametrize("number", ["1/0", "1/00", "0/0"])
    def test_zero_denominator_in_duration_is_located(self, number):
        with pytest.raises(InputError,
                           match="zero denominator in duration") as exc:
            parse_one(f"IF duration(@t) > {number} THEN tag(@t) = trills")
        assert (exc.value.line, exc.value.column) == (1, 19)
        assert exc.value.token == number
        assert exc.value.expected == "a nonzero denominator"

    def test_syntax_error_carries_location(self):
        with pytest.raises(InputError,
                           match="unexpected token 'trills'") as exc:
            parse_one("IF duration(@t) > 3 THEN tag(@t) trills")
        assert exc.value.line == 1
        assert exc.value.column == 34
        assert "=" in exc.value.expected

    def test_truncated_rule(self):
        with pytest.raises(InputError, match="unexpected end of rule") as exc:
            parse_one("IF duration(@t) >")
        assert exc.value.expected == "a numeric literal"

    def test_step_ordering_rejected(self):
        with pytest.raises(InputError, match="unexpected token '>'"):
            parse_one("IF step(@t) > C THEN tag(@t) = trills")

    def test_integer_feature_rejects_fraction(self):
        with pytest.raises(InputError, match="unexpected token '3/2'"):
            parse_one("IF midi(@t) > 3/2 THEN tag(@t) = trills")

    def test_duration_accepts_decimal_exactly(self):
        rule = parse_one("IF duration(@t) == 0.5 THEN tag(@t) = trills")
        assert rule.clauses[0].value == Fraction(1, 2)

    def test_duration_accepts_fraction(self):
        rule = parse_one("IF duration(@t) <= 3/2 THEN tag(@t) = trills")
        assert rule.clauses[0].value == Fraction(3, 2)

    def test_posref_offsets(self):
        rule = parse_one("IF midi(@t+2) >= 60 THEN tag(@t-1) = trills")
        assert rule.clauses[0].offset == 2
        assert rule.consequent_offset == -1

    def test_single_equals_in_clause_rejected(self):
        with pytest.raises(InputError, match="unexpected token '='"):
            parse_one("IF midi(@t) = 60 THEN tag(@t) = trills")

    def test_trailing_junk_rejected(self):
        with pytest.raises(InputError,
                           match="unexpected token 'extra'") as exc:
            parse_one("IF duration(@t) > 3 THEN tag(@t) = trills WEIGHT 2.0 extra")
        assert exc.value.expected == "end of rule"

    _EQUALITY_CLAUSES = {  # clause -> (column, message)
        "pred(@t) > trills": (13, "unexpected token '>'.*'==' or '!='"),
        "pred(@t) = trills": (13, "unexpected token '='.*a comparator"),
        "pred(@t) == vibrato": (16, "unknown tag 'vibrato'"),
        "pred(t) == trills": (9, "unexpected token 't'.*'@t'"),
        "pred(@t) trills": (13, "unexpected token 'trills'.*a comparator"),
        "step(@t) < C": (13, "unexpected token '<'.*'==' or '!='"),
    }

    @pytest.mark.parametrize("clause", _EQUALITY_CLAUSES)
    def test_malformed_equality_clause_is_located(self, clause):
        column, message = self._EQUALITY_CLAUSES[clause]
        with pytest.raises(InputError, match=message) as exc:
            parse_rules(f"\nIF {clause} THEN tag(@t) = none\n", TAGS)
        assert (exc.value.line, exc.value.column) == (2, column)


# slots of the rule grammar, each filled with good and bad text, so that
# generated lines reach every stage of the parser
_POSREFS = ("(@t)", "(@t+1)", "(@t-2)", "(@t+99999999999999999999)", "(t)",
            "(@t", "")
_OPS = ("==", "!=", "<", "<=", ">", ">=", "=", "")
_NUMBERS = ("3", "0", "1/4", "1/0", "0/0", "2.5", "0.0", "1e999", "1e-999",
            "9" * 5000, "\u0663", "")
_LITERALS = _NUMBERS + ("C", "c", "H", "none", "trills", "x")
_CLAUSES = st.builds("{}{} {} {}".format,
                     st.sampled_from(FEATURES + ("pitch", "IF", "")),
                     st.sampled_from(_POSREFS), st.sampled_from(_OPS),
                     st.sampled_from(_LITERALS))
_RULE_LINES = st.one_of(
    st.builds("{} {} {} tag{} {} {} {}".format,
              st.sampled_from(("IF", "if", "")),
              st.lists(_CLAUSES, max_size=3).map(" AND ".join),
              st.sampled_from(("THEN", "")), st.sampled_from(_POSREFS),
              st.sampled_from(("=", "==", "")),
              st.sampled_from(("trills", "none", "vibrato", "3", "")),
              st.sampled_from(("",) + tuple(f"WEIGHT {n}" for n in _NUMBERS))),
    st.builds("{} {}".format, st.sampled_from(("H1", "H2", "H3")),
              st.sampled_from(_NUMBERS)),
    st.text(alphabet="IFTHEN@t()=<>!/.0123456789 #", max_size=12))


def _float_of_number(text):
    """A weight's value as the parser once computed it: a float, or inf
    past float range; None for a zero denominator."""
    num, _, den = text.partition("/")
    if den and not den.strip("0"):
        return None
    try:
        return int(num) / int(den) if den else float(text)
    except OverflowError:
        return math.inf


_DIGIT_RUNS = st.text("0123456789", min_size=1, max_size=40)
_POSITIVE_NUMBERS = st.one_of(
    st.builds("{}/{}".format, _DIGIT_RUNS | st.text("9", min_size=300,
                                                    max_size=320),
              _DIGIT_RUNS),
    st.builds("{}{}{}".format, _DIGIT_RUNS,
              st.just("") | _DIGIT_RUNS.map(".{}".format),
              st.just("") | st.builds("{}{}{}".format, st.sampled_from("eE"),
                                      st.sampled_from(("", "+", "-")),
                                      st.integers(0, 400).map(str))))


class TestPositiveNumbers:
    """WEIGHT, H1 and H2 read a number to the float of its exact value:
    the nearest float, as ``float()`` of the text or the true quotient
    of its integers gives it."""

    @given(_POSITIVE_NUMBERS)
    @example(str(2**1024 - 2**970))  # halfway past the largest float
    @example(str(2**1024 - 2**970 - 1))
    @example("2.4703282292062327e-324")  # half the smallest subnormal
    @example("2.4703282292062328e-324")
    @example("1/" + "1" * 330)
    def test_same_float_as_the_direct_formula(self, number):
        want = _float_of_number(number)
        for template in ("H1 {}\n", "H2 {}\n",
                         "IF midi(@t) > 60 THEN tag(@t) = trills WEIGHT {}\n"):
            text = template.format(number)
            if want is None or want == math.inf:
                message = "is out of range" if want else "zero denominator in"
                with pytest.raises(InputError, match=message) as exc:
                    parse_rules(text, TAGS)
                assert exc.value.expected == (
                    "a finite number" if want else "a nonzero denominator")
            elif want == 0:
                with pytest.raises(InputError, match="must be positive"):
                    parse_rules(text, TAGS)
            else:
                ruleset = parse_rules(text, TAGS)
                got = (ruleset.rules[0].weight if ruleset.rules
                       else {"H1": ruleset.h1, "H2": ruleset.h2}[text[:2]])
                assert got.hex() == want.hex()


class TestParseNumber:
    """One whole number of the rule grammar, read exactly."""

    @pytest.mark.parametrize("text, value", [
        ("3", 3), ("3/2", Fraction(3, 2)), ("0.5", Fraction(1, 2)),
        ("1.5e-3", Fraction(3, 2000)), ("2E+2", 200),
    ])
    def test_values(self, text, value):
        assert parse_number(text) == value

    @pytest.mark.parametrize("text", [
        "", " 3", "3 ", "+3", "-1", "1_0", "\u0663", "1/0", "0/0", "0x10",
        "inf", "nan", "1e", ".5", "1/2/3",
    ])
    def test_rejects(self, text):
        with pytest.raises(ValueError):
            parse_number(text)

    def test_digit_limit(self):
        limit = digit_limit()
        assert parse_number(f"1e{limit - 1}") == 10 ** (limit - 1)
        with pytest.raises(ValueError, match="not a number"):
            parse_number(f"1e{limit}")

    @given(st.from_regex(_NUMBER_RE, fullmatch=True))
    @example("0/7")
    @example("12/0")
    @example("00.0100e-0003")
    @example("5e+20")
    def test_equals_fraction_of_the_text(self, text):
        """Built from the digit runs, the value is ``Fraction(text)``; a
        zero denominator is a ValueError, as ``Fraction`` fails."""
        if exceeds_digit_limit(text):  # Fraction(text) could take hours
            with pytest.raises(ValueError, match="not a number"):
                parse_number(text)
            return
        try:
            want = Fraction(text)
        except ZeroDivisionError:
            with pytest.raises(ValueError, match="zero denominator"):
                parse_number(text)
        else:
            got = parse_number(text)
            assert type(got) is Fraction and got == want


class TestRuleParserFuzz:
    """parse_rules raises only InputError, on any text."""

    @given(st.text())
    def test_arbitrary_text(self, text):
        try:
            parse_rules(text, TAGS)
        except InputError:
            pass

    @given(st.lists(_RULE_LINES, max_size=4))
    def test_near_grammar_text(self, lines):
        try:
            parse_rules("".join(f"{line}\n" for line in lines), TAGS)
        except InputError:
            pass


class TestRuleSetDomain:
    """Weights and default confidences are finite and positive."""

    @pytest.mark.parametrize("value", [0.0, -1.0, math.nan, math.inf])
    def test_default_confidence_rejected(self, value):
        with pytest.raises(ValueError):
            RuleSet(TAGS, (), h1=value)
        with pytest.raises(ValueError):
            RuleSet(TAGS, (), h2=value)

    @pytest.mark.parametrize("value", [0.0, -1.0, math.nan, math.inf])
    def test_rule_weight_rejected(self, value):
        clause = Clause("midi", 0, ">", 60)
        with pytest.raises(ValueError):
            Rule((clause,), 0, "trills", 1, value, source_line=1)


class TestSerializeRules:
    """Canonical text form and its fixed point."""

    def test_round_trip_preserves_everything(self):
        text = (
            "H1 4.0\n"
            "H2 0.5\n"
            "IF duration(@t) > 3 THEN tag(@t) = trills WEIGHT 2.5\n"
            "IF step(@t) == C AND midi(@t+1) < 64 THEN tag(@t+1) = fermata\n"
            "IF pred(@t-1) != none THEN tag(@t) = mordent WEIGHT 0.125\n")
        ruleset = parse_rules(text, TAGS)
        assert serialize_rules(ruleset) == text
        assert parse_rules(serialize_rules(ruleset), TAGS) == ruleset

    def test_decimal_duration_canonicalizes_to_rational(self):
        ruleset = parse_rules(
            "IF duration(@t) == 0.5 THEN tag(@t) = trills\n", TAGS)
        text = serialize_rules(ruleset)
        assert "duration(@t) == 1/2" in text
        assert parse_rules(text, TAGS) == ruleset

    def test_tiny_weight_round_trips(self):
        ruleset = parse_rules(
            "IF duration(@t) > 3 THEN tag(@t) = trills WEIGHT 0.00001\n", TAGS)
        again = parse_rules(serialize_rules(ruleset), TAGS)
        assert again.rules[0].weight == ruleset.rules[0].weight


def anchors(line: str, melody: Melody, base: StateSequence) -> list[int]:
    """Anchors at which the one rule of ``line`` fires, left to right."""
    return [f.anchor for f in collect_firings(
        parse_rules(line + "\n", TAGS), melody, base)]


class TestEvaluateAntecedent:
    """Clause semantics, read from the anchors at which a rule fires."""

    melody = melody_from_tokens(["C1:4", "D1:1"])
    base = StateSequence((1, 0))

    def test_long_note_true_at_long_note(self):
        rule = "IF duration(@t) > 3 THEN tag(@t) = trills"
        assert 0 in anchors(rule, self.melody, self.base)

    def test_long_note_false_at_short_note(self):
        rule = "IF duration(@t) > 3 THEN tag(@t) = trills"
        assert 1 not in anchors(rule, self.melody, self.base)

    def test_out_of_range_clause_is_false(self):
        rule = "IF pred(@t-1) == trills THEN tag(@t) = none"
        assert anchors(rule, self.melody, self.base) == [1]

    def test_state_inequality(self):
        rule = "IF pred(@t) != trills THEN tag(@t) = none"
        assert anchors(rule, self.melody, self.base) == [1]

    def test_step_feature(self):
        rule = "IF step(@t) == C THEN tag(@t) = trills"
        assert anchors(rule, self.melody, self.base) == [0]

    def test_position_feature_reads_resolved_index(self):
        rule = "IF position(@t+1) == 1 THEN tag(@t) = trills"
        assert anchors(rule, self.melody, self.base) == [0]

    def test_midi_and_octave(self):
        melody = melody_from_tokens(["C4:1", "G5:1"])
        rule = "IF midi(@t) >= 60 AND octave(@t) == 4 THEN tag(@t) = trills"
        assert anchors(rule, melody, StateSequence((0, 0))) == [0]

    def test_conjunction_needs_all_clauses(self):
        rule = "IF duration(@t) > 3 AND step(@t) == D THEN tag(@t) = trills"
        assert 0 not in anchors(rule, self.melody, self.base)

    def test_exact_rational_comparison(self):
        melody = melody_from_tokens(["C1:1/3"])
        rule = "IF duration(@t) == 1/3 THEN tag(@t) = trills"
        assert anchors(rule, melody, StateSequence((0,))) == [0]


class TestBuildWeightMatrix:
    """Multiplicative cell updates over an all-ones base."""

    def test_empty_ruleset_gives_ones(self):
        melody = melody_from_tokens(["C1:4", "D1:1", "E1:2"])
        ruleset = RuleSet(TAGS, ())
        matrix = build_weight_matrix(ruleset, melody, StateSequence((0, 0, 0)))
        np.testing.assert_array_equal(matrix.values, np.ones((4, 3)))

    def test_single_firing(self):
        tags = TagSet(("trills", "none", "fermata", "mordent"))
        melody = melody_from_tokens(["C1:4", "D1:1", "E1:2"])
        ruleset = parse_rules(
            "IF duration(@t) > 3 THEN tag(@t) = trills WEIGHT 2.5\n", tags)
        matrix = build_weight_matrix(ruleset, melody, StateSequence((0, 0, 0)))
        expected = np.ones((4, 3))
        expected[0, 0] = 2.5
        np.testing.assert_array_equal(matrix.values, expected)

    def test_two_rules_compose_multiplicatively(self):
        melody = melody_from_tokens(["C1:4"])
        ruleset = parse_rules(
            "IF duration(@t) > 3 THEN tag(@t) = trills WEIGHT 2\n"
            "IF step(@t) == C THEN tag(@t) = trills WEIGHT 3\n", TAGS)
        matrix = build_weight_matrix(ruleset, melody, StateSequence((0,)))
        assert matrix.values[1, 0] == 6.0

    def test_default_confidences_by_class(self):
        melody = melody_from_tokens(["C1:4"])
        ruleset = parse_rules(
            "H1 5.0\nH2 7.0\n"
            "IF duration(@t) > 3 THEN tag(@t) = trills\n"
            "IF pred(@t) == none THEN tag(@t) = fermata\n", TAGS)
        matrix = build_weight_matrix(ruleset, melody, StateSequence((0,)))
        assert matrix.values[1, 0] == 5.0
        assert matrix.values[2, 0] == 7.0

    def test_out_of_range_target_skipped(self):
        melody = melody_from_tokens(["C1:4", "D1:4"])
        ruleset = parse_rules(
            "IF duration(@t) > 3 THEN tag(@t+1) = trills WEIGHT 9\n", TAGS)
        matrix = build_weight_matrix(ruleset, melody, StateSequence((0, 0)))
        expected = np.ones((4, 2))
        expected[1, 1] = 9.0
        np.testing.assert_array_equal(matrix.values, expected)

    def test_firing_log_records_applications(self):
        melody = melody_from_tokens(["C1:4", "D1:1"])
        ruleset = parse_rules(
            "IF duration(@t) > 3 THEN tag(@t) = trills WEIGHT 2\n", TAGS)
        log = collect_firings(ruleset, melody, StateSequence((0, 0)))
        assert log == [Firing(rule_line=1, anchor=0, target=0,
                              tag="trills", tag_index=1, weight=2.0)]

    def test_locality(self):
        """Cells differ from 1 only where some firing targeted them."""
        melody = melody_from_tokens(["C1:4", "D1:1", "E1:2"])
        ruleset = parse_rules(
            "IF duration(@t) >= 2 THEN tag(@t) = mordent WEIGHT 3\n", TAGS)
        base = StateSequence((0, 0, 0))
        matrix = build_weight_matrix(ruleset, melody, base)
        log = collect_firings(ruleset, melody, base)
        touched = {(f.tag_index, f.target) for f in log}
        for k in range(4):
            for t in range(3):
                if (k, t) not in touched:
                    assert matrix.values[k, t] == 1.0
                else:
                    assert matrix.values[k, t] != 1.0

    def test_monotone_footprint(self):
        """Adding a rule never changes cells outside its firing footprint."""
        melody = melody_from_tokens(["C1:4", "D1:1", "E1:2"])
        base = StateSequence((0, 1, 0))
        small = parse_rules(
            "IF duration(@t) > 3 THEN tag(@t) = trills WEIGHT 2\n", TAGS)
        big_text = (
            "IF duration(@t) > 3 THEN tag(@t) = trills WEIGHT 2\n"
            "IF pred(@t) == trills THEN tag(@t+1) = none WEIGHT 4\n")
        big = parse_rules(big_text, TAGS)
        m_small = build_weight_matrix(small, melody, base)
        m_big = build_weight_matrix(big, melody, base)
        log = collect_firings(big, melody, base)
        new_cells = {(f.tag_index, f.target) for f in log
                     if f.rule_line == 2}
        for k in range(4):
            for t in range(3):
                if (k, t) not in new_cells:
                    assert m_big.values[k, t] == m_small.values[k, t]


def _posref(offset: int) -> str:
    return "@t" if offset == 0 else f"@t{offset:+d}"


_LITERALS = {
    "duration": st.sampled_from(["1/4", "1/2", "1", "3/2", "2", "3", "0.5"]),
    "midi": st.integers(20, 90).map(str),
    "octave": st.integers(0, 7).map(str),
    "position": st.integers(0, 6).map(str),
    "step": st.sampled_from("CDEFGAB"),
    "pred": st.sampled_from(TAGS.tags),
}


@st.composite
def random_clause(draw):
    """One clause on any of the six features, offset up to 3 either way."""
    feature = draw(st.sampled_from(sorted(_LITERALS)))
    if feature in ("step", "pred"):
        cmp = draw(st.sampled_from(["==", "!="]))
    else:
        cmp = draw(st.sampled_from([">", "<", ">=", "<=", "==", "!="]))
    offset = draw(st.integers(-3, 3))
    return f"{feature}({_posref(offset)}) {cmp} {draw(_LITERALS[feature])}"


@st.composite
def random_rule_lines(draw):
    """A syntactically valid rule over TAGS with a power-free weight."""
    clauses = draw(st.lists(random_clause(), min_size=1, max_size=3))
    tag = draw(st.sampled_from(TAGS.tags))
    weight = draw(st.sampled_from(["0.5", "2", "3", "0.25", "1.5"]))
    c_ref = _posref(draw(st.integers(-2, 2)))
    return (f"IF {' AND '.join(clauses)} THEN tag({c_ref}) = {tag} "
            f"WEIGHT {weight}")


@st.composite
def melody_and_base(draw):
    """A melody of 1 to 6 notes and a base path over TAGS."""
    tokens = draw(st.lists(
        st.sampled_from(["C1:4", "D2:1", "E3:2", "F1:1/2", "G2:3", "B4:1/4",
                         "C5:3/2", "A0:1"]), min_size=1, max_size=6))
    base = draw(st.lists(st.integers(0, len(TAGS) - 1),
                         min_size=len(tokens), max_size=len(tokens)))
    return melody_from_tokens(tokens), StateSequence(tuple(base))


@st.composite
def shared_corpus(draw):
    """1-4 melodies parsed as one corpus, so equal tokens share one Note;
    each melody's gold tags serve as its base path."""
    blocks = draw(st.lists(st.lists(
        st.tuples(st.sampled_from(["C4:1", "D4:1/2", "C5:4", "E3:2", "C4:2/2"]),
                  st.sampled_from(TAGS.tags)),
        min_size=1, max_size=6), min_size=1, max_size=4))
    text = "\n".join("".join(f"{token}\t{tag}\n" for token, tag in block)
                     for block in blocks)
    return list(parse_corpus(text, TAGS))


class TestCollectFirings:
    """The mask pass against the per-anchor reference."""

    @given(st.lists(random_rule_lines(), min_size=1, max_size=6),
           melody_and_base())
    def test_matches_reference_firings(self, lines, melody_base):
        melody, base = melody_base
        ruleset = parse_rules("".join(f"{l}\n" for l in lines), TAGS)
        assert (collect_firings(ruleset, melody, base)
                == reference_firings(ruleset, melody, base))

    @given(st.lists(random_rule_lines(), max_size=6), shared_corpus())
    def test_one_compiled_ruleset_across_melodies(self, lines, corpus):
        """One ruleset fires each melody of a corpus as the reference does,
        and its weight matrix is the product over the firings in order."""
        ruleset = parse_rules("".join(f"{l}\n" for l in lines), TAGS)
        for melody, base in corpus:
            firings = fire(ruleset, melody, base)
            expected = reference_firings(ruleset, melody, base)
            assert firings.records() == expected
            values = np.ones((len(TAGS), len(melody)))
            for firing in expected:
                values[firing.tag_index, firing.target] *= firing.weight
            np.testing.assert_array_equal(
                firings.weight_matrix().values, values)

    @pytest.mark.parametrize("line", [
        "IF midi(@t) < 100000000000000000000 THEN tag(@t) = trills",
        "IF octave(@t) >= 99999999999999999999 THEN tag(@t) = trills",
        "IF position(@t) > 100000000000000000000 THEN tag(@t) = trills",
        "IF position(@t) < 100000000000000000000 THEN tag(@t) = trills",
        "IF midi(@t-100000000000000000000) > 1 THEN tag(@t) = fermata",
        "IF step(@t) == C THEN tag(@t+100000000000000000000) = fermata",
        "IF duration(@t) < 100000000000000000001/100000000000000000000 "
        "THEN tag(@t) = mordent",
    ])
    def test_literals_past_int64_match_reference(self, line):
        melody = melody_from_tokens(["C4:1", "D4:2", "C4:1", "E5:1/2"])
        base = StateSequence((0, 1, 2, 3))
        ruleset = parse_rules(line + "\n", TAGS)
        assert (collect_firings(ruleset, melody, base)
                == reference_firings(ruleset, melody, base))


class TestBaseLength:
    """A base path has one tag per note of its melody."""

    @pytest.mark.parametrize("length", [0, 1, 4, 6, 7])
    def test_base_of_another_length_raises(self, length):
        """A 1-tag base is not broadcast over the melody, and a longer
        one is a shape error, not numpy's ValueError."""
        melody = melody_from_tokens("C5:1 D5:1/2 E5:4 F5:1/2 G5:2".split())
        ruleset = parse_rules(
            "IF pred(@t) == trills THEN tag(@t) = none\n", TAGS)
        base = StateSequence((1,) * length)
        for build in (fire, collect_firings, build_weight_matrix):
            with pytest.raises(ShapeMismatch, match=rf"base paths "
                               rf"\(1, {length}\) vs grid \(1, 5\)"):
                build(ruleset, melody, base)


# near offsets read the padding of a batch's shorter melodies; far ones
# pass every melody's length
_FAR_OFFSETS = st.one_of(st.integers(-2, 2), st.integers(-9, 9))


@st.composite
def far_clause(draw):
    """A clause whose offset may pass every melody's length, a position
    literal that may pass the grid's width, or a ``pred`` test."""
    feature = draw(st.sampled_from(["position", "pred", "duration", "step"]))
    offset = _posref(draw(_FAR_OFFSETS))
    if feature == "position":
        cmp = draw(st.sampled_from([">", "<", ">=", "<=", "==", "!="]))
        return f"position({offset}) {cmp} {draw(st.integers(0, 12))}"
    cmp = draw(st.sampled_from(["==", "!="]))
    return f"{feature}({offset}) {cmp} {draw(_LITERALS[feature])}"


@st.composite
def far_rule_lines(draw):
    clauses = draw(st.lists(st.one_of(far_clause(), random_clause()),
                            min_size=1, max_size=3))
    tag = draw(st.sampled_from(TAGS.tags))
    c_ref = _posref(draw(_FAR_OFFSETS))
    return f"IF {' AND '.join(clauses)} THEN tag({c_ref}) = {tag} WEIGHT 2"


def longest_first(melodies, bases):
    """A batch laid out as the tagger lays it out: notes, note grid and
    base grid, rows longest first with ties in input order and -1 past
    each note row's end (1, a tag, past each base row's end); and each
    melody's row."""
    notes, ids = number_notes(melodies)
    order = np.argsort([-len(melody) for melody in melodies], kind="stable")
    rows = np.argsort(order).tolist()
    paths = [np.array(base.tags, dtype=int) for base in bases]
    return notes, _pad(ids, -1, rows), _pad(paths, 1, rows), rows


def row_records(ruleset, rule, cell, width, row):
    """The Firing records of one grid row of ``fire_batch``'s table."""
    records = []
    for r, c in zip(rule.tolist(), cell.tolist()):
        if c // width == row:
            fired, anchor = ruleset.rules[r], c % width
            records.append(Firing(
                fired.source_line, anchor, anchor + fired.consequent_offset,
                fired.consequent_tag, fired.consequent_index,
                ruleset.effective_weight(fired)))
    return records


class TestFireBatch:
    """One pass over a padded batch against the per-anchor reference."""

    # the 1-note melody after a longer one: a clause past its end reads
    # padding, and so does an anchor past its end whose target is inside
    @example(["IF pred(@t+1) != trills THEN tag(@t) = none WEIGHT 2"],
             [(melody_from_tokens(["C1:4"] * 3), StateSequence((0, 0, 0)))], 1)
    @example(["IF step(@t-1) == G THEN tag(@t-1) = none WEIGHT 2"],
             [(melody_from_tokens(["C1:4"] * 3), StateSequence((0, 0, 0)))], 1)
    @given(st.lists(far_rule_lines(), max_size=6),
           st.lists(melody_and_base(), min_size=1, max_size=5),
           st.integers(0, 5))
    def test_each_melody_matches_reference_firings(self, lines, batch, at):
        one_note = (melody_from_tokens(["G2:3"]), StateSequence((2,)))
        batch.insert(min(at, len(batch)), one_note)
        ruleset = parse_rules("".join(f"{l}\n" for l in lines), TAGS)
        melodies = [melody for melody, _ in batch]
        bases = [base for _, base in batch]
        notes, grid, pred, rows = longest_first(melodies, bases)
        rule, cell = fire_batch(ruleset, notes, grid, pred)
        assert rule.dtype.itemsize == 1 and len(rule) == len(cell)
        width = grid.shape[1]
        assert np.all(np.diff(cell // width) >= 0)  # by row
        for row, melody, base in zip(rows, melodies, bases):
            assert (row_records(ruleset, rule, cell, width, row)
                    == reference_firings(ruleset, melody, base))

    def test_empty_ruleset_fires_nothing(self):
        melodies = [melody_from_tokens(["C4:1"] * n) for n in (3, 1, 5)]
        bases = [StateSequence((0,) * len(m)) for m in melodies]
        notes, grid, pred, _ = longest_first(melodies, bases)
        rule, cell = fire_batch(RuleSet(TAGS, ()), notes, grid, pred)
        assert len(rule) == len(cell) == 0

    @pytest.mark.parametrize("line", [
        "IF duration(@t) > 3 THEN tag(@t) = trills",
        "IF pred(@t-1) == trills AND position(@t) > 1 THEN tag(@t) = none",
    ])
    def test_empty_batch_fires_nothing(self, line):
        empty = np.zeros((0, 0), dtype=int)
        rule, cell = fire_batch(parse_rules(line + "\n", TAGS), [], empty,
                                empty)
        assert len(rule) == len(cell) == 0


class TestFireBatchMemory:
    """Firing holds one mask over the batch's grid at a time, never one
    per rule: its peak grows with the cells, not with rules x cells."""

    NEVER = parse_rules(
        "IF duration(@t) > 100 THEN tag(@t) = trills\n"
        "IF midi(@t-1) > 127 AND position(@t) > 1 THEN tag(@t) = fermata\n"
        "IF octave(@t+1) > 20 THEN tag(@t) = none\n"
        "IF pred(@t) == trills AND step(@t) != C AND step(@t) == C "
        "THEN tag(@t-1) = mordent\n", TAGS).rules

    def peak(self, batch, copies):
        ruleset = RuleSet(TAGS, self.NEVER * copies)
        tracemalloc.start()
        try:
            rule, _ = fire_batch(ruleset, *batch)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(rule) == 0
        return peak

    def test_peak_does_not_grow_with_rule_count(self):
        """A batch shaped like the benchmark's: 72 melodies of 80 to 160
        notes.  2,000 rules that never fire peak at most 4x as high as 12
        (about 1.3x); a rules x cells mask stack peaks near 60x."""
        rng = np.random.default_rng(5)
        melodies = [random_melody(rng, int(n))
                    for n in rng.integers(80, 161, 72)]
        bases = [StateSequence(tuple(rng.integers(0, 4, len(m)).tolist()))
                 for m in melodies]
        batch = longest_first(melodies, bases)[:3]
        few = self.peak(batch, 3)
        many = self.peak(batch, 500)
        assert many <= 4 * few, (few, many)


class TestOrderIndependence:
    """Permuting rule order changes the weight matrix only by rounding."""

    @given(st.lists(random_rule_lines(), min_size=1, max_size=6),
           st.randoms(use_true_random=False))
    def test_permutation_invariance(self, lines, rnd):
        melody = melody_from_tokens(["C1:4", "D2:1", "E3:2", "F1:1/2", "G2:3"])
        base = StateSequence((0, 1, 2, 3, 0))
        ruleset = parse_rules("".join(f"{l}\n" for l in lines), TAGS)
        shuffled = list(lines)
        rnd.shuffle(shuffled)
        permuted = parse_rules("".join(f"{l}\n" for l in shuffled), TAGS)
        m1 = build_weight_matrix(ruleset, melody, base)
        m2 = build_weight_matrix(permuted, melody, base)
        np.testing.assert_allclose(m1.values, m2.values, rtol=1e-12)

    def test_cell_multiplies_in_firing_order(self):
        """A cell takes its weights in rule source order, so the float
        product depends on that order."""
        melody = melody_from_tokens(["C1:4"])
        lines = [f"IF duration(@t) > 3 THEN tag(@t) = trills WEIGHT {w}\n"
                 for w in ("0.1", "0.2", "0.3")]
        products = [
            build_weight_matrix(parse_rules("".join(order), TAGS), melody,
                                StateSequence((0,))).values[1, 0]
            for order in (lines, lines[::-1])]
        assert products == [0.006000000000000001, 0.006]
        assert products == [1.0 * 0.1 * 0.2 * 0.3, 1.0 * 0.3 * 0.2 * 0.1]

    def test_strict_positivity(self):
        melody = melody_from_tokens(["C1:4", "D2:1"])
        ruleset = parse_rules(
            "IF duration(@t) >= 0 THEN tag(@t) = none WEIGHT 0.00001\n"
            "IF midi(@t) >= 0 THEN tag(@t) = none WEIGHT 0.00001\n", TAGS)
        matrix = build_weight_matrix(ruleset, melody, StateSequence((0, 0)))
        assert np.all(matrix.values > 0)
