"""Rule DSL parsing, antecedent evaluation, and weight-matrix construction."""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, strategies as st

from oracles import melody_from_tokens
from ornatag.errors import (
    NonpositiveWeight,
    RuleSyntaxError,
    UnknownFeature,
    UnknownTag,
)
from ornatag.rules import (
    Firing,
    ObsClause,
    Rule,
    RuleSet,
    StateClause,
    build_weight_matrix,
    evaluate_antecedent,
    parse_rules,
    serialize_rules,
)
from ornatag.score import Melody, StateSequence, TagSet, digit_limit

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
        assert rule.clauses == (ObsClause("duration", 0, ">", Fraction(3)),)

    def test_state_clause_makes_type2(self):
        rule = parse_one("IF pred(@t-1) == trills THEN tag(@t) = none WEIGHT 0.5")
        assert rule.rule_class == 2
        assert rule.clauses == (StateClause(-1, "==", "trills", 1),)

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
        with pytest.raises(RuleSyntaxError) as exc:
            parse_rules(
                "IF duration(@t) > 3 THEN tag(@t) = trills\nH1 4.0\n", TAGS)
        assert exc.value.line == 2

    def test_unknown_consequent_tag(self):
        with pytest.raises(UnknownTag) as exc:
            parse_one("IF duration(@t) > 3 THEN tag(@t) = vibrato WEIGHT 2")
        assert exc.value.line == 1

    def test_unknown_pred_tag(self):
        with pytest.raises(UnknownTag):
            parse_one("IF pred(@t) == vibrato THEN tag(@t) = none")

    def test_unknown_feature(self):
        with pytest.raises(UnknownFeature) as exc:
            parse_one("IF velocity(@t) > 3 THEN tag(@t) = trills")
        assert exc.value.line == 1

    def test_nonpositive_weight(self):
        with pytest.raises(NonpositiveWeight) as exc:
            parse_one("IF duration(@t) > 3 THEN tag(@t) = trills WEIGHT 0")
        assert exc.value.line == 1

    def test_nonpositive_directive(self):
        with pytest.raises(NonpositiveWeight):
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
        with pytest.raises(RuleSyntaxError) as exc:
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
        with pytest.raises(RuleSyntaxError) as exc:
            parse_rules(template.format("1" * (digit_limit() + 1)) + "\n", TAGS)
        assert (exc.value.line, exc.value.column) == (1, column)

    @pytest.mark.parametrize("number", [
        "1e10000000", "1e{limit}", "1.5e-{less}", "1e" + "0" * 5000 + "1",
    ], ids=["huge-exponent", "exponent-at-limit", "digits-plus-exponent",
            "long-exponent-run"])
    def test_digits_plus_exponent_are_bounded(self, number):
        limit = digit_limit()
        number = number.format(limit=limit, less=limit - 1)
        with pytest.raises(RuleSyntaxError) as exc:
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
        with pytest.raises(RuleSyntaxError):
            parse_one(line)

    def test_fractional_weight_and_directive(self):
        ruleset = parse_rules(
            "H1 3/2\nH2 1/4\nIF duration(@t) > 3 THEN tag(@t) = trills"
            " WEIGHT 5/2\n", TAGS)
        assert (ruleset.h1, ruleset.h2) == (1.5, 0.25)
        assert ruleset.rules[0].weight == 2.5

    def test_syntax_error_carries_location(self):
        with pytest.raises(RuleSyntaxError) as exc:
            parse_one("IF duration(@t) > 3 THEN tag(@t) trills")
        assert exc.value.line == 1
        assert exc.value.column == 34
        assert "=" in exc.value.expected

    def test_truncated_rule(self):
        with pytest.raises(RuleSyntaxError) as exc:
            parse_one("IF duration(@t) >")
        assert exc.value.expected == "a numeric literal"

    def test_step_ordering_rejected(self):
        with pytest.raises(RuleSyntaxError):
            parse_one("IF step(@t) > C THEN tag(@t) = trills")

    def test_integer_feature_rejects_fraction(self):
        with pytest.raises(RuleSyntaxError):
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
        with pytest.raises(RuleSyntaxError):
            parse_one("IF midi(@t) = 60 THEN tag(@t) = trills")

    def test_trailing_junk_rejected(self):
        with pytest.raises(RuleSyntaxError) as exc:
            parse_one("IF duration(@t) > 3 THEN tag(@t) = trills WEIGHT 2.0 extra")
        assert exc.value.expected == "end of rule"


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


class TestEvaluateAntecedent:
    """Clause semantics with the anchor bound to a concrete position."""

    melody = melody_from_tokens(["C1:4", "D1:1"])
    base = StateSequence((1, 0))

    def test_long_note_true_at_long_note(self):
        rule = parse_one("IF duration(@t) > 3 THEN tag(@t) = trills")
        assert evaluate_antecedent(rule, self.melody, self.base, 0) is True

    def test_long_note_false_at_short_note(self):
        rule = parse_one("IF duration(@t) > 3 THEN tag(@t) = trills")
        assert evaluate_antecedent(rule, self.melody, self.base, 1) is False

    def test_out_of_range_clause_is_false(self):
        rule = parse_one("IF pred(@t-1) == trills THEN tag(@t) = none")
        assert evaluate_antecedent(rule, self.melody, self.base, 0) is False
        assert evaluate_antecedent(rule, self.melody, self.base, 1) is True

    def test_state_inequality(self):
        rule = parse_one("IF pred(@t) != trills THEN tag(@t) = none")
        assert evaluate_antecedent(rule, self.melody, self.base, 0) is False
        assert evaluate_antecedent(rule, self.melody, self.base, 1) is True

    def test_step_feature(self):
        rule = parse_one("IF step(@t) == C THEN tag(@t) = trills")
        assert evaluate_antecedent(rule, self.melody, self.base, 0) is True
        assert evaluate_antecedent(rule, self.melody, self.base, 1) is False

    def test_position_feature_reads_resolved_index(self):
        rule = parse_one("IF position(@t+1) == 1 THEN tag(@t) = trills")
        assert evaluate_antecedent(rule, self.melody, self.base, 0) is True
        assert evaluate_antecedent(rule, self.melody, self.base, 1) is False

    def test_midi_and_octave(self):
        melody = melody_from_tokens(["C4:1", "G5:1"])
        base = StateSequence((0, 0))
        rule = parse_one("IF midi(@t) >= 60 AND octave(@t) == 4 "
                         "THEN tag(@t) = trills")
        assert evaluate_antecedent(rule, melody, base, 0) is True
        assert evaluate_antecedent(rule, melody, base, 1) is False

    def test_conjunction_needs_all_clauses(self):
        rule = parse_one("IF duration(@t) > 3 AND step(@t) == D "
                         "THEN tag(@t) = trills")
        assert evaluate_antecedent(rule, self.melody, self.base, 0) is False

    def test_exact_rational_comparison(self):
        melody = melody_from_tokens(["C1:1/3"])
        rule = parse_one("IF duration(@t) == 1/3 THEN tag(@t) = trills")
        assert evaluate_antecedent(rule, melody, StateSequence((0,)), 0) is True


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
        log: list[Firing] = []
        build_weight_matrix(ruleset, melody, StateSequence((0, 0)), log)
        assert log == [Firing(rule_line=1, anchor=0, target=0,
                              tag="trills", tag_index=1, weight=2.0)]

    def test_locality(self):
        """Cells differ from 1 only where some firing targeted them."""
        melody = melody_from_tokens(["C1:4", "D1:1", "E1:2"])
        ruleset = parse_rules(
            "IF duration(@t) >= 2 THEN tag(@t) = mordent WEIGHT 3\n", TAGS)
        log: list[Firing] = []
        matrix = build_weight_matrix(ruleset, melody, StateSequence((0, 0, 0)), log)
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
        log: list[Firing] = []
        m_small = build_weight_matrix(small, melody, base)
        m_big = build_weight_matrix(big, melody, base, log)
        new_cells = {(f.tag_index, f.target) for f in log
                     if f.rule_line == 2}
        for k in range(4):
            for t in range(3):
                if (k, t) not in new_cells:
                    assert m_big.values[k, t] == m_small.values[k, t]


@st.composite
def random_rule_lines(draw):
    """A syntactically valid rule over TAGS with a power-free weight."""
    feature = draw(st.sampled_from(["duration", "midi", "position"]))
    cmp = draw(st.sampled_from([">", "<", ">=", "<=", "==", "!="]))
    lit = draw(st.integers(0, 6))
    offset = draw(st.integers(-2, 2))
    tag = draw(st.sampled_from(TAGS.tags))
    weight = draw(st.sampled_from(["0.5", "2", "3", "0.25", "1.5"]))
    posref = "@t" if offset == 0 else f"@t{offset:+d}"
    use_pred = draw(st.booleans())
    if use_pred:
        clause = f"pred({posref}) == {draw(st.sampled_from(TAGS.tags))}"
    else:
        clause = f"{feature}({posref}) {cmp} {lit}"
    c_off = draw(st.integers(-1, 1))
    c_ref = "@t" if c_off == 0 else f"@t{c_off:+d}"
    return f"IF {clause} THEN tag({c_ref}) = {tag} WEIGHT {weight}"


class TestOrderIndependence:
    """Permuting rule order leaves the weight matrix unchanged."""

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

    def test_strict_positivity(self):
        melody = melody_from_tokens(["C1:4", "D2:1"])
        ruleset = parse_rules(
            "IF duration(@t) >= 0 THEN tag(@t) = none WEIGHT 0.00001\n"
            "IF midi(@t) >= 0 THEN tag(@t) = none WEIGHT 0.00001\n", TAGS)
        matrix = build_weight_matrix(ruleset, melody, StateSequence((0, 0)))
        assert np.all(matrix.values > 0)
