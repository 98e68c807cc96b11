"""Synthetic corpus generation, splitting, metrics, and their rendering."""

import hashlib
import json
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import oracles
from oracles import melody_from_tokens
from ornatag.combine import tag_with_knowledge
from ornatag.errors import InputError
from ornatag.metrics import (
    count_satisfied,
    evaluate,
    format_metrics,
    rule_firing_counts,
)
from ornatag.rules import parse_rules
from ornatag.score import (
    Melody,
    StateSequence,
    TaggedCorpus,
    TagSet,
    digit_limit,
    serialize_corpus,
)
from ornatag.synth import (
    DEFAULT_TAGS,
    SynthProfile,
    default_markov,
    generate_synthetic,
    note_from_midi,
    parse_profile,
    split,
)
from ornatag.tagger import TrainConfig, duration_bucket, train

JSON_SCALARS = (st.none() | st.booleans() | st.integers() | st.floats()
                | st.text(max_size=6))
JSON_VALUES = st.recursive(
    JSON_SCALARS,
    lambda inner: (st.lists(inner, max_size=4)
                   | st.dictionaries(st.text(max_size=6), inner, max_size=4)),
    max_leaves=12)
# values shaped like each profile key's schema, with arbitrary leaves
PROFILE_VALUES = {
    "tags": st.lists(st.sampled_from(["none", "trills", "x y"]) | JSON_SCALARS,
                     max_size=4),
    "pitch_range": st.lists(JSON_SCALARS, max_size=3),
    "melody_length_range": st.lists(JSON_SCALARS, max_size=3),
    "duration_pool": st.dictionaries(
        st.sampled_from(["1/4", "1", "4", "0", "1/0", "-1"])
        | st.text(max_size=6),
        JSON_SCALARS, max_size=4),
    "tag_markov": st.lists(st.lists(JSON_SCALARS, min_size=4, max_size=4),
                           min_size=4, max_size=4),
    "emission_bias": st.dictionaries(
        st.sampled_from(DEFAULT_TAGS.tags) | st.text(max_size=6),
        st.dictionaries(st.sampled_from(["(3,inf)", "(0,1/4]"]), JSON_VALUES,
                        max_size=3) | JSON_VALUES,
        max_size=3),
    "planted_rules": st.lists(
        st.sampled_from(["IF duration(@t) > 3 THEN tag(@t) = trills",
                         "IF pred(@t) == none THEN tag(@t) = trills"])
        | JSON_SCALARS, max_size=3),
}

PLANTED = parse_rules(
    "IF duration(@t) > 3 THEN tag(@t) = trills\n", DEFAULT_TAGS)


class TestSynthProfile:
    """Validation of generation parameters."""

    def test_defaults_are_valid(self):
        profile = SynthProfile()
        assert profile.tagset is DEFAULT_TAGS
        np.testing.assert_allclose(profile.tag_markov.sum(axis=1), 1.0)

    def test_default_markov_shape(self):
        matrix = default_markov(4)
        assert matrix[0, 0] == 0.5
        np.testing.assert_allclose(matrix.sum(axis=1), 1.0)

    def test_bad_pitch_range(self):
        with pytest.raises(InputError):
            SynthProfile(pitch_range=(60, 300))

    def test_pool_must_sum_to_one(self):
        with pytest.raises(InputError):
            SynthProfile(duration_pool=((Fraction(1), 0.5),))

    def test_markov_must_be_stochastic(self):
        with pytest.raises(InputError):
            SynthProfile(tag_markov=np.ones((4, 4)))

    def test_bias_tag_must_exist(self):
        with pytest.raises(InputError):
            SynthProfile(emission_bias={"vibrato": {"(3,inf)": 2.0}})

    def test_planted_rules_must_be_observation_only(self):
        rules = parse_rules(
            "IF pred(@t) == none THEN tag(@t) = trills\n", DEFAULT_TAGS)
        with pytest.raises(InputError):
            SynthProfile(planted_rules=rules)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_numbers_rejected(self, bad):
        markov = default_markov(4)
        markov[1, 2] = bad
        with pytest.raises(InputError):
            SynthProfile(tag_markov=markov)
        with pytest.raises(InputError):
            SynthProfile(duration_pool=((Fraction(1), bad), (Fraction(2), 1.0)))
        with pytest.raises(InputError):
            SynthProfile(emission_bias={"trills": {"(3,inf)": bad}})

    def test_planted_rules_must_share_tagset(self):
        other = TagSet(("a", "b"))
        rules = parse_rules("IF duration(@t) > 3 THEN tag(@t) = b\n", other)
        with pytest.raises(InputError):
            SynthProfile(planted_rules=rules)


class TestNoteFromMidi:
    def test_middle_c(self):
        note = note_from_midi(60, Fraction(1))
        assert (note.step, note.alteration, note.octave) == ("C", 0, 4)

    def test_sharp_spelling(self):
        note = note_from_midi(61, Fraction(1))
        assert (note.step, note.alteration) == ("C", 1)
        assert note.midi == 61

    def test_round_trips_all_midi_values(self):
        for midi in range(12, 128):
            assert note_from_midi(midi, Fraction(1)).midi == midi


class TestGenerateSynthetic:
    """Determinism, planted-rule overrides, and profile effects."""

    def test_same_seed_is_byte_identical(self):
        profile = SynthProfile()
        a = generate_synthetic(profile, 10, seed=7)
        b = generate_synthetic(profile, 10, seed=7)
        assert serialize_corpus(a) == serialize_corpus(b)

    def test_different_seed_differs(self):
        profile = SynthProfile()
        a = generate_synthetic(profile, 10, seed=7)
        b = generate_synthetic(profile, 10, seed=8)
        assert serialize_corpus(a) != serialize_corpus(b)

    def test_prefix_stability(self):
        # melody i depends only on (seed, i), not on the total count
        profile = SynthProfile()
        short = generate_synthetic(profile, 3, seed=5)
        long = generate_synthetic(profile, 6, seed=5)
        assert short.entries == long.entries[:3]

    def test_planted_rule_holds_everywhere_in_gold(self):
        profile = SynthProfile(planted_rules=PLANTED)
        corpus = generate_synthetic(profile, 25, seed=11)
        trills = DEFAULT_TAGS.index("trills")
        fired = 0
        for melody, states in corpus:
            for t, note in enumerate(melody):
                if note.duration_ql > 3:
                    fired += 1
                    assert states[t] == trills
        assert fired > 0

    def test_later_planted_rule_wins_a_shared_cell(self):
        # both rules hit every long note, the trills rule only from t >= 1
        trills = "IF duration(@t+1) > 3 THEN tag(@t+1) = trills\n"
        fermata = "IF duration(@t) > 3 THEN tag(@t) = fermata\n"
        for text, last in ((trills + fermata, "fermata"),
                           (fermata + trills, "trills")):
            rules = parse_rules(text, DEFAULT_TAGS)
            corpus = generate_synthetic(
                SynthProfile(planted_rules=rules), 25, seed=11)
            long_notes = 0
            for melody, states in corpus:
                for t, note in enumerate(melody):
                    if note.duration_ql > 3:
                        long_notes += 1
                        expected = last if t > 0 else "fermata"
                        assert DEFAULT_TAGS.name(states[t]) == expected
            assert long_notes > 0

    def test_planted_corpus_bytes_are_unchanged(self):
        """Three planted rules, two of which share cells, over a biased
        profile: the serialized corpus by SHA-256."""
        rules = parse_rules(
            "IF duration(@t+1) > 3 THEN tag(@t+1) = trills\n"
            "IF duration(@t) > 3 THEN tag(@t) = fermata\n"
            "IF duration(@t-1) <= 1/4 AND duration(@t) >= 2 "
            "THEN tag(@t) = mordent\n", DEFAULT_TAGS)
        profile = SynthProfile(planted_rules=rules,
                               emission_bias={"trills": {"(3,inf)": 4.0}})
        text = serialize_corpus(generate_synthetic(profile, 40, seed=11))
        assert hashlib.sha256(text.encode("utf-8")).hexdigest() == (
            "4ab8e6feebf11c6aa4dcff49edaa6d3fccb7a9718b33b6d2c9f002601c88ba81")

    def test_gold_satisfaction_is_exactly_one(self):
        profile = SynthProfile(planted_rules=PLANTED)
        corpus = generate_synthetic(profile, 10, seed=3)
        for melody, states in corpus:
            matched, total = rule_firing_counts(states, melody, PLANTED, states)
            assert matched == total

    def test_zero_melodies(self):
        corpus = generate_synthetic(SynthProfile(), 0, seed=1)
        assert len(corpus) == 0
        with pytest.raises(InputError,
                           match="cannot train on an empty corpus"):
            train(corpus, TrainConfig(epochs=1))

    def test_ranges_respected(self):
        profile = SynthProfile(pitch_range=(60, 72),
                               melody_length_range=(3, 5))
        corpus = generate_synthetic(profile, 15, seed=2)
        for melody, _ in corpus:
            assert 3 <= len(melody) <= 5
            assert all(60 <= note.midi <= 72 for note in melody)

    def test_default_scale_mirrors_target_corpus_size(self):
        corpus = generate_synthetic(SynthProfile(), 200, seed=0)
        assert 6500 <= corpus.token_count <= 8500

    def test_emission_bias_shifts_durations(self):
        biased = SynthProfile(
            emission_bias={"trills": {"(3,inf)": 40.0}})
        corpus = generate_synthetic(biased, 40, seed=9)
        trills = DEFAULT_TAGS.index("trills")
        long_given_trills = []
        long_given_other = []
        for melody, states in corpus:
            for note, state in zip(melody, states):
                bucket_hit = duration_bucket(note.duration_ql) == "(3,inf)"
                if state == trills:
                    long_given_trills.append(bucket_hit)
                else:
                    long_given_other.append(bucket_hit)
        assert np.mean(long_given_trills) > 4 * np.mean(long_given_other)


class TestSplit:
    """Melody-atomic seeded partition."""

    def corpus(self, n=10):
        return generate_synthetic(
            SynthProfile(melody_length_range=(2, 4)), n, seed=21)

    def test_eight_two(self):
        train_part, test_part = split(self.corpus(10), 0.8, seed=0)
        assert len(train_part) == 8 and len(test_part) == 2

    def test_deterministic(self):
        corpus = self.corpus(10)
        a = split(corpus, 0.7, seed=5)
        b = split(corpus, 0.7, seed=5)
        assert serialize_corpus(a[0]) == serialize_corpus(b[0])
        assert serialize_corpus(a[1]) == serialize_corpus(b[1])

    def test_partition(self):
        corpus = self.corpus(9)
        train_part, test_part = split(corpus, 0.5, seed=3)
        combined = sorted(
            serialize_corpus(TaggedCorpus(corpus.tagset, (entry,)))
            for entry in train_part.entries + test_part.entries)
        original = sorted(
            serialize_corpus(TaggedCorpus(corpus.tagset, (entry,)))
            for entry in corpus.entries)
        assert combined == original

    def test_single_entry_rejected(self):
        with pytest.raises(ValueError):
            split(self.corpus(1), 0.5, seed=0)

    def test_extreme_fraction_still_leaves_both_sides(self):
        corpus = self.corpus(5)
        train_part, test_part = split(corpus, 0.01, seed=0)
        assert len(train_part) == 1 and len(test_part) == 4
        train_part, test_part = split(corpus, 0.99, seed=0)
        assert len(train_part) == 4 and len(test_part) == 1

    def test_bad_fraction(self):
        with pytest.raises(ValueError):
            split(self.corpus(4), 1.0, seed=0)


def tiny_gold(gold_tags, pred_tags, h=2):
    tagset = TagSet(tuple(f"tag{i}" for i in range(h)))
    melody = melody_from_tokens(["C4:1"] * len(gold_tags))
    gold = TaggedCorpus(tagset, ((melody, StateSequence(tuple(gold_tags))),))
    return [StateSequence(tuple(pred_tags))], gold


class TestEvaluate:
    """Confusion-matrix metrics."""

    def test_perfect_prediction(self):
        pred, gold = tiny_gold([0, 1, 0], [0, 1, 0])
        metrics = evaluate(pred, gold)
        assert metrics.token_accuracy == 1.0
        assert metrics.macro_f1 == 1.0

    def test_total_miss(self):
        pred, gold = tiny_gold([0, 0, 1], [1, 1, 0])
        metrics = evaluate(pred, gold)
        assert metrics.token_accuracy == 0.0

    def test_hand_worked_example(self):
        pred, gold = tiny_gold([0, 0, 1, 1], [0, 1, 1, 1])
        metrics = evaluate(pred, gold)
        assert metrics.token_accuracy == pytest.approx(0.75)
        tag0, tag1 = metrics.per_tag
        assert tag0.precision == pytest.approx(1.0)
        assert tag0.recall == pytest.approx(0.5)
        assert tag0.f1 == pytest.approx(2 / 3)
        assert tag1.precision == pytest.approx(2 / 3)
        assert tag1.recall == pytest.approx(1.0)
        assert tag1.f1 == pytest.approx(0.8)
        assert metrics.macro_f1 == pytest.approx(11 / 15)
        np.testing.assert_array_equal(metrics.counts, [[1, 1], [0, 2]])

    def test_macro_ignores_unsupported_tags(self):
        pred, gold = tiny_gold([0, 0], [0, 0], h=3)
        metrics = evaluate(pred, gold)
        assert metrics.macro_f1 == 1.0  # only tag0 has gold support

    def test_accuracy_is_trace_over_total(self):
        rng = np.random.default_rng(33)
        gold_tags = [int(rng.integers(0, 3)) for _ in range(40)]
        pred_tags = [int(rng.integers(0, 3)) for _ in range(40)]
        pred, gold = tiny_gold(gold_tags, pred_tags, h=3)
        metrics = evaluate(pred, gold)
        assert metrics.token_accuracy == pytest.approx(
            np.trace(metrics.counts) / metrics.counts.sum())

    def test_f1_is_harmonic_mean(self):
        pred, gold = tiny_gold([0, 0, 1, 1], [0, 1, 1, 1])
        for score in evaluate(pred, gold).per_tag:
            if score.precision and score.recall:
                harmonic = (2 * score.precision * score.recall
                            / (score.precision + score.recall))
                assert score.f1 == pytest.approx(harmonic)

    def test_entry_count_mismatch(self):
        pred, gold = tiny_gold([0], [0])
        with pytest.raises(InputError,
                           match="2 predictions for 1 gold entries"):
            evaluate(pred + pred, gold)

    def test_length_mismatch_inside_entry(self):
        pred, gold = tiny_gold([0, 1], [0, 1])
        with pytest.raises(InputError,
                           match="prediction length 1 != gold length 2"):
            evaluate([StateSequence((0,))], gold)


class TestRuleSatisfaction:
    """Firings whose target holds the consequent, out of all firings."""

    tags = DEFAULT_TAGS
    rule = PLANTED

    def test_vacuous_is_one(self):
        # no firing: eval reports the vacuous 0 of 0 as a rate of 1.0
        melody = melody_from_tokens(["C4:1", "D4:2"])
        pred = StateSequence((0, 0))
        assert rule_firing_counts(pred, melody, self.rule, pred) == (0, 0)

    def test_single_match(self):
        melody = melody_from_tokens(["C4:4"])
        pred = StateSequence((1,))
        assert rule_firing_counts(pred, melody, self.rule, pred) == (1, 1)

    def test_three_of_four(self):
        melody = melody_from_tokens(["C4:4", "D4:4", "E4:4", "F4:4"])
        pred = StateSequence((1, 1, 1, 0))
        base = StateSequence((0, 0, 0, 0))
        assert rule_firing_counts(pred, melody, self.rule, base) == (3, 4)

    def test_type2_firings_read_base(self):
        rules = parse_rules(
            "IF pred(@t) == fermata THEN tag(@t) = none\n", self.tags)
        melody = melody_from_tokens(["C4:1", "D4:1"])
        base = StateSequence((2, 0))  # fermata at position 0
        assert rule_firing_counts(
            StateSequence((0, 0)), melody, rules, base) == (1, 1)
        assert rule_firing_counts(
            StateSequence((1, 0)), melody, rules, base) == (0, 1)

    def test_firing_log_counts_match_a_fresh_firing_pass(self):
        rng = np.random.default_rng(3)
        melody = oracles.random_melody(rng, 12)
        model = oracles.random_model(rng, melody, h=3)
        rules = parse_rules(
            "IF duration(@t) > 1 THEN tag(@t) = tag1 WEIGHT 3\n"
            "IF pred(@t-1) == tag1 THEN tag(@t) = tag2\n"
            "IF midi(@t+1) > 60 THEN tag(@t+1) = tag0 WEIGHT 0.5\n",
            model.tagset)
        result = tag_with_knowledge(model, rules, melody)
        counts = count_satisfied(result.final, result.firings)
        assert counts[1] > 0
        assert counts == rule_firing_counts(
            result.final, melody, rules, result.base)


class TestFormatMetrics:
    """Stable key order and fixed-point reals."""

    def test_golden_rendering(self):
        pred, gold = tiny_gold([0, 0, 1, 1], [0, 1, 1, 1])
        metrics = evaluate(pred, gold)
        text = format_metrics(metrics, gold.tagset)
        assert text == (
            "{\n"
            '  "token_accuracy": 0.750000,\n'
            '  "macro_f1": 0.733333,\n'
            '  "rule_satisfaction": null,\n'
            '  "per_tag": {\n'
            '    "tag0": {"precision": 1.000000, "recall": 0.500000, '
            '"f1": 0.666667},\n'
            '    "tag1": {"precision": 0.666667, "recall": 1.000000, '
            '"f1": 0.800000}\n'
            "  },\n"
            '  "counts": [\n'
            "    [1, 1],\n"
            "    [0, 2]\n"
            "  ]\n"
            "}\n")

    def test_rule_satisfaction_rendered_when_present(self):
        pred, gold = tiny_gold([0, 1], [0, 1])
        metrics = replace(evaluate(pred, gold), rule_satisfaction=0.875)
        assert '"rule_satisfaction": 0.875000,' in format_metrics(
            metrics, gold.tagset)

    def test_output_is_valid_json(self):
        import json
        pred, gold = tiny_gold([0, 1, 1], [0, 0, 1])
        parsed = json.loads(format_metrics(evaluate(pred, gold), gold.tagset))
        assert list(parsed) == ["token_accuracy", "macro_f1",
                                "rule_satisfaction", "per_tag", "counts"]


class TestParseProfile:
    """JSON profile reader."""

    def test_empty_object_gives_defaults(self):
        profile = parse_profile("{}")
        assert profile.tagset == DEFAULT_TAGS
        assert profile.pitch_range == (60, 84)

    def test_full_profile(self):
        profile = parse_profile("""
        {
          "tags": ["none", "trills"],
          "pitch_range": [48, 72],
          "duration_pool": {"1/2": 0.5, "4": 0.5},
          "tag_markov": [[0.9, 0.1], [0.2, 0.8]],
          "emission_bias": {"trills": {"(3,inf)": 2.0}},
          "planted_rules": ["IF duration(@t) > 3 THEN tag(@t) = trills"],
          "melody_length_range": [4, 8]
        }
        """)
        assert profile.tagset.tags == ("none", "trills")
        assert profile.pitch_range == (48, 72)
        assert (Fraction(1, 2), 0.5) in profile.duration_pool
        assert profile.planted_rules is not None
        assert len(profile.planted_rules) == 1
        corpus = generate_synthetic(profile, 5, seed=1)
        assert len(corpus) == 5

    def test_unknown_key_rejected(self):
        with pytest.raises(InputError):
            parse_profile('{"tempo": 120}')

    def test_invalid_json_rejected(self):
        with pytest.raises(InputError):
            parse_profile("{not json")

    def test_bad_pool_fraction_rejected(self):
        with pytest.raises(InputError):
            parse_profile('{"duration_pool": {"1/0": 1.0}}')

    @pytest.mark.parametrize("key", [
        "1e2000000", "1e-2000000", "1E+8000000", "{long}", "1/{long}",
        "0.{long}",
    ])
    def test_oversized_pool_key_rejected(self, key):
        """Keys past the digit limit fail before Fraction parses them."""
        key = key.format(long="1" * (digit_limit() + 1))
        text = json.dumps({"duration_pool": {key: 0.5, "1": 0.5}})
        with pytest.raises(InputError) as excinfo:
            parse_profile(text)
        assert key[:9] in str(excinfo.value)

    @pytest.mark.parametrize("key, value", [
        ("1/4", Fraction(1, 4)), ("0.25", Fraction(1, 4)),
        ("2.5e-1", Fraction(1, 4)), ("1e1", Fraction(10)), ("3", Fraction(3)),
        ("{at_limit}", Fraction(int("1" * digit_limit()))),
    ])
    def test_pool_keys_within_the_limit_accepted(self, key, value):
        key = key.format(at_limit="1" * digit_limit())
        profile = parse_profile(
            json.dumps({"duration_pool": {key: 0.5, "1/2": 0.5}}))
        assert profile.duration_pool == ((value, 0.5), (Fraction(1, 2), 0.5))

    def test_non_numeric_pool_probability_rejected(self):
        with pytest.raises(InputError):
            parse_profile('{"duration_pool": {"1": [1.0]}}')

    @pytest.mark.parametrize("text, key", [
        ('{"pitch_range": [60, %s]}' % ("1" * 5000), "pitch_range"),
        ('{"tags": [1, 2]}', "tags"),
        ('{"tag_markov": [["a"]]}', "tag_markov"),
        ('{"tags": ["a", "b"], "tag_markov": [[0.5, 0.5], [0.5]]}',
         "tag_markov"),
        ('{"emission_bias": {"trills": {"(3,inf)": "x"}}}', "emission_bias"),
        ('{"emission_bias": {"trills": {"(3,inf)": null}}}', "emission_bias"),
        ('{"tags": ["a", "b"], "tag_markov": [[NaN, 0.5], [0.5, 0.5]]}',
         "tag_markov"),
        ('{"duration_pool": {"1": NaN, "2": 1.0}}', "duration_pool"),
    ], ids=["huge-int", "int-tags", "str-markov", "ragged-markov", "str-bias",
            "null-bias", "nan-markov", "nan-pool"])
    def test_bad_values_name_their_key(self, text, key):
        with pytest.raises(InputError, match=key):
            parse_profile(text)

    def test_deeply_nested_json_rejected(self):
        with pytest.raises(InputError, match="JSON"):
            parse_profile('{"tag_markov": %s%s}' % ("[" * 10**5, "]" * 10**5))

    @pytest.mark.parametrize("key", sorted(PROFILE_VALUES))
    @settings(deadline=None)
    @given(data=st.data())
    def test_arbitrary_json_under_a_key_is_input_error(self, key, data):
        """Any JSON value under any key parses or raises InputError, and
        a profile that parses generates or raises InputError."""
        text = json.dumps({key: data.draw(JSON_VALUES | PROFILE_VALUES[key])})
        try:
            profile = parse_profile(text)
            generate_synthetic(
                replace(profile, melody_length_range=(1, 4)), 2, seed=0)
        except InputError:
            pass

    def test_planted_rule_with_unknown_tag_rejected(self):
        with pytest.raises(InputError, match="unknown tag 'vibrato'"):
            parse_profile(
                '{"planted_rules": ["IF duration(@t) > 3 '
                'THEN tag(@t) = vibrato"]}')
