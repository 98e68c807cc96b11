"""Hadamard fusion, per-column decoding, and the full tagging pipeline."""

from pathlib import Path

import numpy as np
import pytest

import oracles
from ornatag import combine as combine_module
from ornatag import tagger as tagger_module
from ornatag.combine import (
    CombinedMatrix,
    combine,
    decode,
    tag_corpus,
    tag_with_knowledge,
)
from ornatag.errors import ShapeMismatch
from ornatag import rules as rules_module
from ornatag.rules import (RuleSet, WeightMatrix, build_weight_matrix,
                           collect_firings, fire_batch, parse_rules)
from ornatag.score import (
    StateSequence,
    TagMatrix,
    TagSet,
    number_notes,
    parse_melody,
    parse_tagset,
)
from ornatag.tagger import (
    PredictionMatrix,
    TrainConfig,
    infer,
    posterior_marginals,
    train,
    viterbi_decode,
)

DATA = Path(__file__).parent / "data"

TAGS4 = TagSet(("none", "trills", "fermata", "mordent"))


def prediction(columns) -> PredictionMatrix:
    return PredictionMatrix(np.array(columns, dtype=float).T)


class TestCombine:
    """Elementwise product with shape checking."""

    def test_all_ones_is_identity(self):
        p2 = prediction([[0.5, 0.3, 0.1, 0.1], [0.25, 0.25, 0.25, 0.25]])
        p1 = WeightMatrix(np.ones((4, 2)))
        np.testing.assert_array_equal(combine(p1, p2).values, p2.values)

    def test_column_arithmetic(self):
        p2 = prediction([[0.5, 0.3, 0.1, 0.1]])
        p1 = WeightMatrix(np.array([[1.0], [1.0], [6.0], [1.0]]))
        np.testing.assert_allclose(
            combine(p1, p2).values[:, 0], [0.5, 0.3, 0.6, 0.1])

    def test_shape_mismatch(self):
        p2 = prediction([[0.5, 0.5]])
        p1 = WeightMatrix(np.ones((3, 1)))
        with pytest.raises(ShapeMismatch):
            combine(p1, p2)


class TestDecode:
    """Per-column argmax with smallest-index ties."""

    def test_boosted_column(self):
        c = CombinedMatrix(np.array([[0.5], [0.3], [0.6], [0.1]]))
        assert tuple(decode(c, TAGS4)) == (2,)

    def test_tie_goes_to_smallest_index(self):
        c = CombinedMatrix(np.array([[0.4, 0.1], [0.4, 0.5], [0.2, 0.5]]))
        assert tuple(decode(c, TagSet(("a", "b", "c")))) == (0, 1)

    def test_column_scale_invariance(self):
        rng = np.random.default_rng(19)
        values = rng.uniform(0.01, 1.0, size=(4, 6))
        scaled = values * rng.uniform(0.5, 20.0, size=(1, 6))
        assert tuple(decode(CombinedMatrix(values), TAGS4)) == tuple(
            decode(CombinedMatrix(scaled), TAGS4))

    def test_wrong_tagset_size(self):
        c = CombinedMatrix(np.ones((3, 2)))
        with pytest.raises(ShapeMismatch):
            decode(c, TAGS4)


@pytest.mark.parametrize("cls, valid, out_of_range", [
    (PredictionMatrix, [[0.25, 1.0], [0.75, 0.0]],
     [[[-0.5], [1.5]], [[1.5], [-0.5]], [[0.5], [0.4]], [[0.5], [0.6]]]),
    (WeightMatrix, [[0.5, np.inf], [1.0, 8.0]],
     [[[0.0], [1.0]], [[-2.0], [1.0]], [[-np.inf], [1.0]]]),
    (CombinedMatrix, [[0.0, np.inf], [0.5, 3.0]],
     [[[-1e-300], [1.0]], [[-np.inf], [1.0]]]),
], ids=["PredictionMatrix", "WeightMatrix", "CombinedMatrix"])
class TestMatrixInvariants:
    """p2, p1 and p1 * p2 share one checked H x T type."""

    def test_valid_values_are_kept_as_floats(self, cls, valid, out_of_range):
        matrix = cls(valid)
        assert isinstance(matrix, TagMatrix)
        assert matrix.shape == (2, 2)
        assert matrix.values.dtype == np.float64
        np.testing.assert_array_equal(matrix.values, valid)

    @pytest.mark.parametrize("values", [
        [0.5, 0.5], [[[1.0]], [[0.0]]], 1.0, np.ones((1, 1, 1, 1))])
    def test_ndim_other_than_two_is_rejected(self, cls, valid, out_of_range,
                                             values):
        with pytest.raises(ValueError, match="2-d"):
            cls(values)

    def test_nan_is_rejected_in_every_cell(self, cls, valid, out_of_range):
        for row, col in np.ndindex(2, 2):
            values = np.array(valid, dtype=float)
            values[row, col] = np.nan
            with pytest.raises(ValueError, match="NaN"):
                cls(values)

    def test_each_range_violation_is_rejected(self, cls, valid, out_of_range):
        for values in out_of_range:
            with pytest.raises(ValueError):
                cls(values)


class TestPredictionColumnSums:
    """A p2 column must sum to 1 within 1e-9; non-finite sums fail."""

    @pytest.mark.parametrize("column", [
        [0.5, 0.5 + 2e-9], [0.5, 0.5 - 2e-9], [np.inf, 0.0]],
        ids=["over", "under", "inf"])
    def test_rejected(self, column):
        with pytest.raises(ValueError, match="sum to 1"):
            PredictionMatrix(np.array([column]).T)

    def test_a_nan_sum_is_rejected(self):
        with np.errstate(invalid="ignore"):  # inf - inf in the sum
            with pytest.raises(ValueError, match="sum to 1"):
                PredictionMatrix(np.array([[np.inf], [-np.inf]]))

    def test_within_the_tolerance_is_accepted(self):
        PredictionMatrix(np.array([[0.5, 0.5 + 5e-10], [0.5, 0.5 - 5e-10]]).T)


class TestFusedMatrix:
    """What combine() may hand to decode()."""

    def test_prediction_values_are_a_combined_matrix(self):
        p2 = prediction([[0.1, 0.2, 0.3, 0.4], [1.0, 0.0, 0.0, 0.0]])
        np.testing.assert_array_equal(CombinedMatrix(p2.values).values,
                                      p2.values)

    def test_infinite_weight_times_zero_is_rejected(self):
        """inf * 0 is NaN; it raises rather than reach the argmax."""
        p1 = WeightMatrix([[np.inf], [1.0]])
        p2 = PredictionMatrix([[0.0], [1.0]])
        with np.errstate(invalid="ignore"), pytest.raises(ValueError,
                                                          match="NaN"):
            combine(p1, p2)


def trained_pipeline(seed=0, h=4, epochs=8):
    rng = np.random.default_rng(seed)
    tagset = TAGS4 if h == 4 else oracles.random_tagset(h)
    corpus = oracles.random_tagged_corpus(rng, tagset, n_entries=12, max_len=8)
    model = train(corpus, TrainConfig(epochs=epochs, batch_size=4, seed=seed))
    return model, corpus


class TestTagWithKnowledge:
    """End-to-end pipeline behavior."""

    def test_empty_ruleset_matches_p2_argmax(self):
        model, corpus = trained_pipeline(seed=1)
        empty = RuleSet(model.tagset, ())
        for melody, _ in corpus:
            result = tag_with_knowledge(model, empty, melody)
            expected = np.argmax(result.p2.values, axis=0)
            assert tuple(result.final) == tuple(int(k) for k in expected)
            np.testing.assert_array_equal(result.p1.values,
                                          np.ones(result.p2.shape))
            assert result.firing_log == ()

    def test_base_is_viterbi_path(self):
        model, corpus = trained_pipeline(seed=2)
        empty = RuleSet(model.tagset, ())
        melody = corpus.entries[0][0]
        result = tag_with_knowledge(model, empty, melody)
        assert tuple(result.base) == tuple(viterbi_decode(model, melody))

    def test_weight_threshold_flips_the_tag(self):
        """The rule wins exactly when weight * p2[tag] tops the column."""
        model, _ = trained_pipeline(seed=3)
        melody = parse_melody("C4:1 D4:4 E4:1\n")
        p2 = posterior_marginals(model, melody).values
        trills = model.tagset.index("trills")
        t = 1
        threshold = float(np.max(p2[:, t]) / p2[trills, t])
        assert threshold > 1.0  # seed chosen so trills is not already best
        for factor, expect_trills in ((0.99, False), (1.01, True)):
            rules = parse_rules(
                f"IF duration(@t) > 3 THEN tag(@t) = trills "
                f"WEIGHT {threshold * factor!r}\n", model.tagset)
            result = tag_with_knowledge(model, rules, melody)
            assert (result.final[t] == trills) is expect_trills

    def test_deterministic_replay(self):
        model, corpus = trained_pipeline(seed=4)
        rules = parse_rules(
            "IF duration(@t) > 3 THEN tag(@t) = trills WEIGHT 3\n"
            "IF pred(@t-1) == trills THEN tag(@t) = none WEIGHT 0.5\n",
            model.tagset)
        melody = corpus.entries[0][0]
        first = tag_with_knowledge(model, rules, melody)
        second = tag_with_knowledge(model, rules, melody)
        assert tuple(first.final) == tuple(second.final)
        np.testing.assert_array_equal(first.combined.values,
                                      second.combined.values)
        assert first.firing_log == second.firing_log

    def test_mismatched_tagset_rejected(self):
        model, _ = trained_pipeline(seed=5)
        other = TagSet(("x", "y"))
        with pytest.raises(ShapeMismatch):
            tag_with_knowledge(model, RuleSet(other, ()),
                               parse_melody("C4:1\n"))

    def test_boost_monotonicity(self):
        """Raising a single rule's weight never un-decodes its tag."""
        model, corpus = trained_pipeline(seed=6)
        melody = corpus.entries[0][0]
        previous: set[int] = set()
        for weight in (0.25, 0.5, 1.0, 2.0, 4.0, 16.0, 256.0):
            rules = parse_rules(
                f"IF duration(@t) >= 1 THEN tag(@t) = mordent "
                f"WEIGHT {weight!r}\n", model.tagset)
            result = tag_with_knowledge(model, rules, melody)
            mordent = model.tagset.index("mordent")
            decoded = {t for t, k in enumerate(result.final) if k == mordent}
            fired = {f.target for f in result.firing_log}
            assert previous & fired <= decoded
            previous = decoded


class TestTagCorpus:
    """The streamed, batched pipeline over many melodies."""

    RULES = ("IF duration(@t) > 3 THEN tag(@t) = trills WEIGHT 3\n"
             "IF pred(@t-1) == trills THEN tag(@t) = none WEIGHT 0.5\n"
             "IF duration(@t) >= 1 AND duration(@t+1) < 1 "
             "THEN tag(@t+1) = mordent WEIGHT 2\n")

    def corpus(self, n):
        model, _ = trained_pipeline(seed=7)
        rng = np.random.default_rng(8)
        melodies = [oracles.random_melody(rng, int(length))
                    for length in rng.integers(1, 40, size=n)]
        return model, parse_rules(self.RULES, model.tagset), melodies

    def assert_equals_tag_with_knowledge(self, model, rules, melodies,
                                         results):
        assert len(results) == len(melodies)
        for melody, got in zip(melodies, results):
            want = tag_with_knowledge(model, rules, melody)
            assert tuple(got.final) == tuple(want.final)
            assert tuple(got.base) == tuple(want.base)
            assert got.firing_log == want.firing_log
            for name in ("p1", "p2", "combined"):
                assert np.array_equal(getattr(got, name).values,
                                      getattr(want, name).values)

    def test_equals_tag_with_knowledge_across_batches(self, monkeypatch):
        # a budget of 16 melodies of the longest length drawn, so that
        # 35 melodies make several batches
        monkeypatch.setattr(tagger_module, "_BATCH_CELLS", 16 * 39)
        n = 35
        model, rules, melodies = self.corpus(n)
        assert len(list(tagger_module._batches(melodies))) >= 3
        results = list(tag_corpus(model, rules, iter(melodies)))
        assert sum(len(result.firing_log) for result in results) > n
        self.assert_equals_tag_with_knowledge(model, rules, melodies, results)
        for melody, got in zip(melodies, results):
            assert np.array_equal(got.p2.values,
                                  oracles.reference_marginals(model, melody))
            assert tuple(got.base) == oracles.reference_viterbi(model, melody)

    def test_notes_numbered_once_per_batch(self, monkeypatch):
        """One numbering per batch serves the CRF and the rules, and the
        firings equal those of ``fire_batch`` numbering on its own."""
        monkeypatch.setattr(tagger_module, "_BATCH_CELLS", 16 * 39)
        model, rules, melodies = self.corpus(35)
        batches = list(tagger_module._batches(melodies))
        numbered = []

        def counting(batch):
            numbered.append(len(batch))
            return number_notes(batch)

        for module in (combine_module, tagger_module, rules_module):
            monkeypatch.setattr(module, "number_notes", counting)
        results = list(tag_corpus(model, rules, melodies))
        assert numbered == [len(batch) for batch in batches]
        monkeypatch.undo()
        fired = [firings for batch, start in zip(
            batches, np.cumsum([0] + [len(b) for b in batches]))
            for firings in fire_batch(
                rules, batch,
                [result.base for result in results[start:start + len(batch)]])]
        assert [result.firing_log for result in results] == [
            tuple(firings.records()) for firings in fired]

    def test_reads_at_most_one_batch_ahead(self, monkeypatch):
        """The stream is read one melody past the batch being yielded:
        the melody that did not fit."""
        length, per_batch = 10, 4
        monkeypatch.setattr(tagger_module, "_BATCH_CELLS", per_batch * length)
        model, rules, _ = self.corpus(0)
        rng = np.random.default_rng(8)
        melodies = [oracles.random_melody(rng, length)
                    for _ in range(3 * per_batch)]
        taken = []

        def source():
            for melody in melodies:
                taken.append(melody)
                yield melody

        stream = tag_corpus(model, rules, source())
        next(stream)
        assert len(taken) == per_batch + 1
        for _ in range(per_batch):
            next(stream)
        assert len(taken) == 2 * per_batch + 1

    def test_long_melodies_split_by_the_cell_budget(self, monkeypatch):
        """With the budget as shipped, a melody of an eighth of it and
        eight short ones make two batches: the long one fits seven more."""
        model, rules, _ = self.corpus(0)
        rng = np.random.default_rng(9)
        lengths = (tagger_module._BATCH_CELLS // 8, 3, 30, 1, 12, 2, 7, 1, 5)
        melodies = [oracles.random_melody(rng, n) for n in lengths]
        batches = []

        def spy(model, batch, start, numbering):
            batches.append((len(batch), start))
            return infer(model, batch, start, numbering)

        monkeypatch.setattr(combine_module, "infer", spy)
        results = list(tag_corpus(model, rules, melodies))
        assert batches == [(8, 1), (1, 9)]
        self.assert_equals_tag_with_knowledge(model, rules, melodies, results)

    def test_empty_input_yields_nothing(self):
        model, rules, _ = self.corpus(0)
        assert list(tag_corpus(model, rules, [])) == []

    def test_mismatched_tagset_rejected(self):
        model, _, melodies = self.corpus(3)
        other = RuleSet(TagSet(("x", "y")), ())
        with pytest.raises(ShapeMismatch):
            list(tag_corpus(model, other, melodies))


class TestStoredFlipFixture:
    """Stored p2 + ruleset reproduce the two-position flip."""

    def load(self):
        tagset = parse_tagset((DATA / "flip.tagset").read_text())
        melody = parse_melody((DATA / "flip.melody").read_text())
        rules = parse_rules((DATA / "flip.rules").read_text(), tagset)
        p2 = PredictionMatrix(np.loadtxt(DATA / "flip.p2"))
        return tagset, melody, rules, p2

    def test_base_sequence(self):
        tagset, melody, rules, p2 = self.load()
        base = decode(CombinedMatrix(p2.values), tagset)
        assert [tagset.name(k) for k in base] == [
            "trills", "none", "fermata", "none", "mordent"]

    def test_fused_sequence_flips_two_positions(self):
        tagset, melody, rules, p2 = self.load()
        base = decode(CombinedMatrix(p2.values), tagset)
        p1 = build_weight_matrix(rules, melody, base)
        final = decode(combine(p1, p2), tagset)
        assert [tagset.name(k) for k in final] == [
            "trills", "none", "mordent", "none", "trills"]

    def test_flip_is_exactly_two_rule_firings(self):
        tagset, melody, rules, p2 = self.load()
        base = decode(CombinedMatrix(p2.values), tagset)
        p1 = build_weight_matrix(rules, melody, base)
        log = collect_firings(rules, melody, base)
        assert [(f.target, f.tag) for f in log] == [
            (2, "mordent"), (4, "trills")]
        expected = np.ones((4, 5))
        expected[3, 2] = 4.0
        expected[1, 4] = 4.0
        np.testing.assert_array_equal(p1.values, expected)
