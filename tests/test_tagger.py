"""CRF feature extraction, inference, training, and model file format."""

import math
import time
import tracemalloc
import zlib
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import oracles
from oracles import melody_from_tokens
from ornatag.errors import InputError
from ornatag.model_io import (
    MAGIC,
    load_model,
    parse_model,
    save_model,
    serialize_model,
)
from ornatag.score import (
    Melody,
    Note,
    StateSequence,
    TaggedCorpus,
    TagSet,
    number_notes,
    parse_note,
)
from ornatag.synth import SynthProfile, generate_synthetic
from ornatag import tagger
from ornatag.tagger import (
    FeatureVectorizer,
    TaggerModel,
    TrainConfig,
    TrainingMeta,
    _compile,
    duration_bucket,
    emission_matrix,
    extract_features,
    flatten_weights,
    infer,
    nll_and_gradient,
    posterior_marginals,
    train,
    unflatten_weights,
    viterbi_decode,
)


def zero_model(melody, h=2):
    vectorizer = FeatureVectorizer.build([melody])
    return TaggerModel(
        oracles.random_tagset(h), vectorizer,
        np.zeros((len(vectorizer), h)), np.zeros((h, h)),
        TrainingMeta(0, 0.0, 0))


class TestExtractFeatures:
    """Per-position binary feature names."""

    def test_single_note_melody(self):
        melody = melody_from_tokens(["C1:4"])
        features = extract_features(melody, 0)
        assert {"step=C", "durbucket=(3,inf)", "pos=BOS", "pos=EOS",
                "alt=0", "octave=1", "prev_interval_sign=BOS",
                "next_interval_sign=EOS"} == set(features)

    def test_rising_interval(self):
        melody = melody_from_tokens(["C4:1", "D4:1"])
        features = extract_features(melody, 1)
        assert "prev_interval_sign=+" in features
        assert "pos=EOS" in features
        assert "pos=BOS" not in features

    def test_falling_and_flat_intervals(self):
        melody = melody_from_tokens(["E4:1", "C4:1", "C4:1"])
        assert "next_interval_sign=-" in extract_features(melody, 0)
        assert "prev_interval_sign=-" in extract_features(melody, 1)
        assert "next_interval_sign=0" in extract_features(melody, 1)

    def test_determinism(self):
        melody = melody_from_tokens(["C4:1", "D4:1", "C4:1", "D4:1", "C4:1"])
        assert extract_features(melody, 1) == extract_features(melody, 3)

    def test_alteration_feature(self):
        melody = melody_from_tokens(["C#4:1", "D4:1"])
        assert "alt=1" in extract_features(melody, 0)

    def test_out_of_range_position(self):
        melody = melody_from_tokens(["C4:1"])
        with pytest.raises(IndexError):
            extract_features(melody, 1)

    def test_duration_buckets_are_half_open(self):
        assert duration_bucket(Fraction(1, 4)) == "(0,1/4]"
        assert duration_bucket(Fraction(1, 3)) == "(1/4,1/2]"
        assert duration_bucket(Fraction(1, 2)) == "(1/4,1/2]"
        assert duration_bucket(Fraction(1)) == "(1/2,1]"
        assert duration_bucket(Fraction(2)) == "(1,2]"
        assert duration_bucket(Fraction(3)) == "(2,3]"
        assert duration_bucket(Fraction(7, 2)) == "(3,inf)"
        assert duration_bucket(Fraction(100)) == "(3,inf)"

    def test_duration_bucket_matches_fraction_comparisons(self):
        """Integer cross-products give the labels Fraction comparisons give."""
        bounds = ((Fraction(1, 4), "(0,1/4]"), (Fraction(1, 2), "(1/4,1/2]"),
                  (Fraction(1), "(1/2,1]"), (Fraction(2), "(1,2]"),
                  (Fraction(3), "(2,3]"))

        def by_fractions(duration):
            for upper, label in bounds:
                if duration <= upper:
                    return label
            return "(3,inf)"

        rng = np.random.default_rng(17)
        values = []
        for upper, _ in bounds:
            for eps in (Fraction(1, 10 ** 30), Fraction(1, 1000),
                        Fraction(1, 7)):
                values += [upper, upper - eps, upper + eps]
            # equal value, unreduced-looking construction
            values.append(Fraction(upper.numerator * 9, upper.denominator * 9))
        values += [Fraction(int(n), int(d)) for n, d in
                   rng.integers(1, 10 ** 6, size=(2000, 2))]
        values += [Fraction(1, 10 ** 40), Fraction(10 ** 40)]
        for value in values:
            assert duration_bucket(value) == by_fractions(value), value


class TestVectorizer:
    """Index assignment, fixed at construction."""

    def test_indices_contiguous_first_seen(self):
        vec = FeatureVectorizer(["a", "b"])
        assert vec.index("a") == 0
        assert vec.index("b") == 1
        assert vec.feature_names == ("a", "b")
        assert len(vec) == 2

    def test_constructor_rejects_repeated_name(self):
        with pytest.raises(ValueError, match="repeated feature name 'a'"):
            FeatureVectorizer(["a", "b", "a"])

    def test_unknown_name_maps_to_none(self):
        vec = FeatureVectorizer(["a"])
        assert vec.index("missing") is None

    def test_build_respects_exclusions(self):
        melody = melody_from_tokens(["C1:4"])
        vec = FeatureVectorizer.build([melody],
                                      exclude=frozenset({"durbucket=(3,inf)"}))
        assert "durbucket=(3,inf)" not in vec.feature_names
        assert "step=C" in vec.feature_names


# "C4:2/2" parses to a note equal to "C4:1"'s
_TOKENS = ("C4:1", "C4:2/2", "D4:1/2", "Bb3:2", "F#5:4", "G2:1/4", "C4:3")
_POOL = tuple(parse_note(token) for token in _TOKENS)
_NAMES = ("step=C", "alt=0", "octave=4", "durbucket=(1/2,1]", "pos=BOS",
          "pos=EOS", "prev_interval_sign=+", "next_interval_sign=0")


@st.composite
def melody_lists(draw):
    """1-5 melodies of 1-6 notes; each note is either a shared object from
    one pool or freshly parsed, so equal notes may or may not be one object."""
    melodies = []
    for _ in range(draw(st.integers(1, 5))):
        notes = []
        for _ in range(draw(st.integers(1, 6))):
            i = draw(st.integers(0, len(_TOKENS) - 1))
            notes.append(parse_note(_TOKENS[i]) if draw(st.booleans())
                         else _POOL[i])
        melodies.append(Melody(tuple(notes)))
    return melodies


def feature_context(melody, t):
    """What a position's features depend on: its note, and the sign of
    the interval into it (or BOS) and out of it (or EOS)."""
    def sign(delta):
        return (delta > 0) - (delta < 0)

    note = melody[t]
    before = "BOS" if t == 0 else sign(note.midi - melody[t - 1].midi)
    after = ("EOS" if t == len(melody) - 1
             else sign(melody[t + 1].midi - note.midi))
    return note, before, after


def expected_rows(vectorizer, melody, width):
    """T x ``width`` indices of a per-position pass, unseen and padding
    at F."""
    F = len(vectorizer)
    rows = [[F if vectorizer.index(name) is None else vectorizer.index(name)
             for name in sorted(extract_features(melody, t))]
            for t in range(len(melody))]
    return np.array([row + [F] * (width - len(row)) for row in rows])


class TestCompiledFeatures:
    """Rows compiled once per context against the per-position oracles."""

    @given(melody_lists(), st.sets(st.sampled_from(_NAMES)))
    def test_matches_reference_vectorizer_and_indices(self, melodies, exclude):
        exclude = frozenset(exclude)
        reference = oracles.reference_vectorizer(melodies, exclude)
        learned, learned_table, learned_ids = _compile(melodies,
                                                       exclude=exclude)
        assert learned.feature_names == reference.feature_names
        assert (FeatureVectorizer.build(melodies, exclude).feature_names
                == reference.feature_names)
        # a given vectorizer that misses names
        known = FeatureVectorizer(reference.feature_names[::2])
        given_back, table, ids = _compile(melodies, known)
        assert given_back is known
        model = TaggerModel(oracles.random_tagset(2), known,
                            np.zeros((len(known), 2)), np.zeros((2, 2)),
                            TrainingMeta(0, 0.0, 0))
        # the last row, all sentinel, pads a batch grid; no context repeats
        assert (table[-1] == len(known)).all()
        assert len(np.unique(np.concatenate(ids))) == len(table) - 1
        for melody, got_ids, got_learned_ids in zip(melodies, ids,
                                                    learned_ids):
            got, got_learned = table[got_ids], learned_table[got_learned_ids]
            np.testing.assert_array_equal(
                got_learned,
                expected_rows(reference, melody, learned_table.shape[1]))
            np.testing.assert_array_equal(
                got, expected_rows(known, melody, table.shape[1]))
            assert got.dtype == np.int32
            assert ([row[row < len(known)].tolist() for row in got]
                    == oracles.reference_indices(model, melody))

    def test_fresh_notes_compile_once_per_distinct_context(self, monkeypatch):
        """Synthetic melodies build a new Note per position.  Notes are
        numbered by value, so the note table holds each distinct note
        once, and the table holds one row per distinct context, spliced
        from note and edge names with no call to ``extract_features``."""
        corpus = generate_synthetic(
            SynthProfile(melody_length_range=(8, 16)), 200, seed=2)
        melodies = [melody for melody, _ in corpus]
        distinct = {note for melody in melodies for note in melody}
        contexts = {feature_context(melody, t)
                    for melody in melodies for t in range(len(melody))}
        assert len(distinct) < len(contexts) < corpus.token_count
        notes, ids = number_notes(melodies)
        for melody, numbers in zip(melodies, ids):
            assert [notes[i] for i in numbers] == list(melody)
        assert len(notes) == len(distinct)
        calls = []

        def counting(melody, t):
            calls.append(feature_context(melody, t))
            return extract_features(melody, t)

        monkeypatch.setattr(tagger, "extract_features", counting)
        vectorizer, table, ids = _compile(melodies)
        assert calls == []
        assert len(contexts) == len(table) - 1
        monkeypatch.undo()
        reference = oracles.reference_vectorizer(melodies)
        assert vectorizer.feature_names == reference.feature_names
        for melody, got in list(zip(melodies, ids))[::37]:
            np.testing.assert_array_equal(
                table[got], expected_rows(reference, melody, table.shape[1]))


    def test_fresh_notes_compile_in_linear_time(self, monkeypatch):
        """Outside feature extraction, each distinct note's pitch is read
        once, not again for every melody that follows: the reads add up
        to the distinct notes.  2,000 melodies of 32 notes with random
        durations, nearly every note new, compile in about 0.6 s on a
        2-core VM; a walk over every note met so far took about 5 s."""
        rng = np.random.default_rng(0)
        melodies = [Melody(tuple(
            Note("CDEFGAB"[step], 0, int(octave), Fraction(int(num), 64))
            for step, octave, num in zip(rng.integers(0, 7, 32),
                                         rng.integers(2, 6, 32),
                                         rng.integers(1, 10**6, 32))))
            for _ in range(2000)]
        reads = [0]
        counting = [True]
        midi = Note.midi.fget

        def counted_midi(note):
            reads[0] += counting[0]
            return midi(note)

        def uncounted_features(melody, t):
            counting[0] = False
            try:
                return extract_features(melody, t)
            finally:
                counting[0] = True

        monkeypatch.setattr(Note, "midi", property(counted_midi))
        monkeypatch.setattr(tagger, "extract_features", uncounted_features)
        started = time.perf_counter()
        _, _, ids = _compile(melodies)
        elapsed = time.perf_counter() - started
        monkeypatch.undo()
        assert reads[0] == len({note for melody in melodies
                                for note in melody})
        assert elapsed < 2.5
        assert [len(row) for row in ids] == [32] * 2000


class TestContextEmissions:
    """Emissions summed once per context, then gathered over the batch
    grid, against one per-position sum of weight rows."""

    @settings(deadline=None, max_examples=40)
    @given(seed=st.integers(0, 2**32 - 1),
           lengths=st.lists(st.integers(1, 40), min_size=1, max_size=8),
           h=st.integers(2, 10), scale=st.sampled_from([1.0, 1e300]))
    @example(seed=0, lengths=[1], h=2, scale=1.0)  # a batch of one note
    @example(seed=1, lengths=[30], h=10, scale=1.0)  # a batch of one
    def test_bit_identical_to_reference_emissions(self, seed, lengths, h,
                                                  scale):
        """1-note melodies have wider rows than longer ones, and the
        melodies after the first bring unseen features."""
        rng = np.random.default_rng(seed)
        melodies = [oracles.random_melody(rng, n) for n in lengths]
        model = oracles.random_model(rng, melodies[0], h, scale)
        _, table, contexts = _compile(melodies, model.vectorizer)
        with np.errstate(over="ignore", invalid="ignore"):  # at 1e300
            per_context = tagger._emissions(model.emission_weights, table)
            rows, _, E = tagger._crf_pass(model, table, contexts)
            for b, melody, ids in zip(rows, melodies, contexts):
                T = len(melody)
                want = oracles.reference_emissions(
                    model, oracles.reference_indices(model, melody))
                assert np.array_equal(per_context[ids], want, equal_nan=True)
                assert np.array_equal(E[b, :T], want, equal_nan=True)
                assert np.array_equal(emission_matrix(model, melody), want,
                                      equal_nan=True)
                assert not E[b, T:].any()  # the padding row reads zero
        assert len(per_context) == len(table)
        assert not per_context[-1].any()


class TestPosteriorMarginals:
    """Forward-backward marginals against softmax and enumeration."""

    def test_single_position_is_softmax(self):
        rng = np.random.default_rng(42)
        melody = oracles.random_melody(rng, 1)
        model = oracles.random_model(rng, melody, h=3)
        scores = emission_matrix(model, melody)[0]
        expected = np.exp(scores - scores.max())
        expected /= expected.sum()
        got = posterior_marginals(model, melody).values[:, 0]
        np.testing.assert_allclose(got, expected, atol=1e-12)

    def test_zero_weights_are_uniform(self):
        melody = melody_from_tokens(["C4:1", "D4:2", "E4:1"])
        model = zero_model(melody, h=4)
        values = posterior_marginals(model, melody).values
        np.testing.assert_allclose(values, np.full((4, 3), 0.25), atol=1e-12)

    def test_matches_enumeration(self):
        rng = np.random.default_rng(7)
        for _ in range(10):
            h = int(rng.integers(2, 5))
            length = int(rng.integers(1, 7))
            melody = oracles.random_melody(rng, length)
            model = oracles.random_model(rng, melody, h)
            expected = oracles.brute_marginals(
                emission_matrix(model, melody), model.transition_weights)
            got = posterior_marginals(model, melody).values
            np.testing.assert_allclose(got, expected, rtol=0, atol=1e-9)

    def test_columns_sum_to_one_up_to_t50(self):
        rng = np.random.default_rng(3)
        for length in (1, 2, 10, 50):
            melody = oracles.random_melody(rng, length)
            model = oracles.random_model(rng, melody, h=5, scale=3.0)
            sums = posterior_marginals(model, melody).values.sum(axis=0)
            np.testing.assert_allclose(sums, 1.0, rtol=0, atol=1e-9)

    def test_log_space_safety_long_melody_large_weights(self):
        rng = np.random.default_rng(11)
        melody = oracles.random_melody(rng, 1000)
        model = oracles.random_model(rng, melody, h=3)
        model = replace(
            model,
            emission_weights=rng.uniform(
                -50, 50, model.emission_weights.shape),
            transition_weights=rng.uniform(-50, 50, (3, 3)))
        values = posterior_marginals(model, melody).values
        assert np.all(np.isfinite(values))
        np.testing.assert_allclose(values.sum(axis=0), 1.0, atol=1e-9)

    @pytest.mark.parametrize("scale", [1e100, 1e300])
    def test_posteriors_out_of_float_range_are_input_errors(self, scale):
        """Weights so large that alpha + beta - log Z leaves float range:
        an input error, not a NaN matrix."""
        rng = np.random.default_rng(2)
        melodies = [oracles.random_melody(rng, n) for n in (20, 3)]
        model = oracles.random_model(rng, melodies[0], h=3, scale=scale)
        with pytest.raises(InputError, match="not finite"):
            infer(model, melodies)


def _logsumexp(a, axis):
    """The tagger's log-sum-exp core over ``axis`` of a copy of ``a``,
    summed in the order numpy sums that axis (pairwise when it is the
    contiguous last one), warnings silenced."""
    a = np.asarray(a, dtype=float)
    work = np.moveaxis(a, axis, 0).reshape(a.shape[axis], -1).copy()
    sequential = 0 if axis == a.ndim - 1 else work.shape[1]
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        got = tagger._lse(work, sequential)
    return got.reshape(np.delete(a.shape, axis))


class TestLogSumExp:
    """The tagger's log-sum-exp reduction against scipy's."""

    def test_bit_identical_to_scipy(self):
        """Square h x h inputs up to h = 20, so sums over the contiguous
        axis take numpy's 8-accumulator path too."""
        from scipy.special import logsumexp
        rng = np.random.default_rng(0)
        for i in range(600):
            h = int(rng.integers(1, 21))
            a = rng.normal(scale=rng.choice([1e-3, 1.0, 800.0]), size=(h, h))
            if i % 3 == 0:
                a[-1] = a[0]
            if i % 7 == 0:
                a[0, 0] = rng.choice([np.inf, -np.inf, np.nan])
            if i % 11 == 0:
                a[:] = -np.inf
            for axis in (0, 1):
                np.testing.assert_array_equal(
                    _logsumexp(a, axis=axis), logsumexp(a, axis=axis))
            np.testing.assert_array_equal(
                _logsumexp(a[0], axis=0), logsumexp(a[0]))

    @pytest.mark.parametrize("n", [129, 300])
    def test_long_run_bit_identical_to_scipy(self, n):
        """One 1-d run long enough that numpy sums it in halves."""
        from scipy.special import logsumexp
        rng = np.random.default_rng(n)
        for scale in (1e-3, 1.0, 800.0):
            a = rng.normal(scale=scale, size=n)
            a[7] = a[n // 2]
            np.testing.assert_array_equal(_logsumexp(a, axis=0), logsumexp(a))


class TestPairwiseSum:
    """The backward sums' order helper against numpy's own reduce over a
    contiguous axis: one by one below 8 terms, 8 accumulators up to 128,
    halves above."""

    def test_bit_identical_to_numpy(self):
        rng = np.random.default_rng(0)
        reordered = 0
        for n in range(1, 301):
            x = rng.normal(size=(6, n)) * 10.0 ** rng.integers(-8, 9, (6, n))
            x[1, rng.integers(0, n)] = np.inf
            x[2, rng.integers(0, n)] = -np.inf
            x[3, rng.integers(0, n)] = np.nan
            x[4, rng.integers(0, n, 2)] = [np.inf, -np.inf]
            terms = np.ascontiguousarray(x.T)
            with np.errstate(invalid="ignore"):
                want = np.add.reduce(x, axis=-1)
                got = tagger._pairwise_sum(terms)
                in_order = np.add.reduce(terms, axis=0)
            assert np.array_equal(got, want, equal_nan=True), n
            reordered += not np.array_equal(in_order, want, equal_nan=True)
        assert reordered > 250  # a term-by-term sum would not pass


class TestViterbi:
    """Max-scoring path with smallest-index tie-breaking."""

    def test_all_zero_weights_gives_all_zeros(self):
        melody = melody_from_tokens(["C4:1", "D4:2", "E4:1"])
        model = zero_model(melody, h=3)
        assert tuple(viterbi_decode(model, melody)) == (0, 0, 0)

    def test_matches_enumeration(self):
        rng = np.random.default_rng(13)
        for _ in range(10):
            h = int(rng.integers(2, 5))
            length = int(rng.integers(1, 7))
            melody = oracles.random_melody(rng, length)
            model = oracles.random_model(rng, melody, h)
            E = emission_matrix(model, melody)
            expected_path, expected_score = oracles.brute_viterbi(
                E, model.transition_weights)
            got = viterbi_decode(model, melody)
            assert tuple(got) == expected_path
            assert oracles.score_path(
                E, model.transition_weights, tuple(got)) == expected_score

    def test_tie_break_prefers_lexicographically_smallest(self):
        # two tied optimal paths (0,1) and (1,0); forward backtracking
        # would return (1,0), the contract requires (0,1)
        melody = melody_from_tokens(["C4:1", "D4:1"])
        model = zero_model(melody, h=2)
        model = replace(model,
                        transition_weights=np.array([[0.0, 5.0], [5.0, 0.0]]))
        assert tuple(viterbi_decode(model, melody)) == (0, 1)
        brute_path, _ = oracles.brute_viterbi(
            emission_matrix(model, melody), model.transition_weights)
        assert brute_path == (0, 1)

    def test_five_note_melody_gives_five_tags(self):
        rng = np.random.default_rng(5)
        melody = oracles.random_melody(rng, 5)
        model = oracles.random_model(rng, melody, h=4)
        path = viterbi_decode(model, melody)
        assert len(path) == 5
        assert all(0 <= k < 4 for k in path)


class TestBatchedInference:
    """``infer`` over a padded batch against the single-melody references."""

    @staticmethod
    def assert_matches_references(model, melodies):
        results = infer(model, melodies)
        assert len(results) == len(melodies)
        for melody, (p2, path) in zip(melodies, results):
            # the public single-melody calls are infer at B = 1
            assert np.array_equal(p2.values,
                                  oracles.reference_marginals(model, melody))
            assert np.array_equal(p2.values,
                                  posterior_marginals(model, melody).values)
            assert tuple(path) == oracles.reference_viterbi(model, melody)
            assert tuple(path) == tuple(viterbi_decode(model, melody))

    @pytest.mark.parametrize("seed", range(4))
    def test_bit_identical_to_single_melody_references(self, seed):
        """Batches mix lengths 1 to 70 and unseen features; H runs 2 to 10."""
        rng = np.random.default_rng(100 + seed)
        for h in range(2 + seed % 2, 11, 2):
            lengths = [1, 70] + [int(rng.integers(1, 71)) for _ in range(6)]
            melodies = [oracles.random_melody(rng, n)
                        for n in rng.permutation(lengths)]
            # built from two melodies: the others bring unseen features
            vectorizer = FeatureVectorizer.build(melodies[:2])
            model = TaggerModel(
                oracles.random_tagset(h), vectorizer,
                rng.normal(0.0, 2.0, size=(len(vectorizer), h)),
                rng.normal(0.0, 2.0, size=(h, h)), TrainingMeta(0, 0.0, 0))
            self.assert_matches_references(model, melodies)

    @pytest.mark.parametrize("h", [2, 3, 7, 10])
    def test_all_zero_model_takes_the_smallest_tied_path(self, h):
        rng = np.random.default_rng(h)
        melodies = [oracles.random_melody(rng, n) for n in (5, 1, 70, 12)]
        model = zero_model(melodies[0], h=h)
        self.assert_matches_references(model, melodies)
        for melody, (p2, path) in zip(melodies, infer(model, melodies)):
            assert tuple(path) == (0,) * len(melody)
            np.testing.assert_allclose(p2.values, 1.0 / h, rtol=0, atol=1e-12)

    def test_tied_transitions_in_a_batch(self):
        """Two tied best paths per pair of notes; the smaller one wins."""
        melodies = [melody_from_tokens(["C4:1", "D4:1"] * n) for n in
                    (1, 3, 2)]
        model = replace(zero_model(melodies[1], h=2),
                        transition_weights=np.array([[0.0, 5.0], [5.0, 0.0]]))
        self.assert_matches_references(model, melodies)
        assert tuple(infer(model, melodies)[0][1]) == (0, 1)

    def test_splitting_a_corpus_into_batches_changes_nothing(self):
        rng = np.random.default_rng(31)
        melodies = [oracles.random_melody(rng, int(n))
                    for n in rng.integers(1, 40, size=37)]
        model = oracles.random_model(rng, melodies[0], h=5, scale=2.0)
        whole = infer(model, melodies)
        for size in (1, 5, 16):
            parts = [result for start in range(0, len(melodies), size)
                     for result in infer(model, melodies[start:start + size])]
            for (p2, path), (q2, other) in zip(whole, parts):
                assert np.array_equal(p2.values, q2.values)
                assert tuple(path) == tuple(other)

    def test_empty_batch(self):
        melody = melody_from_tokens(["C4:1"])
        assert infer(zero_model(melody), []) == []

    def test_features_extracted_once_per_token(self, monkeypatch):
        """One compile per batch, one table row per distinct context and
        no call to ``extract_features``."""
        calls, tables = [], []
        compile_features = tagger._compile

        def counting(melody, t):
            calls.append(t)
            return extract_features(melody, t)

        def compiling(*args, **kwargs):
            compiled = compile_features(*args, **kwargs)
            tables.append(compiled[1])
            return compiled

        rng = np.random.default_rng(3)
        melodies = [oracles.random_melody(rng, n) for n in (4, 9, 1)]
        contexts = {feature_context(melody, t)
                    for melody in melodies for t in range(len(melody))}
        assert len(contexts) == 14
        model = oracles.random_model(rng, melodies[0], h=3)
        monkeypatch.setattr(tagger, "extract_features", counting)
        monkeypatch.setattr(tagger, "_compile", compiling)
        infer(model, melodies)
        assert calls == []
        assert [len(table) - 1 for table in tables] == [14]


class TestBatchedRecursions:
    """Forward-backward and Viterbi over a batch padded longest first,
    finite or not, each entry against its own single-melody references."""

    @staticmethod
    def assert_matches_references(model, melodies):
        _, table, contexts = _compile(melodies, model.vectorizer)
        Tr = model.transition_weights
        with np.errstate(all="ignore"):
            rows, lengths, E = tagger._crf_pass(model, table, contexts)
            assert sorted(rows) == list(range(len(melodies)))
            assert np.all(lengths[:-1] >= lengths[1:])
            log_alpha, log_beta, log_z = tagger._alpha_beta(E, Tr, lengths)
            paths = tagger._viterbi(E, Tr, lengths)
            for b, melody in zip(rows, melodies):
                T = len(melody)
                assert lengths[b] == T
                E_b = oracles.reference_emissions(
                    model, oracles.reference_indices(model, melody))
                assert np.array_equal(E[b, :T], E_b, equal_nan=True)
                want = oracles.reference_forward_backward(E_b, Tr)
                got = (log_alpha[b, :T], log_beta[b, :T], log_z[b])
                for g, w in zip(got, want):
                    assert np.array_equal(g, w, equal_nan=True)
                assert (tuple(paths[b, :T].tolist())
                        == oracles.reference_viterbi(model, melody))

    @pytest.mark.parametrize("lengths", [
        (1, 2, 5, 9, 17),
        (17, 9, 5, 2, 1),
        (6, 6, 6, 6),
        (1, 1, 1),
        (4, 1, 11, 1, 7, 11, 2),
        (1,),
        (13,),
    ], ids=["ascending", "descending", "equal", "all-one", "random",
            "single-note", "one-melody"])
    @pytest.mark.parametrize("scale", [1.0, 1e300])
    def test_any_length_order_matches_references(self, lengths, scale):
        """Rows end at different steps whatever order the lengths come
        in; each live prefix equals the melody computed alone."""
        rng = np.random.default_rng(len(lengths))
        melodies = [oracles.random_melody(rng, n) for n in lengths]
        model = oracles.random_model(rng, melodies[0], h=3, scale=scale)
        self.assert_matches_references(model, melodies)

    @pytest.mark.parametrize("seed", range(3))
    def test_overflowing_emissions_match_references(self, seed):
        """Weights near 1e308: emission sums overflow to +-inf (and NaN
        where they meet), where scipy falls back to the direct formula."""
        rng = np.random.default_rng(seed)
        melodies = [oracles.random_melody(rng, n) for n in (12, 1, 5, 25)]
        model = oracles.random_model(rng, melodies[0], h=3)
        model = replace(
            model,
            emission_weights=rng.uniform(-1.7, 1.7,
                                         model.emission_weights.shape) * 1e308,
            transition_weights=rng.uniform(-1.7, 1.7, (3, 3)) * 1e308)
        with np.errstate(over="ignore"):
            assert np.isinf(emission_matrix(model, melodies[0])).any()
        self.assert_matches_references(model, melodies)

    @settings(deadline=None, max_examples=40)
    @given(seed=st.integers(0, 2**32 - 1),
           lengths=st.lists(st.integers(1, 40), min_size=1, max_size=8),
           h=st.integers(2, 6), scale=st.sampled_from([0.0, 1.0, 1e3, 1e300]))
    def test_batches_match_single_melody_references(self, seed, lengths, h,
                                                    scale):
        rng = np.random.default_rng(seed)
        melodies = [oracles.random_melody(rng, n) for n in lengths]
        # built from the first melody: the others bring unseen features
        model = oracles.random_model(rng, melodies[0], h, scale)
        self.assert_matches_references(model, melodies)


class TestInferMemory:
    """infer frees the Viterbi suffix maxima before alpha and beta are
    allocated, and the emissions before the marginals are built."""

    def test_peak_within_five_batch_arrays(self):
        """72 melodies of 256 notes, H = 4: the peak stays within 4.8
        B x T x H float arrays (about 3.9 here); keeping the suffix
        maxima or the emissions alive adds one more."""
        rng = np.random.default_rng(7)
        melodies = [oracles.random_melody(rng, 256) for _ in range(72)]
        model = oracles.random_model(rng, melodies[0], h=4)
        tracemalloc.start()
        try:
            infer(model, melodies)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 4.8 * 72 * 256 * 4 * 8, peak


class TestNllAndGradient:
    """Loss value and analytic gradient of the training objective."""

    def test_zero_weights_loss_is_t_log_h(self):
        melody = melody_from_tokens(["C4:1", "D4:2", "E4:1"])
        model = zero_model(melody, h=3)
        corpus = TaggedCorpus(model.tagset, ((melody, StateSequence((0, 1, 2))),))
        loss, _ = nll_and_gradient(model, corpus, l2=0.0)
        assert loss == pytest.approx(3 * math.log(3), rel=1e-12)

    def test_duplicated_entry_doubles_loss(self):
        rng = np.random.default_rng(23)
        melody = oracles.random_melody(rng, 4)
        model = oracles.random_model(rng, melody, h=3)
        entry = (melody, StateSequence((0, 1, 2, 0)))
        single = TaggedCorpus(model.tagset, (entry,))
        double = TaggedCorpus(model.tagset, (entry, entry))
        loss1, _ = nll_and_gradient(model, single, l2=0.0)
        loss2, _ = nll_and_gradient(model, double, l2=0.0)
        assert loss2 == pytest.approx(2 * loss1, rel=1e-12)

    def test_empty_batch_rejected(self):
        melody = melody_from_tokens(["C4:1"])
        model = zero_model(melody)
        with pytest.raises(InputError, match="gradient of an empty batch"):
            nll_and_gradient(model, TaggedCorpus(model.tagset, ()), l2=0.0)

    @pytest.mark.parametrize("l2", [0.0, 0.5])
    def test_gradient_matches_central_differences(self, l2):
        rng = np.random.default_rng(29)
        melody = oracles.random_melody(rng, 5)
        model = oracles.random_model(rng, melody, h=4)
        gold = StateSequence(tuple(int(rng.integers(0, 4)) for _ in range(5)))
        batch = TaggedCorpus(model.tagset, ((melody, gold),))
        F, H = model.emission_weights.shape

        def loss_at(flat):
            emissions, transitions = unflatten_weights(flat, F, H)
            candidate = replace(model, emission_weights=emissions,
                                transition_weights=transitions)
            return nll_and_gradient(candidate, batch, l2)[0]

        _, analytic = nll_and_gradient(model, batch, l2)
        numeric = oracles.central_difference_gradient(
            loss_at, flatten_weights(model), step=1e-5)
        scale = np.maximum(np.abs(numeric), 1.0)
        assert np.max(np.abs(analytic - numeric) / scale) < 1e-4

    @pytest.mark.parametrize("seed", range(6))
    def test_bit_identical_to_reference_loops(self, seed):
        """Batched loss and gradient equal the per-position loops exactly.

        Batches mix lengths 1 to 70, single-note melodies included, and
        features the vectorizer has not seen; H runs from 2 to 10, so
        numpy's 8-wide summation path is taken too.
        """
        rng = np.random.default_rng(seed)
        for h in range(2 + seed % 2, 11, 2):
            tagset = oracles.random_tagset(h)
            lengths = [1, 70] + [int(rng.integers(1, 71)) for _ in range(6)]
            entries = tuple(
                (oracles.random_melody(rng, n), StateSequence(tuple(
                    int(k) for k in rng.integers(0, h, size=n))))
                for n in rng.permutation(lengths))
            batch = TaggedCorpus(tagset, entries)
            # built from two melodies: the others bring unseen features
            vectorizer = FeatureVectorizer.build(
                [melody for melody, _ in entries[:2]])
            model = TaggerModel(
                tagset, vectorizer,
                rng.normal(0.0, 2.0, size=(len(vectorizer), h)),
                rng.normal(0.0, 2.0, size=(h, h)), TrainingMeta(0, 0.0, 0))
            for l2 in (0.0, 0.01, 0.5):
                loss, gradient = nll_and_gradient(model, batch, l2)
                ref_loss, ref_gradient = oracles.reference_nll_and_gradient(
                    model, batch, l2)
                assert loss == ref_loss
                assert np.array_equal(gradient, ref_gradient)

    @settings(deadline=None, max_examples=25)
    @given(seed=st.integers(0, 2**32 - 1),
           lengths=st.lists(st.integers(1, 30), min_size=1, max_size=8),
           h=st.integers(2, 6))
    def test_loss_only_pass_equals_the_gradient_pass(self, seed, lengths, h):
        """``_batch_nll`` without counts runs no backward step, and adds
        the same terms in the same order."""
        rng = np.random.default_rng(seed)
        melodies = [oracles.random_melody(rng, n) for n in lengths]
        model = oracles.random_model(rng, melodies[0], h)
        _, table, contexts = _compile(melodies, model.vectorizer)
        golds = [rng.integers(0, h, size=n) for n in lengths]
        counts = np.zeros((len(model.vectorizer) + 1) * h + h * h)
        with_counts = tagger._batch_nll(model, table, contexts, golds, 0.5,
                                        counts)
        lse, reduced = tagger._lse, []

        def recording(work, sequential):
            reduced.append((work.shape[1], sequential))
            return lse(work, sequential)

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(tagger, "_lse", recording)
            loss_only = tagger._batch_nll(model, table, contexts, golds, 0.5)
        assert loss_only == with_counts
        # every step reduces forward rows alone, one per melody still
        # inside it; the last call is log Z's, one row per melody
        *steps, last = reduced
        assert all(rows == forward for rows, forward in steps)
        assert sum(rows for rows, _ in steps) == sum(lengths) - len(lengths)
        assert last == (len(lengths), 0)

    def test_gradient_shape_and_flattening(self):
        melody = melody_from_tokens(["C4:1", "D4:1"])
        model = zero_model(melody, h=3)
        corpus = TaggedCorpus(model.tagset, ((melody, StateSequence((0, 1))),))
        _, gradient = nll_and_gradient(model, corpus, l2=0.0)
        F = len(model.vectorizer)
        assert gradient.shape == (F * 3 + 9,)
        emissions, transitions = unflatten_weights(gradient, F, 3)
        # uniform expectations minus one gold count per position
        np.testing.assert_allclose(transitions.sum(), 0.0, atol=1e-12)
        np.testing.assert_allclose(emissions.sum(axis=1), 0.0, atol=1e-12)


def tiny_corpus(seed=0, n_entries=6, h=3, max_len=5):
    rng = np.random.default_rng(seed)
    tagset = oracles.random_tagset(h)
    return oracles.random_tagged_corpus(rng, tagset, n_entries, max_len)


class TestTrain:
    """Gradient-descent training behavior."""

    def test_deterministic_given_seed(self):
        corpus = tiny_corpus()
        config = TrainConfig(epochs=3, batch_size=2, seed=42)
        text1 = serialize_model(train(corpus, config))
        text2 = serialize_model(train(corpus, config))
        assert text1 == text2

    @pytest.mark.parametrize("field, value", [
        ("epochs", -1), ("step_size", 0.0), ("step_size", math.nan),
        ("step_size", math.inf), ("l2", -1.0), ("l2", math.nan),
        ("l2", math.inf), ("batch_size", 0), ("seed", -1),
    ])
    def test_config_rejects_out_of_domain(self, field, value):
        with pytest.raises(ValueError):
            TrainConfig(**{field: value})

    def test_different_seed_changes_shuffle(self):
        corpus = tiny_corpus(n_entries=8)
        model_a = train(corpus, TrainConfig(epochs=2, batch_size=3, seed=1))
        model_b = train(corpus, TrainConfig(epochs=2, batch_size=3, seed=2))
        assert serialize_model(model_a) != serialize_model(model_b)

    def test_zero_epochs_means_zero_weights(self):
        corpus = tiny_corpus()
        model = train(corpus, TrainConfig(epochs=0))
        assert np.all(model.emission_weights == 0)
        assert np.all(model.transition_weights == 0)
        melody = corpus.entries[0][0]
        h = len(corpus.tagset)
        values = posterior_marginals(model, melody).values
        np.testing.assert_allclose(values, 1.0 / h, atol=1e-12)

    def test_empty_corpus_rejected(self):
        tagset = oracles.random_tagset(2)
        with pytest.raises(InputError,
                           match="cannot train on an empty corpus"):
            train(TaggedCorpus(tagset, ()), TrainConfig(epochs=1))

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_diverging_update_is_an_input_error(self):
        seen = []
        with pytest.raises(InputError) as excinfo:
            train(tiny_corpus(n_entries=8),
                  TrainConfig(epochs=3, step_size=1e200, l2=1e200,
                              batch_size=2),
                  progress=lambda epoch, loss: seen.append(epoch))
        assert seen == []
        assert str(excinfo.value) == (
            "training diverged in epoch 1: the weights left float range "
            "(step_size 1e+200, l2 1e+200)")

    def test_full_batch_loss_non_increasing(self):
        """Plain gradient descent on a small corpus must descend.

        The step is halved and the run retried up to 3 times before
        this counts as a failure, so a merely-too-aggressive default
        does not mask a wrong gradient.
        """
        corpus = tiny_corpus(seed=4, n_entries=8, h=3, max_len=5)
        assert corpus.token_count <= 100
        step = 0.1
        for _ in range(4):
            losses = []
            config = TrainConfig(epochs=10, step_size=step, l2=0.01,
                                 batch_size=len(corpus.entries), seed=0)
            train(corpus, config,
                  progress=lambda epoch, loss: losses.append(loss))
            if all(b <= a + 1e-12 for a, b in zip(losses, losses[1:])):
                return
            step /= 2
        pytest.fail(f"loss not monotone even at step {step * 2}: {losses}")

    @pytest.mark.parametrize("config", [
        TrainConfig(epochs=3, batch_size=2, seed=42),
        TrainConfig(epochs=2, batch_size=32, l2=0.0, seed=1),
        TrainConfig(epochs=2, batch_size=3, step_size=0.5, seed=7,
                    exclude_features=frozenset({"durbucket=(1/2,1]",
                                                "pos=BOS"})),
    ])
    def test_bit_identical_to_reference_training(self, config):
        corpus = tiny_corpus(seed=12, n_entries=9, h=4, max_len=12)
        losses, ref_losses = [], []
        model = train(corpus, config,
                      progress=lambda epoch, loss: losses.append(loss))
        reference = oracles.reference_train(
            corpus, config, progress=lambda epoch, loss: ref_losses.append(loss))
        assert serialize_model(model) == serialize_model(reference)
        assert losses == ref_losses

    def test_features_extracted_once_per_token(self, monkeypatch):
        """One compile per run, one table row per distinct context and
        no call to ``extract_features``."""
        calls, tables = [], []
        compile_features = tagger._compile

        def counting(melody, t):
            calls.append(t)
            return extract_features(melody, t)

        def compiling(*args, **kwargs):
            compiled = compile_features(*args, **kwargs)
            tables.append(compiled[1])
            return compiled

        monkeypatch.setattr(tagger, "extract_features", counting)
        monkeypatch.setattr(tagger, "_compile", compiling)
        corpus = tiny_corpus(n_entries=8)
        contexts = {feature_context(melody, t)
                    for melody, _ in corpus for t in range(len(melody))}
        assert len(contexts) == corpus.token_count
        train(corpus, TrainConfig(epochs=3, batch_size=3))
        assert calls == []
        assert [len(table) - 1 for table in tables] == [corpus.token_count]

    def test_training_meta_records_run(self):
        corpus = tiny_corpus()
        config = TrainConfig(epochs=2, seed=9)
        model = train(corpus, config)
        assert model.training_meta.epochs == 2
        assert model.training_meta.seed == 9
        expected_loss, _ = nll_and_gradient(model, corpus, config.l2)
        assert model.training_meta.final_loss == expected_loss

    def test_progress_callback_sees_every_epoch(self):
        corpus = tiny_corpus()
        seen = []
        train(corpus, TrainConfig(epochs=3),
              progress=lambda epoch, loss: seen.append(epoch))
        assert seen == [1, 2, 3]

    def test_excluded_feature_absent_from_model(self):
        corpus = tiny_corpus()
        config = TrainConfig(epochs=1,
                             exclude_features=frozenset({"durbucket=(3,inf)"}))
        model = train(corpus, config)
        assert "durbucket=(3,inf)" not in model.vectorizer.feature_names

    def test_training_reduces_loss_vs_uniform(self):
        corpus = tiny_corpus(seed=8, n_entries=10)
        initial = train(corpus, TrainConfig(epochs=0))
        trained = train(corpus, TrainConfig(epochs=10, batch_size=4))
        loss0, _ = nll_and_gradient(initial, corpus, 0.01)
        loss1, _ = nll_and_gradient(trained, corpus, 0.01)
        assert loss1 < loss0


class TestModelIO:
    """Versioned checksummed text format."""

    def roundtrip_model(self, seed=31):
        rng = np.random.default_rng(seed)
        melody = oracles.random_melody(rng, 6)
        model = oracles.random_model(rng, melody, h=3)
        meta = TrainingMeta(epochs=7, final_loss=12.375, seed=3)
        return replace(model, training_meta=meta), melody

    def test_serialized_form_is_stable(self):
        model, _ = self.roundtrip_model()
        assert serialize_model(model) == serialize_model(model)

    def test_round_trip_bytes(self):
        model, _ = self.roundtrip_model()
        text = serialize_model(model)
        assert serialize_model(parse_model(text)) == text

    def test_round_trip_preserves_inference_bit_exactly(self):
        model, melody = self.roundtrip_model()
        loaded = parse_model(serialize_model(model))
        np.testing.assert_array_equal(
            posterior_marginals(loaded, melody).values,
            posterior_marginals(model, melody).values)
        assert tuple(viterbi_decode(loaded, melody)) == tuple(
            viterbi_decode(model, melody))

    def test_crlf_model_names_its_line_ends(self):
        """CRLF line ends are reported as such, not as a version mismatch."""
        model, _ = self.roundtrip_model()
        text = serialize_model(model).replace("\n", "\r\n")
        with pytest.raises(InputError, match="CRLF line ends.*exact bytes"):
            parse_model(text)

    def test_round_trip_preserves_meta(self):
        model, _ = self.roundtrip_model()
        loaded = parse_model(serialize_model(model))
        assert loaded.training_meta == model.training_meta
        assert loaded.tagset == model.tagset
        assert loaded.vectorizer.feature_names == model.vectorizer.feature_names

    def test_file_round_trip(self, tmp_path):
        model, _ = self.roundtrip_model()
        path = tmp_path / "model.crf"
        save_model(model, path)
        assert serialize_model(load_model(path)) == serialize_model(model)

    def test_begins_with_magic(self):
        model, _ = self.roundtrip_model()
        assert serialize_model(model).startswith(MAGIC + "\n")

    def test_future_version_rejected(self):
        model, _ = self.roundtrip_model()
        text = serialize_model(model).replace("v1", "v9", 1)
        with pytest.raises(InputError, match="unsupported model version"):
            parse_model(text)

    def test_not_a_model_file(self):
        with pytest.raises(InputError, match="not a model file"):
            parse_model("hello\nworld\n")

    def test_truncated_file(self):
        model, _ = self.roundtrip_model()
        text = serialize_model(model)
        with pytest.raises(InputError, match="model file is truncated"):
            parse_model(text[: len(text) // 2])

    def test_checksum_detects_bit_flip(self):
        model, _ = self.roundtrip_model()
        text = serialize_model(model)
        struck = text.replace("0.", "1.", 1)
        assert struck != text
        with pytest.raises(InputError, match="checksum mismatch"):
            parse_model(struck)

    def test_missing_checksum_line(self):
        model, _ = self.roundtrip_model()
        text = serialize_model(model)
        body = text[: text.rindex("checksum")]
        with pytest.raises(InputError, match="missing checksum line"):
            parse_model(body)

    def test_repeated_feature_name_is_corrupt(self):
        model, _ = self.roundtrip_model()
        text = with_repeated_feature(serialize_model(model))
        with pytest.raises(InputError, match="repeated feature name"):
            parse_model(text)

    def test_magic_wins_over_checksum(self):
        # a v9 file reports the version problem even though its
        # checksum line no longer matches either
        model, _ = self.roundtrip_model()
        text = serialize_model(model).replace("v1", "v9", 1)
        with pytest.raises(InputError, match="unsupported model version"):
            parse_model(text)


def with_checksum(body: str) -> str:
    """``body`` with the checksum line that makes it pass that check."""
    return f"{body}checksum {zlib.crc32(body.encode('utf-8')):08x}\n"


# lines and words of the model grammar, for bodies near a valid one
_MODEL_LINES = ("tags 2", "tags 0", "tags -1", "tags 99999", "features 0",
                "features 3", "emissions 3 2", "emissions 0 2",
                "transitions 2 2", "meta epochs 1 loss 0.5 seed 0",
                "meta epochs -1 loss nan seed x", "none", "none", "a b",
                "0.5 0.5", "nan 1", "inf -inf", "1e999 0", "1", "", MAGIC,
                "checksum 00000000")


class TestModelParserFuzz:
    """parse_model raises only InputError, whatever the text."""

    @given(st.text())
    def test_arbitrary_text(self, text):
        for candidate in (text, f"{MAGIC}\n{text}", with_checksum(
                f"{MAGIC}\n{text}\n")):
            try:
                parse_model(candidate)
            except InputError:
                pass

    @given(st.lists(st.tuples(
        st.sampled_from(("replace", "insert", "delete")), st.integers(0, 40),
        st.sampled_from(_MODEL_LINES)
        | st.text(alphabet="tagsfeure 0123456789.-+einf", max_size=12)),
        min_size=1, max_size=4))
    def test_near_model_bodies_with_valid_checksum(self, edits):
        rng = np.random.default_rng(5)
        melody = oracles.random_melody(rng, 3)
        model = oracles.random_model(rng, melody, h=2)
        lines = serialize_model(model).split("\n")[:-2]
        for op, at, line in edits:
            at = min(at, len(lines))
            if op == "insert":
                lines.insert(at, line)
            elif at < len(lines):
                if op == "replace":
                    lines[at] = line
                else:
                    del lines[at]
        try:
            parse_model(with_checksum("".join(f"{l}\n" for l in lines)))
        except InputError:
            pass


def with_repeated_feature(text: str) -> str:
    """A model text whose first feature and emission row appear twice,
    with the block counts and checksum made to match."""
    lines = text.split("\n")[:-2]  # drop the checksum line
    for header in ("features", "emissions"):
        i = next(k for k, line in enumerate(lines)
                 if line.startswith(header + " "))
        fields = lines[i].split()
        fields[1] = str(int(fields[1]) + 1)
        lines[i] = " ".join(fields)
        lines.insert(i + 1, lines[i + 1])
    return with_checksum("\n".join(lines) + "\n")
