"""Domain types and text formats: parsing, validation, round trips."""

import os
import subprocess
import sys
from fractions import Fraction

import pytest
from hypothesis import example, given, strategies as st

from ornatag.errors import InputError
from ornatag.score import (
    Melody,
    Note,
    StateSequence,
    TaggedCorpus,
    TagSet,
    digit_limit,
    exceeds_digit_limit,
    parse_corpus,
    parse_melody,
    parse_note,
    parse_tagset,
    serialize_corpus,
    serialize_melody,
    serialize_note,
    serialize_tagset,
)

# pitch bounds make some step/alteration/octave combos invalid; build lazily
note_fields = st.tuples(
    st.sampled_from("CDEFGAB"),
    st.integers(-2, 2),
    st.integers(0, 9),
    st.fractions(min_value=Fraction(1, 64), max_value=Fraction(16)),
)


def try_note(fields):
    step, alt, octave, dur = fields
    try:
        return Note(step, alt, octave, dur)
    except ValueError:
        return None


notes = note_fields.map(try_note).filter(lambda n: n is not None)

tag_names = st.from_regex(r"[a-z][a-z0-9_]{0,7}", fullmatch=True)
tagsets = st.lists(tag_names, min_size=2, max_size=6, unique=True).map(
    lambda tags: TagSet(tuple(tags)))


class TestNote:
    """Pitch, duration, and MIDI invariants of the Note type."""

    def test_midi_of_middle_c(self):
        assert Note("C", 0, 4, Fraction(1)).midi == 60

    def test_midi_of_flat(self):
        assert Note("B", -1, 3, Fraction(2)).midi == 58

    def test_zero_duration_rejected(self):
        with pytest.raises(ValueError):
            Note("C", 0, 4, Fraction(0))

    def test_negative_duration_rejected(self):
        with pytest.raises(ValueError):
            Note("C", 0, 4, Fraction(-1, 2))

    def test_pitch_below_midi_floor_rejected(self):
        # Cb0 would be MIDI 11
        with pytest.raises(ValueError):
            Note("C", -1, 0, Fraction(1))

    def test_pitch_above_midi_ceiling_rejected(self):
        # A9 would be MIDI 129
        with pytest.raises(ValueError):
            Note("A", 0, 9, Fraction(1))

    def test_bad_step_rejected(self):
        with pytest.raises(ValueError):
            Note("H", 0, 4, Fraction(1))

    def test_equal_notes_hash_alike_across_processes(self):
        """A note unpickled where strings hash differently still finds
        an equal note's dict entry."""
        assert hash(Note("C", 0, 4, Fraction(1))) == hash(
            Note("C", 0, 4, Fraction(2, 2)))
        make = ("import pickle, sys; from ornatag.score import Note; "
                "sys.stdout.write(pickle.dumps(Note('C', 1, 4, 3)).hex())")
        check = ("import pickle, sys; from ornatag.score import Note; "
                 "note = pickle.loads(bytes.fromhex(sys.stdin.read())); "
                 "print({Note('C', 1, 4, 3): 'found'}.get(note))")
        env = dict(os.environ, PYTHONHASHSEED="1")
        pickled = subprocess.run([sys.executable, "-c", make], env=env,
                                 capture_output=True, text=True, check=True,
                                 timeout=60).stdout
        env["PYTHONHASHSEED"] = "2"
        found = subprocess.run([sys.executable, "-c", check], env=env,
                               input=pickled, capture_output=True, text=True,
                               check=True, timeout=60).stdout
        assert found.strip() == "found"


class TestParseNote:
    """Canonical token grammar: step [accidental] octave ':' duration."""

    def test_plain(self):
        assert parse_note("C1:4") == Note("C", 0, 1, Fraction(4))

    def test_lowercase_step_folded(self):
        assert parse_note("c1:4") == Note("C", 0, 1, Fraction(4))

    def test_sharp(self):
        assert parse_note("C#4:3/2") == Note("C", 1, 4, Fraction(3, 2))

    def test_double_sharp(self):
        assert parse_note("F##5:1") == Note("F", 2, 5, Fraction(1))

    def test_flat(self):
        assert parse_note("Bb3:2") == Note("B", -1, 3, Fraction(2))

    def test_double_flat(self):
        assert parse_note("Ebb2:1/4") == Note("E", -2, 2, Fraction(1, 4))

    def test_fraction_duration(self):
        assert parse_note("A4:1/2").duration_ql == Fraction(1, 2)

    def test_empty_token(self):
        with pytest.raises(InputError, match="empty note token"):
            parse_note("")

    def test_bad_step_letter(self):
        with pytest.raises(InputError, match="step letter outside") as exc:
            parse_note("H1:4")
        assert exc.value.column == 1

    def test_nonalpha_start(self):
        with pytest.raises(InputError, match="expected a step letter"):
            parse_note("1:4")

    def test_missing_octave(self):
        with pytest.raises(InputError, match="expected an octave digit"):
            parse_note("C#:4")

    def test_missing_colon(self):
        with pytest.raises(InputError,
                           match="expected ':' before the duration"):
            parse_note("C14")

    def test_zero_duration(self):
        with pytest.raises(InputError, match="zero duration"):
            parse_note("C1:0")

    def test_zero_denominator(self):
        with pytest.raises(InputError, match="zero denominator"):
            parse_note("C1:1/0")

    def test_garbage_duration(self):
        with pytest.raises(InputError, match="expected a duration 'int'"):
            parse_note("C1:x")

    def test_trailing_garbage(self):
        with pytest.raises(InputError, match="expected a duration 'int'"):
            parse_note("C1:4y")

    def test_pitch_out_of_range(self):
        with pytest.raises(InputError, match="pitch outside MIDI range"):
            parse_note("A9:1")

    @pytest.mark.parametrize("token", ["C\u00b2:1", "C\u0663:1"])
    def test_octave_digit_is_ascii(self, token):
        # superscript two passes str.isdigit; Arabic-Indic three int() reads
        with pytest.raises(InputError,
                           match="expected an octave digit") as exc:
            parse_melody(token)
        assert (exc.value.line, exc.value.column) == (1, 2)

    @pytest.mark.parametrize("duration", ["{}", "1/{}", "{}/3"])
    def test_long_duration_is_located(self, duration):
        token = "C4:" + duration.format("1" * (digit_limit() + 1))
        with pytest.raises(InputError, match="duration has more than") as exc:
            parse_melody("D4:1\n" + token)
        assert (exc.value.line, exc.value.column) == (2, 4)

    def test_duration_digits_are_ascii(self):
        with pytest.raises(InputError, match="expected a duration 'int'"):
            parse_note("C4:\u0663")


def _walk_exceeds(number, limit):
    """The digit-limit predicate as a walk over every character."""
    mantissa, _, exponent = number.lower().partition("e")
    digits = sum(c.isdecimal() for c in mantissa)
    exponent = "".join(c for c in exponent if c.isdecimal())
    return len(exponent) > limit or digits + int(exponent or "0") > limit


_NUMBER_CHARS = "0123456789./eE+-\u0663\u00b2x"
_EXPONENTS = st.builds("{}{}{}".format, st.sampled_from("eE"),
                       st.sampled_from(("", "+", "-")),
                       st.integers(0, 2 * digit_limit()).map(str))


class TestDigitLimit:
    """The short-token shortcut leaves the predicate as it was."""

    @given(st.one_of(
        st.text(),
        st.text(_NUMBER_CHARS, max_size=12),
        st.builds("{}{}{}{}".format, st.text(_NUMBER_CHARS, max_size=3),
                  st.one_of(st.integers(0, digit_limit() + 3),
                            st.integers(digit_limit() - 3, digit_limit() + 3)
                            ).map(lambda n: "1" * n),
                  st.just("") | _EXPONENTS,
                  st.text(_NUMBER_CHARS, max_size=3))))
    @example("1E9999")
    @example("1" * (digit_limit() + 1))
    def test_matches_the_character_walk(self, number):
        assert exceeds_digit_limit(number) == _walk_exceeds(number,
                                                            digit_limit())


class TestSerializeNote:
    """Canonical rendering, the inverse of parse_note."""

    def test_plain(self):
        assert serialize_note(Note("C", 0, 1, Fraction(4))) == "C1:4"

    def test_fraction(self):
        assert serialize_note(Note("A", 0, 4, Fraction(1, 2))) == "A4:1/2"

    def test_flat(self):
        assert serialize_note(Note("B", -1, 3, Fraction(2))) == "Bb3:2"

    def test_double_sharp(self):
        assert serialize_note(Note("F", 2, 5, Fraction(1))) == "F##5:1"

    @given(notes)
    def test_round_trip(self, note):
        assert parse_note(serialize_note(note)) == note

    @given(notes)
    def test_serialized_form_is_fixed_point(self, note):
        token = serialize_note(note)
        assert serialize_note(parse_note(token)) == token


class TestTagSet:
    """Ordered distinct identifiers; index = file position."""

    def test_index_lookup(self):
        ts = TagSet(("none", "trills"))
        assert ts.index("trills") == 1
        assert ts.name(0) == "none"

    def test_unknown_tag(self):
        with pytest.raises(InputError, match="unknown tag 'vibrato'"):
            TagSet(("none", "trills")).index("vibrato")

    def test_needs_two_tags(self):
        with pytest.raises(ValueError):
            TagSet(("none",))

    def test_duplicates_rejected(self):
        with pytest.raises(ValueError):
            TagSet(("none", "none"))

    def test_uppercase_rejected(self):
        with pytest.raises(ValueError):
            TagSet(("none", "Trills"))

    def test_contains(self):
        ts = TagSet(("none", "trills"))
        assert "trills" in ts and "vibrato" not in ts


class TestTagsetFile:
    """One identifier per line, comments allowed, order defines indices."""

    def test_parse(self):
        ts = parse_tagset("# techniques\nnone\ntrills\n\nfermata\n")
        assert ts.tags == ("none", "trills", "fermata")

    def test_duplicate_line(self):
        with pytest.raises(InputError, match="duplicate tag 'none'") as exc:
            parse_tagset("none\ntrills\nnone\n")
        assert exc.value.line == 3

    def test_invalid_identifier(self):
        with pytest.raises(InputError, match="invalid tag identifier"):
            parse_tagset("none\nTr-ills\n")

    def test_too_few(self):
        with pytest.raises(InputError, match="needs at least 2 tags"):
            parse_tagset("none\n")

    @given(tagsets)
    def test_round_trip(self, ts):
        assert parse_tagset(serialize_tagset(ts)) == ts

    @given(tagsets)
    def test_bytes_fixed_point(self, ts):
        text = serialize_tagset(ts)
        assert serialize_tagset(parse_tagset(text)) == text


class TestMelodyFile:
    """Whitespace-separated canonical tokens with comments."""

    def test_parse(self):
        m = parse_melody("C1:4 D1:2\n# comment\nE1:1\n")
        assert [serialize_note(n) for n in m] == ["C1:4", "D1:2", "E1:1"]

    def test_error_carries_line(self):
        with pytest.raises(InputError, match="zero duration") as exc:
            parse_melody("C1:4\nD1:0\n")
        assert exc.value.line == 2

    def test_sharp_is_not_a_comment(self):
        m = parse_melody("C#4:1 D1:2  # trailing remark\n")
        assert [serialize_note(n) for n in m] == ["C#4:1", "D1:2"]

    def test_empty_file(self):
        with pytest.raises(InputError, match="melody file contains no notes"):
            parse_melody("# nothing here\n\n")

    @given(st.lists(notes, min_size=1, max_size=12))
    def test_round_trip(self, note_list):
        melody = Melody(tuple(note_list))
        assert parse_melody(serialize_melody(melody)) == melody

    @given(st.lists(notes, min_size=1, max_size=12))
    def test_bytes_fixed_point(self, note_list):
        text = serialize_melody(Melody(tuple(note_list)))
        assert serialize_melody(parse_melody(text)) == text


class TestCorpusFile:
    """CoNLL-style note<TAB>tag blocks separated by blank lines."""

    tagset = TagSet(("none", "trills"))

    def test_single_block(self):
        corpus = parse_corpus("C1:4\ttrills\nD1:2\tnone\n", self.tagset)
        assert len(corpus) == 1
        melody, states = corpus.entries[0]
        assert len(melody) == 2
        assert tuple(states) == (1, 0)

    def test_two_blocks(self):
        text = "C1:4\tnone\nD1:2\tnone\nE1:1\tnone\n\nF1:4\ttrills\nG1:2\tnone\n"
        corpus = parse_corpus(text, self.tagset)
        assert len(corpus) == 2
        assert corpus.token_count == 5

    def test_unknown_tag_carries_line(self):
        with pytest.raises(InputError, match="unknown tag 'vibrato'") as exc:
            parse_corpus("C1:4\tnone\nD1:2\tvibrato\n", self.tagset)
        assert exc.value.line == 2

    def test_malformed_pair(self):
        with pytest.raises(InputError, match="expected 'note<TAB>tag'"):
            parse_corpus("C1:4\tnone\textra\n", self.tagset)

    def test_comment_lines_do_not_split_blocks(self):
        text = "C1:4\tnone\n# interleaved remark\nD1:2\tnone\n"
        corpus = parse_corpus(text, self.tagset)
        assert len(corpus) == 1
        assert corpus.token_count == 2

    def test_blank_lines_split_blocks(self):
        text = "C1:4\tnone\n\n\nD1:2\tnone\n"
        corpus = parse_corpus(text, self.tagset)
        assert len(corpus) == 2

    def test_empty_file(self):
        with pytest.raises(InputError,
                           match="corpus file contains no entries"):
            parse_corpus("# only comments\n", self.tagset)

    @given(st.data())
    def test_round_trip(self, data):
        ts = data.draw(tagsets)
        n_entries = data.draw(st.integers(1, 4))
        entries = []
        for _ in range(n_entries):
            melody = Melody(tuple(data.draw(
                st.lists(notes, min_size=1, max_size=6))))
            states = StateSequence(tuple(data.draw(
                st.lists(st.integers(0, len(ts) - 1),
                         min_size=len(melody), max_size=len(melody)))))
            entries.append((melody, states))
        corpus = TaggedCorpus(ts, tuple(entries))
        text = serialize_corpus(corpus)
        parsed = parse_corpus(text, ts)
        assert parsed == corpus
        assert serialize_corpus(parsed) == text


class TestStructuralInvariants:
    """Constructor-level checks on the container types."""

    def test_melody_needs_a_note(self):
        with pytest.raises(ValueError):
            Melody(())

    def test_corpus_rejects_length_mismatch(self):
        ts = TagSet(("none", "trills"))
        melody = Melody((Note("C", 0, 4, Fraction(1)),))
        with pytest.raises(InputError,
                           match="melody length 1 != state length 2"):
            TaggedCorpus(ts, ((melody, StateSequence((0, 1))),))

    def test_corpus_rejects_out_of_range_state(self):
        ts = TagSet(("none", "trills"))
        melody = Melody((Note("C", 0, 4, Fraction(1)),))
        with pytest.raises(InputError,
                           match="state index outside the bound tag set"):
            TaggedCorpus(ts, ((melody, StateSequence((5,))),))

    def test_empty_corpus_object_is_allowed(self):
        # a generator may return zero entries; consumers raise on use
        ts = TagSet(("none", "trills"))
        corpus = TaggedCorpus(ts, ())
        assert len(corpus) == 0 and corpus.token_count == 0


_GOOD = ("C4:1", "C4:2/2", "D4:1/2", "Bb3:2", "F##5:4", "G2:1/4")
_BAD = ("H4:1", "C4", "C4:0", "C10:1", "C4:1/0", "4C:1", "C4:x", "B#9:1",
        "C:1", "Cb0:1")
_TAGS = TagSet(("none", "trills"))

# text near the note and corpus grammar, so the parsers get past their
# first check, and arbitrary text
_NEAR = "ABCDEFGHbcx#:/0129 \t\n"
_TEXTS = st.one_of(st.text(), st.text(alphabet=_NEAR))
_PARSERS = (parse_note, parse_melody, lambda text: parse_corpus(text, _TAGS),
            parse_tagset)


def _error_of(token):
    with pytest.raises(InputError) as info:
        parse_note(token)
    return info.value


class TestParserFuzz:
    """The text parsers on arbitrary input, and per-call note interning."""

    @given(_TEXTS)
    def test_parsers_raise_only_input_errors(self, text):
        for parse in _PARSERS:
            try:
                parse(text)
            except InputError:
                pass

    @given(st.lists(st.tuples(st.text(alphabet=_NEAR, max_size=8),
                              st.sampled_from(("none", "trills", "x", ""))),
                    max_size=8))
    def test_corpus_lines_raise_only_input_errors(self, pairs):
        text = "".join(f"{token}\t{tag}\n" for token, tag in pairs)
        try:
            parse_corpus(text, _TAGS)
        except InputError:
            pass

    @given(st.lists(st.lists(st.tuples(st.sampled_from(_GOOD),
                                       st.sampled_from(_TAGS.tags)),
                             min_size=1, max_size=6), min_size=1, max_size=4))
    def test_interned_corpus_equals_one_parse_per_token(self, blocks):
        text = "\n".join("".join(f"{token}\t{tag}\n" for token, tag in block)
                         for block in blocks)
        corpus = parse_corpus(text, _TAGS)
        assert corpus == TaggedCorpus(_TAGS, tuple(
            (Melody(tuple(parse_note(token) for token, _ in block)),
             StateSequence(tuple(_TAGS.index(tag) for _, tag in block)))
            for block in blocks))
        first = {}
        for (melody, _), block in zip(corpus, blocks):
            for note, (token, _) in zip(melody, block):
                assert first.setdefault(token, note) is note
        # no note outlives its call: a second parse makes new objects
        again = parse_corpus(text, _TAGS)
        assert again.entries[0][0][0] is not corpus.entries[0][0][0]
        melody = parse_melody(" ".join(token for token, _ in blocks[0]))
        assert melody == corpus.entries[0][0]
        assert len({id(note) for note in melody}) == len(
            {token for token, _ in blocks[0]})

    @given(st.sampled_from(_BAD),
           st.lists(st.one_of(st.sampled_from(_GOOD), st.none()),
                    min_size=1, max_size=6))
    def test_repeated_bad_token_reports_its_first_line(self, bad, layout):
        """``None`` in ``layout`` marks the lines holding the bad token."""
        tokens = [bad if token is None else token for token in layout]
        if bad not in tokens:
            tokens.append(bad)
        want = _error_of(bad)
        line = tokens.index(bad) + 1
        corpus = "".join(f"{token}\tnone\n" for token in tokens)
        melody = "".join(f"{token}\n" for token in tokens)
        for parse, text in ((lambda text: parse_corpus(text, _TAGS), corpus),
                            (parse_melody, melody)):
            with pytest.raises(type(want)) as info:
                parse(text)
            assert (info.value.line, info.value.column) == (line, want.column)
