"""Domain types for notes, melodies, tag sets, tagged corpora and matrices.

Notes carry an exact rational duration in quarter lengths (a quarter
note is 1 ql, a whole note 4 ql) and a chromatic pitch given as
step/alteration/octave.  The canonical token grammar is::

    step [accidental] octave ':' duration      e.g.  C1:4   Bb3:2   C#4:3/2

with accidental one of ``#``, ``##``, ``b``, ``bb``, octave a single
digit 0-9, and duration ``int`` or ``int/int``.

All types are immutable after construction and safe to share across
threads; the parsers and serializers are pure functions.  A note
hashes its value once, so :func:`number_notes` numbers a call's notes
by value: equal notes share a number, whether parsed, interned or built
fresh.
"""

from __future__ import annotations

import re
import sys
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Iterator

import numpy as np

from .errors import InputError

STEPS = "CDEFGAB"

_STEP_SEMITONE = {"C": 0, "D": 2, "E": 4, "F": 5, "G": 7, "A": 9, "B": 11}

MIDI_MIN = 12
MIDI_MAX = 127

_TAG_RE = re.compile(r"[a-z0-9_]+\Z")
_DURATION_RE = re.compile(r"([0-9]+)(?:/([0-9]+))?\Z")


def midi_number(step: str, alteration: int, octave: int) -> int:
    """MIDI note number with C4 = 60 (so C0 = 12)."""
    return (octave + 1) * 12 + _STEP_SEMITONE[step] + alteration


@dataclass(frozen=True)
class Note:
    """One note: chromatic pitch plus exact quarter-length duration."""

    step: str
    alteration: int
    octave: int
    duration_ql: Fraction

    def __post_init__(self):
        if self.step not in _STEP_SEMITONE:
            raise ValueError(f"step must be one of {STEPS}, got {self.step!r}")
        if not -2 <= self.alteration <= 2:
            raise ValueError(f"alteration outside [-2, 2]: {self.alteration}")
        if not 0 <= self.octave <= 9:
            raise ValueError(f"octave outside [0, 9]: {self.octave}")
        if not isinstance(self.duration_ql, Fraction):
            object.__setattr__(self, "duration_ql", Fraction(self.duration_ql))
        if self.duration_ql <= 0:
            raise ValueError(f"duration must be positive: {self.duration_ql}")
        if not MIDI_MIN <= self.midi <= MIDI_MAX:
            raise ValueError(f"pitch outside MIDI range [12, 127]: {self.midi}")
        # hashed once; midi and alteration fix step and octave, and ints
        # and a Fraction hash alike in every process, so pickles keep it
        object.__setattr__(self, "_hash", hash(
            (self.midi, self.alteration, self.duration_ql)))

    def __hash__(self) -> int:
        return self._hash

    @property
    def midi(self) -> int:
        return midi_number(self.step, self.alteration, self.octave)


@dataclass(frozen=True)
class Melody:
    """An observation sequence: one or more notes, indexed 0..T-1."""

    notes: tuple[Note, ...]

    def __post_init__(self):
        object.__setattr__(self, "notes", tuple(self.notes))
        if len(self.notes) < 1:
            raise ValueError("a melody needs at least one note")

    def __len__(self) -> int:
        return len(self.notes)

    def __iter__(self) -> Iterator[Note]:
        return iter(self.notes)

    def __getitem__(self, t: int) -> Note:
        return self.notes[t]


def number_notes(melodies: Iterable[Melody]
                 ) -> tuple[list[Note], list[np.ndarray]]:
    """The distinct notes of ``melodies`` as first met, and each melody's
    notes as their numbers in that list."""
    numbers: dict[Note, int] = {}
    ids = [np.array([numbers.setdefault(note, len(numbers)) for note in melody],
                    dtype=int) for melody in melodies]
    return list(numbers), ids


@dataclass(frozen=True)
class TagSet:
    """Ordered technique tags; position in the file defines the index.

    By convention index 0 is the "no technique" tag in shipped tag
    sets (decoding ties break toward low indices), but the code does
    not enforce that.
    """

    tags: tuple[str, ...]

    def __post_init__(self):
        object.__setattr__(self, "tags", tuple(self.tags))
        if len(self.tags) < 2:
            raise ValueError("a tag set needs at least 2 tags")
        if len(set(self.tags)) != len(self.tags):
            raise ValueError("tags must be distinct")
        for tag in self.tags:
            if not _TAG_RE.match(tag):
                raise ValueError(
                    f"tag {tag!r} is not lowercase letters/digits/underscores")
        object.__setattr__(
            self, "_index", {tag: i for i, tag in enumerate(self.tags)})

    def __len__(self) -> int:
        return len(self.tags)

    def __iter__(self) -> Iterator[str]:
        return iter(self.tags)

    def __contains__(self, tag: str) -> bool:
        return tag in self._index

    def index(self, tag: str) -> int:
        try:
            return self._index[tag]
        except KeyError:
            raise InputError(f"unknown tag {tag!r}", token=tag) from None

    def name(self, index: int) -> str:
        return self.tags[index]


@dataclass(frozen=True)
class StateSequence:
    """Aligned tag indices for one melody."""

    tags: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "tags", tuple(map(int, self.tags)))
        if min(self.tags, default=0) < 0:
            raise ValueError("tag indices must be nonnegative")

    def __len__(self) -> int:
        return len(self.tags)

    def __iter__(self) -> Iterator[int]:
        return iter(self.tags)

    def __getitem__(self, t: int) -> int:
        return self.tags[t]

    def __array__(self, dtype=None, copy=None) -> np.ndarray:
        return np.array(self.tags, dtype=dtype or int)


@dataclass(frozen=True)
class TaggedCorpus:
    """Melodies with aligned gold state sequences, bound to one tag set."""

    tagset: TagSet
    entries: tuple[tuple[Melody, StateSequence], ...]

    def __post_init__(self):
        object.__setattr__(self, "entries", tuple(self.entries))
        h = len(self.tagset)
        for melody, states in self.entries:
            if len(melody) != len(states):
                raise InputError(
                    f"melody length {len(melody)} != state length {len(states)}")
            if min(states, default=0) < 0 or max(states, default=0) >= h:
                raise InputError("state index outside the bound tag set")

    def __len__(self) -> int:
        return len(self.entries)

    def __iter__(self) -> Iterator[tuple[Melody, StateSequence]]:
        return iter(self.entries)

    @property
    def token_count(self) -> int:
        return sum(len(m) for m, _ in self.entries)


@dataclass(frozen=True, eq=False)
class TagMatrix:
    """H x T floats, rows = tags, columns = positions; never NaN."""

    values: np.ndarray

    def __post_init__(self):
        values = np.asarray(self.values, dtype=float)
        object.__setattr__(self, "values", values)
        if values.ndim != 2:
            raise ValueError(f"expected a 2-d array, got ndim={values.ndim}")
        if np.isnan(values).any():
            raise ValueError("matrix entries must not be NaN")
        self._check(values)

    def _check(self, values: np.ndarray) -> None:
        """A subclass's range rule: raise ValueError when it fails."""

    @property
    def shape(self) -> tuple[int, int]:
        return self.values.shape


# -- note token parsing --------------------------------------------------------


def parse_note(token: str) -> Note:
    """Parse a canonical note token such as ``C1:4`` or ``C#4:3/2``."""
    if not token:
        raise InputError("empty note token", token=token, column=1)
    pos = 0
    step = token[0].upper()
    if not token[0].isalpha():
        raise InputError(
            f"expected a step letter: {token!r}", token=token, column=1)
    if step not in _STEP_SEMITONE:
        raise InputError(
            f"step letter outside {STEPS}: {token[0]!r}", token=token, column=1)
    pos = 1
    alteration = 0
    if pos < len(token) and token[pos] in "#b":
        acc = token[pos]
        count = 1
        if pos + 1 < len(token) and token[pos + 1] == acc:
            count = 2
        alteration = count if acc == "#" else -count
        pos += count
    if pos >= len(token) or token[pos] not in "0123456789":
        raise InputError(
            f"expected an octave digit: {token!r}", token=token, column=pos + 1)
    octave = int(token[pos])
    pos += 1
    if pos >= len(token) or token[pos] != ":":
        raise InputError(
            f"expected ':' before the duration: {token!r}",
            token=token, column=pos + 1)
    pos += 1
    duration = _parse_duration(token, pos)
    midi = midi_number(step, alteration, octave)
    if not MIDI_MIN <= midi <= MIDI_MAX:
        raise InputError(
            f"pitch outside MIDI range [12, 127]: {token!r}",
            token=token, column=2)
    return Note(step, alteration, octave, duration)


def digit_limit() -> int:
    """Most digits a numeric token may carry.

    Python's limit on ``int()`` of a decimal string, or its default of
    4,300 where the limit is switched off or absent; past it ``int()``
    raises and arithmetic on the value grows slow.
    """
    return getattr(sys, "get_int_max_str_digits", lambda: 0)() or 4300


def exceeds_digit_limit(number: str) -> bool:
    """Whether a number's digits plus its decimal exponent pass the limit.

    Within :func:`digit_limit`, ``int()`` accepts every digit run, and a
    decimal's exact value has a numerator and denominator that ``str()``
    can write back, so parsing and serializing stay fast.
    """
    limit = digit_limit()
    if len(number) <= limit and "e" not in number and "E" not in number:
        return False  # at most ``limit`` digits and no exponent
    mantissa, _, exponent = number.lower().partition("e")
    digits = sum(c.isdecimal() for c in mantissa)
    exponent = "".join(c for c in exponent if c.isdecimal())
    return len(exponent) > limit or digits + int(exponent or "0") > limit


def _parse_duration(token: str, pos: int) -> Fraction:
    match = _DURATION_RE.match(token, pos)
    if not match:
        raise InputError(
            f"expected a duration 'int' or 'int/int': {token!r}",
            token=token, column=pos + 1)
    numerator, denominator = match.groups("1")  # no denominator: /1
    if exceeds_digit_limit(numerator) or exceeds_digit_limit(denominator):
        raise InputError(
            f"duration has more than {digit_limit()} digits in a row",
            column=pos + 1)
    num, den = int(numerator), int(denominator)
    if den == 0:
        raise InputError(
            f"zero denominator: {token!r}", token=token, column=pos + 1)
    if num == 0:
        raise InputError(
            f"zero duration: {token!r}", token=token, column=pos + 1)
    return Fraction(num, den)


def serialize_note(note: Note) -> str:
    """Canonical token for ``note``; inverse of :func:`parse_note`."""
    if note.alteration > 0:
        accidental = "#" * note.alteration
    else:
        accidental = "b" * -note.alteration
    return f"{note.step}{accidental}{note.octave}:{note.duration_ql}"


# -- file formats ----------------------------------------------------------------
#
# All three text formats are line oriented, UTF-8, with '#' comments.
# A comment starts at a '#' that opens the line or follows whitespace;
# the '#' inside a sharp token like C#4:1 is data.  In corpus files a
# *blank* line separates melodies; comment-only lines are skipped
# without acting as separators.

_COMMENT_RE = re.compile(r"(?:^|(?<=\s))#")


def decode_text(data: bytes) -> str:
    """``data`` as UTF-8; a byte-order mark, or a byte that is not UTF-8,
    raises InputError at its line."""
    if data.startswith(b"\xef\xbb\xbf"):
        raise InputError("starts with a UTF-8 byte-order mark", line=1)
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as err:
        line = len(re.findall(rb"\r\n?|\n", data[:err.start])) + 1
        raise InputError(f"not valid UTF-8 at byte {data[err.start]:#04x}",
                         line=line) from None


def _data(raw: str) -> str | None:
    """A line's data: None for a blank line, "" for a comment-only one."""
    data = raw.strip()
    if "#" in data:
        return _COMMENT_RE.split(raw, 1)[0].strip()
    return data or None


def iter_data_lines(text: str) -> Iterator[tuple[int, str]]:
    """Yield (1-based line number, data text) per line that holds data:
    blank and comment-only lines are dropped."""
    for lineno, raw in enumerate(text.split("\n"), start=1):
        data = _data(raw)
        if data:
            yield lineno, data


def parse_tagset(text: str) -> TagSet:
    """Read a tag set file: one identifier per line, order = index."""
    tags = []
    for lineno, data in iter_data_lines(text):
        if not _TAG_RE.match(data):
            raise InputError(
                f"invalid tag identifier {data!r}", token=data, line=lineno)
        if data in tags:
            raise InputError(f"duplicate tag {data!r}", token=data, line=lineno)
        tags.append(data)
    if len(tags) < 2:
        raise InputError("a tag set file needs at least 2 tags")
    return TagSet(tuple(tags))


def serialize_tagset(tagset: TagSet) -> str:
    return "".join(f"{tag}\n" for tag in tagset)


def parse_melody(text: str) -> Melody:
    """Read a melody file: whitespace-separated canonical note tokens."""
    notes = []
    interned: dict[str, Note] = {}
    for lineno, data in iter_data_lines(text):
        try:
            notes.extend(_intern(token, interned) for token in data.split())
        except InputError as err:
            err.line = lineno
            raise
    if not notes:
        raise InputError("melody file contains no notes")
    return Melody(tuple(notes))


def _intern(token: str, interned: dict[str, Note]) -> Note:
    """One :func:`parse_note` per token string of a parse, shared."""
    return interned.get(token) or interned.setdefault(token, parse_note(token))


def serialize_melody(melody: Melody) -> str:
    return "".join(f"{serialize_note(n)}\n" for n in melody)


_BREAK, _SKIP = object(), object()  # a blank and a comment-only line's cell


def parse_corpus(text: str, tagset: TagSet) -> TaggedCorpus:
    """Read a CoNLL-style corpus: ``note<TAB>tag`` lines, blank-separated.

    Each distinct line is read once per call, at its first sight, into
    a (note, tag index) cell or a mark for a blank or comment-only line,
    so a repeated line is one dict lookup.  The first bad line raises,
    at its line number.
    """
    lines = text.split("\n")
    cells: dict[str, object] = {}
    interned: dict[str, Note] = {}

    def read(raw: str):
        data = _data(raw)
        cells[raw] = _BREAK if data is None else _SKIP
        if data:
            # tab-separated, or space-separated without a tab; two fields
            fields = data.split("\t") if "\t" in data else data.split()
            try:
                if len(fields) != 2:
                    raise InputError(f"expected 'note<TAB>tag', got {data!r}")
                note = _intern(fields[0], interned)
                cells[raw] = note, tagset.index(fields[1])
            except InputError as err:
                err.line = lines.index(raw) + 1
                raise
        return cells[raw]

    row = [cells.get(raw) or read(raw) for raw in lines]
    if _SKIP in cells.values():
        row = [cell for cell in row if cell is not _SKIP]
    row.append(_BREAK)
    entries, start = [], 0
    while start < len(row):
        end = row.index(_BREAK, start)
        if end > start:
            notes, states = zip(*row[start:end])
            entries.append((Melody(notes), StateSequence(states)))
        start = end + 1
    if not entries:
        raise InputError("corpus file contains no entries")
    return TaggedCorpus(tagset, tuple(entries))


def serialize_corpus(corpus: TaggedCorpus) -> str:
    blocks = []
    for melody, states in corpus:
        lines = "".join(
            f"{serialize_note(n)}\t{corpus.tagset.name(s)}\n"
            for n, s in zip(melody, states))
        blocks.append(lines)
    return "\n".join(blocks)

