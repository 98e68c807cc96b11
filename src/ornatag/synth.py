"""Synthetic tagged corpora with planted rules, plus dataset splitting.

Gold tags follow a first-order Markov chain; notes are drawn per
position (uniform pitch, durations from a weighted pool optionally
biased by the gold tag).  Planted observation rules are then enforced
as gold overrides, so the generated data satisfies them at rate
exactly 1.0 and fusion benefits are measurable without human listeners.

Generation is deterministic for a fixed seed: melody i uses its own
generator derived from (seed, i), so corpora are reproducible even if
melodies are generated in parallel.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .errors import InputError
from .rules import RuleSet, fire, parse_number, parse_rules
from .score import (
    Melody,
    Note,
    StateSequence,
    TaggedCorpus,
    TagSet,
    digit_limit,
    exceeds_digit_limit,
)
from .tagger import _DURATION_BUCKETS, duration_bucket

DEFAULT_TAGS = TagSet(("none", "trills", "fermata", "mordent"))

DEFAULT_DURATION_POOL = (
    (Fraction(1, 4), 0.2),
    (Fraction(1, 2), 0.3),
    (Fraction(1), 0.3),
    (Fraction(2), 0.15),
    (Fraction(4), 0.05),
)

# the longest melody a profile may ask for: a few seconds to generate
_MAX_LENGTH = 100_000

# sharp spellings for the 12 semitones
_SEMITONE_TO_STEP = (
    ("C", 0), ("C", 1), ("D", 0), ("D", 1), ("E", 0), ("F", 0),
    ("F", 1), ("G", 0), ("G", 1), ("A", 0), ("A", 1), ("B", 0),
)


def note_from_midi(midi: int, duration: Fraction) -> Note:
    """Note spelled with sharps for an absolute MIDI number."""
    step, alteration = _SEMITONE_TO_STEP[midi % 12]
    return Note(step, alteration, midi // 12 - 1, duration)


def default_markov(h: int) -> np.ndarray:
    """0.5 probability of keeping the tag, the rest spread uniformly."""
    matrix = np.full((h, h), 0.5 / (h - 1))
    np.fill_diagonal(matrix, 0.5)
    return matrix


@dataclass(frozen=True, eq=False)
class SynthProfile:
    """Everything that parametrizes generation, independent of the seed.

    ``emission_bias`` maps tag name to duration-bucket multipliers: the
    pool probability of each duration is scaled by the multiplier of
    its bucket under the current gold tag, then renormalized.
    ``planted_rules`` must contain observation-only (Type 1) rules;
    their consequents overwrite the drawn gold tags.
    """

    tagset: TagSet = DEFAULT_TAGS
    pitch_range: tuple[int, int] = (60, 84)
    duration_pool: tuple[tuple[Fraction, float], ...] = DEFAULT_DURATION_POOL
    tag_markov: np.ndarray | None = None
    emission_bias: dict[str, dict[str, float]] = field(default_factory=dict)
    planted_rules: RuleSet | None = None
    melody_length_range: tuple[int, int] = (8, 64)

    def __post_init__(self):
        h = len(self.tagset)
        markov = self.tag_markov
        if markov is None:
            markov = default_markov(h)
        markov = np.asarray(markov, dtype=float)
        object.__setattr__(self, "tag_markov", markov)
        lo, hi = self.pitch_range
        if not (12 <= lo <= hi <= 127):
            raise InputError(f"pitch range [{lo}, {hi}] outside MIDI [12, 127]")
        if not self.duration_pool:
            raise InputError("duration_pool is empty")
        # each check is written so that NaN and infinities fail it
        total = sum(p for _, p in self.duration_pool)
        if (not all(p >= 0 for _, p in self.duration_pool)
                or not abs(total - 1) <= 1e-12):
            raise InputError(
                f"duration_pool probabilities must be nonnegative and sum "
                f"to 1, got {total!r}")
        if any(d <= 0 for d, _ in self.duration_pool):
            raise InputError("durations must be positive")
        if markov.shape != (h, h):
            raise InputError(
                f"tag_markov shape {markov.shape} != ({h}, {h})")
        if not (np.all(markov >= 0)
                and np.all(np.abs(markov.sum(axis=1) - 1) <= 1e-12)):
            raise InputError("tag_markov rows must be stochastic")
        labels = [label for *_, label in _DURATION_BUCKETS]
        for tag, buckets in self.emission_bias.items():
            if tag not in self.tagset:
                raise InputError(f"emission_bias names unknown tag {tag!r}")
            if not all(0 <= m < np.inf for m in buckets.values()):
                raise InputError(
                    "emission_bias multipliers must be finite and nonnegative")
            unknown = [label for label in buckets if label not in labels]
            if unknown:
                raise InputError(
                    f"emission_bias for tag {tag!r} names unknown duration "
                    f"bucket {unknown[0]!r}; expected one of {labels}")
        length_lo, length_hi = self.melody_length_range
        if not 1 <= length_lo <= length_hi <= _MAX_LENGTH:
            raise InputError(
                f"bad melody_length_range [{length_lo}, {length_hi}]: "
                f"needs 1 <= low <= high <= {_MAX_LENGTH}")
        if self.planted_rules is not None:
            if self.planted_rules.tagset != self.tagset:
                raise InputError(
                    "planted rules are bound to a different tag set")
            for rule in self.planted_rules:
                if rule.rule_class != 1:
                    raise InputError(
                        f"planted rules must be observation-only; the rule "
                        f"at line {rule.source_line} reads predictions")


def _duration_probs(profile: SynthProfile, tag: str) -> np.ndarray:
    bias = profile.emission_bias.get(tag, {})
    raw = np.array([
        p * bias.get(duration_bucket(d), 1.0)
        for d, p in profile.duration_pool])
    total = raw.sum()
    if total <= 0:
        raise InputError(
            f"emission_bias for tag {tag!r} zeroes out every duration")
    return raw / total


def generate_synthetic(profile: SynthProfile, n_melodies: int,
                       seed: int) -> TaggedCorpus:
    """Draw ``n_melodies`` tagged melodies; deterministic per (seed, index)."""
    if n_melodies < 0:
        raise InputError(f"melody count must be nonnegative: {n_melodies}")
    tagset = profile.tagset
    h = len(tagset)
    lo, hi = profile.pitch_range
    length_lo, length_hi = profile.melody_length_range
    durations = [d for d, _ in profile.duration_pool]
    probs_by_tag = {tag: _duration_probs(profile, tag) for tag in tagset}
    entries = []
    for i in range(n_melodies):
        rng = np.random.default_rng([seed, i])
        length = int(rng.integers(length_lo, length_hi + 1))
        tags = []
        notes = []
        for t in range(length):
            if t == 0:
                tag = int(rng.integers(0, h))
            else:
                tag = int(rng.choice(h, p=profile.tag_markov[tags[-1]]))
            tags.append(tag)
            midi = int(rng.integers(lo, hi + 1))
            duration = durations[int(rng.choice(
                len(durations), p=probs_by_tag[tagset.name(tag)]))]
            notes.append(note_from_midi(midi, duration))
        melody = Melody(tuple(notes))
        if profile.planted_rules is not None:
            # in firing order, so the last firing on a cell wins
            firings = fire(profile.planted_rules, melody,
                           StateSequence((0,) * length))
            for t, tag in zip(firings.target.tolist(),
                              firings.tag_index.tolist()):
                tags[t] = tag
        entries.append((melody, StateSequence(tuple(tags))))
    return TaggedCorpus(tagset, tuple(entries))


def split(corpus: TaggedCorpus, train_fraction: float,
          seed: int) -> tuple[TaggedCorpus, TaggedCorpus]:
    """Seeded melody-atomic shuffle split; train gets floor(n * fraction).

    The train side always keeps at least one entry and leaves at least
    one for test.
    """
    if not 0 < train_fraction < 1:
        raise ValueError(f"train fraction outside (0, 1): {train_fraction}")
    n = len(corpus.entries)
    if n < 2:
        raise ValueError(f"need at least 2 entries to split, have {n}")
    order = np.random.default_rng(seed).permutation(n)
    n_train = min(max(int(n * train_fraction), 1), n - 1)
    train_entries = tuple(corpus.entries[i] for i in order[:n_train])
    test_entries = tuple(corpus.entries[i] for i in order[n_train:])
    return (TaggedCorpus(corpus.tagset, train_entries),
            TaggedCorpus(corpus.tagset, test_entries))


# -- JSON profile files ----------------------------------------------------------

_PROFILE_KEYS = frozenset({
    "tags", "pitch_range", "duration_pool", "tag_markov", "emission_bias",
    "planted_rules", "melody_length_range",
})


def parse_profile(text: str) -> SynthProfile:
    """Read a JSON generation profile; every key is optional.

    Schema::

        {
          "tags": ["none", "trills", ...],
          "pitch_range": [60, 84],
          "duration_pool": {"1/4": 0.2, "1/2": 0.3, "1": 0.3, ...},
          "tag_markov": [[...], ...],
          "emission_bias": {"trills": {"(3,inf)": 2.0}},
          "planted_rules": ["IF duration(@t) > 3 THEN tag(@t) = trills"],
          "melody_length_range": [8, 64]
        }

    ``duration_pool`` keys are numbers of the rule grammar
    (:func:`~ornatag.rules.parse_number`); a melody has at most 100,000
    notes.
    """
    try:
        raw = json.loads(text, parse_int=_json_int)
    except (ValueError, RecursionError) as err:
        raise InputError(f"profile is not valid JSON: {err}") from err
    if not isinstance(raw, dict):
        raise InputError("profile must be a JSON object")
    unknown = set(raw) - _PROFILE_KEYS
    if unknown:
        raise InputError(f"unknown profile keys: {sorted(unknown)}")
    kwargs = {}
    if "tags" in raw:
        try:
            kwargs["tagset"] = TagSet(tuple(_strings(raw["tags"], "tags")))
        except ValueError as err:
            raise InputError(f"bad tags: {err}") from err
    tagset = kwargs.get("tagset", DEFAULT_TAGS)
    if "pitch_range" in raw:
        kwargs["pitch_range"] = _int_pair(raw["pitch_range"], "pitch_range")
    if "melody_length_range" in raw:
        kwargs["melody_length_range"] = _int_pair(
            raw["melody_length_range"], "melody_length_range")
    if "duration_pool" in raw:
        pool = raw["duration_pool"]
        if not isinstance(pool, dict):
            raise InputError("duration_pool must be an object")
        durations = []
        for key in pool:
            try:
                durations.append(parse_number(key))
            except ValueError:
                shown = key if len(key) <= 40 else f"{key[:40]}..."
                raise InputError(
                    f"bad duration_pool key {shown!r}: expected INT, "
                    f"INT/INT or a decimal of at most {digit_limit()} digits "
                    f"plus exponent, with no zero denominator") from None
        kwargs["duration_pool"] = _numbers("duration_pool", lambda: tuple(
            zip(durations, map(float, pool.values()))))
    if "tag_markov" in raw:
        kwargs["tag_markov"] = _numbers(
            "tag_markov", lambda: np.array(raw["tag_markov"], dtype=float))
    if "emission_bias" in raw:
        bias = raw["emission_bias"]
        if not isinstance(bias, dict) or not all(
                isinstance(v, dict) for v in bias.values()):
            raise InputError("emission_bias must map tags to bucket objects")
        kwargs["emission_bias"] = _numbers("emission_bias", lambda: {
            tag: {bucket: float(mult) for bucket, mult in buckets.items()}
            for tag, buckets in bias.items()})
    if "planted_rules" in raw:
        lines = _strings(raw["planted_rules"], "planted_rules")
        kwargs["planted_rules"] = parse_rules(
            "".join(f"{line}\n" for line in lines), tagset)
    return SynthProfile(**kwargs)


def _json_int(text: str) -> int | float:
    """A JSON integer; past the digit limit it reads as a float, as a
    JSON real of that size does, so the key's own check rejects it."""
    return float(text) if exceeds_digit_limit(text) else int(text)


def _numbers(key: str, convert):
    """``convert()``, with a failed number conversion naming ``key``."""
    try:
        return convert()
    except (ValueError, TypeError, OverflowError, ZeroDivisionError) as err:
        raise InputError(f"bad {key}: {err}") from err


def _strings(value, key: str) -> list[str]:
    if not isinstance(value, list) or not all(
            isinstance(v, str) for v in value):
        raise InputError(f"{key} must be a list of strings")
    return value


def _int_pair(value, name: str) -> tuple[int, int]:
    if (not isinstance(value, list) or len(value) != 2
            or not all(type(v) is int for v in value)):  # JSON true is no int
        raise InputError(f"{name} must be a two-integer list")
    return (value[0], value[1])
