"""Exception hierarchy shared by all ornatag modules.

``InputError`` covers everything caused by bad user-supplied files or
tokens (parse failures, unknown tags, corrupt models).  The CLI maps it
to exit code 2; every other ``OrnatagError`` maps to exit code 3.
"""

from __future__ import annotations


class OrnatagError(Exception):
    """Base class for all errors raised by this package."""


class InputError(OrnatagError):
    """Bad input data (file contents, tokens, rule text, model files).

    ``line`` and ``column`` are 1-based when known; ``token`` carries the
    offending token text when one exists; ``path`` names the file, and
    comes first in the message.
    """

    path: str | None = None

    def __init__(self, message: str, *, token: str | None = None,
                 line: int | None = None, column: int | None = None):
        self.token = token
        self.line = line
        self.column = column
        super().__init__(message)

    def __str__(self) -> str:
        parts = []
        if self.line is not None:
            loc = f"line {self.line}"
            if self.column is not None:
                loc += f", column {self.column}"
            parts.append(loc)
        if self.token is not None:
            parts.append(f"token {self.token!r}")
        suffix = f" ({'; '.join(parts)})" if parts else ""
        prefix = f"{self.path}: " if self.path is not None else ""
        return prefix + super().__str__() + suffix


# -- score-model parse errors ------------------------------------------------

class MalformedToken(InputError):
    """Token does not match the note grammar at all."""


class InvalidStep(InputError):
    """Step letter outside C..B."""


class InvalidOctave(InputError):
    """Octave digit missing, out of range, or pitch outside MIDI 12..127."""


class InvalidDuration(InputError):
    """Zero, negative, or zero-denominator duration."""


class UnknownTag(InputError):
    """Tag identifier not present in the bound tag set."""


class LengthMismatch(InputError):
    """Aligned sequences disagree in length (corpus lines, eval inputs)."""


class EmptyCorpus(InputError):
    """A corpus with no entries where at least one is required."""


# -- rule DSL errors ----------------------------------------------------------

class RuleSyntaxError(InputError):
    """Rule text violates the DSL grammar.

    ``expected`` describes what the parser was looking for.
    """

    def __init__(self, message: str, *, expected: str | None = None, **kw):
        self.expected = expected
        super().__init__(message, **kw)


class UnknownFeature(InputError):
    """Clause references a feature outside the DSL vocabulary."""


class NonpositiveWeight(InputError):
    """Rule weight or confidence directive is not > 0."""


# -- model file errors --------------------------------------------------------

class VersionMismatch(InputError):
    """Model file magic line names an unsupported format version."""


class CorruptModel(InputError):
    """Model file is truncated, fails its checksum, or is malformed."""


# -- matrix errors ------------------------------------------------------------

class ShapeMismatch(OrnatagError):
    """Matrices combined elementwise must share their shape."""
