"""The three error types of ornatag, one per exit code.

``InputError`` covers everything caused by bad user-supplied files,
tokens or settings (parse failures, unknown tags, corrupt models,
weights too large for float range, a diverging step size); its message
says which check failed.  The CLI maps it to exit code 2.  Every other
``OrnatagError``, ``ShapeMismatch`` included, is library misuse and
maps to exit code 3.
"""

from __future__ import annotations


class OrnatagError(Exception):
    """Base class for all errors raised by this package."""


class InputError(OrnatagError):
    """Bad input data (file contents, tokens, rule text, model files).

    ``line`` and ``column`` are 1-based when known; ``token`` carries the
    offending token text when one exists; ``expected`` says what a parser
    was looking for; ``path`` names the file, and comes first in the
    message.
    """

    path: str | None = None

    def __init__(self, message: str, *, token: str | None = None,
                 line: int | None = None, column: int | None = None,
                 expected: str | None = None):
        self.token = token
        self.line = line
        self.column = column
        self.expected = expected
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
        if self.expected is not None:
            parts.append(f"expected {self.expected}")
        suffix = f" ({'; '.join(parts)})" if parts else ""
        prefix = f"{self.path}: " if self.path is not None else ""
        return prefix + super().__str__() + suffix


class ShapeMismatch(OrnatagError):
    """Matrices combined elementwise must share their shape."""
