"""Versioned, checksummed text format for trained tagger models.

Layout (UTF-8, LF line endings)::

    ORNATAG-MODEL v1
    tags <H>
    <tag name> x H
    features <F>
    <feature name> x F
    emissions <F> <H>
    <row of H floats> x F
    transitions <H> <H>
    <row of H floats> x H
    meta epochs <int> loss <float> seed <int>
    checksum <crc32 of all preceding bytes, 8 hex digits>

Floats are written as Python's shortest round-trip decimals, so a
loaded model reproduces inference bit for bit.  The magic line is
checked before the checksum: a file from a different format version
reports VersionMismatch even when otherwise damaged.
"""

from __future__ import annotations

import os
import zlib

import numpy as np

from .errors import CorruptModel, InputError, VersionMismatch
from .score import TagSet, decode_text
from .tagger import FeatureVectorizer, TaggerModel, TrainingMeta

MAGIC = "ORNATAG-MODEL v1"


def _format_row(row: np.ndarray) -> str:
    return " ".join(repr(float(x)) for x in row)


def serialize_model(model: TaggerModel) -> str:
    """Canonical text form of a model; identical models give identical bytes."""
    lines = [MAGIC]
    tags = model.tagset.tags
    lines.append(f"tags {len(tags)}")
    lines.extend(tags)
    names = model.vectorizer.feature_names
    lines.append(f"features {len(names)}")
    lines.extend(names)
    F, H = model.emission_weights.shape
    lines.append(f"emissions {F} {H}")
    lines.extend(_format_row(row) for row in model.emission_weights)
    lines.append(f"transitions {H} {H}")
    lines.extend(_format_row(row) for row in model.transition_weights)
    meta = model.training_meta
    lines.append(
        f"meta epochs {meta.epochs} loss {meta.final_loss!r} seed {meta.seed}")
    body = "".join(f"{line}\n" for line in lines)
    checksum = zlib.crc32(body.encode("utf-8")) & 0xFFFFFFFF
    return f"{body}checksum {checksum:08x}\n"


class _Reader:
    def __init__(self, lines: list[str]):
        self.lines = lines
        self.i = 0

    def next(self, what: str) -> str:
        if self.i >= len(self.lines):
            raise CorruptModel(f"model file ends before {what}")
        line = self.lines[self.i]
        self.i += 1
        return line

    def header(self, keyword: str, count: int) -> list[str]:
        line = self.next(f"'{keyword}' header")
        fields = line.split()
        if len(fields) != count + 1 or fields[0] != keyword:
            raise CorruptModel(f"malformed {keyword!r} header: {line!r}")
        return fields[1:]


def parse_model(text: str) -> TaggerModel:
    """Reconstruct a model, verifying magic, checksum, and shapes."""
    newline = text.find("\n")
    first = text[:newline] if newline >= 0 else text
    if first == MAGIC + "\r":
        raise CorruptModel("model file has CRLF line ends; the checksum "
                           "covers its exact bytes, so convert them to LF")
    if first != MAGIC:
        if first.startswith("ORNATAG-MODEL"):
            raise VersionMismatch(
                f"unsupported model version {first!r}; this build reads {MAGIC!r}")
        raise VersionMismatch(f"not a model file (magic {first!r})")
    if not text.endswith("\n"):
        raise CorruptModel("model file is truncated (no final newline)")
    body, _, tail = text[:-1].rpartition("\n")
    fields = tail.split()
    if len(fields) != 2 or fields[0] != "checksum":
        raise CorruptModel(f"missing checksum line, found {tail!r}")
    body += "\n"
    expected = zlib.crc32(body.encode("utf-8")) & 0xFFFFFFFF
    try:
        stated = int(fields[1], 16)
    except ValueError:
        raise CorruptModel(f"unreadable checksum {fields[1]!r}") from None
    if stated != expected:
        raise CorruptModel(
            f"checksum mismatch: stated {fields[1]}, computed {expected:08x}")

    reader = _Reader(body[:-1].split("\n"))
    reader.next("magic")
    try:
        (h_text,) = reader.header("tags", 1)
        H = int(h_text)
        tagset = TagSet(tuple(reader.next("tag name") for _ in range(H)))
        (f_text,) = reader.header("features", 1)
        F = int(f_text)
        vectorizer = FeatureVectorizer(
            [reader.next("feature name") for _ in range(F)])
        rows_f, cols_h = map(int, reader.header("emissions", 2))
        if (rows_f, cols_h) != (F, H):
            raise CorruptModel(
                f"emissions block {rows_f}x{cols_h} does not match "
                f"{F} features x {H} tags")
        emissions = _read_matrix(reader, F, H, "emissions")
        rows_h, cols_h2 = map(int, reader.header("transitions", 2))
        if (rows_h, cols_h2) != (H, H):
            raise CorruptModel(
                f"transitions block {rows_h}x{cols_h2} does not match {H} tags")
        transitions = _read_matrix(reader, H, H, "transitions")
        meta_fields = reader.next("meta line").split()
        if (len(meta_fields) != 7 or meta_fields[0] != "meta"
                or meta_fields[1] != "epochs" or meta_fields[3] != "loss"
                or meta_fields[5] != "seed"):
            raise CorruptModel(f"malformed meta line: {' '.join(meta_fields)!r}")
        meta = TrainingMeta(
            epochs=int(meta_fields[2]),
            final_loss=float(meta_fields[4]),
            seed=int(meta_fields[6]))
        if reader.i != len(reader.lines):
            raise CorruptModel(
                f"trailing data after meta line: {reader.lines[reader.i]!r}")
        return TaggerModel(tagset, vectorizer, emissions, transitions, meta)
    except CorruptModel:
        raise
    except (ValueError, IndexError) as err:
        raise CorruptModel(f"malformed model file: {err}") from err


def _read_matrix(reader: _Reader, rows: int, cols: int,
                 what: str) -> np.ndarray:
    out = np.empty((rows, cols))
    for r in range(rows):
        parts = reader.next(f"{what} row {r}").split()
        if len(parts) != cols:
            raise CorruptModel(
                f"{what} row {r} has {len(parts)} values, expected {cols}")
        out[r] = [float(p) for p in parts]
    return out


def save_model(model: TaggerModel, path: str | os.PathLike) -> None:
    """Write the canonical form to ``path``."""
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        handle.write(serialize_model(model))


def load_model(path: str | os.PathLike) -> TaggerModel:
    """Read a model from ``path``; an input error in it names ``path``."""
    with open(path, "rb") as handle:
        try:
            return parse_model(decode_text(handle.read(), CorruptModel))
        except InputError as err:
            err.path = os.fspath(path)
            raise
