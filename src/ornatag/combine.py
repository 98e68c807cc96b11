"""Fusion of the tagger's predictions with rule-derived weights.

The prediction matrix p2 (posterior marginals) and the weight matrix
p1 (rule multipliers) share the H x T grid; their Hadamard product is
the combined score matrix.  Decoding is an independent per-column
argmax, smallest tag index first among ties: the rule pass reweights
positions, it does not re-run sequence decoding.

:func:`tag_corpus` (and ``ornatag eval``) runs a batch of melodies over
its padded grid: marginals, ``p1`` from every firing of the batch, the
product and the argmax are B x T x H arrays.  The float product is
taken where every partial product of a cell is a normal float, which
one sum of the weights' ``frexp`` exponents bounds; there it equals
the per-melody :func:`combine` and :func:`decode` bit for bit.  A
melody with a cell outside that bound is redone in mantissa-exponent
pairs, which have float rounding and no range limit: each cell's
factors in firing order, then ``p2``'s, and a decode by exponent, then
mantissa, a zero cell lowest and ties to the smallest index.  Its
``TagResult.p1`` and ``.combined`` saturate into float range: ``inf``
above it; below the normal range ``p1`` reads the smallest subnormal
(it stays strictly positive) and ``combined`` reads 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Iterator, NamedTuple

import numpy as np

from .errors import ShapeMismatch
from .rules import Firing, Firings, RuleSet, WeightMatrix, fire_batch
from .score import Melody, StateSequence, TagMatrix, TagSet, number_notes
from .tagger import PredictionMatrix, TaggerModel, _batches, _infer_grid

# a cell whose weights' frexp exponents e sum, as max(e, 1 - e), to at
# most this keeps every partial product of p1 in [2**-1021, 2**1021]
_SPAN = 1021
_TINY = np.finfo(float).tiny  # the smallest normal float
_LEAST = np.nextafter(0.0, 1.0)  # the smallest subnormal


class CombinedMatrix(TagMatrix):
    """Elementwise product p1 * p2; nonnegative, unnormalized."""

    def _check(self, values: np.ndarray) -> None:
        if np.any(values < 0):
            raise ValueError("combined scores must be nonnegative")


def combine(p1: WeightMatrix, p2: PredictionMatrix) -> CombinedMatrix:
    """Hadamard product of the weight and prediction matrices."""
    if p1.shape != p2.shape:
        raise ShapeMismatch(
            f"weight matrix {p1.shape} vs prediction matrix {p2.shape}")
    return CombinedMatrix(p1.values * p2.values)


def decode(combined: CombinedMatrix, tagset: TagSet) -> StateSequence:
    """Per-column argmax; the smallest index wins a tied column."""
    H, _ = combined.shape
    if H != len(tagset):
        raise ShapeMismatch(
            f"matrix has {H} rows but the tag set has {len(tagset)} tags")
    return StateSequence(tuple(np.argmax(combined.values, axis=0).tolist()))


@dataclass(frozen=True, eq=False)
class TagResult:
    """Everything the pipeline produced, for output and audit."""

    final: StateSequence
    base: StateSequence
    p1: WeightMatrix
    p2: PredictionMatrix
    combined: CombinedMatrix
    firings: Firings

    @property
    def firing_log(self) -> tuple[Firing, ...]:
        """The firings as records, built when read."""
        return tuple(self.firings.records())


class _Tagged(NamedTuple):
    """A batch tagged over its grid, padded longest first: entry i is
    row ``rows[i]``, of length ``lengths[rows[i]]``.  ``base`` and
    ``final`` are B x T tags; ``p2``, ``p1`` and ``combined`` B x T x H,
    1 in padding cells.  ``cells`` holds the flat B x T x H cell of every
    firing of the batch, in firing order."""

    rows: list[int]
    lengths: np.ndarray
    base: np.ndarray
    p2: np.ndarray
    p1: np.ndarray
    combined: np.ndarray
    final: np.ndarray
    firings: list[Firings]
    cells: np.ndarray

    def tags(self) -> np.ndarray:
        """The final tags of every position, entry by entry."""
        final = self.final[self.rows]
        return final[np.arange(final.shape[1])
                     < self.lengths[self.rows, None]]

    def satisfied(self) -> np.ndarray:
        """For each firing, whether its target got its consequent tag."""
        position, tag = np.divmod(self.cells, self.p1.shape[2])
        return self.final.reshape(-1)[position] == tag


def _saturated(mantissa: np.ndarray, exponent: np.ndarray,
               least: float) -> np.ndarray:
    """``mantissa * 2**exponent`` (mantissas in [0.5, 1) or 0): ``inf``
    above float range, ``least`` below its normal range."""
    values = np.ldexp(mantissa, np.clip(exponent, -1021, 1024))
    values[exponent > 1024] = np.inf
    values[exponent < -1021] = least
    return values


def _redo_exact(tagged: _Tagged, redo: np.ndarray) -> None:
    """Fusion of the rows ``redo`` in mantissa-exponent pairs, written
    over their ``p1``, ``combined`` and ``final``.

    Round k multiplies each cell by its k-th factor in firing order, so
    no cell takes two factors in one vector multiply, and renormalizes
    with ``frexp``; mantissa products lie in [0.25, 1), so each rounds
    as the float product would without a range limit.
    """
    sub = np.flatnonzero(redo)
    B, T, H = tagged.p1.shape
    at = np.zeros(B, dtype=int)
    at[sub] = np.arange(len(sub))
    row, cell = np.divmod(tagged.cells, T * H)
    keep = redo[row]
    cell = at[row[keep]] * T * H + cell[keep]
    factor, shift = np.frexp(_weights(tagged.firings)[keep])
    order = np.argsort(cell, kind="stable")
    run = np.flatnonzero(np.diff(cell[order], prepend=-1))  # each cell's first
    rank = np.empty(len(cell), dtype=int)
    rank[order] = np.arange(len(cell)) - np.repeat(
        run, np.diff(run, append=len(cell)))
    mantissa = np.full(len(sub) * T * H, 0.5)  # 1.0, as frexp gives it
    exponent = np.ones(len(sub) * T * H, dtype=np.int64)
    for k in range(rank.max(initial=-1) + 1):
        now = rank == k
        c = cell[now]
        mantissa[c], carry = np.frexp(mantissa[c] * factor[now])
        exponent[c] += shift[now] + carry
    mantissa = mantissa.reshape(-1, T, H)
    exponent = exponent.reshape(-1, T, H)
    p2_mantissa, p2_exponent = np.frexp(tagged.p2[sub])
    fused, carry = np.frexp(mantissa * p2_mantissa)
    fused_exponent = exponent + p2_exponent + carry
    fused_exponent[fused == 0] = np.iinfo(np.int64).min  # zero is lowest
    top = fused_exponent.max(axis=2, keepdims=True)
    tagged.final[sub] = np.where(fused_exponent == top, fused,
                                 -1.0).argmax(axis=2)
    tagged.p1[sub] = _saturated(mantissa, exponent, _LEAST)
    tagged.combined[sub] = _saturated(fused, fused_exponent, 0.0)


def _weights(firings: list[Firings]) -> np.ndarray:
    """Every firing's weight, in firing order; built when needed, as the
    batch's firing columns are the larger part of its memory."""
    return np.concatenate([f.weight for f in firings])


def _span(weight: np.ndarray) -> np.ndarray:
    """How far, in binades, each weight can move a product from 1:
    max(e, 1 - e) for its ``frexp`` exponent e."""
    shift = np.frexp(weight)[1].astype(np.int64)
    return np.maximum(shift, 1 - shift)


def _tag_batch(model: TaggerModel, rules: RuleSet, batch: list[Melody],
               start: int) -> _Tagged:
    """One batch through inference, firing and fusion, on its grid.

    The notes are numbered once for the CRF and the rules.  ``p1`` is
    ones with each firing's weight multiplied in firing order by one
    ``np.multiply.at``; the product and its argmax over H follow.  A
    melody with a cell out of the float path's range (see the module
    docstring) is redone by :func:`_redo_exact`.
    """
    numbered = number_notes(batch)
    rows, lengths, base, p2 = _infer_grid(model, batch, start, numbered)
    firings = fire_batch(rules, numbered, [
        base[b, :T] for b, T in zip(rows, lengths[rows].tolist())])
    B, T, H = p2.shape
    cells = np.repeat(np.array(rows) * T, [len(f.target) for f in firings])
    cells += np.concatenate([f.target for f in firings])
    cells *= H
    cells += np.concatenate([f.tag_index for f in firings])
    p1 = np.ones(p2.shape)
    with np.errstate(all="ignore"):  # rows out of range are redone below
        np.multiply.at(p1.reshape(-1), cells, _weights(firings))
        combined = p1 * p2
    tagged = _Tagged(rows, lengths, base, p2, p1, combined,
                     combined.argmax(axis=2), firings, cells)
    redo = np.zeros(B, dtype=bool)
    # a rule fires at most once on a cell
    if sum(max(e, 1 - e) for e in (math.frexp(rules.effective_weight(r))[1]
                                   for r in rules)) > _SPAN:
        total = np.zeros(B * T * H, dtype=np.int64)
        np.add.at(total, cells, _span(_weights(firings)))
        redo |= (total.reshape(B, T * H) > _SPAN).any(axis=1)
    if combined.min() < _TINY:  # a product with 1 or 0 is exact
        redo |= ((combined < _TINY) & (p2 > 0) & (p1 != 1)).any(axis=(1, 2))
    if redo.any():
        _redo_exact(tagged, redo)
    return tagged


def _tag_batches(model: TaggerModel, rules: RuleSet,
                 melodies: Iterable[Melody]) -> Iterator[_Tagged]:
    """:func:`_tag_batch` over consecutive batches of ``melodies``, as
    many as fit in ``_BATCH_CELLS`` padded cells each."""
    if rules.tagset != model.tagset:
        raise ShapeMismatch("ruleset is bound to a different tag set "
                            "than the model")
    start = 1
    for batch in _batches(melodies):
        yield _tag_batch(model, rules, batch, start)
        start += len(batch)


def tag_corpus(model: TaggerModel, rules: RuleSet,
               melodies: Iterable[Melody]) -> Iterator[TagResult]:
    """:func:`tag_with_knowledge` for each melody, in order.

    Batches of melodies, as many as fit in a budget of padded cells
    (melodies x longest length), run inference, rule firing
    (:func:`~ornatag.rules.fire_batch`) and fusion over their padded
    grid, with the batch's notes numbered once (:func:`number_notes`);
    each result holds views of the batch's arrays.  Results are yielded
    one at a time, so a caller that does not keep them holds at most
    one batch, and the input is read at most one melody past it.  A
    ruleset bound to another tag set than the model's raises
    ShapeMismatch on the first ``next``.  Posteriors out of float range
    raise InputError naming the melody's number in the input.
    """
    for tagged in _tag_batches(model, rules, melodies):
        for b, T, firings in zip(tagged.rows, tagged.lengths[
                tagged.rows].tolist(), tagged.firings):
            yield TagResult(
                final=StateSequence(tuple(tagged.final[b, :T].tolist())),
                base=StateSequence(tuple(tagged.base[b, :T].tolist())),
                p1=WeightMatrix(tagged.p1[b, :T].T),
                p2=PredictionMatrix(tagged.p2[b, :T].T),
                combined=CombinedMatrix(tagged.combined[b, :T].T),
                firings=firings)


def tag_with_knowledge(model: TaggerModel, rules: RuleSet,
                       melody: Melody) -> TagResult:
    """Full pipeline: marginals, base Viterbi path, rule pass, fusion.

    Type 2 rules read the base path once; the fused output is never
    fed back.  With an empty ruleset p1 stays all ones and the final
    sequence is the per-position argmax of p2.  This is
    :func:`tag_corpus` on one melody.
    """
    return next(tag_corpus(model, rules, [melody]))
