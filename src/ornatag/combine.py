"""Fusion of the tagger's predictions with rule-derived weights.

The prediction matrix p2 (posterior marginals) and the weight matrix
p1 (rule multipliers) share the H x T grid; their Hadamard product is
the combined score matrix.  Decoding is an independent per-column
argmax, smallest tag index first among ties: the rule pass reweights
positions, it does not re-run sequence decoding.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator

import numpy as np

from .errors import ShapeMismatch
from .rules import Firing, Firings, RuleSet, WeightMatrix, _fire_numbered
from .score import Melody, StateSequence, TagMatrix, TagSet, number_notes
from .tagger import PredictionMatrix, TaggerModel, _batches, infer


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


def tag_corpus(model: TaggerModel, rules: RuleSet,
               melodies: Iterable[Melody]) -> Iterator[TagResult]:
    """:func:`tag_with_knowledge` for each melody, in order.

    Marginals and base paths come from one batched inference pass per
    batch of melodies, as many as fit in a budget of padded cells
    (melodies x longest length), and the rules fire once per batch
    (:func:`~ornatag.rules.fire_batch`); the batch's notes are numbered
    once for both (:func:`number_notes`).  Fusion then runs per melody.
    Results are yielded one at a time, so a caller that does not keep
    them holds at most one batch, and the input is read at most one
    melody past it.  A ruleset bound to another tag set than the
    model's raises ShapeMismatch on the first ``next``.  Posteriors out
    of float range raise InputError naming the melody's number in the
    input.
    """
    if rules.tagset != model.tagset:
        raise ShapeMismatch("ruleset is bound to a different tag set "
                            "than the model")
    start = 1
    for batch in _batches(melodies):
        numbering = number_notes(batch)
        inferred = infer(model, batch, start, numbering)
        fired = _fire_numbered(rules, batch, [base for _, base in inferred],
                               numbering)
        for (p2, base), firings in zip(inferred, fired):
            p1 = firings.weight_matrix()
            fused = combine(p1, p2)
            final = decode(fused, model.tagset)
            yield TagResult(final=final, base=base, p1=p1, p2=p2,
                            combined=fused, firings=firings)
        start += len(batch)


def tag_with_knowledge(model: TaggerModel, rules: RuleSet,
                       melody: Melody) -> TagResult:
    """Full pipeline: marginals, base Viterbi path, rule pass, fusion.

    Type 2 rules read the base path once; the fused output is never
    fed back.  With an empty ruleset p1 stays all ones and the final
    sequence is the per-position argmax of p2.  This is
    :func:`tag_corpus` on one melody.
    """
    return next(tag_corpus(model, rules, [melody]))
