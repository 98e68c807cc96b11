"""Tagging quality metrics and their stable text rendering.

Token accuracy, per-tag precision/recall/F1, macro-F1 over tags with
gold support, a confusion matrix, and the per-melody counts behind the
rule satisfaction rate (rule firings whose predicted tag matches the
consequent, out of all firings).
The JSON rendering has a fixed key order and 6-decimal reals so runs
are byte-comparable; the schema is documented in docs/metrics.md.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain
from typing import Sequence

import numpy as np

from .errors import InputError, ShapeMismatch
from .rules import Firings, RuleSet, fire
from .score import Melody, StateSequence, TaggedCorpus, TagSet


@dataclass(frozen=True)
class TagScore:
    precision: float
    recall: float
    f1: float


@dataclass(frozen=True, eq=False)
class Metrics:
    """Evaluation bundle; rows of ``counts`` are gold, columns predicted."""

    token_accuracy: float
    per_tag: tuple[TagScore, ...]
    macro_f1: float
    counts: np.ndarray
    rule_satisfaction: float | None = None


def evaluate(pred: Sequence[StateSequence], gold: TaggedCorpus) -> Metrics:
    """Micro accuracy, per-tag P/R/F1, and macro-F1 over supported tags."""
    if len(pred) != len(gold.entries):
        raise InputError(
            f"{len(pred)} predictions for {len(gold.entries)} gold entries")
    for sequence, (_, states) in zip(pred, gold):
        if len(sequence) != len(states):
            raise InputError(
                f"prediction length {len(sequence)} != gold length {len(states)}")
    return _score(gold, np.fromiter(chain.from_iterable(pred), int))


def _score(gold: TaggedCorpus, pred: np.ndarray) -> Metrics:
    """:func:`evaluate` of ``pred``, every predicted tag entry by entry,
    whose lengths match ``gold``'s; the counts are one ``np.bincount``."""
    h = len(gold.tagset)
    truth = np.fromiter(chain.from_iterable(s for _, s in gold), int)
    counts = np.bincount(truth * h + pred, minlength=h * h).reshape(h, h)
    total = counts.sum()
    if total == 0:
        raise InputError("no tokens to evaluate")
    accuracy = float(np.trace(counts) / total)
    per_tag = []
    f1_of_supported = []
    for k in range(h):
        true_positive = counts[k, k]
        predicted_k = counts[:, k].sum()
        gold_k = counts[k, :].sum()
        precision = float(true_positive / predicted_k) if predicted_k else 0.0
        recall = float(true_positive / gold_k) if gold_k else 0.0
        f1 = (2 * precision * recall / (precision + recall)
              if precision + recall else 0.0)
        per_tag.append(TagScore(precision, recall, f1))
        if gold_k:
            f1_of_supported.append(f1)
    macro_f1 = float(np.mean(f1_of_supported)) if f1_of_supported else 0.0
    return Metrics(token_accuracy=accuracy, per_tag=tuple(per_tag),
                   macro_f1=macro_f1, counts=counts)


def count_satisfied(pred: StateSequence, firings: Firings) -> tuple[int, int]:
    """(firings whose target got the consequent tag in pred, total
    firings); ShapeMismatch if pred is not as long as the melody."""
    if len(pred) != firings.length:
        raise ShapeMismatch(f"{len(pred)} tags for {firings.length} notes")
    hits = np.array(pred.tags, dtype=int)[firings.target] == firings.tag_index
    return int(np.count_nonzero(hits)), len(hits)


def rule_firing_counts(pred: StateSequence, melody: Melody, rules: RuleSet,
                       base: StateSequence) -> tuple[int, int]:
    """:func:`count_satisfied` over the firings of ``rules`` on one melody."""
    return count_satisfied(pred, fire(rules, melody, base))


def format_metrics(metrics: Metrics, tagset: TagSet) -> str:
    """Render as JSON text with fixed key order and %.6f reals."""
    lines = ["{"]
    lines.append(f'  "token_accuracy": {metrics.token_accuracy:.6f},')
    lines.append(f'  "macro_f1": {metrics.macro_f1:.6f},')
    if metrics.rule_satisfaction is None:
        lines.append('  "rule_satisfaction": null,')
    else:
        lines.append(
            f'  "rule_satisfaction": {metrics.rule_satisfaction:.6f},')
    lines.append('  "per_tag": {')
    for k, tag in enumerate(tagset):
        score = metrics.per_tag[k]
        comma = "," if k < len(tagset) - 1 else ""
        lines.append(
            f'    "{tag}": {{"precision": {score.precision:.6f}, '
            f'"recall": {score.recall:.6f}, "f1": {score.f1:.6f}}}{comma}')
    lines.append("  },")
    lines.append('  "counts": [')
    h = metrics.counts.shape[0]
    for k in range(h):
        row = ", ".join(str(int(c)) for c in metrics.counts[k])
        comma = "," if k < h - 1 else ""
        lines.append(f"    [{row}]{comma}")
    lines.append("  ]")
    lines.append("}")
    return "".join(f"{line}\n" for line in lines)
