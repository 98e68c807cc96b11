"""Output checks for every benchmark operation.

An operation passes when it exits 0 and writes well-formed output: one
``note<TAB>tag`` line per input note with tags from the tag set, a
``.explain`` line per firing of the request's rule, an eval JSON whose
``counts`` sum to the corpus tokens, or a model identical to every other
model the same training call produced.  Melodies of at most
``oracle.MAX_NOTES`` notes are also decoded by enumerating every tag path,
with the tolerance of the acceptance tests (1e-9 on probability mass).
"""

from __future__ import annotations

import json
import re
from pathlib import Path

import numpy as np

import oracle
from ornatag.rules import build_weight_matrix, collect_firings
from ornatag.score import StateSequence, serialize_note
from workloads import run_cli

PROB_TOL = oracle.PROB_TOL

_EXPLAIN_RE = re.compile(r"line:(\d+) pos:(\d+) tag:(\S+) x(\S+)\Z")


class Score:
    """Failed operations with the reason, plus the quality the checks measured."""

    def __init__(self):
        self.failed: dict[int, str] = {}
        self.accuracy: float | None = None
        self.satisfaction: float | None = None
        self.brute_checked = 0

    def fail(self, n: int, why: str) -> None:
        self.failed.setdefault(n, why)


def _check_eval_json(text: str, tokens: int, h: int) -> dict:
    metrics = json.loads(text)
    counts = np.array(metrics["counts"], dtype=np.int64)
    if counts.shape != (h, h) or counts.sum() != tokens:
        raise ValueError(f"counts {counts.shape} sum {counts.sum()} "
                         f"for {tokens} tokens")
    accuracy = metrics["token_accuracy"]
    if abs(accuracy - np.trace(counts) / tokens) > 5e-7:
        raise ValueError(f"token_accuracy {accuracy} disagrees with counts")
    satisfaction = metrics["rule_satisfaction"]
    if satisfaction is not None and not 0 <= satisfaction <= 1:
        raise ValueError(f"rule_satisfaction {satisfaction} outside [0, 1]")
    return metrics


def check(workload, records: list, work: Path) -> Score:
    """Check every operation of one worker run of ``workload``."""
    score = Score()
    if workload.name == "train":
        check_train(workload, records, work, score)
    elif workload.name == "eval-rules":
        check_eval(workload, records, score)
    else:
        check_tags(workload, records, work, score)
    return score


def check_eval(workload, records, score: Score) -> None:
    """Every eval prints the same well-formed metrics JSON."""
    tokens = workload.ops[0].tokens
    h = len(workload.tagset)
    reference = None
    for rec in records:
        if rec["code"] != 0:
            score.fail(rec["n"], f"exit {rec['code']}: {rec['stderr'][-200:]}")
            continue
        try:
            metrics = _check_eval_json(rec["stdout"], tokens, h)
        except (ValueError, KeyError, TypeError) as err:
            score.fail(rec["n"], f"bad metrics JSON: {err}")
            continue
        if reference is None:
            reference = rec["stdout"]
            score.accuracy = metrics["token_accuracy"]
            score.satisfaction = metrics["rule_satisfaction"]
        elif rec["stdout"] != reference:
            score.fail(rec["n"], "metrics differ between identical runs")


def check_train(workload, records, work: Path, score: Score) -> None:
    """Identical models from identical calls; scored untimed on held-out data."""
    reference = None
    for rec in records:
        if rec["code"] != 0:
            score.fail(rec["n"], f"exit {rec['code']}: {rec['stderr'][-200:]}")
            continue
        path = work / "out" / f"model-{rec['n']}.txt"
        data = path.read_bytes() if path.is_file() else b""
        if reference is None:
            code, text = run_cli([
                "eval", "--model", str(path),
                "--corpus", str(workload.heldout_path),
                "--rules", str(workload.rules_path)])
            try:
                if code != 0:
                    raise ValueError(f"scoring eval exited {code}")
                metrics = _check_eval_json(text, workload.heldout_tokens,
                                           len(workload.tagset))
            except (ValueError, KeyError, TypeError) as err:
                score.fail(rec["n"], f"trained model does not score: {err}")
                continue
            reference = data
            score.accuracy = metrics["token_accuracy"]
            score.satisfaction = metrics["rule_satisfaction"]
        elif data != reference:
            score.fail(rec["n"], "model differs from the first training run")


def check_tags(workload, records, work: Path, score: Score) -> None:
    """Per request: tagged notes, explain lines, and the brute-force oracle."""
    model = oracle.read_model(workload.model_path)
    tagset = workload.tagset
    tokens = correct = firings_total = satisfied = 0
    for rec in records:
        n = rec["n"]
        if rec["code"] != 0:
            score.fail(n, f"exit {rec['code']}: {rec['stderr'][-200:]}")
            continue
        melody, gold = workload.corpus[rec["op"]]
        ruleset = workload.rulesets[rec["op"]]
        out = work / "out" / f"tag-{n}.txt"
        try:
            tags = _read_tags(out, melody, tagset)
            firings = _read_explain(Path(f"{out}.explain"), ruleset, len(melody))
            if len(melody) <= oracle.MAX_NOTES:
                _brute_force(model, ruleset, melody, tags, firings)
                score.brute_checked += 1
        except (OSError, ValueError) as err:
            score.fail(n, str(err))
            continue
        tokens += len(melody)
        correct += sum(p == g for p, g in zip(tags, gold))
        firings_total += len(firings)
        satisfied += sum(tags[f[2]] == f[3] for f in firings)
    if tokens:
        score.accuracy = correct / tokens
    if firings_total:
        score.satisfaction = satisfied / firings_total


def _read_tags(path: Path, melody, tagset) -> list[int]:
    lines = path.read_text(encoding="utf-8").split("\n")
    if lines[-1] != "" or len(lines) - 1 != len(melody):
        raise ValueError(f"{path.name}: {len(lines) - 1} lines "
                         f"for {len(melody)} notes")
    tags = []
    for note, line in zip(melody, lines):
        token, sep, tag = line.partition("\t")
        if not sep or token != serialize_note(note) or tag not in tagset:
            raise ValueError(f"{path.name}: bad line {line!r}")
        tags.append(tagset.index(tag))
    return tags


def _read_explain(path: Path, ruleset, length: int) -> list[tuple]:
    """Firings as (line, anchor, target, tag index, weight text)."""
    (rule,) = ruleset.rules
    weight = repr(ruleset.effective_weight(rule))
    firings = []
    for line in path.read_text(encoding="utf-8").splitlines():
        match = _EXPLAIN_RE.match(line)
        if match is None:
            raise ValueError(f"{path.name}: bad line {line!r}")
        anchor = int(match[2])
        target = anchor + rule.consequent_offset
        if (int(match[1]) != rule.source_line or match[3] != rule.consequent_tag
                or match[4] != weight or not 0 <= target < length):
            raise ValueError(f"{path.name}: firing {line!r} does not match "
                             f"the rule at line {rule.source_line}")
        firings.append((int(match[1]), anchor, target, rule.consequent_index,
                        match[4]))
    return firings


def _brute_force(model, ruleset, melody, tags, firings) -> None:
    """Enumerate all H**T paths; the CLI must agree up to PROB_TOL."""
    length = len(melody)
    paths, scores, marginals = oracle.enumerate_paths(model, melody)
    best = scores.max()
    # every path within tolerance of the best is an acceptable base path;
    # the lexicographically smallest one comes first
    near = np.flatnonzero(scores >= best - PROB_TOL * max(1.0, abs(best)))
    for candidate in near:
        base = StateSequence(tuple(int(k) for k in paths[candidate]))
        p1 = build_weight_matrix(ruleset, melody, base).values
        fused = p1 * marginals
        chosen = fused[tags, np.arange(length)]
        if np.any(chosen < fused.max(axis=0) - PROB_TOL * p1.max(axis=0)):
            continue
        expected = [(f.rule_line, f.anchor, f.target, f.tag_index, repr(f.weight))
                    for f in collect_firings(ruleset, melody, base)]
        if expected == firings:
            return
    raise ValueError(f"tags {tags} disagree with path enumeration "
                     f"for a {length}-note melody")
