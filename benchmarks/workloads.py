"""Seeded inputs and CLI argument lists for the three benchmark workloads.

Every input is drawn with ``generate_synthetic`` from one profile that
has emission bias and a planted rule, so accuracy and rule satisfaction
mean something.  Melody lengths come from fixed per-workload grids and
only the content of each melody depends on the seed, so the token count
of an operation is the same for every seed and timings stay comparable.
"""

from __future__ import annotations

import contextlib
import io
import json
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

import oracle
from ornatag.cli import main as ornatag_main
from ornatag.rules import parse_rules
from ornatag.score import TaggedCorpus, TagSet, serialize_corpus, serialize_note
from ornatag.synth import generate_synthetic, parse_profile

WORKLOADS = ("train", "eval-rules", "tag-stream")

TAGS = ("none", "trills", "fermata", "mordent")

PLANTED_RULE = ("IF duration(@t-1) <= 1/4 AND duration(@t) >= 2 "
                "THEN tag(@t) = trills")

PROFILE = {
    "tags": list(TAGS),
    "tag_markov": [[0.70, 0.10, 0.10, 0.10],
                   [0.25, 0.65, 0.05, 0.05],
                   [0.25, 0.05, 0.65, 0.05],
                   [0.25, 0.05, 0.05, 0.65]],
    # a strong bias keeps each tag's duration bucket clear, so a model
    # trained for a few epochs is accurate on every seed and quality
    # metrics move with the code, not with the seed
    "emission_bias": {
        "none": {"(1/2,1]": 30.0},
        "trills": {"(1,2]": 30.0},
        "fermata": {"(3,inf)": 30.0},
        "mordent": {"(0,1/4]": 30.0},
    },
    "planted_rules": [PLANTED_RULE],
}

RULE_HEADER = "H1 3\nH2 1.5\n"

# Twelve rules of every kind the DSL has: multi-clause Type 1 rules, Type 2
# `pred` rules, +1 and -1 offsets in clauses and consequents, default
# weights, and suppressors below 1.
RULES = (
    f"{PLANTED_RULE} WEIGHT 6",
    "IF duration(@t) > 3 THEN tag(@t) = fermata",
    "IF duration(@t) <= 1/4 AND midi(@t+1) > 72 THEN tag(@t) = mordent WEIGHT 1.5",
    "IF duration(@t) == 2 AND octave(@t) >= 5 THEN tag(@t) = trills WEIGHT 1.8",
    "IF duration(@t-1) > 3 THEN tag(@t) = none WEIGHT 1.5",
    "IF octave(@t) >= 6 AND step(@t) == C THEN tag(@t+1) = mordent WEIGHT 1.3",
    "IF midi(@t) < 64 AND duration(@t) > 1 THEN tag(@t-1) = trills WEIGHT 1.4",
    "IF position(@t) == 0 THEN tag(@t) = none WEIGHT 1.2",
    "IF pred(@t-1) == fermata THEN tag(@t) = fermata WEIGHT 0.5",
    "IF pred(@t) == trills AND duration(@t) <= 1/2 THEN tag(@t) = trills WEIGHT 0.6",
    "IF pred(@t+1) == mordent THEN tag(@t) = none",
    "IF pred(@t) != none AND pred(@t-1) != none THEN tag(@t) = mordent WEIGHT 0.7",
)

TRAIN_EPOCHS = 2
MODEL_EPOCHS = 3
STEP_SIZE = "0.5"

# relative margin of the near-tie rules: far above float error, far below
# any error in the posterior marginals that matters
NEAR_TIE = 1e-6


@dataclass
class Op:
    """One CLI call; ``{n}`` in an argument becomes the call's number."""

    argv: list[str]
    tokens: int
    melodies: int


@dataclass
class Workload:
    name: str
    ops: list[Op]
    tagset: TagSet
    epochs: int = 0
    corpus: list | None = None     # (melody, gold) per tag-stream op
    rulesets: list | None = None   # the RuleSet of each tag-stream op
    model_path: Path | None = None
    heldout_path: Path | None = None
    heldout_tokens: int = 0
    rules_path: Path | None = None


def linear_grid(lo: int, hi: int, n: int) -> list[int]:
    return [lo + round((hi - lo) * i / (n - 1)) for i in range(n)]


TRAIN_LENGTHS = linear_grid(8, 64, 200)


def stream_lengths(n: int) -> list[int]:
    """Request lengths for tag-stream, spread so every prefix has the full mix.

    One request in 25 has 3 to 6 notes, for the brute-force check.  The
    rest follow a long tail: 85% log-uniform over 8-32 notes, 15% over
    32-256, so about 5% have 128 notes or more.  Quantiles are visited in
    golden-ratio order, so a run that stops part way through the list has
    still seen the whole distribution.
    """
    lengths = []
    j = 0
    for i in range(n):
        if i % 25 == 0:
            lengths.append(3 + (i // 25) % 4)
            continue
        u = ((j + 0.5) * 0.6180339887498949) % 1.0
        j += 1
        if u < 0.85:
            lengths.append(round(8 * 4 ** (u / 0.85)))
        else:
            lengths.append(round(32 * 8 ** ((u - 0.85) / 0.15)))
    return lengths


class Generator:
    """Draws melodies of given lengths; one stream per (seed, purpose)."""

    def __init__(self, seed: int):
        self.profile = parse_profile(json.dumps(PROFILE))
        self.seed = seed
        self._by_length = {}

    def corpus(self, lengths: list[int], purpose: int):
        seeds = np.random.default_rng([self.seed, purpose]).integers(
            0, 2 ** 31, size=len(lengths))
        entries = []
        for length, s in zip(lengths, seeds):
            profile = self._by_length.get(length)
            if profile is None:
                profile = replace(self.profile,
                                  melody_length_range=(length, length))
                self._by_length[length] = profile
            entries.extend(generate_synthetic(profile, 1, int(s)).entries)
        return entries


def _write(path: Path, text: str) -> Path:
    path.write_text(text, encoding="utf-8")
    return path


def _corpus_text(entries, tagset) -> str:
    return serialize_corpus(TaggedCorpus(tagset, tuple(entries)))


def run_cli(argv: list[str]) -> tuple[int, str]:
    """ornatag's own entry point in this process; returns (exit code, stdout)."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = ornatag_main(argv)
    return code, out.getvalue()


def _train_model(gen: Generator, work: Path, tags: Path) -> Path:
    """The model eval-rules and tag-stream load: trained on the train corpus."""
    corpus = _write(work / "model-corpus.txt",
                    _corpus_text(gen.corpus(TRAIN_LENGTHS, 2), gen.profile.tagset))
    model = work / "model.txt"
    code, _ = run_cli(["train", "--corpus", str(corpus), "--tagset", str(tags),
                       "--epochs", str(MODEL_EPOCHS), "--step", STEP_SIZE,
                       "--seed", "1", "--out", str(model)])
    if code != 0:
        raise RuntimeError(f"set-up training exited {code}")
    return model


def near_tie_rule(model, melody, tagset, above: bool) -> str:
    """A rule that puts one fused column within NEAR_TIE of a tie.

    It picks the column ``t`` whose runner-up tag b has the largest
    brute-force marginal p2[b, t]; with best tag a, the rule weights b at
    ``t`` by p2[a, t] / p2[b, t] times (1 + NEAR_TIE) or (1 - NEAR_TIE).
    The right output at ``t`` is then b or a, and marginals off by more than
    NEAR_TIE relative flip it, although plain argmax decoding would hide the
    error.  The gap NEAR_TIE * p2[a, t] must stay well above the tolerance
    of the check, or either tag would pass.
    """
    _, _, p2 = oracle.enumerate_paths(model, melody)
    order = np.argsort(p2, axis=0, kind="stable")
    t = int(np.argmax(p2[order[-2], np.arange(len(melody))]))
    second, best = order[-2:, t]
    weight = p2[best, t] / p2[second, t] * (1 + NEAR_TIE if above else 1 - NEAR_TIE)
    if NEAR_TIE * p2[best, t] < 10 * oracle.PROB_TOL * max(weight, 1.0):
        raise RuntimeError(f"no column of a {len(melody)}-note melody is "
                           f"close enough to a tie to probe")
    return (f"IF position(@t) == {t} THEN tag(@t) = "
            f"{tagset.name(int(second))} WEIGHT {float(weight)!r}")


def build(name: str, seed: int, work: Path) -> Workload:
    """Write the workload's inputs under ``work`` and list its operations."""
    gen = Generator(seed)
    tagset = gen.profile.tagset
    tags = _write(work / "tags.txt", "".join(f"{t}\n" for t in tagset))
    (work / "out").mkdir()
    rules = _write(work / "eval.rules",
                   RULE_HEADER + "".join(f"{r}\n" for r in RULES))
    if name == "train":
        entries = gen.corpus(TRAIN_LENGTHS, 2)
        corpus = _write(work / "corpus.txt", _corpus_text(entries, tagset))
        heldout_entries = gen.corpus(linear_grid(8, 64, 100), 3)
        heldout = _write(work / "heldout.txt",
                         _corpus_text(heldout_entries, tagset))
        argv = ["train", "--corpus", str(corpus), "--tagset", str(tags),
                "--epochs", str(TRAIN_EPOCHS), "--step", STEP_SIZE,
                "--batch", "32", "--seed", "1",
                "--out", str(work / "out" / "model-{n}.txt")]
        tokens = sum(len(m) for m, _ in entries)
        return Workload(name, [Op(argv, tokens, len(entries))], tagset,
                        epochs=TRAIN_EPOCHS, heldout_path=heldout,
                        heldout_tokens=sum(len(m) for m, _ in heldout_entries),
                        rules_path=rules)
    model = _train_model(gen, work, tags)
    if name == "eval-rules":
        entries = gen.corpus(linear_grid(64, 256, 72), 4)
        corpus = _write(work / "eval.txt", _corpus_text(entries, tagset))
        argv = ["eval", "--model", str(model), "--corpus", str(corpus),
                "--rules", str(rules)]
        tokens = sum(len(m) for m, _ in entries)
        return Workload(name, [Op(argv, tokens, len(entries))], tagset,
                        model_path=model)
    if name == "tag-stream":
        entries = gen.corpus(stream_lengths(400), 5)
        rule_texts = list(RULES)
        choice = []
        reference = oracle.read_model(model)
        for i, (melody, _) in enumerate(entries):
            if len(melody) <= oracle.MAX_NOTES:
                # short melodies are probed from above and below in turn
                k = len(rule_texts) - len(RULES)
                choice.append(len(rule_texts))
                rule_texts.append(near_tie_rule(reference, melody, tagset,
                                                above=k % 2 == 0))
            else:
                # rules in turn, so every seed sends the same mix of kinds
                choice.append(i % len(RULES))
        rule_files = [_write(work / f"rule-{k}.rules", f"{RULE_HEADER}{r}\n")
                      for k, r in enumerate(rule_texts)]
        rulesets = [parse_rules(p.read_text(encoding="utf-8"), tagset)
                    for p in rule_files]
        ops = []
        for i, (melody, _) in enumerate(entries):
            path = _write(work / f"melody-{i}.melody",
                          " ".join(serialize_note(n) for n in melody) + "\n")
            argv = ["tag", "--model", str(model), "--melody", str(path),
                    "--rules", str(rule_files[choice[i]]), "--explain",
                    "--out", str(work / "out" / "tag-{n}.txt")]
            ops.append(Op(argv, len(melody), 1))
        return Workload(name, ops, tagset, corpus=entries,
                        rulesets=[rulesets[k] for k in choice],
                        model_path=model)
    raise ValueError(f"unknown workload {name!r}")
