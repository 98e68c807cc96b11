"""Command-line interface: train, tag, eval, synth, and rules-check.

Exit codes are stable across subcommands: 0 success, 1 usage error,
2 bad input (parse/validation failures, with file/line locations when
available), 3 internal runtime failure.  Progress and warnings go to
standard error; standard output carries only machine-readable results.
"""

from __future__ import annotations

import argparse
import math
import sys
from dataclasses import replace
from pathlib import Path

from . import __version__
from .combine import tag_corpus, tag_with_knowledge
from .errors import InputError, OrnatagError
from .metrics import count_satisfied, evaluate, format_metrics
from .model_io import MAGIC, load_model, save_model
from .rules import RuleSet, parse_rules
from .score import (
    TagSet,
    parse_corpus,
    parse_melody,
    parse_tagset,
    serialize_corpus,
    serialize_note,
    serialize_tagset,
)
from .synth import SynthProfile, generate_synthetic, parse_profile
from .tagger import TrainConfig, train


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """argparse that reports usage problems as exit code 1, never exits."""

    def error(self, message):
        raise _UsageError(f"{self.prog}: {message}")


def _read(path: str) -> str:
    return Path(path).read_text(encoding="utf-8")


def _write(path: str, text: str) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        handle.write(text)


# -- config files ----------------------------------------------------------------


def _domain(parse, holds, name: str):
    """A setting's converter: ``parse`` the text, then check ``holds``.

    It serves as the argparse ``type=`` of the setting's flag and as its
    config-file reader; ``name`` completes both error messages.  The
    checks are written so that NaN fails them.
    """
    def convert(text: str):
        value = parse(text)
        if not holds(value):
            raise ValueError(text)
        return value
    convert.__name__ = name
    return convert


_COUNT = _domain(int, lambda v: v >= 0, "nonnegative integer")
# the rule file's rule for WEIGHT, H1 and H2 holds for step_size too
_POSITIVE = _domain(float, lambda v: 0 < v < math.inf, "finite positive number")

_CONFIG_KEYS = {
    "epochs": _COUNT,
    "step_size": _POSITIVE,
    "l2": _domain(float, lambda v: 0 <= v < math.inf,
                  "finite nonnegative number"),
    "batch": _domain(int, lambda v: v >= 1, "positive integer"),
    "seed": _COUNT,
    "h1": _POSITIVE,
    "h2": _POSITIVE,
}


def parse_config(text: str) -> dict:
    """key=value lines with '#' comments; unknown keys are rejected."""
    values = {}
    for lineno, raw in enumerate(text.split("\n"), start=1):
        data = raw.split("#", 1)[0].strip()
        if not data:
            continue
        key, sep, value = data.partition("=")
        key = key.strip()
        value = value.strip()
        if not sep or not key or not value:
            raise InputError(
                f"expected 'key=value', got {raw.strip()!r}", line=lineno)
        if key not in _CONFIG_KEYS:
            raise InputError(f"unknown config key {key!r}", line=lineno)
        convert = _CONFIG_KEYS[key]
        try:
            values[key] = convert(value)
        except ValueError:
            raise InputError(
                f"bad value for {key!r}: {value!r} "
                f"(expected a {convert.__name__})", line=lineno) from None
    return values


def _setting(name: str, flag_value, config: dict, default):
    """Precedence: explicit flag, then config file, then default."""
    if flag_value is not None:
        return flag_value
    if name in config:
        return config[name]
    return default


def _load_config(args) -> dict:
    if getattr(args, "config", None):
        return parse_config(_read(args.config))
    return {}


# -- subcommands -----------------------------------------------------------------


def cmd_train(args) -> int:
    config = _load_config(args)
    tagset = parse_tagset(_read(args.tagset))
    corpus = parse_corpus(_read(args.corpus), tagset)
    defaults = TrainConfig()
    train_config = TrainConfig(
        epochs=_setting("epochs", args.epochs, config, defaults.epochs),
        step_size=_setting("step_size", args.step, config, defaults.step_size),
        l2=_setting("l2", args.l2, config, defaults.l2),
        batch_size=_setting("batch", args.batch, config, defaults.batch_size),
        seed=_setting("seed", args.seed, config, defaults.seed),
    )

    def progress(epoch: int, loss: float) -> None:
        print(f"epoch {epoch} loss {loss!r}", file=sys.stderr)

    model = train(corpus, train_config, progress=progress)
    save_model(model, args.out)
    return 0


def _ruleset_for(args, tagset: TagSet, config: dict) -> RuleSet:
    """Ruleset from --rules (empty when absent) with h1/h2 overrides.

    Confidence precedence: flag, then config file, then the ruleset
    file's own H1/H2 directives, then the built-in 2.0.
    """
    if args.rules:
        ruleset = parse_rules(_read(args.rules), tagset)
    else:
        ruleset = RuleSet(tagset, ())
    h1 = _setting("h1", args.h1, config, ruleset.h1)
    h2 = _setting("h2", args.h2, config, ruleset.h2)
    if h1 != ruleset.h1 or h2 != ruleset.h2:
        ruleset = replace(ruleset, h1=h1, h2=h2)
    return ruleset


def cmd_tag(args) -> int:
    config = _load_config(args)
    model = load_model(args.model)
    ruleset = _ruleset_for(args, model.tagset, config)
    melody = parse_melody(_read(args.melody))
    result = tag_with_knowledge(model, ruleset, melody)
    _write(args.out, _tagged_text(melody, result.final, model.tagset))
    if args.explain:
        lines = "".join(
            f"line:{f.rule_line} pos:{f.anchor} tag:{f.tag} x{f.weight!r}\n"
            for f in result.firing_log)
        _write(f"{args.out}.explain", lines)
    return 0


def _tagged_text(melody, states, tagset) -> str:
    return "".join(
        f"{serialize_note(note)}\t{tagset.name(state)}\n"
        for note, state in zip(melody, states))


def cmd_eval(args) -> int:
    config = _load_config(args)
    model = load_model(args.model)
    corpus = parse_corpus(_read(args.corpus), model.tagset)
    ruleset = _ruleset_for(args, model.tagset, config)
    predictions = []
    matched = 0
    total = 0
    melodies = (melody for melody, _ in corpus)
    for result in tag_corpus(model, ruleset, melodies):
        predictions.append(result.final)
        hits, firings = count_satisfied(result.final, result.firings)
        matched += hits
        total += firings
    metrics = evaluate(predictions, corpus)
    if args.rules:
        metrics = replace(
            metrics, rule_satisfaction=matched / total if total else 1.0)
    sys.stdout.write(format_metrics(metrics, model.tagset))
    return 0


def cmd_synth(args) -> int:
    if args.profile:
        profile = parse_profile(_read(args.profile))
    else:
        profile = SynthProfile()
    corpus = generate_synthetic(profile, args.melodies, args.seed)
    _write(args.out, serialize_corpus(corpus))
    if args.tagset_out:
        _write(args.tagset_out, serialize_tagset(profile.tagset))
    if len(corpus) == 0:
        print("warning: generated an empty corpus (0 melodies)",
              file=sys.stderr)
    return 0


def cmd_rules_check(args) -> int:
    tagset = parse_tagset(_read(args.tagset))
    ruleset = parse_rules(_read(args.rules), tagset)
    for rule in ruleset:
        weight = "default" if rule.weight is None else repr(rule.weight)
        print(f"line {rule.source_line}: Type{rule.rule_class} "
              f"tag={rule.consequent_tag} weight={weight}")
    return 0


# -- parser ----------------------------------------------------------------------


def build_parser() -> _Parser:
    parser = _Parser(
        prog="ornatag",
        description="Tag monophonic melodies with playing techniques by "
                    "fusing a CRF tagger with logic rules.")
    parser.add_argument(
        "--version", action="version",
        version=f"ornatag {__version__} (model format {MAGIC})")
    sub = parser.add_subparsers(dest="command", required=True)

    p_train = sub.add_parser("train", help="fit a tagger on a corpus")
    p_train.add_argument("--corpus", required=True)
    p_train.add_argument("--tagset", required=True)
    p_train.add_argument("--out", required=True)
    p_train.add_argument("--config", help="key=value defaults file")
    p_train.add_argument("--epochs", type=_CONFIG_KEYS["epochs"])
    p_train.add_argument("--step", type=_CONFIG_KEYS["step_size"])
    p_train.add_argument("--l2", type=_CONFIG_KEYS["l2"])
    p_train.add_argument("--batch", type=_CONFIG_KEYS["batch"])
    p_train.add_argument("--seed", type=_CONFIG_KEYS["seed"])
    p_train.set_defaults(func=cmd_train)

    p_tag = sub.add_parser("tag", help="tag one melody")
    p_tag.add_argument("--model", required=True)
    p_tag.add_argument("--melody", required=True)
    p_tag.add_argument("--out", required=True)
    p_tag.add_argument("--rules")
    p_tag.add_argument("--config", help="key=value defaults file")
    p_tag.add_argument("--h1", type=_CONFIG_KEYS["h1"])
    p_tag.add_argument("--h2", type=_CONFIG_KEYS["h2"])
    p_tag.add_argument("--explain", action="store_true",
                       help="write a .explain sidecar of rule firings")
    p_tag.set_defaults(func=cmd_tag)

    p_eval = sub.add_parser("eval", help="score a model against gold tags")
    p_eval.add_argument("--model", required=True)
    p_eval.add_argument("--corpus", required=True)
    p_eval.add_argument("--rules")
    p_eval.add_argument("--config", help="key=value defaults file")
    p_eval.add_argument("--h1", type=_CONFIG_KEYS["h1"])
    p_eval.add_argument("--h2", type=_CONFIG_KEYS["h2"])
    p_eval.set_defaults(func=cmd_eval)

    p_synth = sub.add_parser("synth", help="generate a synthetic corpus")
    group = p_synth.add_mutually_exclusive_group(required=True)
    group.add_argument("--profile", help="JSON generation profile")
    group.add_argument("--default", action="store_true",
                       help="use the built-in profile")
    p_synth.add_argument("--melodies", type=int, required=True)
    p_synth.add_argument("--seed", type=_CONFIG_KEYS["seed"], required=True)
    p_synth.add_argument("--out", required=True)
    p_synth.add_argument("--tagset-out", dest="tagset_out",
                         help="also write the profile's tag set file")
    p_synth.set_defaults(func=cmd_synth)

    p_check = sub.add_parser("rules-check", help="parse and classify rules")
    p_check.add_argument("rules", help="rule file to check")
    p_check.add_argument("--tagset", required=True)
    p_check.set_defaults(func=cmd_rules_check)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as err:
        print(str(err), file=sys.stderr)
        return 1
    except SystemExit as exc:  # argparse's --version/--help path
        return int(exc.code or 0)
    try:
        return args.func(args)
    except InputError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except OSError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except OrnatagError as err:
        print(f"error: {err}", file=sys.stderr)
        return 3
    except Exception as err:  # keep the exit-code contract even when surprised
        print(f"internal error: {type(err).__name__}: {err}", file=sys.stderr)
        return 3


def entry_point() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry_point()
