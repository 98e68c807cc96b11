"""Command-line interface: train, tag, eval, synth, and rules-check.

Exit codes are stable across subcommands: 0 success, 1 usage error,
2 bad input (parse/validation failures, with file/line locations when
available), 3 internal runtime failure.  Progress and warnings go to
standard error; standard output carries only machine-readable results.
An input error names its file.  ``main(argv)`` may be called any number
of times in one process; it builds its parser once, on the first call.
"""

from __future__ import annotations

import argparse
import functools
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
    TaggedCorpus,
    decode_text,
    iter_data_lines,
    parse_corpus,
    parse_melody,
    parse_tagset,
    serialize_corpus,
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


def _parse(parse, path: str, *args):
    """``parse`` of a UTF-8 file, its newlines translated as ``open`` does;
    an input error in it names ``path``."""
    try:
        text = decode_text(Path(path).read_bytes())
        if "\r" in text:  # a "\r\n" search costs several times the decode
            text = text.replace("\r\n", "\n").replace("\r", "\n")
        return parse(text, *args)
    except InputError as err:
        err.path = path
        raise


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

# Each setting once: config key -> (flag, converter).  The flag stores its
# value under the config key, so both sources merge by name.
_SETTINGS = {
    "epochs": ("--epochs", _COUNT),
    "step_size": ("--step", _POSITIVE),
    "l2": ("--l2", _domain(float, lambda v: 0 <= v < math.inf,
                           "finite nonnegative number")),
    "batch": ("--batch", _domain(int, lambda v: v >= 1, "positive integer")),
    "seed": ("--seed", _COUNT),
    "h1": ("--h1", _POSITIVE),
    "h2": ("--h2", _POSITIVE),
}


def parse_config(text: str) -> dict:
    """key=value lines, commented as every input file; unknown keys fail."""
    values = {}
    for lineno, data, blank in iter_data_lines(text):
        if blank:
            continue
        key, sep, value = data.partition("=")
        key = key.strip()
        value = value.strip()
        if not sep or not key or not value:
            raise InputError(f"expected 'key=value', got {data!r}", line=lineno)
        if key not in _SETTINGS:
            raise InputError(f"unknown config key {key!r}", line=lineno)
        _, convert = _SETTINGS[key]
        try:
            values[key] = convert(value)
        except ValueError:
            raise InputError(
                f"bad value for {key!r}: {value!r} "
                f"(expected a {convert.__name__})", line=lineno) from None
    return values


def _settings(args, *keys) -> dict:
    """Each named setting that is set: from its flag, else from --config."""
    values = _parse(parse_config, args.config) if args.config else {}
    values.update((key, getattr(args, key)) for key in keys
                  if getattr(args, key) is not None)
    return {key: values[key] for key in keys if key in values}


# -- subcommands -----------------------------------------------------------------


def cmd_train(args) -> int:
    settings = _settings(args, "epochs", "step_size", "l2", "batch", "seed")
    if "batch" in settings:
        settings["batch_size"] = settings.pop("batch")
    tagset = _parse(parse_tagset, args.tagset)
    corpus = _parse(parse_corpus, args.corpus, tagset)

    def progress(epoch: int, loss: float) -> None:
        print(f"epoch {epoch} loss {loss!r}", file=sys.stderr)

    model = train(corpus, TrainConfig(**settings), progress=progress)
    save_model(model, args.out)
    return 0


def _ruleset_for(args, tagset: TagSet, settings: dict) -> RuleSet:
    """Ruleset from --rules (empty when absent) with h1/h2 overrides.

    Confidence precedence: flag, then config file, then the ruleset
    file's own H1/H2 directives, then the built-in 2.0.
    """
    if args.rules:
        ruleset = _parse(parse_rules, args.rules, tagset)
    else:
        ruleset = RuleSet(tagset, ())
    return replace(ruleset, **settings)


def cmd_tag(args) -> int:
    settings = _settings(args, "h1", "h2")
    model = load_model(args.model)
    ruleset = _ruleset_for(args, model.tagset, settings)
    melody = _parse(parse_melody, args.melody)
    result = tag_with_knowledge(model, ruleset, melody)
    tagged = TaggedCorpus(model.tagset, ((melody, result.final),))
    _write(args.out, serialize_corpus(tagged))
    if args.explain:
        lines = "".join(
            f"line:{f.rule_line} pos:{f.anchor} tag:{f.tag} x{f.weight!r}\n"
            for f in result.firing_log)
        _write(f"{args.out}.explain", lines)
    return 0


def cmd_eval(args) -> int:
    settings = _settings(args, "h1", "h2")
    model = load_model(args.model)
    corpus = _parse(parse_corpus, args.corpus, model.tagset)
    ruleset = _ruleset_for(args, model.tagset, settings)
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
        profile = _parse(parse_profile, args.profile)
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
    tagset = _parse(parse_tagset, args.tagset)
    ruleset = _parse(parse_rules, args.rules, tagset)
    for rule in ruleset:
        weight = "default" if rule.weight is None else repr(rule.weight)
        print(f"line {rule.source_line}: Type{rule.rule_class} "
              f"tag={rule.consequent_tag} weight={weight}")
    return 0


# -- parser ----------------------------------------------------------------------


def _add_settings(parser, *keys) -> None:
    """``--config`` and the flag of each named setting."""
    parser.add_argument("--config", help="key=value defaults file")
    for key in keys:
        _add_flag(parser, key)


def _add_flag(parser, key: str, **kwargs) -> None:
    flag, convert = _SETTINGS[key]
    parser.add_argument(flag, dest=key, type=convert, **kwargs)


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
    _add_settings(p_train, "epochs", "step_size", "l2", "batch", "seed")
    p_train.set_defaults(func=cmd_train)

    p_tag = sub.add_parser("tag", help="tag one melody")
    p_tag.add_argument("--model", required=True)
    p_tag.add_argument("--melody", required=True)
    p_tag.add_argument("--out", required=True)
    p_tag.add_argument("--rules")
    _add_settings(p_tag, "h1", "h2")
    p_tag.add_argument("--explain", action="store_true",
                       help="write a .explain sidecar of rule firings")
    p_tag.set_defaults(func=cmd_tag)

    p_eval = sub.add_parser("eval", help="score a model against gold tags")
    p_eval.add_argument("--model", required=True)
    p_eval.add_argument("--corpus", required=True)
    p_eval.add_argument("--rules")
    _add_settings(p_eval, "h1", "h2")
    p_eval.set_defaults(func=cmd_eval)

    p_synth = sub.add_parser("synth", help="generate a synthetic corpus")
    group = p_synth.add_mutually_exclusive_group(required=True)
    group.add_argument("--profile", help="JSON generation profile")
    group.add_argument("--default", action="store_true",
                       help="use the built-in profile")
    p_synth.add_argument("--melodies", type=_COUNT, required=True)
    _add_flag(p_synth, "seed", required=True)
    p_synth.add_argument("--out", required=True)
    p_synth.add_argument("--tagset-out", dest="tagset_out",
                         help="also write the profile's tag set file")
    p_synth.set_defaults(func=cmd_synth)

    p_check = sub.add_parser("rules-check", help="parse and classify rules")
    p_check.add_argument("rules", help="rule file to check")
    p_check.add_argument("--tagset", required=True)
    p_check.set_defaults(func=cmd_rules_check)

    return parser


@functools.cache
def _parser() -> _Parser:  # built on main's first call, then reused
    return build_parser()


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
    except _UsageError as err:
        print(str(err), file=sys.stderr)
        return 1
    except SystemExit as exc:  # argparse's --version/--help path
        return int(exc.code or 0)
    try:
        return args.func(args)
    except (InputError, OSError) as err:
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
