"""End-to-end tests for the command-line interface.

Every test drives ``ornatag.cli.main`` directly with an argv list and
asserts on the returned exit code plus captured stdout/stderr, so the
whole pipeline runs exactly as a shell user would see it.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
import time
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ornatag import cli, tagger
from ornatag.cli import main, parse_config
from ornatag.combine import tag_with_knowledge
from ornatag.errors import InputError
from ornatag.metrics import count_satisfied, evaluate, format_metrics
from ornatag.model_io import load_model, save_model
from ornatag.rules import parse_rules
from ornatag.score import (
    StateSequence,
    TaggedCorpus,
    decode_text,
    parse_corpus,
    parse_melody,
    parse_tagset,
    digit_limit,
    serialize_corpus,
)
from ornatag.synth import SynthProfile, generate_synthetic
from ornatag.tagger import (
    FeatureVectorizer,
    TaggerModel,
    TrainingMeta,
    extract_features,
    posterior_marginals,
)
from test_tagger import feature_context, with_repeated_feature

DATA = Path(__file__).parent / "data"
SAMPLES = Path(__file__).parent.parent / "samples"


def run_cli(argv, capsys):
    """Invoke main() and return (exit_code, stdout, stderr)."""
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    """A synthetic corpus, tag set, and briefly trained model on disk."""
    root = tmp_path_factory.mktemp("cli")
    code = main([
        "synth", "--default", "--melodies", "12", "--seed", "7",
        "--out", str(root / "corpus.txt"),
        "--tagset-out", str(root / "tags.txt"),
    ])
    assert code == 0
    code = main([
        "train", "--corpus", str(root / "corpus.txt"),
        "--tagset", str(root / "tags.txt"),
        "--out", str(root / "model.txt"),
        "--epochs", "3", "--seed", "1",
    ])
    assert code == 0
    return root


class TestUsageErrors:
    """Bad invocations exit 1 without touching any files."""

    def test_no_subcommand(self, capsys):
        """A bare invocation is a usage error."""
        code, _, err = run_cli([], capsys)
        assert code == 1
        assert "ornatag" in err

    def test_unknown_subcommand(self, capsys):
        """Unknown subcommands are usage errors."""
        code, _, _ = run_cli(["frobnicate"], capsys)
        assert code == 1

    def test_missing_required_flag(self, capsys):
        """train without --corpus is a usage error."""
        code, _, err = run_cli(
            ["train", "--tagset", "x", "--out", "y"], capsys)
        assert code == 1
        assert "--corpus" in err

    def test_version(self, capsys):
        """--version reports the tool and model-format versions."""
        code, out, _ = run_cli(["--version"], capsys)
        assert code == 0
        assert "ornatag 0.1.0" in out
        assert "ORNATAG-MODEL v1" in out


class TestConfigFile:
    """key=value config files and their precedence below flags."""

    def test_parse_values(self):
        """All seven known keys parse with their declared types."""
        values = parse_config(
            "epochs=3\nstep_size=0.5\nl2=0.01\nbatch=8\n"
            "seed=11\nh1=4.0\nh2=0.5\n")
        assert values == {"epochs": 3, "step_size": 0.5, "l2": 0.01,
                          "batch": 8, "seed": 11, "h1": 4.0, "h2": 0.5}

    def test_comments_and_blanks(self):
        """Comment and blank lines are ignored."""
        values = parse_config("# defaults\n\nepochs = 2  # fast\n")
        assert values == {"epochs": 2}

    def test_glued_comment_is_part_of_the_value(self):
        """'#' starts a comment only at a line start or after whitespace,
        as in every other input file."""
        with pytest.raises(InputError, match="'1#x'") as excinfo:
            parse_config("seed=2 # fine\nepochs=1#x\n")
        assert excinfo.value.line == 2

    def test_unknown_key(self):
        """Unknown keys are rejected with the offending line."""
        with pytest.raises(InputError) as excinfo:
            parse_config("epochs=2\nmomentum=0.9\n")
        assert excinfo.value.line == 2

    def test_missing_equals(self):
        """A line without '=' is rejected."""
        with pytest.raises(InputError):
            parse_config("epochs 2\n")

    def test_bad_value(self):
        """A non-integer epoch count is rejected."""
        with pytest.raises(InputError):
            parse_config("epochs=two\n")

    @given(st.text())
    def test_arbitrary_text_raises_only_input_errors(self, text):
        try:
            parse_config(text)
        except InputError:
            pass

    @given(st.lists(st.tuples(
        st.sampled_from(("epochs", "step_size", "l2", "batch", "seed", "h1",
                         "h2", "momentum", "", " epochs ", "#")),
        st.sampled_from(("=", " = ", "", "==", "#=")),
        st.sampled_from(("1", "0", "-1", "2.5", "1e999", "-1e999", "nan",
                         "inf", "-0", "0x10", "1_000", "9" * 5000, "", "#",
                         "١")) | st.text(max_size=6)), max_size=6))
    def test_near_grammar_raises_only_input_errors(self, lines):
        try:
            parse_config("".join(f"{k}{eq}{v}\n" for k, eq, v in lines))
        except InputError:
            pass

    def test_config_sets_epochs(self, workdir, tmp_path, capsys):
        """Config epochs drive the number of loss lines."""
        config = tmp_path / "train.cfg"
        config.write_text("epochs=2\nseed=1\n")
        code, _, err = run_cli([
            "train", "--corpus", str(workdir / "corpus.txt"),
            "--tagset", str(workdir / "tags.txt"),
            "--out", str(tmp_path / "m.txt"), "--config", str(config),
        ], capsys)
        assert code == 0
        losses = [l for l in err.splitlines() if l.startswith("epoch ")]
        assert len(losses) == 2

    def test_flag_beats_config(self, workdir, tmp_path, capsys):
        """An explicit --epochs flag overrides the config file."""
        config = tmp_path / "train.cfg"
        config.write_text("epochs=2\nseed=1\n")
        code, _, err = run_cli([
            "train", "--corpus", str(workdir / "corpus.txt"),
            "--tagset", str(workdir / "tags.txt"),
            "--out", str(tmp_path / "m.txt"), "--config", str(config),
            "--epochs", "4",
        ], capsys)
        assert code == 0
        losses = [l for l in err.splitlines() if l.startswith("epoch ")]
        assert len(losses) == 4

    def test_unknown_key_exits_2(self, workdir, tmp_path, capsys):
        """A config file with an unknown key fails the run with exit 2."""
        config = tmp_path / "train.cfg"
        config.write_text("learning_rate=0.1\n")
        code, _, err = run_cli([
            "train", "--corpus", str(workdir / "corpus.txt"),
            "--tagset", str(workdir / "tags.txt"),
            "--out", str(tmp_path / "m.txt"), "--config", str(config),
        ], capsys)
        assert code == 2
        assert "learning_rate" in err


class TestNumericSettings:
    """Each flag and config key checks its domain: bad values never exit 3."""

    @pytest.fixture
    def tune(self, tmp_path):
        """A melody and a rule that takes the default Type 1 weight."""
        (tmp_path / "tune.melody").write_text("C5:1 D5:1/2 E5:4 F5:1/2 G5:2\n")
        (tmp_path / "default.rules").write_text(
            "IF duration(@t) > 3 THEN tag(@t) = trills\n")
        return tmp_path

    def train_args(self, workdir, tmp_path):
        return ["train", "--corpus", str(workdir / "corpus.txt"),
                "--tagset", str(workdir / "tags.txt"),
                "--out", str(tmp_path / "m.txt"), "--epochs", "1"]

    def rules_args(self, command, workdir, tune):
        if command == "tag":
            return ["tag", "--model", str(workdir / "model.txt"),
                    "--melody", str(tune / "tune.melody"),
                    "--out", str(tune / "t.txt"),
                    "--rules", str(tune / "default.rules")]
        return ["eval", "--model", str(workdir / "model.txt"),
                "--corpus", str(workdir / "corpus.txt"),
                "--rules", str(tune / "default.rules")]

    @pytest.mark.parametrize("flag, value", [
        ("--epochs", "-1"), ("--batch", "0"), ("--step", "0"),
        ("--step", "nan"), ("--l2", "-1"), ("--l2", "nan"), ("--seed", "-1"),
    ])
    def test_bad_train_flag_exits_1(self, workdir, tmp_path, capsys, flag,
                                    value):
        code, out, err = run_cli(
            self.train_args(workdir, tmp_path) + [flag, value], capsys)
        assert code == 1
        assert out == ""
        assert f"argument {flag}: invalid" in err
        assert not (tmp_path / "m.txt").exists()

    def test_negative_synth_seed_exits_1(self, tmp_path, capsys):
        code, _, err = run_cli([
            "synth", "--default", "--melodies", "2", "--seed", "-1",
            "--out", str(tmp_path / "c.txt"),
        ], capsys)
        assert code == 1
        assert "argument --seed: invalid nonnegative integer value" in err
        assert not (tmp_path / "c.txt").exists()

    def test_negative_synth_melodies_exits_1(self, tmp_path, capsys):
        code, _, err = run_cli([
            "synth", "--default", "--melodies", "-1", "--seed", "1",
            "--out", str(tmp_path / "c.txt"),
        ], capsys)
        assert code == 1
        assert "argument --melodies: invalid nonnegative integer value" in err
        assert not (tmp_path / "c.txt").exists()

    @pytest.mark.parametrize("count", ["100001", "1000000000000"])
    def test_synth_melodies_above_the_maximum_exit_1_at_once(
            self, tmp_path, capsys, count):
        """Before the maximum, a count of 10^12 ran until killed."""
        started = time.perf_counter()
        code, out, err = run_cli([
            "synth", "--default", "--melodies", count, "--seed", "1",
            "--out", str(tmp_path / "c.txt"),
        ], capsys)
        assert time.perf_counter() - started < 5.0
        assert (code, out) == (1, "")
        assert (f"argument --melodies: {count} is more than the maximum, "
                "100000") in err
        assert not (tmp_path / "c.txt").exists()
        assert cli._MELODIES("100000") == 100_000  # the maximum itself

    @pytest.mark.parametrize("command", ["tag", "eval"])
    @pytest.mark.parametrize("value", ["0", "-1", "nan", "inf"])
    def test_bad_confidence_flag_exits_1(self, workdir, tune, capsys,
                                         command, value):
        code, out, err = run_cli(
            self.rules_args(command, workdir, tune) + ["--h1", value], capsys)
        assert code == 1
        assert out == ""
        assert "argument --h1: invalid finite positive number value" in err

    @pytest.mark.parametrize("text", [
        "epochs=-3", "step_size=nan", "l2=inf", "batch=0", "seed=-1",
        "h1=0", "h2=inf",
    ])
    def test_bad_config_value_is_located(self, text):
        with pytest.raises(InputError, match="expected a") as exc:
            parse_config(f"# defaults\n{text}\n")
        assert exc.value.line == 2

    def test_bad_confidence_config_exits_2(self, workdir, tune, capsys):
        config = tune / "rules.cfg"
        config.write_text("h1=0\n")
        code, _, err = run_cli(
            self.rules_args("tag", workdir, tune) + ["--config", str(config)],
            capsys)
        assert code == 2
        assert "'h1'" in err and "line 1" in err

    def test_fraction_means_the_same_in_flag_config_and_rule_file(
            self, workdir, tune, capsys):
        """``3/2`` reads as 1.5 as a flag, a config value and a directive:
        the default-weight rule's firing carries it."""
        (tune / "h1.cfg").write_text("h1=3/2\n")
        (tune / "h1.rules").write_text(
            "H1 3/2\n" + (tune / "default.rules").read_text())
        args = self.rules_args("tag", workdir, tune) + ["--explain"]
        weights = []
        for extra in (["--h1", "3/2"], ["--config", str(tune / "h1.cfg")],
                      ["--rules", str(tune / "h1.rules")]):
            assert run_cli(args + extra, capsys)[0] == 0
            explain = (tune / "t.txt.explain").read_text()
            weights.append(explain.split()[-1])
        assert weights == ["x1.5"] * 3
        assert parse_config("h1=3/2\n") == {"h1": 1.5}

    @pytest.mark.parametrize("key, flag", [("h1", "--h1"),
                                           ("epochs", "--epochs")])
    @pytest.mark.parametrize("value", ["\u0663", "1_0", "+3", "1/0", "1e400"])
    def test_only_the_rule_number_grammar(self, workdir, tune, capsys, key,
                                          flag, value):
        """A number the rule grammar rejects is a usage error as a flag
        and bad input in a config file, never an internal error."""
        if key == "h1":
            args = self.rules_args("tag", workdir, tune)
        else:
            args = self.train_args(workdir, tune)[:-2]
        code, out, err = run_cli(args + [flag, value], capsys)
        assert (code, out) == (1, "")
        assert f"argument {flag}: invalid" in err
        config = tune / "bad.cfg"
        config.write_text(f"{key}={value}\n", encoding="utf-8")
        code, out, err = run_cli(args + ["--config", str(config)], capsys)
        assert (code, out) == (2, "")
        assert err.startswith(f"error: {config}: bad value for '{key}'")

    def test_bad_epochs_config_exits_2(self, workdir, tmp_path, capsys):
        config = tmp_path / "train.cfg"
        config.write_text("epochs=-3\n")
        code, _, err = run_cli(
            self.train_args(workdir, tmp_path)[:-2] + ["--config", str(config)],
            capsys)
        assert code == 2
        assert "'epochs'" in err and "line 1" in err


class TestTrain:
    """The train subcommand: artifacts, loss lines, error mapping."""

    def test_writes_loadable_model(self, workdir):
        """The trained model loads back and matches the tag set."""
        model = load_model(str(workdir / "model.txt"))
        tagset = parse_tagset((workdir / "tags.txt").read_text())
        assert model.tagset == tagset
        assert model.training_meta.epochs == 3

    def test_loss_lines_on_stderr(self, workdir, tmp_path, capsys):
        """Each epoch prints one `epoch <n> loss <x>` line to stderr."""
        code, out, err = run_cli([
            "train", "--corpus", str(workdir / "corpus.txt"),
            "--tagset", str(workdir / "tags.txt"),
            "--out", str(tmp_path / "m.txt"),
            "--epochs", "3", "--seed", "1",
        ], capsys)
        assert code == 0
        assert out == ""
        lines = [l for l in err.splitlines() if l.startswith("epoch ")]
        assert len(lines) == 3
        for number, line in enumerate(lines, start=1):
            fields = line.split()
            assert fields[0] == "epoch"
            assert int(fields[1]) == number
            assert fields[2] == "loss"
            float(fields[3])

    def test_deterministic_artifact(self, workdir, tmp_path, capsys):
        """Re-running with the same seed writes byte-identical models."""
        argv = [
            "train", "--corpus", str(workdir / "corpus.txt"),
            "--tagset", str(workdir / "tags.txt"),
            "--epochs", "2", "--seed", "5",
        ]
        assert main(argv + ["--out", str(tmp_path / "a.txt")]) == 0
        assert main(argv + ["--out", str(tmp_path / "b.txt")]) == 0
        capsys.readouterr()
        assert (tmp_path / "a.txt").read_bytes() == \
            (tmp_path / "b.txt").read_bytes()

    def test_corrupt_corpus_exits_2_with_line(self, workdir, tmp_path,
                                              capsys):
        """A malformed corpus token fails with exit 2 naming the line."""
        bad = tmp_path / "bad.txt"
        bad.write_text("C4:1\tnone\nH4:1\tnone\n")
        code, _, err = run_cli([
            "train", "--corpus", str(bad),
            "--tagset", str(workdir / "tags.txt"),
            "--out", str(tmp_path / "m.txt"),
        ], capsys)
        assert code == 2
        assert "error:" in err
        assert "line 2" in err

    def test_missing_file_exits_2(self, workdir, tmp_path, capsys):
        """A nonexistent corpus path maps to exit 2."""
        code, _, err = run_cli([
            "train", "--corpus", str(tmp_path / "nope.txt"),
            "--tagset", str(workdir / "tags.txt"),
            "--out", str(tmp_path / "m.txt"),
        ], capsys)
        assert code == 2
        assert "error:" in err


class TestTag:
    """The tag subcommand: base tagging, rules, explain sidecar."""

    def test_no_rules_matches_marginal_argmax(self, workdir, tmp_path,
                                              capsys):
        """Without --rules the output is the per-position argmax of p2."""
        melody_path = tmp_path / "tune.melody"
        melody_path.write_text("C5:1 D5:1/2 E5:4 F5:1/2 G5:2\n")
        out_path = tmp_path / "tagged.txt"
        code, _, _ = run_cli([
            "tag", "--model", str(workdir / "model.txt"),
            "--melody", str(melody_path), "--out", str(out_path),
        ], capsys)
        assert code == 0
        model = load_model(str(workdir / "model.txt"))
        melody = parse_melody(melody_path.read_text())
        expected = np.argmax(posterior_marginals(model, melody).values,
                             axis=0)
        tagged = parse_corpus(out_path.read_text(), model.tagset)
        assert list(tagged.entries[0][1]) == list(expected)

    def test_no_rules_equals_empty_rules_file(self, workdir, tmp_path,
                                              capsys):
        """Omitting --rules and passing an empty rules file agree."""
        melody_path = tmp_path / "tune.melody"
        melody_path.write_text("C5:1 D5:1/2 E5:4 F5:1/2 G5:2\n")
        empty_rules = tmp_path / "empty.rules"
        empty_rules.write_text("# no rules here\n")
        base_args = ["tag", "--model", str(workdir / "model.txt"),
                     "--melody", str(melody_path)]
        assert main(base_args + ["--out", str(tmp_path / "a.txt")]) == 0
        assert main(base_args + ["--rules", str(empty_rules),
                                 "--out", str(tmp_path / "b.txt")]) == 0
        capsys.readouterr()
        assert (tmp_path / "a.txt").read_bytes() == \
            (tmp_path / "b.txt").read_bytes()

    def test_rules_flip_and_explain_sidecar(self, workdir, tmp_path,
                                            capsys):
        """A heavy rule retags its target and lands in the sidecar."""
        melody_path = tmp_path / "tune.melody"
        melody_path.write_text("C5:1 D5:1/2 E5:4 F5:1/2 G5:2\n")
        rules_path = tmp_path / "heavy.rules"
        rules_path.write_text(
            "IF duration(@t) > 3 THEN tag(@t) = trills WEIGHT 1000\n")
        out_path = tmp_path / "tagged.txt"
        code, _, _ = run_cli([
            "tag", "--model", str(workdir / "model.txt"),
            "--melody", str(melody_path), "--out", str(out_path),
            "--rules", str(rules_path), "--explain",
        ], capsys)
        assert code == 0
        model = load_model(str(workdir / "model.txt"))
        tagged = parse_corpus(out_path.read_text(), model.tagset)
        states = tagged.entries[0][1]
        assert model.tagset.name(states[2]) == "trills"
        sidecar = (tmp_path / "tagged.txt.explain").read_text()
        assert sidecar == "line:1 pos:2 tag:trills x1000.0\n"

    def test_h1_flag_overrides_directive(self, workdir, tmp_path, capsys):
        """--h1 replaces the rule file's H1 directive for default rules."""
        melody_path = tmp_path / "tune.melody"
        melody_path.write_text("C5:1 D5:1/2 E5:4 F5:1/2 G5:2\n")
        rules_path = tmp_path / "neutral.rules"
        rules_path.write_text(
            "H1 1.0\nIF duration(@t) > 3 THEN tag(@t) = trills\n")
        base_args = ["tag", "--model", str(workdir / "model.txt"),
                     "--melody", str(melody_path),
                     "--rules", str(rules_path)]
        assert main(base_args + ["--out", str(tmp_path / "plain.txt")]) == 0
        assert main(base_args + ["--h1", "1000",
                                 "--out", str(tmp_path / "boost.txt")]) == 0
        no_rules = ["tag", "--model", str(workdir / "model.txt"),
                    "--melody", str(melody_path),
                    "--out", str(tmp_path / "none.txt")]
        assert main(no_rules) == 0
        capsys.readouterr()
        assert (tmp_path / "plain.txt").read_bytes() == \
            (tmp_path / "none.txt").read_bytes()
        model = load_model(str(workdir / "model.txt"))
        boosted = parse_corpus((tmp_path / "boost.txt").read_text(),
                               model.tagset)
        assert model.tagset.name(boosted.entries[0][1][2]) == "trills"

    def test_rule_tag_outside_model_exits_2(self, workdir, tmp_path,
                                            capsys):
        """Rules naming a tag the model lacks fail with exit 2."""
        melody_path = tmp_path / "tune.melody"
        melody_path.write_text("C5:1\n")
        rules_path = tmp_path / "foreign.rules"
        rules_path.write_text(
            "IF duration(@t) > 3 THEN tag(@t) = flutter\n")
        code, _, err = run_cli([
            "tag", "--model", str(workdir / "model.txt"),
            "--melody", str(melody_path),
            "--out", str(tmp_path / "t.txt"), "--rules", str(rules_path),
        ], capsys)
        assert code == 2
        assert "flutter" in err

    def test_repeated_feature_in_model_exits_2(self, workdir, tmp_path,
                                               capsys):
        """A model file listing one feature twice is a corrupt model."""
        model_path = tmp_path / "dup.model"
        model_path.write_text(with_repeated_feature(
            (workdir / "model.txt").read_text()))
        melody_path = tmp_path / "tune.melody"
        melody_path.write_text("C5:1\n")
        code, _, err = run_cli([
            "tag", "--model", str(model_path), "--melody", str(melody_path),
            "--out", str(tmp_path / "t.txt"),
        ], capsys)
        assert code == 2
        assert "repeated feature name" in err

    def test_bad_rule_syntax_exits_2_with_location(self, workdir, tmp_path,
                                                   capsys):
        """A malformed rule reports exit 2 with line and column."""
        melody_path = tmp_path / "tune.melody"
        melody_path.write_text("C5:1\n")
        rules_path = tmp_path / "broken.rules"
        rules_path.write_text("IF duration(@t) >\n")
        code, _, err = run_cli([
            "tag", "--model", str(workdir / "model.txt"),
            "--melody", str(melody_path),
            "--out", str(tmp_path / "t.txt"), "--rules", str(rules_path),
        ], capsys)
        assert code == 2
        assert "line 1" in err

    def test_long_duration_exits_2(self, workdir, tmp_path, capsys):
        """A duration past the digit limit is bad input, not exit 3."""
        melody_path = tmp_path / "tune.melody"
        melody_path.write_text(f"C5:1 C5:{'1' * (digit_limit() + 1)}\n")
        code, _, err = run_cli([
            "tag", "--model", str(workdir / "model.txt"),
            "--melody", str(melody_path), "--out", str(tmp_path / "t.txt"),
        ], capsys)
        assert code == 2
        assert "line 1, column 4" in err

    def test_non_ascii_octave_digit_exits_2(self, workdir, tmp_path, capsys):
        """A superscript octave digit is bad input, not an internal error."""
        melody_path = tmp_path / "tune.melody"
        melody_path.write_text("C\u00b2:1\n", encoding="utf-8")
        code, _, err = run_cli([
            "tag", "--model", str(workdir / "model.txt"),
            "--melody", str(melody_path), "--out", str(tmp_path / "t.txt"),
        ], capsys)
        assert code == 2
        assert "octave" in err and "line 1" in err


@pytest.fixture(scope="module")
def inputs(workdir):
    """One small valid file of each kind, beside ``workdir``'s model."""
    files = {"model": workdir / "model.txt", "tagset": workdir / "tags.txt"}
    for kind, text in {
        "melody": "C5:1 D5:1/2 E5:4 F5:1/2 G5:2\n",
        "corpus": "C5:1\tnone\nD5:1/2\ttrills\n\nE5:4\tfermata\n",
        "rules": "IF duration(@t) > 3 THEN tag(@t) = trills\n",
        "config": "h1=3\nh2=0.5\n",
        "profile": '{"tags": ["none", "trills"],\n'
                   ' "melody_length_range": [2, 4]}\n',
    }.items():
        files[kind] = workdir / f"valid.{kind}"
        files[kind].write_text(text)
    return files


def argv_reading(kind, files, out):
    """A command that reads ``files[kind]`` and every other file it
    takes from ``files``."""
    f = {name: str(path) for name, path in files.items()}
    if kind == "profile":
        return ["synth", "--profile", f["profile"], "--melodies", "2",
                "--seed", "0", "--out", out]
    if kind == "tagset":
        return ["train", "--corpus", f["corpus"], "--tagset", f["tagset"],
                "--config", f["config"], "--epochs", "1", "--out", out]
    if kind == "corpus":
        return ["eval", "--model", f["model"], "--corpus", f["corpus"],
                "--rules", f["rules"], "--config", f["config"]]
    return ["tag", "--model", f["model"], "--melody", f["melody"],
            "--rules", f["rules"], "--config", f["config"], "--explain",
            "--out", out]


class TestUndecodableInput:
    """A byte that is not UTF-8 is bad input (exit 2) at its line."""

    @pytest.mark.parametrize("kind", ["melody", "corpus", "tagset", "rules",
                                      "config", "profile", "model"])
    def test_bad_byte_exits_2_with_line(self, inputs, tmp_path, capsys,
                                        kind):
        bad = tmp_path / f"bad.{kind}"
        bad.write_bytes(inputs[kind].read_bytes().replace(
            b"\n", b"\r\n", 1).replace(b"\n", b"\n\xff", 1))
        files = dict(inputs, **{kind: bad})
        code, out, err = run_cli(
            argv_reading(kind, files, str(tmp_path / "out")), capsys)
        assert code == 2
        assert out == ""
        assert "not valid UTF-8 at byte 0xff (line 2)" in err

    @pytest.mark.parametrize("kind", ["melody", "corpus", "tagset", "rules",
                                      "config", "profile", "model"])
    def test_byte_order_mark_exits_2_at_line_1(self, inputs, tmp_path,
                                               capsys, kind):
        bad = tmp_path / f"bom.{kind}"
        bad.write_bytes(b"\xef\xbb\xbf" + inputs[kind].read_bytes())
        files = dict(inputs, **{kind: bad})
        code, out, err = run_cli(
            argv_reading(kind, files, str(tmp_path / "out")), capsys)
        assert (code, out) == (2, "")
        assert err == (f"error: {bad}: starts with a UTF-8 byte-order mark "
                       "(line 1)\n")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("newline", [b"\n", b"\r\n", b"\r"])
    def test_line_counts_every_newline(self, newline):
        with pytest.raises(InputError, match="byte 0xe2") as excinfo:
            decode_text(newline.join([b"a", b"b", b"\xe2\x82"]))
        assert excinfo.value.line == 3

    def test_load_model_raises_corrupt_model(self, inputs, tmp_path):
        bad = tmp_path / "bad.model"
        head = inputs["model"].read_bytes().split(b"\n")[:3]
        bad.write_bytes(b"\n".join(head) + b"\n\xc3(\n")
        with pytest.raises(InputError, match="byte 0xc3") as excinfo:
            load_model(bad)
        assert excinfo.value.line == 4

    def test_crlf_reads_as_lf(self, inputs, tmp_path, capsys):
        """Input files keep universal newlines: CRLF and CR parse as LF."""
        outputs = []
        for i, newline in enumerate((b"\n", b"\r\n", b"\r")):
            files = dict(inputs)
            for kind in ("melody", "rules", "config"):
                files[kind] = tmp_path / f"{i}.{kind}"
                files[kind].write_bytes(inputs[kind].read_bytes().replace(
                    b"\n", newline))
            out = tmp_path / f"{i}.out"
            assert main(argv_reading("melody", files, str(out))) == 0
            outputs.append((out.read_bytes(),
                            Path(f"{out}.explain").read_bytes()))
        capsys.readouterr()
        assert outputs[0][1]
        assert outputs[1] == outputs[0] and outputs[2] == outputs[0]


class TestErrorsNameTheirFile:
    """An input error names the file it was found in, before its message;
    stdout stays empty and the exit code stays 2."""

    @pytest.mark.parametrize("kind, text, message", [
        ("melody", "C5:1\nE5:0\n",
         "zero duration: 'E5:0' (line 2, column 4; token 'E5:0')"),
        ("corpus", "C5:1\tnone\nD5:1\tflutter\n",
         "unknown tag 'flutter' (line 2; token 'flutter')"),
        ("config", "h1=3\nepochs=-1\n",
         "bad value for 'epochs': '-1' (expected a nonnegative integer) "
         "(line 2)"),
        ("profile", '{"tags": ["none"]}\n',
         "bad tags: a tag set needs at least 2 tags"),
        ("rules", "IF duration(@t) > 3 THEN tag(@t) = flutter\n",
         "unknown tag 'flutter' (line 1, column 36; token 'flutter')"),
    ])
    def test_each_subcommand(self, inputs, tmp_path, capsys, kind, text,
                             message):
        bad = tmp_path / f"bad.{kind}"
        bad.write_text(text)
        files = dict(inputs, **{kind: bad})
        f = {name: str(path) for name, path in files.items()}
        out = str(tmp_path / "out")
        argv = {
            "melody": ["tag", "--model", f["model"], "--melody", f["melody"],
                       "--out", out],
            "corpus": ["eval", "--model", f["model"], "--corpus", f["corpus"]],
            "config": ["train", "--corpus", f["corpus"], "--tagset",
                       f["tagset"], "--config", f["config"], "--out", out],
            "profile": ["synth", "--profile", f["profile"], "--melodies", "1",
                        "--seed", "0", "--out", out],
            "rules": ["rules-check", f["rules"], "--tagset", f["tagset"]],
        }[kind]
        code, stdout, err = run_cli(argv, capsys)
        assert (code, stdout) == (2, "")
        assert err == f"error: {bad}: {message}\n"

    def test_model_with_crlf_line_ends(self, inputs, tmp_path, capsys):
        bad = tmp_path / "crlf.model"
        bad.write_bytes(inputs["model"].read_bytes().replace(b"\n", b"\r\n"))
        code, stdout, err = run_cli(
            ["tag", "--model", str(bad), "--melody", str(inputs["melody"]),
             "--out", str(tmp_path / "out")], capsys)
        assert (code, stdout) == (2, "")
        assert err.startswith(f"error: {bad}: model file has CRLF line ends")
        with pytest.raises(InputError, match="CRLF line ends") as excinfo:
            load_model(bad)
        assert excinfo.value.path == str(bad)


class TestParserReuse:
    """``main`` builds its parser on its first call and reuses it, and no
    flag or default of one call leaks into the next."""

    def test_calls_in_one_process_match_fresh_processes(
            self, inputs, tmp_path, capsys):
        f = {name: str(path) for name, path in inputs.items()}
        calls = [
            ["tag", "--model", f["model"], "--melody", f["melody"],
             "--rules", f["rules"], "--h1", "5", "--explain"],
            ["tag", "--model", f["model"], "--melody", f["melody"]],
            ["eval", "--model", f["model"], "--corpus", f["corpus"]],
            ["synth", "--default", "--melodies", "3", "--seed", "2"],
        ]
        cli._parser.cache_clear()
        env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1]))
        same, fresh = tmp_path / "same", tmp_path / "fresh"
        same.mkdir()
        fresh.mkdir()
        for i, argv in enumerate(calls):
            writes = argv[0] != "eval"
            code, stdout, _ = run_cli(
                argv + ["--out", str(same / f"{i}")] * writes, capsys)
            alone = subprocess.run(
                [sys.executable, "-m", "ornatag.cli", *argv,
                 *["--out", str(fresh / f"{i}")] * writes],
                env=env, capture_output=True, text=True, check=False)
            assert code == alone.returncode == 0
            assert stdout == alone.stdout
        names = sorted(os.listdir(fresh))
        assert sorted(os.listdir(same)) == names == ["0", "0.explain", "1",
                                                     "3"]
        for name in names:
            assert (same / name).read_bytes() == (fresh / name).read_bytes()
        assert run_cli(["tag", "--model", f["model"]], capsys)[0] == 1
        assert run_cli(["--version"], capsys)[0] == 0
        code, _, err = run_cli(["synth", "--melodies", "1", "--seed", "0",
                                "--out", str(tmp_path / "x")], capsys)
        assert code == 1 and "--profile" in err
        assert cli._parser.cache_info().misses == 1


def spliced(valid: bytes):
    """``valid`` with a short run of bytes replaced by up to 3 others."""
    return st.tuples(st.integers(0, len(valid)), st.integers(0, 8),
                     st.binary(max_size=3)).map(
        lambda cut: valid[:cut[0]] + cut[2] + valid[cut[0] + cut[1]:])


# any weight or confidence a rule file or flag accepts: finite, above 0
_ANY_WEIGHT = st.floats(min_value=5e-324, max_value=1.7976931348623157e308)
_FUZZ_CLAUSES = ("duration(@t) > 0", "duration(@t) > 3", "pred(@t) == none",
                 "pred(@t-1) != trills", "position(@t) < 2")


class TestMainFuzz:
    """``main`` never returns 3 when one input file holds arbitrary bytes
    and every other file is valid, and returns 0 on every valid rule file
    and H1/H2 flag, weights and confidences from the whole accepted range.
    """

    @pytest.mark.parametrize("kind", ["melody", "corpus", "tagset", "rules",
                                      "config", "profile", "model"])
    @settings(deadline=None)
    @given(data=st.data())
    def test_exit_code_is_never_3(self, inputs, kind, data):
        valid = inputs[kind].read_bytes()
        fuzz = inputs["model"].parent / f"fuzz.{kind}"
        fuzz.write_bytes(data.draw(st.binary(max_size=300) | spliced(valid)))
        out = str(inputs["model"].parent / "fuzz.out")
        stderr = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(stderr):
            code = main(argv_reading(kind, dict(inputs, **{kind: fuzz}), out))
        assert code in (0, 2), stderr.getvalue()

    @settings(deadline=None)
    @given(rules=st.lists(st.tuples(st.sampled_from(_FUZZ_CLAUSES),
                                    st.sampled_from(["none", "trills",
                                                     "fermata", "mordent"]),
                                    st.none() | _ANY_WEIGHT),
                          min_size=1, max_size=6),
           h1=st.none() | _ANY_WEIGHT, h2=st.none() | _ANY_WEIGHT,
           command=st.sampled_from(["tag", "eval"]))
    def test_valid_rules_and_confidences_exit_0(self, inputs, rules, h1, h2,
                                                command):
        f = {name: str(path) for name, path in inputs.items()}
        fuzz = inputs["model"].parent / "fuzz-valid.rules"
        fuzz.write_text("".join(
            f"IF {clause} THEN tag(@t) = {tag}"
            + ("" if weight is None else f" WEIGHT {weight!r}") + "\n"
            for clause, tag, weight in rules))
        argv = (["tag", "--melody", f["melody"], "--explain", "--out",
                 str(inputs["model"].parent / "fuzz.out")]
                if command == "tag" else ["eval", "--corpus", f["corpus"]])
        argv += ["--model", f["model"], "--rules", str(fuzz)]
        for flag, value in (("--h1", h1), ("--h2", h2)):
            if value is not None:
                argv += [flag, repr(value)]
        stderr = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(stderr), warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            code = main(argv)
        assert code == 0, stderr.getvalue()


def perfect_model(tmp_path):
    """A model whose argmax tagging is exact on bucket-determined tags.

    Tags: short (duration <= 1) vs long (duration > 1).  Emission
    weights of +/-40 on the duration-bucket features make the posterior
    argmax match the labeling deterministically.
    """
    drawn = generate_synthetic(SynthProfile(), 6, 99)
    tagset = parse_tagset("short\nlong\n")
    melodies = [melody for melody, _ in drawn]
    vectorizer = FeatureVectorizer.build(melodies)
    emissions = np.zeros((len(vectorizer), 2))
    for name in vectorizer.feature_names:
        if not name.startswith("durbucket="):
            continue
        is_long = name.split("=", 1)[1] in {"(1,2]", "(2,3]", "(3,inf)"}
        emissions[vectorizer.index(name), 1 if is_long else 0] = 40.0
        emissions[vectorizer.index(name), 0 if is_long else 1] = -40.0
    model = TaggerModel(
        tagset=tagset, vectorizer=vectorizer, emission_weights=emissions,
        transition_weights=np.zeros((2, 2)),
        training_meta=TrainingMeta(epochs=0, final_loss=0.0, seed=0))
    entries = tuple(
        (melody,
         StateSequence(tuple(int(n.duration_ql > 1) for n in melody)))
        for melody in melodies)
    corpus_path = tmp_path / "gold.txt"
    corpus_path.write_text(serialize_corpus(TaggedCorpus(tagset, entries)))
    model_path = tmp_path / "perfect.txt"
    save_model(model, str(model_path))
    return model_path, corpus_path


class TestEval:
    """The eval subcommand: metrics JSON on stdout."""

    def test_perfect_model_scores_one(self, tmp_path, capsys):
        """A deterministic model reaches accuracy 1.0 on its own labels."""
        model_path, corpus_path = perfect_model(tmp_path)
        code, out, _ = run_cli([
            "eval", "--model", str(model_path),
            "--corpus", str(corpus_path),
        ], capsys)
        assert code == 0
        payload = json.loads(out)
        assert payload["token_accuracy"] == 1.0
        assert payload["macro_f1"] == 1.0
        assert payload["rule_satisfaction"] is None

    def test_rules_flag_adds_satisfaction(self, tmp_path, capsys):
        """With --rules the satisfaction field becomes a number."""
        model_path, corpus_path = perfect_model(tmp_path)
        rules_path = tmp_path / "long.rules"
        rules_path.write_text("IF duration(@t) > 1 THEN tag(@t) = long\n")
        code, out, _ = run_cli([
            "eval", "--model", str(model_path),
            "--corpus", str(corpus_path), "--rules", str(rules_path),
        ], capsys)
        assert code == 0
        payload = json.loads(out)
        assert payload["rule_satisfaction"] == 1.0

    def test_rules_that_never_fire_are_vacuously_satisfied(self, tmp_path,
                                                            capsys):
        """No firing anywhere in the corpus reports a rate of 1.0."""
        model_path, corpus_path = perfect_model(tmp_path)
        rules_path = tmp_path / "never.rules"
        rules_path.write_text("IF duration(@t) > 100 THEN tag(@t) = long\n")
        code, out, _ = run_cli([
            "eval", "--model", str(model_path),
            "--corpus", str(corpus_path), "--rules", str(rules_path),
        ], capsys)
        assert code == 0
        assert json.loads(out)["rule_satisfaction"] == 1.0

    def test_stdout_is_exactly_the_json(self, tmp_path, capsys):
        """stdout carries the metrics object and nothing else."""
        model_path, corpus_path = perfect_model(tmp_path)
        code, out, _ = run_cli([
            "eval", "--model", str(model_path),
            "--corpus", str(corpus_path),
        ], capsys)
        assert code == 0
        assert out.startswith("{\n")
        assert out.endswith("}\n")

    def test_empty_corpus_exits_2(self, tmp_path, capsys):
        """An entry-free corpus file is an input error."""
        model_path, _ = perfect_model(tmp_path)
        empty = tmp_path / "empty.txt"
        empty.write_text("# nothing\n")
        code, _, err = run_cli([
            "eval", "--model", str(model_path), "--corpus", str(empty),
        ], capsys)
        assert code == 2
        assert "error:" in err


@pytest.fixture(scope="module")
def readme_pipeline(tmp_path_factory):
    """The README quick-start's corpus, model and rule file."""
    root = tmp_path_factory.mktemp("readme")
    assert main(["synth", "--default", "--melodies", "200", "--seed", "7",
                 "--out", str(root / "corpus.txt"),
                 "--tagset-out", str(root / "tags.txt")]) == 0
    assert main(["train", "--corpus", str(root / "corpus.txt"),
                 "--tagset", str(root / "tags.txt"), "--epochs", "20",
                 "--seed", "1", "--out", str(root / "model.txt")]) == 0
    (root / "long.rules").write_text(
        "IF duration(@t) > 3 THEN tag(@t) = trills WEIGHT 8\n")
    return root


class TestWeightsOutOfFloatRange:
    """A training run or a model whose weights leave float range is bad
    input (exit 2), and no model is written."""

    def test_diverging_train_exits_2(self, readme_pipeline, tmp_path,
                                     capsys):
        out = tmp_path / "model.txt"
        code, stdout, err = run_cli(
            ["train", "--corpus", str(readme_pipeline / "corpus.txt"),
             "--tagset", str(readme_pipeline / "tags.txt"), "--epochs", "2",
             "--step", "1e8", "--out", str(out)], capsys)
        assert (code, stdout) == (2, "")
        assert err == (
            "error: training diverged in epoch 1: the weights left float "
            "range (step_size 100000000.0, l2 0.01)\n")
        assert not out.exists()

    @pytest.mark.parametrize("command, scale", [("eval", 1e20), ("tag", 1e100)])
    def test_huge_model_weights_exit_2_naming_the_model(
            self, readme_pipeline, tmp_path, capsys, command, scale):
        model = load_model(readme_pipeline / "model.txt")
        path = tmp_path / "huge.model"
        save_model(replace(model,
                           emission_weights=model.emission_weights * scale,
                           transition_weights=model.transition_weights * scale),
                   path)
        melody = tmp_path / "tune.melody"
        melody.write_text("C5:1 D5:1/2 E5:4 F5:1/2 G5:2\n")
        out = tmp_path / "out.txt"
        argv = {"eval": ["eval", "--corpus", str(readme_pipeline / "corpus.txt")],
                "tag": ["tag", "--melody", str(melody), "--out", str(out)],
                }[command] + ["--model", str(path)]
        code, stdout, err = run_cli(argv, capsys)
        assert (code, stdout) == (2, "")
        assert err == (f"error: {path}: posteriors of melody 1 are not "
                       "finite: the model's weights are too large\n")
        assert not out.exists()

    def test_huge_model_weights_name_the_melody(self, readme_pipeline,
                                                tmp_path, capsys, monkeypatch):
        """Four one-note melodies, whose posteriors stay finite, come
        before a long one that overflows; with a budget of two cells the
        long one is alone in the third batch, and its number counts
        every melody before it."""
        monkeypatch.setattr(tagger, "_BATCH_CELLS", 2)
        model = load_model(readme_pipeline / "model.txt")
        path = tmp_path / "huge.model"
        save_model(replace(model,
                           emission_weights=model.emission_weights * 1e20,
                           transition_weights=model.transition_weights * 1e20),
                   path)
        melodies = (readme_pipeline / "corpus.txt").read_text().split("\n\n")
        corpus = tmp_path / "corpus.txt"
        corpus.write_text("C5:1\tnone\n\nD4:2\tnone\n\nE5:1/2\tnone\n\n"
                          "C5:1\tnone\n\n" + melodies[0].strip() + "\n")
        code, stdout, err = run_cli(
            ["eval", "--model", str(path), "--corpus", str(corpus)], capsys)
        assert (code, stdout) == (2, "")
        assert err == (f"error: {path}: posteriors of melody 5 are not "
                       "finite: the model's weights are too large\n")

    def test_train_whose_loss_leaves_float_range_exits_2(
            self, readme_pipeline, tmp_path, capsys):
        """The last update leaves the weights finite but too large for a
        finite loss: no model, no numpy warning."""
        out = tmp_path / "model.txt"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, stdout, err = run_cli(
                ["train", "--corpus", str(readme_pipeline / "corpus.txt"),
                 "--tagset", str(readme_pipeline / "tags.txt"),
                 "--epochs", "1", "--batch", "1000", "--step", "1e200",
                 "--out", str(out)], capsys)
        assert [str(w.message) for w in caught] == []
        assert (code, stdout) == (2, "")
        assert err.splitlines()[1:] == [
            "error: training diverged in epoch 1: the loss left float "
            "range (step_size 1e+200, l2 0.01)"]
        assert not out.exists()


class TestRuleWeightsOutOfFloatRange:
    """Rule weights and confidences whose products leave float range:
    ``tag`` exits 0 with the exact argmax and no warning.  The firings
    land on E5:4, the third note, where the README model's p2 reads
    about 0.281 none, 0.243 trills, 0.238 fermata and 0.239 mordent."""

    def third_tag(self, readme_pipeline, tmp_path, capsys, rules, *flags):
        melody = tmp_path / "tune.melody"
        melody.write_text("C5:1 D5:1/2 E5:4 F5:1/2 G5:2\n")
        rule_file = tmp_path / "probe.rules"
        rule_file.write_text("".join(
            f"IF duration(@t) > 3 THEN tag(@t) = {rule}\n" for rule in rules))
        out = tmp_path / "out.txt"
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            code, stdout, err = run_cli(
                ["tag", "--model", str(readme_pipeline / "model.txt"),
                 "--melody", str(melody), "--rules", str(rule_file), *flags,
                 "--out", str(out)], capsys)
        assert (code, stdout, err) == (0, "", "")
        return out.read_text().splitlines()[2]

    def test_overflowing_products_decode_the_larger(
            self, readme_pipeline, tmp_path, capsys):
        """About 1e400 x 0.238 for fermata against 1e500 x 0.239 for
        mordent: mordent."""
        rules = ["fermata WEIGHT 1e200", "fermata WEIGHT 1e200",
                 "mordent WEIGHT 1e200", "mordent WEIGHT 1e300"]
        assert self.third_tag(readme_pipeline, tmp_path, capsys,
                              rules) == "E5:4\tmordent"

    def test_underflowing_product_decodes(self, readme_pipeline, tmp_path,
                                          capsys):
        """Two 1e-200 firings put fermata near 1e-400: none stays top."""
        rules = ["fermata WEIGHT 1e-200"] * 2
        assert self.third_tag(readme_pipeline, tmp_path, capsys,
                              rules) == "E5:4\tnone"

    @pytest.mark.parametrize("h1, tag", [("1e-200", "none"),
                                         ("1e200", "fermata")])
    def test_extreme_default_confidence(self, readme_pipeline, tmp_path,
                                        capsys, h1, tag):
        """Two rules without a WEIGHT take H1 twice on fermata's cell."""
        assert self.third_tag(readme_pipeline, tmp_path, capsys,
                              ["fermata"] * 2, "--h1", h1) == f"E5:4\t{tag}"


class TestEvalPipeline:
    """The README quick-start's stored outputs, and eval's feature pass."""

    @pytest.mark.parametrize("cells, batches", [(16 * 40, 20), (2**15, 1)])
    def test_counts_equal_per_melody_counts(self, readme_pipeline, tmp_path,
                                            capsys, monkeypatch, cells,
                                            batches):
        """``eval --rules`` counts tags and satisfied firings over each
        batch's arrays: its JSON equals ``evaluate`` and
        ``count_satisfied`` over ``tag_with_knowledge`` results, with
        the corpus in many batches and in one."""
        monkeypatch.setattr(tagger, "_BATCH_CELLS", cells)
        model = load_model(readme_pipeline / "model.txt")
        corpus = parse_corpus((readme_pipeline / "corpus.txt").read_text(),
                              model.tagset)
        assert len(list(tagger._batches(m for m, _ in corpus))) == batches
        rules = tmp_path / "eval.rules"
        rules.write_text(
            "IF duration(@t) > 1 THEN tag(@t) = trills WEIGHT 1.5\n"
            "IF pred(@t-1) == trills THEN tag(@t) = none WEIGHT 0.7\n"
            "IF duration(@t) <= 1/2 AND duration(@t+1) > 1 "
            "THEN tag(@t+1) = mordent WEIGHT 3\n")
        code, out, _ = run_cli(["eval", "--model", str(readme_pipeline /
                                                       "model.txt"),
                                "--corpus", str(readme_pipeline / "corpus.txt"),
                                "--rules", str(rules)], capsys)
        assert code == 0
        ruleset = parse_rules(rules.read_text(), model.tagset)
        results = [tag_with_knowledge(model, ruleset, melody)
                   for melody, _ in corpus]
        counts = [count_satisfied(r.final, r.firings) for r in results]
        matched, total = map(sum, zip(*counts))
        assert 0 < matched < total
        metrics = replace(evaluate([r.final for r in results], corpus),
                          rule_satisfaction=matched / total)
        assert out == format_metrics(metrics, model.tagset)

    @pytest.mark.parametrize("rules, golden", [
        (True, "readme_eval_rules.json"),
        (False, "readme_eval_plain.json"),
    ])
    def test_readme_quick_start_stdout_is_unchanged(
            self, readme_pipeline, capsys, rules, golden):
        """The quick-start's eval prints the stored metrics byte for byte."""
        capsys.readouterr()
        argv = ["eval", "--model", str(readme_pipeline / "model.txt"),
                "--corpus", str(readme_pipeline / "corpus.txt")]
        if rules:
            argv += ["--rules", str(readme_pipeline / "long.rules")]
        code, out, _ = run_cli(argv, capsys)
        assert code == 0
        assert out == (DATA / golden).read_text()

    @pytest.mark.parametrize("name, digest", [
        ("corpus.txt",
         "82050ec4cc5e2f87793288c69bfa0eb8d5f403a233b64571a10a8f89355f6ba9"),
        ("model.txt",
         "b34ca8927f1930984a1dda6605f52f7ebdafd033f0c39b4ac4001d82daa702bc"),
    ])
    def test_readme_quick_start_files_are_unchanged(self, readme_pipeline,
                                                    name, digest):
        """The quick-start's synth corpus and trained model, by SHA-256."""
        data = (readme_pipeline / name).read_bytes()
        assert hashlib.sha256(data).hexdigest() == digest

    def test_readme_quick_start_tag_set_is_unchanged(self, readme_pipeline):
        assert (readme_pipeline / "tags.txt").read_bytes() == \
            (DATA / "readme_tags.txt").read_bytes()

    @pytest.mark.parametrize("rules, golden", [
        (True, "readme_tag_rules"),
        (False, "readme_tag_plain"),
    ])
    def test_readme_quick_start_tag_outputs_are_unchanged(
            self, readme_pipeline, tmp_path, capsys, rules, golden):
        """The quick-start's tag writes the stored files byte for byte."""
        melody = tmp_path / "tune.melody"
        melody.write_text("C5:1 D5:1/2 E5:4 F5:1/2 G5:2\n")
        out = tmp_path / "out.txt"
        argv = ["tag", "--model", str(readme_pipeline / "model.txt"),
                "--melody", str(melody), "--out", str(out)]
        if rules:
            argv += ["--rules", str(readme_pipeline / "long.rules"),
                     "--explain"]
        code, stdout, _ = run_cli(argv, capsys)
        assert code == 0
        assert stdout == ""
        assert out.read_bytes() == (DATA / f"{golden}.txt").read_bytes()
        explain = Path(f"{out}.explain")
        if rules:
            assert explain.read_bytes() == \
                (DATA / f"{golden}.explain").read_bytes()
        else:
            assert not explain.exists()

    def test_features_extracted_once_per_token(self, workdir, tmp_path,
                                               capsys, monkeypatch):
        """eval compiles one feature row per distinct context in the
        corpus, spliced from note and edge names, with no call to
        ``extract_features``.

        A context is a note with the sign of the interval into it (or
        BOS) and out of it (or EOS).  The corpus is one inference batch.
        Its last melody writes one note as two tokens, C4:1 and C4:2/2,
        in one context, so equal notes share it.
        """
        calls, tables = [], []
        compile_features = tagger._compile

        def counting(melody, t):
            calls.append(feature_context(melody, t))
            return extract_features(melody, t)

        def compiling(*args, **kwargs):
            compiled = compile_features(*args, **kwargs)
            tables.append(compiled[1])
            return compiled

        text = ((workdir / "corpus.txt").read_text() + "\n" + "".join(
            f"{token}\tnone\n" for token in
            ("D4:1", "C4:1", "D4:1", "C4:2/2", "D4:1")))
        corpus_path = tmp_path / "corpus.txt"
        corpus_path.write_text(text)
        corpus = parse_corpus(text,
                              parse_tagset((workdir / "tags.txt").read_text()))
        assert len(list(tagger._batches(melody for melody, _ in corpus))) == 1
        contexts = {feature_context(melody, t)
                    for melody, _ in corpus for t in range(len(melody))}
        assert len(contexts) < corpus.token_count
        last = corpus.entries[-1][0]
        assert feature_context(last, 1) == feature_context(last, 3)
        rules = tmp_path / "eval.rules"
        rules.write_text("IF duration(@t) > 1 THEN tag(@t) = trills\n")
        monkeypatch.setattr(tagger, "extract_features", counting)
        monkeypatch.setattr(tagger, "_compile", compiling)
        code, _, _ = run_cli([
            "eval", "--model", str(workdir / "model.txt"),
            "--corpus", str(corpus_path), "--rules", str(rules),
        ], capsys)
        assert code == 0
        assert calls == []
        assert [len(table) - 1 for table in tables] == [len(contexts)]


class TestSynth:
    """The synth subcommand: deterministic corpus generation."""

    def test_rerun_is_byte_identical(self, tmp_path, capsys):
        """Same profile and seed write the same bytes twice."""
        argv = ["synth", "--default", "--melodies", "9", "--seed", "3"]
        assert main(argv + ["--out", str(tmp_path / "a.txt")]) == 0
        assert main(argv + ["--out", str(tmp_path / "b.txt")]) == 0
        capsys.readouterr()
        assert (tmp_path / "a.txt").read_bytes() == \
            (tmp_path / "b.txt").read_bytes()

    def test_zero_melodies_warns(self, tmp_path, capsys):
        """N=0 writes an empty file, warns on stderr, exits 0."""
        code, _, err = run_cli([
            "synth", "--default", "--melodies", "0", "--seed", "3",
            "--out", str(tmp_path / "empty.txt"),
        ], capsys)
        assert code == 0
        assert (tmp_path / "empty.txt").read_text() == ""
        assert "warning" in err

    def test_profile_file(self, tmp_path, capsys):
        """A JSON profile steers generation and parses back."""
        profile = tmp_path / "p.json"
        profile.write_text(json.dumps({
            "tags": ["plain", "bend"],
            "melody_length_range": [4, 6],
        }))
        code, _, _ = run_cli([
            "synth", "--profile", str(profile), "--melodies", "5",
            "--seed", "1", "--out", str(tmp_path / "c.txt"),
            "--tagset-out", str(tmp_path / "t.txt"),
        ], capsys)
        assert code == 0
        assert (tmp_path / "t.txt").read_text() == "plain\nbend\n"
        tagset = parse_tagset((tmp_path / "t.txt").read_text())
        corpus = parse_corpus((tmp_path / "c.txt").read_text(), tagset)
        assert len(corpus.entries) == 5
        for melody, _ in corpus:
            assert 4 <= len(melody) <= 6

    def test_unknown_profile_key_exits_2(self, tmp_path, capsys):
        """Unknown profile keys are input errors."""
        profile = tmp_path / "p.json"
        profile.write_text('{"tempo": 120}')
        code, _, err = run_cli([
            "synth", "--profile", str(profile), "--melodies", "5",
            "--seed", "1", "--out", str(tmp_path / "c.txt"),
        ], capsys)
        assert code == 2
        assert "tempo" in err

    def test_oversized_pool_key_exits_2(self, tmp_path, capsys):
        """A duration_pool key past the digit limit is bad input, at once."""
        profile = tmp_path / "p.json"
        profile.write_text('{"duration_pool": {"1e2000000": 0.5, "1": 0.5}}')
        code, out, err = run_cli([
            "synth", "--profile", str(profile), "--melodies", "5",
            "--seed", "1", "--out", str(tmp_path / "c.txt"),
        ], capsys)
        assert code == 2
        assert out == ""
        assert "1e2000000" in err
        assert not (tmp_path / "c.txt").exists()

    @pytest.mark.parametrize("text, named", [
        ('{"pitch_range": [60, %s]}' % ("1" * 5000), "pitch_range"),
        ('{"tag_markov": %s%s}' % ("[" * 10**5, "]" * 10**5), "JSON"),
        ('{"tags": ["a", "b"], "tag_markov": [[0.5, 0.5], [0.5]]}',
         "tag_markov"),
        ('{"emission_bias": {"trills": {"(3,inf)": null}}}', "emission_bias"),
        ('{"duration_pool": {"1": NaN, "2": 1.0}}', "duration_pool"),
        ('{"duration_pool": {"\u0663": 0.5, " +1/2 ": 0.5}}', "duration_pool"),
        ('{"melody_length_range": [9223372036854775807, '
         '9223372036854775807]}', "melody_length_range"),
        ('{"melody_length_range": [true, 3]}', "melody_length_range"),
        ('{"emission_bias": {"trills": {"(3,4]": 30.0, "long": 5}}}',
         "emission_bias for tag 'trills' names unknown duration bucket "
         "'(3,4]'"),
    ], ids=["huge-int", "deep-nesting", "ragged-markov", "null-bias",
            "nan-pool", "non-grammar-keys", "int64-length", "bool-length",
            "unknown-bucket"])
    def test_bad_profile_value_exits_2(self, tmp_path, capsys, text, named):
        """Each bad profile value is located input, never exit 3."""
        profile = tmp_path / "p.json"
        profile.write_text(text)
        code, out, err = run_cli([
            "synth", "--profile", str(profile), "--melodies", "5",
            "--seed", "1", "--out", str(tmp_path / "c.txt"),
        ], capsys)
        assert code == 2
        assert out == ""
        assert named in err
        assert not (tmp_path / "c.txt").exists()

    def test_length_range_past_int64_exits_2(self, tmp_path, capsys):
        """A melody length that numpy cannot draw is bad input."""
        profile = tmp_path / "p.json"
        profile.write_text('{"melody_length_range": [1, 100000000000000000000]}')
        code, out, err = run_cli([
            "synth", "--profile", str(profile), "--melodies", "5",
            "--seed", "1", "--out", str(tmp_path / "c.txt"),
        ], capsys)
        assert code == 2
        assert out == ""
        assert "melody_length_range" in err
        assert not (tmp_path / "c.txt").exists()

    def test_profile_and_default_conflict(self, tmp_path, capsys):
        """--profile and --default are mutually exclusive."""
        code, _, _ = run_cli([
            "synth", "--default", "--profile", "p.json",
            "--melodies", "5", "--seed", "1",
            "--out", str(tmp_path / "c.txt"),
        ], capsys)
        assert code == 1


class TestRulesCheck:
    """The rules-check subcommand: one classification line per rule."""

    def test_reports_classes_and_weights(self, tmp_path, capsys):
        """Observation rules print Type1, prediction rules Type2."""
        tagset_path = tmp_path / "tags.txt"
        tagset_path.write_text("none\ntrills\nmordent\n")
        rules_path = tmp_path / "mixed.rules"
        rules_path.write_text(
            "IF duration(@t) > 3 THEN tag(@t) = trills\n"
            "IF pred(@t-1) == trills THEN tag(@t) = mordent WEIGHT 2.5\n")
        code, out, _ = run_cli([
            "rules-check", str(rules_path), "--tagset", str(tagset_path),
        ], capsys)
        assert code == 0
        assert out == ("line 1: Type1 tag=trills weight=default\n"
                       "line 2: Type2 tag=mordent weight=2.5\n")

    def test_sample_rules(self, capsys):
        """The shipped rule file: four Type 1 and two Type 2 rules."""
        code, out, err = run_cli(
            ["rules-check", str(SAMPLES / "cbf.rules"),
             "--tagset", str(SAMPLES / "cbf.tagset")], capsys)
        assert (code, err) == (0, "")
        assert out == ("line 10: Type1 tag=trills weight=default\n"
                       "line 13: Type1 tag=fermata weight=3.0\n"
                       "line 16: Type1 tag=tonguing weight=default\n"
                       "line 19: Type1 tag=appoggiatura weight=2.5\n"
                       "line 22: Type2 tag=none weight=default\n"
                       "line 25: Type2 tag=mordent weight=1.5\n")

    def test_sample_melody(self):
        text = (SAMPLES / "demo.melody").read_text(encoding="utf-8")
        assert len(parse_melody(text)) == 11

    def test_syntax_error_exits_2(self, tmp_path, capsys):
        """A malformed rule file reports exit 2 and its location."""
        tagset_path = tmp_path / "tags.txt"
        tagset_path.write_text("none\ntrills\n")
        rules_path = tmp_path / "broken.rules"
        rules_path.write_text("IF duration(@t) >> 3 THEN tag(@t) = trills\n")
        code, _, err = run_cli([
            "rules-check", str(rules_path), "--tagset", str(tagset_path),
        ], capsys)
        assert code == 2
        assert "line 1" in err

    def test_syntax_error_names_what_was_expected(self, tmp_path, capsys):
        tagset_path = tmp_path / "tags.txt"
        tagset_path.write_text("none\ntrills\n")
        rules_path = tmp_path / "broken.rules"
        rules_path.write_text("IF duration(@t) > 3 THEN tag(@t) trills\n")
        code, out, err = run_cli([
            "rules-check", str(rules_path), "--tagset", str(tagset_path),
        ], capsys)
        assert (code, out) == (2, "")
        assert err == (f"error: {rules_path}: unexpected token 'trills' "
                       "(line 1, column 34; expected '=')\n")

    @pytest.mark.parametrize("text", [
        "IF duration(@t) > 3 THEN tag(@t) = trills WEIGHT 1/0\n",
        "IF duration(@t) > 3 THEN tag(@t) = trills WEIGHT 1e400\n",
        "H1 1/0\nIF duration(@t) > 3 THEN tag(@t) = trills\n",
        "H1 1e400\nIF duration(@t) > 3 THEN tag(@t) = trills\n",
        "H2 1/0\nIF duration(@t) > 3 THEN tag(@t) = trills\n",
        "H2 1e400\nIF duration(@t) > 3 THEN tag(@t) = trills\n",
    ])
    def test_bad_number_exits_2(self, tmp_path, capsys, text):
        """A zero denominator or an overflowing weight is bad input."""
        tagset_path = tmp_path / "tags.txt"
        tagset_path.write_text("none\ntrills\n")
        rules_path = tmp_path / "bad.rules"
        rules_path.write_text(text)
        code, out, err = run_cli([
            "rules-check", str(rules_path), "--tagset", str(tagset_path),
        ], capsys)
        assert code == 2
        assert out == ""
        assert "line 1" in err

    @pytest.mark.parametrize("text", [
        "IF duration(@t+{long}) > 3 THEN tag(@t) = trills\n",
        "IF midi(@t) > {long} THEN tag(@t) = trills\n",
        "IF duration(@t) > 1e10000000 THEN tag(@t) = trills\n",
        "IF duration(@t) > 3 THEN tag(@t) = trills WEIGHT \u0663\n",
    ])
    def test_oversized_or_non_ascii_number_exits_2(self, tmp_path, capsys,
                                                   text):
        """Numbers past the digit limit or in non-ASCII digits: exit 2."""
        tagset_path = tmp_path / "tags.txt"
        tagset_path.write_text("none\ntrills\n")
        rules_path = tmp_path / "bad.rules"
        rules_path.write_text(text.format(long="1" * (digit_limit() + 1)),
                              encoding="utf-8")
        code, out, err = run_cli([
            "rules-check", str(rules_path), "--tagset", str(tagset_path),
        ], capsys)
        assert code == 2
        assert out == ""
        assert "line 1, column" in err
