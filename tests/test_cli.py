"""End-to-end command-line behavior: exit codes, layering, artifacts."""

import dataclasses
import gzip
import os
import struct
import subprocess
import sys
import tempfile
import typing
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from forgetlab import cli, harness
from forgetlab.cli import build_config, build_parser, main, parse_and_dispatch
from forgetlab.continual import StrategyConfig
from forgetlab.data import IMAGE_MAGIC, LABEL_MAGIC, MNIST_FILE_NAMES
from forgetlab.harness import SETTINGS, EvalMatrix, ExperimentConfig, OptimizerConfig
from forgetlab.reports import emit_csv

TINY_INI = """
[experiment]
tasks = 2
epochs = 1
batch_size = 16
seed = 7
architecture = 12,10,4
synthetic_samples_per_class = 40
synthetic_spread = 0.2
eval_subset = 20

[optimizer]
kind = adam

[strategy]
kind = wva
lambda = 0.5
target = step
"""


@pytest.fixture
def tiny_config(tmp_path):
    path = tmp_path / "tiny.ini"
    path.write_text(TINY_INI)
    return str(path)


def run_cli(*argv):
    return parse_and_dispatch(list(argv))


SECTIONS = {"experiment": ExperimentConfig, "optimizer": OptimizerConfig, "strategy": StrategyConfig}


def numeric_kinds(hint):
    """The scalar types a field's hint admits: ``Optional[int]`` gives int and NoneType."""
    return set(typing.get_args(hint)) if typing.get_origin(hint) is typing.Union else {hint}


def bound_cases():
    """(setting, a value just outside one declared bound, that bound if inclusive else None)."""
    for s in SETTINGS:
        cls = SECTIONS[s.section]
        meta = {f.name: f.metadata for f in dataclasses.fields(cls)}[s.name]
        step = 1 if int in numeric_kinds(typing.get_type_hints(cls)[s.name]) else 0.5
        if "min" in meta:
            yield s, meta["min"] - step, meta["min"]
        if "max" in meta:
            yield s, meta["max"] + step, meta["max"]
        if "above" in meta:
            yield s, meta["above"], None


class TestUsageErrors:
    def test_no_arguments_prints_usage(self, capsys):
        assert run_cli() == 1
        assert "usage" in capsys.readouterr().err

    def test_unknown_subcommand(self, capsys):
        assert run_cli("dance") == 1
        assert "invalid choice" in capsys.readouterr().err

    def test_unknown_flag(self, capsys):
        assert run_cli("run", "--frobnicate") == 1
        assert "usage" in capsys.readouterr().err

    def test_bad_choice_value(self, capsys):
        assert run_cli("run", "--optimizer", "lbfgs") == 1
        assert "invalid choice" in capsys.readouterr().err

    def test_fetch_data_requires_base_url(self, capsys):
        assert run_cli("fetch-data") == 1
        assert "--base-url" in capsys.readouterr().err

    def test_help_exits_zero(self, capsys):
        assert run_cli("--help") == 0
        assert "run" in capsys.readouterr().out

    def test_run_help_shows_defaults_as_an_ini_file_spells_them(self, capsys):
        assert run_cli("run", "--help") == 0
        help_text = " ".join(capsys.readouterr().out.split())
        for default in ("784,300,150,10", "none", "false", "0.0", "synthetic"):
            assert f"(built-in default: {default})" in help_text
        assert "(784, 300, 150, 10)" not in help_text


class TestSettingsLayers:
    def test_config_file_overrides_defaults(self, tiny_config):
        config, _ = resolve(["run", "--config", tiny_config])
        assert config.num_tasks == 2
        assert config.seed == 7
        assert config.architecture == (12, 10, 4)
        assert config.strategy.kind == "wva"
        assert config.strategy.lam == 0.5

    def test_flags_override_config_file(self, tiny_config):
        config, _ = resolve(["run", "--config", tiny_config, "--seed", "9", "--lambda", "2.0"])
        assert config.seed == 9
        assert config.strategy.lam == 2.0
        assert config.num_tasks == 2

    def test_config_file_overrides_preset(self, tiny_config):
        config, _ = resolve(["run", "--preset", "desk", "--config", tiny_config])
        assert config.num_tasks == 2
        assert config.train_subset == 10_000

    def test_preset_changes_defaults_and_grid(self):
        desk, desk_grid = resolve(["grid", "--preset", "desk"])
        assert desk.num_tasks == 5
        assert len(desk_grid) == 7
        bare, bare_grid = resolve(["grid"])
        assert bare.num_tasks == 10
        assert len(bare_grid) == 13

    def test_data_dir_env_beats_config_but_not_flag(self, tiny_config, monkeypatch):
        monkeypatch.setenv("DATA_DIR", "/from-env")
        config, _ = resolve(["run", "--config", tiny_config])
        assert config.data_dir == "/from-env"
        config, _ = resolve(["run", "--config", tiny_config, "--data-dir", "/flag"])
        assert config.data_dir == "/flag"

    def test_boolean_flag_pair(self):
        on, _ = resolve(["run", "--strategy", "ewc", "--safe-coefficient"])
        assert on.strategy.safe_coefficient is True
        off, _ = resolve(["run", "--strategy", "ewc", "--no-safe-coefficient"])
        assert off.strategy.safe_coefficient is False

    def test_build_config_wires_nested_objects(self, tiny_config):
        config, _ = resolve(
            ["run", "--config", tiny_config, "--optimizer", "sgd", "--learning-rate", "0.3"]
        )
        assert config.optimizer.kind == "sgd"
        assert config.optimizer.resolved_rate == 0.3
        assert config.strategy.kind == "wva"
        assert config.num_tasks == 2

    def test_unknown_config_key_fails(self, tmp_path, capsys):
        path = tmp_path / "bad.ini"
        path.write_text("[experiment]\nwibble = 3\n")
        assert run_cli("run", "--config", str(path)) == 2
        assert "unknown config key" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "section,key",
        [
            ("experiment", "permute_first_task"),
            ("experiment", "carry_optimizer_state"),
            ("strategy", "normalize_importance"),
        ],
    )
    def test_retired_config_key_fails(self, section, key, tmp_path, capsys):
        # settings no experiment used were removed: a file naming one fails
        path = tmp_path / "retired.ini"
        path.write_text(f"[{section}]\n{key} = true\n")
        assert run_cli("run", "--config", str(path)) == 2
        assert f"unknown config key [{section}] {key}" in capsys.readouterr().err

    def test_retired_flag_is_a_usage_error(self, capsys):
        assert run_cli("run", "--carry-optimizer-state") == 1
        assert "usage" in capsys.readouterr().err

    def test_missing_config_file_fails(self, tmp_path, capsys):
        assert run_cli("run", "--config", str(tmp_path / "nope.ini")) == 2
        assert "cannot read" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "text",
        ["tasks = 2\n", "[experiment]\ntasks = 2\ntasks = 3\n", "[experiment]\ngarbage\n"],
        ids=["no-section", "duplicate-key", "no-delimiter"],
    )
    def test_malformed_config_file_is_one_line_naming_it(self, text, tmp_path, capsys):
        path = tmp_path / "bad.ini"
        path.write_text(text)
        assert run_cli("run", "--config", str(path)) == 2
        err = capsys.readouterr().err
        assert str(path) in err
        assert err.count("\n") == 1

    def test_undecodable_config_file_names_it(self, tmp_path, capsys):
        path = tmp_path / "latin1.ini"
        path.write_bytes(b"[experiment]\ndata_dir = caf\xe9\n")
        assert run_cli("run", "--config", str(path)) == 2
        assert f"forgetlab: error: {path}: 'utf-8' codec" in capsys.readouterr().err

    def test_percent_in_a_value_reads_as_written(self, tmp_path):
        # no interpolation: a path may hold '%'
        path = tmp_path / "pct.ini"
        path.write_text("[experiment]\nout_dir = out/100%done\ndata_dir = %(x)s\n")
        config, _ = resolve(["run", "--config", str(path)])
        assert (config.out_dir, config.data_dir) == ("out/100%done", "%(x)s")

    def test_ini_file_opening_with_a_comment_reads_as_ini(self, tmp_path):
        path = tmp_path / "commented.ini"
        path.write_text("# forgetlab settings for a short run\n[experiment]\ntasks = 3\n")
        assert resolve(["run", "--config", str(path)])[0].num_tasks == 3

    def test_artifact_without_settings_is_refused(self, tmp_path, capsys):
        # a manifest from before the settings were written as INI sections
        path = tmp_path / "old.csv"
        path.write_text(f"# forgetlab 0.1.0\n# num_tasks = 3\n{MATRIX_HEADER}\n0,0,0.9,10\n")
        assert run_cli("run", "--config", str(path)) == 2
        assert f"{path}: its manifest holds no [section]" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "text",
        ["[DEFAULT]\ntasks = 3\n", "[DEFAULT]\nseed = 7\n[experiment]\ntasks = 2\n"],
        ids=["defaults-only", "defaults-into-a-section"],
    )
    def test_default_section_is_refused(self, text, tmp_path, capsys):
        # ConfigParser would ignore its keys, or copy them into every section
        path = tmp_path / "defaults.ini"
        path.write_text(text)
        assert run_cli("run", "--config", str(path)) == 2
        err = capsys.readouterr().err
        assert err == f"forgetlab: error: {path}: [DEFAULT] is not a section forgetlab reads\n"

    def test_empty_default_section_reads_as_nothing(self, tmp_path):
        path = tmp_path / "empty-defaults.ini"
        path.write_text("[DEFAULT]\n[experiment]\ntasks = 2\n")
        config, _ = resolve(["run", "--config", str(path)])
        assert (config.num_tasks, config.seed) == (2, ExperimentConfig.seed)

    def test_bad_config_value_names_key(self, tmp_path, capsys):
        path = tmp_path / "bad.ini"
        path.write_text("[experiment]\ntasks = many\n")
        assert run_cli("run", "--config", str(path)) == 2
        assert "tasks" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "setting", [s for s in SETTINGS if s.choices], ids=lambda s: s.dest
    )
    def test_config_value_outside_choices_fails(self, setting, tmp_path, capsys):
        # argparse checks a flag's choices; the config file is checked by the config
        path = tmp_path / "bad.ini"
        path.write_text(f"[{setting.section}]\n{setting.key} = bogus\n")
        assert run_cli("run", "--config", str(path)) == 2
        assert f"{setting.name} must be one of" in capsys.readouterr().err

    @pytest.mark.parametrize("value", ["nan", "inf"])
    @pytest.mark.parametrize(
        "setting",
        [s for s in SETTINGS if typing.get_type_hints(SECTIONS[s.section])[s.name]
         in (float, typing.Optional[float])],
        ids=lambda s: s.dest,
    )
    def test_non_finite_float_setting_fails(self, setting, value, tmp_path, capsys):
        path = tmp_path / "bad.ini"
        path.write_text(f"[{setting.section}]\n{setting.key} = {value}\n")
        out = tmp_path / "out"
        assert run_cli("run", "--preset", "desk", "--config", str(path), "--out", str(out)) == 2
        assert f"{setting.name} must be finite" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "flag,value,name",
        [
            ("--architecture", "12,10,0", "architecture"),
            ("--synthetic-samples-per-class", "1", "synthetic_samples_per_class"),
            ("--synthetic-spread", "0", "synthetic_spread"),
        ],
    )
    def test_bad_synthetic_setting_fails_before_running(
        self, flag, value, name, tmp_path, capsys
    ):
        out = tmp_path / "out"
        assert run_cli("run", "--preset", "desk", flag, value, "--out", str(out)) == 2
        assert name in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "setting,outside,boundary",
        list(bound_cases()),
        ids=lambda v: v.dest if isinstance(v, tuple) else repr(v),
    )
    def test_config_value_outside_bounds_fails(
        self, setting, outside, boundary, tmp_path, capsys
    ):
        # the clip threshold applies to anchored penalties only
        companion = "kind = ewc\n" if setting.name == "separate_clip_threshold" else ""
        path = tmp_path / "bad.ini"
        path.write_text(f"[{setting.section}]\n{companion}{setting.key} = {outside}\n")
        out = tmp_path / "out"
        assert run_cli("run", "--preset", "desk", "--config", str(path), "--out", str(out)) == 2
        assert f"{setting.name} must " in capsys.readouterr().err
        assert not out.exists()
        if boundary is not None:
            path.write_text(f"[{setting.section}]\n{companion}{setting.key} = {boundary}\n")
            config, _ = resolve(["run", "--preset", "desk", "--config", str(path)])
            assert value_of(config, setting.section, setting.name) == boundary

    def test_every_numeric_setting_declares_a_bound(self):
        unbounded = [
            f"{section}.{f.name}"
            for section, cls in SECTIONS.items()
            for f in dataclasses.fields(cls)
            if numeric_kinds(typing.get_type_hints(cls)[f.name]) & {int, float}
            and not {"min", "above"} & set(f.metadata)
        ]
        assert unbounded == []


def resolve(argv):
    return build_config(build_parser().parse_args(argv))


# The documented spellings that differ from the field name: (INI key, flag).
LEGACY_SPELLINGS = {
    ("experiment", "num_tasks"): ("tasks", "--tasks"),
    ("experiment", "epochs_per_task"): ("epochs", "--epochs"),
    ("experiment", "out_dir"): ("out_dir", "--out"),
    ("optimizer", "kind"): ("kind", "--optimizer"),
    ("strategy", "kind"): ("kind", "--strategy"),
    ("strategy", "lam"): ("lambda", "--lambda"),
    ("strategy", "online_decay"): ("gamma", "--gamma"),
    ("strategy", "separate_clip_threshold"): ("clip", "--clip"),
}

# A non-default value for every setting, with the settings it needs to be valid.
EWC = {("strategy", "kind"): "ewc"}
NON_DEFAULT = {
    ("experiment", "source"): ("mnist", {}),
    ("experiment", "num_tasks"): ("3", {}),
    ("experiment", "epochs_per_task"): ("2", {}),
    ("experiment", "batch_size"): ("32", {}),
    ("experiment", "seed"): ("5", {}),
    ("experiment", "architecture"): ("784,20,10", {}),
    ("experiment", "train_subset"): ("500", {}),
    ("experiment", "eval_subset"): ("200", {}),
    ("experiment", "save_checkpoints"): ("true", {}),
    ("experiment", "synthetic_samples_per_class"): ("40", {}),
    ("experiment", "synthetic_spread"): ("0.5", {}),
    ("experiment", "data_dir"): ("elsewhere", {}),
    ("experiment", "out_dir"): ("results", {}),
    ("optimizer", "kind"): ("sgd", {}),
    ("optimizer", "learning_rate"): ("0.05", {}),
    ("strategy", "kind"): ("wva", {}),
    ("strategy", "lam"): ("3.5", {}),
    ("strategy", "online_decay"): ("0.8", {}),
    ("strategy", "attenuation"): ("exponential", {}),
    ("strategy", "target"): ("gradient", {}),
    ("strategy", "estimator"): ("fisher", {}),
    ("strategy", "safe_coefficient"): ("true", EWC),
    ("strategy", "separate_clip_threshold"): ("2.0", EWC),
}


def all_settings():
    for section, cls in SECTIONS.items():
        hints = typing.get_type_hints(cls)
        for f in dataclasses.fields(cls):
            if not dataclasses.is_dataclass(hints[f.name]):
                yield section, f.name, hints[f.name]


def spellings(section, name):
    return LEGACY_SPELLINGS.get((section, name), (name, "--" + name.replace("_", "-")))


def value_of(config, section, name):
    return getattr(config if section == "experiment" else getattr(config, section), name)


def write_ini(tmp_path, values):
    lines = []
    for section in SECTIONS:
        lines.append(f"[{section}]")
        for (s, name), text in values.items():
            if s == section:
                lines.append(f"{spellings(s, name)[0]} = {text}")
    path = tmp_path / "settings.ini"
    path.write_text("\n".join(lines) + "\n")
    return str(path)


def via_ini(tmp_path, values, *extra_argv):
    return resolve(["run", *extra_argv, "--config", write_ini(tmp_path, values)])[0]


def via_flags(values):
    argv = ["run"]
    for (section, name), text in values.items():
        flag = spellings(section, name)[1]
        if text in ("true", "false"):
            argv.append(flag if text == "true" else "--no-" + flag[2:])
        else:
            argv += [flag, text]
    return resolve(argv)[0]


class TestSettingsParity:
    @pytest.fixture(autouse=True)
    def no_data_dir_env(self, monkeypatch):
        monkeypatch.delenv("DATA_DIR", raising=False)

    def test_every_field_has_a_non_default_case(self):
        assert {(s, n) for s, n, _ in all_settings()} == set(NON_DEFAULT)

    @pytest.mark.parametrize("section,name", sorted(NON_DEFAULT))
    def test_ini_key_and_flag_agree(self, section, name, tmp_path):
        text, companions = NON_DEFAULT[(section, name)]
        values = {**companions, (section, name): text}
        from_ini = via_ini(tmp_path, values)
        from_flags = via_flags(values)
        assert from_ini == from_flags
        assert value_of(from_ini, section, name) != getattr(SECTIONS[section](), name)

    @pytest.mark.parametrize(
        "section,name",
        [(s, n) for s, n, hint in all_settings() if type(None) in typing.get_args(hint)],
    )
    def test_optional_fields_accept_none(self, section, name, tmp_path):
        text, companions = NON_DEFAULT[(section, name)]
        # the desk preset sets both subsets, so `none` in the file clears them
        from_ini = via_ini(tmp_path, {**companions, (section, name): "none"}, "--preset", "desk")
        assert value_of(from_ini, section, name) is None
        # a `none` flag overrides a value the config file set
        ini = write_ini(tmp_path, {**companions, (section, name): text})
        assert value_of(resolve(["run", "--config", ini])[0], section, name) is not None
        from_flag = resolve(["run", "--config", ini, spellings(section, name)[1], "none"])[0]
        assert value_of(from_flag, section, name) is None

    def test_legacy_spellings_keep_their_meaning(self, tmp_path):
        config, _ = resolve(
            "run --tasks 3 --epochs 2 --out o --optimizer sgd "
            "--strategy ewc --lambda 4 --gamma 0.5 --clip 1.5".split()
        )
        assert (config.num_tasks, config.epochs_per_task, config.out_dir) == (3, 2, "o")
        assert config.optimizer.kind == "sgd"
        strategy = config.strategy
        assert (strategy.kind, strategy.lam, strategy.online_decay) == ("ewc", 4.0, 0.5)
        assert strategy.separate_clip_threshold == 1.5
        path = tmp_path / "legacy.ini"
        path.write_text(
            "[experiment]\ntasks = 3\nepochs = 2\nout_dir = o\n"
            "[optimizer]\nkind = sgd\n"
            "[strategy]\nkind = ewc\nlambda = 4\ngamma = 0.5\nclip = 1.5\n"
            "[grid]\nlambdas = 0.5,2\n"
        )
        from_file, grid = resolve(["grid", "--config", str(path)])
        assert from_file == config
        assert grid == (0.5, 2.0)
        assert resolve(["grid", "--config", str(path), "--lambda-grid", "1,3"])[1] == (1.0, 3.0)

    def test_desk_preset_on_the_full_train_split(self):
        config, _ = resolve(["run", "--preset", "desk", "--train-subset", "none"])
        assert config.train_subset is None
        assert config.eval_subset == 2_000


def data_rows(path):
    return [line for line in Path(path).read_text().splitlines() if not line.startswith("#")]


def manifest_diff(a, b):
    pairs = zip(Path(a).read_text().splitlines(), Path(b).read_text().splitlines())
    return [(x, y) for x, y in pairs if x != y]


class TestArtifactsRerun:
    @pytest.mark.parametrize(
        "flags",
        [
            [],
            ["--target", "gradient", "--attenuation", "exponential"],
            ["--strategy", "ewc", "--gamma", "0.9", "--safe-coefficient", "--lambda", "2"],
            ["--strategy", "ewc_multi_anchor", "--clip", "0.5", "--estimator", "fisher"],
        ],
        ids=["wva-step", "wva-gradient", "ewc-gamma-safe", "multi-anchor-clip"],
    )
    def test_run_from_its_own_csv_writes_the_same_rows(self, flags, tiny_config, tmp_path):
        first, again = tmp_path / "first", tmp_path / "again"
        assert run_cli("run", "--config", tiny_config, *flags, "--out", str(first)) == 0
        original = first / "eval_matrix.csv"
        assert run_cli("run", "--config", str(original), "--out", str(again)) == 0
        rerun = again / "eval_matrix.csv"
        assert data_rows(rerun) == data_rows(original)
        assert manifest_diff(original, rerun) == [
            (f"# out_dir = {first}", f"# out_dir = {again}")
        ]

    @pytest.mark.parametrize(
        "argv, csv",
        [(["run"], "eval_matrix.csv"), (["grid", "--lambda-grid", "0.1,1.0"], "surface.csv")],
        ids=["run", "grid"],
    )
    def test_rerun_over_its_own_csv_is_refused_before_training(
        self, argv, csv, tiny_config, tmp_path, monkeypatch, capsys
    ):
        # without --out the rerun takes the manifest's out_dir, where its config file lives
        out = tmp_path / "out"
        assert run_cli(*argv, "--config", tiny_config, "--out", str(out)) == 0
        artifact = out / csv
        before = artifact.read_bytes(), artifact.stat().st_mtime_ns
        capsys.readouterr()
        builds = []
        monkeypatch.setattr(harness, "build_tasks", builds.append)
        assert run_cli(argv[0], "--config", str(artifact)) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert f"config file {artifact} would be overwritten by {artifact}" in err
        assert builds == []
        assert (artifact.read_bytes(), artifact.stat().st_mtime_ns) == before

    def test_surface_manifest_reads_back_as_the_grid_config(self, tiny_config, tmp_path):
        out = tmp_path / "out"
        argv = ["grid", "--config", tiny_config, "--out", str(out), "--lambda-grid", "0.1,1.0"]
        assert run_cli(*argv) == 0
        config, _ = resolve(["grid", "--config", tiny_config, "--out", str(out)])
        assert resolve(["grid", "--config", str(out / "surface.csv")])[0] == config


def path_text():
    # any text at all, with the characters an INI reader treats specially drawn often
    return st.text(st.characters() | st.sampled_from(" \t\r\n\x0b\x0c\x85\xa0#;%=:[]"))


def non_negative(**bound):
    return st.floats(min_value=0.0, allow_nan=False, allow_infinity=False, **bound)


def drawn_value(setting):
    """A strategy for a value of ``setting`` within its declared choices and bounds."""
    if setting.choices:
        return st.sampled_from(setting.choices)
    cls = SECTIONS[setting.section]
    hint = typing.get_type_hints(cls)[setting.name]
    meta = {f.name: f.metadata for f in dataclasses.fields(cls)}[setting.name]
    kinds = numeric_kinds(hint)
    if hint is str:
        return path_text()
    if hint is bool:
        return st.booleans()
    if typing.get_origin(hint) is tuple:
        return st.lists(st.integers(min_value=1), min_size=2).map(tuple)
    if int in kinds:
        value = st.integers(min_value=meta["min"])
    elif "above" in meta:
        value = non_negative(exclude_min=True)
    else:
        value = non_negative(max_value=meta.get("max"))
    return value | st.none() if type(None) in kinds else value


@settings(max_examples=200, deadline=None)
@given(st.fixed_dictionaries({s.dest: drawn_value(s) for s in SETTINGS}))
def test_every_config_reads_back_from_its_manifest_or_is_refused(values):
    fields = {section: {} for section in SECTIONS}
    for dest, value in values.items():
        section, name = dest.split(".")
        fields[section][name] = value
    # follow the strategy's cross-field rules, so most drawn configs are built
    strategy = fields["strategy"]
    if strategy["kind"] not in ("ewc", "ewc_multi_anchor"):
        strategy.update(safe_coefficient=False, separate_clip_threshold=None)
    if strategy["kind"] == "ewc_multi_anchor":
        strategy["online_decay"] = 1.0
    try:
        config = ExperimentConfig(
            optimizer=OptimizerConfig(**fields["optimizer"]),
            strategy=StrategyConfig(**fields["strategy"]),
            **fields["experiment"],
        )
    except ValueError as exc:  # refused when built, before any training
        assert (name := str(exc).split()[0]) in {s.name for s in SETTINGS}, exc
        event(f"refused: {name}")
        return
    event("read back")
    matrix = EvalMatrix(np.array([[0.5]]), np.array([[10]]))
    with tempfile.TemporaryDirectory() as tmp, mock.patch.dict(os.environ):
        os.environ.pop("DATA_DIR", None)
        path = emit_csv(matrix, os.path.join(tmp, "eval_matrix.csv"), config)
        assert resolve(["run", "--config", path])[0] == config


class TestRunAndGrid:
    def test_run_writes_matrix_and_curves(self, tiny_config, tmp_path, capsys):
        out = tmp_path / "out"
        code = run_cli("run", "--config", tiny_config, "--out", str(out))
        assert code == 0
        assert (out / "eval_matrix.csv").exists()
        assert (out / "accuracy_curves.svg").exists()
        stdout = capsys.readouterr().out
        assert "average accuracy after task 1" in stdout
        manifest = (out / "eval_matrix.csv").read_text()
        assert "# seed = 7" in manifest
        assert "# [strategy]\n# kind = wva\n" in manifest

    def test_run_is_deterministic_on_disk(self, tiny_config, tmp_path):
        # the manifest echoes the effective config (including out_dir), so
        # a true repeat means pointing at the same place twice
        out = tmp_path / "out"
        assert run_cli("run", "--config", tiny_config, "--out", str(out)) == 0
        first = (out / "eval_matrix.csv").read_bytes()
        assert run_cli("run", "--config", tiny_config, "--out", str(out)) == 0
        assert (out / "eval_matrix.csv").read_bytes() == first

    def test_grid_writes_surface(self, tiny_config, tmp_path, capsys):
        out = tmp_path / "out"
        code = run_cli(
            "grid",
            "--config",
            tiny_config,
            "--out",
            str(out),
            "--lambda-grid",
            "0.1,1.0",
        )
        assert code == 0
        assert (out / "surface.csv").exists()
        assert (out / "surface_heatmap.svg").exists()
        assert "best lambda after task 1" in capsys.readouterr().out

    def test_grid_rejects_unsorted_grid(self, tiny_config, tmp_path, capsys):
        code = run_cli(
            "grid",
            "--config",
            tiny_config,
            "--out",
            str(tmp_path / "out"),
            "--lambda-grid",
            "1.0,1.0",
        )
        assert code == 2
        assert "strictly increasing" in capsys.readouterr().err

    def test_grid_refuses_save_checkpoints(self, tiny_config, tmp_path, capsys):
        out = tmp_path / "out"
        code = run_cli(
            "grid", "--config", tiny_config, "--out", str(out), "--save-checkpoints",
            "--lambda-grid", "0.1,1.0",
        )
        assert code == 2
        assert "save_checkpoints" in capsys.readouterr().err
        assert not out.exists()

    def test_invalid_combination_is_runtime_error(self, capsys):
        # safe coefficient only applies to anchored penalties
        code = run_cli("run", "--strategy", "wva", "--safe-coefficient")
        assert code == 2
        assert "safe" in capsys.readouterr().err.lower()


MATRIX_HEADER = "after_task,eval_task,accuracy,n_samples"


class TestReportCommand:
    def test_rerenders_both_csv_kinds(self, tiny_config, tmp_path):
        out = tmp_path / "out"
        run_cli("run", "--config", tiny_config, "--out", str(out))
        run_cli(
            "grid",
            "--config",
            tiny_config,
            "--out",
            str(out),
            "--lambda-grid",
            "0.1,1.0",
        )
        rerender = tmp_path / "rerender"
        code = run_cli(
            "report",
            str(out / "eval_matrix.csv"),
            str(out / "surface.csv"),
            "--out",
            str(rerender),
        )
        assert code == 0
        assert (rerender / "eval_matrix.svg").exists()
        assert (rerender / "surface.svg").exists()

    def test_unrecognized_csv_fails(self, tmp_path, capsys):
        path = tmp_path / "odd.csv"
        path.write_text("x,y\n1,2\n")
        assert run_cli("report", str(path)) == 2
        assert "unrecognized CSV header" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "rows",
        [
            # a negative eval task, then a duplicate cell; (1, 0) never written
            ["0,0,0.9,10", "1,-1,0.5,10", "1,1,0.7,10", "1,1,0.2,10"],
            # an upper-triangle cell in place of (0, 0)
            ["0,1,0.9,10", "1,0,0.5,10", "1,1,0.7,10"],
            # a short row
            ["0,0,0.9"],
            # a float not written as repr writes it
            ["0,0,0.90,10"],
        ],
        ids=["negative-and-duplicate", "upper-triangle", "short-row", "float-spelling"],
    )
    def test_malformed_matrix_rows_fail_naming_the_path(self, tmp_path, capsys, rows):
        path = tmp_path / "eval_matrix.csv"
        path.write_text("\n".join([MATRIX_HEADER, *rows]) + "\n")
        assert run_cli("report", str(path), "--out", str(tmp_path / "figs")) == 2
        assert str(path) in capsys.readouterr().err
        assert not (tmp_path / "figs").exists()

    def test_colliding_outputs_write_nothing(self, tmp_path, capsys):
        inputs = []
        for sub in ("a", "b"):
            (tmp_path / sub).mkdir()
            inputs.append(tmp_path / sub / "eval_matrix.csv")
            inputs[-1].write_text(MATRIX_HEADER + "\n0,0,0.9,10\n")
        figs = tmp_path / "figs"
        assert run_cli("report", *map(str, inputs), "--out", str(figs)) == 2
        err = capsys.readouterr().err
        assert str(inputs[0]) in err and str(inputs[1]) in err
        assert not list(figs.glob("*.svg"))

    def test_a_bad_input_writes_no_svg(self, tmp_path, capsys):
        good = tmp_path / "eval_matrix.csv"
        good.write_text(MATRIX_HEADER + "\n0,0,0.9,10\n")
        missing = tmp_path / "missing.csv"
        figs = tmp_path / "figs2"
        assert run_cli("report", str(good), str(missing), "--out", str(figs)) == 2
        assert str(missing) in capsys.readouterr().err
        assert not list(figs.glob("*.svg"))


class TestFetchData:
    def idx_bytes(self, magic, dims, payload):
        header = struct.pack(">i", magic) + b"".join(
            struct.pack(">i", d) for d in dims
        )
        return header + payload

    def test_downloads_into_data_dir(self, tmp_path, capsys):
        src = tmp_path / "src"
        src.mkdir()
        for key, name in MNIST_FILE_NAMES.items():
            if "images" in key:
                blob = self.idx_bytes(IMAGE_MAGIC, [3, 2, 2], bytes(12))
            else:
                blob = self.idx_bytes(LABEL_MAGIC, [3], bytes(3))
            (src / f"{name}.gz").write_bytes(gzip.compress(blob))
        dest = tmp_path / "dest"
        code = run_cli("fetch-data", "--base-url", src.as_uri(), "--data-dir", str(dest))
        assert code == 0
        assert len(os.listdir(dest)) == 4
        assert "fetched" in capsys.readouterr().out

    def test_missing_remote_fails(self, tmp_path, capsys):
        empty = tmp_path / "empty"
        empty.mkdir()
        code = run_cli(
            "fetch-data", "--base-url", empty.as_uri(), "--data-dir", str(tmp_path / "d")
        )
        assert code == 2
        assert capsys.readouterr().err


class TestErrors:
    def test_internal_error_keeps_its_traceback(self, monkeypatch):
        def broken(args):
            raise TypeError("a programming error")

        monkeypatch.setattr(cli, "cmd_selftest", broken)
        with pytest.raises(TypeError, match="a programming error"):
            run_cli("selftest")

    @pytest.mark.parametrize("error", [ValueError, OSError, FloatingPointError])
    def test_input_errors_exit_2_with_one_line(self, error, monkeypatch, capsys):
        def failing(args):
            raise error("bad input")

        monkeypatch.setattr(cli, "cmd_selftest", failing)
        assert run_cli("selftest") == 2
        assert capsys.readouterr().err == "forgetlab: error: bad input\n"


class TestSelftest:
    def test_passes_and_prints_each_check(self, capsys):
        assert run_cli("selftest") == 0
        out = capsys.readouterr().out
        assert out.count("PASS") == 3
        assert "gradient-check" in out
        assert "attenuation-bounds" in out
        assert "sgd-equivalence" in out


@pytest.mark.parametrize(
    "argv,code,stream,text",
    [(["--help"], 0, "stdout", "usage"), (["dance"], 1, "stderr", "invalid choice")],
    ids=["help", "unknown-subcommand"],
)
def test_python_m_runs_the_cli(argv, code, stream, text):
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "forgetlab.cli", *argv],
        capture_output=True, text=True, timeout=120, env={**os.environ, "PYTHONPATH": path},
    )
    assert proc.returncode == code
    assert text in getattr(proc, stream)


def test_main_uses_provided_argv(capsys):
    assert main(["selftest"]) == 0
    capsys.readouterr()
