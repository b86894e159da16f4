"""Command-line front end: run, grid, report, fetch-data, selftest.

Settings are layered in a fixed order: built-in defaults, then a preset
(``--preset desk|paper``), then an INI config file, then the ``DATA_DIR``
environment variable (data directory only), then flags. The effective
config lands in the CSV manifest of every run, so an artifact records
exactly what produced it. All randomness flows from the single ``seed``
setting; nothing reads the clock.

Config file schema (INI, all keys optional)::

    [experiment]
    source = synthetic            ; or mnist
    tasks = 5
    epochs = 1
    batch_size = 100
    seed = 42
    architecture = 784,300,150,10
    train_subset = 10000          ; or none
    eval_subset = 2000            ; or none
    permute_first_task = false
    carry_optimizer_state = false
    save_checkpoints = false
    synthetic_classes = 10
    synthetic_samples_per_class = 1250
    synthetic_spread = 0.25
    data_dir = data
    out_dir = out

    [optimizer]
    kind = adam                   ; or sgd
    learning_rate = 0.001         ; empty/none = per-kind default

    [strategy]
    kind = wva                    ; none | ewc | ewc_multi_anchor | wva
    lambda = 0.316
    gamma = 1.0                   ; online decay for accumulated importance
    attenuation = hyperbolic      ; or exponential
    target = step                 ; or gradient
    estimator = total_abs_signal  ; or fisher
    safe_coefficient = false
    clip = none                   ; separate clipping threshold
    normalize_importance = false

    [grid]
    lambdas = 0.01,0.1,1.0,10.0
"""

from __future__ import annotations

import argparse
import configparser
import os
import sys

import numpy as np

from .continual import (
    ATTENUATION_KINDS,
    ESTIMATORS,
    STRATEGY_KINDS,
    TARGETS,
    StrategyConfig,
    estimate_total_abs_signal,
    make_wva_hook,
    wva_factor,
)
from .data import SyntheticSpec, batches, fetch_idx_files, synth_dataset
from .harness import (
    DEFAULT_LAMBDA_GRID,
    DESK_LAMBDA_GRID,
    ExperimentConfig,
    OptimizerConfig,
    average_accuracy,
    desk_preset,
    grid_search,
    paper_preset,
    run_sequence,
)
from .model import backward, cross_entropy, forward, init_params
from .numerics import RandomStream
from .optim import SgdConfig, apply
from .reports import (
    emit_reports,
    read_eval_matrix_csv,
    read_surface_csv,
    render_accuracy_curves,
    render_surface_heatmap,
)


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """Argparse that reports usage problems instead of exiting the process."""

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise _UsageError(message)


def _parse_bool(text: str) -> bool:
    lowered = text.strip().lower()
    if lowered in ("1", "true", "yes", "on"):
        return True
    if lowered in ("0", "false", "no", "off"):
        return False
    raise ValueError(f"not a boolean: {text!r}")


def _parse_optional(convert):
    def parse(text):
        return None if text.strip().lower() in ("", "none") else convert(text)

    return parse


def _parse_int_tuple(text: str) -> tuple[int, ...]:
    return tuple(int(part) for part in text.split(","))


def _parse_float_tuple(text: str) -> tuple[float, ...]:
    return tuple(float(part) for part in text.split(","))


# (section, option) -> (settings key, converter)
CONFIG_SCHEMA = {
    ("experiment", "source"): ("source", str),
    ("experiment", "tasks"): ("num_tasks", int),
    ("experiment", "epochs"): ("epochs_per_task", int),
    ("experiment", "batch_size"): ("batch_size", int),
    ("experiment", "seed"): ("seed", int),
    ("experiment", "architecture"): ("architecture", _parse_int_tuple),
    ("experiment", "train_subset"): ("train_subset", _parse_optional(int)),
    ("experiment", "eval_subset"): ("eval_subset", _parse_optional(int)),
    ("experiment", "permute_first_task"): ("permute_first_task", _parse_bool),
    ("experiment", "carry_optimizer_state"): ("carry_optimizer_state", _parse_bool),
    ("experiment", "save_checkpoints"): ("save_checkpoints", _parse_bool),
    ("experiment", "synthetic_classes"): ("synthetic_classes", int),
    ("experiment", "synthetic_samples_per_class"): ("synthetic_samples_per_class", int),
    ("experiment", "synthetic_spread"): ("synthetic_spread", float),
    ("experiment", "data_dir"): ("data_dir", str),
    ("experiment", "out_dir"): ("out_dir", str),
    ("optimizer", "kind"): ("optimizer_kind", str),
    ("optimizer", "learning_rate"): ("learning_rate", _parse_optional(float)),
    ("strategy", "kind"): ("strategy_kind", str),
    ("strategy", "lambda"): ("lam", float),
    ("strategy", "gamma"): ("online_decay", float),
    ("strategy", "attenuation"): ("attenuation", str),
    ("strategy", "target"): ("target", str),
    ("strategy", "estimator"): ("estimator", str),
    ("strategy", "safe_coefficient"): ("safe_coefficient", _parse_bool),
    ("strategy", "clip"): ("separate_clip_threshold", _parse_optional(float)),
    ("strategy", "normalize_importance"): ("normalize_importance", _parse_bool),
    ("grid", "lambdas"): ("lambda_grid", _parse_float_tuple),
}


def _settings_from(config: ExperimentConfig) -> dict:
    return {
        "source": config.source,
        "num_tasks": config.num_tasks,
        "epochs_per_task": config.epochs_per_task,
        "batch_size": config.batch_size,
        "seed": config.seed,
        "architecture": config.architecture,
        "train_subset": config.train_subset,
        "eval_subset": config.eval_subset,
        "permute_first_task": config.permute_first_task,
        "carry_optimizer_state": config.carry_optimizer_state,
        "save_checkpoints": config.save_checkpoints,
        "synthetic_classes": config.synthetic_classes,
        "synthetic_samples_per_class": config.synthetic_samples_per_class,
        "synthetic_spread": config.synthetic_spread,
        "data_dir": config.data_dir,
        "out_dir": config.out_dir,
        "optimizer_kind": config.optimizer.kind,
        "learning_rate": config.optimizer.learning_rate,
        "strategy_kind": config.strategy.kind,
        "lam": config.strategy.lam,
        "online_decay": config.strategy.online_decay,
        "attenuation": config.strategy.attenuation,
        "target": config.strategy.target,
        "estimator": config.strategy.estimator,
        "safe_coefficient": config.strategy.safe_coefficient,
        "separate_clip_threshold": config.strategy.separate_clip_threshold,
        "normalize_importance": config.strategy.normalize_importance,
        "lambda_grid": tuple(DEFAULT_LAMBDA_GRID),
    }


def _apply_config_file(settings: dict, path: str) -> None:
    parser = configparser.ConfigParser(inline_comment_prefixes=(";", "#"))
    read = parser.read(path)
    if not read:
        raise IOError(f"cannot read config file {path}")
    for section in parser.sections():
        for option, raw in parser.items(section):
            try:
                key, convert = CONFIG_SCHEMA[(section, option)]
            except KeyError:
                raise ValueError(
                    f"{path}: unknown config key [{section}] {option}"
                ) from None
            try:
                settings[key] = convert(raw)
            except ValueError as exc:
                raise ValueError(f"{path}: bad value for [{section}] {option}: {exc}")


def effective_settings(args) -> dict:
    """Defaults, then preset, then config file, then DATA_DIR, then flags."""
    preset = getattr(args, "preset", None)
    if preset == "desk":
        settings = _settings_from(desk_preset())
        settings["lambda_grid"] = tuple(DESK_LAMBDA_GRID)
    elif preset == "paper":
        settings = _settings_from(paper_preset())
    else:
        settings = _settings_from(ExperimentConfig())
    config_path = getattr(args, "config", None)
    if config_path:
        _apply_config_file(settings, config_path)
    if os.environ.get("DATA_DIR"):
        settings["data_dir"] = os.environ["DATA_DIR"]
    for key in settings:
        value = getattr(args, key, None)
        if value is not None:
            settings[key] = value
    return settings


def build_config(settings: dict) -> ExperimentConfig:
    optimizer = OptimizerConfig(
        kind=settings["optimizer_kind"], learning_rate=settings["learning_rate"]
    )
    strategy = StrategyConfig(
        kind=settings["strategy_kind"],
        lam=settings["lam"],
        online_decay=settings["online_decay"],
        attenuation=settings["attenuation"],
        target=settings["target"],
        estimator=settings["estimator"],
        safe_coefficient=settings["safe_coefficient"],
        separate_clip_threshold=settings["separate_clip_threshold"],
        normalize_importance=settings["normalize_importance"],
    )
    keys = (
        "source",
        "num_tasks",
        "epochs_per_task",
        "batch_size",
        "seed",
        "architecture",
        "train_subset",
        "eval_subset",
        "permute_first_task",
        "carry_optimizer_state",
        "save_checkpoints",
        "synthetic_classes",
        "synthetic_samples_per_class",
        "synthetic_spread",
        "data_dir",
        "out_dir",
    )
    return ExperimentConfig(
        optimizer=optimizer, strategy=strategy, **{k: settings[k] for k in keys}
    )


def _add_experiment_flags(parser):
    parser.add_argument("--config", help="INI config file (see module docstring)")
    parser.add_argument("--preset", choices=("desk", "paper"))
    parser.add_argument("--seed", type=int)
    parser.add_argument("--tasks", type=int, dest="num_tasks")
    parser.add_argument("--epochs", type=int, dest="epochs_per_task")
    parser.add_argument("--batch-size", type=int, dest="batch_size")
    parser.add_argument("--source", choices=("synthetic", "mnist"))
    parser.add_argument("--train-subset", type=int, dest="train_subset")
    parser.add_argument("--eval-subset", type=int, dest="eval_subset")
    parser.add_argument("--data-dir", dest="data_dir")
    parser.add_argument("--out", dest="out_dir")
    parser.add_argument(
        "--save-checkpoints",
        action=argparse.BooleanOptionalAction,
        default=None,
        dest="save_checkpoints",
    )
    parser.add_argument("--optimizer", choices=("sgd", "adam"), dest="optimizer_kind")
    parser.add_argument("--learning-rate", type=float, dest="learning_rate")
    parser.add_argument("--strategy", choices=STRATEGY_KINDS, dest="strategy_kind")
    parser.add_argument("--lambda", type=float, dest="lam")
    parser.add_argument("--gamma", type=float, dest="online_decay")
    parser.add_argument("--attenuation", choices=ATTENUATION_KINDS)
    parser.add_argument("--target", choices=TARGETS)
    parser.add_argument("--estimator", choices=ESTIMATORS)
    parser.add_argument(
        "--safe-coefficient",
        action=argparse.BooleanOptionalAction,
        default=None,
        dest="safe_coefficient",
    )
    parser.add_argument("--clip", type=float, dest="separate_clip_threshold")


def build_parser() -> _Parser:
    parser = _Parser(prog="forgetlab", description=__doc__.splitlines()[0])
    subparsers = parser.add_subparsers(dest="subcommand", required=True, parser_class=_Parser)

    run = subparsers.add_parser("run", help="train a task sequence and report")
    _add_experiment_flags(run)
    run.set_defaults(func=cmd_run)

    grid = subparsers.add_parser("grid", help="sweep lambda over a grid")
    _add_experiment_flags(grid)
    grid.add_argument(
        "--lambda-grid",
        type=_parse_float_tuple,
        dest="lambda_grid",
        help="comma-separated lambdas (default: preset grid)",
    )
    grid.set_defaults(func=cmd_grid)

    report = subparsers.add_parser("report", help="re-render SVG from existing CSV")
    report.add_argument("csv", nargs="+", help="eval-matrix or surface CSV files")
    report.add_argument("--out", dest="out_dir", help="directory for the SVGs")
    report.set_defaults(func=cmd_report)

    fetch = subparsers.add_parser("fetch-data", help="download and verify IDX files")
    fetch.add_argument("--base-url", required=True)
    fetch.add_argument("--data-dir", dest="data_dir")
    fetch.set_defaults(func=cmd_fetch_data)

    selftest = subparsers.add_parser("selftest", help="run built-in invariant checks")
    selftest.set_defaults(func=cmd_selftest)
    return parser


def cmd_run(args) -> int:
    config = build_config(effective_settings(args))
    result = run_sequence(config)
    written = emit_reports(result, config.out_dir)
    final = config.num_tasks - 1
    print(f"average accuracy after task {final}: "
          f"{average_accuracy(result.matrix, final):.4f}")
    for path in written:
        print(f"wrote {path}")
    return 0


def cmd_grid(args) -> int:
    settings = effective_settings(args)
    config = build_config(settings)
    surface = grid_search(config, settings["lambda_grid"])
    written = emit_reports(surface, config.out_dir)
    for lam, message in surface.failures:
        print(f"failed at lambda={lam:g}: {message}", file=sys.stderr)
    if len(surface.failures) == len(surface.lambdas):
        print("every grid point failed", file=sys.stderr)
        return 2
    final = config.num_tasks - 1
    print(f"best lambda after task {final}: {surface.argmax_lambda(final):g}")
    for path in written:
        print(f"wrote {path}")
    return 0


def _sniff_header(path: str) -> str:
    with open(path) as fh:
        for line in fh:
            if line.startswith("#") or not line.strip():
                continue
            return line.strip()
    raise ValueError(f"{path}: no header row")


def cmd_report(args) -> int:
    written = []
    for path in args.csv:
        out_dir = args.out_dir or (os.path.dirname(path) or ".")
        os.makedirs(out_dir, exist_ok=True)
        stem = os.path.splitext(os.path.basename(path))[0]
        target = os.path.join(out_dir, stem + ".svg")
        header = _sniff_header(path)
        if header == "after_task,eval_task,accuracy,n_samples":
            written.append(render_accuracy_curves(read_eval_matrix_csv(path), target))
        elif header == "lambda,tasks_learned,avg_accuracy":
            written.append(render_surface_heatmap(read_surface_csv(path), target))
        else:
            raise ValueError(f"{path}: unrecognized CSV header {header!r}")
    for path in written:
        print(f"wrote {path}")
    return 0


def cmd_fetch_data(args) -> int:
    data_dir = args.data_dir or os.environ.get("DATA_DIR") or "data"
    fetched = fetch_idx_files(args.base_url, data_dir)
    for path in fetched:
        print(f"fetched {path}")
    return 0


def _selftest_gradients() -> tuple[bool, str]:
    stream = RandomStream(202)
    params = init_params(stream.child(0), (4, 4, 3))
    images = stream.child(1).uniform(0.0, 1.0, (8, 4))
    labels = stream.child(2).permutation(8) % 3
    grads = backward(params, forward(params, images), labels)
    h = 1e-5
    worst = 0.0
    blocks = params.weights + params.biases
    grad_blocks = grads.weights + grads.biases
    for block_idx, block in enumerate(blocks):
        it = np.nditer(block, flags=["multi_index"])
        for _ in it:
            idx = it.multi_index
            saved = block[idx]
            block[idx] = saved + h
            up = cross_entropy(forward(params, images), labels)
            block[idx] = saved - h
            down = cross_entropy(forward(params, images), labels)
            block[idx] = saved
            numeric = (up - down) / (2 * h)
            analytic = grad_blocks[block_idx][idx]
            scale = max(1.0, abs(numeric), abs(analytic))
            worst = max(worst, abs(numeric - analytic) / scale)
    return worst < 1e-6, f"max relative gradient error {worst:.2e}"


def _selftest_attenuation() -> tuple[bool, str]:
    values = np.logspace(-6.0, 2.0, 60)
    hyp = wva_factor(values, 1.0, "hyperbolic")
    exp = wva_factor(values, 1.0, "exponential")
    ok = (
        np.all((hyp > 0) & (hyp <= 1))
        and np.all((exp > 0) & (exp <= 1))
        and np.all(hyp >= exp)
        and wva_factor(0.0, 1.0, "hyperbolic") == 1.0
        and wva_factor(0.0, 1.0, "exponential") == 1.0
        and wva_factor(1.0, 1.0, "hyperbolic") == 0.5
        and abs(wva_factor(np.log(2.0), 1.0, "exponential") - 0.5) < 1e-12
    )
    return bool(ok), "bounds, ordering, and fixed points on a 60-point grid"


def _selftest_sgd_equivalence() -> tuple[bool, str]:
    spec = SyntheticSpec(classes=4, dims=6, samples_per_class=30, cluster_spread=0.3, seed=11)
    dataset = synth_dataset(spec)
    stream = RandomStream(303)
    params = init_params(stream.child(0), (6, 5, 4))
    omega = estimate_total_abs_signal(params, dataset)
    optimizer = SgdConfig(learning_rate=0.1)
    routes = {}
    for target in ("gradient", "step"):
        trial = params.copy()
        hook = make_wva_hook(omega, 0.7, "hyperbolic", target)
        for images, labels in batches(dataset, 16, stream.child(1)):
            grads = backward(trial, forward(trial, images), labels)
            trial = apply(trial, grads, optimizer, hook)
        routes[target] = trial.flat
    identical = np.array_equal(routes["gradient"], routes["step"])
    return identical, "gradient-target and step-target runs are bit-identical"


def cmd_selftest(args) -> int:
    checks = [
        ("gradient-check", _selftest_gradients),
        ("attenuation-bounds", _selftest_attenuation),
        ("sgd-equivalence", _selftest_sgd_equivalence),
    ]
    failures = 0
    for name, check in checks:
        ok, detail = check()
        print(f"{name}: {'PASS' if ok else 'FAIL'} ({detail})")
        failures += not ok
    return 0 if failures == 0 else 2


def parse_and_dispatch(argv) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError:
        return 1
    except SystemExit as exc:  # argparse --help
        return int(exc.code or 0)
    try:
        return args.func(args)
    except KeyboardInterrupt:
        raise
    except Exception as exc:
        print(f"forgetlab: error: {exc}", file=sys.stderr)
        return 2


def main(argv=None) -> int:
    return parse_and_dispatch(sys.argv[1:] if argv is None else argv)
