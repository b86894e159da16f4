"""Command-line front end: run, grid, report, fetch-data, selftest.

Settings are layered in a fixed order: built-in defaults, then a preset
(``--preset desk|paper``), then a config file, then the ``DATA_DIR``
environment variable (data directory only), then flags. All randomness
flows from the single ``seed`` setting; nothing reads the clock.

Every setting's INI key, flag, parser and INI text come from one table,
:data:`~forgetlab.harness.SETTINGS`: the key is the field name and the
flag is ``--field-name``, except for the older spellings in
:data:`~forgetlab.harness.ALIASES` (``tasks``/``--tasks`` for
``num_tasks``, ``lambda``/``--lambda`` for ``lam``, and so on). Tuples
are comma-separated (``architecture = 784,300,10``), booleans take
true/false (flags come in ``--x``/``--no-x`` pairs), and ``none`` clears
an optional value. A field's ``choices`` metadata gives its flag's
choices; a config-file value is checked against the same metadata when
the config is built (:func:`~forgetlab.numerics.check_fields`). ``grid``
also reads ``[grid] lambdas`` or ``--lambda-grid``. ``forgetlab run
--help`` lists every flag with its INI key and built-in default.

A config file is INI or a CSV that forgetlab wrote, whose manifest is the
effective config as that INI text: ``forgetlab run --config
out/eval_matrix.csv --out rerun`` reruns it. Without ``--out`` it would
write to the manifest's ``out_dir``, so a ``run`` or ``grid`` whose CSV
would overwrite its own config file is refused before any training.
This module only opens the file;
:func:`~forgetlab.reports.manifest_settings` takes a CSV's settings
out of its manifest and :func:`~forgetlab.harness.read_settings` reads
the INI text (without ``%`` interpolation; a non-empty ``[DEFAULT]`` is
refused). Bad input (``ValueError``, ``OSError``, ``FloatingPointError``)
exits 2 with one line; any other exception is a bug and keeps its
traceback.
``report`` re-renders each CSV as the SVG its header calls for; it reads
every CSV before writing any SVG, and refuses two inputs that would write
the same SVG.
"""

from __future__ import annotations

import argparse
import dataclasses
import os
import sys

import numpy as np

from .continual import StrategyConfig, attenuation_closed_forms
from .data import fetch_idx_files
from .harness import (
    DEFAULT_LAMBDA_GRID,
    DESK_LAMBDA_GRID,
    LAMBDA_GRID,
    SECTIONS,
    SETTINGS,
    EvalMatrix,
    ExperimentConfig,
    LambdaSurface,
    Setting,
    average_accuracy,
    desk_preset,
    grid_search,
    paper_preset,
    read_settings,
    run_sequence,
    sgd_target_equivalence,
)
from .model import init_params, max_relative_gradient_error
from .numerics import stream
from .optim import OptimizerConfig
from .reports import emit_reports, manifest_settings, read_report_csv, render_svg, report_csv_path


_DESTS = {s.dest for s in SETTINGS + [LAMBDA_GRID]}

PRESETS = {
    "desk": (desk_preset, DESK_LAMBDA_GRID),
    "paper": (paper_preset, DEFAULT_LAMBDA_GRID),
}


def _read_config_file(path: str) -> dict:
    """Parsed values of an INI file or of a CSV artifact's manifest, keyed by setting ``dest``.

    :func:`~forgetlab.reports.manifest_settings` finds an artifact's INI lines
    and :func:`~forgetlab.harness.read_settings` reads them.
    """
    try:
        with open(path, encoding="utf-8") as fh:
            lines = list(fh)
    except OSError:
        raise OSError(f"cannot read config file {path}") from None
    except UnicodeDecodeError as exc:
        raise ValueError(f"{path}: {exc}") from None
    if (settings := manifest_settings(lines)) == []:
        raise ValueError(f"{path}: its manifest holds no [section] of settings")
    return read_settings(lines if settings is None else settings, path)


def build_config(args) -> tuple[ExperimentConfig, tuple[float, ...]]:
    """The effective config and lambda grid for parsed ``run``/``grid`` args.

    Layers apply in order: defaults, preset, config file, ``DATA_DIR``,
    flags. The config dataclasses are built once, from the final values,
    so their validation sees the combination that will run.
    """
    make_base, grid = PRESETS.get(args.preset, (ExperimentConfig, DEFAULT_LAMBDA_GRID))
    values = _read_config_file(args.config) if args.config else {}
    if os.environ.get("DATA_DIR"):
        values["experiment.data_dir"] = os.environ["DATA_DIR"]
    # flags not given are absent from args, so a given `none` still overrides
    values.update((k, v) for k, v in vars(args).items() if k in _DESTS)
    grid = values.pop(LAMBDA_GRID.dest, grid)
    fields = {section: {} for section in SECTIONS}
    for dest, value in values.items():
        section, name = dest.split(".")
        fields[section][name] = value
    base = make_base()
    config = dataclasses.replace(
        base,
        optimizer=dataclasses.replace(base.optimizer, **fields["optimizer"]),
        strategy=dataclasses.replace(base.strategy, **fields["strategy"]),
        **fields["experiment"],
    )
    return config, tuple(grid)


def _keep_config_file(args, config: ExperimentConfig, result_type: type):
    """Refuse, before any training, a run whose CSV would overwrite its own config file."""
    written = report_csv_path(result_type, config.out_dir)
    if args.config and os.path.exists(written) and os.path.samefile(args.config, written):
        raise ValueError(f"config file {args.config} would be overwritten by {written}; pass --out")


def _add_flag(parser, setting: Setting):
    kwargs = dict(dest=setting.dest, default=argparse.SUPPRESS, help=setting.help)
    if setting.boolean:
        parser.add_argument(setting.flag, action=argparse.BooleanOptionalAction, **kwargs)
    else:
        metavar = None if setting.choices else setting.name.upper()
        parser.add_argument(
            setting.flag, type=setting.parse, choices=setting.choices, metavar=metavar, **kwargs
        )


def _add_experiment_flags(parser):
    parser.add_argument(
        "--config", help="INI config file, or a CSV artifact to rerun (see module docstring)"
    )
    parser.add_argument("--preset", choices=tuple(PRESETS))
    for setting in SETTINGS:
        _add_flag(parser, setting)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="forgetlab", description=__doc__.splitlines()[0])
    subparsers = parser.add_subparsers(dest="subcommand", required=True)

    run = subparsers.add_parser("run", help="train a task sequence and report")
    _add_experiment_flags(run)
    run.set_defaults(func=cmd_run)

    grid = subparsers.add_parser("grid", help="sweep lambda over a grid")
    _add_experiment_flags(grid)
    _add_flag(grid, LAMBDA_GRID)
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
    config, _ = build_config(args)
    _keep_config_file(args, config, EvalMatrix)
    result = run_sequence(config)
    written = emit_reports(result, config.out_dir)
    final = config.num_tasks - 1
    print(f"average accuracy after task {final}: "
          f"{average_accuracy(result.matrix, final):.4f}")
    for path in written:
        print(f"wrote {path}")
    return 0


def cmd_grid(args) -> int:
    config, lambda_grid = build_config(args)
    _keep_config_file(args, config, LambdaSurface)
    surface = grid_search(config, lambda_grid)
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


def cmd_report(args) -> int:
    charts = {}
    for path in args.csv:
        out_dir = args.out_dir or (os.path.dirname(path) or ".")
        svg = os.path.join(out_dir, os.path.splitext(os.path.basename(path))[0] + ".svg")
        if (key := os.path.realpath(svg)) in charts:
            raise ValueError(f"{charts[key][0]} and {path} would both write {svg}")
        charts[key] = (path, svg, read_report_csv(path))
    for _, svg, result in charts.values():
        os.makedirs(os.path.dirname(svg), exist_ok=True)
        print(f"wrote {render_svg(result, svg)}")
    return 0


def cmd_fetch_data(args) -> int:
    data_dir = args.data_dir or os.environ.get("DATA_DIR") or ExperimentConfig.data_dir
    fetched = fetch_idx_files(args.base_url, data_dir)
    for path in fetched:
        print(f"fetched {path}")
    return 0


def _selftest_gradients() -> tuple[bool, str]:
    # An oracle: float64 parameters and images, whatever a run's dtype.
    params = init_params(stream(202, 0), (4, 4, 3), dtype=np.float64)
    images = stream(202, 1).uniform(0.0, 1.0, (8, 4))
    labels = stream(202, 2).permutation(8) % 3
    worst = max_relative_gradient_error(params, images, labels)
    return worst < 1e-6, f"max relative gradient error {worst:.2e}"


def _selftest_sgd_equivalence() -> tuple[bool, str]:
    config = ExperimentConfig(
        num_tasks=2,
        epochs_per_task=1,
        batch_size=16,
        seed=303,
        architecture=(6, 5, 4),
        optimizer=OptimizerConfig(kind="sgd", learning_rate=0.1),
        strategy=StrategyConfig(kind="wva", lam=0.7),
        synthetic_samples_per_class=30,
        synthetic_spread=0.3,
    )
    return sgd_target_equivalence(config)


def cmd_selftest(args) -> int:
    checks = [
        ("gradient-check", _selftest_gradients),
        ("attenuation-bounds", attenuation_closed_forms),
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
    except SystemExit as exc:  # argparse exits 0 after --help, 2 after a usage error
        return 1 if exc.code else 0
    try:
        return args.func(args)
    except (ValueError, OSError, FloatingPointError) as exc:  # bad input; anything else is a bug
        print(f"forgetlab: error: {exc}", file=sys.stderr)
        return 2


def main(argv=None) -> int:
    return parse_and_dispatch(sys.argv[1:] if argv is None else argv)


if __name__ == "__main__":
    sys.exit(main())
