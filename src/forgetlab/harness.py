"""Sequential-task training runs, evaluation matrices, and lambda grids.

Every random draw in a run comes from ``numerics.stream(seed, id, ...)``:
the seed is ``ExperimentConfig.seed``, the first key is a stream id
registered in :mod:`forgetlab.numerics`, and the task (and epoch) it
serves follow. So a config fully determines the trajectory: repeated
runs are bit-identical, and two runs differing only in strategy settings
see exactly the same data order and initial weights.

:data:`SETTINGS` spells each of the 23 config fields once: INI section and
key, flag, parser, and its inverse, the value's INI text. Beside it sit the
one writer and the one reader of that text: :func:`settings_lines` writes a
config as INI lines (a CSV manifest holds them), and :func:`read_settings`
reads INI lines back, so an artifact's manifest reads back as the config
that made it. A free-text path, ``data_dir`` or ``out_dir``, is refused
unless it is UTF-8 text (as a manifest is) and its line reads back unchanged.
"""

from __future__ import annotations

import configparser
import contextvars
import dataclasses
import io
import os
from dataclasses import dataclass, field
from typing import Any, Callable, NamedTuple, Optional, Union, get_args, get_origin, get_type_hints

import numpy as np

from .continual import ImportanceMap, Strategy, StrategyConfig
from .data import TaskDataset, batches, load_mnist, make_permuted_tasks, synth_dataset
from .model import (
    DEFAULT_LAYER_SIZES,
    MlpParams,
    accuracy,
    backward,
    cross_entropy,
    forward,
    global_norm,
    init_params,
    save_params,
)
from .numerics import (
    EVAL_SUBSET_STREAM_ID,
    INIT_STREAM_ID,
    SHUFFLE_STREAM_ID,
    TRAIN_SUBSET_STREAM_ID,
    NonFiniteError,
    check_fields,
    stream,
)
from .optim import Optimizer, OptimizerConfig, apply

SOURCES = ("synthetic", "mnist")

DEFAULT_LAMBDA_GRID = tuple(float(x) for x in np.logspace(-3.0, 3.0, 13))

# Seven half-decade points bracketing the desk-preset optimum for
# step-target attenuation. Calibrated on the desk preset (seed 42, float32):
# the best lambda after each of tasks 2..5 is 31.6 for the hyperbolic
# kind and 10 for the exponential kind, so the argmax stays strictly
# interior (acceptance criterion 8 pins these positions).
DESK_LAMBDA_GRID = (0.316, 1.0, 3.16, 10.0, 31.6, 100.0, 316.0)


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything that determines a run.

    Together with the fields of :class:`~forgetlab.optim.OptimizerConfig`
    and :class:`~forgetlab.continual.StrategyConfig`, these fields are the
    lab's settings: :data:`SETTINGS` derives their INI keys, flags and
    text from them. ``architecture`` runs from the input
    width to the class count; the synthetic source makes
    ``architecture[-1]`` classes. Every setting is checked when the config
    is built: each field's choices and bounds are declared in its metadata
    and checked by :func:`~forgetlab.numerics.check_fields` (with float
    finiteness); ``__post_init__`` adds the architecture's own shape (at
    least two positive widths) and that each path reads back unchanged
    from its INI line through :func:`read_settings`. The base data's width
    and labels are checked against ``architecture`` when the tasks are
    built (:func:`~forgetlab.data.make_permuted_tasks`).
    """

    source: str = field(default="synthetic", metadata={"choices": SOURCES})
    num_tasks: int = field(default=10, metadata={"min": 1})
    epochs_per_task: int = field(default=4, metadata={"min": 1})
    batch_size: int = field(default=100, metadata={"min": 1})
    seed: int = field(default=42, metadata={"min": 0})
    architecture: tuple[int, ...] = DEFAULT_LAYER_SIZES
    train_subset: Optional[int] = field(default=None, metadata={"min": 1})
    eval_subset: Optional[int] = field(default=None, metadata={"min": 1})
    save_checkpoints: bool = False
    optimizer: OptimizerConfig = field(default_factory=OptimizerConfig)
    strategy: StrategyConfig = field(default_factory=StrategyConfig)
    # the synthetic 80/20 split needs a train and a test sample of each class
    synthetic_samples_per_class: int = field(default=1250, metadata={"min": 2})
    synthetic_spread: float = field(default=0.25, metadata={"above": 0})
    data_dir: str = "data"
    out_dir: str = "out"

    def __post_init__(self):
        check_fields(self)
        if len(self.architecture) < 2 or any(n < 1 for n in self.architecture):
            raise ValueError(f"bad architecture {self.architecture}")
        for name in ("data_dir", "out_dir"):  # the free-text settings a manifest records
            value = getattr(self, name)
            # fed as a file would be, so "\r" breaks the line too; each INI key is its name
            line = io.StringIO(f"[experiment]\n{name} = {value}\n", newline=None)
            try:
                value.encode("utf-8")  # a manifest is UTF-8 text: no lone surrogate
                read_back = read_settings(line, name)
            except ValueError:  # not UTF-8, or broke into a line the reader refuses
                read_back = None
            if read_back != {f"experiment.{name}": value}:
                raise ValueError(f"{name} must read back from an INI line unchanged: {value!r}")


def desk_preset(**overrides) -> ExperimentConfig:
    """Laptop-scale protocol: 5 tasks, 1 epoch each, subsetted data.

    Every other setting is the config default, so it runs on the
    synthetic source with no downloads; pass ``source="mnist"`` (with
    data fetched) for the image version. Pairs with :data:`DESK_LAMBDA_GRID`.
    """
    base = dict(
        num_tasks=5,
        epochs_per_task=1,
        train_subset=10_000,
        eval_subset=2_000,
        # spread 0.9 makes the clusters overlap enough that training a
        # new permutation actually moves shared weights: each task still
        # reaches ~0.9+ accuracy, while an unprotected run loses ~20
        # points on the previous task (narrower clusters are separable
        # so early that the old decision boundary never degrades)
        synthetic_spread=0.9,
    )
    base.update(overrides)
    return ExperimentConfig(**base)


def paper_preset(**overrides) -> ExperimentConfig:
    """Full protocol on MNIST: the config defaults are the paper's, on the whole dataset."""
    return ExperimentConfig(**{"source": "mnist", **overrides})


def _parse_bool(text: str) -> bool:
    lowered = text.strip().lower()
    if lowered in ("1", "true", "yes", "on"):
        return True
    if lowered in ("0", "false", "no", "off"):
        return False
    raise ValueError(f"not a boolean: {text!r}")


def _spelling(hint) -> tuple[Callable[[str], Any], Callable[[Any], str]]:
    """A resolved field type's INI text parser and its inverse: ``parse(text(v)) == v``."""
    if get_origin(hint) is Union:  # Optional[T]
        (inner,) = (arg for arg in get_args(hint) if arg is not type(None))
        parse_inner, text_inner = _spelling(inner)

        def optional(text):
            return None if text.strip().lower() in ("", "none") else parse_inner(text)

        optional.__name__ = parse_inner.__name__  # argparse names it in errors
        return optional, lambda value: "none" if value is None else text_inner(value)
    if get_origin(hint) is tuple:  # tuple[T, ...]
        parse_item, text_item = _spelling(get_args(hint)[0])

        def comma_separated(text):
            return tuple(parse_item(part) for part in text.split(","))

        return comma_separated, lambda value: ",".join(map(text_item, value))
    if hint is bool:
        return _parse_bool, lambda value: "true" if value else "false"
    if hint is str:
        return str, str
    return hint, lambda value: repr(hint(value))  # int or float: repr reads back exactly


SECTIONS = dict(experiment=ExperimentConfig, optimizer=OptimizerConfig, strategy=StrategyConfig)

# Public spellings that differ from the field name: (INI key, flag).
ALIASES = {
    ("experiment", "num_tasks"): ("tasks", "--tasks"),
    ("experiment", "epochs_per_task"): ("epochs", "--epochs"),
    ("experiment", "out_dir"): ("out_dir", "--out"),
    ("optimizer", "kind"): ("kind", "--optimizer"),
    ("strategy", "kind"): ("kind", "--strategy"),
    ("strategy", "lam"): ("lambda", "--lambda"),
    ("strategy", "online_decay"): ("gamma", "--gamma"),
    ("strategy", "separate_clip_threshold"): ("clip", "--clip"),
}


class Setting(NamedTuple):
    """One setting's INI key, flag, value parser and its inverse, ``text``."""

    section: str
    name: str
    key: str
    flag: str
    parse: Callable[[str], Any]
    text: Callable[[Any], str]
    help: str
    choices: Optional[tuple] = None

    @property
    def dest(self) -> str:
        return f"{self.section}.{self.name}"

    @property
    def boolean(self) -> bool:
        """A true/false setting, whose flag comes as a ``--x``/``--no-x`` pair."""
        return self.parse is _parse_bool

    def value(self, config: ExperimentConfig):
        """This setting's value in ``config``."""
        owner = config if self.section == "experiment" else getattr(config, self.section)
        return getattr(owner, self.name)


def _derive_settings() -> list[Setting]:
    settings = []
    for section, cls in SECTIONS.items():
        hints = get_type_hints(cls)
        for f in dataclasses.fields(cls):
            if dataclasses.is_dataclass(hints[f.name]):
                continue  # a nested section, not a setting
            key, flag = ALIASES.get((section, f.name), (f.name, "--" + f.name.replace("_", "-")))
            parse, text = _spelling(hints[f.name])
            help_text = f"[{section}] {key} (built-in default: {text(f.default)})"
            choices = f.metadata.get("choices")
            settings.append(Setting(section, f.name, key, flag, parse, text, help_text, choices))
    return settings


# Every setting, grouped by section in field order: the command line's INI
# keys and flags, and the INI text of each CSV manifest.
SETTINGS = _derive_settings()
LAMBDA_GRID = Setting(
    "grid", "lambdas", "lambdas", "--lambda-grid", *_spelling(tuple[float, ...]),
    "[grid] lambdas, comma-separated (default: the preset's grid)",
)
_BY_KEY = {(s.section, s.key): s for s in SETTINGS + [LAMBDA_GRID]}


def settings_lines(config: ExperimentConfig) -> list[str]:
    """``config`` as the INI text :func:`read_settings` reads, keys in field order."""
    lines = []
    for section in SECTIONS:
        lines.append(f"[{section}]")
        lines += (f"{s.key} = {s.text(s.value(config))}" for s in SETTINGS if s.section == section)
    return lines


def read_settings(lines, origin: str) -> dict:
    """The settings in INI ``lines``, parsed and keyed by setting ``dest``.

    Values are read as written, ``%`` included (no interpolation). A ``#``
    or ``;`` that opens a value or follows whitespace starts a comment, and
    whitespace at either end is dropped. Every error is a one-line
    ``ValueError`` naming ``origin``: a malformed line, an unknown key, a
    bad value, or a non-empty ``[DEFAULT]``, whose keys the reader would
    copy into every section.
    """
    parser = configparser.ConfigParser(inline_comment_prefixes=(";", "#"), interpolation=None)
    try:
        parser.read_file(lines, source=origin)
    except configparser.Error as exc:  # no section header, a duplicate key, an unparsable line
        raise ValueError(" ".join(str(exc).split())) from None
    if parser.defaults():
        raise ValueError(f"{origin}: [DEFAULT] is not a section forgetlab reads")
    values = {}
    for section in parser.sections():
        for key, raw in parser.items(section):
            setting = _BY_KEY.get((section, key))
            if setting is None:
                raise ValueError(f"{origin}: unknown config key [{section}] {key}")
            try:
                values[setting.dest] = setting.parse(raw)
            except ValueError as exc:
                raise ValueError(f"{origin}: bad value for [{section}] {key}: {exc}") from None
    return values


@dataclass
class EvalMatrix:
    """acc[t, j]: accuracy on task j's test split after training task t (j <= t).

    Both arrays are square, one row and column per task: each builder
    (:func:`run_sequence`, :func:`grid_search`'s failed lambda and
    ``reports.read_report_csv``) makes them so.
    """

    accuracies: np.ndarray
    n_samples: np.ndarray

    @property
    def num_tasks(self) -> int:
        return self.accuracies.shape[0]


def average_accuracy(matrix: EvalMatrix, t: int) -> float:
    """Unweighted mean accuracy over tasks 0..t after training task t."""
    if not 0 <= t < matrix.num_tasks:
        raise ValueError(f"task index {t} outside 0..{matrix.num_tasks - 1}")
    row = matrix.accuracies[t, : t + 1]
    if np.any(np.isnan(row)):
        raise ValueError(f"row {t} is incomplete")
    return float(row.mean())


@dataclass
class RunResult:
    matrix: EvalMatrix
    params: MlpParams
    config: ExperimentConfig


def build_tasks(config: ExperimentConfig) -> list[TaskDataset]:
    """Build the permuted task sequence for a config.

    With ``train_subset`` below the train split's size, the subset's
    rows are drawn from the split's row count before any image is read
    or drawn, and the source builds only those rows, in the drawn order.
    The tasks share one read-only copy of that base data, in uint8 pixel
    levels; each task's pixels are gathered per batch or chunk, in the
    run dtype (float32).
    """

    def train_picks(n: int) -> Optional[np.ndarray]:
        if config.train_subset is None or config.train_subset >= n:
            return None
        rng = stream(config.seed, TRAIN_SUBSET_STREAM_ID)
        return rng.choice(n, config.train_subset, replace=False)

    if config.source == "synthetic":
        base_train, base_test = synth_dataset(
            config.architecture[-1],
            config.architecture[0],
            config.synthetic_samples_per_class,
            config.synthetic_spread,
            config.seed,
            pick_rows=train_picks,
        )
    else:
        base_train, base_test = load_mnist(config.data_dir, pick_rows=train_picks)
    return make_permuted_tasks(
        base_train,
        base_test,
        config.num_tasks,
        config.seed,
        expected_width=config.architecture[0],
        classes=config.architecture[-1],
    )


def _eval_splits(config: ExperimentConfig, tasks: list[TaskDataset]):
    """Per-task ``(picks, labels)`` of the test rows to evaluate on.

    ``picks`` selects each task's eval subset, drawn once per run from a
    task-keyed stream (None for the whole test split). Only indices and
    labels are kept; the caller walks a task's rows with
    ``task.chunks("test", picks)`` when it evaluates that task.
    """
    splits = []
    for task in tasks:
        picks, y = None, task.test_labels
        if config.eval_subset is not None and config.eval_subset < len(y):
            picks = stream(config.seed, EVAL_SUBSET_STREAM_ID, task.task_id).choice(
                len(y), config.eval_subset, replace=False
            )
            y = y[picks]
        splits.append((picks, y))
    return splits


@dataclass
class _TaskZero:
    """Task 0's outcome, shared by the runs of one :func:`grid_search`.

    ``configs`` are the grid's run configs, by increasing lambda, and
    ``tasks`` its task list. No strategy has a hook while task 0 trains,
    so task 0's trained parameters, its eval entry and its raw importance
    map (checked, no safe coefficient applied) are the same for every
    lambda. The first run through task 0 writes them whole
    (:meth:`write`); until then ``params`` is None.
    """

    configs: list[ExperimentConfig]
    tasks: list[TaskDataset]
    params: Optional[MlpParams] = None
    omega: Optional[ImportanceMap] = None
    eval_entry: Optional[tuple[float, int]] = None

    def write(self, params: MlpParams, eval_entry: tuple[float, int], omega):
        """Record copies of task 0's outcome; ``omega`` is what its ``finish_task`` returned.

        A run that estimated no map (lambda 0) takes it from a strategy at
        the grid's largest lambda, through the same protects rule and map
        check. If that estimate fails, nothing is recorded: every later
        lambda retrains task 0 and fails on its own estimate.
        """
        if omega is None and len(self.tasks) > 1:
            largest = self.configs[-1]
            strategy = Strategy(largest.strategy, largest.optimizer.resolved_rate)
            try:
                omega = strategy.finish_task(params, self.tasks[0])
            except NonFiniteError:
                return
        self.params, self.eval_entry = params.copy(), eval_entry
        self.omega = None if omega is None else omega.copy()


# The running grid's task-0 record; set by grid_search alone.
_GRID_TASK_ZERO: contextvars.ContextVar[Optional[_TaskZero]] = contextvars.ContextVar(
    "grid_task_zero", default=None
)


def run_sequence(
    config: ExperimentConfig, tasks: Optional[list[TaskDataset]] = None
) -> RunResult:
    """Train through the task sequence and evaluate retention after each.

    The strategy is naturally inert while task 0 trains (no importance
    accumulated yet). After each task it estimates importance on that
    task's train split (after the last only for ``save_checkpoints``, the
    one reader of that map), then all tasks seen so far are evaluated.
    Each evaluation walks that task's eval rows in chunks, gathered afresh
    (the same bytes every time) inside the :func:`accuracy` call, so at
    most one chunk of eval rows and its activations is held at once,
    whatever the split size or the task count. Each task owns one
    gradient buffer and one fresh :class:`Optimizer`: every step's
    :func:`backward` fills the buffer and :func:`apply` turns it into the
    step it adds into ``params`` in place. The last step's batch, trace,
    buffer and optimizer (with Adam's moments) are dropped before the
    task-end work, so Adam's state lives one task.

    A :class:`NonFiniteError` raised while a task trains, is estimated or
    is evaluated becomes one naming the task (and a step's epoch and
    batch) with the parameter norm.

    Inside :func:`grid_search`, a run of one of the grid's configs on the
    grid's own ``tasks`` shares task 0 with the grid's other runs. The
    first to get through task 0's evaluation writes the grid's record of
    it; each later one forks before its loop: it copies task 0's
    parameters, takes its eval entry, folds a copy of its importance map
    through :meth:`Strategy.finish_task`, and starts at task 1. The
    results are those of a run that does it all itself.
    """
    if tasks is None:
        tasks = build_tasks(config)
    if len(tasks) != config.num_tasks:
        raise ValueError(f"got {len(tasks)} tasks for num_tasks={config.num_tasks}")
    record = _GRID_TASK_ZERO.get()
    if record is not None and (tasks is not record.tasks or config not in record.configs):
        record = None  # a run off the grid trains its own task 0
    strategy = Strategy(config.strategy, config.optimizer.resolved_rate)
    eval_splits = _eval_splits(config, tasks)
    t_count = len(tasks)
    acc = np.full((t_count, t_count), np.nan)
    n_samples = np.zeros((t_count, t_count), dtype=np.int64)
    first = 0 if record is None or record.params is None else 1  # the first task this run trains
    if first:  # fork from the grid's task 0
        params = record.params.copy()
        acc[0, 0], n_samples[0, 0] = record.eval_entry
        if record.omega is not None:
            strategy.finish_task(params, tasks[0], record.omega.copy())
    else:
        params = init_params(stream(config.seed, INIT_STREAM_ID), config.architecture)
    for t, task in enumerate(tasks[first:], start=first):
        try:
            grads = params.zeros_like()
            optimizer = Optimizer(config.optimizer)
            for epoch in range(config.epochs_per_task):
                shuffle = stream(config.seed, SHUFFLE_STREAM_ID, t, epoch)
                for step, (xb, yb) in enumerate(batches(task, config.batch_size, shuffle)):
                    where = f"epoch {epoch}, batch {step}"
                    trace = forward(params, xb)
                    loss = cross_entropy(trace, yb)
                    if not np.isfinite(loss):
                        raise NonFiniteError(f"loss {loss}")
                    backward(params, trace, yb, out=grads)
                    apply(params, grads, optimizer, strategy.hook)
            # free the last step's arrays before the task-end work; every task
            # takes a step, since epochs_per_task >= 1 and no split is empty
            del xb, yb, trace, grads, optimizer
            where = "importance estimate"
            omega = None
            if t < t_count - 1 or config.save_checkpoints:
                omega = strategy.finish_task(params, task)
            where = "evaluation"
            for j in range(t + 1):
                picks, y = eval_splits[j]
                acc[t, j] = accuracy(params, tasks[j].chunks("test", picks), y)
                n_samples[t, j] = len(y)
        except NonFiniteError as exc:
            raise NonFiniteError(
                f"run diverged in task {t}, {where}: {exc}; "
                f"parameter norm {global_norm(params):.3e}"
            ) from exc
        if t == 0 and record is not None:
            record.write(params, (acc[0, 0], n_samples[0, 0]), omega)
        if config.save_checkpoints:
            os.makedirs(config.out_dir, exist_ok=True)
            save_params(params, os.path.join(config.out_dir, f"params_task{t}.npz"))
            if strategy.omega_total is not None:
                save_params(
                    strategy.omega_total,
                    os.path.join(config.out_dir, f"importance_task{t}.npz"),
                )
    return RunResult(
        matrix=EvalMatrix(accuracies=acc, n_samples=n_samples), params=params, config=config
    )


def sgd_target_equivalence(config: ExperimentConfig) -> tuple[bool, str]:
    """Whether gradient- and step-target WVA give bit-equal runs under SGD.

    SGD's direction is the negated gradient and its learning rate is
    applied after the post-optimizer hook, so attenuating the gradient or
    the step multiplies the same values in the same order. Runs
    ``config`` (a WVA strategy under SGD) once per target on one set of
    tasks and returns the verdict with a line naming whether the final
    parameters and the eval matrices are bit-identical.
    """
    if config.optimizer.kind != "sgd" or config.strategy.kind != "wva":
        raise ValueError("the target equivalence holds for a wva strategy under sgd")
    tasks = build_tasks(config)
    gradient, step = (
        run_sequence(
            dataclasses.replace(
                config, strategy=dataclasses.replace(config.strategy, target=target)
            ),
            tasks,
        )
        for target in ("gradient", "step")
    )
    same_params = np.array_equal(gradient.params.flat, step.params.flat)
    same_matrix = np.array_equal(
        gradient.matrix.accuracies, step.matrix.accuracies, equal_nan=True
    )
    return same_params and same_matrix, (
        "SGD attenuation on gradient vs step: final parameters "
        f"bit-identical={same_params}, eval matrices bit-identical={same_matrix}"
    )


@dataclass
class LambdaSurface:
    """Average accuracy as a function of (lambda, tasks learned).

    ``avg_accuracy[i, t]`` is the mean accuracy over tasks 0..t for the
    run at ``lambdas[i]``; failed runs leave NaN rows. ``tasks_learned``
    counts from 1 for readability in reports. ``config`` is the grid's
    base config (its own lambda aside), echoed in report manifests.
    ``matrices[i]`` is the eval matrix of the run at ``lambdas[i]`` (all
    NaN, with zero counts, for a failed run); a surface read back from
    its CSV has none.
    """

    lambdas: np.ndarray
    tasks_learned: np.ndarray
    avg_accuracy: np.ndarray
    failures: list[tuple[float, str]] = field(default_factory=list)
    config: Optional[ExperimentConfig] = None
    matrices: Optional[list[EvalMatrix]] = None

    def argmax_lambda(self, t: int) -> float:
        """Grid lambda with the best average accuracy after task index t.

        Ties resolve to the smallest lambda; a column with no finite
        entries is an error.
        """
        column = self.avg_accuracy[:, t]
        if np.all(np.isnan(column)):
            raise ValueError(f"no successful runs for tasks_learned={t + 1}")
        return float(self.lambdas[np.nanargmax(column)])


def grid_search(config: ExperimentConfig, lambda_grid) -> LambdaSurface:
    """One :func:`run_sequence` call per lambda on shared tasks; collects the accuracy surface.

    Every run re-derives its streams from the same ``config.seed``, so
    runs differ only through the strategy: the lambda = 0 column (when
    present) reproduces an unprotected baseline bit for bit. Task 0 is
    trained, evaluated and estimated once for the whole grid: the first
    run through task 0 writes its outcome whole, and every later run
    forks from it before its loop (see :func:`run_sequence`), which holds
    two parameter-sized vectors until the grid returns. A first lambda of
    0 still estimates task 0's map, at the grid's largest lambda. A run
    that fails in task 0 records nothing, so each later lambda retrains
    task 0 and fails with the same message. A run that fails
    numerically (a :class:`FloatingPointError`, such as
    :class:`NonFiniteError` from a diverging run) is recorded in
    ``failures`` and leaves a NaN gap; any other exception propagates.
    Every lambda's config is built before the first run, so a bad lambda
    fails the grid up front. ``save_checkpoints`` is refused, since each
    lambda would overwrite the last one's checkpoints in ``out_dir``.
    """
    if config.save_checkpoints:
        raise ValueError("save_checkpoints: each lambda would overwrite the last one's files")
    grid = [float(x) for x in lambda_grid]
    if not grid:
        raise ValueError("lambda grid is empty")
    if any(b <= a for a, b in zip(grid, grid[1:])):
        raise ValueError("lambda grid must be strictly increasing")
    run_configs = [
        dataclasses.replace(config, strategy=dataclasses.replace(config.strategy, lam=lam))
        for lam in grid
    ]
    tasks = build_tasks(config)
    t_count = config.num_tasks
    surface = np.full((len(grid), t_count), np.nan)
    failures: list[tuple[float, str]] = []
    matrices: list[EvalMatrix] = []
    token = _GRID_TASK_ZERO.set(_TaskZero(run_configs, tasks))
    try:
        for i, (lam, run_config) in enumerate(zip(grid, run_configs)):
            try:
                matrix = run_sequence(run_config, tasks=tasks).matrix
            except FloatingPointError as exc:  # record the gap, keep the rest of the surface
                failures.append((lam, f"{type(exc).__name__}: {exc}"))
                matrix = EvalMatrix(
                    np.full((t_count, t_count), np.nan),
                    np.zeros((t_count, t_count), dtype=np.int64),
                )
            else:
                surface[i] = [average_accuracy(matrix, t) for t in range(t_count)]
            matrices.append(matrix)
    finally:
        _GRID_TASK_ZERO.reset(token)
    return LambdaSurface(
        lambdas=np.asarray(grid),
        tasks_learned=np.arange(1, t_count + 1),
        avg_accuracy=surface,
        failures=failures,
        config=config,
        matrices=matrices,
    )
