"""Sequential-task training runs, evaluation matrices, and lambda grids.

Every random draw in a run descends from ``ExperimentConfig.seed``
through fixed child-stream ids, so a config fully determines the
trajectory: repeated runs are bit-identical, and two runs differing only
in strategy settings see exactly the same data order and initial
weights.

Child-stream registry (ids 1 and 2 live in :mod:`forgetlab.data`):
  0 weight init, 1 task permutations, 2 synthetic base data,
  3 per-(task, epoch) batch shuffles, 4 eval subsets, 5 train subset.
"""

from __future__ import annotations

import dataclasses
import os
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .continual import Strategy, StrategyConfig
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
from .numerics import NonFiniteError, RandomStream, check_fields
from .optim import Optimizer, OptimizerConfig, apply

INIT_STREAM_ID = 0
SHUFFLE_STREAM_ID = 3
EVAL_SUBSET_STREAM_ID = 4
TRAIN_SUBSET_STREAM_ID = 5

SOURCES = ("synthetic", "mnist")

DEFAULT_LAMBDA_GRID = tuple(float(x) for x in np.logspace(-3.0, 3.0, 13))

# Seven half-decade points bracketing the desk-preset optimum for
# step-target attenuation. Calibrated on the desk preset (seed 42):
# the best lambda after tasks 2..5 is 31.6, 10, 31.6, 31.6 for the
# hyperbolic kind and 31.6 then 10 for the exponential kind, so the
# argmax stays strictly interior and moves at most one grid step.
DESK_LAMBDA_GRID = (0.316, 1.0, 3.16, 10.0, 31.6, 100.0, 316.0)


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything that determines a run.

    Together with the fields of :class:`~forgetlab.optim.OptimizerConfig`
    and :class:`~forgetlab.continual.StrategyConfig`, these fields are the
    lab's settings: the command line derives its INI keys and flags from
    them (see :mod:`forgetlab.cli`). ``architecture`` runs from the input
    width to the class count; the synthetic source makes
    ``architecture[-1]`` classes. Every setting is checked when the config
    is built: each field's choices and bounds are declared in its metadata
    and checked by :func:`~forgetlab.numerics.check_fields` (with float
    finiteness); ``__post_init__`` adds the ``architecture`` rules.
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
        if self.source == "mnist" and self.architecture[0] != 784:
            raise ValueError("mnist images have width 784")
        if self.source == "mnist" and self.architecture[-1] != 10:
            raise ValueError("mnist has 10 classes")
        if self.architecture[-1] > 10:  # labels are 0..9
            raise ValueError(f"architecture must end in <= 10 classes, got {self.architecture}")


def desk_preset(**overrides) -> ExperimentConfig:
    """Laptop-scale protocol: 5 tasks, 1 epoch each, subsetted data.

    Uses the synthetic source by default so it runs with no downloads;
    pass ``source="mnist"`` (with data fetched) for the image version.
    Pairs with :data:`DESK_LAMBDA_GRID`.
    """
    base = dict(
        source="synthetic",
        num_tasks=5,
        epochs_per_task=1,
        batch_size=100,
        seed=42,
        train_subset=10_000,
        eval_subset=2_000,
        synthetic_samples_per_class=1250,
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
    """Full protocol: 10 permuted image tasks, 4 epochs, whole dataset."""
    base = dict(source="mnist", num_tasks=10, epochs_per_task=4, batch_size=100, seed=42)
    base.update(overrides)
    return ExperimentConfig(**base)


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
    levels; each task's float64 pixels are gathered per batch.
    """

    def train_picks(n: int) -> Optional[np.ndarray]:
        if config.train_subset is None or config.train_subset >= n:
            return None
        return RandomStream(config.seed).child(TRAIN_SUBSET_STREAM_ID).choice(
            n, config.train_subset
        )

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
    )


def _eval_splits(config: ExperimentConfig, tasks: list[TaskDataset]):
    """Per-task ``(picks, labels)`` of the test rows to evaluate on.

    ``picks`` selects each task's eval subset, drawn once per run from a
    task-keyed stream (None for the whole test split). Only indices and
    labels are kept; the caller walks a task's rows with
    ``task.chunks("test", picks)`` when it evaluates that task.
    """
    splits = []
    root = RandomStream(config.seed)
    for task in tasks:
        picks, y = None, task.test_labels
        if config.eval_subset is not None and config.eval_subset < len(y):
            picks = root.child(EVAL_SUBSET_STREAM_ID, task.task_id).choice(
                len(y), config.eval_subset
            )
            y = y[picks]
        splits.append((picks, y))
    return splits


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
    """
    if tasks is None:
        tasks = build_tasks(config)
    if len(tasks) != config.num_tasks:
        raise ValueError(f"got {len(tasks)} tasks for num_tasks={config.num_tasks}")
    root = RandomStream(config.seed)
    params = init_params(root.child(INIT_STREAM_ID), config.architecture)
    strategy = Strategy(config.strategy, config.optimizer.resolved_rate)
    eval_splits = _eval_splits(config, tasks)
    t_count = len(tasks)
    acc = np.full((t_count, t_count), np.nan)
    n_samples = np.zeros((t_count, t_count), dtype=np.int64)
    for t, task in enumerate(tasks):
        try:
            grads = MlpParams.zeros(params.layer_sizes)
            optimizer = Optimizer(config.optimizer)
            for epoch in range(config.epochs_per_task):
                shuffle = root.child(SHUFFLE_STREAM_ID, t, epoch)
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
            if t < t_count - 1 or config.save_checkpoints:
                strategy.finish_task(params, task)
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
    """One full run per lambda on shared tasks; collects the accuracy surface.

    Every run re-derives its streams from the same ``config.seed``, so
    runs differ only through the strategy: the lambda = 0 column (when
    present) reproduces an unprotected baseline bit for bit. A run that
    fails numerically (a :class:`FloatingPointError`, such as
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
    for i, (lam, run_config) in enumerate(zip(grid, run_configs)):
        try:
            matrix = run_sequence(run_config, tasks=tasks).matrix
        except FloatingPointError as exc:  # record the gap, keep the rest of the surface
            failures.append((lam, f"{type(exc).__name__}: {exc}"))
            matrix = EvalMatrix(
                np.full((t_count, t_count), np.nan), np.zeros((t_count, t_count), dtype=np.int64)
            )
        else:
            surface[i] = [average_accuracy(matrix, t) for t in range(t_count)]
        matrices.append(matrix)
    return LambdaSurface(
        lambdas=np.asarray(grid),
        tasks_learned=np.arange(1, t_count + 1),
        avg_accuracy=surface,
        failures=failures,
        config=config,
        matrices=matrices,
    )
