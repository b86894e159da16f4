import collections
import dataclasses
import importlib.util
import re
import struct
import weakref
from pathlib import Path

import numpy as np
import pytest

from forgetlab import continual, harness, numerics
from forgetlab.continual import StrategyConfig, safe_coefficient
from forgetlab.data import (
    CHUNK_ROWS,
    IMAGE_MAGIC,
    LABEL_MAGIC,
    MNIST_FILE_NAMES,
    batches,
    make_permuted_tasks,
)
from forgetlab.harness import (
    DEFAULT_LAMBDA_GRID,
    _eval_splits,
    DESK_LAMBDA_GRID,
    EvalMatrix,
    ExperimentConfig,
    OptimizerConfig,
    SETTINGS,
    average_accuracy,
    build_tasks,
    desk_preset,
    grid_search,
    paper_preset,
    run_sequence,
    sgd_target_equivalence,
)
from forgetlab.model import (
    DEFAULT_LAYER_SIZES,
    accuracy,
    backward,
    cross_entropy,
    forward,
    init_params,
    load_params,
    param_count,
)
from forgetlab.numerics import NonFiniteError, ShapeError, stream
from forgetlab.optim import Optimizer, StepHook, apply
from forgetlab.reports import emit_csv
from helpers import one_draw_synth_dataset, same_bits, traced_peak


def tiny_config(**overrides):
    base = dict(
        source="synthetic",
        num_tasks=2,
        epochs_per_task=1,
        batch_size=16,
        seed=7,
        architecture=(12, 10, 4),
        synthetic_samples_per_class=40,
        synthetic_spread=0.2,
    )
    base.update(overrides)
    return ExperimentConfig(**base)


def poison_wva_hooks(monkeypatch, lams=None):
    """Make each WVA hook (only those at ``lams``, if given) write inf into one gradient entry."""
    real = continual.make_wva_hook

    def make(omega, lam, kind, target):
        if lams is not None and lam not in lams:
            return real(omega, lam, kind, target)

        def poison(grads, params):
            grads.flat[0] = np.inf

        return StepHook(pre_optimizer=poison)

    monkeypatch.setattr(continual, "make_wva_hook", make)


def nan_in_task_zero_map(monkeypatch):
    """Make every importance estimate of task 0 hold one NaN."""
    real = continual._estimate

    def estimate(config, params, task):
        omega = real(config, params, task)
        if task.task_id == 0:
            omega.flat[0] = np.nan
        return omega

    monkeypatch.setattr(continual, "_estimate", estimate)


def count_batches(monkeypatch):
    """Count the ``harness.batches`` calls (one per task and epoch) by task id."""
    drawn = collections.Counter()
    real = harness.batches

    def counting(task, *args):
        drawn[task.task_id] += 1
        return real(task, *args)

    monkeypatch.setattr(harness, "batches", counting)
    return drawn


def with_lam(config, lam):
    return dataclasses.replace(config, strategy=dataclasses.replace(config.strategy, lam=lam))


def mnist_sized_config(num_tasks):
    """784-pixel synthetic tasks with whole test splits of 200 rows each."""
    return tiny_config(
        num_tasks=num_tasks, architecture=(784, 16, 10), synthetic_samples_per_class=100,
    )


class TestConfigs:
    def test_optimizer_rate_defaults_track_kind(self):
        assert OptimizerConfig(kind="sgd").resolved_rate == 0.2
        assert OptimizerConfig(kind="adam").resolved_rate == 0.001
        assert OptimizerConfig(kind="sgd", learning_rate=0.05).resolved_rate == 0.05

    def test_optimizer_build_types(self):
        sgd = Optimizer(OptimizerConfig(kind="sgd"))
        assert (sgd.kind, sgd.learning_rate) == ("sgd", 0.2)
        adam = Optimizer(OptimizerConfig(kind="adam", learning_rate=0.05))
        assert (adam.kind, adam.learning_rate) == ("adam", 0.05)

    def test_optimizer_kind_validated(self):
        with pytest.raises(ValueError):
            OptimizerConfig(kind="rmsprop")

    def test_experiment_validation(self):
        with pytest.raises(ValueError):
            tiny_config(source="cifar")
        with pytest.raises(ValueError):
            tiny_config(num_tasks=0)
        with pytest.raises(ValueError, match="architecture"):
            tiny_config(architecture=(12,))

    def test_presets(self):
        desk = desk_preset()
        assert (desk.num_tasks, desk.epochs_per_task) == (5, 1)
        assert desk.train_subset == 10_000 and desk.eval_subset == 2_000
        assert desk.source == "synthetic"
        paper = paper_preset()
        assert (paper.num_tasks, paper.epochs_per_task) == (10, 4)
        assert paper.source == "mnist" and paper.train_subset is None
        assert paper_preset() == dataclasses.replace(ExperimentConfig(), source="mnist")
        assert desk == dataclasses.replace(
            ExperimentConfig(),
            num_tasks=5,
            epochs_per_task=1,
            train_subset=10_000,
            eval_subset=2_000,
            synthetic_spread=0.9,
        )
        assert len(DESK_LAMBDA_GRID) == 7
        assert len(DEFAULT_LAMBDA_GRID) == 13
        assert DEFAULT_LAMBDA_GRID[0] == pytest.approx(1e-3)
        assert DEFAULT_LAMBDA_GRID[-1] == pytest.approx(1e3)

    def test_preset_overrides(self):
        desk = desk_preset(num_tasks=2, seed=9)
        assert desk.num_tasks == 2 and desk.seed == 9

    @pytest.mark.parametrize("name", ["data_dir", "out_dir"])
    @pytest.mark.parametrize(
        "value", ["runs #3", "x ;y", "#x", ";x", " lead", "trail ", "a\nb", "a\rb", "tab\t"]
    )
    def test_free_text_that_an_ini_line_would_misread_is_refused(self, name, value):
        # a manifest records the config as INI text, which must read back as written
        with pytest.raises(ValueError, match=f"^{name} must read back from an INI line"):
            ExperimentConfig(**{name: value})

    @pytest.mark.parametrize("name", ["data_dir", "out_dir"])
    def test_free_text_that_is_not_utf8_is_refused(self, name):
        # a lone surrogate (an undecodable byte in a path) cannot be written to a UTF-8 manifest
        with pytest.raises(ValueError, match=f"^{name} must read back from an INI line"):
            ExperimentConfig(**{name: "runs\udcff"})

    @pytest.mark.parametrize("value", ["runs#3", "x;y", "out/100%done", "a = b", "[x]", "é ü", ""])
    def test_free_text_an_ini_line_reads_back_is_kept(self, value):
        config = ExperimentConfig(data_dir=value, out_dir=value)
        assert (config.data_dir, config.out_dir) == (value, value)


class TestSettings:
    def test_the_table_spells_all_23_settings_once(self):
        assert len(SETTINGS) == 23
        assert len({s.dest for s in SETTINGS}) == len({(s.section, s.key) for s in SETTINGS}) == 23

    @pytest.mark.parametrize("setting", SETTINGS, ids=lambda s: s.dest)
    def test_text_is_the_inverse_of_parse(self, setting):
        # the defaults, and a config that sets every optional setting and flips each boolean
        config = desk_preset(
            architecture=(784, 20, 10),
            save_checkpoints=True,
            optimizer=OptimizerConfig(learning_rate=0.01),
            strategy=StrategyConfig(
                kind="ewc", lam=31.6, safe_coefficient=True, separate_clip_threshold=0.1
            ),
        )
        for value in (setting.value(ExperimentConfig()), setting.value(config)):
            assert setting.parse(setting.text(value)) == value

    def test_text_spells_values_as_an_ini_file_does(self):
        texts = {s.dest: s.text(s.value(desk_preset())) for s in SETTINGS}
        assert texts["experiment.architecture"] == "784,300,150,10"
        assert texts["experiment.train_subset"] == "10000"
        assert texts["experiment.save_checkpoints"] == "false"
        assert texts["experiment.synthetic_spread"] == "0.9"
        assert texts["optimizer.learning_rate"] == "none"
        assert texts["strategy.kind"] == "none"


def write_idx_dir(path):
    """Four MNIST-named IDX files: 3 train and 2 test blank 28x28 images, labels up to 9."""
    for key, name in MNIST_FILE_NAMES.items():
        n = 3 if key.startswith("train") else 2
        if "images" in key:
            blob = struct.pack(">4i", IMAGE_MAGIC, n, 28, 28) + bytes(n * 784)
        else:
            blob = struct.pack(">2i", LABEL_MAGIC, n) + bytes(range(10 - n, 10))
        (path / name).write_bytes(blob)
    return str(path)


class TestBuildTasks:
    # the base's width and labels are checked against the architecture
    # when tasks are built, whatever the source
    def test_mnist_width_is_checked_against_architecture(self, tmp_path):
        config = ExperimentConfig(
            source="mnist", architecture=(100, 10, 10), data_dir=write_idx_dir(tmp_path)
        )
        message = "^expected image width 100, got train 784 / test 784$"
        with pytest.raises(ShapeError, match=message):
            build_tasks(config)

    def test_mnist_labels_are_checked_against_the_outputs(self, tmp_path):
        config = ExperimentConfig(
            source="mnist", architecture=(784, 10, 5), data_dir=write_idx_dir(tmp_path)
        )
        with pytest.raises(ValueError, match="^train_labels outside 0..4$"):
            build_tasks(config)

    def test_eleven_class_synthetic_builds_and_trains(self):
        config = tiny_config(architecture=(12, 10, 11))
        task = build_tasks(config)[1]
        assert set(task.train_labels) == set(task.test_labels) == set(range(11))
        params = init_params(stream(config.seed, 0), config.architecture)
        xb, yb = next(batches(task, config.batch_size, stream(3)))
        trace = forward(params, xb)
        assert np.isfinite(cross_entropy(trace, yb))
        before = params.flat.copy()
        apply(params, backward(params, trace, yb), Optimizer(config.optimizer), None)
        assert np.all(np.isfinite(params.flat)) and not np.array_equal(params.flat, before)

    def test_task_count_and_width(self):
        tasks = build_tasks(tiny_config(num_tasks=3))
        assert len(tasks) == 3
        assert all(t.train_images.shape[1] == 12 for t in tasks)

    def test_train_subset_shared_across_tasks(self):
        tasks = build_tasks(tiny_config(train_subset=64))
        assert all(t.train_images.shape[0] == 64 for t in tasks)
        assert np.array_equal(tasks[0].train_labels, tasks[1].train_labels)

    def test_train_subset_is_the_drawn_rows_of_the_whole_split(self):
        config = tiny_config(train_subset=64)
        task = build_tasks(config)[0]
        (images, labels), _ = one_draw_synth_dataset(4, 12, 40, 0.2, seed=7)
        picks = stream(7, numerics.TRAIN_SUBSET_STREAM_ID).choice(len(labels), 64, replace=False)
        assert same_bits(task.train_images, images[picks])
        assert np.array_equal(task.train_labels, labels[picks])

    def test_subset_build_peak_below_one_train_split(self):
        # Only the subset's rows are built, so the build holds its output
        # and one float64 chunk of draws (a class's 500 samples here).
        # Building the whole train split (3.1 MB of levels, 25 MB as
        # float64) and then copying out the subset holds the split too.
        config = mnist_sized_config(1)
        config = dataclasses.replace(config, synthetic_samples_per_class=500, train_subset=100)
        peak, tasks = traced_peak(build_tasks, config)
        assert tasks[0].train_images.shape == (100, 784)
        assert peak < 10 * 400 * 784 * 8
        task = tasks[0]
        output = sum(getattr(task, f"{split}_{kind}").nbytes
                     for split in ("train", "test") for kind in ("images", "labels"))
        assert peak < output + 1.25 * 500 * 784 * 8

    def test_desk_base_holds_one_byte_per_pixel(self):
        # a float64 base would hold 8 bytes per pixel
        tasks = build_tasks(desk_preset())
        for images in (tasks[0].train_images, tasks[0].test_images):
            assert images.dtype == np.uint8
            assert images.nbytes == images.shape[0] * 784
        assert tasks[0].train_images.shape[0] == 10_000

    def test_first_task_unpermuted(self):
        tasks = build_tasks(tiny_config())
        assert np.array_equal(tasks[0].permutation, np.arange(12))

    def test_peak_memory_flat_in_task_count(self):
        # Tasks share one base; per-task copies would grow the peak ~linearly.
        def peak(num_tasks):
            return traced_peak(build_tasks, mnist_sized_config(num_tasks))[0]

        assert peak(10) < 1.5 * peak(1)

    @pytest.mark.parametrize("eval_subset", [None, 20])
    def test_eval_rows_are_fresh_and_writable(self, eval_subset):
        config = tiny_config(num_tasks=3, eval_subset=eval_subset)
        tasks = build_tasks(config)
        for task, (picks, y) in zip(tasks, _eval_splits(config, tasks)):
            chunks = list(task.chunks("test", picks))
            for x in chunks:
                assert x.flags.writeable and x.flags.c_contiguous
                assert not np.shares_memory(x, task.test_images)
            x = np.concatenate(chunks)
            assert x.shape == (len(y), 12)
            permuted = task.rows("test", slice(None))
            assert all((permuted == row).all(axis=1).any() for row in x)


class TestRunSequence:
    def test_peak_memory_flat_in_task_count(self):
        # Eval rows are gathered per evaluation. Keeping every task's rows
        # for the whole run grows this peak about 1.25x from 2 to 8 tasks.
        def peak(num_tasks):
            return traced_peak(run_sequence, mnist_sized_config(num_tasks))[0]

        assert peak(8) < 1.1 * peak(2)

    def test_eval_peak_flat_in_split_size(self):
        # A task's evaluation walks its split one chunk at a time, so its
        # peak holds one chunk of rows and activations. Evaluating the
        # split in one pass grows this peak by about 80 MB from 1,024 to
        # 8,192 rows, and keeping one chunk's rows and trace while the
        # next is made adds about 1.6 chunks' bytes to the one-chunk peak.
        params = init_params(stream(30), DEFAULT_LAYER_SIZES)
        rng = stream(31)

        def peak(n_test):
            train = (rng.uniform(0, 256, (10, 784)).astype(np.uint8), np.arange(10))
            test = (rng.uniform(0, 256, (n_test, 784)).astype(np.uint8), np.arange(n_test) % 10)
            task = make_permuted_tasks(
                train, test, 2, seed=32, expected_width=784, classes=10
            )[1]
            chunks = task.chunks("test")
            return traced_peak(harness.accuracy, params, chunks, task.test_labels)[0]

        chunk_bytes = CHUNK_ROWS * 784 * 8
        one_chunk = peak(CHUNK_ROWS)
        assert abs(peak(8192) - peak(1024)) < chunk_bytes
        assert peak(8192) - one_chunk < chunk_bytes / 4

    @pytest.mark.parametrize("num_tasks", [1, 2], ids=["one-task", "two-tasks"])
    def test_run_matches_hand_rolled_loop(self, num_tasks):
        config = tiny_config(num_tasks=num_tasks)
        result = run_sequence(config)
        # Independent re-derivation of the same run from the stream registry;
        # each task starts a fresh optimizer.
        tasks = build_tasks(config)
        params = init_params(stream(config.seed, 0), config.architecture)
        for t, task in enumerate(tasks):
            optimizer = Optimizer(config.optimizer)
            for xb, yb in batches(task, config.batch_size, stream(config.seed, 3, t, 0)):
                grads = backward(params, forward(params, xb), yb)
                apply(params, grads, optimizer, None)
        assert np.array_equal(result.params.flat, params.flat)
        assert result.matrix.accuracies.shape == (num_tasks, num_tasks)
        for j, task in enumerate(tasks):
            expected = accuracy(params, [task.rows("test", slice(None))], task.test_labels)
            assert result.matrix.accuracies[-1, j] == expected

    def test_repeat_run_bit_identical(self):
        config = tiny_config(num_tasks=3)
        a = run_sequence(config)
        b = run_sequence(config)
        assert np.array_equal(a.matrix.accuracies, b.matrix.accuracies, equal_nan=True)
        assert np.array_equal(a.params.flat, b.params.flat)

    def test_lower_triangle_occupancy(self):
        config = tiny_config(num_tasks=3, eval_subset=20)
        result = run_sequence(config)
        acc = result.matrix.accuracies
        for t in range(3):
            for j in range(3):
                if j <= t:
                    assert 0.0 <= acc[t, j] <= 1.0
                    assert result.matrix.n_samples[t, j] == 20
                else:
                    assert np.isnan(acc[t, j])
                    assert result.matrix.n_samples[t, j] == 0

    def test_lambda_zero_strategies_match_baseline_bitwise(self):
        baseline = run_sequence(tiny_config())
        for strategy in (
            StrategyConfig(kind="wva", lam=0.0),
            StrategyConfig(kind="ewc", lam=0.0, estimator="fisher"),
            StrategyConfig(kind="ewc_multi_anchor", lam=0.0),
        ):
            shielded = run_sequence(tiny_config(strategy=strategy))
            assert np.array_equal(
                baseline.matrix.accuracies, shielded.matrix.accuracies, equal_nan=True
            )
            assert np.array_equal(baseline.params.flat, shielded.params.flat)

    def test_huge_lambda_freezes_first_task_skill(self, tmp_path):
        config = tiny_config(
            num_tasks=2,
            strategy=StrategyConfig(kind="wva", lam=1e9, attenuation="exponential"),
            save_checkpoints=True,
            out_dir=str(tmp_path),
        )
        result = run_sequence(config)
        after_first = load_params(str(tmp_path / "params_task0.npz"))
        drift = np.max(np.abs(result.params.flat - after_first.flat))
        scale = np.max(np.abs(after_first.flat))
        assert drift < 1e-6 * scale
        acc = result.matrix.accuracies
        assert abs(acc[1, 0] - acc[0, 0]) < 1e-12
        # Task 1 sees permuted inputs through frozen weights: chance level.
        assert acc[1, 1] < 0.5

    def test_strategy_importance_returned(self, tmp_path):
        config = tiny_config(
            strategy=StrategyConfig(kind="wva", lam=1.0),
            save_checkpoints=True,
            out_dir=str(tmp_path),
        )
        run_sequence(config)
        for t in range(config.num_tasks):
            importance = load_params(str(tmp_path / f"importance_task{t}.npz"))
            assert importance.layer_sizes == config.architecture
            assert np.all(importance.flat >= 0.0)

    @pytest.mark.parametrize("safe", [False, True], ids=["default", "safe_coefficient"])
    def test_multi_anchor_importance_checkpoint_is_the_running_weight(self, tmp_path, safe):
        # importance_task<t>.npz holds the weight the pull uses after task
        # t: the sum of each finished task's map, through the safe
        # coefficient when set, rebuilt here from the saved parameters.
        strategy = StrategyConfig(
            kind="ewc_multi_anchor", lam=1000.0, estimator="fisher", safe_coefficient=safe
        )
        config = tiny_config(
            num_tasks=3, strategy=strategy, save_checkpoints=True, out_dir=str(tmp_path)
        )
        run_sequence(config)
        tasks = build_tasks(config)
        total = raw = None
        for t in range(config.num_tasks):
            params = load_params(str(tmp_path / f"params_task{t}.npz"))
            w = continual._estimate(strategy, params, tasks[t]).flat
            raw = w if raw is None else raw + w
            if safe:
                w = safe_coefficient(w, config.optimizer.resolved_rate, strategy.lam)
            total = w if total is None else total + w
            saved = load_params(str(tmp_path / f"importance_task{t}.npz"))
            assert same_bits(saved.flat, total)
            assert np.array_equal(saved.flat, raw) == (not safe)  # W is the raw sum unless safe

    @pytest.mark.parametrize("save_checkpoints", [False, True], ids=["plain", "checkpoints"])
    def test_last_task_estimated_only_for_its_checkpoint(
        self, monkeypatch, tmp_path, save_checkpoints
    ):
        estimated = []
        real_estimate = continual._estimate

        def recording_estimate(config, params, task):
            estimated.append(task.task_id)
            return real_estimate(config, params, task)

        monkeypatch.setattr(continual, "_estimate", recording_estimate)
        config = tiny_config(
            num_tasks=3,
            strategy=StrategyConfig(kind="wva", lam=1.0),
            save_checkpoints=save_checkpoints,
            out_dir=str(tmp_path),
        )
        run_sequence(config)
        assert estimated == ([0, 1, 2] if save_checkpoints else [0, 1])
        assert (tmp_path / "importance_task2.npz").exists() == save_checkpoints

    def test_divergence_aborts_with_diagnostics(self):
        # task 0 trains finitely; task 1's pull, at lam 1e30, diverges
        config = tiny_config(
            optimizer=OptimizerConfig(kind="sgd", learning_rate=1.0),
            strategy=StrategyConfig(kind="ewc", lam=1e30, estimator="fisher"),
            num_tasks=2,
        )
        with pytest.raises(NonFiniteError) as err:
            run_sequence(config)
        assert re.fullmatch(
            r"run diverged in task 1, epoch 0, batch \d+: non-finite pre-activation in "
            r"layer \d; parameter norm \S+",
            str(err.value),
        )

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize(
        "batch_size, caught_at",
        [(16, "epoch 0, batch 1"), (128, "evaluation")],  # 8 steps a task, or 1
    )
    def test_nonfinite_gradient_stops_the_run_before_its_eval_row(
        self, monkeypatch, batch_size, caught_at
    ):
        # no product is scanned: an infinite gradient entry from task 1's
        # first step is caught by the next forward, a step's or, after the
        # last step, the evaluation's
        poison_wva_hooks(monkeypatch)
        filled = []
        real_accuracy = harness.accuracy

        def recording_accuracy(*args):
            filled.append(real_accuracy(*args))
            return filled[-1]

        monkeypatch.setattr(harness, "accuracy", recording_accuracy)
        config = tiny_config(
            batch_size=batch_size, strategy=StrategyConfig(kind="wva", lam=1.0, target="gradient")
        )
        with pytest.raises(NonFiniteError, match=f"task 1, {caught_at}: non-finite pre-activation"):
            run_sequence(config)
        assert len(filled) == 1  # task 0's row, and nothing of task 1's


class TestBufferOwnership:
    """A run's steps allocate no parameter vector, and Adam's state ends with its task."""

    @pytest.mark.parametrize(
        "strategy",
        [
            StrategyConfig(kind="wva", lam=1.0, target="step"),
            StrategyConfig(kind="ewc_multi_anchor", lam=1.0, estimator="fisher"),
        ],
        ids=["wva-step", "ewc_multi_anchor"],
    )
    def test_steady_state_step_allocates_under_one_parameter_vector(
        self, monkeypatch, strategy
    ):
        # backward is deferred into apply's call, so one traced call holds
        # a whole step: backward filling the run's buffer, then apply. A
        # fresh gradient or parameter vector per step would exceed the bound.
        real_backward, real_apply = harness.backward, harness.apply
        pending, peaks = [], []

        def deferred_backward(*args, **kwargs):
            pending.append((args, kwargs))

        def measured_apply(params, grads, optimizer, hook=None):
            args, kwargs = pending.pop()
            assert kwargs["out"] is grads
            steady = hook is not None and optimizer.t > 0

            def step():
                real_backward(*args, **kwargs)
                real_apply(params, grads, optimizer, hook)

            peak, _ = traced_peak(step)
            if steady:
                peaks.append(peak)

        monkeypatch.setattr(harness, "backward", deferred_backward)
        monkeypatch.setattr(harness, "apply", measured_apply)
        config = tiny_config(
            architecture=(40, 32, 4),
            batch_size=4,
            optimizer=OptimizerConfig(kind="adam"),
            strategy=strategy,
        )
        harness.run_sequence(config)
        assert len(peaks) > 20
        assert max(peaks) < param_count(config.architecture) * 8

    def test_optimizer_holds_no_moments_in_task_end_work(self, monkeypatch):
        optimizers, held = [], []

        class RecordingOptimizer(Optimizer):
            def __init__(self, config):
                super().__init__(config)
                optimizers.append(weakref.ref(self))

        real_finish_task = continual.Strategy.finish_task

        def recording_finish_task(strategy, params, task):
            # the optimizers still alive, so still holding Adam's moments
            held.append(sum(ref() is not None for ref in optimizers))
            real_finish_task(strategy, params, task)

        monkeypatch.setattr(harness, "Optimizer", RecordingOptimizer)
        monkeypatch.setattr(continual.Strategy, "finish_task", recording_finish_task)
        harness.run_sequence(
            tiny_config(
                num_tasks=3,
                optimizer=OptimizerConfig(kind="adam"),
                strategy=StrategyConfig(kind="wva", lam=1.0),
            )
        )
        assert len(optimizers) == 3 and held == [0, 0]


class TestSgdTargetEquivalence:
    @pytest.mark.parametrize("optimizer, kind", [("adam", "wva"), ("sgd", "ewc")])
    def test_needs_wva_under_sgd(self, optimizer, kind):
        config = tiny_config(
            optimizer=OptimizerConfig(kind=optimizer), strategy=StrategyConfig(kind=kind)
        )
        with pytest.raises(ValueError):
            sgd_target_equivalence(config)


class TestHookLifetime:
    @pytest.mark.parametrize(
        "strategy",
        [
            StrategyConfig(kind="ewc", lam=1.0),
            StrategyConfig(kind="ewc_multi_anchor", lam=1.0),
            StrategyConfig(kind="wva", lam=1.0, target="step"),
        ],
        ids=["ewc", "ewc_multi_anchor", "wva-step"],
    )
    def test_hook_built_once_per_task(self, monkeypatch, strategy):
        # Evaluation follows each task's training, so an accuracy call
        # closes the current task's run of steps.
        per_task = [[]]
        real_apply, real_accuracy = harness.apply, harness.accuracy

        def recording_apply(params, grads, optimizer, hook=None):
            per_task[-1].append(hook)
            return real_apply(params, grads, optimizer, hook)

        def recording_accuracy(params, images, labels):
            if per_task[-1]:
                per_task.append([])
            return real_accuracy(params, images, labels)

        monkeypatch.setattr(harness, "apply", recording_apply)
        monkeypatch.setattr(harness, "accuracy", recording_accuracy)
        harness.run_sequence(tiny_config(num_tasks=3, epochs_per_task=2, strategy=strategy))
        hooks = [steps for steps in per_task if steps]
        assert len(hooks) == 3
        assert all(hook is None for hook in hooks[0])
        for steps in hooks[1:]:
            assert steps[0] is not None
            assert all(hook is steps[0] for hook in steps)
        assert hooks[1][0] is not hooks[2][0]


class TestBenchmarkTracer:
    """The benchmark's tracer still binds to every layer it measures.

    ``bench/tracing.py`` patches functions and the strategy class by name
    and only warns when one is missing, so a rename would silently zero
    the benchmark's per-layer metrics. The tracer is loaded unchanged; it
    wraps each hook of both sides, which rewrite their argument in place.
    """

    @pytest.mark.parametrize(
        "strategy, hook_span",
        [
            (StrategyConfig(kind="ewc", lam=1.0), "continual.pre_hook"),
            (StrategyConfig(kind="wva", lam=1.0, target="step"), "continual.post_hook"),
            (StrategyConfig(kind="wva", lam=1.0, target="gradient"), "continual.pre_hook"),
            (StrategyConfig(kind="ewc_multi_anchor", lam=1.0), "continual.pre_hook"),
        ],
        ids=["ewc", "wva-step", "wva-gradient", "ewc_multi_anchor"],
    )
    def test_tracer_binds_every_layer(self, capsys, strategy, hook_span):
        path = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"
        spec = importlib.util.spec_from_file_location("bench_tracing", path)
        tracing = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(tracing)
        tracer = tracing.Tracer()
        with tracer.installed("guard"):
            harness.run_sequence(
                tiny_config(optimizer=OptimizerConfig(kind="adam"), strategy=strategy)
            )
        assert "not traced" not in capsys.readouterr().err
        names = [span[0] for span in tracer.spans]
        # no estimate after the last task: nothing reads it without checkpoints
        assert names.count("continual.finish_task") == 1
        assert hook_span in names
        assert "optim.apply" in names
        assert "optim.step_parts" in names
        assert tracer.nesting_errors() == []


class TestAverageAccuracy:
    def matrix(self, rows):
        t = len(rows)
        acc = np.full((t, t), np.nan)
        counts = np.zeros((t, t), dtype=np.int64)
        for i, row in enumerate(rows):
            acc[i, : len(row)] = row
            counts[i, : len(row)] = 100
        return EvalMatrix(accuracies=acc, n_samples=counts)

    def test_single_task(self):
        m = self.matrix([[0.93]])
        assert average_accuracy(m, 0) == 0.93

    def test_two_task_mean(self):
        m = self.matrix([[0.9], [0.9, 0.8]])
        assert average_accuracy(m, 1) == pytest.approx(0.85)

    def test_reorder_invariance(self):
        a = self.matrix([[0.9], [0.7, 0.8]])
        b = self.matrix([[0.9], [0.8, 0.7]])
        assert average_accuracy(a, 1) == average_accuracy(b, 1)

    def test_incomplete_row_rejected(self):
        m = self.matrix([[0.9], [0.9, 0.8]])
        m.accuracies[1, 0] = np.nan
        with pytest.raises(ValueError):
            average_accuracy(m, 1)

    def test_index_out_of_range(self):
        m = self.matrix([[0.9]])
        with pytest.raises(ValueError):
            average_accuracy(m, 1)


class TestGridSearch:
    def test_single_lambda_surface_matches_run(self):
        config = tiny_config(strategy=StrategyConfig(kind="wva", lam=123.0))
        surface = grid_search(config, [0.5])
        direct = run_sequence(
            dataclasses.replace(
                config, strategy=dataclasses.replace(config.strategy, lam=0.5)
            )
        )
        expected = [average_accuracy(direct.matrix, t) for t in range(2)]
        assert np.array_equal(surface.avg_accuracy[0], expected)
        assert surface.failures == []

    @pytest.mark.parametrize(
        "strategy, grid",
        [
            (StrategyConfig(kind="ewc", lam=1.0), [0.1, 10.0, 100.0]),
            (StrategyConfig(kind="wva", target="step"), [0.0, 1.0, 10.0, 100.0]),
            (StrategyConfig(kind="wva", target="gradient"), [0.0, 1.0, 10.0, 100.0]),
            (
                StrategyConfig(kind="ewc", online_decay=0.9, safe_coefficient=True),
                [0.0, 1.0, 100.0, 1e4],
            ),
            (
                StrategyConfig(kind="ewc_multi_anchor", safe_coefficient=True),
                [0.0, 1.0, 100.0, 1e4],
            ),
            (
                StrategyConfig(kind="ewc_multi_anchor", separate_clip_threshold=0.5),
                [0.0, 1.0, 100.0, 1e4],
            ),
        ],
        ids=["ewc", "wva-step", "wva-gradient", "ewc-decay-safe", "multi-safe", "multi-clip"],
    )
    def test_matrices_equal_standalone_runs_byte_for_byte(self, monkeypatch, strategy, grid):
        # a grid from lambda 0 estimates task 0's map in its first run, at
        # its largest lambda; each later lambda folds a copy of it. Final
        # parameters are compared too, since an eval matrix of a tiny task
        # can hide a change.
        real_run, finals = harness.run_sequence, []

        def keeping_params(cfg, tasks=None):
            result = real_run(cfg, tasks=tasks)
            finals.append(result.params.flat)
            return result

        monkeypatch.setattr(harness, "run_sequence", keeping_params)
        config = tiny_config(num_tasks=3, strategy=strategy)
        surface = grid_search(config, grid)
        assert len(surface.matrices) == len(finals) == len(grid)
        assert surface.failures == []
        for lam, matrix, final in zip(grid, surface.matrices, finals):
            direct = real_run(with_lam(config, lam))
            assert matrix.accuracies.tobytes() == direct.matrix.accuracies.tobytes()
            assert matrix.n_samples.tobytes() == direct.matrix.n_samples.tobytes()
            assert final.tobytes() == direct.params.flat.tobytes()

    def test_task_zero_trained_and_estimated_once_per_grid(self, monkeypatch):
        drawn = count_batches(monkeypatch)
        estimated = []
        real_estimate = continual._estimate

        def recording_estimate(config, params, task):
            estimated.append(task.task_id)
            return real_estimate(config, params, task)

        monkeypatch.setattr(continual, "_estimate", recording_estimate)
        config = tiny_config(num_tasks=3, epochs_per_task=2, strategy=StrategyConfig(kind="wva"))
        grid_search(config, [0.0, 1.0, 10.0])
        # task 0's two epochs for one run only; tasks 1 and 2 for every lambda
        assert drawn == {0: 2, 1: 6, 2: 6}
        # lambda 0 estimates nothing; task 0 once, and task 1 per lambda > 0
        assert estimated == [0, 1, 1]

    def test_benchmark_capture_sees_each_lambda_once(self, monkeypatch):
        # bench/run.py's grid_once forwards every run_sequence call and
        # fails a lambda whose config it did not see
        config = tiny_config(num_tasks=3, strategy=StrategyConfig(kind="wva"))
        grid = [0.0, 1.0, 10.0]
        unpatched = grid_search(config, grid)
        real_run, seen = harness.run_sequence, []

        def captured_run(cfg, tasks=None):
            result = real_run(cfg, tasks=tasks)
            seen.append(cfg)
            return result

        monkeypatch.setattr(harness, "run_sequence", captured_run)
        surface = grid_search(config, grid)
        assert seen == [with_lam(config, lam) for lam in grid]
        assert surface.avg_accuracy.tobytes() == unpatched.avg_accuracy.tobytes()
        for forked, alone in zip(surface.matrices, unpatched.matrices):
            assert forked.accuracies.tobytes() == alone.accuracies.tobytes()
            assert forked.n_samples.tobytes() == alone.n_samples.tobytes()

    def test_runs_off_the_grid_do_not_fork(self, monkeypatch):
        # inside a grid, a run on another task list or with another seed
        # trains its own task 0 and matches the same run outside the grid
        config = tiny_config(strategy=StrategyConfig(kind="wva"))
        drawn = count_batches(monkeypatch)
        real_run, strays = harness.run_sequence, []

        def run_and_stray(cfg, tasks=None):
            result = real_run(cfg, tasks=tasks)
            if not strays:  # the first lambda has filled the grid's record
                for stray, stray_tasks in (
                    (cfg, build_tasks(cfg)),
                    (dataclasses.replace(cfg, seed=8), tasks),
                ):
                    before = drawn[0]
                    strays.append((stray, stray_tasks, real_run(stray, tasks=stray_tasks).matrix))
                    assert drawn[0] == before + 1
            return result

        monkeypatch.setattr(harness, "run_sequence", run_and_stray)
        grid_search(config, [0.5, 1.0])
        assert len(strays) == 2
        for stray, tasks, matrix in strays:
            alone = real_run(stray, tasks=tasks).matrix
            assert matrix.accuracies.tobytes() == alone.accuracies.tobytes()

    def test_grid_shares_nothing_after_it_returns(self, monkeypatch):
        real_build, built = harness.build_tasks, []

        def recording_build(cfg):
            built.append(real_build(cfg))
            return built[-1]

        monkeypatch.setattr(harness, "build_tasks", recording_build)
        config = tiny_config(strategy=StrategyConfig(kind="wva"))
        grid_search(config, [0.5, 1.0])
        drawn = count_batches(monkeypatch)
        run_sequence(with_lam(config, 1.0), tasks=built[0])
        assert drawn[0] == 1

    def test_grid_shares_nothing_after_it_raises(self, monkeypatch):
        config = tiny_config(strategy=StrategyConfig(kind="wva"))
        real_run, tasks_seen = harness.run_sequence, []

        def broken_second_run(cfg, tasks=None):
            tasks_seen.append(tasks)
            if len(tasks_seen) == 2:
                raise TypeError("unsupported operand")
            return real_run(cfg, tasks=tasks)

        monkeypatch.setattr(harness, "run_sequence", broken_second_run)
        with pytest.raises(TypeError, match="unsupported operand"):
            grid_search(config, [0.5, 1.0])
        monkeypatch.setattr(harness, "run_sequence", real_run)
        drawn = count_batches(monkeypatch)
        matrix = run_sequence(with_lam(config, 1.0), tasks=tasks_seen[0]).matrix
        assert drawn[0] == 1
        alone = run_sequence(with_lam(config, 1.0)).matrix
        assert matrix.accuracies.tobytes() == alone.accuracies.tobytes()

    def test_task_zero_divergence_fails_every_lambda_alike(self, monkeypatch):
        drawn = count_batches(monkeypatch)
        config = tiny_config(
            optimizer=OptimizerConfig(kind="sgd", learning_rate=1e6),
            strategy=StrategyConfig(kind="wva"),
        )
        surface = grid_search(config, [0.0, 0.5, 1.0])
        assert [lam for lam, _ in surface.failures] == [0.0, 0.5, 1.0]
        messages = {message for _, message in surface.failures}
        assert len(messages) == 1
        assert "run diverged in task 0" in messages.pop()
        assert drawn == {0: 3}  # every lambda retrained task 0, and none got further

    def test_task_zero_estimate_failure_fails_every_protecting_lambda_alike(self, monkeypatch):
        # lambda 0 protects nothing, so its row survives a NaN in task 0's map
        real_build, built = harness.build_tasks, []

        def recording_build(cfg):
            built.append(real_build(cfg))
            return built[-1]

        nan_in_task_zero_map(monkeypatch)
        monkeypatch.setattr(harness, "build_tasks", recording_build)
        config = tiny_config(num_tasks=3, strategy=StrategyConfig(kind="wva"))
        surface = grid_search(config, [0.0, 1.0, 10.0])
        baseline = run_sequence(tiny_config(num_tasks=3))
        assert surface.matrices[0].accuracies.tobytes() == baseline.matrix.accuracies.tobytes()
        assert [lam for lam, _ in surface.failures] == [1.0, 10.0]
        messages = {message for _, message in surface.failures}
        assert len(messages) == 1
        assert messages.pop().startswith(
            "NonFiniteError: run diverged in task 0, importance estimate: "
        )
        # a run on the grid's tasks after the grid trains its own task 0
        drawn = count_batches(monkeypatch)
        with pytest.raises(NonFiniteError, match="run diverged in task 0, importance estimate"):
            run_sequence(with_lam(config, 1.0), tasks=built[0])
        assert drawn == {0: 1}

    @pytest.mark.parametrize("nan_map", [False, True], ids=["finite-map", "nan-map"])
    def test_each_later_run_reads_task_zero_whole_or_not_at_all(self, monkeypatch, nan_map):
        # the lambda 0 run estimates task 0's map for the grid; a NaN in it records nothing
        real_run, seen = harness.run_sequence, []

        def peeking_run(cfg, tasks=None):
            record = harness._GRID_TASK_ZERO.get()
            seen.append([x is None for x in (record.params, record.eval_entry, record.omega)])
            return real_run(cfg, tasks=tasks)

        if nan_map:
            nan_in_task_zero_map(monkeypatch)
        monkeypatch.setattr(harness, "run_sequence", peeking_run)
        grid_search(tiny_config(num_tasks=3, strategy=StrategyConfig(kind="wva")), [0.0, 1.0, 10.0])
        assert seen == [[True] * 3] + [[nan_map] * 3] * 2

    def test_matrices_leave_surface_csv_unchanged(self, tmp_path):
        surface = grid_search(tiny_config(strategy=StrategyConfig(kind="wva")), [0.1, 1.0])
        with_matrices = emit_csv(surface, str(tmp_path / "with.csv"), surface.config)
        without = dataclasses.replace(surface, matrices=None)
        bare = emit_csv(without, str(tmp_path / "without.csv"), without.config)
        assert open(with_matrices, "rb").read() == open(bare, "rb").read()

    def test_lambda_zero_column_equals_baseline(self):
        config = tiny_config(strategy=StrategyConfig(kind="wva", lam=1.0))
        surface = grid_search(config, [0.0, 1.0])
        baseline = run_sequence(tiny_config())
        expected = [average_accuracy(baseline.matrix, t) for t in range(2)]
        assert np.array_equal(surface.avg_accuracy[0], expected)

    def test_reproducible(self):
        config = tiny_config(strategy=StrategyConfig(kind="wva", lam=1.0))
        a = grid_search(config, [0.1, 1.0])
        b = grid_search(config, [0.1, 1.0])
        assert np.array_equal(a.avg_accuracy, b.avg_accuracy, equal_nan=True)

    def test_grid_validated(self):
        config = tiny_config()
        with pytest.raises(ValueError):
            grid_search(config, [])
        with pytest.raises(ValueError):
            grid_search(config, [1.0, 0.5])

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_non_finite_lambda_fails_before_any_run(self, bad, monkeypatch):
        # NaN passes the increasing-order check; each lambda's config rejects it
        runs = []
        monkeypatch.setattr(harness, "run_sequence", lambda config, tasks=None: runs.append(config))
        with pytest.raises(ValueError, match="lam must be finite"):
            grid_search(tiny_config(strategy=StrategyConfig(kind="wva")), [1.0, bad])
        assert runs == []

    def test_failed_run_leaves_gap(self, tmp_path):
        # An anchored penalty at an absurd lambda grows parameters
        # multiplicatively under SGD and overflows within one epoch; the
        # small-lambda run on the same grid stays healthy.
        config = tiny_config(
            optimizer=OptimizerConfig(kind="sgd"),
            strategy=StrategyConfig(kind="ewc", lam=0.0, estimator="fisher"),
        )
        surface = grid_search(config, [1e-3, 1e60])
        assert len(surface.failures) == 1
        assert surface.failures[0][0] == 1e60
        csv = Path(emit_csv(surface, str(tmp_path / "surface.csv"), surface.config)).read_text()
        assert re.search(
            r"# failed lambda=1e\+60: NonFiniteError: run diverged in task 1, epoch 0, batch \d+",
            csv,
        )
        assert np.all(np.isnan(surface.avg_accuracy[1]))
        assert np.all(np.isfinite(surface.avg_accuracy[0]))
        healthy, failed = surface.matrices
        assert np.all(np.isnan(failed.accuracies)) and not failed.n_samples.any()
        assert not np.isnan(np.tril(healthy.accuracies)).any()

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_nonfinite_gradient_fails_only_its_lambda(self, monkeypatch):
        poison_wva_hooks(monkeypatch, lams={1.0})
        config = tiny_config(strategy=StrategyConfig(kind="wva", target="gradient"))
        surface = grid_search(config, [0.5, 1.0, 2.0])
        assert [lam for lam, _ in surface.failures] == [1.0]
        assert "run diverged in task 1" in surface.failures[0][1]
        assert np.isnan(surface.avg_accuracy[1]).all()
        for i, lam in ((0, 0.5), (2, 2.0)):
            alone = run_sequence(
                dataclasses.replace(config, strategy=dataclasses.replace(config.strategy, lam=lam))
            )
            assert same_bits(surface.matrices[i].accuracies, alone.matrix.accuracies)

    def test_programming_error_propagates(self, monkeypatch):
        # only numerical failures become gaps; a bug must not pass as a
        # failed lambda
        from forgetlab import harness

        def broken_run(config, tasks=None):
            raise TypeError("unsupported operand")

        monkeypatch.setattr(harness, "run_sequence", broken_run)
        with pytest.raises(TypeError, match="unsupported operand"):
            grid_search(tiny_config(strategy=StrategyConfig(kind="wva")), [0.1, 1.0])

    def test_save_checkpoints_refused_before_any_run(self, monkeypatch, tmp_path):
        # every lambda would overwrite the last one's checkpoints in out_dir
        runs = []
        monkeypatch.setattr(harness, "run_sequence", lambda config, tasks=None: runs.append(config))
        monkeypatch.setattr(harness, "build_tasks", lambda config: runs.append(config))
        out = tmp_path / "out"
        config = tiny_config(
            strategy=StrategyConfig(kind="wva"), save_checkpoints=True, out_dir=str(out)
        )
        with pytest.raises(ValueError, match="save_checkpoints"):
            grid_search(config, [0.1, 1.0])
        assert runs == []
        assert not out.exists()

    def test_surface_records_its_config(self):
        config = tiny_config(strategy=StrategyConfig(kind="wva", lam=1.0))
        assert grid_search(config, [0.5]).config == config

    def test_argmax_lambda(self):
        config = tiny_config(strategy=StrategyConfig(kind="wva", lam=1.0))
        surface = grid_search(config, [0.01, 0.1])
        best = surface.argmax_lambda(1)
        column = surface.avg_accuracy[:, 1]
        assert best == surface.lambdas[np.nanargmax(column)]

    def test_argmax_all_nan_column_rejected(self):
        from forgetlab.harness import LambdaSurface

        surface = LambdaSurface(
            lambdas=np.array([0.1, 1.0]),
            tasks_learned=np.array([1]),
            avg_accuracy=np.full((2, 1), np.nan),
        )
        with pytest.raises(ValueError):
            surface.argmax_lambda(0)
