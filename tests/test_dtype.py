"""One dtype per run: every array a run derives from its parameters takes theirs.

A run computes in ``RUN_DTYPE`` (float32). Each strategy path is walked
through a short two-task desk run, so the hook built after task 0 runs
through task 1, while wrappers record the dtype of every gathered row
block, activation, gradient, Adam moment and scratch, importance map,
WVA factor vector, safe coefficient, strategy running map and anchor, and every
array a step hook closes over. All must be float32. The same walk with
float64 as the run dtype (float64 parameters and gather) must stay
float64. In-place numpy updates cast silently (``float32 *= float64``
is allowed), so a stray float64 array would otherwise go unnoticed.
"""

import functools
from collections import defaultdict

import numpy as np
import pytest

from forgetlab import continual, data, harness, model
from forgetlab.continual import StrategyConfig
from forgetlab.harness import desk_preset, run_sequence
from forgetlab.model import MlpParams
from forgetlab.numerics import RUN_DTYPE
from forgetlab.optim import StepHook

PATHS = {
    "none": StrategyConfig(),
    "ewc": StrategyConfig(kind="ewc", lam=10.0),
    "ewc_multi_anchor-safe": StrategyConfig(
        kind="ewc_multi_anchor", lam=10.0, estimator="fisher", safe_coefficient=True
    ),
    "ewc_multi_anchor-clip": StrategyConfig(
        kind="ewc_multi_anchor", lam=10.0, separate_clip_threshold=1.0
    ),
    **{
        f"wva-{target}-{estimator}": StrategyConfig(
            kind="wva", lam=31.6, target=target, estimator=estimator
        )
        for target in ("gradient", "step")
        for estimator in ("fisher", "total_abs_signal")
    },
}


def _arrays(value):
    """The numpy arrays in ``value``: itself, an MlpParams' vector, or inside a list or tuple."""
    if isinstance(value, np.ndarray):
        return [value]
    if isinstance(value, MlpParams):
        return [value.flat]
    if isinstance(value, (list, tuple)):
        return [a for item in value for a in _arrays(item)]
    return []


class DtypeLog:
    """Wraps a run's functions and records, per kind of array, the dtypes seen."""

    def __init__(self, monkeypatch):
        self.seen = defaultdict(set)
        self.patch = monkeypatch

    def record(self, kind, *values):
        for value in values:
            for array in _arrays(value):
                self.seen[kind].add(array.dtype)

    def wrap(self, owner, name, after):
        original = getattr(owner, name)

        @functools.wraps(original)
        def wrapped(*args, **kwargs):
            result = original(*args, **kwargs)
            after(result, *args)
            return result

        self.patch.setattr(owner, name, wrapped)

    def hook_side(self, transform, side):
        if transform is None:
            return None
        for cell in transform.__closure__ or ():
            self.record("hook state", cell.cell_contents)

        def logged(values, params):
            transform(values, params)
            self.record(f"{side}-hook output", values)

        return logged

    def install(self):
        self.wrap(data, "_gather", lambda rows, *_: self.record("gathered rows", rows))
        for owner in (harness, continual, model):
            self.wrap(
                owner,
                "forward",
                lambda trace, *_: self.record(
                    "activations", trace.layer_inputs, trace.logits, trace.probabilities
                ),
            )
        self.wrap(harness, "backward", lambda grads, *_: self.record("gradients", grads))
        self.wrap(continual, "_estimate", lambda omega, *_: self.record("importance", omega))
        self.wrap(continual, "wva_factor", lambda factors, *_: self.record("wva factors", factors))
        self.wrap(
            continual, "safe_coefficient", lambda w, *_: self.record("safe coefficient", w)
        )
        self.wrap(
            continual.Strategy,
            "finish_task",
            lambda _, strategy, *rest: self.record(
                "strategy state", strategy.omega_total, strategy.anchor
            ),
        )
        original_apply = harness.apply

        def apply(params, grads, optimizer, hook=None):
            self.record("gradients", grads)
            if hook is not None:
                hook = StepHook(
                    pre_optimizer=self.hook_side(hook.pre_optimizer, "pre"),
                    post_optimizer=self.hook_side(hook.post_optimizer, "post"),
                )
            original_apply(params, grads, optimizer, hook)
            self.record("steps", grads)
            self.record(
                "adam state", optimizer.first_moment, optimizer.second_moment, optimizer._scratch
            )

        self.patch.setattr(harness, "apply", apply)


def walk(monkeypatch, strategy):
    log = DtypeLog(monkeypatch)
    log.install()
    config = desk_preset(
        num_tasks=2,
        train_subset=300,
        eval_subset=100,
        synthetic_samples_per_class=200,
        strategy=strategy,
    )
    run_sequence(config)
    return log.seen


def expected_kinds(strategy):
    kinds = {"gathered rows", "activations", "gradients", "steps", "adam state"}
    if strategy.kind == "none":
        return kinds
    kinds |= {"importance", "strategy state", "hook state", "pre-hook output"}
    if strategy.kind == "wva":
        kinds.add("wva factors")
        kinds.discard("pre-hook output")
        kinds.add("pre-hook output" if strategy.target == "gradient" else "post-hook output")
    if strategy.safe_coefficient:
        kinds.add("safe coefficient")
    return kinds


@pytest.mark.parametrize("path", PATHS)
def test_every_array_of_a_run_is_float32(monkeypatch, path):
    assert RUN_DTYPE == np.float32
    seen = walk(monkeypatch, PATHS[path])
    assert set(seen) == expected_kinds(PATHS[path])
    assert {kind: dtypes for kind, dtypes in seen.items() if dtypes != {RUN_DTYPE}} == {}


@pytest.mark.parametrize("path", PATHS)
def test_a_float64_run_stays_float64(monkeypatch, path):
    float64 = np.dtype(np.float64)
    monkeypatch.setattr(data, "RUN_DTYPE", float64)
    monkeypatch.setattr(
        harness, "init_params", functools.partial(model.init_params, dtype=float64)
    )
    seen = walk(monkeypatch, PATHS[path])
    assert set(seen) == expected_kinds(PATHS[path])
    assert {kind: dtypes for kind, dtypes in seen.items() if dtypes != {float64}} == {}
