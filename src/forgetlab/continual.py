"""Forgetting countermeasures: importance maps, EWC penalties, attenuation.

Two families share one plumbing path (the optimizer hooks). Anchored
penalties pull parameters back toward a stored snapshot by injecting an
extra gradient before the optimizer. Velocity attenuation multiplies the
gradient or the emitted step by a per-parameter factor that shrinks as
importance grows, and stores no snapshots at all.

Both EWC kinds hold exactly one anchor. ``ewc_multi_anchor`` keeps the
sum of per-task penalties as the single quadratic it equals (Huszar,
"Note on the quadratic penalties in elastic weight consolidation",
PNAS 2018): sum_k lam*w_k*(theta - a_k) = lam*W*(theta - a_bar), with
W = sum_k w_k and a_bar the w-weighted mean of the task anchors. W is its
running map, so memory and per-step cost are constant in the task count.

One :class:`Strategy` class runs every kind, holding one running map
(the one its hook weighs by) and at most one anchor. When a task ends,
unless it protects nothing, it folds the task's importance into the map
in place and builds the next task's step hook from the map and anchor
alone. Hooks are called as ``hook(values, params)`` with the current
parameters, so nothing is rebuilt per step. Both estimators walk the
task's train split with :meth:`~forgetlab.data.TaskDataset.chunks`, one
forward pass per chunk, the walk evaluation uses too.

Importance maps, attenuation factors and anchors share the flat
parameter layout of :class:`~forgetlab.model.MlpParams` and the
parameters' dtype: each estimator builds its map in it, and the factors,
the safe coefficient, the anchor, the pull's weight and the hook scratch
all follow the map or the parameters. Everything a hook needs per step
is fixed when a task finishes (the factors, and ``lam * omega`` for the
penalties), and each hook rewrites the gradient or step it is handed in
place, so no hook owns an output buffer.

Each fact is checked once: the config fields check every setting's
choices and bounds (the helpers here trust them),
:func:`~forgetlab.data.make_permuted_tasks` that no split is empty and
the labels, :func:`~forgetlab.model.forward` every pre-activation,
:meth:`Strategy.finish_task` each task's importance map (an overflowed
Fisher product too), and :func:`~forgetlab.optim.apply` gradient layouts. A
run's maps, gradients and anchors share one layout, so
:func:`accumulate` and :func:`clip_separately` do not compare layouts.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .data import TaskDataset
from .model import (
    Gradients,
    MlpParams,
    check_congruent,
    forward,
    layer_deltas,
    output_delta,
)
from .numerics import NonFiniteError, check_fields, matmul
from .optim import ADAM_BLOCK, StepHook

# Importance maps are parameter-shaped containers of non-negative values.
ImportanceMap = MlpParams

ATTENUATION_KINDS = ("hyperbolic", "exponential")
TARGETS = ("gradient", "step")
ESTIMATORS = ("fisher", "total_abs_signal")
STRATEGY_KINDS = ("none", "ewc", "ewc_multi_anchor", "wva")

def check_importance(omega: ImportanceMap):
    if not np.isfinite(omega.flat).all():
        raise NonFiniteError("importance map contains non-finite entries")
    if np.any(omega.flat < 0):
        raise ValueError("importance map contains negative entries")


def _train_chunks(params: MlpParams, dataset: TaskDataset):
    """Yield ``(trace, labels)`` for each chunk of the task's train split, in order."""
    seen = 0
    for rows in dataset.chunks("train"):
        n = rows.shape[0]
        yield forward(params, rows), dataset.train_labels[seen : seen + n]
        seen += n


def estimate_fisher(params: MlpParams, dataset: TaskDataset) -> ImportanceMap:
    """Diagonal empirical Fisher over the task's train split.

    F_i is the mean over samples of the squared per-sample gradient of
    log p(true label). Samples are processed in chunks but each sample's
    gradient is squared individually: for weight (i, j) the per-sample
    gradient factors as delta_i * a_j, so the squared sum is the matrix
    product of delta**2 and a**2. The deltas come unscaled from ``model.layer_deltas``.
    """
    sums = params.zeros_like()
    for trace, yb in _train_chunks(params, dataset):
        for l, delta in layer_deltas(params, trace, output_delta(trace, yb)):
            squared = delta**2
            sum_w, sum_b = sums.weights[l], sums.biases[l]
            sum_w += matmul(squared.T, trace.layer_inputs[l] ** 2)
            sum_b += squared.sum(axis=0)
    sums.flat /= dataset.train_labels.shape[0]
    return sums


def estimate_total_abs_signal(params: MlpParams, dataset: TaskDataset) -> ImportanceMap:
    """Mean absolute signal through each weight, from forward passes only.

    For weight w_ij with input activation a_j the importance is the mean
    over samples of |a_j * w_ij|, which factors into |w_ij| times the mean
    of |a_j|. Biases contribute a constant signal, so their importance is
    |b_i|.
    """
    abs_sums = [np.zeros(w.shape[1], dtype=w.dtype) for w in params.weights]
    for trace, _ in _train_chunks(params, dataset):
        for abs_sum, below in zip(abs_sums, trace.layer_inputs):
            abs_sum += np.abs(below).sum(axis=0)
    n = dataset.train_labels.shape[0]
    omega = params.zeros_like()
    for l, abs_sum in enumerate(abs_sums):
        np.multiply(np.abs(params.weights[l]), (abs_sum / n)[None, :], out=omega.weights[l])
        np.abs(params.biases[l], out=omega.biases[l])
    return omega


def accumulate(total: ImportanceMap, new: ImportanceMap, gamma: float):
    """Fold a new task's importances into the running map in place: gamma*total + new.

    The two passes round as the expression does, so the result is the
    same bits as a freshly allocated ``gamma * total + new``. Both maps
    have the run's one parameter layout.
    """
    total.flat *= gamma
    total.flat += new.flat


def ewc_penalty(
    params: MlpParams, anchor: MlpParams, omega: ImportanceMap, lam: float
) -> tuple[float, Gradients]:
    """Quadratic pull toward the anchor: value and gradient.

    value = (lam/2) * sum_i omega_i * (theta_i - anchor_i)**2
    gradient_i = lam * omega_i * (theta_i - anchor_i)
    """
    check_congruent(params, anchor, "params and anchor")
    check_congruent(params, omega, "params and importance map")
    diff = params.flat - anchor.flat
    value = float(np.sum(omega.flat * diff * diff))
    gradient = lam * omega.flat * diff
    return 0.5 * lam * value, MlpParams.from_flat(gradient, params.layer_sizes)


def safe_coefficient(omega, alpha: float, lam: float):
    """Saturating replacement for omega: omega / (alpha*lam*omega + 1).

    Bounded above by 1/(alpha*lam), which keeps a single penalty step
    from overshooting the anchor no matter how large omega grows. Accepts
    float scalars or arrays and keeps their dtype (a Python float is
    float64).
    """
    arr = np.asarray(omega)
    return arr / (alpha * lam * arr + 1.0)


def clip_separately(task_grad: Gradients, penalty_grad: Gradients, threshold: float):
    """Rescale each gradient to global L2 norm <= threshold, then sum into ``task_grad``.

    Clipping the two parts independently keeps a huge penalty gradient
    from drowning out the task gradient (and vice versa). Both are
    rescaled in place and have the run's one parameter layout.
    """
    for grad in (task_grad.flat, penalty_grad.flat):
        norm = float(np.linalg.norm(grad))
        if norm > threshold:
            grad *= threshold / norm
    task_grad.flat += penalty_grad.flat


def wva_factor(omega, lam: float, kind: str) -> np.ndarray:
    """Attenuation factor in (0, 1]: hyperbolic 1/(lam*omega+1) or exp(-lam*omega).

    Every pass writes into one fresh output array of ``omega``'s float
    dtype (0-d for a scalar ``omega``; float64 for a Python number or an
    integer array), with the roundings of the plain expressions.
    ``kind`` is one of :class:`StrategyConfig`'s attenuation choices,
    which it checks.
    """
    arr = np.asarray(omega, dtype=np.result_type(omega, 1.0))
    out = np.empty_like(arr)
    with np.errstate(over="ignore", invalid="ignore"):  # forward reports what a huge lam breaks
        np.multiply(lam if kind == "hyperbolic" else -lam, arr, out=out)
    if kind == "hyperbolic":
        np.add(out, 1.0, out=out)
        return np.divide(1.0, out, out=out)
    return np.exp(out, out=out)


def attenuation_closed_forms() -> tuple[bool, str]:
    """Whether both attenuation kinds meet their closed-form identities.

    Bounds (0, 1] and hyperbolic >= exponential on 60 log-spaced omegas in
    [1e-6, 100]; both are 1 at omega 0, and 0.5 at lam*omega = 1
    (hyperbolic) and ln 2 (exponential). Every input is float64, so
    :func:`wva_factor` computes in float64 whatever a run's dtype.
    Returns the verdict and a detail.
    """
    values = np.logspace(-6.0, 2.0, 60, dtype=np.float64)
    hyp = wva_factor(values, 1.0, "hyperbolic")
    exp = wva_factor(values, 1.0, "exponential")
    checks = {
        "hyperbolic in (0, 1]": np.all((hyp > 0) & (hyp <= 1)),
        "exponential in (0, 1]": np.all((exp > 0) & (exp <= 1)),
        "hyperbolic >= exponential": np.all(hyp >= exp),
        "hyperbolic(0)=1": wva_factor(0.0, 1.0, "hyperbolic") == 1.0
        and abs(wva_factor(0.0, 5.0, "hyperbolic") - 1.0) < 1e-12,
        "exponential(0)=1": wva_factor(0.0, 1.0, "exponential") == 1.0
        and abs(wva_factor(0.0, 5.0, "exponential") - 1.0) < 1e-12,
        "hyperbolic(lam*omega=1)=0.5": wva_factor(1.0, 1.0, "hyperbolic") == 0.5
        and abs(wva_factor(0.5, 2.0, "hyperbolic") - 0.5) < 1e-12,
        "exponential(lam*omega=ln2)=0.5": abs(
            wva_factor(np.log(2.0), 1.0, "exponential") - 0.5
        ) < 1e-12,
    }
    failed = [name for name, ok in checks.items() if not ok]
    return not failed, (
        f"failed: {failed}" if failed else "bounds, ordering, and fixed points on a 60-point grid"
    )


def make_wva_hook(omega: ImportanceMap, lam: float, kind: str, target: str) -> StepHook:
    """Hook multiplying the gradient or the step by per-parameter factors.

    The transform multiplies the container it is handed in place and
    ignores its ``params`` argument. At lam == 0 every factor is
    exactly 1, so the hook is an identity; :class:`Strategy` builds none.
    ``kind`` and ``target`` are among :class:`StrategyConfig`'s choices,
    which it checks.
    """
    factors = wva_factor(omega.flat, lam, kind)

    def scale(container: Gradients, params: MlpParams):
        container.flat *= factors

    if target == "gradient":
        return StepHook(pre_optimizer=scale)
    return StepHook(post_optimizer=scale)


@dataclass(frozen=True)
class StrategyConfig:
    """Which countermeasure runs and how it is parameterized.

    ``target`` selects where attenuation applies and only matters for
    kind="wva"; the anchored penalties always inject their gradient before
    the optimizer. ``safe_coefficient`` and ``separate_clip_threshold``
    modify the penalty and are rejected for non-anchored kinds.
    """

    kind: str = field(default="none", metadata={"choices": STRATEGY_KINDS})
    lam: float = field(default=0.0, metadata={"min": 0})
    online_decay: float = field(default=1.0, metadata={"min": 0, "max": 1})
    attenuation: str = field(default="hyperbolic", metadata={"choices": ATTENUATION_KINDS})
    target: str = field(default="step", metadata={"choices": TARGETS})
    estimator: str = field(default="total_abs_signal", metadata={"choices": ESTIMATORS})
    safe_coefficient: bool = False
    separate_clip_threshold: Optional[float] = field(default=None, metadata={"above": 0})

    def __post_init__(self):
        check_fields(self)
        anchored = self.kind in ("ewc", "ewc_multi_anchor")
        if self.safe_coefficient and not anchored:
            raise ValueError("safe_coefficient modifies the anchored penalty; use kind=ewc")
        if self.separate_clip_threshold is not None and not anchored:
            raise ValueError("separate_clip_threshold applies to anchored penalties only")
        if self.kind == "ewc_multi_anchor" and self.online_decay != 1.0:
            raise ValueError(
                "online_decay applies to the consolidated map; per-task anchors keep "
                "their own importances"
            )


def _estimate(config: StrategyConfig, params: MlpParams, task: TaskDataset) -> ImportanceMap:
    if config.estimator == "fisher":
        return estimate_fisher(params, task)
    return estimate_total_abs_signal(params, task)


def _make_ewc_hook(
    anchor: MlpParams, lam_weight: np.ndarray, threshold: Optional[float]
) -> StepHook:
    """Pre-hook adding lam * weight * (theta - anchor) to the task gradient.

    ``theta`` is the ``params`` argument of each call, and the sum is
    written over the task gradient the hook is handed. With ``threshold``
    set, the pull and the task gradient are each clipped first
    (:func:`clip_separately`, on whole vectors for their global norms),
    so each call makes the pull in a fresh vector. Otherwise the
    elementwise passes run over one ``ADAM_BLOCK`` of entries at a time,
    as Adam's do, through one block of scratch; neither changes any
    rounding.
    """
    size = anchor.flat.size
    scratch = np.empty(min(ADAM_BLOCK, size), dtype=anchor.flat.dtype)
    blocks = [
        (block, anchor.flat[block], lam_weight[block])
        for block in (slice(start, start + ADAM_BLOCK) for start in range(0, size, ADAM_BLOCK))
    ]

    def pre(task_grad: Gradients, params: MlpParams):
        with np.errstate(over="ignore", invalid="ignore"):  # forward reports a non-finite pull
            if threshold is not None:
                pull = np.subtract(params.flat, anchor.flat)
                pull *= lam_weight
                clip_separately(task_grad, MlpParams.from_flat(pull, anchor.layer_sizes), threshold)
                return
            for block, a, w in blocks:
                # lam * weight * (theta - anchor), as ewc_penalty evaluates it
                o, g = scratch[: a.size], task_grad.flat[block]
                np.subtract(params.flat[block], a, out=o)
                np.multiply(w, o, out=o)
                np.add(g, o, out=g)

    return StepHook(pre_optimizer=pre)


def _make_hook(config: StrategyConfig, learning_rate: float, omega_total, anchor) -> StepHook:
    """A protecting strategy's step hook, from its running map and anchor alone."""
    if config.kind == "wva":
        return make_wva_hook(omega_total, config.lam, config.attenuation, config.target)
    weight = omega_total.flat
    with np.errstate(over="ignore", invalid="ignore"):  # forward reports what a huge lam breaks
        if config.kind == "ewc" and config.safe_coefficient:
            weight = safe_coefficient(weight, learning_rate, config.lam)
        lam_weight = config.lam * weight
    return _make_ewc_hook(anchor, lam_weight, config.separate_clip_threshold)


class Strategy:
    """The configured countermeasure: one running map, at most one anchor, and a hook.

    ``finish_task`` does the lambda-independent half once for every kind
    that protects anything (kind="none" and ``lam`` 0 skip it, so they do
    no estimation work): estimate the task's importance, check it (finite,
    non-negative) and fold it into ``omega_total``. It then sets ``hook``,
    used until the next task ends, through :func:`_make_hook`. All three
    are None before the first task ends and whenever nothing is
    protected; WVA holds no anchor. ``learning_rate`` is the safe
    coefficient's alpha.

    ``ewc`` consolidates: ``omega_total`` is the decayed sum of the task
    maps and the anchor the latest parameters. ``ewc_multi_anchor``'s
    ``omega_total`` is W, the sum of each task's effective importance w
    (its map, through the safe coefficient if set), and the anchor moves
    by (w / W) * (theta - anchor), which keeps it the w-weighted mean of
    the task snapshots. Where W is 0 no task pulls, so the anchor stays
    put and the pull is exactly 0.
    """

    __slots__ = ("config", "learning_rate", "omega_total", "anchor", "hook")

    def __init__(self, config: StrategyConfig, learning_rate: float):
        self.config = config
        self.learning_rate = learning_rate
        self.omega_total: Optional[ImportanceMap] = None
        self.anchor: Optional[MlpParams] = None
        self.hook: Optional[StepHook] = None

    def finish_task(
        self, params: MlpParams, task: TaskDataset, estimated: Optional[ImportanceMap] = None
    ) -> Optional[ImportanceMap]:
        """Fold ``task``'s importance in and build the next task's hook.

        ``estimated``, if given, is the task's map as another run at these
        parameters estimated and checked it; it is folded in place of an
        estimate, and the fold takes it over, so pass a copy. Returns the
        map estimated or given, or None when nothing is protected. The
        fold owns that map: after a first task it is ``omega_total``
        itself, with no safe coefficient applied, and later tasks fold
        into it (a later ``ewc_multi_anchor`` task writes over its own
        map), so a caller that keeps it copies it at once.
        """
        config = self.config
        if config.kind == "none" or config.lam == 0.0:
            return None
        # The finished task's hook is stale; free its buffers before estimating.
        self.hook = None
        if estimated is None:
            estimated = _estimate(config, params, task)
            # before a safe coefficient could turn a negative entry positive
            check_importance(estimated)
        new = estimated
        multi = config.kind == "ewc_multi_anchor"
        if multi and config.safe_coefficient:
            w = safe_coefficient(new.flat, self.learning_rate, config.lam)
            new = MlpParams.from_flat(w, new.layer_sizes)
        if self.omega_total is None:
            self.omega_total = new
        else:
            accumulate(self.omega_total, new, config.online_decay)  # 1.0 for multi-anchor
        if config.kind == "ewc" or (multi and self.anchor is None):
            self.anchor = params.copy()
        elif multi:
            # w is this task's map, read for the last time here
            w, weight = new.flat, self.omega_total.flat
            share = np.divide(w, weight, out=np.zeros_like(w), where=weight > 0)
            # share * (theta - anchor), written over w: one temporary, share
            np.subtract(params.flat, self.anchor.flat, out=w)
            np.multiply(share, w, out=w)
            self.anchor.flat += w
        self.hook = _make_hook(config, self.learning_rate, self.omega_total, self.anchor)
        return estimated
