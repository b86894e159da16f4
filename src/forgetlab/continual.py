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
W = sum_k w_k and a_bar the w-weighted mean of the task anchors. Its
memory and per-step cost are therefore constant in the task count.

One :class:`Strategy` class runs every kind. When a task ends, unless it
protects nothing, it estimates the task's importance, folds it into a
running map (in place) and builds the step hook used until the next
task ends. Hooks are called as ``hook(values, params)`` with the current
parameters, so nothing is rebuilt per step. Both estimators walk the
task's train split with :meth:`~forgetlab.data.TaskDataset.chunks`, one
forward pass per chunk, the walk evaluation uses too.

Importance maps, attenuation factors and anchors share the flat
parameter layout of :class:`~forgetlab.model.MlpParams`. Everything a
hook needs per step is fixed when a task finishes (the factors, and
``lam * omega`` for the penalties), and each hook rewrites the gradient
or step it is handed in place, so no hook owns an output buffer.

Each fact is checked once: the config fields check every setting's
choices and bounds (the helpers here trust them),
:class:`~forgetlab.data.TaskDataset` that no split is empty and the
labels, :func:`~forgetlab.model.forward` every pre-activation,
:meth:`Strategy.finish_task` the importance map (an overflowed Fisher
product too), and :func:`~forgetlab.optim.apply` gradient layouts. A
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
    sums = MlpParams.zeros(params.layer_sizes)
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
    abs_sums = [np.zeros(w.shape[1]) for w in params.weights]
    for trace, _ in _train_chunks(params, dataset):
        for abs_sum, below in zip(abs_sums, trace.layer_inputs):
            abs_sum += np.abs(below).sum(axis=0)
    n = dataset.train_labels.shape[0]
    return MlpParams(
        weights=[
            np.abs(w) * (s / n)[None, :] for w, s in zip(params.weights, abs_sums)
        ],
        biases=[np.abs(b) for b in params.biases],
    )


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
    scalars or arrays.
    """
    arr = np.asarray(omega, dtype=np.float64)
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

    Every pass writes into one fresh output array (0-d for a scalar
    ``omega``), with the roundings of the plain expressions. ``kind`` is
    one of :class:`StrategyConfig`'s attenuation choices, which it checks.
    """
    arr = np.asarray(omega, dtype=np.float64)
    out = np.empty_like(arr)
    if kind == "hyperbolic":
        np.multiply(lam, arr, out=out)
        np.add(out, 1.0, out=out)
        return np.divide(1.0, out, out=out)
    np.multiply(-lam, arr, out=out)
    return np.exp(out, out=out)


def attenuation_closed_forms() -> tuple[bool, str]:
    """Whether both attenuation kinds meet their closed-form identities.

    Bounds (0, 1] and hyperbolic >= exponential on 60 log-spaced omegas in
    [1e-6, 100]; both are 1 at omega 0, and 0.5 at lam*omega = 1
    (hyperbolic) and ln 2 (exponential). Returns the verdict and a detail.
    """
    values = np.logspace(-6.0, 2.0, 60)
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
    scratch = np.empty(min(ADAM_BLOCK, size))
    blocks = [
        (block, anchor.flat[block], lam_weight[block])
        for block in (slice(start, start + ADAM_BLOCK) for start in range(0, size, ADAM_BLOCK))
    ]

    def pre(task_grad: Gradients, params: MlpParams):
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


class Strategy:
    """The configured countermeasure: importance bookkeeping and its hook.

    ``finish_task`` does the lambda-independent half once for every kind
    that protects anything: estimate the task's importance and fold it
    into ``omega_total``. kind="none" and ``lam`` 0 protect nothing and
    skip it, so they do no estimation work. The lambda-dependent half then
    sets ``hook``, the step hook used until the next task ends: WVA's
    attenuation factors, or the EWC pull. ``hook`` and ``omega_total`` are
    None before the first task ends and whenever nothing is protected.
    ``learning_rate`` feeds the safe coefficient's alpha. ``finish_task``
    checks the importance map (finite, non-negative) for every kind, before
    the safe coefficient could turn a negative entry positive.

    Both EWC kinds pull with lam * weight * (theta - anchor) and differ
    only in how a finished task moves the anchor and the weight. ``ewc``
    consolidates: the anchor is the latest parameters and the weight the
    effective running map. ``ewc_multi_anchor`` adds each task's effective
    importance w to the running weight W and moves the anchor by
    (w / W) * (theta - anchor), which keeps it the w-weighted mean of the
    task snapshots. Where W is 0 no task pulls, so the anchor stays put
    and the pull is exactly 0.
    """

    def __init__(self, config: StrategyConfig, learning_rate: float):
        self.config = config
        self.learning_rate = learning_rate
        self.omega_total: Optional[ImportanceMap] = None
        self.anchor: Optional[MlpParams] = None
        self.hook: Optional[StepHook] = None
        self._weight: Optional[np.ndarray] = None  # ewc_multi_anchor's W

    def finish_task(self, params: MlpParams, task: TaskDataset):
        config = self.config
        if config.kind == "none" or config.lam == 0.0:
            return
        # The finished task's hook is stale; free its buffers before estimating.
        self.hook = None
        new = _estimate(config, params, task)
        if self.omega_total is None:
            self.omega_total = new
        else:
            accumulate(self.omega_total, new, config.online_decay)
        mapped = new if config.kind == "ewc_multi_anchor" else self.omega_total
        check_importance(mapped)
        if config.kind == "wva":
            self.hook = make_wva_hook(mapped, config.lam, config.attenuation, config.target)
            return
        w = mapped.flat  # the map the pull weighs by, through the safe coefficient if set
        if config.safe_coefficient:
            w = safe_coefficient(w, self.learning_rate, config.lam)
        if config.kind == "ewc":
            weight = w  # the hook's lam * w is a fresh vector, so no copy is kept
            self.anchor = params.copy()
        elif self.anchor is None:
            self._weight = weight = w.copy()  # later tasks add into it in place
            self.anchor = params.copy()
        else:
            # w is this task's map, read for the last time here
            weight = self._weight
            weight += w
            share = np.divide(w, weight, out=np.zeros_like(w), where=weight > 0)
            # share * (theta - anchor), written over w: one temporary, share
            np.subtract(params.flat, self.anchor.flat, out=w)
            np.multiply(share, w, out=w)
            self.anchor.flat += w
        self.hook = _make_ewc_hook(self.anchor, config.lam * weight, config.separate_clip_threshold)
