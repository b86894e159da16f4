"""SGD and Adam emitting explicit steps, with hooks around the optimizer.

A strategy can transform the gradient before the optimizer sees it
(``pre_optimizer``) or transform the step the optimizer emits
(``post_optimizer``). Both are called as ``hook(values, params)`` with
the parameters being updated, so a strategy builds its hook once per
task rather than once per step.

:class:`OptimizerConfig` chooses the kind and the learning rate, and
:class:`Optimizer` is the one optimizer type it configures: the kind,
the resolved rate and Adam's running state. Every optimizer constant
(the default rate per kind, Adam's beta1, beta2 and epsilon) is defined
once, in this module.

Internally the optimizer reports its step as a ``(direction, scale)``
pair whose product is the step: SGD's direction is the negated gradient
and its scale is the learning rate, applied after the post hook runs.
Multiplying by an attenuation factor on either side of the optimizer
then rounds identically, so for SGD the two hook sides produce bit-equal
trajectories rather than merely close ones. Adam's scale is 1.0, which
leaves its update semantics untouched.

Every update works on the flat parameter vector (see :mod:`.model`).
Adam updates its moments in place and writes its direction into a buffer
that the :class:`Optimizer` owns, so the direction a step returns is
overwritten by the next step. Adam makes its passes block by block, over
``ADAM_BLOCK`` entries at a time, so that a block's gradient, moments,
direction and scratch stay in cache between passes; the scratch is one
block long. Every entry sees the same operations in the same order as
in a whole-vector pass, so the blocking changes no rounding. Hooks own
their output buffers the same way. :func:`apply` is the boundary: it
never mutates ``params`` or ``grads`` and returns parameters in a freshly
allocated vector, which no later step touches.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .model import Gradients, MlpParams, check_congruent
from .numerics import ShapeError, check_fields

OPTIMIZER_KINDS = ("sgd", "adam")
DEFAULT_LEARNING_RATES = {"sgd": 0.2, "adam": 0.001}
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPSILON = 1e-8
# Entries per block of Adam's update: 256 KiB per float64 array, so the
# five arrays one block touches fit a 2 MiB L2 cache together.
ADAM_BLOCK = 32768


@dataclass(frozen=True)
class OptimizerConfig:
    """Optimizer choice plus learning rate; the rate defaults per kind."""

    kind: str = field(default="adam", metadata={"choices": OPTIMIZER_KINDS})
    learning_rate: Optional[float] = field(default=None, metadata={"above": 0})

    def __post_init__(self):
        check_fields(self)

    @property
    def resolved_rate(self) -> float:
        if self.learning_rate is not None:
            return self.learning_rate
        return DEFAULT_LEARNING_RATES[self.kind]


class Optimizer:
    """The configured optimizer: its kind, its rate, and Adam's running state.

    Adam's moments and its direction buffer (one parameter vector each)
    and its scratch (one ``ADAM_BLOCK``, or the whole vector if that is
    shorter) are allocated on the first step after a reset and then
    updated in place every step. SGD keeps no state.
    """

    def __init__(self, config: OptimizerConfig):
        self.kind = config.kind
        self.learning_rate = config.resolved_rate
        self.reset()

    def reset(self):
        """Drop accumulated state, as if no step had been taken."""
        self.first_moment: Optional[MlpParams] = None
        self.second_moment: Optional[MlpParams] = None
        self.t = 0
        self._direction: Optional[np.ndarray] = None
        self._scratch: Optional[np.ndarray] = None


@dataclass(frozen=True)
class StepHook:
    """Optional gradient and step transforms, both shape-preserving.

    Each is called as ``transform(values, params)``: the gradient or the
    step, and the parameters the update starts from (read-only).
    """

    pre_optimizer: Optional[Callable[[Gradients, MlpParams], Gradients]] = None
    post_optimizer: Optional[Callable[[Gradients, MlpParams], Gradients]] = None


def _adam_direction(state: Optimizer, grads: Gradients) -> Gradients:
    """Bias-corrected Adam step; advances the moments and counter in place.

    Epsilon sits outside the square root: -lr * m_hat / (sqrt(v_hat) + eps).
    The 13 passes run over one ``ADAM_BLOCK`` of entries at a time.
    The returned step is the optimizer's direction buffer. Adam is
    elementwise, and a run's gradients and moments share one layout:
    :func:`apply` checks the gradients against the parameters, and a
    gradient of another length fails in numpy or ``MlpParams.from_flat``.
    """
    if state.first_moment is None:
        state.first_moment = MlpParams.zeros(grads.layer_sizes)
        state.second_moment = MlpParams.zeros(grads.layer_sizes)
        state._direction = np.empty_like(grads.flat)
        state._scratch = np.empty(min(ADAM_BLOCK, grads.flat.size))
    b1, b2 = ADAM_BETA1, ADAM_BETA2
    state.t += 1
    c1 = 1 - b1**state.t
    c2 = 1 - b2**state.t
    lr, eps = state.learning_rate, ADAM_EPSILON
    flats = grads.flat, state.first_moment.flat, state.second_moment.flat, state._direction
    for start in range(0, grads.flat.size, ADAM_BLOCK):
        g, m, v, d = (a[start : start + ADAM_BLOCK] for a in flats)
        tmp = state._scratch[: g.size]
        # m = b1 * m + (1 - b1) * g
        np.multiply(m, b1, out=m)
        np.multiply(g, 1 - b1, out=tmp)
        np.add(m, tmp, out=m)
        # v = b2 * v + ((1 - b2) * g) * g
        np.multiply(v, b2, out=v)
        np.multiply(g, 1 - b2, out=tmp)
        np.multiply(tmp, g, out=tmp)
        np.add(v, tmp, out=v)
        # d = (-lr * (m / c1)) / (sqrt(v / c2) + eps)
        np.divide(m, c1, out=d)
        np.multiply(d, -lr, out=d)
        np.divide(v, c2, out=tmp)
        np.sqrt(tmp, out=tmp)
        np.add(tmp, eps, out=tmp)
        np.divide(d, tmp, out=d)
    return MlpParams.from_flat(state._direction, grads.layer_sizes)


def step_parts(optimizer: Optimizer, grads: Gradients) -> tuple[Gradients, float]:
    """The optimizer's step as (direction, deferred scalar).

    SGD: ``(-g, learning_rate)``, so the step is ``-lr * g``. Adam:
    ``(step, 1.0)`` with the bias-corrected step from the optimizer's
    direction buffer. The kind was validated by :class:`OptimizerConfig`.
    """
    if optimizer.kind == "sgd":
        direction = MlpParams.from_flat(np.negative(grads.flat), grads.layer_sizes)
        return direction, optimizer.learning_rate
    return _adam_direction(optimizer, grads), 1.0


def _checked_hook_output(result, template: Gradients, label: str) -> Gradients:
    if not isinstance(result, MlpParams):
        raise ShapeError(f"{label} hook returned {type(result).__name__}, not parameters")
    check_congruent(result, template, f"{label} hook output and gradients")
    return result


def apply(
    params: MlpParams,
    grads: Gradients,
    optimizer: Optimizer,
    hook: Optional[StepHook] = None,
) -> MlpParams:
    """One update: pre-hook the gradient, step, post-hook the step, add.

    Returns new parameters in a fresh vector; ``params`` and ``grads``
    are not mutated (optimizer and hook buffers are).
    """
    check_congruent(params, grads, "params and grads")
    g = grads
    if hook is not None and hook.pre_optimizer is not None:
        g = _checked_hook_output(hook.pre_optimizer(g, params), grads, "pre_optimizer")
    direction, scale = step_parts(optimizer, g)
    if hook is not None and hook.post_optimizer is not None:
        direction = _checked_hook_output(
            hook.post_optimizer(direction, params), grads, "post_optimizer"
        )
    step = direction.flat if scale == 1.0 else direction.flat * scale
    return MlpParams.from_flat(params.flat + step, params.layer_sizes)
