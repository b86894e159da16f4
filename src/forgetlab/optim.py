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

Internally the optimizer writes its step's direction over the gradient
and reports a deferred scale, whose product with the direction is the
step: SGD's direction is the negated gradient and its scale is the
learning rate, applied after the post hook runs.
Multiplying by an attenuation factor on either side of the optimizer
then rounds identically, so for SGD the two hook sides produce bit-equal
trajectories rather than merely close ones. Adam's scale is 1.0, which
leaves its update semantics untouched.

Every update works in place on the flat parameter vector (see
:mod:`.model`) and in its dtype: Adam's moments and scratch are made in
the gradients' dtype, which :func:`apply` checks is the parameters'.
The gradient buffer the caller hands to :func:`apply`
carries the whole step: a pre hook transforms it, the optimizer writes
its direction over it (SGD negates it, Adam overwrites each block after
reading it), a post hook transforms that, and :func:`apply` scales it
and adds it into ``params``. So a step allocates nothing
parameter-sized; the caller's gradient is consumed. Adam makes its
passes block by block, over ``ADAM_BLOCK`` entries at a time, so that a
block's gradient, moments and scratch stay in cache between passes; the
scratch is one block long. Every entry sees the same operations in the
same order as in a whole-vector pass, so neither the blocking nor the
aliasing changes any rounding.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .model import Gradients, MlpParams, check_congruent
from .numerics import check_fields

OPTIMIZER_KINDS = ("sgd", "adam")
DEFAULT_LEARNING_RATES = {"sgd": 0.2, "adam": 0.001}
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPSILON = 1e-8
# Entries per block of Adam's update: 128 KiB per float32 array (256 KiB
# per float64 one), so the four arrays one block touches fit a 2 MiB L2
# cache together in either dtype.
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

    Adam's moments (one parameter vector each) and its scratch (one
    ``ADAM_BLOCK``, or the whole vector if that is shorter) are allocated
    in the gradients' dtype on the first step and then updated in place every step; they live as
    long as the optimizer, which a run builds afresh for each task. SGD
    keeps no state.
    """

    def __init__(self, config: OptimizerConfig):
        self.kind = config.kind
        self.learning_rate = config.resolved_rate
        self.first_moment: Optional[MlpParams] = None
        self.second_moment: Optional[MlpParams] = None
        self.t = 0
        self._scratch: Optional[np.ndarray] = None


@dataclass(frozen=True)
class StepHook:
    """Optional gradient and step transforms, both in place.

    Each is called as ``transform(values, params)`` and rewrites
    ``values``, the gradient or the step, in place; ``params`` are the
    parameters the update starts from (read-only).
    """

    pre_optimizer: Optional[Callable[[Gradients, MlpParams], None]] = None
    post_optimizer: Optional[Callable[[Gradients, MlpParams], None]] = None


def _adam_direction(state: Optimizer, grads: Gradients) -> None:
    """Bias-corrected Adam step over ``grads``; advances the moments and counter in place.

    Epsilon sits outside the square root: -lr * m_hat / (sqrt(v_hat) + eps).
    The 13 passes run over one ``ADAM_BLOCK`` of entries at a time, and a
    block's step is written over its gradient once both moments have read
    it, so ``grads`` ends holding the step. Adam is elementwise,
    and a run's gradients and moments share one layout: :func:`apply`
    checks the gradients against the parameters, and a gradient of
    another length fails in numpy.
    """
    if state.first_moment is None:
        state.first_moment = grads.zeros_like()
        state.second_moment = grads.zeros_like()
        state._scratch = np.empty(min(ADAM_BLOCK, grads.flat.size), dtype=grads.flat.dtype)
    b1, b2 = ADAM_BETA1, ADAM_BETA2
    state.t += 1
    c1 = 1 - b1**state.t
    c2 = 1 - b2**state.t
    lr, eps = state.learning_rate, ADAM_EPSILON
    flats = grads.flat, state.first_moment.flat, state.second_moment.flat
    for start in range(0, grads.flat.size, ADAM_BLOCK):
        g, m, v = (a[start : start + ADAM_BLOCK] for a in flats)
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
        # step = (-lr * (m / c1)) / (sqrt(v / c2) + eps), over g
        np.divide(m, c1, out=g)
        np.multiply(g, -lr, out=g)
        np.divide(v, c2, out=tmp)
        np.sqrt(tmp, out=tmp)
        np.add(tmp, eps, out=tmp)
        np.divide(g, tmp, out=g)


def step_parts(optimizer: Optimizer, grads: Gradients) -> float:
    """Write the step's direction over ``grads``; return its deferred scale.

    SGD: ``grads`` becomes ``-g`` and the scale is the learning rate, so
    the step is ``-lr * g``. Adam: ``grads`` becomes the bias-corrected
    step and the scale is 1.0. The kind was validated by
    :class:`OptimizerConfig`.
    """
    if optimizer.kind == "sgd":
        np.negative(grads.flat, out=grads.flat)
        return optimizer.learning_rate
    _adam_direction(optimizer, grads)
    return 1.0


def apply(
    params: MlpParams,
    grads: Gradients,
    optimizer: Optimizer,
    hook: Optional[StepHook] = None,
) -> None:
    """One update in place: pre-hook the gradient, step, post-hook the step, add.

    ``grads`` carries each stage and ends holding the step, which is
    added into ``params``; both are overwritten and nothing is returned.
    ``grads`` must have the parameters' layout and dtype.
    """
    check_congruent(params, grads, "params and grads")
    if hook is not None and hook.pre_optimizer is not None:
        hook.pre_optimizer(grads, params)
    scale = step_parts(optimizer, grads)
    if hook is not None and hook.post_optimizer is not None:
        hook.post_optimizer(grads, params)
    if scale != 1.0:
        grads.flat *= scale
    params.flat += grads.flat
