"""Shared test oracles: a scalar Adam, a whole-vector Adam, a whole-vector
EWC pre-hook, the explicit multi-anchor EWC sum, a one-draw-per-class
synthetic source, and a traced-memory probe; fresh optimizers of each
kind; copying wrappers around the in-place hooks and ``apply``; and the
golden files' environment stamp, OpenBLAS thread pin and bless.
"""

import contextlib
import ctypes
import json
import platform
import tracemalloc

import numpy as np
import numpy.random  # numpy imports it lazily; a traced peak must not pay that import

from forgetlab.continual import clip_separately, ewc_penalty
from forgetlab.model import MlpParams
from forgetlab.numerics import SYNTH_STREAM_ID, numeric_environment, openblas_function
from forgetlab.optim import (
    ADAM_BETA1,
    ADAM_BETA2,
    ADAM_EPSILON,
    DEFAULT_LEARNING_RATES,
    Optimizer,
    OptimizerConfig,
    apply,
)


def sgd(learning_rate=None):
    """A fresh SGD optimizer, at the default rate unless one is given."""
    return Optimizer(OptimizerConfig(kind="sgd", learning_rate=learning_rate))


def adam():
    """A fresh Adam optimizer at the default rate, with empty moments."""
    return Optimizer(OptimizerConfig(kind="adam"))


class ScalarAdam:
    """Independent single-parameter Adam, written directly from the update rules."""

    def __init__(self, lr=0.001, beta1=0.9, beta2=0.999, epsilon=1e-8):
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.epsilon = epsilon
        self.m = 0.0
        self.v = 0.0
        self.t = 0

    def step(self, g):
        self.t += 1
        self.m = self.beta1 * self.m + (1 - self.beta1) * g
        self.v = self.beta2 * self.v + (1 - self.beta2) * g * g
        m_hat = self.m / (1 - self.beta1**self.t)
        v_hat = self.v / (1 - self.beta2**self.t)
        return -self.lr * m_hat / (v_hat**0.5 + self.epsilon)


class WholeVectorAdam:
    """Adam's update as 13 passes over whole vectors, in the optimizer's order.

    The reference for the optimizer's blocked update, which must match it
    bit for bit: same operations, same order, one pass per operation.
    """

    def __init__(self, lr=DEFAULT_LEARNING_RATES["adam"]):
        self.lr = lr
        self.m = None
        self.v = None
        self.t = 0

    def step(self, g):
        if self.m is None:
            self.m = np.zeros_like(g)
            self.v = np.zeros_like(g)
        m, v = self.m, self.v
        d, tmp = np.empty_like(g), np.empty_like(g)
        b1, b2 = ADAM_BETA1, ADAM_BETA2
        self.t += 1
        np.multiply(m, b1, out=m)
        np.multiply(g, 1 - b1, out=tmp)
        np.add(m, tmp, out=m)
        np.multiply(v, b2, out=v)
        np.multiply(g, 1 - b2, out=tmp)
        np.multiply(tmp, g, out=tmp)
        np.add(v, tmp, out=v)
        c1 = 1 - b1**self.t
        c2 = 1 - b2**self.t
        np.divide(m, c1, out=d)
        np.multiply(d, -self.lr, out=d)
        np.divide(v, c2, out=tmp)
        np.sqrt(tmp, out=tmp)
        np.add(tmp, ADAM_EPSILON, out=tmp)
        np.divide(d, tmp, out=d)
        return d


def whole_vector_ewc_pre_hook(task_grad, params, anchor, lam_weight, threshold=None):
    """The EWC pre-hook's output as whole-vector passes, in the hook's order.

    The reference for the strategy's blocked pre-hook, which must match it
    bit for bit: the pull lam * weight * (theta - anchor), then either the
    sum with the task gradient or :func:`clip_separately` of the two.
    """
    pull = np.subtract(params.flat, anchor.flat)
    np.multiply(lam_weight, pull, out=pull)
    if threshold is not None:
        summed = task_grad.copy()
        clip_separately(summed, MlpParams.from_flat(pull, params.layer_sizes), threshold)
        return summed.flat
    np.add(task_grad.flat, pull, out=pull)
    return pull


def transformed(transform, values, params):
    """A copy of ``values`` after the in-place ``transform(copy, params)``.

    Step hooks rewrite the container they are handed; this leaves
    ``values`` as it was and returns what the hook made of it.
    """
    out = values.copy()
    transform(out, params)
    return out


def applied(params, grads, optimizer, hook=None):
    """The parameters one in-place ``apply`` makes from copies of ``params`` and ``grads``."""
    out = params.copy()
    apply(out, grads.copy(), optimizer, hook)
    return out


def one_draw_synth_dataset(classes, dims, samples_per_class, spread, seed):
    """The synthetic source with every class drawn in one call, both splits whole.

    The reference for :func:`forgetlab.data.synth_dataset`, which draws
    each class a chunk at a time with ``standard_normal`` and builds only
    the picked train rows, and must match this, subset afterwards, bit
    for bit. This draws with numpy's ``normal(0.0, 1.0)`` from the
    generator ``numerics.stream`` builds, and quantizes whole classes.
    """
    gen = np.random.Generator(
        np.random.Philox(np.random.SeedSequence(entropy=seed, spawn_key=(SYNTH_STREAM_ID,)))
    )
    centers = gen.uniform(0.2, 0.8, (classes, dims))
    n_train = int(samples_per_class * 0.8)
    train, test = [], []
    for c in range(classes):
        samples = gen.normal(0.0, 1.0, (samples_per_class, dims)) * spread + centers[c]
        levels = np.rint(np.clip(samples, 0.0, 1.0) * 255.0).astype(np.uint8)
        train.append(levels[:n_train])
        test.append(levels[n_train:])
    labels = np.arange(classes, dtype=np.int64)
    return (
        (np.concatenate(train), np.repeat(labels, n_train)),
        (np.concatenate(test), np.repeat(labels, samples_per_class - n_train)),
    )


def same_bits(a, b):
    """Whether two arrays have one dtype and shape and hold the same bits (so -0.0 differs from 0.0)."""
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def map_flat(f, *params):
    """Parameters shaped like ``params[0]`` holding ``f`` of their flat vectors."""
    return MlpParams.from_flat(f(*(p.flat for p in params)), params[0].layer_sizes)


def ewc_penalty_multi_anchor(
    params: MlpParams,
    anchors: list[MlpParams],
    omegas: list[MlpParams],
    lams: list[float],
) -> tuple[float, MlpParams]:
    """Sum of independent per-task quadratic penalties.

    The explicit sum the ``ewc_multi_anchor`` strategy's single anchor
    stands for. Gradients are summed from zero in anchor order. An empty
    anchor list is a valid state (nothing consolidated yet) and yields
    value 0 with a zero gradient.
    """
    if not len(anchors) == len(omegas) == len(lams):
        raise ValueError(
            f"got {len(anchors)} anchors, {len(omegas)} importance maps, "
            f"{len(lams)} lambdas"
        )
    value = 0.0
    gradient = np.zeros_like(params.flat)
    for anchor, omega, lam in zip(anchors, omegas, lams):
        part_value, part_grad = ewc_penalty(params, anchor, omega, lam)
        value += part_value
        gradient += part_grad.flat
    return value, MlpParams.from_flat(gradient, params.layer_sizes)


def traced_peak(fn, *args, **kwargs):
    """``(peak traced bytes, result)`` of calling ``fn(*args, **kwargs)``.

    Counts only allocations made during the call (numpy reports its
    buffers to tracemalloc), so inputs built beforehand are excluded.
    """
    tracemalloc.start()
    try:
        result = fn(*args, **kwargs)
        return tracemalloc.get_traced_memory()[1], result
    finally:
        tracemalloc.stop()


def environment_stamp() -> dict:
    """The numeric environment a golden file is blessed on, plus the machine."""
    return {**numeric_environment(), "machine": platform.machine()}


def _set_blas_threads(count: int) -> None:
    set_ = openblas_function("scipy_openblas_set_num_threads64_", None, [ctypes.c_int])
    set_(count)


@contextlib.contextmanager
def blessed_environment(stamp: dict):
    """Whether this is the environment ``stamp`` was blessed on, pinned to its threads.

    Yields None when everything in the stamp but the BLAS thread count
    matches :func:`environment_stamp`; OpenBLAS then runs at the stamp's
    thread count until the block exits, and the caller's count is
    restored. Otherwise yields a line naming both environments and pins
    nothing.
    """
    blessed, here = dict(stamp), environment_stamp()
    threads, caller_threads = blessed.pop("blas_threads"), here.pop("blas_threads")
    if blessed != here:
        yield f"blessed on {blessed}, this is {here}"
        return
    _set_blas_threads(threads)
    try:
        yield None
    finally:
        _set_blas_threads(caller_threads)


# Re-blesses both golden files; each module rewrites only its own file.
BLESS_COMMAND = (
    "PYTHONPATH=src python -m pytest tests/test_golden.py tests/test_acceptance.py --bless -q -s"
)


class GoldenValues:
    """One golden file's entries: ``check`` compares with them, or records under ``--bless``."""

    def __init__(self, path, stored):
        self.path = path
        self.stored = stored  # None: compare nothing
        self.observed = {}

    def check(self, key, **values):
        key = str(key)
        self.observed[key] = values
        if self.stored is not None:
            expected = self.stored.get(key)
            assert values == expected, (
                f"{key} differs from {self.path.name}: got {values!r}, blessed {expected!r}; "
                f"after an intended change re-bless with: {BLESS_COMMAND}"
            )


def _rewrite(path, section: str, observed: dict, keys):
    """Write ``observed`` as ``path``'s ``section`` with this environment, printing each change.

    Writes nothing unless every key was observed, so a partial run
    cannot drop entries.
    """
    missing = [key for key in keys if key not in observed]
    if missing:
        print(f"\n{path.name} not written: {missing} recorded no values")
        return
    previous = {}
    if path.exists():
        with open(path) as fh:
            previous = json.load(fh)[section]
    print()
    for key in keys:
        old = previous.get(key, {})
        for name, value in observed[key].items():
            if name not in old:
                state = "new"
            elif old[name] == value:
                state = "unchanged"
            else:
                state = f"changed ({old[name]!r} -> {value!r})"
            print(f"{path.name} {key} {name}: {state}")
    with open(path, "w") as fh:
        stored = {"environment": environment_stamp(), section: observed}
        json.dump(stored, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {path}")


@contextlib.contextmanager
def golden_file(config, path, section: str, keys):
    """Yield ``(values, mismatch)`` for a module pinned by golden file ``path``.

    Normally ``values`` compares each check with the file's ``section``,
    with OpenBLAS pinned to the blessed thread count until the block
    exits; on another environment ``mismatch`` names both and nothing is
    compared. Under ``--bless`` nothing is pinned or compared, and when
    the block exits the file is rewritten from the checks recorded for
    ``keys``.
    """
    if config.getoption("--bless"):
        values = GoldenValues(path, None)
        yield values, None
        _rewrite(path, section, values.observed, keys)
        return
    with open(path) as fh:
        stored = json.load(fh)
    with blessed_environment(stored["environment"]) as mismatch:
        yield GoldenValues(path, None if mismatch else stored[section]), mismatch
