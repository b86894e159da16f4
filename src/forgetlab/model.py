"""Fully-connected classifier with manual forward/backward passes.

The default network is 784-300-150-10: two leaky-ReLU hidden layers and a
softmax output. The forward pass keeps one array per layer: each hidden
layer's leaky ReLU overwrites its affine output in place, so a batch's
trace holds the hidden activations, the logits and the probabilities and
no separate pre-activations. One backprop walk, :func:`layer_deltas`,
serves :func:`backward` and the Fisher estimator in :mod:`.continual`.

Parameters live in one contiguous float vector, ``MlpParams.flat``:
every layer's weights (out x in, row-major) in layer order, then every
layer's biases. ``weights[l]`` and ``biases[l]`` are views into it, so
writing through a view writes the vector. Gradients, Adam moments,
importance maps, attenuation factors and EWC anchors all use this one
layout, which lets the optimizer and the strategies update whole
parameter sets with in-place operations on one vector.

The vector's dtype, float32 or float64, is the dtype of everything
computed from it: :func:`init_params` makes a run's parameters in
``numerics.RUN_DTYPE`` (float32), :func:`forward` computes in the
parameters' dtype, and every parameter-shaped array a run derives from
them (:meth:`MlpParams.zeros_like`) keeps it. The gradient check passes
float64 parameters and inputs and so runs entirely in float64.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .fileio import atomic_write
from .numerics import RUN_DTYPE, NonFiniteError, ShapeError, matmul

DEFAULT_LAYER_SIZES = (784, 300, 150, 10)
LEAKY_SLOPE = 0.01
CHECKPOINT_VERSION = 2
# The dtypes a parameter vector may have; every block of one vector shares one.
PARAM_DTYPES = (np.dtype(np.float32), np.dtype(np.float64))


def param_count(layer_sizes: tuple[int, ...]) -> int:
    return sum((n_in + 1) * n_out for n_in, n_out in zip(layer_sizes, layer_sizes[1:]))


class MlpParams:
    """Per-layer weights (out x in) and biases (out,) as views of ``flat``.

    ``flat`` is float32 or float64 (``PARAM_DTYPES``). The constructor
    copies the given blocks, which must all share one of those dtypes,
    into a fresh vector of it; :meth:`from_flat` wraps an existing vector
    without copying.
    """

    __slots__ = ("flat", "layer_sizes", "weights", "biases")

    def __init__(self, weights, biases):
        if not weights or len(weights) != len(biases):
            raise ShapeError("weights and biases must be non-empty lists of equal length")
        dtype = weights[0].dtype
        if dtype not in PARAM_DTYPES:
            raise ShapeError(f"parameters must be float32 or float64, got {dtype}")
        for l, (w, b) in enumerate(zip(weights, biases)):
            if w.dtype != dtype or b.dtype != dtype:
                raise ShapeError(
                    f"layer {l}: weights {w.dtype} and biases {b.dtype}, expected {dtype}"
                )
            if w.ndim != 2:
                raise ShapeError(f"layer {l}: weights must be a 2-D matrix")
            if b.shape != (w.shape[0],):
                raise ShapeError(
                    f"layer {l}: biases shaped {b.shape}, expected ({w.shape[0]},)"
                )
            if l > 0 and w.shape[1] != weights[l - 1].shape[0]:
                raise ShapeError(
                    f"layer {l} expects {w.shape[1]} inputs but layer {l - 1} "
                    f"emits {weights[l - 1].shape[0]}"
                )
        sizes = (weights[0].shape[1],) + tuple(w.shape[0] for w in weights)
        flat = np.concatenate([w.ravel() for w in weights] + [b.ravel() for b in biases])
        self._bind(flat, sizes)

    @classmethod
    def from_flat(cls, flat: np.ndarray, layer_sizes: tuple[int, ...]) -> "MlpParams":
        """Wrap ``flat`` (not copied) in the layout of ``layer_sizes``."""
        layer_sizes = tuple(int(n) for n in layer_sizes)
        expected = param_count(layer_sizes)
        if (
            not isinstance(flat, np.ndarray)
            or flat.dtype not in PARAM_DTYPES
            or flat.shape != (expected,)
            or not flat.flags.c_contiguous
        ):
            raise ShapeError(
                f"flat parameters must be a contiguous float32 or float64 vector of "
                f"{expected} entries for layers {layer_sizes}"
            )
        params = cls.__new__(cls)
        params._bind(flat, layer_sizes)
        return params

    def _bind(self, flat: np.ndarray, layer_sizes: tuple[int, ...]):
        weights, biases = [], []
        offset = 0
        for n_in, n_out in zip(layer_sizes, layer_sizes[1:]):
            weights.append(flat[offset : offset + n_out * n_in].reshape(n_out, n_in))
            offset += n_out * n_in
        for n_out in layer_sizes[1:]:
            biases.append(flat[offset : offset + n_out])
            offset += n_out
        self.flat = flat
        self.layer_sizes = layer_sizes
        self.weights = tuple(weights)
        self.biases = tuple(biases)

    def __repr__(self) -> str:
        return f"MlpParams(layer_sizes={self.layer_sizes})"

    @property
    def num_layers(self) -> int:
        return len(self.weights)

    def copy(self) -> "MlpParams":
        return MlpParams.from_flat(self.flat.copy(), self.layer_sizes)

    def zeros_like(self) -> "MlpParams":
        """All-zero parameters in this layout and dtype."""
        return MlpParams.from_flat(np.zeros_like(self.flat), self.layer_sizes)


# Gradients, optimizer moments and importance maps are all parameter-shaped.
Gradients = MlpParams


def check_congruent(a: MlpParams, b: MlpParams, what: str = "operands"):
    """Raise :class:`ShapeError` unless ``a`` and ``b`` share one layout and one dtype."""
    if a.layer_sizes != b.layer_sizes:
        raise ShapeError(
            f"{what} are not shape-congruent: {a.layer_sizes} vs {b.layer_sizes}"
        )
    if a.flat.dtype != b.flat.dtype:
        raise ShapeError(f"{what} differ in dtype: {a.flat.dtype} vs {b.flat.dtype}")


def global_norm(params: MlpParams) -> float:
    return float(np.linalg.norm(params.flat))


@dataclass(frozen=True)
class ForwardTrace:
    """Backprop cache for one minibatch.

    ``layer_inputs[l]`` is what layer l multiplies by its weights: the
    batch for l = 0, else hidden layer l-1's post-leaky-ReLU values. That
    activation is the only array kept for its layer: the pre-activations
    were overwritten in place, and :func:`leaky_relu_grad` reads the slope
    from the activation. ``logits`` holds the output layer's affine
    outputs and ``probabilities`` their softmax.
    """

    layer_inputs: list[np.ndarray]
    logits: np.ndarray
    probabilities: np.ndarray


def init_params(
    rng: np.random.Generator,
    layer_sizes: tuple[int, ...] = DEFAULT_LAYER_SIZES,
    dtype=RUN_DTYPE,
) -> MlpParams:
    """He-uniform weights (entries in +-sqrt(6/fan_in)) with zero biases.

    The weights are drawn in float64 and rounded once to ``dtype``, so a
    float32 init is the rounding of the float64 one. Runs take the
    default; the gradient check passes float64.
    """
    weights, biases = [], []
    for fan_in, fan_out in zip(layer_sizes, layer_sizes[1:]):
        limit = np.sqrt(6.0 / fan_in)
        weights.append(rng.uniform(-limit, limit, (fan_out, fan_in)).astype(dtype))
        biases.append(np.zeros(fan_out, dtype=dtype))
    return MlpParams(weights=weights, biases=biases)


def leaky_relu(z: np.ndarray) -> np.ndarray:
    """Leaky ReLU of a finite ``z``, written over ``z``; returns ``z``.

    Takes the larger of ``z`` and ``LEAKY_SLOPE * z``, which equals
    ``np.where(z > 0, z, LEAKY_SLOPE * z)`` bit for bit for every finite
    ``z``: for z > 0 the product is smaller than z, for z < 0 it is
    larger, and +-0, like a negative whose product underflows to -0.0,
    maps to itself. :func:`forward` rejects a non-finite ``z`` first.
    """
    return np.maximum(z, z * LEAKY_SLOPE, out=z)


def leaky_relu_grad(activation: np.ndarray) -> np.ndarray:
    """Slope of the leaky ReLU, read from its output ``activation``.

    ``activation > 0`` holds exactly where the pre-activation was
    positive: a non-positive ``z`` maps to ``LEAKY_SLOPE * z <= 0``,
    including ``-0.0`` and negatives whose product underflows to zero.
    The sign of a finite activation is 1 there and 0, -0 or -1
    elsewhere, so its maximum with ``LEAKY_SLOPE`` equals
    ``np.where(activation > 0, 1.0, LEAKY_SLOPE)`` bit for bit.
    """
    return np.maximum(np.sign(activation), LEAKY_SLOPE)


def softmax(logits: np.ndarray) -> np.ndarray:
    shifted = logits - logits.max(axis=1, keepdims=True)
    exp = np.exp(shifted)
    return exp / exp.sum(axis=1, keepdims=True)


def forward(params: MlpParams, batch: np.ndarray) -> ForwardTrace:
    """Run the network on a batch of image rows, in the parameters' dtype.

    Owns finiteness: raises :class:`NonFiniteError` naming the layer if
    any pre-activation is not finite. A non-finite gradient, step or
    parameter reaches a forward (the next step's, the importance
    estimate's or the evaluation's) before any result is recorded, so
    nothing else checks. Each layer's ``z`` is checked once, after the
    bias add and before the leaky ReLU overwrites it. The batch is not
    converted (the gather writes the run dtype): a batch that is not 2-D,
    not as wide as the first layer or not in the parameters' dtype fails
    in :func:`matmul`, whose :class:`ShapeError` names both shapes or
    both dtypes.
    """
    layer_inputs = [batch]
    last = params.num_layers - 1
    for l, (w, b) in enumerate(zip(params.weights, params.biases)):
        z = matmul(layer_inputs[l], w.T)
        with np.errstate(over="ignore", invalid="ignore"):
            z += b
        if not np.isfinite(z).all():
            raise NonFiniteError(f"non-finite pre-activation in layer {l}")
        if l < last:
            layer_inputs.append(leaky_relu(z))
    return ForwardTrace(layer_inputs=layer_inputs, logits=z, probabilities=softmax(z))


def cross_entropy(trace: ForwardTrace, labels: np.ndarray) -> float:
    """Mean negative log-probability of the true class, computed from logits.

    Uses the log-sum-exp form so the result stays finite even when some
    probabilities underflow. :mod:`forgetlab.data` owns the labels' shape and range.
    """
    logits = trace.logits
    shifted = logits - logits.max(axis=1, keepdims=True)
    log_z = np.log(np.exp(shifted).sum(axis=1))
    per_sample = log_z - shifted[np.arange(len(labels)), labels]
    return float(per_sample.mean())


def output_delta(trace: ForwardTrace, labels: np.ndarray) -> np.ndarray:
    """p - onehot(label), per sample: the logits' gradient. The data layer owns the labels."""
    delta = trace.probabilities.copy()
    delta[np.arange(len(labels)), labels] -= 1.0
    return delta


def layer_deltas(params: MlpParams, trace: ForwardTrace, delta: np.ndarray):
    """Backpropagate ``delta`` from the output layer down, yielding ``(l, delta_l)``.

    ``delta_l`` holds one row per sample of the gradient by layer l's
    affine outputs; layer l's weight gradient is ``delta_l.T @ trace.layer_inputs[l]``.
    """
    for l in range(params.num_layers - 1, -1, -1):
        yield l, delta
        if l > 0:
            delta = matmul(delta, params.weights[l])
            delta *= leaky_relu_grad(trace.layer_inputs[l])


def backward(
    params: MlpParams, trace: ForwardTrace, labels: np.ndarray, out: Optional[Gradients] = None
) -> Gradients:
    """Exact gradient of the mean cross-entropy for the traced batch.

    Each layer's products land directly in ``out``, which is returned
    (a fresh flat gradient when it is None).
    """
    delta = output_delta(trace, labels)
    delta /= delta.shape[0]
    grads = params.zeros_like() if out is None else out
    for l, delta in layer_deltas(params, trace, delta):
        matmul(delta.T, trace.layer_inputs[l], out=grads.weights[l])
        np.sum(delta, axis=0, out=grads.biases[l])
    return grads


def finite_difference_grads(
    loss: Callable[[MlpParams], float], params: MlpParams, h: float = 1e-5
) -> Gradients:
    """Central-difference gradient of ``loss`` at ``params``, one entry at a time.

    Perturbs ``params`` in place and restores every entry exactly.
    """
    numeric = np.empty_like(params.flat)
    for i in range(params.flat.size):
        original = params.flat[i]
        params.flat[i] = original + h
        up = loss(params)
        params.flat[i] = original - h
        down = loss(params)
        params.flat[i] = original
        numeric[i] = (up - down) / (2 * h)
    return MlpParams.from_flat(numeric, params.layer_sizes)


def max_relative_gradient_error(
    params: MlpParams, batch: np.ndarray, labels: np.ndarray, h: float = 1e-5
) -> float:
    """Worst-case relative disagreement between backprop and central differences.

    The denominator is floored at 1 so coordinates whose true gradient is
    near zero compare absolutely, where finite-difference round-off
    (about 1e-11 at h=1e-5) would otherwise dominate the ratio.
    """
    analytic = backward(params, forward(params, batch), labels).flat
    numeric = finite_difference_grads(
        lambda p: cross_entropy(forward(p, batch), labels), params, h
    ).flat
    scale = np.maximum(np.maximum(np.abs(analytic), np.abs(numeric)), 1.0)
    return float(np.max(np.abs(analytic - numeric) / scale))


def accuracy(params: MlpParams, blocks, labels: np.ndarray) -> float:
    """Fraction of argmax-correct predictions; ties go to the lowest class.

    ``blocks`` is an iterable of 2-D row blocks (such as
    :meth:`~forgetlab.data.TaskDataset.chunks`) whose rows, in order,
    match ``labels``. Hits are counted one block at a time, so only one
    block's forward pass is held at once. The count is exact, so
    ``hits / len(labels)`` is the float ``np.mean`` gives over the whole
    split. The data layer owns the labels, their match with the rows (one
    task, one set of picks) and that the set is never empty
    (:func:`~forgetlab.data.make_permuted_tasks` rejects an empty split).
    """
    hits = seen = 0
    for block in blocks:
        probabilities = forward(params, block).probabilities
        del block  # free this block's rows before the next one is made
        n = probabilities.shape[0]
        hits += int(np.count_nonzero(np.argmax(probabilities, axis=1) == labels[seen : seen + n]))
        seen += n
    return hits / seen


def save_params(params: MlpParams, path: str):
    """Write a versioned npz checkpoint (also used for importance maps), in its dtype.

    Version 2 keeps the vector's dtype, float32 or float64; version 1
    files, which were always float64, are refused by :func:`load_params`.
    """
    arrays = {f"weights_{l}": w for l, w in enumerate(params.weights)}
    arrays.update({f"biases_{l}": b for l, b in enumerate(params.biases)})
    with atomic_write(path, "wb") as fh:
        np.savez(
            fh,
            version=np.int64(CHECKPOINT_VERSION),
            num_layers=np.int64(params.num_layers),
            **arrays,
        )


def load_params(path: str) -> MlpParams:
    with np.load(path) as archive:
        version = int(archive["version"])
        if version != CHECKPOINT_VERSION:
            raise ValueError(f"{path}: checkpoint version {version}, expected {CHECKPOINT_VERSION}")
        n = int(archive["num_layers"])
        params = MlpParams(
            weights=[archive[f"weights_{l}"] for l in range(n)],
            biases=[archive[f"biases_{l}"] for l in range(n)],
        )
    if not np.isfinite(params.flat).all():
        raise NonFiniteError(f"{path}: checkpoint contains non-finite values")
    return params
