"""Dense float kernel, the run dtype and deterministic random streams.

Matrices are plain 2-D C-order float arrays. A run computes in
``RUN_DTYPE`` (float32): the parameters carry it, and every array derived
from them takes theirs. The oracles (the gradient check, the attenuation
closed forms and the scalar Adam check) build float64 inputs and run
through the same code in float64. The helpers here add the contract
checks the rest of the package relies on: shape and dtype validation
with informative errors, and :func:`check_fields`, which
checks every config field against the choices and bounds its metadata
declares, and every float setting for finiteness. No product is scanned
for NaN or infinity: :func:`~forgetlab.model.forward` owns finiteness.

Every random draw comes from a numpy generator that :func:`stream` builds:
the Philox4x64-10 counter-based generator, keyed by
``SeedSequence(seed, spawn_key=key)``. Identical ``(seed, key)`` pairs
always reproduce the same sequence, and streams with distinct keys are
statistically independent without sharing state. A run's key starts with
one of the stream ids below, then the task (and epoch) it serves.

A product's rounding also depends on the numeric environment: the numpy
and BLAS builds, the BLAS kernel family and its thread count.
:func:`numeric_environment` reports them, and every CSV manifest records
them.
"""

from __future__ import annotations

import ctypes
import dataclasses
import math
from pathlib import Path

import numpy as np

# The dtype a run computes in: init_params casts to it and the data gather
# writes it. Every other array takes the dtype of the parameters it serves.
RUN_DTYPE = np.dtype(np.float32)


class ShapeError(ValueError):
    """Operand shapes are incompatible for the requested operation."""


class NonFiniteError(FloatingPointError):
    """A NaN or infinity appeared where finite values are required."""


def check_fields(config):
    """Check each field's ``choices``, finiteness (floats) and bounds, in field order.

    ``min`` and ``max`` (only with ``min``) are inclusive, ``above`` exclusive; None meets any.
    """
    for f in dataclasses.fields(config):
        choices = f.metadata.get("choices")
        value = getattr(config, f.name)
        if choices is not None and value not in choices:
            raise ValueError(f"{f.name} must be one of {choices}, got {value!r}")
        if isinstance(value, float) and not math.isfinite(value):
            raise ValueError(f"{f.name} must be finite, got {value!r}")
        if value is None:
            continue
        lo, hi, above = (f.metadata.get(key) for key in ("min", "max", "above"))
        if hi is not None and not lo <= value <= hi:
            raise ValueError(f"{f.name} must lie in [{lo}, {hi}], got {value}")
        if lo is not None and not value >= lo:
            raise ValueError(f"{f.name} must be >= {lo}, got {value}")
        if above is not None and not value > above:
            raise ValueError(f"{f.name} must be > {above}, got {value}")


def matmul(a, b, *, out: np.ndarray | None = None) -> np.ndarray:
    """Matrix product with shape and dtype checking.

    Both operands must have one dtype, which the product keeps, so no
    operand is silently widened. Writes into ``out`` when given (which
    must have the product's shape). An overflow neither warns nor raises:
    finiteness is the caller's fact.

    Summation order is fixed by the BLAS build, so repeated calls with the
    same operands in the same environment are bit-identical.
    """
    a = np.asarray(a)
    b = np.asarray(b)
    if a.dtype != b.dtype:
        raise ShapeError(f"matmul operands differ in dtype: {a.dtype} vs {b.dtype}")
    if a.ndim != 2 or b.ndim != 2:
        raise ShapeError(f"matmul needs 2-D operands, got {a.shape} and {b.shape}")
    if a.shape[1] != b.shape[0]:
        raise ShapeError(
            f"matmul inner dimensions differ: {a.shape[0]}x{a.shape[1]} "
            f"vs {b.shape[0]}x{b.shape[1]}"
        )
    with np.errstate(over="ignore", invalid="ignore"):
        return np.matmul(a, b, out=out)


def openblas_function(name: str, restype, argtypes):
    """A function of numpy's bundled OpenBLAS, or None under another BLAS."""
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("libscipy_openblas*.so*")):
        try:
            function = getattr(ctypes.CDLL(str(lib)), name)
        except (OSError, AttributeError):
            continue
        function.restype, function.argtypes = restype, argtypes
        return function
    return None


def numeric_environment() -> dict:
    """What fixes the rounding of a matrix product here.

    The numpy version, the BLAS build (name and version), the OpenBLAS
    kernel family picked at runtime (``"unknown"`` under another BLAS),
    the BLAS thread count at the time of the call (``None`` when it
    cannot be asked) and the run dtype's name.
    """
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    core = openblas_function("scipy_openblas_get_corename64_", ctypes.c_char_p, [])
    threads = openblas_function("scipy_openblas_get_num_threads64_", ctypes.c_int, [])
    return {
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_core": core().decode() if core else "unknown",
        "blas_threads": threads() if threads else None,
        "dtype": RUN_DTYPE.name,
    }


# Stream ids, the first key under a run's seed, one per kind of draw:
#   0 weight init, 1 task permutations, 2 synthetic base data,
#   3 per-(task, epoch) batch shuffles, 4 eval subsets, 5 train subset.
INIT_STREAM_ID = 0
PERMUTATION_STREAM_ID = 1
SYNTH_STREAM_ID = 2
SHUFFLE_STREAM_ID = 3
EVAL_SUBSET_STREAM_ID = 4
TRAIN_SUBSET_STREAM_ID = 5


def stream(seed: int, *key: int) -> np.random.Generator:
    """numpy's Philox4x64-10 generator keyed by ``SeedSequence(seed, spawn_key=key)``.

    Each key id must fit in uint32: ``SeedSequence`` would split a larger
    id into several words, so ``(2**32,)`` would draw what ``(0, 1)`` draws.
    A negative seed raises ``ValueError`` from ``SeedSequence``.
    """
    if any(not 0 <= k < 2**32 for k in key):
        raise ValueError(f"stream ids must fit in uint32, got {key}")
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(seed, spawn_key=key)))
