"""Dense float64 kernel and deterministic random streams.

Matrices are plain 2-D C-order ``numpy.float64`` arrays. The helpers here
add the contract checks the rest of the package relies on: shape
validation with informative errors, and :func:`check_fields`, which
checks every config field against the choices and bounds its metadata
declares, and every float setting for finiteness. No product is scanned
for NaN or infinity: :func:`~forgetlab.model.forward` owns finiteness.

Random streams wrap the Philox4x64-10 counter-based generator, keyed by
``SeedSequence(seed, spawn_key=key)``. Identical ``(seed, key)`` pairs
always reproduce the same sequence, and child streams derived with
distinct ids are statistically independent without sharing state.

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
    """Matrix product with shape checking.

    Writes into ``out`` when given (which must have the product's shape).
    An overflow neither warns nor raises: finiteness is the caller's fact.

    Summation order is fixed by the BLAS build, so repeated calls with the
    same operands in the same environment are bit-identical.
    """
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
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
    kernel family picked at runtime (``"unknown"`` under another BLAS) and
    the BLAS thread count at the time of the call (``None`` when it
    cannot be asked).
    """
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    core = openblas_function("scipy_openblas_get_corename64_", ctypes.c_char_p, [])
    threads = openblas_function("scipy_openblas_get_num_threads64_", ctypes.c_int, [])
    return {
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_core": core().decode() if core else "unknown",
        "blas_threads": threads() if threads else None,
    }


class RandomStream:
    """Seeded Philox stream with cheap derived child streams.

    The generator is Philox4x64-10 (a counter-based PRNG), keyed through
    ``numpy.random.SeedSequence(seed, spawn_key=key)``. The ``key`` tuple
    identifies a stream within one seed; two streams with different keys
    never share state. Uniform doubles use numpy's standard 53-bit
    conversion, so sequences are reproducible wherever the same numpy
    bit-generator is available. A negative seed raises ``ValueError``
    from ``SeedSequence``; a run's seed is checked by its config first.
    """

    def __init__(self, seed: int, key: tuple[int, ...] = ()):
        seed = int(seed)
        key = tuple(int(k) for k in key)
        if any(k < 0 or k >= 2**32 for k in key):
            raise ValueError(f"stream ids must fit in uint32, got {key}")
        self.seed = seed
        self.key = key
        self._gen = np.random.Generator(
            np.random.Philox(np.random.SeedSequence(entropy=seed, spawn_key=key))
        )

    def __repr__(self) -> str:
        return f"RandomStream(seed={self.seed}, key={self.key})"

    def child(self, *ids: int) -> "RandomStream":
        """Derive an independent stream identified by ``ids`` under the same seed."""
        return RandomStream(self.seed, self.key + ids)

    def uniform(self, lo: float, hi: float, size) -> np.ndarray:
        """Array of doubles in ``[lo, hi)``."""
        if not lo < hi:
            raise ValueError(f"uniform bounds require lo < hi, got [{lo}, {hi})")
        return self._gen.uniform(lo, hi, size=size)

    def standard_normal(self, size) -> np.ndarray:
        """Array of standard normal doubles (numpy's ziggurat sampler)."""
        return self._gen.standard_normal(size=size)

    def permutation(self, n: int) -> np.ndarray:
        """A random permutation of ``0..n-1``."""
        return self._gen.permutation(n)

    def choice(self, n: int, size: int) -> np.ndarray:
        """``size`` distinct indices drawn from ``0..n-1`` without replacement."""
        return self._gen.choice(n, size=size, replace=False)
