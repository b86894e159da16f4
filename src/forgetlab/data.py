"""Task data: IDX ingestion, permuted task sequences, synthetic fallback, batching.

A task sequence is built from one base dataset (MNIST-style images or a
synthetic stand-in) plus a fixed, seeded pixel permutation per task.
Both sources return the base as ``((train_images, train_labels),
(test_images, test_labels))``.
A base holds uint8 pixel levels, 0..255, like the IDX files MNIST ships
in, so it costs one byte per pixel. Every task shares the same read-only
base arrays; a task's pixels are gathered and permuted per batch or per
chunk, so a sequence costs one copy of the data whatever its length.
The gather is the one place that widens levels: it permutes the uint8
rows, then writes ``levels / 255.0`` in the run dtype
(``numerics.RUN_DTYPE``, float32) in one pass, so every pixel a model
sees is a float32 in [0, 1]. The importance estimators and evaluation
walk a split through :meth:`TaskDataset.chunks`, ``CHUNK_ROWS`` rows at
a time, so neither holds more than one chunk of a split's widened rows,
whatever its size.
Building the base holds no second copy either. Both sources take
``pick_rows``, which maps the train split's row count to the rows to keep,
and build only those rows: the IDX loader returns the payload, which it
reads as a view, or the kept rows gathered from it; the synthetic source
draws each class ``CHUNK_ROWS`` samples at a time and quantizes each
chunk straight into preallocated uint8 splits.

Each data fact is checked once: :func:`_parse_pair` an IDX pair's
layout, :func:`make_permuted_tasks` each base split once per build
against the network it feeds (2-D uint8 levels of the input width, so
uint8 bounds the pixels; one integer label per row; at least one row;
labels below the output width), and :class:`TaskDataset` its own
permutation. The helpers trust the config's bounds (``num_tasks``,
``batch_size`` >= 1).
The labels the model reads are this layer's alone (integers, one per
row, each below the output width); the model trusts them.

The layer's draws, the synthetic base, each task's permutation and each
epoch's shuffle, come from generators :func:`numerics.stream` keys by the
run's seed and a stream id; :func:`batches` takes its epoch's generator.
"""

from __future__ import annotations

import gzip
import math
import os
import struct
import zlib
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Optional

import numpy as np

from .fileio import atomic_write
from .numerics import PERMUTATION_STREAM_ID, RUN_DTYPE, SYNTH_STREAM_ID, ShapeError, stream

IMAGE_MAGIC = 0x00000803
LABEL_MAGIC = 0x00000801

# Seconds one download may wait on its server before it counts as failed.
FETCH_TIMEOUT_S = 60

# Rows per chunk of a split walk (importance estimation, evaluation) and
# per draw of the synthetic source: the most widened rows of a split a
# walk or a build holds at once.
CHUNK_ROWS = 512

# The largest pixel level; a level l is the pixel l / LEVELS_MAX.
LEVELS_MAX = 255

# Maps a train split's row count to the rows to keep, in order (None keeps all).
PickRows = Callable[[int], Optional[np.ndarray]]

# Train pair, then test pair, each images first: load_mnist relies on the order.
MNIST_FILE_NAMES = {
    "train_images": "train-images-idx3-ubyte",
    "train_labels": "train-labels-idx1-ubyte",
    "test_images": "t10k-images-idx3-ubyte",
    "test_labels": "t10k-labels-idx1-ubyte",
}


class IdxFormatError(ValueError):
    """An IDX file violates the published layout, or a pair disagrees on its count."""


def _parse_idx(raw: bytes, expected_magic: int, origin: str) -> np.ndarray:
    """Decode one IDX payload; errors name its ``origin`` (a path or URL).

    The array is a read-only view of ``raw``, which it keeps alive.
    """
    if len(raw) < 4:
        raise IdxFormatError(f"{origin}: missing IDX header")
    (magic,) = struct.unpack(">i", raw[:4])
    if magic != expected_magic:
        raise IdxFormatError(
            f"{origin}: magic 0x{magic:08x}, expected 0x{expected_magic:08x}"
        )
    ndims = magic & 0xFF
    header_len = 4 + 4 * ndims
    if len(raw) < header_len:
        raise IdxFormatError(f"{origin}: header truncated")
    dims = struct.unpack(f">{ndims}i", raw[4:header_len])
    if min(dims) < 0:
        raise IdxFormatError(f"{origin}: negative dimension in header {dims}")
    expected = math.prod(dims)
    payload = memoryview(raw)[header_len:]  # slicing the bytes would copy them
    if len(payload) < expected:
        raise IdxFormatError(
            f"{origin}: payload has {len(payload)} bytes, header implies {expected}"
        )
    if len(payload) > expected:
        raise IdxFormatError(
            f"{origin}: payload has {len(payload)} bytes, {len(payload) - expected} more "
            f"than the header implies"
        )
    return np.frombuffer(payload, dtype=np.uint8).reshape(dims)


def _parse_pair(images_raw: bytes, labels_raw: bytes, origins) -> tuple[np.ndarray, np.ndarray]:
    """Decode an image/label IDX pair: both magics, then equal counts; errors name ``origins``."""
    images = _parse_idx(images_raw, IMAGE_MAGIC, origins[0])
    labels = _parse_idx(labels_raw, LABEL_MAGIC, origins[1])
    if images.shape[0] != labels.shape[0]:
        raise IdxFormatError(
            f"{origins[0]} has {images.shape[0]} images, {origins[1]} has {labels.shape[0]} labels"
        )
    return images, labels


def load_idx(
    images_path: str, labels_path: str, pick_rows: Optional[PickRows] = None
) -> tuple[np.ndarray, np.ndarray]:
    """Load an IDX image/label pair, checked as :func:`_parse_pair` checks it.

    Returns ``(images, labels)`` with images flattened to rows of uint8
    pixel levels, and labels as int64. ``pick_rows``, if given, is called
    with the pair's item count and returns the rows to keep, in order, or
    None for every row. With every row kept, the images are a read-only
    view of the file's payload; kept rows are one uint8 copy of just them.
    """
    images, labels = _parse_pair(
        *(Path(path).read_bytes() for path in (images_path, labels_path)),
        (images_path, labels_path),
    )
    rows = None if pick_rows is None else pick_rows(labels.shape[0])
    if rows is not None:
        images, labels = images[rows], labels[rows]  # drops the payload's bytes
    # the row width is given, not -1, which numpy cannot infer for a file of 0 rows
    return images.reshape(images.shape[0], math.prod(images.shape[1:])), labels.astype(np.int64)


def load_mnist(
    data_dir: str, pick_rows: Optional[PickRows] = None
) -> tuple[tuple[np.ndarray, np.ndarray], tuple[np.ndarray, np.ndarray]]:
    """Load the four canonical MNIST IDX files from ``data_dir``: ``(train, test)``.

    ``pick_rows`` selects the train rows to keep, as in :func:`load_idx`;
    the test split is always whole.
    """
    paths = [os.path.join(data_dir, name) for name in MNIST_FILE_NAMES.values()]
    return load_idx(*paths[:2], pick_rows), load_idx(*paths[2:])


def fetch_idx_files(base_url: str, data_dir: str) -> list[str]:
    """Download the four IDX files from ``base_url`` into ``data_dir``.

    Tries ``<base_url>/<name>.gz`` first, then the raw name (also after a
    truncated or corrupt ``.gz``, or ``FETCH_TIMEOUT_S`` of silence). Each
    split's image/label pair is checked by :func:`_parse_pair` (magic,
    dimension counts, exact byte length, matching counts; errors name the
    URLs), all before any file is written, so a bad download leaves
    ``data_dir`` untouched.
    """
    import urllib.request  # loads ssl, http and email: only a download needs them

    fetched = {}  # key -> (payload, URL it came from)
    for key, name in MNIST_FILE_NAMES.items():
        errors = []
        for candidate, compressed in ((f"{name}.gz", True), (name, False)):
            url = base_url.rstrip("/") + "/" + candidate
            try:
                with urllib.request.urlopen(url, timeout=FETCH_TIMEOUT_S) as resp:
                    data = resp.read()
                fetched[key] = (gzip.decompress(data) if compressed else data, url)
                break
            except (OSError, EOFError, zlib.error) as exc:  # HTTP/file, cut or corrupt .gz
                errors.append(f"{url}: {exc}")
        else:
            raise IOError("could not fetch IDX file:\n  " + "\n  ".join(errors))
    for split in ("train", "test"):
        images, labels = fetched[f"{split}_images"], fetched[f"{split}_labels"]
        _parse_pair(images[0], labels[0], (images[1], labels[1]))
    os.makedirs(data_dir, exist_ok=True)
    written = [os.path.join(data_dir, name) for name in MNIST_FILE_NAMES.values()]
    for path, (data, _) in zip(written, fetched.values()):
        with atomic_write(path, "wb") as fh:
            fh.write(data)
    return written


@dataclass(frozen=True)
class TaskDataset:
    """One task of a sequence: the shared base splits plus its pixel permutation.

    ``train_images``/``test_images`` are the unpermuted base splits as
    2-D uint8 pixel levels and, with their labels, the same read-only
    arrays in every task of a sequence. :func:`make_permuted_tasks` is
    the one door for them: it checks the base once per build, so the
    constructor checks only the permutation. Read a task's pixels only
    through :meth:`rows`, which gathers the requested rows of a split,
    applies ``permutation`` and scales them into run-dtype [0, 1], or
    :meth:`chunks`, which does so one chunk of a split at a time.
    """

    task_id: int
    train_images: np.ndarray
    train_labels: np.ndarray
    test_images: np.ndarray
    test_labels: np.ndarray
    permutation: np.ndarray

    def __post_init__(self):
        width = self.train_images.shape[1]
        if not np.array_equal(np.sort(self.permutation), np.arange(width)):
            raise ValueError(f"permutation is not a bijection on 0..{width - 1}")

    def rows(self, split: str, idx) -> np.ndarray:
        """This task's ``split`` pixels at ``idx``, as a fresh C-contiguous run-dtype array."""
        return _gather(getattr(self, f"{split}_images"), idx, self.permutation)

    def chunks(self, split: str, picks: Optional[np.ndarray] = None):
        """Yield this task's ``split`` images at ``picks`` (every row if None), in order.

        ``split`` is "train" or "test". Each chunk holds the next
        ``CHUNK_ROWS`` rows (fewer in the last), gathered as the consumer
        asks for it, so a walk over the split holds one chunk at a time.
        """
        n = len(getattr(self, f"{split}_labels")) if picks is None else len(picks)
        for start in range(0, n, CHUNK_ROWS):
            block = slice(start, start + CHUNK_ROWS)
            yield self.rows(split, block if picks is None else picks[block])


def _gather(levels: np.ndarray, rows, permutation: np.ndarray) -> np.ndarray:
    """``levels[rows] / 255`` in ``RUN_DTYPE``, column j taken from column ``permutation[j]``.

    The rows are permuted as uint8, one byte per pixel, and then widened
    and scaled in one pass into the output: every level is exact in the
    run dtype, so ``/ 255.0`` rounds each pixel once, to the nearest
    run-dtype value of ``level / 255``.
    """
    permuted = np.take(levels[rows], permutation, axis=1)
    return np.divide(permuted, LEVELS_MAX, dtype=RUN_DTYPE)


def synth_dataset(
    classes: int,
    dims: int,
    samples_per_class: int,
    spread: float,
    seed: int,
    pick_rows: Optional[PickRows] = None,
) -> tuple[tuple[np.ndarray, np.ndarray], tuple[np.ndarray, np.ndarray]]:
    """Gaussian-cluster stand-in base, one cluster per class, in uint8 levels.

    Each class is an isotropic Gaussian (standard deviation ``spread``)
    around a center drawn uniformly in [0.2, 0.8] per dimension; samples
    are clipped to [0, 1], quantized to the level ``rint(255 * x)`` like
    an 8-bit image, and split 80/20 per class into train/test.
    Returns ``((train_images, train_labels), (test_images, test_labels))``
    like :func:`load_mnist`, fully determined by the arguments.
    ``pick_rows`` selects the train rows to keep, as in :func:`load_idx`:
    it is called with the train split's row count, ``classes *
    int(0.8 * samples_per_class)``, before any sample is drawn.

    Both splits are allocated once, holding only the kept train rows.
    Each class is drawn ``CHUNK_ROWS`` samples at a time, the same draws
    as one call per class, and each chunk is quantized in place and
    written straight into its rows: a slice of the output for contiguous
    rows, one indexed write for picked ones. So the build holds the
    output plus about one float64 chunk.
    """
    rng = stream(seed, SYNTH_STREAM_ID)
    centers = rng.uniform(0.2, 0.8, (classes, dims))
    n_train = int(samples_per_class * 0.8)
    n_test = samples_per_class - n_train
    train_labels = np.repeat(np.arange(classes, dtype=np.int64), n_train)
    rows = None if pick_rows is None else pick_rows(train_labels.shape[0])
    if rows is not None:
        train_labels = train_labels[rows]
        slot = np.full(classes * n_train, -1)  # each train row's place in the output, or -1
        slot[rows] = np.arange(len(rows))
    train_images = np.empty((train_labels.shape[0], dims), dtype=np.uint8)
    test_images = np.empty((classes * n_test, dims), dtype=np.uint8)
    for c in range(classes):
        for start in range(0, samples_per_class, CHUNK_ROWS):
            chunk = rng.standard_normal((min(CHUNK_ROWS, samples_per_class - start), dims))
            chunk *= spread
            chunk += centers[c]
            np.clip(chunk, 0.0, 1.0, out=chunk)
            chunk *= LEVELS_MAX
            np.rint(chunk, out=chunk)  # whole levels, so the uint8 writes below are exact
            # the chunk's first k samples are train rows, the rest test rows
            k = min(max(n_train - start, 0), chunk.shape[0])
            at = c * n_train + start
            if rows is None:
                train_images[at : at + k] = chunk[:k]
            else:
                to = slot[at : at + k]
                keep = to >= 0
                train_images[to[keep]] = chunk[:k][keep]
            at = c * n_test + max(start - n_train, 0)
            test_images[at : at + chunk.shape[0] - k] = chunk[k:]
            del chunk  # free this chunk before the next is drawn
    return (
        (train_images, train_labels),
        (test_images, np.repeat(np.arange(classes, dtype=np.int64), n_test)),
    )


def _shared_base(base_train, base_test, width: int, classes: int) -> list[np.ndarray]:
    """Check both base splits once and return read-only views of them.

    Each split's images must be a 2-D uint8 matrix of pixel levels (uint8
    bounds the pixels), with one integer label per row, at least one row
    and labels in ``0..classes-1``; both splits must be ``width`` pixels
    wide. Returns the views in :class:`TaskDataset`'s field order: train
    images and labels, then test images and labels.
    """
    views = []
    for name, (images, labels) in (("train", base_train), ("test", base_test)):
        if images.ndim != 2 or images.dtype != np.uint8:
            raise ShapeError(f"{name}_images must be a 2-D uint8 matrix of pixel levels")
        if labels.shape != (images.shape[0],):
            raise ShapeError(f"{name}: {images.shape[0]} images vs {labels.shape[0]} labels")
        if images.shape[0] == 0:
            raise ValueError(f"{name} split is empty")
        if labels.dtype.kind not in "iu":
            raise ShapeError(f"{name}_labels must be integers, got {labels.dtype}")
        if labels.min() < 0 or labels.max() >= classes:
            raise ValueError(f"{name}_labels outside 0..{classes - 1}")
        views += [images.view(), labels.view()]
    if base_train[0].shape[1] != width or base_test[0].shape[1] != width:
        raise ShapeError(
            f"expected image width {width}, got train {base_train[0].shape[1]} "
            f"/ test {base_test[0].shape[1]}"
        )
    for view in views:
        view.flags.writeable = False
    return views


def make_permuted_tasks(
    base_train: tuple[np.ndarray, np.ndarray],
    base_test: tuple[np.ndarray, np.ndarray],
    num_tasks: int,
    seed: int,
    expected_width: int,
    classes: int,
) -> list[TaskDataset]:
    """Derive ``num_tasks`` permuted tasks from one base dataset.

    Task ``t`` applies a single pixel permutation, drawn from
    ``stream(seed, PERMUTATION_STREAM_ID, t)``, to every train and test
    image, except task 0, which keeps the identity, so first-task curves
    stay comparable with an unpermuted baseline.

    This is the one door for a task base: :func:`_shared_base` checks
    each split once against the network it feeds, ``expected_width``
    pixels wide with labels below ``classes``, and every task holds the
    same read-only views of it, so no task copies the data and none can
    write into another's. The tasks do see later writes to the caller's
    own arrays.
    """
    base = _shared_base(base_train, base_test, expected_width, classes)
    tasks = []
    for t in range(num_tasks):
        if t == 0:
            perm = np.arange(expected_width)
        else:
            perm = stream(seed, PERMUTATION_STREAM_ID, t).permutation(expected_width)
        tasks.append(TaskDataset(t, *base, perm))
    return tasks


def batches(dataset: TaskDataset, batch_size: int, rng: np.random.Generator):
    """Yield one epoch of seeded minibatches over the train split.

    The epoch is a fresh shuffle of all train rows drawn from ``rng``,
    sliced into consecutive batches; a final short batch is kept. Calling
    again with the same (advancing) generator yields the next epoch's order.
    """
    n = dataset.train_images.shape[0]
    order = rng.permutation(n)
    for start in range(0, n, batch_size):
        idx = order[start : start + batch_size]
        yield dataset.rows("train", idx), dataset.train_labels[idx]
