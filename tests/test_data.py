import gzip
import os
import re
import struct
import urllib.request
from pathlib import Path

import numpy as np
import pytest

from forgetlab import data, harness
from forgetlab.continual import estimate_fisher, estimate_total_abs_signal
from forgetlab.data import (
    CHUNK_ROWS,
    FETCH_TIMEOUT_S,
    IMAGE_MAGIC,
    LABEL_MAGIC,
    MNIST_FILE_NAMES,
    IdxFormatError,
    TaskDataset,
    batches,
    fetch_idx_files,
    load_idx,
    load_mnist,
    make_permuted_tasks,
    synth_dataset,
)
from forgetlab.harness import ExperimentConfig
from forgetlab.model import init_params
from forgetlab.numerics import RandomStream, ShapeError
from helpers import one_draw_synth_dataset, same_bits, traced_peak


def idx_bytes(magic, dims, payload):
    header = struct.pack(">i", magic) + b"".join(struct.pack(">i", d) for d in dims)
    return header + payload


def write_pair(tmp_path, n=3, rows=2, cols=2):
    pixels = (np.arange(n * rows * cols) % 256).astype(np.uint8).tobytes()
    labels = bytes([i % 10 for i in range(n)])
    img_path = tmp_path / "images"
    lab_path = tmp_path / "labels"
    img_path.write_bytes(idx_bytes(IMAGE_MAGIC, [n, rows, cols], pixels))
    lab_path.write_bytes(idx_bytes(LABEL_MAGIC, [n], labels))
    return str(img_path), str(lab_path)


# Image headers with an empty payload whose size numpy's np.prod misjudges.
BAD_HEADER_SIZES = pytest.mark.parametrize(
    "dims, message",
    [
        # in fixed-width integers the product of these dims wraps to 0
        ([2**21, 2**21, 2**22], "payload has 0 bytes, header implies 18446744073709551616"),
        ([2, -1, 397], r"negative dimension in header \(2, -1, 397\)"),
    ],
    ids=["product-overflows-int64", "negative-dim"],
)


def level_pair(tmp_path, n):
    """An IDX pair of ``n`` random-level 28x28 images and their labels; returns both paths."""
    rs = RandomStream(12)
    img_path, lab_path = tmp_path / "images", tmp_path / "labels"
    payload = rs.uniform(0, 256, n * 784).astype(np.uint8).tobytes()
    img_path.write_bytes(idx_bytes(IMAGE_MAGIC, [n, 28, 28], payload))
    lab_path.write_bytes(idx_bytes(LABEL_MAGIC, [n], bytes(int(v) for v in rs.uniform(0, 10, n))))
    return str(img_path), str(lab_path)


def scaled_then_picked(img_path, lab_path, picks=None):
    """The float64 pixels the loader made before it returned levels: the
    whole split widened and scaled by 1/255 in place, then the picks taken."""
    images = np.frombuffer(Path(img_path).read_bytes()[16:], dtype=np.uint8)
    flat = images.reshape(len(Path(lab_path).read_bytes()) - 8, -1).astype(np.float64)
    flat /= 255.0
    return flat if picks is None else flat[picks]


class TestLoadIdx:
    def test_happy_path_scales_and_flattens(self, tmp_path):
        # the loader flattens to uint8 levels; a task's gather scales them
        img_path, lab_path = write_pair(tmp_path)
        images, labels = load_idx(img_path, lab_path)
        assert images.shape == (3, 4)
        assert images.dtype == np.uint8
        assert labels.dtype == np.int64
        assert images[0, 1] == 1
        assert np.array_equal(labels, [0, 1, 2])
        task = TaskDataset(0, images, labels, images, labels, np.arange(4))
        assert task.train_rows(slice(None))[0, 1] == 1.0 / 255.0

    def test_whole_split_is_a_view_of_the_payload(self, tmp_path):
        img_path, lab_path = write_pair(tmp_path, n=5, rows=28, cols=28)
        images, _ = load_idx(img_path, lab_path)
        assert images.shape == (5, 784) and images.base is not None
        assert not images.flags.writeable and not images.flags.owndata

    @pytest.mark.parametrize("n", [10, 2000])
    def test_peak_memory_one_float_copy(self, tmp_path, n):
        # From file to float64 pixels there is one float64 copy: the
        # loader holds the file's bytes and returns a view of them, and
        # the gather widens the permuted levels once, into its output,
        # through the ufunc's cast buffer of ``np.getbufsize()`` float64s.
        # Widening the split in the loader holds 8x its levels' bytes there.
        img_path, lab_path = write_pair(tmp_path, n=n, rows=28, cols=28)
        peak, (images, labels) = traced_peak(load_idx, img_path, lab_path)
        assert peak < 2 * (images.nbytes + labels.nbytes)
        task = TaskDataset(0, images, labels, images, labels, np.arange(784)[::-1])
        peak, rows = traced_peak(task.train_rows, slice(None))
        assert rows.dtype == np.float64 and rows.shape == (n, 784)
        assert peak < 1.5 * rows.nbytes + np.getbufsize() * 8

    def test_picked_rows_hold_no_float_copy_of_the_split(self, tmp_path):
        # The picked rows are gathered from the uint8 payload, and no
        # float64 copy is made. Scaling the whole split first holds its
        # float64 copy (12.5 MB here) on the way to the picked rows.
        img_path, lab_path = write_pair(tmp_path, n=2000, rows=28, cols=28)
        picks = RandomStream(5).choice(2000, 200)
        peak, (images, labels) = traced_peak(load_idx, img_path, lab_path, lambda n: picks)
        assert images.shape == (200, 784) and images.dtype == np.uint8
        assert peak < 2000 * 784 * 8 / 4

    @pytest.mark.parametrize("n_picks", [None, 300, 1000])
    def test_gathered_rows_equal_the_scale_then_pick_path(self, tmp_path, n_picks):
        # Widening u8 to f64 and dividing by 255.0 is the arithmetic the
        # loader ran on float64 copies before it returned levels, so the
        # rows a task gathers hold the same bits as before.
        img_path, lab_path = level_pair(tmp_path, 1000)
        picks = None if n_picks is None else RandomStream(6).choice(1000, n_picks)
        images, labels = load_idx(img_path, lab_path, None if picks is None else lambda n: picks)
        task = TaskDataset(0, images, labels, images, labels, np.arange(784))
        old = scaled_then_picked(img_path, lab_path, picks)
        assert same_bits(task.train_rows(slice(None)), old)
        order = RandomStream(7).permutation(len(labels))
        assert same_bits(task.train_rows(order), old[order])

    @pytest.mark.parametrize("n_picks", [0, 17, 60])
    def test_picked_train_rows_equal_the_subset_of_the_whole_split(self, tmp_path, n_picks):
        rs = RandomStream(3)
        for key, name in MNIST_FILE_NAMES.items():
            n = 60 if key.startswith("train") else 9
            if "images" in key:
                payload = rs.uniform(0, 256, n * 7 * 5).astype(np.uint8).tobytes()
                blob = idx_bytes(IMAGE_MAGIC, [n, 7, 5], payload)
            else:
                blob = idx_bytes(LABEL_MAGIC, [n], bytes(int(v) for v in rs.uniform(0, 10, n)))
            (tmp_path / name).write_bytes(blob)
        picks = RandomStream(4).choice(60, n_picks)
        seen = []
        (train_images, train_labels), test = load_mnist(
            str(tmp_path), lambda n: seen.append(n) or picks
        )
        (whole_images, whole_labels), whole_test = load_mnist(str(tmp_path))
        assert seen == [60]
        assert train_images.shape == (n_picks, 35) and train_images.flags.c_contiguous
        assert same_bits(train_images, whole_images[picks])
        assert np.array_equal(train_labels, whole_labels[picks])
        assert train_labels.dtype == np.int64
        assert same_bits(test[0], whole_test[0]) and np.array_equal(test[1], whole_test[1])

    def test_wrong_magic(self, tmp_path):
        img_path, lab_path = write_pair(tmp_path)
        with pytest.raises(IdxFormatError, match="magic 0x00000801, expected 0x00000803"):
            load_idx(lab_path, lab_path)

    def test_truncated_payload(self, tmp_path):
        p = tmp_path / "short"
        p.write_bytes(idx_bytes(IMAGE_MAGIC, [2, 2, 2], b"\x00" * 7))
        lab = tmp_path / "labels"
        lab.write_bytes(idx_bytes(LABEL_MAGIC, [2], b"\x00\x01"))
        with pytest.raises(IdxFormatError, match="payload has 7 bytes, header implies 8"):
            load_idx(str(p), str(lab))

    def test_oversized_payload(self, tmp_path):
        p = tmp_path / "long"
        p.write_bytes(idx_bytes(IMAGE_MAGIC, [1, 2, 2], b"\x00" * 9))
        lab = tmp_path / "labels"
        lab.write_bytes(idx_bytes(LABEL_MAGIC, [1], b"\x00"))
        with pytest.raises(
            IdxFormatError, match="payload has 9 bytes, 5 more than the header implies"
        ):
            load_idx(str(p), str(lab))

    @BAD_HEADER_SIZES
    def test_header_sizes_without_overflow(self, tmp_path, dims, message):
        img = tmp_path / "images"
        img.write_bytes(idx_bytes(IMAGE_MAGIC, dims, b""))
        lab = tmp_path / "labels"
        lab.write_bytes(idx_bytes(LABEL_MAGIC, [2], b"\x00\x01"))
        with pytest.raises(IdxFormatError, match=f"^{re.escape(str(img))}: {message}"):
            load_idx(str(img), str(lab))

    def test_count_mismatch(self, tmp_path):
        img = tmp_path / "images"
        img.write_bytes(idx_bytes(IMAGE_MAGIC, [2, 2, 2], b"\x00" * 8))
        lab = tmp_path / "labels"
        lab.write_bytes(idx_bytes(LABEL_MAGIC, [3], b"\x00\x01\x02"))
        with pytest.raises(
            IdxFormatError, match=re.escape(f"{img} has 2 images, {lab} has 3 labels")
        ):
            load_idx(str(img), str(lab))


class TestFetch:
    def test_fetch_gz_and_verify(self, tmp_path):
        src = tmp_path / "src"
        src.mkdir()
        n = 4
        for key, name in MNIST_FILE_NAMES.items():
            if "images" in key:
                blob = idx_bytes(IMAGE_MAGIC, [n, 2, 2], bytes(n * 4))
            else:
                blob = idx_bytes(LABEL_MAGIC, [n], bytes(n))
            (src / f"{name}.gz").write_bytes(gzip.compress(blob))
        dest = tmp_path / "dest"
        written = fetch_idx_files(src.as_uri(), str(dest))
        assert len(written) == 4
        images, labels = load_idx(
            str(dest / MNIST_FILE_NAMES["train_images"]),
            str(dest / MNIST_FILE_NAMES["train_labels"]),
        )
        assert images.shape == (4, 4)
        assert labels.shape == (4,)

    def test_fetch_falls_back_to_raw(self, tmp_path):
        src = tmp_path / "src"
        src.mkdir()
        for key, name in MNIST_FILE_NAMES.items():
            if "images" in key:
                blob = idx_bytes(IMAGE_MAGIC, [2, 1, 1], bytes(2))
            else:
                blob = idx_bytes(LABEL_MAGIC, [2], bytes(2))
            (src / name).write_bytes(blob)
        dest = tmp_path / "dest"
        assert len(fetch_idx_files(src.as_uri(), str(dest))) == 4

    @staticmethod
    def bad_gz_beside_raw(src, damage, raw=True):
        """Serve each file as a damaged ``.gz``, with its raw payload beside it if ``raw``."""
        payloads = {}
        for key, name in MNIST_FILE_NAMES.items():
            if "images" in key:
                blob = idx_bytes(IMAGE_MAGIC, [3, 2, 2], bytes(range(12)))
            else:
                blob = idx_bytes(LABEL_MAGIC, [3], bytes([1, 2, 3]))
            (src / f"{name}.gz").write_bytes(damage(gzip.compress(blob)))
            if raw:
                (src / name).write_bytes(blob)
            payloads[name] = blob
        return payloads

    @pytest.mark.parametrize(
        "damage",
        [
            lambda gz: gz[:-6],  # cut short: EOFError
            lambda gz: gz[:10] + bytes(b ^ 0xFF for b in gz[10:-8]) + gz[-8:],  # zlib.error
        ],
        ids=["truncated", "corrupt"],
    )
    def test_bad_gz_falls_back_to_raw(self, tmp_path, damage):
        src = tmp_path / "src"
        src.mkdir()
        payloads = self.bad_gz_beside_raw(src, damage)
        dest = tmp_path / "dest"
        assert len(fetch_idx_files(src.as_uri(), str(dest))) == 4
        for name, blob in payloads.items():
            assert (dest / name).read_bytes() == blob

    def test_bad_gz_without_raw_names_both_urls(self, tmp_path):
        src = tmp_path / "src"
        src.mkdir()
        self.bad_gz_beside_raw(src, lambda gz: gz[:-6], raw=False)
        first = src.as_uri() + "/" + MNIST_FILE_NAMES["train_images"]
        with pytest.raises(IOError, match="could not fetch IDX file") as excinfo:
            fetch_idx_files(src.as_uri(), str(tmp_path / "dest"))
        assert f"{first}.gz: " in str(excinfo.value)
        assert f"{first}: " in str(excinfo.value)
        assert not (tmp_path / "dest").exists()

    def test_fetched_files_load_as_train_then_test(self, tmp_path):
        src = tmp_path / "src"
        src.mkdir()
        for key, name in MNIST_FILE_NAMES.items():
            n = 3 if key.startswith("train") else 2
            if "images" in key:
                blob = idx_bytes(IMAGE_MAGIC, [n, 28, 28], bytes(n * 784))
            else:
                blob = idx_bytes(LABEL_MAGIC, [n], bytes(n))
            (src / name).write_bytes(blob)
        fetch_idx_files(src.as_uri(), str(tmp_path / "dest"))
        (train_images, train_labels), (test_images, test_labels) = load_mnist(
            str(tmp_path / "dest")
        )
        assert train_images.shape == (3, 784) and train_labels.shape == (3,)
        assert test_images.shape == (2, 784) and test_labels.shape == (2,)

    def test_fetch_rejects_count_mismatch(self, tmp_path):
        src = tmp_path / "src"
        src.mkdir()
        for key, name in MNIST_FILE_NAMES.items():
            if "images" in key:
                blob = idx_bytes(IMAGE_MAGIC, [2, 1, 1], bytes(2))
            else:
                blob = idx_bytes(LABEL_MAGIC, [3], bytes(3))
            (src / name).write_bytes(blob)
        with pytest.raises(
            IdxFormatError,
            match="/train-images-idx3-ubyte has 2 images, .*/train-labels-idx1-ubyte has 3 labels",
        ):
            fetch_idx_files(src.as_uri(), str(tmp_path / "dest"))
        assert not (tmp_path / "dest").exists()

    def test_truncated_download_writes_nothing(self, tmp_path):
        src = tmp_path / "src"
        src.mkdir()
        for key, name in MNIST_FILE_NAMES.items():
            if "images" in key:
                blob = idx_bytes(IMAGE_MAGIC, [2, 1, 1], bytes(2 if "test" in key else 1))
            else:
                blob = idx_bytes(LABEL_MAGIC, [2], bytes(2))
            (src / name).write_bytes(blob)
        dest = tmp_path / "dest"
        dest.mkdir()
        with pytest.raises(IdxFormatError, match="payload has 1 bytes, header implies 2"):
            fetch_idx_files(src.as_uri(), str(dest))
        assert os.listdir(dest) == []

    @BAD_HEADER_SIZES
    def test_fetch_rejects_bad_header_sizes(self, tmp_path, dims, message):
        src = tmp_path / "src"
        src.mkdir()
        for key, name in MNIST_FILE_NAMES.items():
            if key == "train_images":
                blob = idx_bytes(IMAGE_MAGIC, dims, b"")
            elif "images" in key:
                blob = idx_bytes(IMAGE_MAGIC, [2, 1, 1], bytes(2))
            else:
                blob = idx_bytes(LABEL_MAGIC, [2], bytes(2))
            (src / name).write_bytes(blob)
        url = src.as_uri() + "/" + MNIST_FILE_NAMES["train_images"]
        with pytest.raises(IdxFormatError, match=f"^{re.escape(url)}: {message}"):
            fetch_idx_files(src.as_uri(), str(tmp_path / "dest"))
        assert not (tmp_path / "dest").exists()

    def test_stalled_server_times_out_on_both_urls(self, tmp_path, monkeypatch):
        timeouts = []

        def stalled(url, timeout=None):
            timeouts.append(timeout)
            raise TimeoutError("timed out")

        monkeypatch.setattr(urllib.request, "urlopen", stalled)
        base = "http://mirror.invalid/mnist"
        with pytest.raises(IOError, match="could not fetch IDX file") as excinfo:
            fetch_idx_files(base, str(tmp_path / "dest"))
        first = f"{base}/{MNIST_FILE_NAMES['train_images']}"
        assert f"{first}.gz: timed out" in str(excinfo.value)
        assert f"{first}: timed out" in str(excinfo.value)
        assert timeouts == [FETCH_TIMEOUT_S] * 2
        assert not (tmp_path / "dest").exists()

    def test_fetch_missing_everything(self, tmp_path):
        empty = tmp_path / "empty"
        empty.mkdir()
        with pytest.raises(IOError):
            fetch_idx_files(empty.as_uri(), str(tmp_path / "dest"))


def levels(rs, shape):
    """Random uint8 pixel levels 0..255 drawn from ``rs``."""
    return rs.uniform(0, 256, shape).astype(np.uint8)


def tiny_task(width=4, n=6):
    rs = RandomStream(100)
    images = levels(rs, (n, width))
    labels = np.arange(n, dtype=np.int64) % 3
    return TaskDataset(
        task_id=0,
        train_images=images,
        train_labels=labels,
        test_images=images[:2].copy(),
        test_labels=labels[:2].copy(),
        permutation=np.arange(width)[::-1].copy(),
    )


class TestTaskDataset:
    # A base holds uint8 levels, which map into [0, 1], so a float base,
    # whose pixels could fall outside it, is rejected; the label range is
    # checked once per base, when tasks are built.
    def test_rejects_pixels_outside_unit_interval(self):
        for pixel in (1.5, 300):
            with pytest.raises(ShapeError, match="^train_images must be a 2-D uint8 matrix"):
                make_permuted_tasks(
                    (np.array([[pixel]]), np.array([0])),
                    (np.array([[7]], dtype=np.uint8), np.array([0])),
                    2, seed=1, expected_width=1,
                )

    def test_rejects_labels_above_nine(self):
        with pytest.raises(ValueError, match="outside 0..9"):
            make_permuted_tasks(
                (np.array([[128]], dtype=np.uint8), np.array([12])),
                (np.array([[128]], dtype=np.uint8), np.array([0])),
                2, seed=1, expected_width=1,
            )

    def test_rejects_count_mismatch(self):
        with pytest.raises(ShapeError):
            TaskDataset(
                task_id=0,
                train_images=np.zeros((2, 1), dtype=np.uint8),
                train_labels=np.array([0]),
                test_images=np.zeros((1, 1), dtype=np.uint8),
                test_labels=np.array([0]),
                permutation=np.arange(1),
            )

    @pytest.mark.parametrize("empty", ["train", "test"])
    def test_rejects_empty_split(self, empty):
        rows = {"train": 1, "test": 1, empty: 0}
        with pytest.raises(ValueError, match=f"^{empty} split is empty$"):
            TaskDataset(
                task_id=0,
                train_images=np.zeros((rows["train"], 2), dtype=np.uint8),
                train_labels=np.zeros(rows["train"], dtype=np.int64),
                test_images=np.zeros((rows["test"], 2), dtype=np.uint8),
                test_labels=np.zeros(rows["test"], dtype=np.int64),
                permutation=np.arange(2),
            )

    def test_header_only_test_pair_fails_before_training(self, tmp_path, monkeypatch):
        for key, name in MNIST_FILE_NAMES.items():
            n = 3 if key.startswith("train") else 0
            if "images" in key:
                blob = idx_bytes(IMAGE_MAGIC, [n, 28, 28], bytes(n * 784))
            else:
                blob = idx_bytes(LABEL_MAGIC, [n], bytes(n))
            (tmp_path / name).write_bytes(blob)
        steps = []
        monkeypatch.setattr(harness, "apply", lambda *args: steps.append(args))
        config = ExperimentConfig(source="mnist", num_tasks=2, data_dir=str(tmp_path))
        with pytest.raises(ValueError, match="^test split is empty$"):
            harness.run_sequence(config)
        assert steps == []

    def test_rejects_non_bijective_permutation(self):
        with pytest.raises(ValueError):
            TaskDataset(
                task_id=0,
                train_images=np.zeros((1, 2), dtype=np.uint8),
                train_labels=np.array([0]),
                test_images=np.zeros((1, 2), dtype=np.uint8),
                test_labels=np.array([0]),
                permutation=np.array([0, 0]),
            )


class TestSynthetic:
    def test_deterministic_in_seed(self):
        a = synth_dataset(3, 5, 10, 0.25, seed=4)
        b = synth_dataset(3, 5, 10, 0.25, seed=4)
        for x, y in zip(a[0] + a[1], b[0] + b[1]):
            assert np.array_equal(x, y)

    def test_split_sizes_and_balance(self):
        (train_images, train_labels), (test_images, _) = synth_dataset(4, 3, 10, 0.25, seed=1)
        assert train_images.shape == (32, 3)
        assert test_images.shape == (8, 3)
        counts = np.bincount(train_labels, minlength=4)
        assert np.array_equal(counts, [8, 8, 8, 8])

    def test_pixels_clipped_to_unit_interval(self):
        # at spread 3 many samples fall outside [0, 1]: they clip to the
        # end levels, 0 and 255, which the gather maps to 0.0 and 1.0
        (train_images, _), _ = synth_dataset(2, 4, 50, 3.0, seed=2)
        assert train_images.dtype == np.uint8
        assert train_images.min() == 0 and train_images.max() == 255

    def test_levels_round_to_nearest(self):
        # spread 1e-9 leaves each sample within 1e-8 of its center, so its
        # level is the center's rounded level
        centers = RandomStream(3, key=(data.SYNTH_STREAM_ID,)).uniform(0.2, 0.8, (2, 5))
        (train_images, train_labels), _ = synth_dataset(2, 5, 10, 1e-9, seed=3)
        assert np.array_equal(train_images, np.rint(255 * centers[train_labels]))

    def test_peak_memory_below_two_copies(self):
        # Chunks are quantized straight into preallocated uint8 splits, so
        # the build holds the output plus one float64 chunk. Collecting the
        # classes and concatenating holds every class's float64 draws at
        # the peak; drawing whole classes holds the output plus two of
        # them (1,300 rows each, 5 chunks in all).
        for classes, samples_per_class in ((10, 100), (2, 1300)):
            peak, (train, test) = traced_peak(
                synth_dataset, classes, 784, samples_per_class, 0.25, 5
            )
            assert train[0].dtype == test[0].dtype == np.uint8
            output = sum(a.nbytes for a in train + test)
            chunk = min(CHUNK_ROWS, samples_per_class) * 784 * 8
            assert peak < output + 1.25 * chunk

    @pytest.mark.parametrize(
        "samples_per_class",
        [CHUNK_ROWS // 2, CHUNK_ROWS, CHUNK_ROWS + 1, 1250],
        ids=["below-chunk", "one-chunk", "above-chunk", "split-inside-chunk"],
    )
    def test_chunked_draws_match_one_draw_per_class(self, samples_per_class):
        # 1250 per class puts the train/test boundary at row 1000, inside
        # the second chunk of each class
        built = synth_dataset(3, 6, samples_per_class, 0.9, seed=8)
        reference = one_draw_synth_dataset(3, 6, samples_per_class, 0.9, seed=8)
        for (images, labels), (ref_images, ref_labels) in zip(built, reference):
            assert same_bits(images, ref_images)
            assert np.array_equal(labels, ref_labels)

    @pytest.mark.parametrize("n_picks", [1, 700, 3000], ids=["one", "some", "all-shuffled"])
    def test_picked_rows_match_the_subset_of_one_draw(self, n_picks):
        seen = []
        picks = RandomStream(9).choice(3000, n_picks)
        (images, labels), test = synth_dataset(
            3, 6, 1250, 0.9, seed=8, pick_rows=lambda n: seen.append(n) or picks
        )
        (ref_images, ref_labels), ref_test = one_draw_synth_dataset(3, 6, 1250, 0.9, seed=8)
        assert seen == [3000]
        assert same_bits(images, ref_images[picks])
        assert np.array_equal(labels, ref_labels[picks])
        assert same_bits(test[0], ref_test[0]) and np.array_equal(test[1], ref_test[1])

    def test_zero_spread_rejected(self):
        # the synthetic source's settings are checked with the config
        with pytest.raises(ValueError, match="synthetic_spread must be > 0"):
            ExperimentConfig(synthetic_spread=0.0)

    def test_classes_separable_at_small_spread(self):
        (train_images, train_labels), _ = synth_dataset(2, 8, 20, 0.01, seed=3)
        means = [train_images[train_labels == c].mean(axis=0) for c in (0, 1)]
        assert np.linalg.norm(means[0] - means[1]) > 0.1


class TestPermutedTasks:
    def base(self, n=10, width=6):
        rs = RandomStream(55)
        return (
            (levels(rs, (n, width)), np.arange(n, dtype=np.int64) % 10),
            (levels(rs, (4, width)), np.arange(4, dtype=np.int64)),
        )

    def test_first_task_is_identity(self):
        train, test = self.base()
        tasks = make_permuted_tasks(train, test, 3, seed=1, expected_width=6)
        assert np.array_equal(tasks[0].permutation, np.arange(6))
        assert np.array_equal(tasks[0].train_rows(slice(None)), train[0] / 255.0)

    def test_deterministic_and_distinct_across_tasks(self):
        train, test = self.base()
        a = make_permuted_tasks(train, test, 4, seed=9, expected_width=6)
        b = make_permuted_tasks(train, test, 4, seed=9, expected_width=6)
        for ta, tb in zip(a, b):
            assert np.array_equal(ta.permutation, tb.permutation)
        assert not np.array_equal(a[1].permutation, a[2].permutation)

    def test_images_match_permutation(self):
        train, test = self.base()
        tasks = make_permuted_tasks(train, test, 3, seed=2, expected_width=6)
        t = tasks[2]
        assert np.array_equal(t.train_rows(slice(None)), train[0][:, t.permutation] / 255.0)
        assert np.array_equal(t.test_rows(slice(None)), test[0][:, t.permutation] / 255.0)
        assert np.array_equal(t.train_labels, train[1])

    def test_invert_round_trip(self):
        train, test = self.base()
        task = make_permuted_tasks(train, test, 2, seed=3, expected_width=6)[1]
        restored = task.train_rows(slice(None))[:, np.argsort(task.permutation)]
        assert np.array_equal(restored, train[0] / 255.0)

    def test_width_mismatch_raises(self):
        train, test = self.base(width=6)
        with pytest.raises(ShapeError):
            make_permuted_tasks(train, test, 2, seed=1, expected_width=784)


def gather_base(n=1100, width=20, n_test=300):
    rs = RandomStream(71)
    return (
        (levels(rs, (n, width)), np.arange(n, dtype=np.int64) % 10),
        (levels(rs, (n_test, width)), np.arange(n_test, dtype=np.int64) % 10),
    )


def materialized(task):
    """The task holding its own permuted copies: the reference for the gather."""
    return TaskDataset(
        task_id=task.task_id,
        train_images=np.ascontiguousarray(task.train_images[:, task.permutation]),
        train_labels=task.train_labels.copy(),
        test_images=np.ascontiguousarray(task.test_images[:, task.permutation]),
        test_labels=task.test_labels.copy(),
        permutation=np.arange(task.train_images.shape[1]),
    )


class TestSharedBase:
    def test_tasks_share_one_base(self):
        train, test = gather_base()
        tasks = make_permuted_tasks(train, test, 4, seed=5, expected_width=20)
        for task in tasks:
            assert np.shares_memory(task.train_images, train[0])
            assert np.shares_memory(task.test_images, test[0])
            assert np.shares_memory(task.train_labels, train[1])
            assert np.shares_memory(task.test_labels, test[1])

    def test_base_is_read_only(self):
        train, test = gather_base()
        tasks = make_permuted_tasks(train, test, 2, seed=5, expected_width=20)
        with pytest.raises(ValueError):
            tasks[0].train_images[0, 0] = 0.5
        for name in ("train_labels", "test_images", "test_labels"):
            with pytest.raises(ValueError):
                getattr(tasks[1], name)[0] = 0
        assert np.array_equal(tasks[1].train_images, train[0])

    def test_rows_and_batches_are_fresh_and_writable(self):
        train, test = gather_base()
        task = make_permuted_tasks(train, test, 2, seed=5, expected_width=20)[1]
        arrays = [task.train_rows(slice(0, 10)), task.test_rows(np.array([3, 1]))]
        arrays += [a for batch in batches(task, 256, RandomStream(2)) for a in batch]
        for array in arrays:
            assert array.flags.writeable
            assert not np.shares_memory(array, task.train_images)
            assert not np.shares_memory(array, task.test_images)
            array[0] = 0


class TestGatherEquivalence:
    """Gathering then permuting gives the bytes the materialized copies gave."""

    def tasks(self):
        train, test = gather_base()
        return make_permuted_tasks(train, test, 3, seed=8, expected_width=20)[1:]

    def test_train_rows(self):
        idx = RandomStream(3).permutation(1100)[:100]
        for task in self.tasks():
            rows = task.train_rows(idx)
            assert rows.flags.c_contiguous
            expected = materialized(task).train_images[idx] / 255.0
            assert rows.tobytes() == expected.tobytes()

    def test_rows_spanning_several_gather_blocks(self):
        # all 1,100 rows in a scattered order, more than two chunks' worth
        idx = RandomStream(5).permutation(1100)
        assert 2 * CHUNK_ROWS < 1100 < 3 * CHUNK_ROWS
        for task in self.tasks():
            rows = task.train_rows(idx)
            assert rows.flags.c_contiguous
            expected = materialized(task).train_images[idx] / 255.0
            assert rows.tobytes() == expected.tobytes()

    def test_test_rows(self):
        picks = RandomStream(4).choice(300, 120)
        for task in self.tasks():
            rows = task.test_rows(picks)
            assert rows.flags.c_contiguous
            assert rows.tobytes() == (materialized(task).test_images[picks] / 255.0).tobytes()

    @pytest.mark.parametrize("kind", ["slice", "index-array"])
    def test_rows_are_scaled_levels_permuted(self, kind):
        # one rounding per pixel, u8 -> f64 then / 255.0, whatever the order
        # of the permute and the scale
        rows = slice(100, 700) if kind == "slice" else RandomStream(8).choice(1100, 600)
        train, _ = gather_base()
        for task in self.tasks():
            expected = (train[0][rows] / 255.0)[:, task.permutation]
            assert same_bits(task.train_rows(rows), expected)

    def test_peak_memory_one_copy_of_the_rows(self):
        # The rows are permuted as uint8 and widened once, into the
        # output, so the peak is the output plus two uint8 copies (an
        # eighth of it each). Widening first and then permuting holds
        # about 2x the output.
        train, test = gather_base(n=10, width=784, n_test=3000)
        task = make_permuted_tasks(train, test, 2, seed=8)[1]
        picks = RandomStream(4).choice(3000, 2000)
        peak, rows = traced_peak(task.test_rows, picks)
        assert peak < rows.nbytes + 1.25 * CHUNK_ROWS * rows.shape[1] * 8
        assert peak < 1.5 * rows.nbytes

    @pytest.mark.parametrize("split, n_picks", [("train", None), ("test", None), ("test", 150)])
    def test_chunks_walk_the_split_in_order(self, monkeypatch, split, n_picks):
        monkeypatch.setattr(data, "CHUNK_ROWS", 64)  # several chunks of the 300 test rows too
        picks = None if n_picks is None else RandomStream(4).choice(300, n_picks)
        for task in self.tasks():
            chunks = list(task.chunks(split, picks))
            sizes = [len(rows) for rows in chunks]
            assert sizes[:-1] == [64] * (len(sizes) - 1) and 0 < sizes[-1] <= 64
            for rows in chunks:
                assert rows.flags.c_contiguous and rows.flags.writeable
                assert not np.shares_memory(rows, getattr(task, f"{split}_images"))
            expected = getattr(materialized(task), f"{split}_images")
            expected = expected if picks is None else expected[picks]
            assert np.concatenate(chunks).tobytes() == (expected / 255.0).tobytes()

    def test_one_epoch_of_batches(self):
        for task in self.tasks():
            old = materialized(task)
            new_epoch = batches(task, 100, RandomStream(6))
            old_epoch = batches(old, 100, RandomStream(6))
            count = 0
            for (x, y), (old_x, old_y) in zip(new_epoch, old_epoch, strict=True):
                assert x.flags.c_contiguous
                assert x.tobytes() == old_x.tobytes()
                assert np.array_equal(y, old_y)
                count += 1
            assert count == 11

    @pytest.mark.parametrize("estimate", [estimate_fisher, estimate_total_abs_signal])
    def test_estimators(self, estimate):
        params = init_params(RandomStream(9), (20, 16, 10))
        for task in self.tasks():
            new = estimate(params, task)
            assert new.flat.tobytes() == estimate(params, materialized(task)).flat.tobytes()


class TestBatches:
    def test_epoch_covers_every_row_once(self):
        ds = tiny_task(n=7)
        seen = np.concatenate([b[0] for b in batches(ds, 3, RandomStream(1))])
        assert seen.shape == ds.train_images.shape
        assert np.array_equal(
            np.sort(seen, axis=0), np.sort(ds.train_rows(slice(None)), axis=0)
        )

    def test_final_short_batch_kept(self):
        ds = tiny_task(n=7)
        sizes = [len(b[1]) for b in batches(ds, 3, RandomStream(1))]
        assert sizes == [3, 3, 1]

    def test_same_stream_same_order(self):
        ds = tiny_task(n=8)
        a = [b[1].tolist() for b in batches(ds, 4, RandomStream(2))]
        b = [b[1].tolist() for b in batches(ds, 4, RandomStream(2))]
        assert a == b

    def test_consecutive_epochs_differ(self):
        ds = tiny_task(n=32)
        stream = RandomStream(3)
        first = np.concatenate([b[1] for b in batches(ds, 8, stream)])
        second = np.concatenate([b[1] for b in batches(ds, 8, stream)])
        assert not np.array_equal(first, second)

    def test_labels_follow_images(self):
        ds = tiny_task(n=6)
        for images, labels in batches(ds, 2, RandomStream(4)):
            for row, lab in zip(images, labels):
                src = np.flatnonzero((ds.train_rows(slice(None)) == row).all(axis=1))[0]
                assert ds.train_labels[src] == lab
