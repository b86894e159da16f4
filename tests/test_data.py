import gzip
import os
import struct

import numpy as np
import pytest

from forgetlab.data import (
    IMAGE_MAGIC,
    LABEL_MAGIC,
    MNIST_FILE_NAMES,
    IdxCountMismatchError,
    IdxFormatError,
    IdxMagicError,
    IdxTruncatedError,
    SyntheticSpec,
    TaskDataset,
    apply_permutation,
    batches,
    fetch_idx_files,
    load_idx,
    make_permuted_tasks,
    synth_dataset,
)
from forgetlab.numerics import RandomStream, ShapeError


def idx_bytes(magic, dims, payload):
    header = struct.pack(">i", magic) + b"".join(struct.pack(">i", d) for d in dims)
    return header + payload


def write_pair(tmp_path, n=3, rows=2, cols=2):
    pixels = bytes(range(n * rows * cols))
    labels = bytes([i % 10 for i in range(n)])
    img_path = tmp_path / "images"
    lab_path = tmp_path / "labels"
    img_path.write_bytes(idx_bytes(IMAGE_MAGIC, [n, rows, cols], pixels))
    lab_path.write_bytes(idx_bytes(LABEL_MAGIC, [n], labels))
    return str(img_path), str(lab_path)


class TestLoadIdx:
    def test_happy_path_scales_and_flattens(self, tmp_path):
        img_path, lab_path = write_pair(tmp_path)
        images, labels = load_idx(img_path, lab_path)
        assert images.shape == (3, 4)
        assert images.dtype == np.float64
        assert labels.dtype == np.int64
        assert images[0, 1] == 1.0 / 255.0
        assert np.array_equal(labels, [0, 1, 2])

    def test_wrong_magic(self, tmp_path):
        img_path, lab_path = write_pair(tmp_path)
        with pytest.raises(IdxMagicError):
            load_idx(lab_path, lab_path)

    def test_truncated_payload(self, tmp_path):
        p = tmp_path / "short"
        p.write_bytes(idx_bytes(IMAGE_MAGIC, [2, 2, 2], b"\x00" * 7))
        lab = tmp_path / "labels"
        lab.write_bytes(idx_bytes(LABEL_MAGIC, [2], b"\x00\x01"))
        with pytest.raises(IdxTruncatedError):
            load_idx(str(p), str(lab))

    def test_oversized_payload(self, tmp_path):
        p = tmp_path / "long"
        p.write_bytes(idx_bytes(IMAGE_MAGIC, [1, 2, 2], b"\x00" * 9))
        lab = tmp_path / "labels"
        lab.write_bytes(idx_bytes(LABEL_MAGIC, [1], b"\x00"))
        with pytest.raises(IdxFormatError):
            load_idx(str(p), str(lab))

    def test_count_mismatch(self, tmp_path):
        img = tmp_path / "images"
        img.write_bytes(idx_bytes(IMAGE_MAGIC, [2, 2, 2], b"\x00" * 8))
        lab = tmp_path / "labels"
        lab.write_bytes(idx_bytes(LABEL_MAGIC, [3], b"\x00\x01\x02"))
        with pytest.raises(IdxCountMismatchError):
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

    def test_fetch_rejects_count_mismatch(self, tmp_path):
        src = tmp_path / "src"
        src.mkdir()
        for key, name in MNIST_FILE_NAMES.items():
            if "images" in key:
                blob = idx_bytes(IMAGE_MAGIC, [2, 1, 1], bytes(2))
            else:
                blob = idx_bytes(LABEL_MAGIC, [3], bytes(3))
            (src / name).write_bytes(blob)
        with pytest.raises(IdxCountMismatchError):
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
        with pytest.raises(IdxTruncatedError):
            fetch_idx_files(src.as_uri(), str(dest))
        assert os.listdir(dest) == []

    def test_fetch_missing_everything(self, tmp_path):
        empty = tmp_path / "empty"
        empty.mkdir()
        with pytest.raises(IOError):
            fetch_idx_files(empty.as_uri(), str(tmp_path / "dest"))


def tiny_task(width=4, n=6):
    rs = RandomStream(100)
    images = rs.uniform(0, 1, (n, width))
    labels = np.arange(n, dtype=np.int64) % 3
    return TaskDataset(
        task_id=0,
        train_images=images,
        train_labels=labels,
        test_images=images[:2].copy(),
        test_labels=labels[:2].copy(),
        permutation=np.arange(width),
    )


class TestTaskDataset:
    def test_rejects_pixels_outside_unit_interval(self):
        with pytest.raises(ValueError):
            TaskDataset(
                task_id=0,
                train_images=np.array([[1.5]]),
                train_labels=np.array([0]),
                test_images=np.array([[0.5]]),
                test_labels=np.array([0]),
                permutation=np.arange(1),
            )

    def test_rejects_labels_above_nine(self):
        with pytest.raises(ValueError):
            TaskDataset(
                task_id=0,
                train_images=np.array([[0.5]]),
                train_labels=np.array([12]),
                test_images=np.array([[0.5]]),
                test_labels=np.array([0]),
                permutation=np.arange(1),
            )

    def test_rejects_count_mismatch(self):
        with pytest.raises(ShapeError):
            TaskDataset(
                task_id=0,
                train_images=np.zeros((2, 1)),
                train_labels=np.array([0]),
                test_images=np.zeros((1, 1)),
                test_labels=np.array([0]),
                permutation=np.arange(1),
            )

    def test_rejects_non_bijective_permutation(self):
        with pytest.raises(ValueError):
            TaskDataset(
                task_id=0,
                train_images=np.zeros((1, 2)),
                train_labels=np.array([0]),
                test_images=np.zeros((1, 2)),
                test_labels=np.array([0]),
                permutation=np.array([0, 0]),
            )


class TestSynthetic:
    def test_deterministic_in_seed(self):
        a = synth_dataset(SyntheticSpec(classes=3, dims=5, samples_per_class=10, seed=4))
        b = synth_dataset(SyntheticSpec(classes=3, dims=5, samples_per_class=10, seed=4))
        assert np.array_equal(a.train_images, b.train_images)
        assert np.array_equal(a.test_labels, b.test_labels)

    def test_split_sizes_and_balance(self):
        ds = synth_dataset(SyntheticSpec(classes=4, dims=3, samples_per_class=10, seed=1))
        assert ds.train_images.shape == (32, 3)
        assert ds.test_images.shape == (8, 3)
        counts = np.bincount(ds.train_labels, minlength=4)
        assert np.array_equal(counts, [8, 8, 8, 8])

    def test_pixels_clipped_to_unit_interval(self):
        ds = synth_dataset(
            SyntheticSpec(classes=2, dims=4, samples_per_class=50, cluster_spread=3.0, seed=2)
        )
        assert ds.train_images.min() >= 0.0
        assert ds.train_images.max() <= 1.0

    def test_zero_spread_rejected(self):
        with pytest.raises(ValueError):
            SyntheticSpec(cluster_spread=0.0)

    def test_classes_separable_at_small_spread(self):
        ds = synth_dataset(
            SyntheticSpec(classes=2, dims=8, samples_per_class=20, cluster_spread=0.01, seed=3)
        )
        means = [ds.train_images[ds.train_labels == c].mean(axis=0) for c in (0, 1)]
        assert np.linalg.norm(means[0] - means[1]) > 0.1


class TestPermutedTasks:
    def base(self, n=10, width=6):
        rs = RandomStream(55)
        return (
            (rs.uniform(0, 1, (n, width)), np.arange(n, dtype=np.int64) % 10),
            (rs.uniform(0, 1, (4, width)), np.arange(4, dtype=np.int64)),
        )

    def test_first_task_identity_by_default(self):
        train, test = self.base()
        tasks = make_permuted_tasks(train, test, 3, seed=1, expected_width=6)
        assert np.array_equal(tasks[0].permutation, np.arange(6))
        assert np.array_equal(tasks[0].train_images, train[0])

    def test_permute_first_task_flag(self):
        train, test = self.base()
        tasks = make_permuted_tasks(
            train, test, 2, seed=1, permute_first_task=True, expected_width=6
        )
        assert not np.array_equal(tasks[0].permutation, np.arange(6))

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
        assert np.array_equal(t.train_images, train[0][:, t.permutation])
        assert np.array_equal(t.test_images, test[0][:, t.permutation])
        assert np.array_equal(t.train_labels, train[1])

    def test_invert_round_trip(self):
        train, test = self.base()
        task = make_permuted_tasks(train, test, 2, seed=3, expected_width=6)[1]
        restored = apply_permutation(task.train_images, np.argsort(task.permutation))
        assert np.array_equal(restored, train[0])

    def test_width_mismatch_raises(self):
        train, test = self.base(width=6)
        with pytest.raises(ShapeError):
            make_permuted_tasks(train, test, 2, seed=1, expected_width=784)

    def test_num_tasks_validated(self):
        train, test = self.base()
        with pytest.raises(ValueError):
            make_permuted_tasks(train, test, 0, seed=1, expected_width=6)


class TestBatches:
    def test_epoch_covers_every_row_once(self):
        ds = tiny_task(n=7)
        seen = np.concatenate([b[0] for b in batches(ds, 3, RandomStream(1))])
        assert seen.shape == ds.train_images.shape
        assert np.array_equal(
            np.sort(seen, axis=0), np.sort(ds.train_images, axis=0)
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
                src = np.flatnonzero((ds.train_images == row).all(axis=1))[0]
                assert ds.train_labels[src] == lab

    def test_batch_size_validated(self):
        with pytest.raises(ValueError):
            list(batches(tiny_task(), 0, RandomStream(1)))
