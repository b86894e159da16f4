import warnings

import numpy as np
import pytest

from forgetlab.numerics import (
    RandomStream,
    ShapeError,
    matmul,
    numeric_environment,
)


class TestMatmul:
    def test_coerces_nested_lists(self):
        m = matmul([[1, 2], [3, 4]], [[1, 0], [0, 1]])
        assert m.dtype == np.float64
        assert m.shape == (2, 2)
        assert m.flags["C_CONTIGUOUS"]

    def test_rejects_one_dimensional(self):
        with pytest.raises(ShapeError):
            matmul([1.0, 2.0, 3.0], np.eye(3))

    def test_identity(self):
        rng = np.random.default_rng(7)
        a = rng.normal(size=(4, 4))
        assert np.array_equal(matmul(a, np.eye(4)), a)

    def test_zero(self):
        a = np.arange(6.0).reshape(2, 3)
        assert np.array_equal(matmul(a, np.zeros((3, 5))), np.zeros((2, 5)))

    def test_hand_worked_2x2(self):
        a = np.array([[1.0, 2.0], [3.0, 4.0]])
        b = np.array([[5.0, 6.0], [7.0, 8.0]])
        expected = np.array([[19.0, 22.0], [43.0, 50.0]])
        assert np.array_equal(matmul(a, b), expected)

    def test_dimension_mismatch_names_both_shapes(self):
        with pytest.raises(ShapeError) as err:
            matmul(np.zeros((2, 3)), np.zeros((4, 5)))
        assert "2x3" in str(err.value) and "4x5" in str(err.value)

    def test_overflow_is_left_to_the_caller(self):
        # finiteness is forward's fact: the product neither raises nor warns
        big = np.full((2, 2), 1e308)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert np.all(np.isposinf(matmul(big, big)))

    def test_associativity_within_tolerance(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            a = rng.uniform(-1, 1, size=(3, 4))
            b = rng.uniform(-1, 1, size=(4, 5))
            c = rng.uniform(-1, 1, size=(5, 2))
            left = matmul(matmul(a, b), c)
            right = matmul(a, matmul(b, c))
            assert np.max(np.abs(left - right)) <= 1e-12

    def test_transpose_identity_exact_on_integers(self):
        rng = np.random.default_rng(13)
        a = rng.integers(-9, 9, size=(4, 6)).astype(np.float64)
        b = rng.integers(-9, 9, size=(6, 3)).astype(np.float64)
        assert np.array_equal(matmul(a, b).T, matmul(b.T, a.T))


class TestRandomStream:
    def test_same_seed_same_draws(self):
        a = RandomStream(42)
        b = RandomStream(42)
        assert np.array_equal(a.uniform(0, 1, 10), b.uniform(0, 1, 10))

    def test_different_seeds_diverge(self):
        a = RandomStream(1).uniform(0, 1, 4)
        b = RandomStream(2).uniform(0, 1, 4)
        assert not np.array_equal(a, b)

    def test_range_half_open(self):
        rs = RandomStream(3)
        draws = rs.uniform(0.0, 1.0, 10_000)
        assert draws.min() >= 0.0 and draws.max() < 1.0

    def test_uniform_mean(self):
        rs = RandomStream(5)
        draws = rs.uniform(0.0, 1.0, 100_000)
        assert abs(draws.mean() - 0.5) < 0.01

    def test_invalid_bounds(self):
        rs = RandomStream(0)
        with pytest.raises(ValueError):
            rs.uniform(1.0, 1.0, 1)

    def test_negative_seed_rejected(self):
        with pytest.raises(ValueError):
            RandomStream(-1)

    def test_children_are_independent_streams(self):
        root = RandomStream(9)
        c01 = root.child(0, 1).uniform(0, 1, 16)
        c10 = root.child(1, 0).uniform(0, 1, 16)
        c0 = root.child(0).uniform(0, 1, 16)
        assert not np.array_equal(c01, c10)
        assert not np.array_equal(c01, c0)

    def test_child_reproducible_without_root_state(self):
        first = RandomStream(9).child(4, 2).uniform(0, 1, 8)
        root = RandomStream(9)
        root.uniform(0, 1, 100)  # consuming the root must not move children
        second = root.child(4, 2).uniform(0, 1, 8)
        assert np.array_equal(first, second)

    def test_permutation_is_bijection(self):
        perm = RandomStream(7).permutation(50)
        assert np.array_equal(np.sort(perm), np.arange(50))

    def test_choice_without_replacement(self):
        picks = RandomStream(8).choice(20, 10)
        assert len(set(picks.tolist())) == 10
        assert picks.min() >= 0 and picks.max() < 20


class TestNumericEnvironment:
    def test_reports_numpy_blas_core_and_threads(self):
        env = numeric_environment()
        assert sorted(env) == ["blas", "blas_core", "blas_threads", "numpy"]
        assert env["numpy"] == np.__version__
        assert env["blas_threads"] is None or env["blas_threads"] >= 1
