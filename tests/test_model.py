import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import array_shapes, arrays

from forgetlab.data import CHUNK_ROWS, TaskDataset, synth_dataset
from forgetlab.model import (
    DEFAULT_LAYER_SIZES,
    MlpParams,
    accuracy,
    backward,
    check_congruent,
    cross_entropy,
    forward,
    global_norm,
    init_params,
    leaky_relu,
    leaky_relu_grad,
    load_params,
    max_relative_gradient_error,
    save_params,
    softmax,
)
from forgetlab.numerics import RUN_DTYPE, NonFiniteError, ShapeError, stream

from helpers import same_bits, traced_peak


def zero_net(layer_sizes):
    return MlpParams(
        weights=[
            np.zeros((out, inp))
            for inp, out in zip(layer_sizes, layer_sizes[1:])
        ],
        biases=[np.zeros(out) for out in layer_sizes[1:]],
    )


class TestInit:
    def test_default_shapes(self):
        params = init_params(stream(0))
        assert [w.shape for w in params.weights] == [(300, 784), (150, 300), (10, 150)]
        assert [b.shape for b in params.biases] == [(300,), (150,), (10,)]
        assert params.layer_sizes == DEFAULT_LAYER_SIZES

    def test_biases_exactly_zero(self):
        params = init_params(stream(1))
        for b in params.biases:
            assert np.all(b == 0.0)

    def test_weight_bounds(self):
        params = init_params(stream(2))
        for w, fan_in in zip(params.weights, DEFAULT_LAYER_SIZES):
            limit = math.sqrt(6.0 / fan_in)
            assert np.abs(w).max() < limit

    def test_deterministic_in_stream(self):
        a = init_params(stream(3), (5, 4, 3))
        b = init_params(stream(3), (5, 4, 3))
        for wa, wb in zip(a.weights, b.weights):
            assert np.array_equal(wa, wb)

    def test_congruence_validation(self):
        with pytest.raises(ShapeError):
            MlpParams(
                weights=[np.zeros((3, 2)), np.zeros((2, 4))],
                biases=[np.zeros(3), np.zeros(2)],
            )


class TestForward:
    def test_zero_params_give_uniform_probabilities(self):
        params = zero_net((4, 3, 10))
        trace = forward(params, np.ones((5, 4)))
        assert np.allclose(trace.probabilities, 0.1, atol=1e-15)

    def test_rows_sum_to_one(self):
        params = init_params(stream(4), (6, 5, 4), dtype=np.float64)
        trace = forward(params, stream(5).uniform(0, 1, (7, 6)))
        assert np.all(np.abs(trace.probabilities.sum(axis=1) - 1.0) <= 1e-12)
        assert np.all(trace.probabilities > 0.0)
        assert np.all(trace.probabilities < 1.0)

    def test_batch_of_another_dtype_fails_in_matmul(self):
        # forward converts no batch, so a stray dtype is named, not narrowed
        params = init_params(stream(4), (6, 5, 4))
        batch = stream(5).uniform(0, 1, (7, 6))
        with pytest.raises(ShapeError, match="differ in dtype: float64 vs float32$"):
            forward(params, batch)

    def test_two_two_two_hand_oracle(self):
        params = MlpParams(
            weights=[
                np.array([[0.5, -1.0], [0.25, 0.75]]),
                np.array([[1.0, -0.5], [-0.25, 0.5]]),
            ],
            biases=[np.array([0.1, -0.2]), np.array([0.0, 0.3])],
        )
        trace = forward(params, np.array([[1.0, 2.0]]))
        # Worked by hand with plain scalar arithmetic.
        z1 = (0.5 * 1.0 - 1.0 * 2.0 + 0.1, 0.25 * 1.0 + 0.75 * 2.0 - 0.2)
        a1 = tuple(z if z > 0 else 0.01 * z for z in z1)
        z2 = (
            1.0 * a1[0] - 0.5 * a1[1] + 0.0,
            -0.25 * a1[0] + 0.5 * a1[1] + 0.3,
        )
        m = max(z2)
        e = (math.exp(z2[0] - m), math.exp(z2[1] - m))
        expected = (e[0] / (e[0] + e[1]), e[1] / (e[0] + e[1]))
        assert abs(trace.probabilities[0, 0] - expected[0]) < 1e-12
        assert abs(trace.probabilities[0, 1] - expected[1]) < 1e-12

    def test_softmax_shift_invariance(self):
        logits = stream(6).uniform(-5, 5, (8, 10))
        shifted = softmax(logits + 123.456)
        assert np.max(np.abs(shifted - softmax(logits))) < 1e-12

    def test_large_logits_stay_finite(self):
        logits = np.array([[1000.0, 0.0, -1000.0]])
        p = softmax(logits)
        assert np.isfinite(p).all()
        assert abs(p[0, 0] - 1.0) < 1e-12

    def test_wrong_width_raises(self):
        params = init_params(stream(7), (4, 3, 2))
        with pytest.raises(ShapeError):
            forward(params, np.zeros((2, 5)))

    def test_bias_overflow_names_layer(self):
        # the product is finite; only adding the bias overflows
        params = zero_net((2, 2, 2))
        params.weights[0][:] = 1e308
        params.biases[0][:] = 1e308
        with pytest.raises(NonFiniteError) as err:
            forward(params, np.ones((1, 2)) * 0.5)
        assert "layer 0" in str(err.value)

    def test_nonfinite_activation_names_layer(self):
        params = zero_net((2, 2, 2))
        params.weights[1][:] = 1e308
        params.biases[0][:] = 1e308
        with pytest.raises(NonFiniteError) as err:
            forward(params, np.ones((1, 2)))
        assert "layer 1" in str(err.value)

    def test_peak_memory_one_array_per_layer(self):
        # Each hidden layer's leaky ReLU overwrites its affine output.
        # Keeping the pre-activations plus a where() temporary holds
        # about 2.3x the returned arrays at the peak.
        params = init_params(stream(5, 0), DEFAULT_LAYER_SIZES)
        batch = stream(5, 1).uniform(0.0, 1.0, (2000, 784)).astype(params.flat.dtype)
        peak, trace = traced_peak(forward, params, batch)
        kept = trace.layer_inputs[1:] + [trace.logits, trace.probabilities]
        assert peak < 1.5 * sum(a.nbytes for a in kept)


class TestLeakyRelu:
    """The in-place form and the activation-read slope against the where() forms."""

    EDGES = [0.0, -0.0, 5e-324, -5e-324, -1e-322, 1e300, -1e300]

    def values(self):
        return np.concatenate([stream(8).standard_normal(1000), self.EDGES])

    def test_in_place_matches_where_form_bit_for_bit(self):
        z = self.values()
        expected = np.where(z > 0, z, 0.01 * z)
        out = z.copy()
        assert leaky_relu(out) is out
        assert out.view(np.int64).tolist() == expected.view(np.int64).tolist()

    def test_slope_from_activation_matches_pre_activation_form(self):
        z = self.values()
        slope = leaky_relu_grad(leaky_relu(z.copy()))
        assert slope.view(np.int64).tolist() == np.where(z > 0, 1.0, 0.01).view(np.int64).tolist()

    @given(
        arrays(
            np.float64,
            array_shapes(max_dims=2, max_side=40),
            elements=st.floats(allow_nan=False, allow_infinity=False)
            | st.floats(min_value=-1e-320, max_value=1e-320)
            | st.sampled_from(EDGES),
        )
    )
    @settings(max_examples=300, deadline=None)
    def test_both_forms_match_where_forms_on_any_finite_array(self, z):
        # Covers +-0, subnormals and negatives whose 0.01x underflows.
        out = z.copy()
        assert leaky_relu(out) is out
        assert same_bits(out, np.where(z > 0, z, 0.01 * z))
        assert same_bits(leaky_relu_grad(out), np.where(z > 0, 1.0, 0.01))


class TestCrossEntropy:
    def test_uniform_probabilities_give_log_ten(self):
        params = zero_net((4, 3, 10))
        trace = forward(params, np.ones((6, 4)))
        labels = np.arange(6) % 10
        assert abs(cross_entropy(trace, labels) - math.log(10)) < 1e-12

    def test_confident_correct_prediction_near_zero(self):
        params = zero_net((2, 2, 2))
        params.biases[1][:] = [50.0, -50.0]
        trace = forward(params, np.zeros((3, 2)))
        assert cross_entropy(trace, np.zeros(3, dtype=int)) < 1e-12

    def test_loss_nonnegative(self):
        params = init_params(stream(8), (5, 4, 3))
        trace = forward(params, stream(9).uniform(0, 1, (10, 5)).astype(RUN_DTYPE))
        assert cross_entropy(trace, np.arange(10) % 3) >= 0.0

    def test_sum_form_additive_over_disjoint_batches(self):
        params = init_params(stream(10), (6, 4, 3), dtype=np.float64)
        rs = stream(11)
        xa, xb = rs.uniform(0, 1, (4, 6)), rs.uniform(0, 1, (5, 6))
        ya, yb = np.arange(4) % 3, np.arange(5) % 3
        loss_a = cross_entropy(forward(params, xa), ya)
        loss_b = cross_entropy(forward(params, xb), yb)
        joint = cross_entropy(
            forward(params, np.vstack([xa, xb])), np.concatenate([ya, yb])
        )
        assert abs((4 * loss_a + 5 * loss_b) - 9 * joint) < 1e-12


class TestBackward:
    def test_output_bias_gradient_is_mean_error(self):
        params = init_params(stream(12), (5, 4, 3))
        x = stream(13).uniform(0, 1, (6, 5)).astype(RUN_DTYPE)
        labels = np.arange(6) % 3
        trace = forward(params, x)
        grads = backward(params, trace, labels)
        onehot = np.zeros((6, 3))
        onehot[np.arange(6), labels] = 1.0
        expected = (trace.probabilities - onehot).mean(axis=0)
        assert np.allclose(grads.biases[-1], expected, atol=1e-15)

    def test_zero_inputs_zero_first_layer_weight_grads(self):
        params = init_params(stream(14), (4, 3, 2))
        trace = forward(params, np.zeros((5, 4), dtype=RUN_DTYPE))
        grads = backward(params, trace, np.zeros(5, dtype=int))
        assert np.all(grads.weights[0] == 0.0)
        assert np.any(grads.biases[0] != 0.0)

    def test_matches_finite_differences_on_toy_net(self):
        params = init_params(stream(15), (3, 3, 2), dtype=np.float64)
        x = stream(16).uniform(0, 1, (4, 3))
        labels = np.array([0, 1, 0, 1])
        assert max_relative_gradient_error(params, x, labels) < 1e-6


class TestAccuracy:
    def test_zero_params_on_balanced_fixture(self):
        _, (test_images, test_labels) = synth_dataset(10, 6, 20, 0.25, seed=21)
        params = zero_net((6, 4, 10))
        # Uniform output ties every row; argmax picks class 0, which holds
        # exactly a tenth of the balanced test split.
        assert accuracy(params, [test_images / 255.0], test_labels) == 0.1

    def test_memorized_toy_set(self):
        params = zero_net((2, 2))
        params.weights[0][:] = [[10.0, 0.0], [0.0, 10.0]]
        x = np.array([[1.0, 0.0], [0.0, 1.0]])
        assert accuracy(params, [x], np.array([0, 1])) == 1.0
        assert accuracy(params, [x[:1], x[1:]], np.array([0, 0])) == 0.5

    def test_bounded(self):
        params = init_params(stream(18), (4, 3, 2))
        x = stream(19).uniform(0, 1, (9, 4)).astype(RUN_DTYPE)
        acc = accuracy(params, [x], np.arange(9) % 2)
        assert 0.0 <= acc <= 1.0

    def test_chunked_count_equals_whole_split_fraction(self):
        # 1,100 rows walk as two full chunks and a short one of 76.
        (images, labels), _ = synth_dataset(10, 20, 138, 0.9, seed=24)
        task = TaskDataset(0, images, labels, images[:1], labels[:1], np.arange(20))
        params = init_params(stream(25), (20, 16, 10))
        sizes = [len(rows) for rows in task.chunks("train")]
        assert sizes == [CHUNK_ROWS] * (len(sizes) - 1) + [1100 % CHUNK_ROWS]
        assert len(sizes) > 1 and sizes[-1] > 0
        predictions = np.argmax(forward(params, (images / 255.0).astype(RUN_DTYPE)).probabilities, axis=1)
        whole = float(np.mean(predictions == labels))
        assert 0.0 < whole < 1.0
        assert accuracy(params, task.chunks("train"), labels) == whole


class TestTraining:
    def test_sgd_steps_decrease_epoch_loss_on_separable_task(self):
        (levels, labels), _ = synth_dataset(3, 8, 30, 0.05, seed=22)
        images = (levels / 255.0).astype(RUN_DTYPE)
        params = init_params(stream(23), (8, 6, 3))
        losses = []
        for _ in range(100):
            trace = forward(params, images)
            losses.append(cross_entropy(trace, labels))
            grads = backward(params, trace, labels)
            params = MlpParams.from_flat(params.flat - 0.2 * grads.flat, params.layer_sizes)
        assert all(b < a for a, b in zip(losses, losses[1:]))


class TestCheckpoints:
    def test_round_trip(self, tmp_path):
        params = init_params(stream(24), (5, 4, 3))
        path = str(tmp_path / "net.npz")
        save_params(params, path)
        restored = load_params(path)
        assert np.array_equal(restored.flat, params.flat)
        assert restored.layer_sizes == params.layer_sizes

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_round_trip_keeps_the_dtype_bit_exact(self, tmp_path, dtype):
        params = init_params(stream(24), (4, 3, 2), dtype=dtype)
        path = str(tmp_path / "net.npz")
        save_params(params, path)
        assert same_bits(load_params(path).flat, params.flat)

    def test_version_1_refused(self, tmp_path):
        # version 1 files predate the dtype contract
        params = init_params(stream(24), (3, 2), dtype=np.float64)
        arrays = {"weights_0": params.weights[0], "biases_0": params.biases[0]}
        path = str(tmp_path / "v1.npz")
        with open(path, "wb") as fh:
            np.savez(fh, version=np.int64(1), num_layers=np.int64(1), **arrays)
        with pytest.raises(ValueError, match=r"checkpoint version 1, expected 2$"):
            load_params(path)

    def test_version_checked(self, tmp_path):
        path = str(tmp_path / "bad.npz")
        with open(path, "wb") as fh:
            np.savez(fh, version=np.int64(99), num_layers=np.int64(1))
        with pytest.raises(ValueError):
            load_params(path)

    def test_nonfinite_checkpoint_rejected(self, tmp_path):
        params = init_params(stream(25), (3, 2))
        params.weights[0][0, 0] = np.nan
        path = str(tmp_path / "nan.npz")
        save_params(params, path)
        with pytest.raises(NonFiniteError):
            load_params(path)


class TestBlockHelpers:
    def test_congruence_enforced(self):
        a = init_params(stream(26), (3, 2))
        b = init_params(stream(26), (4, 2))
        with pytest.raises(ShapeError):
            check_congruent(a, b)

    def test_zeros_like(self):
        params = init_params(stream(27), (3, 3, 2))
        zeros = params.zeros_like()
        assert zeros.layer_sizes == params.layer_sizes
        assert np.all(zeros.flat == 0.0)


class TestGlobalNorm:
    def test_float32_squares_past_float32_range_keep_a_finite_norm(self):
        # 1e20 squared overflows float32; the norm, 5.3e22, does not
        params = init_params(stream(30), DEFAULT_LAYER_SIZES)
        params.flat[:] = 1e20
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            norm = global_norm(params)
        assert norm == np.float32(np.linalg.norm(params.flat.astype(np.float64)))
        assert 5.3e22 < norm < 5.32e22

    def test_infinite_entry_gives_infinite_norm(self):
        params = init_params(stream(31), (4, 3, 2))
        params.flat[2] = np.inf
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert global_norm(params) == np.inf


class TestFlatLayout:
    def test_weights_then_biases_in_layer_order(self):
        params = init_params(stream(28), (4, 3, 2))
        expected = np.concatenate(
            [w.ravel() for w in params.weights] + [b.ravel() for b in params.biases]
        )
        assert np.array_equal(params.flat, expected)
        assert params.flat.size == 4 * 3 + 3 * 2 + 3 + 2

    def test_blocks_are_views_of_flat(self):
        params = init_params(stream(29), (4, 3, 2))
        params.weights[1][0, 1] = 7.5
        params.biases[0][2] = -2.0
        assert params.flat[12 + 1] == 7.5
        assert params.flat[12 + 6 + 2] == -2.0
        params.flat[:] = 0.0
        assert not any(w.any() for w in params.weights)

    def test_constructor_copies_blocks(self):
        w, b = np.ones((2, 3)), np.zeros(2)
        params = MlpParams(weights=[w], biases=[b])
        w[0, 0] = 5.0
        assert params.weights[0][0, 0] == 1.0

    def test_from_flat_wraps_without_copy(self):
        flat = np.arange(8, dtype=np.float64)
        params = MlpParams.from_flat(flat, (3, 2))
        assert params.flat is flat
        assert np.array_equal(params.weights[0], [[0.0, 1.0, 2.0], [3.0, 4.0, 5.0]])
        assert np.array_equal(params.biases[0], [6.0, 7.0])

    @pytest.mark.parametrize(
        "flat",
        [
            np.zeros(7),
            np.zeros(8, dtype=np.float16),
            np.zeros(8, dtype=np.int64),
            np.zeros(16)[::2],
        ],
    )
    def test_from_flat_rejects_bad_vectors(self, flat):
        with pytest.raises(ShapeError):
            MlpParams.from_flat(flat, (3, 2))

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_accepts_float32_and_float64(self, dtype):
        flat = np.arange(8, dtype=dtype)
        params = MlpParams.from_flat(flat, (3, 2))
        assert params.flat is flat
        assert params.copy().flat.dtype == dtype
        assert params.zeros_like().flat.dtype == dtype
        built = MlpParams(weights=list(params.weights), biases=list(params.biases))
        assert same_bits(built.flat, flat)

    @pytest.mark.parametrize(
        "weight_dtype, bias_dtype",
        [
            (np.float16, np.float16),
            (np.int64, np.int64),
            (np.float32, np.float64),
            (np.float64, np.float32),
        ],
    )
    def test_constructor_rejects_other_and_mixed_dtypes(self, weight_dtype, bias_dtype):
        with pytest.raises(ShapeError):
            MlpParams(
                weights=[np.ones((2, 3), dtype=weight_dtype)],
                biases=[np.zeros(2, dtype=bias_dtype)],
            )

    def test_constructor_rejects_layers_of_mixed_dtypes(self):
        with pytest.raises(ShapeError):
            MlpParams(
                weights=[np.ones((2, 3), dtype=np.float32), np.ones((1, 2))],
                biases=[np.zeros(2, dtype=np.float32), np.zeros(1)],
            )

    def test_init_is_the_float64_init_rounded(self):
        run = init_params(stream(32), (4, 3, 2))
        oracle = init_params(stream(32), (4, 3, 2), dtype=np.float64)
        assert run.flat.dtype == RUN_DTYPE
        assert same_bits(run.flat, oracle.flat.astype(RUN_DTYPE))

    def test_copy_is_independent(self):
        params = init_params(stream(30), (3, 2))
        clone = params.copy()
        clone.flat[:] = 0.0
        assert params.flat.any()

    def test_checkpoint_keeps_per_layer_keys(self, tmp_path):
        params = init_params(stream(31), (4, 3, 2))
        path = str(tmp_path / "net.npz")
        save_params(params, path)
        with np.load(path) as archive:
            assert sorted(archive.files) == [
                "biases_0", "biases_1", "num_layers", "version", "weights_0", "weights_1"
            ]
            assert np.array_equal(archive["weights_1"], params.weights[1])
