import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from forgetlab import continual, data
from forgetlab.continual import (
    Strategy,
    StrategyConfig,
    accumulate,
    check_importance,
    clip_separately,
    estimate_fisher,
    estimate_total_abs_signal,
    ewc_penalty,
    make_wva_hook,
    safe_coefficient,
    wva_factor,
)
from forgetlab.data import TaskDataset
from forgetlab.harness import ExperimentConfig, grid_search
from forgetlab.model import (
    MlpParams,
    backward,
    finite_difference_grads,
    forward,
    global_norm,
    init_params,
    param_count,
)
from forgetlab.numerics import RUN_DTYPE, NonFiniteError, stream
from forgetlab.optim import ADAM_BLOCK, DEFAULT_LEARNING_RATES, OptimizerConfig, StepHook, apply

from helpers import (
    ScalarAdam,
    adam,
    applied,
    ewc_penalty_multi_anchor,
    map_flat,
    same_bits,
    sgd,
    transformed,
    whole_vector_ewc_pre_hook,
)


def make_task(images, labels, task_id=0):
    """A task whose train and test splits are ``images`` (uint8 levels), unpermuted."""
    images = np.asarray(images, dtype=np.uint8)
    labels = np.asarray(labels, dtype=np.int64)
    return TaskDataset(
        task_id=task_id,
        train_images=images,
        train_labels=labels,
        test_images=images.copy(),
        test_labels=labels.copy(),
        permutation=np.arange(images.shape[1]),
    )


@pytest.fixture
def float64_pixels(monkeypatch):
    """The gather writes float64 pixels, the dtype float64 parameters take."""
    monkeypatch.setattr(data, "RUN_DTYPE", np.dtype(np.float64))


def random_setup(seed, layer_sizes=(5, 4, 3), n=6, dtype=RUN_DTYPE):
    """Parameters in ``dtype`` and a task of ``n`` random rows.

    Tests that compare with a float64 reference within a float64
    tolerance pass ``dtype=np.float64`` and use ``float64_pixels``; the
    rest run in the run dtype.
    """
    params = init_params(stream(seed), layer_sizes, dtype=dtype)
    rs = stream(seed + 1000)
    images = rs.uniform(0, 256, (n, layer_sizes[0])).astype(np.uint8)
    labels = rs.permutation(n) % layer_sizes[-1]
    return params, make_task(images, labels)


def scalar_net(x=0.0):
    return MlpParams(weights=[np.array([[float(x)]])], biases=[np.zeros(1)])


def scalar_map(w, b=0.0):
    return MlpParams(weights=[np.array([[float(w)]])], biases=[np.array([float(b)])])


@pytest.mark.usefixtures("float64_pixels")
class TestFisher:
    def test_matches_per_sample_brute_force(self):
        params, task = random_setup(40, n=3, dtype=np.float64)
        estimated = estimate_fisher(params, task)
        total = params.zeros_like()
        for i in range(3):
            trace = forward(params, task.rows("train", slice(i, i + 1)))
            g = backward(params, trace, task.train_labels[i : i + 1])
            total = map_flat(lambda t, gi: t + gi * gi, total, g)
        brute = map_flat(lambda t: t / 3, total)
        assert np.max(np.abs(estimated.flat - brute.flat)) < 1e-12

    def test_single_sample_is_squared_gradient(self):
        params, task = random_setup(41, n=1, dtype=np.float64)
        estimated = estimate_fisher(params, task)
        trace = forward(params, task.rows("train", slice(None)))
        g = backward(params, trace, task.train_labels)
        squared = map_flat(lambda x: x * x, g)
        gap = np.abs(estimated.flat - squared.flat)
        assert np.max(gap) <= 1e-14 * np.max(np.abs(squared.flat))

    def test_chunking_does_not_change_result(self, monkeypatch):
        params, task = random_setup(42, n=7, dtype=np.float64)
        whole = estimate_fisher(params, task)  # one chunk
        monkeypatch.setattr(data, "CHUNK_ROWS", 2)  # three chunks of 2, one of 1
        chunked = estimate_fisher(params, task)
        assert np.allclose(whole.flat, chunked.flat, rtol=0, atol=1e-15)


class TestTotalAbsSignal:
    def test_zero_weights_zero_weight_importance(self):
        params, task = random_setup(44)
        params = MlpParams(
            weights=[np.zeros_like(w) for w in params.weights],
            biases=[b.copy() for b in params.biases],
        )
        omega = estimate_total_abs_signal(params, task)
        assert all(np.all(w == 0.0) for w in omega.weights)

    def test_halving_inputs_halves_first_layer_importance(self):
        # even levels, so halving them halves each pixel exactly
        params, task = random_setup(45)
        full = make_task(task.train_images & 0xFE, task.train_labels)
        halved = make_task(full.train_images // 2, task.train_labels)
        omega_full = estimate_total_abs_signal(params, full)
        omega_half = estimate_total_abs_signal(params, halved)
        assert np.array_equal(omega_half.weights[0], 0.5 * omega_full.weights[0])

    def test_two_sample_hand_oracle(self, monkeypatch):
        # float64 pixels, as the float64 parameters would have them: the
        # oracle reads 51 / 255 = 0.2 exactly, which float32 only approximates
        monkeypatch.setattr(data, "RUN_DTYPE", np.dtype(np.float64))
        params = MlpParams(
            weights=[np.array([[0.5, -1.0], [2.0, 0.25]])],
            biases=[np.array([0.3, -0.7])],
        )
        task = make_task(np.array([[51, 204], [153, 102]]), np.array([0, 1]))  # 255 x pixels
        omega = estimate_total_abs_signal(params, task)
        # Mean |a_j|: column 0 -> (0.2+0.6)/2 = 0.4, column 1 -> (0.8+0.4)/2 = 0.6.
        expected_w = np.array(
            [[0.5 * 0.4, 1.0 * 0.6], [2.0 * 0.4, 0.25 * 0.6]]
        )
        assert np.max(np.abs(omega.weights[0] - expected_w)) < 1e-15
        assert np.array_equal(omega.biases[0], np.array([0.3, 0.7]))

    def test_bias_importance_is_absolute_bias(self):
        params, task = random_setup(46)
        omega = estimate_total_abs_signal(params, task)
        for ob, b in zip(omega.biases, params.biases):
            assert np.array_equal(ob, np.abs(b))


class TestEstimatorProperties:
    def test_nonnegative_and_congruent_for_many_random_pairs(self):
        for seed in range(100):
            params, task = random_setup(seed, layer_sizes=(4, 3, 2), n=4)
            for estimator in (estimate_fisher, estimate_total_abs_signal):
                omega = estimator(params, task)
                assert omega.layer_sizes == params.layer_sizes
                assert np.all(omega.flat >= 0.0)
                check_importance(omega)


class TestAccumulate:
    def test_gamma_one_is_plain_sum(self):
        a = init_params(stream(48), (3, 2))
        b = init_params(stream(49), (3, 2))
        absa, absb = map_flat(np.abs, a), map_flat(np.abs, b)
        expected = absa.flat + absb.flat
        accumulate(absa, absb, 1.0)
        assert np.array_equal(absa.flat, expected)

    def test_decay_halves_totals_when_nothing_new(self):
        a = map_flat(np.abs, init_params(stream(50), (3, 2)))
        zero = a.zeros_like()
        expected = 0.5 * a.flat
        accumulate(a, zero, 0.5)
        assert np.array_equal(a.flat, expected)

    def test_three_tasks_sum(self):
        maps = [
            map_flat(np.abs, init_params(stream(s), (3, 2))) for s in (51, 52, 53)
        ]
        expected = maps[0].flat + maps[1].flat + maps[2].flat
        total = maps[0].copy()
        accumulate(total, maps[1], 1.0)
        accumulate(total, maps[2], 1.0)
        assert np.allclose(total.flat, expected, rtol=0, atol=1e-15)

    @pytest.mark.parametrize("gamma", [1.0, 0.9, 0.5, 0.0])
    def test_in_place_fold_is_the_expression_bit_for_bit(self, gamma):
        layer_sizes = (784, 300, 150, 10)
        total = map_flat(np.abs, init_params(stream(56), layer_sizes))
        new = map_flat(np.abs, init_params(stream(57), layer_sizes))
        expected = gamma * total.flat + new.flat
        buffer = total.flat
        accumulate(total, new, gamma)
        assert total.flat is buffer
        assert same_bits(total.flat, expected)


class TestEwcPenalty:
    def test_zero_at_anchor(self):
        params = init_params(stream(56), (4, 3))
        omega = map_flat(np.abs, init_params(stream(57), (4, 3)))
        value, grad = ewc_penalty(params, params.copy(), omega, 3.0)
        assert value == 0.0
        assert np.all(grad.flat == 0.0)

    def test_single_weight_plug_in(self):
        params = scalar_net(1.0)
        anchor = scalar_net(0.5)
        omega = scalar_map(2.0)
        value, grad = ewc_penalty(params, anchor, omega, 3.0)
        assert abs(value - 0.75) < 1e-12
        assert abs(grad.weights[0][0, 0] - 3.0) < 1e-12

    def test_gradient_matches_finite_differences(self):
        params = init_params(stream(58), (3, 3, 2), dtype=np.float64)
        anchor = init_params(stream(59), (3, 3, 2), dtype=np.float64)
        omega = map_flat(np.abs, init_params(stream(60), (3, 3, 2), dtype=np.float64))
        lam = 1.7
        _, grad = ewc_penalty(params, anchor, omega, lam)
        numeric = finite_difference_grads(
            lambda p: ewc_penalty(p, anchor, omega, lam)[0], params, h=1e-6
        )
        assert np.max(np.abs(numeric.flat - grad.flat)) < 1e-8

    def test_translation_invariance(self):
        params = init_params(stream(61), (3, 2), dtype=np.float64)
        anchor_values = init_params(stream(62), (3, 2), dtype=np.float64)
        omega = map_flat(np.abs, init_params(stream(63), (3, 2), dtype=np.float64))
        base, _ = ewc_penalty(params, anchor_values, omega, 2.0)
        shifted, _ = ewc_penalty(
            map_flat(lambda p: p + 7.25, params),
            map_flat(lambda a: a + 7.25, anchor_values),
            omega,
            2.0,
        )
        assert abs(base - shifted) < 1e-12

    def test_gradient_lipschitz_in_theta(self):
        # Per coordinate the penalty gradient is lam*omega*(theta-anchor),
        # so moving theta by d moves the gradient by exactly lam*omega*d.
        params = scalar_net(0.3)
        anchor = scalar_net(-0.2)
        omega = scalar_map(1.75)
        lam = 4.0
        _, g1 = ewc_penalty(params, anchor, omega, lam)
        moved = scalar_net(0.3 + 0.01)
        _, g2 = ewc_penalty(moved, anchor, omega, lam)
        change = abs(g2.weights[0][0, 0] - g1.weights[0][0, 0])
        assert abs(change - lam * 1.75 * 0.01) < 1e-12


class TestMultiAnchor:
    def setup_instance(self, seed, k):
        sizes = (3, 3, 2)
        params = init_params(stream(seed), sizes)
        anchors = [init_params(stream(seed + i + 1), sizes) for i in range(k)]
        omegas = [
            map_flat(np.abs, init_params(stream(seed + 100 + i), sizes))
            for i in range(k)
        ]
        lams = [0.5 + 0.25 * i for i in range(k)]
        return params, anchors, omegas, lams

    def test_empty_list_is_zero_penalty(self):
        params = init_params(stream(64), (3, 2))
        value, grad = ewc_penalty_multi_anchor(params, [], [], [])
        assert value == 0.0
        assert np.all(grad.flat == 0.0)

    def test_single_anchor_reduces_to_plain_penalty(self):
        params, anchors, omegas, lams = self.setup_instance(65, 1)
        multi = ewc_penalty_multi_anchor(params, anchors, omegas, lams)
        single = ewc_penalty(params, anchors[0], omegas[0], lams[0])
        assert multi[0] == single[0]
        assert np.array_equal(multi[1].flat, single[1].flat)

    def test_duplicate_anchor_equals_double_lambda(self):
        params, anchors, omegas, _ = self.setup_instance(66, 1)
        doubled = ewc_penalty(params, anchors[0], omegas[0], 2 * 0.8)
        duplicated = ewc_penalty_multi_anchor(
            params, anchors * 2, omegas * 2, [0.8, 0.8]
        )
        assert abs(doubled[0] - duplicated[0]) < 1e-12
        assert np.max(np.abs(doubled[1].flat - duplicated[1].flat)) < 1e-12

    def test_three_anchors_equal_sum_of_singles(self):
        params, anchors, omegas, lams = self.setup_instance(67, 3)
        value, grad = ewc_penalty_multi_anchor(params, anchors, omegas, lams)
        parts = [ewc_penalty(params, a, o, l) for a, o, l in zip(anchors, omegas, lams)]
        assert abs(value - sum(p[0] for p in parts)) < 1e-12
        summed = sum(p[1].flat for p in parts)
        assert np.max(np.abs(grad.flat - summed)) < 1e-12

    def test_length_mismatch_rejected(self):
        params, anchors, omegas, lams = self.setup_instance(68, 2)
        with pytest.raises(ValueError):
            ewc_penalty_multi_anchor(params, anchors, omegas[:1], lams)


class TestEwcHookBlocks:
    @pytest.mark.parametrize("threshold", [None, 1.0], ids=["plain", "clip"])
    def test_blocked_pre_hook_matches_whole_vector_reference(self, threshold):
        # Two full blocks and a ragged 17-entry tail; the second call
        # reuses the hook's scratch block.
        layer_sizes = (2 * ADAM_BLOCK + 16, 1)  # (n_in + 1) * n_out entries
        size = param_count(layer_sizes)
        rng = stream(180)

        def vector():
            return MlpParams.from_flat(rng.standard_normal(size), layer_sizes)

        anchor, task_grad = vector(), vector()
        lam_weight = np.abs(rng.standard_normal(size)) * 10.0 ** rng.uniform(-6, 3, size)
        hook = continual._make_ewc_hook(anchor, lam_weight, threshold)
        for _ in range(2):
            params = vector()
            expected = whole_vector_ewc_pre_hook(task_grad, params, anchor, lam_weight, threshold)
            assert same_bits(transformed(hook.pre_optimizer, task_grad, params).flat, expected)


class TestSafeCoefficient:
    def test_zero_omega(self):
        assert safe_coefficient(0.0, 0.001, 10.0) == 0.0

    def test_bounded_by_inverse_alpha_lambda(self):
        alpha, lam = 0.001, 10.0
        assert safe_coefficient(1e12, alpha, lam) < 1.0 / (alpha * lam)

    def test_alpha_zero_reduces_to_omega(self):
        assert safe_coefficient(3.75, 0.0, 10.0) == 3.75

    @given(st.floats(min_value=0, max_value=1e15))
    @settings(max_examples=50, deadline=None)
    def test_penalty_step_never_overshoots_anchor(self, product):
        # product stands in for alpha*lam*omega; the per-coordinate SGD
        # move from the penalty alone is alpha*lam*coeff*(theta-anchor),
        # and alpha*lam*coeff = product/(product+1) < 1.
        assert product / (product + 1.0) <= 1.0

    def test_works_elementwise_on_arrays(self):
        arr = np.array([0.0, 1.0, 1e12])
        out = safe_coefficient(arr, 0.001, 10.0)
        assert out.shape == (3,)
        assert out[0] == 0.0 and out[2] < 100.0


class TestClipSeparately:
    """clip_separately rescales both gradients in place and sums into the first."""

    def test_small_gradients_pass_through_as_sum(self):
        a = init_params(stream(69), (3, 2))
        b = init_params(stream(70), (3, 2))
        expected, b_before = a.flat + b.flat, b.flat.copy()
        clip_separately(a, b, threshold=1e6)
        assert np.array_equal(a.flat, expected)
        assert np.array_equal(b.flat, b_before)

    def test_zero_penalty_leaves_clipped_task_gradient(self):
        a = init_params(stream(71), (3, 2), dtype=np.float64)
        zero = a.zeros_like()
        clip_separately(a, zero, threshold=0.1)
        assert abs(global_norm(a) - 0.1) < 1e-12

    def test_both_rescaled_to_unit_norm(self):
        rs = stream(72)
        task = MlpParams(weights=[rs.standard_normal((3, 3))], biases=[rs.standard_normal(3)])
        task = map_flat(lambda g: g * (10.0 / global_norm(task)), task)
        penalty = MlpParams(weights=[rs.standard_normal((3, 3))], biases=[rs.standard_normal(3)])
        penalty = map_flat(lambda g: g * (1000.0 / global_norm(penalty)), penalty)
        unit_task = task.flat / 10.0
        unit_penalty = penalty.flat / 1000.0
        clip_separately(task, penalty, threshold=1.0)
        assert np.max(np.abs(task.flat - (unit_task + unit_penalty))) < 1e-12
        assert np.max(np.abs(penalty.flat - unit_penalty)) < 1e-12
        assert global_norm(task) <= 2.0


class TestWvaFactor:
    def test_closed_forms(self):
        assert wva_factor(0.0, 5.0, "hyperbolic") == 1.0
        assert wva_factor(0.0, 5.0, "exponential") == 1.0
        assert abs(wva_factor(0.5, 2.0, "hyperbolic") - 0.5) < 1e-12
        assert abs(wva_factor(math.log(2.0), 1.0, "exponential") - 0.5) < 1e-12
        assert wva_factor(0, 5.0, "hyperbolic") == 1.0  # an integer omega computes in float64

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_keeps_the_float_dtype_of_omega(self, dtype):
        omega = np.array([0.0, 0.5, 3.0], dtype=dtype)
        for kind in ("hyperbolic", "exponential"):
            assert wva_factor(omega, 2.0, kind).dtype == dtype

    def test_strictly_decreasing_in_omega(self):
        # Strictness needs lam*omega below ~745 for the exponential kind:
        # past that exp underflows to exactly 0.0 and stays there.
        grids = {
            "hyperbolic": np.logspace(-6, 6, 40),
            "exponential": np.logspace(-6, 2.7, 40),
        }
        for kind, grid in grids.items():
            factors = [wva_factor(o, 1.0, kind) for o in grid]
            assert all(b < a for a, b in zip(factors, factors[1:]))

    @given(
        st.floats(min_value=1e-12, max_value=1e9),
        st.floats(min_value=1e-12, max_value=1e3),
        st.sampled_from(["hyperbolic", "exponential"]),
    )
    @settings(max_examples=200, deadline=None)
    def test_bounded_in_unit_interval(self, omega, lam, kind):
        factor = wva_factor(omega, lam, kind)
        assert 0.0 <= factor <= 1.0
        if kind == "hyperbolic" or lam * omega < 700.0:
            assert factor > 0.0

    def test_hyperbolic_dominates_exponential(self):
        for x in np.logspace(-6, 6, 60):
            hyp = wva_factor(x, 1.0, "hyperbolic")
            exp = wva_factor(x, 1.0, "exponential")
            assert hyp >= exp


class TestWvaHook:
    def test_zero_importance_hook_is_identity(self):
        params = init_params(stream(74), (3, 2))
        omega = params.zeros_like()
        g = init_params(stream(75), (3, 2))
        for kind in ("hyperbolic", "exponential"):
            hook = make_wva_hook(omega, 5.0, kind, "gradient")
            assert np.array_equal(transformed(hook.pre_optimizer, g, params).flat, g.flat)

    def test_zero_lambda_returns_bare_hook(self):
        # lam == 0 with any importance: every factor is 1, so Adam under the
        # hook follows the trajectory of a bare StepHook bit for bit.
        omega = map_flat(np.abs, init_params(stream(76), (3, 2)))
        start = init_params(stream(74), (3, 2))
        grads = [init_params(stream(seed), (3, 2)) for seed in (75, 81, 82)]
        bare, bare_state = start.copy(), adam()
        for g in grads:
            apply(bare, g.copy(), bare_state, StepHook())
        for kind in ("hyperbolic", "exponential"):
            for target in ("gradient", "step"):
                hook = make_wva_hook(omega, 0.0, kind, target)
                p, state = start.copy(), adam()
                for g in grads:
                    apply(p, g.copy(), state, hook)
                assert np.array_equal(p.flat, bare.flat)

    def test_target_selects_hook_side(self):
        omega = map_flat(np.abs, init_params(stream(77), (3, 2)))
        grad_side = make_wva_hook(omega, 1.0, "hyperbolic", "gradient")
        step_side = make_wva_hook(omega, 1.0, "hyperbolic", "step")
        assert grad_side.pre_optimizer is not None and grad_side.post_optimizer is None
        assert step_side.post_optimizer is not None and step_side.pre_optimizer is None

    def test_sgd_trajectories_identical_for_both_targets(self):
        omega = map_flat(np.abs, init_params(stream(78), (4, 3, 2)))
        pre = make_wva_hook(omega, 2.5, "exponential", "gradient")
        post = make_wva_hook(omega, 2.5, "exponential", "step")
        p_pre = init_params(stream(79), (4, 3, 2))
        p_post = p_pre.copy()
        rng = stream(80)
        for _ in range(50):
            grads = MlpParams(
                weights=[rng.standard_normal(w.shape).astype(w.dtype) for w in p_pre.weights],
                biases=[rng.standard_normal(b.shape).astype(b.dtype) for b in p_pre.biases],
            )
            apply(p_pre, grads.copy(), sgd(), pre)
            apply(p_post, grads, sgd(), post)
        assert np.array_equal(p_pre.flat, p_post.flat)

    def test_adam_targets_diverge_matching_scalar_oracle(self):
        lam, omega_value = 2.0, 0.75
        factor = 1.0 / (lam * omega_value + 1.0)
        omega = scalar_map(omega_value)
        grads = (0.4, 0.6)

        oracle_pre = ScalarAdam()
        oracle_post = ScalarAdam()
        expect_pre, expect_post = 0.0, 0.0
        for g in grads:
            expect_pre += oracle_pre.step(g * factor)
            expect_post += oracle_post.step(g) * factor

        results = {}
        for target in ("gradient", "step"):
            hook = make_wva_hook(omega, lam, "hyperbolic", target)
            params, state = scalar_net(0.0), adam()
            for g in grads:
                apply(params, scalar_map(g), state, hook)
            results[target] = params.weights[0][0, 0]
        assert abs(results["gradient"] - expect_pre) < 1e-12
        assert abs(results["step"] - expect_post) < 1e-12
        assert abs(results["gradient"] - results["step"]) > 1e-5


class TestStrategyConfig:
    def test_defaults_valid(self):
        StrategyConfig()

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"kind": "replay"},
            {"lam": -1.0},
            {"online_decay": 2.0},
            {"attenuation": "linear"},
            {"target": "both"},
            {"estimator": "magnitude"},
            {"kind": "wva", "safe_coefficient": True},
            {"kind": "none", "separate_clip_threshold": 1.0},
            {"kind": "ewc", "separate_clip_threshold": -1.0},
            {"kind": "ewc_multi_anchor", "online_decay": 0.5},
        ],
    )
    def test_invalid_configs_rejected(self, kwargs):
        with pytest.raises(ValueError):
            StrategyConfig(**kwargs)

    def test_helper_bounds_are_declared_on_the_fields(self):
        # accumulate, safe_coefficient, clip_separately and wva_factor do
        # not re-check these; the configs' field metadata must declare them
        def bounds(config_type, name):
            meta = {f.name: f.metadata for f in dataclasses.fields(config_type)}[name]
            return {key: meta[key] for key in ("min", "max", "above") if key in meta}

        assert bounds(StrategyConfig, "lam") == {"min": 0}
        assert bounds(StrategyConfig, "online_decay") == {"min": 0, "max": 1}
        assert bounds(StrategyConfig, "separate_clip_threshold") == {"above": 0}
        assert bounds(OptimizerConfig, "learning_rate") == {"above": 0}
        assert all(rate > 0 for rate in DEFAULT_LEARNING_RATES.values())


def importance_with(bad_value):
    """An ``_estimate`` stand-in whose map holds one ``bad_value`` entry."""

    def estimate(config, params, task):
        omega = params.zeros_like()
        omega.flat[0] = bad_value
        return omega

    return estimate


class TestImportanceCheck:
    """finish_task checks the map for every kind, before any hook is built."""

    @pytest.mark.parametrize("kind", ["wva", "ewc", "ewc_multi_anchor"])
    @pytest.mark.parametrize(
        "bad_value, error",
        [(math.inf, NonFiniteError), (-1.0, ValueError)],
        ids=["inf", "negative"],
    )
    def test_finish_task_rejects_bad_map(self, monkeypatch, kind, bad_value, error):
        monkeypatch.setattr(continual, "_estimate", importance_with(bad_value))
        strategy = Strategy(StrategyConfig(kind=kind, lam=1.0), 0.001)
        params, task = random_setup(170)
        with pytest.raises(error, match="importance map"):
            strategy.finish_task(params, task)
        assert strategy.hook is None

    @pytest.mark.parametrize("kind", ["ewc", "ewc_multi_anchor"])
    def test_negative_map_rejected_before_the_safe_coefficient(self, monkeypatch, kind):
        # at alpha*lam = 2 the safe coefficient maps -1 to -1/(-2+1) = +1
        monkeypatch.setattr(continual, "_estimate", importance_with(-1.0))
        config = StrategyConfig(kind=kind, lam=2000.0, safe_coefficient=True)
        strategy = Strategy(config, 0.001)
        params, task = random_setup(171)
        with pytest.raises(ValueError, match="importance map contains negative"):
            strategy.finish_task(params, task)

    @pytest.mark.parametrize("kind", ["wva", "ewc", "ewc_multi_anchor"])
    def test_grid_files_non_finite_map_and_propagates_negative_map(self, monkeypatch, kind):
        config = ExperimentConfig(
            num_tasks=2,
            epochs_per_task=1,
            batch_size=16,
            seed=7,
            architecture=(12, 10, 4),
            synthetic_samples_per_class=40,
            strategy=StrategyConfig(kind=kind),
        )
        monkeypatch.setattr(continual, "_estimate", importance_with(math.inf))
        surface = grid_search(config, [0.1, 1.0])
        assert [lam for lam, _ in surface.failures] == [0.1, 1.0]
        assert all("importance map" in message for _, message in surface.failures)
        assert np.isnan(surface.avg_accuracy).all()
        monkeypatch.setattr(continual, "_estimate", importance_with(-1.0))
        with pytest.raises(ValueError, match="importance map contains negative"):
            grid_search(config, [0.1, 1.0])


class TestStrategies:
    def test_none_strategy_has_no_hook(self):
        strategy = Strategy(StrategyConfig(kind="none"), 0.2)
        params, task = random_setup(82)
        assert strategy.hook is None
        strategy.finish_task(params, task)
        assert strategy.hook is None
        assert strategy.omega_total is None

    @pytest.mark.parametrize("kind", ["wva", "ewc", "ewc_multi_anchor"])
    def test_zero_lambda_estimates_nothing(self, monkeypatch, kind):
        estimates = []
        monkeypatch.setattr(continual, "_estimate", lambda *args: estimates.append(args))
        strategy = Strategy(StrategyConfig(kind=kind, lam=0.0), 0.001)
        params, task = random_setup(84)
        strategy.finish_task(params, task)
        strategy.finish_task(params, task)
        assert estimates == []
        assert strategy.hook is None
        assert strategy.omega_total is None

    def test_wva_inert_before_first_task(self):
        strategy = Strategy(StrategyConfig(kind="wva", lam=1.0), 0.001)
        params, task = random_setup(83)
        assert strategy.hook is None
        strategy.finish_task(params, task)
        assert strategy.hook is not None

    def test_wva_accumulates_importance_across_tasks(self):
        config = StrategyConfig(kind="wva", lam=1.0, estimator="total_abs_signal")
        strategy = Strategy(config, 0.001)
        params, task_a = random_setup(85)
        _, task_b = random_setup(86)
        strategy.finish_task(params, task_a)
        first = strategy.omega_total.copy()  # the running map is folded in place
        strategy.finish_task(params, task_b)
        second = strategy.omega_total
        omega_a = estimate_total_abs_signal(params, task_a)
        omega_b = estimate_total_abs_signal(params, task_b)
        assert np.array_equal(first.flat, omega_a.flat)
        assert np.allclose(
            second.flat, omega_a.flat + omega_b.flat, rtol=0, atol=1e-15
        )

    @pytest.mark.usefixtures("float64_pixels")
    def test_wva_hook_scales_by_expected_factors(self):
        config = StrategyConfig(kind="wva", lam=2.0, attenuation="hyperbolic", target="step")
        strategy = Strategy(config, 0.001)
        params, task = random_setup(87, dtype=np.float64)
        strategy.finish_task(params, task)
        hook = strategy.hook
        omega = estimate_total_abs_signal(params, task)
        step = init_params(stream(88), params.layer_sizes, dtype=np.float64)
        expected = step.flat / (2.0 * omega.flat + 1.0)
        scaled = transformed(hook.post_optimizer, step, params)
        assert np.max(np.abs(scaled.flat - expected)) < 1e-15

    def test_ewc_hook_adds_penalty_gradient(self):
        config = StrategyConfig(kind="ewc", lam=3.0, estimator="fisher")
        strategy = Strategy(config, 0.2)
        anchor_params, task = random_setup(91)
        strategy.finish_task(anchor_params, task)
        current = init_params(stream(92), anchor_params.layer_sizes)
        hook = strategy.hook
        task_grad = init_params(stream(93), anchor_params.layer_sizes)
        omega = estimate_fisher(anchor_params, task)
        _, penalty_grad = ewc_penalty(current, anchor_params, omega, 3.0)
        expected = task_grad.flat + penalty_grad.flat
        pulled = transformed(hook.pre_optimizer, task_grad, current)
        assert np.max(np.abs(pulled.flat - expected)) < 1e-15

    def test_ewc_hook_reads_params_argument(self):
        # One hook, two parameter sets: the pulls differ by exactly
        # lam * W * (p1 - p2). With p2 the anchor itself, its pull is 0.
        # Each call adds its pull into the zero gradient it is handed.
        lam = 3.0
        strategy = Strategy(StrategyConfig(kind="ewc", lam=lam), 0.2)
        anchor, task = random_setup(170)
        strategy.finish_task(anchor, task)
        hook = strategy.hook
        zero = anchor.zeros_like()
        p1 = init_params(stream(171), anchor.layer_sizes)
        p2 = anchor.copy()
        pull_1 = transformed(hook.pre_optimizer, zero, p1).flat
        pull_2 = transformed(hook.pre_optimizer, zero, p2).flat
        assert np.all(pull_2 == 0.0)
        expected = (lam * strategy.omega_total.flat) * (p1.flat - p2.flat)
        assert np.any(expected != 0.0)
        assert np.array_equal(pull_1 - pull_2, expected)
        hook.pre_optimizer(zero, p1)
        assert np.array_equal(zero.flat, pull_1)

    def test_ewc_anchor_is_snapshot_not_reference(self):
        config = StrategyConfig(kind="ewc", lam=1.0)
        strategy = Strategy(config, 0.2)
        params, task = random_setup(94)
        strategy.finish_task(params, task)
        params.weights[0][0, 0] += 100.0
        assert strategy.anchor.weights[0][0, 0] != params.weights[0][0, 0]

    def test_ewc_safe_coefficient_caps_effective_importance(self):
        lam, alpha = 10.0, 0.5
        config = StrategyConfig(kind="ewc", lam=lam, safe_coefficient=True)
        strategy = Strategy(config, alpha)
        params, task = random_setup(95)
        strategy.finish_task(params, task)
        current = init_params(stream(96), params.layer_sizes)
        hook = strategy.hook
        zero = params.zeros_like()
        penalty_only = transformed(hook.pre_optimizer, zero, current).flat
        omega = strategy.omega_total.flat
        coeff = omega / (alpha * lam * omega + 1.0)
        diff = current.flat - params.flat
        assert np.max(np.abs(penalty_only - lam * coeff * diff)) < 1e-12

    def test_ewc_separate_clip_applied(self):
        config = StrategyConfig(kind="ewc", lam=1e6, separate_clip_threshold=1.0)
        strategy = Strategy(config, 0.2)
        params, task = random_setup(97)
        strategy.finish_task(params, task)
        current = map_flat(lambda p: p + 5.0, params)
        hook = strategy.hook
        out = params.zeros_like()
        hook.pre_optimizer(out, current)
        assert global_norm(out) <= 1.0 + 1e-9

    def test_multi_anchor_matches_consolidated_after_one_task(self):
        params, task = random_setup(99)
        current = init_params(stream(100), params.layer_sizes)
        task_grad = init_params(stream(101), params.layer_sizes)
        outputs = {}
        for kind in ("ewc", "ewc_multi_anchor"):
            strategy = Strategy(StrategyConfig(kind=kind, lam=2.0), 0.2)
            strategy.finish_task(params, task)
            hook = strategy.hook
            outputs[kind] = transformed(hook.pre_optimizer, task_grad, current).flat
        assert np.array_equal(outputs["ewc"], outputs["ewc_multi_anchor"])

    @pytest.mark.parametrize(
        "options", [{}, {"safe_coefficient": True}], ids=["default", "safe_coefficient"]
    )
    @pytest.mark.usefixtures("float64_pixels")
    def test_multi_anchor_matches_explicit_sum(self, options):
        lam, learning_rate = 2.0, 0.5
        config = StrategyConfig(kind="ewc_multi_anchor", lam=lam, **options)
        strategy = Strategy(config, learning_rate)
        anchors, omegas = [], []
        for task_id in range(4):
            params, task = random_setup(130 + task_id, dtype=np.float64)
            strategy.finish_task(params, make_task(task.train_images, task.train_labels, task_id))
            omega = estimate_total_abs_signal(params, task)
            if config.safe_coefficient:
                omega = MlpParams.from_flat(
                    safe_coefficient(omega.flat, learning_rate, lam), omega.layer_sizes
                )
            anchors.append(params.copy())
            omegas.append(omega)
        current = init_params(stream(140), anchors[0].layer_sizes, dtype=np.float64)
        zero = current.zeros_like()
        pull = transformed(strategy.hook.pre_optimizer, zero, current).flat
        _, expected = ewc_penalty_multi_anchor(current, anchors, omegas, [lam] * 4)
        scale = np.max(np.abs(expected.flat))
        assert scale > 0
        assert np.max(np.abs(pull - expected.flat)) <= 1e-12 * scale

    @pytest.mark.parametrize(
        "options", [{}, {"safe_coefficient": True}], ids=["default", "safe_coefficient"]
    )
    def test_multi_anchor_running_map_is_the_sum_of_effective_maps(self, options):
        # omega_total is W = sum_k w_k, each w_k through the safe coefficient
        # when set, and the one running map the strategy holds.
        lam, learning_rate = 2.0, 0.5
        config = StrategyConfig(kind="ewc_multi_anchor", lam=lam, estimator="fisher", **options)
        strategy = Strategy(config, learning_rate)
        total = None
        for task_id in range(3):
            params, task = random_setup(180 + task_id)
            task = make_task(task.train_images, task.train_labels, task_id)
            strategy.finish_task(params, task)
            w = estimate_fisher(params, task).flat
            if config.safe_coefficient:
                w = safe_coefficient(w, learning_rate, lam)
            total = w if total is None else total + w
            assert same_bits(strategy.omega_total.flat, total)

    @pytest.mark.parametrize(
        "config",
        [
            StrategyConfig(kind="ewc", lam=3.0, online_decay=0.5),
            StrategyConfig(kind="ewc", lam=3.0, safe_coefficient=True),
            StrategyConfig(kind="ewc_multi_anchor", lam=3.0, estimator="fisher"),
            StrategyConfig(kind="ewc_multi_anchor", lam=3.0, safe_coefficient=True),
            StrategyConfig(kind="ewc_multi_anchor", lam=3.0, separate_clip_threshold=0.1),
            StrategyConfig(kind="wva", lam=3.0, target="gradient"),
            StrategyConfig(kind="wva", lam=3.0, attenuation="exponential"),
        ],
        ids=[
            "ewc-decay", "ewc-safe", "multi", "multi-safe", "multi-clip", "wva-gradient",
            "wva-step",
        ],
    )
    def test_hook_rebuilt_from_map_and_anchor_steps_alike(self, config):
        # The hook is a function of (config, learning rate, omega_total,
        # anchor): one rebuilt from them steps bit for bit as the strategy's.
        strategy = Strategy(config, 0.5)
        for task_id in range(3):
            params, task = random_setup(190 + task_id)
            strategy.finish_task(params, make_task(task.train_images, task.train_labels, task_id))
        rebuilt = continual._make_hook(config, 0.5, strategy.omega_total, strategy.anchor)
        start, finals = init_params(stream(195), params.layer_sizes), []
        for hook in (strategy.hook, rebuilt):
            current, optimizer = start.copy(), adam()
            for seed in (196, 197):
                apply(current, init_params(stream(seed), params.layer_sizes), optimizer, hook)
            finals.append(current.flat)
        assert not np.array_equal(finals[0], start.flat)
        assert same_bits(finals[0], finals[1])

    @pytest.mark.parametrize("name", ["_weight", "weight", "anchors"])
    def test_state_is_fixed_by_slots(self, name):
        strategy = Strategy(StrategyConfig(kind="ewc_multi_anchor", lam=1.0), 0.2)
        with pytest.raises(AttributeError):
            setattr(strategy, name, None)

    def test_multi_anchor_zero_importance_keeps_anchor_finite(self):
        # Pixel 0 is blank in every task, so the weights reading it have
        # zero importance in each: no task pulls them.
        config = StrategyConfig(kind="ewc_multi_anchor", lam=2.0, estimator="fisher")
        strategy = Strategy(config, 0.2)
        total = None
        for task_id in range(3):
            params, task = random_setup(150 + task_id)
            images = task.train_images.copy()
            images[:, 0] = 0
            blank = make_task(images, task.train_labels, task_id)
            strategy.finish_task(params, blank)
            omega = estimate_fisher(params, blank).flat
            total = omega if total is None else total + omega
        unpulled = total == 0.0
        assert np.array_equal(np.flatnonzero(unpulled), np.arange(4) * 5)
        assert np.isfinite(strategy.anchor.flat).all()
        current = map_flat(lambda p: p + 3.0, params)
        pull = params.zeros_like()
        strategy.hook.pre_optimizer(pull, current)
        assert np.all(pull.flat[unpulled] == 0.0)
        assert np.all(pull.flat[~unpulled] != 0.0)

    @pytest.mark.parametrize("kind", ["ewc", "ewc_multi_anchor"])
    def test_state_constant_in_task_count(self, kind):
        def held_bytes(value):
            if isinstance(value, MlpParams):
                return value.flat.nbytes
            if isinstance(value, np.ndarray):
                return value.nbytes
            if isinstance(value, (list, tuple)):
                return sum(held_bytes(v) for v in value)
            if isinstance(value, StepHook):
                return sum(
                    held_bytes(cell.cell_contents)
                    for fn in (value.pre_optimizer, value.post_optimizer)
                    if fn is not None
                    for cell in fn.__closure__ or ()
                )
            return 0

        strategy = Strategy(StrategyConfig(kind=kind, lam=1.0), 0.2)
        held = {}
        for task_id in range(6):
            params, task = random_setup(160 + task_id)
            strategy.finish_task(params, make_task(task.train_images, task.train_labels, task_id))
            held[task_id + 1] = sum(held_bytes(getattr(strategy, v)) for v in Strategy.__slots__)
        assert held[2] > 0
        assert held[6] == held[2]


class TestBufferAliasing:
    """apply works in the caller's buffers; optimizer and hook state carries over.

    ``params`` keeps its vector and gains the step that ``grads`` ends
    holding. Hooks own no output buffer, so steps through one reused
    gradient buffer match steps on fresh copies bit for bit.
    """

    SIZES = (5, 4, 3)

    def hooked_strategy(self, kind):
        configs = {
            "wva-step": StrategyConfig(kind="wva", lam=2.0, target="step"),
            "wva-gradient": StrategyConfig(kind="wva", lam=2.0, target="gradient"),
            "ewc": StrategyConfig(kind="ewc", lam=3.0, estimator="fisher"),
            "ewc-multi-anchor": StrategyConfig(
                kind="ewc_multi_anchor", lam=3.0, estimator="fisher"
            ),
        }
        strategy = Strategy(configs[kind], 0.001)
        for task_id, seed in enumerate((110, 111)):
            params, task = random_setup(seed, self.SIZES)
            strategy.finish_task(params, make_task(task.train_images, task.train_labels, task_id))
        return strategy

    def gradients(self, seed):
        flat = stream(seed).standard_normal(param_count(self.SIZES))
        return MlpParams.from_flat(flat.astype(RUN_DTYPE), self.SIZES)

    @pytest.mark.parametrize("kind", ["wva-step", "wva-gradient", "ewc", "ewc-multi-anchor"])
    def test_apply_adds_the_step_it_leaves_in_grads(self, kind):
        # The containers stay: apply rebinds neither vector. It writes the
        # step into grads' vector and adds it into params' own vector.
        strategy = self.hooked_strategy(kind)
        params = init_params(stream(112), self.SIZES)
        grads = self.gradients(113)
        start, flats = params.copy(), (params.flat, grads.flat)
        assert apply(params, grads, adam(), strategy.hook) is None
        assert params.flat is flats[0] and grads.flat is flats[1]
        assert np.shares_memory(params.weights[0], flats[0])
        assert same_bits(params.flat, start.flat + grads.flat)
        expected = applied(start, self.gradients(113), adam(), strategy.hook)
        assert same_bits(params.flat, expected.flat)

    @pytest.mark.parametrize("kind", ["wva-step", "wva-gradient", "ewc", "ewc-multi-anchor"])
    def test_steps_through_one_buffer_match_steps_on_copies(self, kind):
        # The second step starts from the first one's parameters, as steps
        # on fresh copies do, though both go through one gradient buffer.
        strategy = self.hooked_strategy(kind)
        in_place, copied = adam(), adam()
        params = init_params(stream(114), self.SIZES)
        reference = params.copy()
        buffer = params.zeros_like()
        results = []
        for seed in (115, 116):
            g = self.gradients(seed)
            buffer.flat[:] = g.flat
            apply(params, buffer, in_place, strategy.hook)
            reference = applied(reference, g, copied, strategy.hook)
            assert same_bits(params.flat, reference.flat)
            results.append(params.flat.copy())
        assert not np.array_equal(results[0], results[1])
