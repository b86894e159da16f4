import numpy as np
import pytest

from forgetlab.model import MlpParams, init_params
from forgetlab.numerics import ShapeError, stream
from forgetlab.optim import (
    ADAM_BLOCK,
    ADAM_EPSILON,
    OptimizerConfig,
    StepHook,
    apply,
    step_parts,
)

from helpers import ScalarAdam, WholeVectorAdam, adam, applied, map_flat, same_bits, sgd


def scalar_net(x=0.0):
    return MlpParams(weights=[np.array([[float(x)]])], biases=[np.zeros(1)])


def scalar_grad(g):
    return MlpParams(weights=[np.array([[float(g)]])], biases=[np.zeros(1)])


def random_grads(seed, layer_sizes=(3, 4, 2)):
    return init_params(stream(seed), layer_sizes)


def full_step(optimizer, grads):
    """The whole step ``apply`` adds: direction times deferred scale.

    ``step_parts`` writes the direction over the gradient it is handed,
    so it is handed a copy.
    """
    direction = grads.copy()
    scale = step_parts(optimizer, direction)
    return map_flat(lambda d: d * scale, direction)


def adam_step(state, g):
    """Adam's step for the scalar gradient ``g`` (its deferred scale is 1.0)."""
    grads = scalar_grad(g)
    step_parts(state, grads)
    return grads.weights[0][0, 0]


class TestSgd:
    def test_zero_gradient_zero_step(self):
        step = full_step(sgd(), scalar_grad(0.0))
        assert step.weights[0][0, 0] == 0.0

    def test_unit_gradient_default_rate(self):
        step = full_step(sgd(), scalar_grad(1.0))
        assert step.weights[0][0, 0] == -0.2

    def test_linearity(self):
        g = random_grads(1)
        single = full_step(sgd(0.05), g)
        double = full_step(sgd(0.05), map_flat(lambda x: 2 * x, g))
        assert np.array_equal(double.flat, 2 * single.flat)

    def test_learning_rate_validated(self):
        with pytest.raises(ValueError):
            OptimizerConfig(kind="sgd", learning_rate=0.0)


class TestAdam:
    def test_first_step_approaches_signed_learning_rate(self):
        for g in (1e-3, 1.0, 50.0, -2.5):
            state = adam()
            step = adam_step(state, g)
            target = -state.learning_rate * np.sign(g)
            assert abs(step - target) <= state.learning_rate * ADAM_EPSILON / abs(g)

    def test_zero_gradient_zero_state_zero_step(self):
        grads = scalar_grad(0.0)
        assert step_parts(adam(), grads) == 1.0
        assert grads.weights[0][0, 0] == 0.0

    def test_five_step_sequence_matches_scalar_reference(self):
        state = adam()
        reference = ScalarAdam()
        for g in (1.0, 1.0, 1.0, -1.0, -1.0):
            mine = adam_step(state, g)
            theirs = reference.step(g)
            assert abs(mine - theirs) < 1e-12

    def test_state_advances(self):
        state = adam()
        assert state.t == 0 and state.first_moment is None
        step_parts(state, scalar_grad(1.0))
        step_parts(state, scalar_grad(1.0))
        assert state.t == 2
        assert state.first_moment.weights[0][0, 0] != 0.0

    def test_blocked_update_matches_whole_vector_reference(self):
        # Two full blocks and a ragged 17-entry tail, over two fresh
        # optimizers, as two tasks of a run use them. The step is written
        # over the gradient, which the reference reads first.
        layer_sizes = (2 * ADAM_BLOCK + 16, 1)  # (n_in + 1) * n_out entries
        size = 2 * ADAM_BLOCK + 17
        rng = stream(17)
        for steps in (5, 3):
            state, reference = adam(), WholeVectorAdam()
            for _ in range(steps):
                scale = 10.0 ** rng.uniform(-6.0, 3.0, size)
                g = rng.standard_normal(size) * scale
                expected = reference.step(g)
                assert step_parts(state, MlpParams.from_flat(g, layer_sizes)) == 1.0
                assert state.t == reference.t
                assert same_bits(state.first_moment.flat, reference.m)
                assert same_bits(state.second_moment.flat, reference.v)
                assert same_bits(g, expected)

    def test_step_magnitude_bounded_on_steady_sequences(self):
        # Holds when gradient magnitudes are steady or shrinking, since
        # the long-memory second moment then upper-bounds the recent
        # mean. Growing magnitudes or sign-consistent bursts after a
        # quiet stretch push |step| past lr (1.3x-plus is reachable), so
        # the bound is deliberately not asserted for arbitrary inputs.
        lr = adam().learning_rate
        sequences = [
            np.ones(200),
            1.0 / np.sqrt(np.arange(1, 201)),
            2.0 + np.sin(np.arange(200.0)),
        ]
        for seq in sequences:
            state = adam()
            for g in seq:
                step = adam_step(state, g)
                assert abs(step) <= lr * (1 + 1e-9)


def halve(values, params):
    values.flat *= 0.5


class TestApply:
    @pytest.mark.parametrize("make", [sgd, adam], ids=["sgd", "adam"])
    def test_step_written_over_the_gradient(self, make):
        grads = random_grads(1)
        step = full_step(make(), grads)
        scale = step_parts(make(), grads)
        assert np.array_equal(grads.flat * scale, step.flat)

    def test_identity_hook_matches_plain_sgd(self):
        params = random_grads(2)
        grads = random_grads(3)
        plain = map_flat(np.add, params, full_step(sgd(), grads))
        flat = params.flat
        assert apply(params, grads, sgd(), StepHook()) is None
        assert params.flat is flat
        assert np.array_equal(plain.flat, params.flat)

    def test_identity_hook_matches_plain_adam(self):
        # apply adds into params' own vector and leaves the step in grads
        params = random_grads(4)
        grads = random_grads(5)
        step = full_step(adam(), grads)
        plain = map_flat(np.add, params, step)
        flat = params.flat
        apply(params, grads, adam(), None)
        assert params.flat is flat
        assert np.array_equal(plain.flat, params.flat)
        assert np.array_equal(grads.flat, step.flat)

    def test_post_hook_halving_halves_change_exactly(self):
        # Zero starting parameters make the observed change equal the
        # step itself, so halving is exact (multiplying by 0.5 never
        # rounds); with nonzero parameters the theta + step addition
        # would round and break bitwise comparison.
        grads = random_grads(7)
        params = grads.zeros_like()
        plain_change = applied(params, grads, sgd(), None).flat
        hooked_change = applied(params, grads, sgd(), StepHook(post_optimizer=halve)).flat
        assert np.array_equal(hooked_change, 0.5 * plain_change)

    def test_sgd_pre_and_post_scaling_bit_identical(self):
        factors = init_params(stream(8), (3, 4, 2))
        factors = map_flat(np.abs, factors)

        def scale(values, params):
            values.flat *= factors.flat

        pre, post = StepHook(pre_optimizer=scale), StepHook(post_optimizer=scale)
        params_pre = random_grads(9)
        params_post = params_pre.copy()
        rng = stream(10)
        for _ in range(100):
            grads = MlpParams.from_flat(
                rng.standard_normal(params_pre.flat.size).astype(params_pre.flat.dtype),
                params_pre.layer_sizes,
            )
            apply(params_pre, grads.copy(), sgd(), pre)
            apply(params_post, grads, sgd(), post)
            assert np.array_equal(params_pre.flat, params_post.flat)

    def test_adam_scaling_side_matters(self):
        # Adam rescales by the gradient's running magnitude, so a constant
        # factor applied before it mostly cancels while the same factor
        # after it shrinks the step outright.
        params_pre = scalar_net(1.0)
        params_post = scalar_net(1.0)
        state_pre, state_post = adam(), adam()
        for g in (1.0, 1.0):
            apply(params_pre, scalar_grad(g), state_pre, StepHook(pre_optimizer=halve))
            apply(params_post, scalar_grad(g), state_post, StepHook(post_optimizer=halve))
        gap = abs(params_pre.weights[0][0, 0] - params_post.weights[0][0, 0])
        assert gap > state_pre.learning_rate / 10

    def test_params_grads_mismatch_rejected(self):
        with pytest.raises(ShapeError):
            apply(random_grads(15), random_grads(16, (2, 2)), sgd(), None)

    def test_grads_of_another_dtype_rejected(self):
        # an in-place update would silently round a float64 step into
        # float32 parameters
        params = random_grads(15)
        grads = MlpParams.from_flat(params.flat.astype(np.float64), params.layer_sizes)
        with pytest.raises(ShapeError, match="differ in dtype"):
            apply(params, grads, sgd(), None)
