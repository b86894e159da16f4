"""Acceptance gate: one test per shipping criterion, each printing a verdict.

Expensive artifacts (baselines, lambda grids) are built once per module
and shared. The committed margins below came from oracle runs of this
exact code at seed 42; regenerate by rerunning the corresponding fixture
and reading the printed detail line. Margins are committed slightly
below the observed values so a different BLAS reduction order cannot
flip a verdict on a sample or two.

Observed oracle values (desk preset, seed 42, float32 runs):
  2-task drop on task 0:           0.2590   (committed floor 0.19)
  best step-target avg, 5 tasks:   0.5950   at lambda 31.6
  unprotected 5-task avg:          0.5007   (protection committed 0.08)
  best gradient-target avg:        0.5196
  best exponential avg:            0.5909   at lambda 10 (parity gap 0.0041)
  100x off-optimum avgs:           hyperbolic 0.2925, exponential 0.2821

Criteria 1 and 10 are oracles and run in float64 whatever a run's
dtype: float64 parameters (``init_params(..., dtype=np.float64)``) and
float64 inputs.

Every deterministic printed value (all but the wall-clock bounds) is
also pinned at full precision in ``golden/acceptance.json``, with the
environment stamp it was blessed on: each criterion asserts its margin,
then that its values equal the file's. As in ``test_golden.py``, the
comparison runs with OpenBLAS pinned to the blessed thread count and is
left out, with a warning, on another numpy, BLAS or machine. After an
intended numerical change, or on a new machine, re-bless both golden
files from the repository root; the run prints each value as new,
unchanged or changed:

    PYTHONPATH=src python -m pytest tests/test_golden.py tests/test_acceptance.py --bless -q -s
"""

import time
import warnings
from pathlib import Path

import numpy as np
import pytest

from forgetlab.continual import (
    StrategyConfig,
    attenuation_closed_forms,
    ewc_penalty,
    safe_coefficient,
)
from forgetlab.harness import (
    DESK_LAMBDA_GRID,
    OptimizerConfig,
    average_accuracy,
    desk_preset,
    grid_search,
    run_sequence,
    sgd_target_equivalence,
)
from forgetlab.model import MlpParams, init_params, max_relative_gradient_error
from forgetlab.numerics import stream
from forgetlab.optim import step_parts
from forgetlab.reports import emit_csv

from helpers import ScalarAdam, adam, golden_file

FORGETTING_MARGIN = 0.19
PROTECTION_MARGIN = 0.08
PARITY_TOLERANCE = 0.02

GOLDEN = Path(__file__).with_name("golden") / "acceptance.json"
# The criteria that print deterministic values; 3 and 9 print a verdict only.
PINNED_CRITERIA = ("1", "2", "4", "5", "6", "7", "8", "10")

TIMINGS = {}


@pytest.fixture(scope="module", autouse=True)
def printed_values(request):
    """The golden values, with OpenBLAS pinned before any fixture runs."""
    with golden_file(request.config, GOLDEN, "criteria", PINNED_CRITERIA) as (values, mismatch):
        if mismatch:
            warnings.warn(f"{GOLDEN.name} {mismatch}; printed values not compared")
        yield values


def report(criterion, ok, detail):
    print(f"\nACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {criterion}: {detail}"


def _timed(key, thunk):
    start = time.perf_counter()
    value = thunk()
    TIMINGS[key] = time.perf_counter() - start
    return value


@pytest.fixture(scope="module")
def baseline_2task():
    return _timed("baseline_2task", lambda: run_sequence(desk_preset(num_tasks=2)))


@pytest.fixture(scope="module")
def baseline_5task():
    return _timed("baseline_5task", lambda: run_sequence(desk_preset()))


def _wva_grid(kind, target):
    config = desk_preset(
        strategy=StrategyConfig(kind="wva", lam=1.0, attenuation=kind, target=target)
    )
    return grid_search(config, DESK_LAMBDA_GRID)


@pytest.fixture(scope="module")
def grid_step_hyp():
    return _timed("grid_step_hyp", lambda: _wva_grid("hyperbolic", "step"))


@pytest.fixture(scope="module")
def grid_step_exp():
    return _timed("grid_step_exp", lambda: _wva_grid("exponential", "step"))


@pytest.fixture(scope="module")
def grid_grad_hyp():
    return _timed("grid_grad_hyp", lambda: _wva_grid("hyperbolic", "gradient"))


def _best_avg(surface, t=4):
    return float(np.nanmax(surface.avg_accuracy[:, t]))


def test_criterion_01_gradient_correctness(printed_values):
    start = time.perf_counter()
    worst = 0.0
    for seed in range(5):
        params = init_params(stream(seed, 0), (4, 4, 3), dtype=np.float64)
        images = stream(seed, 1).uniform(0.0, 1.0, (6, 4))
        labels = stream(seed, 2).permutation(6) % 3
        worst = max(worst, max_relative_gradient_error(params, images, labels))
    elapsed = time.perf_counter() - start
    report(
        1,
        worst < 1e-6 and elapsed < 5.0,
        f"max relative gradient error {worst:.2e} over 5 seeded 4-4-3 nets "
        f"in {elapsed:.2f}s",
    )
    printed_values.check(1, max_relative_gradient_error=worst)


def test_criterion_02_sgd_target_equivalence(printed_values):
    config = desk_preset(
        num_tasks=2,
        epochs_per_task=2,
        optimizer=OptimizerConfig(kind="sgd"),
        strategy=StrategyConfig(kind="wva", lam=31.6, attenuation="hyperbolic"),
    )
    ok, detail = sgd_target_equivalence(config)
    report(2, ok, detail)
    printed_values.check(2, bit_identical=ok)


def test_criterion_03_closed_forms():
    params = init_params(stream(77), (5, 4, 3))
    omega = params.copy()
    for block in omega.weights + omega.biases:
        np.abs(block, out=block)
    value, grad = ewc_penalty(params, params.copy(), omega, 3.0)
    zero_grad = np.array_equal(grad.flat, np.zeros_like(grad.flat))
    alphas = np.array([0.1, 1.0, 7.5])
    sc_bound = all(
        safe_coefficient(big, a, l) <= 1.0 / (a * l) + 1e-12
        for big in (1.0, 1e6, 1e18)
        for a in alphas
        for l in (0.5, 2.0)
    )
    attenuation_ok, attenuation_detail = attenuation_closed_forms()
    checks = {
        f"attenuation ({attenuation_detail})": attenuation_ok,
        "penalty value 0 at anchor": abs(value) < 1e-12,
        "penalty gradient 0 at anchor": zero_grad,
        "safe coefficient bounded by 1/(alpha*lam)": sc_bound,
    }
    failed = [name for name, ok in checks.items() if not ok]
    report(3, not failed, "all closed forms exact to 1e-12" if not failed else f"failed: {failed}")


def test_criterion_04_catastrophic_forgetting(printed_values, baseline_2task):
    acc = baseline_2task.matrix.accuracies
    margin = float(acc[0, 0] - acc[1, 0])
    elapsed = TIMINGS["baseline_2task"]
    report(
        4,
        margin >= FORGETTING_MARGIN and elapsed < 120.0,
        f"task-0 accuracy fell {margin:.4f} (committed floor {FORGETTING_MARGIN}) "
        f"after task 1; acc[0,0]={acc[0, 0]:.4f}, acc[1,0]={acc[1, 0]:.4f}; "
        f"{elapsed:.1f}s",
    )
    printed_values.check(
        4, task0_drop=margin, acc_0_0=float(acc[0, 0]), acc_1_0=float(acc[1, 0])
    )


def test_criterion_05_step_target_protection(
    printed_values, baseline_5task, grid_step_hyp, grid_grad_hyp
):
    base_avg = average_accuracy(baseline_5task.matrix, 4)
    step_avg = _best_avg(grid_step_hyp)
    grad_avg = _best_avg(grid_grad_hyp)
    elapsed = (
        TIMINGS["baseline_5task"] + TIMINGS["grid_step_hyp"] + TIMINGS["grid_grad_hyp"]
    )
    ok = step_avg >= base_avg + PROTECTION_MARGIN and step_avg > grad_avg
    report(
        5,
        ok and elapsed < 900.0,
        f"step-target best avg {step_avg:.4f} vs baseline {base_avg:.4f} "
        f"(committed margin {PROTECTION_MARGIN}) and gradient-target best "
        f"{grad_avg:.4f}; {elapsed:.0f}s",
    )
    printed_values.check(
        5, step_best_avg=step_avg, baseline_avg=base_avg, gradient_best_avg=grad_avg
    )


def test_criterion_06_attenuation_parity(printed_values, grid_step_hyp, grid_step_exp):
    hyp = _best_avg(grid_step_hyp)
    exp = _best_avg(grid_step_exp)
    gap = abs(hyp - exp)
    report(
        6,
        gap <= PARITY_TOLERANCE,
        f"hyperbolic best {hyp:.4f} vs exponential best {exp:.4f}; "
        f"gap {gap:.4f} <= {PARITY_TOLERANCE}",
    )
    printed_values.check(6, hyperbolic_best_avg=hyp, exponential_best_avg=exp)


def test_criterion_07_off_optimum_degradation(printed_values, grid_step_hyp, grid_step_exp):
    avgs = {}
    for kind, surface in (("hyperbolic", grid_step_hyp), ("exponential", grid_step_exp)):
        lam = 100.0 * surface.argmax_lambda(4)
        config = desk_preset(
            strategy=StrategyConfig(kind="wva", lam=lam, attenuation=kind, target="step")
        )
        avgs[kind] = (lam, average_accuracy(run_sequence(config).matrix, 4))
    ok = avgs["exponential"][1] < avgs["hyperbolic"][1]
    report(
        7,
        ok,
        f"at 100x optimal: exponential {avgs['exponential'][1]:.4f} "
        f"(lambda {avgs['exponential'][0]:g}) < hyperbolic "
        f"{avgs['hyperbolic'][1]:.4f} (lambda {avgs['hyperbolic'][0]:g})",
    )
    printed_values.check(
        7,
        hyperbolic_lambda=avgs["hyperbolic"][0],
        hyperbolic_avg=avgs["hyperbolic"][1],
        exponential_lambda=avgs["exponential"][0],
        exponential_avg=avgs["exponential"][1],
    )


def test_criterion_08_lambda_stability(printed_values, grid_step_hyp, grid_step_exp):
    details = []
    argmax = {}
    worst_spread = 0
    for kind, surface in (("hyperbolic", grid_step_hyp), ("exponential", grid_step_exp)):
        positions = [
            int(np.nanargmax(surface.avg_accuracy[:, t])) for t in range(1, 5)
        ]
        spread = max(positions) - min(positions)
        worst_spread = max(worst_spread, spread)
        details.append(f"{kind} argmax positions {positions}")
        argmax[f"{kind}_argmax_positions"] = positions
    report(
        8,
        worst_spread <= 1,
        "; ".join(details) + f"; max spread {worst_spread} grid step(s)",
    )
    printed_values.check(8, **argmax)


def test_criterion_09_byte_identical_csv(tmp_path, baseline_2task):
    config = desk_preset(num_tasks=2)
    repeat = run_sequence(config)
    path_a = emit_csv(baseline_2task.matrix, str(tmp_path / "a.csv"), baseline_2task.config)
    path_b = emit_csv(repeat.matrix, str(tmp_path / "b.csv"), repeat.config)
    same = open(path_a, "rb").read() == open(path_b, "rb").read()
    report(9, same, "independent same-seed runs emit byte-identical eval CSVs")


def test_criterion_10_scalar_adam_oracle(printed_values):
    reference = ScalarAdam(lr=0.001, beta1=0.9, beta2=0.999, epsilon=1e-8)
    params = init_params(stream(1234), (1, 1), dtype=np.float64)
    params.weights[0][0, 0] = 0.5
    params.biases[0][0] = 0.0
    state = adam()
    gradients = [0.3, -0.2, 0.05, 0.4, -0.1]
    theta_ref = 0.5
    worst = 0.0
    for g in gradients:
        theta_ref += reference.step(g)
        grads = params.zeros_like()
        grads.weights[0][0, 0] = g
        step_parts(state, grads)  # writes the step over grads; Adam's scale is 1.0
        params = params.copy()
        params.weights[0][0, 0] += grads.weights[0][0, 0]
        worst = max(worst, abs(params.weights[0][0, 0] - theta_ref))
    report(
        10,
        worst < 1e-12,
        f"5-step scalar trajectory matches independent reference; "
        f"max |difference| {worst:.2e}",
    )
    printed_values.check(10, max_difference=float(worst))
