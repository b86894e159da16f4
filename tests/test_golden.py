"""Golden trajectories: small desk runs must reproduce committed bytes.

Each case trains a 3-task desk run and compares its eval-matrix CSV data
rows and a SHA-256 of its final parameters (weights then biases, layer
by layer) against ``golden/equivalence.json``. A refactor that claims to
keep the arithmetic must pass these unchanged.

Matrix products round differently under another numpy or BLAS build, so
the golden file records the environment it was blessed on
(``forgetlab.numerics.numeric_environment`` plus the machine) and the
test skips elsewhere. They also round differently with another OpenBLAS
thread count, so the stamp records the blessed count and the test pins
OpenBLAS to it while it runs (restoring the caller's count afterwards);
it therefore passes under any ``OPENBLAS_NUM_THREADS``. To re-bless
both golden files after an intended numerical change, or on a new BLAS,
run from the repository root:

    PYTHONPATH=src python -m pytest tests/test_golden.py tests/test_acceptance.py --bless -q -s
"""

from __future__ import annotations

import dataclasses
import hashlib
import tempfile
from pathlib import Path

import numpy as np
import pytest

from forgetlab.continual import StrategyConfig
from forgetlab.harness import OptimizerConfig, build_tasks, desk_preset, run_sequence
from forgetlab.reports import emit_csv

from helpers import BLESS_COMMAND, golden_file

GOLDEN = Path(__file__).with_name("golden") / "equivalence.json"

ADAM = OptimizerConfig(kind="adam")
CASES = {
    "none-adam": (StrategyConfig(), ADAM),
    "wva-step-adam": (StrategyConfig(kind="wva", lam=31.6, target="step"), ADAM),
    "wva-gradient-adam": (StrategyConfig(kind="wva", lam=31.6, target="gradient"), ADAM),
    "wva-exponential-gradient-sgd": (
        StrategyConfig(kind="wva", lam=3.16, attenuation="exponential", target="gradient"),
        OptimizerConfig(kind="sgd"),
    ),
    "ewc-fisher-decay-adam": (
        StrategyConfig(kind="ewc", lam=10.0, estimator="fisher", online_decay=0.9),
        ADAM,
    ),
    "ewc-multi-anchor-adam": (
        StrategyConfig(kind="ewc_multi_anchor", lam=10.0, estimator="fisher"),
        ADAM,
    ),
    "ewc-multi-anchor-safe-clip-adam": (
        StrategyConfig(
            kind="ewc_multi_anchor",
            lam=10.0,
            estimator="fisher",
            safe_coefficient=True,
            separate_clip_threshold=1.0,
        ),
        ADAM,
    ),
}


def base_config():
    return desk_preset(num_tasks=3, train_subset=3000, eval_subset=1000)


def fingerprint(result) -> dict:
    with tempfile.TemporaryDirectory() as tmp:
        path = emit_csv(result.matrix, str(Path(tmp) / "eval_matrix.csv"), result.config)
        with open(path) as fh:
            rows = [line for line in fh if not line.startswith("#")][1:]
    digest = hashlib.sha256()
    for block in list(result.params.weights) + list(result.params.biases):
        digest.update(np.ascontiguousarray(block, dtype=np.float64).tobytes())
    return {"eval_rows": rows, "params_sha256": digest.hexdigest()}


def run_case(name: str, tasks) -> dict:
    strategy, optimizer = CASES[name]
    config = dataclasses.replace(base_config(), strategy=strategy, optimizer=optimizer)
    return fingerprint(run_sequence(config, tasks=tasks))


@pytest.fixture(scope="module")
def golden(request):
    """The golden cases, with OpenBLAS pinned to their blessed thread count."""
    with golden_file(request.config, GOLDEN, "cases", sorted(CASES)) as (values, mismatch):
        if mismatch:
            pytest.skip(f"golden file {mismatch}; re-bless with: {BLESS_COMMAND}")
        yield values


@pytest.fixture(scope="module")
def tasks():
    return build_tasks(base_config())


def test_golden_covers_every_case(golden):
    # under --bless nothing is stored yet, and the rewrite covers every case
    assert golden.stored is None or sorted(golden.stored) == sorted(CASES)


@pytest.mark.parametrize("name", sorted(CASES))
def test_trajectory_matches_golden(golden, tasks, name):
    golden.check(name, **run_case(name, tasks))
