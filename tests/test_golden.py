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
after an intended numerical change, or on a new BLAS, run from the
repository root:

    PYTHONPATH=src python tests/test_golden.py --bless
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest

from forgetlab.continual import StrategyConfig
from forgetlab.harness import OptimizerConfig, build_tasks, desk_preset, run_sequence
from forgetlab.reports import emit_eval_matrix_csv

from helpers import blessed_environment, environment_stamp

GOLDEN = Path(__file__).with_name("golden") / "equivalence.json"
BLESS_COMMAND = "PYTHONPATH=src python tests/test_golden.py --bless"

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
        path = emit_eval_matrix_csv(result.matrix, str(Path(tmp) / "eval_matrix.csv"))
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
def golden():
    """The golden file, with OpenBLAS pinned to its blessed thread count."""
    with open(GOLDEN) as fh:
        stored = json.load(fh)
    with blessed_environment(stored["environment"]) as mismatch:
        if mismatch:
            pytest.skip(f"golden file {mismatch}; re-bless with: {BLESS_COMMAND}")
        yield stored


@pytest.fixture(scope="module")
def tasks():
    return build_tasks(base_config())


def test_golden_covers_every_case(golden):
    assert sorted(golden["cases"]) == sorted(CASES)


@pytest.mark.parametrize("name", sorted(CASES))
def test_trajectory_matches_golden(golden, tasks, name):
    expected = golden["cases"][name]
    actual = run_case(name, tasks)
    assert actual["eval_rows"] == expected["eval_rows"]
    assert actual["params_sha256"] == expected["params_sha256"]


def bless():
    """Rewrite the golden file, printing whether each case's entry moved."""
    previous = {}
    if GOLDEN.exists():
        with open(GOLDEN) as fh:
            previous = json.load(fh)["cases"]
    tasks = build_tasks(base_config())
    stored = {
        "environment": environment_stamp(),
        "cases": {name: run_case(name, tasks) for name in sorted(CASES)},
    }
    for name, entry in stored["cases"].items():
        print(f"{name}: {'unchanged' if previous.get(name) == entry else 'changed'}")
    GOLDEN.parent.mkdir(exist_ok=True)
    with open(GOLDEN, "w") as fh:
        json.dump(stored, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {GOLDEN}")


if __name__ == "__main__":
    if sys.argv[1:] != ["--bless"]:
        sys.exit(f"usage: {BLESS_COMMAND}")
    bless()
