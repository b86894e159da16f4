"""CSV round-trips and SVG well-formedness for the report writers."""

import hashlib
import os
import re
import shutil
import subprocess
import xml.etree.ElementTree as ET
from pathlib import Path

import numpy as np
import pytest

from forgetlab import reports
from forgetlab.harness import (
    EvalMatrix,
    ExperimentConfig,
    LambdaSurface,
    RunResult,
    desk_preset,
)
from forgetlab.model import init_params
from forgetlab.numerics import numeric_environment, stream
from forgetlab.reports import (
    emit_csv,
    emit_reports,
    git_version,
    manifest_lines,
    read_report_csv,
    render_accuracy_curves,
    render_surface_heatmap,
)

REPO_ROOT = Path(__file__).resolve().parents[1]


# the config a CSV's manifest echoes where a test needs none in particular
CONFIG = ExperimentConfig(num_tasks=2, architecture=(6, 5, 3))


def small_matrix():
    acc = np.full((2, 2), np.nan)
    acc[0, 0] = 0.9
    acc[1, 0] = 1.0 / 3.0
    acc[1, 1] = 0.875
    n = np.zeros((2, 2), dtype=np.int64)
    n[0, 0] = n[1, 0] = n[1, 1] = 200
    return EvalMatrix(accuracies=acc, n_samples=n)


def small_surface():
    return LambdaSurface(
        lambdas=np.array([0.1, 1.0, 10.0]),
        tasks_learned=np.array([1, 2]),
        avg_accuracy=np.array([[0.8, 0.7], [0.85, 0.75], [np.nan, np.nan]]),
        failures=[(10.0, "NonFiniteError: boom")],
        config=CONFIG,
    )


def test_matrix_csv_has_three_data_rows_for_two_tasks(tmp_path):
    path = emit_csv(small_matrix(), str(tmp_path / "m.csv"), CONFIG)
    lines = [
        line
        for line in open(path).read().splitlines()
        if line and not line.startswith("#")
    ]
    assert lines[0] == "after_task,eval_task,accuracy,n_samples"
    assert len(lines) == 1 + 3


def test_matrix_csv_round_trips_exactly(tmp_path):
    matrix = small_matrix()
    path = emit_csv(matrix, str(tmp_path / "m.csv"), CONFIG)
    back = read_report_csv(path)
    assert isinstance(back, EvalMatrix)
    # repr-formatted floats parse back to the identical doubles, and the
    # unevaluated upper triangle comes back as NaN.
    assert np.array_equal(back.accuracies, matrix.accuracies, equal_nan=True)
    assert np.array_equal(back.n_samples, matrix.n_samples)


def test_matrix_csv_manifest_mentions_seed_and_version(tmp_path):
    config = desk_preset(num_tasks=2, seed=99)
    path = emit_csv(small_matrix(), str(tmp_path / "m.csv"), config)
    text = open(path).read()
    assert "# seed = 99" in text
    assert text.startswith("# forgetlab")
    assert "# git = " in text


def test_matrix_csv_rejects_foreign_header(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("a,b\n1,2\n")
    with pytest.raises(ValueError, match="unrecognized CSV header 'a,b'"):
        read_report_csv(str(path))


def test_matrix_csv_rejects_empty_body(tmp_path):
    path = tmp_path / "empty.csv"
    path.write_text("after_task,eval_task,accuracy,n_samples\n")
    with pytest.raises(ValueError, match="no data rows"):
        read_report_csv(str(path))


@pytest.mark.parametrize(
    "rows",
    [
        ["1.0,1,0.5", "1.0,1,0.6"],  # a duplicate cell
        ["1.0,1,0.5", "1.0,2,0.5", "10.0,1,0.5"],  # a missing cell
        ["10.0,1,0.5", "1.0,1,0.5"],  # lambdas out of the writer's order
        ["1.0,x,0.5"],  # not a number
    ],
    ids=["duplicate", "missing", "order", "not-a-number"],
)
def test_surface_csv_rejects_rows_the_writer_never_emits(tmp_path, rows):
    path = tmp_path / "s.csv"
    path.write_text("\n".join(["lambda,tasks_learned,avg_accuracy", *rows]) + "\n")
    with pytest.raises(ValueError, match=re.escape(str(path))):
        read_report_csv(str(path))


def test_surface_csv_round_trips_with_nan_gaps(tmp_path):
    surface = small_surface()
    path = emit_csv(surface, str(tmp_path / "s.csv"), CONFIG)
    back = read_report_csv(path)
    assert isinstance(back, LambdaSurface)
    assert np.array_equal(back.lambdas, surface.lambdas)
    assert np.array_equal(back.tasks_learned, surface.tasks_learned)
    assert np.array_equal(back.avg_accuracy, surface.avg_accuracy, equal_nan=True)
    assert back.matrices is None


def test_surface_csv_records_failures_as_comments(tmp_path):
    path = emit_csv(small_surface(), str(tmp_path / "s.csv"), CONFIG)
    text = open(path).read()
    assert "# failed lambda=10.0: NonFiniteError: boom" in text


def test_identical_emits_are_byte_identical(tmp_path):
    config = desk_preset(num_tasks=2)
    first = emit_csv(small_matrix(), str(tmp_path / "a.csv"), config)
    second = emit_csv(small_matrix(), str(tmp_path / "b.csv"), config)
    assert open(first, "rb").read() == open(second, "rb").read()


def test_curves_svg_is_xml_with_one_polyline_per_task(tmp_path):
    acc = np.full((4, 4), np.nan)
    for t in range(4):
        acc[t, : t + 1] = np.linspace(0.9, 0.5, t + 1)
    matrix = EvalMatrix(accuracies=acc, n_samples=np.full((4, 4), 100, dtype=np.int64))
    path = render_accuracy_curves(matrix, str(tmp_path / "curves.svg"))
    root = ET.parse(path).getroot()
    assert root.tag.endswith("svg")
    polylines = root.findall(".//{http://www.w3.org/2000/svg}polyline")
    assert len(polylines) == 4


def test_heatmap_svg_has_one_cell_per_grid_point(tmp_path):
    surface = small_surface()
    path = render_surface_heatmap(surface, str(tmp_path / "heat.svg"))
    root = ET.parse(path).getroot()
    cells = [
        r
        for r in root.findall(".//{http://www.w3.org/2000/svg}rect")
        if r.get("class") == "cell"
    ]
    assert len(cells) == 3 * 2


def test_svgs_contain_no_scripts(tmp_path):
    matrix = small_matrix()
    curve_path = render_accuracy_curves(matrix, str(tmp_path / "c.svg"))
    heat_path = render_surface_heatmap(small_surface(), str(tmp_path / "h.svg"))
    for path in (curve_path, heat_path):
        text = open(path).read()
        assert "<script" not in text
        assert "onload" not in text


def test_write_error_names_the_path(tmp_path):
    missing = tmp_path / "does-not-exist" / "m.csv"
    with pytest.raises(IOError, match="does-not-exist"):
        emit_csv(small_matrix(), str(missing), CONFIG)


def test_emit_reports_dispatches_on_type(tmp_path):
    config = ExperimentConfig(
        num_tasks=2,
        architecture=(6, 5, 3),
        synthetic_samples_per_class=10,
    )
    result = RunResult(
        matrix=small_matrix(),
        params=init_params(stream(0), (6, 5, 3)),
        config=config,
    )
    run_files = emit_reports(result, str(tmp_path / "run"))
    assert sorted(p.rsplit("/", 1)[1] for p in run_files) == [
        "accuracy_curves.svg",
        "eval_matrix.csv",
    ]
    surf_files = emit_reports(small_surface(), str(tmp_path / "surf"))
    assert sorted(p.rsplit("/", 1)[1] for p in surf_files) == [
        "surface.csv",
        "surface_heatmap.svg",
    ]
    with pytest.raises(TypeError, match="cannot report"):
        emit_reports([1, 2, 3], str(tmp_path / "nope"))


def test_emit_csv_names_an_unknown_type(tmp_path):
    # emit_reports writes a run result through its matrix; emit_csv takes only the matrix
    run = RunResult(small_matrix(), init_params(stream(0), (6, 5, 3)), CONFIG)
    path = tmp_path / "nope.csv"
    with pytest.raises(TypeError, match="^cannot report on RunResult$"):
        emit_csv(run, str(path), CONFIG)
    assert not path.exists()


@pytest.mark.parametrize("kind", ["matrix", "surface"])
def test_emit_reports_names_a_result_read_back_without_its_config(tmp_path, kind):
    written = {"matrix": small_matrix, "surface": small_surface}[kind]()
    back = read_report_csv(emit_csv(written, str(tmp_path / "in.csv"), CONFIG))
    name = type(back).__name__
    with pytest.raises(TypeError, match=f"^cannot report on {name} without its config$"):
        emit_reports(back, str(tmp_path / "out"))
    assert not list((tmp_path / "out").glob("*"))


@pytest.mark.parametrize("bad", [b"\x00", b"\xff"], ids=["nul-byte", "not-utf8"])
def test_unreadable_csv_names_the_path(tmp_path, bad):
    path = tmp_path / "bad.csv"
    path.write_bytes(b"after_task,eval_task,accuracy,n_samples\n0,0,0.9" + bad + b",10\n")
    with pytest.raises(ValueError, match=re.escape(str(path))):
        read_report_csv(str(path))


def test_surface_csv_carries_the_run_manifest(tmp_path):
    config = desk_preset(seed=5)
    run = RunResult(
        matrix=small_matrix(),
        params=init_params(stream(0), (6, 5, 3)),
        config=config,
    )
    surface = small_surface()
    surface.failures = []
    surface.config = config

    def manifest(path):
        return [line for line in open(path) if line.startswith("#")]

    run_csv = emit_reports(run, str(tmp_path / "run"))[0]
    surface_csv = emit_reports(surface, str(tmp_path / "surf"))[0]
    assert manifest(surface_csv) == manifest(run_csv)
    assert "# seed = 5\n" in manifest(surface_csv)


def test_git_version_returns_some_string():
    version = git_version()
    assert isinstance(version, str)
    assert version


def test_git_version_survives_a_hung_git(tmp_path, monkeypatch):
    # a checkout with a .git, so git_version reaches subprocess.run wherever the tests run
    (tmp_path / ".git").mkdir()
    monkeypatch.setattr(reports, "__file__", str(tmp_path / "src" / "forgetlab" / "reports.py"))
    calls = []

    def hang(cmd, **kwargs):
        calls.append(cmd)
        raise subprocess.TimeoutExpired(cmd, kwargs["timeout"])

    monkeypatch.setattr(reports.subprocess, "run", hang)
    assert git_version() == "unknown"
    assert "# git = unknown" in manifest_lines(desk_preset())
    assert len(calls) == 2


@pytest.mark.skipif(shutil.which("git") is None, reason="needs the git executable")
def test_git_version_names_the_package_checkout_not_the_working_directory(
    tmp_path, monkeypatch
):
    monkeypatch.chdir(REPO_ROOT)
    ours = git_version()
    other = tmp_path / "other"
    other.mkdir()
    subprocess.run(["git", "init", "-q"], cwd=other, check=True)
    subprocess.run(
        ["git", "-c", "user.name=t", "-c", "user.email=t", "-c", "commit.gpgsign=false"]
        + ["commit", "-q", "--allow-empty", "-m", "x"],
        cwd=other,
        check=True,
    )
    theirs = subprocess.run(
        ["git", "describe", "--always", "--dirty"], cwd=other, capture_output=True, text=True
    ).stdout.strip()
    monkeypatch.chdir(other)
    assert git_version() == ours != theirs


def test_manifest_flattens_nested_config():
    config = desk_preset(seed=5)
    lines = manifest_lines(config)
    joined = "\n".join(lines)
    assert "# [optimizer]\n# kind = adam\n" in joined
    assert "# [strategy]\n# kind = none\n# lambda = 0.0\n" in joined


def test_manifest_records_the_numeric_environment():
    lines = manifest_lines(CONFIG)
    for key, value in numeric_environment().items():
        assert f"# numeric.{key} = {value!r}" in lines


def pinned_run():
    acc = np.full((3, 3), np.nan)
    acc[0, 0] = 0.9375
    acc[1, :2] = [0.8125, 0.90625]
    acc[2, :] = [0.6875, 0.78125, 0.953125]
    n = np.where(np.isnan(acc), 0, 160).astype(np.int64)
    config = ExperimentConfig(num_tasks=3, architecture=(6, 5, 3))
    return RunResult(
        matrix=EvalMatrix(accuracies=acc, n_samples=n),
        params=init_params(stream(0), (6, 5, 3)),
        config=config,
    )


def pinned_surface():
    return LambdaSurface(
        lambdas=np.array([1.0, 10.0, 100.0]),
        tasks_learned=np.array([1, 2, 3]),
        avg_accuracy=np.array(
            [[0.9, 0.75, 0.6], [0.875, 0.8, np.nan], [0.85, 0.7, 2.0 / 3.0]]
        ),
        failures=[(10.0, "NonFiniteError: diverged after task 2")],
        config=ExperimentConfig(num_tasks=3, architecture=(6, 5, 3)),
    )


# SHA-256 of each artifact as written before the SVG and CSV writers were
# folded into shared templates. A CSV is hashed from its header row on, so
# the manifest (git version, numeric environment) stays out of the digest.
PINNED_DIGESTS = {
    "eval_matrix.csv": "67259424bbcc96f80ba93c7538922fac00a0e60095e46fd085766b1c68859f9b",
    "accuracy_curves.svg": "d1d0b6cefef20b117aab278bfe077dd35577047e4ddcdeb49796185262580d37",
    "surface.csv": "51d7d3f2e62298068579a44d9d86c20a172edb6657bb602b6342442559a1158c",
    "surface_heatmap.svg": "5e8a34c5e4f846ed03c1874e79109f02c24f163321bbf1abc2eb706fa09f60b2",
}


@pytest.mark.parametrize("result", [pinned_run, pinned_surface])
def test_artifact_bytes_are_pinned(tmp_path, result):
    for path in emit_reports(result(), str(tmp_path)):
        raw = open(path, "rb").read()
        if path.endswith(".csv"):
            lines = raw.splitlines(keepends=True)
            first = next(i for i, line in enumerate(lines) if not line.startswith(b"#"))
            raw = b"".join(lines[first:])
        name = os.path.basename(path)
        assert hashlib.sha256(raw).hexdigest() == PINNED_DIGESTS[name], name
