"""CSV and SVG artifacts for runs and lambda surfaces.

CSV files open with '#'-prefixed manifest lines (git version, numeric
environment, config echo including the seed) followed by a header row
and data rows. Floats are written with ``repr`` so parsing them back is
exact and repeated runs produce byte-identical files. The SVG charts are
static hand-written XML: line charts of per-task accuracy over the
sequence, and a heatmap of the lambda surface.
"""

from __future__ import annotations

import csv
import dataclasses
import math
import os
import subprocess
from typing import Optional

import numpy as np

from . import __version__
from .fileio import atomic_write
from .harness import EvalMatrix, ExperimentConfig, LambdaSurface, RunResult
from .numerics import numeric_environment

CURVE_COLORS = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e",
                "#8c564b", "#e377c2", "#7f7f7f", "#bcbd22", "#17becf")


def git_version() -> str:
    """Best-effort `git describe` of the working tree; "unknown" off-repo."""
    try:
        out = subprocess.run(
            ["git", "describe", "--always", "--dirty"],
            capture_output=True,
            text=True,
            timeout=10,
        )
    except OSError:
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def _flatten_config(config: ExperimentConfig) -> list[tuple[str, str]]:
    def walk(prefix, mapping):
        for key in sorted(mapping):
            value = mapping[key]
            if isinstance(value, dict):
                yield from walk(f"{prefix}{key}.", value)
            else:
                yield f"{prefix}{key}", repr(value)

    return list(walk("", dataclasses.asdict(config)))


def manifest_lines(config: Optional[ExperimentConfig]) -> list[str]:
    lines = [f"# forgetlab {__version__}", f"# git = {git_version()}"]
    lines.extend(f"# numeric.{k} = {v!r}" for k, v in numeric_environment().items())
    if config is not None:
        lines.extend(f"# {key} = {value}" for key, value in _flatten_config(config))
    return lines


EVAL_MATRIX_HEADER = ("after_task", "eval_task", "accuracy", "n_samples")
SURFACE_HEADER = ("lambda", "tasks_learned", "avg_accuracy")


def _write_csv(path, config, header, rows, comments=()) -> str:
    """Manifest, header, data rows, then trailing comment lines."""
    with atomic_write(path, newline="") as fh:
        for line in manifest_lines(config):
            fh.write(line + "\n")
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)
        for comment in comments:
            fh.write(f"# {comment}\n")
    return path


def emit_eval_matrix_csv(
    matrix: EvalMatrix, path: str, config: Optional[ExperimentConfig] = None
) -> str:
    """Write the lower triangle as `after_task,eval_task,accuracy,n_samples`."""
    rows = (
        [t, j, repr(float(matrix.accuracies[t, j])), int(matrix.n_samples[t, j])]
        for t in range(matrix.num_tasks)
        for j in range(t + 1)
    )
    return _write_csv(path, config, EVAL_MATRIX_HEADER, rows)


def emit_surface_csv(
    surface: LambdaSurface, path: str, config: Optional[ExperimentConfig] = None
) -> str:
    """Write the full grid as `lambda,tasks_learned,avg_accuracy`.

    Failed cells keep their place with accuracy `nan`; the failure
    messages ride along as trailing comment lines.
    """
    rows = (
        [repr(float(lam)), int(t), repr(float(surface.avg_accuracy[i, k]))]
        for i, lam in enumerate(surface.lambdas)
        for k, t in enumerate(surface.tasks_learned)
    )
    comments = (f"failed lambda={lam!r}: {message}" for lam, message in surface.failures)
    return _write_csv(path, config, SURFACE_HEADER, rows, comments)


def _eval_matrix(rows: list[list[str]]) -> EvalMatrix:
    size = max(int(row[0]) for row in rows) + 1
    acc = np.full((size, size), np.nan)
    counts = np.zeros((size, size), dtype=np.int64)
    for after, evalt, value, n in rows:
        acc[int(after), int(evalt)] = float(value)
        counts[int(after), int(evalt)] = int(n)
    return EvalMatrix(accuracies=acc, n_samples=counts)


def _surface(rows: list[list[str]]) -> LambdaSurface:
    lambdas = sorted({float(row[0]) for row in rows})
    tasks = sorted({int(row[1]) for row in rows})
    avg = np.full((len(lambdas), len(tasks)), np.nan)
    for lam, t, value in rows:
        avg[lambdas.index(float(lam)), tasks.index(int(t))] = float(value)
    return LambdaSurface(np.asarray(lambdas), np.asarray(tasks), avg)


_PARSERS = {EVAL_MATRIX_HEADER: _eval_matrix, SURFACE_HEADER: _surface}


def read_report_csv(path: str):
    """The eval matrix or lambda surface in a CSV, recognised by its header.

    '#' lines and blank lines are skipped.
    """
    with open(path, newline="") as fh:
        reader = csv.reader(line for line in fh if line.strip() and not line.startswith("#"))
        header, rows = tuple(next(reader, ())), list(reader)
    if header not in _PARSERS:
        raise ValueError(f"{path}: unrecognized CSV header {','.join(header)!r}")
    if not rows:
        raise ValueError(f"{path}: no data rows")
    return _PARSERS[header](rows)


def _svg_header(width, height, title):
    return [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<text x="{width / 2}" y="20" text-anchor="middle" font-size="14" '
        f'font-family="sans-serif">{title}</text>',
    ]


def render_accuracy_curves(matrix: EvalMatrix, path: str) -> str:
    """Line chart: one polyline per task, accuracy vs tasks trained."""
    width, height = 640, 420
    left, right, top, bottom = 60, 150, 40, 40
    plot_w, plot_h = width - left - right, height - top - bottom
    t_count = matrix.num_tasks
    span = max(t_count - 1, 1)

    def sx(t):
        return left + t / span * plot_w

    def sy(acc):
        return top + (1.0 - acc) * plot_h

    parts = _svg_header(width, height, "Accuracy per task across the sequence")
    parts.append(
        f'<line x1="{left}" y1="{top}" x2="{left}" y2="{top + plot_h}" stroke="black"/>'
    )
    parts.append(
        f'<line x1="{left}" y1="{top + plot_h}" x2="{left + plot_w}" '
        f'y2="{top + plot_h}" stroke="black"/>'
    )
    for tick in (0.0, 0.25, 0.5, 0.75, 1.0):
        y = sy(tick)
        parts.append(
            f'<text x="{left - 8}" y="{y + 4}" text-anchor="end" font-size="11" '
            f'font-family="sans-serif">{tick:g}</text>'
        )
        parts.append(
            f'<line x1="{left - 4}" y1="{y}" x2="{left}" y2="{y}" stroke="black"/>'
        )
    for t in range(t_count):
        x = sx(t)
        parts.append(
            f'<text x="{x}" y="{top + plot_h + 16}" text-anchor="middle" '
            f'font-size="11" font-family="sans-serif">{t}</text>'
        )
    parts.append(
        f'<text x="{left + plot_w / 2}" y="{height - 8}" text-anchor="middle" '
        f'font-size="12" font-family="sans-serif">tasks trained</text>'
    )
    for j in range(t_count):
        color = CURVE_COLORS[j % len(CURVE_COLORS)]
        points = " ".join(
            f"{sx(t):.2f},{sy(matrix.accuracies[t, j]):.2f}"
            for t in range(j, t_count)
            if not math.isnan(matrix.accuracies[t, j])
        )
        parts.append(
            f'<polyline points="{points}" fill="none" stroke="{color}" stroke-width="1.5"/>'
        )
        ly = top + 14 * j
        parts.append(
            f'<rect x="{left + plot_w + 12}" y="{ly}" width="10" height="10" fill="{color}"/>'
        )
        parts.append(
            f'<text x="{left + plot_w + 27}" y="{ly + 9}" font-size="11" '
            f'font-family="sans-serif">task {j}</text>'
        )
    parts.append("</svg>")
    with atomic_write(path, newline="") as fh:
        fh.write("\n".join(parts) + "\n")
    return path


def _heat_color(value, lo, hi):
    if math.isnan(value):
        return "#cccccc"
    unit = 0.0 if hi <= lo else (value - lo) / (hi - lo)
    r = int(round(40 + unit * (253 - 40)))
    g = int(round(53 + unit * (231 - 53)))
    b = int(round(140 + unit * (37 - 140)))
    return f"rgb({r},{g},{b})"


def render_surface_heatmap(surface: LambdaSurface, path: str) -> str:
    """Heatmap of average accuracy per (lambda, tasks learned); NaN is gray."""
    n_lam = len(surface.lambdas)
    n_tasks = len(surface.tasks_learned)
    cell = 36
    left, top = 90, 50
    width = left + n_tasks * cell + 120
    height = top + n_lam * cell + 60
    finite = surface.avg_accuracy[np.isfinite(surface.avg_accuracy)]
    lo = float(finite.min()) if finite.size else 0.0
    hi = float(finite.max()) if finite.size else 1.0
    parts = _svg_header(width, height, "Average accuracy over the lambda grid")
    for i in range(n_lam):
        for k in range(n_tasks):
            x, y = left + k * cell, top + i * cell
            color = _heat_color(float(surface.avg_accuracy[i, k]), lo, hi)
            parts.append(
                f'<rect class="cell" x="{x}" y="{y}" width="{cell}" height="{cell}" '
                f'fill="{color}" stroke="white"/>'
            )
    for i, lam in enumerate(surface.lambdas):
        parts.append(
            f'<text x="{left - 6}" y="{top + i * cell + cell / 2 + 4}" text-anchor="end" '
            f'font-size="11" font-family="sans-serif">{float(lam):g}</text>'
        )
    for k, t in enumerate(surface.tasks_learned):
        parts.append(
            f'<text x="{left + k * cell + cell / 2}" y="{top - 6}" text-anchor="middle" '
            f'font-size="11" font-family="sans-serif">{int(t)}</text>'
        )
    parts.append(
        f'<text x="{left - 70}" y="{top + n_lam * cell / 2}" font-size="12" '
        f'font-family="sans-serif">lambda</text>'
    )
    parts.append(
        f'<text x="{left + n_tasks * cell / 2}" y="{top - 28}" text-anchor="middle" '
        f'font-size="12" font-family="sans-serif">tasks learned</text>'
    )
    legend_x = left + n_tasks * cell + 20
    for step in range(11):
        value = lo + (hi - lo) * step / 10
        parts.append(
            f'<rect x="{legend_x}" y="{top + (10 - step) * 12}" width="14" height="12" '
            f'fill="{_heat_color(value, lo, hi)}"/>'
        )
    parts.append(
        f'<text x="{legend_x + 18}" y="{top + 130}" font-size="10" '
        f'font-family="sans-serif">{lo:.3f}</text>'
    )
    parts.append(
        f'<text x="{legend_x + 18}" y="{top + 10}" font-size="10" '
        f'font-family="sans-serif">{hi:.3f}</text>'
    )
    parts.append("</svg>")
    with atomic_write(path, newline="") as fh:
        fh.write("\n".join(parts) + "\n")
    return path


def render_svg(result, path: str) -> str:
    """Accuracy curves for an eval matrix, a heatmap for a lambda surface."""
    if isinstance(result, EvalMatrix):
        return render_accuracy_curves(result, path)
    if isinstance(result, LambdaSurface):
        return render_surface_heatmap(result, path)
    raise TypeError(f"cannot render {type(result).__name__}")


def emit_reports(result, outdir: str) -> list[str]:
    """Write the CSV plus SVG pair for a run result or a lambda surface."""
    os.makedirs(outdir, exist_ok=True)
    if isinstance(result, RunResult):
        return [
            emit_eval_matrix_csv(
                result.matrix, os.path.join(outdir, "eval_matrix.csv"), result.config
            ),
            render_accuracy_curves(result.matrix, os.path.join(outdir, "accuracy_curves.svg")),
        ]
    if isinstance(result, LambdaSurface):
        return [
            emit_surface_csv(result, os.path.join(outdir, "surface.csv"), result.config),
            render_surface_heatmap(result, os.path.join(outdir, "surface_heatmap.svg")),
        ]
    raise TypeError(f"cannot report on {type(result).__name__}")
