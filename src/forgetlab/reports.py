"""CSV and SVG artifacts for runs and lambda surfaces.

CSV files open with '#'-prefixed manifest lines (forgetlab's version and git
describe, the numeric environment, then the config as the INI text
``forgetlab run --config`` reads, written by ``harness.settings_lines``)
followed by a header row and data rows. :func:`manifest_lines` frames that
text and :func:`manifest_settings` takes it back out of a CSV, for
``harness.read_settings`` to read. Floats are written with ``repr`` so
parsing them back is exact and repeated runs produce byte-identical files; a CSV is
read back only if encoding what was parsed gives its data rows again. A
result read back carries no config, so no CSV is written from it. The SVG
charts are static hand-written XML, each written by one envelope and text
template: line charts of per-task accuracy over the sequence, and a lambda
heatmap.
Each report kind, an eval matrix or a lambda surface, is one record in
``_KINDS``: its CSV header, file names, row encoder, parser, chart and
trailing comments; every writer and the reader look the kind up there.
"""

from __future__ import annotations

import csv
import itertools
import math
import os
import re
import subprocess
from pathlib import Path
from typing import Callable, NamedTuple, Optional

import numpy as np

from . import __version__
from .fileio import atomic_write
from .harness import EvalMatrix, ExperimentConfig, LambdaSurface, RunResult, settings_lines
from .numerics import numeric_environment

CURVE_COLORS = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e",
                "#8c564b", "#e377c2", "#7f7f7f", "#bcbd22", "#17becf")


def git_version() -> str:
    """`git describe` of the checkout holding this package, whatever the working directory.

    "unknown" if that directory has no ``.git`` (an installed copy, even one
    inside some other repository) or git cannot be run or times out.
    """
    root = Path(__file__).resolve().parents[2]
    if not (root / ".git").exists():
        return "unknown"
    try:
        out = subprocess.run(["git", "describe", "--always", "--dirty"], cwd=root,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):  # not found, or timed out
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def manifest_lines(config: ExperimentConfig) -> list[str]:
    """A CSV's opening '#' lines: version, git, numeric environment, then
    ``config`` as the INI text ``forgetlab run --config`` reads, each line behind ``# ``."""
    lines = [f"# forgetlab {__version__}", f"# git = {git_version()}"]
    lines.extend(f"# numeric.{k} = {v!r}" for k, v in numeric_environment().items())
    return lines + [f"# {line}" for line in settings_lines(config)]


def manifest_settings(lines: list[str]) -> Optional[list[str]]:
    """The INI lines of a forgetlab CSV's manifest, or None for any other text (an INI file).

    A CSV forgetlab wrote opens with ``# forgetlab <version>`` (a version
    starts with a digit, so ``# forgetlab settings for ...`` opens an INI
    file). Its settings are the manifest lines from the first ``# [section]``
    up to the CSV header, each without its ``# ``; an empty list if it has none.
    """
    if not (lines and re.fullmatch(r"# forgetlab \d\S*\n?", lines[0])):
        return None
    manifest = itertools.takewhile(lambda line: line.startswith("#"), lines)
    settings = itertools.dropwhile(lambda line: not line.startswith("# ["), manifest)
    return [line[2:] for line in settings]


def _matrix_rows(matrix: EvalMatrix):
    """The lower triangle, one `after_task,eval_task,accuracy,n_samples` row per cell."""
    return (
        [t, j, repr(float(matrix.accuracies[t, j])), int(matrix.n_samples[t, j])]
        for t in range(matrix.num_tasks)
        for j in range(t + 1)
    )


def _surface_rows(surface: LambdaSurface):
    """The full grid, one `lambda,tasks_learned,avg_accuracy` row per cell (`nan` if failed)."""
    return (
        [repr(float(lam)), int(t), repr(float(surface.avg_accuracy[i, k]))]
        for i, lam in enumerate(surface.lambdas)
        for k, t in enumerate(surface.tasks_learned)
    )


def _eval_matrix(rows: list[list[str]]) -> EvalMatrix:
    size = max(int(row[0]) for row in rows) + 1
    if size * (size + 1) // 2 != len(rows):
        raise ValueError(f"{len(rows)} rows cannot fill the lower triangle of {size} tasks")
    acc = np.full((size, size), np.nan)
    counts = np.zeros((size, size), dtype=np.int64)
    for after, evalt, value, n in rows:
        acc[int(after), int(evalt)] = float(value)
        counts[int(after), int(evalt)] = int(n)
    return EvalMatrix(accuracies=acc, n_samples=counts)


def _surface(rows: list[list[str]]) -> LambdaSurface:
    lambdas = sorted({float(row[0]) for row in rows})
    tasks = sorted({int(row[1]) for row in rows})
    if len(lambdas) * len(tasks) != len(rows):
        raise ValueError(f"{len(rows)} rows cannot fill a {len(lambdas)} x {len(tasks)} grid")
    avg = np.full((len(lambdas), len(tasks)), np.nan)
    for lam, t, value in rows:
        avg[lambdas.index(float(lam)), tasks.index(int(t))] = float(value)
    return LambdaSurface(np.asarray(lambdas), np.asarray(tasks), avg)


def _text(x, y, body, size, anchor=None) -> str:
    """One sans-serif ``<text>`` element, attributes in the order every chart uses."""
    attr = f' text-anchor="{anchor}"' if anchor else ""
    return f'<text x="{x}" y="{y}"{attr} font-size="{size}" font-family="sans-serif">{body}</text>'


def _svg(width, height, title, body, path) -> str:
    """Write one chart: open tag, white background, title, ``body`` elements, close tag."""
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        _text(width / 2, 20, title, 14, "middle"),
        *body,
        "</svg>",
    ]
    with atomic_write(path, newline="") as fh:
        fh.write("\n".join(parts) + "\n")
    return path


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

    parts = [
        f'<line x1="{left}" y1="{top}" x2="{left}" y2="{top + plot_h}" stroke="black"/>',
        f'<line x1="{left}" y1="{top + plot_h}" x2="{left + plot_w}" '
        f'y2="{top + plot_h}" stroke="black"/>',
    ]
    for tick in (0.0, 0.25, 0.5, 0.75, 1.0):
        y = sy(tick)
        parts.append(_text(left - 8, y + 4, f"{tick:g}", 11, "end"))
        parts.append(f'<line x1="{left - 4}" y1="{y}" x2="{left}" y2="{y}" stroke="black"/>')
    parts.extend(_text(sx(t), top + plot_h + 16, t, 11, "middle") for t in range(t_count))
    parts.append(_text(left + plot_w / 2, height - 8, "tasks trained", 12, "middle"))
    for j in range(t_count):
        color = CURVE_COLORS[j % len(CURVE_COLORS)]
        points = " ".join(
            f"{sx(t):.2f},{sy(matrix.accuracies[t, j]):.2f}"
            for t in range(j, t_count)
            if not math.isnan(matrix.accuracies[t, j])
        )
        ly = top + 14 * j
        parts += [
            f'<polyline points="{points}" fill="none" stroke="{color}" stroke-width="1.5"/>',
            f'<rect x="{left + plot_w + 12}" y="{ly}" width="10" height="10" fill="{color}"/>',
            _text(left + plot_w + 27, ly + 9, f"task {j}", 11),
        ]
    return _svg(width, height, "Accuracy per task across the sequence", parts, path)


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
    parts = [
        f'<rect class="cell" x="{left + k * cell}" y="{top + i * cell}" width="{cell}" '
        f'height="{cell}" fill="{_heat_color(float(value), lo, hi)}" stroke="white"/>'
        for i, row in enumerate(surface.avg_accuracy)
        for k, value in enumerate(row)
    ]
    parts.extend(
        _text(left - 6, top + i * cell + cell / 2 + 4, f"{float(lam):g}", 11, "end")
        for i, lam in enumerate(surface.lambdas)
    )
    parts.extend(
        _text(left + k * cell + cell / 2, top - 6, int(t), 11, "middle")
        for k, t in enumerate(surface.tasks_learned)
    )
    parts.append(_text(left - 70, top + n_lam * cell / 2, "lambda", 12))
    parts.append(_text(left + n_tasks * cell / 2, top - 28, "tasks learned", 12, "middle"))
    legend_x = left + n_tasks * cell + 20
    parts.extend(
        f'<rect x="{legend_x}" y="{top + (10 - step) * 12}" width="14" height="12" '
        f'fill="{_heat_color(lo + (hi - lo) * step / 10, lo, hi)}"/>'
        for step in range(11)
    )
    parts.append(_text(legend_x + 18, top + 130, f"{lo:.3f}", 10))
    parts.append(_text(legend_x + 18, top + 10, f"{hi:.3f}", 10))
    return _svg(width, height, "Average accuracy over the lambda grid", parts, path)


class _Kind(NamedTuple):
    """One report kind: how its result is written, read back and drawn."""

    header: tuple[str, ...]
    names: tuple[str, str]  # the CSV's and the SVG's file names in an output directory
    encode: Callable  # result -> CSV data rows
    parse: Callable  # CSV data rows -> result
    render: Callable  # (result, path) -> path of the chart written
    comments: Callable = lambda result: ()  # result -> trailing comment lines (failed lambdas)


# Each report kind, by the type of the result it describes.
_KINDS = {
    EvalMatrix: _Kind(
        ("after_task", "eval_task", "accuracy", "n_samples"),
        ("eval_matrix.csv", "accuracy_curves.svg"),
        _matrix_rows, _eval_matrix, render_accuracy_curves,
    ),
    LambdaSurface: _Kind(
        ("lambda", "tasks_learned", "avg_accuracy"),
        ("surface.csv", "surface_heatmap.svg"),
        _surface_rows, _surface, render_surface_heatmap,
        lambda surface: (f"failed lambda={lam!r}: {message}" for lam, message in surface.failures),
    ),
}


def _kind(result) -> _Kind:
    if type(result) not in _KINDS:
        raise TypeError(f"cannot report on {type(result).__name__}")
    return _KINDS[type(result)]


def _csv_kind(result, config: ExperimentConfig) -> _Kind:
    """``result``'s kind, if a CSV can be written for it: the config must come with it."""
    kind = _kind(result)
    if config is None:
        raise TypeError(f"cannot report on {type(result).__name__} without its config")
    return kind


def emit_csv(result, path: str, config: ExperimentConfig) -> str:
    """Write ``config``'s manifest, then ``result``'s header, data rows and trailing comments."""
    kind = _csv_kind(result, config)
    with atomic_write(path, newline="", encoding="utf-8") as fh:
        for line in manifest_lines(config):
            fh.write(line + "\n")
        writer = csv.writer(fh)
        writer.writerow(kind.header)
        writer.writerows(kind.encode(result))
        for comment in kind.comments(result):
            fh.write(f"# {comment}\n")
    return path


def read_report_csv(path: str):
    """The eval matrix or lambda surface in a CSV, recognised by its header.

    '#' lines and blank lines are skipped. Only rows as forgetlab writes
    them are read: the result is encoded again, and the first data row
    that differs (a negative, duplicate or upper-triangle cell, a float not
    in ``repr`` form) raises ``ValueError``. Every error names the path.
    """
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(line for line in fh if line.strip() and not line.startswith("#"))
        try:
            header, rows = tuple(next(reader, ())), list(reader)
        except (csv.Error, UnicodeDecodeError) as exc:  # a NUL byte, a field too long, not text
            raise ValueError(f"{path}: {exc}") from None
    kind = next((kind for kind in _KINDS.values() if kind.header == header), None)
    if kind is None:
        raise ValueError(f"{path}: unrecognized CSV header {','.join(header)!r}")
    if not rows:
        raise ValueError(f"{path}: no data rows")
    try:
        result = kind.parse(rows)
    except (ValueError, IndexError) as exc:
        raise ValueError(f"{path}: {exc}") from None
    for number, (row, written) in enumerate(zip(rows, kind.encode(result)), start=1):
        if row != [str(value) for value in written]:
            shown = ",".join(row)
            raise ValueError(f"{path}: data row {number} {shown!r} is not as forgetlab writes it")
    return result


def render_svg(result, path: str) -> str:
    """Accuracy curves for an eval matrix, a heatmap for a lambda surface."""
    return _kind(result).render(result, path)


def report_csv_path(result_type: type, outdir: str) -> str:
    """The CSV :func:`emit_reports` writes in ``outdir`` for a result of ``result_type``."""
    return os.path.join(outdir, _KINDS[result_type].names[0])


def emit_reports(result, outdir: str) -> list[str]:
    """Write the CSV, then its chart through :func:`render_svg`; returns ``[csv, svg]``.

    ``outdir`` is created only for a result a CSV can be written for.
    """
    chart = result.matrix if isinstance(result, RunResult) else result
    config = getattr(result, "config", None)  # an eval matrix read back has no config field
    csv_path, svg_path = (os.path.join(outdir, name) for name in _csv_kind(chart, config).names)
    os.makedirs(outdir, exist_ok=True)
    return [emit_csv(chart, csv_path, config), render_svg(chart, svg_path)]
