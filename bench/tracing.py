"""Outside-in span tracing of forgetlab's layers for the benchmark.

The tracer replaces public functions with timing wrappers at every name
they are looked up under (modules import each other's functions by name,
so ``harness.forward`` and ``model.forward`` are separate bindings) and
restores the originals afterwards. Spans live in memory as
``[name, start, end, parent, run_id, work]`` lists and are written out
once the run ends. ``work`` is a count taken at the same boundary: flops
for ``matmul``, rows for data and evaluation, bytes for task sets and
reports.

Span names are ``<layer>.<function>``, where the layer is the module
that defines the function, whichever module called it.
"""

from __future__ import annotations

import contextlib
import csv
import dataclasses
import os
import sys
import time
from collections import defaultdict

import numpy as np

# (name, unit, better) of every per-layer metric, in report order. The
# end-to-end metric each layer should move, and where:
#   data       -> setup_s and peak_rss_mb, mostly on ten-task-ewc (ten task copies)
#   numerics   -> run_s on all three workloads
#   model      -> run_s; accuracy weighs most on ten-task-ewc (55 evaluations)
#   optim      -> run_s on desk-wva-step and desk-grid, little on ten-task-ewc
#   continual  -> run_s; the pre-hook runs only on ten-task-ewc, the post-hook
#                 and the total-abs-signal estimator on desk-wva-step and desk-grid
#   harness    -> run_s on desk-grid only (work shared across lambdas)
#   reports    -> run_s, small everywhere
# A layer that a workload never calls reads 0 there.
LAYER_METRICS = (
    ("data.build_tasks_s", "s", "lower"),
    ("data.task_bytes", "bytes", "lower"),
    ("data.batches_s", "s", "lower"),
    ("data.batch_rows", "rows", "lower"),
    ("numerics.matmul_s", "s", "lower"),
    ("numerics.matmul_calls", "count", "lower"),
    ("numerics.matmul_gflop", "GFLOP", "lower"),
    ("numerics.matmul_gflops_rate", "GFLOP/s", "higher"),
    ("model.forward_s", "s", "lower"),
    ("model.backward_s", "s", "lower"),
    ("model.cross_entropy_s", "s", "lower"),
    ("model.accuracy_s", "s", "lower"),
    ("model.eval_rows", "rows", "lower"),
    ("model.self_s", "s", "lower"),
    ("optim.apply_s", "s", "lower"),
    ("optim.apply_calls", "count", "lower"),
    ("optim.step_parts_s", "s", "lower"),
    ("optim.self_s", "s", "lower"),
    ("optim.bytes_computed", "bytes", "lower"),
    ("continual.pre_hook_s", "s", "lower"),
    ("continual.post_hook_s", "s", "lower"),
    ("continual.hook_calls", "count", "lower"),
    ("continual.estimate_s", "s", "lower"),
    ("continual.estimate_rows", "rows", "lower"),
    ("continual.finish_task_s", "s", "lower"),
    ("harness.run_sequence_s", "s", "lower"),
    ("harness.grid_search_s", "s", "lower"),
    ("harness.eval_s", "s", "lower"),
    ("harness.self_s", "s", "lower"),
    ("harness.lambda_runs", "count", "lower"),
    ("reports.emit_s", "s", "lower"),
    ("reports.bytes_written", "bytes", "lower"),
    ("trace.overhead_pct", "%", "lower"),
)


def _task_bytes(tasks) -> int:
    return sum(
        value.nbytes
        for task in tasks
        for value in vars(task).values()
        if isinstance(value, np.ndarray)
    )


def _matmul_flop(args) -> int:
    (m, k), (_, n) = np.shape(args[0]), np.shape(args[1])
    return 2 * m * k * n


def _rows(value) -> int:
    return int(np.shape(value)[0])


class Tracer:
    """Records nested spans around forgetlab's public functions."""

    def __init__(self):
        self.spans: list[list] = []
        self.run_id = ""
        self._stack: list[int] = []

    def _open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent, self.run_id, 0])
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def _close(self, index: int):
        self.spans[index][2] = time.perf_counter()
        self._stack.pop()

    def wrap(self, fn, name: str, work=None):
        """``fn`` inside a span; ``work(args, result)`` fills its count."""

        def traced(*args, **kwargs):
            index = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(index)
            if work is not None:
                self.spans[index][5] = work(args, result)
            return result

        return traced

    def wrap_batches(self, fn):
        """Span each ``next`` of the batch generator, counting its rows."""

        def traced(*args, **kwargs):
            inner = fn(*args, **kwargs)
            while True:
                index = self._open("data.batches")
                try:
                    item = next(inner)
                except StopIteration:
                    return
                finally:
                    self._close(index)
                self.spans[index][5] = _rows(item[1])
                yield item

        return traced

    def wrap_apply(self, fn):
        """Span the optimizer update and each step-hook callable it runs."""

        def traced(params, grads, optimizer, hook=None):
            if hook is not None:
                pre, post = hook.pre_optimizer, hook.post_optimizer
                hook = dataclasses.replace(
                    hook,
                    pre_optimizer=pre and self.wrap(pre, "continual.pre_hook"),
                    post_optimizer=post and self.wrap(post, "continual.post_hook"),
                )
            return fn(params, grads, optimizer, hook)

        return self.wrap(traced, "optim.apply")

    @contextlib.contextmanager
    def installed(self, run_id: str):
        """Patch every traced binding for the duration of the block."""
        from forgetlab import continual, harness, model, optim, reports

        estimate_rows = lambda args, result: _rows(args[1].train_images)
        plan = [
            (harness, "build_tasks", lambda f: self.wrap(
                f, "data.build_tasks", lambda args, result: _task_bytes(result))),
            (harness, "batches", self.wrap_batches),
            (harness, "run_sequence", lambda f: self.wrap(f, "harness.run_sequence")),
            (harness, "grid_search", lambda f: self.wrap(f, "harness.grid_search")),
            (harness, "_eval_splits", lambda f: self.wrap(f, "harness.eval_splits")),
            (harness, "accuracy", lambda f: self.wrap(
                f, "model.accuracy", lambda args, result: _rows(args[2]))),
            (harness, "apply", self.wrap_apply),
            (optim, "step_parts", lambda f: self.wrap(f, "optim.step_parts")),
            (continual, "estimate_fisher", lambda f: self.wrap(
                f, "continual.estimate", estimate_rows)),
            (continual, "estimate_total_abs_signal", lambda f: self.wrap(
                f, "continual.estimate", estimate_rows)),
            (reports, "emit_reports", lambda f: self.wrap(
                f, "reports.emit",
                lambda args, result: sum(os.path.getsize(p) for p in result))),
        ]
        for module in (harness, model, continual):
            plan.append((module, "forward", lambda f: self.wrap(f, "model.forward")))
        for module in (model, continual):
            plan.append((module, "matmul", lambda f: self.wrap(
                f, "numerics.matmul", lambda args, result: _matmul_flop(args))))
        for name in ("backward", "cross_entropy"):
            plan.append((harness, name, lambda f, n=name: self.wrap(f, f"model.{n}")))
        strategies = [value for value in vars(continual).values()
                      if isinstance(value, type) and "finish_task" in vars(value)]
        for cls in strategies:
            plan.append((cls, "finish_task", lambda f: self.wrap(
                f, "continual.finish_task")))

        originals = []
        self.run_id = run_id
        try:
            for owner, attr, make in plan:
                original = getattr(owner, attr, None)
                if original is None:
                    print(f"trace: {owner.__name__}.{attr} not found, not traced",
                          file=sys.stderr)
                    continue
                originals.append((owner, attr, original))
                setattr(owner, attr, make(original))
            yield self
        finally:
            for owner, attr, original in reversed(originals):
                setattr(owner, attr, original)

    def write(self, path: str):
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["name", "start", "end", "parent", "run_id", "work"])
            origin = self.spans[0][1] if self.spans else 0.0
            for name, start, end, parent, run_id, work in self.spans:
                writer.writerow([name, repr(start - origin), repr(end - origin),
                                 parent, run_id, work])

    def nesting_errors(self) -> list[str]:
        """Spans that leave their parent's interval or overfill it."""
        errors = []
        child_sum = self._child_sums()
        for i, (name, start, end, parent, _, _) in enumerate(self.spans):
            if parent >= 0:
                _, p_start, p_end, *_ = self.spans[parent]
                if start < p_start or end > p_end:
                    errors.append(f"span {i} ({name}) leaves its parent {parent}")
            if child_sum[i] > (end - start) + 1e-9:
                errors.append(f"span {i} ({name}) is shorter than its children")
        return errors

    def _child_sums(self) -> list[float]:
        sums = [0.0] * len(self.spans)
        for _, start, end, parent, _, _ in self.spans:
            if parent >= 0:
                sums[parent] += end - start
        return sums

    def layer_metrics(self, param_count: int, arrays_per_update: int) -> dict:
        """Per-layer totals; self time is a span minus its child spans."""
        total, self_time, calls, work = (defaultdict(float) for _ in range(4))
        child_sum = self._child_sums()
        lambda_runs = 0
        for i, (name, start, end, parent, _, count) in enumerate(self.spans):
            total[name] += end - start
            self_time[name] += end - start - child_sum[i]
            calls[name] += 1
            work[name] += count
            if name == "harness.run_sequence" and parent >= 0:
                lambda_runs += self.spans[parent][0] == "harness.grid_search"
        matmul_gflop = work["numerics.matmul"] / 1e9
        return {
            "data.build_tasks_s": total["data.build_tasks"],
            "data.task_bytes": work["data.build_tasks"],
            "data.batches_s": total["data.batches"],
            "data.batch_rows": work["data.batches"],
            "numerics.matmul_s": total["numerics.matmul"],
            "numerics.matmul_calls": calls["numerics.matmul"],
            "numerics.matmul_gflop": matmul_gflop,
            "numerics.matmul_gflops_rate": matmul_gflop / total["numerics.matmul"],
            "model.forward_s": total["model.forward"],
            "model.backward_s": total["model.backward"],
            "model.cross_entropy_s": total["model.cross_entropy"],
            "model.accuracy_s": total["model.accuracy"],
            "model.eval_rows": work["model.accuracy"],
            "model.self_s": sum(v for k, v in self_time.items() if k.startswith("model.")),
            "optim.apply_s": total["optim.apply"],
            "optim.apply_calls": calls["optim.apply"],
            "optim.step_parts_s": total["optim.step_parts"],
            "optim.self_s": self_time["optim.apply"] + self_time["optim.step_parts"],
            "optim.bytes_computed": calls["optim.apply"] * param_count * arrays_per_update * 8,
            "continual.pre_hook_s": total["continual.pre_hook"],
            "continual.post_hook_s": total["continual.post_hook"],
            "continual.hook_calls": calls["continual.pre_hook"] + calls["continual.post_hook"],
            "continual.estimate_s": total["continual.estimate"],
            "continual.estimate_rows": work["continual.estimate"],
            "continual.finish_task_s": total["continual.finish_task"],
            "harness.run_sequence_s": total["harness.run_sequence"],
            "harness.grid_search_s": total["harness.grid_search"],
            "harness.eval_s": total["harness.eval_splits"] + total["model.accuracy"],
            "harness.self_s": sum(
                self_time[k] for k in
                ("harness.run_sequence", "harness.grid_search", "harness.eval_splits")
            ),
            "harness.lambda_runs": lambda_runs,
            "reports.emit_s": total["reports.emit"],
            "reports.bytes_written": work["reports.emit"],
        }
