"""Span tracing of the asymclone modules, installed from outside the package.

The tracer wraps the public functions listed in TARGETS. ``cloner``, ``cli``
and ``pauli`` import several of them by name (``apply_cnot``, ``tensor``,
``to_density``, ``partial_trace``, ``reorder``, ``cloning_network``), so
every module-level binding that refers to an original is rebound to its
wrapper, and put back by ``uninstall``. The two state classes are traced by
wrapping their ``__init__`` in place, which keeps ``isinstance`` working.

A span is (name, start, end, parent, operation, error); error is 1 when the
call ended by an exception, argparse's SystemExit included. Spans are kept
in flat arrays in memory and written out once, at the end of a run.
"""
from __future__ import annotations

import functools
import gzip
import json
import sys
import time
from array import array

# (module, attribute) under the asymclone package; classes trace their constructor
TARGETS = (
    ("cli", "main"),
    ("cli", "build_parser"),
    ("cli", "sweep_rows"),
    ("cloner", "feasibility"),
    ("cloner", "solve_prep"),
    ("cloner", "run_cloner"),
    ("cloner", "cloning_network"),
    ("cloner", "verify_scaling"),
    ("gates", "apply_cnot"),
    ("gates", "prepare_two_qubit"),
    ("gates", "apply_circuit"),
    ("qstate", "StateVector"),
    ("qstate", "DensityMatrix"),
    ("qstate", "tensor"),
    ("qstate", "to_density"),
    ("qstate", "partial_trace"),
    ("qstate", "reorder"),
    ("qstate", "random_state"),
    ("pauli", "run_pauli_cloner"),
    ("pauli", "bell_decompose"),
)

NAMES = tuple(f"{module}.{attr}" for module, attr in TARGETS)

RATIOS = (
    "cloner.solve_prep.oracle_runs_per_call",
    "cloner.run_cloner.useful_ratio",
    "qstate.DensityMatrix.per_run_cloner",
    "trace.overhead_ratio",
)

LAYER_FIELDS = (("calls", "count"), ("total_ms", "ms"), ("self_ms", "ms"), ("errors", "count"))


def layer_metric_units() -> dict[str, str]:
    """Every per-layer metric name with its unit, in report order."""
    units = {f"{name}.{field}": unit for name in NAMES for field, unit in LAYER_FIELDS}
    units.update({name: "ratio" for name in RATIOS})
    return units


def _package_modules() -> list:
    return [
        module
        for key, module in list(sys.modules.items())
        if module is not None and (key == "asymclone" or key.startswith("asymclone."))
    ]


class Tracer:
    """Records spans around every TARGETS call while installed."""

    def __init__(self):
        self.name = array("h")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("q")
        self.op = array("q")
        self.error = array("b")
        self.op_id = -1
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []
        self.wrappers: dict[str, object] = {}

    def _wrap(self, index: int, fn):
        name, start, end, parent, op, error = (
            self.name, self.start, self.end, self.parent, self.op, self.error,
        )
        stack = self._stack
        clock = time.perf_counter_ns
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = len(name)
            name.append(index)
            parent.append(stack[-1] if stack else -1)
            op.append(tracer.op_id)
            error.append(0)
            end.append(0)
            stack.append(span)
            start.append(clock())
            try:
                return fn(*args, **kwargs)
            except BaseException:
                error[span] = 1
                raise
            finally:
                end[span] = clock()
                stack.pop()

        return traced

    def install(self) -> None:
        """Rebind every target to a fresh wrapper; spans keep accumulating."""
        if self._restore:
            raise RuntimeError("tracer is already installed")
        modules = _package_modules()
        for index, (module_name, attr) in enumerate(TARGETS):
            owner = sys.modules[f"asymclone.{module_name}"]
            original = getattr(owner, attr)
            key = NAMES[index]
            if isinstance(original, type):
                init = original.__dict__["__init__"]
                wrapper = self._wrap(index, init)
                original.__init__ = wrapper
                self._restore.append((original, "__init__", init))
                self.wrappers[key] = wrapper
                continue
            wrapper = self._wrap(index, original)
            self.wrappers[key] = wrapper
            for module in modules:
                for binding, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, binding, wrapper)
                        self._restore.append((module, binding, original))

    def uninstall(self) -> None:
        while self._restore:
            owner, binding, original = self._restore.pop()
            setattr(owner, binding, original)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()

    def __len__(self) -> int:
        return len(self.name)

    def layer_metrics(self, overhead_ratio: float) -> dict[str, float]:
        """Per-function calls, total and self time, errors, plus the named ratios."""
        selfs = self_times(self.start, self.end, self.parent)
        n_names = len(NAMES)
        calls = [0] * n_names
        total = [0] * n_names
        own = [0] * n_names
        errors = [0] * n_names
        solve_prep = NAMES.index("cloner.solve_prep")
        run_cloner = NAMES.index("cloner.run_cloner")
        density = NAMES.index("qstate.DensityMatrix")
        in_solve = bytearray(len(self.name))
        in_run = bytearray(len(self.name))
        oracle_runs = density_in_run = 0
        for i, k in enumerate(self.name):
            calls[k] += 1
            total[k] += self.end[i] - self.start[i]
            own[k] += selfs[i]
            errors[k] += self.error[i]
            p = self.parent[i]
            if p >= 0:
                in_solve[i] = self.name[p] == solve_prep or in_solve[p]
                in_run[i] = self.name[p] == run_cloner or in_run[p]
            if k == run_cloner and in_solve[i]:
                oracle_runs += 1
            if k == density and in_run[i]:
                density_in_run += 1
        metrics: dict[str, float] = {}
        for k, key in enumerate(NAMES):
            metrics[f"{key}.calls"] = calls[k]
            metrics[f"{key}.total_ms"] = total[k] / 1e6
            metrics[f"{key}.self_ms"] = own[k] / 1e6
            metrics[f"{key}.errors"] = errors[k]
        metrics[RATIOS[0]] = _ratio(oracle_runs, calls[solve_prep])
        metrics[RATIOS[1]] = _ratio(calls[run_cloner] - oracle_runs, calls[run_cloner])
        metrics[RATIOS[2]] = _ratio(density_in_run, calls[run_cloner])
        metrics[RATIOS[3]] = overhead_ratio
        return metrics

    def write(self, path) -> None:
        """Write every span as gzip JSON: a name table and one row per span."""
        rows = [
            [self.name[i], self.start[i], self.end[i], self.parent[i], self.op[i], self.error[i]]
            for i in range(len(self.name))
        ]
        payload = {
            "names": list(NAMES),
            "columns": ["name", "start_ns", "end_ns", "parent", "op", "error"],
            "spans": rows,
        }
        with gzip.open(path, "wt") as handle:
            json.dump(payload, handle, separators=(",", ":"))


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def self_times(starts, ends, parents) -> list[int]:
    """Each span's duration minus the part of it that its child spans cover."""
    children: list[list[int]] = [[] for _ in starts]
    for i, p in enumerate(parents):
        if p >= 0:
            children[p].append(i)
    out = []
    for i, kids in enumerate(children):
        lo_bound, hi_bound = starts[i], ends[i]
        covered = 0
        reach = lo_bound
        for k in sorted(kids, key=lambda c: starts[c]):
            lo = max(starts[k], reach)
            hi = min(ends[k], hi_bound)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append(hi_bound - lo_bound - covered)
    return out
