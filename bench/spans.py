"""Span tracing of ophp's layers, installed from outside the package.

``Tracer.install`` wraps every public function that an ``ophp`` module
defines, on every ``ophp`` module namespace that holds it (so
``cli.solve_filter`` and ``smoothing.solve_filter`` are traced as
``filter.solve_filter``), the ``GaussianModel.build`` classmethod, numpy's
LAPACK entry points in ``numpy.linalg`` and the byte counts of
``pathlib.Path.read_text``/``write_text``.  Nothing in ``src/`` changes.

Spans are recorded only while a phase is open (``"setup"`` or ``"op"``), so
the benchmark's own reference checks, which call numpy between operations,
are not counted.  Spans stay in memory and are written out by the caller at
the end of the run.
"""

from __future__ import annotations

import functools
import inspect
import pathlib
import sys
import time

LAYER_MODULES = (
    "operators",
    "gaussian",
    "smoothing",
    "filter",
    "scales",
    "validate",
    "specs",
    "cli",
)

LINALG_ENTRY_POINTS = (
    "svd",
    "eigh",
    "eigvalsh",
    "eig",
    "eigvals",
    "solve",
    "inv",
    "pinv",
    "lstsq",
    "qr",
    "cholesky",
    "det",
    "slogdet",
    "cond",
    "matrix_rank",
)


def _positivity_probes(result):
    return "filter.positivity_check.probes", result.trials


def _grid_points(result):
    return "smoothing.grid_search_oracle.points", result.points_evaluated


def _sample_draws(result):
    return "gaussian.sample_joint.draws", result.count


def _check_failed(result):
    return "validate.checks_failed", int(getattr(result, "status", None) == "FAIL")


# Counts read off a traced call's return value.
COUNTERS = {
    "filter.positivity_check": _positivity_probes,
    "smoothing.grid_search_oracle": _grid_points,
    "gaussian.sample_joint": _sample_draws,
    "validate.mp_residual_suite": _check_failed,
    "validate.commutation_check": _check_failed,
    "validate.conditional_mean_check": _check_failed,
    "validate.gap_check": _check_failed,
    "validate.grid_argmin_check": _check_failed,
    "validate.white_noise_scale_check": _check_failed,
}


class Tracer:
    """In-memory span recorder with per-phase self-time aggregation."""

    def __init__(self):
        self.phase = None
        self.op_id = -1
        self.spans = []  # (name, start_ns, end_ns, parent index, phase, op id)
        self._stack = []  # [span index, child time ns]
        self.self_ns = {}  # (phase, name) -> ns
        self.calls = {}  # (phase, name) -> int
        self.counts = {}  # (phase, counter) -> number

    # -- recording ---------------------------------------------------------

    def count(self, name, value):
        if self.phase is not None:
            key = (self.phase, name)
            self.counts[key] = self.counts.get(key, 0) + value

    def wrap(self, name, func):
        counter = COUNTERS.get(name)
        tracer = self

        @functools.wraps(func)
        def traced(*args, **kwargs):
            if tracer.phase is None:
                return func(*args, **kwargs)
            parent = tracer._stack[-1][0] if tracer._stack else -1
            index = len(tracer.spans)
            tracer.spans.append(None)
            frame = [index, 0]
            tracer._stack.append(frame)
            start = time.perf_counter_ns()
            try:
                result = func(*args, **kwargs)
            finally:
                end = time.perf_counter_ns()
                tracer._stack.pop()
                duration = end - start
                phase = tracer.phase
                tracer.spans[index] = (name, start, end, parent, phase, tracer.op_id)
                key = (phase, name)
                tracer.self_ns[key] = tracer.self_ns.get(key, 0) + duration - frame[1]
                tracer.calls[key] = tracer.calls.get(key, 0) + 1
                if tracer._stack:
                    tracer._stack[-1][1] += duration
            if counter is not None:
                tracer.count(*counter(result))
            return result

        return traced

    # -- installation ------------------------------------------------------

    def install(self):
        """Wrap ophp's public functions, GaussianModel.build, numpy.linalg
        and pathlib text I/O.  Call before the workload looks up any name."""
        import numpy.linalg
        import ophp.cli  # noqa: F401  (imports every layer module)
        from ophp.gaussian import GaussianModel

        namespaces = [m for n, m in sys.modules.items() if n == "ophp" or n.startswith("ophp.")]
        for short in LAYER_MODULES:
            module = sys.modules[f"ophp.{short}"]
            for attr, obj in list(vars(module).items()):
                if attr.startswith("_") or not inspect.isfunction(obj):
                    continue
                if obj.__module__ != module.__name__:
                    continue
                wrapped = self.wrap(f"{short}.{attr}", obj)
                for namespace in namespaces:
                    for key, value in list(vars(namespace).items()):
                        if value is obj:
                            setattr(namespace, key, wrapped)

        build = GaussianModel.__dict__["build"].__func__
        GaussianModel.build = classmethod(self.wrap("gaussian.GaussianModel.build", build))

        for attr in LINALG_ENTRY_POINTS:
            setattr(numpy.linalg, attr, self.wrap(f"linalg.{attr}", getattr(numpy.linalg, attr)))

        read_text = pathlib.Path.read_text
        write_text = pathlib.Path.write_text
        tracer = self

        def counting_read(path, *args, **kwargs):
            text = read_text(path, *args, **kwargs)
            tracer.count("cli.bytes_read", len(text.encode()))
            return text

        def counting_write(path, data, *args, **kwargs):
            tracer.count("cli.bytes_written", len(data.encode()))
            return write_text(path, data, *args, **kwargs)

        pathlib.Path.read_text = counting_read
        pathlib.Path.write_text = counting_write

    # -- results -----------------------------------------------------------

    def layer_totals(self, phase):
        """Self time (ms), calls and counts of one phase, summed over spans."""
        out = {}
        for (ph, name), ns in self.self_ns.items():
            if ph != phase:
                continue
            out[f"{name}.self_ms"] = ns / 1e6
            out[f"{name}.calls"] = self.calls[(ph, name)]
            if name.startswith("linalg."):
                out["linalg.self_ms"] = out.get("linalg.self_ms", 0.0) + ns / 1e6
                out["linalg.factorizations"] = (
                    out.get("linalg.factorizations", 0) + self.calls[(ph, name)]
                )
        for (ph, name), value in self.counts.items():
            if ph == phase:
                out[name] = value
        return out

    def span_records(self):
        return [
            {"name": s[0], "start_ns": s[1], "end_ns": s[2], "parent": s[3], "phase": s[4], "op": s[5]}
            for s in self.spans
            if s is not None
        ]
