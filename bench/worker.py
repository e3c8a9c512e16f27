"""One benchmark process: set up a workload, run it in a closed loop, check
every operation and write the raw results as JSON.

Operation and set-up times are process CPU time scaled to the reference
speed of ``probe.py`` by the workload's probe, run just before and just
after each operation (for ``PROBE_SHARE`` of its time) and each set-up.
Set-up time starts once numpy and the benchmark's own modules are imported,
and covers importing ophp and building the workload's inputs.  Each
operation's unscaled CPU time and wall time are kept beside it.

Run by ``run.py`` in a fresh interpreter with the BLAS thread count pinned
and ``src`` on ``PYTHONPATH``::

    python3 bench/worker.py --workload W --seed N --seconds S --result FILE
        [--trace] [--setup-only] --work DIR
"""

import argparse
import ctypes
import json
import resource
import sys
import time
from pathlib import Path

SETUP_PROBES = 5
# Probe time before and after each operation, as a share of the operation's
# time in the previous cycle: one probe pair is a noisy estimate of the
# speed over a long operation.
PROBE_SHARE = 0.05


def blas_record(np):
    """OpenBLAS version and the thread count it actually runs with."""
    info = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = None
    libs = Path(np.__file__).parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("*openblas*")):
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(ctypes.CDLL(str(lib)), symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                threads = fn()
                break
    return {"blas": info.get("name"), "blas_version": info.get("version"), "blas_threads": threads}


def main():
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=0.0)
    p.add_argument("--result", required=True)
    p.add_argument("--work", required=True)
    p.add_argument("--trace", action="store_true")
    p.add_argument("--setup-only", action="store_true")
    args = p.parse_args()

    import numpy as np
    from probe import probe, sample, speed
    from spans import Tracer
    from workloads import OK, WORKLOADS, WRONG_OUTPUT

    kind = WORKLOADS[args.workload].probe
    probe(kind)  # warm-up
    before = [probe(kind) for _ in range(SETUP_PROBES)]
    t0 = time.process_time()
    import ophp
    import ophp.cli

    tracer = None
    if args.trace:
        tracer = Tracer()
        tracer.install()
        tracer.phase = "setup"
    workload = WORKLOADS[args.workload](args.seed, Path(args.work))
    workload.setup(ophp)
    setup_s = time.process_time() - t0
    if tracer:
        tracer.phase = None
    after = [probe(kind) for _ in range(SETUP_PROBES)]
    result = {"setup_s": setup_s * speed(kind, before + after), "setup_cpu_s": setup_s,
              "ophp": ophp.__file__}
    if args.setup_only:
        Path(args.result).write_text(json.dumps(result))
        return

    workload.prepare_checks()
    cycle = workload.cycle
    last_ns = {}
    for k in range(workload.warmup_ops):
        pos = k % len(cycle)
        op, start = cycle[pos], time.process_time_ns()
        out = workload.run(ophp, workload.before(k, op))
        last_ns[pos] = time.process_time_ns() - start
        workload.check(k, op, out)

    ops, first = [], {}
    busy_ns, k, done = 0, 0, 0
    wall0 = time.perf_counter()
    cycles = workload.fixed_cycles(args.seconds)

    def more():
        if cycles is not None:
            return done < cycles
        return busy_ns < args.seconds * 1e9

    # Whole cycles only, so every run has the same mix of operations.
    while more():
        for pos, op in enumerate(cycle):
            arg = workload.before(k, op)
            budget = PROBE_SHARE * last_ns.get(pos, 0)
            before = sample(kind, budget)
            if tracer:
                tracer.phase, tracer.op_id = "op", k
            start_wall = time.perf_counter_ns()
            start = time.process_time_ns()
            out = workload.run(ophp, arg)
            elapsed = time.process_time_ns() - start
            elapsed_wall = time.perf_counter_ns() - start_wall
            if tracer:
                tracer.phase = None
            after = sample(kind, budget)
            busy_ns += elapsed
            last_ns[pos] = elapsed
            outcome, detail, digest = workload.check(k, op, out)
            if workload.repeats and outcome != WRONG_OUTPUT:
                if first.setdefault(pos, digest) != digest:
                    outcome, detail = WRONG_OUTPUT, "output bytes differ from the first cycle"
            ops.append({"kind": op.kind, "ms": elapsed / 1e6 * speed(kind, before + after),
                        "cpu_ms": elapsed / 1e6,
                        "wall_ms": elapsed_wall / 1e6,
                        "probe_ms": (sum(before) / len(before) / 1e6, sum(after) / len(after) / 1e6),
                        "probes": len(before) + len(after),
                        "outcome": outcome, "detail": detail, "digest": digest})
            k += 1
        done += 1
    wall = time.perf_counter() - wall0

    result.update({
        "busy_s": sum(o["ms"] for o in ops) / 1e3,
        "cpu_s": busy_ns / 1e9,
        "wall_s": wall,
        "probe": kind,
        "cycle_len": len(cycle),
        "cycles": done,
        "ops": ops,
        "ok": sum(o["outcome"] == OK for o in ops),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "numpy": np.__version__,
        "python": sys.version.split()[0],
        **blas_record(np),
    })
    if tracer:
        result["layers_setup"] = tracer.layer_totals("setup")
        result["layers_op"] = tracer.layer_totals("op")
        result["spans"] = tracer.span_records()
    Path(args.result).write_text(json.dumps(result))


if __name__ == "__main__":
    main()
