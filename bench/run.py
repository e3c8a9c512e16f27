"""Benchmark of ophp: one workload per call, every output checked.

    python3 bench/run.py --workload {filter-batch,cli-session,validate,simulate}
                         --seed N --seconds S --trace {0,1}

Run from the root of a source checkout; ophp is imported from ``src/``.
Each operation runs in a closed loop: one client in one process sends the
next operation when the previous one returns, with BLAS pinned to
``BLAS_THREADS`` threads.  The timed phase runs whole cycles of the
workload's operations until ``S`` seconds of operation time have passed
(``validate`` runs a cycle count fixed by ``S``; see ``workloads.py``).

Times are the process's CPU time (``CLOCK_PROCESS_CPUTIME_ID``; the
program runs on one thread and writes to the page cache) scaled to the
reference speed of ``probe.py``: a fixed computation like the workload's
own, run just before and just after each operation, that measures how fast
the shared host runs this process at that moment.  Unscaled, the figures
of the same code spread by a quarter from run to run, because the host's
speed drifts by a third within seconds.  Wall-clock figures are printed
beside them and kept in the results.

``--trace 0`` prints the end-to-end metrics: ``setup_s`` (median over
``SETUP_SAMPLES`` fresh interpreters that import ophp and build the inputs),
``throughput_ops_s``, ``op_ms_p50``, ``op_ms_tail`` and ``peak_rss_mb``.
``--trace 1`` runs the workload twice for ``S/2`` seconds each, untraced and
traced, and prints the per-layer metrics of ``layer_map.json`` plus the
tracing overhead (the difference in mean operation time between the two).

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines before it give the
machine record, the tail percentile, the failure breakdown and the output
digest.  Full results go to ``bench/results/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
BLAS_THREADS = 1  # at most nproc; more threads made the tail noisier on 2 vCPUs
SETUP_SAMPLES = 7
WORKER_TIMEOUT_S = 150
# Capped at p90, so a workload keeps its percentile while its speed changes
# severalfold, and the tail stays steady from run to run.
TAIL_PERCENTILES = (90.0, 75.0, 50.0)
TAIL_BEYOND = 10

sys.path.insert(0, str(BENCH))
from workloads import OK, WORKLOADS, WRONG_OUTPUT  # noqa: E402


def fail(message: str) -> int:
    print(f"bench: {message}", file=sys.stderr)
    return 1


def machine_record() -> dict:
    cpu = None
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu or platform.processor(),
        "platform": platform.platform(),
        "blas_threads_pinned": BLAS_THREADS,
    }


def run_worker(args, work: Path, result: Path, seconds: float, extra=()) -> dict:
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    env["PYTHONPATH"] = str(SRC)
    cmd = [sys.executable, str(BENCH / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(seconds), "--work", str(work),
           "--result", str(result), *extra]
    proc = subprocess.run(cmd, env=env, cwd=ROOT, stdout=subprocess.DEVNULL,
                          stderr=subprocess.PIPE, text=True, timeout=WORKER_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited {proc.returncode}:\n{proc.stderr[-3000:]}")
    doc = json.loads(result.read_text())
    if Path(doc["ophp"]).resolve().parent.parent != SRC.resolve():
        raise RuntimeError(f"imported ophp from {doc['ophp']}, not from {SRC}")
    return doc


def tail(ms: list) -> tuple[float, float, int]:
    """Highest percentile of TAIL_PERCENTILES with at least TAIL_BEYOND
    samples beyond it (nearest rank); the median when there are too few."""
    data = sorted(ms)
    n = len(data)
    for p in TAIL_PERCENTILES:
        rank = max(1, math.ceil(p / 100.0 * n))
        if n - rank >= TAIL_BEYOND:
            return data[rank - 1], p, n - rank
    rank = max(1, math.ceil(n / 2))
    return data[rank - 1], 50.0, n - rank


def first_cycle_digest(doc: dict) -> str:
    h = hashlib.sha256()
    for op in doc["ops"][: doc["cycle_len"]]:
        h.update(op["digest"].encode())
    return h.hexdigest()


def outcome_counts(docs) -> dict:
    counts = {}
    for doc in docs:
        for op in doc["ops"]:
            if op["outcome"] != OK:
                key = f"{op['kind']}: {op['outcome']}: {op['detail']}"
                counts[key] = counts.get(key, 0) + 1
    return counts


def end_to_end(args, work: Path, results: Path) -> tuple[dict, list, dict]:
    main_doc = run_worker(args, work / "main", results / "main.json", args.seconds)
    setups = [
        run_worker(args, work / f"setup{i}", results / f"setup{i}.json", 0.0, ["--setup-only"])
        ["setup_s"]
        for i in range(SETUP_SAMPLES)
    ]
    ms = [op["ms"] for op in main_doc["ops"]]
    tail_ms, tail_p, beyond = tail(ms)
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "throughput_ops_s": (len(ms) / main_doc["busy_s"], "1/s"),
        "op_ms_p50": (statistics.median(ms), "ms"),
        "op_ms_tail": (tail_ms, "ms"),
        "peak_rss_mb": (main_doc["peak_rss_mb"], "MB"),
    }
    info = {"setup_samples_s": setups, "tail_percentile": tail_p, "tail_beyond": beyond,
            "samples": len(ms), "cycles": main_doc["cycles"],
            "wall_op_ms_p50": statistics.median(op["wall_ms"] for op in main_doc["ops"]),
            "wall_throughput_ops_s": 1e3 * len(ms) / sum(op["wall_ms"] for op in main_doc["ops"])}
    return metrics, [main_doc], info


def per_layer(args, work: Path, results: Path) -> tuple[dict, list, dict]:
    layer_map = json.loads((BENCH / "layer_map.json").read_text())
    half = args.seconds / 2.0
    plain = run_worker(args, work / "plain", results / "plain.json", half)
    traced = run_worker(args, work / "traced", results / "traced.json", half, ["--trace"])
    ops = len(traced["ops"])
    metrics = {}
    for entry in layer_map["metrics"]:
        name, unit = entry["name"], entry["unit"]
        if name == "trace.overhead_ms":
            value = 1e3 * (traced["busy_s"] / ops - plain["busy_s"] / len(plain["ops"]))
        elif name.startswith("setup."):
            value = traced["layers_setup"].get(name[len("setup."):], 0)
        else:
            value = traced["layers_op"].get(name, 0) / ops
        metrics[name] = (value, unit)
    spans = traced.pop("spans")
    (results / "spans.json").write_text(json.dumps(spans))
    info = {"traced_ops": ops, "untraced_ops": len(plain["ops"]), "spans": len(spans),
            "spans_per_op": len([s for s in spans if s["phase"] == "op"]) / ops}
    return metrics, [plain, traced], info


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seed < 0:
        return fail("--seed must be nonnegative")
    if args.seconds <= 0:
        return fail("--seconds must be positive")
    if not (SRC / "ophp" / "__init__.py").is_file():
        return fail(f"no ophp package under {SRC}; run from a source checkout")

    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    work = BENCH / "work" / f"{tag}-{os.getpid()}"
    results = BENCH / "results" / tag
    shutil.rmtree(results, ignore_errors=True)
    results.mkdir(parents=True)
    try:
        measure = per_layer if args.trace else end_to_end
        metrics, docs, info = measure(args, work, results)
    except (RuntimeError, subprocess.TimeoutExpired, OSError, ValueError, KeyError) as exc:
        return fail(str(exc))
    finally:
        shutil.rmtree(work, ignore_errors=True)

    attempted = sum(len(d["ops"]) for d in docs)
    failed = sum(o["outcome"] != OK for d in docs for o in d["ops"])
    correct = not any(o["outcome"] == WRONG_OUTPUT for d in docs for o in d["ops"])
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "probe": docs[0]["probe"],
        "machine": {**machine_record(), **{k: docs[0][k] for k in
                                           ("python", "numpy", "blas", "blas_version", "blas_threads")}},
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "attempted": attempted, "failed": failed, "failed_share": failed / attempted,
        "failures": outcome_counts(docs), "correct": correct,
        "digest": first_cycle_digest(docs[0]),
        **info,
    }
    (results / "result.json").write_text(json.dumps(record, indent=2))

    print(f"machine: {json.dumps(record['machine'])}")
    for name, (value, unit) in metrics.items():
        print(f"{name}: {value:.6g} {unit}")
    if not args.trace:
        print(f"op_ms_tail is p{info['tail_percentile']:g} of {info['samples']} operations "
              f"({info['tail_beyond']} beyond it; {info['cycles']} cycles)")
        print(f"wall clock: op_ms_p50 {info['wall_op_ms_p50']:.6g} ms, "
              f"throughput {info['wall_throughput_ops_s']:.6g} 1/s")
    print(f"failed_share: {record['failed_share']:.4f} ({failed}/{attempted})")
    for key, count in record["failures"].items():
        print(f"  failed {count}x  {key}")
    print(f"digest (first cycle): {record['digest']}")
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": record["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
