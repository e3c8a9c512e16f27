"""The four benchmark workloads and their reference checks.

Each workload generates its inputs from the benchmark seed (``setup``),
runs one operation per call of ``run`` in a fixed cycle, and checks each
outcome against a reference computed here with numpy (never with ophp) or
against the documented exit code.  Outcomes:

* ``ok``: the documented status and a verified result;
* ``wrong_status``: another exit code than documented, an exception that
  escaped ``cli.main``, or a FAIL verdict on a correct model;
* ``wrong_output``: the documented status with a result that disagrees
  with the reference, or with the bytes the same request gave earlier in
  the run.

Both count as failed operations; only ``wrong_output`` makes the run
incorrect.
"""

from __future__ import annotations

import hashlib
import io
import json
import shutil
from dataclasses import dataclass
from pathlib import Path

import numpy as np

# Bound before the tracer wraps numpy.linalg, so the benchmark's own input
# generation and references are not counted as the program's factorizations.
from numpy.linalg import inv, qr, solve, svd

OK, WRONG_STATUS, WRONG_OUTPUT = "ok", "wrong_status", "wrong_output"

EXIT_OK, EXIT_INPUT_ERROR = 0, 1

# ---------------------------------------------------------------------------
# Inputs and references, in numpy only
# ---------------------------------------------------------------------------

EUCLIDEAN, SINE = "abstract-euclidean", "sine-dirichlet"


def ramp(dim):
    mult = np.arange(1, dim + 1, dtype=float)
    mult[0] = 0.0
    return mult


def laplacian(dim):
    return (np.pi * np.arange(1, dim + 1, dtype=float)) ** 2


def seeded_sigmas(dim, seed):
    """Uniform(0.5, 2) observation and signal variances, as ``ophp example``
    draws them, so generated configs equal the CLI's own examples."""
    rng = np.random.default_rng(seed)
    return rng.uniform(0.5, 2.0, dim), rng.uniform(0.5, 2.0, dim)


def rotation(dim, seed, tag):
    q, _ = qr(np.random.default_rng([seed, tag]).standard_normal((dim, dim)))
    return q


def conjugate(q, diag):
    return (q * diag) @ q.T


def sine_basis(t, dim):
    return np.sqrt(2.0) * np.sin(np.pi * np.outer(t, np.arange(1, dim + 1)))


def trapezoid(t):
    w = np.empty_like(t)
    w[0] = (t[1] - t[0]) / 2.0
    w[-1] = (t[-1] - t[-2]) / 2.0
    w[1:-1] = (t[2:] - t[:-2]) / 2.0
    return w


def green_matrix(dim, points):
    """Sine-basis matrix of the Dirichlet Green kernel by trapezoid quadrature."""
    nodes = np.linspace(0.0, 1.0, points)
    w = np.full(points, 1.0 / (points - 1))
    w[0] = w[-1] = w[0] / 2.0
    t, s = nodes[:, None], nodes[None, :]
    kernel = np.where(s <= t, (1.0 - t) * s, t * (1.0 - s))
    basis = sine_basis(nodes, dim)
    mat = basis.T @ (w[:, None] * kernel * w[None, :]) @ basis
    return 0.5 * (mat + mat.T)


def trend_system_inverse(a, su, sv):
    """inv(I + A* B A) for B = pinv(A)* Su A* Sv^-1 and invertible A, where
    A* B A = Su A* Sv^-1 A.  For invertible A this is also the conditional-mean
    slope."""
    dim = a.shape[0]
    return inv(np.eye(dim) + su @ a.T @ solve(sv, a))


def optimal_b_dense(a, su, sv):
    return solve(a.T, su @ a.T @ inv(sv))


def ratio_on_range(su, sv, a_mult):
    return np.where(a_mult != 0.0, su / sv, 0.0)


def close(actual, expected, tol):
    actual = np.asarray(actual, dtype=float)
    expected = np.asarray(expected, dtype=float)
    if actual.shape != expected.shape or not np.all(np.isfinite(actual)):
        return False
    return float(np.abs(actual - expected).max(initial=0.0)) <= tol


def rel_close(actual, expected, rtol):
    scale = float(np.abs(np.asarray(expected, dtype=float)).max(initial=0.0))
    return close(actual, expected, rtol * max(scale, 1e-300))


def read_series(path):
    lines = Path(path).read_text().splitlines()
    rows = np.array([line.split(",") for line in lines[1:]], dtype=float)
    return rows[:, 1], rows[:, 2]


def write_series(path, t, values):
    rows = zip(np.asarray(t, float).tolist(), np.asarray(values, float).tolist())
    lines = ["index,t,value"] + [f"{i},{ti!r},{vi!r}" for i, (ti, vi) in enumerate(rows)]
    Path(path).write_text("\n".join(lines) + "\n")


def write_config(path, doc):
    Path(path).write_text(json.dumps(doc))


def diag_doc(values):
    return {"kind": "diagonal", "values": [float(v) for v in values]}


def dense_doc(mat):
    return {"kind": "dense", "rows": mat.tolist()}


def dir_digest(path):
    """sha256 over the names and bytes of the files directly in ``path``."""
    h = hashlib.sha256()
    for f in sorted(Path(path).iterdir()):
        if f.is_file():
            h.update(f.name.encode() + b"\0" + f.read_bytes() + b"\0")
    return h.hexdigest()


def clear_dir(path):
    shutil.rmtree(path, ignore_errors=True)


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------


@dataclass
class Op:
    kind: str
    argv: list | None = None
    out: Path | None = None
    expect: int = EXIT_OK


class Workload:
    """Base class: ``cycle`` lists the operations one pass runs in order."""

    name = ""
    probe = "interpreter"  # the probe.py computation its operations resemble
    warmup_ops = 1
    repeats = True  # a cycle position repeats its request byte for byte

    def __init__(self, seed: int, work: Path):
        self.seed = seed
        self.work = work
        self.cycle: list[Op] = []

    def fixed_cycles(self, seconds: float) -> int | None:
        """Cycles the timed phase runs, or None to run cycles until
        ``seconds`` of operation time have passed."""
        return None

    def setup(self, ophp) -> None:
        raise NotImplementedError

    def prepare_checks(self) -> None:
        """Reference data the checks need; not part of set-up time."""

    def before(self, k: int, op: Op):
        """Untimed per-operation preparation; returns the run argument."""
        if op.out is not None:
            clear_dir(op.out)
        return op.argv

    def run(self, ophp, arg):
        try:
            return ophp.cli.main(arg)
        except Exception as exc:  # escaping cli.main is a failed operation
            return exc

    def check(self, k: int, op: Op, result):
        """Returns (outcome, detail, digest of the outputs)."""
        raise NotImplementedError

    def check_exit(self, op: Op, result):
        if isinstance(result, Exception):
            return f"{type(result).__name__} escaped cli.main"
        if result != op.expect:
            return f"exit {result}, documented {op.expect}"
        return None


class FilterBatch(Workload):
    """Library use: a fresh series through solve_filter and conditional_mean,
    alternating a Green-kernel model and a rotated-ramp dense model."""

    name = "filter-batch"
    probe = "blas"
    warmup_ops = 2
    repeats = False
    DIM, GRID = 256, 512

    def setup(self, ophp):
        n = self.DIM
        su, sv = seeded_sigmas(n, [self.seed, 1])
        a = ophp.kernel_operator("dirichlet_green", n, self.GRID)
        green = ophp.GaussianModel.build(
            a, ophp.diagonal_operator(su, SINE), ophp.diagonal_operator(sv, SINE)
        )
        q = rotation(n, self.seed, 2)
        ru, rv = seeded_sigmas(n, [self.seed, 3])
        rot = ophp.GaussianModel.build(
            ophp.dense_operator(conjugate(q, ramp(n))),
            ophp.dense_operator(conjugate(q, ru)),
            ophp.dense_operator(conjugate(q, rv)),
        )
        self.models = [(green, ophp.optimal_b(green)), (rot, ophp.optimal_b(rot))]
        self.params = {"green": (su, sv), "rot": (q, ru, rv)}
        self.cycle = [Op("green"), Op("rotated-ramp")]
        self.ophp = ophp

    def prepare_checks(self):
        n = self.DIM
        su, sv = self.params["green"]
        # inv(I + A*BA) is also the slope of the conditional mean here.
        self.green_inv = trend_system_inverse(green_matrix(n, self.GRID), np.diag(su), np.diag(sv))
        q, ru, rv = self.params["rot"]
        a = ramp(n)
        qv = np.divide(rv, a**2, out=np.zeros(n), where=a != 0.0)
        self.rot_trend = 1.0 / (1.0 + ratio_on_range(ru, rv, a) * a**2)
        self.rot_slope = qv / (ru + qv)

    def before(self, k, op):
        model, bhat = self.models[k % 2]
        x = np.random.default_rng([self.seed, 4, k]).standard_normal(self.DIM)
        return model, bhat, self.ophp.CoeffVector(x, model.a.domain_basis)

    def run(self, ophp, arg):
        model, bhat, x = arg
        trend = ophp.solve_filter(ophp.FilterProblem(model.a, x, bhat))
        return x.coeffs, trend.coeffs, ophp.conditional_mean(model, x).coeffs

    def check(self, k, op, result):
        x, trend, mean = result
        scale = 1.0 + float(np.linalg.norm(x))
        if op.kind == "green":
            ref_trend = ref_mean = self.green_inv @ x
            # The conditional mean inverts sigma_u + Q_v, whose spectrum spans
            # ~(dim pi)^4; its rounding sets the looser mean tolerance.
            tol_trend, tol_mean = 1e-9 * scale, 1e-6 * scale
        else:
            q = self.params["rot"][0]
            qx = q.T @ x
            ref_trend = q @ (self.rot_trend * qx)
            ref_mean = q @ (self.rot_slope * qx)
            tol_trend = tol_mean = 1e-9 * scale
        digest = hashlib.sha256(trend.tobytes() + mean.tobytes()).hexdigest()
        if not close(trend, ref_trend, tol_trend):
            return WRONG_OUTPUT, "trend differs from the numpy reference", digest
        if not close(mean, ref_mean, tol_mean):
            return WRONG_OUTPUT, "conditional mean differs from the numpy reference", digest
        return OK, "", digest


class CliSession(Workload):
    """CLI use in-process: example/filter/optimal-b/scale on the built-in
    instances, filter/optimal-b/scale on dense and kernel configs, and three
    error-path requests whose documented outcome is exit 1."""

    name = "cli-session"
    BIG, SMALL, FINE_GRID = 256, 128, 1025

    def setup(self, ophp):
        w, s, n = self.work, self.seed, self.SMALL
        w.mkdir(parents=True, exist_ok=True)
        scale_doc = {"kappa_decay": 2.0, "sigma_u_decay": 0.0, "sigma_v_decay": 0.0}

        # Rotated ramp with commuting dense covariances.
        q = rotation(n, s, 5)
        su, sv = seeded_sigmas(n, [s, 6])
        write_series(w / "dense-x.csv", np.arange(n, dtype=float),
                     np.random.default_rng([s, 7]).standard_normal(n))
        write_config(w / "dense.json", {
            "operator": {"kind": "dense", "rows": conjugate(q, ramp(n)).tolist()},
            "sigma_u": dense_doc(conjugate(q, su)), "sigma_v": dense_doc(conjugate(q, sv)),
            "truncation_dim": n, "seed": s, "input_path": "dense-x.csv", "scale": scale_doc,
        })
        # The same operator with diagonal covariances, which do not commute
        # with it: the optimal smoother fails the positivity check.
        gu, gv = seeded_sigmas(n, [s, 8])
        write_config(w / "noncommuting.json", {
            "operator": {"kind": "dense", "rows": conjugate(q, ramp(n)).tolist()},
            "sigma_u": diag_doc(gu), "sigma_v": diag_doc(gv),
            "truncation_dim": n, "seed": s, "input_path": "dense-x.csv",
        })
        # Green kernel with functional input; n = 0 keeps the scale report
        # well posed, the error-path request asks for n = 1.
        t = np.linspace(0.0, 1.0, self.FINE_GRID)
        coeffs = np.random.default_rng([s, 9]).standard_normal(n) / np.arange(1, n + 1)
        write_series(w / "green-x.csv", t, sine_basis(t, n) @ coeffs)
        write_config(w / "green.json", {
            "operator": {"kind": "kernel", "name": "dirichlet_green", "grid_points": 512},
            "sigma_u": diag_doc(gu), "sigma_v": diag_doc(gv),
            "truncation_dim": n, "seed": s, "input_path": "green-x.csv",
            "scale": {"n": 0, "kappa_decay": 4.0, "sigma_u_decay": 0.0, "sigma_v_decay": 0.0},
        })
        nan = np.random.default_rng([s, 10]).standard_normal(self.BIG)
        nan[7] = np.nan
        write_series(w / "nan-x.csv", np.arange(self.BIG, dtype=float), nan)
        self.params = {"dense": (q, su, sv), "green": (gu, gv)}

        def op(kind, *argv, expect=EXIT_OK):
            out = w / kind
            return Op(kind, [*map(str, argv), "--out", str(out)], out, expect)

        cycle = []
        for name, which, extra in (("ramp", 1, []), ("lap", 2, ["--grid-points", self.FINE_GRID])):
            cfg = w / name / "config.json"
            cycle += [
                op(name, "example", "--which", which, "--dim", self.BIG, "--seed", s, *extra),
                op(f"{name}-filter", "filter", "--config", cfg),
                op(f"{name}-optimal-b", "optimal-b", "--config", cfg),
                op(f"{name}-scale", "scale", "--config", cfg),
            ]
        for name in ("dense", "green"):
            cfg = w / f"{name}.json"
            cycle += [
                op(f"{name}-filter", "filter", "--config", cfg),
                op(f"{name}-optimal-b", "optimal-b", "--config", cfg),
                op(f"{name}-scale", "scale", "--config", cfg),
            ]
        cycle += [
            op("err-positivity", "filter", "--config", w / "noncommuting.json",
               expect=EXIT_INPUT_ERROR),
            op("err-singular-scale", "scale", "--config", w / "green.json", "--scale-n", 1,
               expect=EXIT_INPUT_ERROR),
            op("err-nan-input", "filter", "--config", w / "ramp" / "config.json",
               "--input", w / "nan-x.csv", expect=EXIT_INPUT_ERROR),
        ]
        self.cycle = cycle
        self.warmup_ops = len(cycle)

    def prepare_checks(self):
        n = self.SMALL
        gu, gv = self.params["green"]
        a = green_matrix(n, 512)
        self.green = {
            "inv": trend_system_inverse(a, np.diag(gu), np.diag(gv)),
            "bhat": optimal_b_dense(a, np.diag(gu), np.diag(gv)),
            "kappa": svd(a, compute_uv=False) ** 2,
        }

    def instance(self, name):
        cfg = json.loads((self.work / name / "config.json").read_text())
        su = np.array(cfg["sigma_u"]["values"])
        sv = np.array(cfg["sigma_v"]["values"])
        a = ramp(self.BIG) if name == "ramp" else laplacian(self.BIG)
        return a, su, sv

    def check(self, k, op, result):
        digest = dir_digest(op.out) if op.out.is_dir() else ""
        problem = self.check_exit(op, result)
        if problem:
            return WRONG_STATUS, problem, digest
        if op.expect != EXIT_OK:
            return OK, "", digest
        try:
            problem = self.check_outputs(op)
        except (OSError, KeyError, ValueError, TypeError, IndexError) as exc:
            problem = f"unreadable output: {exc!r}"
        return (WRONG_OUTPUT if problem else OK), problem or "", digest

    def check_outputs(self, op):
        kind, out = op.kind, op.out
        base = kind.split("-")[0]
        load = lambda f: json.loads((out / f).read_text())  # noqa: E731
        if base in ("ramp", "lap"):
            a, su, sv = self.instance(base)
            b = ratio_on_range(su, sv, a)
            f = 1.0 / (1.0 + b * a**2)
            if kind == base:
                exp = load("expected.json")
                t, _ = read_series(out / "x.csv")
                rows = self.BIG if base == "ramp" else self.FINE_GRID
                if t.shape[0] != rows:
                    return "x.csv has the wrong number of rows"
                if not (rel_close(exp["bhat_multipliers"], b, 1e-14)
                        and rel_close(exp["filter_multipliers"], f, 1e-14)):
                    return "expected.json differs from the closed form"
                return None
            if kind.endswith("-filter"):
                t, x = read_series(self.work / base / "x.csv")
                tt, trend = read_series(out / "trend.csv")
                _, resid = read_series(out / "residual.csv")
                if base == "ramp":
                    mult = np.array(json.loads((self.work / base / "expected.json").read_text())
                                    ["filter_multipliers"])
                    ref = x * mult
                else:
                    basis = sine_basis(t, self.BIG)
                    ref = basis @ (f * (basis.T @ (trapezoid(t) * x)))
                scale = 1.0 + float(np.abs(x).max())
                if not (close(tt, t, 0.0) and close(trend, ref, 1e-10 * scale)
                        and close(resid, x - trend, 1e-12 * scale)):
                    return "trend differs from the closed form"
                return None
            if kind.endswith("-optimal-b"):
                return None if rel_close(load("bhat.json")["bhat"]["multipliers"], b, 1e-12) \
                    else "smoother differs from sigma_u / sigma_v"
            doc = load("scale.json")
            keep = a != 0.0
            kappa = a[keep] ** 2
            inv_sq = np.divide(1.0, a**2, out=np.zeros_like(a), where=keep)
            if not (doc["n"] == 1 and rel_close(doc["kappa"], kappa, 1e-12)
                    and rel_close(doc["weights"], kappa, 1e-12)
                    and close(doc["sigma_u_rescaled"], su * inv_sq**2, 1e-12 * float((su * inv_sq**2).max()))
                    and rel_close(doc["scaled_bhat_multipliers"], b, 1e-10)):
                return "scale report differs from the closed form"
            return None
        if base == "dense":
            q, su, sv = self.params["dense"]
            a = ramp(self.SMALL)
            b = ratio_on_range(su, sv, a)
            if kind.endswith("-filter"):
                _, x = read_series(self.work / "dense-x.csv")
                _, trend = read_series(out / "trend.csv")
                ref = q @ ((q.T @ x) / (1.0 + b * a**2))
                return None if close(trend, ref, 1e-9 * (1.0 + float(np.linalg.norm(x)))) \
                    else "dense trend differs from Q diag(1/(1+b a^2)) Q^T x"
            if kind.endswith("-optimal-b"):
                rows = load("bhat.json")["bhat"]["rows"]
                return None if rel_close(rows, conjugate(q, b), 1e-9) \
                    else "dense smoother differs from Q diag(su/sv) Q^T"
            doc = load("scale.json")
            kappa = np.sort(a[a != 0.0])[::-1] ** 2
            return None if doc["n"] == 1 and rel_close(doc["kappa"], kappa, 1e-9) \
                else "dense scale eigenvalues differ from the ramp spectrum"
        # green
        g = self.green
        if kind.endswith("-filter"):
            t, x = read_series(self.work / "green-x.csv")
            _, trend = read_series(out / "trend.csv")
            basis = sine_basis(t, self.SMALL)
            ref = basis @ (g["inv"] @ (basis.T @ (trapezoid(t) * x)))
            return None if close(trend, ref, 1e-9 * (1.0 + float(np.abs(x).max()))) \
                else "kernel trend differs from inv(I + A*BA) x"
        if kind.endswith("-optimal-b"):
            rows = load("bhat.json")["bhat"]["rows"]
            return None if rel_close(rows, g["bhat"], 1e-8) \
                else "kernel smoother differs from inv(A)* Su A* inv(Sv)"
        doc = load("scale.json")
        return None if doc["n"] == 0 and rel_close(doc["kappa"], g["kappa"], 1e-9) \
            and doc["weights"] == [1.0] * len(doc["weights"]) \
            else "kernel scale eigenvalues differ from the squared singular values"


class Validate(Workload):
    """One ``validate`` call per operation on a correct model; the documented
    verdict is PASS (exit 0)."""

    name = "validate"
    probe = "blas"
    CHECKS = {
        "moore-penrose", "noise-projector-commutation", "conditional-mean-regression",
        "optimal-smoother-gap", "grid-argmin", "white-noise-ratio",
    }

    # Seconds of one cycle at the seed commit, at the reference speed.
    NOMINAL_CYCLE_S = 5.3

    def fixed_cycles(self, seconds):
        # Which models FAIL depends on the seed, so a count of cycles that
        # followed the machine's speed would make the failed share of a set
        # of runs vary; a count fixed by --seconds keeps it a function of
        # the seeds alone.
        return max(1, round(seconds / self.NOMINAL_CYCLE_S))

    def setup(self, ophp):
        w, s = self.work, self.seed
        w.mkdir(parents=True, exist_ok=True)
        white = {"sigma_u_decay": 0.0, "sigma_v_decay": 0.0}
        specs = []
        for name, dim in (("ramp-64", 64), ("lap-64", 64), ("ramp-256", 256)):
            su, sv = seeded_sigmas(dim, s)
            lap = name.startswith("lap")
            specs.append((name, {
                "operator": {"kind": "diagonal", "basis": SINE if lap else EUCLIDEAN,
                             "multipliers": (laplacian(dim) if lap else ramp(dim)).tolist()},
                "sigma_u": diag_doc(su), "sigma_v": diag_doc(sv), "truncation_dim": dim,
                "seed": s, "scale": {"kappa_decay": 4.0 if lap else 2.0, **white},
            }))
        q = rotation(64, s, 11)
        su, sv = seeded_sigmas(64, [s, 12])
        specs.append(("dense-64", {
            "operator": {"kind": "dense", "rows": conjugate(q, ramp(64)).tolist()},
            "sigma_u": dense_doc(conjugate(q, su)), "sigma_v": dense_doc(conjugate(q, sv)),
            "truncation_dim": 64, "seed": s, "scale": {"kappa_decay": 2.0, **white},
        }))
        for name, doc in specs:
            write_config(w / f"{name}.json", doc)
            self.cycle.append(Op(name, ["validate", "--config", str(w / f"{name}.json"),
                                        "--out", str(w / name)], w / name))

    def check(self, k, op, result):
        digest = dir_digest(op.out) if op.out.is_dir() else ""
        problem = self.check_exit(op, result)
        try:
            doc = json.loads((op.out / "validation.json").read_text())
        except (OSError, ValueError) as exc:
            if problem:
                return WRONG_STATUS, problem, digest
            return WRONG_OUTPUT, f"unreadable validation.json: {exc!r}", digest
        names = {c["name"] for c in doc["checks"]}
        verdict_exit = EXIT_OK if doc["overall"] == "PASS" else 2
        if names - self.CHECKS or "conditional-mean-regression" not in names:
            return WRONG_OUTPUT, f"unexpected checks {sorted(names)}", digest
        if not isinstance(result, Exception) and result != verdict_exit:
            return WRONG_OUTPUT, f"exit {result} disagrees with overall {doc['overall']}", digest
        if problem:
            failing = [c["name"] for c in doc["checks"] if c["status"] == "FAIL"]
            return WRONG_STATUS, f"{problem}: FAIL in {failing}", digest
        return OK, "", digest


class Simulate(Workload):
    """One ``simulate --count 2000`` call per operation on the ramp at dim 64,
    each with its own derived seed."""

    name = "simulate"
    repeats = False
    DIM, COUNT = 64, 2000

    def setup(self, ophp):
        w, n = self.work, self.DIM
        w.mkdir(parents=True, exist_ok=True)
        su, sv = seeded_sigmas(n, self.seed)
        write_config(w / "ramp.json", {
            "operator": {"kind": "diagonal", "multipliers": ramp(n).tolist()},
            "sigma_u": diag_doc(su), "sigma_v": diag_doc(sv),
            "truncation_dim": n, "seed": self.seed,
        })
        self.cycle = [Op("simulate", None, w / "out")]

    def derived_seed(self, k):
        return self.seed * 1_000_003 + k

    def before(self, k, op):
        clear_dir(op.out)
        return ["simulate", "--config", str(self.work / "ramp.json"), "--count", str(self.COUNT),
                "--seed", str(self.derived_seed(k)), "--out", str(op.out)]

    def check(self, k, op, result):
        digest = dir_digest(op.out) if op.out.is_dir() else ""
        problem = self.check_exit(op, result)
        if problem:
            return WRONG_STATUS, problem, digest
        try:
            header, body = (op.out / "samples.csv").read_text().split("\n", 1)
            rows = np.loadtxt(io.StringIO(body), delimiter=",", ndmin=2)
            summary = json.loads((op.out / "simulate_summary.json").read_text())
        except (OSError, ValueError) as exc:
            return WRONG_OUTPUT, f"unreadable output: {exc!r}", digest
        n, count = self.DIM, self.COUNT
        if header != "draw,component,u,v,y,x" or rows.shape != (count * n, 6):
            return WRONG_OUTPUT, "samples.csv has the wrong shape", digest
        draw, comp, u, v, y, x = rows.T
        if not (np.array_equal(draw, np.repeat(np.arange(count), n))
                and np.array_equal(comp, np.tile(np.arange(n), count))):
            return WRONG_OUTPUT, "samples.csv rows are out of order", digest
        if not np.array_equal(x, y + u):
            return WRONG_OUTPUT, "x != y + u on re-parsed rows", digest
        if np.any(v[comp == 0] != 0.0) or np.any(y[comp == 0] != 0.0):
            return WRONG_OUTPUT, "signal has mass in the ramp's null space", digest
        if not (summary["count"] == count and summary["dim"] == n
                and summary["seed"] == self.derived_seed(k)
                and rel_close(summary["mean_x"], x.reshape(count, n).mean(axis=0), 1e-9)):
            return WRONG_OUTPUT, "simulate_summary.json disagrees with samples.csv", digest
        return OK, "", digest


WORKLOADS = {w.name: w for w in (FilterBatch, CliSession, Validate, Simulate)}
