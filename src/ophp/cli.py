"""Command-line front end.

Subcommands: ``filter``, ``optimal-b``, ``example``, ``simulate``,
``validate``, ``scale``.  Exit codes: 0 on success, 1 on input errors
(including non-finite numbers and models the algebra rejects), 2 when a
validation report contains a FAIL.  All randomness flows from the
configured seed; outputs are byte-identical for identical (config, seed) at a
fixed BLAS thread count.
"""

from __future__ import annotations

import argparse
import functools
import json
import shutil
import sys
import weakref
from dataclasses import replace
from itertools import repeat
from pathlib import Path

import numpy as np

from . import instances
from .filter import (
    FilterProblem,
    FilterSolveError,
    PositivityError,
    filter_multipliers,
    solve_filter,
)
from .gaussian import ModelError, sample_joint_blocks
from .operators import (
    BASIS_EUCLIDEAN,
    BASIS_SINE,
    BasisMismatchError,
    CoeffVector,
    DimensionMismatchError,
    OperatorRep,
    apply,
    check_sine_resolution,
    euclidean_norm,
    sine_basis_matrix,
)
from .scales import MAX_SCALE_N, rescaled_cores, scale_index, scaled_optimal_b
from .smoothing import SingularCovarianceError, optimal_b
from .specs import (
    RunConfig,
    SpecError,
    load_config,
    operator_to_json,
    parse_config,
    read_float,
    read_int,
)
from .validate import run_validation, white_noise_scale_check


class InputError(ValueError):
    """Bad user input (maps to exit code 1)."""


# Errors that mean the request cannot be served from its input; each exits 1.
DOMAIN_ERRORS = (
    InputError,
    SpecError,
    OSError,
    PositivityError,
    SingularCovarianceError,
    ModelError,
    DimensionMismatchError,
    BasisMismatchError,
    FilterSolveError,
)


# ---------------------------------------------------------------------------
# Deterministic serialization
# ---------------------------------------------------------------------------


# Draws of ``simulate`` whose lines are built and written at a time: the
# byte array of one block's lines, with the scratch of the repr kernel, is
# all the text held in memory.  At dim 64 a block's vectors are 4096 floats,
# one pass of the kernel (``_shortest.PASS_VALUES``).
SAMPLE_BLOCK_DRAWS = 64

# How far a functional sample grid may reach outside [0, 1]: an allowance
# for grids written as rounded decimal text, not a rounding bound.
GRID_BOUND_TOL = 1e-9

# Item types that send a container to the C encoder in one call.  Matched
# exactly so one set test covers every item; subclasses such as numpy's
# float64 take the item-by-item path, which writes the same bytes.
_JSON_SCALARS = frozenset((str, int, float, bool, type(None)))


# Text of the operators written, per indent, keyed on the operator.  Operators
# are immutable and hash by identity, and an entry goes when its operator is
# collected: a kept smoother's text lives as long as the smoother.
_OPERATOR_TEXTS: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()


def _json_text(obj, pad: str = "") -> str:
    """``json.dumps(obj, indent=2, sort_keys=True)`` for ``obj`` at indent ``pad``.

    ``json`` runs its pure-Python encoder whenever ``indent`` is set.  Here
    every container whose items are all plain scalars goes to the C encoder
    in one call, with the indented item separator; only the nesting above
    them is walked in Python.  An :class:`OperatorRep` is written as its
    ``operator_to_json`` document, rendered once per operator and indent and
    kept while the operator lives.
    """
    if isinstance(obj, OperatorRep):
        texts = _OPERATOR_TEXTS.setdefault(obj, {})
        if pad not in texts:
            texts[pad] = _json_text(operator_to_json(obj), pad)
        return texts[pad]
    if isinstance(obj, dict):
        items, brackets = obj.values(), "{}"
    elif isinstance(obj, (list, tuple)):
        items, brackets = obj, "[]"
    else:
        return json.dumps(obj)
    if not items:
        return brackets
    inner = pad + "  "
    sep = ",\n" + inner
    if set(map(type, items)) <= _JSON_SCALARS:
        body = json.dumps(obj, sort_keys=True, separators=(sep, ": "))[1:-1]
    elif not isinstance(obj, dict):
        body = sep.join([_json_text(v, inner) for v in obj])
    elif all(isinstance(k, str) for k in obj):
        body = sep.join(
            [f"{json.dumps(k)}: {_json_text(obj[k], inner)}" for k in sorted(obj)]
        )
    else:  # non-str keys: let json coerce and order them
        return json.dumps(obj, indent=2, sort_keys=True).replace("\n", "\n" + pad)
    return f"{brackets[0]}\n{inner}{body}\n{pad}{brackets[1]}"


def write_json(path: Path, obj) -> None:
    path.write_text(_json_text(obj) + "\n")


def _csv_rows(keys, columns) -> str:
    """One CSV line per entry of ``keys``: the key, then one field per column.

    Floats are written as Python's shortest round-trip ``repr``, converted
    for the whole block at C level.
    """
    cells = [map(repr, np.asarray(c, dtype=float).tolist()) for c in columns]
    text = "\n".join(map(",".join, zip(keys, *cells)))
    return text + "\n" if text else ""


class _SampleRows:
    """The lines of ``samples.csv`` for ``count`` draws of vectors of
    ``lengths``, a block of at most ``SAMPLE_BLOCK_DRAWS`` draws at a time,
    built in one byte array kept for the request.

    A draw spans the longest vector, one line per component.  A line is
    written at fixed columns: the draw index, the component index, then one
    ``FIELD_BYTES`` field per vector, each after its comma, and the newline.
    Bytes a line does not use are 0 and are dropped, so a vector shorter
    than the draw leaves the fields past its end empty.
    """

    def __init__(self, count: int, lengths: tuple[int, ...]):
        # Imported here, so that only ``simulate`` loads the kernel's module.
        from ._shortest import FIELD_BYTES, ReprWriter

        width = max(lengths)
        self.lengths = lengths
        self.draw_bytes = len(str(count - 1))
        components = np.array([f",{j}" for j in range(width)], dtype=bytes)
        components = components[:, None].view(np.uint8)
        first, step = self.draw_bytes + components.shape[1] + 1, FIELD_BYTES + 1
        self.fields = [slice(first + n * step, first + n * step + FIELD_BYTES)
                       for n in range(len(lengths))]
        line = first + len(lengths) * step
        self.block = np.zeros((SAMPLE_BLOCK_DRAWS, width, line), np.uint8)
        self.block[:, :, self.draw_bytes : first - 1] = components
        self.block[:, :, first - 1 :: step] = ord(",")
        self.block[:, :, -1] = ord("\n")
        self.reprs = ReprWriter(width)

    def text(self, first: int, columns) -> str:
        """The lines of draws ``first, first + 1, ...``, one per row of
        each of ``columns``."""
        rows = self.block[: len(columns[0])]
        draws = map(str, range(first, first + len(rows)))
        keys = np.array(list(draws), dtype=f"S{self.draw_bytes}")
        rows[:, :, : self.draw_bytes] = keys[:, None, None].view(np.uint8)
        for column, length, field in zip(columns, self.lengths, self.fields):
            self.reprs.write(column, rows[:, :length, field])
        return rows[rows != 0].tobytes().decode()


def _grid_keys(t: np.ndarray) -> list[str]:
    """The ``index,t`` fields of each row of a series CSV on grid ``t``,
    rendered once for every file written on that grid."""
    return [f"{i},{node!r}" for i, node in enumerate(t.tolist())]


def write_series_csv(path: Path, t: np.ndarray | list[str], values: np.ndarray) -> None:
    """Write ``index,t,value`` rows; ``t`` is the grid or its :func:`_grid_keys`."""
    keys = _grid_keys(t) if isinstance(t, np.ndarray) else t
    path.write_text("index,t,value\n" + _csv_rows(keys, (values,)))


def read_series_csv(path: Path) -> tuple[np.ndarray | None, np.ndarray]:
    """Parse a numeric series; returns (t or None, values).

    Accepts one value per line, ``t,value`` rows, or ``index,t,value`` rows,
    all of one width, and blank lines.  The first non-blank line is a header
    if it is not numeric.  Every field is parsed by ``float`` in one pass.
    """
    try:
        text = Path(path).read_text()
    except (OSError, UnicodeDecodeError) as exc:
        raise InputError(f"cannot read input series {path}: {exc}") from exc
    # float() takes the padding str.strip takes, but for U+001F.
    text = text.replace("\x1f", " ")
    rows = list(filter(None, map(str.strip, text.splitlines())))
    if rows and not _numeric(rows[0]):
        del rows[0]  # header row
    if not rows:
        raise InputError(f"input series {path} is empty")
    fields = ",".join(rows).split(",")
    try:
        numbers = np.fromiter(map(float, fields), float, len(fields))
    except ValueError:
        raise InputError(_row_fault(text, path)) from None
    commas = set(map(str.count, rows, repeat(",")))
    if len(commas) > 1 or max(commas) > 2:
        raise InputError(_row_fault(text, path))
    # The index column of index,t,value rows is checked finite, not read.
    if not np.isfinite(numbers).all():
        raise InputError(f"input series {path} has non-finite values")
    table = numbers.reshape(len(rows), -1)
    t = table[:, -2].copy() if table.shape[1] > 1 else None
    return t, table[:, -1].copy()


def _numeric(line: str) -> bool:
    try:
        list(map(float, line.split(",")))
    except ValueError:
        return False
    return True


def _row_fault(text: str, path) -> str:
    """Why a series is refused: its first non-numeric row or row of more
    than three fields, in line order, or else its mixed row widths."""
    lines = [(n, line) for n, line in enumerate(text.splitlines(), 1) if line.strip()]
    for k, (n, line) in enumerate(lines):
        if not _numeric(line):
            if k:  # the first is a header
                return f"line {n} of {path} is not numeric"
        elif line.count(",") > 2:
            return f"line {n} of {path} has too many columns"
    return f"input series {path} mixes row formats"


def _trapezoid_weights(t: np.ndarray) -> np.ndarray:
    w = np.empty_like(t)
    w[0] = (t[1] - t[0]) / 2.0
    w[-1] = (t[-1] - t[-2]) / 2.0
    w[1:-1] = (t[2:] - t[:-2]) / 2.0
    return w


def project_series(
    t: np.ndarray | None, values: np.ndarray, dim: int, basis_id: str
) -> tuple[CoeffVector, np.ndarray, np.ndarray, np.ndarray | None]:
    """Project samples onto the declared basis; returns (coeffs, node grid,
    samples in grid order, basis values on the grid).  The basis values are
    ``sine_basis_matrix(grid, dim)``, or None for the euclidean basis, and
    can be handed to :func:`synthesize_series` on the same grid."""
    if basis_id == BASIS_EUCLIDEAN:
        if values.shape[0] != dim:
            raise InputError(
                f"series length {values.shape[0]} does not match truncation_dim {dim}"
            )
        grid = np.arange(dim, dtype=float) if t is None else t
        return CoeffVector(values, BASIS_EUCLIDEAN), grid, values, None
    if t is None:
        t = np.linspace(0.0, 1.0, values.shape[0])
    order = np.argsort(t)
    t = t[order]
    values = values[order]
    if np.any(np.diff(t) <= 0):
        raise InputError("sample grid must be strictly increasing")
    if t[0] < -GRID_BOUND_TOL or t[-1] > 1.0 + GRID_BOUND_TOL:
        raise InputError("sample grid must lie in [0, 1]")
    check_sine_resolution(values.shape[0], dim)
    weights = _trapezoid_weights(t)
    basis_vals = sine_basis_matrix(t, dim)
    coeffs = basis_vals.T @ (weights * values)
    return CoeffVector(coeffs, BASIS_SINE), t, values, basis_vals


def synthesize_series(
    x: CoeffVector, t: np.ndarray, basis_vals: np.ndarray | None = None
) -> np.ndarray:
    """Sample values of a coefficient vector on a grid.  ``basis_vals``,
    when given, is the sine basis on ``t`` and is not evaluated again."""
    if x.basis_id == BASIS_EUCLIDEAN:
        return x.coeffs.copy()
    if basis_vals is None:
        basis_vals = sine_basis_matrix(t, x.dim)
    return basis_vals @ x.coeffs


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


def _out_path(args, cfg: RunConfig | None = None) -> Path:
    if args.out is not None:
        return Path(args.out)
    if cfg is not None and cfg.output_path is not None:
        return Path(cfg.output_path)
    return Path(".")


def _out_dir(args, cfg: RunConfig | None = None) -> Path:
    """The output directory, created if missing.  Commands call it just
    before their first write, so a request that fails writes nothing."""
    out = _out_path(args, cfg)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _request(args) -> RunConfig:
    """The request's config, with the flags its command takes applied."""
    cfg = load_config(args.config)
    updates = {}
    if getattr(args, "seed", None) is not None:
        updates["seed"] = read_int(args.seed, "--seed", 0)
    if getattr(args, "scale_n", None) is not None:
        updates["scale_n"] = read_int(args.scale_n, "--scale-n", 0, MAX_SCALE_N)
    if getattr(args, "input", None) is not None:
        updates["input_path"] = Path(args.input)
    return replace(cfg, **updates) if updates else cfg


def cmd_filter(args) -> int:
    cfg = _request(args)
    model = cfg.model
    if cfg.input_path is None:
        raise InputError("filter needs an input series (input_path or --input)")
    t_in, values = read_series_csv(cfg.input_path)
    x, grid, samples, basis_vals = project_series(
        t_in, values, model.dim, model.a.domain_basis
    )
    if args.estimate_y0:
        y0 = apply(model.pinv_bundle.projector_complement, x)
        model = model.with_y0(y0, x.norm())
    bhat = optimal_b(model)
    trend = solve_filter(FilterProblem(model.a, x, bhat))
    trend_values = synthesize_series(trend, grid, basis_vals)
    residual_values = samples - trend_values
    summary = {
        "bhat": bhat,
        "filter_multipliers": (
            filter_multipliers(model.a, bhat).tolist()
            if model.is_diagonal
            else None
        ),
        "numerical_rank": model.pinv_bundle.numerical_rank,
        "truncation_dim": model.dim,
        "basis": model.a.domain_basis,
        "seed": cfg.seed,
        "input_points": int(values.shape[0]),
        "trend_norm": trend.norm(),
        "residual_norm": euclidean_norm(residual_values),
        "estimated_y0": bool(args.estimate_y0),
    }
    out = _out_dir(args, cfg)
    keys = _grid_keys(grid)
    write_series_csv(out / "trend.csv", keys, trend_values)
    write_series_csv(out / "residual.csv", keys, residual_values)
    write_json(out / "filter_summary.json", summary)
    return 0


def cmd_optimal_b(args) -> int:
    cfg = _request(args)
    model = cfg.model
    bhat = optimal_b(model)
    write_json(
        _out_dir(args, cfg) / "bhat.json",
        {
            "bhat": bhat,
            "numerical_rank": model.pinv_bundle.numerical_rank,
            "sv_threshold": model.pinv_bundle.sv_threshold,
            "seed": cfg.seed,
        },
    )
    return 0


def cmd_example(args) -> int:
    multipliers, basis, kappa_decay = instances.EXAMPLES[int(args.which)]
    dim = read_int(args.dim, "--dim", 2)
    seed = read_int(args.seed, "--seed", 0)
    grid_points = read_int(args.grid_points, "--grid-points", 2)
    su, sv = instances.seeded_sigmas(dim, seed)
    if args.sigma_u is not None:
        su = np.full(dim, read_float(args.sigma_u, "--sigma-u"))
    if args.sigma_v is not None:
        sv = np.full(dim, read_float(args.sigma_v, "--sigma-v"))
    if basis == BASIS_SINE:
        check_sine_resolution(grid_points, dim)
        grid = np.linspace(0.0, 1.0, grid_points)
    else:
        grid = np.arange(dim, dtype=float)

    a_mult = multipliers(dim)
    operator_doc = {"kind": "diagonal", "multipliers": a_mult.tolist(), "basis": basis}
    sigma_u_doc = {"kind": "diagonal", "values": su.tolist()}
    sigma_v_doc = {"kind": "diagonal", "values": sv.tolist()}
    config_doc = {
        "operator": operator_doc,
        "sigma_u": sigma_u_doc,
        "sigma_v": sigma_v_doc,
        "truncation_dim": dim,
        "seed": seed,
        "input_path": "x.csv",
        "scale": dict(kappa_decay=kappa_decay, sigma_u_decay=0.0, sigma_v_decay=0.0),
    }
    # Read back as every other command reads it: an instance that they would
    # refuse is refused here, before anything is written.
    model = parse_config(config_doc).model
    optimal_b(model)
    bhat_expected = instances.expected_bhat(a_mult, su, sv)
    filter_expected = instances.expected_filter_multipliers(a_mult, bhat_expected)
    *_, draws = next(sample_joint_blocks(model, 1, seed))
    x = CoeffVector(draws[0], basis)

    out = _out_dir(args)
    write_json(out / "operator.json", operator_doc)
    write_json(out / "sigma_u.json", sigma_u_doc)
    write_json(out / "sigma_v.json", sigma_v_doc)
    write_json(out / "config.json", config_doc)
    write_series_csv(out / "x.csv", grid, synthesize_series(x, grid))
    write_json(
        out / "expected.json",
        {
            "bhat_multipliers": bhat_expected.tolist(),
            "filter_multipliers": filter_expected.tolist(),
        },
    )
    return 0


def cmd_simulate(args) -> int:
    count = int(args.count)
    if count < 1:
        raise InputError("--count must be at least 1")
    cfg = _request(args)
    model = cfg.model
    # v lives on the codomain, u, y and x on the domain.
    sample_rows = _SampleRows(count, (model.dim, model.codim, model.dim, model.dim))
    sum_u, sum_x = np.zeros(model.dim), np.zeros(model.dim)
    out = _out_path(args, cfg)
    # The topmost directory the request creates, if any.
    made = next((p for p in (*reversed(out.parents), out) if not p.exists()), None)
    out.mkdir(parents=True, exist_ok=True)
    try:
        with open(out / "samples.csv", "w") as fh:
            fh.write("draw,component,u,v,y,x\n")
            for rows, *block in sample_joint_blocks(model, count, cfg.seed):
                for lo in range(0, rows.stop - rows.start, SAMPLE_BLOCK_DRAWS):
                    part = [column[lo : lo + SAMPLE_BLOCK_DRAWS] for column in block]
                    fh.write(sample_rows.text(rows.start + lo, part))
                # The sums of ``mean(axis=0)``, row by row in draw order: with
                # the running sum added to its first row, numpy adds a block
                # of two or more columns (truncation_dim >= 2) one row at a
                # time.  The block is scratch the sampler writes again.
                u, _, _, x = block
                u[0] += sum_u
                x[0] += sum_x
                sum_u, sum_x = np.add.reduce(u, axis=0), np.add.reduce(x, axis=0)
        summary = {
            "count": count,
            "seed": cfg.seed,
            "dim": model.dim,
            "mean_x": (sum_x / count).tolist(),
            "mean_u_norm": float(np.linalg.norm(sum_u / count)),
        }
    except BaseException:
        # A draw or a sum that leaves the float range refuses the request
        # once writing has begun: take back what it wrote.
        (out / "samples.csv").unlink(missing_ok=True)
        if made is not None:
            shutil.rmtree(made)
        raise
    write_json(out / "simulate_summary.json", summary)
    return 0


def cmd_validate(args) -> int:
    cfg = _request(args)
    report = run_validation(
        cfg.model, seed=cfg.seed, scale_n=cfg.scale_n, decay=cfg.decay
    )
    out = _out_dir(args, cfg)
    for check in report.checks:
        print(f"[{check.status}] {check.name}")
    write_json(out / "validation.json", report.to_json())
    return 0 if report.passed else 2


def _multipliers(op) -> list | None:
    return op.stored.tolist() if op.is_diagonal else None


def _rescaled_multipliers(model, n: int) -> list:
    """``sigma_u`` and ``sigma_v`` rescaled at index ``n`` as multipliers,
    or ``None`` where they are not diagonal: the model's own at n = 0, else
    the 1-d frame cores placed on the retained components."""
    if n == 0:
        return [_multipliers(model.sigma_u), _multipliers(model.sigma_v)]
    extend = model.pinv_bundle.extend
    return [
        _multipliers(extend(core)) if core.ndim == 1 else None
        for core in rescaled_cores(model, n)
    ]


def cmd_scale(args) -> int:
    cfg = _request(args)
    model = cfg.model
    n, n0 = scale_index(cfg.scale_n, cfg.decay)
    if n is None and cfg.decay is None:
        raise InputError(
            "no scale index: set scale.n or supply decay exponents in 'scale'"
        )
    if n is None:
        raise InputError(
            "no scale index: the declared decay exponents admit no trace-class "
            f"index up to {MAX_SCALE_N}; set scale.n"
        )
    kappa = model.pinv_bundle.singular_values**2
    weights = kappa ** float(n)
    scaled = scaled_optimal_b(model, n)
    su, sv = _rescaled_multipliers(model, n)
    white = white_noise_scale_check(model, n, n0)
    doc = {
        "n": int(n),
        "threshold_n0": n0,
        "indices": model.pinv_bundle.retained.tolist(),
        "kappa": kappa.tolist(),
        "weights": weights.tolist(),
        "sigma_u_rescaled": su,
        "sigma_v_rescaled": sv,
        "scaled_bhat_multipliers": _multipliers(scaled),
        "white_noise_check": white.to_json(),
    }
    write_json(_out_dir(args, cfg) / "scale.json", doc)
    return 0


# ---------------------------------------------------------------------------
# Argument parsing
# ---------------------------------------------------------------------------


def _add_config(parser: argparse.ArgumentParser, seed: bool = False):
    """``--config`` and ``--out``, and ``--seed`` for a command that draws."""
    parser.add_argument("--config", required=True,
                        help="path to a run configuration JSON file")
    if seed:
        parser.add_argument("--seed", type=int, default=None,
                            help="override the seed")
    parser.add_argument("--out", default=None, help="output directory")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ophp",
        description="Operator-weighted trend filtering with optimal smoothing",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("filter", help="extract trend and residual from a series")
    _add_config(p)
    p.add_argument("--input", default=None, help="input series CSV")
    p.add_argument("--estimate-y0", action="store_true",
                   help="estimate the deterministic component from the input")
    p.set_defaults(func=cmd_filter)

    p = sub.add_parser("optimal-b", help="compute the optimal smoothing operator")
    _add_config(p)
    p.set_defaults(func=cmd_optimal_b)

    p = sub.add_parser("example", help="emit a self-contained built-in instance")
    p.add_argument("--seed", type=int, default=0, help="seed of the sigmas and x")
    p.add_argument("--dim", type=int, default=8, help="truncation dimension")
    p.add_argument("--out", default=None, help="output directory")
    p.add_argument("--which", required=True, choices=["1", "2"],
                   help="1 = ramp sequence operator, 2 = Dirichlet Laplacian")
    p.add_argument("--grid-points", dest="grid_points", type=int, default=257,
                   help="sample grid size for functional output")
    p.add_argument("--sigma-u", dest="sigma_u", default=None,
                   help="constant observation-noise variance (default: seeded draw)")
    p.add_argument("--sigma-v", dest="sigma_v", default=None,
                   help="constant signal-noise variance (default: seeded draw)")
    p.set_defaults(func=cmd_example)

    p = sub.add_parser("simulate", help="draw joint samples from the model")
    _add_config(p, seed=True)
    p.add_argument("--count", type=int, default=1000, help="number of draws")
    p.set_defaults(func=cmd_simulate)

    for name, func, seed, text in (
        ("validate", cmd_validate, True, "run the numerical validation suite"),
        ("scale", cmd_scale, False, "rescaled covariances and smoother"),
    ):
        p = sub.add_parser(name, help=text)
        _add_config(p, seed)
        p.add_argument("--scale-n", dest="scale_n", type=int, default=None,
                       help="override the scale index")
        p.set_defaults(func=func)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    # Built once per process: building it costs thirty times a parse.
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        # A value beyond the float range raises where it is formed, so no
        # command computes inf or NaN from finite input and writes it.
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            return args.func(args)
    except FloatingPointError as exc:
        print(f"error: a result leaves the float range ({exc})", file=sys.stderr)
        return 1
    except DOMAIN_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def entrypoint() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    entrypoint()
