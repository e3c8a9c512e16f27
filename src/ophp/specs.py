"""JSON specifications for operators, covariances, and run configurations.

Operator documents::

    {"kind": "diagonal", "multipliers": [...], "basis": "abstract-euclidean"}
    {"kind": "dense", "rows": [[...], ...], "basis": ..., "codomain_basis": ...}
    {"kind": "kernel", "name": "dirichlet_green", "grid_points": 512}

A kernel document builds a dense operator, which serializes as a dense
document.  ``basis`` and ``codomain_basis`` name one of ``BASES``, and must
agree with the kind: a kernel operator acts on ``sine-dirichlet``, and a
diagonal one maps its basis to itself.  Every number must be a finite JSON
number.

Covariance documents::

    {"kind": "diagonal", "values": [...]}
    {"kind": "dense", "rows": [[...], ...]}
    {"kind": "power_decay", "scale": c, "exponent": p}   # sigma_n = c * n**(-p)

Scale documents::

    {"n": 1, "kappa_decay": 2.0, "sigma_u_decay": 0.0, "sigma_v_decay": 0.0}

A run configuration ties the pieces together with a truncation dimension,
seed, scale document and file locations; relative paths resolve against the
configuration file's directory.
"""

from __future__ import annotations

import hashlib
import json
import math
from collections import OrderedDict
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .gaussian import DecayDeclaration, GaussianModel
from .operators import (
    BASIS_EUCLIDEAN,
    BASIS_SINE,
    DEFAULT_GRID_POINTS,
    CoeffVector,
    OperatorRep,
    dense_operator,
    diagonal_operator,
    kernel_operator,
)
from .scales import MAX_SCALE_N


class SpecError(ValueError):
    """A JSON document does not satisfy its schema."""


def _leaf_types(value) -> set:
    """Types of the items of ``value`` at any depth of nested lists."""
    if not isinstance(value, list):
        return {type(value)}
    types = set(map(type, value))
    if list in types:
        types.discard(list)
        types.update(*(_leaf_types(v) for v in value if isinstance(v, list)))
    return types


def _finite(values, what: str) -> np.ndarray:
    """Finite JSON numbers, alone or in nested lists of one shape.

    Booleans, strings and other JSON values are rejected, not coerced.
    """
    types = _leaf_types(values)
    odd = {t for t in types if t is bool or not issubclass(t, (int, float))}
    if odd:
        names = ", ".join(sorted(t.__name__ for t in odd))
        raise SpecError(f"{what} must be numbers, got {names}")
    try:
        arr = np.asarray(values, dtype=float)
    except ValueError:
        raise SpecError(f"{what} must be numbers in a rectangular array") from None
    except OverflowError:
        raise SpecError(f"{what} must be finite") from None
    if not np.all(np.isfinite(arr)):
        raise SpecError(f"{what} must be finite")
    return arr


def _number(value, what: str) -> float:
    """One finite JSON number."""
    arr = _finite(value, what)
    if arr.ndim:
        raise SpecError(f"{what} must be a number, got {value!r}")
    return float(arr)


def read_int(value, what: str, minimum: int, maximum: int | None = None) -> int:
    """An integral JSON number of at least ``minimum`` and, when given, at
    most ``maximum``.

    Booleans, strings and fractional numbers are rejected, not coerced.
    """
    integral = isinstance(value, int) or (
        isinstance(value, float) and value.is_integer()
    )
    if isinstance(value, bool) or not integral:
        raise SpecError(f"{what} must be an integer, got {value!r}")
    if value < minimum:
        raise SpecError(f"{what} must be at least {minimum}, got {value!r}")
    if maximum is not None and value > maximum:
        raise SpecError(f"{what} must be at most {maximum}, got {value!r}")
    return int(value)


def read_float(value, what: str) -> float:
    """A finite number, given as a number or as the text of one.

    Other text and NaN or infinite values are rejected, not coerced.
    """
    try:
        number = float(value)
    except (TypeError, ValueError):
        raise SpecError(f"{what} must be a number, got {value!r}") from None
    if not math.isfinite(number):
        raise SpecError(f"{what} must be a finite number, got {value!r}")
    return number


BASES = (BASIS_EUCLIDEAN, BASIS_SINE)

DECAY_KEYS = ("kappa_decay", "sigma_u_decay", "sigma_v_decay")

def _basis(value, key: str) -> str:
    if value not in BASES:
        names = " or ".join(map(repr, BASES))
        raise SpecError(f"{key} must be {names}, got {value!r}")
    return value


def parse_operator(obj: dict, dim: int) -> OperatorRep:
    """Build an operator from its JSON description.

    ``dim`` is the configured truncation dimension: the domain dimension of
    the operator, and the number of sine modes a kernel operator keeps.
    """
    if not isinstance(obj, dict) or "kind" not in obj:
        raise SpecError("operator spec must be an object with a 'kind' field")
    kind = obj["kind"]
    basis = _basis(obj.get("basis", BASIS_EUCLIDEAN), "basis")
    codomain = _basis(obj.get("codomain_basis", basis), "codomain_basis")
    if kind == "diagonal":
        if codomain != basis:
            raise SpecError(
                "codomain_basis of a diagonal operator must equal its basis "
                f"{basis!r}, got {codomain!r}"
            )
        mult = obj.get("multipliers")
        if mult is None:
            raise SpecError("diagonal operator spec needs 'multipliers'")
        op = diagonal_operator(_finite(mult, "operator multipliers"), basis)
    elif kind == "dense":
        rows = obj.get("rows")
        if rows is None:
            raise SpecError("dense operator spec needs 'rows'")
        op = dense_operator(_finite(rows, "operator rows"), basis, codomain)
    elif kind == "kernel":
        for key in ("basis", "codomain_basis"):
            if obj.get(key, BASIS_SINE) != BASIS_SINE:
                raise SpecError(
                    f"{key} of a kernel operator must be {BASIS_SINE!r}, "
                    f"got {obj[key]!r}"
                )
        name = obj.get("name")
        if name is None:
            raise SpecError("kernel operator spec needs 'name'")
        points = obj.get("grid_points", DEFAULT_GRID_POINTS)
        try:
            op = kernel_operator(name, dim, read_int(points, "grid_points", 1))
        except ValueError as exc:
            raise SpecError(str(exc)) from exc
    else:
        raise SpecError(f"unknown operator kind {kind!r}")
    if op.dim_in != dim:
        raise SpecError(
            f"operator domain dimension {op.dim_in} does not match "
            f"truncation_dim {dim}"
        )
    return op


def parse_covariance(
    obj: dict, dim: int, basis_id: str
) -> tuple[OperatorRep, float | None]:
    """Build a covariance operator; returns (operator, decay exponent).

    The decay exponent is known only for ``power_decay`` documents.
    """
    if not isinstance(obj, dict) or "kind" not in obj:
        raise SpecError("covariance spec must be an object with a 'kind' field")
    kind = obj["kind"]
    if kind == "diagonal":
        values = obj.get("values")
        if values is None:
            raise SpecError("diagonal covariance spec needs 'values'")
        values = _finite(values, "covariance values")
        if values.shape != (dim,):
            raise SpecError(f"covariance values must have length {dim}")
        return diagonal_operator(values, basis_id), None
    if kind == "dense":
        rows = obj.get("rows")
        if rows is None:
            raise SpecError("dense covariance spec needs 'rows'")
        mat = _finite(rows, "covariance rows")
        if mat.shape != (dim, dim):
            raise SpecError(f"covariance matrix must be {dim}x{dim}")
        return dense_operator(mat, basis_id), None
    if kind == "power_decay":
        scale = _number(obj.get("scale", 1.0), "covariance scale")
        exponent = _number(obj.get("exponent", 0.0), "covariance exponent")
        n = np.arange(1, dim + 1, dtype=float)
        with np.errstate(over="ignore", invalid="ignore"):
            values = scale * n ** (-exponent)
        if not np.all(np.isfinite(values)):
            raise SpecError(f"power_decay covariance is not finite up to n = {dim}")
        return diagonal_operator(values, basis_id), exponent
    raise SpecError(f"unknown covariance kind {kind!r}")


def operator_to_json(op: OperatorRep) -> dict:
    """JSON description of an operator: a diagonal or a dense document."""
    if op.is_diagonal:
        return {
            "kind": "diagonal",
            "multipliers": op.stored.tolist(),
            "basis": op.domain_basis,
        }
    return {
        "kind": "dense",
        "rows": op.stored.tolist(),
        "basis": op.domain_basis,
        "codomain_basis": op.codomain_basis,
    }


# ---------------------------------------------------------------------------
# Run configuration
# ---------------------------------------------------------------------------

# Keys an earlier schema read; a config that sets one is refused, so no
# result changes silently.
RETIRED_KEYS = {
    "scale_n": "set the scale index as scale.n",
    "extras": "the validate suite's sizes are fixed",
}


@dataclass(frozen=True, eq=False)
class RunConfig:
    """A checked run configuration: its model, the decay declaration (or
    ``None`` when an exponent is unknown), the seed, the scale index
    ``scale.n`` (or ``None``) and the resolved file locations."""

    model: GaussianModel
    decay: DecayDeclaration | None
    seed: int
    scale_n: int | None
    input_path: Path | None
    output_path: Path | None


def _model(obj: dict, dim: int) -> tuple[GaussianModel, dict]:
    """The configured Gaussian model and the decay exponents of its
    ``power_decay`` covariances."""
    operator = parse_operator(obj["operator"], dim)
    sigma_u, u_decay = parse_covariance(
        obj["sigma_u"], operator.dim_in, operator.domain_basis
    )
    sigma_v, v_decay = parse_covariance(
        obj["sigma_v"], operator.dim_out, operator.codomain_basis
    )
    y0 = obj.get("y0")
    if y0 is not None:
        y0 = CoeffVector(_finite(y0, "y0"), operator.domain_basis)
    model = GaussianModel.build(operator, sigma_u, sigma_v, y0=y0)
    exponents = {"sigma_u_decay": u_decay, "sigma_v_decay": v_decay}
    return model, {k: v for k, v in exponents.items() if v is not None}


def parse_config(obj: dict, base_dir: Path | None = None) -> RunConfig:
    """Check every field of a run configuration document and build its
    model; the one reader of it.

    Decay exponents missing from the ``scale`` document are filled from
    ``power_decay`` covariance specs.  A model the algebra refuses is a
    :class:`SpecError` like any other fault of the document.
    """
    if not isinstance(obj, dict):
        raise SpecError("configuration must be a JSON object")
    missing = [k for k in ("operator", "sigma_u", "sigma_v") if k not in obj]
    if missing:
        raise SpecError(f"configuration is missing {missing}")
    for key, hint in RETIRED_KEYS.items():
        if key in obj:
            raise SpecError(f"{key} is no longer read: {hint}")
    dim = read_int(obj.get("truncation_dim", 0), "truncation_dim", 2)
    seed = read_int(obj.get("seed", 0), "seed", 0)

    def optional(key, kind, what):
        value = obj.get(key)
        if value is not None and not isinstance(value, kind):
            raise SpecError(f"{key} must be {what}, got {value!r}")
        return value

    scale = optional("scale", dict, "an object") or {}
    decay = {k: _number(scale[k], k) for k in DECAY_KEYS if k in scale}
    scale_n = scale.get("n")
    if scale_n is not None:
        scale_n = read_int(scale_n, "scale.n", 0, MAX_SCALE_N)
    base = Path(".") if base_dir is None else base_dir

    def resolve(key):
        value = optional(key, str, "a string")
        if value is None:
            return None
        path = Path(value)
        return path if path.is_absolute() else base / path

    input_path, output_path = resolve("input_path"), resolve("output_path")
    try:
        model, exponents = _model(obj, dim)
    except SpecError:
        raise
    except ValueError as exc:
        raise SpecError(str(exc)) from exc
    decay = {**exponents, **decay}
    return RunConfig(
        model=model,
        decay=(
            DecayDeclaration(*(decay[k] for k in DECAY_KEYS))
            if len(decay) == len(DECAY_KEYS)
            else None
        ),
        seed=seed,
        scale_n=scale_n,
        input_path=input_path,
        output_path=output_path,
    )


# Bytes of operator storage (``a``, ``sigma_u`` and ``sigma_v``) that the
# kept configurations may hold together.  Once requests have factorized it, a
# kept model with a dense operator holds 3 to 8 times its operators' bytes in
# pinv, SVD factors and smoother (1.1 MB for a dense dim-128 config with 0.4 MB
# of operators, 1.0 MB for a kernel one with 0.13 MB), so the memo holds about
# 10 MB at most, a fifth of what a CLI process holds anyway.  Two dense dim-128
# configs fit beside kernel and diagonal ones.  A count of configs would not
# bound it: eight dense dim-1024 configs hold about 0.5 GB.
CONFIG_MEMO_BYTES = 2**20

# The configurations kept in this process, least recently used first, keyed
# on their directory and the sha256 digest of their bytes; never the bytes.
_CONFIGS: OrderedDict = OrderedDict()


def _kept_bytes() -> int:
    return sum(
        op.stored.nbytes
        for cfg in _CONFIGS.values()
        for op in (cfg.model.a, cfg.model.sigma_u, cfg.model.sigma_v)
    )


def load_config(path) -> RunConfig:
    """The run configuration in the JSON file at ``path``; relative file
    locations resolve against its directory.

    Asked again for the same text in the same directory, it returns the same
    immutable configuration, whose model keeps what earlier requests computed
    on it (its pinv, covariance checks, factorizations and optimal smoother).
    It keeps the configurations it built last, as many as fit in
    ``CONFIG_MEMO_BYTES`` of operator storage, and drops the least recently
    used first; the newest is always kept, so one over the budget is kept
    alone until the next miss drops it, before that text is parsed.  A
    document that fails to read or to check is not kept, so it fails the same
    way each time, and the configurations kept within the budget stay.
    """
    path = Path(path)
    try:
        data = path.read_bytes()
        key = (path.parent, hashlib.sha256(data).digest())
        cfg = _CONFIGS.get(key)
        if cfg is not None:
            _CONFIGS.move_to_end(key)
            return cfg
        # Only a config over the budget by itself is kept over it, and the
        # new one would evict it: it goes first, so the two are never held.
        if _kept_bytes() > CONFIG_MEMO_BYTES:
            _CONFIGS.clear()
        # JSON text is UTF-8 (RFC 8259), decoded only on a miss.
        obj = json.loads(data.decode())
    except (OSError, UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise SpecError(f"cannot read configuration {path}: {exc}") from exc
    cfg = _CONFIGS[key] = parse_config(obj, base_dir=path.parent)
    while len(_CONFIGS) > 1 and _kept_bytes() > CONFIG_MEMO_BYTES:
        _CONFIGS.popitem(last=False)
    return cfg
