"""Every command on generated config documents: it serves the request with
finite numbers, or refuses it with one line and writes nothing.

The documents mix diagonal, dense (square and rectangular) and kernel
operators with diagonal, dense and ``power_decay`` covariances, over entries
from ordinary sizes to the edges of the float range.  A RuntimeWarning is
an error under the suite's warning filter, so an overflow the program lets
through fails here, as does any exception that escapes ``cli.main``.
"""

import contextlib
import io
import json
import math
import tempfile
from pathlib import Path

import numpy as np
from hypothesis import example, given
from hypothesis import strategies as st

from ophp.cli import main

EDGE_FLOATS = [0.0, -0.0, 1.0, 5e-324, 1e-300, 1e154, 1e200, 1e300, 1e308,
               1.7976931348623157e308, -1e308]
floats = (
    st.floats(min_value=-3.0, max_value=3.0)
    | st.sampled_from(EDGE_FLOATS)
    | st.floats(allow_nan=False, allow_infinity=False)
)
sizes = floats.map(abs)
BASES = ["abstract-euclidean", "sine-dirichlet"]


@st.composite
def operators(draw, dim):
    """An operator document and its codomain dimension."""
    kind = draw(st.sampled_from(["diagonal", "dense", "kernel"]))
    if kind == "kernel":
        points = draw(st.integers(3, 16))
        return {"kind": "kernel", "name": "dirichlet_green", "grid_points": points}, dim
    basis = draw(st.sampled_from(BASES))
    if kind == "diagonal":
        mult = draw(st.lists(floats, min_size=dim, max_size=dim))
        return {"kind": "diagonal", "multipliers": mult, "basis": basis}, dim
    codim = draw(st.sampled_from([dim, dim, dim - 1, dim + 1]))
    rows = draw(
        st.lists(st.lists(floats, min_size=dim, max_size=dim), min_size=codim,
                 max_size=codim)
    )
    doc = {"kind": "dense", "rows": rows, "basis": basis, "codomain_basis": basis}
    return doc, codim


@st.composite
def covariances(draw, dim):
    kind = draw(st.sampled_from(["diagonal", "dense", "rotated", "power_decay"]))
    if kind == "diagonal":
        return {"kind": "diagonal", "values": draw(st.lists(sizes | floats, min_size=dim,
                                                             max_size=dim))}
    if kind == "dense":
        rows = draw(st.lists(st.lists(floats, min_size=dim, max_size=dim),
                             min_size=dim, max_size=dim))
        return {"kind": "dense", "rows": rows}
    if kind == "rotated":
        # Q diag(d) Q^T with a seeded rotation Q: symmetric, and PSD when
        # the d are, up to the rounding of the product.
        q, _ = np.linalg.qr(np.random.default_rng(draw(st.integers(0, 99))).
                            standard_normal((dim, dim)))
        d = np.array(draw(st.lists(sizes, min_size=dim, max_size=dim)))
        with np.errstate(all="ignore"):
            rows = (q * d) @ q.T
        return {"kind": "dense", "rows": (0.5 * rows + 0.5 * rows.T).tolist()}
    return {"kind": "power_decay", "scale": draw(sizes | floats),
            "exponent": draw(st.floats(-8.0, 8.0) | floats)}


@st.composite
def requests(draw):
    """A config document, the text of its input series and a draw count."""
    dim = draw(st.integers(2, 6))
    operator, codim = draw(operators(dim))
    doc = {
        "operator": operator,
        "sigma_u": draw(covariances(dim)),
        "sigma_v": draw(covariances(codim)),
        "truncation_dim": dim,
        "seed": draw(st.integers(0, 2**32 - 1)),
        "input_path": "x.csv",
    }
    if draw(st.booleans()):
        scale = {"n": draw(st.integers(0, 64))} if draw(st.booleans()) else {}
        for key in ("kappa_decay", "sigma_u_decay", "sigma_v_decay"):
            if draw(st.booleans()):
                scale[key] = draw(st.floats(-2.0, 6.0) | floats)
        doc["scale"] = scale
    if draw(st.integers(0, 3)) == 0:
        doc["y0"] = draw(st.lists(floats, min_size=dim, max_size=dim))
    sine = operator.get("basis") == "sine-dirichlet" or operator["kind"] == "kernel"
    points = draw(st.integers(3, 12)) if sine else dim
    values = draw(st.lists(floats, min_size=points, max_size=points))
    series = "".join(f"{v!r}\n" for v in values)
    return {"config": doc, "series": series, "count": draw(st.integers(1, 8))}


def _ramp3(sigma_v, **fields):
    """README's ramp-3 operator with sigma_u at 1e308."""
    doc = {
        "operator": {"kind": "diagonal", "multipliers": [0.0, 2.0, 3.0]},
        "sigma_u": {"kind": "power_decay", "scale": 1e308, "exponent": 0.0},
        "sigma_v": sigma_v,
        "truncation_dim": 3,
        "seed": 7,
        "input_path": "x.csv",
        **fields,
    }
    return {"config": doc, "series": "1.0\n2.0\n3.0\n", "count": 3}


def _no_constant(name):
    raise ValueError(f"non-finite number {name} written")


def _check_finite(path: Path) -> None:
    text = path.read_text()
    if path.suffix == ".json":
        json.loads(text, parse_constant=_no_constant)
        return
    for line in text.splitlines()[1:]:
        for field in line.split(","):
            assert field == "" or math.isfinite(float(field)), (path.name, line)


COMMANDS = [
    ["filter"],
    ["optimal-b"],
    ["simulate", "--count"],
    ["validate"],
    ["scale"],
]


# ROADMAP defect 1: the dense sigma_v = I twin of a finite 1e308 smoother,
# and sigma_v = 0.5 I, whose smoother overflows.
@example(_ramp3({"kind": "dense", "rows": np.eye(3).tolist()}))
@example(_ramp3({"kind": "dense", "rows": (0.5 * np.eye(3)).tolist()}))
@example(_ramp3({"kind": "diagonal", "values": [0.5] * 3}))
# Defect 2: scale indices beyond the ceiling.
@example(_ramp3({"kind": "diagonal", "values": [1.0] * 3},
                scale={"kappa_decay": 5e-324, "sigma_u_decay": 0.0, "sigma_v_decay": 0.0}))
@example(_ramp3({"kind": "diagonal", "values": [1.0] * 3}, scale={"n": 1e300}))
# Defect 3: a rank-0 operator with sigma_u beyond the Frobenius range.
@example({
    "config": {
        "operator": {"kind": "dense", "rows": np.zeros((3, 3)).tolist()},
        "sigma_u": {"kind": "diagonal", "values": [1e300] * 3},
        "sigma_v": {"kind": "diagonal", "values": [1.0] * 3},
        "truncation_dim": 3,
        "seed": 0,
        "input_path": "x.csv",
    },
    "series": "1.0\n2.0\n3.0\n",
    "count": 2,
})
@given(requests())
def test_every_command_serves_or_refuses_in_one_line(case):
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        (tmp / "x.csv").write_text(case["series"])
        cfg = tmp / "config.json"
        cfg.write_text(json.dumps(case["config"]))
        for command in COMMANDS:
            if command[-1] == "--count":
                command = [*command, str(case["count"])]
            out = tmp / f"out-{command[0]}"
            err = io.StringIO()
            with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
                code = main([*command, "--config", str(cfg), "--out", str(out)])
            err = err.getvalue()
            if code == 1:
                assert err.startswith("error: ") and err.count("\n") == 1, err
                assert not out.exists(), command
                continue
            assert code == 0 or (code == 2 and command == ["validate"]), (command, code)
            assert err == "", (command, err)
            for path in out.iterdir():
                _check_finite(path)
