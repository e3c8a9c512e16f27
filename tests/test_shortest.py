"""The repr kernel behind ``samples.csv`` writes the bytes of ``repr``.

``ReprWriter`` finds the shortest round-trip digits of floats in fixed
notation with integer arithmetic and hands every other float to ``repr``
itself; each test compares its fields, with their 0 bytes dropped, to
``repr`` of the same floats.  The edges are where its arithmetic or its
choice of path changes: the ends of the fixed-notation range, powers of two
and of ten, floats next to short decimals, integers next to 2^53 and floats
halfway between two shortest candidates.  Every test runs under the
floating-point error settings of ``cli.main``, so the kernel raises nothing
there.
"""

import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

import ophp
from ophp._shortest import FIELD_BYTES, PASS_VALUES, ReprWriter


@pytest.fixture(autouse=True)
def _main_errstate():
    with np.errstate(over="raise", invalid="raise", divide="raise"):
        yield


def _fields(values, row_size=1) -> list[str]:
    values = np.asarray(values, dtype=float).reshape(-1, row_size)
    out = np.zeros((*values.shape, FIELD_BYTES), np.uint8)
    ReprWriter(row_size).write(values, out)
    return [bytes(f[f != 0]).decode() for f in out.reshape(-1, FIELD_BYTES)]


def _reprs(values) -> list[str]:
    return list(map(repr, np.asarray(values, dtype=float).ravel().tolist()))


def _neighbours(values) -> np.ndarray:
    values = np.asarray(values, dtype=float)
    below, above = np.nextafter(values, -np.inf), np.nextafter(values, np.inf)
    both = np.concatenate([values, below, above])
    return np.concatenate([both, -both])


@given(st.lists(st.floats(), min_size=1, max_size=40))
@example([0.0, -0.0, math.nan, math.inf, -math.inf, 5e-324, -2.2250738585072014e-308])
@example([1e-4, 9.999999999999999e-05, 1e16, 9999999999999998.0])
def test_matches_repr(values):
    assert _fields(values) == _reprs(values)


@pytest.mark.parametrize(
    "name,values",
    [
        ("powers of ten", [10.0**e for e in range(-6, 18)]),
        ("powers of two", [2.0**e for e in range(-20, 60)]),
        ("range ends", [1e-4, 2.0**-14, 2.0**-13, 1e16, 2.0**53, 2.0**54, 9e15]),
        ("short decimals", [0.1, 0.2, 0.3, 0.5, 1.5, 2.675, 0.007, 123.456, 1e-4 * 3,
                            99.99, 1234567.125, 0.0001234, 987654321.5, 1e15 + 0.5]),
        ("integers near 2^53", [2.0**53 + k for k in range(-40, 41)]),
        # Halfway between two shortest candidates: repr's last digit is even.
        ("ties", [2.0**40 + 1 / 32, 2.0**40 + 3 / 32, 2.0**40 + 5 / 32,
                  2.0**40 + 7 / 32, 1099511627776.5 + 1 / 32]),
    ],
)
def test_edges_match_repr(name, values):
    values = _neighbours(values)
    assert _fields(values) == _reprs(values)


def test_seeded_sweep_matches_repr():
    rng = np.random.default_rng(20260)
    fixed = rng.integers(*np.array([1e-4, 1e16]).view(np.int64), 100_000)
    values = [
        rng.standard_normal(100_000),
        rng.standard_normal(100_000) * 10.0 ** rng.uniform(-8, 20, 100_000),
        rng.integers(0, 2**64, 100_000, dtype=np.uint64).view(np.float64),
        fixed.view(np.float64),
    ]
    for sample in values:
        assert _fields(sample) == _reprs(sample)


def test_rows_split_into_passes_and_strided_fields():
    # Rows of 7 floats over several passes, written into fields of a wider
    # array, as the samples.csv lines are.
    rows = 3 * PASS_VALUES // 7 + 5
    values = np.random.default_rng(4).standard_normal((rows, 7))
    values[::5, 0] = 0.0
    values[::7, 3] = 1e-5
    block = np.zeros((rows, 9, FIELD_BYTES + 3), np.uint8)
    ReprWriter(9).write(values, block[:, :7, 2 : 2 + FIELD_BYTES])
    fields = [bytes(f[f != 0]).decode() for f in block[:, :7].reshape(-1, FIELD_BYTES + 3)]
    assert fields == _reprs(values)
    assert not block[:, 7:].any() and not block[:, :, :2].any()


def test_tables_are_built_on_first_use():
    code = "import ophp.cli, ophp._shortest as s; assert not s._tables.cache_info().currsize"
    src = str(Path(ophp.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    subprocess.run([sys.executable, "-c", code], env=env, check=True, timeout=120)
