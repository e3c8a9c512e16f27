"""The repr kernel behind ``samples.csv`` writes the bytes of ``repr``.

``ReprWriter`` finds the shortest round-trip digits of floats in fixed
notation with integer arithmetic and hands every other float to ``repr``
itself, and writes each array's fields at the width its passes need; each
test compares its fields, with their 0 bytes dropped, to ``repr`` of the
same floats.  The fields are written into arrays filled with another byte
first, so a byte the writer leaves unwritten shows.  The edges are where
its arithmetic or its choice of path changes: the ends of the fixed-notation
range, powers of two and of ten, floats next to short decimals, integers
next to 2^53 and floats halfway between two shortest candidates; and where
the width of a pass changes: integer parts of 1 and 16 digits, fraction
parts of 1 and 20, ``repr`` texts wider than the pass's other fields, no
sign, all zeros.  Every test runs under the floating-point error settings
of ``cli.main``, so the kernel raises nothing there.
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


# A byte that no field holds, so an unwritten one cannot pass for padding.
UNWRITTEN = 0xFF


def _write(arrays, row_size=None) -> list[np.ndarray]:
    """The fields of each of ``arrays`` (2-d), each array at the width
    ``convert`` returned for it, from one writer."""
    arrays = [np.asarray(a, dtype=float) for a in arrays]
    row_size = row_size or max(a.shape[1] for a in arrays)
    writer = ReprWriter(sum(a.size for a in arrays), row_size)
    widths = writer.convert(arrays)
    assert max(widths) <= FIELD_BYTES  # the widest line a block allots
    outs = [np.full((*a.shape, w), UNWRITTEN, np.uint8) for a, w in zip(arrays, widths)]
    writer.write(outs)
    return outs


def _texts(out) -> list[str]:
    return [bytes(f[f != 0]).decode() for f in out.reshape(-1, out.shape[-1])]


def _fields(values, row_size=1) -> list[str]:
    [out] = _write([np.asarray(values, dtype=float).reshape(-1, row_size)])
    return _texts(out)


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
    writer = ReprWriter(values.size, 9)
    [width] = writer.convert([values])
    block = np.full((rows, 9, width + 3), UNWRITTEN, np.uint8)
    writer.write([block[:, :7, 2 : 2 + width]])
    fields = [bytes(f[f != 0]).decode() for f in block[:, :7, 2 : 2 + width].reshape(-1, width)]
    assert fields == _reprs(values)
    assert (block[:, 7:] == UNWRITTEN).all() and (block[:, :, :2] == UNWRITTEN).all()
    assert (block[:, :, 2 + width :] == UNWRITTEN).all()


def _layout_width(texts) -> int:
    """The width of a pass of fixed-notation texts: a sign byte if one is
    negative, the widest integer part, the point, the longest fraction."""
    sign = any(t.startswith("-") for t in texts)
    ints, fracs = zip(*(t.lstrip("-").split(".") for t in texts))
    return sign + max(map(len, ints)) + 1 + max(map(len, fracs))


@pytest.mark.parametrize(
    "values",
    [
        # Integer parts of 16 digits and fractions of 20 in one pass.
        [9999999999999998.0, -1234567890123456.8, 1.0000000000000002e-4,
         -0.00012345678901234568, 0.5, 7.0],
        [0.25, 1.5, 3.0, 12.125],  # short fields, no sign
        [-1.5, 2.5, -0.0],
        [123.456, 0.1, 0.2],
    ],
)
def test_a_pass_is_as_wide_as_its_texts(values):
    [out] = _write([np.array(values)[None, :]])
    texts = _reprs(values)
    assert _texts(out) == texts
    assert out.shape[-1] == _layout_width(texts)


@pytest.mark.parametrize(
    "wide", [1e300, -5e-324, 2.0**40, 2.0**40 + 1 / 32, -2.2250738585072014e-308, math.nan,
             -math.inf]
)
def test_repr_texts_wider_than_the_pass(wide):
    # Short floats around one float that repr writes, its text the widest.
    values = np.array([0.5, -1.25, 3.0, wide, 0.75, 2.0, 1.5])
    [out] = _write([values.reshape(1, -1)])
    texts = _reprs(values)
    assert _texts(out) == texts
    assert out.shape[-1] == max(_layout_width(texts[:3]), len(repr(wide)))


@pytest.mark.parametrize("zero", [0.0, -0.0])
def test_an_all_zero_pass(zero):
    values = np.full((3, 5), zero)
    [out] = _write([values])
    assert _texts(out) == _reprs(values)
    assert out.shape[-1] == len(repr(zero))


def test_an_array_is_as_wide_as_its_widest_pass():
    # Two passes of one array, and two arrays of one writer: the narrow
    # pass's fields are padded to the wide pass's width.
    rows = PASS_VALUES // 4
    narrow = np.full((rows, 4), 0.5)
    values = np.concatenate([narrow, np.full((1, 4), -1234567.0000000002)])
    other = np.random.default_rng(8).standard_normal((3, 2))
    outs = _write([values, other])
    assert outs[0].shape[-1] == len("-1234567.0000000002")
    assert _texts(outs[0]) == _reprs(values)
    assert _texts(outs[1]) == _reprs(other)


def test_a_writer_converts_again():
    # Kept digits and scratch reused by the next arrays, narrower or wider.
    rng = np.random.default_rng(9)
    writer = ReprWriter(2 * 64, 64)
    for scale in (1e12, 1.0, 1e-3, 1e15):
        arrays = [rng.standard_normal((1, 64)) * scale, rng.standard_normal((1, 64))]
        widths = writer.convert(arrays)
        outs = [np.full((*a.shape, w), UNWRITTEN, np.uint8) for a, w in zip(arrays, widths)]
        writer.write(outs)
        assert [_texts(o) for o in outs] == [_reprs(a) for a in arrays]


def test_tables_are_built_on_first_use():
    code = "import ophp.cli, ophp._shortest as s; assert not s._tables.cache_info().currsize"
    src = str(Path(ophp.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    subprocess.run([sys.executable, "-c", code], env=env, check=True, timeout=120)
