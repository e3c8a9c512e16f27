"""The sampler and the lattice search against the algorithms they replaced.

``sample_joint`` fills preallocated outputs a block of rows at a time and is
compared bitwise with the chunk-list sampler, kept here as a reference; the
conditional-mean check streams the same draws and is compared bitwise with
whitening one whole sample in place and summing ``Z`` over the sampler's
blocks.  Peak allocations are bounded so that full-size temporaries cannot
come back unnoticed; the check's does not grow with the draw count.  The
diagonal grid search scores each lattice point on the family's free entries
only; it sums in a different order from the whole-lattice formula, so the
two are compared to a relative tolerance and must pick the same argmin.
"""

import math
import tracemalloc

import numpy as np
import pytest

from ophp import (
    CoeffVector,
    GaussianModel,
    dense_operator,
    pinv,
    sample_joint,
    validate,
)
from ophp.gaussian import BLOCK_ROWS, DEFAULT_CHUNK, _row_blocks, regression_slope
from ophp.instances import ramp_model, seeded_sigmas
from ophp.operators import apply_rows, operator_power
from ophp.smoothing import (
    DiagonalFamily,
    _average_gaps_diagonal,
    lattice_around,
    optimal_b,
    probe_vectors,
)
from ophp.validate import conditional_mean_check


def _reference_sample_joint(model, count, seed, chunk_size):
    # The chunk-list + vstack sampler that sample_joint replaced.
    root_u = operator_power(model.sigma_u, 0.5)
    root_v = operator_power(model.sigma_v, 0.5)
    range_proj = model.pinv_bundle.range_projector
    ainv = model.pinv_bundle.pinv
    blocks_u, blocks_v, blocks_y = [], [], []
    for chunk in range((count + chunk_size - 1) // chunk_size):
        rows = min(chunk_size, count - chunk * chunk_size)
        rng = np.random.default_rng([seed, chunk])
        zu = rng.standard_normal((rows, model.dim))
        zv = rng.standard_normal((rows, model.codim))
        u = apply_rows(root_u, zu)
        v = apply_rows(range_proj, apply_rows(root_v, zv))
        blocks_u.append(u)
        blocks_v.append(v)
        blocks_y.append(model.y0.coeffs[None, :] + apply_rows(ainv, v))
    u = np.vstack(blocks_u)
    v = np.vstack(blocks_v)
    y = np.vstack(blocks_y)
    return u, v, y, y + u


def _spd(dim, rng):
    q, _ = np.linalg.qr(rng.standard_normal((dim, dim)))
    return q @ np.diag(rng.uniform(0.5, 2.0, dim)) @ q.T


def _diagonal_model():
    # The ramp's first component spans the null space, where y0 may live.
    y0 = CoeffVector([1.5, 0.0, 0.0, 0.0, 0.0, 0.0])
    return ramp_model(6, np.linspace(0.5, 2.0, 6), 0.8, y0=y0)


def _dense_model(dim=6, seed=0):
    rng = np.random.default_rng(seed)
    a = dense_operator(rng.standard_normal((dim, dim)))
    return GaussianModel.build(
        a, dense_operator(_spd(dim, rng)), dense_operator(_spd(dim, rng))
    )


def _rectangular_model():
    # Rank 3 from a 6-dim domain to a 4-dim codomain, y0 in the null space.
    rng = np.random.default_rng(1)
    a = dense_operator(rng.standard_normal((4, 3)) @ rng.standard_normal((3, 6)))
    probe = GaussianModel.build(
        a, dense_operator(_spd(6, rng)), dense_operator(_spd(4, rng))
    )
    comp = probe.pinv_bundle.projector_complement.matrix
    y0 = CoeffVector(comp @ rng.standard_normal(6))
    return GaussianModel.build(a, probe.sigma_u, probe.sigma_v, y0=y0)


def _rank_deficient_model():
    # A non-symmetric A of rank 5 on 8 dims, y0 in its null space.
    rng = np.random.default_rng(2)
    a = dense_operator(rng.standard_normal((8, 5)) @ rng.standard_normal((5, 8)))
    assert not np.allclose(a.matrix, a.matrix.T)
    comp = pinv(a).projector_complement.matrix
    y0 = CoeffVector(comp @ rng.standard_normal(8))
    return GaussianModel.build(
        a, dense_operator(_spd(8, rng)), dense_operator(_spd(8, rng)), y0=y0
    )


MODELS = {
    "diagonal": _diagonal_model,
    "dense": _dense_model,
    "rectangular": _rectangular_model,
    "rank-deficient": _rank_deficient_model,
}


def _reference_whitened_z(model, draws, seed, slope, white_x, white_r):
    # Whiten one whole joint sample in place, then sum Z over the blocks of
    # rows the sampler yields: those of each chunk, in order.
    u, _, y, x = _reference_sample_joint(model, draws, seed, DEFAULT_CHUNK)
    x -= model.y0.coeffs
    y -= model.y0.coeffs
    apply_rows(slope, x, out=u)
    y -= u
    apply_rows(white_x, x, out=u)
    apply_rows(white_r, y, out=x)
    z = np.zeros((model.dim, model.dim))
    for start in range(0, draws, DEFAULT_CHUNK):
        for block in _row_blocks(min(DEFAULT_CHUNK, draws - start)):
            rows = slice(start + block.start, start + block.stop)
            z += u[rows].T @ x[rows]
    z /= math.sqrt(draws)
    return z


def _peak_allocation(call):
    tracemalloc.start()
    try:
        result = call()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, peak


# Scratch of the sampler's transforms: five arrays of its largest block.
def _block_scratch(dim):
    return 5 * (BLOCK_ROWS + BLOCK_ROWS // 2) * dim * 8


class TestSampleJoint:
    @pytest.mark.parametrize("kind", sorted(MODELS))
    @pytest.mark.parametrize(
        "count", [1, 37, DEFAULT_CHUNK, DEFAULT_CHUNK + 1, 40_000]
    )
    def test_matches_chunk_list_algorithm_bitwise(self, kind, count):
        model = MODELS[kind]()
        assert model.is_diagonal == (kind == "diagonal")
        # A full-rank square A leaves no null space for y0.
        assert np.any(model.y0.coeffs != 0.0) == (kind != "dense")
        data = sample_joint(model, count, 23)
        expected = _reference_sample_joint(model, count, 23, DEFAULT_CHUNK)
        for got, want in zip((data.u, data.v, data.y, data.x), expected):
            assert got.shape == want.shape
            np.testing.assert_array_equal(got, want)

    @pytest.mark.parametrize("kind", ["diagonal", "dense"])
    def test_peak_allocation_is_outputs_plus_one_chunk(self, kind):
        dim, count = 64, 20_000
        if kind == "dense":
            model = _dense_model(dim)
        else:
            model = ramp_model(dim, np.linspace(0.5, 2.0, dim), 0.8)
        outputs = 4 * count * dim * 8
        chunk_draws = min(count, DEFAULT_CHUNK) * (model.dim + model.codim) * 8
        data, peak = _peak_allocation(lambda: sample_joint(model, count, 7))
        assert data.count == count
        assert peak <= outputs + chunk_draws + _block_scratch(dim) + (1 << 20)


class TestStreamedConditionalMean:
    @pytest.mark.parametrize("kind", ["diagonal", "rank-deficient", "rectangular"])
    @pytest.mark.parametrize(
        "draws", [1, BLOCK_ROWS - 1, BLOCK_ROWS + 1, DEFAULT_CHUNK + 1, 20_000]
    )
    def test_details_match_whole_sample_bitwise(self, kind, draws, monkeypatch):
        model = MODELS[kind]()
        assert np.any(model.y0.coeffs != 0.0)
        streamed = conditional_mean_check(model, draws=draws, seed=5)
        monkeypatch.setattr(validate, "_whitened_z", _reference_whitened_z)
        expected = conditional_mean_check(model, draws=draws, seed=5)
        assert streamed.status == expected.status
        assert streamed.details == expected.details

    def test_peak_allocation_does_not_grow_with_draws(self):
        dim = 256
        model = ramp_model(dim, *seeded_sigmas(dim, 11))
        chunk_draws = DEFAULT_CHUNK * (model.dim + model.codim) * 8
        z_sums = 2 * dim * dim * 8
        peaks = []
        for draws in (20_000, 60_000):
            result, peak = _peak_allocation(
                lambda: conditional_mean_check(model, draws=draws, seed=12)
            )
            assert result.details["draws"] == draws
            assert peak <= chunk_draws + _block_scratch(dim) + z_sums + (1 << 20)
            peaks.append(peak)
        assert abs(peaks[1] - peaks[0]) <= 1 << 20


class TestSeparableLatticeSearch:
    def test_separable_gaps_match_whole_lattice_formula(self):
        dim = 40
        model = ramp_model(dim, np.linspace(0.3, 3.0, dim), 0.7)
        bhat = optimal_b(model)
        family = DiagonalFamily(bhat.multipliers.copy(), (1, 2, 5), "abstract-euclidean")
        grid = lattice_around(bhat.multipliers[[1, 2, 5]], points=7)
        mesh = np.meshgrid(*grid, indexing="ij")
        param_rows = np.stack([m.ravel() for m in mesh], axis=-1)
        x_set = probe_vectors(dim, "abstract-euclidean", seed=4)

        # The whole-lattice formula the separable sum replaced: every
        # lattice point rebuilds all dim entries of every probe's trend.
        a_mult = model.a.multipliers
        slope = regression_slope(model).multipliers
        y0 = model.y0.coeffs
        mult = np.tile(family.base, (param_rows.shape[0], 1))
        mult[:, list(family.indices)] = param_rows
        denom = 1.0 + a_mult[None, :] ** 2 * mult
        totals = np.zeros(param_rows.shape[0])
        for x in x_set:
            trend = x.coeffs[None, :] / denom
            mean = y0 + slope * (x.coeffs - y0)
            totals += np.sqrt(((mean[None, :] - trend) ** 2).sum(axis=1))
        expected = totals / len(x_set)

        got = _average_gaps_diagonal(model, family, param_rows, x_set)
        np.testing.assert_allclose(got, expected, rtol=1e-12, atol=0.0)
        assert int(np.argmin(got)) == int(np.argmin(expected))
