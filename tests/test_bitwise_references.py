"""The scratch-reusing builders give the bits of their one-expression forms.

``kernel_operator`` and ``sine_basis_matrix`` compute in place, and the
sampler draws each block's v normals straight into its scratch; the
references in ``oracles.py`` allocate every intermediate.  Equality is
exact (``np.array_equal``), at a fixed BLAS thread count.
"""

import numpy as np
import pytest

from ophp import dense_operator, kernel_operator
from ophp.gaussian import GaussianModel, sample_joint_blocks
from ophp.operators import sine_basis_matrix

import oracles
from oracles import ramp_model


@pytest.mark.parametrize("dim, grid", [(8, 64), (64, 130), (128, 512), (256, 512)])
def test_kernel_operator_is_the_expression(dim, grid):
    op = kernel_operator("dirichlet_green", dim, grid)
    assert np.array_equal(op.stored, oracles.green_kernel_matrix(dim, grid))


@pytest.mark.parametrize(
    "nodes",
    [
        np.linspace(0.0, 1.0, 1025),
        np.random.default_rng(3).uniform(0.0, 1.0, 301),  # irregular, unsorted
    ],
    ids=["uniform", "irregular-unsorted"],
)
@pytest.mark.parametrize("dim", [1, 7, 128])
def test_sine_basis_matrix_is_the_expression(nodes, dim):
    assert np.array_equal(
        sine_basis_matrix(nodes, dim), oracles.sine_basis_matrix(nodes, dim)
    )


def _spd(dim, rng):
    q, _ = np.linalg.qr(rng.standard_normal((dim, dim)))
    return (q * rng.uniform(0.5, 2.0, dim)) @ q.T


def _models():
    rng = np.random.default_rng(17)
    diagonal = ramp_model(7, rng.uniform(0.5, 2.0, 7), rng.uniform(0.5, 2.0, 7))
    # A rank-deficient dense operator: the range projector is not I.
    q, _ = np.linalg.qr(rng.standard_normal((64, 64)))
    mult = np.arange(64, dtype=float)
    dense = GaussianModel.build(
        dense_operator((q * mult) @ q.T),
        dense_operator(_spd(64, rng)),
        dense_operator(_spd(64, rng)),
    )
    return {"diagonal-7": diagonal, "dense-64": dense}


MODELS = _models()


@pytest.mark.parametrize("count", [1, 384, 1152, 1153, 2500])
@pytest.mark.parametrize("name", sorted(MODELS))
def test_sampler_draws_the_chunkwise_stream(name, count):
    model = MODELS[name]
    expected = oracles.sample_joint_chunkwise(model, count, seed=29)
    got = [np.empty_like(arr) for arr in expected]
    covered = 0
    for rows, *block in sample_joint_blocks(model, count, seed=29):
        for whole, part in zip(got, block):
            whole[rows] = part
        covered += rows.stop - rows.start
    assert covered == count
    for g, e in zip(got, expected):
        assert np.array_equal(g, e)
