"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines and timings.
"""

import time

import numpy as np
import pytest

from ophp import (
    CoeffVector,
    FilterProblem,
    apply,
    dense_operator,
    kernel_operator,
    optimal_b,
    pinv,
    scaled_optimal_b,
    solve_filter,
    trace_class_threshold,
)
from ophp.gaussian import DecayDeclaration, regression_slope
from ophp.instances import seeded_sigmas
from ophp.operators import BASIS_SINE, moore_penrose_residuals

from oracles import (
    gap,
    laplacian_model,
    operator_norm,
    ramp_model,
    sample_joint,
)


def _criterion(name, ok, elapsed, limit, detail):
    status = "PASS" if ok and elapsed < limit else "FAIL"
    print(f"[{status}] {name}: {detail} ({elapsed:.2f}s, limit {limit:.0f}s)")
    assert ok, f"{name}: {detail}"
    assert elapsed < limit, f"{name} exceeded the {limit:.0f}s runtime limit"


def test_ramp_exactness():
    """Optimal smoother and trend multipliers are exact componentwise at N=16."""
    start = time.perf_counter()
    dim = 16
    su, sv = seeded_sigmas(dim, seed=2027)
    model = ramp_model(dim, su, sv)
    bhat = optimal_b(model)
    expected_b = su / sv
    expected_b[0] = 0.0
    dev_b = float(np.abs(bhat.stored - expected_b).max())

    rng = np.random.default_rng(99)
    x = CoeffVector(rng.standard_normal(dim))
    trend = solve_filter(FilterProblem(model.a, x, bhat))
    j = np.arange(1, dim + 1, dtype=float)
    expected_y = x.coeffs / (j**2 * expected_b + 1.0)
    expected_y[0] = x.coeffs[0]
    dev_y = float(np.abs(trend.coeffs - expected_y).max())
    elapsed = time.perf_counter() - start
    _criterion(
        "ramp-exactness",
        dev_b <= 1e-10 and dev_y <= 1e-10,
        elapsed,
        1.0,
        f"max|bhat dev|={dev_b:.2e}, max|trend dev|={dev_y:.2e}",
    )


def test_laplacian_exactness():
    """Spectral trend multipliers at N=32 and the Green-kernel quadrature."""
    start = time.perf_counter()
    dim = 32
    su, sv = seeded_sigmas(dim, seed=2028)
    model = laplacian_model(dim, su, sv)
    bhat = optimal_b(model)
    rng = np.random.default_rng(101)
    x = CoeffVector(rng.standard_normal(dim), BASIS_SINE)
    trend = solve_filter(FilterProblem(model.a, x, bhat))
    n = np.arange(1, dim + 1, dtype=float)
    expected = x.coeffs / (1.0 + n**4 * np.pi**4 * su / sv)
    dev = float(np.abs(trend.coeffs - expected).max())

    green = kernel_operator("dirichlet_green", dim=8, grid_points=2048)
    worst_rel = 0.0
    for mode in range(1, 9):
        e_n = np.zeros(8)
        e_n[mode - 1] = 1.0
        out = apply(green, CoeffVector(e_n, BASIS_SINE))
        lam = (mode * np.pi) ** 2
        worst_rel = max(worst_rel, abs(out.coeffs[mode - 1] * lam - 1.0))
    elapsed = time.perf_counter() - start
    _criterion(
        "laplacian-exactness",
        dev <= 1e-10 and worst_rel <= 1e-4,
        elapsed,
        5.0,
        f"max|trend dev|={dev:.2e}, worst green rel err={worst_rel:.2e}",
    )


def test_moore_penrose_suite():
    """Generalized-inverse and projector identities on 100 seeded matrices."""
    start = time.perf_counter()
    rng = np.random.default_rng(2029)
    worst = 0.0
    for _ in range(100):
        rows = int(rng.integers(1, 13))
        cols = int(rng.integers(1, 13))
        rank = int(rng.integers(0, min(rows, cols) + 1))
        if rank:
            mat = rng.standard_normal((rows, rank)) @ rng.standard_normal((rank, cols))
        else:
            mat = np.zeros((rows, cols))
        op = dense_operator(mat)
        bundle = pinv(op)
        tau = 1e-10 * (1.0 + operator_norm(op))
        residuals = list(moore_penrose_residuals(op, bundle).values())
        proj = bundle.projector_pi.as_matrix()
        comp = bundle.projector_complement.as_matrix()
        residuals.append(float(np.linalg.norm(proj @ proj - proj)))
        residuals.append(float(np.linalg.norm(proj.T - proj)))
        worst = max(worst, max(residuals) / tau)
        for _ in range(3):
            xi = rng.standard_normal(cols)
            inner = abs(float((proj @ xi) @ (comp @ xi)))
            worst = max(worst, inner / (1e-10 * float(xi @ xi)))
    elapsed = time.perf_counter() - start
    _criterion(
        "moore-penrose-suite",
        worst < 1.0,
        elapsed,
        2.0,
        f"worst residual at {worst:.2e} of tolerance",
    )


def test_conditional_mean_formula():
    """Monte-Carlo regression slope vs the model slope, 5 seeds, >= 4/5 each."""
    start = time.perf_counter()
    dim = 4
    draws = 100_000
    su, sv = seeded_sigmas(dim, seed=2030)
    model = ramp_model(dim, su, sv)
    target = regression_slope(model).as_matrix()
    entry_hits = np.zeros((dim, dim), dtype=int)
    for k in range(5):
        data = sample_joint(model, draws, seed=40_000 + k)
        x, y = data.x, data.y
        gram_inv = np.linalg.pinv(x.T @ x)
        slope_hat = y.T @ x @ gram_inv
        resid = y - x @ slope_hat.T
        sigma2 = (resid**2).sum(axis=0) / (draws - dim)
        stderr = np.sqrt(np.outer(sigma2, np.diag(gram_inv)))
        entry_hits += (np.abs(slope_hat - target) <= 3.0 * stderr + 1e-12).astype(int)
    elapsed = time.perf_counter() - start
    _criterion(
        "conditional-mean-regression",
        int(entry_hits.min()) >= 4,
        elapsed,
        10.0,
        f"min entry passes {int(entry_hits.min())}/5 over {draws} draws",
    )


def test_optimal_smoother():
    """Gap identity on on-model instances."""
    start = time.perf_counter()
    rng = np.random.default_rng(2031)

    # Full-rank spectral instance: the identity holds for arbitrary inputs.
    dim = 8
    model_full = laplacian_model(
        dim, rng.uniform(0.5, 2.0, dim), rng.uniform(0.5, 2.0, dim)
    )
    bhat_full = optimal_b(model_full)
    worst_full = 0.0
    for _ in range(100):
        x = CoeffVector(rng.standard_normal(dim), BASIS_SINE)
        worst_full = max(
            worst_full, gap(model_full, bhat_full, x) / (1e-9 * (1.0 + x.norm()))
        )

    # Ramp instance without observation noise on the null space, probed on
    # its support.
    su = rng.uniform(0.5, 2.0, dim)
    su[0] = 0.0
    model_ramp = ramp_model(dim, su, rng.uniform(0.5, 2.0, dim))
    bhat_ramp = optimal_b(model_ramp)
    worst_ramp = 0.0
    for _ in range(100):
        coeffs = rng.standard_normal(dim)
        coeffs[0] = 0.0
        x = CoeffVector(coeffs)
        worst_ramp = max(
            worst_ramp, gap(model_ramp, bhat_ramp, x) / (1e-9 * (1.0 + x.norm()))
        )

    elapsed = time.perf_counter() - start
    _criterion(
        "optimal-smoother",
        worst_full <= 1.0 and worst_ramp <= 1.0,
        elapsed,
        30.0,
        f"gap/tol full-rank {worst_full:.2e}, ramp {worst_ramp:.2e}",
    )


def test_white_noise_reduction():
    """Rescaled smoother equals the noise-to-signal ratio on the range."""
    start = time.perf_counter()
    sigma_u, sigma_v = 1.7, 0.4
    ratio = sigma_u / sigma_v
    results = []
    decl_ramp = DecayDeclaration(kappa_decay=2.0, sigma_u_decay=0.0, sigma_v_decay=0.0)
    decl_lap = DecayDeclaration(kappa_decay=4.0, sigma_u_decay=0.0, sigma_v_decay=0.0)
    ramp = ramp_model(12, sigma_u, sigma_v)
    lap = laplacian_model(12, sigma_u, sigma_v)
    n0_ramp = trace_class_threshold(decl_ramp)
    n0_lap = trace_class_threshold(decl_lap)
    for model, n0 in ((ramp, n0_ramp), (lap, n0_lap)):
        scaled = scaled_optimal_b(model, n0)
        mask = model.pinv_bundle.range_projector.stored > 0.5
        mult = scaled.stored[mask]
        results.append((float(np.ptp(mult)), float(np.abs(mult - ratio).max())))
    spreads = max(r[0] for r in results)
    deviation = max(r[1] for r in results)
    elapsed = time.perf_counter() - start
    _criterion(
        "white-noise-reduction",
        n0_ramp == 1 and spreads < 1e-12 and deviation <= 1e-12 * (1.0 + ratio),
        elapsed,
        1.0,
        f"n0(ramp)={n0_ramp}, n0(laplacian)={n0_lap}, spread={spreads:.2e}",
    )
