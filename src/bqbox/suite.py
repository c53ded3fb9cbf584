"""Batch estimate suite with grid-refinement comparison.

Each check produces one empirical constant from a seeded ensemble of
band-limited fields; rerunning on the refined grid (same box, N -> 2N, same
Fourier content, same physical ball radii) measures discretization
stability.  Fields are generated at the coarse resolution and spectrally
zero-padded to the fine one, so both runs see the same continuum objects.
"""

from __future__ import annotations

import numpy as np

from .duhamel import evolve, verify_bilinear_estimate, verify_linear_operator, SolveConfig
from .grid import GridSpec, State, forward_coeffs, inverse_values
from .norms import BallSampler, NormParams, holder_check, verify_embeddings
from .operators import verify_dispersive
from .presets import (
    random_div_free,
    random_smooth_scalar,
    random_smooth_tensor,
    random_smooth_vector,
)
from .stability import StabilityParams, verify_weighted_bilinear


def refine_field(fld, N_fine):
    """Spectral zero-padding onto a finer grid over the same box."""
    grid = fld.grid
    if N_fine == grid.N:
        return fld
    fine = GridSpec(n=grid.n, N=N_fine, L=grid.L)
    coeffs = forward_coeffs(grid, fld.values)
    # drop the unpaired Nyquist planes so the embedding stays Hermitian
    for axis_k in grid.wave_axes:
        coeffs = coeffs * (np.abs(axis_k) < grid.N // 2)
    lead = coeffs.shape[: coeffs.ndim - grid.n]
    out = np.zeros(lead + fine.spectral_shape, dtype=complex)
    # copy each coarse mode to the matching fine index: k in [-N/2, N/2) on
    # the leading axes, k_last in [0, N/2] on the last
    idx = np.arange(grid.N)
    dest = np.where(idx < grid.N // 2, idx, idx + N_fine - grid.N)
    out[(Ellipsis,) + np.ix_(*[dest] * (grid.n - 1), np.arange(grid.N // 2 + 1))] = coeffs
    return type(fld)(fine, inverse_values(fine, out))


def _heat_trajectory(state, t_end, steps):
    return evolve(state, None, t_end, SolveConfig(dt=t_end / steps), mode="linearized")


def _suite_sampler(grid_coarse):
    # fixed physical radii so coarse and fine runs sample identical balls
    return BallSampler(
        num_centers=27,
        num_radii=8,
        rho_min=2.0 * grid_coarse.L / grid_coarse.N,
        rho_max=grid_coarse.L / 2.0,
    )


def estimate_suite(grid, seed, ensemble, p, *, sampler, refine_to=None):
    """Run the six estimate checks; returns {name: empirical constant}.

    ``refine_to`` re-renders the same ensemble on a finer grid (the caller
    compares the two dictionaries).
    """
    n = grid.n
    N_run = refine_to or grid.N

    def rs(i):
        return random_smooth_scalar(grid, seed=seed + i, exponent=2.0)

    def rv(i):
        return random_smooth_vector(grid, seed=seed + 100 + i, exponent=2.0)

    def rtens(i):
        return random_smooth_tensor(grid, seed=seed + 200 + i, exponent=2.0)

    def rdiv(i):
        return random_div_free(grid, seed=seed + 300 + i, exponent=2.0)

    scalars = [refine_field(rs(i), N_run) for i in range(ensemble)]
    results = {}

    from_p = NormParams(p=p, q=np.inf, lam=0.0)
    to_p = NormParams(p=2 * p, q=np.inf, lam=0.0)
    t_grid = np.geomspace(1e-2, 1.0, 6)
    results["dispersive"] = max(
        verify_dispersive(f, from_p, to_p, m=1, t_grid=t_grid, sampler=sampler).max_ratio
        for f in scalars
    )

    split = (NormParams(p=2 * p, q=np.inf, lam=0.0), NormParams(p=2 * p, q=np.inf, lam=0.0))
    target = NormParams(p=p, q=np.inf, lam=0.0)
    results["holder"] = max(
        holder_check(scalars[i], scalars[(i + 1) % len(scalars)], split, target, sampler).ratio
        for i in range(len(scalars))
    )

    # p < n keeps lam = n - p positive so the ball scan is exercised
    p_embed = max(2.0, p - 0.5)
    rows = verify_embeddings(scalars, p=p_embed, sampler=sampler)
    results["embeddings"] = max(max(r.morrey_over_weak, r.weak_over_strong) for r in rows)

    # tau_r - tau_l = n/r - n/l = 1 at lam = 0
    if n == 3:
        r_par = NormParams(p=2.0, q=np.inf, lam=0.0)  # 3/2 - 3/6 = 1
        l_par = NormParams(p=6.0, q=np.inf, lam=0.0)
    else:
        r_par = NormParams(p=4.0 / 3.0, q=np.inf, lam=0.0)  # 3/2 - 1/2 = 1
        l_par = NormParams(p=4.0, q=np.inf, lam=0.0)
    ratios = []
    for i in range(max(1, ensemble // 2)):
        ratios.append(
            verify_linear_operator(
                refine_field(rtens(i), N_run),
                refine_field(rv(i), N_run),
                r_par,
                l_par,
                sampler=sampler,
            ).ratio
        )
    results["linear_operator"] = max(ratios)

    pairs = []
    for i in range(max(1, ensemble // 2)):
        a = State(refine_field(rdiv(2 * i), N_run), refine_field(rs(10 + 2 * i), N_run))
        b = State(refine_field(rdiv(2 * i + 1), N_run), refine_field(rs(11 + 2 * i), N_run))
        pairs.append((_heat_trajectory(a, 0.25, 4), _heat_trajectory(b, 0.25, 4)))
    results["bilinear"] = verify_bilinear_estimate(
        pairs, p=p, sampler=sampler, eval_stride=2
    ).empirical_constant

    sp = StabilityParams(p=p, q=2 * p, r=2 * p, b=p)
    results["weighted_bilinear"] = verify_weighted_bilinear(
        pairs, sp, sampler=sampler, stride=2
    ).empirical_constant
    return results


def refinement_comparison(grid, seed, ensemble, p):
    """Suite at N and 2N on the same balls; returns rows (name, coarse, fine, rel_change)."""
    sampler = _suite_sampler(grid)
    coarse = estimate_suite(grid, seed, ensemble=ensemble, p=p, sampler=sampler)
    fine = estimate_suite(grid, seed, ensemble=ensemble, p=p, sampler=sampler, refine_to=2 * grid.N)
    rows = []
    for name in coarse:
        c, f = coarse[name], fine[name]
        rel = abs(f - c) / c if c > 0 else 0.0
        rows.append((name, c, f, rel))
    return rows
