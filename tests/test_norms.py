"""Lorentz / Morrey-Lorentz norms against closed forms and independent oracles."""

import re
import sys
import threading
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest

from bqbox import norms as norms_mod
from bqbox import (
    BallSampler,
    DiagnosticsError,
    GridSpec,
    HypothesisError,
    NormContext,
    NormParams,
    ScalarField,
    State,
    TimeWeightParams,
    VectorField,
    holder_check,
    lorentz_norm,
    morrey_lorentz_norm,
    morrey_lorentz_table,
    scaling_check,
    trajectory_sup_norm,
    verify_embeddings,
    weighted_time_sup,
)
from bqbox.duhamel import Trajectory
from bqbox.norms import ball_indicator, gaussian_profile

INF = float("inf")
UNIT_BALL_VOLUME_3D = 4.0 * np.pi / 3.0


def lorentz_star_oracle(values, w, p, q):
    """Independent Lorentz functional built on f* (not f**).

    At q = p this equals the plain Lebesgue p-norm exactly, which pins the
    rearrangement bookkeeping.
    """
    v = np.sort(np.abs(np.asarray(values).ravel()))[::-1]
    t = np.arange(len(v) + 1) * w
    if q == INF:
        return float(np.max(v * t[1:] ** (1.0 / p)))
    a = q / p
    return float(np.sum(v**q * (t[1:] ** a - t[:-1] ** a) / a) ** (1.0 / q))


def indicator_weak_closed_form(m, p):
    return m ** (1.0 / p)


def indicator_strong_closed_form(m, p, q):
    return m ** (1.0 / p) * (p / q) ** (1.0 / q) * (p / (p - 1.0)) ** (1.0 / q)


class TestCriticalPairing:
    @pytest.mark.parametrize("p, n", [(2.5, 3), (3.0, 3), (2.0 + 1e-9, 3), (4.0, 4)])
    def test_pairing_for_p_in_range(self, p, n):
        assert NormParams.critical(p, n) == NormParams(p=p, q=INF, lam=n - p)

    @pytest.mark.parametrize("p, n", [(2.0, 3), (3.5, 3), (2.5, 2)])
    def test_outside_the_range_names_the_hypothesis(self, p, n):
        message = f'hypothesis "2 < p <= n" violated (p = {p}, n = {n})'
        with pytest.raises(HypothesisError, match=re.escape(message)):
            NormParams.critical(p, n)


class TestLorentzNorm:
    def test_zero_field(self, grid2d):
        z = ScalarField(grid2d, np.zeros(grid2d.shape))
        assert lorentz_norm(z, p=2.5) == 0.0

    @pytest.mark.parametrize("p,q", [(2.0, INF), (3.0, INF), (1.5, 1.0), (3.0, 2.0), (2.0, 2.0)])
    def test_indicator_closed_forms(self, grid2d, p, q):
        ind = ball_indicator(grid2d, radius=0.22)
        m = ind.values.sum() * grid2d.cell_volume
        got = lorentz_norm(ind, p=p, q=q)
        if q == INF:
            want = indicator_weak_closed_form(m, p)
        else:
            want = indicator_strong_closed_form(m, p, q)
        assert got == pytest.approx(want, rel=1e-9)

    def test_homogeneity(self, grid2d):
        rng = np.random.Generator(np.random.Philox(11))
        f = ScalarField(grid2d, rng.standard_normal(grid2d.shape))
        base = lorentz_norm(f, p=2.5, q=3.0)
        # power-of-two scale: exact; generic scale: float-assoc only
        exact = lorentz_norm(ScalarField(grid2d, 4.0 * f.values), p=2.5, q=3.0)
        assert exact == pytest.approx(4.0 * base, rel=1e-14)
        generic = lorentz_norm(ScalarField(grid2d, 0.3 * f.values), p=2.5, q=3.0)
        assert generic == pytest.approx(0.3 * base, rel=1e-13)
        weak = lorentz_norm(ScalarField(grid2d, -2.0 * f.values), p=2.5)
        assert weak == pytest.approx(2.0 * lorentz_norm(f, p=2.5), rel=1e-14)

    def test_triangle_inequality(self, grid2d):
        rng = np.random.Generator(np.random.Philox(12))
        for _ in range(5):
            f = rng.standard_normal(grid2d.shape)
            g = rng.standard_normal(grid2d.shape)
            for (p, q) in ((2.0, INF), (2.0, 2.0), (3.0, 1.5)):
                s = lorentz_norm(ScalarField(grid2d, f + g), p=p, q=q)
                a = lorentz_norm(ScalarField(grid2d, f), p=p, q=q)
                b = lorentz_norm(ScalarField(grid2d, g), p=p, q=q)
                assert s <= (a + b) * (1.0 + 1e-9)

    def test_star_functional_matches_lebesgue_at_p_eq_q(self, grid2d):
        rng = np.random.Generator(np.random.Philox(13))
        f = rng.standard_normal(grid2d.shape)
        for p in (1.5, 2.0, 3.0):
            star = lorentz_star_oracle(f, grid2d.cell_volume, p, p)
            lebesgue = (np.sum(np.abs(f) ** p) * grid2d.cell_volume) ** (1.0 / p)
            assert star == pytest.approx(lebesgue, rel=1e-9)

    def test_averaged_functional_within_hardy_bound(self, grid2d):
        # the f** functional at p = q dominates the Lebesgue norm and is
        # controlled by the Hardy factor p/(p-1)
        rng = np.random.Generator(np.random.Philox(14))
        f = rng.standard_normal(grid2d.shape)
        for p in (2.0, 3.0):
            got = lorentz_norm(ScalarField(grid2d, f), p=p, q=p)
            lebesgue = (np.sum(np.abs(f) ** p) * grid2d.cell_volume) ** (1.0 / p)
            assert lebesgue * (1 - 1e-9) <= got <= lebesgue * p / (p - 1.0) * (1 + 1e-9)

    def test_invalid_parameters(self, grid2d):
        f = gaussian_profile(grid2d, 0.1)
        with pytest.raises(HypothesisError):
            lorentz_norm(f, p=1.0)
        with pytest.raises(HypothesisError):
            lorentz_norm(f, p=INF, q=2.0)


class TestMorreyLorentz:
    def test_zero_field(self, grid2d):
        z = ScalarField(grid2d, np.zeros(grid2d.shape))
        assert morrey_lorentz_norm(z, NormParams(p=2.0, lam=0.5), BallSampler(4, 4)) == 0.0

    def test_constant_field_critical_pairing(self):
        # at lam = n - p the localized value is c * omega^{1/p} * rho^{tau},
        # tau = 1, so the sampled sup sits at the largest radius L/2
        g = GridSpec(n=3, N=32, L=1.0)
        c = 1.7
        f = ScalarField(g, np.full(g.shape, c))
        p = 2.5
        lam = 3.0 - p
        sampler = BallSampler(num_centers=8, num_radii=8)
        got = morrey_lorentz_norm(f, NormParams(p=p, lam=lam), sampler)
        rho = g.L / 2.0
        want = c * (UNIT_BALL_VOLUME_3D ** (1.0 / p)) * rho ** ((3.0 - lam) / p)
        assert got == pytest.approx(want, rel=0.02)

    def test_constant_field_value_grows_linearly_in_radius(self):
        # regression against the tempting 'radius-independent' reading: the
        # exponent at lam = n - p is tau = 1, not 0
        g = GridSpec(n=3, N=32, L=1.0)
        f = ScalarField(g, np.ones(g.shape))
        p = 2.5
        params = NormParams(p=p, lam=3.0 - p)
        sampler = BallSampler(num_centers=1, num_radii=6)
        rows = morrey_lorentz_table(f, params, sampler)
        by_radius = {}
        for r in rows:
            by_radius[r.radius] = max(by_radius.get(r.radius, 0.0), r.local_norm)
        radii = sorted(by_radius)
        for r1, r2 in zip(radii, radii[1:]):
            assert by_radius[r2] / by_radius[r1] == pytest.approx(r2 / r1, rel=0.05)

    def test_mollified_inverse_distance_stable(self):
        g = GridSpec(n=3, N=16, L=1.0)
        center = (0.5, 0.5, 0.5)
        d2 = sum((g.coordinates[j] - center[j]) ** 2 for j in range(3))
        f = ScalarField(g, 1.0 / np.sqrt(d2 + (2 * g.cell_size) ** 2))
        # p = n, lam = 0: the sup is the whole box (exact, sampler-free)
        v = morrey_lorentz_norm(f, NormParams(p=3.0, lam=0.0), BallSampler())
        assert np.isfinite(v) and v > 0
        # lam > 0: sampled sup stable within 10% under sampler refinement
        coarse = morrey_lorentz_norm(f, NormParams(p=2.0, lam=1.0), BallSampler(8, 6))
        dense = morrey_lorentz_norm(f, NormParams(p=2.0, lam=1.0), BallSampler(64, 24))
        assert dense >= coarse  # monotone
        assert (dense - coarse) / dense < 0.10

    def test_monotone_under_superset_sampler(self, grid3d_small):
        rng = np.random.Generator(np.random.Philox(15))
        f = ScalarField(grid3d_small, rng.standard_normal(grid3d_small.shape))
        params = NormParams(p=2.0, lam=1.0)
        radii_small = (0.1, 0.3, 0.5)
        radii_big = (0.05, 0.1, 0.2, 0.3, 0.4, 0.5)
        small = morrey_lorentz_norm(f, params, BallSampler(num_centers=4, radii_list=radii_small))
        big = morrey_lorentz_norm(f, params, BallSampler(num_centers=64, radii_list=radii_big))
        assert big >= small

    def test_vector_field_uses_magnitude(self, grid2d):
        vals = np.zeros((2,) + grid2d.shape)
        vals[0] = 3.0
        vals[1] = 4.0
        v = VectorField(grid2d, vals)
        got = morrey_lorentz_norm(v, NormParams(p=2.0, lam=0.0), BallSampler())
        want = morrey_lorentz_norm(ScalarField(grid2d, np.full(grid2d.shape, 5.0)),
                                   NormParams(p=2.0, lam=0.0), BallSampler())
        assert got == pytest.approx(want, rel=1e-12)

    def test_radius_ladder_validation(self, grid2d):
        with pytest.raises(DiagnosticsError, match="exceeds L/2"):
            BallSampler(radii_list=(grid2d.L,)).radii(grid2d)


class TestScalingCheck:
    def test_identity_scale(self, grid2d):
        rep = scaling_check("gaussian", 1.0, NormParams(p=2.0, lam=0.0), grid2d,
                            BallSampler(4, 4), sigma=0.05)
        assert rep.ratio == pytest.approx(1.0, abs=1e-12)

    def test_indicator_lebesgue_scaling(self):
        g = GridSpec(n=3, N=64, L=1.0)
        rep = scaling_check("ball", 2.0, NormParams(p=2.0, q=2.0, lam=0.0), g,
                            BallSampler(8, 6), radius=0.25)
        assert rep.ratio == pytest.approx(1.0, abs=0.02)

    def test_gaussian_critical_scaling(self):
        g = GridSpec(n=3, N=32, L=1.0)
        p = 2.5
        rep = scaling_check("gaussian", 2.0, NormParams(p=p, lam=3.0 - p), g,
                            BallSampler(64, 12), sigma=0.08)
        assert rep.ratio == pytest.approx(1.0, abs=0.05)

    def test_support_leaving_box(self, grid2d):
        with pytest.raises(DiagnosticsError, match="leaves the box"):
            scaling_check("ball", 0.25, NormParams(p=2.0, lam=0.0), grid2d,
                          BallSampler(4, 4), radius=0.2)

    def test_unknown_preset(self, grid2d):
        with pytest.raises(DiagnosticsError, match="unknown scaling preset"):
            scaling_check("plume", 2.0, NormParams(p=2.0, lam=0.0), grid2d,
                          BallSampler(4, 4), sigma=0.1)


class TestHolderCheck:
    def test_zero_factor(self, grid2d):
        z = ScalarField(grid2d, np.zeros(grid2d.shape))
        f = gaussian_profile(grid2d, 0.1)
        rep = holder_check(z, f, (NormParams(p=4.0), NormParams(p=4.0)), NormParams(p=2.0),
                           BallSampler(4, 4))
        assert rep.ratio == 0.0

    def test_indicator_closed_form(self, grid2d):
        ind = ball_indicator(grid2d, radius=0.2)
        rep = holder_check(ind, ind, (NormParams(p=6.0), NormParams(p=6.0)), NormParams(p=3.0),
                           BallSampler(4, 4))
        # ||1_E||_{3,inf} / ||1_E||_{6,inf}^2 = m^{1/3} / (m^{1/6})^2 = 1
        assert rep.ratio == pytest.approx(1.0, rel=1e-9)

    def test_exponent_arithmetic_enforced(self, grid2d):
        f = gaussian_profile(grid2d, 0.1)
        with pytest.raises(HypothesisError, match="1/r = 1/p0"):
            holder_check(f, f, (NormParams(p=4.0), NormParams(p=4.0)), NormParams(p=3.0),
                         BallSampler())
        with pytest.raises(HypothesisError, match="lam0/p0"):
            holder_check(f, f, (NormParams(p=4.0, lam=1.0), NormParams(p=4.0)),
                         NormParams(p=2.0, lam=0.0), BallSampler())

    def test_ensemble_stable_under_refinement(self):
        from bqbox.presets import random_smooth_scalar
        from bqbox.suite import refine_field

        split = (NormParams(p=6.0), NormParams(p=6.0))
        target = NormParams(p=3.0)
        vals = []
        for N in (16, 32):
            worst = 0.0
            for seed in range(6):
                g0 = GridSpec(n=3, N=16, L=2 * np.pi)
                f = refine_field(random_smooth_scalar(g0, seed=seed), N)
                h = refine_field(random_smooth_scalar(g0, seed=seed + 50), N)
                worst = max(worst, holder_check(f, h, split, target, BallSampler()).ratio)
            vals.append(worst)
        assert abs(vals[1] - vals[0]) / vals[0] < 0.2


class TestWeightedTimeSup:
    def test_empty_samples_rejected(self):
        with pytest.raises(DiagnosticsError, match="empty"):
            weighted_time_sup([], TimeWeightParams(p=3.0, b=2.0), lam=0.0, sampler=BallSampler())

    def test_zero(self, grid2d):
        z = ScalarField(grid2d, np.zeros(grid2d.shape))
        w = TimeWeightParams(p=3.0, b=2.0)
        assert weighted_time_sup([(0.5, z), (1.0, z)], w, lam=0.0, sampler=BallSampler()) == 0.0

    def test_time_constant_field(self, grid2d):
        f = gaussian_profile(grid2d, 0.1)
        w = TimeWeightParams(p=3.0, b=2.0)
        samples = [(t, f) for t in (0.25, 0.5, 1.0, 2.0)]
        got = weighted_time_sup(samples, w, lam=0.0, sampler=BallSampler())
        base = morrey_lorentz_norm(f, NormParams(p=2.0, lam=0.0), BallSampler())
        assert got == pytest.approx(2.0**w.beta * base, rel=1e-12)

    def test_exact_weight_cancellation(self, grid2d):
        f = gaussian_profile(grid2d, 0.1)
        w = TimeWeightParams(p=3.0, b=2.0)
        samples = [(t, ScalarField(grid2d, t ** (-w.beta) * f.values)) for t in (0.25, 0.5, 1.0, 3.0)]
        got = weighted_time_sup(samples, w, lam=0.0, sampler=BallSampler())
        base = morrey_lorentz_norm(f, NormParams(p=2.0, lam=0.0), BallSampler())
        assert got == pytest.approx(base, rel=1e-12)

    @pytest.mark.parametrize("order", [1, -1], ids=["nan-first", "nan-last"])
    def test_nan_sample_propagates(self, grid2d_box, order):
        # one NaN cell at t = 0.5 beside a finite sample, in either order
        f = gaussian_profile(grid2d_box, 0.5)
        bad = f.values.copy()
        bad[3, 5] = np.nan
        w = TimeWeightParams(p=3.0, b=2.0)
        assert np.isfinite(weighted_time_sup([(1.0, f)], w, lam=0.0, sampler=BallSampler()))
        samples = [(0.5, ScalarField(grid2d_box, bad)), (1.0, f)][::order]
        assert np.isnan(weighted_time_sup(samples, w, lam=0.0, sampler=BallSampler()))

    def test_requires_positive_times(self, grid2d):
        f = gaussian_profile(grid2d, 0.1)
        with pytest.raises(DiagnosticsError):
            weighted_time_sup([(0.0, f)], TimeWeightParams(p=3.0, b=2.0), lam=0.0,
                              sampler=BallSampler())

    def test_beta_range(self):
        with pytest.raises(HypothesisError):
            TimeWeightParams(p=3.0, b=1.0)


class TestEmbeddings:
    def test_zero_field_ratios(self, grid3d_small):
        z = ScalarField(grid3d_small, np.zeros(grid3d_small.shape))
        rows = verify_embeddings([z], p=2.5, sampler=BallSampler())
        assert rows[0].morrey_over_weak == 0.0
        assert rows[0].weak_over_strong == 0.0

    def test_indicator_closed_forms(self):
        g = GridSpec(n=3, N=32, L=1.0)
        ind = ball_indicator(g, radius=0.2)
        m = ind.values.sum() * g.cell_volume
        p = 2.5
        rows = verify_embeddings([ind], p=p, sampler=BallSampler(8, 12))
        row = rows[0]
        assert row.weak_lebesgue_norm == pytest.approx(m ** (1.0 / 3.0), rel=1e-9)
        assert row.lorentz_nn_norm == pytest.approx(
            indicator_strong_closed_form(m, 3.0, 3.0), rel=1e-9
        )
        # Morrey sup of an indicator ball radius R at ball radius rho = R:
        # omega^{1/p} R^{(n-lam)/p - lam/p}
        lam = 3.0 - p
        want = UNIT_BALL_VOLUME_3D ** (1 / p) * 0.2 ** ((3 - lam) / p)
        assert row.morrey_norm == pytest.approx(want, rel=0.05)

    def test_requires_three_dimensions(self, grid2d):
        f = gaussian_profile(grid2d, 0.1)
        with pytest.raises(HypothesisError):
            verify_embeddings([f], p=2.0, sampler=BallSampler())

    def test_ensemble_ratios_stable(self):
        from bqbox.presets import random_smooth_scalar
        from bqbox.suite import refine_field

        vals = []
        for N in (16, 32):
            g0 = GridSpec(n=3, N=16, L=2 * np.pi)
            fields = [refine_field(random_smooth_scalar(g0, seed=s), N) for s in range(5)]
            rows = verify_embeddings(fields, p=2.5, sampler=BallSampler(
                8, 8, rho_min=2 * 2 * np.pi / 16))
            vals.append(max(max(r.morrey_over_weak, r.weak_over_strong) for r in rows))
        assert abs(vals[1] - vals[0]) / vals[0] < 0.2


# ---------------------------------------------------------------------------
# the padded ball scan against a brute-force modulo gather
# ---------------------------------------------------------------------------


def modulo_gather(grid, flat_values, centers, rho):
    """Reference ball gather: a (C, m, n) index tensor reduced modulo N."""
    offsets = norms_mod._ball_offsets(grid.n, grid.N, grid.L, float(rho))
    idx = (centers[:, np.newaxis, :] + offsets[np.newaxis, :, :]) % grid.N
    strides = np.array([grid.N ** (grid.n - 1 - j) for j in range(grid.n)], dtype=np.int64)
    return flat_values[np.sum(idx * strides, axis=2)]


def reference_table(f, params, sampler):
    """(center..., radius, local_norm) rows of the scan over modulo_gather."""
    grid = f.grid
    values = f.values.ravel()
    w = grid.cell_volume
    centers = sampler.centers(grid)
    rows = []
    for rho in sampler.radii(grid):
        weight = float(rho) ** (-params.lam / params.p)
        gathered = modulo_gather(grid, values, centers, rho)
        if params.q == INF:
            sorted_desc = -np.sort(-np.abs(gathered), axis=1)
            local = norms_mod._weak_norm_rows(sorted_desc, w, params.p) * weight
        else:
            local = [norms_mod._lorentz_from_values(g, w, params.p, params.q) * weight
                     for g in gathered]
        rows += [(*(c * grid.cell_size), float(rho), float(v)) for c, v in zip(centers, local)]
    return np.array(rows)


def meshgrid_offsets(n, N, L, rho, slack=1e-12):
    """Reference ball offsets: a full meshgrid of min-image offsets per radius."""
    h = L / N
    disp = (np.arange(N) + N // 2) % N - N // 2
    axes = np.meshgrid(*([disp] * n), indexing="ij")
    dist2 = sum((a * h) ** 2 for a in axes)
    inside = dist2 <= rho * rho + slack * h * h
    return np.stack([a[inside] for a in axes], axis=1)


def table_array(rows):
    return np.array([(*r.center, r.radius, r.local_norm) for r in rows])


def any_grid(n, N, L):
    """GridSpec, or for odd N (which GridSpec rejects) the attributes the scan reads."""
    if N & (N - 1) == 0:
        return GridSpec(n=n, N=N, L=L)
    h = L / N
    return SimpleNamespace(n=n, N=N, L=L, shape=(N,) * n, cell_size=h, cell_volume=h**n)


_SCAN_GRIDS = [(2, 16, 1.0), (2, 15, 1.0), (3, 8, 2 * np.pi), (3, 9, 2 * np.pi)]


class TestBallSamplerCenters:
    @pytest.mark.parametrize("num_centers", [0, -8])
    def test_fewer_than_one_center_rejected(self, num_centers):
        with pytest.raises(DiagnosticsError, match="at least one center"):
            BallSampler(num_centers=num_centers)

    @pytest.mark.parametrize("jitter_seed", [None, 5])
    def test_at_most_one_center_per_grid_point(self, jitter_seed):
        # 10^6 requested centers on 64 grid points: 8 per axis, none repeated
        g = GridSpec(n=2, N=8, L=1.0)
        centers = BallSampler(num_centers=10**6, jitter_seed=jitter_seed).centers(g)
        assert centers.shape == (64, 2)
        assert len({tuple(c) for c in centers}) == 64


class TestPaddedBallScan:
    @pytest.mark.parametrize("n, N, L", _SCAN_GRIDS)
    @pytest.mark.parametrize("params", [NormParams(p=3.0, lam=0.5),
                                        NormParams(p=2.5, q=3.0, lam=1.0)])
    def test_table_bit_identical_to_modulo_gather(self, n, N, L, params, monkeypatch):
        g = any_grid(n, N, L)
        rng = np.random.Generator(np.random.Philox(N + 10 * n))
        f = ScalarField(g, rng.standard_normal(g.shape))
        calls = []
        gather = norms_mod._gather_ball_values

        def spy(grid, padded, width, starts, rho, out):
            calls.append((float(rho), len(starts)))
            return gather(grid, padded, width, starts, rho, out=out)

        monkeypatch.setattr(norms_mod, "_gather_ball_values", spy)
        for sampler in (BallSampler(num_centers=16, num_radii=5, jitter_seed=N),
                        BallSampler(num_centers=9, radii_list=(0.3 * g.cell_size, 1.5 * g.cell_size,
                                                               0.31 * L, L / 2.0))):
            # five centers per chunk at the largest radius: the last chunk is partial
            radii = sampler.radii(g)
            m_max = norms_mod._ball_offsets(n, N, L, float(max(radii))).shape[0]
            monkeypatch.setattr(norms_mod, "_GATHER_CHUNK_VALUES", 5 * m_max)
            calls.clear()
            got = table_array(morrey_lorentz_table(f, params, sampler))
            want = reference_table(f, params, sampler)
            assert got.shape == want.shape
            assert np.array_equal(got, want)
            assert max(radii) == L / 2.0
            per_radius = {}
            for rho, c in calls:
                per_radius.setdefault(rho, []).append(c)
            num_centers = len(sampler.centers(g))
            assert all(sum(cs) == num_centers for cs in per_radius.values())
            assert per_radius[L / 2.0][0] == 5 and per_radius[L / 2.0][-1] < 5

    @pytest.mark.parametrize("n, N, L", _SCAN_GRIDS)
    def test_offsets_match_meshgrid_construction(self, n, N, L):
        g = any_grid(n, N, L)
        h = g.cell_size
        # radii sqrt(k) h lie exactly on a cell distance; for some k, rho^2 rounds
        # below the cell's distance and only the 1e-12 h^2 slack keeps the cell
        on_cell = [float(np.sqrt(k) * h) for k in (1, 2, 4, 5, 13, 18, 29)]
        slack_matters = False
        for rho in on_cell + [0.3 * h, 1.5 * h, 0.31 * L, L / 2.0]:
            got = norms_mod._ball_offsets(n, N, L, float(rho))
            want = meshgrid_offsets(n, N, L, float(rho))
            assert got.shape == want.shape
            assert np.array_equal(got, want)  # element for element, so the same order
            assert np.iinfo(got.dtype).bits == 8
            assert norms_mod._ball_reach(g, rho) == int(np.max(np.abs(want)))
            slack_matters |= len(want) != len(meshgrid_offsets(n, N, L, float(rho), slack=0.0))
        assert slack_matters

    def test_offset_type_holds_half_the_grid(self):
        for N, bits in ((8, 8), (255, 8), (256, 8), (257, 16), (512, 16)):
            disp = norms_mod._min_image_disp(N)
            assert np.iinfo(disp.dtype).bits == bits
            assert np.array_equal(disp, (np.arange(N) + N // 2) % N - N // 2)
        assert norms_mod._ball_reach(any_grid(2, 256, 1.0), 0.5) == 128

    def test_cached_offsets_are_read_only(self):
        offsets = norms_mod._ball_offsets(3, 8, 1.0, 0.3)
        flat = norms_mod._flat_ball_offsets(3, 8, 1.0, 0.3, 3)
        dist2 = norms_mod._min_image_dist2(3, 8, 1.0)
        for arr in (offsets, flat, dist2):
            assert not arr.flags.writeable
            with pytest.raises(ValueError):
                arr[0] = 0

    def test_peak_memory_bounded(self):
        g = GridSpec(n=3, N=64, L=2 * np.pi)
        f = gaussian_profile(g, 0.5)
        tracemalloc.start()
        try:
            morrey_lorentz_table(f, NormParams(p=3, lam=0.5),
                                 BallSampler(num_centers=64, num_radii=12))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # the padded field (16 MiB), the scan buffers (8 MiB at most, one per
        # worker), the distance table (2 MiB), the offsets and the weights: no
        # index array, no shifted offsets, no sorted or prefix-summed copy of a
        # chunk, no |f| beside the padded copy.  30.9 MiB measured on two CPUs
        # (26.9 on one) with cold offset caches, numpy 2.4
        assert peak < 35 * 2**20

    @pytest.mark.parametrize("n, N, L", _SCAN_GRIDS)
    def test_gather_into_buffer_returns_it(self, n, N, L):
        g = any_grid(n, N, L)
        rng = np.random.Generator(np.random.Philox(7 * N + n))
        values = rng.standard_normal(N**n)
        centers = rng.integers(0, N, size=(7, n))
        for rho in (0.3 * g.cell_size, 1.5 * g.cell_size, 0.31 * L, L / 2.0):
            width = norms_mod._ball_reach(g, rho)
            padded, starts = norms_mod._pad_periodic(g, values, width, centers)
            offsets = norms_mod._flat_ball_offsets(n, N, L, float(rho), width)
            want = padded[starts[:, np.newaxis] + offsets[np.newaxis, :]]  # index-array gather
            buf = np.full(want.shape, np.nan)
            got = norms_mod._gather_ball_values(g, padded, width, starts, rho, out=buf)
            assert got is buf
            assert np.array_equal(got, want)
            assert np.array_equal(got, modulo_gather(g, values, centers, rho))
            # a view into a larger buffer, as the table scan passes: only the view is written
            pool = np.full(want.size + 3, np.nan)
            view = pool[:want.size].reshape(want.shape)
            assert norms_mod._gather_ball_values(g, padded, width, starts, rho, out=view) is view
            assert np.array_equal(view, want)
            assert np.isnan(pool[want.size:]).all()

    @pytest.mark.parametrize("p", [INF, 3.0])
    def test_nan_cell_gives_nan_rows(self, p):
        # the in-place ascending sort read reversed puts NaN first, as the
        # descending copy did, so every ball holding the NaN cell reads NaN
        g = GridSpec(n=2, N=16, L=1.0)
        values = gaussian_profile(g, 0.2).values.copy()
        values[3, 5] = np.nan
        sampler = BallSampler(num_centers=16, num_radii=4)
        rows = morrey_lorentz_table(ScalarField(g, values), NormParams(p=p, lam=0.5), sampler)
        centers = sampler.centers(g)
        holds_nan = np.concatenate([
            np.isnan(modulo_gather(g, values.ravel(), centers, rho)).any(axis=1)
            for rho in sampler.radii(g)
        ])
        got = np.array([r.local_norm for r in rows])
        assert holds_nan.any() and not holds_nan.all()
        assert np.array_equal(np.isnan(got), holds_nan)

    def test_nan_cell_makes_the_sup_nan(self):
        # the first ball misses the NaN cell, so a sup that keeps its first
        # value over NaN (Python max) would hide it
        g = GridSpec(n=3, N=8, L=2 * np.pi)
        values = gaussian_profile(g, 1.0).values.copy()
        values[5, 6, 3] = np.nan
        f = ScalarField(g, values)
        params = NormParams(p=3.0, lam=0.5)
        sampler = BallSampler(num_centers=8, num_radii=3)
        local = [r.local_norm for r in morrey_lorentz_table(f, params, sampler)]
        assert not np.isnan(local[0]) and np.isnan(local).any()
        assert np.isnan(morrey_lorentz_norm(f, params, sampler))

    def test_non_positive_ladder_rejected(self, grid2d):
        for bad in (0.0, -0.1):
            with pytest.raises(DiagnosticsError, match="positive"):
                BallSampler(rho_min=bad).radii(grid2d)
        with pytest.raises(DiagnosticsError, match="positive"):
            BallSampler(radii_list=(0.1, float("nan"))).radii(grid2d)


class TestTrajectorySupNorm:
    def test_nan_in_a_later_state_propagates(self, grid2d_box):
        g = grid2d_box
        good = State(VectorField(g, np.zeros((2,) + g.shape)), gaussian_profile(g, 0.5))
        theta = good.theta.values.copy()
        theta[1, 1] = np.nan
        bad = State(good.u, ScalarField(g, theta))
        traj = Trajectory(g, np.array([0.0, 0.5, 1.0]), [good, good, bad])
        ctx = NormContext(NormParams(p=2.5, q=INF, lam=0.0), BallSampler(num_centers=4, num_radii=4))
        assert np.isnan(trajectory_sup_norm(traj, ctx))


# ---------------------------------------------------------------------------
# the ball scan on several workers
# ---------------------------------------------------------------------------


def nan_cell_field(N):
    g = GridSpec(n=3, N=N, L=2 * np.pi)
    rng = np.random.Generator(np.random.Philox(N))
    values = rng.standard_normal(g.shape)
    values[3, 20, 7] = np.nan
    return ScalarField(g, values)


class TestParallelScan:
    @pytest.mark.parametrize("params", [NormParams(p=3.0, lam=0.5),
                                        NormParams(p=2.5, q=3.0, lam=1.0)])
    def test_table_bit_identical_for_any_worker_count(self, params, monkeypatch):
        f = nan_cell_field(32)
        g = f.grid
        sampler = BallSampler(num_centers=64, num_radii=6, jitter_seed=11)
        radii = sampler.radii(g)
        m_max = norms_mod._ball_offsets(3, 32, g.L, float(max(radii))).shape[0]
        chunk = norms_mod._GATHER_CHUNK_VALUES // m_max
        assert 1 < chunk < 64 and 64 % chunk  # the largest radius ends on a partial chunk
        want = reference_table(f, params, sampler)
        local = want[:, -1]
        assert np.isnan(local).any() and not np.isnan(local).all()
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)  # switch threads often: a lost or misplaced row shows
        try:
            for workers in (1, 2, 3):
                monkeypatch.setattr(norms_mod, "_scan_workers", lambda chunks, values: workers)
                norms_mod._gauss_legendre.cache_clear()  # each table fills it for its workers
                got = table_array(morrey_lorentz_table(f, params, sampler))
                assert np.array_equal(got, want, equal_nan=True), workers
        finally:
            sys.setswitchinterval(interval)

    def test_worker_error_is_raised_after_every_thread_ends(self, monkeypatch):
        f = nan_cell_field(32)
        weak = norms_mod._weak_norm_rows
        calls = []

        def fail_third(*args):
            calls.append(threading.current_thread().name)
            if len(calls) == 3:
                raise FloatingPointError("third chunk")
            return weak(*args)

        started = []
        thread_cls = threading.Thread

        class CountedThread(thread_cls):
            def start(self):
                started.append(self.name)
                super().start()

        monkeypatch.setattr(norms_mod, "_weak_norm_rows", fail_third)
        monkeypatch.setattr(norms_mod, "_scan_workers", lambda chunks, values: 3)
        monkeypatch.setattr(threading, "Thread", CountedThread)
        before = threading.active_count()
        with pytest.raises(FloatingPointError, match="third chunk"):
            morrey_lorentz_table(f, NormParams(p=3.0, lam=0.5),
                                 BallSampler(num_centers=64, num_radii=6))
        assert len(started) == 2
        assert threading.active_count() == before
        # no chunk is started after the error: at most one more per other worker
        assert 3 <= len(calls) <= 5

    def test_gauss_legendre_table_filled_before_workers_start(self, monkeypatch):
        # the workers only read the caches: a q < inf table builds the
        # Gauss-Legendre table on the calling thread, before any worker starts
        filled = []
        thread_cls = threading.Thread

        class CheckedThread(thread_cls):
            def start(self):
                filled.append(norms_mod._gauss_legendre.cache_info().currsize)
                super().start()

        g = GridSpec(n=3, N=16, L=2 * np.pi)
        f = gaussian_profile(g, 0.5)
        norms_mod._gauss_legendre.cache_clear()
        monkeypatch.setattr(norms_mod, "_scan_workers", lambda chunks, values: 2)
        monkeypatch.setattr(threading, "Thread", CheckedThread)
        morrey_lorentz_table(f, NormParams(p=2.5, q=3.0, lam=0.5),
                             BallSampler(num_centers=8, num_radii=4))
        assert filled == [1]

    def test_gauss_legendre_table_read_only_and_exact(self):
        nodes, weights = norms_mod._gauss_legendre()
        want_nodes, want_weights = np.polynomial.legendre.leggauss(32)
        assert np.array_equal(nodes, want_nodes) and np.array_equal(weights, want_weights)
        assert not nodes.flags.writeable and not weights.flags.writeable
        assert norms_mod._gauss_legendre() is norms_mod._gauss_legendre()

    def test_one_buffer_table_starts_no_thread(self, monkeypatch):
        def no_thread(*args, **kwargs):
            raise AssertionError("a thread was started")

        g = GridSpec(n=3, N=16, L=2 * np.pi)
        f = gaussian_profile(g, 0.5)
        sampler = BallSampler(num_centers=64, num_radii=12)
        sizes = [norms_mod._ball_offsets(3, 16, g.L, float(r)).shape[0] for r in sampler.radii(g)]
        assert 64 * sum(sizes) <= norms_mod._SCAN_VALUES
        assert 64 * max(sizes) > norms_mod._GATHER_CHUNK_VALUES // 8  # not a trivial table
        monkeypatch.setattr(threading, "Thread", no_thread)
        rows = morrey_lorentz_table(f, NormParams(p=3.0, lam=0.5), sampler)
        assert len(rows) == 64 * 12

    def test_worker_count_bounded_by_chunks_and_budget(self, monkeypatch):
        budget = norms_mod._SCAN_VALUES // norms_mod._GATHER_CHUNK_VALUES
        big = 4 * norms_mod._SCAN_VALUES
        monkeypatch.setattr(norms_mod.os, "sched_getaffinity", lambda pid: set(range(64)))
        assert norms_mod._scan_workers(1, big) == 1
        assert norms_mod._scan_workers(100, big) == budget
        assert norms_mod._scan_workers(100, norms_mod._SCAN_VALUES) == 1  # fits one buffer
        monkeypatch.setattr(norms_mod.os, "sched_getaffinity", lambda pid: {0})
        assert norms_mod._scan_workers(100, big) == 1
        monkeypatch.delattr(norms_mod.os, "sched_getaffinity")
        monkeypatch.setattr(norms_mod.os, "cpu_count", lambda: 64)
        assert norms_mod._scan_workers(100, big) == budget
        monkeypatch.setattr(norms_mod.os, "cpu_count", lambda: None)
        assert norms_mod._scan_workers(100, big) == 1
        for chunks in range(1, 9):
            assert 1 <= norms_mod._scan_workers(chunks, big) <= min(chunks, budget)
