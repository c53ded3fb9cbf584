"""Spectral multiplier operators: semigroup, calculus, projection, products."""

import numpy as np
import pytest

from bqbox import (
    DiagnosticsError,
    GridSpec,
    HypothesisError,
    NormParams,
    ScalarField,
    VectorField,
    gradient,
    heat_semigroup,
    leray_project,
    pointwise_product,
    spectral_divergence_residual,
    verify_dispersive,
)
from bqbox.grid import band_coeffs, forward_coeffs, inverse_values
from bqbox.norms import BallSampler, gaussian_profile
from bqbox.operators import (
    _band_products,
    advection_coeffs,
    buoyancy_coeffs,
    dealias_coeffs,
    div_coeffs,
    grad_coeffs,
    leray_coeffs,
    tensor_div_coeffs,
)
from bqbox.presets import single_mode_scalar, taylor_green


class TestHeatSemigroup:
    def test_single_mode_eigenvalue(self, grid2d):
        f = single_mode_scalar(grid2d, k=(1, 0))
        t = 0.37
        got = heat_semigroup(f, t)
        want = np.exp(-t * (2 * np.pi / grid2d.L) ** 2) * f.values
        assert np.max(np.abs(got.values - want)) < 1e-13

    def test_identity_at_zero(self, grid2d):
        f = gaussian_profile(grid2d, 0.1)
        got = heat_semigroup(f, 0.0)
        assert np.max(np.abs(got.values - f.values)) < 1e-13

    def test_semigroup_law(self, grid2d):
        f = gaussian_profile(grid2d, 0.07)
        a = heat_semigroup(heat_semigroup(f, 0.01), 0.02)
        b = heat_semigroup(f, 0.03)
        assert np.max(np.abs(a.values - b.values)) <= 1e-12 * np.max(np.abs(b.values))

    def test_negative_time_rejected(self, grid2d):
        with pytest.raises(DiagnosticsError):
            heat_semigroup(gaussian_profile(grid2d, 0.1), -0.1)

    def test_per_mode_multiplication_oracle(self, grid2d):
        f = gaussian_profile(grid2d, 0.08)
        t = 0.01
        got = heat_semigroup(f, t)
        coeffs = forward_coeffs(grid2d, f.values) * np.exp(-t * grid2d.k_squared)
        want = inverse_values(grid2d, coeffs).real
        assert np.max(np.abs(got.values - want)) <= 1e-12

    def test_laplacian_consistency(self, grid2d):
        # forward difference of the semigroup at t=0 matches the multiplier
        f = single_mode_scalar(grid2d, k=(2, 1))
        dt = 1e-6
        sig = (2 * np.pi / grid2d.L) ** 2 * 5  # |k|^2 = 4 + 1
        got = (heat_semigroup(f, dt).values - f.values) / dt
        want = -sig * f.values
        assert np.max(np.abs(got - want)) < 10 * dt * sig**2


class TestLerayProjection:
    def test_annihilates_gradients(self, grid2d):
        phi = gaussian_profile(grid2d, 0.09)
        phi = ScalarField(grid2d, phi.values - phi.values.mean())
        v = gradient(phi)
        proj = leray_project(v)
        assert np.max(np.abs(proj.values)) <= 1e-10 * np.max(np.abs(v.values))

    def test_fixes_divergence_free(self, grid2d):
        tg = taylor_green(grid2d)
        proj = leray_project(tg)
        assert np.max(np.abs(proj.values - tg.values)) <= 1e-12

    def test_idempotent(self, grid2d):
        rng = np.random.Generator(np.random.Philox(3))
        v = VectorField(grid2d, rng.standard_normal((2,) + grid2d.shape))
        p1 = leray_project(v)
        p2 = leray_project(p1)
        assert np.max(np.abs(p2.values - p1.values)) <= 1e-12 * np.max(np.abs(p1.values))

    def test_ensemble_divergence_after_projection(self, grid2d):
        for seed in range(20):
            rng = np.random.Generator(np.random.Philox(seed))
            v = VectorField(grid2d, rng.standard_normal((2,) + grid2d.shape))
            assert spectral_divergence_residual(leray_project(v)) <= 1e-10

    def test_constant_passes_through(self, grid2d):
        v = VectorField(grid2d, np.ones((2,) + grid2d.shape))
        proj = leray_project(v)
        assert np.max(np.abs(proj.values - v.values)) < 1e-14


class TestEnsembleInvariants:
    def test_twenty_seed_ensemble(self, grid2d):
        """Semigroup law, idempotence, gradient annihilation, div o P on 20 fields."""
        g = grid2d
        for seed in range(20):
            rng = np.random.Generator(np.random.Philox(seed))
            f = ScalarField(g, rng.standard_normal(g.shape))
            a = heat_semigroup(heat_semigroup(f, 0.004), 0.006)
            b = heat_semigroup(f, 0.01)
            assert np.max(np.abs(a.values - b.values)) <= 1e-12 * max(np.max(np.abs(b.values)), 1e-30)

            v = VectorField(g, rng.standard_normal((2,) + g.shape))
            p1 = leray_project(v)
            p2 = leray_project(p1)
            assert np.max(np.abs(p2.values - p1.values)) <= 1e-12 * np.max(np.abs(p1.values))
            assert spectral_divergence_residual(p1) <= 1e-10

            phi = ScalarField(g, f.values - f.values.mean())
            grad_phi = gradient(phi)
            killed = leray_project(grad_phi)
            assert np.max(np.abs(killed.values)) <= 1e-10 * np.max(np.abs(grad_phi.values))


class TestCalculus:
    def test_gradient_of_constant(self, grid2d):
        f = ScalarField(grid2d, np.full(grid2d.shape, 4.2))
        assert np.max(np.abs(gradient(f).values)) < 1e-14

    def test_laplacian_of_cosine(self, grid2d):
        f = single_mode_scalar(grid2d, k=(1, 0))
        got = inverse_values(grid2d, div_coeffs(grid2d, grad_coeffs(grid2d, forward_coeffs(grid2d, f.values))))
        want = -((2 * np.pi / grid2d.L) ** 2) * f.values
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))

    def test_tensor_divergence_vs_finite_differences(self):
        errs = []
        for N in (16, 32):
            g = GridSpec(n=2, N=N, L=1.0)
            u = taylor_green(g)
            F = pointwise_product(u, u)
            got = inverse_values(g, tensor_div_coeffs(g, forward_coeffs(g, F.values)))
            h = g.cell_size
            fd = np.zeros_like(got)
            for i in range(2):
                for j in range(2):
                    fd[i] += (np.roll(F.values[i, j], -1, axis=j) - np.roll(F.values[i, j], 1, axis=j)) / (2 * h)
            errs.append(np.max(np.abs(got - fd)))
        # spectral result is exact; the O(h^2) defect is the FD oracle's
        assert errs[1] < errs[0] / 3.0


class TestProducts:
    def test_zero_factor(self, grid2d):
        z = ScalarField(grid2d, np.zeros(grid2d.shape))
        f = gaussian_profile(grid2d, 0.1)
        assert np.all(pointwise_product(z, f).values == 0.0)

    def test_outer_product_pointwise(self, grid2d):
        rng = np.random.Generator(np.random.Philox(5))
        u = VectorField(grid2d, rng.standard_normal((2,) + grid2d.shape))
        v = VectorField(grid2d, rng.standard_normal((2,) + grid2d.shape))
        T = pointwise_product(u, v)
        pt = (3, 11)
        for i in range(2):
            for j in range(2):
                assert T.values[(i, j) + pt] == u.values[(i,) + pt] * v.values[(j,) + pt]

    def test_grid_mismatch(self, grid2d):
        other = GridSpec(n=2, N=32, L=1.0)
        with pytest.raises(DiagnosticsError):
            pointwise_product(
                ScalarField(grid2d, np.zeros(grid2d.shape)),
                ScalarField(other, np.zeros(other.shape)),
            )

    def test_convolution_theorem_sum_difference_modes(self, grid2d):
        a = single_mode_scalar(grid2d, k=(1, 0))
        b = single_mode_scalar(grid2d, k=(2, 0))
        spec = forward_coeffs(grid2d, pointwise_product(a, b).values)
        # cos(x)cos(2x) = (cos(3x) + cos(x))/2: modes +-1 and +-3 at 1/4
        nonzero = {(1, 0): 0.25, (-1, 0): 0.25, (3, 0): 0.25, (-3, 0): 0.25}
        for kidx in np.ndindex(spec.shape):
            k = tuple(int(grid2d.wave_integers[(j,) + kidx]) for j in range(2))
            want = nonzero.get(k, 0.0)
            assert abs(spec[kidx] - want) < 1e-13

    def test_dealias_removes_aliased_mode(self):
        g = GridSpec(n=2, N=16, L=1.0)
        # inputs band-limited to N/3 = 5; 5 + 5 = 10 wraps to -6, outside the band
        a = single_mode_scalar(g, k=(5, 0))
        prod = pointwise_product(a, a)
        raw = forward_coeffs(g, prod.values)
        assert abs(raw[-6, 0]) > 0.2  # wrapped sum mode present
        clean = dealias_coeffs(g, raw)
        assert abs(clean[-6, 0]) < 1e-14
        cut = g.N // 3
        for kidx in np.ndindex(clean.shape):
            k = tuple(int(g.wave_integers[(j,) + kidx]) for j in range(2))
            if any(abs(kj) > cut for kj in k):
                assert abs(clean[kidx]) < 1e-14


class TestAdvectionKernel:
    @pytest.mark.parametrize("n", [2, 3])
    def test_symmetric_path_is_bit_identical(self, n):
        # u_b is u_a takes the n(n+1)/2-product path; a copy takes the n^2 one
        g = GridSpec(n=n, N=16, L=2.0 * np.pi)
        rng = np.random.Generator(np.random.Philox(n))
        u = rng.standard_normal((n,) + g.shape)
        th = rng.standard_normal(g.shape)
        vel, th_row = advection_coeffs(g, u, u, th)
        vel_ref, th_ref = advection_coeffs(g, u, u.copy(), th)
        assert np.array_equal(vel, vel_ref)
        assert np.array_equal(th_row, th_ref)

    @pytest.mark.parametrize("n, N", [(2, 16), (3, 16), (3, 32)])
    def test_products_one_at_a_time_match_stacked_transform(self, n, N):
        g = GridSpec(n=n, N=N, L=2.0 * np.pi)
        rng = np.random.Generator(np.random.Philox(20 + n))
        u = rng.standard_normal((n,) + g.shape)
        th = rng.standard_normal(g.shape)
        pairs = [(u[a], u[b]) for a in range(n) for b in range(a, n)] + [(c, th) for c in u]
        got = _band_products(g, pairs)
        want = band_coeffs(g, np.stack([a * b for a, b in pairs]))
        assert got.shape == want.shape == (len(pairs),) + g.band_shape
        assert np.array_equal(got, want)

    @staticmethod
    def _composed(g, u_a, u_b, th, gv, kappa):
        """The half-spectrum rows built from the coefficient primitives one by one, two projections."""
        uu_hat = dealias_coeffs(g, forward_coeffs(g, u_a[:, np.newaxis] * u_b[np.newaxis, :]))
        vel = -leray_coeffs(g, np.sum(g.ik[np.newaxis] * uu_hat, axis=1))
        mix = dealias_coeffs(g, forward_coeffs(g, u_a * th[np.newaxis]))
        coupling = leray_coeffs(g, dealias_coeffs(g, forward_coeffs(g, th[np.newaxis] * gv)))
        coupling[(Ellipsis,) + (0,) * g.n] = 0.0
        return vel + kappa * coupling, -np.sum(g.ik * mix, axis=0)

    @pytest.mark.parametrize("n", [2, 3])
    @pytest.mark.parametrize("same", [True, False])
    def test_fused_rows_match_composition(self, n, same):
        # advection plus coupling under one Leray projection against the
        # advective and coupling rows projected separately; the kernel's rows
        # are the band of the composition, which is exactly 0 off the band
        g = GridSpec(n=n, N=16, L=2.0 * np.pi)
        rng = np.random.Generator(np.random.Philox(10 + n))
        u = rng.standard_normal((n,) + g.shape)
        u_b = u if same else rng.standard_normal((n,) + g.shape)
        th = rng.standard_normal(g.shape)
        gv = rng.standard_normal((n,) + g.shape)
        off_band = ~g.dealias_mask
        vel, th_row = advection_coeffs(g, u, u_b, th, gv, 0.7)
        vel_ref, th_ref = self._composed(g, u, u_b, th, gv, 0.7)
        assert vel.shape == (n,) + g.band_shape and th_row.shape == g.band_shape
        assert np.all(vel_ref[:, off_band] == 0.0) and np.all(th_ref[off_band] == 0.0)
        assert np.max(np.abs(vel - vel_ref[g.band])) <= 1e-14 * np.max(np.abs(vel_ref))
        assert np.array_equal(th_row, th_ref[g.band])
        assert np.all(vel[(Ellipsis,) + (0,) * n] == 0.0)
        # without g the rows equal the composition value for value
        vel0, th0 = advection_coeffs(g, u, u_b, th)
        vel0_ref, th0_ref = self._composed(g, u, u_b, th, gv, 0.0)
        assert np.all(vel0_ref[:, off_band] == 0.0) and np.all(th0_ref[off_band] == 0.0)
        assert np.array_equal(vel0, vel0_ref[g.band]) and np.array_equal(th0, th0_ref[g.band])

    @pytest.mark.parametrize("n", [2, 3])
    def test_buoyancy_row_is_band_of_composition(self, n):
        g = GridSpec(n=n, N=16, L=2.0 * np.pi)
        rng = np.random.Generator(np.random.Philox(30 + n))
        th = rng.standard_normal(g.shape)
        gv = rng.standard_normal((n,) + g.shape)
        u0 = np.zeros((n,) + g.shape)
        coupling = self._composed(g, u0, u0, th, gv, 0.7)[0]
        assert np.all(coupling[:, ~g.dealias_mask] == 0.0)
        assert np.array_equal(buoyancy_coeffs(g, th, gv, 0.7), coupling[g.band])


class TestDivergenceSums:
    """Row-by-row divergence sums equal the full-product sums bit for bit."""

    @pytest.mark.parametrize("n", [2, 3])
    def test_tensor_and_vector_divergence(self, n):
        g = GridSpec(n=n, N=16, L=2.0 * np.pi)
        rng = np.random.Generator(np.random.Philox(20 + n))
        shape = (n, n) + g.spectral_shape
        T = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        assert np.array_equal(tensor_div_coeffs(g, T), np.sum(g.ik[np.newaxis] * T, axis=1))
        assert np.array_equal(div_coeffs(g, T[0]), np.sum(g.ik * T[0], axis=0))


class TestVerifyDispersive:
    def test_zero_field(self, grid2d):
        z = ScalarField(grid2d, np.zeros(grid2d.shape))
        rep = verify_dispersive(
            z, NormParams(p=3.0), NormParams(p=6.0), m=0,
            t_grid=[0.01, 0.1], sampler=BallSampler(num_centers=4, num_radii=4),
        )
        assert rep.max_ratio == 0.0

    def test_equal_indices_contraction(self, grid2d):
        f = gaussian_profile(grid2d, 0.08)
        rep = verify_dispersive(
            f, NormParams(p=3.0), NormParams(p=3.0), m=0,
            t_grid=np.geomspace(1e-3, 1.0, 8),
            sampler=BallSampler(num_centers=4, num_radii=4),
        )
        assert rep.max_ratio <= 1.0 + 0.05

    def test_parameter_constraints(self, grid2d):
        f = gaussian_profile(grid2d, 0.08)
        sampler = BallSampler(num_centers=4, num_radii=4)
        with pytest.raises(HypothesisError, match="tau_to <= tau_from"):
            verify_dispersive(f, NormParams(p=6.0), NormParams(p=3.0), 0, [0.1], sampler)
        with pytest.raises(HypothesisError, match="lambda_from == lambda_to"):
            verify_dispersive(
                f, NormParams(p=3.0, lam=0.5), NormParams(p=6.0, lam=0.0), 0, [0.1], sampler
            )

    def test_refinement_stability(self):
        vals = []
        for N in (16, 32):
            g = GridSpec(n=3, N=N, L=2 * np.pi)
            f = gaussian_profile(g, sigma=0.5)
            rep = verify_dispersive(
                f, NormParams(p=3.0), NormParams(p=6.0), m=0,
                t_grid=np.geomspace(1e-3, 1.0, 6),
                sampler=BallSampler(num_centers=8, num_radii=6),
            )
            vals.append(rep.max_ratio)
        assert vals[0] > 0
        assert abs(vals[1] - vals[0]) / vals[0] < 0.2

    def test_bound_flag(self, grid2d):
        f = gaussian_profile(grid2d, 0.08)
        rep = verify_dispersive(
            f, NormParams(p=3.0), NormParams(p=3.0), m=0, t_grid=[0.01],
            sampler=BallSampler(num_centers=4, num_radii=4), bound=1e-9,
        )
        assert rep.exceeded
