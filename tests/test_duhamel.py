"""Duhamel increments, the exponential integrator, and the estimate checks."""

import numpy as np
import pytest

from bqbox import (
    BallSampler,
    ConfigError,
    ConvergenceError,
    ForcingSpec,
    GridSpec,
    HypothesisError,
    NormParams,
    ScalarField,
    SolveConfig,
    State,
    VectorField,
    bilinear_increment,
    constant_in_time,
    coupling_increment,
    duhamel_residual,
    evolve,
    forcing_increment,
    spectral_divergence_residual,
    verify_bilinear_estimate,
    verify_linear_operator,
    zeros_like_state,
)
from bqbox.duhamel import Trajectory, _CompiledForcing, _phi1, _phi2
from bqbox.forcing import (
    HarmonicTerm,
    SampledScalarSeries,
    SampledSpectralForcing,
    TimeFourierField,
)
from bqbox.grid import forward_coeffs, inverse_values
from bqbox.norms import gaussian_profile
from bqbox.operators import dealias_coeffs, div_coeffs, leray_coeffs, tensor_div_coeffs
from bqbox.presets import (
    random_div_free,
    random_smooth_scalar,
    single_mode_scalar,
    single_mode_tensor,
    single_mode_vector,
    taylor_green,
)


def constant_trajectory(grid, state, t_end, n_nodes=5):
    times = np.linspace(0.0, t_end, n_nodes)
    return Trajectory(grid, times, [state] * n_nodes)


class TestPhiFunctions:
    def test_reference_values(self):
        # (e^z - 1)/z and (e^z - 1 - z)/z^2 against direct evaluation away
        # from 0 and the series limit at 0
        for z in (-50.0, -2.0, -0.5):
            assert _phi1(z) == pytest.approx((np.exp(z) - 1) / z, rel=1e-14)
            assert _phi2(z) == pytest.approx((np.exp(z) - 1 - z) / z**2, rel=1e-13)
        assert _phi1(0.0) == pytest.approx(1.0, rel=1e-14)
        assert _phi2(0.0) == pytest.approx(0.5, rel=1e-14)
        assert _phi1(-1e-9) == pytest.approx(1.0 - 0.5e-9, rel=1e-12)


class TestBilinearIncrement:
    def test_zero_argument(self, grid2d_box):
        z = constant_trajectory(grid2d_box, zeros_like_state(grid2d_box), 0.1)
        a = constant_trajectory(
            grid2d_box,
            State(taylor_green(grid2d_box), gaussian_profile(grid2d_box, 0.5)),
            0.1,
        )
        inc = bilinear_increment(z, a, 0.1)
        assert inc.max_norm() == 0.0
        inc2 = bilinear_increment(a, z, 0.1)
        assert inc2.max_norm() == 0.0

    def test_linearity_in_each_slot(self, grid2d_box):
        s = State(taylor_green(grid2d_box, amplitude=0.3), gaussian_profile(grid2d_box, 0.5))
        s2 = State(
            VectorField(grid2d_box, 2.0 * s.u.values),
            ScalarField(grid2d_box, 2.0 * s.theta.values),
        )
        a = constant_trajectory(grid2d_box, s, 0.2)
        a2 = constant_trajectory(grid2d_box, s2, 0.2)
        one = bilinear_increment(a, a, 0.2)
        dbl = bilinear_increment(a2, a, 0.2)
        scale = max(np.max(np.abs(dbl.u.values)), np.max(np.abs(dbl.theta.values)))
        assert np.max(np.abs(dbl.u.values - 2 * one.u.values)) <= 1e-10 * scale
        assert np.max(np.abs(dbl.theta.values - 2 * one.theta.values)) <= 1e-10 * scale

    def test_dense_quadrature_oracle(self, grid2d_box):
        # constant-in-time single-mode trajectories over one step: compare
        # the product-rule increment with a 1000-node plain trapezoid sum
        g = grid2d_box
        u = taylor_green(g, amplitude=1.0)
        th = single_mode_scalar(g, k=(1, 1), amplitude=0.7)
        s = State(u, th)
        t = 0.05
        traj = constant_trajectory(g, s, t, n_nodes=2)
        got = bilinear_increment(traj, traj, t)

        outer = u.values[:, np.newaxis] * u.values[np.newaxis, :]
        uu_hat = dealias_coeffs(g, forward_coeffs(g, outer))
        g_vel = -leray_coeffs(g, tensor_div_coeffs(g, uu_hat))
        mix_hat = dealias_coeffs(g, forward_coeffs(g, u.values * th.values[np.newaxis]))
        g_th = -div_coeffs(g, mix_hat)
        nodes = np.linspace(0.0, t, 1001)
        wts = np.full(1001, t / 1000.0)
        wts[0] = wts[-1] = t / 2000.0
        acc_v = np.zeros_like(g_vel)
        acc_t = np.zeros_like(g_th)
        for s_, w_ in zip(nodes, wts):
            decay = np.exp(-(t - s_) * g.k_squared)
            acc_v += w_ * decay[np.newaxis] * g_vel
            acc_t += w_ * decay * g_th
        want_u = inverse_values(g, acc_v).real
        want_th = inverse_values(g, acc_t).real
        scale = max(np.max(np.abs(want_u)), np.max(np.abs(want_th)))
        assert np.max(np.abs(got.u.values - want_u)) <= 1e-6 * scale
        assert np.max(np.abs(got.theta.values - want_th)) <= 1e-6 * scale

    def test_velocity_row_is_projected(self, grid2d_box):
        s = State(taylor_green(grid2d_box, amplitude=0.5), gaussian_profile(grid2d_box, 0.4))
        traj = constant_trajectory(grid2d_box, s, 0.1)
        inc = bilinear_increment(traj, traj, 0.1)
        assert spectral_divergence_residual(inc.u) <= 1e-10

    def test_coverage_gap(self, grid2d_box):
        s = State(taylor_green(grid2d_box), gaussian_profile(grid2d_box, 0.4))
        traj = constant_trajectory(grid2d_box, s, 0.1)
        with pytest.raises(Exception, match="cover"):
            bilinear_increment(traj, traj, 0.5)


class TestCouplingIncrement:
    def test_zero_temperature(self, grid2d_box):
        g = grid2d_box
        z = constant_trajectory(g, zeros_like_state(g), 0.1)
        gfield = constant_in_time(1.0, single_mode_vector(g, k=(0, 1), component=0))
        inc = coupling_increment(z, gfield, kappa=0.5, t=0.1)
        assert inc.max_norm() == 0.0

    def test_linear_in_kappa(self, grid2d_box):
        g = grid2d_box
        s = State(zeros_like_state(g).u, gaussian_profile(g, 0.5))
        traj = constant_trajectory(g, s, 0.1)
        gfield = constant_in_time(1.0, single_mode_vector(g, k=(0, 1), component=0))
        one = coupling_increment(traj, gfield, kappa=0.5, t=0.1)
        two = coupling_increment(traj, gfield, kappa=1.0, t=0.1)
        assert np.max(np.abs(two.u.values - 2 * one.u.values)) <= 1e-12 * np.max(
            np.abs(two.u.values)
        )

    def test_temperature_row_zero(self, grid2d_box):
        g = grid2d_box
        s = State(zeros_like_state(g).u, gaussian_profile(g, 0.5))
        traj = constant_trajectory(g, s, 0.1)
        gfield = constant_in_time(1.0, single_mode_vector(g, k=(0, 1), component=0))
        inc = coupling_increment(traj, gfield, kappa=0.7, t=0.1)
        assert np.max(np.abs(inc.theta.values)) == 0.0

    def test_per_mode_closed_form(self, grid2d_box):
        # constant-in-time theta * g with a single surviving mode:
        # the increment is kappa * P(theta g)_k (1 - e^{-t sig}) / sig
        g = grid2d_box
        th = single_mode_scalar(g, k=(1, 0), amplitude=1.0)
        s = State(zeros_like_state(g).u, th)
        traj = constant_trajectory(g, s, 0.2)
        gv = single_mode_vector(g, k=(0, 1), component=1, amplitude=1.0)
        gfield = constant_in_time(1.0, gv)
        kappa = 0.9
        t = 0.2
        got = coupling_increment(traj, gfield, kappa, t)
        prod = th.values[np.newaxis] * gv.values
        c = dealias_coeffs(g, forward_coeffs(g, prod))
        c = leray_coeffs(g, c)
        c[(slice(None),) + (0,) * 2] = 0.0
        sig = g.k_squared
        kernel = np.where(sig > 0, (1 - np.exp(-t * np.where(sig > 0, sig, 1))) / np.where(sig > 0, sig, 1), t)
        want = inverse_values(g, kappa * c * kernel[np.newaxis]).real
        assert np.max(np.abs(got.u.values - want)) <= 1e-8 * np.max(np.abs(want))


class TestForcingIncrement:
    def test_zero_forcing_errors(self, grid2d_box):
        forcing = ForcingSpec(period=1.0)
        cfg = SolveConfig(dt=0.05)
        with pytest.raises(Exception):
            forcing_increment(forcing, 0.1, cfg)

    def test_constant_single_mode_closed_form(self, grid2d_box):
        g = grid2d_box
        fv = single_mode_vector(g, k=(2, 0), component=0, amplitude=1.0)
        forcing = ForcingSpec(period=1.0, f=constant_in_time(1.0, fv))
        cfg = SolveConfig(dt=0.05, substeps=4)
        t = 0.25
        got = forcing_increment(forcing, t, cfg)
        src = div_coeffs(g, forward_coeffs(g, fv.values))
        sig = g.k_squared
        kernel = np.where(sig > 0, (1 - np.exp(-t * np.where(sig > 0, sig, 1))) / np.where(sig > 0, sig, 1), t)
        want = inverse_values(g, src * kernel).real
        assert np.max(np.abs(got.theta.values - want)) <= 1e-8 * np.max(np.abs(want))
        assert np.max(np.abs(got.u.values)) == 0.0

    def test_additive_in_components(self, grid2d_box):
        g = grid2d_box
        Ft = single_mode_tensor(g, k=(0, 1), row=0, col=1, amplitude=1.0)
        fv = single_mode_vector(g, k=(1, 0), component=0, amplitude=1.0)
        cfg = SolveConfig(dt=0.05, substeps=4)
        both = forcing_increment(ForcingSpec(period=1.0, F=constant_in_time(1.0, Ft),
                                             f=constant_in_time(1.0, fv)), 0.2, cfg)
        only_F = forcing_increment(ForcingSpec(period=1.0, F=constant_in_time(1.0, Ft)), 0.2, cfg)
        only_f = forcing_increment(ForcingSpec(period=1.0, f=constant_in_time(1.0, fv)), 0.2, cfg)
        scale = both.max_norm()
        assert np.max(np.abs(both.u.values - only_F.u.values - only_f.u.values)) <= 1e-12 * scale
        assert np.max(np.abs(both.theta.values - only_F.theta.values - only_f.theta.values)) <= 1e-12 * scale


class TestEvolve:
    def test_pure_heat_flow(self, grid2d_box):
        g = grid2d_box
        init = State(taylor_green(g, amplitude=1.0), single_mode_scalar(g, k=(1, 0), amplitude=0.5))
        cfg = SolveConfig(dt=0.005, substeps=2)
        traj = evolve(init, None, 0.05, cfg, mode="linearized")
        t = 0.05
        scale_u = np.exp(-t * 2.0)  # TG modes have |k'|^2 = 2 at L = 2 pi
        scale_th = np.exp(-t * 1.0)
        assert np.max(np.abs(traj.states[-1].u.values - scale_u * init.u.values)) <= 1e-10
        assert np.max(np.abs(traj.states[-1].theta.values - scale_th * init.theta.values)) <= 1e-10

    def test_linearized_matches_per_mode_ode_oracle(self, grid2d_box):
        g = grid2d_box
        T = 1.0
        fv = single_mode_vector(g, k=(1, 2), component=1, amplitude=1.0)
        tf = TimeFourierField(period=T, terms=(HarmonicTerm(harmonic=1, field=fv, phase=0.3),))
        forcing = ForcingSpec(period=T, f=tf)
        cfg = SolveConfig(dt=T / 64, substeps=32)
        traj = evolve(zeros_like_state(g), forcing, T, cfg, mode="linearized")
        got_hat = forward_coeffs(g, traj.states[-1].theta.values)
        src = div_coeffs(g, forward_coeffs(g, fv.values))
        sig = g.k_squared
        y = np.zeros_like(src)
        h = (T / 64) / 100

        def rhs(y, t):
            return -sig * y + np.cos(2 * np.pi * t / T + 0.3) * src

        t = 0.0
        for _ in range(round(T / h)):
            k1 = rhs(y, t)
            k2 = rhs(y + h / 2 * k1, t + h / 2)
            k3 = rhs(y + h / 2 * k2, t + h / 2)
            k4 = rhs(y + h * k3, t + h)
            y = y + h / 6 * (k1 + 2 * k2 + 2 * k3 + k4)
            t += h
        assert np.max(np.abs(got_hat - y)) <= 1e-6 * np.max(np.abs(y))
        assert np.max(np.abs(traj.states[-1].u.values)) == 0.0

    def test_full_mode_second_order(self, grid2d):
        init = State(taylor_green(grid2d, amplitude=1.0), gaussian_profile(grid2d, 0.15))
        t_end = 0.02
        sols = {}
        for div in (8, 16, 32, 256):
            cfg = SolveConfig(dt=t_end / div, substeps=2, picard_tol=1e-12)
            sols[div] = evolve(init, None, t_end, cfg, mode="full").states[-1]
        errs = []
        for div in (8, 16, 32):
            e = max(
                np.max(np.abs(sols[div].u.values - sols[256].u.values)),
                np.max(np.abs(sols[div].theta.values - sols[256].theta.values)),
            )
            errs.append(e)
        orders = [np.log2(errs[i] / errs[i + 1]) for i in range(2)]
        assert min(orders) >= 1.9

    def test_duhamel_identity_residual(self, grid2d_box):
        g = grid2d_box
        T = 1.0
        init = State(taylor_green(g, amplitude=1e-2), gaussian_profile(g, 0.5, amplitude=1e-2))
        Ft = single_mode_tensor(g, k=(0, 1), row=0, col=1, amplitude=1e-2)
        forcing = ForcingSpec(period=T, F=constant_in_time(T, Ft))
        cfg = SolveConfig(dt=T / 16, substeps=2, picard_tol=1e-11)
        traj = evolve(init, forcing, T / 4, cfg, mode="full")
        res = duhamel_residual(traj, forcing, cfg, mode="full")
        assert res <= 10 * cfg.picard_tol

    def test_divergence_free_along_trajectory(self, grid2d_box):
        g = grid2d_box
        init = State(taylor_green(g, amplitude=0.5), gaussian_profile(g, 0.5))
        cfg = SolveConfig(dt=0.01, substeps=2)
        traj = evolve(init, None, 0.1, cfg, mode="full")
        for s in traj.states:
            assert spectral_divergence_residual(s.u) <= 1e-10

    def test_mode_consistency_bitwise(self, grid3d_small):
        g = grid3d_small
        T = 1.0
        Ft = single_mode_tensor(g, k=(0, 1, 0), row=0, col=1, amplitude=1e-3)
        forcing = ForcingSpec(period=T, kappa=0.0, F=constant_in_time(T, Ft))
        cfg = SolveConfig(dt=T / 16, substeps=2)
        init = zeros_like_state(g)
        full = evolve(init, forcing, T, cfg, mode="full")
        ns = evolve(init, forcing, T, cfg, mode="navier-stokes")
        for a, b in zip(full.states, ns.states):
            assert np.array_equal(a.u.values, b.u.values)
            assert np.array_equal(a.theta.values, b.theta.values)

    def test_navier_stokes_validation(self, grid3d_small):
        g = grid3d_small
        T = 1.0
        bad_init = State(zeros_like_state(g).u, gaussian_profile(g, 0.2))
        cfg = SolveConfig(dt=T / 16)
        with pytest.raises(HypothesisError, match="theta0"):
            evolve(bad_init, None, T, cfg, mode="navier-stokes")
        fv = single_mode_vector(g, k=(1, 0, 0), component=0)
        forcing = ForcingSpec(period=T, f=constant_in_time(T, fv))
        with pytest.raises(HypothesisError, match="temperature forcing"):
            evolve(zeros_like_state(g), forcing, T, cfg, mode="navier-stokes")

    def test_linearity_in_data_and_forcing(self, grid2d_box):
        g = grid2d_box
        T = 1.0
        cfg = SolveConfig(dt=T / 16, substeps=4)
        x0 = State(taylor_green(g, amplitude=0.2), gaussian_profile(g, 0.4, amplitude=0.1))
        y0 = State(random_div_free(g, seed=3, amplitude=0.3), single_mode_scalar(g, (1, 1), 0.2))
        f1 = single_mode_vector(g, k=(1, 0), component=0, amplitude=1.0)
        f2 = single_mode_vector(g, k=(0, 1), component=1, amplitude=0.5)
        tf1 = TimeFourierField(period=T, terms=(HarmonicTerm(1, f1, 0.0),))
        tf2 = TimeFourierField(period=T, terms=(HarmonicTerm(2, f2, 0.4),))
        tf12 = TimeFourierField(period=T, terms=tf1.terms + tf2.terms)
        xy0 = State(
            VectorField(g, x0.u.values + y0.u.values),
            ScalarField(g, x0.theta.values + y0.theta.values),
        )
        a = evolve(x0, ForcingSpec(period=T, f=tf1), T, cfg, mode="linearized").states[-1]
        b = evolve(y0, ForcingSpec(period=T, f=tf2), T, cfg, mode="linearized").states[-1]
        ab = evolve(xy0, ForcingSpec(period=T, f=tf12), T, cfg, mode="linearized").states[-1]
        scale = ab.max_norm()
        assert np.max(np.abs(ab.u.values - a.u.values - b.u.values)) <= 1e-10 * scale
        assert np.max(np.abs(ab.theta.values - a.theta.values - b.theta.values)) <= 1e-10 * scale

    def test_picard_failure_reports_smallness(self, grid2d_box):
        g = grid2d_box
        init = State(taylor_green(g, amplitude=300.0), gaussian_profile(g, 0.4, amplitude=300.0))
        cfg = SolveConfig(dt=0.05, substeps=2, picard_max=8)
        with pytest.raises(ConvergenceError, match="smallness"):
            evolve(init, None, 0.1, cfg, mode="full")

    @pytest.mark.parametrize("mode", ["full", "linearized"])
    def test_nonfinite_initial_state_rejected(self, grid3d_small, mode):
        g = grid3d_small
        theta = gaussian_profile(g, 0.2).values.copy()
        theta[1, 2, 3] = np.nan
        init = State(random_div_free(g, seed=1, amplitude=0.1), ScalarField(g, theta))
        with pytest.raises(ConfigError, match="non-finite"):
            evolve(init, None, 0.2, SolveConfig(dt=0.05), mode=mode)

    def test_nonfinite_picard_residual_names_step(self, grid3d_small):
        # a NaN in the temperature forcing leaves the velocity row finite; the
        # residual must not let the finite row hide the NaN one
        g = grid3d_small
        fv = single_mode_vector(g, k=(1, 0, 0), component=0, amplitude=0.1)
        bad = fv.values.copy()
        bad[0, 1, 2, 3] = np.nan
        forcing = ForcingSpec(period=1.0, f=constant_in_time(1.0, VectorField(g, bad)))
        init = State(random_div_free(g, seed=1, amplitude=0.1), gaussian_profile(g, 0.2))
        with pytest.raises(ConvergenceError, match="not finite at step 0"):
            evolve(init, forcing, 0.125, SolveConfig(dt=0.0625), mode="full")

    def test_dt_must_divide_t_end(self, grid2d_box):
        init = zeros_like_state(grid2d_box)
        with pytest.raises(Exception, match="multiple of dt"):
            evolve(init, None, 0.13, SolveConfig(dt=0.05), mode="linearized")

    def test_dt_period_bound(self, grid2d_box):
        g = grid2d_box
        fv = single_mode_vector(g, k=(1, 0), component=0)
        forcing = ForcingSpec(period=1.0, f=constant_in_time(1.0, fv))
        with pytest.raises(Exception, match="period/16"):
            evolve(zeros_like_state(g), forcing, 1.0, SolveConfig(dt=0.25), mode="linearized")


class TestVerifyLinearOperator:
    def _fields(self, g, amp=1.0):
        F = single_mode_tensor(g, k=(0, 1, 0), row=0, col=1, amplitude=amp)
        f = single_mode_vector(g, k=(1, 0, 0), component=0, amplitude=amp)
        return F, f

    def test_zero_input(self, grid3d_small):
        g = grid3d_small
        F, f = self._fields(g, amp=0.0)
        rep = verify_linear_operator(
            F, f, NormParams(p=2.0), NormParams(p=6.0), sampler=BallSampler(4, 4)
        )
        assert rep.ratio == 0.0

    def test_constant_input_closed_form(self, grid3d_small):
        g = grid3d_small
        F, f = self._fields(g)
        rep = verify_linear_operator(
            F, f, NormParams(p=2.0), NormParams(p=6.0), sampler=BallSampler(4, 4)
        )
        # expected output: per-mode ik.f_hat / sig (horizon tail < 1e-10)
        from bqbox import lorentz_norm

        sig = g.k_squared
        inv = np.where(sig > 0, 1.0 / np.where(sig > 0, sig, 1.0), 0.0)
        vel = tensor_div_coeffs(g, forward_coeffs(g, F.values)) * inv[np.newaxis]
        th = div_coeffs(g, forward_coeffs(g, f.values)) * inv
        vel_f = VectorField(g, inverse_values(g, vel).real)
        th_f = ScalarField(g, inverse_values(g, th).real)
        out_norm = lorentz_norm(vel_f, p=6.0) + lorentz_norm(th_f, p=6.0)
        in_norm = lorentz_norm(F, p=2.0) + lorentz_norm(f, p=2.0)
        assert rep.ratio == pytest.approx(out_norm / in_norm, rel=1e-8)

    def test_exponent_relation_enforced(self, grid3d_small):
        F, f = self._fields(grid3d_small)
        with pytest.raises(HypothesisError, match="tau_r - tau_l"):
            verify_linear_operator(F, f, NormParams(p=2.0), NormParams(p=4.0))
        with pytest.raises(HypothesisError, match="chi"):
            verify_linear_operator(F, f, NormParams(p=2.0, lam=0.5), NormParams(p=6.0, lam=0.0))


class TestVerifyBilinear:
    def _pair(self, g, seed, amp=1.0):
        cfg = SolveConfig(dt=0.05, substeps=2)
        a = State(random_div_free(g, seed=seed, amplitude=amp),
                  random_smooth_scalar(g, seed=seed + 7, amplitude=amp))
        b = State(random_div_free(g, seed=seed + 1, amplitude=amp),
                  random_smooth_scalar(g, seed=seed + 8, amplitude=amp))
        ta = evolve(a, None, 0.2, cfg, mode="linearized")
        tb = evolve(b, None, 0.2, cfg, mode="linearized")
        return ta, tb

    def test_zero_pairs_excluded(self, grid3d_small):
        g = grid3d_small
        cfg = SolveConfig(dt=0.05, substeps=2)
        z = evolve(zeros_like_state(g), None, 0.2, cfg, mode="linearized")
        rep = verify_bilinear_estimate([(z, z)], p=3.0, sampler=BallSampler(4, 4))
        assert rep.empirical_constant == 0.0
        assert rep.ratios == []

    def test_scale_invariance(self, grid3d_small):
        g = grid3d_small
        ta, tb = self._pair(g, 20)
        rep1 = verify_bilinear_estimate([(ta, tb)], p=3.0, sampler=BallSampler(4, 4))
        scaled = Trajectory(
            g,
            ta.times,
            [State(VectorField(g, 3.0 * s.u.values), ScalarField(g, 3.0 * s.theta.values))
             for s in ta.states],
        )
        rep2 = verify_bilinear_estimate([(scaled, tb)], p=3.0, sampler=BallSampler(4, 4))
        assert rep2.empirical_constant == pytest.approx(rep1.empirical_constant, rel=1e-10)

    def test_hypothesis_gate(self, grid3d_small):
        ta, tb = self._pair(grid3d_small, 30)
        with pytest.raises(HypothesisError, match="2 < p <= n"):
            verify_bilinear_estimate([(ta, tb)], p=2.0)
        with pytest.raises(HypothesisError, match="2 < p <= n"):
            verify_bilinear_estimate([(ta, tb)], p=4.0)


def _at_node_samplers(grid, ts):
    """Each sampled-in-time source on ``ts``, with a distinct sample per node."""
    rng = np.random.default_rng(0)
    vels = [rng.standard_normal((grid.n,) + grid.shape) for _ in ts]
    ths = [rng.standard_normal(grid.shape) for _ in ts]
    traj = Trajectory(grid, ts, [State(VectorField(grid, v), ScalarField(grid, th))
                                 for v, th in zip(vels, ths)])
    series = SampledScalarSeries(times=ts, fields=[ScalarField(grid, th) for th in ths])
    extra = SampledSpectralForcing(times=ts, vel=vels, th=ths)
    compiled = _CompiledForcing(grid, None, "linearized", None, extra, ts)
    return {
        "trajectory": (lambda t: traj.sample(t).theta.values, ths),
        "scalar_series": (lambda t: series.value(t).values, ths),
        "compiled_forcing": (lambda t: compiled.rows_at(t)[0], vels),
    }


@pytest.mark.parametrize("source", ["trajectory", "scalar_series", "compiled_forcing"])
@pytest.mark.parametrize("node", [2, 4])
@pytest.mark.parametrize("offset", [0.0, -1e-13])
def test_interpolation_snaps_to_node(grid2d, source, node, offset):
    """At a node, or just below one, every sampler returns that node's sample exactly."""
    ts = np.arange(5) * 0.1
    sample, samples = _at_node_samplers(grid2d, ts)[source]
    assert np.array_equal(sample(ts[node] + offset), samples[node])
