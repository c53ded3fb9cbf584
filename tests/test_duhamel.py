"""Duhamel increments, the exponential integrator, and the estimate checks."""

import dataclasses
import re
import tracemalloc
import weakref

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
    constant_in_time,
    duhamel_residual,
    evolve,
    spectral_divergence_residual,
    verify_bilinear_estimate,
    verify_linear_operator,
    zeros_like_state,
)
from bqbox import duhamel
from bqbox.duhamel import (
    Trajectory,
    _add_on_band,
    _bilinear_path,
    _CompiledForcing,
    _coupling_path,
    _forcing_path,
    _phi1,
    _phi2,
    _StateRHS,
    _step_factors,
    _substep_weights,
    _to_state,
    _trap_weights,
    state_difference,
)
from bqbox.forcing import (
    HarmonicTerm,
    SampledScalarSeries,
    TimeFourierField,
)
from bqbox.grid import forward_coeffs, inverse_values
from bqbox.norms import gaussian_profile
from bqbox.operators import (
    buoyancy_coeffs,
    dealias_coeffs,
    div_coeffs,
    leray_coeffs,
    tensor_div_coeffs,
)
from bqbox.presets import (
    random_div_free,
    random_smooth_scalar,
    random_smooth_tensor,
    random_smooth_vector,
    single_mode_scalar,
    single_mode_tensor,
    single_mode_vector,
    taylor_green,
)


def constant_trajectory(grid, state, t_end, n_nodes=5):
    times = np.linspace(0.0, t_end, n_nodes)
    return Trajectory(grid, times, [state] * n_nodes)


def path_point(grid, path):
    """The state of a Duhamel path read at its one time; T_g's velocity-only rows get theta = 0."""
    vel, *th = next(path)
    return _to_state(grid, vel, th[0] if th else np.zeros(grid.spectral_shape, dtype=complex))


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

    def test_against_mpmath(self):
        # the old phi2 switched to its direct form at |z| = 1e-5 and lost up
        # to 5e-7 relative to cancellation just above it
        mpmath = pytest.importorskip("mpmath")
        z = np.concatenate([-np.logspace(-12, 3, 301), [-1.01e-5, -1e-4, -1e-3, -0.5, -0.4999]])
        got1, got2 = _phi1(z), _phi2(z)
        with mpmath.workdps(50):
            for zi, p1, p2 in zip(z, got1, got2):
                m = mpmath.mpf(float(zi))
                want1 = mpmath.expm1(m) / m
                want2 = (mpmath.expm1(m) - m) / (m * m)
                assert abs(p1 - want1) <= 1e-14 * abs(want1), zi
                assert abs(p2 - want2) <= 1e-14 * abs(want2), zi


class TestBilinearIncrement:
    def test_zero_argument(self, grid2d_box):
        z = constant_trajectory(grid2d_box, zeros_like_state(grid2d_box), 0.1)
        a = constant_trajectory(
            grid2d_box,
            State(taylor_green(grid2d_box), gaussian_profile(grid2d_box, 0.5)),
            0.1,
        )
        inc = path_point(grid2d_box, _bilinear_path(z, a, [0.1]))
        assert inc.max_norm() == 0.0
        inc2 = path_point(grid2d_box, _bilinear_path(a, z, [0.1]))
        assert inc2.max_norm() == 0.0

    def test_linearity_in_each_slot(self, grid2d_box):
        s = State(taylor_green(grid2d_box, amplitude=0.3), gaussian_profile(grid2d_box, 0.5))
        s2 = State(
            VectorField(grid2d_box, 2.0 * s.u.values),
            ScalarField(grid2d_box, 2.0 * s.theta.values),
        )
        a = constant_trajectory(grid2d_box, s, 0.2)
        a2 = constant_trajectory(grid2d_box, s2, 0.2)
        one = path_point(grid2d_box, _bilinear_path(a, a, [0.2]))
        dbl = path_point(grid2d_box, _bilinear_path(a2, a, [0.2]))
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
        got = path_point(g, _bilinear_path(traj, traj, [t]))

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
        inc = path_point(grid2d_box, _bilinear_path(traj, traj, [0.1]))
        assert spectral_divergence_residual(inc.u) <= 1e-10

    def test_coverage_gap(self, grid2d_box):
        s = State(taylor_green(grid2d_box), gaussian_profile(grid2d_box, 0.4))
        traj = constant_trajectory(grid2d_box, s, 0.1)
        with pytest.raises(Exception, match="cover"):
            path_point(grid2d_box, _bilinear_path(traj, traj, [0.5]))


class TestCouplingIncrement:
    def test_zero_temperature(self, grid2d_box):
        g = grid2d_box
        z = constant_trajectory(g, zeros_like_state(g), 0.1)
        gfield = constant_in_time(1.0, single_mode_vector(g, k=(0, 1), component=0))
        inc = path_point(g, _coupling_path(z, gfield, 0.5, [0.1]))
        assert inc.max_norm() == 0.0

    def test_linear_in_kappa(self, grid2d_box):
        g = grid2d_box
        s = State(zeros_like_state(g).u, gaussian_profile(g, 0.5))
        traj = constant_trajectory(g, s, 0.1)
        gfield = constant_in_time(1.0, single_mode_vector(g, k=(0, 1), component=0))
        one = path_point(g, _coupling_path(traj, gfield, 0.5, [0.1]))
        two = path_point(g, _coupling_path(traj, gfield, 1.0, [0.1]))
        assert np.max(np.abs(two.u.values - 2 * one.u.values)) <= 1e-12 * np.max(
            np.abs(two.u.values)
        )

    def test_temperature_row_zero(self, grid2d_box):
        g = grid2d_box
        s = State(zeros_like_state(g).u, gaussian_profile(g, 0.5))
        traj = constant_trajectory(g, s, 0.1)
        gfield = constant_in_time(1.0, single_mode_vector(g, k=(0, 1), component=0))
        inc = path_point(g, _coupling_path(traj, gfield, 0.7, [0.1]))
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
        got = path_point(g, _coupling_path(traj, gfield, kappa, [t]))
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
        with pytest.raises(ConfigError, match="at least one component"):
            _forcing_path(forcing, [0.1], cfg)

    def test_constant_single_mode_closed_form(self, grid2d_box):
        g = grid2d_box
        fv = single_mode_vector(g, k=(2, 0), component=0, amplitude=1.0)
        forcing = ForcingSpec(period=1.0, f=constant_in_time(1.0, fv))
        cfg = SolveConfig(dt=0.05, substeps=4)
        t = 0.25
        got = path_point(g, _forcing_path(forcing, [t], cfg))
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
        F, f = constant_in_time(1.0, Ft), constant_in_time(1.0, fv)

        def forcing_term(**parts):
            return path_point(g, _forcing_path(ForcingSpec(period=1.0, **parts), [0.2], cfg))

        both, only_F, only_f = forcing_term(F=F, f=f), forcing_term(F=F), forcing_term(f=f)
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

    @pytest.mark.parametrize("where, part", [(3, "theta"), (-1, "u")])
    def test_duhamel_residual_reads_a_nan_state(self, grid2d_box, where, part):
        # a running max() from 0.0 keeps its value over a NaN defect, and a
        # max() over the states keeps its value over a NaN scale, so a NaN in
        # a later state read as small as the clean run
        g = grid2d_box
        T = 1.0
        init = State(taylor_green(g, amplitude=1e-2), gaussian_profile(g, 0.5, amplitude=1e-2))
        Ft = single_mode_tensor(g, k=(0, 1), row=0, col=1, amplitude=1e-2)
        forcing = ForcingSpec(period=T, F=constant_in_time(T, Ft))
        cfg = SolveConfig(dt=T / 16, substeps=2, picard_tol=1e-11)
        traj = evolve(init, forcing, T / 2, cfg, mode="full")
        assert len(traj.states) == 9
        assert duhamel_residual(traj, forcing, cfg, mode="full") <= 10 * cfg.picard_tol
        state = traj.states[where]
        fields = {"u": state.u, "theta": state.theta}
        values = fields[part].values.copy()
        values.flat[7] = np.nan
        fields[part] = type(fields[part])(g, values)
        states = list(traj.states)
        states[where] = State(fields["u"], fields["theta"])
        bad = Trajectory(g, traj.times, states)
        assert np.isnan(bad.states[where].max_norm())
        assert np.isnan(duhamel_residual(bad, forcing, cfg, mode="full"))

    def test_divergence_free_along_trajectory(self, grid2d_box):
        g = grid2d_box
        init = State(taylor_green(g, amplitude=0.5), gaussian_profile(g, 0.5))
        cfg = SolveConfig(dt=0.01, substeps=2)
        traj = evolve(init, None, 0.1, cfg, mode="full")
        for s in traj.states:
            assert spectral_divergence_residual(s.u) <= 1e-10

    def test_navier_stokes_is_not_a_solver_mode(self, grid2d_box):
        # the theta = 0 case of full mode: only the run config names it
        init = zeros_like_state(grid2d_box)
        cfg = SolveConfig(dt=0.05)
        with pytest.raises(ConfigError, match="unknown mode 'navier-stokes'"):
            evolve(init, None, 0.1, cfg, mode="navier-stokes")
        traj = evolve(init, None, 0.1, cfg)
        with pytest.raises(ConfigError, match="unknown mode 'navier-stokes'"):
            duhamel_residual(traj, None, cfg, mode="navier-stokes")

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
        # (forcings reject non-finite patterns when built, so the NaN is put in after)
        g = grid3d_small
        fv = single_mode_vector(g, k=(1, 0, 0), component=0, amplitude=0.1)
        forcing = ForcingSpec(period=1.0, f=constant_in_time(1.0, fv))
        fv.values[0, 1, 2, 3] = np.nan
        init = State(random_div_free(g, seed=1, amplitude=0.1), gaussian_profile(g, 0.2))
        with pytest.raises(ConvergenceError, match="not finite at step 0"):
            evolve(init, forcing, 0.125, SolveConfig(dt=0.0625), mode="full")

    @pytest.mark.parametrize("node, stride, step", [(1, 1, 0), (2, 1, 1), (1, 2, 1), (3, 2, 3)])
    def test_nonfinite_stored_state_names_step(self, grid3d_small, node, stride, step):
        # linearized mode has no Picard residual: one NaN mode in a sampled
        # temperature row must stop the run at the first stored state it reaches
        g = grid3d_small
        rows = [np.zeros(g.band_shape, dtype=complex) for _ in range(5)]
        rows[node][1, 2, 2] = np.nan
        extra = [(None, row) for row in rows]
        init = State(random_div_free(g, seed=1, amplitude=0.1), gaussian_profile(g, 0.2))
        with pytest.raises(ConvergenceError, match=f"stored state is not finite at step {step} "):
            evolve(init, None, 0.25, SolveConfig(dt=0.0625), mode="linearized", extra=extra,
                   store_stride=stride)

    @pytest.mark.parametrize("bad, phase", [(np.nan, 0.0), (np.inf, 0.0), (0.0, np.nan)])
    def test_nonfinite_forcing_rejected(self, grid3d_small, bad, phase):
        g = grid3d_small
        values = single_mode_vector(g, k=(1, 0, 0), component=0, amplitude=0.1).values.copy()
        values[0, 1, 2, 3] += bad
        init = State(random_div_free(g, seed=1, amplitude=0.1), gaussian_profile(g, 0.2))
        with pytest.raises(ConfigError, match="harmonic 2 has a non-finite"):
            f = TimeFourierField(period=1.0, terms=(HarmonicTerm(2, VectorField(g, values), phase),))
            evolve(init, ForcingSpec(period=1.0, f=f), 0.125, SolveConfig(dt=0.0625),
                   mode="linearized")

    def test_dt_must_divide_t_end(self, grid2d_box):
        init = zeros_like_state(grid2d_box)
        with pytest.raises(Exception, match="multiple of dt"):
            evolve(init, None, 0.13, SolveConfig(dt=0.05), mode="linearized")

    def test_linearized_refuses_a_g_coupling(self, grid2d_box):
        # the coupling of a linearized run goes in as frozen rows on a forcing
        # without g; the message names what a config can do instead
        g = grid2d_box
        gv = single_mode_vector(g, k=(1, 0), component=1)
        forcing = ForcingSpec(period=1.0, kappa=0.5, g=constant_in_time(1.0, gv))
        with pytest.raises(ConfigError) as err:
            evolve(zeros_like_state(g), forcing, 1.0, SolveConfig(dt=0.0625), mode="linearized")
        message = str(err.value)
        for name in ("'full'", "forcing.g", "forcing.kappa", "periodic-linear"):
            assert name in message
        assert "eta" not in message
        # without kappa the g field is not a coupling
        evolve(zeros_like_state(g), dataclasses.replace(forcing, kappa=0.0), 1.0,
               SolveConfig(dt=0.0625), mode="linearized")

    def test_dt_period_bound(self, grid2d_box):
        g = grid2d_box
        fv = single_mode_vector(g, k=(1, 0), component=0)
        forcing = ForcingSpec(period=1.0, f=constant_in_time(1.0, fv))
        with pytest.raises(Exception, match="period/16"):
            evolve(zeros_like_state(g), forcing, 1.0, SolveConfig(dt=0.25), mode="linearized")


def _value_rows(forcing, t):
    """The analytic rows (vel, th) at t on the half spectrum, from the forcing's values at t.

    P div F(t) and div f(t) of the patterns summed in physical space; None for
    an absent part.
    """
    g = forcing.grid
    vel = th = None
    if forcing.F is not None:
        vel = leray_coeffs(g, tensor_div_coeffs(g, forward_coeffs(g, forcing.F.value(t).values)))
    if forcing.f is not None:
        th = div_coeffs(g, forward_coeffs(g, forcing.f.value(t).values))
    return vel, th


def _two_value_loop(init, forcing, n_steps, cfg):
    """Stored states of the step with two nonlinearity values per node.

    Each step evaluates G_state afresh at its start and starts Picard from
    the start state's nonlinearity (evaluated at t_b when G_state depends on
    t); the forcing is analytic only.
    """
    g = init.grid
    dt = cfg.dt
    rhs = _StateRHS(g, forcing)
    E = _step_factors(g, dt, {})[0]
    _, Wa, Wb = _step_factors(g, dt, {}, on=g.band)
    h_s = dt / (cfg.substeps - 1)
    u = leray_coeffs(g, forward_coeffs(g, init.u.values))
    th = forward_coeffs(g, init.theta.values)
    states = [_to_state(g, u, th)]
    for i in range(n_steps):
        t_a, t_b = i * dt, (i + 1) * dt
        fixed = [E * u, E * th]
        for j, A in enumerate(_substep_weights(g, dt, cfg.substeps)):
            for k, row in enumerate(_value_rows(forcing, t_a + j * h_s)):
                if row is not None:
                    fixed[k] = fixed[k] + A * row
        g_a = rhs(u, th, t_a)
        _add_on_band(fixed, g, [(Wa, g_a)])
        g_b = rhs(u, th, t_b) if rhs.time_dependent else g_a
        x = _add_on_band([f.copy() for f in fixed], g, [(Wb, g_b)])
        for _ in range(cfg.picard_max):
            nxt = _add_on_band([f.copy() for f in fixed], g, [(Wb, rhs(*x, t_b))])
            res = max(np.max(np.abs(a - b)) for a, b in zip(nxt, x))
            x = nxt
            if res <= cfg.picard_tol * max(np.max(np.abs(a)) for a in nxt):
                break
        u, th = x
        states.append(_to_state(g, u, th))
    return states


# the Navier-Stokes case of full mode: theta0 = 0 and no g
NAVIER_STOKES = pytest.param("full", None, id="navier-stokes-None")


class TestOneValuePerNode:
    """Each node gets one nonlinearity value: t = 0 its own, every later node
    Picard's last evaluation; the predictor extrapolates the last three."""

    @staticmethod
    def _problem(g, g_harmonic, picard_tol=1e-10):
        T = 1.0
        Ft = single_mode_tensor(g, k=(0, 1, 0), row=0, col=1, amplitude=1e-2)
        theta0 = ScalarField(g, np.zeros(g.shape))
        gf = None
        if g_harmonic is not None:
            theta0 = gaussian_profile(g, 0.2, amplitude=0.1)
            gv = single_mode_vector(g, k=(1, 0, 0), component=2, amplitude=1.0)
            gf = TimeFourierField(period=T, terms=(HarmonicTerm(g_harmonic, gv, 0.4),))
        forcing = ForcingSpec(period=T, kappa=0.5, F=constant_in_time(T, Ft), g=gf)
        init = State(random_div_free(g, seed=2, amplitude=0.1), theta0)
        return init, forcing, SolveConfig(dt=T / 16, substeps=2, picard_tol=picard_tol)

    @pytest.mark.parametrize("mode, g_harmonic", [("full", 0), NAVIER_STOKES, ("full", 1)])
    def test_one_call_per_picard_iteration_after_the_first_node(
            self, grid3d_small, monkeypatch, mode, g_harmonic):
        init, forcing, cfg = self._problem(grid3d_small, g_harmonic)
        calls, iterations = [], []
        call = _StateRHS.__call__
        monkeypatch.setattr(_StateRHS, "__call__", lambda self, *a: calls.append(1) or call(self, *a))
        picard = duhamel._picard
        monkeypatch.setattr(duhamel, "_picard",
                            lambda *a: (lambda out: iterations.append(out[2]) or out)(picard(*a)))
        n_steps = 6
        evolve(init, forcing, n_steps * cfg.dt, cfg, mode=mode)
        assert len(iterations) == n_steps
        assert len(calls) == 1 + sum(iterations)

    @pytest.mark.parametrize("mode, g_harmonic", [("full", 0), NAVIER_STOKES, ("full", 1)])
    def test_close_to_two_values_per_node(self, grid3d_small, mode, g_harmonic):
        # both close the same implicit steps to picard_tol; they differ only in
        # which Picard iterate gives a node its nonlinearity, so the states
        # agree to a small multiple of picard_tol
        n_steps = 8
        init, forcing, cfg = self._problem(grid3d_small, g_harmonic, picard_tol=1e-12)
        got = evolve(init, forcing, n_steps * cfg.dt, cfg, mode=mode).states
        ref = _two_value_loop(init, forcing, n_steps, cfg)
        scale = max(s.max_norm() for s in ref)
        for a, b in zip(got, ref):
            assert state_difference(a, b).max_norm() <= 1e-11 * scale


class TestNodeValuesReleased:
    """A step holds at most three node values, and only two through its Picard loop."""

    def test_oldest_value_gone_before_picard(self, grid3d_small, monkeypatch):
        # step i extrapolates from the values of nodes i, i - 1 and i - 2 and
        # then reads only nodes i and i - 1: node i - 2's value must be freed
        # by the time step i's Picard starts (no loop variable may keep it)
        init, forcing, cfg = TestOneValuePerNode._problem(grid3d_small, 0)
        evaluations = []  # weak references to each evaluation's rows
        nodes = []  # per node, the weak references to its value
        call = _StateRHS.__call__

        def rhs(self, *args):
            rows = call(self, *args)
            evaluations.append([weakref.ref(row) for row in rows])
            return rows

        picard = duhamel._picard
        entered = []

        def spy(*args):
            i = args[-1]
            if not nodes:
                nodes.append(evaluations[0])  # node 0 has an evaluation of its own
            assert len(nodes) == i + 1
            alive = [all(ref() is not None for ref in refs) for refs in nodes]
            assert alive[-2:] == [True] * min(i + 1, 2)
            if i >= 2:
                assert not any(ref() is not None for ref in nodes[i - 2])
            entered.append(i)
            out = picard(*args)
            nodes.append([weakref.ref(row) for row in out[1]])
            return out

        monkeypatch.setattr(_StateRHS, "__call__", rhs)
        monkeypatch.setattr(duhamel, "_picard", spy)
        n_steps = 6
        evolve(init, forcing, n_steps * cfg.dt, cfg)
        assert entered == list(range(n_steps))


class TestPredictorReuse:
    """Reusing the node values, for the start term and the extrapolated
    predictor, keeps the trajectory of the two-value loop with fewer calls;
    a time-dependent g saves at least the predictor's call of every step."""

    @pytest.mark.parametrize("mode, g_harmonic", [("full", 0), NAVIER_STOKES, ("full", 1)])
    def test_same_trajectory_one_call_fewer(self, grid3d_small, monkeypatch, mode, g_harmonic):
        n_steps = 8
        init, forcing, cfg = TestOneValuePerNode._problem(grid3d_small, g_harmonic,
                                                          picard_tol=1e-12)
        calls = []
        call = _StateRHS.__call__
        monkeypatch.setattr(_StateRHS, "__call__", lambda self, *a: calls.append(1) or call(self, *a))

        def run(loop):
            calls.clear()
            return loop(), len(calls)

        got, got_calls = run(lambda: evolve(init, forcing, n_steps * cfg.dt, cfg, mode=mode).states)
        ref, ref_calls = run(lambda: _two_value_loop(init, forcing, n_steps, cfg))
        scale = max(s.max_norm() for s in ref)
        for a, b in zip(got, ref):
            assert state_difference(a, b).max_norm() <= 1e-11 * scale
        # the extrapolated predictor may take more Picard iterations than one
        # started from the start state's value, so only the sum is bounded
        assert got_calls < ref_calls
        if g_harmonic == 1:
            assert got_calls <= ref_calls - n_steps


class TestNodeRowPredictor:
    """Picard started from one row of G_state per node along a nearby solution."""

    @staticmethod
    def _rows(traj, forcing):
        grid = traj.grid
        rhs = _StateRHS(grid, forcing)
        return [rhs(forward_coeffs(grid, s.u.values), forward_coeffs(grid, s.theta.values), t)
                for t, s in zip(traj.times, traj.states)]

    @pytest.mark.parametrize("mode, g_harmonic", [("full", 0), NAVIER_STOKES, ("full", 1)])
    def test_rows_of_the_solution_close_each_step_at_once(self, grid3d_small, mode, g_harmonic):
        # rows of the run's own states: each step's first Picard iterate is
        # accepted, so the run makes the t = 0 evaluation plus one per step,
        # and drops every row it was handed
        n_steps = 8
        init, forcing, cfg = TestOneValuePerNode._problem(grid3d_small, g_harmonic)
        cold = evolve(init, forcing, n_steps * cfg.dt, cfg, mode=mode)
        rows = self._rows(cold, forcing)
        warm = evolve(init, forcing, n_steps * cfg.dt, cfg, mode=mode, _predictor=rows)
        assert warm.meta["rhs_evaluations"] == n_steps + 1
        assert warm.meta["picard_iterations"] == n_steps
        assert cold.meta["rhs_evaluations"] > n_steps + 1
        assert rows == [None] * (n_steps + 1)
        scale = max(s.max_norm() for s in cold.states)
        for a, b in zip(warm.states, cold.states):
            assert state_difference(a, b).max_norm() <= 1e-12 * scale

    def test_far_rows_still_converge(self, grid3d_small):
        # rows of another solution only move Picard's start: every step still
        # closes to picard_tol, so the run ends near the extrapolated one
        n_steps = 8
        init, forcing, cfg = TestOneValuePerNode._problem(grid3d_small, 0, picard_tol=1e-12)
        other = State(random_div_free(grid3d_small, seed=5, amplitude=0.1), init.theta)
        rows = self._rows(evolve(other, forcing, n_steps * cfg.dt, cfg), forcing)
        warm = evolve(init, forcing, n_steps * cfg.dt, cfg, _predictor=rows)
        cold = evolve(init, forcing, n_steps * cfg.dt, cfg)
        assert warm.meta["picard_iterations"] > n_steps
        scale = max(s.max_norm() for s in cold.states)
        for a, b in zip(warm.states, cold.states):
            assert state_difference(a, b).max_norm() <= 1e-11 * scale

    def test_one_row_per_step_node(self, grid3d_small):
        init, forcing, cfg = TestOneValuePerNode._problem(grid3d_small, 0)
        rows = self._rows(evolve(init, forcing, 4 * cfg.dt, cfg), forcing)
        with pytest.raises(ConfigError, match="predictor has 5 rows for 4 step nodes"):
            evolve(init, forcing, 3 * cfg.dt, cfg, _predictor=rows)

    def test_linearized_run_refuses_rows(self, grid3d_small):
        # a linearized step has no Picard iteration to start, so the rows
        # would go unread: refused before the run touches them
        init, forcing, cfg = TestOneValuePerNode._problem(grid3d_small, None)
        rows = self._rows(evolve(init, forcing, 4 * cfg.dt, cfg), forcing)
        with pytest.raises(ConfigError, match="predictor needs mode 'full'"):
            evolve(init, forcing, 4 * cfg.dt, cfg, mode="linearized", _predictor=rows)
        assert all(row is not None for row in rows)


class TestStepCounters:
    """``meta`` totals the right-hand-side evaluations and Picard iterations of a run."""

    @pytest.mark.parametrize("mode", ["full", "linearized"])
    def test_meta_counts_match_calls(self, grid3d_small, monkeypatch, mode):
        g = grid3d_small
        T, n_steps = 1.0, 5
        Ft = single_mode_tensor(g, k=(0, 1, 0), row=0, col=1, amplitude=1e-2)
        forcing = ForcingSpec(period=T, F=constant_in_time(T, Ft))
        init = State(random_div_free(g, seed=2, amplitude=0.1), ScalarField(g, np.zeros(g.shape)))
        cfg = SolveConfig(dt=T / 16, substeps=2)
        calls = []
        call = _StateRHS.__call__
        monkeypatch.setattr(_StateRHS, "__call__", lambda self, *a: calls.append(1) or call(self, *a))
        collected = evolve(init, forcing, n_steps * cfg.dt, cfg, mode=mode)
        collected_calls = len(calls)
        streamed = evolve(init, forcing, n_steps * cfg.dt, cfg, mode=mode,
                          on_state=lambda t, s: None)
        assert len(calls) == 2 * collected_calls
        assert streamed.meta == collected.meta
        assert collected.meta["rhs_evaluations"] == collected_calls
        picard = collected.meta["picard_iterations"]
        if mode == "linearized":
            assert collected_calls == picard == 0
        else:
            assert collected_calls == 1 + picard
            assert n_steps <= picard <= n_steps * collected.meta["picard_iters_max"]


class TestStateConsumer:
    """``on_state`` sees every stored state, bit for bit, and nothing is kept."""

    @pytest.mark.parametrize("mode, stride, n_steps", [
        ("full", 1, 4), ("linearized", 1, 4), ("full", 3, 7), ("linearized", 3, 7),
    ])
    def test_same_sequence_as_collected(self, grid3d_small, mode, stride, n_steps):
        # n_steps 7 at stride 3 stores steps 3, 6 and the short last step 7
        g = grid3d_small
        T = 1.0
        Ft = single_mode_tensor(g, k=(0, 1, 0), row=0, col=1, amplitude=1e-2)
        fv = single_mode_vector(g, k=(1, 0, 0), component=2, amplitude=1e-2)
        gv = single_mode_vector(g, k=(1, 0, 0), component=2, amplitude=1.0)
        forcing = ForcingSpec(period=T, kappa=0.5, F=constant_in_time(T, Ft),
                              f=TimeFourierField(period=T, terms=(HarmonicTerm(1, fv, 0.3),)),
                              g=TimeFourierField(period=T, terms=(HarmonicTerm(1, gv, 0.4),)))
        init = State(random_div_free(g, seed=2, amplitude=0.1), gaussian_profile(g, 0.2, 0.1))
        cfg = SolveConfig(dt=T / 16, substeps=3)
        extra = None
        if mode == "linearized":
            # the coupling of a frozen temperature: rows on the forcing without g
            th = gaussian_profile(g, 0.2, 0.1).values
            nodes = np.arange(n_steps + 1) * cfg.dt
            extra = [(buoyancy_coeffs(g, th, forcing.g.value(t).values, forcing.kappa), None)
                     for t in nodes]
            forcing = dataclasses.replace(forcing, g=None, kappa=0.0)
        collected = evolve(init, forcing, n_steps * cfg.dt, cfg, mode=mode, extra=extra,
                           store_stride=stride)
        seen = []
        streamed = evolve(init, forcing, n_steps * cfg.dt, cfg, mode=mode, extra=extra,
                          store_stride=stride, on_state=lambda t, s: seen.append((t, s)))
        assert [t for t, _ in seen] == list(collected.times)
        assert len(collected.times) == {1: 5, 3: 4}[stride]
        for (_, s), c in zip(seen, collected.states):
            assert np.array_equal(s.u.values, c.u.values)
            assert np.array_equal(s.theta.values, c.theta.values)
        assert streamed.states == [] and len(streamed.times) == 0
        assert streamed.meta == collected.meta


class TestStepWorkingSet:
    """One full-mode step holds a few states of working arrays, not the sums of all its parts."""

    def test_peak_of_a_step_in_states(self):
        # 3-D N = 16 with F, a harmonic-1 f and a harmonic-1 g (so G_state
        # depends on t), stored states discarded: what stays is the forcing
        # rows, the step factors, the g cache, up to three node values of the
        # nonlinearity and one step's arrays; the analytic substep rows held
        # at once, the Picard copies, the start state held through the Picard
        # loop, and the stacked products with their whole rfft outputs put it
        # at 15 states
        g = GridSpec(n=3, N=16, L=2 * np.pi)
        T = 1.0
        Ft = random_smooth_tensor(g, seed=4, amplitude=1e-3)
        fv = single_mode_vector(g, k=(1, 0, 0), component=0, amplitude=1e-3)
        gv = single_mode_vector(g, k=(1, 0, 0), component=2, amplitude=1.0)
        forcing = ForcingSpec(period=T, kappa=0.3, F=constant_in_time(T, Ft),
                              f=TimeFourierField(period=T, terms=(HarmonicTerm(1, fv, 0.1),)),
                              g=TimeFourierField(period=T, terms=(HarmonicTerm(1, gv, 0.4),)))
        init = State(random_div_free(g, seed=2, amplitude=1e-2), gaussian_profile(g, 0.5, 1e-2))
        cfg = SolveConfig(dt=T / 16, substeps=4)

        def peak(steps):
            tracemalloc.start()
            try:
                base = tracemalloc.get_traced_memory()[0]
                evolve(init, forcing, steps * cfg.dt, cfg, mode="full", on_state=lambda t, s: None)
                return tracemalloc.get_traced_memory()[1] - base
            finally:
                tracemalloc.stop()

        state_bytes = 4 * 16**3 * 8
        peak(1)  # multiplier caches outside the measured runs
        assert peak(4) < 12 * state_bytes


class TestForcingCoupled:
    """A forcing couples theta into u only through a g field with kappa > 0."""

    @pytest.mark.parametrize("g_given, kappa, coupled", [
        (False, 0.0, False), (False, 0.5, False), (True, 0.0, False), (True, 0.5, True),
    ])
    def test_coupled(self, grid3d_small, g_given, kappa, coupled):
        gv = single_mode_vector(grid3d_small, k=(1, 0, 0), component=2, amplitude=1.0)
        g = constant_in_time(1.0, gv) if g_given else None
        assert ForcingSpec(period=1.0, kappa=kappa, g=g).coupled is coupled


class TestForcingGrids:
    """The terms of one forcing, and its components, live on one grid."""

    def test_components_on_two_grids_refused(self):
        a, b = GridSpec(2, 16, L=1.0), GridSpec(2, 16, L=2.0)
        F = constant_in_time(1.0, single_mode_tensor(a, k=(1, 0), row=0, col=1))
        f = constant_in_time(1.0, single_mode_vector(b, k=(1, 0), component=0))
        message = f"forcing component f lives on {b}, the first component on {a}"
        with pytest.raises(ConfigError, match=re.escape(message)):
            ForcingSpec(period=1.0, F=F, f=f)

    def test_terms_on_two_grids_refused(self):
        a, b = GridSpec(2, 16, L=1.0), GridSpec(2, 16, L=2.0)
        terms = (HarmonicTerm(0, single_mode_vector(a, k=(1, 0), component=0)),
                 HarmonicTerm(1, single_mode_vector(b, k=(1, 0), component=0)))
        message = f"forcing harmonic 1 lives on {b}, the first term on {a}"
        with pytest.raises(ConfigError, match=re.escape(message)):
            TimeFourierField(period=1.0, terms=terms)

    def test_empty_term_list_refused(self):
        # with no term there is no grid to read, and no forcing to build
        with pytest.raises(ConfigError, match="needs at least one harmonic term"):
            TimeFourierField(period=1.0, terms=())


class TestGCache:
    """g is evaluated once per evolve if it ignores t, and once per step time otherwise."""

    @pytest.mark.parametrize("g_harmonic", [0, 1])
    def test_value_calls_and_cache_size(self, grid3d_small, monkeypatch, g_harmonic):
        g = grid3d_small
        T, n_steps = 1.0, 6
        gv = single_mode_vector(g, k=(1, 0, 0), component=2, amplitude=1.0)
        gf = TimeFourierField(period=T, terms=(HarmonicTerm(g_harmonic, gv, 0.4),))
        forcing = ForcingSpec(period=T, kappa=0.5, g=gf)
        init = State(random_div_free(g, seed=2, amplitude=0.1), gaussian_profile(g, 0.2, amplitude=0.1))
        cfg = SolveConfig(dt=T / 16, substeps=2)

        value_calls, cache_sizes = [], []
        value = TimeFourierField.value
        monkeypatch.setattr(TimeFourierField, "value",
                            lambda self, t: value_calls.append(t) or value(self, t))
        call = _StateRHS.__call__
        monkeypatch.setattr(_StateRHS, "__call__",
                            lambda self, *a: cache_sizes.append(len(self._g)) or call(self, *a))
        evolve(init, forcing, n_steps * cfg.dt, cfg, mode="full")
        assert len(value_calls) == (1 if g_harmonic == 0 else n_steps + 1)
        assert max(cache_sizes) <= (1 if g_harmonic == 0 else 2)


class TestStepQuadrature:
    @pytest.mark.parametrize("m", [2, 4, 7])
    def test_substep_weights_match_recursion(self, grid3d_small, m):
        # sum_j A_j r_j against the composite recursion acc <- E_s acc + Wa r_j + Wb r_{j+1}
        g = grid3d_small
        dt = 1.0 / 16
        rng = np.random.default_rng(m)
        shape = (g.n,) + g.spectral_shape
        rows = [rng.standard_normal(shape) + 1j * rng.standard_normal(shape) for _ in range(m)]
        h_s = dt / (m - 1)
        E_s = np.exp(-h_s * g.k_squared)
        Wa_s, Wb_s = _trap_weights(h_s, g.k_squared)
        want = 0.0
        for j in range(m - 1):
            want = want * E_s + Wa_s * rows[j] + Wb_s * rows[j + 1]
        got = sum(A * r for A, r in zip(_substep_weights(g, dt, m), rows))
        assert np.max(np.abs(got - want)) <= 1e-15 * np.max(np.abs(want))

    def test_divergence_free_without_per_step_projection(self, grid3d_small):
        # every increment is projected where it is made, so 256 full-mode steps
        # with forcing and a time-dependent coupling stay divergence-free.  The
        # forcing fills every mode: a mode decayed to roundoff size would make
        # the per-mode relative residual meaningless with or without projection.
        g = grid3d_small
        T = 1.0
        Ft = random_smooth_tensor(g, seed=1, exponent=1.0, amplitude=0.1)
        fv = random_smooth_vector(g, seed=2, exponent=1.0, amplitude=0.1)
        gv = random_smooth_vector(g, seed=3, exponent=1.0)
        forcing = ForcingSpec(period=T, kappa=0.5,
                              F=TimeFourierField(period=T, terms=(HarmonicTerm(1, Ft, 0.3),)),
                              f=constant_in_time(T, fv),
                              g=TimeFourierField(period=T, terms=(HarmonicTerm(1, gv, 0.4),)))
        init = State(random_div_free(g, seed=4, exponent=1.0, amplitude=0.2),
                     random_smooth_scalar(g, seed=5, exponent=1.0, amplitude=0.2))
        cfg = SolveConfig(dt=T / 64, substeps=2)
        traj = evolve(init, forcing, 4 * T, cfg, mode="full")
        assert len(traj.states) == 257
        assert max(spectral_divergence_residual(s.u) for s in traj.states) <= 1e-12


    def test_decayed_modes_do_not_read_as_divergence(self, grid3d):
        # single-mode F and a harmonic-1 coupling leave most modes to decay to
        # roundoff size; measured against their own amplitude they read up to
        # 1e-4, against the peak amplitude they read roundoff
        g = grid3d
        T = 1.0
        Ft = single_mode_tensor(g, k=(0, 1, 0), row=0, col=1, amplitude=0.1)
        gv = single_mode_vector(g, k=(0, 0, 1), component=2, amplitude=1.0)
        forcing = ForcingSpec(period=T, kappa=0.5, F=constant_in_time(T, Ft),
                              g=TimeFourierField(period=T, terms=(HarmonicTerm(1, gv, 0.0),)))
        init = State(random_div_free(g, seed=1, amplitude=0.2),
                     random_smooth_scalar(g, seed=2, amplitude=0.2))
        traj = evolve(init, forcing, T, SolveConfig(dt=T / 32, substeps=2), mode="full")
        assert max(spectral_divergence_residual(s.u) for s in traj.states) <= 1e-12


class TestForcingSupport:
    """The analytic forcing is stepped only on the modes its sources occupy, with
    the values of the half-spectrum update."""

    @staticmethod
    def _forcing(g, sources):
        T = 1.0
        if sources == "single-mode":
            Ft = single_mode_tensor(g, k=(0, 1, 0), row=0, col=1, amplitude=1e-3)
            fv = single_mode_vector(g, k=(1, 0, 0), component=0, amplitude=1e-3)
        else:
            Ft = random_smooth_tensor(g, seed=6, amplitude=1e-3)
            fv = random_smooth_vector(g, seed=7, amplitude=1e-3)
        return ForcingSpec(period=T, F=TimeFourierField(period=T, terms=(
                               HarmonicTerm(0, Ft), HarmonicTerm(1, Ft, 0.3))),
                           f=TimeFourierField(period=T, terms=(HarmonicTerm(1, fv, 0.1),)))

    @staticmethod
    def _dense_sources(forcing):
        """Each term's (harmonic, phase, source) on the half spectrum, per part."""
        g = forcing.grid
        return [[(term.harmonic, term.phase, source(forward_coeffs(g, term.field.values)))
                 for term in tf.terms]
                for tf, source in ((forcing.F, lambda h: leray_coeffs(g, tensor_div_coeffs(g, h))),
                                   (forcing.f, lambda h: div_coeffs(g, h)))]

    @staticmethod
    def _dense_rows(sources, period, t):
        rows = []
        for terms in sources:
            row = None
            for m, phase, src in terms:
                c = np.cos(2.0 * np.pi * m * t / period + phase)
                row = c * src if row is None else row + c * src
            rows.append(row)
        return rows

    def _dense_loop(self, init, forcing, n_steps, cfg, mode):
        """Stored states of evolve's step with ``part += A * row`` on the whole half spectrum.

        The rest of the step is evolve's: Picard from the extrapolated node values.
        """
        g = init.grid
        dt = cfg.dt
        E = _step_factors(g, dt, {})[0]
        _, Wa, Wb = _step_factors(g, dt, {}, on=g.band)
        h_s = dt / (cfg.substeps - 1)
        weights = _substep_weights(g, dt, cfg.substeps)
        sources = self._dense_sources(forcing)
        rhs = None if mode == "linearized" else _StateRHS(g, forcing)
        x = (leray_coeffs(g, forward_coeffs(g, init.u.values)),
             forward_coeffs(g, init.theta.values))
        nodes = [] if rhs is None else [rhs(*x, 0.0)]
        states = [_to_state(g, *x)]
        for i in range(n_steps):
            fixed = [E * part for part in x]
            for j, A in enumerate(weights):
                for part, row in zip(fixed, self._dense_rows(sources, forcing.period,
                                                             i * dt + j * h_s)):
                    part += A * row
            if rhs is not None:
                _add_on_band(fixed, g, [(Wa, nodes[0])])
                guess = [(c * Wb, r) for c, r in zip(duhamel._EXTRAPOLATION[len(nodes) - 1], nodes)]
                first = _add_on_band([part.copy() for part in fixed], g, guess)
                fixed, rows, _ = duhamel._picard(rhs, fixed, first, Wb, (i + 1) * dt, cfg, i)
                nodes = [rows] + nodes[:2]
            x = fixed
            states.append(_to_state(g, *x))
        return states

    @pytest.mark.parametrize("mode", ["linearized", "full"])
    @pytest.mark.parametrize("sources, dense", [("single-mode", False), ("random", True)])
    def test_evolve_matches_the_dense_update(self, grid3d_small, sources, dense, mode):
        g = grid3d_small
        forcing = self._forcing(g, sources)
        assert isinstance(_CompiledForcing(forcing).support, slice) is dense
        init = State(random_div_free(g, seed=2, amplitude=1e-2), gaussian_profile(g, 0.2, 1e-2))
        cfg = SolveConfig(dt=1.0 / 16, substeps=4)
        got = evolve(init, forcing, 6 * cfg.dt, cfg, mode=mode).states
        want = self._dense_loop(init, forcing, 6, cfg, mode)
        assert len(got) == len(want) == 7
        for a, b in zip(got, want):
            assert np.array_equal(a.u.values, b.u.values)
            assert np.array_equal(a.theta.values, b.theta.values)

    @pytest.mark.parametrize("sources", ["single-mode", "random"])
    def test_forcing_path_matches_the_dense_path(self, grid3d_small, sources):
        # C(t) stepped on the support and scattered, against the half-spectrum prefix path
        g = grid3d_small
        forcing = self._forcing(g, sources)
        cfg = SolveConfig(dt=1.0 / 16, substeps=4)
        times = [k * cfg.dt for k in range(1, 5)]
        got = list(_forcing_path(forcing, times, cfg))
        nodes = np.linspace(0.0, times[-1], 3 * len(times) + 1)
        E, Wa, Wb = _step_factors(g, nodes[1] - nodes[0], {})
        sources = self._dense_sources(forcing)
        rows = [self._dense_rows(sources, forcing.period, s) for s in nodes]
        acc = [np.zeros_like(r) for r in rows[0]]
        want = []
        for j in range(len(nodes) - 1):
            acc = [E * i + Wa * a + Wb * b for i, a, b in zip(acc, rows[j], rows[j + 1])]
            if (j + 1) % 3 == 0:
                want.append(acc)
        assert len(got) == len(want) == 4
        for got_parts, want_parts in zip(got, want):
            for a, b in zip(got_parts, want_parts):
                assert np.array_equal(a, b)

    def test_single_mode_support_holds_its_nonzero_modes(self, grid3d):
        g = grid3d
        forcing = self._forcing(g, "single-mode")
        vel, th = (terms[0][2] for terms in self._dense_sources(forcing))
        occupied = np.any(vel != 0, axis=0) | (th != 0)
        compiled = _CompiledForcing(forcing)
        assert compiled.support[0] is Ellipsis
        # the transforms leave roundoff-sized values beside the mode: they are sources too
        assert set(zip(*compiled.support[1:])) == set(zip(*np.nonzero(occupied)))
        assert compiled.shape == (np.count_nonzero(occupied),)


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
            verify_linear_operator(F, f, NormParams(p=2.0), NormParams(p=4.0), BallSampler())
        with pytest.raises(HypothesisError, match="chi"):
            verify_linear_operator(F, f, NormParams(p=2.0, lam=0.5), NormParams(p=6.0, lam=0.0),
                                   BallSampler())


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

    @staticmethod
    def _nan_norm(monkeypatch, nan_calls):
        """``duhamel.state_norm`` returning NaN at the given (1-based) calls; returns the call log."""
        real, calls = duhamel.state_norm, []

        def norm(state, ctx):
            calls.append(1)
            return np.nan if len(calls) in nan_calls else real(state, ctx)

        monkeypatch.setattr(duhamel, "state_norm", norm)
        return calls

    @pytest.mark.parametrize("at", ["first", "last"])
    def test_nan_sample_reaches_best(self, grid3d_small, monkeypatch, at):
        # one NaN norm along the bilinear path, wherever it falls, makes the ratio NaN
        ta, tb = self._pair(grid3d_small, 20)
        n_eval = len(ta.times) - 1
        calls = self._nan_norm(monkeypatch, {1 if at == "first" else n_eval})
        rep = verify_bilinear_estimate([(ta, tb)], p=3.0, sampler=BallSampler(4, 4))
        assert len(calls) == n_eval
        assert np.isnan(rep.ratios[0]) and np.isnan(rep.empirical_constant)

    @pytest.mark.parametrize("bad", [0, 1])
    def test_nan_ratio_reaches_constant(self, grid3d_small, monkeypatch, bad):
        pairs = [self._pair(grid3d_small, 20), self._pair(grid3d_small, 30)]
        n_eval = len(pairs[0][0].times) - 1
        self._nan_norm(monkeypatch, set(range(bad * n_eval + 1, (bad + 1) * n_eval + 1)))
        rep = verify_bilinear_estimate(pairs, p=3.0, sampler=BallSampler(4, 4))
        assert np.isnan(rep.ratios[bad]) and np.isfinite(rep.ratios[1 - bad])
        assert np.isnan(rep.empirical_constant)

    def test_hypothesis_gate(self, grid3d_small):
        ta, tb = self._pair(grid3d_small, 30)
        sampler = BallSampler(num_centers=8, num_radii=6)
        with pytest.raises(HypothesisError, match="2 < p <= n"):
            verify_bilinear_estimate([(ta, tb)], p=2.0, sampler=sampler)
        with pytest.raises(HypothesisError, match="2 < p <= n"):
            verify_bilinear_estimate([(ta, tb)], p=4.0, sampler=sampler)


def _at_node_samplers(grid, ts):
    """Each sampled-in-time source on ``ts``, with a distinct sample per node."""
    rng = np.random.default_rng(0)
    vels = [rng.standard_normal((grid.n,) + grid.shape) for _ in ts]
    ths = [rng.standard_normal(grid.shape) for _ in ts]
    traj = Trajectory(grid, ts, [State(VectorField(grid, v), ScalarField(grid, th))
                                 for v, th in zip(vels, ths)])
    series = SampledScalarSeries(times=ts, fields=[ScalarField(grid, th) for th in ths])
    return {
        "trajectory": (lambda t: traj.sample(t).theta.values, ths),
        "scalar_series": (lambda t: series.value(t).values, ths),
    }


@pytest.mark.parametrize("source", ["trajectory", "scalar_series"])
@pytest.mark.parametrize("node", [2, 4])
@pytest.mark.parametrize("offset", [0.0, -1e-13])
def test_interpolation_snaps_to_node(grid2d, source, node, offset):
    """At a node, or just below one, every sampler returns that node's sample exactly."""
    ts = np.arange(5) * 0.1
    sample, samples = _at_node_samplers(grid2d, ts)[source]
    assert np.array_equal(sample(ts[node] + offset), samples[node])


def _band_rows(grid, count, parts, seed=0):
    """``count`` random (vel, th) pairs of band rows; a part not in ``parts`` is None."""
    rng = np.random.default_rng(seed)
    return [(rng.standard_normal((grid.n,) + grid.band_shape) if parts != "th" else None,
             rng.standard_normal(grid.band_shape) if parts != "vel" else None)
            for _ in range(count)]


@pytest.mark.parametrize("parts", ["vel", "th", "both"])
def test_compiled_forcing_step_reads_its_nodes(grid2d, monkeypatch, parts):
    """evolve's step i adds the frozen pairs of nodes i and i + 1 themselves."""
    S = 16
    cfg = SolveConfig(dt=1.0 / S)
    extra = _band_rows(grid2d, S + 1, parts)
    read = []
    add = duhamel._add_on_band
    monkeypatch.setattr(duhamel, "_add_on_band",
                        lambda acc, grid, terms: read.append(list(terms)) or add(acc, grid, terms))
    evolve(zeros_like_state(grid2d), ForcingSpec(period=1.0), 1.0, cfg, mode="linearized",
           extra=extra)
    assert len(read) == S
    for i, terms in enumerate(read):
        assert len(terms) == 2
        assert all(got is want for (_, got), want in zip(terms, extra[i:i + 2]))


def test_compiled_forcing_rows_span_the_run(grid2d):
    # one forcing period of rows is not repeated over a three-period run
    extra = _band_rows(grid2d, 17, "both")
    with pytest.raises(ConfigError, match="sampled forcing has 17 rows for 49 step nodes"):
        evolve(zeros_like_state(grid2d), ForcingSpec(period=1.0), 3.0, SolveConfig(dt=1.0 / 16),
               mode="linearized", extra=extra)


def test_compiled_forcing_rejects_misaligned_samples(grid2d):
    extra = [(None, np.zeros(grid2d.shape))] * 4
    with pytest.raises(ConfigError, match="sampled forcing has 4 rows for 5 step nodes"):
        evolve(zeros_like_state(grid2d), None, 0.25, SolveConfig(dt=0.0625), mode="linearized",
               extra=extra)


@pytest.mark.parametrize("part", ["vel", "th"])
def test_compiled_forcing_rejects_rows_off_the_band_shape(grid2d, part):
    # a half-spectrum row is not a nonlinear row: it must be cut to the band first
    band = (grid2d.n,) + grid2d.band_shape if part == "vel" else grid2d.band_shape
    full = (grid2d.n,) + grid2d.spectral_shape if part == "vel" else grid2d.spectral_shape
    extra = _band_rows(grid2d, 5, part)
    k = 0 if part == "vel" else 1
    extra[3] = tuple(np.zeros(full, dtype=complex) if i == k else r for i, r in enumerate(extra[3]))
    with pytest.raises(ConfigError, match=re.escape(f"band shape {band}, got {full}")):
        evolve(zeros_like_state(grid2d), None, 0.25, SolveConfig(dt=0.0625), mode="linearized",
               extra=extra)


@pytest.mark.parametrize("arg", ["extra", "_predictor"])
@pytest.mark.parametrize("node", [0, 3])
def test_node_rows_reject_a_part_absent_at_some_nodes(grid2d, arg, node):
    # a part is present at every node or at none
    rows = _band_rows(grid2d, 5, "both")
    rows[node] = (rows[node][0], None)
    with pytest.raises(ConfigError, match=re.escape(f"band shape {grid2d.band_shape}, got ()")):
        evolve(zeros_like_state(grid2d), None, 0.25, SolveConfig(dt=0.0625), mode="full",
               **{arg: rows})
