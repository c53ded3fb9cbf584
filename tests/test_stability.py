"""Weighted separation experiments, decay fits, and the closed-form constants."""

import math
import tracemalloc

import numpy as np
import pytest

from bqbox import (
    BallSampler,
    ConfigError,
    DiagnosticsError,
    ForcingSpec,
    HypothesisError,
    NormContext,
    NormParams,
    PeriodicProblem,
    ScalarField,
    SolveConfig,
    State,
    StabilityParams,
    VectorField,
    constant_in_time,
    fit_decay_exponent,
    nonlinear_periodic,
    perturb_and_compare,
    smallness_report,
    verify_weighted_bilinear,
    weighted_bilinear_constants,
    weighted_trajectory_norm,
    zeros_like_state,
)
from bqbox import stability as stability_mod
from bqbox.duhamel import Trajectory, evolve
from bqbox.forcing import HarmonicTerm, TimeFourierField
from bqbox.norms import morrey_lorentz_norm
from bqbox.presets import (
    random_div_free,
    random_smooth_scalar,
    single_mode_scalar,
    single_mode_tensor,
    single_mode_vector,
)
from bqbox.duhamel import state_difference
from bqbox.stability import _weighted_parts, coupling_time_constant

T = 0.5
SP = dict(p=3.0, q=6.0, r=6.0, b=3.0)
# 2**n centers and 6 radii on the 3-D grids below: default_norm_context's sampler
SAMPLER = BallSampler(num_centers=8, num_radii=6)


class TestStabilityParams:
    def test_derived_exponents(self):
        sp = StabilityParams(**SP)
        assert sp.alpha == pytest.approx(0.5)
        assert sp.gamma == pytest.approx(0.5)
        assert sp.beta == pytest.approx(0.5)
        assert sp.lam(3) == 0.0

    @pytest.mark.parametrize("bad", [
        dict(p=2.0, q=6.0, r=6.0, b=3.0),      # p must exceed 2
        dict(p=3.0, q=3.0, r=6.0, b=3.0),      # p < q required
        dict(p=3.0, q=6.0, r=1.1, b=3.0),      # r > q/(q-1) and q <= r
        dict(p=3.0, q=6.0, r=6.0, b=1.0),      # b > p/2
        dict(p=3.0, q=6.0, r=200.0, b=100.0),  # 1/b + 1/r must exceed 1/p
    ])
    def test_hypothesis_gate(self, bad):
        with pytest.raises(HypothesisError):
            StabilityParams(**bad)

    def test_p_le_n(self):
        sp = StabilityParams(p=3.5, q=6.0, r=6.0, b=3.0)
        with pytest.raises(HypothesisError, match="p <= n"):
            sp.lam(3)


class TestWeightedConstants:
    def test_printed_value_regression(self):
        c1, c2 = weighted_bilinear_constants(3.0, 6.0, 6.0)
        # = 6 * 2^{1/4}, frozen from direct evaluation of the printed forms
        assert c1 == pytest.approx(7.135242690016326, rel=1e-12)
        assert c2 == pytest.approx(7.135242690016326, rel=1e-12)
        assert round(c1, 4) == 7.1352

    def test_monotone_growth_in_q(self):
        assert weighted_bilinear_constants(3.0, 12.0, 12.0)[0] > weighted_bilinear_constants(
            3.0, 6.0, 6.0
        )[0]

    def test_pole_rejected(self):
        # the boundary p/(2q) = 1/2 coincides with q = p, outside 1 < p < q
        with pytest.raises(HypothesisError):
            weighted_bilinear_constants(3.0, 3.0, 6.0)
        with pytest.raises(HypothesisError):
            weighted_bilinear_constants(3.0, 1.5, 6.0)

    def test_coupling_time_constant_vs_quadrature(self):
        # Independent oracle: split at 1/2 and substitute away the endpoint
        # singularities (s = v^{1/a} near 0, 1 - s = w^{1/(1-a)} near 1), so
        # plain trapezoid quadrature applies to smooth integrands.
        p, b = 3.0, 2.0
        a = p / (2 * b)
        v = np.linspace(0.0, 0.5**a, 200001)
        left = np.trapezoid((1.0 - v[1:] ** (1.0 / a)) ** (-a) / a, v[1:])
        w = np.linspace(0.0, 0.5 ** (1.0 - a), 200001)
        right = np.trapezoid((1.0 - w[1:] ** (1.0 / (1.0 - a))) ** (a - 1.0) / (1.0 - a), w[1:])
        assert coupling_time_constant(p, b) == pytest.approx(left + right, rel=1e-4)


class TestFitDecay:
    def test_synthetic_power_law(self):
        ts = np.linspace(1.0, 10.0, 40)
        series = [(t, t ** (-0.5)) for t in ts]
        fit = fit_decay_exponent(series, window=(1.0, 10.0))
        assert fit.slope == pytest.approx(-0.5, abs=1e-9)
        assert fit.width < 1e-9

    def test_exponential_beats_half(self):
        ts = np.linspace(1.0, 10.0, 40)
        series = [(t, math.exp(-t)) for t in ts]
        fit = fit_decay_exponent(series, window=(1.0, 10.0))
        assert fit.slope < -0.5

    def test_zero_gap_degenerate(self):
        series = [(t, 0.0) for t in np.linspace(1, 10, 20)]
        with pytest.raises(DiagnosticsError, match="degenerate"):
            fit_decay_exponent(series, window=(1.0, 10.0))

    def test_needs_enough_points(self):
        series = [(t, 1.0 / t) for t in (1.0, 2.0, 3.0)]
        with pytest.raises(DiagnosticsError, match=">= 8"):
            fit_decay_exponent(series, window=(1.0, 10.0))


def base_solution(grid, amp=1e-3):
    kvec1 = (0, 1) if grid.n == 2 else (0, 1, 0)
    kvec2 = (1, 0) if grid.n == 2 else (1, 0, 0)
    forcing = ForcingSpec(
        period=T,
        F=constant_in_time(T, single_mode_tensor(grid, k=kvec1, row=0, col=1, amplitude=amp)),
        f=TimeFourierField(period=T, terms=(
            HarmonicTerm(1, single_mode_vector(grid, k=kvec2, component=0, amplitude=amp), 0.1),
        )),
    )
    prob = PeriodicProblem(forcing=forcing, cfg=SolveConfig(dt=T / 16, substeps=4), grid=grid)
    p = 3.0 if grid.n == 3 else 2.0
    ctx = NormContext(NormParams(p=p, q=np.inf, lam=max(0.0, grid.n - p)),
                      BallSampler(4, 4), time_stride=8)
    return nonlinear_periodic(prob, outer_tol=1e-11, ctx=ctx)


class TestPerturbAndCompare:
    def test_run_from_orbit_datum_stays_on_orbit(self, grid3d_small):
        # the perturbed run starts on the certified orbit, so over three
        # periods it leaves the stored states (read at k mod S, wrapping at
        # k = S, 2S, 3S) only by the certify residual and roundoff
        base = base_solution(grid3d_small)
        sp = StabilityParams(**SP)
        dt = base.problem.cfg.dt
        t_grid = np.r_[np.geomspace(dt, 3 * T, 10), T - dt, T, T + dt, 2 * T]
        table = perturb_and_compare(base, base.initial, None, sp, t_grid, SAMPLER)
        assert {T, 2 * T, 3 * T} <= set(table.meta["snapped_times"])
        assert len(table.rows) == len(table.meta["snapped_times"])
        assert all(row[3] <= 1e-13 for row in table.rows)

    def test_linearized_single_mode_closed_form(self, grid3d_small):
        # zero base; theta-only single-mode perturbation evolves by pure heat
        # flow, so the gap is delta e^{-t sig} exactly
        g = grid3d_small
        forcing = ForcingSpec(period=T)
        prob = PeriodicProblem(forcing=forcing, cfg=SolveConfig(dt=T / 16), grid=g)
        zero_traj = evolve(zeros_like_state(g), forcing, T, prob.cfg, mode="full")
        from bqbox.periodic import PeriodicSolution

        base = PeriodicSolution(problem=prob, initial=zeros_like_state(g),
                                trajectory=zero_traj, residual_max=0.0, residual_norm=0.0)
        delta = 1e-3
        kvec = (1, 0, 0)
        pert_theta = single_mode_scalar(g, k=kvec, amplitude=delta)
        pert = State(zeros_like_state(g).u, pert_theta)
        sp = StabilityParams(**SP)
        t_grid = np.geomspace(T / 16, 2 * T, 6)
        table = perturb_and_compare(base, pert, None, sp, t_grid, SAMPLER)
        sig = (2 * np.pi / g.L) ** 2
        lam = sp.lam(3)
        base_norm = morrey_lorentz_norm(pert_theta, NormParams(p=sp.r, q=np.inf, lam=lam),
                                        BallSampler())
        for (t, wu, wth, D) in table.rows:
            want = t ** (sp.gamma / 2.0) * math.exp(-t * sig) * base_norm
            assert wu == 0.0
            assert D == pytest.approx(want, rel=1e-6)

    def test_nonlinear_perturbation_decays(self):
        from bqbox import GridSpec

        g = GridSpec(n=3, N=8, L=2 * np.pi)  # unit spectral gap: slow decay
        base = base_solution(g)
        gap = random_div_free(g, seed=5, amplitude=1e-4)
        pert = State(VectorField(g, base.initial.u.values + gap.values), base.initial.theta)
        sp = StabilityParams(**SP)
        t_grid = np.geomspace(T / 16, 6 * T, 28)
        table = perturb_and_compare(base, pert, None, sp, t_grid, SAMPLER)
        assert np.isfinite(table.sup_d) and table.sup_d > 0
        ds = [row[3] for row in table.rows]
        peak = int(np.argmax(ds))
        tail = ds[max(peak, len(ds) - 5):]
        assert all(a >= b for a, b in zip(tail, tail[1:]))
        fit = fit_decay_exponent([(r[0], r[3]) for r in table.rows], window=(T, 6 * T))
        assert fit.slope <= -sp.alpha / 2.0

    @staticmethod
    def _perturbed(base):
        g = base.initial.grid
        gap = random_div_free(g, seed=5, amplitude=1e-4)
        return State(VectorField(g, base.initial.u.values + gap.values), base.initial.theta)

    def test_rows_match_collected_trajectories(self, grid3d_small):
        # the gaps formed as the perturbed states arrive equal, bit for bit,
        # those read from a whole collected perturbed trajectory and the
        # certified orbit's states at step k mod S
        base = base_solution(grid3d_small)
        pert = self._perturbed(base)
        sp = StabilityParams(**SP)
        table = perturb_and_compare(base, pert, None, sp, np.geomspace(T / 16, 2 * T, 7), SAMPLER)
        cfg = base.problem.cfg
        S = base.problem.steps_per_period
        traj2 = evolve(pert, base.problem.forcing, table.meta["t_max"], cfg, mode="full")
        want = []
        for t in table.meta["snapped_times"]:
            i = round(t / cfg.dt)
            assert traj2.times[i] == pytest.approx(t)
            wu, wth = _weighted_parts(
                state_difference(base.trajectory.states[i % S], traj2.states[i]), t, sp, SAMPLER)
            want.append((t, wu, wth, wu + wth))
        assert len(want) == 7
        assert table.rows == want

    def test_one_evolve_per_experiment(self, grid3d_small, monkeypatch):
        # the base is read from its certified period; only the perturbed run steps
        base = base_solution(grid3d_small)
        calls = []

        def spy(*args, **kwargs):
            calls.append(args[0])
            return evolve(*args, **kwargs)

        monkeypatch.setattr(stability_mod, "evolve", spy)
        pert = self._perturbed(base)
        perturb_and_compare(base, pert, None, StabilityParams(**SP), np.geomspace(T / 16, 3 * T, 5),
                            SAMPLER)
        assert len(calls) == 1 and calls[0] is pert

    @pytest.mark.parametrize("shape", ["two-period", "strided", "finer-dt"])
    def test_base_must_be_one_stored_period(self, grid3d_small, shape):
        from dataclasses import replace

        base = base_solution(grid3d_small)
        forcing, cfg = base.problem.forcing, base.problem.cfg
        traj = {
            "two-period": lambda: evolve(base.initial, forcing, 2 * T, cfg, mode="full"),
            "strided": lambda: evolve(base.initial, forcing, T, cfg, mode="full", store_stride=2),
            "finer-dt": lambda: evolve(base.initial, forcing, T, replace(cfg, dt=cfg.dt / 2),
                                       mode="full"),
        }[shape]()
        with pytest.raises(DiagnosticsError, match="base trajectory must store 17 states"):
            perturb_and_compare(replace(base, trajectory=traj), base.initial, None,
                                StabilityParams(**SP), [T], SAMPLER)

    def test_peak_memory_keeps_only_snapped_states(self, grid3d_small):
        # a run over 64 steps against one over a single step: the single-step
        # run already holds the evolve working arrays and the norm scans, so
        # the longer run may add only as many states as it has snapped times
        # and a few more; a collected perturbed trajectory would add 64 states
        base = base_solution(grid3d_small)
        pert = self._perturbed(base)
        sp = StabilityParams(**SP)
        dt = base.problem.cfg.dt

        def peak(t_grid):
            tracemalloc.start()
            try:
                table = perturb_and_compare(base, pert, None, sp, t_grid, SAMPLER)
                return tracemalloc.get_traced_memory()[1], table
            finally:
                tracemalloc.stop()

        peak([dt])  # multiplier caches outside the measured runs
        one, _ = peak([dt])
        many, table = peak(np.geomspace(dt, 64 * dt, 6))
        snapped = table.meta["snapped_times"]
        assert len(snapped) == 6 and snapped[-1] == 64 * dt
        state_bytes = base.initial.u.values.nbytes + base.initial.theta.values.nbytes
        assert many < one + (len(snapped) + 4) * state_bytes

    def test_g_gap_norm_reported(self, grid3d_small):
        g = grid3d_small
        base = base_solution(g)
        sp = StabilityParams(**SP)
        gv = single_mode_vector(g, k=(0, 0, 1), component=2, amplitude=1e-3)
        g_pert = constant_in_time(T, gv)
        # base forcing has g = None: supply a perturbed g against zero base
        from dataclasses import replace

        base.problem.forcing = replace(base.problem.forcing,
                                       g=constant_in_time(T, single_mode_vector(
                                           g, k=(0, 0, 1), component=2, amplitude=2e-3)))
        table = perturb_and_compare(base, base.initial, g_pert, sp,
                                    np.geomspace(T / 16, T, 6), SAMPLER)
        assert table.g_gap_norm > 0.0


class TestVerifyWeightedBilinear:
    def _pairs(self, g):
        cfg = SolveConfig(dt=0.05, substeps=2)
        out = []
        for seed in (1, 2):
            a = State(random_div_free(g, seed=seed, amplitude=1.0),
                      random_smooth_scalar(g, seed=seed + 7, amplitude=1.0))
            b = State(random_div_free(g, seed=seed + 1, amplitude=1.0),
                      random_smooth_scalar(g, seed=seed + 8, amplitude=1.0))
            out.append((evolve(a, None, 0.2, cfg, mode="linearized"),
                        evolve(b, None, 0.2, cfg, mode="linearized")))
        return out

    def test_finite_and_scale_invariant(self, grid3d_small):
        g = grid3d_small
        pairs = self._pairs(g)
        sp = StabilityParams(**SP)
        rep = verify_weighted_bilinear(pairs, sp, sampler=BallSampler(4, 4), stride=2)
        assert np.isfinite(rep.empirical_constant) and rep.empirical_constant > 0
        assert rep.printed_constants[0] == pytest.approx(7.135242690016326, rel=1e-12)
        scaled = [(Trajectory(g, a.times, [State(VectorField(g, 2 * s.u.values),
                                                 ScalarField(g, 2 * s.theta.values))
                                           for s in a.states]), b) for (a, b) in pairs]
        rep2 = verify_weighted_bilinear(scaled, sp, sampler=BallSampler(4, 4), stride=2)
        assert rep2.empirical_constant == pytest.approx(rep.empirical_constant, rel=1e-10)

    def test_zero_pairs_guarded(self, grid3d_small):
        g = grid3d_small
        cfg = SolveConfig(dt=0.05, substeps=2)
        z = evolve(zeros_like_state(g), None, 0.2, cfg, mode="linearized")
        rep = verify_weighted_bilinear([(z, z)], StabilityParams(**SP),
                                       sampler=BallSampler(4, 4))
        assert rep.empirical_constant == 0.0

    @staticmethod
    def _nan_norm(monkeypatch, nan_calls):
        """``stability.state_norm`` returning NaN at the given (1-based) calls."""
        real, calls = stability_mod.state_norm, []

        def norm(state, ctx):
            calls.append(1)
            return np.nan if len(calls) in nan_calls else real(state, ctx)

        monkeypatch.setattr(stability_mod, "state_norm", norm)
        return calls

    @pytest.mark.parametrize("at", ["first", "last"])
    def test_nan_sample_reaches_best(self, grid3d_small, monkeypatch, at):
        # stride 2 on 4 steps evaluates B at three stored times per pair: t1, t3 and the last
        pairs = self._pairs(grid3d_small)[:1]
        calls = self._nan_norm(monkeypatch, {1 if at == "first" else 3})
        rep = verify_weighted_bilinear(pairs, StabilityParams(**SP), sampler=BallSampler(4, 4),
                                       stride=2)
        assert len(calls) == 3
        assert np.isnan(rep.ratios[0]) and np.isnan(rep.empirical_constant)

    @pytest.mark.parametrize("bad", [0, 1])
    def test_nan_ratio_reaches_constant(self, grid3d_small, monkeypatch, bad):
        # every one of the three evaluations of pair ``bad`` is NaN
        self._nan_norm(monkeypatch, {3 * bad + 1, 3 * bad + 2, 3 * bad + 3})
        rep = verify_weighted_bilinear(self._pairs(grid3d_small), StabilityParams(**SP),
                                       sampler=BallSampler(4, 4), stride=2)
        assert np.isnan(rep.ratios[bad]) and np.isfinite(rep.ratios[1 - bad])
        assert np.isnan(rep.empirical_constant)


class TestSmallnessReport:
    BASE = dict(p=3.0, b=3.0, kappa=0.5, K=0.1, rho=0.01, g_norm=0.0, eta_sup=0.0, Ff_norm=0.0)

    def test_zero_forcings(self):
        rep = smallness_report(**self.BASE)
        for entry in rep.expressions.values():
            assert entry.value < 1.0
        assert rep.expressions["wellposed_contraction"].satisfied

    def test_linear_in_g_norm(self):
        with_g = dict(self.BASE, g_norm=0.2, eta_sup=1.0)
        doubled = dict(self.BASE, g_norm=0.4, eta_sup=1.0)
        r1 = smallness_report(**with_g)
        r2 = smallness_report(**doubled)
        base = smallness_report(**dict(self.BASE, eta_sup=1.0))
        d1 = r1.expressions["wellposed_contraction"].value - base.expressions[
            "wellposed_contraction"].value
        d2 = r2.expressions["wellposed_contraction"].value - base.expressions[
            "wellposed_contraction"].value
        assert d2 == pytest.approx(2 * d1, rel=1e-10)

    def test_violated_expression_flagged(self):
        rep = smallness_report(**dict(self.BASE, rho=10.0, K=1.0))
        assert not rep.expressions["wellposed_contraction"].satisfied
        assert ">= 1 VIOLATED" in rep.text()

    def test_missing_inputs_listed(self):
        with pytest.raises(ConfigError, match="kappa.*rho|rho.*kappa"):
            smallness_report(p=3.0, b=3.0, K=0.1, g_norm=0.0, eta_sup=0.0, Ff_norm=0.0)

    def test_weighted_expression_appears(self):
        rep = smallness_report(**dict(self.BASE, q=6.0, r=6.0, K_w=0.05, sol_norm_w=0.01,
                                      g_minus_omega_norm=0.0))
        assert "stability_contraction" in rep.expressions
        assert rep.expressions["stability_contraction"].value < 1.0


class TestWeightedTrajectoryNorm:
    def test_zero(self, grid3d_small):
        g = grid3d_small
        traj = evolve(zeros_like_state(g), None, 0.2, SolveConfig(dt=0.05), mode="linearized")
        assert weighted_trajectory_norm(traj, StabilityParams(**SP), SAMPLER) == 0.0

    def test_dominates_plain_sup(self, grid3d_small):
        g = grid3d_small
        init = State(random_div_free(g, seed=3), random_smooth_scalar(g, seed=4))
        traj = evolve(init, None, 0.2, SolveConfig(dt=0.05), mode="linearized")
        sp = StabilityParams(**SP)
        ctx = NormContext(NormParams(p=sp.p, q=np.inf, lam=sp.lam(3)), BallSampler(4, 4))
        from bqbox import trajectory_sup_norm

        assert weighted_trajectory_norm(traj, sp, SAMPLER) >= trajectory_sup_norm(traj, ctx)
