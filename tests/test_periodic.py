"""Periodic-orbit construction: Poincare map, averaging, resolvent, fixed point."""

import dataclasses
import json
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
    NormContext,
    NormParams,
    PeriodicProblem,
    ScalarField,
    SolveConfig,
    State,
    Trajectory,
    VectorField,
    cesaro_periodic_datum,
    check_periodicity,
    constant_in_time,
    evolve,
    nonlinear_periodic,
    poincare_map,
    resolvent_periodic_datum,
    zeros_like_state,
)
from bqbox import periodic as periodic_mod
from bqbox.config import forcing_fields, load_config
from bqbox.duhamel import _to_state, duhamel_residual, state_difference
from bqbox.forcing import HarmonicTerm, TimeFourierField
from bqbox.grid import forward_coeffs, inverse_values
from bqbox.norms import gaussian_profile, state_norm, sup_time_indices, trajectory_sup_norm
from bqbox.operators import (
    advection_coeffs,
    div_coeffs,
    heat_semigroup,
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

T = 0.5


def linear_problem(grid, amp=1e-4, seed=None, dt=T / 16, substeps=4):
    """A mean-free linearized periodic problem driven through div f and div F."""
    if seed is None:
        fv = single_mode_vector(grid, k=(1,) + (0,) * (grid.n - 1), component=0, amplitude=amp)
        terms_f = (HarmonicTerm(0, fv), HarmonicTerm(1, fv, 1.1))
        F = None
    else:
        fv = random_smooth_vector(grid, seed=seed, amplitude=amp)
        terms_f = (HarmonicTerm(0, fv), HarmonicTerm(1, fv, 1.1))
        Ft = random_smooth_tensor(grid, seed=seed + 50, amplitude=amp)
        F = TimeFourierField(period=T, terms=(HarmonicTerm(1, Ft, 0.3),))
    forcing = ForcingSpec(period=T, f=TimeFourierField(period=T, terms=terms_f), F=F)
    cfg = SolveConfig(dt=dt, substeps=substeps)
    return PeriodicProblem(forcing=forcing, cfg=cfg, grid=grid)


class TestPoincareMap:
    def test_zero_forcing_is_heat_flow(self, grid2d_box):
        g = grid2d_box
        forcing = ForcingSpec(period=T)
        prob = PeriodicProblem(forcing=forcing, cfg=SolveConfig(dt=T / 16), grid=g)
        x = State(taylor_green(g, 0.4), gaussian_profile(g, 0.5, 0.3))
        got = poincare_map(x, prob)
        want_u = heat_semigroup(x.u, T)
        want_th = heat_semigroup(x.theta, T)
        assert np.max(np.abs(got.u.values - want_u.values)) <= 1e-10
        assert np.max(np.abs(got.theta.values - want_th.values)) <= 1e-10

    def test_affinity(self, grid2d_box):
        g = grid2d_box
        prob = linear_problem(g)
        x1 = State(taylor_green(g, 0.4), gaussian_profile(g, 0.5, 0.3))
        x2 = State(random_div_free(g, seed=2, amplitude=0.2),
                   single_mode_scalar(g, (1, 1), 0.3))
        p1 = poincare_map(x1, prob)
        p2 = poincare_map(x2, prob)
        diff = State(VectorField(g, x1.u.values - x2.u.values),
                     ScalarField(g, x1.theta.values - x2.theta.values))
        want_u = heat_semigroup(diff.u, T)
        want_th = heat_semigroup(diff.theta, T)
        scale = max(want_u.values.max(), 1.0)
        assert np.max(np.abs((p1.u.values - p2.u.values) - want_u.values)) <= 1e-10 * scale
        assert np.max(np.abs((p1.theta.values - p2.theta.values) - want_th.values)) <= 1e-10 * scale

    def test_constant_forcing_closed_form(self, grid2d_box):
        g = grid2d_box
        fv = single_mode_vector(g, k=(2, 0), component=0, amplitude=1.0)
        forcing = ForcingSpec(period=T, f=constant_in_time(T, fv))
        prob = PeriodicProblem(forcing=forcing, cfg=SolveConfig(dt=T / 16, substeps=4), grid=g)
        got = poincare_map(zeros_like_state(g), prob)
        src = div_coeffs(g, forward_coeffs(g, fv.values))
        sig = g.k_squared
        kernel = np.where(sig > 0, (1 - np.exp(-T * np.where(sig > 0, sig, 1))) / np.where(sig > 0, sig, 1), T)
        want = inverse_values(g, src * kernel).real
        assert np.max(np.abs(got.theta.values - want)) <= 1e-8 * np.max(np.abs(want))


class TestResolventDatum:
    def test_zero_forcing(self, grid2d_box):
        forcing = ForcingSpec(period=T)
        prob = PeriodicProblem(forcing=forcing, cfg=SolveConfig(dt=T / 16), grid=grid2d_box)
        datum = resolvent_periodic_datum(prob)
        assert datum.max_norm() == 0.0

    def test_single_mode_closed_form(self, grid2d_box):
        g = grid2d_box
        fv = single_mode_vector(g, k=(2, 0), component=0, amplitude=1.0)
        forcing = ForcingSpec(period=T, f=constant_in_time(T, fv))
        prob = PeriodicProblem(forcing=forcing, cfg=SolveConfig(dt=T / 16, substeps=4), grid=g)
        datum = resolvent_periodic_datum(prob)
        src = div_coeffs(g, forward_coeffs(g, fv.values))
        sig = g.k_squared
        safe = np.where(sig > 0, sig, 1.0)
        chat = src * np.where(sig > 0, (1 - np.exp(-T * safe)) / safe, T)
        want_hat = np.where(sig > 0, chat / (1 - np.exp(-T * safe)), 0.0)
        want = inverse_values(g, want_hat).real
        assert np.max(np.abs(datum.theta.values - want)) <= 1e-8 * np.max(np.abs(want))

    def test_fixed_point_property(self, grid2d_box):
        prob = linear_problem(grid2d_box, amp=1e-3, seed=4)
        datum = resolvent_periodic_datum(prob)
        mapped = poincare_map(datum, prob)
        scale = max(datum.max_norm(), 1e-30)
        assert np.max(np.abs(mapped.u.values - datum.u.values)) <= 1e-10 * scale
        assert np.max(np.abs(mapped.theta.values - datum.theta.values)) <= 1e-10 * scale


class TestCesaroDatum:
    def test_zero_forcing(self, grid2d_box):
        forcing = ForcingSpec(period=T)
        prob = PeriodicProblem(forcing=forcing, cfg=SolveConfig(dt=T / 16), grid=grid2d_box)
        sol = cesaro_periodic_datum(prob, n_max=16, tol=1e-12)
        assert sol.initial.max_norm() == 0.0
        assert sol.residual_max == 0.0

    def test_agrees_with_resolvent(self, grid2d_box):
        prob = linear_problem(grid2d_box, amp=2e-5, seed=9)
        ref = resolvent_periodic_datum(prob)
        sol = cesaro_periodic_datum(prob, n_max=600, tol=5e-9, reference=ref)
        agree = max(
            np.max(np.abs(sol.initial.u.values - ref.u.values)),
            np.max(np.abs(sol.initial.theta.values - ref.theta.values)),
        )
        assert agree <= 1e-6
        assert sol.residual_max <= 1e-6

    def test_error_history_is_one_over_n(self, grid2d_box):
        prob = linear_problem(grid2d_box, amp=2e-5, seed=9)
        ref = resolvent_periodic_datum(prob)
        sol = cesaro_periodic_datum(prob, n_max=600, tol=5e-9, reference=ref)
        pts = [(n, e) for (n, _, e) in sol.history if n >= 4 and e > 0]
        x = np.log([n for n, _ in pts])
        y = np.log([e for _, e in pts])
        slope = np.polyfit(x, y, 1)[0]
        assert slope == pytest.approx(-1.0, abs=0.2)

    def test_nmax_exhaustion_carries_history(self, grid2d_box):
        prob = linear_problem(grid2d_box, amp=1e-3)
        with pytest.raises(ConvergenceError) as err:
            cesaro_periodic_datum(prob, n_max=4, tol=1e-16)
        assert len(err.value.history) == 4

    def test_stops_at_converged_period(self, grid2d_box, monkeypatch):
        # c = P(0) is one stepped period per problem, read by the resolvent and
        # the Cesaro route alike; every later term is an affine update, not a
        # stepped period: the only other evolve is the certify run
        prob = linear_problem(grid2d_box, amp=2e-5, seed=9)
        images, evolves = [], []
        zero_image = periodic_mod._zero_image
        monkeypatch.setattr(periodic_mod, "_zero_image",
                            lambda *a: images.append(zero_image(*a)) or images[-1])
        monkeypatch.setattr(periodic_mod, "evolve",
                            lambda *a, **k: evolves.append(1) or evolve(*a, **k))
        ref = resolvent_periodic_datum(prob)
        sol = cesaro_periodic_datum(prob, n_max=600, tol=5e-9, reference=ref)
        assert len(images) == 1 and images[0] is prob.linear_image is prob.forced_image
        assert len(evolves) == 2
        assert sol.meta["iterations"] == len(sol.history) < 600

    @pytest.mark.parametrize("n_max, tol", [(600, 5e-9), (6, 1e-16)])
    def test_history_matches_full_orbit(self, grid2d_box, n_max, tol):
        # the period-by-period orbit restarts each period from real values at
        # t = 0, so it matches one long evolve only up to roundoff
        prob = linear_problem(grid2d_box, amp=2e-5, seed=9)
        ref = resolvent_periodic_datum(prob)
        want = full_orbit_history(prob, n_max, tol, ref)
        if len(want) < n_max:
            got = cesaro_periodic_datum(prob, n_max=n_max, tol=tol, reference=ref).history
        else:
            with pytest.raises(ConvergenceError) as err:
                cesaro_periodic_datum(prob, n_max=n_max, tol=tol, reference=ref)
            got = err.value.history
        assert [row[0] for row in got] == [row[0] for row in want]
        for (_, inc, e), (_, inc_ref, e_ref) in zip(got, want):
            assert inc == pytest.approx(inc_ref, rel=1e-12, abs=0.0)
            assert e == pytest.approx(e_ref, rel=1e-12, abs=0.0)

    def test_nonfinite_increment_names_period(self, grid2d_box):
        g = grid2d_box
        gv = single_mode_vector(g, k=(1, 0), component=1, amplitude=1.0)
        forcing = ForcingSpec(period=T, kappa=0.5, g=constant_in_time(T, gv))
        prob = PeriodicProblem(forcing=forcing, cfg=SolveConfig(dt=T / 16), grid=g)
        # coupling rows with one NaN mode at node 5, in place of the derived ones
        rows = [np.zeros((g.n,) + g.band_shape, dtype=complex) for _ in range(17)]
        rows[5][0, 2, 3] = np.nan
        prob.coupling = [(row, None) for row in rows]
        # the NaN row makes the end state of the first period non-finite, and
        # evolve stops at storing it (step 15 of 16), before an increment is formed
        with pytest.raises(ConvergenceError, match="stored state is not finite at step 15 ") as err:
            cesaro_periodic_datum(prob, n_max=50, tol=1e-9)
        assert err.value.history == []

    @pytest.mark.parametrize("n_max, tol", [(1, 1e-9), (0, 1e-9), (-2, 1e-9), (8, 0.0),
                                            (8, -1e-9), (8, np.nan), (8, np.inf)])
    def test_loop_bounds_rejected(self, grid2d_box, n_max, tol):
        prob = linear_problem(grid2d_box)
        with pytest.raises(ConfigError):
            cesaro_periodic_datum(prob, n_max=n_max, tol=tol)



def stepped_cesaro(prob, n_max, tol, reference=None):
    """The Cesaro loop as it was before the orbit moved onto the affine map.

    Every term P^n(0) = P(P^{n-1}(0)) is one stepped period through
    :func:`poincare_map`.  Returns the history and the mean at the stop,
    or None for the mean when ``n_max`` is hit first.
    """
    z = zeros_like_state(prob.grid)
    mean_u = np.zeros_like(z.u.values)
    mean_th = np.zeros_like(z.theta.values)
    history = []
    for n in range(1, n_max + 1):
        z = poincare_map(z, prob)
        prev_u, prev_th = mean_u, mean_th
        mean_u = prev_u + (z.u.values - prev_u) / n
        mean_th = prev_th + (z.theta.values - prev_th) / n
        increment = float(
            np.max([np.max(np.abs(mean_u - prev_u)), np.max(np.abs(mean_th - prev_th))])
        )
        err = np.nan
        if reference is not None:
            err = max(float(np.max(np.abs(mean_u - reference.u.values))),
                      float(np.max(np.abs(mean_th - reference.theta.values))))
        history.append((n, increment, err))
        if n > 1 and increment < tol:
            return history, (mean_u, mean_th)
    return history, None


def coupled_linear_problem(grid, kappa=0.5):
    """Linearized, with a g-coupling: the frozen rows of its own time-varying temperature."""
    fv = random_smooth_vector(grid, seed=3, amplitude=1e-4)
    gv = single_mode_vector(grid, k=(1,) + (0,) * (grid.n - 1), component=1, amplitude=1.0)
    forcing = ForcingSpec(period=T, kappa=kappa, g=constant_in_time(T, gv),
                          f=TimeFourierField(period=T, terms=(HarmonicTerm(1, fv, 0.4),)))
    return PeriodicProblem(forcing=forcing, cfg=SolveConfig(dt=T / 16, substeps=4), grid=grid)


class TestAffineOrbit:
    """The affine orbit against the period-by-period stepped orbit it replaced."""

    @staticmethod
    def _problem(case):
        if case == "2d":
            return linear_problem(GridSpec(n=2, N=16, L=2.0 * np.pi), amp=2e-5, seed=9)
        if case == "3d":
            return linear_problem(GridSpec(n=3, N=8, L=2.0 * np.pi), amp=2e-5, seed=5)
        return coupled_linear_problem(GridSpec(n=2, N=16, L=2.0 * np.pi))

    @staticmethod
    def _assert_histories_match(got, want):
        assert [row[0] for row in got] == [row[0] for row in want]
        for (_, inc, e), (_, inc_ref, e_ref) in zip(got, want):
            assert inc == pytest.approx(inc_ref, rel=1e-12, abs=0.0)
            assert e == pytest.approx(e_ref, rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("case", ["2d", "3d", "coupled"])
    def test_matches_stepped_orbit(self, case):
        prob = self._problem(case)
        ref = resolvent_periodic_datum(prob)
        want, (want_u, want_th) = stepped_cesaro(prob, 600, 5e-9, ref)
        sol = cesaro_periodic_datum(prob, n_max=600, tol=5e-9, reference=ref)
        assert 10 < sol.meta["iterations"] == len(want) < 600
        self._assert_histories_match(sol.history, want)
        scale = max(np.max(np.abs(want_u)), np.max(np.abs(want_th)))
        assert np.max(np.abs(sol.initial.u.values - want_u)) <= 1e-12 * scale
        assert np.max(np.abs(sol.initial.theta.values - want_th)) <= 1e-12 * scale

    @pytest.mark.parametrize("case", ["2d", "coupled"])
    def test_nmax_exhaustion_matches_stepped_orbit(self, case):
        prob = self._problem(case)
        ref = resolvent_periodic_datum(prob)
        want, mean = stepped_cesaro(prob, 6, 1e-16, ref)
        assert mean is None
        with pytest.raises(ConvergenceError, match="within n_max = 6") as err:
            cesaro_periodic_datum(prob, n_max=6, tol=1e-16, reference=ref)
        assert err.value.residual == err.value.history[-1][1]
        self._assert_histories_match(err.value.history, want)


class TestCoupledLinear:
    """A g-coupled linear problem, solved in two triangular stages."""

    @staticmethod
    def _uncoupled(prob):
        return dataclasses.replace(prob, forcing=prob.linear_forcing)

    @staticmethod
    def _own_rows_run(prob, datum):
        """One period of the coupled system from ``datum``: the rows of its own temperature."""
        return evolve(datum, prob.linear_forcing, T, prob.cfg, mode="linearized",
                      extra=periodic_mod._buoyancy_rows(prob, datum))

    def test_theta_stage_is_the_uncoupled_solve(self, grid2d_box):
        # theta does not see u: the coupling moves only the velocity datum
        prob = coupled_linear_problem(grid2d_box)
        assert prob.coupling is prob.coupling  # derived once
        coupled = resolvent_periodic_datum(prob)
        free = resolvent_periodic_datum(self._uncoupled(prob))
        assert np.array_equal(coupled.theta.values, free.theta.values)
        moved = np.max(np.abs(coupled.u.values - free.u.values))
        assert moved > 0.5 * np.max(np.abs(coupled.u.values))

    def test_velocity_response_linear_in_kappa(self, grid2d_box):
        free = resolvent_periodic_datum(self._uncoupled(coupled_linear_problem(grid2d_box)))
        half, one = (resolvent_periodic_datum(coupled_linear_problem(grid2d_box, kappa)).u.values
                     - free.u.values for kappa in (0.5, 1.0))
        assert np.max(np.abs(one - 2 * half)) <= 1e-12 * np.max(np.abs(one))

    def test_resolvent_datum_is_a_coupled_periodic_orbit(self, grid2d_box):
        # one period of the coupled system from the datum comes back to it,
        # and solves the integral identity with the coupling of its own theta
        prob = coupled_linear_problem(grid2d_box)
        datum = resolvent_periodic_datum(prob)
        run = self._own_rows_run(prob, datum)
        res_max, _ = check_periodicity(run)
        assert res_max <= 1e-12 * datum.max_norm()
        assert duhamel_residual(run, prob.forcing, prob.cfg, mode="linearized") <= 1e-13

    def test_cesaro_certify_run_is_coupled(self, grid2d_box):
        # the certifying run steps the rows of the Cesaro datum's own
        # temperature; the stage-one rows would miss it by the Cesaro error
        prob = coupled_linear_problem(grid2d_box)
        ref = resolvent_periodic_datum(prob)
        sol = cesaro_periodic_datum(prob, n_max=600, tol=5e-9, reference=ref)
        assert max(np.max(np.abs(sol.initial.u.values - ref.u.values)),
                   np.max(np.abs(sol.initial.theta.values - ref.theta.values))) <= 1e-6
        assert duhamel_residual(sol.trajectory, prob.forcing, prob.cfg,
                                mode="linearized") <= 1e-13
        frozen = evolve(sol.initial, prob.linear_forcing, T, prob.cfg, mode="linearized",
                        extra=prob.coupling)
        assert duhamel_residual(frozen, prob.forcing, prob.cfg, mode="linearized") > 1e-9
        for a, b in zip(sol.trajectory.states, self._own_rows_run(prob, sol.initial).states):
            assert np.array_equal(a.u.values, b.u.values)


def closed_form_datum(problem, F, f):
    """The periodic datum of the linear system without g, mode by mode, with no stepping.

    F and f are the time-Fourier fields the problem's forcing was built from.

    A source cos(w t + phi) S, with S the projected source of its pattern
    (P div F for a velocity term, div f for a temperature term), has the
    periodic response Re(e^{i(w t + phi)} / (k^2 + i w)) S, so x(0) is the sum
    over harmonics m of 1/2 [e^{i phi_m} / (k^2 + i w_m) + e^{-i phi_m} /
    (k^2 - i w_m)] S_m, and 0 at k = 0.
    """
    grid = problem.grid
    zero = (0,) * grid.n
    k2 = grid.k_squared.copy()
    k2[zero] = 1.0  # a harmonic-0 source is singular there; the mode is zeroed below
    parts = []
    for tf, source in ((F, lambda hat: leray_coeffs(grid, tensor_div_coeffs(grid, hat))),
                       (f, lambda hat: div_coeffs(grid, hat))):
        x = 0.0
        for term in () if tf is None else tf.terms:
            m, phase = term.harmonic, term.phase
            src = source(forward_coeffs(grid, term.field.values))
            w = 2.0 * np.pi * m / problem.period
            mult = 0.5 * (np.exp(1j * phase) / (k2 + 1j * w) + np.exp(-1j * phase) / (k2 - 1j * w))
            mult[zero] = 0.0
            x = x + mult * src
        parts.append(x)
    return _to_state(grid, *parts)


class TestClosedFormDatum:
    """The resolvent datum against :func:`closed_form_datum` on the periodic-linear-n16 inputs."""

    # relative error per substeps at seed 3: the forcing quadrature's, second
    # order in the substep h / (substeps - 1)
    LEVELS = {4: 3.90e-4, 8: 7.17e-5, 16: 1.56e-5, 32: 3.66e-6}

    @staticmethod
    def _problem(config, path, substeps):
        """The problem of ``config`` at ``substeps``, and the F and f its forcing was built from."""
        config = json.loads(json.dumps(config))
        config["solve"]["substeps"] = substeps
        path.write_text(json.dumps(config))
        cfg = load_config(str(path))
        fields = forcing_fields(cfg.raw, cfg.grid, cfg.seed, ("F", "f"))
        return PeriodicProblem(forcing=cfg.forcing, cfg=cfg.solve, grid=cfg.grid), fields

    def test_second_order_in_the_substep(self, linear_workload_configs, tmp_path):
        linear, _ = linear_workload_configs
        scaled = []
        for substeps, level in self.LEVELS.items():
            prob, fields = self._problem(linear, tmp_path / f"s{substeps}.json", substeps)
            exact = closed_form_datum(prob, **fields)
            err = state_difference(resolvent_periodic_datum(prob), exact).max_norm()
            assert err / exact.max_norm() == pytest.approx(level, rel=0.01)
            scaled.append(err / exact.max_norm() * (substeps - 1) ** 2)
        assert max(scaled) <= 1.1 * min(scaled)
        assert scaled[0] == pytest.approx(3.51e-3, rel=0.01)

    def test_coupled_theta_stage(self, linear_workload_configs, tmp_path):
        # the theta stage of a g-coupled problem is the uncoupled solve
        _, coupled = linear_workload_configs
        prob, fields = self._problem(coupled, tmp_path / "c.json", 4)
        assert prob.coupling is not None
        want = closed_form_datum(prob, **fields).theta.values
        got = resolvent_periodic_datum(prob).theta.values
        assert np.max(np.abs(got - want)) / np.max(np.abs(want)) == pytest.approx(3.90e-4, rel=0.01)


def full_orbit_history(prob, n_max, tol, reference):
    """Cesaro history read off one evolve over n_max periods, stopped as cesaro_periodic_datum is."""
    orbit = evolve(zeros_like_state(prob.grid), prob.linear_forcing, n_max * prob.period,
                   prob.cfg, mode="linearized", extra=prob.coupling,
                   store_stride=prob.steps_per_period)
    mean_u = np.zeros_like(reference.u.values)
    mean_th = np.zeros_like(reference.theta.values)
    history = []
    for n in range(1, n_max + 1):
        z = orbit.states[n]
        prev_u, prev_th = mean_u, mean_th
        mean_u = prev_u + (z.u.values - prev_u) / n
        mean_th = prev_th + (z.theta.values - prev_th) / n
        increment = max(np.max(np.abs(mean_u - prev_u)), np.max(np.abs(mean_th - prev_th)))
        err = max(np.max(np.abs(mean_u - reference.u.values)),
                  np.max(np.abs(mean_th - reference.theta.values)))
        history.append((n, float(increment), float(err)))
        if n > 1 and increment < tol:
            break
    return history


def cesaro_history_closed_form(problem, n_max):
    """Both Cesaro history columns for n = 1..n_max from c = P(0), mode by mode, with no stepping.

    The n-th mean of the orbit P^n(0) = c (1 - a^n) / (1 - a), a = e^{-T k^2},
    misses the fixed datum c / (1 - a) by e_n = -c a (1 - a^n) / (n (1 - a)^2)
    in each mode, and by 0 at k = 0.  Returns (increment, error) per n: the
    max of |e_n - e_{n-1}| (of |c| at n = 1) and of |e_n| over u and theta.
    """
    grid = problem.grid
    c = problem.linear_image
    c_hat = [forward_coeffs(grid, c.u.values), forward_coeffs(grid, c.theta.values)]
    a = np.exp(-problem.period * grid.k_squared)
    a[(0,) * grid.n] = 0.0  # e_n = 0 there

    def peak(mult):
        return max(float(np.max(np.abs(inverse_values(grid, mult * part)))) for part in c_hat)

    columns = []
    prev = np.zeros_like(a)
    for n in range(1, n_max + 1):
        e = -a * (1.0 - a**n) / (n * (1.0 - a) ** 2)
        increment = peak(np.ones_like(a)) if n == 1 else peak(e - prev)
        columns.append((increment, peak(e)))
        prev = e
    return columns


def cesaro_error_closed_form(problem, n):
    """The n-th Cesaro mean minus the fixed datum, per part, from c = P(0) with no stepping.

    Mode by mode it is e_n = -c a (1 - a^n) / (n (1 - a)^2), a = e^{-T k^2},
    and 0 at k = 0 (see :func:`cesaro_history_closed_form`).
    """
    grid = problem.grid
    c = problem.linear_image
    a = np.exp(-problem.period * grid.k_squared)
    a[(0,) * grid.n] = 0.0
    e = -a * (1.0 - a**n) / (n * (1.0 - a) ** 2)
    return [inverse_values(grid, e * forward_coeffs(grid, part))
            for part in (c.u.values, c.theta.values)]


class TestCesaroHistoryClosedForm:
    """Every row of the Cesaro history, and the datum's error per part, against their closed
    forms on the periodic-linear-n16 inputs."""

    @staticmethod
    def _solve(config, path, case):
        path.write_text(json.dumps(config))
        cfg = load_config(str(path))
        prob = PeriodicProblem(forcing=cfg.forcing, cfg=cfg.solve, grid=cfg.grid)
        assert (prob.coupling is not None) == (case == "coupled")
        periodic = cfg.raw["periodic"]
        ref = resolvent_periodic_datum(prob)
        sol = cesaro_periodic_datum(prob, n_max=periodic["n_max"], tol=periodic["tol"],
                                    reference=ref)
        return prob, sol, ref

    @pytest.mark.parametrize("case", ["free", "coupled"])
    def test_whole_history(self, linear_workload_configs, tmp_path, case):
        config = dict(zip(("free", "coupled"), linear_workload_configs))[case]
        prob, sol, _ = self._solve(config, tmp_path / "c.json", case)
        history = sol.history
        assert len(history) > 2
        want = cesaro_history_closed_form(prob, len(history))
        for (n, increment, err), (want_increment, want_err) in zip(history, want):
            assert err == pytest.approx(want_err, rel=1e-12, abs=0.0), n
            assert increment == pytest.approx(want_increment, rel=1e-12, abs=0.0), n

    def test_datum_error_per_part(self, linear_workload_configs, tmp_path):
        # the history takes one max over u and theta, and theta's part is the
        # larger at every n: the datum shows each part, so the coupled
        # velocity is seen to converge as its closed form says
        velocity_errors = {}
        for case, config in zip(("free", "coupled"), linear_workload_configs):
            prob, sol, ref = self._solve(config, tmp_path / f"{case}.json", case)
            want = cesaro_error_closed_form(prob, sol.meta["iterations"])
            got = [sol.initial.u.values - ref.u.values, sol.initial.theta.values - ref.theta.values]
            for part, (g, w) in zip(("u", "theta"), zip(got, want)):
                assert np.max(np.abs(g - w)) <= 1e-12 * np.max(np.abs(w)), (case, part)
            velocity_errors[case] = float(np.max(np.abs(got[0])))
        free, coupled = velocity_errors["free"], velocity_errors["coupled"]
        assert abs(coupled - free) > 0.01 * free


class TestCheckPeriodicity:
    def test_zero_dynamics(self, grid2d_box):
        g = grid2d_box
        forcing = ForcingSpec(period=T)
        traj = evolve(zeros_like_state(g), forcing, T, SolveConfig(dt=T / 16), mode="linearized")
        rmax, rnorm = check_periodicity(traj)
        assert rmax == 0.0
        assert rnorm == 0.0

    def test_heat_flow_residual_formula(self, grid2d_box):
        g = grid2d_box
        x0 = single_mode_scalar(g, k=(1, 0), amplitude=1.0)
        init = State(zeros_like_state(g).u, x0)
        traj = evolve(init, None, T, SolveConfig(dt=T / 16), mode="linearized")
        rmax, _ = check_periodicity(traj)
        want = (1 - np.exp(-T * (2 * np.pi / g.L) ** 2)) * 1.0
        assert rmax == pytest.approx(want, rel=1e-10)


def nonlinear_problem(grid, amp, dt=T / 16):
    kvec1 = (0, 1) if grid.n == 2 else (0, 1, 0)
    kvec2 = (1, 0) if grid.n == 2 else (1, 0, 0)
    Ft = single_mode_tensor(grid, k=kvec1, row=0, col=1, amplitude=amp)
    fv = single_mode_vector(grid, k=kvec2, component=0, amplitude=amp)
    forcing = ForcingSpec(
        period=T,
        F=constant_in_time(T, Ft),
        f=TimeFourierField(period=T, terms=(HarmonicTerm(1, fv, 0.1),)),
    )
    return PeriodicProblem(forcing=forcing, cfg=SolveConfig(dt=dt, substeps=4), grid=grid)


def ctx_for(grid, stride=8):
    p = 3.0 if grid.n == 3 else 2.0
    return NormContext(NormParams(p=p, q=np.inf, lam=max(0.0, grid.n - p)),
                       BallSampler(num_centers=4, num_radii=4), time_stride=stride)


def chord_periodic_datum(problem, start, tol=1e-13, max_iter=40):
    """Periodic datum of the full dynamics by the chord iteration on the Poincare map.

    x_{k+1} = (I - e^{-TL})^{-1} (P(x_k) - e^{-TL} x_k), with P(x) one stepped
    full-mode period from x: the Jacobian of P is replaced by its linear part
    e^{-TL}, inverted mode by mode with the mean set to 0 (Kelley, Iterative
    Methods for Linear and Nonlinear Equations, SIAM 1995, ch. 5).  A fixed
    point is x = P(x), whatever the linear part, so this route shares no
    frozen rows, resolvent solve or increment norm with the outer loop.  It
    stops once the max-norm increment is below ``tol`` of the state's.
    """
    grid = problem.grid
    zero = (0,) * grid.n
    decay = np.exp(-problem.period * grid.k_squared)
    denom = 1.0 - decay
    denom[zero] = 1.0  # the mean is set to 0 below
    x = start
    for _ in range(max_iter):
        image = evolve(x, problem.forcing, problem.period, problem.cfg,
                       store_stride=problem.steps_per_period).states[-1]
        u_hat, th_hat = ((forward_coeffs(grid, new) - decay * forward_coeffs(grid, old)) / denom
                         for new, old in ((image.u.values, x.u.values),
                                          (image.theta.values, x.theta.values)))
        u_hat = leray_coeffs(grid, u_hat)
        u_hat[(slice(None),) + zero] = 0.0
        th_hat[zero] = 0.0
        nxt = State(VectorField(grid, inverse_values(grid, u_hat)),
                    ScalarField(grid, inverse_values(grid, th_hat)))
        step = state_difference(nxt, x).max_norm()
        x = nxt
        if step <= tol * x.max_norm():
            return x
    raise AssertionError(f"chord iteration did not converge in {max_iter} steps (last {step:.3e})")


class TestNonlinearPeriodic:
    def test_zero_forcing_one_step(self, grid2d_box):
        forcing = ForcingSpec(period=T)
        prob = PeriodicProblem(forcing=forcing, cfg=SolveConfig(dt=T / 16), grid=grid2d_box)
        sol = nonlinear_periodic(prob, ctx=ctx_for(grid2d_box))
        assert sol.meta["outer_iterations"] == 1
        assert sol.initial.max_norm() == 0.0
        assert sol.residual_max == 0.0

    def test_contraction_and_periodicity(self, grid2d_box):
        prob = nonlinear_problem(grid2d_box, amp=2e-2)
        sol = nonlinear_periodic(prob, outer_tol=1e-11, outer_max=24, ctx=ctx_for(grid2d_box))
        assert all(r < 1.0 for r in sol.meta["contraction_ratios"])
        assert sol.residual_max < 1e-9
        # increments contract monotonically after the first correction
        incs = [d for (_, d, _) in sol.history]
        assert incs[1] < incs[0] and incs[2] < incs[1]

    def test_linear_response_at_small_amplitude(self, grid2d_box):
        sols = []
        for amp in (1e-3, 5e-4):
            prob = nonlinear_problem(grid2d_box, amp=amp)
            sols.append(nonlinear_periodic(prob, outer_tol=1e-11, ctx=ctx_for(grid2d_box)))
        ratio = sols[1].meta["solution_h_norm"] / sols[0].meta["solution_h_norm"]
        assert ratio == pytest.approx(0.5, abs=0.05)

    @staticmethod
    def _assert_chord_agrees(prob, ctx, outer_tol):
        # the chord route, started from a random datum, reaches the outer
        # loop's datum: the fixed point in the small ball is unique
        sol = nonlinear_periodic(prob, outer_tol=outer_tol, ctx=ctx)
        g = prob.grid
        start = State(random_div_free(g, seed=77, amplitude=1e-2),
                      random_smooth_scalar(g, seed=78, amplitude=1e-2))
        datum = chord_periodic_datum(prob, start)
        assert state_difference(datum, sol.initial).max_norm() <= 1e-10 * sol.initial.max_norm()

    def test_uniqueness_probe(self, grid2d_box):
        prob = nonlinear_problem(grid2d_box, amp=1e-2)
        self._assert_chord_agrees(prob, ctx_for(grid2d_box), 1e-11)

    def test_uniqueness_probe_coupled(self):
        # 3-D, g-coupled, at an amplitude where the outer loop takes 10 iterations
        prob, ctx = TestNonlinearPeriodicMemory._problem(amp=0.3, kappa=0.5)
        self._assert_chord_agrees(prob, ctx, 1e-12)

    def test_periodic_shift_consistency(self, grid2d_box):
        g = grid2d_box
        prob = nonlinear_problem(g, amp=1e-2)
        sol = nonlinear_periodic(prob, outer_tol=1e-11, ctx=ctx_for(g))
        two = evolve(sol.initial, prob.forcing, 2 * T, prob.cfg, mode="full")
        mid = round(T / prob.cfg.dt)
        assert two.times[mid] == pytest.approx(T) and two.times[-1] == pytest.approx(2 * T)
        end, one = two.states[-1], two.states[mid]
        shift = max(
            np.max(np.abs(end.u.values - one.u.values)),
            np.max(np.abs(end.theta.values - one.theta.values)),
        )
        assert shift < 2 * max(sol.residual_max, 1e-12)

    def test_smallness_violation_raises(self, grid2d_box):
        prob = nonlinear_problem(grid2d_box, amp=40.0, dt=T / 16)
        with pytest.raises(ConvergenceError):
            nonlinear_periodic(prob, outer_tol=1e-11, outer_max=10, ctx=ctx_for(grid2d_box))

    @pytest.mark.parametrize("outer_max, outer_tol", [(0, 1e-8), (-1, 1e-8), (4, 0.0),
                                                      (4, np.nan)])
    def test_loop_bounds_rejected(self, grid2d_box, outer_max, outer_tol):
        prob = nonlinear_problem(grid2d_box, amp=1e-3)
        with pytest.raises(ConfigError):
            nonlinear_periodic(prob, outer_tol=outer_tol, outer_max=outer_max,
                               ctx=ctx_for(grid2d_box))

    def test_nonfinite_increment_names_iteration(self, grid2d_box, monkeypatch):
        # one NaN term among finite ones must still reach the increment
        calls = []

        def nan_second(state, ctx):
            calls.append(1)
            return np.nan if len(calls) == 2 else state_norm(state, ctx)

        monkeypatch.setattr(periodic_mod, "state_norm", nan_second)
        prob = nonlinear_problem(grid2d_box, amp=1e-3)
        with pytest.raises(ConvergenceError, match="not finite at iteration 1") as err:
            nonlinear_periodic(prob, ctx=ctx_for(grid2d_box))
        assert len(err.value.history) == 1

    def test_buoyancy_coupled_solve(self, grid3d_small):
        # kappa > 0 with a gravity-type field: the coupling feeds theta back
        # into the velocity row through every outer iteration
        g = grid3d_small
        from bqbox.presets import gravity_field

        Ft = single_mode_tensor(g, k=(0, 1, 0), row=0, col=1, amplitude=1e-3)
        fv = single_mode_vector(g, k=(1, 0, 0), component=0, amplitude=1e-3)
        forcing = ForcingSpec(
            period=T,
            kappa=0.3,
            F=constant_in_time(T, Ft),
            f=constant_in_time(T, fv),
            g=constant_in_time(T, gravity_field(g, G=1.0, soft_cells=2.0)),
        )
        prob = PeriodicProblem(forcing=forcing, cfg=SolveConfig(dt=T / 16, substeps=4), grid=g)
        ctx = NormContext(NormParams(p=3.0, q=np.inf, lam=0.0), BallSampler(4, 4), time_stride=4)
        sol = nonlinear_periodic(prob, outer_tol=1e-10, ctx=ctx)
        assert sol.residual_max < 1e-8
        assert all(r < 1.0 for r in sol.meta["contraction_ratios"])
        # the buoyancy term must actually move the velocity: compare kappa=0
        forcing0 = ForcingSpec(period=T, kappa=0.0, F=constant_in_time(T, Ft),
                               f=constant_in_time(T, fv))
        sol0 = nonlinear_periodic(
            PeriodicProblem(forcing=forcing0, cfg=prob.cfg, grid=g),
            outer_tol=1e-10, ctx=ctx,
        )
        assert not np.allclose(sol.initial.u.values, sol0.initial.u.values)

    def test_navier_stokes_case_keeps_theta_exactly_zero(self, grid3d_small):
        # no f and no g: the full dynamics are Navier-Stokes, and the datum
        # and every stored temperature of the certifying run are exactly 0
        g = grid3d_small
        Ft = single_mode_tensor(g, k=(0, 1, 0), row=0, col=1, amplitude=1e-3)
        forcing = ForcingSpec(period=T, F=constant_in_time(T, Ft))
        cfg = SolveConfig(dt=T / 16, substeps=4)
        ctx = NormContext(NormParams(p=3.0, q=np.inf, lam=0.0), BallSampler(4, 4), time_stride=4)
        sol = nonlinear_periodic(PeriodicProblem(forcing=forcing, cfg=cfg, grid=g), ctx=ctx)
        assert sol.residual_max < 1e-9
        assert np.max(np.abs(sol.initial.u.values)) > 0.0
        assert np.all(sol.initial.theta.values == 0.0)
        assert len(sol.trajectory.states) == 17
        for state in sol.trajectory.states:
            assert np.all(state.theta.values == 0.0)


class TestSplitImageAndWarmStart:
    """P(0) stepped as P_F(0) plus the frozen part, and the certify run's warm start."""

    @staticmethod
    def _frozen_problem(coupled):
        from bqbox.presets import gravity_field

        g = GridSpec(n=3, N=8, L=2.0 * np.pi)
        cfg = SolveConfig(dt=T / 16, substeps=4)
        fv = single_mode_vector(g, k=(1, 0, 0), component=0, amplitude=1e-2)
        gf = None
        if coupled:  # a time-dependent coupling: the g of each node is read
            gf = TimeFourierField(period=T, terms=(HarmonicTerm(1, gravity_field(g), 0.3),))
        forcing = ForcingSpec(
            period=T, kappa=0.3 if coupled else 0.0, g=gf,
            F=constant_in_time(T, random_smooth_tensor(g, seed=4, amplitude=1e-2)),
            f=TimeFourierField(period=T, terms=(HarmonicTerm(1, fv, 0.1),)),
        )
        prob = PeriodicProblem(forcing=forcing, cfg=cfg, grid=g)
        # an iterate to freeze: one full-mode period from a nonzero state
        x0 = State(random_div_free(g, seed=11, amplitude=0.1),
                   random_smooth_scalar(g, seed=12, amplitude=0.1))
        return prob, evolve(x0, forcing, T, cfg, mode="full")

    @pytest.mark.parametrize("coupled", [False, True])
    def test_superposed_image_matches_direct(self, coupled, monkeypatch):
        # P(0) = P_F(0) + P_rows(0) against one evolve that steps the forcing
        # without g and the frozen rows together; with a coupling, the rows
        # hold the buoyancy of the iterate's temperature beside the advection
        prob, iterate = self._frozen_problem(coupled)
        images = []
        invert = periodic_mod._invert_resolvent
        monkeypatch.setattr(periodic_mod, "_invert_resolvent",
                            lambda problem, c: images.append(c) or invert(problem, c))

        def ignore(t, state):
            pass

        solve = periodic_mod._linear_periodic_solve
        solve(prob, None, ignore)
        solve(prob, frozen_extra(iterate, prob.forcing), ignore)
        forced = prob.forced_image
        assert images[0] is forced  # the solve that freezes nothing inverts P_F(0)
        direct = evolve(zeros_like_state(prob.grid), prob.linear_forcing, T, prob.cfg,
                        mode="linearized", extra=frozen_extra(iterate, prob.forcing),
                        store_stride=prob.steps_per_period).states[-1]
        split = images[1]
        scale = direct.max_norm()
        # the frozen part moves P(0) well above the tolerance
        assert state_difference(direct, forced).max_norm() > 1e-2 * scale
        assert state_difference(split, direct).max_norm() <= 1e-13 * scale

    @pytest.mark.parametrize("outer_tol", [None, 1e-10], ids=["default-tol", "tol-1e-10"])
    @pytest.mark.parametrize("case", ["2d", "coupled"])
    def test_warm_started_certify_run(self, case, outer_tol):
        # the converged iterate's rows close every certify step in one Picard
        # iteration, and the run matches one started from the extrapolation;
        # at the default outer_tol too, where the 2-D loop stops one outer
        # iteration earlier (3 against 4)
        if case == "2d":
            prob = nonlinear_problem(GridSpec(n=2, N=16, L=2.0 * np.pi), amp=1e-2)
            ctx = ctx_for(prob.grid)
        else:
            prob, ctx = TestNonlinearPeriodicMemory._problem()
        tol = {} if outer_tol is None else {"outer_tol": outer_tol}
        sol = nonlinear_periodic(prob, ctx=ctx, **tol)
        steps = prob.steps_per_period
        assert sol.trajectory.meta["rhs_evaluations"] == steps + 1
        cold = evolve(sol.initial, prob.forcing, T, prob.cfg)
        assert cold.meta["rhs_evaluations"] > steps + 1
        scale = max(s.max_norm() for s in cold.states)
        for a, b in zip(sol.trajectory.states, cold.states):
            assert state_difference(a, b).max_norm() <= 1e-12 * scale


def trajectory_difference(a, b):
    """The stored states of ``a - b``, all at once: the oracle of the streamed increment."""
    assert np.array_equal(a.times, b.times)
    return Trajectory(a.grid, a.times, [state_difference(x, y) for x, y in zip(a.states, b.states)])


def frozen_extra(traj, forcing=None):
    """Band rows of G_state frozen along a whole stored iterate, one (vel, th) pair per state.

    With ``forcing``'s g-coupling (kappa > 0) the buoyancy row is in the
    velocity rows, as in the full-mode right-hand side.
    """
    grid = traj.grid
    g = forcing.g if forcing is not None and forcing.kappa > 0 else None
    kappa = 0.0 if forcing is None else forcing.kappa
    return [advection_coeffs(grid, s.u.values, s.u.values, s.theta.values,
                             None if g is None else g.value(t).values, kappa)
            for t, s in zip(traj.times, traj.states)]


def zero_image(problem, forcing, extra):
    """One period from zero of ``forcing`` (g dropped) and the frozen rows ``extra``."""
    if forcing is not None:
        forcing = dataclasses.replace(forcing, g=None, kappa=0.0)
    return evolve(zeros_like_state(problem.grid), forcing, problem.period, problem.cfg,
                  mode="linearized", extra=extra,
                  store_stride=problem.steps_per_period).states[-1]


def stored_linear_solve(problem, extra, forced):
    """The linear periodic solve returning its whole stored iterate.

    g is dropped from the forcing: its coupling is in the frozen rows.  P(0)
    is ``forced``, the image of the forcing alone, plus the image of
    ``extra`` stepped from zero without forcing.
    """
    grid = problem.grid
    c = forced
    if extra is not None:
        rows = zero_image(problem, None, extra)
        c = State(VectorField(grid, forced.u.values + rows.u.values),
                  ScalarField(grid, forced.theta.values + rows.theta.values))
    return evolve(periodic_mod._invert_resolvent(problem, c),
                  dataclasses.replace(problem.forcing, g=None, kappa=0.0), problem.period,
                  problem.cfg, mode="linearized", extra=extra)


def collected_nonlinear_periodic(problem, outer_tol, outer_max, ctx):
    """The outer loop with every iterate stored whole and its difference materialized.

    Each iterate is kept until the next replaces it, and its rows are read
    from the stored trajectory.  P_F(0) is stepped once, and every solve
    adds its frozen part to it; the converged iterate's rows start the
    certify run's Picard.  Returns the history, datum, residuals and sup
    norm :func:`nonlinear_periodic` reports.
    """
    current, history = None, []
    forced = zero_image(problem, problem.forcing, None)
    for m in range(1, outer_max + 1):
        extra = frozen_extra(current, problem.forcing) if current is not None else None
        nxt = stored_linear_solve(problem, extra, forced)
        diff = nxt if current is None else trajectory_difference(nxt, current)
        delta = trajectory_sup_norm(diff, ctx)
        ratio = delta / history[-1][1] if history and history[-1][1] > 0 else np.nan
        history.append((m, delta, ratio))
        current = nxt
        if delta < outer_tol:
            break
    datum = current.states[0]
    certify = evolve(datum, problem.forcing, problem.period, problem.cfg,
                     _predictor=frozen_extra(current, problem.forcing))
    res_max, res_norm = check_periodicity(certify, ctx)
    return history, datum, res_max, res_norm, trajectory_sup_norm(certify, ctx)


def streamed_iterates(monkeypatch):
    """Record every state each linear solve streams; returns the list of iterates."""
    iterates = []
    solve = periodic_mod._linear_periodic_solve

    def spy(problem, extra, on_state):
        states = []
        solve(problem, extra, lambda t, state: states.append((t, state)) or on_state(t, state))
        times, kept = zip(*states)
        iterates.append(Trajectory(problem.grid, np.asarray(times), list(kept)))

    monkeypatch.setattr(periodic_mod, "_linear_periodic_solve", spy)
    return iterates


class TestNonlinearPeriodicMemory:
    """The outer loop holds no iterate whole, and the certify run holds no loop state."""

    @staticmethod
    def _problem(amp=1e-3, kappa=0.3):
        from bqbox.presets import gravity_field

        g = GridSpec(n=3, N=16, L=2.0 * np.pi)
        fv = single_mode_vector(g, k=(1, 0, 0), component=0, amplitude=amp)
        forcing = ForcingSpec(
            period=T,
            kappa=kappa,
            F=constant_in_time(T, random_smooth_tensor(g, seed=4, amplitude=amp)),
            f=TimeFourierField(period=T, terms=(HarmonicTerm(1, fv, 0.1),)),
            g=constant_in_time(T, gravity_field(g, G=1.0, soft_cells=2.0)),
        )
        prob = PeriodicProblem(forcing=forcing, cfg=SolveConfig(dt=T / 16, substeps=4), grid=g)
        ctx = NormContext(NormParams(p=3.0, q=np.inf, lam=0.0), BallSampler(4, 4), time_stride=4)
        return prob, ctx

    @staticmethod
    def _assert_same(sol, collected):
        history, datum, res_max, res_norm, sol_norm = collected
        np.testing.assert_array_equal(np.array(sol.history), np.array(history))
        assert np.array_equal(sol.initial.u.values, datum.u.values)
        assert np.array_equal(sol.initial.theta.values, datum.theta.values)
        assert (sol.residual_max, sol.residual_norm) == (res_max, res_norm)
        assert sol.meta["solution_h_norm"] == sol_norm

    def test_history_matches_materialized_difference(self, monkeypatch):
        prob, ctx = self._problem()
        iterates = streamed_iterates(monkeypatch)
        sol = nonlinear_periodic(prob, outer_tol=1e-10, ctx=ctx)
        assert len(iterates) == len(sol.history) >= 3
        assert all(len(it.states) == prob.steps_per_period + 1 for it in iterates)
        want = [trajectory_sup_norm(iterates[0], ctx)] + [
            trajectory_sup_norm(trajectory_difference(b, a), ctx)
            for a, b in zip(iterates, iterates[1:])
        ]
        assert [delta for _, delta, _ in sol.history] == want
        # stride 4 reads states 0, 4, ..., 16; strides 3 and 5 step past the
        # last state, which must still be read
        for stride in (3, 5):
            ctx_s = NormContext(ctx.params, ctx.sampler, time_stride=stride)
            previous = periodic_mod._Iterate(len(iterates[0].times), ctx_s, prob.forcing)
            reader = periodic_mod._Iterate(len(iterates[1].times), ctx_s, prob.forcing, previous)
            for it, iterate in ((previous, iterates[0]), (reader, iterates[1])):
                for t, state in zip(iterate.times, iterate.states):
                    it(t, state)
            want = trajectory_sup_norm(trajectory_difference(iterates[1], iterates[0]), ctx_s)
            assert reader.increment() == want
            assert previous.sup == {}  # each previous sup state released once differenced

    def test_outputs_match_collected_loop(self):
        prob, ctx = self._problem()
        sol = nonlinear_periodic(prob, outer_tol=1e-10, ctx=ctx)
        collected = collected_nonlinear_periodic(prob, 1e-10, 16, ctx)
        assert len(collected[0]) >= 3
        self._assert_same(sol, collected)

    def test_coupling_only_in_the_frozen_rows(self, monkeypatch):
        # with a g-coupling the buoyancy rows are frozen with the advection:
        # no linear solve reads g, and only the certify run steps the
        # coupled forcing
        seen = []
        evolve_ = periodic_mod.evolve

        def spy(initial, forcing, t_end, cfg, mode="full", **kwargs):
            seen.append((mode, forcing))
            return evolve_(initial, forcing, t_end, cfg, mode=mode, **kwargs)

        monkeypatch.setattr(periodic_mod, "evolve", spy)
        prob, ctx = self._problem()  # g set, kappa = 0.3
        sol = nonlinear_periodic(prob, outer_tol=1e-10, ctx=ctx)
        linear = [forcing for mode, forcing in seen if mode == "linearized"]
        assert len(linear) == 2 * len(sol.history) >= 6
        assert all(forcing is None or forcing.g is None for forcing in linear)
        assert seen[-1][:2] == ("full", prob.forcing)
        self._assert_same(sol, collected_nonlinear_periodic(prob, 1e-10, 16, ctx))

    def test_off_sup_states_released_once_frozen(self, monkeypatch):
        # during a streamed solve no state outside the sup indices outlives
        # its on_state call; the last iterate's sup states are alive when the
        # next solve starts and released by the time it returns
        prob, ctx = self._problem()
        keep = set(sup_time_indices(prob.steps_per_period + 1, ctx.time_stride))
        assert 0 in keep and len(keep) < prob.steps_per_period + 1
        iterates = []  # per iterate, weak references to each state and its velocity values
        solve = periodic_mod._linear_periodic_solve

        def dead(refs, indices):
            return all(refs[i][0]() is None and refs[i][1]() is None for i in indices)

        def alive(refs, indices):
            return all(refs[i][0]() is not None and refs[i][1]() is not None for i in indices)

        def spy(problem, extra, on_state):
            last = iterates[-1] if iterates else None
            if last is not None:
                assert len(extra) == len(last)
                assert alive(last, keep) and dead(last, set(range(len(last))) - keep)
            refs = []

            def watch(t, state):
                assert dead(refs, set(range(len(refs))) - keep)
                on_state(t, state)
                refs.append((weakref.ref(state), weakref.ref(state.u.values)))

            solve(problem, extra, watch)
            assert dead(refs, set(range(len(refs))) - keep) and alive(refs, keep)
            if last is not None:
                assert dead(last, range(len(last)))
            iterates.append(refs)

        monkeypatch.setattr(periodic_mod, "_linear_periodic_solve", spy)
        sol = nonlinear_periodic(prob, outer_tol=1e-10, ctx=ctx)
        assert len(iterates) == len(sol.history) >= 3

    def test_peak_memory_in_stored_trajectories(self):
        # the loop holds the band-sized frozen rows of two iterates and the
        # sup states of two iterates, but never an iterate's states; the
        # certify trajectory is the one whole trajectory of the run.  An
        # iterate held whole, full-size frozen rows, temperatures or coupling
        # rows kept beside the frozen rows, or loop state kept through the
        # certify run push the peak past the bound (1.59 trajectories
        # measured; 2.30 with the temperatures and per-evolve coupling rows)
        prob, ctx = self._problem()
        nonlinear_periodic(prob, outer_tol=1e-10, ctx=ctx)  # multiplier caches built outside
        prob = dataclasses.replace(prob)  # the same forcing, with P_F(0) not yet stepped
        tracemalloc.start()
        try:
            sol = nonlinear_periodic(prob, outer_tol=1e-10, ctx=ctx)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        traj_bytes = sum(s.u.values.nbytes + s.theta.values.nbytes for s in sol.trajectory.states)
        assert len(sol.trajectory.states) == 17
        assert peak < 1.8 * traj_bytes
