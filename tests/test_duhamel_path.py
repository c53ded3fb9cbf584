"""The prefix Duhamel integral against the per-time loops it replaced.

Every Duhamel term and certificate reads one prefix path,
I(t_{j+1}) = e^{-hL} I(t_j) + Wa G(t_j) + Wb G(t_{j+1}).  The references here
are copies of the earlier code, which integrated from 0 again for every
output time with each interval decayed straight to t.
"""

import dataclasses

import numpy as np
import pytest

import bqbox.duhamel as duhamel
from bqbox import (
    BallSampler,
    DiagnosticsError,
    ForcingSpec,
    GridSpec,
    NormParams,
    SolveConfig,
    State,
    constant_in_time,
    duhamel_residual,
    evolve,
    morrey_lorentz_norm,
    verify_linear_operator,
)
from bqbox.duhamel import _trap_weights, bilinear_path
from bqbox.forcing import HarmonicTerm, TimeFourierField
from bqbox.grid import forward_coeffs, inverse_values, scatter_band
from bqbox.operators import (
    advection_coeffs,
    buoyancy_coeffs,
    div_coeffs,
    leray_coeffs,
    semigroup_factor,
    tensor_div_coeffs,
)
from bqbox.presets import (
    random_div_free,
    random_smooth_scalar,
    random_smooth_tensor,
    random_smooth_vector,
    single_mode_tensor,
)
from bqbox.suite import _suite_sampler

# ---------------------------------------------------------------------------
# copies of the per-time loops the prefix path replaced
# ---------------------------------------------------------------------------


def old_nodes(times, t):
    ts = [float(s) for s in times if s <= t + 1e-12]
    if abs(ts[-1] - t) > 1e-12 * max(1.0, t):
        ts.append(float(t))
    return ts


def old_accumulate(grid, nodes, rows, t):
    """Sum of the product-trapezoid intervals of int_0^t, each decayed by e^{-(t - b)L}."""
    acc = [np.zeros_like(r) for r in rows[0]]
    for j in range(len(nodes) - 1):
        a, b = nodes[j], nodes[j + 1]
        if b - a <= 0:
            continue
        Wa, Wb = _trap_weights(b - a, grid.k_squared)
        decay = semigroup_factor(grid, max(t - b, 0.0))
        acc = [s + decay * (Wa * ra + Wb * rb) for s, ra, rb in zip(acc, rows[j], rows[j + 1])]
    return acc


def old_bilinear(traj_a, traj_b, t):
    grid = traj_a.grid
    nodes = old_nodes(traj_a.times, t)
    rows = []
    for s in nodes:
        sa, sb = traj_a.sample(s), traj_b.sample(s)
        band_rows = advection_coeffs(grid, sa.u.values, sb.u.values, sb.theta.values)
        rows.append(tuple(scatter_band(grid, r) for r in band_rows))
    return old_accumulate(grid, nodes, rows, t)


def old_coupling(theta_samples, g, kappa, t):
    grid = g.grid
    nodes = old_nodes(theta_samples.times, t)
    rows = [(scatter_band(grid, buoyancy_coeffs(grid, theta_samples.value(s).values,
                                                g.value(s).values, kappa)),)
            for s in nodes]
    return old_accumulate(grid, nodes, rows, t)


def old_forcing(forcing, t, cfg):
    """The rows P div F(s) and div f(s) on the half spectrum, from the forcing's values at s."""
    grid = forcing.grid
    nodes = np.linspace(0.0, t, (cfg.substeps - 1) * int(round(t / cfg.dt)) + 1)
    zero_v = np.zeros((grid.n,) + grid.spectral_shape, dtype=complex)
    zero_t = np.zeros(grid.spectral_shape, dtype=complex)
    rows = []
    for s in nodes:
        vel, th = zero_v, zero_t
        if forcing.F is not None:
            F_hat = forward_coeffs(grid, forcing.F.value(s).values)
            vel = leray_coeffs(grid, tensor_div_coeffs(grid, F_hat))
        if forcing.f is not None:
            th = div_coeffs(grid, forward_coeffs(grid, forcing.f.value(s).values))
        rows.append((vel, th))
    return old_accumulate(grid, nodes, rows, t)


def old_residual(traj, forcing, cfg, mode):
    grid = traj.grid
    x0 = traj.states[0]
    u0_hat = forward_coeffs(grid, x0.u.values)
    th0_hat = forward_coeffs(grid, x0.theta.values)
    scale = max(s.max_norm() for s in traj.states)
    worst = 0.0
    for t, s in zip(traj.times[1:], traj.states[1:]):
        t = float(t)
        decay = semigroup_factor(grid, t)
        total_u = inverse_values(grid, decay * u0_hat).real
        total_th = inverse_values(grid, decay * th0_hat).real
        terms = []
        if mode == "full":
            terms.append(old_bilinear(traj, traj, t))
        terms.append(old_coupling(traj.theta_series(), forcing.g, forcing.kappa, t))
        terms.append(old_forcing(forcing, t, cfg))
        for term in terms:
            total_u = total_u + inverse_values(grid, term[0]).real
            if len(term) > 1:
                total_th = total_th + inverse_values(grid, term[1]).real
        worst = max(worst, float(np.max(np.abs(total_u - s.u.values))) / scale,
                    float(np.max(np.abs(total_th - s.theta.values))) / scale)
    return worst


def old_linear_operator_ratio(f1, f2, from_params, to_params, sampler, tail_tol=1e-10,
                              num_intervals=400):
    """The 400 quadratic intervals up to the horizon where the spectral-gap tail is tail_tol."""
    grid = f1.grid
    horizon = np.log(1.0 / tail_tol) / (2.0 * np.pi / grid.L) ** 2  # the spectral gap
    g_vel = tensor_div_coeffs(grid, forward_coeffs(grid, f1.values))
    g_th = div_coeffs(grid, forward_coeffs(grid, f2.values))
    nodes = horizon * (np.arange(num_intervals + 1) / num_intervals) ** 2
    vel = np.zeros_like(g_vel)
    th = np.zeros_like(g_th)
    for j in range(num_intervals):
        Wa, Wb = _trap_weights(nodes[j + 1] - nodes[j], grid.k_squared)
        kernel = semigroup_factor(grid, nodes[j]) * (Wa + Wb)
        vel = vel + kernel * g_vel
        th = th + kernel * g_th
    out = duhamel._to_state(grid, vel, th)
    out_norm = (morrey_lorentz_norm(out.u, to_params, sampler)
                + morrey_lorentz_norm(out.theta, to_params, sampler))
    in_sup = (morrey_lorentz_norm(f1, from_params, sampler)
              + morrey_lorentz_norm(f2, from_params, sampler))
    return out_norm / in_sup


# ---------------------------------------------------------------------------
# fixtures
# ---------------------------------------------------------------------------

T = 1.0


def coupled_forcing(g):
    return ForcingSpec(
        period=T,
        kappa=0.5,
        F=TimeFourierField(period=T, terms=(
            HarmonicTerm(1, random_smooth_tensor(g, seed=1, amplitude=0.1), 0.3),)),
        f=constant_in_time(T, random_smooth_vector(g, seed=2, amplitude=0.1)),
        g=TimeFourierField(period=T, terms=(HarmonicTerm(1, random_smooth_vector(g, seed=3), 0.4),)),
    )


def initial_state(g, seed):
    return State(random_div_free(g, seed=seed, amplitude=0.2),
                 random_smooth_scalar(g, seed=seed + 1, amplitude=0.2))


@pytest.fixture(scope="module")
def grid():
    return GridSpec(n=3, N=8, L=2.0 * np.pi)


@pytest.fixture(scope="module")
def runs(grid):
    """A uniform trajectory and a store_stride = 3 one whose last step is short."""
    cfg = SolveConfig(dt=T / 16, substeps=4)
    forcing = coupled_forcing(grid)
    uniform = evolve(initial_state(grid, 10), forcing, T, cfg, mode="full")
    strided = evolve(initial_state(grid, 20), forcing, T, cfg, mode="full", store_stride=3)
    return cfg, forcing, uniform, strided


def assert_matches(got, want):
    """Coefficient arrays within 1e-14 of the largest reference value along the path."""
    scale = max(float(np.max(np.abs(w))) for parts in want for w in parts)
    assert scale > 0
    for g_parts, w_parts in zip(got, want):
        for g_, w_ in zip(g_parts, w_parts):
            assert np.max(np.abs(g_ - w_)) <= 1e-14 * scale


def coeffs(state):
    grid = state.grid
    return forward_coeffs(grid, state.u.values), forward_coeffs(grid, state.theta.values)


class TestPathMatchesPerTimeLoop:
    def test_strided_trajectory_keeps_two_step_sizes(self, runs):
        _, _, uniform, strided = runs
        assert np.allclose(np.diff(uniform.times), T / 16)
        assert sorted(set(np.round(np.diff(strided.times) * 16, 12))) == [1.0, 3.0]

    @pytest.mark.parametrize("pair", ["uniform", "strided", "mixed"])
    def test_bilinear_path(self, runs, pair):
        _, _, uniform, strided = runs
        a, b = {"uniform": (uniform, uniform), "strided": (strided, strided),
                "mixed": (strided, uniform)}[pair]
        times = [float(t) for t in a.times[1:]]
        got = [coeffs(B) for B in bilinear_path(a, b, times)]
        want = [old_bilinear(a, b, t) for t in times]
        assert len(got) == len(times)
        assert_matches(got, want)

    def test_bilinear_off_grid_times(self, runs):
        # off-node times take a partial step that the path does not keep
        _, _, uniform, strided = runs
        times = [0.1, 3 / 16, 0.4, 0.41, 12 / 16, 0.99, 1.0]
        got = [coeffs(B) for B in bilinear_path(strided, uniform, times)]
        want = [old_bilinear(strided, uniform, t) for t in times]
        assert_matches(got, want)
        single = next(duhamel._bilinear_path(strided, uniform, [0.41]))
        assert_matches([single], [want[3]])

    @pytest.mark.parametrize("t", [3 / 16, 0.55, 1.0])
    def test_coupling_increment(self, runs, t):
        # T_g has a velocity row only
        _, forcing, _, strided = runs
        (got,) = next(duhamel._coupling_path(strided, forcing.g, forcing.kappa, [t]))
        assert_matches([(got,)], [old_coupling(strided.theta_series(), forcing.g, forcing.kappa, t)])

    @pytest.mark.parametrize("t", [1 / 16, 5 / 16, 1.0])
    def test_forcing_increment(self, runs, t):
        cfg, forcing, _, _ = runs
        got = next(duhamel._forcing_path(forcing, [t], cfg))
        assert_matches([got], [old_forcing(forcing, t, cfg)])

    def test_forcing_path_reads_every_step_time(self, runs):
        cfg, forcing, _, _ = runs
        times = [k / 16 for k in range(1, 17)]
        got = list(duhamel._forcing_path(forcing, times, cfg))
        want = [old_forcing(forcing, t, cfg) for t in times]
        assert_matches(got, want)

    @pytest.mark.parametrize("which", ["uniform", "strided"])
    def test_full_mode_residual(self, runs, which):
        cfg, forcing, uniform, strided = runs
        traj = {"uniform": uniform, "strided": strided}[which]
        got = duhamel_residual(traj, forcing, cfg, mode="full")
        want = old_residual(traj, forcing, cfg, "full")
        assert abs(got - want) <= 1e-14

    def test_linearized_residual_reads_its_own_temperature(self, grid, runs):
        # a linearized run reads the coupling off its own stored temperature,
        # as a full-mode run does; stepped with rows built from that
        # temperature, it is a solution of the coupled linear system
        cfg, forcing, _, _ = runs
        x0 = initial_state(grid, 30)
        free = dataclasses.replace(forcing, g=None, kappa=0.0)
        orbit = evolve(x0, free, T, cfg, mode="linearized")
        rows = [(buoyancy_coeffs(grid, s.theta.values, forcing.g.value(t).values, forcing.kappa),
                 None) for t, s in zip(orbit.times, orbit.states)]
        traj = evolve(x0, free, T, cfg, mode="linearized", extra=rows)
        got = duhamel_residual(traj, forcing, cfg, mode="linearized")
        want = old_residual(traj, forcing, cfg, "linearized")
        assert abs(got - want) <= 1e-14
        assert got <= 1e-13
        # without the rows the coupling is missing from the run, not from the check
        uncoupled = evolve(x0, free, T, cfg, mode="linearized")
        assert duhamel_residual(uncoupled, forcing, cfg, mode="linearized") > 1e-3


class TestCouplingCoverage:
    def test_short_trajectory_is_not_held_past_its_end(self, grid):
        # a run to t = 0.5 of a period-1 forcing covers no time past 0.5: the
        # coupling increment must say so, as the bilinear one does
        cfg = SolveConfig(dt=T / 16)
        forcing = coupled_forcing(grid)
        traj = evolve(initial_state(grid, 50), forcing, 0.5, cfg, mode="full")
        for velocity in (lambda t: next(duhamel._coupling_path(traj, forcing.g, forcing.kappa, [t]))[0],
                         lambda t: next(duhamel._bilinear_path(traj, traj, [t]))[0]):
            with pytest.raises(DiagnosticsError, match="does not cover t = 0.9"):
                velocity(0.9)
            assert np.max(np.abs(velocity(0.5))) > 0.0
        with pytest.raises(DiagnosticsError, match="does not cover t = 0.9"):
            list(duhamel._coupling_path(traj, forcing.g, forcing.kappa, [0.25, 0.9]))

    def test_one_period_trajectory_is_not_read_periodically(self, runs):
        # a trajectory over exactly one period of g covers no later time
        _, forcing, uniform, _ = runs
        with pytest.raises(DiagnosticsError, match="does not cover t = 1.25"):
            next(duhamel._coupling_path(uniform, forcing.g, forcing.kappa, [1.25]))


class TestStepFactorsBuiltOnce:
    def test_residual_builds_weights_once_per_step_size(self, grid, monkeypatch):
        # 64 steps at dt, forcing substeps at dt / 3: two distinct step sizes
        cfg = SolveConfig(dt=T / 64, substeps=4)
        forcing = coupled_forcing(grid)
        traj = evolve(initial_state(grid, 40), forcing, T, cfg, mode="full")
        calls = []
        trap = duhamel._trap_weights
        monkeypatch.setattr(duhamel, "_trap_weights", lambda h, k2: calls.append(h) or trap(h, k2))
        assert duhamel_residual(traj, forcing, cfg, mode="full") <= 1e-9
        assert len(calls) <= 2
        assert sorted(calls) == pytest.approx([T / 192, T / 64], rel=1e-12)

    def test_step_sizes_within_roundoff_share_factors(self, grid):
        factors = {}
        first = duhamel._step_factors(grid, 0.1, factors)
        assert duhamel._step_factors(grid, 0.3 - 0.2, factors) is first
        assert duhamel._step_factors(grid, 0.1 * (1 + 1e-9), factors) is not first
        assert len(factors) == 2


class TestLinearOperatorClosedForm:
    def test_matches_the_interval_loop_on_criterion_7_inputs(self):
        # the fields and sampler of the coarse estimate suite (seed 42, p = 3)
        g = GridSpec(n=3, N=16, L=2.0 * np.pi)
        sampler = _suite_sampler(g)
        r_par = NormParams(p=2.0, q=np.inf, lam=0.0)
        l_par = NormParams(p=6.0, q=np.inf, lam=0.0)
        for i in range(2):
            F = random_smooth_tensor(g, seed=242 + i, exponent=2.0)
            f = random_smooth_vector(g, seed=142 + i, exponent=2.0)
            got = verify_linear_operator(F, f, r_par, l_par, sampler=sampler).ratio
            want = old_linear_operator_ratio(F, f, r_par, l_par, sampler)
            assert got == pytest.approx(want, rel=1e-9)

    def test_tail_knobs_are_gone(self, grid3d_small):
        F = single_mode_tensor(grid3d_small, k=(0, 1, 0), row=0, col=1)
        f = random_smooth_vector(grid3d_small, seed=1)
        rep = verify_linear_operator(F, f, NormParams(p=2.0), NormParams(p=6.0),
                                     sampler=BallSampler(4, 4))
        assert not hasattr(rep, "horizon")
        with pytest.raises(TypeError):
            verify_linear_operator(F, f, NormParams(p=2.0), NormParams(p=6.0), tail_tol=1e-10)
