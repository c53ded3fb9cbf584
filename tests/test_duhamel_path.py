"""The Duhamel terms at node times against the per-time loops they replaced.

Every Duhamel term and certificate is one linearized evolve from zero of
rows frozen at the nodes, stepped by I(t_{j+1}) = e^{-hL} I(t_j) + Wa G_j
+ Wb G_{j+1} and read at node times.  The references here are copies of the
earlier code, which integrated from 0 again for every output time with each
interval decayed straight to t, reading the stored states at the nodes.
"""

import dataclasses

import numpy as np
import pytest

import bqbox.duhamel as duhamel
import bqbox.stability as stability
from bqbox import (
    BallSampler,
    DiagnosticsError,
    ForcingSpec,
    GridSpec,
    NormParams,
    SolveConfig,
    StabilityParams,
    State,
    constant_in_time,
    duhamel_residual,
    evolve,
    morrey_lorentz_norm,
    verify_bilinear_estimate,
    verify_linear_operator,
    verify_weighted_bilinear,
    zeros_like_state,
)
from bqbox.duhamel import _trap_weights, bilinear_at_nodes
from bqbox.forcing import HarmonicTerm, TimeFourierField
from bqbox.grid import forward_coeffs, inverse_values, put_band
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
from bqbox.suite import _heat_trajectory, _suite_sampler

# ---------------------------------------------------------------------------
# copies of the per-time loops the node-row evolves replaced
# ---------------------------------------------------------------------------


def on_half_spectrum(grid, row):
    """The half-spectrum array that is the band-shaped ``row`` on the band and 0 off it."""
    full = np.zeros(row.shape[: row.ndim - grid.n] + grid.spectral_shape, dtype=complex)
    put_band(grid, full, row)
    return full


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


def old_nodes(traj, t):
    """The stored node times up to t, which must be one of them."""
    nodes = [float(s) for s in traj.times if s <= t + 1e-12]
    assert abs(nodes[-1] - t) <= 1e-12 * max(1.0, t)
    return nodes


def old_bilinear(traj_a, traj_b, t):
    grid = traj_a.grid
    nodes = old_nodes(traj_a, t)
    rows = []
    for sa, sb in zip(traj_a.states[:len(nodes)], traj_b.states):
        band_rows = advection_coeffs(grid, sa.u.values, sb.u.values, sb.theta.values)
        rows.append(tuple(on_half_spectrum(grid, r) for r in band_rows))
    return old_accumulate(grid, nodes, rows, t)


def old_coupling(traj, g, kappa, t):
    grid = g.grid
    nodes = old_nodes(traj, t)
    rows = [(on_half_spectrum(grid, buoyancy_coeffs(grid, s.theta.values, g.value(ts).values,
                                                     kappa)),)
            for ts, s in zip(nodes, traj.states)]
    return old_accumulate(grid, nodes, rows, t)


def old_forcing(fields, t, cfg):
    """The rows P div F(s) and div f(s) on the half spectrum, from the values at s of the
    time-Fourier fields F and f of ``fields``, which the forcing was built from."""
    F, f = fields["F"], fields["f"]
    grid = F.grid
    nodes = np.linspace(0.0, t, (cfg.substeps - 1) * int(round(t / cfg.dt)) + 1)
    zero_v = np.zeros((grid.n,) + grid.spectral_shape, dtype=complex)
    zero_t = np.zeros(grid.spectral_shape, dtype=complex)
    rows = []
    for s in nodes:
        vel, th = zero_v, zero_t
        if F is not None:
            F_hat = forward_coeffs(grid, F.value(s).values)
            vel = leray_coeffs(grid, tensor_div_coeffs(grid, F_hat))
        if f is not None:
            th = div_coeffs(grid, forward_coeffs(grid, f.value(s).values))
        rows.append((vel, th))
    return old_accumulate(grid, nodes, rows, t)


def old_residual(traj, forcing, fields, cfg, mode):
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
        terms.append(old_coupling(traj, forcing.g, forcing.kappa, t))
        terms.append(old_forcing(fields, t, cfg))
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


def coupled_fields(g):
    """The time-Fourier fields F, f and g of the coupled forcing."""
    return dict(
        F=TimeFourierField(period=T, terms=(
            HarmonicTerm(1, random_smooth_tensor(g, seed=1, amplitude=0.1), 0.3),)),
        f=constant_in_time(T, random_smooth_vector(g, seed=2, amplitude=0.1)),
        g=TimeFourierField(period=T, terms=(HarmonicTerm(1, random_smooth_vector(g, seed=3), 0.4),)),
    )


def without_g(forcing):
    return dataclasses.replace(forcing, g=None, kappa=0.0)


def initial_state(g, seed):
    return State(random_div_free(g, seed=seed, amplitude=0.2),
                 random_smooth_scalar(g, seed=seed + 1, amplitude=0.2))


@pytest.fixture(scope="module")
def grid():
    return GridSpec(n=3, N=8, L=2.0 * np.pi)


@pytest.fixture(scope="module")
def fields(grid):
    return coupled_fields(grid)


@pytest.fixture(scope="module")
def runs(grid, fields):
    """A trajectory stored at every step, and one stored at every other step of a run at half
    the step: both have their nodes at k T / 16, and the forcing is built from ``fields``."""
    cfg = SolveConfig(dt=T / 16, substeps=4)
    forcing = ForcingSpec(period=T, kappa=0.5, **fields)
    uniform = evolve(initial_state(grid, 10), forcing, T, cfg, mode="full")
    strided = evolve(initial_state(grid, 20), forcing, T, dataclasses.replace(cfg, dt=T / 32),
                     mode="full", store_stride=2)
    assert np.array_equal(uniform.times, strided.times)
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


def coupling_at(traj, g, kappa, t):
    """T_g(t) at the node t: the linearized evolve from zero of the frozen coupling rows."""
    rows = [(buoyancy_coeffs(traj.grid, s.theta.values, g.value(ts).values, kappa), None)
            for ts, s in zip(traj.times, traj.states)]
    h = float(traj.times[1])
    run = evolve(zeros_like_state(traj.grid), None, t, SolveConfig(dt=h), mode="linearized",
                 extra=rows[:round(t / h) + 1])
    assert np.max(np.abs(run.states[-1].theta.values)) == 0.0
    return run.states[-1]


class TestPathMatchesPerTimeLoop:
    @pytest.mark.parametrize("pair", ["uniform", "strided", "mixed"])
    def test_bilinear_path(self, runs, pair):
        _, _, uniform, strided = runs
        a, b = {"uniform": (uniform, uniform), "strided": (strided, strided),
                "mixed": (strided, uniform)}[pair]
        times = [float(t) for t in a.times[1:]]
        got = [coeffs(B) for B in bilinear_at_nodes(a, b, times)]
        want = [old_bilinear(a, b, t) for t in times]
        assert len(got) == len(times)
        assert_matches(got, want)

    @pytest.mark.parametrize("t", [3 / 16, 0.55, 1.0])
    def test_coupling_increment(self, grid, runs, t):
        # the temperature of a run at T / 80, so that 0.55 is a node
        _, forcing, _, _ = runs
        traj = evolve(initial_state(grid, 30), without_g(forcing), T, SolveConfig(dt=T / 80),
                      mode="linearized")
        got = coupling_at(traj, forcing.g, forcing.kappa, t)
        assert_matches([coeffs(got)[:1]], [old_coupling(traj, forcing.g, forcing.kappa, t)])

    @pytest.mark.parametrize("t", [1 / 16, 5 / 16, 1.0])
    def test_forcing_increment(self, grid, runs, fields, t):
        cfg, forcing, _, _ = runs
        got = evolve(zeros_like_state(grid), without_g(forcing), t, cfg, mode="linearized")
        assert_matches([coeffs(got.states[-1])], [old_forcing(fields, t, cfg)])

    def test_forcing_path_reads_every_step_time(self, grid, runs, fields):
        cfg, forcing, _, _ = runs
        run = evolve(zeros_like_state(grid), without_g(forcing), T, cfg, mode="linearized")
        times = [k / 16 for k in range(1, 17)]
        assert np.array_equal(run.times[1:], times)
        got = [coeffs(s) for s in run.states[1:]]
        want = [old_forcing(fields, t, cfg) for t in times]
        assert_matches(got, want)

    @pytest.mark.parametrize("which", ["uniform", "strided"])
    def test_full_mode_residual(self, runs, fields, which):
        # the strided run, at T / 32, is read as stored at every step of T / 16:
        # its defect is the coarser quadrature's, in both routes alike
        cfg, forcing, uniform, strided = runs
        traj = {"uniform": uniform, "strided": strided}[which]
        got = duhamel_residual(traj, forcing, cfg, mode="full")
        want = old_residual(traj, forcing, fields, cfg, "full")
        assert abs(got - want) <= 1e-14

    def test_linearized_residual_reads_its_own_temperature(self, grid, runs, fields):
        # a linearized run reads the coupling off its own stored temperature,
        # as a full-mode run does; stepped with rows built from that
        # temperature, it is a solution of the coupled linear system
        cfg, forcing, _, _ = runs
        x0 = initial_state(grid, 30)
        free = without_g(forcing)
        orbit = evolve(x0, free, T, cfg, mode="linearized")
        rows = [(buoyancy_coeffs(grid, s.theta.values, forcing.g.value(t).values, forcing.kappa),
                 None) for t, s in zip(orbit.times, orbit.states)]
        traj = evolve(x0, free, T, cfg, mode="linearized", extra=rows)
        got = duhamel_residual(traj, forcing, cfg, mode="linearized")
        want = old_residual(traj, forcing, fields, cfg, "linearized")
        assert abs(got - want) <= 1e-14
        assert got <= 1e-13
        # without the rows the coupling is missing from the run, not from the check
        uncoupled = evolve(x0, free, T, cfg, mode="linearized")
        assert duhamel_residual(uncoupled, forcing, cfg, mode="linearized") > 1e-3


class TestNodeTimesOnly:
    """The Duhamel terms are read at the nodes of equally spaced trajectories only."""

    @pytest.mark.parametrize("t", [0.41, 1.25, -1 / 16])
    def test_time_off_the_nodes_refused(self, runs, t):
        _, _, uniform, _ = runs
        with pytest.raises(DiagnosticsError, match=f"t = {t} is not a node"):
            bilinear_at_nodes(uniform, uniform, [1 / 16, t])

    def test_unequally_spaced_or_strided_trajectory_refused(self, grid, runs):
        cfg, forcing, _, strided = runs
        # a store_stride of 3 over 16 steps leaves a last interval of one step
        uneven = evolve(initial_state(grid, 50), None, T, cfg, mode="linearized", store_stride=3)
        with pytest.raises(DiagnosticsError, match="equally spaced"):
            bilinear_at_nodes(uneven, uneven, [float(uneven.times[1])])
        with pytest.raises(DiagnosticsError, match="equally spaced"):
            duhamel_residual(uneven, forcing, cfg, mode="linearized")
        # equally spaced, but not stored at every step of the run's dt
        with pytest.raises(DiagnosticsError, match="every step of dt = 0.03125"):
            duhamel_residual(strided, forcing, dataclasses.replace(cfg, dt=T / 32), mode="full")

    def test_pair_with_different_node_times_refused(self, grid, runs):
        cfg, _, uniform, _ = runs
        half = evolve(initial_state(grid, 60), None, T / 2, cfg, mode="linearized")
        with pytest.raises(DiagnosticsError, match="same node times"):
            bilinear_at_nodes(uniform, half, [1 / 16])
        with pytest.raises(DiagnosticsError, match="same node times"):
            verify_bilinear_estimate([(uniform, half)], p=3.0, sampler=BallSampler(4, 4))


class TestBilinearChecksReadTheirTimes:
    """On 4-step pairs at stride 2, as the estimate suite runs them, both checks read B at
    t1, t3 and the last node t4, whose state the norms of a and b read too: not at the
    stride's multiples."""

    PARAMS = StabilityParams(p=3.0, q=6.0, r=6.0, b=3.0)

    @staticmethod
    def _pair(grid):
        return (_heat_trajectory(initial_state(grid, 70), 0.25, 4),
                _heat_trajectory(initial_state(grid, 72), 0.25, 4))

    @staticmethod
    def _read(monkeypatch, module):
        """Every state the check's ``state_norm`` reads: the B(a, b)(t) it evaluates."""
        read, norm = [], module.state_norm
        monkeypatch.setattr(module, "state_norm",
                            lambda state, ctx: read.append(state) or norm(state, ctx))
        return read

    @staticmethod
    def _oracle(a, b, nodes):
        return [duhamel._to_state(a.grid, *old_bilinear(a, b, float(a.times[k]))) for k in nodes]

    def test_bilinear_estimate_reads_t1_t3_and_the_last(self, grid, monkeypatch):
        a, b = self._pair(grid)
        sampler = BallSampler(4, 4)
        ctx = duhamel.NormContext(NormParams.critical(3.0, 3), sampler)
        want = self._oracle(a, b, [1, 3, 4])
        ratio = max(duhamel.state_norm(B, ctx) for B in want) / (
            duhamel.trajectory_sup_norm(a, ctx) * duhamel.trajectory_sup_norm(b, ctx))
        read = self._read(monkeypatch, duhamel)
        rep = verify_bilinear_estimate([(a, b)], p=3.0, sampler=sampler, eval_stride=2)
        assert len(read) == 3
        assert_matches([coeffs(B) for B in read], [coeffs(B) for B in want])
        assert rep.ratios[0] == pytest.approx(ratio, rel=1e-12)

    def test_weighted_bilinear_reads_t1_t3_t4(self, grid, monkeypatch):
        a, b = self._pair(grid)
        sampler, sp = BallSampler(4, 4), self.PARAMS
        ctx = stability.NormContext(NormParams(p=3.0, q=np.inf, lam=0.0), sampler, time_stride=2)
        want = self._oracle(a, b, [1, 3, 4])
        ratio = max(stability.state_norm(B, ctx)
                    + sum(stability._weighted_parts(B, float(a.times[k]), sp, sampler))
                    for k, B in zip([1, 3, 4], want)) / (
            stability.weighted_trajectory_norm(a, sp, sampler, 2)
            * stability.weighted_trajectory_norm(b, sp, sampler, 2))
        read = self._read(monkeypatch, stability)
        rep = verify_weighted_bilinear([(a, b)], sp, sampler=sampler, stride=2)
        assert len(read) == 3
        assert_matches([coeffs(B) for B in read], [coeffs(B) for B in want])
        assert rep.ratios[0] == pytest.approx(ratio, rel=1e-12)

    def test_a_nan_state_gives_a_nan_ratio(self, grid):
        a, b = self._pair(grid)
        states = list(a.states)
        theta = states[2].theta.values.copy()
        theta.flat[5] = np.nan
        states[2] = State(states[2].u, type(states[2].theta)(grid, theta))
        bad = duhamel.Trajectory(grid, a.times, states)
        sampler = BallSampler(4, 4)
        for rep in (verify_bilinear_estimate([(bad, b), (a, b)], p=3.0, sampler=sampler,
                                             eval_stride=2),
                    verify_weighted_bilinear([(bad, b), (a, b)], self.PARAMS, sampler=sampler,
                                             stride=2)):
            assert np.isnan(rep.ratios[0]) and np.isfinite(rep.ratios[1])


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
