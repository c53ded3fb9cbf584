"""Mild-solution (Duhamel) time stepping for the coupled convection system.

The state x = (u, theta) obeys the integral identity

    x(t) = e^{-tL} x(0) + int_0^t e^{-(t-s)L} G(x(s), s) ds,

with L = diag(-Lap, -Lap) and G collecting the advective nonlinearity in
divergence form, the buoyancy coupling, and the external forcing.  One step
propagates by the semigroup and adds the Duhamel increment via the
exponential trapezoidal product rule (the integrand is interpolated linearly
between nodes and the kernel e^{-(t-s)|k'|^2} integrated exactly per mode;
see Hochbruck & Ostermann, Acta Numerica 19 (2010) for the family).  The
implicit endpoint is closed by Picard iteration; its failure to contract is
the numerical signature of violated smallness and is reported as such.

State-independent forcing is integrated on a finer substep grid, so runs
whose inhomogeneity is known in closed form (the linearized system) are
limited only by the substep count, not by dt.

The buoyancy coupling is projected to mean zero: on the torus the k = 0 mode
of I - e^{-TL} is singular, so all periodic machinery lives on the mean-free
subspace and the mean of the coupling is removed uniformly.

Stepping is sequential in time; within a step the multiplier arithmetic is
data-parallel per mode.  Trajectories are immutable once produced and safe
to share across threads for the verification operations.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, ConvergenceError, DiagnosticsError, HypothesisError
from .forcing import ForcingSpec, SampledScalarSeries, TimeFourierField, bracket
from .grid import (
    ScalarField,
    State,
    TensorField,
    VectorField,
    forward_coeffs,
    inverse_values,
)
from .norms import NormContext, NormParams, morrey_lorentz_norm, state_norm, trajectory_sup_norm
from .operators import (
    advection_coeffs,
    buoyancy_coeffs,
    div_coeffs,
    leray_coeffs,
    semigroup_factor,
    tensor_div_coeffs,
)

# ---------------------------------------------------------------------------
# phi functions and product-trapezoid weights
# ---------------------------------------------------------------------------


def _phi1(z):
    """(e^z - 1)/z, stable near 0."""
    z = np.asarray(z, dtype=float)
    small = np.abs(z) < 1e-5
    safe = np.where(small, 1.0, z)
    out = (np.exp(safe) - 1.0) / safe
    series = 1.0 + z / 2.0 + z * z / 6.0 + z * z * z / 24.0
    return np.where(small, series, out)


def _phi2(z):
    """(e^z - 1 - z)/z^2, stable near 0."""
    z = np.asarray(z, dtype=float)
    small = np.abs(z) < 1e-5
    safe = np.where(small, 1.0, z)
    out = (np.exp(safe) - 1.0 - safe) / (safe * safe)
    series = 0.5 + z / 6.0 + z * z / 24.0 + z * z * z / 120.0
    return np.where(small, series, out)


def _trap_weights(h, k2):
    """Weights (w_near_start, w_near_end) for int_a^b e^{-(b-s) k2} G(s) ds.

    With G linear on [a, b] the integral equals w_start*G(a) + w_end*G(b)
    exactly; the kernel peaks at s = b.
    """
    z = -h * k2
    p1 = _phi1(z)
    p2 = _phi2(z)
    return h * (p1 - p2), h * p2


# ---------------------------------------------------------------------------
# configuration / trajectory containers
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SolveConfig:
    dt: float
    substeps: int = 4  # quadrature nodes per step for state-independent forcing
    picard_tol: float = 1e-10
    picard_max: int = 40

    def __post_init__(self):
        if not (np.isfinite(self.dt) and self.dt > 0):
            raise ConfigError(f"dt must be positive, got {self.dt}")
        if self.substeps < 2:
            raise ConfigError(f"substeps must be >= 2, got {self.substeps}")
        if not (0 < self.picard_tol < 1):
            raise ConfigError(f"picard_tol must be in (0,1), got {self.picard_tol}")
        if self.picard_max < 1:
            raise ConfigError("picard_max must be >= 1")

    def check_period(self, period):
        if self.dt > period / 16.0 + 1e-12:
            raise ConfigError(f"dt = {self.dt} exceeds period/16 = {period / 16.0}")
        steps = period / self.dt
        if abs(steps - round(steps)) > 1e-9 * max(1.0, steps):
            raise ConfigError(f"dt = {self.dt} must divide the period {period}")
        return int(round(steps))


@dataclass
class Trajectory:
    grid: object
    times: np.ndarray
    states: list
    meta: dict = field(default_factory=dict)

    def index_of(self, t):
        idx = int(np.argmin(np.abs(self.times - t)))
        if abs(self.times[idx] - t) > 1e-9 * max(1.0, abs(t)):
            raise DiagnosticsError(
                f"time {t} is not on the stored grid (nearest {self.times[idx]})"
            )
        return idx

    def state_at(self, t):
        return self.states[self.index_of(t)]

    def sample(self, t):
        """State at t, linearly interpolated between stored nodes."""
        ts = self.times
        if t < ts[0] - 1e-12 or t > ts[-1] + 1e-9 * max(1.0, abs(t)):
            raise DiagnosticsError(f"trajectory does not cover t = {t}")
        j, x = bracket(ts, t)
        if x == 0.0:
            return self.states[j]
        a, b = self.states[j], self.states[j + 1]
        g = self.grid
        return State(
            VectorField(g, (1 - x) * a.u.values + x * b.u.values),
            ScalarField(g, (1 - x) * a.theta.values + x * b.theta.values),
        )

    def theta_series(self):
        return SampledScalarSeries.from_trajectory(self)

    def energy(self, i):
        s = self.states[i]
        w = self.grid.cell_volume
        return 0.5 * w * float(np.sum(s.u.values**2) + np.sum(s.theta.values**2))


def state_difference(a: State, b: State) -> State:
    g = a.grid
    return State(
        VectorField(g, a.u.values - b.u.values),
        ScalarField(g, a.theta.values - b.theta.values),
    )


def trajectory_difference(a: Trajectory, b: Trajectory) -> Trajectory:
    if len(a.times) != len(b.times) or np.max(np.abs(a.times - b.times)) > 1e-9:
        raise DiagnosticsError("trajectories must share a time grid to be differenced")
    states = [state_difference(x, y) for x, y in zip(a.states, b.states)]
    return Trajectory(a.grid, a.times.copy(), states)


def _to_state(grid, vel_hat, th_hat):
    return State(
        VectorField(grid, inverse_values(grid, vel_hat).real),
        ScalarField(grid, inverse_values(grid, th_hat).real),
    )


# ---------------------------------------------------------------------------
# compiled forcing: analytic harmonics + node-sampled extras
# ---------------------------------------------------------------------------


class _CompiledForcing:
    """Spectral sources of the state-independent right-hand side.

    Analytic terms (finite Fourier series in t) are reduced once to constant
    coefficient arrays with scalar time factors; sampled terms (frozen
    couplings, frozen nonlinearities) interpolate linearly between the node
    times of one period.
    """

    def __init__(self, grid, forcing, mode, eta, extra, node_times):
        self.grid = grid
        self.period = forcing.period if forcing is not None else None
        self.analytic_vel = []  # (harmonic, phase, coeff_array)
        self.analytic_th = []
        self.node_times = None
        self.node_vel = None
        self.node_th = None

        if forcing is not None and forcing.F is not None:
            for term in forcing.F.terms:
                F_hat = forward_coeffs(grid, term.field.values)
                src = leray_coeffs(grid, tensor_div_coeffs(grid, F_hat))
                self.analytic_vel.append((term.harmonic, term.phase, src))
        if forcing is not None and forcing.f is not None:
            for term in forcing.f.terms:
                f_hat = forward_coeffs(grid, term.field.values)
                self.analytic_th.append((term.harmonic, term.phase, div_coeffs(grid, f_hat)))

        node_vel = None
        if (
            mode == "linearized"
            and eta is not None
            and forcing is not None
            and forcing.g is not None
            and forcing.kappa > 0.0
        ):
            node_vel = [
                buoyancy_coeffs(grid, eta.value(t).values, forcing.g.value(t).values, forcing.kappa)
                for t in node_times
            ]
        node_th = None
        if extra is not None:
            if extra.vel is not None:
                extra_vel = list(extra.vel)
                node_vel = extra_vel if node_vel is None else [a + b for a, b in zip(node_vel, extra_vel)]
            if extra.th is not None:
                node_th = list(extra.th)
        if node_vel is not None or node_th is not None:
            self.node_times = np.asarray(node_times, dtype=float)
            self.node_vel = node_vel
            self.node_th = node_th

    @property
    def has_vel(self):
        return bool(self.analytic_vel) or self.node_vel is not None

    @property
    def has_th(self):
        return bool(self.analytic_th) or self.node_th is not None

    def _node_interp(self, samples, t):
        ts = self.node_times
        tr = t
        if self.period is not None and tr > ts[-1] + 1e-12:
            tr = tr - self.period * np.floor(tr / self.period)
        if tr <= ts[0]:
            return samples[0]
        if tr >= ts[-1]:
            return samples[-1]
        j, x = bracket(ts, tr)
        if x == 0.0:
            return samples[j]
        return (1.0 - x) * samples[j] + x * samples[j + 1]

    def rows_at(self, t):
        vel = None
        th = None
        for m, phase, src in self.analytic_vel:
            c = np.cos(2.0 * np.pi * m * t / self.period + phase)
            vel = c * src if vel is None else vel + c * src
        for m, phase, src in self.analytic_th:
            c = np.cos(2.0 * np.pi * m * t / self.period + phase)
            th = c * src if th is None else th + c * src
        if self.node_vel is not None:
            nv = self._node_interp(self.node_vel, t)
            vel = nv if vel is None else vel + nv
        if self.node_th is not None:
            nt = self._node_interp(self.node_th, t)
            th = nt if th is None else th + nt
        return vel, th


# ---------------------------------------------------------------------------
# the nonlinear right-hand side in coefficient space
# ---------------------------------------------------------------------------


class _StateRHS:
    """G_state(x, t): advective terms and (in full mode) buoyancy coupling."""

    def __init__(self, grid, forcing, kappa):
        self.grid = grid
        self.forcing = forcing
        self.kappa = kappa
        self._g_cache = {}

    def _g_real(self, t):
        key = t if self.forcing.period is None else t - self.forcing.period * np.floor(
            t / self.forcing.period
        )
        if key not in self._g_cache:
            self._g_cache[key] = self.forcing.g.value(key).values
        return self._g_cache[key]

    def __call__(self, u_hat, th_hat, t):
        grid = self.grid
        u = inverse_values(grid, u_hat).real
        th = inverse_values(grid, th_hat).real
        vel, th_row = advection_coeffs(grid, u, u, th)
        if self.kappa > 0.0 and self.forcing is not None and self.forcing.g is not None:
            vel = vel + buoyancy_coeffs(grid, th, self._g_real(t), self.kappa)
        return vel, th_row


# ---------------------------------------------------------------------------
# evolve
# ---------------------------------------------------------------------------

_MODES = ("full", "linearized", "navier-stokes")


def evolve(initial, forcing, t_end, cfg, mode="full", eta=None, extra=None, store_stride=1):
    """Integrate the mild formulation from ``initial`` up to ``t_end``.

    Modes: ``full`` (both nonlinearities), ``linearized`` (state-independent
    right-hand side, frozen temperature ``eta`` in the coupling), and
    ``navier-stokes`` (zero-temperature reduction; requires theta0 = 0 and
    no temperature forcing, and ignores kappa).
    """
    if mode not in _MODES:
        raise ConfigError(f"unknown mode {mode!r}; choose from {_MODES}")
    grid = initial.grid
    if forcing is not None and forcing.grid is not None and forcing.grid != grid:
        raise ConfigError("forcing and initial data live on different grids")
    if not (np.all(np.isfinite(initial.u.values)) and np.all(np.isfinite(initial.theta.values))):
        raise ConfigError("initial state has non-finite values")
    if mode == "linearized" and eta is None and forcing is not None and forcing.g is not None \
            and forcing.kappa > 0:
        raise ConfigError("linearized mode with a g-coupling needs the frozen temperature eta")
    if mode == "navier-stokes":
        if float(np.max(np.abs(initial.theta.values))) != 0.0:
            raise HypothesisError("navier-stokes mode requires theta0 = 0")
        if forcing is not None and (forcing.f is not None or forcing.g is not None):
            raise HypothesisError("navier-stokes mode takes no temperature forcing f or field g")

    kappa = 0.0
    if mode != "navier-stokes" and forcing is not None:
        kappa = forcing.kappa

    n_steps = int(round(t_end / cfg.dt))
    if n_steps < 1 or abs(n_steps * cfg.dt - t_end) > 1e-9 * max(1.0, abs(t_end)):
        raise ConfigError(f"t_end = {t_end} must be a positive multiple of dt = {cfg.dt}")
    if forcing is not None:
        cfg.check_period(forcing.period)

    dt = cfg.dt
    node_times = None
    if forcing is not None:
        steps_per_period = int(round(forcing.period / dt))
        node_times = np.arange(steps_per_period + 1) * dt
    else:
        node_times = np.arange(n_steps + 1) * dt
    compiled = _CompiledForcing(grid, forcing, mode, eta, extra, node_times)

    state_rhs = None
    if mode in ("full", "navier-stokes"):
        state_rhs = _StateRHS(grid, forcing, kappa)

    k2 = grid.k_squared
    E = semigroup_factor(grid, dt)
    Wa, Wb = _trap_weights(dt, k2)
    m = cfg.substeps
    h_s = dt / (m - 1)
    E_s = semigroup_factor(grid, h_s)
    Wa_s, Wb_s = _trap_weights(h_s, k2)

    u_hat = leray_coeffs(grid, forward_coeffs(grid, initial.u.values))
    th_hat = forward_coeffs(grid, initial.theta.values).astype(complex)

    times = [0.0]
    states = [_to_state(grid, u_hat, th_hat)]
    picard_iters_max = 0

    for i in range(n_steps):
        t_a = i * dt
        t_b = (i + 1) * dt

        forced_vel = None
        forced_th = None
        if compiled.has_vel or compiled.has_th:
            # composite product-trapezoid over the substep grid
            rows = [compiled.rows_at(t_a + j * h_s) for j in range(m)]
            acc_v, acc_t = None, None
            for j in range(m - 1):
                va, ta_ = rows[j]
                vb, tb_ = rows[j + 1]
                if acc_v is not None:
                    acc_v = acc_v * E_s
                if acc_t is not None:
                    acc_t = acc_t * E_s
                if va is not None or vb is not None:
                    contrib = 0.0
                    if va is not None:
                        contrib = Wa_s[np.newaxis] * va
                    if vb is not None:
                        contrib = contrib + Wb_s[np.newaxis] * vb
                    acc_v = contrib if acc_v is None else acc_v + contrib
                if ta_ is not None or tb_ is not None:
                    contrib = 0.0
                    if ta_ is not None:
                        contrib = Wa_s * ta_
                    if tb_ is not None:
                        contrib = contrib + Wb_s * tb_
                    acc_t = contrib if acc_t is None else acc_t + contrib
            forced_vel, forced_th = acc_v, acc_t

        fixed_u = E[np.newaxis] * u_hat
        fixed_th = E * th_hat
        if forced_vel is not None:
            fixed_u = fixed_u + forced_vel
        if forced_th is not None:
            fixed_th = fixed_th + forced_th

        if state_rhs is None:
            u_hat, th_hat = fixed_u, fixed_th
        else:
            gs_va, gs_ta = state_rhs(u_hat, th_hat, t_a)
            fixed_u = fixed_u + Wa[np.newaxis] * gs_va
            fixed_th = fixed_th + Wa * gs_ta
            # predictor: freeze the endpoint nonlinearity at the start state
            gs_vb, gs_tb = state_rhs(u_hat, th_hat, t_b)
            new_u = fixed_u + Wb[np.newaxis] * gs_vb
            new_th = fixed_th + Wb * gs_tb
            converged = False
            for it in range(cfg.picard_max):
                gs_vb, gs_tb = state_rhs(new_u, new_th, t_b)
                next_u = fixed_u + Wb[np.newaxis] * gs_vb
                next_th = fixed_th + Wb * gs_tb
                # np.max, unlike max(), lets a NaN in either row through
                res = float(np.max([np.max(np.abs(next_u - new_u)),
                                    np.max(np.abs(next_th - new_th))]))
                if not np.isfinite(res):
                    raise ConvergenceError(
                        f"Picard residual is not finite at step {i} (t = {t_b:.6g})",
                        residual=res,
                    )
                scale = max(
                    float(np.max(np.abs(next_u))), float(np.max(np.abs(next_th))), 1e-30
                )
                new_u, new_th = next_u, next_th
                picard_iters_max = max(picard_iters_max, it + 1)
                if res <= cfg.picard_tol * scale:
                    converged = True
                    break
            if not converged:
                raise ConvergenceError(
                    f"Picard iteration did not reach {cfg.picard_tol} "
                    f"(last residual {res / scale:.3e}); the smallness hypotheses "
                    "are violated numerically",
                    residual=res / scale,
                )
            u_hat, th_hat = new_u, new_th

        u_hat = leray_coeffs(grid, u_hat)
        if (i + 1) % store_stride == 0 or (i + 1) == n_steps:
            times.append(t_b)
            states.append(_to_state(grid, u_hat, th_hat))

    return Trajectory(
        grid,
        np.asarray(times),
        states,
        meta={
            "mode": mode,
            "dt": dt,
            "substeps": m,
            "picard_iters_max": picard_iters_max,
            "n2_flag": grid.n == 2,
        },
    )


# ---------------------------------------------------------------------------
# standalone Duhamel increments (quadrature over stored trajectories)
# ---------------------------------------------------------------------------


def _quadrature_nodes(times, t):
    ts = [float(s) for s in times if s <= t + 1e-12]
    if not ts or ts[0] > 1e-12:
        raise DiagnosticsError("trajectory must cover [0, t] starting at 0")
    if abs(ts[-1] - t) > 1e-12 * max(1.0, t):
        ts.append(float(t))
    return ts


def _accumulate(grid, nodes, rows, t, has_vel=True, has_th=True):
    """Sum product-trapezoid contributions of int_0^t e^{-(t-s)L} G(s) ds."""
    k2 = grid.k_squared
    vel = None
    th = None
    for j in range(len(nodes) - 1):
        a, b = nodes[j], nodes[j + 1]
        h = b - a
        if h <= 0:
            continue
        Wa, Wb = _trap_weights(h, k2)
        decay = semigroup_factor(grid, max(t - b, 0.0))  # clamp endpoint roundoff
        if has_vel:
            contrib = decay[np.newaxis] * (
                Wa[np.newaxis] * rows[j][0] + Wb[np.newaxis] * rows[j + 1][0]
            )
            vel = contrib if vel is None else vel + contrib
        if has_th:
            contrib = decay * (Wa * rows[j][1] + Wb * rows[j + 1][1])
            th = contrib if th is None else th + contrib
    shape = grid.shape
    if vel is None:
        vel = np.zeros((grid.n,) + shape, dtype=complex)
    if th is None:
        th = np.zeros(shape, dtype=complex)
    return vel, th


def bilinear_increment(traj_a: Trajectory, traj_b: Trajectory, t, cfg=None):
    """B(a, b)(t) = -int_0^t grad . e^{-(t-s)L} [P(u_a (x) u_b); u_a theta_b] ds."""
    grid = traj_a.grid
    nodes = _quadrature_nodes(traj_a.times, t)
    _quadrature_nodes(traj_b.times, t)  # coverage check for the second argument
    rows = []
    for s in nodes:
        sa, sb = traj_a.sample(s), traj_b.sample(s)
        rows.append(advection_coeffs(grid, sa.u.values, sb.u.values, sb.theta.values))
    vel, th = _accumulate(grid, nodes, rows, t)
    return _to_state(grid, vel, th)


def coupling_increment(theta_samples, g: TimeFourierField, kappa, t, cfg=None):
    """T_g increment: int_0^t e^{-(t-s)L} [kappa P(theta g); 0] ds (mean-free)."""
    if isinstance(theta_samples, Trajectory):
        theta_samples = theta_samples.theta_series()
    grid = g.grid
    nodes = _quadrature_nodes(theta_samples.times, t)
    rows = [
        (buoyancy_coeffs(grid, theta_samples.value(s).values, g.value(s).values, kappa), None)
        for s in nodes
    ]
    vel, th = _accumulate(grid, nodes, rows, t, has_th=False)
    return _to_state(grid, vel, th)


def forcing_increment(forcing: ForcingSpec, t, cfg: SolveConfig):
    """C increment: int_0^t grad . e^{-(t-s)L} [P F; f] ds on the substep grid."""
    grid = forcing.grid
    if grid is None:
        raise ConfigError("forcing_increment needs a forcing with at least one component")
    n_steps = int(round(t / cfg.dt))
    if abs(n_steps * cfg.dt - t) > 1e-9 * max(1.0, t):
        raise ConfigError(f"t = {t} must be a multiple of dt = {cfg.dt}")
    compiled = _CompiledForcing(grid, forcing, "linearized", None, None, np.array([0.0, t]))
    sub = max(1, (cfg.substeps - 1)) * max(n_steps, 1)
    nodes = np.linspace(0.0, t, sub + 1)
    zero_v = np.zeros((grid.n,) + grid.shape, dtype=complex)
    zero_t = np.zeros(grid.shape, dtype=complex)
    rows = []
    for s in nodes:
        vel, th = compiled.rows_at(s)
        rows.append((vel if vel is not None else zero_v, th if th is not None else zero_t))
    vel, th = _accumulate(grid, nodes, rows, t)
    return _to_state(grid, vel, th)


def duhamel_residual(traj: Trajectory, forcing, cfg, mode="full", eta=None):
    """Max-norm defect of the stored trajectory against the integral identity."""
    grid = traj.grid
    x0 = traj.states[0]
    u0_hat = forward_coeffs(grid, x0.u.values)
    th0_hat = forward_coeffs(grid, x0.theta.values)
    worst = 0.0
    scale = max(max(s.max_norm() for s in traj.states), 1e-30)
    for idx in range(1, len(traj.times)):
        t = float(traj.times[idx])
        decay = semigroup_factor(grid, t)
        ref_u = decay[np.newaxis] * u0_hat
        ref_th = decay * th0_hat
        ref = _to_state(grid, ref_u, ref_th)
        total_u = ref.u.values
        total_th = ref.theta.values
        if mode in ("full", "navier-stokes"):
            B = bilinear_increment(traj, traj, t)
            total_u = total_u + B.u.values
            total_th = total_th + B.theta.values
        if forcing is not None and forcing.g is not None and forcing.kappa > 0 and mode != "navier-stokes":
            theta_src = traj.theta_series() if mode != "linearized" else eta
            Tg = coupling_increment(theta_src, forcing.g, forcing.kappa, t)
            total_u = total_u + Tg.u.values
        if forcing is not None and (forcing.F is not None or forcing.f is not None):
            C = forcing_increment(forcing, t, cfg)
            total_u = total_u + C.u.values
            total_th = total_th + C.theta.values
        s = traj.states[idx]
        defect = max(
            float(np.max(np.abs(total_u - s.u.values))),
            float(np.max(np.abs(total_th - s.theta.values))),
        )
        worst = max(worst, defect / scale)
    return worst


# ---------------------------------------------------------------------------
# estimate diagnostics
# ---------------------------------------------------------------------------


@dataclass
class LinearOperatorReport:
    ratio: float
    output_norm: float
    input_sup: float
    horizon: float


def verify_linear_operator(
    f1,
    f2,
    from_params: NormParams,
    to_params: NormParams,
    sampler=None,
    tail_tol=1e-10,
    num_intervals=400,
):
    """Empirical constant of the time-integrated gradient-semigroup map.

    Computes int_0^inf grad . e^{-sL} [f1; f2] ds (horizon truncated where
    the spectral-gap tail drops below ``tail_tol``) and reports its
    (l, inf, chi) norm against sup_t of the (r, inf, chi) input norm.
    Requires tau_r - tau_l = 1 with a shared chi.
    """
    grid = f1.grid
    n = grid.n
    if abs(from_params.lam - to_params.lam) > 1e-12:
        raise HypothesisError("input and output must share the Morrey exponent chi")
    tau_r = from_params.tau(n)
    tau_l = to_params.tau(n)
    if abs(tau_r - tau_l - 1.0) > 1e-9:
        raise HypothesisError(
            f"need tau_r - tau_l = 1, got {tau_r:.6g} - {tau_l:.6g} = {tau_r - tau_l:.6g}"
        )
    if not from_params.p < to_params.p:
        raise HypothesisError("need r < l for the integrated estimate")

    if not isinstance(f1, TensorField) or not isinstance(f2, VectorField):
        raise ConfigError("verify_linear_operator expects a tensor f1 and vector f2")

    horizon = np.log(1.0 / tail_tol) / grid.spectral_gap
    k2 = grid.k_squared
    f1_hat = forward_coeffs(grid, f1.values)
    f2_hat = forward_coeffs(grid, f2.values)
    g_vel = tensor_div_coeffs(grid, f1_hat)
    g_th = div_coeffs(grid, f2_hat)

    # inputs are constant in time, so each interval integrates the kernel
    # e^{-s k2} exactly: int_a^b e^{-s k2} ds = e^{-a k2} (Wa + Wb)
    nodes = horizon * (np.arange(num_intervals + 1) / num_intervals) ** 2
    vel = np.zeros_like(g_vel)
    th = np.zeros_like(g_th)
    for j in range(num_intervals):
        a, b = nodes[j], nodes[j + 1]
        h = b - a
        Wa, Wb = _trap_weights(h, k2)
        kernel = semigroup_factor(grid, a) * (Wa + Wb)
        vel = vel + kernel[np.newaxis] * g_vel
        th = th + kernel * g_th
    out = _to_state(grid, vel, th)
    out_norm = morrey_lorentz_norm(out.u, to_params, sampler) + morrey_lorentz_norm(
        out.theta, to_params, sampler
    )
    in_sup = morrey_lorentz_norm(f1, from_params, sampler) + morrey_lorentz_norm(
        f2, from_params, sampler
    )
    ratio = out_norm / in_sup if in_sup > 0 else 0.0
    return LinearOperatorReport(ratio=ratio, output_norm=out_norm, input_sup=in_sup, horizon=horizon)


@dataclass
class BilinearReport:
    empirical_constant: float
    ratios: list


def verify_bilinear_estimate(pairs, p, sampler=None, eval_stride=1):
    """Empirical K with ||B(a,b)||_H <= K ||a||_H ||b||_H over an ensemble.

    Requires 2 < p <= n and uses lam = n - p (the critical pairing).  The
    sup-in-time norms run over the stored grids only.
    """
    if not pairs:
        raise ConfigError("verify_bilinear_estimate needs a nonempty ensemble")
    grid = pairs[0][0].grid
    n = grid.n
    if not (2.0 < p <= n):
        raise HypothesisError(f'hypothesis "2 < p <= n" violated (p = {p}, n = {n})')
    ctx = NormContext(NormParams(p=p, q=float("inf"), lam=n - p), sampler or _default_sampler())
    ratios = []
    for a, b in pairs:
        na = trajectory_sup_norm(a, ctx)
        nb = trajectory_sup_norm(b, ctx)
        if na * nb == 0.0:
            continue  # 0/0 guarded: zero trajectories are excluded from the sup
        best = 0.0
        eval_times = [float(t) for t in a.times[1::eval_stride] if t > 0]
        if not eval_times or eval_times[-1] != float(a.times[-1]):
            eval_times.append(float(a.times[-1]))
        for t in eval_times:
            B = bilinear_increment(a, b, t)
            best = max(best, state_norm(B, ctx))
        ratios.append(best / (na * nb))
    if not ratios:
        return BilinearReport(empirical_constant=0.0, ratios=[])
    return BilinearReport(empirical_constant=max(ratios), ratios=ratios)


def _default_sampler():
    from .norms import BallSampler

    return BallSampler(num_centers=8, num_radii=6)
