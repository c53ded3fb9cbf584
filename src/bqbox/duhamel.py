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

Each time node has one nonlinearity value, as in the prefix paths below:
t = 0 gets an evaluation of its own, and every later node t_{i+1} takes
Picard's last evaluation G(x^(K-1), t_{i+1}), the Wb term that formed the
accepted x_{i+1}, as the Wa term of the next step ("first same as last",
Hairer, Norsett & Wanner, Solving ODEs I (1993)).  A step thus makes as
many evaluations as Picard iterations.  Picard starts from the quadratic
extrapolation 3 (G_i - G_{i-1}) + G_{i-2} of the last three node values
(linear from two, G_i from one), which needs no evaluation of its own,
whether or not G depends on t.  A caller that already holds G at a nearby
solution, one band row per node (the certifying run of the nonlinear
periodic solve), hands those rows in instead, and Picard starts from them.

State-independent forcing enters each step as one weighted sum.  Analytic
harmonics (finite Fourier series in t) are sampled on a finer substep grid,
so closed-form inhomogeneities are limited by the substep count, not by dt;
the composite product trapezoid over the substeps is unrolled once per
``evolve`` into per-mode weights A_j, and a step adds sum_j A_j r_j.
Sampled terms (frozen nonlinearities and couplings) are linear between step
nodes, so the single-step weights are exact for them.

The state and the analytic forcing rows fill the half spectrum; every
nonlinear row (the right-hand side, the frozen extras) is a band row of the
2/3 rule (``GridSpec.band_shape``).  A step
forms the half-spectrum sum E x + sum_j A_j r_j and then adds each band row
where it meets the state, ``acc[band] += W[band] * row``, in the order
Wa then Wb; off the band those rows are 0, so this is the half-spectrum sum
value for value.  The bilinear and coupling prefix paths step on the band
and scatter each integral they yield to the half spectrum once.

Every velocity increment is Leray-projected where it is made: the initial
data, the forcing rows, the right-hand-side rows and the frozen extras.  The
semigroup and the quadrature weights act per mode, so the stepped state
stays divergence-free to roundoff without a projection per step.

The buoyancy coupling is projected to mean zero: on the torus the k = 0 mode
of I - e^{-TL} is singular, so all periodic machinery lives on the mean-free
subspace and the mean of the coupling is removed uniformly.

The Duhamel terms over a stored trajectory (B, T_g, C) are prefix paths
with the same product trapezoid, I(t_{j+1}) = e^{-hL} I(t_j) + Wa G(t_j)
+ Wb G(t_{j+1}) with the factors built once per step size, each read at
every evaluation time: ``duhamel_residual`` and the bilinear checks are O(n_t).
``verify_linear_operator`` uses the exact kernel int_0^inf e^{-s k^2} ds = 1/k^2.

A caller that reads each stored state once (the ``evolve`` subcommand's
rows, the stability gaps) passes ``on_state(t, state)`` to ``evolve``: every
stored state goes to it as soon as it is checked finite and is not kept, so
the run holds one state instead of the trajectory.  A step, in turn, holds
only what its next read needs: the analytic rows are added one substep at a
time, the start state goes once its semigroup image is formed, the
extrapolated rows are added into Picard's first iterate box by box, at most
three node values are held (two through the Picard loop), and the Picard
iterates ping-pong between two buffers per field.

Stepping is sequential in time; within a step the multiplier arithmetic is
data-parallel per mode.  Trajectories are immutable once produced and safe
to share across threads for the verification operations.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

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
    scatter_band,
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
    """(e^z - 1)/z as expm1(z)/z, and 1 at z = 0."""
    z = np.asarray(z, dtype=float)
    zero = z == 0.0
    safe = np.where(zero, 1.0, z)
    return np.where(zero, 1.0, np.expm1(safe) / safe)


# 1/(k+2)!, k = 12..0: the Taylor coefficients of phi2, highest power first (np.polyval),
# enough to roundoff for |z| < 0.5
_PHI2_TAYLOR = 1.0 / np.array([math.factorial(k + 2) for k in range(12, -1, -1)], dtype=float)


def _phi2(z):
    """(e^z - 1 - z)/z^2, by its Taylor series for |z| < 0.5.

    The direct form cancels as |z| shrinks (Kassam & Trefethen, SIAM J. Sci.
    Comput. 26 (2005)); from |z| = 0.5 on it loses at most a few ulps.
    """
    z = np.asarray(z, dtype=float)
    small = np.abs(z) < 0.5
    safe = np.where(small, 1.0, z)
    out = (np.expm1(safe) - safe) / (safe * safe)
    series = np.polyval(_PHI2_TAYLOR, z)
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


def _step_factors(grid, h, factors, band=False):
    """(e^{-hL}, Wa, Wb) for a step of size h, built once per size in ``factors``.

    Sizes within 1e-12 relative are one: stored times i * dt carry roundoff.
    With ``band`` the factors are those restricted to the 2/3-rule band,
    cut once from the half-spectrum ones.
    """
    key = next((h0 for h0 in factors if abs(h - h0) <= 1e-12 * h0), h)
    if key not in factors:
        factors[key] = {False: (semigroup_factor(grid, h),) + _trap_weights(h, grid.k_squared)}
    built = factors[key]
    if band not in built:
        built[band] = tuple(f[grid.band] for f in built[False])
    return built[band]


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
        return SampledScalarSeries(times=self.times, fields=[s.theta for s in self.states])


def state_difference(a: State, b: State) -> State:
    g = a.grid
    return State(
        VectorField(g, a.u.values - b.u.values),
        ScalarField(g, a.theta.values - b.theta.values),
    )


def _to_state(grid, vel_hat, th_hat):
    return State(
        VectorField(grid, inverse_values(grid, vel_hat)),
        ScalarField(grid, inverse_values(grid, th_hat)),
    )


# ---------------------------------------------------------------------------
# compiled forcing: analytic harmonics + node-sampled extras
# ---------------------------------------------------------------------------


class _CompiledForcing:
    """Spectral sources of the state-independent right-hand side.

    Analytic terms (finite Fourier series in t) are reduced once to constant
    coefficient arrays with scalar time factors, which :meth:`rows_at`
    evaluates.  Sampled terms, the ``extra`` rows (a frozen G_state or a
    frozen coupling), are kept as one row per step node of one period.
    They are linear on each step, so step i reads only the samples at
    nodes i mod S and i mod S + 1 (:meth:`step_samples`).  Sampled rows are
    nonlinear rows, so they are band-shaped (``grid.band_shape``); the
    analytic rows are not dealiased and fill the half spectrum.  Sampled
    velocity rows must already be Leray-projected, as every producer in
    this package makes them.  The g field of ``forcing`` is not read.
    """

    def __init__(self, grid, forcing, extra, node_times):
        self.grid = grid
        self.period = forcing.period if forcing is not None else None
        self.analytic_vel = []  # (harmonic, phase, coeff_array)
        self.analytic_th = []
        self.steps = len(node_times) - 1  # S, the steps the node samples span
        if extra is not None:
            for rows, shape in ((extra.vel, (grid.n,) + grid.band_shape),
                                (extra.th, grid.band_shape)):
                if rows is None:
                    continue
                if len(rows) != len(node_times):
                    raise ConfigError(
                        f"sampled forcing has {len(rows)} rows for {len(node_times)} step nodes"
                    )
                bad = next((np.shape(r) for r in rows if np.shape(r) != shape), None)
                if bad is not None:
                    raise ConfigError(
                        f"sampled forcing rows must have the band shape {shape}, got {bad}"
                    )

        if forcing is not None and forcing.F is not None:
            for term in forcing.F.terms:
                F_hat = forward_coeffs(grid, term.field.values)
                src = leray_coeffs(grid, tensor_div_coeffs(grid, F_hat))
                self.analytic_vel.append((term.harmonic, term.phase, src))
        if forcing is not None and forcing.f is not None:
            for term in forcing.f.terms:
                f_hat = forward_coeffs(grid, term.field.values)
                self.analytic_th.append((term.harmonic, term.phase, div_coeffs(grid, f_hat)))

        self.node_vel = None if extra is None else extra.vel
        self.node_th = None if extra is None else extra.th

    @property
    def analytic(self):
        return bool(self.analytic_vel) or bool(self.analytic_th)

    def rows_at(self, t):
        """Analytic rows (vel, th) at time t; None for an absent part."""
        vel = None
        th = None
        for m, phase, src in self.analytic_vel:
            c = np.cos(2.0 * np.pi * m * t / self.period + phase)
            vel = c * src if vel is None else vel + c * src
        for m, phase, src in self.analytic_th:
            c = np.cos(2.0 * np.pi * m * t / self.period + phase)
            th = c * src if th is None else th + c * src
        return vel, th

    def step_samples(self, i):
        """Sampled rows at the two nodes of step i, [vel_a, vel_b] and [th_a, th_b].

        An absent part reads [None, None].
        """
        j = i % self.steps
        vel = [None, None] if self.node_vel is None else self.node_vel[j:j + 2]
        th = [None, None] if self.node_th is None else self.node_th[j:j + 2]
        return vel, th


def _substep_weights(grid, h, m):
    """Per-mode weights A_0..A_{m-1} with int_a^{a+h} e^{-(a+h-s) k2} G(s) ds = sum_j A_j G(s_j).

    G is sampled at m equally spaced nodes s_j and taken linear between
    them; this is the composite product trapezoid acc <- e^{-h_s k2} acc +
    Wa G(s_j) + Wb G(s_{j+1}) (h_s = h / (m - 1)) unrolled once, so a step
    costs one weighted sum instead of m - 1 recursion passes.
    """
    k2 = grid.k_squared
    E_s, Wa_s, Wb_s = _step_factors(grid, h / (m - 1), {})
    weights = [np.zeros_like(k2) for _ in range(m)]
    decay = np.ones_like(k2)  # e^{-(m-2-j) h_s k2} for the interval [s_j, s_{j+1}]
    for j in range(m - 2, -1, -1):
        weights[j] += decay * Wa_s
        weights[j + 1] += decay * Wb_s
        decay = decay * E_s
    return weights


def _add_on_band(acc, grid, terms):
    """acc[band] += w * row for each (w, row) of ``terms`` in order, skipping absent rows.

    ``w`` is a band-restricted weight and ``row`` a band-shaped nonlinear
    row; off the band the rows are 0, so ``acc`` keeps its values there.
    The add runs box by box (``grid.band_blocks``).  Returns ``acc``,
    modified in place.
    """
    for w, row in terms:
        if row is not None:
            term = w * row
            for full_box, band_box in grid.band_blocks:
                acc[full_box] += term[band_box]
    return acc


# ---------------------------------------------------------------------------
# the nonlinear right-hand side in coefficient space
# ---------------------------------------------------------------------------


class _StateRHS:
    """G_state(x, t): advective terms and (in full mode) buoyancy coupling.

    One call is :func:`advection_coeffs` on the physical values
    inverse-transformed from the coefficients, with the coupling added
    before its single Leray projection.  ``evaluations`` counts the calls.
    """

    def __init__(self, grid, forcing, kappa):
        self.grid = grid
        self.forcing = forcing
        self.kappa = kappa
        self.coupled = kappa > 0.0 and forcing is not None and forcing.g is not None
        self._g = {}  # g at the times of the current step only
        self.evaluations = 0

    @cached_property
    def time_dependent(self):
        """Whether G_state depends on t: only through a g term with a nonzero harmonic."""
        return self.coupled and any(term.harmonic != 0 for term in self.forcing.g.terms)

    def _g_real(self, t):
        """g at t: evaluated once if it ignores t, else kept for two times (one step)."""
        period = self.forcing.period
        key = t - period * np.floor(t / period) if self.time_dependent else 0.0
        if key not in self._g:
            if len(self._g) > 1:
                del self._g[next(iter(self._g))]
            self._g[key] = self.forcing.g.value(key).values
        return self._g[key]

    def __call__(self, u_hat, th_hat, t):
        self.evaluations += 1
        grid = self.grid
        u, th = inverse_values(grid, u_hat), inverse_values(grid, th_hat)
        if self.coupled:
            return advection_coeffs(grid, u, u, th, self._g_real(t), self.kappa)
        return advection_coeffs(grid, u, u, th)


def _picard(state_rhs, fixed_u, fixed_th, new_u, new_th, Wb, t_b, cfg, i):
    """Close the implicit endpoint x = fixed + Wb G_state(x, t_b) of step i by Picard iteration.

    Starts from the predicted endpoint (``new_u``, ``new_th``), whose
    buffers it reuses, and returns (u_hat, th_hat, rows, iterations): the
    accepted iterate x^(K) = fixed + Wb G_state(x^(K-1), t_b) and that last
    evaluation, ``rows``, which is the one nonlinearity value of node t_b.
    Each iteration makes one evaluation, so ``iterations`` counts them.
    The iterates ping-pong between two buffers per field: each is written
    over the one before the last, whose buffer then holds the difference
    that the residual reads.
    """
    grid = state_rhs.grid
    next_u, next_th = np.empty_like(new_u), np.empty_like(new_th)
    for it in range(cfg.picard_max):
        rows = None  # the evaluation before goes before the next is made
        rows = state_rhs(new_u, new_th, t_b)
        np.copyto(next_u, fixed_u)
        np.copyto(next_th, fixed_th)
        _add_on_band(next_u, grid, [(Wb, rows[0])])
        _add_on_band(next_th, grid, [(Wb, rows[1])])
        diff_u = np.subtract(next_u, new_u, out=new_u)
        diff_th = np.subtract(next_th, new_th, out=new_th)
        # np.max, unlike max(), lets a NaN in either row through
        res = float(np.max([np.max(np.abs(diff_u)), np.max(np.abs(diff_th))]))
        if not np.isfinite(res):
            raise ConvergenceError(
                f"Picard residual is not finite at step {i} (t = {t_b:.6g})",
                residual=res,
            )
        scale = max(float(np.max(np.abs(next_u))), float(np.max(np.abs(next_th))), 1e-30)
        if res <= cfg.picard_tol * scale:
            return next_u, next_th, rows, it + 1
        new_u, next_u = next_u, diff_u
        new_th, next_th = next_th, diff_th
    raise ConvergenceError(
        f"Picard iteration did not reach {cfg.picard_tol} "
        f"(last residual {res / scale:.3e}); the smallness hypotheses "
        "are violated numerically",
        residual=res / scale,
    )


# ---------------------------------------------------------------------------
# evolve
# ---------------------------------------------------------------------------

_MODES = ("full", "linearized", "navier-stokes")
# weights of the last 1, 2 or 3 equally spaced node values, newest first, that
# extrapolate them to the next node: constant, linear, quadratic
_EXTRAPOLATION = ((1.0,), (2.0, -1.0), (3.0, -3.0, 1.0))


def evolve(initial, forcing, t_end, cfg, mode="full", extra=None, store_stride=1,
           on_state=None, _predictor=None):
    """Integrate the mild formulation from ``initial`` up to ``t_end``.

    Modes: ``full`` (both nonlinearities), ``linearized`` (state-independent
    right-hand side; a g-coupling goes in as frozen rows in ``extra``, on a
    forcing without g, see :attr:`bqbox.periodic.PeriodicProblem.coupling`),
    and ``navier-stokes`` (zero-temperature reduction; requires theta0 = 0
    and no temperature forcing, and ignores kappa).  ``extra`` holds one
    band row (``grid.band_shape``) per step node of one forcing period (or of
    the whole run without a forcing); its velocity rows must be Leray-projected.

    A state is stored at t = 0, every ``store_stride`` steps and at ``t_end``.
    Without ``on_state`` the stored states are returned as the Trajectory.
    With it, ``on_state(t, state)`` receives each one as soon as it is
    checked finite, nothing is kept, and the Trajectory returned has no
    times or states, only ``meta``.  ``meta`` totals the run's right-hand-side evaluations
    (``rhs_evaluations``) and Picard iterations (``picard_iterations``); a
    full or navier-stokes run makes one evaluation more than iterations.

    ``_predictor`` (private; full and navier-stokes modes) is a list of one
    (vel, th) pair of band rows per step node, G_state at a nearby solution
    (the converged iterate of :func:`bqbox.periodic.nonlinear_periodic`).
    Step i's Picard then starts from ``fixed + Wb row[i + 1]`` instead of the
    extrapolated node values, and the entry is set to None once read, so
    the rows go as the states come.  Only the start changes: every step
    still passes Picard's residual test with the full right-hand side.
    """
    if mode not in _MODES:
        raise ConfigError(f"unknown mode {mode!r}; choose from {_MODES}")
    grid = initial.grid
    if forcing is not None and forcing.grid is not None and forcing.grid != grid:
        raise ConfigError("forcing and initial data live on different grids")
    if not (np.all(np.isfinite(initial.u.values)) and np.all(np.isfinite(initial.theta.values))):
        raise ConfigError("initial state has non-finite values")
    if mode == "linearized" and forcing is not None and forcing.g is not None \
            and forcing.kappa > 0:
        raise ConfigError("linearized evolve takes no g-coupling (g with kappa > 0): set mode to "
                          "'full', remove forcing.g or set forcing.kappa to 0, or solve the "
                          "periodic problem with the periodic-linear subcommand")
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
    if _predictor is not None and len(_predictor) != n_steps + 1:
        raise ConfigError(f"predictor has {len(_predictor)} rows for {n_steps + 1} step nodes")
    if forcing is not None:
        cfg.check_period(forcing.period)

    dt = cfg.dt
    if forcing is not None:
        steps_per_period = int(round(forcing.period / dt))
        node_times = np.arange(steps_per_period + 1) * dt
    else:
        node_times = np.arange(n_steps + 1) * dt
    compiled = _CompiledForcing(grid, forcing, extra, node_times)

    state_rhs = None
    if mode in ("full", "navier-stokes"):
        state_rhs = _StateRHS(grid, forcing, kappa)

    factors = {}
    E = _step_factors(grid, dt, factors)[0]
    _, Wa, Wb = _step_factors(grid, dt, factors, band=True)
    m = cfg.substeps
    h_s = dt / (m - 1)
    # the weights A_j of the analytic rows at the m substep nodes
    substep_weights = _substep_weights(grid, dt, m) if compiled.analytic else []

    u_hat = leray_coeffs(grid, forward_coeffs(grid, initial.u.values))
    th_hat = forward_coeffs(grid, initial.theta.values)

    times = []
    states = []

    def store(t, state):
        if on_state is None:
            times.append(t)
            states.append(state)
        else:
            on_state(t, state)

    # G_state at the last (at most three) nodes, newest first, one value per
    # node: t = 0 has an evaluation of its own, every later node the Picard
    # evaluation that formed its state
    nodes = [] if state_rhs is None else [state_rhs(u_hat, th_hat, 0.0)]
    if _predictor is not None:
        _predictor[0] = None  # node 0 has an evaluation of its own
    store(0.0, _to_state(grid, u_hat, th_hat))
    picard_iters_max = picard_iterations = 0

    for i in range(n_steps):
        t_a = i * dt
        t_b = (i + 1) * dt

        # E x + sum_j A_j r_j, one pair of analytic rows at a time
        fixed_u, fixed_th = E * u_hat, E * th_hat
        for j, A in enumerate(substep_weights):
            vel, th = compiled.rows_at(t_a + j * h_s)
            if vel is not None:
                fixed_u += A * vel
            if th is not None:
                fixed_th += A * th
        vel = th = None  # the last rows are not held through the step
        node_vel, node_th = compiled.step_samples(i)
        _add_on_band(fixed_u, grid, zip((Wa, Wb), node_vel))
        _add_on_band(fixed_th, grid, zip((Wa, Wb), node_th))

        if state_rhs is None:
            u_hat, th_hat = fixed_u, fixed_th
        else:
            u_hat = th_hat = None  # the start state is not read again
            _add_on_band(fixed_u, grid, [(Wa, nodes[0][0])])
            _add_on_band(fixed_th, grid, [(Wa, nodes[0][1])])
            if _predictor is None:
                # predictor: the node values extrapolated to t_b
                guess = [(c * Wb, g) for c, g in zip(_EXTRAPOLATION[len(nodes) - 1], nodes)]
                del nodes[2:]  # the oldest value is not read again
            else:
                guess = [(Wb, _predictor[i + 1])]
                _predictor[i + 1] = None
                del nodes[1:]  # only the Wa value is read again
            first_u = _add_on_band(fixed_u.copy(), grid, ((w, g[0]) for w, g in guess))
            first_th = _add_on_band(fixed_th.copy(), grid, ((w, g[1]) for w, g in guess))
            guess = None
            u_hat, th_hat, rows, iters = _picard(state_rhs, fixed_u, fixed_th, first_u, first_th,
                                                 Wb, t_b, cfg, i)
            nodes.insert(0, rows)
            picard_iterations += iters
            picard_iters_max = max(picard_iters_max, iters)
        # only the state and the node values go into the next step
        fixed_u = fixed_th = first_u = first_th = None

        if (i + 1) % store_stride == 0 or (i + 1) == n_steps:
            state = _to_state(grid, u_hat, th_hat)
            if not (np.all(np.isfinite(state.u.values)) and np.all(np.isfinite(state.theta.values))):
                raise ConvergenceError(f"stored state is not finite at step {i} (t = {t_b:.6g})")
            store(t_b, state)
            state = None

    return Trajectory(
        grid,
        np.asarray(times),
        states,
        meta={
            "mode": mode,
            "dt": dt,
            "substeps": m,
            "picard_iters_max": picard_iters_max,
            "picard_iterations": picard_iterations,
            "rhs_evaluations": 0 if state_rhs is None else state_rhs.evaluations,
            "n2_flag": grid.n == 2,
        },
    )


# ---------------------------------------------------------------------------
# Duhamel terms (prefix quadrature over stored trajectories)
# ---------------------------------------------------------------------------


def _duhamel_path(grid, nodes, row_at, times, factors=None, band=False):
    """Yield int_0^t e^{-(t-s)L} G(s) ds for each t of the ascending ``times``.

    ``row_at(s)`` is G(s), a tuple of coefficient arrays, sampled at the
    ``nodes`` (from 0) and linear between them; the prefix integral then obeys
    I(t_{j+1}) = e^{-hL} I(t_j) + Wa G(t_j) + Wb G(t_{j+1}) exactly per mode, one
    step per node.  A t more than 1e-12 past its last node is read by a partial
    step from that node, not kept.  Paths may share ``factors`` (:func:`_step_factors`).
    With ``band`` the rows are band-shaped nonlinear rows: the path steps on
    the band and scatters each yielded integral to the half spectrum once.
    """
    if nodes[0] > 1e-12:
        raise DiagnosticsError("trajectory must cover [0, t] starting at 0")
    factors = {} if factors is None else factors

    def step(h, acc, g_a, g_b):
        E, Wa, Wb = _step_factors(grid, h, factors, band)
        return tuple(E * i + Wa * a + Wb * b for i, a, b in zip(acc, g_a, g_b))

    def full(acc):
        return tuple(scatter_band(grid, a) for a in acc) if band else acc

    j = 0
    g_j = row_at(float(nodes[0]))
    acc = tuple(np.zeros_like(r) for r in g_j)
    for t in times:
        while j + 1 < len(nodes) and nodes[j + 1] <= t + 1e-12:
            g_next = row_at(float(nodes[j + 1]))
            acc = step(nodes[j + 1] - nodes[j], acc, g_j, g_next)
            j, g_j = j + 1, g_next
        if abs(t - nodes[j]) > 1e-12 * max(1.0, t):
            yield full(step(t - nodes[j], acc, g_j, row_at(t)))
        else:
            yield full(acc)


def _bilinear_path(traj_a: Trajectory, traj_b: Trajectory, times, factors=None):
    """Coefficients of B(a, b)(t) for each of the ascending ``times``, over a's nodes."""
    grid = traj_a.grid

    def row_at(s):
        sa, sb = traj_a.sample(s), traj_b.sample(s)
        return advection_coeffs(grid, sa.u.values, sb.u.values, sb.theta.values)

    return _duhamel_path(grid, traj_a.times, row_at, times, factors, band=True)


def bilinear_path(traj_a: Trajectory, traj_b: Trajectory, times):
    """Yield B(a, b)(t) for each of the ascending ``times``, from one pass over a's nodes."""
    return (_to_state(traj_a.grid, vel, th) for vel, th in _bilinear_path(traj_a, traj_b, times))


def _coupling_path(traj: Trajectory, g: TimeFourierField, kappa, times, factors=None):
    """Velocity coefficients (one-tuples) of T_g(t) for each of the ascending ``times``.

    The coupling reads the trajectory's own temperature, which must cover
    every time: a later one is a DiagnosticsError.
    """
    theta = traj.theta_series()
    if times[-1] > theta.times[-1] + 1e-9 * max(1.0, abs(times[-1])):
        raise DiagnosticsError(f"trajectory does not cover t = {times[-1]}")

    def row_at(s):
        return (buoyancy_coeffs(g.grid, theta.value(s).values, g.value(s).values, kappa),)

    return _duhamel_path(g.grid, theta.times, row_at, times, factors, band=True)


def _step_count(t, cfg):
    n_steps = int(round(t / cfg.dt))
    if abs(n_steps * cfg.dt - t) > 1e-9 * max(1.0, t):
        raise ConfigError(f"t = {t} must be a multiple of dt = {cfg.dt}")
    return n_steps


def _forcing_path(forcing: ForcingSpec, times, cfg: SolveConfig, factors=None):
    """Coefficients of C(t) at each ascending time (a multiple of dt), substeps - 1 nodes a step."""
    grid = forcing.grid
    if grid is None:
        raise ConfigError("the forcing term C needs a forcing with at least one component")
    n_steps = [_step_count(t, cfg) for t in times]
    compiled = _CompiledForcing(grid, forcing, None, np.array([0.0, times[-1]]))
    nodes = np.linspace(0.0, times[-1], (cfg.substeps - 1) * max(n_steps[-1], 1) + 1)
    zero_v = np.zeros((grid.n,) + grid.spectral_shape, dtype=complex)
    zero_t = np.zeros(grid.spectral_shape, dtype=complex)

    def row_at(s):
        vel, th = compiled.rows_at(s)
        return (zero_v if vel is None else vel, zero_t if th is None else th)

    return _duhamel_path(grid, nodes, row_at, times, factors)


def duhamel_residual(traj: Trajectory, forcing, cfg, mode="full"):
    """Max-norm defect of the stored trajectory against the integral identity.

    Each Duhamel term is one prefix path read at every stored time, and the
    paths share their step factors.  The g-coupling reads the trajectory's
    own temperature, in linearized mode too.
    """
    grid = traj.grid
    times = [float(t) for t in traj.times[1:]]
    if not times:
        return 0.0
    x0 = traj.states[0]
    u0_hat = forward_coeffs(grid, x0.u.values)
    th0_hat = forward_coeffs(grid, x0.theta.values)
    factors = {}
    paths = []
    if mode in ("full", "navier-stokes"):
        paths.append(_bilinear_path(traj, traj, times, factors))
    if forcing is not None and forcing.g is not None and forcing.kappa > 0 and mode != "navier-stokes":
        paths.append(_coupling_path(traj, forcing.g, forcing.kappa, times, factors))
    if forcing is not None and (forcing.F is not None or forcing.f is not None):
        paths.append(_forcing_path(forcing, times, cfg, factors))
    worst = 0.0
    scale = max(max(s.max_norm() for s in traj.states), 1e-30)
    for t, s, *terms in zip(times, traj.states[1:], *paths):
        decay = semigroup_factor(grid, t)
        total_u = decay * u0_hat + sum(term[0] for term in terms)
        # T_g has no temperature part
        total_th = decay * th0_hat + sum(term[1] for term in terms if len(term) > 1)
        total = _to_state(grid, total_u, total_th)
        worst = max(worst, float(state_difference(total, s).max_norm()) / scale)
    return worst


# ---------------------------------------------------------------------------
# estimate diagnostics
# ---------------------------------------------------------------------------


@dataclass
class LinearOperatorReport:
    ratio: float
    output_norm: float
    input_sup: float


def verify_linear_operator(f1, f2, from_params: NormParams, to_params: NormParams, sampler=None):
    """Empirical constant of the time-integrated gradient-semigroup map.

    Computes int_0^inf grad . e^{-sL} [f1; f2] ds by its exact kernel
    int_0^inf e^{-s k^2} ds = 1/k^2 (0 at k = 0, where the divergence
    vanishes) and reports its (l, inf, chi) norm against sup_t of the
    (r, inf, chi) input norm.  Requires tau_r - tau_l = 1 with a shared chi.
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

    k2 = grid.k_squared
    kernel = np.where(k2 > 0, 1.0 / np.where(k2 > 0, k2, 1.0), 0.0)
    vel = kernel * tensor_div_coeffs(grid, forward_coeffs(grid, f1.values))
    th = kernel * div_coeffs(grid, forward_coeffs(grid, f2.values))
    out = _to_state(grid, vel, th)
    out_norm = morrey_lorentz_norm(out.u, to_params, sampler) + morrey_lorentz_norm(
        out.theta, to_params, sampler
    )
    in_sup = morrey_lorentz_norm(f1, from_params, sampler) + morrey_lorentz_norm(
        f2, from_params, sampler
    )
    ratio = out_norm / in_sup if in_sup > 0 else 0.0
    return LinearOperatorReport(ratio=ratio, output_norm=out_norm, input_sup=in_sup)


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
        eval_times = [float(t) for t in a.times[1::eval_stride] if t > 0]
        if not eval_times or eval_times[-1] != float(a.times[-1]):
            eval_times.append(float(a.times[-1]))
        # np.max, unlike max(), lets a NaN through in any order
        best = float(np.max([state_norm(B, ctx) for B in bilinear_path(a, b, eval_times)]))
        ratios.append(best / (na * nb))
    if not ratios:
        return BilinearReport(empirical_constant=0.0, ratios=[])
    return BilinearReport(empirical_constant=float(np.max(ratios)), ratios=ratios)


def _default_sampler():
    from .norms import BallSampler

    return BallSampler(num_centers=8, num_radii=6)
