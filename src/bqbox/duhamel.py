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
solution (the certifying run of the nonlinear periodic solve) hands those
node values in instead, and Picard starts from them.  A node value, like a
frozen row of ``extra``, is a (velocity, temperature) pair of band rows, a
per-node sequence a plain list of such pairs, one per step node.

State-independent forcing enters each step as one weighted sum.  Analytic
harmonics (finite Fourier series in t) are sampled on a finer substep grid,
so closed-form inhomogeneities are limited by the substep count, not by dt;
the composite product trapezoid over the substeps is unrolled once per
``evolve`` into per-mode weights A_j, and a step adds sum_j A_j r_j.
Sampled terms (frozen nonlinearities and couplings) are linear between step
nodes, so the single-step weights are exact for them.

The state fills the half spectrum.  The analytic forcing rows hold only
their support, the modes where a source of F or f is nonzero, found once
per run (the whole half spectrum when the support is more than a tenth of
it); every nonlinear row (the right-hand side, the frozen extras) is a band
row of the 2/3 rule (``GridSpec.band_shape``).  A step forms E x, adds
``A_j[support] * r_j`` on the support, and then adds each band row where it
meets the state, ``acc[band] += W[band] * row``, in the order Wa then Wb,
the velocity part then the temperature part of each; off the support and
the band those rows are 0, so this is the half-spectrum sum value for
value.  The bilinear and coupling prefix paths step on the band,
the forcing path on the support, and each scatters the integrals it yields
to the half spectrum once.

Every velocity increment is Leray-projected where it is made: the initial
data, the forcing rows, the right-hand-side rows and the frozen extras.  The
semigroup and the quadrature weights act per mode, so the stepped state
stays divergence-free to roundoff without a projection per step.

The buoyancy coupling is projected to mean zero: on the torus the k = 0 mode
of I - e^{-TL} is singular, so all periodic machinery lives on the mean-free
subspace and the mean of the coupling is removed uniformly.

Navier-Stokes is the theta = 0 case of the full dynamics, not a mode: with
theta0 = 0 and no f or g every stored temperature is exactly 0.

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
time, the start state goes once its semigroup image is formed, at most
three node values are held (two through the Picard loop), and one full
pair, the step's fixed part, is held.  The Picard iterates differ from
the fixed part only on the band: the first is built there from the
extrapolated rows before Picard starts, and each iterate is formed there
and written into the band of the fixed part for the right-hand side to
read.

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
    put_band,
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


def _step_factors(grid, h, factors, on=None):
    """(e^{-hL}, Wa, Wb) for a step of size h, built once per size in ``factors``.

    Sizes within 1e-12 relative are one: stored times i * dt carry roundoff.
    With ``on``, an index into the half spectrum (``grid.band``, a forcing's
    support), the factors are those at the modes it selects, cut once per
    index object from the half-spectrum ones.
    """
    key = next((h0 for h0 in factors if abs(h - h0) <= 1e-12 * h0), h)
    if key not in factors:
        factors[key] = [(None, (semigroup_factor(grid, h),) + _trap_weights(h, grid.k_squared))]
    built = factors[key]  # (index, factors) pairs; the list keeps each index alive
    cut = next((f for index, f in built if index is on), None)
    if cut is None:
        cut = tuple(f[on] for f in built[0][1])
        built.append((on, cut))
    return cut


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
# compiled forcing (analytic harmonics) and node rows (frozen extras, predictors)
# ---------------------------------------------------------------------------


# a support over this share of the half spectrum is stepped whole: the indexed
# update ``part[support] += A * row`` costs as much as the dense one at about a
# tenth of the modes (16^3 and 32^3), and 7 to 9 times as much at all of them
_DENSE_SUPPORT = 0.1


class _CompiledForcing:
    """Analytic spectral sources of the state-independent right-hand side.

    Finite Fourier series in t are reduced once to constant coefficient
    arrays with scalar time factors, which :meth:`rows_at` evaluates.  The
    arrays are kept on the ``support``, the modes where any F or f source is
    nonzero: an index into the half spectrum (the Ellipsis lets it select
    from arrays with a leading component axis), or ``slice(None)`` when the
    support holds more than a tenth of the modes.  Off the support every row
    is exactly 0.  The rows are not dealiased.  The g field of ``forcing``
    is not read.
    """

    def __init__(self, forcing):
        grid = forcing.grid
        self.period = forcing.period
        vel, th = [], []  # (harmonic, phase, coeff_array) on the half spectrum
        if forcing.F is not None:
            for term in forcing.F.terms:
                F_hat = forward_coeffs(grid, term.field.values)
                vel.append((term.harmonic, term.phase,
                            leray_coeffs(grid, tensor_div_coeffs(grid, F_hat))))
        if forcing.f is not None:
            for term in forcing.f.terms:
                f_hat = forward_coeffs(grid, term.field.values)
                th.append((term.harmonic, term.phase, div_coeffs(grid, f_hat)))
        occupied = np.zeros(grid.spectral_shape, dtype=bool)
        for _, _, src in vel:
            occupied |= np.any(src != 0, axis=0)
        for _, _, src in th:
            occupied |= src != 0
        if np.count_nonzero(occupied) > _DENSE_SUPPORT * occupied.size:
            self.support = slice(None)
        else:
            self.support = (Ellipsis,) + np.nonzero(occupied)
        self.shape = occupied[self.support].shape  # of a temperature row
        self.analytic_vel = [(m, phase, src[self.support]) for m, phase, src in vel]
        self.analytic_th = [(m, phase, src[self.support]) for m, phase, src in th]

    def rows_at(self, t):
        """Analytic rows (vel, th) at time t on the support; None for an absent part."""
        rows = []
        for terms in (self.analytic_vel, self.analytic_th):
            row = None
            for m, phase, src in terms:
                c = np.cos(2.0 * np.pi * m * t / self.period + phase)
                row = c * src if row is None else row + c * src
            rows.append(row)
        return tuple(rows)


def _check_node_rows(rows, nodes, grid, what):
    """ConfigError unless ``rows`` holds one (vel, th) pair of band rows per step node.

    A part is None when absent; it must be present at every node or at none.
    """
    if len(rows) != nodes:
        raise ConfigError(f"{what} has {len(rows)} rows for {nodes} step nodes")
    for k, shape in enumerate(((grid.n,) + grid.band_shape, grid.band_shape)):
        if all(row[k] is None for row in rows):
            continue
        bad = next((np.shape(row[k]) for row in rows if np.shape(row[k]) != shape), None)
        if bad is not None:
            raise ConfigError(f"{what} rows must have the band shape {shape}, got {bad}")


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
    """acc[k][band] += w * rows[k] for each (w, rows) of ``terms`` in order, skipping absent rows.

    ``acc`` is a (vel, th) pair of half-spectrum arrays, ``rows`` a pair of
    band-shaped nonlinear rows and ``w`` a band-restricted weight; off the
    band the rows are 0, so ``acc`` keeps its values there.  Per weight the
    velocity part goes in, then the temperature part, box by box
    (``grid.band_blocks``).  Returns ``acc``, modified in place.
    """
    for w, rows in terms:
        for part, row in zip(acc, rows):
            if row is not None:
                term = w * row
                for full_box, band_box in grid.band_blocks:
                    part[full_box] += term[band_box]
                term = None
    return acc


# ---------------------------------------------------------------------------
# the nonlinear right-hand side in coefficient space
# ---------------------------------------------------------------------------


class _StateRHS:
    """G_state(x, t): advective terms and (in full mode) buoyancy coupling.

    One call is :func:`advection_coeffs` on the physical values
    inverse-transformed from the coefficients, with the coupling of ``forcing``
    (:attr:`ForcingSpec.coupled`, with its kappa) added before its single
    Leray projection.  ``evaluations`` counts the calls.
    """

    def __init__(self, grid, forcing):
        self.grid = grid
        self.forcing = forcing
        self.coupled = forcing is not None and forcing.coupled
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
            return advection_coeffs(grid, u, u, th, self._g_real(t), self.forcing.kappa)
        return advection_coeffs(grid, u, u, th)


def _picard(state_rhs, fixed, fixed_band, first, Wb, t_b, cfg, i):
    """Close the implicit endpoint x = fixed + Wb G_state(x, t_b) of step i by Picard iteration.

    ``fixed`` is a (velocity, temperature) pair of half-spectrum
    coefficients, ``fixed_band`` its band and ``first`` the band of the
    predicted endpoint.  Returns (x, rows, iterations): the accepted iterate
    x^(K) = fixed + Wb G_state(x^(K-1), t_b) and that last evaluation,
    ``rows``, which is the one nonlinearity value of node t_b.  Each
    iteration makes one evaluation, so ``iterations`` counts them.

    The rows are 0 off the band, so every iterate is ``fixed`` there: each
    iterate, its difference from the one before and its peak are formed on
    the band, and the iterate is written into the band of ``fixed``, the one
    full pair, which the right-hand side reads and x is.  Off the band the
    difference is fixed - fixed, 0 or NaN where ``fixed`` is not finite, so
    the residual and the peak read the off-band ``max |fixed|`` taken once.
    """
    grid = state_rhs.grid
    # np.max, unlike max(), lets a NaN anywhere off the band through
    off = [float(np.max([np.max(np.abs(part[box])) for box in grid.off_band_blocks]))
           for part in fixed]
    off_res = 0.0 if np.all(np.isfinite(off)) else np.nan
    for part, band in zip(fixed, first):
        put_band(grid, part, band)
    new = first
    for it in range(cfg.picard_max):
        rows = None  # the evaluation before goes before the next is made
        rows = state_rhs(*fixed, t_b)
        nxt = [start + Wb * row for start, row in zip(fixed_band, rows)]
        # np.max, unlike max(), lets a NaN in either row through
        res = float(np.max([np.max(np.abs(a - b)) for a, b in zip(nxt, new)] + [off_res]))
        if not np.isfinite(res):
            raise ConvergenceError(
                f"Picard residual is not finite at step {i} (t = {t_b:.6g})",
                residual=res,
            )
        scale = max(*(max(float(np.max(np.abs(part))), o) for part, o in zip(nxt, off)), 1e-30)
        for part, band in zip(fixed, nxt):
            put_band(grid, part, band)
        if res <= cfg.picard_tol * scale:
            return fixed, rows, it + 1
        new = nxt
    raise ConvergenceError(
        f"Picard iteration did not reach {cfg.picard_tol} "
        f"(last residual {res / scale:.3e}); the smallness hypotheses "
        "are violated numerically",
        residual=res / scale,
    )


# ---------------------------------------------------------------------------
# evolve
# ---------------------------------------------------------------------------

_MODES = ("full", "linearized")
# weights of the last 1, 2 or 3 equally spaced node values, newest first, that
# extrapolate them to the next node: constant, linear, quadratic
_EXTRAPOLATION = ((1.0,), (2.0, -1.0), (3.0, -3.0, 1.0))


def evolve(initial, forcing, t_end, cfg, mode="full", extra=None, store_stride=1,
           on_state=None, _predictor=None):
    """Integrate the mild formulation from ``initial`` up to ``t_end``.

    Modes: ``full`` (both nonlinearities; Navier-Stokes is its theta0 = 0
    case without f or g) and ``linearized`` (state-independent right-hand
    side; a g-coupling goes in as frozen rows in ``extra``, on a forcing
    without g, see :attr:`bqbox.periodic.PeriodicProblem.coupling`).
    ``extra`` is a list with one (vel, th) pair of band rows
    (``grid.band_shape``) per step node of the run, None for an absent part;
    its velocity rows must be Leray-projected.  The rows are linear between
    nodes, so step i reads the pairs of nodes i and i + 1.

    A state is stored at t = 0, every ``store_stride`` steps and at ``t_end``.
    Without ``on_state`` the stored states are returned as the Trajectory.
    With it, ``on_state(t, state)`` receives each one as soon as it is
    checked finite, nothing is kept, and the Trajectory returned has no
    times or states, only ``meta``.  ``meta`` totals the run's right-hand-side evaluations
    (``rhs_evaluations``) and Picard iterations (``picard_iterations``); a
    full run makes one evaluation more than iterations.

    ``_predictor`` (private; full mode only) is a list of the same form as
    ``extra``: G_state at a nearby solution (the converged iterate of
    :func:`bqbox.periodic.nonlinear_periodic`).
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
    if mode == "linearized" and forcing is not None and forcing.coupled:
        raise ConfigError("linearized evolve takes no g-coupling (g with kappa > 0): set mode to "
                          "'full', remove forcing.g or set forcing.kappa to 0, or solve the "
                          "periodic problem with the periodic-linear subcommand")

    n_steps = int(round(t_end / cfg.dt))
    if n_steps < 1 or abs(n_steps * cfg.dt - t_end) > 1e-9 * max(1.0, abs(t_end)):
        raise ConfigError(f"t_end = {t_end} must be a positive multiple of dt = {cfg.dt}")
    if _predictor is not None:
        if mode != "full":
            raise ConfigError("a Picard predictor needs mode 'full'; a linearized run has no Picard")
        _check_node_rows(_predictor, n_steps + 1, grid, "predictor")
    if forcing is not None:
        cfg.check_period(forcing.period)
    if extra is not None:
        _check_node_rows(extra, n_steps + 1, grid, "sampled forcing")

    dt = cfg.dt
    state_rhs = _StateRHS(grid, forcing) if mode == "full" else None

    E = semigroup_factor(grid, dt)
    # the steps read Wa and Wb on the band only: the dense weights are not kept
    Wa, Wb = [W[grid.band] for W in _trap_weights(dt, grid.k_squared)]
    m = cfg.substeps
    h_s = dt / (m - 1)
    # the weights A_j of the analytic rows at the m substep nodes, on their support
    substep_weights = []
    if forcing is not None and (forcing.F is not None or forcing.f is not None):
        compiled = _CompiledForcing(forcing)
        support = compiled.support
        substep_weights = [A[support] for A in _substep_weights(grid, dt, m)]

    x = (leray_coeffs(grid, forward_coeffs(grid, initial.u.values)),
         forward_coeffs(grid, initial.theta.values))

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
    nodes = [] if state_rhs is None else [state_rhs(*x, 0.0)]
    if _predictor is not None:
        _predictor[0] = None  # node 0 has an evaluation of its own
    store(0.0, _to_state(grid, *x))
    picard_iters_max = picard_iterations = 0

    for i in range(n_steps):
        t_a = i * dt
        t_b = (i + 1) * dt

        # E x + sum_j A_j r_j, one pair of analytic rows at a time, on their support
        fixed = [E * part for part in x]
        for j, A in enumerate(substep_weights):
            for part, row in zip(fixed, compiled.rows_at(t_a + j * h_s)):
                if row is not None:
                    part[support] += A * row
        row = None  # the last row is not held through the step
        if extra is not None:
            _add_on_band(fixed, grid, [(Wa, extra[i]), (Wb, extra[i + 1])])

        if state_rhs is None:
            x = fixed
        else:
            x = None  # the start state is not read again
            _add_on_band(fixed, grid, [(Wa, nodes[0])])
            if _predictor is None:
                # predictor: the node values extrapolated to t_b
                guess = [(c * Wb, g) for c, g in zip(_EXTRAPOLATION[len(nodes) - 1], nodes)]
                del nodes[2:]  # the oldest value is not read again
            else:
                guess = [(Wb, _predictor[i + 1])]
                _predictor[i + 1] = None
                del nodes[1:]  # only the Wa value is read again
            fixed_band = [part[grid.band] for part in fixed]
            first = [part.copy() for part in fixed_band]
            for w, node in guess:
                for part, row in zip(first, node):
                    if row is not None:
                        part += w * row
            guess = node = row = None
            x, rows, iters = _picard(state_rhs, fixed, fixed_band, first, Wb, t_b, cfg, i)
            nodes.insert(0, rows)
            picard_iterations += iters
            picard_iters_max = max(picard_iters_max, iters)
        # only the state and the node values go into the next step
        fixed = fixed_band = first = part = None

        if (i + 1) % store_stride == 0 or (i + 1) == n_steps:
            state = _to_state(grid, *x)
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
            "picard_iters_max": picard_iters_max,
            "picard_iterations": picard_iterations,
            "rhs_evaluations": 0 if state_rhs is None else state_rhs.evaluations,
        },
    )


# ---------------------------------------------------------------------------
# Duhamel terms (prefix quadrature over stored trajectories)
# ---------------------------------------------------------------------------


def _duhamel_path(grid, nodes, row_at, times, factors=None, on=None):
    """Yield int_0^t e^{-(t-s)L} G(s) ds for each t of the ascending ``times``.

    ``row_at(s)`` is G(s), a tuple of coefficient arrays, sampled at the
    ``nodes`` (from 0) and linear between them; the prefix integral then obeys
    I(t_{j+1}) = e^{-hL} I(t_j) + Wa G(t_j) + Wb G(t_{j+1}) exactly per mode, one
    step per node.  A t more than 1e-12 past its last node is read by a partial
    step from that node, not kept.  Paths may share ``factors`` (:func:`_step_factors`).
    With ``on``, an index into the half spectrum, the rows hold only the modes
    it selects (``grid.band`` for nonlinear rows, a forcing's support) and
    are 0 elsewhere: the path steps there and scatters each yielded integral
    to the half spectrum once.
    """
    if nodes[0] > 1e-12:
        raise DiagnosticsError("trajectory must cover [0, t] starting at 0")
    factors = {} if factors is None else factors

    def step(h, acc, g_a, g_b):
        E, Wa, Wb = _step_factors(grid, h, factors, on)
        return tuple(E * i + Wa * a + Wb * b for i, a, b in zip(acc, g_a, g_b))

    def full(acc):
        if on is None:
            return acc
        if on is grid.band:
            return tuple(scatter_band(grid, a) for a in acc)  # box by box, no fancy index
        # a forcing's support: its rows end in one axis of the modes it selects
        scattered = tuple(np.zeros(a.shape[:-1] + grid.spectral_shape, dtype=complex) for a in acc)
        for whole, a in zip(scattered, acc):
            whole[on] = a
        return scattered

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

    return _duhamel_path(grid, traj_a.times, row_at, times, factors, on=grid.band)


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

    return _duhamel_path(g.grid, theta.times, row_at, times, factors, on=g.grid.band)


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
    compiled = _CompiledForcing(forcing)
    nodes = np.linspace(0.0, times[-1], (cfg.substeps - 1) * max(n_steps[-1], 1) + 1)
    zero_v = np.zeros((grid.n,) + compiled.shape, dtype=complex)
    zero_t = np.zeros(compiled.shape, dtype=complex)

    def row_at(s):
        vel, th = compiled.rows_at(s)
        return (zero_v if vel is None else vel, zero_t if th is None else th)

    # the rows are 0 off the support, so C(t) is too: a dense support steps the half spectrum
    on = None if isinstance(compiled.support, slice) else compiled.support
    return _duhamel_path(grid, nodes, row_at, times, factors, on)


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
    if mode not in _MODES:
        raise ConfigError(f"unknown mode {mode!r}; choose from {_MODES}")
    if mode == "full":
        paths.append(_bilinear_path(traj, traj, times, factors))
    if forcing is not None and forcing.coupled:
        paths.append(_coupling_path(traj, forcing.g, forcing.kappa, times, factors))
    if forcing is not None and (forcing.F is not None or forcing.f is not None):
        paths.append(_forcing_path(forcing, times, cfg, factors))
    # np.max, unlike max(), lets a NaN in any state through
    scale = np.max([s.max_norm() for s in traj.states] + [1e-30])
    defects = []
    for t, s, *terms in zip(times, traj.states[1:], *paths):
        decay = semigroup_factor(grid, t)
        total_u = decay * u0_hat + sum(term[0] for term in terms)
        # T_g has no temperature part
        total_th = decay * th0_hat + sum(term[1] for term in terms if len(term) > 1)
        total = _to_state(grid, total_u, total_th)
        defects.append(float(state_difference(total, s).max_norm()) / scale)
    return float(np.max(defects))


# ---------------------------------------------------------------------------
# estimate diagnostics
# ---------------------------------------------------------------------------


@dataclass
class LinearOperatorReport:
    ratio: float
    output_norm: float
    input_sup: float


def verify_linear_operator(f1, f2, from_params: NormParams, to_params: NormParams, sampler):
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


def verify_bilinear_estimate(pairs, p, sampler, eval_stride=1):
    """Empirical K with ||B(a,b)||_H <= K ||a||_H ||b||_H over an ensemble.

    H is the sup-in-time norm in the critical pairing at p (:meth:`NormParams.critical`,
    2 < p <= n) on the balls of ``sampler``, over the stored grids only.
    """
    if not pairs:
        raise ConfigError("verify_bilinear_estimate needs a nonempty ensemble")
    ctx = NormContext(NormParams.critical(p, pairs[0][0].grid.n), sampler)
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
