"""Construction of time-periodic solutions.

For the linearized dynamics the time-T solution map is affine,
P(x) = e^{-TL} x + c, and a periodic orbit is a fixed point of P.  Two
routes to the fixed datum are implemented and cross-validated:

* Cesaro averaging of the orbit of 0, (1/n) sum_{k<=n} P^k(0), whose error
  decays like O(1/n) because the discrete map contracts on the mean-free
  subspace (the torus spectral gap); c = P(0) is one stepped period, and
  the orbit P^n(0) = e^{-TL} P^{n-1}(0) + c is then advanced on the affine
  map in coefficient space, one multiply-add per period, until the first
  converged mean, so ``n_max`` only caps it;
* a direct per-mode resolvent inversion (I - e^{-TL})^{-1} c, exact up to
  solver tolerance, used as the independent oracle.

Both routes rest on the same stepped image c = P(0), which a caller of both
(the ``periodic-linear`` subcommand) steps once and hands to each, so their
agreement checks the averaging and the inversion, not c itself; the Cesaro
datum is certified by a stepped one-period evolve from it, which reads
neither c nor the affine orbit.

A g-coupling kappa P(theta g) is solved in two triangular stages, since
theta's equation does not see u: the periodic temperature of the forcing
without g gives frozen coupling rows (:attr:`PeriodicProblem.coupling`), and
every linear solve steps that forcing with the rows, as the nonlinear loop
steps its frozen G_state, so P stays e^{-TL} x + c.

The nonlinear periodic solution is a fixed point of the outer map that
freezes the whole state-dependent right-hand side G_state (advection and,
with a g-coupling, buoyancy) along the current periodic iterate, solves the
linear periodic problem it induces, and repeats; its empirical contraction
ratio is the numerical stand-in for the small-data condition that makes the
iteration contract.  No iterate is held whole: the solve streams each
stored state into a reader that builds its frozen band rows, one
:func:`~bqbox.operators.advection_coeffs` call per state as in the full-mode
step, and keeps the state only at the sup-in-time indices, where it forms
its increment term against the previous iterate's matching state and
releases that one.  Every P(0) is P_F(0), the image of the analytic forcing
alone, stepped once by the first solve, plus the image of the frozen rows
stepped from zero.  The rows of the converged iterate are G_state at its
states, so they start the Picard iteration of each step of the certifying
run, which is still a stepped full-mode period.

Mean (k = 0) modes: I - e^{-TL} is singular on constants, so forcings are
kept mean-free and the datum mean is fixed to zero.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import cached_property

import numpy as np

from .duhamel import SolveConfig, Trajectory, _to_state, evolve, state_difference
from .errors import ConfigError, ConvergenceError, HypothesisError
from .forcing import ForcingSpec, SampledSpectralForcing
from .grid import (
    ScalarField,
    State,
    VectorField,
    forward_coeffs,
    inverse_values,
    zeros_like_state,
)
from .norms import (
    BallSampler,
    NormContext,
    NormParams,
    state_norm,
    sup_time_indices,
    trajectory_sup_norm,
)
from .operators import advection_coeffs, buoyancy_coeffs, leray_coeffs, semigroup_factor

_MEAN_TOL = 1e-12


def default_norm_context(grid, p=None):
    n = grid.n
    if p is None:
        p = float(min(3, n))
    lam = max(0.0, n - p)
    return NormContext(NormParams(p=p, q=float("inf"), lam=lam), BallSampler(num_centers=2**n, num_radii=6))


@dataclass
class PeriodicProblem:
    forcing: ForcingSpec
    cfg: SolveConfig
    mode: str = "linearized"
    grid: object = None

    def __post_init__(self):
        if self.grid is None:
            self.grid = self.forcing.grid
        if self.grid is None:
            raise ConfigError("PeriodicProblem needs a grid (empty forcing carries none)")
        self.steps_per_period = self.cfg.check_period(self.forcing.period)

    @property
    def period(self):
        return self.forcing.period

    @cached_property
    def linear_forcing(self):
        """The forcing without its g-coupling: what every linear solve steps."""
        return replace(self.forcing, g=None, kappa=0.0)

    @cached_property
    def coupling(self):
        """The linearized g-coupling as frozen band rows (None without one).

        The rows follow the resolvent datum of P_F(0), the image of the
        forcing without g, over one stepped period: its temperature is exact.
        """
        if self.mode != "linearized" or self.forcing.g is None or not self.forcing.kappa > 0:
            return None
        forced = _period_image(self, zeros_like_state(self.grid), self.linear_forcing)
        return _buoyancy_rows(self, _invert_resolvent(self, forced))


@dataclass
class PeriodicSolution:
    problem: PeriodicProblem
    initial: State
    trajectory: Trajectory
    residual_max: float
    residual_norm: float
    history: list = field(default_factory=list)
    meta: dict = field(default_factory=dict)


def poincare_map(x: State, problem: PeriodicProblem) -> State:
    """State after one forcing period started from x.

    A linearized problem steps the frozen system (:attr:`PeriodicProblem.coupling`),
    whose fixed point is the coupled periodic datum.
    """
    if problem.mode != "linearized":
        return _period_image(problem, x, problem.forcing, mode=problem.mode)
    return _period_image(problem, x, problem.linear_forcing, problem.coupling)


def _period_image(problem, x, forcing, extra=None, mode="linearized"):
    """State one period after x with ``forcing`` and the frozen rows ``extra``."""
    return evolve(x, forcing, problem.period, problem.cfg, mode=mode, extra=extra,
                  store_stride=problem.steps_per_period).states[-1]


def _buoyancy_rows(problem, datum):
    """kappa P(theta g) at each step node of the one period from ``datum``, as frozen rows."""
    g, kappa = problem.forcing.g, problem.forcing.kappa
    times, vel = [], []

    def on_state(t, state):
        times.append(t)
        vel.append(buoyancy_coeffs(problem.grid, state.theta.values, g.value(t).values, kappa))

    evolve(datum, problem.linear_forcing, problem.period, problem.cfg, mode="linearized",
           on_state=on_state)
    return SampledSpectralForcing(times=times, vel=vel)


def check_periodicity(traj: Trajectory, ctx: NormContext | None = None):
    """(max-norm, product-norm) size of x(T) - x(0) for a one-period trajectory."""
    if ctx is None:
        ctx = default_norm_context(traj.grid)
    diff = state_difference(traj.states[-1], traj.states[0])
    return diff.max_norm(), state_norm(diff, ctx)


def _invert_resolvent(problem: PeriodicProblem, c: State) -> State:
    """Fixed datum x = (I - e^{-TL})^{-1} c of the affine map P(x) = e^{-TL} x + c.

    ``c`` is the time-T image of 0.  It must be mean-free (I - e^{-TL} is
    singular at k = 0); the datum's mean is set to zero.
    """
    grid = problem.grid
    c_u = forward_coeffs(grid, c.u.values)
    c_th = forward_coeffs(grid, c.theta.values)
    scale = max(float(np.max(np.abs(c_u))), float(np.max(np.abs(c_th))))
    zero_idx = (0,) * grid.n
    mean_size = max(
        float(np.max(np.abs(c_u[(slice(None),) + zero_idx]))), float(np.abs(c_th[zero_idx]))
    )
    if mean_size > _MEAN_TOL * scale:
        raise HypothesisError(
            "cannot invert I - e^{-TL} at k = 0: the forcing (or the frozen "
            "nonlinearity) is not mean-free"
        )
    denom = 1.0 - np.exp(-problem.period * grid.k_squared)
    denom[zero_idx] = 1.0  # numerator is zero there by the check above
    x_u = leray_coeffs(grid, c_u / denom[np.newaxis])
    x_th = c_th / denom
    x_u[(slice(None),) + zero_idx] = 0.0
    x_th[zero_idx] = 0.0
    return _to_state(grid, x_u, x_th)


def resolvent_periodic_datum(problem: PeriodicProblem, image: State | None = None) -> State:
    """Fixed datum via per-mode inversion of I - e^{-TL} on mean-free data.

    ``image`` is c = P(0) when the caller has stepped it already.
    """
    if image is None:
        image = poincare_map(zeros_like_state(problem.grid), problem)
    return _invert_resolvent(problem, image)


def _check_loop_bounds(cap_name, cap, least, tol_name, tol):
    """ConfigError unless the iteration cap is >= ``least`` and the tolerance is finite and > 0."""
    if not cap >= least:
        raise ConfigError(f"{cap_name} must be >= {least}, got {cap}")
    if not (np.isfinite(tol) and tol > 0):
        raise ConfigError(f"{tol_name} must be finite and > 0, got {tol}")


def _affine_period(decay, z_hat, c_hat):
    """One period of the affine map, P^n(0) = e^{-TL} P^{n-1}(0) + c, in place.

    ``z_hat`` and ``c_hat`` are (velocity, temperature) coefficient pairs;
    ``decay`` is e^{-TL} per mode.
    """
    for z, c in zip(z_hat, c_hat):
        z *= decay
        z += c


def cesaro_periodic_datum(
    problem: PeriodicProblem,
    n_max=256,
    tol=1e-9,
    reference: State | None = None,
    ctx: NormContext | None = None,
    image: State | None = None,
) -> PeriodicSolution:
    """Fixed datum via Cesaro means (1/n) sum_k P^k(0), then a certifying run.

    c = P(0) is the one stepped period (:func:`poincare_map`), or ``image``
    when the caller has stepped it already; it is only read.  Linearized
    dynamics have no state-dependent right-hand side, so P is affine and the
    orbit P^n(0) = e^{-TL} P^{n-1}(0) + c is advanced in coefficient space,
    holding only c and the current term; each term is transformed back for
    the mean.  It stops at the first n > 1 whose mean increment is below
    ``tol``; ``n_max`` only caps the number of periods.  The history records
    (n, ||P_n - P_{n-1}||, ||P_n - reference||) per period; the error column
    needs ``reference`` (e.g. the resolvent datum).  Raises ConvergenceError
    carrying the history when n_max is hit first, or at once when an
    increment is not finite.  The certifying run is a stepped evolve from
    the datum, with the coupling rows of its own temperature.
    """
    if problem.mode != "linearized":
        raise HypothesisError("the Cesaro construction applies to the linearized dynamics")
    _check_loop_bounds("n_max", n_max, 2, "tol", tol)
    grid = problem.grid
    # P(0), the orbit's first term
    c = image if image is not None else poincare_map(zeros_like_state(grid), problem)
    z_u, z_th = c.u.values, c.theta.values
    c_hat = (forward_coeffs(grid, z_u), forward_coeffs(grid, z_th))
    z_hat = tuple(part.copy() for part in c_hat)
    decay = semigroup_factor(grid, problem.period)
    mean_u = np.zeros_like(z_u)
    mean_th = np.zeros_like(z_th)
    history = []
    converged_at = None
    for n in range(1, n_max + 1):
        if n > 1:
            _affine_period(decay, z_hat, c_hat)
            z_u, z_th = (inverse_values(grid, part) for part in z_hat)
        prev_u, prev_th = mean_u, mean_th
        mean_u = prev_u + (z_u - prev_u) / n
        mean_th = prev_th + (z_th - prev_th) / n
        # np.max, unlike max(), lets a NaN in either part through
        increment = float(
            np.max([np.max(np.abs(mean_u - prev_u)), np.max(np.abs(mean_th - prev_th))])
        )
        err = np.nan
        if reference is not None:
            err = max(
                float(np.max(np.abs(mean_u - reference.u.values))),
                float(np.max(np.abs(mean_th - reference.theta.values))),
            )
        history.append((n, increment, err))
        if not np.isfinite(increment):
            raise ConvergenceError(
                f"Cesaro increment is not finite at period {n}",
                residual=increment,
                history=history,
            )
        if n > 1 and increment < tol:
            converged_at = n
            break
    if converged_at is None:
        raise ConvergenceError(
            f"Cesaro averaging did not reach tol = {tol} within n_max = {n_max} "
            "(spectral radius too close to 1?)",
            residual=history[-1][1],
            history=history,
        )
    datum = State(VectorField(grid, mean_u), ScalarField(grid, mean_th))
    # the orbit is not read again
    del c, c_hat, z_hat, z_u, z_th, prev_u, prev_th
    rows = None if problem.coupling is None else _buoyancy_rows(problem, datum)
    certify = evolve(datum, problem.linear_forcing, problem.period, problem.cfg,
                     mode="linearized", extra=rows)
    res_max, res_norm = check_periodicity(certify, ctx)
    return PeriodicSolution(
        problem=problem,
        initial=datum,
        trajectory=certify,
        residual_max=res_max,
        residual_norm=res_norm,
        history=history,
        meta={"iterations": converged_at, "route": "cesaro"},
    )


# ---------------------------------------------------------------------------
# nonlinear periodic solutions via the frozen-nonlinearity outer iteration
# ---------------------------------------------------------------------------


def _frozen_extra(state: State, g=None, kappa=0.0):
    """Band rows (vel, th) of G_state frozen at one stored state.

    -P div(v (x) v) + kappa P(theta g) and -div(v theta), with ``g`` the
    real values of the g field at the state's time (None without a
    coupling): the one :func:`advection_coeffs` call of the full-mode step.
    """
    u = state.u.values
    return advection_coeffs(state.grid, u, u, state.theta.values, g, kappa)


def _linear_periodic_solve(problem, extra, on_state, forced=None):
    """Periodic solution of the linear problem with the rows ``extra`` frozen; returns P_F(0).

    P(0) is affine in the forcing and the frozen rows, P(0) = P_F(0) +
    P_rows(0).  P_F(0), the image of F and f alone, is ``forced`` or, when
    that is None, stepped here; the image of ``extra``, when given, is
    stepped from zero with no forcing and added to it.  The resolvent of
    P(0) is the datum whose one period streams its stored states into
    ``on_state(t, state)``.  g never enters: its coupling is in the rows.
    """
    zero, forcing = zeros_like_state(problem.grid), problem.linear_forcing
    if forced is None:
        forced = _period_image(problem, zero, forcing)
    c = forced
    if extra is not None:
        c = _period_image(problem, zero, None, extra)
        for part, whole in ((c.u, forced.u), (c.theta, forced.theta)):
            np.add(part.values, whole.values, out=part.values)
    evolve(_invert_resolvent(problem, c), forcing, problem.period, problem.cfg,
           mode="linearized", extra=extra, on_state=on_state)
    return forced


class _Iterate:
    """What the outer loop keeps of one periodic iterate, read one stored state at a time.

    Called as ``on_state(t, state)`` for each state in order, it builds the
    state's frozen band rows (:func:`_frozen_extra`, with ``forcing``'s
    g-coupling when kappa > 0), and keeps the state itself only at the
    sup-in-time indices (``ctx.time_stride``, the last always; state 0, the
    datum, among them).  Each kept state also forms its term of the outer
    increment: its norm against ``previous``'s matching state, which is then
    released, or its own norm without a previous iterate.  The rows freeze
    G_state in the next linear solve, or, for the converged iterate, start
    the certifying run's Picard (:meth:`predictor`).
    """

    def __init__(self, count, ctx, forcing, previous=None):
        self.ctx = ctx
        self.keep = frozenset(sup_time_indices(count, ctx.time_stride))
        self.g = forcing.g if forcing.kappa > 0 else None
        self.kappa = forcing.kappa
        self.times, self.vel, self.th = [], [], []
        self.sup = {}
        self.terms = []
        self._previous = None if previous is None else previous.sup

    @classmethod
    def read(cls, traj: Trajectory, ctx, forcing):
        """The iterate of a stored trajectory (an initial guess); no increment is formed."""
        it = cls(len(traj.times), ctx, forcing)
        it.terms = None
        for t, state in zip(traj.times, traj.states):
            it(t, state)
        return it

    def __call__(self, t, state):
        i = len(self.times)
        self.times.append(t)
        g = None if self.g is None else self.g.value(t).values
        vel, th = _frozen_extra(state, g, self.kappa)
        self.vel.append(vel)
        self.th.append(th)
        if i not in self.keep:
            return
        self.sup[i] = state
        if self.terms is not None:
            diff = state if self._previous is None else state_difference(
                state, self._previous.pop(i))
            self.terms.append(state_norm(diff, self.ctx))

    def increment(self):
        """Sup over the kept states of the increment terms (NaN if any term is)."""
        return float(np.max(self.terms))

    def extra(self):
        return SampledSpectralForcing(times=self.times, vel=self.vel, th=self.th)

    def predictor(self):
        """G_state along this iterate, one (vel, th) band-row pair per node."""
        return list(zip(self.vel, self.th))


def nonlinear_periodic(
    problem: PeriodicProblem,
    outer_tol=1e-8,
    outer_max=16,
    ctx: NormContext | None = None,
    initial_guess: Trajectory | None = None,
) -> PeriodicSolution:
    """Periodic solution of the full (or zero-temperature) dynamics.

    Outer loop: freeze G_state along the current periodic iterate, solve
    the linear periodic problem it induces, repeat until successive
    iterates differ by less than ``outer_tol`` in the discrete sup-in-time
    product norm.  A non-contracting step raises ConvergenceError (the
    numerical smallness condition failed), and so does a non-finite increment,
    at the iteration that produced it.

    The loop holds of the last iterate its frozen band rows and its
    sup-in-time states; the next iterate streams in state by state
    (:class:`_Iterate`) and never exists whole.  It also holds P_F(0),
    which the first solve steps, so that each later solve steps only its
    frozen rows (:func:`_linear_periodic_solve`).  ``initial_guess``, a
    stored one-period trajectory, is read the same way and frozen by the
    first solve.

    The certifying run is a stepped full-mode evolve from the datum that
    returns its whole trajectory.  The converged iterate's rows, G_state at
    the states it converged to, start each step's Picard iteration and are
    dropped as the run reads them; every step still passes Picard's
    residual test with the full right-hand side.
    """
    if problem.mode not in ("full", "navier-stokes"):
        raise ConfigError("nonlinear_periodic needs mode 'full' or 'navier-stokes'")
    _check_loop_bounds("outer_max", outer_max, 1, "outer_tol", outer_tol)
    grid = problem.grid
    if ctx is None:
        ctx = default_norm_context(grid)
    p = ctx.params.p
    outside = grid.n == 2  # allowed for fast iteration, flagged in the result
    if grid.n >= 3 and not (2.0 < p <= grid.n):
        raise HypothesisError(
            f'hypothesis "2 < p <= n" violated (p = {p}, n = {grid.n})'
        )
    forcing = problem.forcing
    current = None if initial_guess is None else _Iterate.read(initial_guess, ctx, forcing)
    history = []
    ratios = []
    converged = False
    forced = None  # P_F(0), once the first solve has stepped it
    for m in range(1, outer_max + 1):
        extra = None if current is None else current.extra()
        # the solve streams the next iterate into its reader; the reader holds
        # of ``current`` only the sup states it has not yet differenced
        nxt = _Iterate(problem.steps_per_period + 1, ctx, forcing, current)
        forced = _linear_periodic_solve(problem, extra, nxt, forced)
        delta = nxt.increment()
        ratio = delta / history[-1][1] if history and history[-1][1] > 0 else np.nan
        history.append((m, delta, ratio))
        if not np.isfinite(delta):
            raise ConvergenceError(
                f"outer increment is not finite at iteration {m}",
                residual=delta,
                history=history,
            )
        if delta < outer_tol:
            current = nxt
            converged = True
            break
        if history and len(history) >= 2 and np.isfinite(ratio):
            ratios.append(ratio)
            if ratio >= 1.0:
                raise ConvergenceError(
                    f"smallness violated: outer contraction ratio {ratio:.3f} >= 1 "
                    f"at iteration {m} (iterate amplitude {history[0][1]:.3e}, "
                    f"last increment {delta:.3e})",
                    residual=ratio,
                    history=history,
                )
        current = nxt
    if not converged:
        raise ConvergenceError(
            f"outer iteration did not reach {outer_tol} within {outer_max} steps",
            residual=history[-1][1],
            history=history,
        )
    datum = current.sup[0]
    predictor = current.predictor()
    # nothing else of the loop is read again
    del current, nxt, extra, forced
    certify = evolve(
        datum, forcing, problem.period, problem.cfg, mode=problem.mode, _predictor=predictor,
    )
    res_max, res_norm = check_periodicity(certify, ctx)
    sol_norm = trajectory_sup_norm(certify, ctx)
    return PeriodicSolution(
        problem=problem,
        initial=datum,
        trajectory=certify,
        residual_max=res_max,
        residual_norm=res_norm,
        history=history,
        meta={
            "route": "frozen-nonlinearity fixed point",
            "outer_iterations": len(history),
            "contraction_ratios": ratios,
            "solution_h_norm": sol_norm,
            "outside_hypotheses": outside,
        },
    )
