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

Both routes rest on the same stepped image c = P(0), so their agreement
checks the averaging and the inversion, not c itself; the Cesaro datum is
certified by a stepped one-period evolve from it, which reads neither c nor
the affine orbit.

The nonlinear periodic solution is a fixed point of the outer map that
freezes the whole nonlinearity along the current periodic iterate, solves
the resulting linear periodic problem, and repeats; its empirical
contraction ratio is the numerical stand-in for the small-data condition
that makes the iteration contract.

Mean (k = 0) modes: I - e^{-TL} is singular on constants, so forcings are
kept mean-free and the datum mean is fixed to zero.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .duhamel import SolveConfig, Trajectory, _to_state, evolve, state_difference
from .errors import ConfigError, ConvergenceError, HypothesisError
from .forcing import ForcingSpec, SampledScalarSeries, SampledSpectralForcing
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
from .operators import advection_coeffs, leray_coeffs, semigroup_factor

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
    eta: object = None  # frozen temperature series (linearized mode)
    grid: object = None

    def __post_init__(self):
        if self.grid is None:
            self.grid = self.forcing.grid
        if self.grid is None:
            raise ConfigError("PeriodicProblem needs a grid (empty forcing carries none)")
        self.steps_per_period = self.cfg.check_period(self.forcing.period)
        if self.mode == "linearized" and self.eta is not None:
            eta_times = np.asarray(self.eta.times)
            if abs(eta_times[-1] - self.forcing.period) > 1e-9:
                raise ConfigError("eta must be sampled over exactly one forcing period")

    @property
    def period(self):
        return self.forcing.period


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
    """State after one forcing period started from x."""
    traj = evolve(
        x,
        problem.forcing,
        problem.period,
        problem.cfg,
        mode=problem.mode,
        eta=problem.eta,
        store_stride=problem.steps_per_period,
    )
    return traj.states[-1]


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


def resolvent_periodic_datum(problem: PeriodicProblem) -> State:
    """Fixed datum via per-mode inversion of I - e^{-TL} on mean-free data."""
    return _invert_resolvent(problem, poincare_map(zeros_like_state(problem.grid), problem))


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
) -> PeriodicSolution:
    """Fixed datum via Cesaro means (1/n) sum_k P^k(0), then a certifying run.

    c = P(0) is the one stepped period (:func:`poincare_map`).  Linearized
    dynamics have no state-dependent right-hand side, so P is affine and the
    orbit P^n(0) = e^{-TL} P^{n-1}(0) + c is advanced in coefficient space,
    holding only c and the current term; each term is transformed back for
    the mean.  It stops at the first n > 1 whose mean increment is below
    ``tol``; ``n_max`` only caps the number of periods.  The history records
    (n, ||P_n - P_{n-1}||, ||P_n - reference||) per period; the error column
    needs ``reference`` (e.g. the resolvent datum).  Raises ConvergenceError
    carrying the history when n_max is hit first, or at once when an
    increment is not finite.  The certifying run is a stepped evolve from
    the datum.
    """
    if problem.mode != "linearized":
        raise HypothesisError("the Cesaro construction applies to the linearized dynamics")
    _check_loop_bounds("n_max", n_max, 2, "tol", tol)
    grid = problem.grid
    c = poincare_map(zeros_like_state(grid), problem)  # P(0), the orbit's first term
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
    certify = evolve(
        datum, problem.forcing, problem.period, problem.cfg, mode="linearized", eta=problem.eta
    )
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


def _frozen_extra(traj: Trajectory) -> SampledSpectralForcing:
    """Freeze -P div(v (x) v) and -div(eta v) along a stored iterate, as band rows."""
    grid = traj.grid
    vel, th = zip(*(advection_coeffs(grid, s.u.values, s.u.values, s.theta.values)
                    for s in traj.states))
    return SampledSpectralForcing(times=np.asarray(traj.times), vel=list(vel), th=list(th))


def _linear_periodic_solve(problem, eta_series, extra) -> Trajectory:
    grid = problem.grid
    c = evolve(
        zeros_like_state(grid),
        problem.forcing,
        problem.period,
        problem.cfg,
        mode="linearized",
        eta=eta_series,
        extra=extra,
        store_stride=problem.steps_per_period,
    ).states[-1]
    return evolve(
        _invert_resolvent(problem, c),
        problem.forcing,
        problem.period,
        problem.cfg,
        mode="linearized",
        eta=eta_series,
        extra=extra,
    )


def _sup_states(traj: Trajectory, ctx: NormContext) -> Trajectory:
    """``traj`` keeping only the stored states :func:`_sup_increment` reads; the others are None."""
    keep = set(sup_time_indices(len(traj.times), ctx.time_stride))
    states = [s if i in keep else None for i, s in enumerate(traj.states)]
    return Trajectory(traj.grid, traj.times, states, traj.meta)


def _sup_increment(nxt: Trajectory, current: Trajectory, ctx: NormContext) -> float:
    """``trajectory_sup_norm(trajectory_difference(nxt, current), ctx)``, one state at a time.

    Reads the stored states of :func:`trajectory_sup_norm` (``ctx.time_stride``,
    the last always), so no difference trajectory is held and ``current``
    may be cut to those states (:func:`_sup_states`).
    """
    idx = sup_time_indices(len(nxt.times), ctx.time_stride)
    return float(np.max([state_norm(state_difference(nxt.states[i], current.states[i]), ctx)
                         for i in idx]))


def nonlinear_periodic(
    problem: PeriodicProblem,
    outer_tol=1e-8,
    outer_max=16,
    ctx: NormContext | None = None,
    initial_guess: Trajectory | None = None,
) -> PeriodicSolution:
    """Periodic solution of the full (or zero-temperature) dynamics.

    Outer loop: freeze the nonlinearity along the current periodic iterate,
    solve the linear periodic problem it induces, repeat until successive
    iterates differ by less than ``outer_tol`` in the discrete sup-in-time
    product norm.  A non-contracting step raises ConvergenceError (the
    numerical smallness condition failed), and so does a non-finite increment,
    at the iteration that produced it.
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
    current = initial_guess
    history = []
    ratios = []
    converged = False
    zero_eta = None
    if problem.forcing.g is not None and problem.forcing.kappa > 0:
        # the zero-th iterate freezes theta = 0 in the coupling
        node_times = np.arange(problem.steps_per_period + 1) * problem.cfg.dt
        zero_field = ScalarField(grid, np.zeros(grid.shape))
        zero_eta = SampledScalarSeries(times=node_times,
                                       fields=[zero_field] * len(node_times))
    for m in range(1, outer_max + 1):
        # the rows of the iterate before go before the next are built, and
        # ``nxt`` must not keep the whole of ``current`` alive
        extra = nxt = None
        eta_series = zero_eta
        if current is not None:
            if zero_eta is not None:  # only the g-coupling reads eta
                eta_series = current.theta_series()
            extra = _frozen_extra(current)
            # the solve reads this iterate only through eta and the frozen rows,
            # and the increment reads its sup states (state 0, the datum, among
            # them), so the velocities of the other states go before the solve
            current = _sup_states(current, ctx)
        nxt = _linear_periodic_solve(problem, eta_series, extra)
        if current is None:
            delta = trajectory_sup_norm(nxt, ctx)
        else:
            delta = _sup_increment(nxt, current, ctx)
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
    datum = current.states[0]
    # the loop's trajectories and frozen rows are not read again
    del current, nxt, eta_series, extra, zero_eta
    certify = evolve(
        datum, problem.forcing, problem.period, problem.cfg, mode=problem.mode
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
