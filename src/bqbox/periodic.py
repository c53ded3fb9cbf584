"""Construction of time-periodic solutions.

For the linearized dynamics the time-T solution map is affine,
P(x) = e^{-TL} x + c, and a periodic orbit is a fixed point of P.  Two
routes to the fixed datum are implemented and cross-validated:

* Cesaro averaging of the orbit of 0, (1/n) sum_{k<=n} P^k(0), whose error
  decays like O(1/n) because the discrete map contracts on the mean-free
  subspace (the torus spectral gap);
* a direct per-mode resolvent inversion (I - e^{-TL})^{-1} c, exact up to
  solver tolerance, used as the independent oracle.

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

from .duhamel import (
    SolveConfig,
    Trajectory,
    _to_state,
    evolve,
    state_difference,
    trajectory_difference,
)
from .errors import ConfigError, ConvergenceError, HypothesisError
from .forcing import ForcingSpec, SampledScalarSeries, SampledSpectralForcing
from .grid import ScalarField, State, VectorField, forward_coeffs, zeros_like_state
from .norms import BallSampler, NormContext, NormParams, state_norm, trajectory_sup_norm
from .operators import advection_coeffs, leray_coeffs

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


def cesaro_periodic_datum(
    problem: PeriodicProblem,
    n_max=256,
    tol=1e-9,
    reference: State | None = None,
    ctx: NormContext | None = None,
) -> PeriodicSolution:
    """Fixed datum via Cesaro means (1/n) sum_k P^k(0), then a certifying run.

    The history records (n, ||P_n - P_{n-1}||, ||P_n - reference||) per
    step; the error column needs ``reference`` (e.g. the resolvent datum).
    Raises ConvergenceError carrying the history when n_max is hit first.
    """
    if problem.mode != "linearized":
        raise HypothesisError("the Cesaro construction applies to the linearized dynamics")
    grid = problem.grid
    k = problem.steps_per_period
    orbit = evolve(
        zeros_like_state(grid),
        problem.forcing,
        n_max * problem.period,
        problem.cfg,
        mode="linearized",
        eta=problem.eta,
        store_stride=k,
    )
    mean_u = np.zeros_like(orbit.states[0].u.values)
    mean_th = np.zeros_like(orbit.states[0].theta.values)
    history = []
    converged_at = None
    for n in range(1, n_max + 1):
        z = orbit.states[n]  # P^n(0)
        prev_u, prev_th = mean_u, mean_th
        mean_u = prev_u + (z.u.values - prev_u) / n
        mean_th = prev_th + (z.theta.values - prev_th) / n
        increment = max(
            float(np.max(np.abs(mean_u - prev_u))), float(np.max(np.abs(mean_th - prev_th)))
        )
        err = np.nan
        if reference is not None:
            err = max(
                float(np.max(np.abs(mean_u - reference.u.values))),
                float(np.max(np.abs(mean_th - reference.theta.values))),
            )
        history.append((n, increment, err))
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
    """Freeze -P div(v (x) v) and -div(eta v) along a stored iterate."""
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
    numerical smallness condition failed).
    """
    if problem.mode not in ("full", "navier-stokes"):
        raise ConfigError("nonlinear_periodic needs mode 'full' or 'navier-stokes'")
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
        eta_series = current.theta_series() if current is not None else zero_eta
        extra = _frozen_extra(current) if current is not None else None
        nxt = _linear_periodic_solve(problem, eta_series, extra)
        if current is None:
            delta = trajectory_sup_norm(nxt, ctx)
        else:
            delta = trajectory_sup_norm(trajectory_difference(nxt, current), ctx)
        ratio = delta / history[-1][1] if history and history[-1][1] > 0 else np.nan
        history.append((m, delta, ratio))
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
