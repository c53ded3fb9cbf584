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

The nonlinear periodic solution is a fixed point of the outer map that
freezes the whole nonlinearity along the current periodic iterate, solves
the resulting linear periodic problem, and repeats; its empirical
contraction ratio is the numerical stand-in for the small-data condition
that makes the iteration contract.  No iterate is held whole: the solve
streams each stored state into a reader that builds its frozen band rows,
keeps its temperature when a g-coupling reads it, and keeps the state only
at the sup-in-time indices, where it forms its increment term against the
previous iterate's matching state and releases that one.  Each linear
solve steps P(0) = P_F(0) + P_rows(0): the image P_F(0) of the analytic
forcing alone is the first solve's, which freezes nothing, and later solves
step only their frozen rows and eta coupling from zero.  The rows of the
converged iterate are G at its states, so they start the Picard iteration
of each step of the certifying run, which is still a stepped full-mode
period.

Mean (k = 0) modes: I - e^{-TL} is singular on constants, so forcings are
kept mean-free and the datum mean is fixed to zero.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .duhamel import SolveConfig, Trajectory, _coupling_rows, _to_state, evolve, state_difference
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
    the datum.
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


def _frozen_extra(state: State):
    """Band rows of -P div(v (x) v) and -div(eta v) frozen at one stored state, (vel, th)."""
    u = state.u.values
    return advection_coeffs(state.grid, u, u, state.theta.values)


def _linear_periodic_solve(problem, eta_series, extra, on_state, forced=None):
    """Periodic solution of the linear problem with ``eta`` and ``extra`` frozen; returns P(0).

    Steps P(0), inverts the resolvent on it, and streams the stored states
    of one period from that datum into ``on_state(t, state)``.

    P(0) is affine in the forcing and the frozen data, P(0) = P_F(0) +
    P_rows(0).  ``forced``, when given, is P_F(0), the image of the analytic
    forcing alone (the P(0) of a solve that freezes nothing): only the
    frozen rows and the eta coupling are then stepped from zero, under the
    forcing without F and f (g and kappa kept), and added to it.  Without it
    the whole P(0) is stepped.  Returns P(0), which is P_F(0) for a solve
    that freezes nothing.
    """
    grid, forcing = problem.grid, problem.forcing

    def image(part):
        return evolve(zeros_like_state(grid), part, problem.period, problem.cfg,
                      mode="linearized", eta=eta_series, extra=extra,
                      store_stride=problem.steps_per_period).states[-1]

    if forced is None:
        c = image(forcing)
    else:
        c = image(replace(forcing, F=None, f=None))
        # the frozen part's image is this solve's own: P_F(0) is added into it
        for part, whole in ((c.u, forced.u), (c.theta, forced.theta)):
            np.add(part.values, whole.values, out=part.values)
    evolve(_invert_resolvent(problem, c), forcing, problem.period, problem.cfg,
           mode="linearized", eta=eta_series, extra=extra, on_state=on_state)
    return c


class _Iterate:
    """What the outer loop keeps of one periodic iterate, read one stored state at a time.

    Called as ``on_state(t, state)`` for each state in order, it builds the
    state's frozen band rows (:func:`_frozen_extra`), keeps its temperature
    when a g-coupling reads eta (``coupled``), and keeps the state itself
    only at the sup-in-time indices (``ctx.time_stride``, the last always;
    state 0, the datum, among them).  Each kept state also forms its term of
    the outer increment: its norm against ``previous``'s matching state,
    which is then released, or its own norm without a previous iterate.
    The rows freeze the nonlinearity of the next linear solve, or, for the
    converged iterate, start the certifying run's Picard (:meth:`predictor`).
    """

    def __init__(self, count, ctx, coupled, previous=None):
        self.ctx = ctx
        self.keep = frozenset(sup_time_indices(count, ctx.time_stride))
        self.times, self.vel, self.th = [], [], []
        self.thetas = [] if coupled else None
        self.sup = {}
        self.terms = []
        self._previous = None if previous is None else previous.sup

    @classmethod
    def read(cls, traj: Trajectory, ctx, coupled):
        """The iterate of a stored trajectory (an initial guess); no increment is formed."""
        it = cls(len(traj.times), ctx, coupled)
        it.terms = None
        for t, state in zip(traj.times, traj.states):
            it(t, state)
        return it

    def __call__(self, t, state):
        i = len(self.times)
        self.times.append(t)
        vel, th = _frozen_extra(state)
        self.vel.append(vel)
        self.th.append(th)
        if self.thetas is not None:
            self.thetas.append(state.theta)
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

    def eta(self):
        return SampledScalarSeries(times=self.times, fields=self.thetas)

    def predictor(self, problem):
        """G_state along this iterate, one (vel, th) band-row pair per node.

        The frozen rows, with the coupling rows of the iterate's own
        temperatures summed in when a g-coupling reads them.
        """
        vel = self.vel
        if self.thetas is not None:
            vel = _coupling_rows(problem.grid, problem.forcing, self.eta(), self.times, vel)
        return list(zip(vel, self.th))


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

    The loop holds of the last iterate its frozen band rows, its temperatures
    (only when a g-coupling reads eta) and its sup-in-time states; the next
    iterate streams in state by state (:class:`_Iterate`) and never exists
    whole.  It also holds P_F(0), the first solve's image, which freezes
    nothing, so that each later solve steps only its frozen rows and eta
    coupling (:func:`_linear_periodic_solve`).  ``initial_guess``, a stored
    one-period trajectory, is read the same way; its run has no such image
    and steps every P(0) whole.

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
    coupled = problem.forcing.g is not None and problem.forcing.kappa > 0
    current = None if initial_guess is None else _Iterate.read(initial_guess, ctx, coupled)
    history = []
    ratios = []
    converged = False
    forced = None  # P_F(0), once a solve that freezes nothing has stepped it
    zero_eta = None
    if coupled:
        # the zero-th iterate freezes theta = 0 in the coupling
        node_times = np.arange(problem.steps_per_period + 1) * problem.cfg.dt
        zero_field = ScalarField(grid, np.zeros(grid.shape))
        zero_eta = SampledScalarSeries(times=node_times,
                                       fields=[zero_field] * len(node_times))
    for m in range(1, outer_max + 1):
        extra = None
        eta_series = zero_eta
        if current is not None:
            extra = current.extra()
            if coupled:  # only the g-coupling reads eta
                eta_series = current.eta()
        # the solve streams the next iterate into its reader; the reader holds
        # of ``current`` only the sup states it has not yet differenced
        nxt = _Iterate(problem.steps_per_period + 1, ctx, coupled, current)
        image = _linear_periodic_solve(problem, eta_series, extra, nxt, forced)
        if current is None:  # this solve froze nothing: its image is P_F(0)
            forced = image
        del image  # no other image is held through the next solve
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
    predictor = current.predictor(problem)
    # nothing else of the loop is read again
    del current, nxt, eta_series, extra, zero_eta, forced
    certify = evolve(
        datum, problem.forcing, problem.period, problem.cfg, mode=problem.mode,
        _predictor=predictor,
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
