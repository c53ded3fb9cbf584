"""Construction of time-periodic solutions.

A problem has no mode: :func:`nonlinear_periodic` solves the full dynamics
(Navier-Stokes without f and g), every other route the linearized ones.

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

Both routes read the same image c = P(0), so their agreement checks the
averaging and the inversion, not c itself; the Cesaro datum is certified by
a stepped one-period evolve from it, which reads neither c nor the affine
orbit.  Every P(0), in these routes and in the nonlinear loop, is P_F(0),
the image of the forcing without g stepped once per problem, plus the image
of the solve's frozen rows stepped from zero (:func:`_zero_image`).  Frozen
rows are what :func:`~bqbox.duhamel.evolve` takes as ``extra``: a list with
one (velocity, temperature) pair of band rows per step node, None for an
absent part (a coupling row has no temperature part).

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
releases that one.  The loop has one start: the first solve freezes
nothing and steps P_F(0), and each later one only the image of its frozen
rows.  The rows of the converged iterate are G_state at its states, so the
same list starts the Picard iteration of each step of the certifying run,
which is still a stepped full-mode period.

Mean (k = 0) modes: I - e^{-TL} is singular on constants, so forcings are
kept mean-free and the datum mean is fixed to zero.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import cached_property

import numpy as np

from .duhamel import SolveConfig, Trajectory, _to_state, evolve, state_difference
from .errors import ConfigError, ConvergenceError, HypothesisError
from .forcing import ForcingSpec
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


def default_norm_context(grid):
    """The product norm at p = min(3, n), q = inf, lam = n - p, on 2^n centers and 6 radii.

    The one default sampler: the checks that take a ``sampler`` require it.
    """
    n = grid.n
    p = float(min(3, n))
    lam = max(0.0, n - p)
    return NormContext(NormParams(p=p, q=float("inf"), lam=lam), BallSampler(num_centers=2**n, num_radii=6))


@dataclass
class PeriodicProblem:
    forcing: ForcingSpec
    cfg: SolveConfig
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
    def forced_image(self):
        """P_F(0): one period from zero of the forcing without g, stepped once."""
        return _period_image(self, zeros_like_state(self.grid), self.linear_forcing)

    @cached_property
    def linear_image(self):
        """P(0) of the linear problem, its g-coupling frozen as rows: what both routes read."""
        return _zero_image(self, self.coupling)

    @cached_property
    def coupling(self):
        """The linearized g-coupling as frozen rows, a (vel, None) pair per step node.

        None without a coupling.  The rows follow the resolvent datum of
        P_F(0) over one stepped period: its temperature is exact.
        """
        if not self.forcing.coupled:
            return None
        return _buoyancy_rows(self, _invert_resolvent(self, _zero_image(self, None)))


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
    """P(x): one period of the linearized dynamics from x, its coupling rows frozen."""
    return _period_image(problem, x, problem.linear_forcing, problem.coupling)


def _period_image(problem, x, forcing, extra=None):
    """State one linearized period after x with ``forcing`` and the frozen rows ``extra``."""
    return evolve(x, forcing, problem.period, problem.cfg, mode="linearized", extra=extra,
                  store_stride=problem.steps_per_period).states[-1]


def _zero_image(problem, extra):
    """P(0) = P_F(0) + P_rows(0) of the linear problem with the rows ``extra`` frozen.

    The image of ``extra`` is stepped from zero with no forcing and added to
    :attr:`PeriodicProblem.forced_image`, which is returned as is without rows.
    """
    forced = problem.forced_image
    if extra is None:
        return forced
    c = _period_image(problem, zeros_like_state(problem.grid), None, extra)
    for part, whole in ((c.u, forced.u), (c.theta, forced.theta)):
        np.add(part.values, whole.values, out=part.values)
    return c


def _buoyancy_rows(problem, datum):
    """kappa P(theta g) at each step node of the one period from ``datum``, as (vel, None) pairs."""
    g, kappa = problem.forcing.g, problem.forcing.kappa
    rows = []

    def on_state(t, state):
        rows.append((buoyancy_coeffs(problem.grid, state.theta.values, g.value(t).values, kappa),
                     None))

    evolve(datum, problem.linear_forcing, problem.period, problem.cfg, mode="linearized",
           on_state=on_state)
    return rows


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
    """Fixed datum of the linear problem via per-mode inversion of I - e^{-TL}."""
    return _invert_resolvent(problem, problem.linear_image)


def _check_loop_bounds(cap_name, cap, least, tol_name, tol):
    """ConfigError unless the iteration cap is >= ``least`` and the tolerance is finite and > 0."""
    if not cap >= least:
        raise ConfigError(f"{cap_name} must be >= {least}, got {cap}")
    if not (np.isfinite(tol) and tol > 0):
        raise ConfigError(f"{tol_name} must be finite and > 0, got {tol}")


def cesaro_periodic_datum(
    problem: PeriodicProblem,
    n_max=256,
    tol=1e-9,
    reference: State | None = None,
) -> PeriodicSolution:
    """Fixed datum via Cesaro means (1/n) sum_k P^k(0), then a certifying run.

    c = P(0) is the problem's image of zero with its coupling rows frozen
    (:attr:`PeriodicProblem.linear_image`); it is only read.  Linearized
    dynamics have no state-dependent right-hand side, so P is affine and the
    orbit P^n(0) = e^{-TL} P^{n-1}(0) + c is advanced in coefficient space,
    holding only c and the current term; each term is transformed back for
    the mean.  It stops at the first n > 1 whose mean increment is below
    ``tol``; ``n_max`` only caps the number of periods.  ``tol`` bounds that
    last increment, not the datum's error: the increment of the mean at n
    is (P^n(0) - mean_{n-1})/n, so the error runs about n times larger
    (periodic-linear-n16 at seed 3 stops at n = 28 with an increment of
    4.85e-9 and an error of 1.31e-7 against the resolvent datum).  The
    history records
    (n, ||P_n - P_{n-1}||, ||P_n - reference||) per period; the error column
    needs ``reference`` (e.g. the resolvent datum).  Raises ConvergenceError
    carrying the history when n_max is hit first, or at once when an
    increment is not finite.  The certifying run is a stepped evolve from
    the datum, with the coupling rows of its own temperature; its residual
    norm is taken in :func:`default_norm_context`.
    """
    _check_loop_bounds("n_max", n_max, 2, "tol", tol)
    grid = problem.grid
    c = problem.linear_image  # P(0), the orbit's first term
    z = (c.u.values, c.theta.values)
    c_hat = [forward_coeffs(grid, part) for part in z]
    z_hat = [part.copy() for part in c_hat]
    decay = semigroup_factor(grid, problem.period)
    mean = [np.zeros_like(part) for part in z]
    ref = None if reference is None else (reference.u.values, reference.theta.values)
    history = []
    converged_at = None
    for n in range(1, n_max + 1):
        if n > 1:
            for part, c_part in zip(z_hat, c_hat):
                part *= decay
                part += c_part
            z = [inverse_values(grid, part) for part in z_hat]
        prev = mean
        mean = [m + (part - m) / n for m, part in zip(prev, z)]
        # np.max, unlike max(), lets a NaN in either part through
        increment = float(np.max([np.max(np.abs(a - b)) for a, b in zip(mean, prev)]))
        err = np.nan
        if ref is not None:
            err = float(np.max([np.max(np.abs(a - b)) for a, b in zip(mean, ref)]))
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
    datum = State(VectorField(grid, mean[0]), ScalarField(grid, mean[1]))
    # the orbit is not read again
    del c, c_hat, z_hat, z, prev
    rows = None if problem.coupling is None else _buoyancy_rows(problem, datum)
    certify = evolve(datum, problem.linear_forcing, problem.period, problem.cfg,
                     mode="linearized", extra=rows)
    res_max, res_norm = check_periodicity(certify)
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


def _linear_periodic_solve(problem, extra, on_state):
    """Periodic solution of the linear problem with the rows ``extra`` frozen.

    The resolvent of its P(0) (:func:`_zero_image`) is the datum whose one
    period streams its stored states into ``on_state(t, state)``.  g never
    enters: its coupling is in the rows.
    """
    evolve(_invert_resolvent(problem, _zero_image(problem, extra)), problem.linear_forcing,
           problem.period, problem.cfg, mode="linearized", extra=extra, on_state=on_state)


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
    the certifying run's Picard: :attr:`rows` is one (vel, th) pair per
    stored state, the list form ``evolve`` takes for both.
    """

    def __init__(self, count, ctx, forcing, previous=None):
        self.ctx = ctx
        self.keep = frozenset(sup_time_indices(count, ctx.time_stride))
        self.g = forcing.g if forcing.coupled else None
        self.kappa = forcing.kappa
        self.rows = []
        self.sup = {}
        self.terms = []
        self._previous = None if previous is None else previous.sup

    def __call__(self, t, state):
        i = len(self.rows)
        g = None if self.g is None else self.g.value(t).values
        self.rows.append(_frozen_extra(state, g, self.kappa))
        if i not in self.keep:
            return
        self.sup[i] = state
        diff = state if self._previous is None else state_difference(state, self._previous.pop(i))
        self.terms.append(state_norm(diff, self.ctx))

    def increment(self):
        """Sup over the kept states of the increment terms (NaN if any term is)."""
        return float(np.max(self.terms))


def nonlinear_periodic(
    problem: PeriodicProblem,
    outer_tol=1e-8,
    outer_max=16,
    ctx: NormContext | None = None,
) -> PeriodicSolution:
    """Periodic solution of the full dynamics (Navier-Stokes without f and g).

    Outer loop: freeze G_state along the current periodic iterate, solve
    the linear periodic problem it induces, repeat until successive
    iterates differ by less than ``outer_tol`` in the discrete sup-in-time
    product norm.  A non-contracting step raises ConvergenceError (the
    numerical smallness condition failed), and so does a non-finite increment,
    at the iteration that produced it.

    The loop holds of the last iterate its frozen band rows and its
    sup-in-time states; the next iterate streams in state by state
    (:class:`_Iterate`) and never exists whole.  Every solve's P(0) is the
    problem's P_F(0), which the first solve steps, plus the image of its
    frozen rows (:func:`_zero_image`).  The first solve freezes nothing: the
    loop always starts from the resolvent datum of P_F(0).

    The certifying run is a stepped full-mode evolve from the datum that
    returns its whole trajectory.  The converged iterate's rows, G_state at
    the states it converged to, start each step's Picard iteration and are
    dropped as the run reads them; every step still passes Picard's
    residual test with the full right-hand side.
    """
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
    current = None
    history = []
    ratios = []
    converged = False
    for m in range(1, outer_max + 1):
        extra = None if current is None else current.rows
        # the solve streams the next iterate into its reader; the reader holds
        # of ``current`` only the sup states it has not yet differenced
        nxt = _Iterate(problem.steps_per_period + 1, ctx, forcing, current)
        _linear_periodic_solve(problem, extra, nxt)
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
        if np.isfinite(ratio):
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
    predictor = current.rows
    # nothing else of the loop is read again, P_F(0) neither
    del current, nxt, extra
    vars(problem).pop("forced_image", None)
    certify = evolve(datum, forcing, problem.period, problem.cfg, _predictor=predictor)
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
