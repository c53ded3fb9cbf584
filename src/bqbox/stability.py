"""Weighted-norm separation experiments and the closed-form weighted constants.

The separation between a periodic solution (u, theta) and a perturbed run
(v, xi) is tracked through

    D(t) = t^{alpha/2} ||u - v||_{q,inf,lam} + t^{gamma/2} ||theta - xi||_{r,inf,lam}

with alpha = 1 - p/q and gamma = 1 - p/r.  (u, theta) is the certified
periodic orbit, read at step k as its stored state k mod S (S steps per
period), not a re-stepped copy of it; both follow the full dynamics.  On
the torus the spectral gap makes the gap decay exponentially, so the
polynomial weights are a certified upper-bound check, not a sharp rate; the
decay-exponent fit reports that the late-time log-log slope falls below
-alpha/2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .duhamel import Trajectory, bilinear_path, evolve, state_difference
from .errors import ConfigError, DiagnosticsError, HypothesisError
from .norms import (
    NormContext,
    NormParams,
    TimeWeightParams,
    morrey_lorentz_norm,
    state_norm,
    sup_time_indices,
    trajectory_sup_norm,
    weighted_time_sup,
)


@dataclass(frozen=True)
class StabilityParams:
    """Exponents of the weighted-stability setting.

    Requires 2 < p < q <= r < infinity, r > q/(q-1), b > p/2 and
    1/p < 1/b + 1/r < min(2/p + 1/q, 1).  Derived weights:
    alpha = 1 - p/q, gamma = 1 - p/r, beta = 1 - p/(2b).
    """

    p: float
    q: float
    r: float
    b: float

    def __post_init__(self):
        if not (2.0 < self.p < self.q <= self.r < math.inf):
            raise HypothesisError(
                f'hypothesis "2 < p < q <= r < inf" violated '
                f"(p={self.p}, q={self.q}, r={self.r})"
            )
        if not self.r > self.q / (self.q - 1.0):
            raise HypothesisError(
                f'hypothesis "r > q/(q-1)" violated (r={self.r}, q/(q-1)={self.q / (self.q - 1):.4g})'
            )
        if not self.b > self.p / 2.0:
            raise HypothesisError(f'hypothesis "b > p/2" violated (b={self.b}, p={self.p})')
        mid = 1.0 / self.b + 1.0 / self.r
        hi = min(2.0 / self.p + 1.0 / self.q, 1.0)
        if not (1.0 / self.p < mid < hi):
            raise HypothesisError(
                f'hypothesis "1/p < 1/b + 1/r < min(2/p + 1/q, 1)" violated '
                f"(1/p={1 / self.p:.4g}, 1/b+1/r={mid:.4g}, bound={hi:.4g})"
            )

    @property
    def alpha(self):
        return 1.0 - self.p / self.q

    @property
    def gamma(self):
        return 1.0 - self.p / self.r

    @property
    def beta(self):
        return 1.0 - self.p / (2.0 * self.b)

    def lam(self, n):
        if not self.p <= n:
            raise HypothesisError(f'hypothesis "p <= n" violated (p={self.p}, n={n})')
        return n - self.p


# ---------------------------------------------------------------------------
# closed-form constants of the weighted bilinear bound
# ---------------------------------------------------------------------------


def weighted_bilinear_constants(p, q, r):
    """The two printed constants of the weighted bilinear bound.

    C1 = q 2^{1/2 - p/2q} / p + 2^{1/2 - p/2q} / (1/2 - p/2q)
    C2 = 2^{1/2 - p/2q} / (p/2q + p/2r) + 2^{1/2 - p/2r} / (1/2 - p/2q)

    Requires 1 < p < q <= r < inf and p/(2q) < 1/2.
    """
    if not (1.0 < p < q <= r < math.inf):
        raise HypothesisError(f"need 1 < p < q <= r < inf, got p={p}, q={q}, r={r}")
    a_q = p / (2.0 * q)
    a_r = p / (2.0 * r)
    if not a_q < 0.5:
        raise HypothesisError(
            f"need p/(2q) < 1/2 (got {a_q}); the denominator 1/2 - p/(2q) has a pole"
        )
    c1 = q * 2.0 ** (0.5 - a_q) / p + 2.0 ** (0.5 - a_q) / (0.5 - a_q)
    c2 = 2.0 ** (0.5 - a_q) / (a_q + a_r) + 2.0 ** (0.5 - a_r) / (0.5 - a_q)
    return c1, c2


def _beta_function(x, y):
    if x <= 0 or y <= 0:
        raise HypothesisError(
            f"Beta({x:.4g}, {y:.4g}) diverges; the exponent hypotheses exclude this"
        )
    return math.gamma(x) * math.gamma(y) / math.gamma(x + y)


def coupling_time_constant(p, b):
    """int_0^1 (1-s)^{-p/2b} s^{-1+p/2b} ds = pi / sin(pi p / 2b)."""
    a = p / (2.0 * b)
    if not 0.0 < a < 1.0:
        raise HypothesisError(f"need 0 < p/(2b) < 1, got {a}")
    return math.pi / math.sin(math.pi * a)


# ---------------------------------------------------------------------------
# perturbation experiments
# ---------------------------------------------------------------------------


@dataclass
class DecayTable:
    rows: list  # (t, weighted_velocity_gap, weighted_temperature_gap, D)
    sup_d: float
    g_gap_norm: float
    params: StabilityParams
    meta: dict = field(default_factory=dict)


def perturb_and_compare(
    base,
    perturbed_initial,
    perturbed_g,
    params: StabilityParams,
    t_grid,
    sampler,
):
    """Evolve the perturbed problem and tabulate its weighted gap D(t) to the certified orbit.

    ``base`` is a :func:`~bqbox.periodic.nonlinear_periodic` solution whose
    trajectory is one certified period of S steps at the problem's dt; snapped
    step k is compared with its state k mod S.  The perturbed run, of the full
    dynamics, starts from ``perturbed_initial`` with g replaced by
    ``perturbed_g`` (None keeps g).
    The perturbation sizes are reported alongside |||g - g'|||, all on ``sampler``'s balls.
    """
    problem = base.problem
    grid = problem.grid
    lam = params.lam(grid.n)
    cfg = problem.cfg
    S = problem.steps_per_period
    orbit, T = base.trajectory, problem.period
    if len(orbit.times) != S + 1 or abs(orbit.times[-1] - T) > 1e-9 * T:
        raise DiagnosticsError(f"base trajectory must store {S + 1} states up to T = {T}, found "
                               f"{len(orbit.times)} up to t = {orbit.times[-1]}")
    t_grid = sorted(float(t) for t in t_grid)
    if not t_grid or t_grid[0] <= 0:
        raise DiagnosticsError("t_grid must contain positive times")
    snapped = [round(t / cfg.dt) * cfg.dt for t in t_grid]
    snapped = sorted({max(cfg.dt, t) for t in snapped})
    t_max = snapped[-1]

    forcing = problem.forcing
    forcing2 = replace(forcing, g=perturbed_g) if perturbed_g is not None else forcing
    # every step is stored, so the snapped time k dt is the state of step k
    wanted = {round(t / cfg.dt): t for t in snapped}
    rows = []

    def add_row(t, state):
        k = round(t / cfg.dt)
        if k in wanted:
            gap = state_difference(orbit.states[k % S], state)
            wu, wth = _weighted_parts(gap, wanted[k], params, sampler)
            rows.append((wanted[k], wu, wth, wu + wth))

    evolve(perturbed_initial, forcing2, t_max, cfg, on_state=add_row)

    g_gap = 0.0
    if perturbed_g is not None and forcing.g is not None:
        weights = TimeWeightParams(p=params.p, b=params.b)
        samples = []
        for t in snapped:
            gv = forcing.g.value(t)
            gv2 = perturbed_g.value(t)
            samples.append((t, type(gv)(grid, gv.values - gv2.values)))
        g_gap = weighted_time_sup(samples, weights, lam, sampler)

    init_gap = max(
        float(np.max(np.abs(base.initial.u.values - perturbed_initial.u.values))),
        float(np.max(np.abs(base.initial.theta.values - perturbed_initial.theta.values))),
    )
    return DecayTable(
        rows=rows,
        sup_d=max(r[3] for r in rows),
        g_gap_norm=g_gap,
        params=params,
        meta={"initial_gap_max": init_gap, "t_max": t_max, "snapped_times": snapped},
    )


@dataclass
class DecayFit:
    slope: float
    width: float  # 95% half-width of the slope
    npoints: int


def fit_decay_exponent(series, window):
    """Least-squares slope of log(gap) against log(t) inside the window."""
    lo, hi = window
    pts = [(t, g) for (t, g) in series if lo <= t <= hi]
    if len(pts) < 8:
        raise DiagnosticsError(f"decay fit needs >= 8 points in the window, got {len(pts)}")
    if any(g <= 0 for (_, g) in pts):
        raise DiagnosticsError("degenerate fit: non-positive gap in the window")
    x = np.log([t for (t, _) in pts])
    y = np.log([g for (_, g) in pts])
    A = np.stack([x, np.ones_like(x)], axis=1)
    coef, res, _, _ = np.linalg.lstsq(A, y, rcond=None)
    slope = float(coef[0])
    dof = len(pts) - 2
    if dof > 0 and res.size:
        sigma2 = float(res[0]) / dof
        sxx = float(np.sum((x - np.mean(x)) ** 2))
        width = 1.96 * math.sqrt(sigma2 / sxx) if sxx > 0 else math.inf
    else:
        width = 0.0
    return DecayFit(slope=slope, width=width, npoints=len(pts))


# ---------------------------------------------------------------------------
# weighted bilinear check and the assembled smallness expressions
# ---------------------------------------------------------------------------


def _weighted_parts(state, t, params: StabilityParams, sampler):
    """t^{alpha/2} ||u||_{q,inf,lam} and t^{gamma/2} ||theta||_{r,inf,lam}, with lam = n - p."""
    lam = params.lam(state.grid.n)
    pq = NormParams(p=params.q, q=math.inf, lam=lam)
    pr = NormParams(p=params.r, q=math.inf, lam=lam)
    return (
        t ** (params.alpha / 2.0) * morrey_lorentz_norm(state.u, pq, sampler),
        t ** (params.gamma / 2.0) * morrey_lorentz_norm(state.theta, pr, sampler),
    )


def weighted_trajectory_norm(traj: Trajectory, params: StabilityParams, sampler, stride=1):
    """H_{q,r} norm: sup-in-time product norm plus the weighted sup, on the balls of ``sampler``."""
    lam = params.lam(traj.grid.n)
    ctx = NormContext(NormParams(p=params.p, q=math.inf, lam=lam), sampler, time_stride=stride)
    base = trajectory_sup_norm(traj, ctx)
    weighted = 0.0
    for i in sup_time_indices(len(traj.times), stride):
        t = float(traj.times[i])
        if t <= 0:
            continue
        weighted = max(weighted, sum(_weighted_parts(traj.states[i], t, params, sampler)))
    return base + weighted


@dataclass
class WeightedBilinearReport:
    empirical_constant: float
    ratios: list
    printed_constants: tuple  # (C1, C2) context values, not asserted


def verify_weighted_bilinear(pairs, params: StabilityParams, sampler, stride=1):
    """Empirical K of ||B(a,b)||_{H_{q,r}} <= K ||a|| ||b|| over an ensemble, on ``sampler``."""
    if not pairs:
        raise ConfigError("verify_weighted_bilinear needs a nonempty ensemble")
    c1, c2 = weighted_bilinear_constants(params.p, params.q, params.r)
    lam = params.lam(pairs[0][0].grid.n)
    ctx = NormContext(NormParams(p=params.p, q=math.inf, lam=lam), sampler, time_stride=stride)
    ratios = []
    for a, b in pairs:
        na = weighted_trajectory_norm(a, params, sampler, stride)
        nb = weighted_trajectory_norm(b, params, sampler, stride)
        if na * nb == 0.0:
            continue
        eval_times = [float(t) for t in a.times[1::stride] if t > 0]
        # np.max, unlike max(), lets a NaN through in any order
        best = float(np.max([0.0] + [
            state_norm(B, ctx) + sum(_weighted_parts(B, t, params, sampler))
            for t, B in zip(eval_times, bilinear_path(a, b, eval_times))
        ]))
        ratios.append(best / (na * nb))
    k_emp = float(np.max(ratios)) if ratios else 0.0
    return WeightedBilinearReport(empirical_constant=k_emp, ratios=ratios, printed_constants=(c1, c2))


@dataclass
class SmallnessEntry:
    value: float
    satisfied: bool  # value < 1 where a contraction condition applies
    detail: str = ""


@dataclass
class SmallnessReport:
    expressions: dict
    constants: dict

    def text(self):
        lines = ["smallness report (empirical constants; torus surrogate)"]
        for name, entry in self.expressions.items():
            mark = "< 1 OK" if entry.satisfied else ">= 1 VIOLATED"
            lines.append(f"  {name} = {entry.value:.6g}  [{mark}]  {entry.detail}")
        for name, val in self.constants.items():
            lines.append(f"  constant {name} = {val:.6g}")
        return "\n".join(lines)


_REQUIRED_INPUTS = ("p", "b", "kappa", "K", "rho", "g_norm", "eta_sup", "Ff_norm")


def smallness_report(
    *,
    p=None,
    b=None,
    kappa=None,
    K=None,
    rho=None,
    g_norm=None,
    eta_sup=None,
    Ff_norm=None,
    q=None,
    r=None,
    K_w=None,
    sol_norm_w=None,
    g_minus_omega_norm=None,
):
    """Assemble the numeric analogues of the contraction conditions.

    Required: p, b, kappa, K (empirical bilinear constant), rho (ball
    radius), g_norm = |||g|||, eta_sup, Ff_norm; C, C2 and C1_lin are 1.  The
    weighted-stability expression is added when q, r, K_w, sol_norm_w and
    g_minus_omega_norm are all present.  Missing inputs are listed by name.
    """
    given = dict(p=p, b=b, kappa=kappa, K=K, rho=rho, g_norm=g_norm, eta_sup=eta_sup, Ff_norm=Ff_norm)
    missing = [name for name in _REQUIRED_INPUTS if given[name] is None]
    if missing:
        raise ConfigError(f"smallness report is missing inputs: {', '.join(missing)}")
    M = coupling_time_constant(p, b)
    C = C2 = C1_lin = 1.0
    constants = {"M (Beta integral)": M, "C (semigroup)": C, "C2 (smoothing)": C2}
    expressions = {}
    linear_bound = kappa * M * C2 * g_norm * eta_sup + C1_lin * Ff_norm
    expressions["linear_response_bound"] = SmallnessEntry(
        value=linear_bound, satisfied=True, detail="size bound, no threshold"
    )
    wellposed = 2.0 * rho * K + kappa * M * C2 * (C + 1.0) * g_norm
    expressions["wellposed_contraction"] = SmallnessEntry(
        value=wellposed, satisfied=wellposed < 1.0, detail="2 rho K + kappa M C2 (C+1) |||g|||"
    )
    if all(v is not None for v in (q, r, K_w, sol_norm_w, g_minus_omega_norm)):
        sp = StabilityParams(p=p, q=q, r=r, b=b)
        a = p / (2.0 * b)
        L = _beta_function(a - sp.gamma / 2.0, 1.0 - a + (sp.gamma - sp.alpha) / 2.0)
        M_stab = _beta_function(1.0 - sp.gamma / 2.0, 1.0 - a + (sp.gamma - sp.alpha) / 2.0)
        constants["L (weighted coupling)"] = L
        constants["M_stab (weighted coupling)"] = M_stab
        stab = 2.0 * K_w * sol_norm_w + K_w * rho + L * g_norm + M_stab * g_minus_omega_norm
        expressions["stability_contraction"] = SmallnessEntry(
            value=stab,
            satisfied=stab < 1.0,
            detail="2 K_w ||sol|| + K_w rho + L |||g||| + M |||g - omega|||",
        )
    return SmallnessReport(expressions=expressions, constants=constants)
