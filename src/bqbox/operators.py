"""Differential and projection operators realized as spectral multipliers.

All operators act mode-by-mode on the Fourier side: the heat semigroup is
exp(-t |2 pi k / L|^2), derivatives are i 2 pi k_j / L, and the Leray
projector removes the longitudinal part k (k . v_hat) / |k|^2 (identity at
k = 0, where constants are already divergence-free).  Everything is a pure
function of immutable fields.

The two nonlinear kernels of the mild-solution map live here, once:
:func:`advection_coeffs` (the bilinear term B, dealiased by the 2/3 rule)
and :func:`buoyancy_coeffs` (the coupling T_g).  The time steppers, the
standalone Duhamel increments and the frozen-nonlinearity periodic solver
all call them.  The multipliers (derivative, Leray, 2/3 mask) are cached
read-only on the ``GridSpec``, so they are built once per grid.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DiagnosticsError, HypothesisError
from .grid import (
    ScalarField,
    SpectralField,
    TensorField,
    VectorField,
    forward_coeffs,
    inverse_values,
)

# ---------------------------------------------------------------------------
# coefficient-space primitives (shared with the time steppers)
# ---------------------------------------------------------------------------


def semigroup_factor(grid, t):
    if t < 0 or not np.isfinite(t):
        raise DiagnosticsError(f"heat semigroup needs t >= 0, got {t}")
    return np.exp(-t * grid.k_squared)


def grad_coeffs(grid, scalar_coeffs):
    return grid.ik * scalar_coeffs[np.newaxis]


def div_coeffs(grid, vector_coeffs):
    return np.sum(grid.ik * vector_coeffs, axis=0)


def tensor_div_coeffs(grid, tensor_coeffs):
    """(div F)_i = sum_j d_j F_ij in coefficient space."""
    return np.sum(grid.ik[np.newaxis, :] * tensor_coeffs, axis=1)


def leray_coeffs(grid, vector_coeffs):
    K = grid.deriv_k
    dot = np.sum(K * vector_coeffs, axis=0)
    return vector_coeffs - K * (dot * grid.deriv_k_inv_squared)[np.newaxis]


def dealias_coeffs(grid, coeffs):
    return coeffs * grid.dealias_mask


def advection_coeffs(grid, u_a, u_b, th_b):
    """Advective rows (-P div(u_a (x) u_b), -div(u_a theta_b)) from real values.

    Both products are dealiased before the divergence is taken.
    """
    uu_hat = dealias_coeffs(grid, forward_coeffs(grid, u_a[:, np.newaxis] * u_b[np.newaxis, :]))
    vel = -leray_coeffs(grid, tensor_div_coeffs(grid, uu_hat))
    mix = dealias_coeffs(grid, forward_coeffs(grid, u_a * th_b[np.newaxis]))
    return vel, -div_coeffs(grid, mix)


def buoyancy_coeffs(grid, th, g, kappa):
    """Coupling row kappa P(theta g) from real values, dealiased, with its mean removed."""
    c = leray_coeffs(grid, dealias_coeffs(grid, forward_coeffs(grid, th[np.newaxis] * g)))
    c[(Ellipsis,) + (0,) * grid.n] = 0.0
    return kappa * c


# ---------------------------------------------------------------------------
# field-level operators
# ---------------------------------------------------------------------------


def _real_field(grid, coeffs, kind):
    values = inverse_values(grid, coeffs).real
    return kind(grid, values)


def heat_semigroup(f, t):
    """exp(t Laplacian) applied to a scalar, vector, or tensor field."""
    factor = semigroup_factor(f.grid, t)
    coeffs = forward_coeffs(f.grid, f.values) * factor
    return _real_field(f.grid, coeffs, type(f))


def gradient(f: ScalarField) -> VectorField:
    coeffs = grad_coeffs(f.grid, forward_coeffs(f.grid, f.values))
    return _real_field(f.grid, coeffs, VectorField)


def divergence(v: VectorField) -> ScalarField:
    coeffs = div_coeffs(v.grid, forward_coeffs(v.grid, v.values))
    return _real_field(v.grid, coeffs, ScalarField)


def tensor_divergence(F: TensorField) -> VectorField:
    coeffs = tensor_div_coeffs(F.grid, forward_coeffs(F.grid, F.values))
    return _real_field(F.grid, coeffs, VectorField)


def leray_project(v: VectorField) -> VectorField:
    coeffs = leray_coeffs(v.grid, forward_coeffs(v.grid, v.values))
    return _real_field(v.grid, coeffs, VectorField)


def dealias(f):
    """2/3-rule truncation of a field (or SpectralField)."""
    if isinstance(f, SpectralField):
        return SpectralField(f.grid, dealias_coeffs(f.grid, f.coeffs))
    coeffs = dealias_coeffs(f.grid, forward_coeffs(f.grid, f.values))
    return _real_field(f.grid, coeffs, type(f))


def pointwise_product(a, b):
    """Pointwise product in real space: scalar*scalar, scalar*vector, u (x) v.

    Returned raw (not dealiased): truncation belongs to the next spectral
    use of the product.
    """
    if a.grid != b.grid:
        raise DiagnosticsError("pointwise product needs both fields on one grid")
    if isinstance(a, ScalarField) and isinstance(b, ScalarField):
        return ScalarField(a.grid, a.values * b.values)
    if isinstance(a, ScalarField) and isinstance(b, VectorField):
        return VectorField(a.grid, a.values[np.newaxis] * b.values)
    if isinstance(a, VectorField) and isinstance(b, ScalarField):
        return VectorField(a.grid, a.values * b.values[np.newaxis])
    if isinstance(a, VectorField) and isinstance(b, VectorField):
        outer = a.values[:, np.newaxis] * b.values[np.newaxis, :]
        return TensorField(a.grid, outer)
    raise DiagnosticsError(
        f"unsupported product operands: {type(a).__name__} * {type(b).__name__}"
    )


# ---------------------------------------------------------------------------
# smoothing-decay diagnostic
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SemigroupQuery:
    """A heat-semigroup evaluation point: time t >= 0 and derivative order m."""

    t: float
    m: int = 0

    def __post_init__(self):
        if not (np.isfinite(self.t) and self.t >= 0):
            raise DiagnosticsError(f"semigroup time must be finite and >= 0, got {self.t}")
        if self.m not in (0, 1):
            raise HypothesisError(f"derivative order must be 0 or 1, got {self.m}")


@dataclass
class DispersiveReport:
    """Weighted decay ratios of the heat semigroup between two norm settings."""

    rows: list  # (t, lhs_norm, weight, ratio)
    max_ratio: float
    exceeded: bool
    note: str = ""

    def csv_rows(self):
        return [(t, lhs, w, r) for (t, lhs, w, r) in self.rows]


def verify_dispersive(phi, from_params, to_params, m, t_grid, sampler, bound=None):
    """Measure r(t) = ||grad^m e^{t Lap} phi||_to * t^w / ||phi||_from.

    The weight exponent is w = m/2 + (tau_from - tau_to)/2 with
    tau = (n - lambda)/p.  Parameter constraints checked up front:
    tau_to <= tau_from, and lambda_from == lambda_to whenever p_from <= p_to.
    On the torus r(t) -> 0 for large t (spectral gap), so ``bound`` is a
    ceiling check rather than an asserted constant.
    """
    from .norms import morrey_lorentz_norm  # local import keeps layering acyclic

    SemigroupQuery(t=0.0, m=m)  # validates the derivative order
    grid = phi.grid
    n = grid.n
    tau_from = (n - from_params.lam) / from_params.p
    tau_to = (n - to_params.lam) / to_params.p
    if tau_to > tau_from + 1e-12:
        raise HypothesisError(
            f"need tau_to <= tau_from, got tau_to={tau_to:.6g} > tau_from={tau_from:.6g}"
        )
    if from_params.p <= to_params.p and abs(from_params.lam - to_params.lam) > 1e-12:
        raise HypothesisError(
            "need lambda_from == lambda_to when p_from <= p_to "
            f"(got {from_params.lam} vs {to_params.lam})"
        )
    if not (to_params.q >= from_params.q):
        raise HypothesisError(
            f"need q_to >= q_from, got {to_params.q} < {from_params.q}"
        )

    denom = morrey_lorentz_norm(phi, from_params, sampler)
    exponent = 0.5 * m + 0.5 * (tau_from - tau_to)
    rows = []
    for t in t_grid:
        evolved = heat_semigroup(phi, float(t))
        if m == 1:
            if isinstance(evolved, ScalarField):
                evolved = gradient(evolved)
            else:
                raise HypothesisError("derivative order 1 is implemented for scalar inputs")
        lhs = morrey_lorentz_norm(evolved, to_params, sampler)
        weight = float(t) ** exponent if t > 0 else (1.0 if exponent == 0 else 0.0)
        ratio = lhs * weight / denom if denom > 0 else 0.0
        rows.append((float(t), lhs, weight, ratio))
    max_ratio = max((r for (_, _, _, r) in rows), default=0.0)
    exceeded = bound is not None and max_ratio > bound
    note = "torus surrogate: ratios decay exponentially at large t (spectral gap)"
    if grid.n == 2:
        note += "; n=2 run is outside the n>=3 hypotheses"
    return DispersiveReport(rows=rows, max_ratio=max_ratio, exceeded=exceeded, note=note)
