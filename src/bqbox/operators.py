"""Differential and projection operators realized as spectral multipliers.

All operators act mode-by-mode on the Fourier side: the heat semigroup is
exp(-t |2 pi k / L|^2), derivatives are i 2 pi k_j / L, and the Leray
projector removes the longitudinal part k (k . v_hat) / |k|^2 (identity at
k = 0, where constants are already divergence-free).  Everything is a pure
function of immutable fields.

The two nonlinear kernels of the mild-solution map live here, once:
:func:`advection_coeffs` (the bilinear term B, dealiased by the 2/3 rule)
and :func:`buoyancy_coeffs` (the coupling T_g).  The time steppers, the
prefix Duhamel paths and the frozen-nonlinearity periodic solver all call
them.  The advection kernel takes each divergence row straight
from the transformed products (for B(u, u) only the n(n+1)/2 distinct
products of u (x) u are transformed), through the real multiplier
(2 pi / L) K times the 2/3 mask and one exact turn by -i.  Given g, it
adds the coupling kappa dealias(theta g) before the single Leray
projection of the velocity row, so the full-mode right-hand side costs one
projection.  Both kernels return band rows (``GridSpec.band_shape``, the
2/3-rule band): the products are formed and transformed one at a time
by :func:`bqbox.grid.band_coeffs`, which visits only the lines the band keeps,
and the derivative and Leray multipliers are their band restrictions.
Callers add the rows into a half-spectrum state where they meet it
(``state[grid.band] += w * row``).
The multipliers (derivative, Leray, 2/3 mask, and their band restrictions)
are cached read-only on the ``GridSpec``, so they are built once per grid;
:func:`leray_coeffs` picks the half-spectrum or the band set by the shape
it is handed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DiagnosticsError, HypothesisError
from .grid import ScalarField, TensorField, VectorField, band_coeffs, forward_coeffs, inverse_values

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
    """div v = sum_j d_j v_j in coefficient space, accumulated over j."""
    ik = grid.ik
    out = ik[0] * vector_coeffs[0]
    for j in range(1, grid.n):
        out += ik[j] * vector_coeffs[j]
    return out


def tensor_div_coeffs(grid, tensor_coeffs):
    """(div F)_i = sum_j d_j F_ij in coefficient space, accumulated over j.

    Each step adds one (n, ...) column product, so the n^2 products
    ik_j F_ij never exist at once; the sum runs in the order of j, as
    ``np.sum(ik[None] * F, axis=1)`` does, and equals it bit for bit.
    """
    ik = grid.ik
    out = ik[0] * tensor_coeffs[:, 0]
    for j in range(1, grid.n):
        out += ik[j] * tensor_coeffs[:, j]
    return out


def leray_coeffs(grid, vector_coeffs):
    """v - K (K . v) / |K|^2 on the half spectrum, or on the band for a band-shaped row."""
    if vector_coeffs.shape[1:] == grid.band_shape:
        K, inv_k2 = grid.band_leray
    else:
        K, inv_k2 = grid.deriv_k, grid.deriv_k_inv_squared
    dot = np.sum(K * vector_coeffs, axis=0)
    return vector_coeffs - K * (dot * inv_k2)[np.newaxis]


def dealias_coeffs(grid, coeffs):
    return coeffs * grid.dealias_mask


def _symmetric_pairs(n):
    """Rows (i, j) of the n(n+1)/2 pairs i <= j, and the (n, n) map from (i, j) to its pair."""
    i, j = np.triu_indices(n)
    pair = np.empty((n, n), dtype=np.intp)
    pair[i, j] = pair[j, i] = np.arange(len(i))
    return i, j, pair


def _neg_dealiased_div(grid, columns, out=None):
    """-sum_j i k_j c_j on the band, for the n band-shaped arrays ``columns``.

    The real multiplier (2 pi / L) K is summed first and the sum is turned
    by -i once; both are exact, so this equals the band of -div(dealias(c)).
    """
    kd = grid.band_deriv
    out = np.multiply(kd[0], columns[0], out=out)
    for j in range(1, grid.n):
        out += kd[j] * columns[j]
    out *= -1j
    return out


def _band_products(grid, pairs):
    """``band_coeffs`` of each product a * b of the real arrays in ``pairs``, stacked.

    One product is formed and transformed at a time in one reused buffer, so
    no stack of products or of their ``rfft`` outputs exists; each line is
    transformed as in a stacked call, so the rows match it bit for bit.
    """
    rows = np.empty((len(pairs),) + grid.band_shape, dtype=complex)
    product = np.empty(grid.shape)
    for row, (a, b) in zip(rows, pairs):
        row[...] = band_coeffs(grid, np.multiply(a, b, out=product))
    return rows


def advection_coeffs(grid, u_a, u_b, th_b, g=None, kappa=0.0):
    """Band rows (-P div(u_a (x) u_b) [+ kappa P(theta_b g)], -div(u_a theta_b)) from real values.

    Products are dealiased by the 2/3 rule, so the rows are band-shaped
    (``grid.band_shape``) and equal the band of the full composition.  Each
    divergence row is read straight from the transformed products; when
    ``u_b is u_a`` only the n(n+1)/2 distinct products u_i u_j are
    transformed and row i reads T_ij = T_ji from them.  With ``g`` the
    coupling kappa dealias(theta_b g) joins the velocity row before its one
    Leray projection.  The mean of the velocity row is set to zero; only
    the coupling has one.  Without ``g`` the rows equal the band of the
    composition of the coefficient primitives above value for value.
    """
    n = grid.n
    if u_b is u_a:
        i, j, pair = _symmetric_pairs(n)
        uu_hat = _band_products(grid, [(u_a[a], u_a[b]) for a, b in zip(i, j)])
        tensor = [[uu_hat[pair[r, c]] for c in range(n)] for r in range(n)]
    else:
        tensor = _band_products(grid, [(a, b) for a in u_a for b in u_b])
        tensor = tensor.reshape((n, n) + grid.band_shape)
    vel = np.empty((n,) + grid.band_shape, dtype=complex)
    for r in range(n):
        _neg_dealiased_div(grid, tensor[r], out=vel[r])
    th_row = _neg_dealiased_div(grid, _band_products(grid, [(a, th_b) for a in u_a]))
    if g is not None:
        coupling = _band_products(grid, [(th_b, gj) for gj in g])
        coupling *= kappa
        vel += coupling
    vel = leray_coeffs(grid, vel)
    vel[(Ellipsis,) + (0,) * n] = 0.0
    return vel, th_row


def buoyancy_coeffs(grid, th, g, kappa):
    """Band row of the coupling kappa P(theta g) from real values, with its mean removed."""
    c = leray_coeffs(grid, _band_products(grid, [(th, gj) for gj in g]))
    c[(Ellipsis,) + (0,) * grid.n] = 0.0
    return kappa * c


# ---------------------------------------------------------------------------
# field-level operators
# ---------------------------------------------------------------------------


def _real_field(grid, coeffs, kind):
    return kind(grid, inverse_values(grid, coeffs))


def heat_semigroup(f, t):
    """exp(t Laplacian) applied to a scalar, vector, or tensor field."""
    factor = semigroup_factor(f.grid, t)
    coeffs = forward_coeffs(f.grid, f.values) * factor
    return _real_field(f.grid, coeffs, type(f))


def gradient(f: ScalarField) -> VectorField:
    coeffs = grad_coeffs(f.grid, forward_coeffs(f.grid, f.values))
    return _real_field(f.grid, coeffs, VectorField)


def leray_project(v: VectorField) -> VectorField:
    coeffs = leray_coeffs(v.grid, forward_coeffs(v.grid, v.values))
    return _real_field(v.grid, coeffs, VectorField)


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
