"""Periodic-box grids, field containers, and discrete Fourier transforms.

Every field lives on a uniform n-dimensional periodic grid with N points per
axis and box side L; grid point i carries coordinate i * L / N.  The forward
transform divides by N**n, so the k = 0 coefficient equals the field mean and
Parseval reads  sum |values|^2 * cell_volume = L**n * sum |coeffs|^2.
Wavevectors are integer-indexed with k_j in [-N/2, N/2).

Fields are treated as immutable snapshots: operations return new containers
and never mutate the arrays they were handed.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import DiagnosticsError

HERMITIAN_TOL = 1e-10
DIVERGENCE_TOL = 1e-10


@dataclass(frozen=True)
class GridSpec:
    """Uniform periodic grid: n dimensions, N points per axis, box side L."""

    n: int
    N: int
    L: float

    def __post_init__(self):
        if self.n not in (2, 3):
            raise DiagnosticsError(f"grid dimension must be 2 or 3, got {self.n}")
        if self.N < 8 or (self.N & (self.N - 1)) != 0:
            raise DiagnosticsError(f"N must be a power of two >= 8, got {self.N}")
        if not (np.isfinite(self.L) and self.L > 0):
            raise DiagnosticsError(f"box side L must be positive and finite, got {self.L}")

    @property
    def shape(self):
        return (self.N,) * self.n

    @property
    def cell_volume(self):
        return (self.L / self.N) ** self.n

    @property
    def cell_size(self):
        return self.L / self.N

    @cached_property
    def axis_coordinates(self):
        return np.arange(self.N) * (self.L / self.N)

    @cached_property
    def coordinates(self):
        """Meshgrid of coordinates, shape (n, N, ..., N)."""
        axes = np.meshgrid(*([self.axis_coordinates] * self.n), indexing="ij")
        return np.stack(axes)

    @cached_property
    def wave_integers(self):
        """Integer wavevectors, shape (n, N, ..., N), k_j in [-N/2, N/2)."""
        k1 = np.fft.fftfreq(self.N, d=1.0 / self.N).astype(np.int64)
        axes = np.meshgrid(*([k1] * self.n), indexing="ij")
        return np.stack(axes)

    @cached_property
    def deriv_wave_integers(self):
        """Wavevectors for odd (derivative-type) multipliers.

        The unpaired Nyquist mode k_j = -N/2 is set to zero so first
        derivatives and the Leray projector stay Hermitian-consistent;
        see the standard spectral-differentiation convention.
        """
        k = self.wave_integers.copy()
        k[k == -self.N // 2] = 0
        return k

    @cached_property
    def wavevectors(self):
        """Physical wavevectors 2*pi*k/L."""
        return (2.0 * np.pi / self.L) * self.wave_integers

    @cached_property
    def k_squared(self):
        """|2*pi*k/L|^2, the (negated) Laplacian multiplier."""
        kk = self.wavevectors
        return np.sum(kk * kk, axis=0)

    @cached_property
    def spectral_gap(self):
        """Smallest nonzero eigenvalue of -Laplacian: (2*pi/L)**2."""
        return (2.0 * np.pi / self.L) ** 2

    @cached_property
    def dealias_mask(self):
        """Boolean 2/3-rule mask: keep modes with |k_j| <= N//3 on every axis."""
        cut = self.N // 3
        keep = np.ones(self.shape, dtype=bool)
        for axis_k in self.wave_integers:
            keep &= np.abs(axis_k) <= cut
        return keep

    # Operator multipliers, built once per grid and shared read-only.

    @cached_property
    def ik(self):
        """i * 2 pi k / L per axis (Nyquist zeroed): the first-derivative multiplier."""
        return _read_only((2j * np.pi / self.L) * self.deriv_wave_integers)

    @cached_property
    def deriv_k(self):
        """deriv_wave_integers as floats: the K of the Leray projector."""
        return _read_only(self.deriv_wave_integers.astype(float))

    @cached_property
    def deriv_k_inv_squared(self):
        """1 / |K|^2, and 0 where K = 0."""
        k2 = np.sum(self.deriv_k * self.deriv_k, axis=0)
        return _read_only(np.where(k2 > 0, 1.0 / np.where(k2 > 0, k2, 1.0), 0.0))

    @cached_property
    def deriv_k_norm(self):
        """|K|."""
        return _read_only(np.sqrt(np.sum(self.deriv_k * self.deriv_k, axis=0)))


def _read_only(array):
    array.flags.writeable = False
    return array


@dataclass(frozen=True)
class ScalarField:
    grid: GridSpec
    values: np.ndarray

    def __post_init__(self):
        if self.values.shape != self.grid.shape:
            raise DiagnosticsError(
                f"scalar values shape {self.values.shape} != grid shape {self.grid.shape}"
            )


@dataclass(frozen=True)
class VectorField:
    grid: GridSpec
    values: np.ndarray  # shape (n, N, ..., N)

    def __post_init__(self):
        if self.values.shape != (self.grid.n,) + self.grid.shape:
            raise DiagnosticsError(
                f"vector values shape {self.values.shape} incompatible with grid"
            )

    def component(self, i):
        return ScalarField(self.grid, self.values[i])

    @property
    def magnitude(self):
        """Pointwise Euclidean magnitude as a ScalarField."""
        return ScalarField(self.grid, np.sqrt(np.sum(self.values**2, axis=0)))


@dataclass(frozen=True)
class TensorField:
    grid: GridSpec
    values: np.ndarray  # shape (n, n, N, ..., N)

    def __post_init__(self):
        n = self.grid.n
        if self.values.shape != (n, n) + self.grid.shape:
            raise DiagnosticsError(
                f"tensor values shape {self.values.shape} incompatible with grid"
            )

    @property
    def magnitude(self):
        """Pointwise Frobenius magnitude as a ScalarField."""
        n = self.grid.n
        flat = self.values.reshape((n * n,) + self.grid.shape)
        return ScalarField(self.grid, np.sqrt(np.sum(flat**2, axis=0)))


@dataclass(frozen=True)
class SpectralField:
    """Fourier coefficients of a real field.

    ``coeffs`` has the same trailing shape as the grid; leading axes carry
    vector/tensor components.  coeff(0) is the mean of the field.
    """

    grid: GridSpec
    coeffs: np.ndarray

    def __post_init__(self):
        sh = self.coeffs.shape
        gsh = self.grid.shape
        if sh[-self.grid.n :] != gsh or len(sh) - self.grid.n not in (0, 1, 2):
            raise DiagnosticsError(
                f"spectral coeffs shape {sh} incompatible with grid shape {gsh}"
            )


@dataclass(frozen=True)
class State:
    """The unknown pair: divergence-free velocity u and temperature theta."""

    u: VectorField
    theta: ScalarField

    def __post_init__(self):
        if self.u.grid != self.theta.grid:
            raise DiagnosticsError("velocity and temperature live on different grids")

    @property
    def grid(self):
        return self.u.grid

    def max_norm(self):
        return max(np.max(np.abs(self.u.values)), np.max(np.abs(self.theta.values)))


# ---------------------------------------------------------------------------
# transforms
# ---------------------------------------------------------------------------


def _fft_axes(grid):
    return tuple(range(-grid.n, 0))


def forward_coeffs(grid, values):
    """Raw forward DFT of a real array (any leading component axes)."""
    return np.fft.fftn(values, axes=_fft_axes(grid)) / float(grid.N**grid.n)


def inverse_values(grid, coeffs):
    """Inverse of :func:`forward_coeffs`, returning the complex array."""
    return np.fft.ifftn(coeffs * float(grid.N**grid.n), axes=_fft_axes(grid))


def forward_transform(field):
    """Forward DFT of a Scalar/Vector/TensorField, normalized by N**n."""
    if not np.all(np.isfinite(field.values)):
        raise DiagnosticsError("forward transform rejected non-finite field values")
    return SpectralField(field.grid, forward_coeffs(field.grid, field.values))


def hermitian_defect(spec):
    """Worst relative violation of coeff(-k) == conj(coeff(k)).

    Returns (defect, worst_wavevector).  The defect is measured relative to
    the largest coefficient magnitude (0 for the zero field).
    """
    grid = spec.grid
    c = spec.coeffs
    mirrored = c
    for ax in _fft_axes(grid):
        mirrored = np.roll(np.flip(mirrored, axis=ax), 1, axis=ax)
    diff = np.abs(c - np.conj(mirrored))
    scale = np.max(np.abs(c))
    if scale == 0.0:
        return 0.0, (0,) * grid.n
    flat = int(np.argmax(diff))
    idx = np.unravel_index(flat, diff.shape)[-grid.n :]
    worst_k = tuple(int(grid.wave_integers[(j,) + idx]) for j in range(grid.n))
    return float(np.max(diff) / scale), worst_k


def inverse_transform(spec):
    """Inverse DFT back to a real field; rejects broken Hermitian symmetry."""
    grid = spec.grid
    defect, worst_k = hermitian_defect(spec)
    if defect > HERMITIAN_TOL:
        raise DiagnosticsError(
            f"Hermitian symmetry violated (relative defect {defect:.3e} "
            f"at wavevector {worst_k})"
        )
    complex_values = inverse_values(grid, spec.coeffs)
    values = complex_values.real
    scale = np.max(np.abs(values))
    imag = np.max(np.abs(complex_values.imag))
    if scale > 0 and imag > HERMITIAN_TOL * scale:
        raise DiagnosticsError(
            f"imaginary residue {imag:.3e} exceeds {HERMITIAN_TOL} of field magnitude"
        )
    ncomp = spec.coeffs.ndim - grid.n
    if ncomp == 0:
        return ScalarField(grid, values)
    if ncomp == 1:
        return VectorField(grid, values)
    return TensorField(grid, values)


def spectral_divergence_residual(u, coeffs=None):
    """Relative spectral divergence residual of a velocity field.

    max over modes of |k . u_hat(k)| / (|k| |u_hat(k)|), restricted to modes
    carrying at least 1e-13 of the peak amplitude; 0 for the zero field.
    """
    grid = u.grid if coeffs is None else u
    if coeffs is None:
        coeffs = forward_coeffs(grid, u.values)
    dot = np.abs(np.sum(grid.deriv_k * coeffs, axis=0))
    kmag = grid.deriv_k_norm
    amp = np.sqrt(np.sum(np.abs(coeffs) ** 2, axis=0))
    peak = np.max(amp)
    if peak == 0.0:
        return 0.0
    mask = (kmag > 0) & (amp > 1e-13 * peak)
    if not np.any(mask):
        return 0.0
    return float(np.max(dot[mask] / (kmag[mask] * amp[mask])))


def state_divergence_residual(state):
    return spectral_divergence_residual(state.u)


def zeros_like_state(grid):
    return State(
        VectorField(grid, np.zeros((grid.n,) + grid.shape)),
        ScalarField(grid, np.zeros(grid.shape)),
    )
