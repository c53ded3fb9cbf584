"""Periodic-box grids, field containers, and discrete Fourier transforms.

Every field lives on a uniform n-dimensional periodic grid with N points per
axis and box side L; grid point i carries coordinate i * L / N.  The forward
transform divides by N**n, so the k = 0 coefficient equals the field mean.

Fields are real, so their coefficients are Hermitian, c(-k) = conj(c(k)),
and half of them are redundant.  Every coefficient array holds only the
half spectrum, ``GridSpec.spectral_shape = (N,)*(n-1) + (N//2+1,)``: the
leading axes carry k_j in [-N/2, N/2) in FFT order, the last axis carries
k_last in [0, N/2].  The modes with k_last < 0 are the conjugates of the
stored interior planes 0 < k_last < N/2; the planes k_last = 0 and
k_last = N/2 are their own mirror, so Hermitian symmetry constrains only
them.  Parseval therefore weights the interior planes twice and the two
self-conjugate planes once:

    sum |values|^2 * cell_volume = L**n * sum_k w(k_last) |coeffs(k)|^2,
    w = 1 at k_last = 0 and N/2, w = 2 in between.

The forward transform is one ``rfftn`` over the grid axes (``rfft`` on
the last axis, then ``fft`` over the leading axes, ``norm="forward"``), and
the inverse is ``ifftn`` then ``irfft(n=N)``.  The inverse matches
``irfftn`` to roundoff, its leading axes taken in ``ifftn``'s order, at
about its speed, but not bit for bit, so it stays two calls.  Every Fourier
multiplier is built once per grid and is a function of |k|, k_j or k_j^2,
so it acts on the stored modes exactly as on the full spectrum.  The
functions of |k| (``k_squared``, ``deriv_k_inv_squared``, ``deriv_k_norm``,
``dealias_mask``) are dense arrays of the half shape.  A multiplier of one
k_j (``ik``, the Leray ``deriv_k``, their band restrictions ``band_deriv``
and the K of ``band_leray``) is a tuple of n read-only arrays, axis j's
numbers along axis j and length 1 on the others, which broadcast against
the coefficients; a sum over j is accumulated in the order of the axes, so
it equals ``np.sum`` of the stacked products over axis 0 bit for bit.  The
dense ``coordinates`` and ``wave_integers`` stacks are built on each read,
for set-up code; the per-axis ``coordinate_axes`` and ``wave_axes`` are
cached.

Nonlinear rows (advection, buoyancy, and the frozen and sampled rows made
from them) are dealiased by the 2/3 rule, so they vanish outside the band
|k_j| <= N//3 on every axis.  They are stored on the band alone,
``GridSpec.band_shape = (2 (N//3) + 1,)*(n-1) + (N//3 + 1,)`` (4851 of the
17408 half-spectrum modes at N = 32), with the band rows of each leading axis
in FFT order.  ``coeffs[grid.band]`` cuts a half-spectrum array to the band,
``full[grid.band] = row`` (or ``+=``) puts a row back (:func:`put_band`
writes it box by box, through views), ``off_band_blocks`` cover the modes
off the band, and :func:`band_coeffs` transforms products straight onto the
band, visiting only the lines it keeps.  The semigroup, the quadrature
weights and the Leray and derivative multipliers act per mode, so each has
a band restriction (``band_leray``, ``band_deriv``) that gives the band of
the full result bit for bit.

Fields are treated as immutable snapshots: operations return new containers
and never mutate the arrays they were handed.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import DiagnosticsError


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
    def spectral_shape(self):
        """Shape of a coefficient array: the half spectrum of the real transform."""
        return (self.N,) * (self.n - 1) + (self.N // 2 + 1,)

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
    def coordinate_axes(self):
        """Grid coordinates per axis: n arrays, axis j's coordinates along axis j."""
        return _along_axes([self.axis_coordinates] * self.n)

    @property
    def coordinates(self):
        """Meshgrid of coordinates, shape (n, N, ..., N), built on every read."""
        return np.stack(np.broadcast_arrays(*self.coordinate_axes))

    @cached_property
    def wave_axes(self):
        """Integer wave numbers per axis: n arrays, axis j's k_j along axis j.

        k_j in [-N/2, N/2) in FFT order on the leading axes, k_last in
        [0, N/2] on the last.
        """
        k1 = np.fft.fftfreq(self.N, d=1.0 / self.N).astype(np.int64)
        k_last = np.arange(self.N // 2 + 1, dtype=np.int64)
        return _along_axes([k1] * (self.n - 1) + [k_last])

    @property
    def wave_integers(self):
        """Integer wavevectors, shape (n,) + spectral_shape, built on every read."""
        return np.stack(np.broadcast_arrays(*self.wave_axes))

    @cached_property
    def k_squared(self):
        """|2*pi*k/L|^2, the (negated) Laplacian multiplier."""
        kk = [(2.0 * np.pi / self.L) * k for k in self.wave_axes]
        return _axis_sum(self.spectral_shape, [k * k for k in kk])

    @cached_property
    def dealias_mask(self):
        """Boolean 2/3-rule mask: keep modes with |k_j| <= N//3 on every axis."""
        cut = self.N // 3
        keep = np.ones(self.spectral_shape, dtype=bool)
        for axis_k in self.wave_axes:
            keep &= np.abs(axis_k) <= cut
        return keep

    @property
    def band_shape(self):
        """Shape of a nonlinear row: the 2/3-rule band of the half spectrum."""
        cut = self.N // 3
        return (2 * cut + 1,) * (self.n - 1) + (cut + 1,)

    @cached_property
    def band_rows(self):
        """Indices of a leading axis kept by the band, k_j = 0..N//3 then -N//3..-1."""
        cut = self.N // 3
        return _read_only(np.r_[0 : cut + 1, self.N - cut : self.N])

    @cached_property
    def band(self):
        """Index selecting the band: ``coeffs[grid.band]`` is the ``dealias_mask`` modes.

        An ``np.ix_`` index behind an Ellipsis, so it gathers from (and, as
        an assignment target, scatters into) arrays with any leading
        component axes; the result has trailing shape ``band_shape`` and
        keeps the FFT order, so band index 0 is k = 0.
        """
        lead = [self.band_rows] * (self.n - 1)
        return (Ellipsis,) + np.ix_(*lead, np.arange(self.N // 3 + 1))

    @cached_property
    def band_blocks(self):
        """The band as 2**(n-1) boxes of basic slices, (half-spectrum index, band index) each.

        Each leading axis keeps two runs, k_j >= 0 and k_j < 0; adding a band
        row box by box through views is the same elementwise update as
        through ``band``, without its gather and scatter copies.
        """
        cut = self.N // 3
        runs = ((slice(0, cut + 1), slice(0, cut + 1)),
                (slice(self.N - cut, None), slice(cut + 1, None)))
        return tuple(
            ((Ellipsis,) + tuple(full for full, _ in box) + (slice(0, cut + 1),),
             (Ellipsis,) + tuple(part for _, part in box) + (slice(None),))
            for box in itertools.product(runs, repeat=self.n - 1)
        )

    @cached_property
    def off_band_blocks(self):
        """n boxes of basic slices whose union is the half spectrum off the band.

        Box j holds the modes with |k_j| > N//3 on axis j, whatever the other
        axes hold; the boxes overlap, which a maximum does not mind.
        """
        cut = self.N // 3
        lead = slice(cut + 1, self.N - cut)
        return tuple(
            (Ellipsis,) + (slice(None),) * j + (lead if j < self.n - 1 else slice(cut + 1, None),)
            + (slice(None),) * (self.n - 1 - j)
            for j in range(self.n)
        )

    # Operator multipliers, built once per grid and shared read-only.  A
    # multiplier of k_j alone is a tuple of n per-axis arrays (axis j's numbers
    # along axis j, length 1 on the others), which broadcast against the
    # coefficients; only the functions of |k| are dense.

    @cached_property
    def deriv_k(self):
        """K per axis, as floats: the wave numbers with the unpaired Nyquist modes set to 0.

        The modes |k_j| = N/2 (k_j = -N/2 on a leading axis, k_last = N/2 on
        the last) have no partner, so they are zeroed for first derivatives
        and the Leray projector to stay Hermitian-consistent; see the
        standard spectral-differentiation convention.  The K of the Leray
        projector.
        """
        return _along_axes([np.where(np.abs(k) == self.N // 2, 0.0, k) for k in self.wave_axes])

    @cached_property
    def ik(self):
        """i * 2 pi K / L per axis: the first-derivative multiplier."""
        return tuple(_read_only((2j * np.pi / self.L) * K) for K in self.deriv_k)

    @cached_property
    def band_deriv(self):
        """(2 pi / L) K per axis on the band: the real part of a nonlinear row's derivative.

        Multiplying by it and then by i once gives the dealiased first
        derivative on the band; both steps are exact rearrangements of ``ik``
        times the 2/3 mask, so results match that product value for value.
        """
        return tuple(_read_only((2.0 * np.pi / self.L) * K) for K in self.band_leray[0])

    @cached_property
    def deriv_k_inv_squared(self):
        """1 / |K|^2, and 0 where K = 0."""
        k2 = _axis_sum(self.spectral_shape, [K * K for K in self.deriv_k])
        return _read_only(np.where(k2 > 0, 1.0 / np.where(k2 > 0, k2, 1.0), 0.0))

    @cached_property
    def band_leray(self):
        """(K per axis, 1 / |K|^2) on the band: the Leray multipliers of a nonlinear row."""
        lines = [K.ravel() for K in self.deriv_k]
        K = _along_axes([k[self.band_rows] for k in lines[:-1]] + [lines[-1][: self.N // 3 + 1]])
        return K, _read_only(self.deriv_k_inv_squared[self.band])

    @cached_property
    def deriv_k_norm(self):
        """|K|."""
        return _read_only(np.sqrt(_axis_sum(self.spectral_shape, [K * K for K in self.deriv_k])))


def torus_displacement(grid, center=None):
    """x - center wrapped into [-L/2, L/2) on each axis, shape (n,) + grid.shape.

    ``center`` holds one coordinate per axis and defaults to the box center.
    """
    c = np.full(grid.n, grid.L / 2.0) if center is None else np.reshape(center, (grid.n,))
    axes = [np.mod(x - cj + grid.L / 2.0, grid.L) - grid.L / 2.0
            for x, cj in zip(grid.coordinate_axes, c)]
    return np.stack(np.broadcast_arrays(*axes))


def _read_only(array):
    array.flags.writeable = False
    return array


def _along_axes(lines):
    """The 1-D arrays ``lines`` as read-only arrays, line j along axis j and of length 1 on the others."""
    n = len(lines)
    return tuple(_read_only(np.reshape(line, (1,) * j + (-1,) + (1,) * (n - 1 - j)))
                 for j, line in enumerate(lines))


def _axis_sum(shape, terms):
    """terms[0] + terms[1] + ... in that order, of ``shape``.

    Added one at a time, as ``np.sum(stack, axis=0)`` adds the rows of a
    stack, so it equals that sum of the broadcast terms bit for bit.
    """
    total = np.array(np.broadcast_to(terms[0], shape))
    for term in terms[1:]:
        total += term
    return total


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
        """Largest |u_j| or |theta| at a grid point; NaN if any value is."""
        return np.max([np.max(np.abs(self.u.values)), np.max(np.abs(self.theta.values))])

    def energy(self):
        """(1/2) int |u|^2 + theta^2 dx, summed over the grid points."""
        w = self.grid.cell_volume
        return 0.5 * w * float(np.sum(self.u.values**2) + np.sum(self.theta.values**2))


# ---------------------------------------------------------------------------
# transforms
# ---------------------------------------------------------------------------


def _leading_axes(grid):
    return tuple(range(-grid.n, -1))


def forward_coeffs(grid, values):
    """Half-spectrum DFT of a real array (any leading component axes), divided by N**n.

    One ``rfftn`` over the n grid axes.  The scaling happens inside the
    transform (``norm="forward"``); N is a power of two, so it is exact and
    equals dividing afterwards bit for bit.
    """
    return np.fft.rfftn(values, axes=tuple(range(-grid.n, 0)), norm="forward")


def band_coeffs(grid, values):
    """``forward_coeffs(grid, values)[grid.band]``, transforming only the lines the band keeps.

    ``rfft`` on the last axis keeps k_last <= N//3; then each leading axis,
    in the order ``rfftn`` takes them (axis -2, then -3), is copied to be the
    contiguous last axis, gets its own ``fft`` call there and is cut to the
    band rows before the next, so later transforms see only band lines and
    every transform reads contiguous lines.  Every line is the 1-D
    transform ``forward_coeffs`` makes of it, so the result equals its band
    bit for bit.  The result is a view with two axes swapped back, not a
    C-contiguous array.
    """
    coeffs = np.fft.rfft(values, axis=-1, norm="forward")[..., : grid.N // 3 + 1]
    for ax in reversed(_leading_axes(grid)):
        lines = np.ascontiguousarray(coeffs.swapaxes(ax, -1))
        coeffs = None  # the cut rfft output goes before the transform
        lines = np.fft.fft(lines, axis=-1, norm="forward")
        coeffs = np.take(lines, grid.band_rows, axis=-1).swapaxes(ax, -1)
    return coeffs


def put_band(grid, full, row):
    """Write the band-shaped ``row`` into the band of the half-spectrum array ``full``, box by box."""
    for full_box, band_box in grid.band_blocks:
        full[full_box] = row[band_box]


def scatter_band(grid, row):
    """The half-spectrum array that is the band-shaped ``row`` on the band and 0 off it."""
    full = np.zeros(row.shape[: row.ndim - grid.n] + grid.spectral_shape, dtype=complex)
    put_band(grid, full, row)
    return full


def inverse_values(grid, coeffs):
    """Inverse of :func:`forward_coeffs`: the real array of N points per axis.

    The imaginary parts that Hermitian symmetry forbids in the k_last = 0
    and N/2 planes are dropped by ``irfft``.
    """
    half = np.fft.ifftn(coeffs, axes=_leading_axes(grid), norm="forward")
    return np.fft.irfft(half, n=grid.N, axis=-1, norm="forward")


def spectral_divergence_residual(u):
    """Spectral divergence residual of a velocity field, relative to its peak.

    max over modes of |K . u_hat(K)| / (|K| max_K' |u_hat(K')|); 0 for the
    zero field.  Measuring every mode against the peak amplitude, not its
    own, keeps roundoff on modes decayed to near nothing from reading as
    divergence; a gradient field reads 1 at its largest mode.
    """
    grid = u.grid
    coeffs = forward_coeffs(grid, u.values)
    peak = np.sqrt(np.max(np.sum(np.abs(coeffs) ** 2, axis=0)))
    if peak == 0.0:
        return 0.0
    terms = [K * c for K, c in zip(grid.deriv_k, coeffs)]
    dot = np.abs(_axis_sum(grid.spectral_shape, terms))  # 0 wherever K = 0
    kmag = grid.deriv_k_norm
    np.divide(dot, kmag, out=dot, where=kmag > 0)
    return float(np.max(dot) / peak)


def zeros_like_state(grid):
    return State(
        VectorField(grid, np.zeros((grid.n,) + grid.shape)),
        ScalarField(grid, np.zeros(grid.shape)),
    )
