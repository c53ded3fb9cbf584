"""Initial-data and forcing-pattern presets on the periodic box."""

from __future__ import annotations

import inspect

import numpy as np

from .errors import ConfigError
from .grid import (ScalarField, TensorField, VectorField, forward_coeffs, inverse_values,
                   torus_displacement)
from .norms import gaussian_profile
from .operators import dealias_coeffs, leray_coeffs


def taylor_green(grid, amplitude=1.0):
    """Classical Taylor-Green vortex; analytically divergence-free."""
    X = 2.0 * np.pi * grid.coordinates / grid.L
    u = np.zeros((grid.n,) + grid.shape)
    if grid.n == 2:
        u[0] = np.sin(X[0]) * np.cos(X[1])
        u[1] = -np.cos(X[0]) * np.sin(X[1])
    else:
        u[0] = np.sin(X[0]) * np.cos(X[1]) * np.cos(X[2])
        u[1] = -np.cos(X[0]) * np.sin(X[1]) * np.cos(X[2])
    return VectorField(grid, amplitude * u)


def gaussian_bump(grid, sigma, amplitude=1.0, center=None):
    return gaussian_profile(grid, sigma=sigma, amplitude=amplitude, center=center)


def _rng(seed):
    # Philox is counter-based: one u64 seed fixes the whole stream.
    return np.random.Generator(np.random.Philox(seed))


def _random_smooth_coeffs(grid, rng, exponent, ncomp):
    """Seeded band-limited coefficients with spectrum |k|^(-exponent)."""
    shape = ((ncomp,) if ncomp else ()) + grid.shape
    white = rng.standard_normal(shape)
    coeffs = forward_coeffs(grid, white)
    kmag = np.sqrt(np.sum(grid.wave_integers.astype(float) ** 2, axis=0))
    scale = np.where(kmag > 0, kmag, 1.0) ** (-float(exponent))
    scale = np.where(kmag > 0, scale, 0.0)  # zero mean
    coeffs = coeffs * scale
    return dealias_coeffs(grid, coeffs)


def _peak_scaled(grid, coeffs, amplitude):
    """Real values of ``coeffs``, scaled so that their largest magnitude is ``amplitude``."""
    values = inverse_values(grid, coeffs)
    peak = np.max(np.abs(values))
    if peak > 0:
        values = values * (amplitude / peak)
    return values


def random_div_free(grid, seed, exponent=2.0, amplitude=1.0):
    """Seeded divergence-free velocity with spectrum |k|^(-exponent).

    Bit-identical for identical (grid, seed, exponent, amplitude).
    """
    coeffs = _random_smooth_coeffs(grid, _rng(seed), exponent, grid.n)
    return VectorField(grid, _peak_scaled(grid, leray_coeffs(grid, coeffs), amplitude))


def random_smooth_scalar(grid, seed, exponent=2.0, amplitude=1.0):
    coeffs = _random_smooth_coeffs(grid, _rng(seed), exponent, 0)
    return ScalarField(grid, _peak_scaled(grid, coeffs, amplitude))


def random_smooth_vector(grid, seed, exponent=2.0, amplitude=1.0):
    coeffs = _random_smooth_coeffs(grid, _rng(seed), exponent, grid.n)
    return VectorField(grid, _peak_scaled(grid, coeffs, amplitude))


def random_smooth_tensor(grid, seed, exponent=2.0, amplitude=1.0):
    n = grid.n
    coeffs = _random_smooth_coeffs(grid, _rng(seed), exponent, n * n)
    values = _peak_scaled(grid, coeffs, amplitude)
    return TensorField(grid, values.reshape((n, n) + grid.shape))


def single_mode_scalar(grid, k, amplitude=1.0):
    """amplitude * cos(2 pi k . x / L) for an integer wavevector k."""
    phase = np.zeros(grid.shape)
    for j, kj in enumerate(k):
        phase = phase + 2.0 * np.pi * kj * grid.coordinate_axes[j] / grid.L
    return ScalarField(grid, amplitude * np.cos(phase))


def single_mode_vector(grid, k, component=0, amplitude=1.0):
    """A single cosine mode placed in one velocity component."""
    values = np.zeros((grid.n,) + grid.shape)
    values[component] = single_mode_scalar(grid, k, amplitude).values
    return VectorField(grid, values)


def single_mode_tensor(grid, k, row=0, col=0, amplitude=1.0):
    values = np.zeros((grid.n, grid.n) + grid.shape)
    values[row, col] = single_mode_scalar(grid, k, amplitude).values
    return TensorField(grid, values)


def gravity_field(grid, G=1.0, soft_cells=2.0):
    """Inverse-square attraction toward the box center, mollified at the core.

    g(x) = G * d / (|d|^2 + r_m^2)^{3/2} with d the signed displacement to
    the center and r_m = soft_cells * cell.  Finite everywhere and odd under
    central reflection away from the wrap plane.
    """
    rm = soft_cells * grid.cell_size
    d = torus_displacement(grid)
    r2 = np.sum(d * d, axis=0)
    return VectorField(grid, G * d / (r2 + rm * rm) ** 1.5)


_PRESETS = {
    "taylor-green": taylor_green,
    "gaussian-bump": gaussian_bump,
    "random-div-free": random_div_free,
    "gravity": gravity_field,
    "random-scalar": random_smooth_scalar,
    "random-vector": random_smooth_vector,
    "random-tensor": random_smooth_tensor,
    "single-mode": single_mode_scalar,
    "single-mode-vector": single_mode_vector,
    "single-mode-tensor": single_mode_tensor,
}


def make_preset(name, grid, params=None):
    """Build a named preset field; unknown names, missing params and non-finite values fail.

    A preset takes the parameters of its builder after ``grid``, and requires
    those without a default.
    """
    params = dict(params or {})
    if name not in _PRESETS:
        raise ConfigError(f"unknown preset {name!r}; known: {sorted(_PRESETS)}")
    fn = _PRESETS[name]
    accepted = list(inspect.signature(fn).parameters.values())[1:]
    for par in accepted:
        if par.default is par.empty and par.name not in params:
            raise ConfigError(f"preset {name!r} is missing required parameter {par.name!r}")
    names = {par.name for par in accepted}
    for key in params:
        if key not in names:
            raise ConfigError(f"preset {name!r} does not take parameter {key!r}")
    # a degenerate parameter (sigma = 0, soft_cells = 0) divides by zero: refused below
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        field = fn(grid, **params)
    if not np.all(np.isfinite(field.values)):
        raise ConfigError(f"preset {name!r} with parameters {params} has non-finite values")
    return field
