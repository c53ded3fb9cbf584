r"""Lorentz and Morrey-Lorentz norms via decreasing rearrangement.

The Lorentz functional is built from the averaged rearrangement
f**(t) = (1/t) int_0^t f*(s) ds of the decreasing rearrangement f*:

    ||f||_{p,q} = [ int_0^inf (t^{1/p} f**(t))^q dt/t ]^{1/q}     (q < inf)
    ||f||_{p,inf} = sup_t t^{1/p} f**(t)

On the grid f* is a step function over cells of equal measure w, so f** is
piecewise  (A + v t)/t  and the q < inf integral is evaluated segment by
segment: in closed form where A or v vanishes (this covers indicator fields
exactly) and by Gauss-Legendre quadrature elsewhere, with the analytic tail
beyond the total measure added in closed form.

The Morrey-Lorentz norm localizes this over balls:

    ||f||_{p,q,lam} = sup_{x0, rho} rho^{-lam/p} ||f||_{L^{p,q}(D(x0, rho))}

with balls taken in the torus metric.  The sup is lower-bounded by a
stratified sampler (grid-aligned centers x geometric radius ladder); the
estimate is monotone under sampler refinement.  For lam = 0 the whole box is
included as a candidate region, where the sup is exact.

The ball scan never reduces indices modulo N.  |f| is padded periodically
once per table, by the largest integer reach of any ball on the radius
ladder (at most N/2, since rho <= L/2); a ball is then a fixed set of
non-negative flat offsets into the padded array, cached per radius and
taken from the corner of the padded cube around a center, and a center is
the flat index of that corner.  The offsets of every radius are read off
one min-image distance table, built once per grid.  Each (radius, chunk of
centers) task gathers ``padded[start:][offset]`` for at most
``_GATHER_CHUNK_VALUES`` values into a scan buffer reused for every task.
The gather fills the buffer a center at a time, so neither an index array
of the chunk nor a shifted copy of the offsets is built; the q = inf rows
are then sorted in place, reduced by an in-place prefix sum and scaled by
cached weights.  The sorted values of a ball do not depend on the gather
order, so the table is the same, bit for bit, as that of a modulo gather.

Tasks are independent, so the table hands them to workers, largest first:
the calling thread and up to W - 1 threads, joined before the table
returns or raises, with W the CPUs this process may run on, capped by the
number of tasks and by the scan's shared 8 MiB budget (``_SCAN_VALUES``),
which holds one buffer per worker.  numpy releases the interpreter lock in
the gather, the sort and the products, so the workers overlap there; its
prefix sum and row maxima hold the lock (numpy 2.4), so those take turns.
Rows come back in task order and each is computed as on one
thread, so the table is the same bit for bit for any number of workers.
A table of no more values than the budget stays on the calling thread.
The scan thus holds the padded field and at most 8 MiB of buffers,
whatever the ball size or the CPU count; |f| itself is dropped once it is
padded.

Norm evaluations are pure functions of immutable fields; individual ball
evaluations are independent and the final sup is an associative reduction,
so callers may parallelize freely.
"""

from __future__ import annotations

import os
import threading
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import DiagnosticsError, HypothesisError
from .grid import ScalarField, State, TensorField, VectorField, torus_displacement

INF = float("inf")


@dataclass(frozen=True)
class NormParams:
    """A Morrey-Lorentz index triple (p, q, lam); q defaults to infinity."""

    p: float
    q: float = INF
    lam: float = 0.0

    def __post_init__(self):
        if not self.p > 1:
            raise HypothesisError(f"primary exponent p must exceed 1, got {self.p}")
        if not self.q >= 1:
            raise HypothesisError(f"secondary exponent q must be >= 1, got {self.q}")
        if self.p == INF and self.q != INF:
            raise HypothesisError("q must be infinity when p is infinity")
        if self.lam < 0:
            raise HypothesisError(f"Morrey exponent lam must be >= 0, got {self.lam}")

    @classmethod
    def critical(cls, p, n):
        """The critical pairing (p, inf, n - p) in dimension n; requires 2 < p <= n."""
        if not 2.0 < p <= n:
            raise HypothesisError(f'hypothesis "2 < p <= n" violated (p = {p}, n = {n})')
        return cls(p=p, q=INF, lam=n - p)

    def tau(self, n):
        """Scaling exponent tau = (n - lam)/p."""
        if self.lam >= n:
            raise HypothesisError(f"need lam < n, got lam={self.lam} with n={n}")
        return (n - self.lam) / self.p


@dataclass(frozen=True)
class TimeWeightParams:
    """Weight t^beta with beta = 1 - p/(2b); requires b > p/2 so beta in (0,1)."""

    p: float
    b: float

    def __post_init__(self):
        if not self.b > self.p / 2:
            raise HypothesisError(f"need b > p/2, got b={self.b}, p={self.p}")

    @property
    def beta(self):
        return 1.0 - self.p / (2.0 * self.b)


@dataclass(frozen=True)
class BallSampler:
    """Stratified sampling of ball centers and radii for the Morrey sup.

    Centers are grid-aligned, one per stratum (optionally jittered inside
    the stratum by a seeded counter-based generator).  Radii form a
    geometric ladder in [2*cell, L/2] unless given explicitly.
    """

    num_centers: int = 64
    num_radii: int = 12
    rho_min: float | None = None
    rho_max: float | None = None
    radii_list: tuple | None = None
    jitter_seed: int | None = None

    def __post_init__(self):
        if not self.num_centers >= 1:
            raise DiagnosticsError(f"the sampler needs at least one center, got {self.num_centers}")

    def radii(self, grid):
        if self.radii_list is not None:
            radii = np.asarray(self.radii_list, dtype=float)
        else:
            lo = self.rho_min if self.rho_min is not None else 2.0 * grid.cell_size
            hi = self.rho_max if self.rho_max is not None else grid.L / 2.0
            if not (lo > 0 and hi > 0):
                raise DiagnosticsError("ball radii must be positive")
            if self.num_radii == 1:
                radii = np.array([hi])
            else:
                radii = lo * (hi / lo) ** (np.arange(self.num_radii) / (self.num_radii - 1))
        if radii.size == 0:
            raise DiagnosticsError("the sampler needs at least one ball radius")
        if not np.all(radii > 0):
            raise DiagnosticsError("ball radii must be positive")
        if np.max(radii) > grid.L / 2.0 + 1e-12:
            raise DiagnosticsError(
                f"largest ball radius {np.max(radii):.6g} exceeds L/2 = {grid.L / 2:.6g}"
            )
        return radii

    def centers(self, grid):
        """Array of center grid indices, shape (C, n), at most one per grid point."""
        m = min(grid.N, round(self.num_centers ** (1.0 / grid.n)))
        base = (np.arange(m) * grid.N) // m
        axes = np.meshgrid(*([base] * grid.n), indexing="ij")
        centers = np.stack([a.ravel() for a in axes], axis=1)
        if self.jitter_seed is not None:
            rng = np.random.Generator(np.random.Philox(self.jitter_seed))
            jitter = rng.integers(0, max(1, grid.N // m), size=centers.shape)
            centers = (centers + jitter) % grid.N
        return centers


# The scan's value budget, 8 MiB of float64, shared by its workers: each
# holds one buffer of at most ``_GATHER_CHUNK_VALUES`` values (4 MiB), reused
# for every chunk it takes and sorted and prefix-summed in place, so at most
# ``_SCAN_VALUES // _GATHER_CHUNK_VALUES`` workers scan one table, whatever
# the CPU count.  Centers are scanned in chunks of at most that many ball
# values.  Each row is gathered, sorted and reduced on its own, so neither
# constant sets a value, only memory, cache use and the number of chunks.
_SCAN_VALUES = 1 << 20
_GATHER_CHUNK_VALUES = 1 << 19


def _min_image_disp(N):
    """Min-image integer offset of each grid index, in the smallest signed type."""
    disp = (np.arange(N) + N // 2) % N - N // 2
    return disp.astype(np.min_scalar_type(-((N + 1) // 2)))


@lru_cache(maxsize=8)
def _min_image_dist2(n, N, L):
    """Squared torus distance of every grid point to the origin, shape (N,)*n."""
    d2 = (_min_image_disp(N) * (L / N)) ** 2
    dist2 = d2
    for j in range(1, n):
        dist2 = np.add.outer(dist2, d2)
    dist2.flags.writeable = False
    return dist2


@lru_cache(maxsize=512)
def _ball_offsets(n, N, L, rho):
    """Index offsets of cells within torus distance rho of a grid point.

    Shape (m, n), min-image offsets in [-N/2, N/2] held in the smallest
    signed integer type, rows in C order of the grid point.  They threshold
    the grid's one cached distance table, with a slack of 1e-12 h^2 so a
    cell exactly at distance rho is inside.
    """
    h = L / N
    disp = _min_image_disp(N)
    inside = np.nonzero(_min_image_dist2(n, N, L) <= rho * rho + 1e-12 * h * h)
    offsets = np.empty((inside[0].size, n), dtype=disp.dtype)
    for j, idx in enumerate(inside):
        offsets[:, j] = disp[idx]
    offsets.flags.writeable = False
    return offsets


def _padded_strides(n, N, width):
    return (N + 2 * width) ** np.arange(n - 1, -1, -1, dtype=np.int64)


@lru_cache(maxsize=512)
def _flat_ball_offsets(n, N, L, rho, width):
    """:func:`_ball_offsets` as flat offsets into a field padded by ``width``.

    They are taken from the corner of the padded cube around a center, the
    cell ``width`` before it on every axis, so none is negative.  Returns a
    read-only view; its writeable base is what the gather hands to
    ``np.take``, which copies an index array it may not write.
    """
    strides = _padded_strides(n, N, width)
    flat = _ball_offsets(n, N, L, rho) @ strides
    flat += width * strides.sum()
    view = flat.view()
    view.flags.writeable = False
    return view


def _ball_reach(grid, rho):
    """Largest integer offset, along any axis, of a cell in the ball."""
    offsets = _ball_offsets(grid.n, grid.N, grid.L, float(rho))
    return max(-int(offsets.min()), int(offsets.max()))


def _pad_periodic(grid, values, width, centers):
    """Flat periodic padding of ``values`` by ``width`` cells on every side.

    Returns the padded values and, for each grid-index center (``centers``
    has shape (C, n)), the flat index of the corner its ball offsets are
    taken from.  Every ball of reach <= ``width`` around a center then lies
    inside the padded array, so no modulo is needed.
    """
    padded = np.pad(values.reshape(grid.shape), width, mode="wrap").ravel()
    return padded, centers @ _padded_strides(grid.n, grid.N, width)


def _gather_ball_values(grid, padded, width, starts, rho, out):
    """Padded values on the ball of radius rho around each start, shape (C, m).

    Fills ``out`` one center row at a time, each taken
    from the view of ``padded`` that begins at the row's corner, so neither
    a (C, m) index array nor a shifted copy of the offsets is built, and
    returns it.  Every index lies inside ``padded`` by the choice of
    ``width``; ``mode="clip"`` only skips the buffered bounds check of the
    default mode.
    """
    offsets = _flat_ball_offsets(grid.n, grid.N, grid.L, float(rho), width).base
    for start, row in zip(starts, out):
        np.take(padded[start:], offsets, out=row, mode="clip")
    return out


# ---------------------------------------------------------------------------
# Lorentz functional on a sorted sample
# ---------------------------------------------------------------------------

@lru_cache(maxsize=1)
def _gauss_legendre():
    """The 32-node Gauss-Legendre nodes and weights on [-1, 1], read-only.

    Built on first use, not at import: ``numpy.polynomial`` costs about 0.9 MB
    and a few ms to import, and only q < inf segment integrals read the table.
    """
    from numpy.polynomial.legendre import leggauss

    table = leggauss(32)
    for part in table:
        part.flags.writeable = False
    return table


@lru_cache(maxsize=64)
def _weak_weights(m, w, p):
    """t^{1/p - 1} at the step endpoints t = w, 2w, ..., mw, read-only."""
    weights = (np.arange(1, m + 1) * w) ** (1.0 / p - 1.0)
    weights.flags.writeable = False
    return weights


def _weak_norm_rows(sorted_desc, w, p):
    """t^{1/p} f**(t) maximized over step endpoints, one value per row.

    For finite p the rows are overwritten by their prefix sums.
    """
    if p == INF:
        return sorted_desc[:, 0]
    S = np.cumsum(sorted_desc, axis=1, out=sorted_desc)
    S *= w
    S *= _weak_weights(sorted_desc.shape[1], w, p)
    return np.max(S, axis=1)


def _lorentz_q_finite(sorted_desc, w, p, q):
    """Segment-exact evaluation of the q < inf Lorentz integral for one sample."""
    v = sorted_desc
    M = v.shape[0]
    t = np.arange(M + 1) * w
    S = np.concatenate([[0.0], np.cumsum(v) * w])
    total = S[-1]
    if total == 0.0:
        return 0.0
    a = q / p
    A = S[:-1] - v * t[:-1]
    acc = 0.0

    # proportional segments: |A| negligible against v*t on the segment
    prop = np.abs(A) <= 1e-12 * np.maximum(v * np.maximum(t[:-1], w), 0.0)
    prop[0] = True  # t_0 = 0 forces A_0 = 0
    flat = v <= 0.0
    general = ~(prop | flat)

    if np.any(prop & ~flat):
        i = np.nonzero(prop & ~flat)[0]
        acc += np.sum(v[i] ** q * (t[i + 1] ** a - t[i] ** a) / a)
    if np.any(flat):
        i = np.nonzero(flat & (A > 0))[0]
        e = a - q  # < 0 for p > 1
        acc += np.sum(A[i] ** q * (t[i + 1] ** e - t[i] ** e) / e)
    if np.any(general):
        i = np.nonzero(general)[0]
        t1, t2 = t[i], t[i + 1]
        mid = 0.5 * (t1 + t2)
        halfw = 0.5 * (t2 - t1)
        gl_nodes, gl_weights = _gauss_legendre()
        nodes = mid[:, np.newaxis] + halfw[:, np.newaxis] * gl_nodes[np.newaxis, :]
        integrand = nodes ** (a - q - 1.0) * (A[i][:, np.newaxis] + v[i][:, np.newaxis] * nodes) ** q
        acc += np.sum(halfw * np.sum(integrand * gl_weights[np.newaxis, :], axis=1))

    # tail beyond total measure: f** = total/t, integrand total^q t^{a-q-1}
    e = a - q
    acc += -(total**q) * t[-1] ** e / e
    return acc ** (1.0 / q)


def _lorentz_from_values(values, w, p, q):
    v = np.sort(np.abs(np.asarray(values, dtype=float).ravel()))[::-1]
    if v.size == 0:
        raise DiagnosticsError("Lorentz norm of an empty region")
    if v[0] == 0.0:
        return 0.0
    if q == INF:
        return float(_weak_norm_rows(v[np.newaxis, :], w, p)[0])
    if p == INF:
        raise HypothesisError("q must be infinity when p is infinity")
    return float(_lorentz_q_finite(v, w, p, q))


def _as_scalar_values(f):
    if isinstance(f, ScalarField):
        return f.values
    if isinstance(f, (VectorField, TensorField)):
        return f.magnitude.values
    raise DiagnosticsError(f"cannot take a norm of {type(f).__name__}")


def lorentz_norm(f, p, q=INF):
    """Lorentz L^{p,q} norm of a field over the whole box (balls: :func:`morrey_lorentz_table`)."""
    if not p > 1:
        raise HypothesisError(f"Lorentz norm needs p > 1, got {p}")
    return _lorentz_from_values(_as_scalar_values(f).ravel(), f.grid.cell_volume, p, q)


# ---------------------------------------------------------------------------
# Morrey-Lorentz norm
# ---------------------------------------------------------------------------


@dataclass
class BallNormRow:
    center: tuple
    radius: float
    local_norm: float  # rho^{-lam/p} * local Lorentz norm


def _scan_workers(chunks, values):
    """How many workers scan a table of ``chunks`` tasks and ``values`` ball values.

    A table whose values fit in one buffer of the whole budget stays on the
    calling thread.  Otherwise one worker per CPU this process may run on,
    but no more than there are chunks or buffers in the budget.
    """
    if values <= _SCAN_VALUES:
        return 1
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # not offered on every platform
        cpus = os.cpu_count() or 1
    return max(1, min(cpus, chunks, _SCAN_VALUES // _GATHER_CHUNK_VALUES))


def _run_scan(tasks, task_values, scan, buffers):
    """``scan(task, buffer)`` for every task, one worker per buffer; results in task order.

    Workers take the tasks largest first.  The calling thread is one
    worker; the others are threads, joined before this returns or raises.
    After a worker's error no task is started, and the first error is
    raised once every thread has ended.
    """
    results = [None] * len(tasks)
    pending = iter(sorted(range(len(tasks)), key=task_values.__getitem__, reverse=True))
    lock = threading.Lock()
    errors = []

    def work(buffer):
        try:
            while not errors:
                with lock:
                    k = next(pending, None)
                if k is None:
                    return
                results[k] = scan(tasks[k], buffer)
        except BaseException as exc:  # raised again below, after the join
            errors.append(exc)

    threads = []
    try:
        for buffer in buffers[1:]:
            thread = threading.Thread(target=work, args=(buffer,), name="bqbox-ball-scan")
            thread.start()
            threads.append(thread)
        work(buffers[0])
    finally:
        for thread in threads:
            thread.join()
    if errors:
        raise errors[0]
    return results


def morrey_lorentz_table(f, params: NormParams, sampler: BallSampler):
    """Per-(center, radius) localized norms; the sup is the Morrey estimate."""
    grid = f.grid
    params.tau(grid.n)  # validates lam < n
    values = _as_scalar_values(f).ravel()
    if isinstance(f, ScalarField):
        values = np.abs(values)  # a magnitude is non-negative already: no copy
    w = grid.cell_volume
    centers = sampler.centers(grid)
    coords = [tuple(c * grid.cell_size) for c in centers]
    radii = [float(rho) for rho in sampler.radii(grid)]
    width = max(_ball_reach(grid, rho) for rho in radii)
    padded, starts = _pad_periodic(grid, values, width, centers)
    # at lam = 0 the sup over arbitrarily large balls reduces to the whole box
    whole = _lorentz_from_values(values, w, params.p, params.q) if params.lam == 0.0 else None
    del values  # the scan reads only the padded copy
    sizes = [_ball_offsets(grid.n, grid.N, grid.L, rho).shape[0] for rho in radii]
    C = len(starts)
    tasks = []  # (radius index, first center, end center), radius by radius
    for k, m in enumerate(sizes):
        chunk = min(C, max(1, _GATHER_CHUNK_VALUES // m))
        tasks += [(k, lo, min(lo + chunk, C)) for lo in range(0, C, chunk)]
    task_values = [(hi - lo) * sizes[k] for k, lo, hi in tasks]
    # the workers only read the caches, so fill them here
    for rho, m in zip(radii, sizes):
        _flat_ball_offsets(grid.n, grid.N, grid.L, rho, width)
        if params.q == INF and params.p != INF:
            _weak_weights(m, w, params.p)
    if params.q != INF:
        _gauss_legendre()
    workers = _scan_workers(len(tasks), C * sum(sizes))
    buffers = [np.empty(max(task_values), dtype=padded.dtype) for _ in range(workers)]

    def scan(task, buffer):
        k, lo, hi = task
        rho, m = radii[k], sizes[k]
        weight = rho ** (-params.lam / params.p)
        gathered = _gather_ball_values(grid, padded, width, starts[lo:hi], rho,
                                       out=buffer[:(hi - lo) * m].reshape(hi - lo, m))
        if params.q == INF:
            # ascending in place, read reversed: NaN comes first, as in a descending copy
            gathered.sort(axis=1)
            return _weak_norm_rows(gathered[:, ::-1], w, params.p) * weight
        return [_lorentz_from_values(g, w, params.p, params.q) * weight for g in gathered]

    rows = []
    for (k, lo, _), local in zip(tasks, _run_scan(tasks, task_values, scan, buffers)):
        rows.extend(BallNormRow(coords[lo + i], radii[k], float(val))
                    for i, val in enumerate(local))
    if whole is not None:
        rows.append(BallNormRow((np.nan,) * grid.n, np.inf, float(whole)))
    return rows


def morrey_lorentz_norm(f, params: NormParams, sampler: BallSampler):
    """Sampled lower bound of the Morrey-Lorentz sup ||f||_{p,q,lam}.

    At lam = 0 the sup is attained by the whole box (a subset's Lorentz
    norm never exceeds the full region's), so the ball scan is skipped and
    the value is exact.
    """
    if params.lam == 0.0:
        params.tau(f.grid.n)
        return _lorentz_from_values(
            _as_scalar_values(f).ravel(), f.grid.cell_volume, params.p, params.q
        )
    rows = morrey_lorentz_table(f, params, sampler)
    return float(np.max([r.local_norm for r in rows]))  # NaN if any ball is


# ---------------------------------------------------------------------------
# scaling / Hoelder / embedding diagnostics
# ---------------------------------------------------------------------------


def gaussian_profile(grid, sigma, amplitude=1.0, center=None):
    """exp(-d^2 / 2 sigma^2) with d the torus distance to the center."""
    d2 = np.sum(torus_displacement(grid, center) ** 2, axis=0)
    return ScalarField(grid, amplitude * np.exp(-d2 / (2.0 * sigma * sigma)))


def ball_indicator(grid, radius, amplitude=1.0, center=None):
    d2 = np.sum(torus_displacement(grid, center) ** 2, axis=0)
    return ScalarField(grid, amplitude * (d2 <= radius * radius).astype(float))


_SCALING_PRESETS = {"gaussian": gaussian_profile, "ball": ball_indicator}


@dataclass
class ScalingReport:
    ratio: float
    base_norm: float
    scaled_norm: float
    tau: float


def scaling_check(preset, c, params: NormParams, grid, sampler, **preset_params):
    """Report ||f(c .)|| * c^tau / ||f||; exact dilation invariance gives 1.

    The preset must rescale analytically inside the box: 'gaussian' (param
    sigma) or 'ball' (param radius).
    """
    if preset not in _SCALING_PRESETS:
        raise DiagnosticsError(f"unknown scaling preset {preset!r}; use 'gaussian' or 'ball'")
    if c <= 0:
        raise DiagnosticsError("scale factor must be positive")
    build = _SCALING_PRESETS[preset]
    size_key = "sigma" if preset == "gaussian" else "radius"
    size = preset_params[size_key]
    reach = 5.0 * size if preset == "gaussian" else size
    if reach / min(c, 1.0) > 0.45 * grid.L:
        raise DiagnosticsError(
            f"rescaled support (reach {reach / min(c, 1.0):.3g}) leaves the box"
        )
    base = build(grid, **preset_params)
    scaled_params = dict(preset_params)
    scaled_params[size_key] = size / c
    scaled = build(grid, **scaled_params)
    tau = params.tau(grid.n)
    n0 = morrey_lorentz_norm(base, params, sampler)
    n1 = morrey_lorentz_norm(scaled, params, sampler)
    ratio = n1 * c**tau / n0 if n0 > 0 else 0.0
    return ScalingReport(ratio=ratio, base_norm=n0, scaled_norm=n1, tau=tau)


@dataclass
class HolderReport:
    ratio: float
    product_norm: float
    left_norm: float
    right_norm: float


def holder_check(f, g, split, target: NormParams, sampler):
    """Ratio ||f g||_target / (||f||_split0 ||g||_split1).

    Validates the exponent arithmetic 1/r = 1/p0 + 1/p1,
    beta/r = lam0/p0 + lam1/p1, and 1/q0 + 1/q1 >= 1/s.
    """
    p0, p1 = split

    def _inv(x):
        return 0.0 if x == INF else 1.0 / x

    if abs(_inv(target.p) - (_inv(p0.p) + _inv(p1.p))) > 1e-10:
        raise HypothesisError(
            f"need 1/r = 1/p0 + 1/p1: 1/{target.p} vs 1/{p0.p} + 1/{p1.p}"
        )
    lhs = target.lam * _inv(target.p)
    rhs = p0.lam * _inv(p0.p) + p1.lam * _inv(p1.p)
    if abs(lhs - rhs) > 1e-10:
        raise HypothesisError(
            f"need beta/r = lam0/p0 + lam1/p1: {lhs:.6g} vs {rhs:.6g}"
        )
    if _inv(p0.q) + _inv(p1.q) < _inv(target.q) - 1e-12:
        raise HypothesisError("need 1/q0 + 1/q1 >= 1/s for the target secondary index")

    from .operators import pointwise_product

    prod = pointwise_product(f, g)
    np_ = morrey_lorentz_norm(prod, target, sampler)
    nf = morrey_lorentz_norm(f, p0, sampler)
    ng = morrey_lorentz_norm(g, p1, sampler)
    ratio = np_ / (nf * ng) if nf * ng > 0 else 0.0
    return HolderReport(ratio=ratio, product_norm=np_, left_norm=nf, right_norm=ng)


def weighted_time_sup(samples, weights: TimeWeightParams, lam, sampler):
    """sup over the sample times of t^beta ||g(., t)||_{b, inf, lam}.

    ``samples`` is a non-empty sequence of (t, field) pairs, every one of
    which enters the sup.  NaN if any sample's norm is.
    """
    if not samples:
        raise DiagnosticsError("weighted time sup over an empty time grid")
    params = NormParams(p=weights.b, q=INF, lam=lam)
    values = []
    for t, f in samples:
        if t <= 0 or not np.isfinite(t):
            raise DiagnosticsError(f"time grid must be positive and finite, got {t}")
        values.append(t**weights.beta * morrey_lorentz_norm(f, params, sampler))
    # np.max, unlike max(), lets a NaN at any time through
    return float(np.max(values))


@dataclass
class EmbeddingRow:
    morrey_norm: float
    weak_lebesgue_norm: float
    lorentz_nn_norm: float

    @property
    def morrey_over_weak(self):
        return 0.0 if self.weak_lebesgue_norm == 0 else self.morrey_norm / self.weak_lebesgue_norm

    @property
    def weak_over_strong(self):
        return 0.0 if self.lorentz_nn_norm == 0 else self.weak_lebesgue_norm / self.lorentz_nn_norm


def verify_embeddings(fields, p, sampler):
    """Empirical ratios along M_{p,inf,n-p} <- L^{n,inf} <- L^{n,n}."""
    rows = []
    for f in fields:
        n = f.grid.n
        if n < 3:
            raise HypothesisError("embedding chain requires an n >= 3 grid")
        morrey = morrey_lorentz_norm(f, NormParams(p=p, q=INF, lam=n - p), sampler)
        weak = lorentz_norm(f, p=n, q=INF)
        strong = lorentz_norm(f, p=n, q=n)
        rows.append(EmbeddingRow(morrey, weak, strong))
    return rows


# ---------------------------------------------------------------------------
# state / trajectory norms
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class NormContext:
    """How to evaluate product-space norms along trajectories."""

    params: NormParams
    sampler: BallSampler
    time_stride: int = 1


def state_norm(state: State, ctx: NormContext):
    """||u||_{p,q,lam} + ||theta||_{p,q,lam} with u via its magnitude."""
    return morrey_lorentz_norm(state.u, ctx.params, ctx.sampler) + morrey_lorentz_norm(
        state.theta, ctx.params, ctx.sampler
    )


def sup_time_indices(count, stride):
    """The stored states a sup-in-time reads: every ``stride``-th from 0, and the last."""
    idx = list(range(0, count, max(1, stride)))
    if idx[-1] != count - 1:
        idx.append(count - 1)
    return idx


def trajectory_sup_norm(traj, ctx: NormContext):
    """Discrete sup-in-time of the product norm over the stored grid (NaN if any norm is)."""
    idx = sup_time_indices(len(traj.times), ctx.time_stride)
    return float(np.max([state_norm(traj.states[i], ctx) for i in idx]))
