"""Raw field files (BQF1): bit-exact round-trip of grid fields and states.

Layout, little-endian: magic "BQF1", u32 n, u32 N, f64 L, u32 component
count, then the components as contiguous f64 row-major arrays.  The
component count identifies the payload: 1 scalar, n vector, n+1 state
(velocity components then temperature), n*n tensor.
"""

from __future__ import annotations

import os
import struct

import numpy as np

from .errors import DiagnosticsError, FieldIOError
from .grid import GridSpec, ScalarField, State, TensorField, VectorField

MAGIC = b"BQF1"
_HEADER = struct.Struct("<4sIIdI")


def _components(obj):
    if isinstance(obj, ScalarField):
        return obj.values[np.newaxis]
    if isinstance(obj, VectorField):
        return obj.values
    if isinstance(obj, TensorField):
        n = obj.grid.n
        return obj.values.reshape((n * n,) + obj.grid.shape)
    if isinstance(obj, State):
        return np.concatenate([obj.u.values, obj.theta.values[np.newaxis]], axis=0)
    raise FieldIOError(f"cannot serialize object of type {type(obj).__name__}")


def write_field(path, obj):
    grid = obj.grid
    comps = np.ascontiguousarray(_components(obj), dtype="<f8")
    header = _HEADER.pack(MAGIC, grid.n, grid.N, grid.L, comps.shape[0])
    try:
        with open(path, "wb") as fh:
            fh.write(header)
            fh.write(comps.tobytes(order="C"))
    except OSError as exc:
        raise FieldIOError(f"cannot write field file {path}: {exc}") from exc


def read_field(path):
    """Read a field file; the payload goes straight into one preallocated array."""
    try:
        with open(path, "rb") as fh:
            head = fh.read(_HEADER.size)
            if len(head) < _HEADER.size:
                raise FieldIOError(f"{path}: truncated header")
            magic, n, N, L, ncomp = _HEADER.unpack(head)
            if magic != MAGIC:
                raise FieldIOError(f"{path}: bad magic {magic!r}")
            grid = GridSpec(n=n, N=N, L=L)
            expected = ncomp * N**n * 8
            size = os.fstat(fh.fileno()).st_size - _HEADER.size
            if size != expected:
                raise FieldIOError(f"{path}: payload has {size} bytes, expected {expected}")
            comps = np.empty((ncomp,) + grid.shape, dtype="<f8")
            got = fh.readinto(comps)
    except (OSError, DiagnosticsError) as exc:  # a header grid GridSpec refuses
        raise FieldIOError(f"cannot read field file {path}: {exc}") from exc
    if got != expected:
        raise FieldIOError(f"{path}: payload has {got} bytes, expected {expected}")
    if ncomp == 1:
        return ScalarField(grid, comps[0])
    if ncomp == n:
        return VectorField(grid, comps)
    if ncomp == n + 1:
        return State(VectorField(grid, comps[:n]), ScalarField(grid, comps[n]))
    if ncomp == n * n:
        return TensorField(grid, comps.reshape((n, n) + grid.shape))
    raise FieldIOError(f"{path}: component count {ncomp} does not match n = {n}")
