"""Time-periodic forcing data.

Forcings are finite Fourier series in time over a fixed period T, so
T-periodicity holds by construction: each term is a spatial pattern
multiplied by cos(2 pi m t / T + phase).  A :class:`ForcingSpec` keeps the
patterns of g only: F and f are compiled, when it is built, into the
divergence rows the solver reads.
"""

from __future__ import annotations

from dataclasses import InitVar, dataclass

import numpy as np

from .errors import ConfigError, DiagnosticsError
from .grid import ScalarField, TensorField, VectorField


@dataclass(frozen=True)
class HarmonicTerm:
    harmonic: int
    field: object  # ScalarField | VectorField | TensorField
    phase: float = 0.0


@dataclass(frozen=True)
class TimeFourierField:
    """Sum of spatial patterns modulated by cos(2 pi m t / T + phase)."""

    period: float
    terms: tuple

    def __post_init__(self):
        if not self.period > 0:
            raise ConfigError(f"forcing period must be positive, got {self.period}")
        if not self.terms:
            raise ConfigError("a time-Fourier forcing needs at least one harmonic term")
        kinds = {type(t.field) for t in self.terms}
        if len(kinds) > 1:
            raise ConfigError("all terms of one forcing must share a field kind")
        for term in self.terms:
            if not (np.isfinite(term.phase) and np.all(np.isfinite(term.field.values))):
                raise ConfigError(
                    f"forcing harmonic {term.harmonic} has a non-finite pattern or phase"
                )
            if term.field.grid != self.grid:
                raise ConfigError(f"forcing harmonic {term.harmonic} lives on {term.field.grid}, "
                                  f"the first term on {self.grid}")

    @property
    def grid(self):
        return self.terms[0].field.grid

    def coefficients(self, t):
        return [
            np.cos(2.0 * np.pi * term.harmonic * t / self.period + term.phase)
            for term in self.terms
        ]

    def value(self, t):
        coefs = self.coefficients(t)
        acc = None
        for c, term in zip(coefs, self.terms):
            acc = c * term.field.values if acc is None else acc + c * term.field.values
        first = self.terms[0].field
        return type(first)(first.grid, acc)


def constant_in_time(period, field):
    return TimeFourierField(period=period, terms=(HarmonicTerm(harmonic=0, field=field),))


# the field kind of each forcing component's patterns
FIELD_KINDS = {"F": TensorField, "f": VectorField, "g": VectorField}


@dataclass(frozen=True)
class ForcingSpec:
    """Time-periodic data driving the system: tensor F, vector f, field g, kappa.

    ``kappa`` is the volume-expansion coefficient scaling the buoyancy
    coupling theta * g; it is allowed to be 0 so the coupling can be switched
    off exactly.

    F and f enter the system only through div F and div f, so they are
    compiled once, here, into ``sources`` (``bqbox.duhamel._CompiledForcing``):
    per harmonic, the projected divergence row P div F-hat and the row
    div f-hat, which is all any solver reads of them.  Their patterns are not
    kept.  g stays a time-Fourier field, since the coupling reads it
    pointwise.  ``dataclasses.replace`` of a spec hands its ``sources`` on
    without compiling again; it cannot take F or f as well.
    """

    period: float
    kappa: float = 0.0
    F: InitVar[TimeFourierField | None] = None
    f: InitVar[TimeFourierField | None] = None
    g: TimeFourierField | None = None
    sources: object = None  # the compiled F and f, or None without either

    def __post_init__(self, F, f):
        if not (np.isfinite(self.period) and self.period > 0):
            raise ConfigError(f"period must be positive and finite, got {self.period}")
        if self.kappa < 0 or not np.isfinite(self.kappa):
            raise ConfigError(f"kappa must be >= 0, got {self.kappa}")
        if self.sources is not None and (F is not None or f is not None):
            raise ConfigError("a forcing takes F and f or their compiled sources, not both")
        parts = [(name, part) for name, part in
                 (("F", F), ("f", f), ("g", self.g), ("sources", self.sources)) if part is not None]
        grid = parts[0][1].grid if parts else None
        for name, part in parts:
            if part.grid != grid:
                raise ConfigError(f"forcing component {name} lives on {part.grid}, "
                                  f"the first component on {grid}")
            if abs(part.period - self.period) > 1e-12 * self.period:
                raise ConfigError(f"forcing component {name} has period {part.period} "
                                  f"!= {self.period}")
            kind = FIELD_KINDS.get(name)
            if kind is not None and not all(isinstance(term.field, kind) for term in part.terms):
                raise ConfigError(f"forcing component {name} needs {kind.__name__} patterns")
        if F is not None or f is not None:
            from .duhamel import _CompiledForcing  # duhamel imports this module
            object.__setattr__(self, "sources", _CompiledForcing(self.period, F, f))

    @property
    def coupled(self):
        """Whether the buoyancy kappa theta g couples theta into u: a g field with kappa > 0."""
        return self.g is not None and self.kappa > 0

    @property
    def has_f(self):
        """Whether the spec was built with a temperature forcing f."""
        return self.sources is not None and bool(self.sources.analytic_th)

    @property
    def grid(self):
        for part in (self.sources, self.g):
            if part is not None:
                return part.grid
        return None


@dataclass
class SampledScalarSeries:
    """A scalar field known at node times; linear interpolation in between."""

    times: np.ndarray
    fields: list

    def __post_init__(self):
        self.times = np.asarray(self.times, dtype=float)
        if len(self.fields) != len(self.times):
            raise DiagnosticsError("sampled series needs one field per time")

    def value(self, t):
        ts = self.times
        if t <= ts[0]:
            return self.fields[0]
        if t >= ts[-1]:
            return self.fields[-1]
        j, x = bracket(ts, t)
        if x == 0.0:
            return self.fields[j]
        f0, f1 = self.fields[j], self.fields[j + 1]
        return ScalarField(f0.grid, (1.0 - x) * f0.values + x * f1.values)


def bracket(ts, t):
    """Linear-interpolation position of t among the sorted node times ts.

    Returns (j, x) with t = (1 - x) ts[j] + x ts[j + 1].  A t at a node, or
    within 1e-12 max(1, |t|) below one, snaps to it and returns (j, 0.0).
    Clamping, period wrap and coverage checks are the caller's.
    """
    j = min(int(np.searchsorted(ts, t)), len(ts) - 1)
    if abs(ts[j] - t) <= 1e-12 * max(1.0, abs(t)):
        return j, 0.0
    j = max(j - 1, 0)
    return j, (t - ts[j]) / (ts[j + 1] - ts[j])
