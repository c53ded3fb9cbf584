"""JSON run configuration: schema, validation, and object construction.

A config names the grid, the initial data, a forcing (finite Fourier series
in time, so exactly T-periodic), the solver settings, the norm triples and
sampler, and per-subcommand options.  Mode ``navier-stokes`` is ``full``
once the config has checked theta0 = 0 and no f or g.  All randomness flows
from the single ``seed`` through counter-based generators, so identical
configs produce bit-identical outputs.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

from .duhamel import SolveConfig
from .errors import ConfigError, DiagnosticsError, HypothesisError
from .fileio import read_field
from .forcing import FIELD_KINDS, ForcingSpec, HarmonicTerm, TimeFourierField
from .grid import GridSpec, ScalarField, State, VectorField, zeros_like_state
from .norms import BallSampler, NormParams
from .presets import make_preset


@dataclass
class RunConfig:
    raw: dict
    text: str
    grid: GridSpec
    seed: int
    mode: str
    solve: SolveConfig | None
    forcing: ForcingSpec | None
    norms: list
    sampler: BallSampler
    stability: dict | None
    t_end: float | None


def _table(value, where, kind=dict):
    """``value``, the JSON object (``kind=list``: array) at ``where``; null reads as empty."""
    if value is None:
        return kind()
    if not isinstance(value, kind):
        name = "object" if kind is dict else "array"
        raise ConfigError(f"{where} must be a JSON {name}, got {value!r}")
    return value


def _require(d, key, kind, where):
    """d[key], which must be present and of ``kind`` (a type or a tuple of types).

    ``d`` is the table at ``where``.  A JSON boolean is never taken for a
    number, though ``bool`` is an ``int``.
    """
    d = _table(d, where)
    if key not in d:
        raise ConfigError(f"config is missing {where}.{key}")
    val = d[key]
    if isinstance(val, bool) or not isinstance(val, kind):
        names = " or ".join(k.__name__ for k in (kind if isinstance(kind, tuple) else (kind,)))
        raise ConfigError(f"{where}.{key} must be {names}, got {type(val).__name__}")
    return val


def numeric_option(options, path, default, integral=False, prefix="", finite=True, least=None):
    """The number at ``path`` ("seed", "solve.picard_max", ...) in a config table.

    Absent or null gives ``default``.  Anything but a finite number, a
    fractional one where ``integral`` is set, or one below ``least`` is a
    ConfigError naming the key.
    ``prefix`` names where ``options`` itself sits, for tables a dotted path
    cannot reach: ``numeric_option(term, "harmonic", 0, prefix="forcing.f[0]")``
    names ``forcing.f[0].harmonic``.  With ``finite`` unset a non-finite
    number is passed on, for a later check that names it better.
    :func:`load_config` reads its numeric keys this way, and the subcommands
    read every option this way before any solver runs.
    """
    name = f"{prefix}.{path}" if prefix else path
    section, _, key = path.rpartition(".")
    table = _table(options.get(section), name.rpartition(".")[0]) if section else options
    value = table.get(key)
    if value is None:
        return default
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{name} must be a number, got {value!r}")
    if finite and isinstance(value, float) and not math.isfinite(value):
        raise ConfigError(f"{name} must be finite, got {value!r}")
    if integral and isinstance(value, float) and not value.is_integer():
        raise ConfigError(f"{name} must be an integer, got {value!r}")
    if least is not None and not value >= least:
        raise ConfigError(f"{name} must be >= {least}, got {value!r}")
    if integral:
        return int(value)
    try:
        return float(value)
    except OverflowError as exc:
        raise ConfigError(f"{name} is out of range: {exc}") from exc


def _norm_params(entry, where):
    entry = _table(entry, where)
    p = numeric_option(entry, "p", 0.0, prefix=where)
    q = math.inf if entry.get("q") in (None, "inf", math.inf) else numeric_option(
        entry, "q", None, prefix=where)
    lam = numeric_option(entry, "lam", 0.0, prefix=where)
    try:
        return NormParams(p=p, q=q, lam=lam)
    except HypothesisError as exc:
        raise ConfigError(f"{where}: {exc}") from exc


# preset parameters that are counts or indices, and those that are points of the box
_INTEGRAL_PARAMS = frozenset({"seed", "component", "row", "col"})
_POINT_PARAMS = frozenset({"k", "center"})


def _preset_field(grid, preset, spec, seed, where):
    """The field of ``preset`` with the ``params`` of ``spec``, checked key by key.

    Every scalar parameter must be a number (an integer for the counts and
    indices), and ``k`` and ``center`` lists of ``grid.n`` numbers; a bad
    value is a ConfigError naming ``{where}.params.{key}``; a ``seed`` must
    be >= 0.  A random preset without a ``seed`` parameter takes ``seed``.
    """
    prefix = f"{where}.params"
    raw = _table(spec.get("params"), prefix)
    params = {}
    for key, value in raw.items():
        if key in _POINT_PARAMS:
            if not (isinstance(value, list) and len(value) == grid.n and all(
                    not isinstance(v, bool) and isinstance(v, (int, float)) and math.isfinite(v)
                    for v in value)):
                raise ConfigError(
                    f"{prefix}.{key} must be a list of {grid.n} finite numbers, got {value!r}")
            params[key] = value
        elif value is not None:
            params[key] = numeric_option(raw, key, None, integral=key in _INTEGRAL_PARAMS,
                                         prefix=prefix, least=0 if key == "seed" else None)
    if preset.startswith("random") and "seed" not in params:
        params["seed"] = seed
    return make_preset(preset, grid, params)


def _term_field(grid, term, target, seed, where):
    preset = _require(term, "preset", str, where)
    fld = _preset_field(grid, preset, term, seed, where)
    kind = FIELD_KINDS[target]
    if not isinstance(fld, kind):
        raise ConfigError(f"{where}: preset {preset!r} builds a {type(fld).__name__}, "
                          f"but {target!r} needs a {kind.__name__}")
    # a non-finite amplitude is left to the forcing's pattern check, which names the harmonic
    amp = numeric_option(term, "amplitude", 1.0, prefix=where, finite=False)
    return type(fld)(grid, amp * fld.values)


def _forcing_period(cfg_dict):
    period = numeric_option(cfg_dict, "forcing.period", None)
    if period is None:
        raise ConfigError("config is missing forcing.period")
    return period


def forcing_fields(cfg_dict, grid, seed, targets=("F", "f", "g")):
    """{target: the TimeFourierField of forcing.<target>, or None when it has no terms}.

    Each pattern is its preset's, with the seed ``seed + 1000 (i + 1)`` for
    the i-th term of a random preset without one; presets are deterministic,
    so a second call builds the same patterns bit for bit.
    """
    fc = cfg_dict.get("forcing")
    period = _forcing_period(cfg_dict)
    parts = {}
    for target in targets:
        terms = _table(fc.get(target), f"forcing.{target}", list)
        if not terms:
            parts[target] = None
            continue
        built = []
        for i, term in enumerate(terms):
            where = f"forcing.{target}[{i}]"
            fld = _term_field(grid, term, target, seed + 1000 * (i + 1), where)
            built.append(
                HarmonicTerm(
                    harmonic=numeric_option(term, "harmonic", 0, integral=True, prefix=where),
                    # a non-finite phase is left to the forcing's check, which names the harmonic
                    phase=numeric_option(term, "phase", 0.0, prefix=where, finite=False),
                    field=fld,
                )
            )
        parts[target] = TimeFourierField(period=period, terms=tuple(built))
    return parts


def build_forcing(cfg_dict, grid, seed):
    """The config's ForcingSpec: F and f are compiled as it is built, and their patterns dropped."""
    if cfg_dict.get("forcing") is None:
        return None
    period = _forcing_period(cfg_dict)
    kappa = numeric_option(cfg_dict, "forcing.kappa", 0.0)
    return ForcingSpec(period=period, kappa=kappa, **forcing_fields(cfg_dict, grid, seed))


def build_initial(cfg_dict, grid, seed):
    initial = _initial_state(cfg_dict, grid, seed)
    if cfg_dict.get("mode") == "navier-stokes" and initial.theta.values.any():
        raise HypothesisError("navier-stokes mode requires theta0 = 0")
    return initial


def _initial_state(cfg_dict, grid, seed):
    init = _table(cfg_dict.get("initial"), "initial")
    if init.get("zero"):
        return zeros_like_state(grid)
    if "file" in init:
        obj = read_field(_require(init, "file", str, "initial"))
        if not isinstance(obj, State):
            raise ConfigError(f"initial.file must contain a state, got {type(obj).__name__}")
        if obj.grid != grid:
            raise ConfigError("initial.file grid does not match config grid")
        return obj
    u_spec = init.get("u")
    th_spec = init.get("theta")
    u = None
    theta = None
    if u_spec:
        preset = _require(u_spec, "preset", str, "initial.u")
        u = _preset_field(grid, preset, u_spec, seed, "initial.u")
        if not isinstance(u, VectorField):
            raise ConfigError(f"initial.u preset must be a vector preset, got {preset!r}")
    if th_spec:
        preset = _require(th_spec, "preset", str, "initial.theta")
        theta = _preset_field(grid, preset, th_spec, seed + 17, "initial.theta")
        if not isinstance(theta, ScalarField):
            raise ConfigError(f"initial.theta preset must be a scalar preset, got {preset!r}")
    zero = zeros_like_state(grid)
    return State(u if u is not None else zero.u, theta if theta is not None else zero.theta)


def load_config(path, seed=None):
    """The checked config at ``path``; ``seed`` overrides the file's, which is still checked."""
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
    raw = _table(raw, "config root")

    gd = _require(raw, "grid", dict, "config")
    try:
        grid = GridSpec(
            n=int(_require(gd, "n", int, "grid")),
            N=int(_require(gd, "N", int, "grid")),
            L=float(_require(gd, "L", (int, float), "grid")),
        )
    except (DiagnosticsError, OverflowError) as exc:  # OverflowError: float() of a huge L
        raise ConfigError(f"grid: {exc}") from exc

    file_seed = numeric_option(raw, "seed", 0, integral=True, least=0)
    if seed is None:
        seed = file_seed
    elif seed < 0:
        raise ConfigError(f"--seed must be >= 0, got {seed}")
    mode = raw.get("mode", "full")
    if mode not in ("full", "linearized", "navier-stokes"):
        raise ConfigError(f"unknown mode {mode!r}")

    solve = None
    if "solve" in raw:
        dt = numeric_option(raw, "solve.dt", None)
        if dt is None:
            raise ConfigError("config is missing solve.dt")
        solve = SolveConfig(
            dt=dt,
            substeps=numeric_option(raw, "solve.substeps", SolveConfig.substeps, integral=True),
            picard_tol=numeric_option(raw, "solve.picard_tol", SolveConfig.picard_tol),
            picard_max=numeric_option(raw, "solve.picard_max", SolveConfig.picard_max,
                                      integral=True),
        )

    forcing = build_forcing(raw, grid, seed)

    norms = [_norm_params(e, f"norms[{i}]")
             for i, e in enumerate(_table(raw.get("norms"), "norms", list))]

    num_centers = numeric_option(raw, "sampler.num_centers", BallSampler.num_centers,
                                 integral=True, least=1)
    num_radii = numeric_option(raw, "sampler.num_radii", BallSampler.num_radii, integral=True)
    sampler = BallSampler(
        num_centers=num_centers,
        num_radii=num_radii,
        rho_min=numeric_option(raw, "sampler.rho_min", None),
        rho_max=numeric_option(raw, "sampler.rho_max", None),
        jitter_seed=numeric_option(raw, "sampler.jitter_seed", None, integral=True, least=0),
    )
    try:
        sampler.radii(grid)
    except DiagnosticsError as exc:
        raise ConfigError(f"sampler: {exc}") from exc

    stability = None
    if "stability" in raw:
        # defer the hypothesis checks (exit code 3) to the subcommand
        stability = {key: numeric_option(raw, f"stability.{key}", None) for key in "pqrb"}
        missing = [key for key, value in stability.items() if value is None]
        if missing:
            raise ConfigError(f"config is missing stability.{missing[0]}")
        stability.update(
            initial_gap=numeric_option(raw, "stability.initial_gap", 1e-4),
            num_times=numeric_option(raw, "stability.num_times", 20, integral=True, least=1),
            t_max_periods=numeric_option(raw, "stability.t_max_periods", 3.0),
        )
        if not stability["t_max_periods"] > 0:
            raise ConfigError(f"stability.t_max_periods must be > 0, got {stability['t_max_periods']}")

    t_end = numeric_option(raw, "t_end", None)

    if mode == "navier-stokes" and forcing is not None and (
            forcing.has_f or forcing.g is not None):
        raise HypothesisError("navier-stokes mode takes no temperature forcing f or field g")

    return RunConfig(
        raw=raw,
        text=text,
        grid=grid,
        seed=seed,
        mode="full" if mode == "navier-stokes" else mode,
        solve=solve,
        forcing=forcing,
        norms=norms,
        sampler=sampler,
        stability=stability,
        t_end=t_end,
    )
