"""JSON run configuration: schema, validation, and object construction.

A config names the grid, the initial data, a forcing (finite Fourier series
in time, so exactly T-periodic), the solver settings, the norm triples and
sampler, and per-subcommand options.  All randomness flows from the single
``seed`` through counter-based generators, so identical configs produce
bit-identical outputs.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path

from .duhamel import SolveConfig
from .errors import ConfigError
from .forcing import ForcingSpec, HarmonicTerm, TimeFourierField
from .grid import GridSpec, State, zeros_like_state
from .norms import BallSampler, NormParams
from .presets import make_preset

_VECTOR_PRESETS = {"random-vector", "random-div-free", "gravity", "single-mode-vector", "taylor-green"}
_TENSOR_PRESETS = {"random-tensor", "single-mode-tensor"}
_SCALAR_PRESETS = {"gaussian-bump", "random-scalar", "single-mode"}


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
    options: dict = field(default_factory=dict)


def _require(d, key, kind, where):
    if key not in d:
        raise ConfigError(f"config is missing {where}.{key}")
    val = d[key]
    if kind is float and isinstance(val, int):
        val = float(val)
    if not isinstance(val, kind):
        raise ConfigError(f"{where}.{key} must be {kind.__name__}, got {type(val).__name__}")
    return val


def _norm_params(entry, where):
    if not isinstance(entry, dict):
        raise ConfigError(f"{where} must be an object with p/q/lam")
    p = float(entry.get("p", 0))
    q = entry.get("q")
    q = math.inf if q in (None, "inf") else float(q)
    lam = float(entry.get("lam", 0.0))
    try:
        return NormParams(p=p, q=q, lam=lam)
    except Exception as exc:
        raise ConfigError(f"{where}: {exc}") from exc


def _term_field(grid, term, target, seed, where):
    preset = _require(term, "preset", str, where)
    params = dict(term.get("params", {}))
    if preset.startswith("random") and "seed" not in params:
        params["seed"] = seed
    fld = make_preset(preset, grid, params)
    allowed = {"F": _TENSOR_PRESETS, "f": _VECTOR_PRESETS, "g": _VECTOR_PRESETS}[target]
    if preset not in allowed:
        raise ConfigError(
            f"{where}: preset {preset!r} cannot target {target!r} (allowed: {sorted(allowed)})"
        )
    amp = float(term.get("amplitude", 1.0))
    return type(fld)(grid, amp * fld.values)


def build_forcing(cfg_dict, grid, seed):
    fc = cfg_dict.get("forcing")
    if fc is None:
        return None
    period = float(_require(fc, "period", (int, float), "forcing"))
    kappa = float(fc.get("kappa", 0.0))
    parts = {}
    for target in ("F", "f", "g"):
        terms = fc.get(target)
        if not terms:
            parts[target] = None
            continue
        built = []
        for i, term in enumerate(terms):
            fld = _term_field(grid, term, target, seed + 1000 * (i + 1), f"forcing.{target}[{i}]")
            built.append(
                HarmonicTerm(
                    harmonic=int(term.get("harmonic", 0)),
                    phase=float(term.get("phase", 0.0)),
                    field=fld,
                )
            )
        parts[target] = TimeFourierField(period=period, terms=tuple(built))
    return ForcingSpec(period=period, kappa=kappa, F=parts["F"], f=parts["f"], g=parts["g"])


def build_initial(cfg_dict, grid, seed):
    init = cfg_dict.get("initial")
    if init is None or init.get("zero"):
        return zeros_like_state(grid)
    if "file" in init:
        from .fileio import read_field

        obj = read_field(init["file"])
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
        if preset not in _VECTOR_PRESETS:
            raise ConfigError(f"initial.u preset must be a vector preset, got {preset!r}")
        params = dict(u_spec.get("params", {}))
        if preset.startswith("random") and "seed" not in params:
            params["seed"] = seed
        u = make_preset(preset, grid, params)
    if th_spec:
        preset = _require(th_spec, "preset", str, "initial.theta")
        if preset not in _SCALAR_PRESETS:
            raise ConfigError(f"initial.theta preset must be a scalar preset, got {preset!r}")
        params = dict(th_spec.get("params", {}))
        if preset.startswith("random") and "seed" not in params:
            params["seed"] = seed + 17
        theta = make_preset(preset, grid, params)
    zero = zeros_like_state(grid)
    return State(u if u is not None else zero.u, theta if theta is not None else zero.theta)


def load_config(path):
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError("config root must be a JSON object")

    gd = _require(raw, "grid", dict, "config")
    try:
        grid = GridSpec(
            n=int(_require(gd, "n", int, "grid")),
            N=int(_require(gd, "N", int, "grid")),
            L=float(_require(gd, "L", (int, float), "grid")),
        )
    except ConfigError:
        raise
    except Exception as exc:
        raise ConfigError(f"grid: {exc}") from exc

    seed = int(raw.get("seed", 0))
    mode = raw.get("mode", "full")
    if mode not in ("full", "linearized", "navier-stokes"):
        raise ConfigError(f"unknown mode {mode!r}")

    solve = None
    if "solve" in raw:
        sd = raw["solve"]
        try:
            solve = SolveConfig(
                dt=float(_require(sd, "dt", (int, float), "solve")),
                substeps=int(sd.get("substeps", 4)),
                picard_tol=float(sd.get("picard_tol", 1e-10)),
                picard_max=int(sd.get("picard_max", 40)),
            )
        except ConfigError:
            raise
        except Exception as exc:
            raise ConfigError(f"solve: {exc}") from exc

    try:
        forcing = build_forcing(raw, grid, seed)
    except ConfigError:
        raise

    norms = [_norm_params(e, f"norms[{i}]") for i, e in enumerate(raw.get("norms", []))]

    sd = raw.get("sampler", {})
    sampler = BallSampler(
        num_centers=int(sd.get("num_centers", 64)),
        num_radii=int(sd.get("num_radii", 12)),
        rho_min=sd.get("rho_min"),
        rho_max=sd.get("rho_max"),
        jitter_seed=sd.get("jitter_seed"),
    )

    stability = None
    if "stability" in raw:
        st = raw["stability"]
        # defer the hypothesis checks (exit code 3) to the subcommand
        stability = {
            "p": float(_require(st, "p", (int, float), "stability")),
            "q": float(_require(st, "q", (int, float), "stability")),
            "r": float(_require(st, "r", (int, float), "stability")),
            "b": float(_require(st, "b", (int, float), "stability")),
            "initial_gap": float(st.get("initial_gap", 1e-4)),
            "num_times": int(st.get("num_times", 20)),
            "t_max_periods": float(st.get("t_max_periods", 3.0)),
        }

    t_end = raw.get("t_end")
    if t_end is not None:
        t_end = float(t_end)

    options = {
        "initial": raw.get("initial"),
        "periodic": raw.get("periodic", {}),
        "estimates": raw.get("estimates", {}),
        "field_file": raw.get("field_file"),
        "snapshots": raw.get("snapshots", 0),
        "norm_p": raw.get("norm_p"),
    }
    return RunConfig(
        raw=raw,
        text=text,
        grid=grid,
        seed=seed,
        mode=mode,
        solve=solve,
        forcing=forcing,
        norms=norms,
        sampler=sampler,
        stability=stability,
        t_end=t_end,
        options=options,
    )
