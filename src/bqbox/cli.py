"""Command-line entry point wiring the computational modules.

Subcommands: norms, evolve, periodic-linear, periodic-nonlinear, stability,
verify-estimates.  Every run reads one JSON config, writes CSV/field
artifacts plus a manifest into its output directory, and is bit-reproducible
for a fixed config and seed (the manifest, which records wall time, is the
one exception).

Exit codes: 0 success, 2 invalid config, 3 hypothesis violated,
4 convergence failure, 5 I/O error, 6 a diagnostics check failed mid-run.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
import time
from pathlib import Path

import numpy as np

from .config import build_initial, load_config, numeric_option
from .duhamel import evolve
from .errors import ConfigError, ConvergenceError, DiagnosticsError, FieldIOError, HypothesisError
from .fileio import read_field, write_field
from .grid import spectral_divergence_residual
from .norms import (NormContext, NormParams, TimeWeightParams, morrey_lorentz_norm,
                    morrey_lorentz_table, state_norm, weighted_time_sup)
from .operators import verify_dispersive
from .periodic import (
    PeriodicProblem,
    cesaro_periodic_datum,
    nonlinear_periodic,
    resolvent_periodic_datum,
)
from .presets import random_div_free, random_smooth_scalar
from .report import write_csv, write_manifest
from .stability import (
    StabilityParams,
    fit_decay_exponent,
    perturb_and_compare,
    smallness_report,
    weighted_bilinear_constants,
)
from .suite import refinement_comparison

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_HYPOTHESIS = 3
EXIT_CONVERGENCE = 4
EXIT_IO = 5
EXIT_DIAGNOSTICS = 6


def _parser():
    ap = argparse.ArgumentParser(prog="bqbox", description=__doc__)
    ap.add_argument("subcommand", choices=[
        "norms", "evolve", "periodic-linear", "periodic-nonlinear", "stability", "verify-estimates",
    ])
    env_seed = os.environ.get("BQBOX_SEED")
    ap.add_argument("--config", default=os.environ.get("BQBOX_CONFIG"))
    ap.add_argument("--output", default=os.environ.get("BQBOX_OUTPUT", "."))
    ap.add_argument("--seed", type=int, default=int(env_seed) if env_seed else None)
    return ap


def _state_norm_columns(cfg):
    cols = []
    for params in cfg.norms:
        label = f"xnorm_p{params.p:g}_lam{params.lam:g}"
        cols.append((label, NormContext(params, cfg.sampler)))
    return cols


def _cmd_norms(cfg, outdir):
    if not cfg.raw.get("field_file"):
        raise ConfigError("norms subcommand needs config field_file")
    loaded = read_field(cfg.raw["field_file"])
    if loaded.grid != cfg.grid:
        raise ConfigError(f"field file grid {loaded.grid} differs from config grid {cfg.grid}")
    if not cfg.norms:
        raise ConfigError("norms subcommand needs at least one entry in norms[]")
    if hasattr(loaded, "u"):  # a state file: norm both parts
        parts = [("u", loaded.u), ("theta", loaded.theta)]
    else:
        parts = [("field", loaded)]
    for label, fld in parts:
        if not np.all(np.isfinite(fld.values)):
            raise DiagnosticsError(f"field file part {label} has non-finite values")
    rows = []
    for params in cfg.norms:
        for label, fld in parts:
            table = morrey_lorentz_table(fld, params, cfg.sampler)
            sup = float(np.max([r.local_norm for r in table]))
            for r in table:
                center = ";".join(format(c, ".17g") for c in r.center)
                rows.append((label, params.p, params.lam, center, r.radius, r.local_norm, 0))
            rows.append((label, params.p, params.lam, "sup", math.nan, sup, 1))
    path = write_csv(outdir / "norms.csv",
                     ["part", "p", "lam", "center", "radius", "local_norm", "is_summary"], rows)
    return [path]


def _cmd_evolve(cfg, outdir):
    if cfg.solve is None or cfg.t_end is None:
        raise ConfigError("evolve needs solve{} and t_end")
    stride = numeric_option(cfg.raw, "snapshots", 0, integral=True, least=0)
    initial = build_initial(cfg.raw, cfg.grid, cfg.seed)
    norm_cols = _state_norm_columns(cfg)
    header = ["time", "energy", "divergence_residual"] + [c[0] for c in norm_cols]
    rows = []
    snapshots = []  # (index, state) of every stride-th stored state

    def on_state(t, s):
        # one stored state at a time: its row now, the state itself only if it is a snapshot
        if stride > 0 and len(rows) % stride == 0:
            snapshots.append((len(rows), s))
        row = [t, s.energy(), spectral_divergence_residual(s.u)]
        for _, ctx in norm_cols:
            row.append(state_norm(s, ctx))
        rows.append(row)

    evolve(initial, cfg.forcing, cfg.t_end, cfg.solve, mode=cfg.mode, on_state=on_state)
    outputs = [write_csv(outdir / "trajectory.csv", header, rows)]
    for i, s in snapshots:
        p = outdir / f"state_{i:05d}.bqf"
        write_field(p, s)
        outputs.append(p)
    return outputs


def _cmd_periodic_linear(cfg, outdir):
    if cfg.solve is None or cfg.forcing is None:
        raise ConfigError("periodic-linear needs solve{} and forcing{}")
    problem = PeriodicProblem(forcing=cfg.forcing, cfg=cfg.solve, grid=cfg.grid)
    n_max = numeric_option(cfg.raw, "periodic.n_max", 256, integral=True)
    tol = numeric_option(cfg.raw, "periodic.tol", 1e-9)
    reference = resolvent_periodic_datum(problem)
    sol = cesaro_periodic_datum(problem, n_max=n_max, tol=tol, reference=reference)
    cross = sol.history[-1][2]  # the datum's max difference to the resolvent datum
    outputs = []
    write_field(outdir / "datum.bqf", sol.initial)
    outputs.append(outdir / "datum.bqf")
    outputs.append(write_csv(
        outdir / "residual.csv",
        ["route", "residual_max", "residual_norm", "cross_check_max_diff"],
        [("cesaro", sol.residual_max, sol.residual_norm, cross)],
    ))
    hist_rows = []
    prev = None
    for (nit, inc, err) in sol.history:
        ratio = inc / prev if prev and prev > 0 else math.nan
        hist_rows.append((nit, inc, err, ratio))
        prev = inc
    outputs.append(write_csv(outdir / "history.csv",
                             ["iteration", "increment_norm", "error_vs_resolvent", "ratio"],
                             hist_rows))
    return outputs


def _nonlinear_orbit(cfg, p):
    """The certified periodic orbit at norm exponent p, with ``periodic.{outer_tol,outer_max}``."""
    outer_tol = numeric_option(cfg.raw, "periodic.outer_tol", 1e-8)
    outer_max = numeric_option(cfg.raw, "periodic.outer_max", 16, integral=True)
    ctx = NormContext(NormParams.critical(p, cfg.grid.n), cfg.sampler, time_stride=4)
    problem = PeriodicProblem(forcing=cfg.forcing, cfg=cfg.solve, grid=cfg.grid)
    return nonlinear_periodic(problem, outer_tol=outer_tol, outer_max=outer_max, ctx=ctx)


def _cmd_periodic_nonlinear(cfg, outdir):
    if cfg.solve is None or cfg.forcing is None:
        raise ConfigError("periodic-nonlinear needs solve{} and forcing{}")
    sol = _nonlinear_orbit(
        cfg, numeric_option(cfg.raw, "norm_p", cfg.norms[0].p if cfg.norms else 3.0))
    outputs = []
    write_field(outdir / "datum.bqf", sol.initial)
    outputs.append(outdir / "datum.bqf")
    outputs.append(write_csv(outdir / "residual.csv",
                             ["residual_max", "residual_norm", "solution_h_norm"],
                             [(sol.residual_max, sol.residual_norm, sol.meta["solution_h_norm"])]))
    outputs.append(write_csv(outdir / "contraction_history.csv",
                             ["iteration", "increment_norm", "ratio"],
                             [(m, d, r) for (m, d, r) in sol.history]))
    return outputs


def _cmd_stability(cfg, outdir):
    if cfg.stability is None:
        raise ConfigError("stability subcommand needs stability{}")
    if cfg.solve is None or cfg.forcing is None:
        raise ConfigError("stability subcommand needs solve{} and forcing{}")
    st = cfg.stability
    K = numeric_option(cfg.raw, "estimates.K_emp", 1.0)
    params = StabilityParams(p=st["p"], q=st["q"], r=st["r"], b=st["b"])
    params.lam(cfg.grid.n)  # p <= n hypothesis
    base = _nonlinear_orbit(cfg, params.p)
    gap = random_div_free(cfg.grid, seed=cfg.seed + 99, exponent=2.0,
                          amplitude=st["initial_gap"])
    perturbed = type(base.initial)(
        u=type(base.initial.u)(cfg.grid, base.initial.u.values + gap.values),
        theta=base.initial.theta,
    )
    T = cfg.forcing.period
    t_max = st["t_max_periods"] * T
    t_grid = np.geomspace(cfg.solve.dt, t_max, st["num_times"])
    table = perturb_and_compare(base, perturbed, None, params, t_grid, sampler=cfg.sampler)
    rows = table.rows
    outputs = [write_csv(
        outdir / "stability.csv",
        ["t", "weighted_velocity_gap", "weighted_temperature_gap",
         "velocity_weight", "temperature_weight", "D"],
        [(t, wu, wth, t ** (params.alpha / 2.0), t ** (params.gamma / 2.0), d)
         for (t, wu, wth, d) in rows],
    )]
    gaps = [(t, d) for (t, _, _, d) in rows]
    fit_row = (math.nan, math.nan, 0)
    try:
        fit = fit_decay_exponent(gaps, window=(t_max / 6.0, t_max))
        fit_row = (fit.slope, fit.width, fit.npoints)
    except DiagnosticsError:
        pass
    outputs.append(write_csv(outdir / "summary.csv",
                             ["fitted_slope", "slope_halfwidth", "points", "sup_D", "alpha_half"],
                             [fit_row + (table.sup_d, params.alpha / 2.0)]))
    c1, c2 = weighted_bilinear_constants(params.p, params.q, params.r)
    rep = smallness_report(**_smallness_inputs(cfg, params, base, K))
    text = rep.text() + f"\nprinted weighted constants C1 = {c1:.6g}, C2 = {c2:.6g}\n"
    (outdir / "smallness.txt").write_text(text, encoding="utf-8")
    outputs.append(outdir / "smallness.txt")
    return outputs


def _smallness_inputs(cfg, params, base, K):
    """Empirical inputs for the assembled contraction expressions."""
    forcing = cfg.forcing
    grid = cfg.grid
    lam = grid.n - params.p
    T = forcing.period
    ts = [T / 8, T / 4, T / 2, 3 * T / 4, T]
    g_norm = 0.0
    if forcing.g is not None:
        g_norm = weighted_time_sup(
            [(t, forcing.g.value(t)) for t in ts],
            TimeWeightParams(p=params.p, b=params.b), lam, cfg.sampler,
        )
    # np.max, unlike max(), lets a NaN sample through in any order
    eta_sup = float(np.max([
        morrey_lorentz_norm(s.theta, NormParams(p=params.p, q=math.inf, lam=lam), cfg.sampler)
        for s in base.trajectory.states[:: max(1, len(base.trajectory.states) // 4)]
    ]))
    half = NormParams(p=params.p / 2.0, q=math.inf, lam=lam)
    totals = []
    for t in ts:
        total = 0.0
        if forcing.F is not None:
            total += morrey_lorentz_norm(forcing.F.value(t), half, cfg.sampler)
        if forcing.f is not None:
            total += morrey_lorentz_norm(forcing.f.value(t), half, cfg.sampler)
        totals.append(total)
    ff_norm = float(np.max(totals))
    return dict(
        p=params.p, b=params.b, kappa=forcing.kappa, K=K,
        rho=base.meta["solution_h_norm"], g_norm=g_norm, eta_sup=eta_sup, Ff_norm=ff_norm,
    )


def _cmd_verify_estimates(cfg, outdir):
    ensemble = numeric_option(cfg.raw, "estimates.ensemble", 4, integral=True, least=1)
    p = numeric_option(cfg.raw, "estimates.p", 3.0)
    rows = refinement_comparison(cfg.grid, cfg.seed, ensemble=ensemble, p=p)
    outputs = [write_csv(outdir / "estimates.csv",
                         ["check", "value", "value_refined", "rel_change"], rows)]
    # per-time decay ratio table for one representative field
    phi = random_smooth_scalar(cfg.grid, seed=cfg.seed, exponent=2.0)
    rep = verify_dispersive(
        phi, NormParams(p=p, q=math.inf, lam=0.0), NormParams(p=2 * p, q=math.inf, lam=0.0),
        m=1, t_grid=np.geomspace(1e-3, 1.0, 12), sampler=cfg.sampler,
    )
    outputs.append(write_csv(outdir / "dispersive.csv",
                             ["t", "lhs_norm", "weight", "ratio"], rep.rows))
    return outputs


_COMMANDS = {
    "norms": _cmd_norms,
    "evolve": _cmd_evolve,
    "periodic-linear": _cmd_periodic_linear,
    "periodic-nonlinear": _cmd_periodic_nonlinear,
    "stability": _cmd_stability,
    "verify-estimates": _cmd_verify_estimates,
}


def main(argv=None):
    args = _parser().parse_args(argv)
    started = time.monotonic()
    try:
        if not args.config:
            raise ConfigError("--config (or BQBOX_CONFIG) is required")
        cfg = load_config(args.config, seed=args.seed)
        outdir = Path(args.output)
        try:
            outdir.mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            raise FieldIOError(f"cannot create output directory {outdir}: {exc}") from exc
        outputs = _COMMANDS[args.subcommand](cfg, outdir)
        write_manifest(outdir, args.subcommand, cfg.text, cfg.seed,
                       [Path(o).name for o in outputs], time.monotonic() - started)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except HypothesisError as exc:
        print(f"hypothesis violated: {exc}", file=sys.stderr)
        return EXIT_HYPOTHESIS
    except ConvergenceError as exc:
        print(f"convergence failure: {exc}", file=sys.stderr)
        return EXIT_CONVERGENCE
    except (FieldIOError, OSError) as exc:
        print(f"I/O error: {exc}", file=sys.stderr)
        return EXIT_IO
    except DiagnosticsError as exc:
        print(f"diagnostics error: {exc}", file=sys.stderr)
        return EXIT_DIAGNOSTICS
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
