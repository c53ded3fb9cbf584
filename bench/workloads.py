"""The four benchmark workloads: seeded input generation and output checks.

Each workload runs one ``bqbox`` subcommand on files this module writes.
Every input (the JSON config and, for ``norms-n64``, the 64^3 field file)
is a pure function of the workload name and the seed, so one seed always
gives byte-identical inputs.  The program only ever sees the files.

Why these four (see BENCHMARK.json for the one-line form):

* ``evolve-full-n32`` -- nonlinear RHS and FFT bound (ROADMAP item 2).
* ``periodic-linear-n16`` -- forcing quadrature, step arithmetic and Leray
  per step, no nonlinear RHS (item 3); the Cesaro orbit stores n_max states.
* ``periodic-nonlinear-n32`` -- the duhamel layer used a second way:
  frozen-nonlinearity evolves and re-transforms of stored states.
* ``norms-n64`` -- the ball gather and its index tensor, no FFTs (item 4).

The q < inf Lorentz segment integral is left out on purpose: in a mixed
norms run it would take most of the wall time and hide the gather.
"""

from __future__ import annotations

import json
import math
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

BOX = 2.0 * math.pi

# Per-workload stream tags, so two workloads with one seed draw unrelated inputs.
_TAGS = {"evolve-full-n32": 1, "periodic-linear-n16": 2, "periodic-nonlinear-n32": 3,
         "norms-n64": 4}


def _rng(workload, seed):
    return np.random.Generator(np.random.PCG64([int(seed), _TAGS[workload]]))


def _unit_mode(rng, nonzero_axis):
    """Integer wavevector with entries in {-1, 0, 1} and k[nonzero_axis] != 0."""
    k = [int(v) for v in rng.integers(-1, 2, size=3)]
    k[nonzero_axis] = int(rng.choice([-1, 1]))
    return k


def _program_seed(rng):
    return int(rng.integers(1, 2**31 - 1))


def _evolve_config(rng, indir):
    row, col = (int(v) for v in rng.integers(0, 3, size=2))
    comp = int(rng.integers(0, 3))
    return {
        "grid": {"n": 3, "N": 32, "L": BOX},
        "seed": _program_seed(rng),
        "mode": "full",
        "initial": {
            "u": {"preset": "random-div-free",
                  "params": {"seed": _program_seed(rng), "exponent": 2.0, "amplitude": 1e-3}},
            # centred bump, as in the README sketch: where it sits against the
            # gravity core sets the Picard count, so it stays fixed across seeds
            "theta": {"preset": "gaussian-bump", "params": {"sigma": 0.6}},
        },
        "forcing": {
            "period": 1.0, "kappa": 0.5,
            "F": [{"harmonic": 0, "preset": "single-mode-tensor", "amplitude": 1e-3,
                   "params": {"k": _unit_mode(rng, col), "row": row, "col": col}}],
            "f": [{"harmonic": 1, "phase": float(rng.uniform(0, 2 * math.pi)),
                   "preset": "single-mode-vector", "amplitude": 1e-3,
                   "params": {"k": _unit_mode(rng, comp), "component": comp}}],
            "g": [{"harmonic": 0, "preset": "gravity", "amplitude": 1.0,
                   "params": {"G": 1.0, "soft_cells": 2}}],
        },
        "solve": {"dt": 1.0 / 32, "substeps": 4, "picard_tol": 1e-10, "picard_max": 40},
        "t_end": 1.0,
        "norms": [{"p": 3.0, "q": None, "lam": 0.0}],
    }


def _periodic_linear_config(rng, indir):
    amp = 2e-5
    f_seed = _program_seed(rng)
    return {
        "grid": {"n": 3, "N": 16, "L": BOX},
        "seed": _program_seed(rng),
        "mode": "linearized",
        "forcing": {
            "period": 1.0,
            "F": [{"harmonic": 1, "phase": float(rng.uniform(0, 2 * math.pi)),
                   "preset": "random-tensor", "amplitude": amp,
                   "params": {"seed": _program_seed(rng), "exponent": 2.0}}],
            "f": [{"harmonic": 0, "preset": "random-vector", "amplitude": amp,
                   "params": {"seed": f_seed, "exponent": 2.0}},
                  {"harmonic": 1, "phase": float(rng.uniform(0, 2 * math.pi)),
                   "preset": "random-vector", "amplitude": amp,
                   "params": {"seed": f_seed, "exponent": 2.0}}],
        },
        "solve": {"dt": 1.0 / 16, "substeps": 4},
        "periodic": {"n_max": 400, "tol": 5e-9},
    }


def _periodic_nonlinear_config(rng, indir):
    # The criterion-5 forcing with its axes relabelled by a seeded permutation,
    # a symmetry of the box: a random mode geometry can make the advection
    # vanish (a shear flow) and change the outer iteration count.
    a, b, _ = (int(v) for v in rng.permutation(3))
    k_a, k_b = [0, 0, 0], [0, 0, 0]
    k_a[a], k_b[b] = 1, 1
    return {
        "grid": {"n": 3, "N": 32, "L": BOX},
        "seed": _program_seed(rng),
        "mode": "full",
        "forcing": {
            "period": 1.0,
            "F": [{"harmonic": 0, "preset": "single-mode-tensor", "amplitude": 1e-3,
                   "params": {"k": k_b, "row": a, "col": b}}],
            "f": [{"harmonic": 1, "phase": float(rng.uniform(0, 2 * math.pi)),
                   "preset": "single-mode-vector", "amplitude": 1e-3,
                   "params": {"k": k_a, "component": a}}],
        },
        "solve": {"dt": 1.0 / 32, "substeps": 4},
        "norm_p": 3.0,
        "periodic": {"outer_tol": 1e-10, "outer_max": 20},
    }


def _norms_config(rng, indir):
    field_path = (indir / "field.bqf").resolve()
    cfg = {
        "grid": {"n": 3, "N": 64, "L": BOX},
        "seed": _program_seed(rng),
        "field_file": str(field_path),
        "norms": [{"p": 3.0, "q": None, "lam": 0.5}],
        "sampler": {"num_centers": 64, "num_radii": 12, "jitter_seed": _program_seed(rng)},
    }
    u = _smooth_random(rng, 64, 3, div_free=True)
    theta = _smooth_random(rng, 64, 1, div_free=False)[0]
    write_state_bqf(field_path, u, theta, BOX)
    return cfg


# ---------------------------------------------------------------------------
# the norms input field, built here so the program sees only a file
# ---------------------------------------------------------------------------


def _smooth_random(rng, N, ncomp, div_free):
    """Real fields with spectrum |k|^-2, 2/3-dealiased, optionally solenoidal."""
    k1 = np.fft.fftfreq(N, d=1.0 / N)
    K = np.stack(np.meshgrid(k1, k1, k1, indexing="ij"))
    k2 = np.sum(K * K, axis=0)
    keep = np.all(np.abs(K) <= N // 3, axis=0) & (k2 > 0)
    scale = np.where(keep, 1.0 / np.where(k2 > 0, k2, 1.0), 0.0)
    coeffs = np.fft.fftn(rng.standard_normal((ncomp, N, N, N)), axes=(1, 2, 3)) * scale
    if div_free:
        dot = np.sum(K * coeffs, axis=0)
        coeffs = coeffs - K * (dot / np.where(k2 > 0, k2, 1.0))
    values = np.fft.ifftn(coeffs, axes=(1, 2, 3)).real
    return values / np.max(np.abs(values))


def write_state_bqf(path, u, theta, L):
    """BQF1 state file: header, then u components and theta as little-endian f64."""
    N = theta.shape[0]
    comps = np.ascontiguousarray(np.concatenate([u, theta[np.newaxis]]), dtype="<f8")
    with open(path, "wb") as fh:
        fh.write(struct.pack("<4sIIdI", b"BQF1", 3, N, L, comps.shape[0]))
        fh.write(comps.tobytes(order="C"))


# ---------------------------------------------------------------------------
# the workloads
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Workload:
    name: str
    subcommand: str
    outputs: tuple  # files compared against the reference (manifest.json is not)
    make_config: object  # (rng, input dir) -> config dict; writes any field file
    check_outputs: object  # output dir -> list of problems

    def write_inputs(self, seed, indir):
        """Write this workload's inputs for ``seed`` into ``indir``; return the config path."""
        indir = Path(indir)
        indir.mkdir(parents=True, exist_ok=True)
        cfg = self.make_config(_rng(self.name, seed), indir)
        path = indir / "config.json"
        path.write_text(json.dumps(cfg, indent=1, sort_keys=True) + "\n", encoding="utf-8")
        return path

    def check(self, outdir):
        """Program-independent checks on one run's outputs; returns a list of problems."""
        return self.check_outputs(Path(outdir))


# ---------------------------------------------------------------------------
# output readers and invariant checks
# ---------------------------------------------------------------------------


def read_csv(path):
    """Header and rows of a bqbox CSV (the trailing manifest comment dropped)."""
    lines = Path(path).read_text(encoding="utf-8").splitlines()
    body = [ln for ln in lines if not ln.startswith("#")]
    return body[0].split(","), [ln.split(",") for ln in body[1:]]


def read_bqf(path):
    raw = Path(path).read_bytes()
    magic, n, N, _L, ncomp = struct.unpack_from("<4sIIdI", raw)
    if magic != b"BQF1":
        raise ValueError(f"{path}: bad magic")
    return np.frombuffer(raw[struct.calcsize("<4sIIdI"):], dtype="<f8").reshape((ncomp,) + (N,) * n)


def _column(header, rows, name):
    i = header.index(name)
    return np.array([float(r[i]) for r in rows])


def _check_evolve(outdir):
    header, rows = read_csv(outdir / "trajectory.csv")
    problems = []
    if len(rows) != 33:
        problems.append(f"trajectory has {len(rows)} rows, expected 33")
    values = np.array([[float(v) for v in r] for r in rows])
    if not np.all(np.isfinite(values)):
        problems.append("trajectory has non-finite values")
    # a relative per-mode measure that reads about 1e-9 on weak modes
    if np.max(_column(header, rows, "divergence_residual")) > 1e-6:
        problems.append("velocity divergence residual above 1e-6")
    if np.min(_column(header, rows, "energy")) <= 0.0:
        problems.append("energy is not positive")
    return problems


def _check_datum(outdir, N):
    datum = read_bqf(outdir / "datum.bqf")
    problems = []
    if datum.shape != (4, N, N, N):
        problems.append(f"datum shape {datum.shape}")
    elif not np.all(np.isfinite(datum)) or np.max(np.abs(datum)) == 0.0:
        problems.append("datum is non-finite or zero")
    return problems


def _check_periodic_linear(outdir):
    problems = _check_datum(outdir, 16)
    header, rows = read_csv(outdir / "residual.csv")
    # Cesaro and resolvent routes must agree (the acceptance bound of criterion 4).
    if float(rows[0][header.index("cross_check_max_diff")]) > 1e-6:
        problems.append("Cesaro and resolvent data disagree by more than 1e-6")
    if not float(rows[0][header.index("residual_max")]) < 1e-6:
        problems.append("periodicity residual above 1e-6")
    return problems


def _check_periodic_nonlinear(outdir):
    problems = _check_datum(outdir, 32)
    header, rows = read_csv(outdir / "residual.csv")
    if not float(rows[0][header.index("residual_max")]) < 1e-6:
        problems.append("periodicity residual above 1e-6")
    header, rows = read_csv(outdir / "contraction_history.csv")
    ratios = _column(header, rows, "ratio")
    if np.any(ratios[np.isfinite(ratios)] >= 1.0):
        problems.append("outer iteration did not contract")
    return problems


def _check_norms(outdir):
    header, rows = read_csv(outdir / "norms.csv")
    problems = []
    for part in ("u", "theta"):
        mine = [r for r in rows if r[0] == part]
        local = np.array([float(r[header.index("local_norm")]) for r in mine if r[-1] == "0"])
        sup = [float(r[header.index("local_norm")]) for r in mine if r[-1] == "1"]
        if len(local) != 64 * 12 or len(sup) != 1:
            problems.append(f"{part}: {len(local)} ball rows and {len(sup)} sup rows")
        elif not (np.all(np.isfinite(local)) and np.all(local > 0) and sup[0] == np.max(local)):
            problems.append(f"{part}: ball norms non-finite, non-positive, or sup != max")
    return problems


WORKLOADS = {
    w.name: w
    for w in (
        Workload("evolve-full-n32", "evolve", ("trajectory.csv",),
                 _evolve_config, _check_evolve),
        Workload("periodic-linear-n16", "periodic-linear",
                 ("datum.bqf", "residual.csv", "history.csv"),
                 _periodic_linear_config, _check_periodic_linear),
        Workload("periodic-nonlinear-n32", "periodic-nonlinear",
                 ("datum.bqf", "residual.csv", "contraction_history.csv"),
                 _periodic_nonlinear_config, _check_periodic_nonlinear),
        Workload("norms-n64", "norms", ("norms.csv",), _norms_config, _check_norms),
    )
}
