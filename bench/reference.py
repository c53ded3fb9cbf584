"""Reference outputs and the roundoff budget they are compared under.

For every workload and each seed in ``SEEDS`` the outputs of the program
at the commit that defined the benchmark are kept as a fingerprint: the
SHA-256 and size of each file, and every numeric column (a float CSV
column, or the flattened ``.bqf`` payload), strided down to at most
``SAMPLE`` values, with the column's full max-abs as its scale.

A later run is compared column by column.  ``bit_identical`` says whether
every file hashes the same.  The deviation of a column is
``max |new - ref| / scale``; a run whose largest deviation exceeds
``BUDGET`` counts as failed.  Columns that are themselves error or
convergence diagnostics (residuals, the divergence residual, ratios of
tolerance-level increments) are roundoff-sized by nature, so they are kept
out of the deviation and are held instead by the absolute limits in
``workloads.py``.  Seeds without a reference are checked by those limits
alone.

Record the references (this runs each workload once per seed; name
workloads to re-record only those):

    python3 bench/reference.py [WORKLOAD ...]
"""

from __future__ import annotations

import hashlib
import json
import math
import sys
from pathlib import Path

import numpy as np

from workloads import WORKLOADS, read_bqf, read_csv

STORE = Path(__file__).resolve().parent / "references"
SEEDS = range(32)
SAMPLE = 512
# Largest allowed max |new - ref| / scale in any value column.  Reordering
# the FFT passes, or taking real forward transforms through rfftn, moves the
# value columns by at most 4e-16.  The solver tolerances (picard_tol,
# outer_tol) are 1e-10, so a change of iteration path may move results by
# that much; the budget sits one decade above it.
BUDGET = 1e-9
DIAGNOSTIC_COLUMNS = {
    "trajectory.csv": {"divergence_residual"},
    "residual.csv": {"residual_max", "residual_norm", "cross_check_max_diff"},
    "contraction_history.csv": {"ratio"},
}


def _columns(path):
    """Numeric columns of one output file, as full float arrays."""
    path = Path(path)
    if path.suffix == ".bqf":
        return {"values": read_bqf(path).ravel()}
    header, rows = read_csv(path)
    skip = DIAGNOSTIC_COLUMNS.get(path.name, set())
    cols = {}
    for i, name in enumerate(header):
        if name in skip:
            continue
        try:
            cols[name] = np.array([float(r[i]) for r in rows])
        except ValueError:
            continue  # a label column
    return cols


def _stride(n):
    return max(1, math.ceil(n / SAMPLE))


def fingerprint(workload, outdir):
    """Hashes and strided numeric columns of one run's outputs."""
    fp = {}
    for name in WORKLOADS[workload].outputs:
        path = Path(outdir) / name
        raw = path.read_bytes()
        cols = _columns(path)
        fp[name] = {
            "sha256": hashlib.sha256(raw).hexdigest(),
            "bytes": len(raw),
            "lengths": {c: len(v) for c, v in cols.items()},
            "scales": {c: float(np.max(np.abs(v[np.isfinite(v)]), initial=0.0))
                       for c, v in cols.items()},
            "samples": {c: v[::_stride(len(v))] for c, v in cols.items()},
        }
    return fp


def compare(fp, ref):
    """Bit-identity and the largest scaled deviation of ``fp`` against ``ref``."""
    identical = all(fp[f]["sha256"] == ref[f]["sha256"] for f in ref)
    worst, where = 0.0, ""
    for f, r in ref.items():
        for col, scale in r["scales"].items():
            new = fp[f]["samples"].get(col)
            old = r["samples"][col]
            if new is None or fp[f]["lengths"][col] != r["lengths"][col]:
                dev = math.inf
            else:
                same = (new == old) | (np.isnan(new) & np.isnan(old))
                with np.errstate(invalid="ignore"):
                    diff = np.where(same, 0.0, np.abs(new - old))
                dev = float(np.max(np.nan_to_num(diff, nan=math.inf), initial=0.0))
                dev = dev / scale if scale > 0 else dev
            if dev > worst or not where:
                worst, where = dev, f"{f}:{col}"
    return {"bit_identical": identical, "max_deviation": worst, "worst_column": where,
            "within_budget": worst <= BUDGET}


def load(workload, seed):
    """The stored fingerprint for (workload, seed), or None."""
    index_path = STORE / "references.json"
    if not index_path.exists():
        return None
    meta = json.loads(index_path.read_text(encoding="utf-8"))["workloads"].get(workload, {})
    entry = meta.get(str(seed))
    if entry is None:
        return None
    with np.load(STORE / f"{workload}.npz") as arrays:
        return {
            f: dict(info, samples={c: arrays[f"{seed}/{f}/{c}"] for c in info["scales"]})
            for f, info in entry.items()
        }


def _cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            models = (ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name"))
            return next(models, "")
    except OSError:
        return ""


def program_digest(root):
    """SHA-256 over the program sources, naming the code the references came from."""
    h = hashlib.sha256()
    for path in sorted((Path(root) / "src" / "bqbox").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def record(names):
    """Run each named workload once per seed and store its fingerprints."""
    from run import ROOT, environment, prepare, run_cli

    STORE.mkdir(exist_ok=True)
    index_path = STORE / "references.json"
    kept = {}
    if index_path.exists():
        kept = json.loads(index_path.read_text(encoding="utf-8"))["workloads"]
    index = {"budget": BUDGET, "sample": SAMPLE,
             "diagnostic_columns": {k: sorted(v) for k, v in DIAGNOSTIC_COLUMNS.items()},
             "program_sha256": program_digest(ROOT),
             "environment": dict(environment(), cpu_model=_cpu_model()),
             "workloads": {k: v for k, v in kept.items() if k not in names}}
    for name in names:
        arrays, meta = {}, {}
        for seed in SEEDS:
            work, config = prepare(name, seed)
            run = run_cli(name, config, work / "out", "plain", f"{name}-{seed}-ref", work)
            problems = WORKLOADS[name].check(work / "out") if run.rc == 0 else [f"exit {run.rc}"]
            if problems:
                sys.exit(f"{name} seed {seed}: {problems}")
            fp = fingerprint(name, work / "out")
            meta[str(seed)] = {f: {k: v for k, v in info.items() if k != "samples"}
                               for f, info in fp.items()}
            for f, info in fp.items():
                for c, v in info["samples"].items():
                    arrays[f"{seed}/{f}/{c}"] = v
            print(f"{name} seed {seed}: {run.wall_s:.2f} s", flush=True)
        np.savez_compressed(STORE / f"{name}.npz", **arrays)
        index["workloads"][name] = meta
    index_path.write_text(json.dumps(index, indent=1, sort_keys=True) + "\n", encoding="utf-8")


if __name__ == "__main__":
    record(sys.argv[1:] or list(WORKLOADS))
