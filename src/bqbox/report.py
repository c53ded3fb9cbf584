"""Deterministic CSV and manifest emission.

CSV dialect: comma-separated, '.' decimal, LF line endings, UTF-8, one
header row, and a trailing comment line referencing the run manifest.
Floats are printed with repr-faithful %.17g so identical runs produce
byte-identical files; the manifest (config hash, versions, wall time) is
the one artifact allowed to differ between repeated runs.
"""

from __future__ import annotations

import hashlib
import json
import platform
import time
from pathlib import Path

import numpy as np

MANIFEST_NAME = "manifest.json"


def format_value(x):
    if isinstance(x, (bool, np.bool_)):
        return "1" if x else "0"
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    if isinstance(x, (float, np.floating)):
        return format(float(x), ".17g")
    return str(x)


def write_csv(path, header, rows, manifest_name=MANIFEST_NAME):
    path = Path(path)
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(format_value(v) for v in row))
    lines.append(f"# manifest: {manifest_name}")
    path.write_text("\n".join(lines) + "\n", encoding="utf-8", newline="\n")
    return path


def sha256_hex(text):
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def write_manifest(outdir, subcommand, config_text, seed, outputs, wall_time_s):
    outdir = Path(outdir)
    manifest = {
        "subcommand": subcommand,
        "config_sha256": sha256_hex(config_text),
        "seed": seed,
        "outputs": sorted(str(o) for o in outputs),
        "wall_time_s": wall_time_s,
        "versions": {
            "python": platform.python_version(),
            "numpy": np.__version__,
            "bqbox": _package_version(),
        },
        "written_at_unix": time.time(),
    }
    path = outdir / MANIFEST_NAME
    path.write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    return path


def _package_version():
    try:
        from importlib.metadata import version

        return version("bqbox")
    except Exception:
        return "unknown"
