"""Deterministic CSV and manifest emission.

CSV dialect: comma-separated, '.' decimal, LF line endings, UTF-8, one
header row, and a trailing comment line referencing the run manifest.
Floats are printed with repr-faithful %.17g so identical runs produce
byte-identical files; the manifest (config hash, versions, wall time, peak
memory) is the one artifact allowed to differ between repeated runs.
"""

from __future__ import annotations

import json
import platform
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__

MANIFEST_NAME = "manifest.json"


def format_value(x):
    if isinstance(x, (bool, np.bool_)):
        return "1" if x else "0"
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    if isinstance(x, (float, np.floating)):
        return format(float(x), ".17g")
    return str(x)


def write_csv(path, header, rows):
    path = Path(path)
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(format_value(v) for v in row))
    lines.append(f"# manifest: {MANIFEST_NAME}")
    path.write_text("\n".join(lines) + "\n", encoding="utf-8", newline="\n")
    return path


def sha256_hex(text):
    # imported on first use: hashlib maps OpenSSL's libcrypto (about 3.5 MB
    # resident), and the manifest hash, written after the solve, is its reader
    import hashlib

    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def peak_rss_mb():
    """This process's peak resident memory in MiB, or None where ``resource`` is missing.

    ``ru_maxrss`` counts KiB on Linux and bytes on macOS.  A child inherits its
    parent's high-water mark across fork/exec, so under a larger parent this
    reads the parent's mark.
    """
    try:
        import resource
    except ImportError:  # Windows
        return None
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return peak / 2**20 if sys.platform == "darwin" else peak / 2**10


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
            "bqbox": __version__,
        },
        "written_at_unix": time.time(),
    }
    peak = peak_rss_mb()
    if peak is not None:
        manifest["peak_rss_mb"] = peak
    path = outdir / MANIFEST_NAME
    path.write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    return path

