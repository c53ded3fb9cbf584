"""The README's code runs: its library example executes and its config sketch loads."""

import re
from pathlib import Path

import numpy as np

from bqbox.config import load_config

README = Path(__file__).resolve().parents[1] / "README.md"


def fenced_block(heading, language):
    """The first ```language block after the markdown ``heading`` line."""
    text = README.read_text(encoding="utf-8")
    start = text.index(f"\n{heading}\n")
    match = re.compile(rf"^```{language}\n(.*?)^```$", re.M | re.S).search(text, start)
    assert match, f"no {language} block under {heading!r}"
    return match.group(1)


def test_library_use_runs(capsys):
    exec(compile(fenced_block("## Library use", "python"), "README.md", "exec"), {})
    residual = float(capsys.readouterr().out)
    assert np.isfinite(residual) and residual >= 0.0


def test_config_sketch_loads(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(fenced_block("### Config sketch", "json"), encoding="utf-8")
    cfg = load_config(path)
    assert (cfg.grid.n, cfg.grid.N, cfg.seed, cfg.mode) == (3, 32, 7, "full")
    assert cfg.sampler.num_centers == 64 and len(cfg.norms) == 1
