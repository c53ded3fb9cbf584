"""Tests of the benchmark itself: seeded inputs, the tracer, the reference check.

Run with ``python3 -m pytest bench``.  The traced-versus-untraced test runs
each workload shrunk to N = 16 so that it takes seconds.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import reference  # noqa: E402
from run import run_cli  # noqa: E402
from tracer import layer_metrics  # noqa: E402
from workloads import BOX, WORKLOADS, _smooth_random, write_state_bqf  # noqa: E402


def _input_bytes(indir):
    return {p.name: p.read_bytes() for p in sorted(Path(indir).iterdir())}


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_inputs_depend_only_on_seed(name, tmp_path):
    w = WORKLOADS[name]
    w.write_inputs(7, tmp_path)
    first = _input_bytes(tmp_path)
    w.write_inputs(7, tmp_path)
    assert _input_bytes(tmp_path) == first
    w.write_inputs(8, tmp_path)
    other = _input_bytes(tmp_path)
    assert other.keys() == first.keys()
    assert all(other[f] != first[f] for f in first)


def _shrink(name, config_path):
    """The same workload at N = 16 and a fraction of the work."""
    cfg = json.loads(config_path.read_text())
    cfg["grid"]["N"] = 16
    if name == "evolve-full-n32":
        cfg["t_end"] = 4 * cfg["solve"]["dt"]
    elif name == "periodic-linear-n16":
        cfg["periodic"]["n_max"] = 40
    elif name == "norms-n64":
        rng = np.random.default_rng(5)
        write_state_bqf(cfg["field_file"], _smooth_random(rng, 16, 3, True),
                        _smooth_random(rng, 16, 1, False)[0], BOX)
        cfg["sampler"] = {"num_centers": 8, "num_radii": 4}
    config_path.write_text(json.dumps(cfg))


# which layer each shrunk workload must reach, as (metric, least value)
_REACHES = {
    "evolve-full-n32": [("duhamel.rhs.per_step", 3.0), ("grid.fft.calls", 1),
                        ("operators.leray.calls", 1), ("norms.state_norm.calls", 5)],
    "periodic-linear-n16": [("periodic.cesaro.periods_run", 40),
                            ("duhamel.forcing_quad.per_step", 4), ("fileio.write.bytes", 1)],
    "periodic-nonlinear-n32": [("periodic.outer.iterations", 2), ("periodic.evolves_per_outer", 2),
                               ("duhamel.states_stored", 33)],
    "norms-n64": [("norms.gather.calls", 8), ("norms.gather.index_bytes", 1),
                  ("fileio.read.bytes", 1), ("report.csv.bytes", 1)],
}


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_traced_run_matches_untraced(name, tmp_path):
    w = WORKLOADS[name]
    config = w.write_inputs(3, tmp_path / "in")
    _shrink(name, config)
    plain = run_cli(name, config, tmp_path / "plain", "plain", "plain", tmp_path)
    traced = run_cli(name, config, tmp_path / "traced", "trace", "traced", tmp_path)
    assert plain.rc == 0 and traced.rc == 0
    assert 0 < plain.setup_s < plain.wall_s
    for f in w.outputs:
        assert (tmp_path / "plain" / f).read_bytes() == (tmp_path / "traced" / f).read_bytes(), f
    metrics = layer_metrics(traced.record["trace"], traced.record["import_s"])
    for key, least in _REACHES[name]:
        assert metrics[key] >= least, key

    fp = reference.fingerprint(name, tmp_path / "plain")
    same = reference.compare(reference.fingerprint(name, tmp_path / "traced"), fp)
    assert same["bit_identical"] and same["max_deviation"] == 0.0
    f = w.outputs[0]
    col = next(iter(fp[f]["samples"]))
    nudged = {k: dict(v, samples=dict(v["samples"])) for k, v in fp.items()}
    nudged[f]["samples"][col] = fp[f]["samples"][col] + 1e-6 * fp[f]["scales"][col]
    nudged[f]["sha256"] = "0"
    moved = reference.compare(nudged, fp)
    assert not moved["bit_identical"] and not moved["within_budget"]
