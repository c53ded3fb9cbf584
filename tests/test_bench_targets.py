"""Every name the benchmark tracer wraps still resolves.

``bench/tracer.py`` replaces the functions in its ``TARGETS`` table by
name, inside a traced subprocess.  A refactor that renames one of them
fails here, naming it, instead of as a crashed benchmark run.
"""

import importlib
import importlib.util
import inspect
import json
from pathlib import Path

import pytest

_TRACER = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


def _tracer():
    spec = importlib.util.spec_from_file_location("bench_tracer", _TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracer = _tracer()


@pytest.mark.parametrize("module_name, attr", [(m, a) for m, a, _ in tracer.TARGETS],
                         ids=[f"{m}.{a}" for m, a, _ in tracer.TARGETS])
def test_target_resolves(module_name, attr):
    owner = importlib.import_module(module_name)
    for part in attr.split("."):
        assert hasattr(owner, part), f"{module_name}.{attr}: no attribute {part!r}"
        owner = getattr(owner, part)
    assert callable(owner)


def test_cli_names_and_measured_arguments():
    # the set-up clock and the per-span measures read these by name
    cli = importlib.import_module("bqbox.cli")
    for name in tracer.CLI_SOLVER_NAMES:
        assert callable(getattr(cli, name, None)), f"bqbox.cli.{name}"
    assert isinstance(cli._COMMANDS, dict)
    evolve = inspect.signature(importlib.import_module("bqbox.duhamel").evolve).parameters
    assert {"t_end", "cfg", "mode"} <= set(evolve)
    cesaro = inspect.signature(importlib.import_module("bqbox.periodic").cesaro_periodic_datum)
    assert "n_max" in cesaro.parameters


def test_cli_evolve_goes_through_the_traced_name(tmp_path, monkeypatch):
    # the set-up clock and the per-step RHS count read the evolve subcommand's
    # one call through bqbox.cli.evolve; a refactor that bypasses that name
    # would otherwise show only as a benchmark run without set-up time
    cli = importlib.import_module("bqbox.cli")
    real = cli.evolve
    signature = inspect.signature(real)
    calls, results = [], []

    def recorder(*args, **kwargs):
        bound = signature.bind(*args, **kwargs)
        bound.apply_defaults()
        calls.append(bound.arguments)
        results.append(real(*args, **kwargs))
        return results[-1]

    monkeypatch.setattr(cli, "evolve", recorder)
    config = tmp_path / "c.json"
    config.write_text(json.dumps({
        "grid": {"n": 2, "N": 8, "L": 6.283185307179586},
        "initial": {"u": {"preset": "taylor-green", "params": {"amplitude": 0.01}}},
        "solve": {"dt": 0.125},
        "t_end": 0.25,
    }))
    assert cli.main(["evolve", "--config", str(config), "--output", str(tmp_path / "o")]) == 0
    assert len(calls) == 1
    assert calls[0]["t_end"] == 0.25 and calls[0]["cfg"].dt == 0.125
    assert calls[0]["mode"] == "full"
    # the tracer reads the stored states and the meta of what the call returns
    assert isinstance(results[0].states, list) and results[0].meta["mode"] == "full"


def _periodic_config(mode, **forcing):
    """A small periodic run: 2-D N = 16 linearized, or 3-D N = 8 full mode."""
    linear = mode == "linearized"
    return {
        "grid": {"n": 2 if linear else 3, "N": 16 if linear else 8, "L": 6.283185307179586},
        "seed": 3,
        "mode": mode,
        "sampler": {"num_centers": 4, "num_radii": 4},
        "forcing": {"period": 1.0, **forcing, "f": [{
            "harmonic": 1, "phase": 0.1, "preset": "random-vector", "amplitude": 2e-5,
            "params": {"seed": 5}}]},
        "solve": {"dt": 0.0625, "substeps": 4},
        "periodic": {"n_max": 400, "tol": 5e-9, "outer_tol": 1e-9},
    }


_GRAVITY = {"kappa": 0.5, "g": [{"harmonic": 0, "preset": "gravity", "params": {"G": 1.0}}]}


@pytest.mark.parametrize("command, config", [
    ("periodic-linear", _periodic_config("linearized")),
    ("periodic-linear", _periodic_config("linearized", **_GRAVITY)),
    ("periodic-nonlinear", _periodic_config("full")),
], ids=["linear", "linear-coupled", "nonlinear"])
def test_no_periodic_evolve_before_the_set_up_clock_stops(tmp_path, monkeypatch, command, config):
    # set-up time ends at the first call through a CLI_SOLVER_NAMES name of
    # bqbox.cli; a period stepped before it (a g-coupling's rows, say) would
    # count solver work as set-up
    cli = importlib.import_module("bqbox.cli")
    periodic = importlib.import_module("bqbox.periodic")
    events = []

    def spy(name, fn):
        return lambda *args, **kwargs: events.append(name) or fn(*args, **kwargs)

    monkeypatch.setattr(periodic, "evolve", spy("periodic.evolve", periodic.evolve))
    for name in tracer.CLI_SOLVER_NAMES:
        monkeypatch.setattr(cli, name, spy(name, getattr(cli, name)))
    path = tmp_path / "c.json"
    path.write_text(json.dumps(config))
    assert cli.main([command, "--config", str(path), "--output", str(tmp_path / "o")]) == 0
    assert "periodic.evolve" in events
    assert events[0] in tracer.CLI_SOLVER_NAMES, events[:3]
