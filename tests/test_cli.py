"""End-to-end CLI runs: artifacts, determinism, exit codes."""

import dataclasses
import json
import struct
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest

import bqbox
from bqbox import (DiagnosticsError, GridSpec, ScalarField, State, VectorField, cli, read_field,
                   write_field)
from bqbox import config as config_mod
from bqbox import duhamel, periodic
from bqbox.cli import main
from bqbox.config import build_initial, load_config
from bqbox.duhamel import Trajectory
from bqbox.forcing import ForcingSpec, constant_in_time
from bqbox.grid import spectral_divergence_residual
from bqbox.norms import BallSampler, NormContext, NormParams, gaussian_profile, state_norm
from bqbox.presets import random_smooth_scalar, random_smooth_tensor
from bqbox.report import write_csv

BOX = 6.283185307179586


def write_config(path, payload):
    path.write_text(json.dumps(payload, indent=1), encoding="utf-8")
    return str(path)


def evolve_config(**overrides):
    cfg = {
        "grid": {"n": 2, "N": 16, "L": BOX},
        "seed": 7,
        "mode": "full",
        "initial": {
            "u": {"preset": "taylor-green", "params": {"amplitude": 0.001}},
            "theta": {"preset": "gaussian-bump", "params": {"sigma": 0.6, "amplitude": 0.001}},
        },
        "solve": {"dt": 0.0625, "substeps": 4},
        "t_end": 1.0,
        "norms": [{"p": 2.5, "q": None, "lam": 0.0}],
        "sampler": {"num_centers": 4, "num_radii": 4},
    }
    cfg.update(overrides)
    return cfg


def read_csv_rows(path):
    lines = path.read_text().splitlines()
    assert lines[-1].startswith("# manifest:")
    header = lines[0].split(",")
    rows = [line.split(",") for line in lines[1:-1]]
    return header, rows


class TestEvolveCommand:
    def test_zero_forcing_energy_decreases(self, tmp_path):
        cfg = write_config(tmp_path / "c.json", evolve_config())
        out = tmp_path / "out"
        assert main(["evolve", "--config", cfg, "--output", str(out)]) == 0
        header, rows = read_csv_rows(out / "trajectory.csv")
        assert header[:3] == ["time", "energy", "divergence_residual"]
        energy = [float(r[1]) for r in rows]
        assert all(a > b for a, b in zip(energy, energy[1:]))
        assert all(float(r[2]) <= 1e-10 for r in rows)
        assert (out / "manifest.json").exists()

    def test_manifest_carries_package_version(self, tmp_path):
        cfg = write_config(tmp_path / "c.json", evolve_config())
        out = tmp_path / "out"
        assert main(["evolve", "--config", cfg, "--output", str(out)]) == 0
        manifest = json.loads((out / "manifest.json").read_text(encoding="utf-8"))
        assert manifest["versions"]["bqbox"] == bqbox.__version__ != "unknown"

    def test_byte_identical_reruns(self, tmp_path):
        cfg = write_config(tmp_path / "c.json", evolve_config())
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert main(["evolve", "--config", cfg, "--output", str(out1)]) == 0
        assert main(["evolve", "--config", cfg, "--output", str(out2)]) == 0
        assert (out1 / "trajectory.csv").read_bytes() == (out2 / "trajectory.csv").read_bytes()

    def test_snapshots_round_trip(self, tmp_path):
        cfg = write_config(tmp_path / "c.json", evolve_config(snapshots=8))
        out = tmp_path / "out"
        assert main(["evolve", "--config", cfg, "--output", str(out)]) == 0
        snaps = sorted(out.glob("state_*.bqf"))
        assert snaps
        state = read_field(snaps[0])
        assert isinstance(state, State)


class TestSeedOption:
    """``--seed`` replaces the config's seed before the config builds anything random."""

    @staticmethod
    def _config(seed):
        return evolve_config(
            seed=seed,
            initial={"u": {"preset": "random-div-free", "params": {"amplitude": 1e-3}}},
            forcing={"period": 1.0, "f": [{"harmonic": 1, "preset": "random-vector",
                                           "amplitude": 1e-3}]},
        )

    def test_option_matches_the_seed_in_the_file(self, tmp_path, monkeypatch):
        built = []
        real = config_mod.build_forcing
        monkeypatch.setattr(config_mod, "build_forcing",
                            lambda raw, grid, seed: built.append(seed) or real(raw, grid, seed))
        outputs = {}
        for name, seed, option in (("file", 5, []), ("option", 1, ["--seed", "5"]),
                                   ("other", 1, [])):
            path = write_config(tmp_path / f"{name}.json", self._config(seed))
            out = tmp_path / name
            assert main(["evolve", "--config", path, "--output", str(out), *option]) == 0
            outputs[name] = (out / "trajectory.csv").read_bytes()
        # the forcing is built once per run, with the seed the run uses
        assert built == [5, 5, 1]
        assert outputs["option"] == outputs["file"] != outputs["other"]


def evolve_3d_config(**overrides):
    """A forced, coupled 3-D full-mode run; N = 8 and 8 steps unless overridden."""
    return evolve_config(**{
        "grid": {"n": 3, "N": 8, "L": BOX},
        "forcing": {
            "period": 1.0, "kappa": 0.5,
            "F": [{"harmonic": 0, "preset": "single-mode-tensor", "amplitude": 1e-3,
                   "params": {"k": [0, 1, 0], "row": 0, "col": 1}}],
            "f": [{"harmonic": 1, "phase": 0.3, "preset": "single-mode-vector",
                   "amplitude": 1e-3, "params": {"k": [1, 0, 0], "component": 2}}],
            "g": [{"harmonic": 0, "preset": "gravity", "params": {"G": 1.0}}],
        },
        "t_end": 0.5,
        **overrides,
    })


def collected_evolve_outputs(config_path, outdir):
    """``trajectory.csv`` and ``state_*.bqf`` built from the whole collected trajectory.

    The reference for the streamed ``evolve`` subcommand: one ``evolve``
    call returns every stored state, then each row is formed with the same
    arithmetic in the same order.
    """
    cfg = load_config(config_path)
    traj = duhamel.evolve(build_initial(cfg.raw, cfg.grid, cfg.seed), cfg.forcing, cfg.t_end,
                          cfg.solve, mode=cfg.mode)
    cols = [(f"xnorm_p{p.p:g}_lam{p.lam:g}", NormContext(p, cfg.sampler)) for p in cfg.norms]
    w = cfg.grid.cell_volume
    rows = []
    for t, s in zip(traj.times, traj.states):
        energy = 0.5 * w * float(np.sum(s.u.values**2) + np.sum(s.theta.values**2))
        rows.append([t, energy, spectral_divergence_residual(s.u)]
                    + [state_norm(s, ctx) for _, ctx in cols])
    outdir.mkdir()
    write_csv(outdir / "trajectory.csv",
              ["time", "energy", "divergence_residual"] + [c[0] for c in cols], rows)
    stride = cfg.raw["snapshots"]
    for i in range(0, len(traj.states), stride):
        write_field(outdir / f"state_{i:05d}.bqf", traj.states[i])


class TestEvolveLinearized:
    def test_g_coupling_exits_2_naming_what_to_do(self, tmp_path, capsys):
        # a linearized run cannot know the temperature its coupling needs
        cfg = write_config(tmp_path / "c.json", evolve_3d_config(mode="linearized"))
        out = tmp_path / "out"
        assert main(["evolve", "--config", cfg, "--output", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: linearized evolve takes no g-coupling")
        assert "periodic-linear" in err and "forcing.kappa" in err and "eta" not in err
        assert not (out / "trajectory.csv").exists()


class TestEvolveStreaming:
    """``bqbox evolve`` forms each row as its state arrives and keeps only the snapshots."""

    @pytest.mark.parametrize("config", [evolve_config(snapshots=3),
                                        evolve_3d_config(snapshots=3)], ids=["2d", "3d"])
    def test_outputs_match_collected_trajectory(self, tmp_path, config):
        path = write_config(tmp_path / "c.json", config)
        assert main(["evolve", "--config", path, "--output", str(tmp_path / "streamed")]) == 0
        collected_evolve_outputs(path, tmp_path / "collected")
        names = sorted(p.name for p in (tmp_path / "collected").iterdir())
        n_states = round(config["t_end"] / config["solve"]["dt"]) + 1
        assert len(names) == 1 + len(range(0, n_states, 3))
        assert sorted(p.name for p in (tmp_path / "streamed").iterdir()) == sorted(
            names + ["manifest.json"])
        for name in names:
            got = (tmp_path / "streamed" / name).read_bytes()
            assert got == (tmp_path / "collected" / name).read_bytes(), name

    def test_peak_memory_is_one_step_plus_few_states(self, tmp_path):
        # 3-D N = 16 over 64 steps against the same run over one step: the
        # one-step run already holds the step's working arrays and the norm
        # scans, so the difference is what the longer run keeps; collecting
        # the trajectory would keep all 65 states
        def peak(steps):
            dt = 1.0 / 64
            config = evolve_3d_config(grid={"n": 3, "N": 16, "L": BOX},
                                      solve={"dt": dt, "substeps": 4}, t_end=steps * dt)
            cfg = load_config(write_config(tmp_path / f"c{steps}.json", config))
            outdir = tmp_path / f"out{steps}"
            outdir.mkdir(exist_ok=True)
            tracemalloc.start()
            try:
                cli._cmd_evolve(cfg, outdir)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        state_bytes = 4 * 16**3 * 8
        peak(1)  # multiplier caches and imports outside the measured runs
        one, many = peak(1), peak(64)
        assert many < one + 4 * state_bytes

    def test_nonfinite_stored_state_writes_nothing(self, tmp_path, monkeypatch):
        # a NaN in the sampled temperature row of node 2 stops the run at step 1,
        # after two stored states (one of them a snapshot) reached the consumer
        g = GridSpec(n=3, N=8, L=BOX)
        rows = [np.zeros(g.band_shape, dtype=complex) for _ in range(5)]
        rows[2][1, 2, 2] = np.nan
        extra = [(None, row) for row in rows]
        real = duhamel.evolve
        monkeypatch.setattr(cli, "evolve", lambda *a, **kw: real(*a, extra=extra, **kw))
        path = write_config(tmp_path / "c.json", evolve_config(
            grid={"n": 3, "N": 8, "L": BOX}, mode="linearized", t_end=0.25, snapshots=1))
        out = tmp_path / "out"
        assert main(["evolve", "--config", path, "--output", str(out)]) == 4
        assert not (out / "trajectory.csv").exists()
        assert not list(out.glob("state_*.bqf"))


class TestNormsCommand:
    def test_norms_table(self, tmp_path):
        cfg0 = write_config(tmp_path / "c0.json", evolve_config(snapshots=16))
        out0 = tmp_path / "fields"
        assert main(["evolve", "--config", cfg0, "--output", str(out0)]) == 0
        field_file = sorted(out0.glob("state_*.bqf"))[0]
        cfg = write_config(
            tmp_path / "c.json",
            {
                "grid": {"n": 2, "N": 16, "L": BOX},
                "seed": 1,
                "field_file": str(field_file),
                "norms": [{"p": 2.0, "q": None, "lam": 0.5}],
                "sampler": {"num_centers": 4, "num_radii": 4},
            },
        )
        out = tmp_path / "out"
        assert main(["norms", "--config", cfg, "--output", str(out)]) == 0
        header, rows = read_csv_rows(out / "norms.csv")
        assert header == ["part", "p", "lam", "center", "radius", "local_norm", "is_summary"]
        summary = [r for r in rows if r[-1] == "1"]
        assert len(summary) == 2  # one per state part
        for part in ("u", "theta"):
            sup = float(next(r for r in summary if r[0] == part)[5])
            locals_ = [float(r[5]) for r in rows if r[0] == part and r[-1] == "0"]
            assert sup >= max(locals_)

    def test_field_grid_mismatch(self, tmp_path, capsys):
        # a field on a smaller box than the config's is refused before any ball scan
        field_file = tmp_path / "small.bqf"
        write_field(field_file, gaussian_profile(GridSpec(n=2, N=16, L=1.0), 0.1))
        cfg = write_config(tmp_path / "c.json", {
            "grid": {"n": 2, "N": 16, "L": BOX},
            "field_file": str(field_file),
            "norms": [{"p": 2.0, "lam": 0.5}],
            "sampler": {"num_centers": 4, "num_radii": 4, "rho_max": 3.0},
        })
        assert main(["norms", "--config", cfg, "--output", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:")
        assert "L=1.0" in err and f"L={BOX}" in err

    def test_non_finite_field_rejected_before_the_scan(self, tmp_path, capsys, monkeypatch):
        # one NaN temperature cell: refused with exit 6, naming the part, no table
        g = GridSpec(n=3, N=8, L=BOX)
        theta = gaussian_profile(g, 1.0).values.copy()
        theta[5, 6, 3] = np.nan
        field_file = tmp_path / "nan.bqf"
        write_field(field_file, State(VectorField(g, np.ones((3,) + g.shape)), ScalarField(g, theta)))
        scans = []
        monkeypatch.setattr(cli, "morrey_lorentz_table", lambda *a, **k: scans.append(a))
        cfg = write_config(tmp_path / "c.json", {
            "grid": {"n": 3, "N": 8, "L": BOX},
            "field_file": str(field_file),
            "norms": [{"p": 3.0, "lam": 0.5}],
            "sampler": {"num_centers": 8, "num_radii": 3},
        })
        out = tmp_path / "o"
        assert main(["norms", "--config", cfg, "--output", str(out)]) == 6
        err = capsys.readouterr().err
        assert err.startswith("diagnostics error:") and "theta" in err
        assert not scans
        assert not (out / "norms.csv").exists()

    def test_bad_grid_in_field_header_is_an_io_error(self, tmp_path, capsys):
        # a header with n = 5: the file is bad, not a diagnostics failure
        field_file = tmp_path / "five.bqf"
        field_file.write_bytes(struct.pack("<4sIIdI", b"BQF1", 5, 8, BOX, 1) + b"\0" * 64)
        cfg = write_config(tmp_path / "c.json", {
            "grid": {"n": 3, "N": 8, "L": BOX},
            "field_file": str(field_file),
            "norms": [{"p": 3.0, "lam": 0.5}],
        })
        assert main(["norms", "--config", cfg, "--output", str(tmp_path / "o")]) == 5
        err = capsys.readouterr().err
        assert err.startswith("I/O error:") and str(field_file) in err

    def test_missing_field_file(self, tmp_path):
        cfg = write_config(
            tmp_path / "c.json",
            {"grid": {"n": 2, "N": 16, "L": BOX}, "norms": [{"p": 2.0}]},
        )
        assert main(["norms", "--config", cfg, "--output", str(tmp_path / "o")]) == 2


def periodic_config(**extra):
    cfg = {
        "grid": {"n": 2, "N": 16, "L": BOX},
        "seed": 3,
        "mode": "linearized",
        "forcing": {
            "period": 1.0,
            "kappa": 0.0,
            "f": [
                {
                    "harmonic": 1,
                    "phase": 0.1,
                    "preset": "random-vector",
                    "amplitude": 2e-05,
                    "params": {"seed": 5},
                }
            ],
        },
        "solve": {"dt": 0.0625, "substeps": 4},
        "periodic": {"n_max": 400, "tol": 5e-9},
    }
    cfg.update(extra)
    return cfg


def nonlinear_3d_config(**periodic):
    return {
        "grid": {"n": 3, "N": 8, "L": BOX},
        "seed": 3,
        "mode": "full",
        "norm_p": 3.0,
        "sampler": {"num_centers": 4, "num_radii": 4},
        "forcing": {
            "period": 1.0,
            "F": [
                {
                    "harmonic": 0,
                    "preset": "single-mode-tensor",
                    "amplitude": 1e-3,
                    "params": {"k": [0, 1, 0], "row": 0, "col": 1},
                }
            ],
        },
        "solve": {"dt": 0.0625, "substeps": 2},
        "periodic": {"outer_tol": 1e-9, "outer_max": 12, **periodic},
    }


class TestPeriodicCommands:
    def test_linear_pipeline(self, tmp_path):
        cfg = write_config(tmp_path / "c.json", periodic_config())
        out = tmp_path / "out"
        assert main(["periodic-linear", "--config", cfg, "--output", str(out)]) == 0
        _, rows = read_csv_rows(out / "residual.csv")
        assert float(rows[0][3]) <= 1e-6  # cesaro vs resolvent
        datum = read_field(out / "datum.bqf")
        assert isinstance(datum, State)
        header, hist = read_csv_rows(out / "history.csv")
        assert header[0] == "iteration"
        assert len(hist) > 5
        # the cross-check is the last mean's error against the resolvent datum
        assert header[2] == "error_vs_resolvent" and rows[0][3] == hist[-1][2]

    def test_linear_with_g_coupling_on_the_workload_inputs(self, tmp_path, linear_workload_configs):
        # the periodic-linear-n16 benchmark inputs at seed 3 with the gravity of
        # evolve-full-n32 and kappa = 0.5: theta's stage is the uncoupled solve,
        # and the coupling moves the velocity datum by about 9% of its size
        linear, coupled = linear_workload_configs
        data = {}
        for name, config in (("free", linear), ("coupled", coupled)):
            out = tmp_path / name
            cfg = write_config(tmp_path / f"{name}.json", config)
            assert main(["periodic-linear", "--config", cfg, "--output", str(out)]) == 0
            assert (out / "manifest.json").exists()
            data[name] = (read_field(out / "datum.bqf"), read_csv_rows(out / "residual.csv")[1][0])
        (free, free_res), (datum, res) = data["free"], data["coupled"]
        assert datum.theta.values.tobytes() == free.theta.values.tobytes()
        moved = np.max(np.abs(datum.u.values - free.u.values)) / np.max(np.abs(datum.u.values))
        assert 0.05 < moved < 0.15
        # residual_max, residual_norm, cross_check_max_diff: the theta part sets the
        # Cesaro error, so the coupled run reads the uncoupled levels
        for got, want in zip(res[1:], free_res[1:]):
            assert float(got) <= 1.05 * float(want)

    def test_linear_steps_the_zero_image_once(self, tmp_path, monkeypatch):
        # both routes start from c = P(0): one stepped period for it and one
        # certifying period, with the outputs of each route stepping its own c
        # on a copy of the problem
        cfg = write_config(tmp_path / "c.json", periodic_config())
        evolves = []
        for module in (cli, periodic):
            monkeypatch.setattr(module, "evolve", lambda *a, _evolve=module.evolve, **kw:
                                evolves.append(1) or _evolve(*a, **kw))
        assert main(["periodic-linear", "--config", cfg, "--output", str(tmp_path / "one")]) == 0
        assert len(evolves) == 2

        resolvent, cesaro = cli.resolvent_periodic_datum, cli.cesaro_periodic_datum
        monkeypatch.setattr(cli, "resolvent_periodic_datum",
                            lambda problem: resolvent(dataclasses.replace(problem)))
        monkeypatch.setattr(cli, "cesaro_periodic_datum",
                            lambda problem, **kw: cesaro(dataclasses.replace(problem), **kw))
        assert main(["periodic-linear", "--config", cfg, "--output", str(tmp_path / "two")]) == 0
        assert len(evolves) == 2 + 3
        for name in ("datum.bqf", "residual.csv", "history.csv"):
            assert (tmp_path / "one" / name).read_bytes() == (tmp_path / "two" / name).read_bytes()

    def test_coupled_linear_steps_the_forced_image_once(self, tmp_path, monkeypatch,
                                                        linear_workload_configs):
        # P_F(0), one period of the analytic forcing from zero, is stepped once
        # for the coupling rows and both routes; the rows' own image is stepped
        # from zero without the forcing
        _, coupled = linear_workload_configs
        cfg = write_config(tmp_path / "c.json", coupled)
        evolves = []  # (starts from zero, steps the analytic forcing)
        for module in (cli, periodic):
            monkeypatch.setattr(module, "evolve", lambda initial, forcing, *a, _evolve=module.evolve,
                                **kw: evolves.append((initial.max_norm() == 0.0, forcing is not None))
                                or _evolve(initial, forcing, *a, **kw))
        assert main(["periodic-linear", "--config", cfg, "--output", str(tmp_path / "o")]) == 0
        assert evolves.count((True, True)) == 1
        assert len(evolves) <= 5

    def test_nan_in_the_reference_temperature_reaches_the_cross_check(self, tmp_path, monkeypatch):
        # a max() over (u, theta) keeps the velocity difference over a NaN one
        cfg = write_config(tmp_path / "c.json", periodic_config())
        resolvent = cli.resolvent_periodic_datum

        def nan_theta(problem):
            ref = resolvent(problem)
            theta = ref.theta.values.copy()
            theta.flat[3] = np.nan
            return State(ref.u, ScalarField(ref.grid, theta))

        monkeypatch.setattr(cli, "resolvent_periodic_datum", nan_theta)
        out = tmp_path / "out"
        assert main(["periodic-linear", "--config", cfg, "--output", str(out)]) == 0
        header, rows = read_csv_rows(out / "residual.csv")
        assert header[3] == "cross_check_max_diff"
        assert np.isnan(float(rows[0][3]))
        assert np.isfinite(float(rows[0][1]))
        _, hist = read_csv_rows(out / "history.csv")
        assert all(np.isnan(float(r[2])) for r in hist)

    def test_nonlinear_pipeline(self, tmp_path):
        cfg = write_config(
            tmp_path / "c.json",
            periodic_config(
                mode="full",
                norm_p=None,
                forcing={
                    "period": 1.0,
                    "F": [
                        {
                            "harmonic": 0,
                            "preset": "single-mode-tensor",
                            "amplitude": 1e-3,
                            "params": {"k": [0, 1], "row": 0, "col": 1},
                        }
                    ],
                    "f": [
                        {
                            "harmonic": 1,
                            "preset": "single-mode-vector",
                            "amplitude": 1e-3,
                            "params": {"k": [1, 0], "component": 0},
                        }
                    ],
                },
                norms=[{"p": 2.0, "q": None, "lam": 0.0}],
                periodic={"outer_tol": 1e-9, "outer_max": 12},
            ),
        )
        out = tmp_path / "out"
        # n = 2 run: the CLI hypothesis gate is strict about 2 < p <= n
        assert main(["periodic-nonlinear", "--config", cfg, "--output", str(out)]) == 3

    def test_nonlinear_3d_pipeline(self, tmp_path):
        cfg = write_config(tmp_path / "c.json", nonlinear_3d_config())
        out = tmp_path / "out"
        assert main(["periodic-nonlinear", "--config", cfg, "--output", str(out)]) == 0
        _, rows = read_csv_rows(out / "residual.csv")
        assert float(rows[0][0]) < 1e-9
        assert (out / "contraction_history.csv").exists()

    def test_hypothesis_violation_exit_code(self, tmp_path):
        cfg = write_config(
            tmp_path / "c.json",
            periodic_config(mode="full", norm_p=2.0,
                            grid={"n": 3, "N": 8, "L": BOX}),
        )
        out = tmp_path / "out"
        assert main(["periodic-nonlinear", "--config", cfg, "--output", str(out)]) == 3

    def test_convergence_failure_exit_code(self, tmp_path):
        cfg = write_config(
            tmp_path / "c.json",
            periodic_config(periodic={"n_max": 3, "tol": 1e-16}),
        )
        out = tmp_path / "out"
        assert main(["periodic-linear", "--config", cfg, "--output", str(out)]) == 4


    @pytest.mark.parametrize("bad", [{"n_max": 1}, {"n_max": 0}, {"tol": 0.0}, {"tol": -1e-9},
                                     {"tol": float("nan")}])
    def test_linear_loop_bounds_exit_2(self, tmp_path, capsys, bad):
        cfg = write_config(tmp_path / "c.json",
                           periodic_config(periodic={"n_max": 400, "tol": 5e-9, **bad}))
        out = tmp_path / "out"
        assert main(["periodic-linear", "--config", cfg, "--output", str(out)]) == 2
        assert next(iter(bad)) in capsys.readouterr().err

    @pytest.mark.parametrize("bad", [{"outer_max": 0}, {"outer_tol": 0.0},
                                     {"outer_tol": float("nan")}])
    def test_nonlinear_loop_bounds_exit_2(self, tmp_path, capsys, bad):
        cfg = write_config(tmp_path / "c.json", nonlinear_3d_config(**bad))
        out = tmp_path / "out"
        assert main(["periodic-nonlinear", "--config", cfg, "--output", str(out)]) == 2
        assert next(iter(bad)) in capsys.readouterr().err


class TestSmallnessInputs:
    """The sups behind the smallness report keep one NaN sample wherever it falls."""

    @staticmethod
    def _inputs(nan_theta=None):
        g = GridSpec(n=3, N=8, L=1.0)
        forcing = ForcingSpec(period=1.0, F=constant_in_time(1.0, random_smooth_tensor(g, seed=3)))
        cfg = SimpleNamespace(forcing=forcing, grid=g, sampler=BallSampler(4, 4))
        states = []
        for i in range(5):
            theta = random_smooth_scalar(g, seed=10 + i).values
            if i == nan_theta:
                theta[1, 2, 3] = np.nan
            states.append(State(VectorField(g, np.zeros((3,) + g.shape)), ScalarField(g, theta)))
        base = SimpleNamespace(trajectory=Trajectory(g, np.linspace(0.0, 1.0, 5), states),
                               meta={"solution_h_norm": 1.0})
        return cli._smallness_inputs(cfg, SimpleNamespace(p=3.0, b=3.0), base, 1.0)

    @pytest.mark.parametrize("at", [0, 4])
    def test_nan_temperature_reaches_eta_sup(self, at):
        assert np.isfinite(self._inputs()["eta_sup"])
        assert np.isnan(self._inputs(nan_theta=at)["eta_sup"])

    @pytest.mark.parametrize("at", [0, 4])
    def test_nan_forcing_norm_reaches_ff_norm(self, monkeypatch, at):
        # the F norm at the at-th of the five sampled times is NaN
        real, calls = cli.morrey_lorentz_norm, []

        def norm(f, params, sampler=None):
            if params.p == 1.5:
                calls.append(1)
                if len(calls) == at + 1:
                    return np.nan
            return real(f, params, sampler)

        assert np.isfinite(self._inputs()["Ff_norm"])
        monkeypatch.setattr(cli, "morrey_lorentz_norm", norm)
        got = self._inputs()
        assert len(calls) == 5 and np.isnan(got["Ff_norm"]) and np.isfinite(got["eta_sup"])


class TestVerifyEstimates:
    def test_small_run(self, tmp_path):
        cfg = write_config(
            tmp_path / "c.json",
            {
                "grid": {"n": 3, "N": 8, "L": BOX},
                "seed": 11,
                "estimates": {"ensemble": 2, "p": 3.0},
            },
        )
        out = tmp_path / "out"
        assert main(["verify-estimates", "--config", cfg, "--output", str(out)]) == 0
        header, rows = read_csv_rows(out / "estimates.csv")
        assert header == ["check", "value", "value_refined", "rel_change"]
        names = {r[0] for r in rows}
        assert names == {
            "dispersive", "holder", "embeddings", "linear_operator",
            "bilinear", "weighted_bilinear",
        }
        for r in rows:
            assert np.isfinite(float(r[1]))

    def test_p_outside_the_critical_range_exits_3(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "c.json", {"grid": {"n": 3, "N": 8, "L": BOX}, "seed": 11,
                                                 "estimates": {"ensemble": 2, "p": 2.0}})
        assert main(["verify-estimates", "--config", cfg, "--output", str(tmp_path / "o")]) == 3
        assert 'hypothesis "2 < p <= n" violated' in capsys.readouterr().err


class TestConfigErrors:
    def test_invalid_json(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json", encoding="utf-8")
        assert main(["evolve", "--config", str(bad), "--output", str(tmp_path / "o")]) == 2

    def test_missing_keys(self, tmp_path):
        cfg = write_config(tmp_path / "c.json", {"grid": {"n": 2}})
        assert main(["evolve", "--config", cfg, "--output", str(tmp_path / "o")]) == 2

    def test_unknown_mode(self, tmp_path):
        cfg = write_config(tmp_path / "c.json", evolve_config(mode="spooky"))
        assert main(["evolve", "--config", cfg, "--output", str(tmp_path / "o")]) == 2

    def test_no_config(self):
        assert main(["evolve"]) == 2

    @pytest.mark.parametrize("bad", [{"rho_max": 4.0}, {"rho_min": 0.0}, {"rho_min": -0.5}])
    def test_bad_ball_radii(self, tmp_path, bad):
        cfg = write_config(tmp_path / "c.json",
                           evolve_config(sampler={"num_centers": 4, "num_radii": 4, **bad}))
        assert main(["evolve", "--config", cfg, "--output", str(tmp_path / "o")]) == 2

    def test_nan_forcing(self, tmp_path, capsys):
        cfg = periodic_config()
        cfg["forcing"]["f"][0]["amplitude"] = float("nan")
        path = write_config(tmp_path / "c.json", cfg)
        assert main(["periodic-linear", "--config", path, "--output", str(tmp_path / "o")]) == 2
        assert "harmonic 1" in capsys.readouterr().err


    @pytest.mark.parametrize("patch, key", [
        ({"seed": "abc"}, "seed"),
        ({"seed": 1.5}, "seed"),
        ({"t_end": "one"}, "t_end"),
        ({"t_end": float("inf")}, "t_end"),
        ({"solve": {"dt": 0.125, "substeps": "four"}}, "solve.substeps"),
        ({"solve": {"dt": 0.125, "picard_tol": "tight"}}, "solve.picard_tol"),
        ({"solve": {"dt": 0.125, "picard_max": 1.9}}, "solve.picard_max"),
        ({"sampler": {"num_centers": "x"}}, "sampler.num_centers"),
        ({"sampler": {"num_centers": 4, "num_radii": 2.5}}, "sampler.num_radii"),
        # a JSON boolean is not a number, though bool is an int
        ({"grid": {"n": 2, "N": 16, "L": True}}, "grid.L"),
        ({"solve": {"dt": True, "substeps": 4}}, "solve.dt"),
        ({"sampler": {"num_centers": 4, "num_radii": 4, "rho_max": "abc"}}, "sampler.rho_max"),
        ({"sampler": {"num_centers": 4, "num_radii": 4, "rho_min": [0.5]}}, "sampler.rho_min"),
        ({"sampler": {"num_centers": 4, "num_radii": 4, "jitter_seed": "x"}},
         "sampler.jitter_seed"),
        ({"sampler": {"num_centers": 4, "num_radii": 4, "jitter_seed": 1.5}},
         "sampler.jitter_seed"),
        ({"initial": {"u": {"preset": "taylor-green", "params": {"amplitude": "big"}}}},
         "initial.u.params.amplitude"),
        ({"initial": {"theta": {"preset": "gaussian-bump", "params": {"sigma": True}}}},
         "initial.theta.params.sigma"),
        ({"initial": {"theta": {"preset": "gaussian-bump",
                                "params": {"sigma": 0.5, "center": [1.0]}}}},
         "initial.theta.params.center"),
        ({"initial": {"u": {"preset": "random-div-free", "params": {"seed": 2.5}}}},
         "initial.u.params.seed"),
        ({"forcing": {"period": 1.0, "F": [{"preset": "single-mode-tensor",
                                            "params": {"k": "x"}}]}},
         "forcing.F[0].params.k"),
        ({"forcing": {"period": 1.0, "F": [{"preset": "single-mode-tensor",
                                            "params": {"k": [0, 1], "row": "first"}}]}},
         "forcing.F[0].params.row"),
    ])
    def test_bad_numeric_key(self, tmp_path, capsys, patch, key):
        cfg = write_config(tmp_path / "c.json", {**evolve_config(), **patch})
        assert main(["evolve", "--config", cfg, "--output", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:") and f"{key} must be" in err


    @pytest.mark.parametrize("command, patch, preset", [
        ("evolve", {"initial": {"theta": {"preset": "gaussian-bump", "params": {"sigma": 0}}}},
         "gaussian-bump"),
        ("evolve", {"forcing": {"period": 1.0, "kappa": 0.5, "g": [
            {"harmonic": 0, "preset": "gravity", "params": {"soft_cells": 0}}]}}, "gravity"),
    ])
    def test_non_finite_preset_exits_2(self, tmp_path, capsys, command, patch, preset):
        cfg = write_config(tmp_path / "c.json", {**evolve_config(), **patch})
        assert main([command, "--config", cfg, "--output", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:")
        assert f"preset '{preset}' with parameters" in err and "non-finite" in err

    @pytest.mark.parametrize("patch, key, kind", [
        ({"initial": {"u": {"preset": "gaussian-bump", "params": {"sigma": 0.5}}}},
         "initial.u", "must be a vector preset"),
        ({"initial": {"theta": {"preset": "taylor-green"}}},
         "initial.theta", "must be a scalar preset"),
        ({"forcing": {"period": 1.0, "F": [{"preset": "random-vector"}]}},
         "forcing.F[0]", "needs a TensorField"),
        ({"forcing": {"period": 1.0, "f": [{"preset": "random-tensor"}]}},
         "forcing.f[0]", "needs a VectorField"),
        ({"forcing": {"period": 1.0, "kappa": 0.5,
                      "g": [{"preset": "single-mode", "params": {"k": [1, 0]}}]}},
         "forcing.g[0]", "needs a VectorField"),
    ])
    def test_wrong_kind_preset_exits_2_naming_key(self, tmp_path, capsys, patch, key, kind):
        cfg = write_config(tmp_path / "c.json", {**evolve_config(), **patch})
        assert main(["evolve", "--config", cfg, "--output", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:") and key in err and kind in err


def _stability_config(**estimates):
    return {**nonlinear_3d_config(), "estimates": estimates,
            "stability": {"p": 3.0, "q": 3.0, "r": 6.0, "b": 0.5}}


class TestStabilityLoopOptions:
    """`stability` certifies its base orbit with the loop `periodic-nonlinear` runs."""

    @staticmethod
    def _config(**periodic):
        return {**nonlinear_3d_config(**periodic),
                "stability": {"p": 3.0, "q": 6.0, "r": 6.0, "b": 3.0}}

    @pytest.mark.parametrize("bad", [{"outer_max": 0}, {"outer_tol": 0.0},
                                     {"outer_tol": "small"}])
    def test_bad_loop_option_exits_2_naming_key(self, tmp_path, capsys, bad):
        cfg = write_config(tmp_path / "c.json", self._config(**bad))
        assert main(["stability", "--config", cfg, "--output", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:") and next(iter(bad)) in err

    @pytest.mark.parametrize("command", ["periodic-nonlinear", "stability"])
    def test_loop_options_reach_the_solver(self, tmp_path, monkeypatch, command):
        seen = []

        def spy(problem, outer_tol=None, outer_max=None, ctx=None):
            seen.append((outer_tol, outer_max, ctx.params, ctx.time_stride))
            raise bqbox.ConvergenceError("stopped by the spy")

        monkeypatch.setattr(cli, "nonlinear_periodic", spy)
        config = {**self._config(outer_tol=3e-9, outer_max=7), "norm_p": 2.5}
        cfg = write_config(tmp_path / "c.json", config)
        assert main([command, "--config", cfg, "--output", str(tmp_path / "o")]) == 4
        p = {"periodic-nonlinear": 2.5, "stability": 3.0}[command]
        assert seen == [(3e-9, 7, NormParams(p=p, q=np.inf, lam=3 - p), 4)]


class TestNavierStokesConfig:
    """`"mode": "navier-stokes"` is full mode with theta = 0: the config checks
    that hypothesis before any solve, and the run is a full-mode run."""

    @staticmethod
    def _config(command, mode="navier-stokes", term=None):
        """A theta-free config of ``command`` (F only, theta0 = 0), with the
        ``f`` or ``g`` term of :func:`evolve_3d_config` added if ``term`` names it."""
        config = {"evolve": evolve_3d_config, "periodic-nonlinear": nonlinear_3d_config,
                  "stability": TestStabilityLoopOptions._config}[command]()
        coupled = evolve_3d_config()["forcing"]
        config["forcing"] = {"period": 1.0, "kappa": coupled["kappa"], "F": coupled["F"]}
        if term is not None:
            config["forcing"][term] = coupled[term]
        config["initial"] = {"u": {"preset": "taylor-green", "params": {"amplitude": 1e-3}}}
        config["mode"] = mode
        return config

    @staticmethod
    def _no_solver(monkeypatch):
        """The solver calls the CLI makes, recorded in place of running them."""
        calls = []
        for name in ("evolve", "nonlinear_periodic"):
            monkeypatch.setattr(cli, name, lambda *a, name=name, **k: calls.append(name))
        return calls

    @pytest.mark.parametrize("term", ["f", "g"])
    @pytest.mark.parametrize("command", ["evolve", "periodic-nonlinear", "stability"])
    def test_temperature_forcing_exits_3_before_any_solve(self, tmp_path, capsys, monkeypatch,
                                                          command, term):
        calls = self._no_solver(monkeypatch)
        cfg = write_config(tmp_path / "c.json", self._config(command, term=term))
        assert main([command, "--config", cfg, "--output", str(tmp_path / "o")]) == 3
        err = capsys.readouterr().err
        assert err == ("hypothesis violated: navier-stokes mode takes no temperature "
                       "forcing f or field g\n")
        assert calls == []

    def test_nonzero_theta0_exits_3_before_any_solve(self, tmp_path, capsys, monkeypatch):
        calls = self._no_solver(monkeypatch)
        config = self._config("evolve")
        config["initial"] = evolve_3d_config()["initial"]  # a gaussian-bump theta
        cfg = write_config(tmp_path / "c.json", config)
        assert main(["evolve", "--config", cfg, "--output", str(tmp_path / "o")]) == 3
        err = capsys.readouterr().err
        assert err == "hypothesis violated: navier-stokes mode requires theta0 = 0\n"
        assert calls == []

    @pytest.mark.parametrize("command, outputs", [
        ("evolve", ["trajectory.csv"]),
        ("periodic-nonlinear", ["datum.bqf", "residual.csv", "contraction_history.csv"]),
    ], ids=["evolve", "periodic-nonlinear"])
    def test_outputs_match_full_mode(self, tmp_path, command, outputs):
        for mode in ("full", "navier-stokes"):
            cfg = write_config(tmp_path / f"{mode}.json", self._config(command, mode))
            assert main([command, "--config", cfg, "--output", str(tmp_path / mode)]) == 0
        for name in outputs:
            assert (tmp_path / "full" / name).read_bytes() == (
                tmp_path / "navier-stokes" / name).read_bytes()


class TestOptionParsing:
    """Numeric options are parsed before any solver runs; a bad one exits 2 naming its key."""

    @pytest.fixture
    def no_solver(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("a solver ran before the options were parsed")

        for name in ("build_initial", "evolve", "resolvent_periodic_datum",
                     "nonlinear_periodic", "refinement_comparison"):
            monkeypatch.setattr(cli, name, refuse)

    @pytest.mark.parametrize("command, config, key", [
        ("periodic-linear", periodic_config(periodic={"n_max": "many"}), "periodic.n_max"),
        ("periodic-linear", periodic_config(periodic={"n_max": 2.7}), "periodic.n_max"),
        ("periodic-linear", periodic_config(periodic={"n_max": True}), "periodic.n_max"),
        ("periodic-linear", periodic_config(periodic={"tol": float("inf")}), "periodic.tol"),
        ("periodic-linear", periodic_config(periodic={"tol": [1e-9]}), "periodic.tol"),
        ("periodic-linear", periodic_config(periodic=5), "periodic"),
        ("periodic-nonlinear", nonlinear_3d_config(outer_max="lots"), "periodic.outer_max"),
        ("periodic-nonlinear", nonlinear_3d_config(outer_max=3.5), "periodic.outer_max"),
        ("periodic-nonlinear", nonlinear_3d_config(outer_tol="small"), "periodic.outer_tol"),
        ("periodic-nonlinear", {**nonlinear_3d_config(), "norm_p": "three"}, "norm_p"),
        ("evolve", evolve_config(snapshots="8"), "snapshots"),
        ("evolve", evolve_config(snapshots=2.5), "snapshots"),
        ("verify-estimates", {"grid": {"n": 3, "N": 8, "L": BOX}, "estimates": {"ensemble": 2.5}},
         "estimates.ensemble"),
        ("verify-estimates", {"grid": {"n": 3, "N": 8, "L": BOX}, "estimates": {"p": float("nan")}},
         "estimates.p"),
        ("stability", _stability_config(K_emp="one"), "estimates.K_emp"),
    ])
    def test_bad_option_exits_2_before_solving(self, tmp_path, capsys, no_solver,
                                              command, config, key):
        cfg = write_config(tmp_path / "c.json", config)
        assert main([command, "--config", cfg, "--output", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:") and f"{key} must be" in err

    @staticmethod
    def _patched(config, section, key, value, index=None):
        cfg = json.loads(json.dumps(config))
        table = cfg if section is None else cfg[section]
        if index is not None:
            table = table[index[0]]
        if index is not None and len(index) > 1:
            table = table[index[1]]
        table[key] = value
        return cfg

    @pytest.mark.parametrize("command, base, section, index, key, value, name", [
        ("periodic-linear", periodic_config(), "forcing", None, "kappa", "abc", "forcing.kappa"),
        ("periodic-linear", periodic_config(), "forcing", None, "period", "T", "forcing.period"),
        ("periodic-linear", periodic_config(), "forcing", ("f", 0), "harmonic", 1.5,
         "forcing.f[0].harmonic"),
        ("periodic-linear", periodic_config(), "forcing", ("f", 0), "harmonic", "one",
         "forcing.f[0].harmonic"),
        ("periodic-linear", periodic_config(), "forcing", ("f", 0), "phase", "x",
         "forcing.f[0].phase"),
        ("periodic-linear", periodic_config(), "forcing", ("f", 0), "amplitude", True,
         "forcing.f[0].amplitude"),
        ("periodic-nonlinear", nonlinear_3d_config(), "forcing", ("F", 0), "harmonic", 0.5,
         "forcing.F[0].harmonic"),
        ("evolve", evolve_config(), "norms", (0,), "p", "three", "norms[0].p"),
        ("evolve", evolve_config(), "norms", (0,), "q", "big", "norms[0].q"),
        ("evolve", evolve_config(), "norms", (0,), "lam", [0.5], "norms[0].lam"),
        ("stability", _stability_config(), "stability", None, "p", "three", "stability.p"),
        ("stability", _stability_config(), "stability", None, "num_times", 2.5,
         "stability.num_times"),
        ("stability", _stability_config(), "stability", None, "initial_gap", "tiny",
         "stability.initial_gap"),
        ("stability", _stability_config(), "stability", None, "t_max_periods", float("nan"),
         "stability.t_max_periods"),
        # -8 was a TypeError from round() of a complex cube root; 0 scanned one center
        ("evolve", evolve_config(), "sampler", None, "num_centers", -8, "sampler.num_centers"),
        ("evolve", evolve_config(), "sampler", None, "num_centers", 0, "sampler.num_centers"),
        # out of range: a ValueError traceback, a diagnostics error (num_times 0),
        # an empty max() (ensemble) or a silent 0 (snapshots)
        ("stability", _stability_config(), "stability", None, "t_max_periods", -1,
         "stability.t_max_periods"),
        ("stability", _stability_config(), "stability", None, "t_max_periods", 0,
         "stability.t_max_periods"),
        ("stability", _stability_config(), "stability", None, "num_times", -3,
         "stability.num_times"),
        ("stability", _stability_config(), "stability", None, "num_times", 0,
         "stability.num_times"),
        ("verify-estimates", {"grid": {"n": 3, "N": 8, "L": BOX}, "estimates": {}}, "estimates",
         None, "ensemble", 0, "estimates.ensemble"),
        ("verify-estimates", {"grid": {"n": 3, "N": 8, "L": BOX}, "estimates": {}}, "estimates",
         None, "ensemble", -2, "estimates.ensemble"),
        ("evolve", evolve_config(), None, None, "snapshots", -1, "snapshots"),
    ])
    def test_bad_config_number_exits_2_naming_key(self, tmp_path, capsys, no_solver, command,
                                                  base, section, index, key, value, name):
        # these keys were converted with bare float()/int(): a string was a
        # traceback (exit 1) and a fractional harmonic was silently truncated
        cfg = write_config(tmp_path / "c.json", self._patched(base, section, key, value, index))
        assert main([command, "--config", cfg, "--output", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:") and f"{name} must be" in err

    def test_integral_float_and_null_accepted(self, tmp_path):
        # 8.0 is the integer 8; a null option takes its default
        cfg = write_config(tmp_path / "c.json",
                           evolve_config(snapshots=8.0, t_end=0.25, norms=[]))
        out = tmp_path / "out"
        assert main(["evolve", "--config", cfg, "--output", str(out)]) == 0
        assert [p.name for p in sorted(out.glob("state_*.bqf"))] == ["state_00000.bqf"]
        cfg = write_config(tmp_path / "n.json", evolve_config(snapshots=None, t_end=0.25, norms=[]))
        assert main(["evolve", "--config", cfg, "--output", str(tmp_path / "n")]) == 0
        assert not list((tmp_path / "n").glob("state_*.bqf"))


class TestDiagnosticsErrors:
    def test_mid_run_diagnostics_error(self, tmp_path, capsys, monkeypatch):
        def failing_table(*args, **kwargs):
            raise DiagnosticsError("ball scan failed")

        monkeypatch.setattr(cli, "morrey_lorentz_table", failing_table)
        field_file = tmp_path / "f.bqf"
        write_field(field_file, gaussian_profile(GridSpec(n=2, N=16, L=BOX), 0.5))
        cfg = write_config(tmp_path / "c.json", {
            "grid": {"n": 2, "N": 16, "L": BOX},
            "field_file": str(field_file),
            "norms": [{"p": 2.0, "lam": 0.5}],
            "sampler": {"num_centers": 4, "num_radii": 4},
        })
        assert main(["norms", "--config", cfg, "--output", str(tmp_path / "o")]) == 6
        assert capsys.readouterr().err.startswith("diagnostics error:")
