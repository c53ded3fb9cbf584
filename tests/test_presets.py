"""Initial-data presets: divergence cleanliness, determinism, symmetry."""

import inspect

import numpy as np
import pytest

from bqbox import ConfigError, make_preset, spectral_divergence_residual
from bqbox.presets import _PRESETS, gravity_field, single_mode_scalar

# name: (accepted parameters, required ones), the contract of each preset
PRESET_CONTRACT = {
    "taylor-green": (("amplitude",), ()),
    "gaussian-bump": (("sigma", "amplitude", "center"), ("sigma",)),
    "random-div-free": (("seed", "exponent", "amplitude"), ("seed",)),
    "gravity": (("G", "soft_cells"), ()),
    "random-scalar": (("seed", "exponent", "amplitude"), ("seed",)),
    "random-vector": (("seed", "exponent", "amplitude"), ("seed",)),
    "random-tensor": (("seed", "exponent", "amplitude"), ("seed",)),
    "single-mode": (("k", "amplitude"), ("k",)),
    "single-mode-vector": (("k", "component", "amplitude"), ("k",)),
    "single-mode-tensor": (("k", "row", "col", "amplitude"), ("k",)),
}
# a valid value of every preset parameter on a 2-D grid
PARAM_VALUES = {"amplitude": 0.5, "sigma": 0.2, "center": [0.25, 0.5], "seed": 3,
                "exponent": 1.5, "G": 2.0, "soft_cells": 3.0, "k": [1, 2], "component": 1,
                "row": 1, "col": 0}


class TestTaylorGreen:
    @pytest.mark.parametrize("n", [2, 3])
    def test_divergence_free(self, n):
        from bqbox import GridSpec

        g = GridSpec(n=n, N=16, L=1.0)
        tg = make_preset("taylor-green", g, {"amplitude": 2.0})
        assert spectral_divergence_residual(tg) <= 1e-10
        assert np.max(np.abs(tg.values)) == pytest.approx(2.0, rel=1e-12)


class TestRandomDivFree:
    def test_deterministic(self, grid3d_small):
        a = make_preset("random-div-free", grid3d_small, {"seed": 42})
        b = make_preset("random-div-free", grid3d_small, {"seed": 42})
        assert np.array_equal(a.values, b.values)

    def test_seed_changes_field(self, grid3d_small):
        a = make_preset("random-div-free", grid3d_small, {"seed": 42})
        b = make_preset("random-div-free", grid3d_small, {"seed": 43})
        assert not np.array_equal(a.values, b.values)

    def test_divergence_free(self, grid3d_small):
        a = make_preset("random-div-free", grid3d_small, {"seed": 1, "exponent": 3.0})
        assert spectral_divergence_residual(a) <= 1e-10

    def test_spectrum_slope(self, grid3d):
        # steeper requested spectrum concentrates energy at low k
        from bqbox.grid import forward_coeffs

        sharp = make_preset("random-div-free", grid3d, {"seed": 5, "exponent": 4.0})
        flat = make_preset("random-div-free", grid3d, {"seed": 5, "exponent": 0.5})
        kmag = np.sqrt(np.sum(grid3d.wave_integers.astype(float) ** 2, axis=0))
        for fld, lo_frac in ((sharp, 0.95), (flat, 0.0)):
            c = forward_coeffs(grid3d, fld.values)
            power = np.sum(np.abs(c) ** 2, axis=0)
            low = power[(kmag > 0) & (kmag <= 2.0)].sum()
            total = power[kmag > 0].sum()
            assert low / total >= lo_frac or fld is flat


class TestGravity:
    def test_finite_and_odd(self):
        from bqbox import GridSpec

        g = GridSpec(n=3, N=16, L=1.0)
        fld = gravity_field(g, G=1.0, soft_cells=2.0)
        assert np.all(np.isfinite(fld.values))
        # odd under central reflection i -> (N - i) mod N away from the wrap plane
        vals = fld.values
        flipped = vals[:, ::-1, ::-1, ::-1]
        reflected = np.roll(flipped, 1, axis=(1, 2, 3))
        interior = np.ones(g.shape, dtype=bool)
        for ax in range(3):
            idx = [slice(None)] * 3
            idx[ax] = 0
            interior[tuple(idx)] = False
        diff = np.abs(vals + reflected)[:, interior]
        assert np.max(diff) < 1e-12

    def test_mollification_bounds_core(self):
        from bqbox import GridSpec

        g = GridSpec(n=3, N=16, L=1.0)
        soft = gravity_field(g, G=1.0, soft_cells=2.0)
        softer = gravity_field(g, G=1.0, soft_cells=4.0)
        assert np.max(np.abs(soft.values)) > np.max(np.abs(softer.values))


class TestMakePreset:
    def test_contract_names_every_preset(self):
        assert set(_PRESETS) == set(PRESET_CONTRACT)

    @pytest.mark.parametrize("name", sorted(PRESET_CONTRACT))
    def test_contract(self, grid2d, name):
        accepted, required = PRESET_CONTRACT[name]
        # the builder's signature after grid states the contract; a drift fails here
        assert tuple(inspect.signature(_PRESETS[name]).parameters)[1:] == accepted
        full = {key: PARAM_VALUES[key] for key in accepted}
        assert np.any(make_preset(name, grid2d, full).values != 0)
        make_preset(name, grid2d, {key: full[key] for key in required})
        for key in required:
            with pytest.raises(ConfigError, match=f"missing required parameter '{key}'"):
                make_preset(name, grid2d, {k: v for k, v in full.items() if k != key})
        for key in PARAM_VALUES.keys() - set(accepted):
            with pytest.raises(ConfigError, match=f"does not take parameter '{key}'"):
                make_preset(name, grid2d, {**full, key: PARAM_VALUES[key]})

    def test_unknown_name(self, grid2d):
        with pytest.raises(ConfigError, match="unknown preset"):
            make_preset("vortex-sheet", grid2d, {})

    def test_missing_parameter(self, grid2d):
        with pytest.raises(ConfigError, match="missing required parameter"):
            make_preset("gaussian-bump", grid2d, {})

    def test_unexpected_parameter(self, grid2d):
        with pytest.raises(ConfigError, match="does not take parameter"):
            make_preset("taylor-green", grid2d, {"sigma": 1.0})

    @pytest.mark.parametrize("name, params", [
        ("gaussian-bump", {"sigma": 0.0}),
        ("gravity", {"soft_cells": 0.0}),
        ("taylor-green", {"amplitude": float("inf")}),
    ])
    def test_non_finite_field_rejected(self, grid2d, name, params):
        with pytest.raises(ConfigError, match=f"preset '{name}' with parameters .* non-finite"):
            make_preset(name, grid2d, params)

    def test_single_mode_matches_cosine(self, grid2d):
        f = single_mode_scalar(grid2d, k=(2, 1), amplitude=0.7)
        x, y = grid2d.coordinates
        want = 0.7 * np.cos(2 * np.pi * (2 * x + y) / grid2d.L)
        assert np.max(np.abs(f.values - want)) < 1e-13

    def test_gaussian_peak_at_center(self, grid2d):
        f = make_preset("gaussian-bump", grid2d, {"sigma": 0.1, "amplitude": 2.0})
        peak = np.unravel_index(np.argmax(f.values), f.values.shape)
        assert peak == (grid2d.N // 2, grid2d.N // 2)
        assert f.values[peak] == pytest.approx(2.0)
