"""Transforms, field containers, and the raw field file format."""

import struct

import numpy as np
import pytest

from bqbox import (
    DiagnosticsError,
    FieldIOError,
    GridSpec,
    ScalarField,
    State,
    TensorField,
    VectorField,
    read_field,
    spectral_divergence_residual,
    write_field,
    zeros_like_state,
)
from bqbox.grid import band_coeffs, forward_coeffs, inverse_values, scatter_band
from bqbox.presets import single_mode_scalar, taylor_green


class TestGridSpec:
    def test_valid(self):
        g = GridSpec(n=3, N=32, L=2.5)
        assert g.shape == (32, 32, 32)
        assert g.cell_volume == pytest.approx((2.5 / 32) ** 3)

    @pytest.mark.parametrize("kwargs", [
        dict(n=4, N=16, L=1.0),
        dict(n=1, N=16, L=1.0),
        dict(n=2, N=12, L=1.0),
        dict(n=2, N=4, L=1.0),
        dict(n=2, N=16, L=0.0),
        dict(n=2, N=16, L=-1.0),
    ])
    def test_invalid(self, kwargs):
        with pytest.raises(DiagnosticsError):
            GridSpec(**kwargs)

    def test_wave_integers_range(self):
        for n in (2, 3):
            g = GridSpec(n=n, N=16, L=1.0)
            k = g.wave_integers
            assert g.spectral_shape == (16,) * (n - 1) + (9,)
            assert k.shape == (n,) + g.spectral_shape
            # leading axes in [-N/2, N/2) in FFT order, the last in [0, N/2]
            for j in range(n - 1):
                assert k[j].min() == -8 and k[j].max() == 7
            assert np.array_equal(k[-1][(0,) * (n - 1)], np.arange(9))


def _direct_dft(values, grid):
    """O(N^{2n}) direct summation oracle for the normalized forward DFT, on the half spectrum."""
    N = grid.N
    idx = np.stack(np.meshgrid(*([np.arange(N)] * grid.n), indexing="ij"))
    coeffs = np.zeros(grid.spectral_shape, dtype=complex)
    for kidx in np.ndindex(grid.spectral_shape):
        k = np.array([grid.wave_integers[(j,) + kidx] for j in range(grid.n)])
        phase = np.exp(-2j * np.pi * np.tensordot(k, idx, axes=1) / N)
        coeffs[kidx] = np.sum(values * phase) / N**grid.n
    return coeffs


class TestForwardTransform:
    def test_constant_field(self, grid2d):
        coeffs = forward_coeffs(grid2d, np.full(grid2d.shape, 3.25))
        assert coeffs[0, 0] == pytest.approx(3.25)
        rest = coeffs.copy()
        rest[0, 0] = 0.0
        assert np.max(np.abs(rest)) < 1e-14

    def test_cosine_mode(self, grid2d):
        coeffs = forward_coeffs(grid2d, single_mode_scalar(grid2d, k=(1, 0)).values)
        assert coeffs[1, 0] == pytest.approx(0.5, abs=1e-14)
        assert coeffs[-1, 0] == pytest.approx(0.5, abs=1e-14)
        other = coeffs.copy()
        other[1, 0] = other[-1, 0] = 0.0
        assert np.max(np.abs(other)) < 1e-14

    def test_direct_dft_oracle(self):
        grid = GridSpec(n=2, N=8, L=1.7)
        rng = np.random.Generator(np.random.Philox(123))
        values = rng.standard_normal(grid.shape)
        got = forward_coeffs(grid, values)
        want = _direct_dft(values, grid)
        assert np.max(np.abs(got - want)) < 1e-12

    def test_round_trip(self, grid2d):
        rng = np.random.Generator(np.random.Philox(7))
        values = rng.standard_normal(grid2d.shape)
        back = inverse_values(grid2d, forward_coeffs(grid2d, values))
        assert np.max(np.abs(back - values)) <= 1e-12 * np.max(np.abs(values))

    def test_parseval(self):
        # the interior last-axis planes stand for themselves and their
        # conjugates, so they count twice; k_last = 0 and N/2 count once
        rng = np.random.Generator(np.random.Philox(8))
        for n in (2, 3):
            g = GridSpec(n=n, N=16, L=1.3)
            values = rng.standard_normal(g.shape)
            coeffs = forward_coeffs(g, values)
            weight = np.full(g.N // 2 + 1, 2.0)
            weight[[0, -1]] = 1.0
            half = g.L**n * np.sum(weight * np.abs(coeffs) ** 2)
            full = g.L**n * np.sum(np.abs(np.fft.fftn(values, norm="forward")) ** 2)
            lhs = np.sum(values**2) * g.cell_volume
            assert half == pytest.approx(full, rel=1e-13)
            assert lhs == pytest.approx(half, rel=1e-12)

    def test_linearity(self, grid2d):
        rng = np.random.Generator(np.random.Philox(9))
        f = rng.standard_normal(grid2d.shape)
        g = rng.standard_normal(grid2d.shape)
        lhs = forward_coeffs(grid2d, 2.0 * f + 0.3 * g)
        rhs = 2.0 * forward_coeffs(grid2d, f) + 0.3 * forward_coeffs(grid2d, g)
        assert np.max(np.abs(lhs - rhs)) < 1e-12 * np.max(np.abs(lhs))


class TestBand:
    """The 2/3-rule band that every nonlinear row is stored on."""

    @pytest.mark.parametrize("n", [2, 3])
    @pytest.mark.parametrize("N", [8, 16, 32])
    def test_band_selects_exactly_the_dealias_mask(self, n, N):
        g = GridSpec(n=n, N=N, L=2.0 * np.pi)
        selected = np.zeros(g.spectral_shape, dtype=bool)
        selected[g.band] = True
        assert np.array_equal(selected, g.dealias_mask)
        assert g.band_shape == g.dealias_mask[g.band].shape
        assert g.dealias_mask[g.band].all()
        # FFT order is kept: band index 0 is k = 0, and |k_j| <= N // 3 throughout
        k_band = g.wave_integers[g.band]
        assert np.all(k_band[(Ellipsis,) + (0,) * n] == 0)
        assert np.max(np.abs(k_band)) == N // 3
        # the boxes of band_blocks tile the band once, each box onto its band-row box
        hits = np.zeros(g.spectral_shape, dtype=int)
        band_index = np.arange(np.prod(g.band_shape)).reshape(g.band_shape)
        placed = np.full(g.spectral_shape, -1)
        for full_box, band_box in g.band_blocks:
            hits[full_box] += 1
            placed[full_box] = band_index[band_box]
        assert np.array_equal(hits, g.dealias_mask.astype(int))
        assert np.array_equal(placed[g.band], band_index)

    @pytest.mark.parametrize("n", [2, 3])
    @pytest.mark.parametrize("N", [8, 16, 32, 64])
    @pytest.mark.parametrize("lead", [(), (2,), (3, 2)])
    def test_band_coeffs_is_the_band_of_forward_coeffs_bit_for_bit(self, n, N, lead):
        g = GridSpec(n=n, N=N, L=2.0 * np.pi)
        values = np.random.default_rng(N + n + len(lead)).standard_normal(lead + g.shape)
        got = band_coeffs(g, values)
        want = forward_coeffs(g, values)[g.band]
        assert got.shape == lead + g.band_shape
        assert got.tobytes() == want.tobytes()

    def test_scatter_band_fills_the_band_only(self, grid2d):
        row = np.arange(np.prod(grid2d.band_shape), dtype=complex).reshape(grid2d.band_shape) + 1
        full = scatter_band(grid2d, np.stack([row, 2 * row]))
        assert full.shape == (2,) + grid2d.spectral_shape
        assert np.array_equal(full[grid2d.band], np.stack([row, 2 * row]))
        assert np.all(full[:, ~grid2d.dealias_mask] == 0)


class TestInverseTransform:
    def test_zero(self, grid2d):
        assert np.all(inverse_values(grid2d, np.zeros(grid2d.spectral_shape, dtype=complex)) == 0.0)

    def test_hermitian_pair_gives_cosine(self, grid2d):
        coeffs = np.zeros(grid2d.spectral_shape, dtype=complex)
        coeffs[1, 0] = 0.5
        coeffs[-1, 0] = 0.5
        got = inverse_values(grid2d, coeffs)
        x = grid2d.coordinates[0]
        want = np.cos(2.0 * np.pi * x / grid2d.L)
        assert np.max(np.abs(got - want)) < 1e-13

    def test_delta_at_zero(self, grid2d):
        coeffs = np.zeros(grid2d.spectral_shape, dtype=complex)
        coeffs[0, 0] = -1.5
        got = inverse_values(grid2d, coeffs)
        assert np.max(np.abs(got + 1.5)) < 1e-14

    def test_interior_planes_carry_no_constraint(self, grid2d):
        # 0 < k_last < N/2 stands for both k and -k, so any value there is Hermitian
        rng = np.random.Generator(np.random.Philox(5))
        coeffs = np.zeros(grid2d.spectral_shape, dtype=complex)
        coeffs[:, 1:-1] = rng.standard_normal(coeffs[:, 1:-1].shape) + 1j
        back = inverse_values(grid2d, coeffs)
        assert np.max(np.abs(forward_coeffs(grid2d, back) - coeffs)) < 1e-13


class TestState:
    def test_divergence_residual(self, grid2d):
        tg = taylor_green(grid2d)
        assert spectral_divergence_residual(tg) <= 1e-10
        bad = VectorField(grid2d, np.stack([grid2d.coordinates[0] * 0 + np.sin(
            2 * np.pi * grid2d.coordinates[0] / grid2d.L), np.zeros(grid2d.shape)]))
        assert spectral_divergence_residual(bad) > 1e-3

    def test_divergence_residual_of_a_gradient(self, grid2d):
        # u = grad sin(2 pi (x + 2y) / L) is parallel to its wavevector
        x, y = grid2d.coordinates
        w = 2 * np.pi / grid2d.L
        c = np.cos(w * (x + 2 * y))
        grad = VectorField(grid2d, np.stack([w * c, 2 * w * c]))
        assert spectral_divergence_residual(grad) == pytest.approx(1.0, rel=1e-12)

    @pytest.mark.parametrize("decay", [0.0, 1e-3, 1e-1])
    def test_divergence_residual_bounded_by_per_mode_form(self, grid2d, decay):
        # against the peak amplitude a mode reads at most its per-mode ratio,
        # and at most 1e-13 where the per-mode form skipped it (below 1e-13 of the peak)
        rng = np.random.default_rng(3)
        coeffs = forward_coeffs(grid2d, rng.standard_normal((2,) + grid2d.shape))
        u = VectorField(grid2d, inverse_values(grid2d, coeffs * np.exp(-decay * grid2d.k_squared)))
        coeffs = forward_coeffs(grid2d, u.values)
        dot = np.abs(np.sum(grid2d.deriv_k * coeffs, axis=0))
        amp = np.sqrt(np.sum(np.abs(coeffs) ** 2, axis=0))
        kmag = grid2d.deriv_k_norm
        mask = (kmag > 0) & (amp > 1e-13 * np.max(amp))
        per_mode = float(np.max(dot[mask] / (kmag[mask] * amp[mask])))
        got = spectral_divergence_residual(u)
        assert 0.0 < got <= max(per_mode, 1e-13)

    def test_zero_state(self, grid2d):
        s = zeros_like_state(grid2d)
        assert s.max_norm() == 0.0
        assert spectral_divergence_residual(s.u) == 0.0

    def test_grid_mismatch(self, grid2d):
        other = GridSpec(n=2, N=32, L=1.0)
        with pytest.raises(DiagnosticsError):
            State(
                VectorField(grid2d, np.zeros((2,) + grid2d.shape)),
                ScalarField(other, np.zeros(other.shape)),
            )


class TestFieldFiles:
    @pytest.mark.parametrize("maker", ["scalar", "vector", "tensor", "state"])
    def test_bit_exact_round_trip(self, tmp_path, grid2d, maker):
        rng = np.random.Generator(np.random.Philox(21))
        if maker == "scalar":
            obj = ScalarField(grid2d, rng.standard_normal(grid2d.shape))
        elif maker == "vector":
            obj = VectorField(grid2d, rng.standard_normal((2,) + grid2d.shape))
        elif maker == "tensor":
            obj = TensorField(grid2d, rng.standard_normal((2, 2) + grid2d.shape))
        else:
            obj = State(
                VectorField(grid2d, rng.standard_normal((2,) + grid2d.shape)),
                ScalarField(grid2d, rng.standard_normal(grid2d.shape)),
            )
        path = tmp_path / "field.bqf"
        write_field(path, obj)
        back = read_field(path)
        assert type(back) is type(obj)
        if maker == "state":
            assert np.array_equal(back.u.values, obj.u.values)
            assert np.array_equal(back.theta.values, obj.theta.values)
        else:
            assert np.array_equal(back.values, obj.values)

    def test_bad_magic(self, tmp_path):
        p = tmp_path / "bad.bqf"
        p.write_bytes(b"NOPE" + b"\0" * 64)
        with pytest.raises(FieldIOError, match="magic"):
            read_field(p)

    @pytest.mark.parametrize("n, N, L, why", [
        (5, 8, 1.0, "dimension"), (2, 12, 1.0, "power of two"), (3, 8, float("nan"), "box side"),
    ])
    def test_bad_grid_in_header(self, tmp_path, n, N, L, why):
        # a header no GridSpec accepts is a bad file, named by its path
        p = tmp_path / "grid.bqf"
        p.write_bytes(struct.pack("<4sIIdI", b"BQF1", n, N, L, 1) + b"\0" * 64)
        with pytest.raises(FieldIOError, match=why) as err:
            read_field(p)
        assert str(p) in str(err.value)

    def test_truncated(self, tmp_path, grid2d):
        p = tmp_path / "trunc.bqf"
        write_field(p, ScalarField(grid2d, np.ones(grid2d.shape)))
        data = p.read_bytes()
        p.write_bytes(data[:-16])
        with pytest.raises(FieldIOError):
            read_field(p)

    def test_truncated_header(self, tmp_path):
        p = tmp_path / "head.bqf"
        p.write_bytes(b"BQF1" + b"\0" * 8)
        with pytest.raises(FieldIOError, match="truncated header"):
            read_field(p)

    @pytest.mark.parametrize("extra", [1, 8, 64])
    def test_trailing_bytes(self, tmp_path, grid2d, extra):
        p = tmp_path / "long.bqf"
        write_field(p, ScalarField(grid2d, np.ones(grid2d.shape)))
        p.write_bytes(p.read_bytes() + b"\0" * extra)
        with pytest.raises(FieldIOError, match=f"payload has {16 * 16 * 8 + extra} bytes"):
            read_field(p)

    def test_missing_file(self, tmp_path):
        with pytest.raises(FieldIOError):
            read_field(tmp_path / "absent.bqf")
