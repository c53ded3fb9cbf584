"""Acceptance criteria, one test per criterion, at their stated tolerances.

Each test prints a single PASS line with the measured numbers; a failing
criterion fails its test.  Runtime ceilings are asserted alongside the
numerical tolerances.
"""

import json
import time

import numpy as np
import pytest

from bqbox import (
    BallSampler,
    ForcingSpec,
    GridSpec,
    NormContext,
    NormParams,
    PeriodicProblem,
    ScalarField,
    SolveConfig,
    State,
    StabilityParams,
    VectorField,
    cesaro_periodic_datum,
    constant_in_time,
    evolve,
    fit_decay_exponent,
    lorentz_norm,
    nonlinear_periodic,
    perturb_and_compare,
    resolvent_periodic_datum,
    scaling_check,
    weighted_bilinear_constants,
    zeros_like_state,
)
from bqbox.cli import main
from bqbox.fileio import read_field
from bqbox.forcing import HarmonicTerm, TimeFourierField
from bqbox.grid import forward_coeffs
from bqbox.norms import ball_indicator
from bqbox.operators import div_coeffs
from bqbox.presets import (
    random_div_free,
    random_smooth_tensor,
    random_smooth_vector,
    single_mode_tensor,
    single_mode_vector,
)
from bqbox.suite import refinement_comparison

BOX = 2.0 * np.pi


def report(n, detail):
    print(f"ACCEPTANCE criterion {n}: PASS  ({detail})")


class TestAcceptance:
    def test_criterion_1_norm_oracle_agreement(self):
        """Indicator Lorentz norms match the closed forms to 1e-9 on 64^3."""
        started = time.monotonic()
        g = GridSpec(n=3, N=64, L=1.0)
        ind = ball_indicator(g, radius=0.2)
        m = float(ind.values.sum()) * g.cell_volume
        worst = 0.0
        for p in (2.0, 2.5, 3.0, 4.0):
            got = lorentz_norm(ind, p=p)
            want = m ** (1.0 / p)
            worst = max(worst, abs(got - want) / want)
            for q in (1.0, 2.0, p):
                got = lorentz_norm(ind, p=p, q=q)
                want = m ** (1 / p) * (p / q) ** (1 / q) * (p / (p - 1)) ** (1 / q)
                worst = max(worst, abs(got - want) / want)
        elapsed = time.monotonic() - started
        assert worst <= 1e-9
        assert elapsed < 5.0
        report(1, f"worst rel err {worst:.2e}, {elapsed:.2f}s")

    def test_criterion_2_criticality_scaling(self):
        """scaling_check ratio in [0.95, 1.05] at lam = n - p, c in {1/2, 2}."""
        started = time.monotonic()
        g = GridSpec(n=3, N=64, L=1.0)
        sampler = BallSampler(num_centers=64, num_radii=12)
        ratios = []
        for p in (3.0, 2.5):
            params = NormParams(p=p, q=np.inf, lam=3.0 - p)
            for c in (0.5, 2.0):
                sigma = 0.042 if c == 0.5 else 0.08
                ratios.append(scaling_check("gaussian", c, params, g, sampler, sigma=sigma).ratio)
                radius = 0.12 if c == 0.5 else 0.16
                ratios.append(scaling_check("ball", c, params, g, sampler, radius=radius).ratio)
        elapsed = time.monotonic() - started
        assert all(0.95 <= r <= 1.05 for r in ratios), ratios
        assert elapsed < 30.0
        report(2, f"ratios in [{min(ratios):.3f}, {max(ratios):.3f}], {elapsed:.1f}s")

    def test_criterion_3_linear_solver_exactness(self):
        """Linearized evolve matches the closed-form per-mode solution to 1e-6 at 32^3."""
        started = time.monotonic()
        g = GridSpec(n=3, N=32, L=BOX)
        T = 1.0
        fv = single_mode_vector(g, k=(1, 2, 0), component=1, amplitude=1.0)
        tf = TimeFourierField(period=T, terms=(HarmonicTerm(harmonic=1, field=fv, phase=0.3),))
        forcing = ForcingSpec(period=T, f=tf)
        cfg = SolveConfig(dt=T / 64, substeps=32)
        traj = evolve(zeros_like_state(g), forcing, T, cfg, mode="linearized")
        got_hat = forward_coeffs(g, traj.states[-1].theta.values)
        assert np.max(np.abs(traj.states[-1].u.values)) == 0.0

        # y' = -sigma y + cos(omega t + phi) src, y(0) = 0, solved per mode:
        # y(T) = src Re[e^{i phi} (e^{i omega T} - e^{-sigma T}) / (sigma + i omega)]
        src = div_coeffs(g, forward_coeffs(g, fv.values))
        sig = g.k_squared
        omega, phi = 2 * np.pi / T, 0.3
        y = src * np.real(np.exp(1j * phi) * (np.exp(1j * omega * T) - np.exp(-sig * T))
                          / (sig + 1j * omega))
        rel = float(np.max(np.abs(got_hat - y)) / np.max(np.abs(y)))
        elapsed = time.monotonic() - started
        assert rel <= 1e-6
        assert elapsed < 30.0
        report(3, f"rel err vs closed form {rel:.2e}, {elapsed:.1f}s")

    def test_criterion_4_massera_cross_validation(self):
        """Cesaro and resolvent data agree to 1e-6; error history is O(1/n)."""
        started = time.monotonic()
        g = GridSpec(n=3, N=16, L=BOX)
        T = 1.0
        agrees, slopes = [], []
        for seed in (11, 12, 13):
            amp = 2e-5
            fv = random_smooth_vector(g, seed=seed, exponent=2.0, amplitude=amp)
            Ft = random_smooth_tensor(g, seed=seed + 50, exponent=2.0, amplitude=amp)
            forcing = ForcingSpec(
                period=T,
                F=TimeFourierField(period=T, terms=(HarmonicTerm(1, Ft, 0.3),)),
                f=TimeFourierField(period=T, terms=(HarmonicTerm(0, fv), HarmonicTerm(1, fv, 1.1))),
            )
            prob = PeriodicProblem(forcing=forcing, cfg=SolveConfig(dt=T / 16, substeps=4), grid=g)
            ref = resolvent_periodic_datum(prob)
            sol = cesaro_periodic_datum(prob, n_max=600, tol=5e-9, reference=ref)
            agrees.append(max(
                float(np.max(np.abs(sol.initial.u.values - ref.u.values))),
                float(np.max(np.abs(sol.initial.theta.values - ref.theta.values))),
            ))
            pts = [(n, e) for (n, _, e) in sol.history if n >= 4 and e > 0]
            x = np.log([n for n, _ in pts])
            y = np.log([e for _, e in pts])
            slopes.append(float(np.polyfit(x, y, 1)[0]))
        elapsed = time.monotonic() - started
        assert max(agrees) <= 1e-6
        assert all(abs(s + 1.0) <= 0.2 for s in slopes)
        assert elapsed < 60.0
        report(4, f"max gap {max(agrees):.2e}, slopes {[f'{s:.3f}' for s in slopes]}, {elapsed:.1f}s")

    @staticmethod
    def _nonlinear_problem(g, amp, T=1.0):
        Ft = single_mode_tensor(g, k=(0, 1, 0), row=0, col=1, amplitude=amp)
        fv = single_mode_vector(g, k=(1, 0, 0), component=0, amplitude=amp)
        forcing = ForcingSpec(
            period=T,
            F=constant_in_time(T, Ft),
            f=TimeFourierField(period=T, terms=(HarmonicTerm(1, fv, 0.1),)),
        )
        return PeriodicProblem(forcing=forcing, cfg=SolveConfig(dt=T / 32, substeps=4), grid=g)

    @staticmethod
    def _ctx(g, stride=8):
        return NormContext(NormParams(p=3.0, q=np.inf, lam=0.0),
                           BallSampler(num_centers=8, num_radii=4), time_stride=stride)

    def test_criterion_5_nonlinear_periodic_solution(self):
        """Contraction < 1, residual < 1e-6, linear response 0.5 +- 10% at 32^3."""
        started = time.monotonic()
        g = GridSpec(n=3, N=32, L=BOX)
        sol = nonlinear_periodic(self._nonlinear_problem(g, 1e-3), outer_tol=1e-10,
                                 outer_max=20, ctx=self._ctx(g))
        assert all(r < 1.0 for r in sol.meta["contraction_ratios"])
        assert sol.residual_max < 1e-6
        half = nonlinear_periodic(self._nonlinear_problem(g, 5e-4), outer_tol=1e-10,
                                  outer_max=20, ctx=self._ctx(g))
        ratio = half.meta["solution_h_norm"] / sol.meta["solution_h_norm"]
        elapsed = time.monotonic() - started
        assert abs(ratio - 0.5) <= 0.05
        assert elapsed < 120.0
        report(5, f"residual {sol.residual_max:.2e}, response ratio {ratio:.4f}, {elapsed:.1f}s")

    def test_criterion_6_navier_stokes_corollary(self, tmp_path):
        """A navier-stokes config runs full mode bit for bit, with theta = 0 exactly."""
        started = time.monotonic()
        config = {
            "grid": {"n": 3, "N": 16, "L": BOX}, "norm_p": 3.0,
            "sampler": {"num_centers": 8, "num_radii": 4},
            "forcing": {"period": 1.0, "F": [
                {"harmonic": 0, "preset": "single-mode-tensor", "amplitude": 1e-3,
                 "params": {"k": [0, 1, 0], "row": 0, "col": 1}}]},
            "solve": {"dt": 1 / 32, "substeps": 4},
        }
        outputs = ("datum.bqf", "residual.csv", "contraction_history.csv")
        runs = {}
        for mode in ("full", "navier-stokes"):
            path = tmp_path / f"{mode}.json"
            path.write_text(json.dumps({**config, "mode": mode}), encoding="utf-8")
            out = tmp_path / mode
            assert main(["periodic-nonlinear", "--config", str(path), "--output", str(out)]) == 0
            runs[mode] = [(out / name).read_bytes() for name in outputs]
        assert runs["navier-stokes"] == runs["full"]
        datum = read_field(tmp_path / "navier-stokes" / "datum.bqf")
        assert np.all(datum.theta.values == 0.0) and np.max(np.abs(datum.u.values)) > 0.0
        residual_max = float(runs["navier-stokes"][1].decode().splitlines()[1].split(",")[0])
        assert residual_max < 1e-6
        elapsed = time.monotonic() - started
        report(6, f"bit-identical, residual {residual_max:.2e}, {elapsed:.1f}s")

    def test_criterion_7_estimate_suite_refinement(self):
        """All six empirical constants finite and stable under N -> 2N."""
        started = time.monotonic()
        g = GridSpec(n=3, N=16, L=BOX)
        rows = refinement_comparison(g, seed=42, ensemble=4, p=3.0)
        elapsed = time.monotonic() - started
        assert len(rows) == 6
        for (name, coarse, fine, rel) in rows:
            assert np.isfinite(coarse) and coarse > 0, name
            assert np.isfinite(fine) and fine > 0, name
            assert rel < 0.2, (name, rel)
        assert elapsed < 300.0
        worst = max(r[3] for r in rows)
        report(7, f"six checks, worst refinement change {worst:.3f}, {elapsed:.1f}s")

    def test_criterion_8_closed_form_constants(self):
        """Printed weighted-bilinear constants at (3, 6, 6), 4 significant figures."""
        c1, c2 = weighted_bilinear_constants(3.0, 6.0, 6.0)
        # regression lock: both equal 6 * 2^{1/4}
        assert c1 == pytest.approx(7.135242690016326, rel=1e-12)
        assert c2 == pytest.approx(7.135242690016326, rel=1e-12)
        assert f"{c1:.5g}" == "7.1352"
        assert f"{c2:.5g}" == "7.1352"
        report(8, f"C1 = C2 = {c1:.6f}")

    def test_criterion_9_stability_boundedness(self):
        """sup_t D(t) finite; late-window slope below -alpha/2 (gap 1e-4)."""
        started = time.monotonic()
        g = GridSpec(n=3, N=16, L=BOX)
        T = 1.0
        base = nonlinear_periodic(self._nonlinear_problem(g, 1e-3, T=T), outer_tol=1e-10,
                                  ctx=self._ctx(g))
        gap = random_div_free(g, seed=5, exponent=2.0, amplitude=1e-4)
        pert = State(VectorField(g, base.initial.u.values + gap.values), base.initial.theta)
        sp = StabilityParams(p=3.0, q=6.0, r=6.0, b=3.0)
        t_grid = np.geomspace(T / 32, 5.0 * T, 26)
        table = perturb_and_compare(base, pert, None, sp, t_grid,
                                    sampler=BallSampler(num_centers=8, num_radii=4))
        assert np.isfinite(table.sup_d) and table.sup_d > 0
        fit = fit_decay_exponent([(r[0], r[3]) for r in table.rows], window=(T, 5.0 * T))
        elapsed = time.monotonic() - started
        assert fit.slope <= -sp.alpha / 2.0
        assert elapsed < 120.0
        report(9, f"sup D {table.sup_d:.3e}, late slope {fit.slope:.2f} <= {-sp.alpha / 2}, {elapsed:.1f}s")
