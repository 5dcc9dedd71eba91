"""Acceptance suite: every criterion at its stated tolerance and runtime
budget, one pass/fail line each (run with -s to see them).

Criterion 7 is a distributional test with ~1% false-failure probability
per fresh seed; the suite runs it on a fixed seed and, on failure, retries
with at most two further fixed seeds (three strikes), documenting each.
"""

import math
import time

import numpy as np
from anderbox.experiments import (
    ExperimentConfig,
    box_bounds_study,
    chi_estimate,
    growth_study,
    scaling_law_test,
)
from anderbox.geometry import (
    DIRICHLET,
    NEUMANN,
    BoxDomain,
    SpectralField,
)
from anderbox.hamiltonian import assemble, eigenvalues, ims_partition
from anderbox.noise import (
    INDICATOR,
    SMOOTH,
    b_coeff,
    b_matrix,
    expectation_field,
    gaussian_table,
    mollified_band,
    renorm_constant,
)
from anderbox.paraproducts import bony_split, plain_product

from oracles import ims_fd_residual, shooting_ground_state, simpson_pairing_1d


def report(num, name, ok, t, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"criterion {num:2d} [{status}] {name} ({t:.1f}s) {detail}")
    return ok


class TestAcceptance:
    def test_01_zero_potential_spectrum(self):
        t0 = time.perf_counter()
        worst = 0.0
        for L in (1.0, 2.0, 4.0):
            vals = eigenvalues([assemble(None, BoxDomain.square(L), 16)], 3).values[0]
            exact = np.array([-2.0, -5.0, -5.0]) * np.pi**2 / L**2
            worst = max(worst, float(np.abs(vals - exact).max()))
        t = time.perf_counter() - t0
        ok = worst <= 1e-8 and t < 1.0
        assert report(1, "zero-potential spectrum", ok, t, f"max err {worst:.2e}")

    def test_02_deterministic_scaling_identity(self):
        t0 = time.perf_counter()
        rng = np.random.default_rng(0)
        worst = 0.0
        for trial in range(20):
            beta = 2.0 if trial % 2 == 0 else 0.5
            L = 2.0
            coeffs = rng.standard_normal((7, 7))
            Vb = SpectralField(BoxDomain.square(L), NEUMANN, coeffs)
            Vs = SpectralField(BoxDomain.square(L / beta), NEUMANN, coeffs * beta)
            eb = eigenvalues([assemble(Vb, BoxDomain.square(L), 16)], 3).values[0]
            es = eigenvalues([assemble(Vs, BoxDomain.square(L / beta), 16)], 3).values[0]
            worst = max(worst, float((np.abs(eb - es / beta**2) / np.abs(eb)).max()))
        t = time.perf_counter() - t0
        ok = worst <= 1e-8 and t < 10.0
        assert report(2, "deterministic scaling identity", ok, t, f"max rel err {worst:.2e}")

    def test_03_renormalization_divergence(self):
        t0 = time.perf_counter()
        eps = 2.0 ** -np.arange(4, 11)
        cs = np.array([renorm_constant(e, 1.0, SMOOTH) for e in eps])
        slope = float(np.polyfit(np.log(1.0 / eps), cs, 1)[0])
        rel = abs(slope - 1 / (2 * np.pi)) * 2 * np.pi
        e0 = 2.0**-6
        g = {L: renorm_constant(e0, L, SMOOTH) - math.log(1 / e0) / (2 * math.pi)
             for L in (1.0, 2.0, 4.0, 8.0)}
        trend = abs(g[4.0] - g[8.0]) < abs(g[1.0] - g[2.0])
        t = time.perf_counter() - t0
        ok = rel <= 0.02 and trend and t < 5.0
        assert report(3, "renormalization log divergence", ok, t,
                      f"slope rel err {rel:.2e}, C_L trend {trend}")

    def test_04_bony_exactness(self):
        t0 = time.perf_counter()
        rng = np.random.default_rng(1)
        box = BoxDomain.square(1.0)
        worst = 0.0
        for _ in range(100):
            cf = np.pad(rng.standard_normal((16, 16)), ((1, 0), (1, 0)))
            f = SpectralField(box, DIRICHLET, cf)
            x = SpectralField(box, NEUMANN, rng.standard_normal((17, 17)))
            tri = bony_split(f, x)
            direct = plain_product(f, x)
            worst = max(worst, float(np.abs((tri.total() - direct).coeffs).max()))
        t = time.perf_counter() - t0
        ok = worst <= 1e-10 and t < 30.0
        assert report(4, "Bony decomposition exactness", ok, t, f"max err {worst:.2e}")

    def test_05_expectation_field(self):
        t0 = time.perf_counter()
        L, eps = 1.0, 0.2
        box = BoxDomain.square(L)
        N = mollified_band(box, eps, SMOOTH)[0] + 3
        ef = expectation_field(eps, box, SMOOTH, N)
        corner = float(ef.eval(np.array([0.0, 0.0])))
        ident = abs(corner - 4 * renorm_constant(eps, L, SMOOTH))

        # Monte Carlo mean of the resonance at 9 probe points, 10^4 draws
        pts = np.array([[i / 4, j / 4] for i in (1, 2, 3) for j in (1, 2, 3)])
        from anderbox.calculus import frequency_radii, levels_for, make_partition

        k1 = np.arange(N + 1)[:, None]
        k2 = np.arange(N + 1)[None, :]
        tauw = SMOOTH(eps * k1 / L, eps * k2 / L)
        sig = 1.0 / (1.0 + np.pi**2 * (k1**2 + k2**2) / L**2)
        probe = SpectralField.zeros(box, NEUMANN, N)
        basis_at = np.empty((len(pts), N + 1, N + 1))
        for a in range(N + 1):
            for b in range(N + 1):
                probe.coeffs[:] = 0.0
                probe.coeffs[a, b] = 1.0
                basis_at[:, a, b] = probe.eval(pts)
        P = make_partition(levels_for(probe))
        rad = frequency_radii(box, (N + 1, N + 1))
        levels = list(range(-1, P.J + 1))
        A_mats = []
        B_mats = []
        for j in levels:
            w = P.rho(j, rad)
            A_mats.append((basis_at * (w * tauw)).reshape(len(pts), -1))
            B_mats.append((basis_at * (w * tauw * sig)).reshape(len(pts), -1))
        n_draws = 10_000
        Z = np.array([gaussian_table(7000 + s, (N + 1, N + 1)).ravel()
                      for s in range(n_draws)])
        vals = np.zeros((n_draws, len(pts)))
        for i, ji in enumerate(levels):
            Bi = Z @ A_mats[i].T
            for j in (ji - 1, ji, ji + 1):
                if -1 <= j <= levels[-1]:
                    vals += Bi * (Z @ B_mats[j + 1].T)
        mean = vals.mean(axis=0)
        se = vals.std(axis=0, ddof=1) / np.sqrt(n_draws)
        pred = ef.eval(pts)
        z = np.abs(mean - pred) / se
        t = time.perf_counter() - t0
        ok = ident <= 1e-12 and bool(np.all(z <= 3.0)) and t < 120.0
        assert report(5, "expectation-field identity", ok, t,
                      f"corner err {ident:.1e}, max |z| {z.max():.2f}")

    def test_06_ims_suite(self):
        t0 = time.perf_counter()
        part = ims_partition(2.0, 1.0)
        grid = np.linspace(-3.0, 9.0, 1000)
        sum_err = float(np.abs(part.sum_sq_1d(grid) - 1.0).max())

        rng = np.random.default_rng(2)
        box = BoxDomain.square(4.0)
        psi = SpectralField(box, DIRICHLET,
                            np.pad(rng.standard_normal((8, 8)), ((1, 0), (1, 0))))
        res = ims_fd_residual(psi, ims_partition(2.0, 0.5), k=(1, 0))

        rep = box_bounds_study(ExperimentConfig(L=4.0, r=2.0, a_overlap=1.0, eps=0.25,
                                                replicas=200, seed=0, nu=8,
                                                slack=1e-4)).summary
        violations = sum(rep[k] for k in ("upper_a", "upper_b", "lower", "mono"))
        t = time.perf_counter() - t0
        ok = (sum_err <= 1e-12 and res <= 1e-6 and violations == 0
              and rep["draws"] == 200 and t < 300.0)
        assert report(6, "IMS suite + box bounds", ok, t,
                      f"sum err {sum_err:.1e}, residual {res:.1e}, "
                      f"violations {violations}/200")

    def test_07_scaling_in_distribution(self):
        t0 = time.perf_counter()
        # three-strike policy: the KS test falsely fails ~1% of fresh runs;
        # try up to three fixed seeds and pass on the first success
        pvals = []
        for seed in (0, 1000, 2000):
            cfg = ExperimentConfig(L=4.0, eps=0.5, alpha=2.0, beta=1.0,
                                   replicas=200, nu=16, seed=seed)
            rec = scaling_law_test(cfg)
            pvals.append(rec.summary["ks_pvalue"])
            if pvals[-1] >= 0.01:
                break
        t = time.perf_counter() - t0
        ok = max(pvals) >= 0.01 and t < 600.0
        assert report(7, "scaling in distribution (KS)", ok, t,
                      f"p-values {['%.3f' % p for p in pvals]}")

    def test_08_chi_and_growth(self):
        t0 = time.perf_counter()
        res = chi_estimate(L_ladder=(16.0, 32.0, 48.0), nu=2.5, max_iter=200)
        for L, tr in res["traces"].items():
            assert all(b >= a - 1e-9 for a, b in zip(tr, tr[1:])), \
                f"ascent not monotone at L={L}"
        ladder_vals = [res["per_L"][L] for L in (16.0, 32.0, 48.0)]
        assert all(b >= a - 1e-9 for a, b in zip(ladder_vals, ladder_vals[1:]))
        t_oracle = time.perf_counter()
        _, _, chi_oracle = shooting_ground_state()
        t_oracle = time.perf_counter() - t_oracle
        rel = abs(res["chi"] - chi_oracle) / chi_oracle
        t_chi = time.perf_counter() - t0

        cfg = ExperimentConfig(L_ladder=(1.0, 2.0, 4.0), eps=0.25, beta=1.0,
                               replicas=100, nu=8, seed=0, slack=1e-4)
        mono = growth_study(cfg).summary["mono_violations"]
        cfg2 = ExperimentConfig(L_ladder=(2.0, 8.0), eps=0.25, beta=1.0,
                                replicas=200, nu=8, seed=0)
        rec2 = growth_study(cfg2)
        m2 = rec2.summary["per_L"][2.0]
        m8 = rec2.summary["per_L"][8.0]
        zgap = (m8["mean"] - m2["mean"]) / math.hypot(m8["stderr"], m2["stderr"])
        t = time.perf_counter() - t0
        ok = rel <= 0.01 and t_chi < 120.0 and mono == 0 and zgap > 3.0
        assert report(8, "chi cross-validation + growth properties", ok, t,
                      f"chi {res['chi']:.5f} vs {chi_oracle:.5f} "
                      f"(rel {rel:.2%}, {t_chi:.0f}s), mono {mono}, z {zgap:.1f}, "
                      f"program {t - t_oracle:.1f}s, oracle {t_oracle:.1f}s")

    def test_09_b_coefficients(self):
        t0 = time.perf_counter()
        rng = np.random.default_rng(3)
        worst = 0.0
        ratios = []
        for _ in range(1000):
            L = rng.uniform(1.0, 8.0)
            r = rng.uniform(0.25, 1.0) * L
            z = rng.uniform(0.0, L - r)
            m = int(rng.integers(0, 40))
            l = int(rng.integers(0, 40))
            got = float(b_coeff(m, l, z, r, L))
            worst = max(worst, abs(got - simpson_pairing_1d(m, l, z, r, L)))
            ratios.append(abs(got) / (math.sqrt(r / L) / (1.0 + abs(r * m / L - l))))
        fitted_c = max(ratios)
        t = time.perf_counter() - t0
        ok = worst <= 1e-8 and fitted_c < 3.0 and t < 30.0
        assert report(9, "b-coefficient closed form", ok, t,
                      f"max err {worst:.1e}, fitted C {fitted_c:.2f}")

    def test_10_subbox_restriction_law(self):
        t0 = time.perf_counter()
        parent = BoxDomain.square(2.0)
        sub = BoxDomain((0.5, 0.5), (1.0, 1.0))
        eps, K, n_draws = 0.05, 2, 10_000
        band = mollified_band(parent, eps, INDICATOR)
        B1 = b_matrix(band[0], K, 0.5, 1.0, 2.0)
        B2 = b_matrix(band[1], K, 0.5, 1.0, 2.0)
        Z = np.array([gaussian_table(40_000 + s, (band[0] + 1, band[1] + 1))
                      for s in range(n_draws)])
        theta = np.einsum("mk,smn,nl->skl", B1, Z, B2)
        var_theta = theta.var(axis=0, ddof=1)
        direct = np.array([gaussian_table(90_000 + s, (K + 1, K + 1))
                           for s in range(n_draws)])
        var_direct = direct.var(axis=0, ddof=1)
        se = np.sqrt((var_theta**2 + var_direct**2) * 2.0 / (n_draws - 1))
        z = np.abs(var_theta - var_direct) / se
        t = time.perf_counter() - t0
        ok = bool(np.all(z <= 3.0)) and t < 300.0
        assert report(10, "sub-box restriction law", ok, t,
                      f"max |z| {z.max():.2f}, "
                      f"mean bias {np.abs(var_theta - var_direct).mean():.3f}")
