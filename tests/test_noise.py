import os

import numpy as np
import pytest
from scipy import stats

from anderbox.calculus import apply_block, make_partition, resolvent
from anderbox.errors import ContractError
from anderbox.geometry import BoxDomain, NEUMANN, SpectralField
from anderbox.noise import (
    INDICATOR,
    SMOOTH,
    b_coeff,
    b_matrix,
    enhance,
    expectation_field,
    gaussian_table,
    load_draw,
    mollified_band,
    mollify,
    profile_constant,
    renorm_constant,
    restrict,
    sample,
    save_draw,
)
from anderbox.paraproducts import resonance

from oracles import restriction_variances, simpson_pairing_1d

BOX = BoxDomain.square(1.0)


class TestSampling:
    def test_deterministic_in_seed(self):
        d1 = sample(BOX, 16, 42)
        d2 = sample(BOX, 16, 42)
        assert np.array_equal(d1.coeffs, d2.coeffs)
        d3 = sample(BOX, 16, 43)
        assert not np.array_equal(d1.coeffs, d3.coeffs)

    def test_truncation_refinement_preserves_coefficients(self):
        d1 = sample(BOX, 8, 7)
        d2 = sample(BOX, 24, 7)
        assert np.array_equal(d2.coeffs[:9, :9], d1.coeffs)

    def test_mean_and_covariance(self):
        n_draws = 10_000
        z = np.array([gaussian_table(s, (3, 3)) for s in range(n_draws)])
        # mean of Z_(1,1) within 4 / sqrt(n) of zero
        assert abs(z[:, 1, 1].mean()) < 4.0 / np.sqrt(n_draws)
        # cross-covariance of (1,0) and (0,1) within 0.05 of zero (3 sigma)
        assert abs(np.mean(z[:, 1, 0] * z[:, 0, 1])) < 0.05

    def test_gaussian_moments(self):
        z = np.array([gaussian_table(s, (4, 4)) for s in range(4000)])
        flat = z.reshape(4000, -1)
        # 3 sigma bands: skewness se ~ sqrt(6/n), kurtosis se ~ sqrt(24/n)
        assert np.abs(stats.skew(flat, axis=0)).max() < 3 * np.sqrt(6 / 4000) + 0.02
        assert np.abs(stats.kurtosis(flat, axis=0)).max() < 3 * np.sqrt(24 / 4000) + 0.05

    def test_requires_positive_truncation(self):
        with pytest.raises(ContractError):
            sample(BOX, 0, 1)


class TestMollify:
    def test_identity_when_cutoff_flat(self):
        d = sample(BOX, 8, 0)
        xi = mollify(d, 1e-3, SMOOTH)
        assert np.array_equal(xi.coeffs, d.coeffs)

    def test_indicator_at_eps_equal_L_keeps_only_constant(self):
        d = sample(BOX, 8, 1)
        xi = mollify(d, 1.0, INDICATOR)
        nz = np.argwhere(xi.coeffs != 0.0)
        assert nz.tolist() == [[0, 0]]

    def test_l2_nondecreasing_as_eps_decreases(self):
        d = sample(BOX, 16, 2)
        norms = [mollify(d, e, INDICATOR).l2_norm() for e in (0.5, 0.25, 0.125, 0.0625)]
        assert all(b >= a - 1e-15 for a, b in zip(norms, norms[1:]))

    def test_band_helper(self):
        band = mollified_band(BOX, 0.25, INDICATOR)
        xi = mollify(sample(BOX, 2 * band[0], 3), 0.25, INDICATOR)
        assert np.abs(xi.coeffs[band[0] + 1:, :]).max() == 0.0


class TestRenormConstant:
    def test_indicator_single_term(self):
        for L in (1.0, 2.0):
            assert renorm_constant(L, L, INDICATOR) == pytest.approx(1 / (4 * L * L), rel=1e-14)

    def test_log_slope(self):
        eps = 2.0 ** -np.arange(4, 11)
        cs = np.array([renorm_constant(e, 1.0, SMOOTH) for e in eps])
        slope = np.polyfit(np.log(1 / eps), cs, 1)[0]
        assert abs(slope - 1 / (2 * np.pi)) < 0.02 / (2 * np.pi)

    def test_boundary_constant_shrinks_in_L(self):
        e0 = 2.0**-6
        g = {L: renorm_constant(e0, L, SMOOTH) - np.log(1 / e0) / (2 * np.pi)
             for L in (1, 2, 4, 8)}
        assert abs(g[4] - g[8]) < abs(g[1] - g[2])

    def test_profile_constant_matches_lattice_limit(self):
        # c_{eps,L} - log(1/eps)/(2 pi) -> c_tau + C_L with C_L -> 0
        ctau = profile_constant(SMOOTH)
        g8 = renorm_constant(2.0**-8, 8.0, SMOOTH) - np.log(2.0**8) / (2 * np.pi)
        assert abs(g8 - ctau) < 5e-3


class TestExpectationField:
    def test_corner_value_is_four_c(self):
        for L, eps in [(1.0, 0.2), (2.0, 0.11)]:
            box = BoxDomain.square(L)
            N = mollified_band(box, eps, SMOOTH)[0] + 4
            ef = expectation_field(eps, box, SMOOTH, N)
            c = renorm_constant(eps, L, SMOOTH)
            corner = float(ef.eval(np.array([0.0, 0.0])))
            assert abs(corner - 4 * c) < 1e-12

    def test_spatial_mean(self):
        # trivially, every n_k^2 integrates to one, so the mean is the
        # plain weight sum over the area
        L, eps, N = 1.0, 0.15, 24
        ef = expectation_field(eps, BOX, SMOOTH, N)
        k1 = np.arange(N + 1)[:, None]
        k2 = np.arange(N + 1)[None, :]
        w = SMOOTH(eps * k1 / L, eps * k2 / L) ** 2 / (1 + np.pi**2 * (k1**2 + k2**2) / L**2)
        mean = float(ef.coeffs[0, 0]) * L / BOX.area
        assert abs(mean - w.sum() / L**2) < 1e-12

    def test_monte_carlo_mean_matches_field(self):
        # oracle: Monte Carlo of the resonance with CLT bands at probe points
        eps, N, reps = 0.2, 12, 800
        ef = expectation_field(eps, BOX, SMOOTH, N)
        pts = np.array([[0.1, 0.2], [0.5, 0.5], [0.9, 0.3], [0.25, 0.75]])
        acc = np.zeros(len(pts))
        sq = np.zeros(len(pts))
        for s in range(reps):
            xi = mollify(sample(BOX, N, 5000 + s), eps, SMOOTH)
            v = resonance(xi, resolvent(xi)).eval(pts)
            acc += v
            sq += v**2
        mean = acc / reps
        se = np.sqrt((sq / reps - mean**2) / reps)
        assert np.all(np.abs(mean - ef.eval(pts)) < 3.5 * se + 1e-12)


class TestEnhance:
    def test_reproducible(self):
        d = sample(BOX, 12, 9)
        e1 = enhance(d, 0.3, SMOOTH)
        e2 = enhance(sample(BOX, 12, 9), 0.3, SMOOTH)
        assert np.array_equal(e1.xi.coeffs, e2.xi.coeffs)
        assert np.array_equal(e1.Xi.coeffs, e2.Xi.coeffs)
        assert e1.c_subtracted == e2.c_subtracted

    def test_recentred_mean(self):
        # coefficient-wise mean of Xi over draws within 3 standard errors of 0
        eps, N, reps = 0.25, 10, 400
        acc = None
        sq = None
        for s in range(reps):
            en = enhance(sample(BOX, N, 300 + s), eps, SMOOTH)
            c = en.Xi.coeffs
            acc = c.copy() if acc is None else acc + c
            sq = c**2 if sq is None else sq + c**2
        mean = acc / reps
        var = sq / reps - mean**2
        se = np.sqrt(np.maximum(var, 1e-30) / reps)
        frac_bad = np.mean(np.abs(mean) > 3 * se + 1e-12)
        assert frac_bad < 0.02

    def test_c_subtracted_matches_lattice_sum(self):
        d = sample(BOX, 16, 11)
        en = enhance(d, 0.2, SMOOTH)
        assert en.c_subtracted == pytest.approx(renorm_constant(0.2, 1.0, SMOOTH), rel=1e-12)

    def test_block_variance_growth_bound(self):
        # empirical Var(Delta_i Xi(x)) <= fitted_c * 2^{gamma i}, gamma = 0.5
        eps, N, reps = 0.15, 16, 300
        P = make_partition(8)
        pts = np.array([[0.3, 0.6]])
        levels = range(0, 5)
        acc = {i: [] for i in levels}
        for s in range(reps):
            en = enhance(sample(BOX, N, 800 + s), eps, SMOOTH)
            for i in levels:
                acc[i].append(float(apply_block(en.Xi, i, P).eval(pts)[0]))
        var = np.array([np.var(acc[i], ddof=1) for i in levels])
        gamma = 0.5
        fitted_c = (var / 2.0 ** (gamma * np.asarray(levels))).max()
        # the bound with the fitted constant must hold across all levels
        assert np.all(var <= fitted_c * 2.0 ** (gamma * np.asarray(levels)) + 1e-15)
        # and the constant is not absurdly dominated by the top level alone
        assert np.isfinite(fitted_c) and fitted_c > 0

    def test_chaos_moment_decay_slope(self):
        # E|Delta_i(xi_eps - xi_delta)(x)|^2 <= C 2^{(2+2g)i} |eps-delta|^g
        # evaluated exactly as a deterministic coefficient sum; log-log
        # slope in |eps - delta| should be >= g for small gaps
        P = make_partition(8)
        N = 32
        x = np.array([0.37, 0.61])
        i = 1  # block overlapping the cutoff transition for eps near 0.2
        k1 = np.arange(N + 1)[:, None]
        k2 = np.arange(N + 1)[None, :]
        rad = np.hypot(k1, k2)

        def second_moment(eps, delta):
            # E |sum_k a_k Z_k n_k(x)|^2 = sum_k a_k^2 n_k(x)^2
            w = (SMOOTH(eps * k1, eps * k2) - SMOOTH(delta * k1, delta * k2)) ** 2
            rho = P.rho(i, rad) ** 2
            total = 0.0
            for (a, b) in np.argwhere(w * rho > 0):
                total += (w[a, b] * rho[a, b]
                          * SpectralField.unit_mode(BOX, NEUMANN, (a, b), (N, N)).eval(x) ** 2)
            return total

        gaps = [0.08, 0.04, 0.02, 0.01]
        moments = [second_moment(0.2, 0.2 - g) for g in gaps]
        slope = np.polyfit(np.log(gaps), np.log(moments), 1)[0]
        assert slope > 0.5  # comfortably positive Hoelder-type decay


class TestBCoefficients:
    def test_same_box_is_kronecker(self):
        B = b_matrix(6, 6, 0.0, 2.0, 2.0)
        assert np.abs(B - np.eye(7)).max() < 1e-12

    def test_against_simpson_quadrature(self):
        rng = np.random.default_rng(0)
        worst = 0.0
        for _ in range(200):
            L = rng.uniform(1.0, 8.0)
            r = rng.uniform(0.3, 1.0) * L
            z = rng.uniform(0.0, L - r)
            m = int(rng.integers(0, 30))
            l = int(rng.integers(0, 30))
            got = float(b_coeff(m, l, z, r, L))
            ora = simpson_pairing_1d(m, l, z, r, L)
            worst = max(worst, abs(got - ora))
        assert worst < 1e-8

    def test_uniform_decay_bound(self):
        # |b| <= C sqrt(r/L) / (1 + |r m / L - l|) with one fitted C
        rng = np.random.default_rng(1)
        ratios = []
        for _ in range(1000):
            L = rng.uniform(1.0, 10.0)
            r = rng.uniform(0.2, 1.0) * L
            z = rng.uniform(0.0, L - r)
            m = int(rng.integers(0, 60))
            l = int(rng.integers(0, 60))
            b = float(b_coeff(m, l, z, r, L))
            bound = np.sqrt(r / L) / (1.0 + abs(r * m / L - l))
            ratios.append(abs(b) / bound)
        assert max(ratios) < 3.0  # a single modest constant works

    def test_shift_range_contract(self):
        with pytest.raises(ContractError):
            b_coeff(1, 1, 1.5, 1.0, 2.0)


class TestRestriction:
    def test_identity_on_same_box(self):
        d = sample(BOX, 10, 5)
        theta = restrict(d, 1e-3, BOX, 10, SMOOTH)
        assert np.abs(theta.coeffs - d.coeffs).max() < 1e-10

    def test_projection_contracts_l2(self):
        parent = BoxDomain.square(2.0)
        d = sample(parent, 24, 6)
        sub = BoxDomain((0.5, 0.25), (1.0, 1.0))
        eps = 0.25
        xi = mollify(d, eps, INDICATOR)
        theta = restrict(d, eps, sub, 40, INDICATOR)
        assert theta.l2_norm() <= xi.l2_norm() + 1e-12

    def test_subbox_escape(self):
        d = sample(BOX, 8, 7)
        with pytest.raises(ContractError):
            restrict(d, 0.1, BoxDomain((0.5, 0.5), (1.0, 1.0)), 8)

    def test_coefficient_variances_approach_white_noise(self):
        # restricted-noise coefficient variances vs direct white noise on
        # the sub-box, at 10^4 draws and small eps (criterion-scale check
        # lives in the acceptance suite; this is a smaller smoke version)
        parent = BoxDomain.square(2.0)
        sub = BoxDomain((0.5, 0.5), (1.0, 1.0))
        eps = 0.05
        K = 4
        n_draws = 4000
        band = mollified_band(parent, eps, INDICATOR)
        z1 = sub.origin[0] - parent.origin[0]
        B1 = b_matrix(band[0], K, z1, 1.0, 2.0)
        B2 = b_matrix(band[1], K, z1, 1.0, 2.0)
        rng_mat = np.array([gaussian_table(s, (band[0] + 1, band[1] + 1))
                            for s in range(n_draws)])
        theta = np.einsum("mk,smn,nl->skl", B1, rng_mat, B2)
        var_theta = theta.var(axis=0, ddof=1)
        # predicted variances from the exact b-sums
        pred = restriction_variances(parent, eps, sub, K, band, INDICATOR)
        se = pred * np.sqrt(2.0 / n_draws)
        assert np.all(np.abs(var_theta - pred) < 4 * se + 1e-3)
        # and the prediction is close to unit (white noise) for low modes
        assert np.abs(pred[:3, :3] - 1.0).max() < 0.05


class TestExport:
    def test_round_trip(self, tmp_path):
        d = sample(BoxDomain((0.5, -1.0), (2.0, 3.0)), (6, 8), 123)
        path = os.path.join(tmp_path, "draw.npz")
        save_draw(path, d, eps=0.25, profile=SMOOTH)
        back = load_draw(path)
        assert back.box == d.box
        assert back.seed == 123
        assert np.array_equal(back.coeffs, d.coeffs)
