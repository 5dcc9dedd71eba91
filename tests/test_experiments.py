import dataclasses
import math

import numpy as np
import pytest

from anderbox import experiments
from anderbox.errors import ContractError
from anderbox.experiments import (
    ExperimentConfig,
    _ascent_grid,
    _l4sq_and_grad,
    _normalized_grid,
    _psi_sq_step,
    box_bounds_study,
    chi_ascent,
    chi_estimate,
    growth_study,
    rate_infimum_estimate,
    scaling_law_test,
    small_noise_study,
    tail_study,
)
from anderbox.geometry import DIRICHLET, BoxDomain, SpectralField, inverse_transform

from oracles import single_mode_lower_bound


class TestConfig:
    def test_ladder_must_increase(self):
        with pytest.raises(ContractError):
            ExperimentConfig(L_ladder=(4.0, 2.0))

    def test_replicas_positive(self):
        with pytest.raises(ContractError):
            ExperimentConfig(replicas=0)

    def test_trunc_rule(self):
        cfg = ExperimentConfig(nu=16)
        assert cfg.trunc(4.0) == 64


class TestGrowthStudy:
    def test_zero_noise_matches_laplacian_curve(self):
        cfg = ExperimentConfig(L_ladder=(2.0, 4.0), beta=0.0, replicas=1,
                               nu=8, eps=0.25, seed=0)
        rec = growth_study(cfg)
        for L in (2.0, 4.0):
            lam = rec.lambdas(L=L, n=1)
            # beta = 0: exact Laplacian value minus the (constant) shift
            expect = -2 * np.pi**2 / L**2 - rec.summary["c_subtracted"] * 0.0
            assert lam[0] + rec.summary["c_subtracted"] * 0.0 == pytest.approx(
                -2 * np.pi**2 / L**2, abs=1e-8)
            assert rec.summary["per_L"][L]["ratio_logL"] == pytest.approx(
                (-2 * np.pi**2 / L**2) / math.log(L), abs=1e-8)
        assert rec.summary["mono_violations"] == 0

    def test_pathwise_monotonicity_small(self):
        cfg = ExperimentConfig(L_ladder=(1.0, 2.0, 4.0), beta=1.0, replicas=12,
                               nu=8, eps=0.25, seed=3, slack=1e-4)
        rec = growth_study(cfg)
        assert rec.summary["mono_violations"] == 0

    def test_rerun_bit_exact(self):
        cfg = ExperimentConfig(L_ladder=(1.0, 2.0), beta=1.0, replicas=3,
                               nu=8, eps=0.25, seed=11)
        r1 = growth_study(cfg)
        r2 = growth_study(cfg)
        for a, b in zip(r1.rows, r2.rows):
            assert a["lambda"] == b["lambda"]


@pytest.mark.parametrize("study,kw", [
    (growth_study, dict(L_ladder=(1.0, 2.0), eps=0.25, replicas=4)),
    (scaling_law_test, dict(L=2.0, eps=0.5, alpha=2.0, replicas=3)),
    (tail_study, dict(L=1.0, eps=0.5, replicas=4)),
    (small_noise_study, dict(L=1.0, eps=0.25, replicas=3,
                             eps_ladder=(1e-1, 1e-2))),
    (box_bounds_study, dict(L=2.0, r=1.0, a_overlap=0.5, eps=0.25, replicas=10)),
], ids=["growth", "scaling-test", "tails", "small-noise", "box-bounds"])
def test_worker_pool_matches_serial(study, kw):
    # every CSV column but wall_ms must not depend on the pool size
    cfg = ExperimentConfig(nu=8, seed=21, **kw)
    serial = study(cfg)
    parallel = study(dataclasses.replace(cfg, workers=2))
    body = lambda rec: [{k: v for k, v in r.items() if k != "wall_ms"}
                        for r in rec.rows]
    assert serial.rows
    assert body(serial) == body(parallel)


class TestScalingLaw:
    def test_alpha_one_is_identity_test(self):
        cfg = ExperimentConfig(L=2.0, eps=0.5, alpha=1.0,
                               beta=1.0, replicas=40, nu=8, seed=5)
        rec = scaling_law_test(cfg)
        # both sides are literally the same distribution
        assert rec.summary["ks_pvalue"] > 1e-4
        assert rec.summary["log_shift"] == 0.0

    def test_beta_zero_exact_identity(self):
        # no noise: both sides are deterministic and equal
        cfg = ExperimentConfig(L=2.0, eps=0.5, alpha=2.0, beta=0.0,
                               replicas=2, nu=8, seed=6)
        rec = scaling_law_test(cfg)
        A = rec.lambdas(L=2.0)
        B = rec.lambdas(L=1.0)
        assert np.allclose(A, B, atol=1e-8)

    def test_matched_truncation_ks(self):
        cfg = ExperimentConfig(L=2.0, eps=0.5, alpha=2.0, beta=1.0,
                               replicas=60, nu=8, seed=7)
        rec = scaling_law_test(cfg)
        assert rec.summary["ks_pvalue"] >= 0.01


class TestTails:
    def test_tail_function_shape(self):
        cfg = ExperimentConfig(L=1.0, eps=0.5, beta=1.0, replicas=300,
                               nu=8, seed=8)
        rec = tail_study(cfg, n_boot=50)
        tail = np.asarray(rec.summary["tail"])
        lams = rec.lambdas(L=1.0)
        # P(lambda >= x) = 1 below the sample minimum
        from anderbox.experiments import empirical_upper_tail
        assert empirical_upper_tail(lams, np.array([lams.min() - 1.0]))[0] == 1.0
        assert rec.summary["monotone"]
        assert rec.summary["eventually_decreasing"]
        assert np.all(np.diff(tail) <= 1e-12)

    def test_rate_positive_with_ci(self):
        cfg = ExperimentConfig(L=1.0, eps=0.5, beta=1.0, replicas=800,
                               nu=8, seed=9)
        rec = tail_study(cfg, n_boot=100)
        lo, hi = rec.summary["rate_ci"]
        assert rec.summary["rate"] > 0
        assert lo > 0


class TestSmallNoise:
    def test_concentration_and_variance_slope(self):
        cfg = ExperimentConfig(L=1.0, eps=0.25, replicas=160,
                               eps_ladder=(1e-1, 1e-2, 1e-3), nu=8, seed=10)
        rec = small_noise_study(cfg)
        lam0 = -2 * np.pi**2
        stats = rec.summary["per_eps"][1e-3]
        assert abs(stats["mean"] - lam0) < 3.5 * stats["stderr"] + 5e-3
        assert 0.8 <= rec.summary["var_slope"] <= 1.2


class TestChi:
    def test_single_mode_lower_bound_formula(self):
        # closed form: first sine mode objective 6/L - 8 pi^2/L^2
        L = 16.0
        box = BoxDomain.square(L)
        from anderbox.geometry import SpectralField, DIRICHLET, inverse_transform
        psi = SpectralField.unit_mode(box, DIRICHLET, (1, 1), (4, 4))
        M = (32, 32)
        g = inverse_transform(psi, M)
        l4sq = math.sqrt(float(np.sum(g.samples**4)) * g.quad_weight())
        grad = np.pi**2 * 2 / L**2
        val = 4 * (l4sq - grad)
        assert val == pytest.approx(single_mode_lower_bound(L), rel=1e-12)

    def test_ascent_monotone_and_beats_single_mode(self):
        L = 16.0
        val, trace, _ = chi_ascent(BoxDomain.square(L), 32, max_iter=40, tol=1e-8)
        assert all(b >= a - 1e-9 for a, b in zip(trace, trace[1:]))
        assert val >= single_mode_lower_bound(L)

    def test_ladder_nondecreasing(self):
        res = chi_estimate(L_ladder=(8.0, 16.0), nu=2.0, max_iter=60)
        vals = [res["per_L"][L] for L in (8.0, 16.0)]
        assert vals[1] >= vals[0] - 1e-9


class TestRateInfimum:
    def test_feasible_level_met_and_dual_handshake(self):
        out = rate_infimum_estimate(L=1.0, n=1, a=1.0, nu=8, max_iter=8)
        assert out["energy"] > 0
        # dual re-maximization from the optimizer recovers at least the level
        assert out["dual_lambda"] >= out["level"] - 1e-6

    def test_target_near_laplacian_value_costs_little(self):
        # targets approaching the zero-potential eigenvalue need vanishing
        # energy: V = delta * 1 is feasible via the constant shift
        L = 1.0
        lam0 = -2 * np.pi**2 / L**2
        e1 = rate_infimum_estimate(L=L, n=1, a=lam0 + 0.5, nu=8, max_iter=4)["energy"]
        e2 = rate_infimum_estimate(L=L, n=1, a=lam0 + 0.1, nu=8, max_iter=4)["energy"]
        # cost of the constant-shift competitor: (delta L)^2 / 2
        assert e2 < e1
        assert e2 <= 0.5 * (0.1 * L) ** 2 + 1e-6

    def test_dual_ascent_stops_when_the_level_stops_moving(self, monkeypatch):
        solves = []
        real = experiments.eigenvalues

        def counting(op, n, **kw):
            solves.append(n)
            return real(op, n, **kw)

        monkeypatch.setattr(experiments, "eigenvalues", counting)
        out = rate_infimum_estimate(L=4.0, n=1, a=1.0, nu=8)
        early = len(solves)
        solves.clear()
        monkeypatch.setattr(experiments, "BALL_STOP", 0.0)  # 12 steps and a final solve
        fixed = rate_infimum_estimate(L=4.0, n=1, a=1.0, nu=8)
        assert early < len(solves)
        assert out["energy"] == fixed["energy"]
        assert abs(out["dual_lambda"] - fixed["dual_lambda"]) <= 1e-12

    def test_nonincreasing_in_L(self):
        es = []
        prev_V = None
        for L in (1.0, 2.0, 4.0):
            out = rate_infimum_estimate(L=L, n=1, a=1.0, nu=8, max_iter=8)
            es.append(out["energy"])
        assert es[1] <= es[0] + 1e-6
        assert es[2] <= es[1] + 1e-6


class TestAscentGrid:
    """The psi^2 potentials of the variational ascents have band 2N, so any
    quadrature grid M > 2N gives the same step; M = 2N aliases."""

    @staticmethod
    def _step(psi, N, M):
        V = _normalized_grid(inverse_transform(psi, M).samples ** 2, psi.box.area)
        r, l4sq, grad, *_ = _psi_sq_step(V, psi.box, N, M, 1, 1e-12, None, 0)
        return np.array([r.values[0], l4sq, grad])

    def test_fast_grid_matches_raw_grid(self):
        N = 16
        assert _ascent_grid(N) == (36, 36)  # raw 2N + 2 = 34 = 2 * 17
        rng = np.random.default_rng(5)
        c = np.zeros((N + 1, N + 1))
        c[1:, 1:] = rng.standard_normal((N, N))
        psi = SpectralField(BoxDomain.square(2.0), DIRICHLET, c)
        raw = self._step(psi, N, (2 * N + 2, 2 * N + 2))
        assert np.abs(self._step(psi, N, _ascent_grid(N)) - raw).max() < 1e-12
        assert np.abs(self._step(psi, N, (2 * N, 2 * N)) - raw).max() > 1e-7

    @pytest.mark.parametrize("N", [16, 120])
    def test_l4_norm_matches_fourth_power(self, N):
        c = np.zeros((N + 1, N + 1))
        c[1:, 1:] = np.random.default_rng(N).standard_normal((N, N))
        psi = SpectralField(BoxDomain.square(4.0), DIRICHLET, c)
        M = _ascent_grid(N)
        l4sq, _, psi_sq = _l4sq_and_grad(psi, M)
        g = inverse_transform(psi, M)
        ref = math.sqrt(float(np.sum(g.samples**4)) * g.quad_weight())
        assert abs(l4sq - ref) <= 1e-14 * ref
        assert np.array_equal(psi_sq, g.samples**2)

    def test_V0_on_wrong_grid_rejected(self):
        N = 16
        bad = np.ones((2 * N + 2, 2 * N + 2))
        with pytest.raises(ContractError):
            chi_ascent(BoxDomain.square(8.0), N, max_iter=2, V0=bad)
        with pytest.raises(ContractError):
            rate_infimum_estimate(L=2.0, n=1, a=1.0, N=N, max_iter=1, V0=bad)

    def test_rate_inf_accepts_own_optimizer(self):
        res = rate_infimum_estimate(L=1.0, n=1, a=1.0, nu=8, max_iter=2)
        assert res["optimizer_grid"].shape == res["grid_M"] == _ascent_grid(8)
        again = rate_infimum_estimate(L=1.0, n=1, a=1.0, nu=8, max_iter=2,
                                      V0=res["optimizer_grid"])
        assert again["energy"] <= res["energy"] + 1e-9


class TestWarmStarts:
    """Only the first solve of a chi rung or a rate-infimum call is cold;
    every later one starts from the previous eigenvectors."""

    @pytest.fixture
    def cold_solves(self, monkeypatch):
        cold = []
        real = experiments.eigenvalues

        def counting(op, n, **kw):
            cold.append(kw.get("v0") is None)
            return real(op, n, **kw)

        monkeypatch.setattr(experiments, "eigenvalues", counting)
        return cold

    def test_chi_estimate_one_cold_solve_per_rung(self, cold_solves):
        chi_estimate(L_ladder=(8.0, 12.0), nu=2.0, max_iter=30)
        assert sum(cold_solves) == 2 and len(cold_solves) > 2

    def test_rate_infimum_one_cold_solve(self, cold_solves, monkeypatch):
        draws = []
        real_rng = np.random.default_rng
        monkeypatch.setattr(np.random, "default_rng", lambda s: draws.append(s) or real_rng(s))
        rate_infimum_estimate(L=1.0, n=1, a=1.0, nu=8, max_iter=4)
        assert sum(cold_solves) == 1 and len(cold_solves) > 1
        # a warm n = 1 start fills the whole block: only the cold solve draws
        assert len(draws) == 1
