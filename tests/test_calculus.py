import numpy as np
import pytest

from anderbox.calculus import (
    apply_block,
    laplacian,
    levels_for,
    make_partition,
    multiplier,
    resolvent,
)
from anderbox.errors import ContractError
from anderbox.geometry import (
    DIRICHLET,
    NEUMANN,
    BoxDomain,
    SpectralField,
    inverse_transform,
)

from oracles import BesovSpec, besov_norm, holder_norm, sobolev_norm


BOX = BoxDomain.square(1.0)


def neumann_field(N, seed, box=BOX):
    rng = np.random.default_rng(seed)
    return SpectralField(box, NEUMANN, rng.standard_normal((N + 1, N + 1)))


class TestPartition:
    def test_requires_level(self):
        with pytest.raises(ContractError):
            make_partition(0)

    def test_value_at_origin(self):
        P = make_partition(6)
        assert P.rho(-1, 0.0) == 1.0
        for j in range(0, 7):
            assert P.rho(j, 0.0) == 0.0

    def test_sums_to_one(self):
        # oracle: direct summation over levels on a dense radial grid
        P = make_partition(10)
        y = np.linspace(0.0, 0.75 * 2**11, 1000)
        total = sum(P.rho(j, y) for j in range(-1, 11))
        assert np.abs(total - 1.0).max() <= 1e-12

    def test_squares_between_half_and_one(self):
        P = make_partition(9)
        y = np.linspace(0.0, 300.0, 20001)
        s = sum(P.rho(j, y) ** 2 for j in range(-1, 10))
        assert s.min() >= 0.5 - 1e-12
        assert s.max() <= 1.0 + 1e-12

    def test_two_term_overlap_structure(self):
        # at any radius at most two consecutive profiles are nonzero
        P = make_partition(8)
        y = np.linspace(0.0, 200.0, 5001)
        vals = np.array([P.rho(j, y) for j in range(-1, 9)])
        nonzero = (vals > 0).sum(axis=0)
        assert nonzero.max() <= 2

    def test_disjoint_far_supports(self):
        P = make_partition(8)
        y = np.linspace(0.0, 500.0, 40001)
        for j in range(0, 9):
            for k in range(j + 2, 9):
                assert np.abs(P.rho(j, y) * P.rho(k, y)).max() == 0.0


class TestBlocks:
    def test_constant_field(self):
        one = SpectralField.zeros(BOX, NEUMANN, 4)
        one.coeffs[0, 0] = 1.0  # the constant function 1 on the unit box
        P = make_partition(4)
        low = apply_block(one, -1, P)
        assert np.abs(low.coeffs - one.coeffs).max() == 0.0
        for j in range(0, 5):
            assert np.abs(apply_block(one, j, P).coeffs).max() == 0.0

    def test_reconstruction(self):
        u = neumann_field(16, seed=0)
        J = levels_for(u)
        P = make_partition(J)
        total = SpectralField.zeros(BOX, NEUMANN, 16)
        for j in range(-1, J + 1):
            total = total + apply_block(u, j, P)
        assert np.abs(total.coeffs - u.coeffs).max() < 1e-12

    def test_single_mode_block_is_diagonal(self):
        P = make_partition(6)
        k = (3, 5)
        u = SpectralField.unit_mode(BOX, NEUMANN, k, (8, 8))
        for j in range(-1, 7):
            blk = apply_block(u, j, P)
            w = P.rho(j, np.hypot(k[0], k[1]))
            expect = np.zeros((9, 9))
            expect[k] = w
            assert np.abs(blk.coeffs - expect).max() < 1e-15


class TestMultiplier:
    def test_identity(self):
        u = neumann_field(8, seed=1)
        v = multiplier(u, lambda x1, x2: np.ones(np.broadcast_shapes(x1.shape, x2.shape)))
        assert np.abs(v.coeffs - u.coeffs).max() == 0.0

    def test_laplacian_eigenvalue(self):
        for L in (1.0, 2.0):
            box = BoxDomain.square(L)
            d = SpectralField.unit_mode(box, DIRICHLET, (3, 2), (6, 6))
            lap = laplacian(d)
            assert lap.coeffs[3, 2] == pytest.approx(-(np.pi / L) ** 2 * 13, rel=1e-14)

    def test_resolvent_symbol(self):
        box = BoxDomain.square(2.0)
        n = SpectralField.unit_mode(box, NEUMANN, (4, 1), (6, 6))
        r = resolvent(n)
        expect = 1.0 / (1.0 + np.pi**2 * (16 + 1) / 4.0)
        assert r.coeffs[4, 1] == pytest.approx(expect, rel=1e-14)

    def test_composition(self):
        u = neumann_field(10, seed=2)
        s = lambda x1, x2: np.exp(-(x1**2 + x2**2) / 10.0)
        t = lambda x1, x2: 1.0 + x1 + 2 * x2
        ab = multiplier(multiplier(u, s), t)
        ba = multiplier(u, lambda x1, x2: s(x1, x2) * t(x1, x2))
        assert np.abs(ab.coeffs - ba.coeffs).max() < 1e-14

    def test_resolvent_inverse_identity(self):
        u = neumann_field(12, seed=3)
        v = multiplier(resolvent(u), lambda x1, x2: 1.0 + np.pi**2 * (x1**2 + x2**2))
        assert np.abs(v.coeffs - u.coeffs).max() < 1e-12

    def test_nonfinite_symbol_rejected(self):
        u = neumann_field(4, seed=4)
        with pytest.raises(ValueError), np.errstate(divide="ignore"):
            multiplier(u, lambda x1, x2: 1.0 / (x1 + x2))  # infinite at k = 0


class TestBesovNorm:
    def test_constant_sup_norm(self):
        one = SpectralField.zeros(BOX, NEUMANN, 4)
        one.coeffs[0, 0] = 1.0
        val = besov_norm(one, BesovSpec(0.0, np.inf, np.inf))
        assert val == pytest.approx(1.0, abs=1e-12)

    def test_single_mode_formula(self):
        P = make_partition(8)
        k = (5, 2)
        u = SpectralField.unit_mode(BOX, NEUMANN, k, (8, 8))
        alpha = 0.7
        got = besov_norm(u, BesovSpec(alpha, np.inf, np.inf), P)
        # one nonzero coefficient: max over levels of 2^{j a} rho_j(|k|)
        # times the sup norm, with the sup taken on the same 2N grid the
        # production norm uses
        g = inverse_transform(u, (16, 16)).samples
        linf = np.abs(g).max()
        expect = max(
            2.0 ** (j * alpha) * float(P.rho(j, np.hypot(*k))) * linf
            for j in range(-1, 9)
        )
        assert got == pytest.approx(expect, rel=1e-12)

    def test_l2_besov_tracks_sobolev(self):
        # ratio to the explicit Sobolev sum stays within fixed bounds
        rng = np.random.default_rng(7)
        ratios = []
        for trial in range(50):
            u = neumann_field(12, seed=100 + trial)
            b = besov_norm(u, BesovSpec(1.0, 2, 2))
            s = sobolev_norm(u, 1.0)
            ratios.append(b / s)
        ratios = np.array(ratios)
        assert ratios.max() / ratios.min() < 3.0
        assert 0.2 < ratios.min() and ratios.max() < 5.0

    def test_monotone_in_alpha(self):
        u = neumann_field(10, seed=8)
        P = make_partition(levels_for(u))
        n1 = besov_norm(u, BesovSpec(0.5, 2, 2), P)
        n2 = besov_norm(u, BesovSpec(1.5, 2, 2), P)
        assert n1 <= n2 * (1 + 1e-12)

    def test_invalid_spec(self):
        with pytest.raises(ContractError):
            BesovSpec(0.0, 0.5, 2)


def test_holder_norm_is_sup_flavour():
    u = neumann_field(6, seed=9)
    assert holder_norm(u, -1.0) > 0
