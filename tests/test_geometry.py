import numpy as np
import pytest

from anderbox.errors import AliasingError, ContractError
from anderbox.geometry import (
    DIRICHLET,
    EVEN,
    NEUMANN,
    ODD,
    BoxDomain,
    GridField,
    SpectralField,
    forward_transform,
    inverse_transform,
    midpoint_nodes,
)

from oracles import basis_value, inner_product, quad_integral


def random_field(box, parity, N, rng):
    c = rng.standard_normal((N + 1, N + 1))
    if parity[0] is ODD:
        c[0, :] = 0.0
    if parity[1] is ODD:
        c[:, 0] = 0.0
    return SpectralField(box, parity, c)


class TestBoxDomain:
    def test_invalid_sides(self):
        with pytest.raises(ContractError):
            BoxDomain((0, 0), (1.0, -2.0))

    def test_containment(self):
        big = BoxDomain.square(4.0)
        assert big.contains_box(BoxDomain((1.0, 1.0), (2.0, 2.0)))
        assert not big.contains_box(BoxDomain((3.0, 3.0), (2.0, 2.0)))


class TestBasisValue:
    def test_constant_mode_is_one_over_L(self):
        # lowest cosine mode is the constant 1/L on an L x L box
        for L in (1.0, 2.5, 4.0):
            box = BoxDomain.square(L)
            for x in [(0.0, 0.0), (L / 3, 0.7 * L), (L, L)]:
                assert basis_value((0, 0), NEUMANN, box, x) == pytest.approx(1.0 / L, abs=1e-14)

    def test_first_sine_mode_at_center(self):
        L = 2.5
        box = BoxDomain.square(L)
        assert basis_value((1, 1), DIRICHLET, box, (L / 2, L / 2)) == pytest.approx(2.0 / L)

    def test_half_zero_index_mode(self):
        box = BoxDomain.square(1.0)
        for t in (0.1, 0.5, 0.93):
            v = basis_value((2, 0), NEUMANN, box, (0.5, t))
            assert v == pytest.approx(-np.sqrt(2.0), abs=1e-12)

    def test_zero_index_invalid_on_odd_axis(self):
        box = BoxDomain.square(1.0)
        with pytest.raises(ContractError):
            basis_value((0, 1), DIRICHLET, box, (0.5, 0.5))

    def test_scaling_covariance(self):
        # d_{k,L}(beta x) = beta^{-d/2} d_{k,L/beta}(x)
        rng = np.random.default_rng(5)
        for beta in (2.0, 0.5):
            L = 3.0
            k = (int(rng.integers(1, 6)), int(rng.integers(1, 6)))
            x = rng.uniform(0, L / max(beta, 1.0), size=2)
            big = basis_value(k, DIRICHLET, BoxDomain.square(L), tuple(beta * x))
            small = basis_value(k, DIRICHLET, BoxDomain.square(L / beta), tuple(x))
            assert big == pytest.approx(small / beta, rel=1e-12)


class TestTransforms:
    def test_unit_coefficient_round_trip(self):
        box = BoxDomain.square(1.0)
        for parity in (DIRICHLET, NEUMANN, (ODD, EVEN)):
            k = (3, 2) if parity[1] is ODD or parity[0] is ODD else (0, 2)
            u = SpectralField.unit_mode(box, parity, k, (8, 8))
            back = forward_transform(inverse_transform(u, (20, 20)), parity, (8, 8))
            expect = np.zeros((9, 9))
            expect[k] = 1.0
            assert np.abs(back.coeffs - expect).max() < 1e-13

    def test_round_trip_random(self):
        box = BoxDomain((0.3, -1.0), (1.7, 2.4))
        rng = np.random.default_rng(0)
        for parity in (DIRICHLET, NEUMANN):
            u = random_field(box, parity, 16, rng)
            back = forward_transform(inverse_transform(u, (33, 40)), parity, (16, 16))
            assert np.abs(back.coeffs - u.coeffs).max() < 1e-12

    def test_grid_round_trip_band_limited(self):
        box = BoxDomain.square(2.0)
        rng = np.random.default_rng(1)
        u = random_field(box, NEUMANN, 10, rng)
        g = inverse_transform(u, (24, 24))
        g2 = inverse_transform(forward_transform(g, NEUMANN, (10, 10)), (24, 24))
        assert np.abs(g.samples - g2.samples).max() < 1e-12

    def test_parseval_against_refined_quadrature(self):
        # frozen oracle: composite quadrature of u^2 on a 4x refined grid
        box = BoxDomain.square(1.3)
        rng = np.random.default_rng(2)
        u = random_field(box, NEUMANN, 8, rng)
        M = (64, 64)  # 4x the default 2N grid
        g = inverse_transform(u, M)
        oracle = quad_integral(g.samples**2, box, M)
        assert abs(np.sum(u.coeffs**2) - oracle) < 1e-10

    def test_undersampled_grid_raises(self):
        box = BoxDomain.square(1.0)
        g = GridField(box, np.zeros((8, 8)))
        with pytest.raises(AliasingError):
            forward_transform(g, NEUMANN, (8, 8))

    def test_odd_axis_zero_enforced(self):
        box = BoxDomain.square(1.0)
        c = np.ones((5, 5))
        with pytest.raises(ContractError):
            SpectralField(box, DIRICHLET, c)


class TestInnerProduct:
    def test_orthonormality_gram(self):
        box = BoxDomain.square(2.0)
        N = 5
        for parity in (DIRICHLET, NEUMANN):
            fields = []
            for k1 in range(N + 1):
                for k2 in range(N + 1):
                    if parity[0] is ODD and k1 == 0:
                        continue
                    if parity[1] is ODD and k2 == 0:
                        continue
                    fields.append(SpectralField.unit_mode(box, parity, (k1, k2), (N, N)))
            M = (4 * N, 4 * N)
            grids = [inverse_transform(f, M).samples for f in fields]
            w = box.area / (M[0] * M[1])
            G = np.einsum("aij,bij->ab", np.array(grids), np.array(grids)) * w
            assert np.abs(G - np.eye(len(fields))).max() < 1e-10

    @staticmethod
    def _gauss_pairing(u, v, n_nodes=64):
        # oracle: tensor Gauss-Legendre quadrature on the refined node set
        box = u.box
        t1, w1 = np.polynomial.legendre.leggauss(n_nodes)
        t2, w2 = np.polynomial.legendre.leggauss(n_nodes)
        x = box.origin[0] + (t1 + 1) * box.sides[0] / 2
        y = box.origin[1] + (t2 + 1) * box.sides[1] / 2
        pts = np.stack(np.meshgrid(x, y, indexing="ij"), axis=-1)
        vals = u.eval(pts) * v.eval(pts)
        w = np.outer(w1, w2) * (box.sides[0] * box.sides[1] / 4)
        return float(np.sum(vals * w))

    def test_matches_quadrature_across_parities(self):
        box = BoxDomain.square(1.0)
        u = SpectralField.unit_mode(box, NEUMANN, (1, 2), (4, 4))
        v = SpectralField.unit_mode(box, DIRICHLET, (1, 2), (4, 4))
        oracle = self._gauss_pairing(u, v)
        assert abs(inner_product(u, v) - oracle) < 1e-10
        # a mixed pairing with a nonzero value and a closed form
        u2 = SpectralField.unit_mode(box, NEUMANN, (1, 0), (4, 4))
        v2 = SpectralField.unit_mode(box, DIRICHLET, (2, 1), (4, 4))
        oracle2 = self._gauss_pairing(u2, v2)
        assert abs(oracle2 - 16 * np.sqrt(2) / (3 * np.pi**2)) < 1e-12
        assert abs(inner_product(u2, v2) - oracle2) < 1e-10

    def test_positivity(self):
        box = BoxDomain.square(1.0)
        rng = np.random.default_rng(3)
        u = random_field(box, DIRICHLET, 6, rng)
        assert inner_product(u, u) > 0
        z = SpectralField.zeros(box, DIRICHLET, 6)
        assert inner_product(z, z) == 0.0

    def test_box_mismatch(self):
        u = SpectralField.zeros(BoxDomain.square(1.0), NEUMANN, 4)
        v = SpectralField.zeros(BoxDomain.square(2.0), NEUMANN, 4)
        with pytest.raises(ContractError):
            inner_product(u, v)

    def test_kronecker_delta_pairing(self):
        box = BoxDomain.square(1.5)
        u = SpectralField.unit_mode(box, DIRICHLET, (2, 3), (5, 5))
        v = SpectralField.unit_mode(box, DIRICHLET, (2, 3), (5, 5))
        w = SpectralField.unit_mode(box, DIRICHLET, (3, 2), (5, 5))
        assert inner_product(u, v) == 1.0
        assert inner_product(u, w) == 0.0


def test_eval_matches_grid_synthesis():
    box = BoxDomain((0.5, 0.25), (2.0, 1.0))
    rng = np.random.default_rng(4)
    u = random_field(box, NEUMANN, 7, rng)
    M = (18, 14)
    g = inverse_transform(u, M)
    xs = midpoint_nodes(box, M)
    pts = np.stack(np.meshgrid(xs[0], xs[1], indexing="ij"), axis=-1)
    assert np.abs(u.eval(pts) - g.samples).max() < 1e-12
