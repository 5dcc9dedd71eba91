import numpy as np
import pytest

from anderbox.calculus import apply_block, levels_for, make_partition
from anderbox.errors import ContractError
from anderbox.geometry import (
    DIRICHLET,
    EVEN,
    NEUMANN,
    ODD,
    BoxDomain,
    SpectralField,
    nu,
)
from anderbox.paraproducts import bony_split, plain_product, resonance

from oracles import bony_ratio_report, direct_paraproduct_sums, holder_norm, sobolev_norm

BOX = BoxDomain.square(1.0)


def dirichlet_field(N, seed, box=BOX):
    rng = np.random.default_rng(seed)
    c = np.pad(rng.standard_normal((N, N)), ((1, 0), (1, 0)))
    return SpectralField(box, DIRICHLET, c)


def neumann_field(N, seed, box=BOX):
    rng = np.random.default_rng(seed)
    return SpectralField(box, NEUMANN, rng.standard_normal((N + 1, N + 1)))


def expand_sine_times_cosine(k, l, box):
    """Analytic expansion of d_k * n_l into sines: the four-fold reflection
    sum with normalization nu_l / sqrt(area); signs fold through the odd
    symmetry of the sine index."""
    N_out = (k[0] + l[0], k[1] + l[1])
    out = SpectralField.zeros(box, DIRICHLET, (max(N_out[0], 1), max(N_out[1], 1)))
    pref = float(nu(l[0]) * nu(l[1])) / np.sqrt(box.area * 4.0)
    for p1 in (-1, 1):
        for p2 in (-1, 1):
            j1 = k[0] + p1 * l[0]
            j2 = k[1] + p2 * l[1]
            sgn = 1.0
            if j1 < 0:
                j1, sgn = -j1, -sgn
            if j2 < 0:
                j2, sgn = -j2, -sgn
            if j1 == 0 or j2 == 0:
                continue
            out.coeffs[j1, j2] += sgn * pref
    return out


class TestBonySplit:
    def test_triple_sums_to_product(self):
        rng = np.random.default_rng(0)
        for trial in range(10):
            f = dirichlet_field(16, seed=trial)
            x = neumann_field(16, seed=100 + trial)
            t = bony_split(f, x)
            direct = plain_product(f, x)
            assert np.abs((t.total() - direct).coeffs).max() < 1e-10

    def test_against_direct_block_sums(self):
        f = dirichlet_field(8, seed=1)
        x = neumann_field(8, seed=2)
        J = max(levels_for(f), levels_for(x))
        P = make_partition(J)
        t = bony_split(f, x, P)
        lo, reso, hi = direct_paraproduct_sums(f, x, P, J)
        assert np.abs((t.lo - lo).coeffs).max() < 1e-12
        assert np.abs((t.reso - reso).coeffs).max() < 1e-12
        assert np.abs((t.hi - hi).coeffs).max() < 1e-12

    def test_parity_rule_table(self):
        f = dirichlet_field(6, seed=3)
        x = neumann_field(6, seed=4)
        t = bony_split(f, x)
        for part in (t.lo, t.reso, t.hi):
            assert part.parity == (ODD, ODD)
        t2 = bony_split(x, neumann_field(6, seed=5))
        assert t2.reso.parity == (EVEN, EVEN)
        t3 = bony_split(f, f)
        assert t3.reso.parity == (EVEN, EVEN)
        mixed = SpectralField.zeros(BOX, (ODD, EVEN), 4)
        mixed.coeffs[1, 0] = 1.0
        t4 = bony_split(mixed, x)
        assert t4.reso.parity == (ODD, EVEN)

    def test_resonance_symmetric(self):
        f = dirichlet_field(12, seed=6)
        x = neumann_field(12, seed=7)
        assert np.abs((resonance(f, x) - resonance(x, f)).coeffs).max() < 1e-12

    def test_lo_hi_duality(self):
        f = dirichlet_field(10, seed=8)
        x = neumann_field(10, seed=9)
        a = bony_split(f, x)
        b = bony_split(x, f)
        assert np.abs((a.lo - b.hi).coeffs).max() == 0.0

    def test_constant_factor(self):
        # with the disjoint split (gap of two), the constant 1 satisfies
        # 1 <| v = v - block(-1) v - block(0) v and 1 o v = those two blocks
        one = SpectralField.zeros(BOX, NEUMANN, 4)
        one.coeffs[0, 0] = 1.0
        v = neumann_field(8, seed=10)
        P = make_partition(levels_for(v))
        t = bony_split(one, v, P)
        d_m1 = apply_block(v, -1, P)
        d_0 = apply_block(v, 0, P)
        assert np.abs((t.lo - (v - d_m1 - d_0)).coeffs).max() < 1e-12
        assert np.abs(t.hi.coeffs).max() == 0.0
        assert np.abs((t.reso - (d_m1 + d_0)).coeffs).max() < 1e-12
        assert np.abs((t.total() - v).coeffs).max() < 1e-12

    def test_single_mode_product_expansion(self):
        # oracle: the analytic reflection expansion of sine * cosine
        for k, l in [((1, 1), (2, 1)), ((3, 2), (1, 0)), ((2, 4), (2, 4))]:
            f = SpectralField.unit_mode(BOX, DIRICHLET, k, (max(k[0], 1), max(k[1], 1)))
            g = SpectralField.unit_mode(BOX, NEUMANN, l, (max(l[0], 1), max(l[1], 1)))
            t = bony_split(f, g)
            expect = expand_sine_times_cosine(k, l, BOX)
            n = (t.total().trunc[0], t.total().trunc[1])
            diff = t.total().pad_to(n).coeffs - expect.pad_to(n).coeffs
            assert np.abs(diff).max() < 1e-12

    def test_box_mismatch(self):
        f = dirichlet_field(4, seed=11)
        x = neumann_field(4, seed=12, box=BoxDomain.square(2.0))
        with pytest.raises(ContractError):
            bony_split(f, x)


class TestBonyRatios:
    def test_zero_fields_guarded(self):
        report = bony_ratio_report(1, N=2, seed=0)
        assert report["skipped"] in (0, 1)

    def test_single_mode_closed_form(self):
        # one mode each: the hi part ratio is computable from block values
        f = SpectralField.unit_mode(BOX, DIRICHLET, (6, 0) if False else (6, 1), (8, 8))
        x = SpectralField.unit_mode(BOX, NEUMANN, (1, 0), (8, 8))
        t = bony_split(f, x)
        gamma, alpha = 0.8, -1.05
        num = sobolev_norm(t.hi, alpha + gamma)
        ratio = num / (sobolev_norm(f, gamma) * max(1e-300, holder_norm(x, alpha)))
        assert np.isfinite(ratio) and ratio >= 0

    def test_ratios_finite_and_stable_under_doubling(self):
        r16 = bony_ratio_report(6, N=16, seed=1)
        r32 = bony_ratio_report(6, N=32, seed=1)
        for key in ("lo", "reso", "hi"):
            assert np.isfinite(r16[key]) and np.isfinite(r32[key])
            assert abs(r32[key] - r16[key]) < 0.5 * max(r16[key], r32[key])

    def test_requires_samples(self):
        with pytest.raises(ContractError):
            bony_ratio_report(0)
