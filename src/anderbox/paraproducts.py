"""Bony decomposition of products, the three-term commutator, and the
renormalised product of a function with an enhanced noise.

All block products are computed on a grid padded to hold the sum of the
two band limits, so the decomposition identity lo + reso + hi = u * v is
exact (to roundoff) at finite truncation.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import fft as _fft

from .calculus import (
    DyadicPartition,
    frequency_radii,
    levels_for,
    make_partition,
    resolvent,
)
from .errors import ContractError
from .geometry import (
    GridField,
    SpectralField,
    forward_transform,
    inverse_transform,
    product_parity,
)


@dataclass
class ProductTriple:
    lo: SpectralField    # u (low) paired against high blocks of v
    reso: SpectralField  # resonant part, |i - j| <= 1
    hi: SpectralField    # u (high) against low blocks of v

    def total(self) -> SpectralField:
        return self.lo + self.reso + self.hi


def _product_grid(u: SpectralField, v: SpectralField):
    Nu, Nv = u.trunc, v.trunc
    return (
        _fft.next_fast_len(2 * (Nu[0] + Nv[0]) + 2, real=True),
        _fft.next_fast_len(2 * (Nu[1] + Nv[1]) + 2, real=True),
    )


def _check_product_args(u: SpectralField, v: SpectralField):
    if u.box != v.box:
        raise ContractError("product factors live on different boxes")


def plain_product(u: SpectralField, v: SpectralField) -> SpectralField:
    """Alias-free pointwise product, band limit N_u + N_v."""
    _check_product_args(u, v)
    M = _product_grid(u, v)
    gu = inverse_transform(u, M)
    gv = inverse_transform(v, M)
    N_out = (u.trunc[0] + v.trunc[0], u.trunc[1] + v.trunc[1])
    return forward_transform(
        GridField(u.box, gu.samples * gv.samples), product_parity(u.parity, v.parity), N_out
    )


def _block_grids(f: SpectralField, P: DyadicPartition, J: int, M):
    """Grid samples of Delta_j f for j = -1..J (list indexed by j + 1)."""
    rad = frequency_radii(f.box, f.coeffs.shape)
    out = []
    for j in range(-1, J + 1):
        w = P.rho(j, rad)
        blk = SpectralField(f.box, f.parity, f.coeffs * w)
        out.append(inverse_transform(blk, M).samples)
    return out


def bony_split(u: SpectralField, v: SpectralField,
               P: DyadicPartition | None = None) -> ProductTriple:
    """Decompose u * v into (lo, reso, hi):

        lo   = sum_{i <= j-1} Delta_i u Delta_j v
        reso = sum_{|i-j| <= 1} Delta_i u Delta_j v
        hi   = sum_{i >= j+1} Delta_i u Delta_j v
    """
    _check_product_args(u, v)
    J = max(levels_for(u), levels_for(v))
    if P is None:
        P = make_partition(J)
    J = max(J, P.J)
    M = _product_grid(u, v)
    bu = _block_grids(u, P, J, M)
    bv = _block_grids(v, P, J, M)

    lo = np.zeros(M)
    reso = np.zeros(M)
    hi = np.zeros(M)
    # Running sums hold sum_{i <= j-2} Delta_i at the time level j is
    # processed; the gap of two keeps the three parts disjoint so that
    # lo + reso + hi = u * v exactly at finite truncation.
    run_u = np.zeros(M)
    run_v = np.zeros(M)
    for j in range(-1, J + 1):
        ju = bu[j + 1]
        jv = bv[j + 1]
        lo += run_u * jv
        hi += ju * run_v
        for i in (j - 1, j, j + 1):
            if -1 <= i <= J:
                reso += bu[i + 1] * jv
        if j - 1 >= -1:
            run_u = run_u + bu[j]
            run_v = run_v + bv[j]

    N_out = (u.trunc[0] + v.trunc[0], u.trunc[1] + v.trunc[1])
    pp = product_parity(u.parity, v.parity)
    box = u.box
    return ProductTriple(
        lo=forward_transform(GridField(box, lo), pp, N_out),
        reso=forward_transform(GridField(box, reso), pp, N_out),
        hi=forward_transform(GridField(box, hi), pp, N_out),
    )


def para_lo(u, v, P=None):
    """u <| v (u carries the low frequencies)."""
    return bony_split(u, v, P).lo


def resonance(u, v, P=None):
    return bony_split(u, v, P).reso


def commutator(f: SpectralField, g: SpectralField, h: SpectralField,
               P: DyadicPartition | None = None) -> SpectralField:
    """Three-term commutator (f <| g) o h - f (g o h)."""
    fg = para_lo(f, g, P)
    goh = resonance(g, h, P)
    return resonance(fg, h, P) - plain_product(f, goh)


def enhanced_product(f: SpectralField, noise, P: DyadicPartition | None = None) -> SpectralField:
    """Renormalised product of a Dirichlet function with an enhanced noise
    (xi, Xi):

        f <| xi + (f - f <| sD xi) o xi + comm(f, sD xi, xi) + f Xi + f |> xi

    where sD is the resolvent (1 - Laplacian)^{-1}.  For a smooth pair with
    Xi = xi o sD xi this collapses to the plain product f * xi.
    """
    xi, Xi = noise.xi, noise.Xi
    if f.box != xi.box:
        raise ContractError("enhanced_product: box mismatch")
    sxi = resolvent(xi)
    split_f_xi = bony_split(f, xi, P)
    f_sharp = f - para_lo(f, sxi, P)
    return (
        split_f_xi.lo
        + resonance(f_sharp, xi, P)
        + commutator(f, sxi, xi, P)
        + plain_product(f, Xi)
        + split_f_xi.hi
    )
