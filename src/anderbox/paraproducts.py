"""Bony decomposition of products into low, resonant and high parts.

All block products are computed on a grid padded to hold the sum of the
two band limits, so the decomposition identity lo + reso + hi = u * v is
exact (to roundoff) at finite truncation.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import fft as _fft

from .calculus import DyadicPartition, apply_block, levels_for, make_partition
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
    return [inverse_transform(apply_block(f, j, P), M).samples for j in range(-1, J + 1)]


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


def resonance(u, v, P=None):
    return bony_split(u, v, P).reso

