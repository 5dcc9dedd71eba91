"""Dyadic frequency analysis: partition of unity, Littlewood-Paley blocks,
Fourier multipliers, Laplacian/resolvent.

Frequencies on a box with sides (s1, s2) are the per-axis rescaled indices
(k1/s1, k2/s2); every multiplier below acts coefficient-wise on those.
"""

from __future__ import annotations

from dataclasses import dataclass
import math

import numpy as np

from .errors import ContractError
from .geometry import BoxDomain, SpectralField

# Radii of the base profile: rho_{-1} = 1 inside INNER, 0 outside OUTER.
_INNER = 0.75
_OUTER = 4.0 / 3.0


def _bump_ramp(t: np.ndarray) -> np.ndarray:
    """Smooth ramp 0 -> 1 on [0, 1] built from exp(-1/t) glue."""
    t = np.clip(np.asarray(t, dtype=float), 0.0, 1.0)
    with np.errstate(divide="ignore", over="ignore"):
        e1 = np.where(t > 0, np.exp(-1.0 / np.maximum(t, 1e-300)), 0.0)
        e2 = np.where(t < 1, np.exp(-1.0 / np.maximum(1.0 - t, 1e-300)), 0.0)
    return e1 / (e1 + e2)


@dataclass(frozen=True)
class DyadicPartition:
    """Profiles rho_j, j >= -1, with sum_j rho_j = 1, radial, and
    supp rho_j disjoint from supp rho_k when |j - k| >= 2."""

    J: int

    def __post_init__(self):
        if self.J < 1:
            raise ContractError("partition needs J >= 1")

    @staticmethod
    def rho_m1(rad: np.ndarray) -> np.ndarray:
        rad = np.abs(np.asarray(rad, dtype=float))
        return 1.0 - _bump_ramp((rad - _INNER) / (_OUTER - _INNER))

    def rho(self, j: int, rad) -> np.ndarray:
        """Radial profile value at |y| = rad."""
        rad = np.abs(np.asarray(rad, dtype=float))
        if j < -1:
            raise ContractError("block level must be >= -1")
        if j == -1:
            return self.rho_m1(rad)
        scale = 2.0 ** (-j)
        return self.rho_m1(scale * rad / 2.0) - self.rho_m1(scale * rad)

    def levels(self) -> range:
        return range(-1, self.J + 1)


def make_partition(J: int) -> DyadicPartition:
    return DyadicPartition(int(J))


def levels_for(u: SpectralField, margin: int = 1) -> int:
    """Smallest J so that levels -1..J cover the truncated frequency set."""
    N1, N2 = u.trunc
    s1, s2 = u.box.sides
    rmax = math.hypot(N1 / s1, N2 / s2)
    J = max(1, math.ceil(math.log2(max(rmax, 1e-12) / _INNER)))
    return J + margin


def frequency_radii(box: BoxDomain, shape: tuple[int, int]) -> np.ndarray:
    k1 = np.arange(shape[0])[:, None] / box.sides[0]
    k2 = np.arange(shape[1])[None, :] / box.sides[1]
    return np.sqrt(k1**2 + k2**2)


def apply_block(u: SpectralField, j: int, P: DyadicPartition) -> SpectralField:
    """Littlewood-Paley block: multiply coefficient k by rho_j(k_i / s_i)."""
    rad = frequency_radii(u.box, u.coeffs.shape)
    return SpectralField(u.box, u.parity, u.coeffs * P.rho(j, rad))


def multiplier(u: SpectralField, sigma) -> SpectralField:
    """Fourier multiplier: coeff_k -> sigma(k1/s1, k2/s2) * coeff_k.

    ``sigma`` takes two broadcastable frequency arrays.
    """
    k1 = np.arange(u.coeffs.shape[0])[:, None] / u.box.sides[0]
    k2 = np.arange(u.coeffs.shape[1])[None, :] / u.box.sides[1]
    w = np.asarray(sigma(k1, k2), dtype=float)
    w = np.broadcast_to(w, u.coeffs.shape)
    if not np.all(np.isfinite(w)):
        raise ValueError("multiplier symbol produced non-finite values")
    return SpectralField(u.box, u.parity, u.coeffs * w)


def laplacian(u: SpectralField) -> SpectralField:
    return multiplier(u, lambda x1, x2: -np.pi**2 * (x1**2 + x2**2))


def resolvent(u: SpectralField, a: float = 1.0) -> SpectralField:
    """(a - Laplacian)^{-1} u via the symbol (a + pi^2 |x|^2)^{-1}."""
    return multiplier(u, lambda x1, x2: 1.0 / (a + np.pi**2 * (x1**2 + x2**2)))
