"""Box geometry and the trigonometric sine/cosine bases.

A field on an axis-aligned box is stored by its coefficients against the
orthonormal basis built from per-axis factors

    odd  axis:  sqrt(2/s) * sin(pi * k * (x - y) / s),    k >= 1,
    even axis:  nu_k * sqrt(2/s) * cos(pi * k * (x - y) / s),  k >= 0,

with nu_k = 2**(-1/2) for k = 0 and 1 otherwise.  A fully odd field
vanishes on the boundary (Dirichlet), a fully even one has vanishing
normal derivative (Neumann); mixed parities are allowed per axis.

Grid sampling uses the midpoint rule x_m = y + (m + 1/2) s / M, on which
the discrete cosine/sine transforms of types II/III realise exact
analysis/synthesis for band limits N <= M - 1.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np
from scipy import fft as _fft

from .errors import AliasingError, ContractError


class Parity(Enum):
    ODD = "odd"
    EVEN = "even"

    @classmethod
    def of(cls, value) -> "Parity":
        if isinstance(value, Parity):
            return value
        return cls(str(value).lower())


ODD = Parity.ODD
EVEN = Parity.EVEN

DIRICHLET = (ODD, ODD)
NEUMANN = (EVEN, EVEN)


def parity_pair(p) -> tuple[Parity, Parity]:
    if isinstance(p, (Parity, str)):
        q = Parity.of(p)
        return (q, q)
    a, b = p
    return (Parity.of(a), Parity.of(b))


def product_parity(pu, pv) -> tuple[Parity, Parity]:
    """Parity of a pointwise product: even*even = even, odd*even = odd,
    odd*odd = even, independently per axis."""
    pu, pv = parity_pair(pu), parity_pair(pv)
    out = []
    for a, b in zip(pu, pv):
        out.append(ODD if (a is ODD) != (b is ODD) else EVEN)
    return tuple(out)


@dataclass(frozen=True)
class BoxDomain:
    """Axis-aligned rectangle origin + [0, sides[0]] x [0, sides[1]]."""

    origin: tuple[float, float]
    sides: tuple[float, float]

    def __post_init__(self):
        object.__setattr__(self, "origin", (float(self.origin[0]), float(self.origin[1])))
        object.__setattr__(self, "sides", (float(self.sides[0]), float(self.sides[1])))
        if not all(s > 0 for s in self.sides):
            raise ContractError(f"box sides must be positive, got {self.sides}")

    @classmethod
    def square(cls, L: float, origin=(0.0, 0.0)) -> "BoxDomain":
        return cls(tuple(origin), (float(L), float(L)))

    @property
    def area(self) -> float:
        return self.sides[0] * self.sides[1]

    def contains_box(self, other: "BoxDomain", tol: float = 1e-12) -> bool:
        for i in range(2):
            if other.origin[i] < self.origin[i] - tol:
                return False
            if other.origin[i] + other.sides[i] > self.origin[i] + self.sides[i] + tol:
                return False
        return True


def nu(k) -> np.ndarray:
    """Normalisation factor 2**(-#zero indices / 2), applied per axis."""
    k = np.asarray(k)
    return np.where(k == 0, 2.0 ** -0.5, 1.0)


def midpoint_nodes(box: BoxDomain, M: tuple[int, int]):
    """Midpoint quadrature nodes per axis (returned as 1d arrays)."""
    xs = []
    for i in range(2):
        m = np.arange(M[i]) + 0.5
        xs.append(box.origin[i] + m * box.sides[i] / M[i])
    return xs


@dataclass
class SpectralField:
    """Truncated coefficient array against the per-axis parity basis.

    ``coeffs[k1, k2]`` pairs with the orthonormal basis function of index
    (k1, k2); odd axes keep the k = 0 slot allocated but identically zero
    so both parities share one array shape (N1 + 1, N2 + 1).
    """

    box: BoxDomain
    parity: tuple[Parity, Parity]
    coeffs: np.ndarray

    def __post_init__(self):
        self.parity = parity_pair(self.parity)
        self.coeffs = np.asarray(self.coeffs, dtype=float)
        if self.coeffs.ndim != 2:
            raise ContractError("coeffs must be a 2d array")
        for axis, p in enumerate(self.parity):
            if p is ODD:
                edge = self.coeffs.take(0, axis=axis)
                if np.any(edge != 0.0):
                    raise ContractError(
                        f"odd axis {axis} must have zero k=0 coefficients"
                    )

    # -- basic structure -------------------------------------------------
    @property
    def trunc(self) -> tuple[int, int]:
        return (self.coeffs.shape[0] - 1, self.coeffs.shape[1] - 1)

    @classmethod
    def zeros(cls, box: BoxDomain, parity, N) -> "SpectralField":
        N = _pair(N)
        return cls(box, parity_pair(parity), np.zeros((N[0] + 1, N[1] + 1)))

    @classmethod
    def unit_mode(cls, box: BoxDomain, parity, k, N=None) -> "SpectralField":
        parity = parity_pair(parity)
        N = _pair(N) if N is not None else (max(k[0], 1), max(k[1], 1))
        f = cls.zeros(box, parity, N)
        for axis in range(2):
            if parity[axis] is ODD and k[axis] == 0:
                raise ContractError(f"k[{axis}] = 0 is invalid on an odd axis")
        f.coeffs[k[0], k[1]] = 1.0
        return f

    def copy(self) -> "SpectralField":
        return SpectralField(self.box, self.parity, self.coeffs.copy())

    def pad_to(self, N) -> "SpectralField":
        N = _pair(N)
        if N[0] < self.trunc[0] or N[1] < self.trunc[1]:
            raise ContractError("pad_to cannot shrink a field")
        out = np.zeros((N[0] + 1, N[1] + 1))
        out[: self.coeffs.shape[0], : self.coeffs.shape[1]] = self.coeffs
        return SpectralField(self.box, self.parity, out)

    # -- arithmetic -------------------------------------------------------
    def _check_compatible(self, other: "SpectralField"):
        if self.box != other.box:
            raise ContractError("fields live on different boxes")
        if self.parity != other.parity:
            raise ContractError("fields have different parities")

    def __add__(self, other: "SpectralField") -> "SpectralField":
        self._check_compatible(other)
        n = (max(self.trunc[0], other.trunc[0]), max(self.trunc[1], other.trunc[1]))
        return SpectralField(
            self.box, self.parity, self.pad_to(n).coeffs + other.pad_to(n).coeffs
        )

    def __sub__(self, other: "SpectralField") -> "SpectralField":
        return self + (other * -1.0)

    def __mul__(self, scalar: float) -> "SpectralField":
        return SpectralField(self.box, self.parity, self.coeffs * float(scalar))

    __rmul__ = __mul__

    def l2_norm(self) -> float:
        return float(np.sqrt(np.sum(self.coeffs**2)))

    # -- evaluation -------------------------------------------------------
    def eval(self, points) -> np.ndarray:
        """Direct (slow) evaluation at arbitrary points, shape (..., 2)."""
        pts = np.asarray(points, dtype=float)
        flat = pts.reshape(-1, 2)
        N1, N2 = self.trunc
        B1 = _basis_matrix_1d(flat[:, 0], self.parity[0], self.box.origin[0], self.box.sides[0], N1)
        B2 = _basis_matrix_1d(flat[:, 1], self.parity[1], self.box.origin[1], self.box.sides[1], N2)
        vals = np.einsum("pk,kl,pl->p", B1, self.coeffs, B2)
        return vals.reshape(pts.shape[:-1])


@dataclass
class GridField:
    """Samples of a field on the midpoint quadrature grid."""

    box: BoxDomain
    samples: np.ndarray

    def __post_init__(self):
        self.samples = np.asarray(self.samples, dtype=float)
        if self.samples.ndim != 2:
            raise ContractError("samples must be a 2d array")

    @property
    def shape(self) -> tuple[int, int]:
        return self.samples.shape

    def quad_weight(self) -> float:
        M1, M2 = self.shape
        return self.box.area / (M1 * M2)

    def integral(self) -> float:
        return float(np.sum(self.samples)) * self.quad_weight()


def _pair(n):
    if np.isscalar(n):
        return (int(n), int(n))
    return (int(n[0]), int(n[1]))


def _basis_matrix_1d(x, parity: Parity, origin: float, s: float, N: int) -> np.ndarray:
    """Matrix B[p, k] of 1d basis values at points x, k = 0..N."""
    t = (np.asarray(x, dtype=float) - origin)[:, None]
    k = np.arange(N + 1)[None, :]
    if parity is ODD:
        B = np.sqrt(2.0 / s) * np.sin(np.pi * k * t / s)
        B[:, 0] = 0.0
    else:
        B = nu(k) * np.sqrt(2.0 / s) * np.cos(np.pi * k * t / s)
    return B


# -- fast transforms -----------------------------------------------------

def _analysis_axis(vals: np.ndarray, parity: Parity, s: float, N: int, axis: int) -> np.ndarray:
    """One-axis analysis: grid samples -> coefficients 0..N (exact for
    band limit <= M - 1)."""
    M = vals.shape[axis]
    if parity is EVEN:
        F = _fft.dct(vals, type=2, axis=axis)
        F = F.take(np.arange(N + 1), axis=axis)
        shape = [1, 1]
        shape[axis] = N + 1
        w = (nu(np.arange(N + 1)) * np.sqrt(s / 2.0) / M).reshape(shape)
        return F * w
    F = _fft.dst(vals, type=2, axis=axis)
    out_shape = list(vals.shape)
    out_shape[axis] = N + 1
    out = np.zeros(out_shape)
    idx = [slice(None), slice(None)]
    idx[axis] = slice(1, N + 1)
    src = [slice(None), slice(None)]
    src[axis] = slice(0, N)
    out[tuple(idx)] = F[tuple(src)] * (np.sqrt(s / 2.0) / M)
    return out


def _synthesis_axis(coefs: np.ndarray, parity: Parity, s: float, M: int, axis: int) -> np.ndarray:
    """One-axis synthesis: coefficients 0..N -> M midpoint samples."""
    N = coefs.shape[axis] - 1
    if M < N + 1:
        raise AliasingError(f"grid of {M} points cannot hold band limit {N}")
    shape = list(coefs.shape)
    shape[axis] = M
    b = np.zeros(shape)
    if parity is EVEN:
        w = nu(np.arange(N + 1)) * np.sqrt(2.0 / s)
        w = np.concatenate([w[:1], w[1:] / 2.0])
        wshape = [1, 1]
        wshape[axis] = N + 1
        dst_idx = [slice(None), slice(None)]
        dst_idx[axis] = slice(0, N + 1)
        b[tuple(dst_idx)] = coefs * w.reshape(wshape)
        return _fft.dct(b, type=3, axis=axis)
    # odd: entries k = 1..N map to dst-III slots 0..N-1
    w = np.sqrt(2.0 / s) / 2.0
    dst_idx = [slice(None), slice(None)]
    dst_idx[axis] = slice(0, N)
    src_idx = [slice(None), slice(None)]
    src_idx[axis] = slice(1, N + 1)
    b[tuple(dst_idx)] = coefs[tuple(src_idx)] * w
    return _fft.dst(b, type=3, axis=axis)


def forward_transform(g: GridField, parity, N) -> SpectralField:
    """Grid samples -> coefficients; exact for data band-limited at N when
    M >= N + 1 per axis."""
    parity = parity_pair(parity)
    N = _pair(N)
    M = g.shape
    for i in range(2):
        if M[i] < N[i] + 1:
            raise AliasingError(
                f"axis {i}: {M[i]} grid points undersample band limit {N[i]}"
            )
    c = _analysis_axis(g.samples, parity[0], g.box.sides[0], N[0], axis=0)
    c = _analysis_axis(c, parity[1], g.box.sides[1], N[1], axis=1)
    return SpectralField(g.box, parity, c)


def inverse_transform(u: SpectralField, M=None) -> GridField:
    """Coefficients -> midpoint grid samples (default M = 2N per axis)."""
    N = u.trunc
    M = _pair(M) if M is not None else (2 * max(N[0], 1), 2 * max(N[1], 1))
    v = _synthesis_axis(u.coeffs, u.parity[0], u.box.sides[0], M[0], axis=0)
    v = _synthesis_axis(v, u.parity[1], u.box.sides[1], M[1], axis=1)
    return GridField(u.box, v)
