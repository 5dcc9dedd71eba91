"""White noise on boxes: sampling, Fourier-cutoff mollification, the
renormalization constant and expectation field, enhanced noise, and
restriction to sub-boxes.

Sampling is counter-based: the coefficient Z_k is a deterministic function
of (seed, k1, k2) through a splitmix64-style hash, so refining the
truncation preserves earlier coefficients and the same parent draw feeds
every sub-box pathwise.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
import json

import numpy as np

from .calculus import resolvent
from .errors import ContractError
from .geometry import NEUMANN, BoxDomain, SpectralField, _pair, nu
from .paraproducts import resonance

_U64 = np.uint64
_MASK = _U64(0xFFFFFFFFFFFFFFFF)


def _splitmix(x: np.ndarray) -> np.ndarray:
    with np.errstate(over="ignore"):
        x = (x + _U64(0x9E3779B97F4A7C15)) & _MASK
        x = ((x ^ (x >> _U64(30))) * _U64(0xBF58476D1CE4E5B9)) & _MASK
        x = ((x ^ (x >> _U64(27))) * _U64(0x94D049BB133111EB)) & _MASK
        return x ^ (x >> _U64(31))


def _stream_hash(seed: int, k1: np.ndarray, k2: np.ndarray) -> np.ndarray:
    s = _splitmix(np.asarray(np.uint64(seed & 0xFFFFFFFFFFFFFFFF)))
    h = _splitmix(s ^ _splitmix(k1.astype(_U64)))
    return _splitmix(h ^ _splitmix((k2.astype(_U64) << _U64(1)) | _U64(1)))


def _to_unit(h: np.ndarray) -> np.ndarray:
    # strictly inside (0, 1)
    return ((h >> _U64(11)).astype(np.float64) + 0.5) * 2.0**-53


def gaussian_table(seed: int, shape: tuple[int, int]) -> np.ndarray:
    """Standard normals indexed by (k1, k2), deterministic in the seed."""
    k1 = np.arange(shape[0], dtype=np.int64)[:, None]
    k2 = np.arange(shape[1], dtype=np.int64)[None, :]
    k1, k2 = np.broadcast_arrays(k1, k2)
    h = _stream_hash(seed, k1, k2)
    u1 = _to_unit(h)
    u2 = _to_unit(_splitmix(h ^ _U64(0xD1B54A32D192ED03)))
    return np.sqrt(-2.0 * np.log(u1)) * np.cos(2.0 * np.pi * u2)


@dataclass(frozen=True)
class CutoffProfile:
    """Even cutoff equal to 1 near 0 and compactly supported.

    smooth:    radial, 1 on |x| <= a, 0 on |x| >= b, glued smoothly.
    indicator: the indicator of the open square (-a, a)^2.
    """

    kind: str = "smooth"
    a: float = 0.5
    b: float = 1.0

    def __post_init__(self):
        if self.kind not in ("smooth", "indicator"):
            raise ContractError(f"unknown cutoff kind {self.kind!r}")
        if not (0 < self.a <= self.b):
            raise ContractError("need 0 < a <= b")

    def __call__(self, x1, x2) -> np.ndarray:
        x1 = np.asarray(x1, dtype=float)
        x2 = np.asarray(x2, dtype=float)
        if self.kind == "indicator":
            out = ((np.abs(x1) < self.a) & (np.abs(x2) < self.a)).astype(float)
            return out
        from .calculus import _bump_ramp

        r = np.sqrt(x1**2 + x2**2)
        return 1.0 - _bump_ramp((r - self.a) / (self.b - self.a))

    @property
    def outer_radius(self) -> float:
        return self.a * np.sqrt(2.0) if self.kind == "indicator" else self.b


SMOOTH = CutoffProfile("smooth", 0.5, 1.0)
INDICATOR = CutoffProfile("indicator", 1.0, 1.0)


@dataclass
class NoiseDraw:
    """White-noise pairings Z_k = <W, n_k> on a box, reproducible from
    (seed, N, box)."""

    box: BoxDomain
    trunc: tuple[int, int]
    seed: int
    coeffs: np.ndarray

    def field(self) -> SpectralField:
        return SpectralField(self.box, NEUMANN, self.coeffs.copy())


def sample(box: BoxDomain, N, seed: int) -> NoiseDraw:
    N = _pair(N)
    if N[0] < 1 or N[1] < 1:
        raise ContractError("noise truncation must be >= 1")
    z = gaussian_table(int(seed), (N[0] + 1, N[1] + 1))
    return NoiseDraw(box, N, int(seed), z)


def _cutoff_weights(box: BoxDomain, shape, eps: float, tau: CutoffProfile) -> np.ndarray:
    k1 = np.arange(shape[0])[:, None] * (eps / box.sides[0])
    k2 = np.arange(shape[1])[None, :] * (eps / box.sides[1])
    return tau(k1, k2)


def mollify(draw: NoiseDraw, eps: float, tau: CutoffProfile = SMOOTH) -> SpectralField:
    """xi_eps = sum_k tau(eps k / L) Z_k n_k (per-axis eps k_i / s_i)."""
    if eps <= 0:
        raise ContractError("mollification scale must be positive")
    w = _cutoff_weights(draw.box, draw.coeffs.shape, eps, tau)
    return SpectralField(draw.box, NEUMANN, draw.coeffs * w)


def mollified_band(box: BoxDomain, eps: float, tau: CutoffProfile) -> tuple[int, int]:
    """Smallest truncation containing every mode the cutoff keeps."""
    r = tau.outer_radius if tau.kind == "smooth" else tau.a
    return (int(np.ceil(r * box.sides[0] / eps)), int(np.ceil(r * box.sides[1] / eps)))


def renorm_constant(eps: float, L: float, tau: CutoffProfile = SMOOTH) -> float:
    """c_{eps,L} = (1 / 4 L^2) sum_{k in Z^2} tau(eps k / L)^2
    / (1 + pi^2 |k|^2 / L^2), summed over the cutoff's support."""
    if eps <= 0:
        raise ContractError("mollification scale must be positive")
    kmax = int(np.ceil(tau.outer_radius * L / eps)) + 1
    total = 0.0
    k2 = np.arange(-kmax, kmax + 1, dtype=float)
    chunk = max(1, int(4e6 / (2 * kmax + 1)))
    for start in range(-kmax, kmax + 1, chunk):
        k1 = np.arange(start, min(start + chunk, kmax + 1), dtype=float)[:, None]
        t = tau(eps * k1 / L, eps * k2[None, :] / L)
        total += float(np.sum(t**2 / (1.0 + np.pi**2 * (k1**2 + k2[None, :] ** 2) / L**2)))
    return total / (4.0 * L**2)


def profile_constant(tau: CutoffProfile, n_rad: int = 20000) -> float:
    """The tau-dependent constant in the expansion
    c_{eps,L} = (1/2pi) log(1/eps) + c_tau + C_L + o(1).

    Computed from its integral representation; used for reporting only.
    """
    # outer annulus term: integral of tau^2 / (pi^2 |x|^2) over a_inner <= |x| <= b
    if tau.kind == "smooth":
        a_in = min(tau.a, 1.0)
        r = np.linspace(a_in, tau.b, n_rad)
        vals = tau(r, np.zeros_like(r)) ** 2 / (np.pi**2 * r**2) * (2 * np.pi * r)
        first = float(np.trapezoid(vals, r))
    else:
        a_in = min(tau.a, 1.0)
        b = tau.a * np.sqrt(2.0)
        r = np.linspace(a_in, b, n_rad)
        # angular fraction of the circle of radius r inside the square (-a,a)^2
        frac = np.ones_like(r)
        m = r > tau.a
        frac[m] = 1.0 - 4.0 * np.arccos(np.minimum(tau.a / r[m], 1.0)) / (2 * np.pi)
        vals = frac * 2.0 / (np.pi * r)
        first = float(np.trapezoid(vals, r))
    second = (2.0 / np.pi) * np.log(1.0 / a_in) if a_in < 1.0 else 0.0
    s = np.linspace(1e-9, 1.0, n_rad)
    third = float(np.trapezoid(2 * np.pi * s / (1 + np.pi**2 * s**2), s))
    t = np.linspace(1.0, 400.0, 400 * 200)
    fourth = float(np.trapezoid(2.0 / (np.pi * t * (1 + np.pi**2 * t**2)), t))
    # the assembled sum tracks 4 c_{eps,L}, hence the 1/4
    return 0.25 * (first - second + third - fourth)


def expectation_field(eps: float, box: BoxDomain, tau: CutoffProfile, N) -> SpectralField:
    """The deterministic field x -> E[xi_eps resonance-with-resolvent](x),
    assembled exactly in Neumann coefficients.

    Sources run over modes k <= N; the output holds modes up to 2N.  Its
    value at the box corner x = origin equals 4 c_{eps,L} on squares.
    """
    N = _pair(N)
    s1, s2 = box.sides
    k1 = np.arange(N[0] + 1, dtype=float)[:, None]
    k2 = np.arange(N[1] + 1, dtype=float)[None, :]
    t = tau(eps * k1 / s1, eps * k2 / s2)
    w = t**2 / (1.0 + np.pi**2 * ((k1 / s1) ** 2 + (k2 / s2) ** 2))

    # per-axis split n_k^2 = A_k + B_k n_{2k}:  A = nu^2 / s,
    # B = nu_k^2 / (nu_{2k} sqrt(2 s))
    ka = np.arange(N[0] + 1)
    kb = np.arange(N[1] + 1)
    A1 = nu(ka) ** 2 / s1
    B1 = nu(ka) ** 2 / (nu(2 * ka) * np.sqrt(2.0 * s1))
    A2 = nu(kb) ** 2 / s2
    B2 = nu(kb) ** 2 / (nu(2 * kb) * np.sqrt(2.0 * s2))

    out = np.zeros((2 * N[0] + 1, 2 * N[1] + 1))
    # constant part
    out[0, 0] += float(np.sum(w * np.outer(A1, A2))) * np.sqrt(s1 * s2)
    # axis-1 doubled modes against the axis-2 constant
    np.add.at(out[:, 0], 2 * ka, np.sum(w * np.outer(B1, A2), axis=1) * np.sqrt(s2))
    # axis-2 doubled modes
    np.add.at(out[0, :], 2 * kb, np.sum(w * np.outer(A1, B2), axis=0) * np.sqrt(s1))
    # doubly doubled modes
    out[np.ix_(2 * ka, 2 * kb)] += w * np.outer(B1, B2)
    return SpectralField(box, NEUMANN, out)


@dataclass
class EnhancedNoise:
    """Mollified noise paired with its recentred resonance with the
    resolvent, plus the constants actually subtracted."""

    xi: SpectralField
    Xi: SpectralField
    epsilon: float
    c_subtracted: float
    profile: CutoffProfile
    expectation: SpectralField | None = None  # the full subtracted field

    @property
    def box(self) -> BoxDomain:
        return self.xi.box


def enhance(draw: NoiseDraw, eps: float, tau: CutoffProfile = SMOOTH) -> EnhancedNoise:
    """Build (xi_eps, Xi_eps) with Xi_eps = xi o sD xi - E[xi o sD xi](x).

    The full x-dependent expectation field is subtracted; its spatial mean
    is the lattice constant c_{eps,L}, recorded in ``c_subtracted``.
    """
    xi = mollify(draw, eps, tau)
    reso = resonance(xi, resolvent(xi))
    efield = expectation_field(eps, draw.box, tau, draw.trunc)
    n = (max(reso.trunc[0], efield.trunc[0]), max(reso.trunc[1], efield.trunc[1]))
    Xi = reso.pad_to(n) - efield.pad_to(n)
    if abs(draw.box.sides[0] - draw.box.sides[1]) < 1e-12:
        c = renorm_constant(eps, draw.box.sides[0], tau)
    else:
        c = float(efield.coeffs[0, 0]) / np.sqrt(draw.box.area)  # spatial mean
    return EnhancedNoise(xi, Xi, eps, c, tau, efield)


# -- sub-box restriction --------------------------------------------------

def _sinc_pi(x: np.ndarray) -> np.ndarray:
    """sin(pi x) / x with the limit value pi at x = 0."""
    x = np.asarray(x, dtype=float)
    small = np.abs(x) < 1e-9
    safe = np.where(small, 1.0, x)
    return np.where(small, np.pi, np.sin(np.pi * x) / safe)


def _cosc_pi(x: np.ndarray) -> np.ndarray:
    """(1 - cos(pi x)) / x with the limit value 0 at x = 0."""
    x = np.asarray(x, dtype=float)
    small = np.abs(x) < 1e-9
    safe = np.where(small, 1.0, x)
    return np.where(small, 0.0, (1.0 - np.cos(np.pi * x)) / safe)


def b_coeff(m, l, z, r, L):
    """1d pairing <n_{m,L}, n_{l,r}(. - z)>_{L^2([z, z+r])} in closed form.

    Vectorised over broadcastable integer arrays m, l.
    """
    m = np.asarray(m, dtype=float)
    l = np.asarray(l, dtype=float)
    if np.any(np.asarray(z) < -1e-12) or np.any(np.asarray(z) > L - r + 1e-12):
        raise ContractError("shift must satisfy 0 <= z <= L - r")
    plus = r * m / L + l
    minus = r * m / L - l
    f = _sinc_pi(plus) + _sinc_pi(minus)
    g = _cosc_pi(plus) + _cosc_pi(minus)
    ang = np.pi * m * z / L
    return (
        np.sqrt(r / L) / np.pi * nu(m.astype(int)) * nu(l.astype(int))
        * (f * np.cos(ang) - g * np.sin(ang))
    )


def b_matrix(M: int, K: int, z: float, r: float, L: float) -> np.ndarray:
    """Matrix b[m, k] for m = 0..M, k = 0..K (cached; geometry only)."""
    return _b_matrix_cached(int(M), int(K), float(z), float(r), float(L))


@lru_cache(maxsize=256)
def _b_matrix_cached(M: int, K: int, z: float, r: float, L: float) -> np.ndarray:
    m = np.arange(M + 1, dtype=float)[:, None]
    k = np.arange(K + 1, dtype=float)[None, :]
    return b_coeff(m, k, z, r, L)


def restrict(draw: NoiseDraw, eps: float, subbox: BoxDomain, K,
             tau: CutoffProfile = INDICATOR) -> SpectralField:
    """Mollified parent noise restricted to a sub-box, re-expanded in the
    sub-box Neumann basis up to truncation K.

    Coefficients k <= 2 N_trial are all a Galerkin pairing on the sub-box
    can see, so with K = 2 N_trial the result is the exact restriction for
    eigenvalue purposes.
    """
    if not draw.box.contains_box(subbox):
        raise ContractError("sub-box escapes the parent box")
    K = _pair(K)
    w = _cutoff_weights(draw.box, draw.coeffs.shape, eps, tau)
    zc = draw.coeffs * w
    z1 = subbox.origin[0] - draw.box.origin[0]
    z2 = subbox.origin[1] - draw.box.origin[1]
    B1 = b_matrix(draw.trunc[0], K[0], z1, subbox.sides[0], draw.box.sides[0])
    B2 = b_matrix(draw.trunc[1], K[1], z2, subbox.sides[1], draw.box.sides[1])
    out = B1.T @ zc @ B2
    return SpectralField(subbox, NEUMANN, out)


# -- binary export --------------------------------------------------------

def save_draw(path, draw: NoiseDraw, eps: float | None = None,
              profile: CutoffProfile | None = None) -> None:
    """Dump a draw as a binary .npz with a self-describing JSON header."""
    header = {
        "origin": list(draw.box.origin),
        "sides": list(draw.box.sides),
        "trunc": list(draw.trunc),
        "seed": draw.seed,
    }
    if eps is not None:
        header["epsilon"] = eps
    if profile is not None:
        header["profile"] = {"kind": profile.kind, "a": profile.a, "b": profile.b}
    np.savez(path, header=np.frombuffer(json.dumps(header).encode(), dtype=np.uint8),
             coeffs=draw.coeffs)


def load_draw(path) -> NoiseDraw:
    with np.load(path) as data:
        header = json.loads(bytes(data["header"]).decode())
        coeffs = data["coeffs"]
    box = BoxDomain(tuple(header["origin"]), tuple(header["sides"]))
    return NoiseDraw(box, tuple(header["trunc"]), int(header["seed"]), coeffs)
