"""Galerkin operators Laplacian + V in the Dirichlet sine basis, eigenvalue
extraction, the Courant-Fischer evaluation on trial subspaces, the smooth
squared partition of unity with its localization penalty, and the
box-comparison checker.

The potential pairing <V d_l, d_k> is evaluated by quadrature on a grid
padded past the total band limit, so the matrix (or matrix-free apply) is
the exact Galerkin projection of multiplication by V.
"""

from __future__ import annotations

from dataclasses import dataclass, field
import math
import time

import numpy as np
from scipy import fft as _fft

from .calculus import _bump_ramp
from .errors import CapacityError, ContractError
from .geometry import (
    DIRICHLET,
    BoxDomain,
    GridField,
    SpectralField,
    _pair,
    _synthesis_axis,
    midpoint_nodes,
)
from .noise import EnhancedNoise, restrict
from .solvers import dense_top_eigs, lobpcg_top

DENSE_CAP = 4096  # largest matrix dimension assembled densely by default


def _laplacian_diag(box: BoxDomain, N) -> np.ndarray:
    k1 = np.arange(1, N[0] + 1)[:, None] / box.sides[0]
    k2 = np.arange(1, N[1] + 1)[None, :] / box.sides[1]
    return (-np.pi**2 * (k1**2 + k2**2)).ravel()


@dataclass
class GalerkinOperator:
    """Symmetric Galerkin matrix (or matrix-free apply) of Laplacian + V
    minus a constant shift, on the Dirichlet modes 1..N per axis."""

    box: BoxDomain
    trunc: tuple[int, int]
    shift: float
    storage: str                       # "dense" | "matrix-free"
    matrix: np.ndarray | None = None
    _v_grid: np.ndarray | None = None  # potential samples on the padded grid
    _grid_M: tuple[int, int] | None = None
    diag: np.ndarray = field(default=None, repr=False)

    @property
    def dim(self) -> int:
        return self.trunc[0] * self.trunc[1]

    def apply(self, c: np.ndarray) -> np.ndarray:
        """A c for one coefficient vector (dim,) or a block of columns
        (dim, k); a block costs one sine transform per axis and direction."""
        if self.storage == "dense":
            return self.matrix @ c
        C = np.asarray(c).reshape(self.dim, -1)
        out = self.diag[:, None] * C
        if self._v_grid is not None:
            (N0, N1), (M0, M1) = self.trunc, self._grid_M
            # block axis first; Dirichlet modes 1..N sit in DST slots 0..N-1
            g = _fft.dst(C.T.reshape(-1, N0, N1), type=3, n=M0, axis=1)
            g = _fft.dst(g, type=3, n=M1, axis=2, overwrite_x=True)
            g *= self._v_grid
            w = _fft.dst(g, type=2, axis=2, overwrite_x=True)[:, :, :N1]
            w = _fft.dst(w, type=2, axis=1)[:, :N0, :]
            # synthesis sqrt(2/s)/2 times analysis sqrt(s/2)/M, per axis
            out += w.reshape(-1, self.dim).T * (0.25 / (M0 * M1))
        return out.reshape(np.shape(c))

    def coeff_field(self, c: np.ndarray) -> SpectralField:
        # coefficient layout: flattened (k1-1, k2-1) row-major
        full = np.zeros((self.trunc[0] + 1, self.trunc[1] + 1))
        full[1:, 1:] = c.reshape(self.trunc)
        return SpectralField(self.box, DIRICHLET, full)


@dataclass
class EigenResult:
    values: np.ndarray          # descending
    vectors: np.ndarray | None  # columns, coefficient layout of the operator
    n: int
    residuals: np.ndarray | None = None


def _potential_band(potential) -> tuple[int, int]:
    if potential is None:
        return (0, 0)
    if isinstance(potential, SpectralField):
        return potential.trunc
    return None  # grid potential: band unknown


def _operator_grid(N, band) -> tuple[int, int]:
    """Smallest FFT-fast quadrature grid on which the pairings of the modes
    1..N with a potential of the given band (2N per axis when None, as for
    a potential sampled on the grid) are alias-free."""
    out = []
    for i in range(2):
        kv = band[i] if band is not None else 2 * N[i]
        need = (kv + 2 * N[i]) // 2 + 2  # alias-free triple products
        need = max(need, kv + 1, N[i] + 1)  # and potential synthesis
        out.append(_fft.next_fast_len(need, real=True))
    return tuple(out)


def potential_on_grid(potential, box: BoxDomain, M) -> np.ndarray:
    """Samples of the potential on the operator quadrature grid."""
    if isinstance(potential, SpectralField):
        if potential.box != box:
            raise ContractError("potential lives on a different box")
        g = _synthesis_axis(potential.coeffs, potential.parity[0], box.sides[0], M[0], 0)
        return _synthesis_axis(g, potential.parity[1], box.sides[1], M[1], 1)
    if isinstance(potential, GridField):
        if potential.box != box:
            raise ContractError("potential lives on a different box")
        if potential.shape != tuple(M):
            raise ContractError(
                f"grid potential must be sampled on the operator grid {tuple(M)}"
            )
        return potential.samples
    arr = np.asarray(potential, dtype=float)
    if arr.ndim == 0:
        return np.full(M, float(arr))
    if arr.shape != tuple(M):
        raise ContractError("raw potential array does not match the operator grid")
    return arr


def assemble(potential, box: BoxDomain, N, shift: float = 0.0,
             storage: str = "auto", allow_large_dense: bool = False,
             grid_M=None) -> GalerkinOperator:
    """Galerkin matrix A[k,l] = -pi^2 |k/s|^2 delta_kl + <V d_l, d_k>
    - shift delta_kl on the Dirichlet modes.

    ``potential`` may be a SpectralField (any parity; typically Neumann), a
    GridField / array sampled on the operator grid, a scalar, or None.
    """
    N = _pair(N)
    if N[0] < 1 or N[1] < 1:
        raise ContractError("operator truncation must be >= 1")
    dim = N[0] * N[1]
    M = (tuple(grid_M) if grid_M is not None
         else _operator_grid(N, _potential_band(potential)))
    diag = _laplacian_diag(box, N) - shift

    if storage == "auto":
        storage = "dense" if dim <= DENSE_CAP else "matrix-free"
    if storage == "dense" and dim > DENSE_CAP and not allow_large_dense:
        raise CapacityError(
            f"dense operator of dimension {dim} exceeds cap {DENSE_CAP}; "
            "pass allow_large_dense=True or storage='matrix-free'"
        )

    v_grid = None
    if potential is not None:
        if np.isscalar(potential):
            diag = diag + float(potential)
        else:
            v_grid = potential_on_grid(potential, box, M)

    op = GalerkinOperator(box, N, shift, "matrix-free", None, v_grid, M, diag)
    if storage == "dense":
        A = np.empty((dim, dim))
        k = max(1, (1 << 20) // (M[0] * M[1]))  # 8 MB per transient block
        for j in range(0, dim, k):
            A[:, j:j + k] = op.apply(np.eye(dim, min(k, dim - j), -j))
        # symmetric to round-off (|A - A^T| ~ 1e-15); eigh reads one triangle
        op = GalerkinOperator(box, N, shift, "dense", A, v_grid, M, diag)
    return op


def operator_from_noise(en: EnhancedNoise, N, beta: float = 1.0,
                        renorm: str = "field", **kw) -> GalerkinOperator:
    """Operator Laplacian + beta xi - beta^2 (renormalization).

    renorm = "field":    subtract the full x-dependent expectation field
    renorm = "constant": subtract only the lattice constant c_{eps,L}
    """
    N = _pair(N)
    if renorm == "field":
        n = (max(en.xi.trunc[0], en.expectation.trunc[0]),
             max(en.xi.trunc[1], en.expectation.trunc[1]))
        veff = en.xi.pad_to(n) * beta - en.expectation.pad_to(n) * beta**2
        return assemble(veff, en.box, N, **kw)
    if renorm == "constant":
        return assemble(en.xi * beta, en.box, N, shift=beta**2 * en.c_subtracted, **kw)
    raise ContractError(f"unknown renorm mode {renorm!r}")


def eigenvalues(op: GalerkinOperator, n: int, vectors: bool = False,
                tol: float = 1e-9, v0: np.ndarray | None = None,
                seed: int = 0) -> EigenResult:
    """Top-n eigenvalues (descending, multiplicities kept adjacent), with
    the true residuals of the returned pairs.

    Dense operators go to LAPACK; matrix-free ones to LOBPCG, warm-started
    from ``v0`` (one vector or up to n columns) and accepted at ``tol``.
    """
    if n < 1 or n > op.dim:
        raise ContractError(f"requested {n} eigenvalues of a dim-{op.dim} operator")
    if op.storage == "dense":
        A = op.matrix
        vals, vecs = dense_top_eigs(A, n, vectors=True)
        res = np.linalg.norm(A @ vecs - vecs * vals, axis=0)
        return EigenResult(vals, vecs if vectors else None, n, res)
    v_max = float(np.abs(op._v_grid).max()) if op._v_grid is not None else 0.0
    precond = 1.0 / (-op.diag + op.diag.max() + v_max + 1.0)
    vals, vecs, res = lobpcg_top(op.apply, op.dim, n, precond, v0=v0, tol=tol,
                                 seed=seed)
    return EigenResult(vals, vecs if vectors else None, n, res)


def min_max(op: GalerkinOperator, n: int, trial: np.ndarray) -> float:
    """inf of the Rayleigh quotient over the span of the trial columns.

    With an n-dimensional trial space the value is a lower bound for the
    n-th eigenvalue, with equality when the span is the top-n eigenspace.
    """
    V = np.asarray(trial, dtype=float)
    if V.ndim != 2 or V.shape[1] != n:
        raise ContractError(f"trial subspace must have {n} columns")
    G = V.T @ V
    if np.linalg.cond(G) > 1e12:
        raise ContractError("trial subspace is (numerically) rank-deficient")
    H = V.T @ op.apply(V)
    H = 0.5 * (H + H.T)
    from scipy.linalg import eigh as _geigh

    vals = _geigh(H, G, eigvals_only=True)
    return float(vals[0])


# -- IMS partition ---------------------------------------------------------

def _phi_step(u: np.ndarray) -> np.ndarray:
    """Smooth step: 0 on (-inf, -1], 1 on [1, inf)."""
    return _bump_ramp((np.asarray(u, dtype=float) + 1.0) / 2.0)


@dataclass
class IMSPartition:
    """1d ramp profile eta with sum_k eta(x - r k)^2 = 1, tensorised to 2d,
    and the localization penalty Phi(x) = sum_k |grad eta_k(x)|^2."""

    r: float
    a: float
    K: float  # a * max |eta'|, scale-free ramp constant

    def __post_init__(self):
        if not (0 < self.a < self.r):
            raise ContractError("need 0 < a < r")

    def eta_1d(self, t) -> np.ndarray:
        t = np.asarray(t, dtype=float)
        A = _phi_step(2 * t / self.a + 1.0)
        B = 1.0 - _phi_step(2 * (t - self.r) / self.a + 1.0)
        return np.sqrt(np.maximum(A * B, 0.0))

    def eta_1d_deriv(self, t, h: float = 1e-7) -> np.ndarray:
        return (self.eta_1d(np.asarray(t) + h) - self.eta_1d(np.asarray(t) - h)) / (2 * h)

    def eta(self, x, k=(0, 0)) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        return self.eta_1d(x[..., 0] - self.r * k[0]) * self.eta_1d(x[..., 1] - self.r * k[1])

    def sum_sq_1d(self, t) -> np.ndarray:
        t = np.asarray(t, dtype=float)
        kmin = np.floor((t.min() - self.r) / self.r) - 1
        kmax = np.ceil((t.max() + self.a) / self.r) + 1
        out = np.zeros_like(t)
        for k in np.arange(kmin, kmax + 1):
            out += self.eta_1d(t - self.r * k) ** 2
        return out

    def _grad_sq_sum_1d(self, t) -> np.ndarray:
        t = np.asarray(t, dtype=float)
        kmin = np.floor((t.min() - self.r) / self.r) - 1
        kmax = np.ceil((t.max() + self.a) / self.r) + 1
        out = np.zeros_like(t)
        for k in np.arange(kmin, kmax + 1):
            out += self.eta_1d_deriv(t - self.r * k) ** 2
        return out

    def phi(self, x) -> np.ndarray:
        """Phi(x) = sum_k |grad eta(x - rk)|^2; tensor structure makes it
        a sum of the two 1d derivative-square sums."""
        x = np.asarray(x, dtype=float)
        return self._grad_sq_sum_1d(x[..., 0]) + self._grad_sq_sum_1d(x[..., 1])

    def phi_grid(self, box: BoxDomain, M) -> np.ndarray:
        xs = midpoint_nodes(box, M)
        return self._grad_sq_sum_1d(xs[0])[:, None] + self._grad_sq_sum_1d(xs[1])[None, :]


def ims_partition(r: float, a: float) -> IMSPartition:
    part = IMSPartition(r, a, K=0.0)
    t = np.linspace(-a, r + a, 4001)
    K = float(a * np.abs(part.eta_1d_deriv(t)).max())
    return IMSPartition(r, a, K)


# -- box comparison checker -------------------------------------------------

def box_bounds_check(L: float, r: float, a: float, eps: float, seeds,
                     nu_trunc: int = 8, n_lower: int | None = None,
                     slack: float = 1e-4, tau=None) -> dict:
    """Per-draw verification of the eigenvalue comparison inequalities.

    A parent noise lives on [0, 3L]^2 with the study box Q_L centred, so
    every overlapping tile r k + [-a, r]^2 stays inside the parent.  For
    each draw (one seed each) the checker verifies, at Galerkin tolerance:

      (upper-a)  lambda(Q_L, V)       <= lambda(Q_L, V - Phi) + max Phi + slack
      (upper-b)  lambda(Q_L, V - Phi) <= max_tiles lambda(tile, V) + slack
      (lower)    lambda_n(Q_L, V)     >= min_disjoint lambda(tile_i, V) - slack
      (mono)     lambda_k(subbox, V)  <= lambda_k(Q_L, V), k = 1..n

    V is the same mollified parent noise restricted to every box, so the
    comparisons are pathwise.
    """
    from .noise import INDICATOR, sample

    tau = tau or INDICATOR
    parent = BoxDomain.square(3 * L)
    off = (L, L)
    study = BoxDomain(off, (L, L))
    n_cells = int(math.floor(L / r + 1e-9))
    if n_lower is None:
        n_lower = n_cells * n_cells
    N_L = _pair(int(np.ceil(nu_trunc * L)))
    report = {k: 0 for k in ("upper_a", "upper_b", "lower", "mono")}
    report["draws"] = 0
    rows = []

    ims = ims_partition(r, a)
    kmax = int(math.floor(L / r + 1.0 - 1e-9))  # |k|_inf < L/r + 1
    tiles = []
    for k1 in range(0, kmax + 1):
        for k2 in range(0, kmax + 1):
            o = (off[0] + r * k1 - a, off[1] + r * k2 - a)
            tiles.append(BoxDomain(o, (r + a, r + a)))
    disjoint = []
    for k1 in range(n_cells):
        for k2 in range(n_cells):
            disjoint.append(BoxDomain((off[0] + r * k1, off[1] + r * k2), (r, r)))
    disjoint = disjoint[:n_lower]

    for seed in seeds:
        t0 = time.perf_counter()
        draw = sample(parent, _pair(int(np.ceil(nu_trunc * 3 * L))), seed)
        pot = restrict(draw, eps, study, (2 * N_L[0], 2 * N_L[1]), tau)
        op = assemble(pot, study, N_L, storage="matrix-free")
        lam_parent = eigenvalues(op, max(4, n_lower), tol=1e-8, seed=seed).values

        M = op._grid_M
        phi = ims.phi_grid(study, M)
        vg = potential_on_grid(pot, study, M)
        op_pen = assemble(vg - phi, study, N_L, storage="matrix-free", grid_M=M)
        lam_pen = eigenvalues(op_pen, 1, tol=1e-8, seed=seed).values[0]

        def top(t, side, n=1):
            """Top n eigenvalues on the tile t of the given side length."""
            Nt = _pair(int(np.ceil(nu_trunc * side)))
            pt = restrict(draw, eps, t, (2 * Nt[0], 2 * Nt[1]), tau)
            return eigenvalues(assemble(pt, t, Nt, storage="matrix-free"),
                               n, tol=1e-8, seed=seed).values

        tile_vals = [top(t, r + a)[0] for t in tiles]
        dis_vals = [top(t, r)[0] for t in disjoint]
        lam_sub = top(disjoint[0], r, 2)

        report["draws"] += 1
        if not lam_parent[0] <= lam_pen + float(phi.max()) + slack:
            report["upper_a"] += 1
        if not lam_pen <= max(tile_vals) + slack:
            report["upper_b"] += 1
        if not lam_parent[n_lower - 1] >= min(dis_vals) - slack:
            report["lower"] += 1
        if not all(lam_sub[i] <= lam_parent[i] + slack for i in range(2)):
            report["mono"] += 1
        rows.append({
            "seed": seed, "lam1": lam_parent[0], "lam_pen": lam_pen,
            "max_tile": max(tile_vals), "min_disjoint": min(dis_vals),
            "lam_sub1": lam_sub[0], "wall_ms": (time.perf_counter() - t0) * 1e3,
        })
    report["rows"] = rows
    report["phi_max_over_a2"] = float(ims.K**2 * 2 / a**2)
    return report

