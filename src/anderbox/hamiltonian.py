"""Galerkin operators Laplacian + V in the Dirichlet sine basis, eigenvalue
extraction, and the smooth squared partition of unity with its
localization penalty.

The potential pairing <V d_l, d_k> is evaluated by quadrature on a grid
padded past the total band limit, so the matrix-free apply is the exact
Galerkin projection of multiplication by V.  Its sine synthesis and
analysis are matmuls against cached (M, N) sine tables, one per axis.  At
the truncations the studies use (N <= 120) they cost less than pocketfft's
DSTs, whose per-call overhead dominates there: one BLAS thread, best of 25
interleaved batches, 36 against 103 us per apply at N 32, M 72, and 1.97
against 3.75 ms for eight problems of six columns.  Their work grows as
N M (N + M) per column, so at N 120, M 243 the two are even (0.96 against
0.86 ms best, 1.18 against 1.26 ms median) and at N 200 the tables are
1.4 times slower.
"""

from __future__ import annotations

from dataclasses import dataclass, field
import functools

import numpy as np
from scipy import fft as _fft

from .calculus import _bump_ramp
from .errors import ContractError
from .geometry import (
    DIRICHLET,
    BoxDomain,
    SpectralField,
    _pair,
    _synthesis_axis,
    midpoint_nodes,
)
from .noise import EnhancedNoise
from .solvers import lobpcg_top

# doubles of quadrature grid per block of a stacked apply: 512 KB keeps a
# block's matmul transients in cache (eight problems of six columns at
# N 64, M 144 apply in 10.8 ms at this size, 12.0 ms unblocked; half or
# twice the size is no faster on any shape the studies use)
TRANSFORM_BLOCK = 1 << 16


@functools.lru_cache(maxsize=32)  # a study runs a handful of shapes
def _sine_table(N: int, M: int) -> np.ndarray:
    """Read-only (M, N) table S[j, k - 1] = 2 sin(pi k (j + 1/2) / M) of the
    Dirichlet modes k = 1..N at M midpoints: S @ c is the DST-III of c
    zero-padded to M slots, S.T @ g the DST-II of g cut to N modes.  The
    phase k (2j + 1) is reduced mod 4M in integers and folded into the
    first quadrant, so no entry carries the round-off of a large argument."""
    j = np.arange(M)[:, None]
    k = np.arange(1, N + 1)[None, :]
    r = k * (2 * j + 1) % (4 * M)  # phase in units of pi / (2M)
    sign = np.where(r < 2 * M, 2.0, -2.0)
    r = r % (2 * M)
    S = sign * np.sin(np.pi / (2 * M) * np.minimum(r, 2 * M - r))
    S.setflags(write=False)
    return S


def _laplacian_diag(box: BoxDomain, N) -> np.ndarray:
    k1 = np.arange(1, N[0] + 1)[:, None] / box.sides[0]
    k2 = np.arange(1, N[1] + 1)[None, :] / box.sides[1]
    return (-np.pi**2 * (k1**2 + k2**2)).ravel()


@dataclass
class GalerkinOperator:
    """Matrix-free symmetric Galerkin operator of Laplacian + V minus a
    constant shift, on the Dirichlet modes 1..N per axis.

    It holds a stack of B problems of one shape (B = 1 from ``assemble``,
    more from ``stack``): one Laplacian-plus-constant diagonal (B, dim)
    and, when V is not constant, one potential sample array (B, M0, M1)
    per problem."""

    box: BoxDomain                     # of the first problem in a stack
    trunc: tuple[int, int]
    _v_grid: np.ndarray | None = None  # potential samples on the padded grid
    _grid_M: tuple[int, int] | None = None
    diag: np.ndarray = field(default=None, repr=False)

    @property
    def dim(self) -> int:
        return self.trunc[0] * self.trunc[1]

    def apply(self, rows: np.ndarray, which=None) -> np.ndarray:
        """A times the row blocks (b, k, dim) of the problems ``which`` (all
        when None), as row blocks; each row is an (N0, N1) coefficient
        matrix.  Each axis and direction costs one matmul against the
        cached sine table per group of problems whose grids fit
        ``TRANSFORM_BLOCK``."""
        sel = slice(None) if which is None else which
        out = rows * self.diag[sel][:, None, :]
        if self._v_grid is not None:
            (N0, N1), (M0, M1) = self.trunc, self._grid_M
            S0, S1 = _sine_table(N0, M0), _sine_table(N1, M1)
            v_grid = self._v_grid[sel]
            b, k, _ = rows.shape
            step = max(1, TRANSFORM_BLOCK // (k * M0 * M1))  # problems per block
            for s in range(0, b, step):
                g = S0 @ (rows[s:s + step].reshape(-1, N0, N1) @ S1.T)
                g = g.reshape(-1, k, M0, M1)
                g *= v_grid[s:s + step, None]
                w = (S0.T @ g.reshape(-1, M0, M1)) @ S1
                # synthesis sqrt(2/s)/2 times analysis sqrt(s/2)/M, per axis
                out[s:s + step] += w.reshape(-1, k, self.dim) * (0.25 / (M0 * M1))
        return out

    def coeff_field(self, c: np.ndarray) -> SpectralField:
        # coefficient layout: flattened (k1-1, k2-1) row-major
        full = np.zeros((self.trunc[0] + 1, self.trunc[1] + 1))
        full[1:, 1:] = c.reshape(self.trunc)
        return SpectralField(self.box, DIRICHLET, full)


def stack(ops) -> GalerkinOperator:
    """One operator whose problems are those of ``ops``, in order; they
    must share the truncation, the quadrature grid and the box sides
    (origins may differ)."""
    first = ops[0]
    for op in ops:
        if (op.trunc, op._grid_M, op.box.sides) != (first.trunc, first._grid_M, first.box.sides):
            raise ContractError("stacked operators need one truncation, grid and box sides")
    if len(ops) == 1:
        return first
    v_grid = None
    if any(op._v_grid is not None for op in ops):
        zero = np.zeros((1, *first._grid_M))
        v_grid = np.concatenate([zero if op._v_grid is None else op._v_grid for op in ops])
    return GalerkinOperator(first.box, first.trunc, v_grid, first._grid_M,
                            np.concatenate([op.diag for op in ops]))


@dataclass
class EigenResult:
    """Top-n eigenpairs of a stack of B problems."""

    values: np.ndarray     # (B, n), descending
    vectors: np.ndarray    # (B, n, dim) rows, coefficient layout of the operator
    residuals: np.ndarray  # (B, n) true residuals |A v - lambda v|


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
    arr = np.asarray(potential, dtype=float)
    if arr.ndim == 0:
        return np.full(M, float(arr))
    if arr.shape != tuple(M):
        raise ContractError("raw potential array does not match the operator grid")
    return arr


def assemble(potential, box: BoxDomain, N, grid_M=None) -> GalerkinOperator:
    """Galerkin operator A[k,l] = -pi^2 |k/s|^2 delta_kl + <V d_l, d_k>
    on the Dirichlet modes.

    ``potential`` may be a SpectralField (any parity; typically Neumann), an
    array sampled on the operator grid, a scalar, or None.
    """
    N = _pair(N)
    if N[0] < 1 or N[1] < 1:
        raise ContractError("operator truncation must be >= 1")
    M = (tuple(grid_M) if grid_M is not None
         else _operator_grid(N, _potential_band(potential)))
    if M[0] < N[0] + 1 or M[1] < N[1] + 1:
        raise ContractError(f"quadrature grid {M} cannot hold the modes 1..{N}")
    diag = _laplacian_diag(box, N)

    v_grid = None
    if potential is not None:
        if np.isscalar(potential):
            diag = diag + float(potential)
        else:
            v_grid = potential_on_grid(potential, box, M)[None]
    return GalerkinOperator(box, N, v_grid, M, diag[None])


def operator_from_noise(en: EnhancedNoise, N, beta: float = 1.0) -> GalerkinOperator:
    """Operator Laplacian + beta xi - beta^2 E, renormalized by the full
    x-dependent expectation field E of the enhanced noise."""
    n = (max(en.xi.trunc[0], en.expectation.trunc[0]),
         max(en.xi.trunc[1], en.expectation.trunc[1]))
    veff = en.xi.pad_to(n) * beta - en.expectation.pad_to(n) * beta**2
    return assemble(veff, en.box, N)


def eigenvalues(ops, n: int, tol: float = 1e-9, v0: np.ndarray | None = None,
                seed=0) -> EigenResult:
    """Top-n eigenpairs (descending, multiplicities kept adjacent) of the
    list ``ops``, solved by LOBPCG as one stack (see ``stack``): values
    and true residuals (B, n), vectors (B, n, dim) as rows.  ``seed`` is
    an int or one per operator, ``v0`` (B, m, dim) warm-starts the blocks
    and ``tol`` accepts the residuals; a ConvergenceError carries them.

    The preconditioner is 1 / (max diag - diag + delta) on the Laplacian
    diagonal, with delta = min(3 pi^2 / max(side)^2, |V|_inf + 1) per
    problem: the Laplacian's gap at the top of its spectrum, capped by the
    bound that keeps |T V| < 1.  With |V|_inf + 1 alone, delta dwarfs the
    gap on large boxes, T is nearly constant over the low modes where the
    wanted vectors live, and LOBPCG runs almost unpreconditioned.
    """
    if n < 1 or n > ops[0].dim:
        raise ContractError(f"requested {n} eigenvalues of a dim-{ops[0].dim} operator")
    st = stack(ops)
    v_max = 0.0 if st._v_grid is None else np.abs(st._v_grid).max(axis=(1, 2))[:, None]
    shift = np.minimum(3.0 * np.pi**2 / max(st.box.sides) ** 2, v_max + 1.0)
    precond = 1.0 / (-st.diag + st.diag.max(axis=1, keepdims=True) + shift)
    return EigenResult(*lobpcg_top(st.apply, n, precond, v0=v0, tol=tol,
                                   seed=np.broadcast_to(seed, len(ops))))


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

