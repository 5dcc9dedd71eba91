"""Independent oracles used by the test suite: refined-grid quadrature,
direct block-sum paraproducts, composite Simpson pairings, the radial
shooting solve for the planar ground state, the Courant-Fischer bound and
the single-mode chi value.  Nothing here reuses the production code paths
it is meant to check.  The library helpers at the end are used by tests
only."""

from dataclasses import dataclass

import numpy as np
from scipy import fft as _fft
from scipy.integrate import simpson, solve_ivp
from scipy.linalg import eigh

from anderbox.calculus import (DyadicPartition, frequency_radii, levels_for, make_partition,
                               multiplier)
from anderbox.errors import ContractError
from anderbox.geometry import (
    DIRICHLET,
    EVEN,
    NEUMANN,
    ODD,
    BoxDomain,
    GridField,
    Parity,
    SpectralField,
    _pair,
    forward_transform,
    inverse_transform,
    nu,
    parity_pair,
    product_parity,
)
from anderbox.noise import INDICATOR, CutoffProfile, b_matrix
from anderbox.paraproducts import bony_split


def quad_grid(box, M):
    """Midpoint nodes and weight for a refined quadrature grid."""
    xs, ys = [], []
    x = box.origin[0] + (np.arange(M[0]) + 0.5) * box.sides[0] / M[0]
    y = box.origin[1] + (np.arange(M[1]) + 0.5) * box.sides[1] / M[1]
    w = box.sides[0] * box.sides[1] / (M[0] * M[1])
    return x, y, w


def quad_integral(f_samples, box, M):
    return float(np.sum(f_samples)) * box.sides[0] * box.sides[1] / (M[0] * M[1])


def direct_paraproduct_sums(u, v, P, J):
    """(lo, reso, hi) by literal double sums over block pairs on a padded
    grid; independent of the production running-sum evaluation."""
    from anderbox.calculus import apply_block
    from anderbox.geometry import GridField, forward_transform, inverse_transform, product_parity

    M = (2 * (u.trunc[0] + v.trunc[0]) + 4, 2 * (u.trunc[1] + v.trunc[1]) + 4)
    bu = {j: inverse_transform(apply_block(u, j, P), M).samples for j in range(-1, J + 1)}
    bv = {j: inverse_transform(apply_block(v, j, P), M).samples for j in range(-1, J + 1)}
    lo = np.zeros(M)
    reso = np.zeros(M)
    hi = np.zeros(M)
    for i in range(-1, J + 1):
        for j in range(-1, J + 1):
            prod = bu[i] * bv[j]
            if i <= j - 2:
                lo += prod
            elif abs(i - j) <= 1:
                reso += prod
            else:
                hi += prod
    pp = product_parity(u.parity, v.parity)
    N_out = (u.trunc[0] + v.trunc[0], u.trunc[1] + v.trunc[1])
    box = u.box
    out = []
    for g in (lo, reso, hi):
        out.append(forward_transform(GridField(box, g), pp, N_out))
    return tuple(out)


def simpson_pairing_1d(m, l, z, r, L, n_panels=None):
    """Composite-Simpson value of the 1d cosine-basis pairing."""
    def nu(k):
        return 2.0 ** (-0.5 * (k == 0))

    if n_panels is None:
        n_panels = 200 + 40 * int(max(m * r / L, l))
    x = np.linspace(0.0, r, 2 * n_panels + 1)
    f = (nu(m) * np.sqrt(2.0 / L) * np.cos(np.pi * m * (x + z) / L)
         * nu(l) * np.sqrt(2.0 / r) * np.cos(np.pi * l * x / r))
    return float(simpson(f, x=x))


def shooting_ground_state():
    """Radial ground state of Lap Q - Q + Q^3 = 0: returns
    (Q(0), |Q|_2^2, best constant 2/|Q|_2^2); validates both Pohozaev
    identities to 1e-6 before returning."""

    def integrate(q0, r_max=30.0):
        def rhs(r, y):
            Q, Pv = y
            return [Pv, Q - Q**3 - (Pv / r if r > 0 else 0.0)]

        r0 = 1e-6
        y0 = [q0 + (q0 - q0**3) * r0**2 / 4, (q0 - q0**3) * r0 / 2]
        hit_zero = lambda r, y: y[0]
        hit_zero.terminal = True
        hit_zero.direction = -1
        turn_up = lambda r, y: y[1]
        turn_up.terminal = True
        turn_up.direction = 1
        sol = solve_ivp(rhs, (r0, r_max), y0, events=[hit_zero, turn_up],
                        rtol=1e-12, atol=1e-14, dense_output=True, max_step=0.05)
        return sol, len(sol.t_events[0]) > 0

    lo, hi = 1.0, 4.0
    for _ in range(120):
        mid = 0.5 * (lo + hi)
        _, crossed = integrate(mid)
        if crossed:
            hi = mid
        else:
            lo = mid
    q0 = 0.5 * (lo + hi)
    sol, _ = integrate(q0)
    rr = np.linspace(1e-6, min(sol.t[-1], 14.0), 40001)
    Q = sol.sol(rr)[0]
    l2 = 2 * np.pi * np.trapezoid(Q**2 * rr, rr)
    grad = 2 * np.pi * np.trapezoid(np.gradient(Q, rr) ** 2 * rr, rr)
    l4 = 2 * np.pi * np.trapezoid(Q**4 * rr, rr)
    assert abs(grad / l2 - 1.0) < 1e-6, "Pohozaev identity |grad Q|^2 = |Q|^2 failed"
    assert abs(l4 / (2 * l2) - 1.0) < 1e-6, "Pohozaev identity |Q|_4^4 = 2 |Q|^2 failed"
    return q0, l2, 2.0 / l2


def ims_fd_residual(psi, ims, k, h=3e-4, Mg=120, margin=0.3):
    """L2 norm of the localization identity residual

        eta_k^2 Lap psi + Lap(eta_k^2 psi) - 2 eta_k Lap(eta_k psi)
            - 2 psi |grad eta_k|^2

    with the Laplacians of the products evaluated by 4th-order finite
    differences (independent of the spectral machinery)."""
    lo0 = ims.r * k[0] - ims.a - margin
    lo1 = ims.r * k[1] - ims.a - margin
    side = ims.r + ims.a + 2 * margin
    xg = lo0 + (np.arange(Mg) + 0.5) * side / Mg
    yg = lo1 + (np.arange(Mg) + 0.5) * side / Mg

    def eta2d(xv, yv):
        return np.outer(ims.eta_1d(xv - ims.r * k[0]), ims.eta_1d(yv - ims.r * k[1]))

    def sample(fn, xv, yv):
        X = np.stack(np.meshgrid(xv, yv, indexing="ij"), axis=-1)
        return fn(X)

    psi_at = lambda X: psi.eval(X)

    def g1(xv, yv):
        return eta2d(xv, yv) ** 2 * sample(psi_at, xv, yv)

    def g2(xv, yv):
        return eta2d(xv, yv) * sample(psi_at, xv, yv)

    coef = [-1.0, 16.0, -30.0, 16.0, -1.0]
    offs = [-2, -1, 0, 1, 2]

    def fd_lap(g):
        out = np.zeros((Mg, Mg))
        for c, o in zip(coef, offs):
            out += c * g(xg + o * h, yg)
            out += c * g(xg, yg + o * h)
        return out / (12 * h * h)

    eta = eta2d(xg, yg)
    d1 = ims.eta_1d_deriv(xg - ims.r * k[0])
    e1 = ims.eta_1d(xg - ims.r * k[0])
    d2 = ims.eta_1d_deriv(yg - ims.r * k[1])
    e2 = ims.eta_1d(yg - ims.r * k[1])
    gsq = np.outer(d1**2, e2**2) + np.outer(e1**2, d2**2)
    psig = sample(psi_at, xg, yg)
    lap_psi = sample(lambda X: laplacian(psi).eval(X), xg, yg)
    res = eta**2 * lap_psi + fd_lap(g1) - 2 * eta * fd_lap(g2) - 2 * psig * gsq
    return float(np.sqrt(np.sum(res**2) * (side * side / Mg**2)))


def single_mode_lower_bound(L):
    """Objective 4 (|psi|_4^2 - |grad psi|_2^2) of the first sine mode on
    the square of side L, in closed form: 6/L - 8 pi^2 / L^2."""
    return 6.0 / L - 8.0 * np.pi**2 / L**2


def dense_matrix(op):
    """The operator's matrix from its apply, 64 columns at a time so the
    apply's transients stay small at any dim: a reference for dense LAPACK
    solves and entry-wise checks."""
    eye = np.eye(op.dim)
    return np.vstack([op.apply(eye[None, i:i + 64])[0] for i in range(0, op.dim, 64)]).T


def min_max(op, n, trial):
    """inf of the Rayleigh quotient of ``op`` over the span of the trial
    columns: with an n-dimensional trial space a lower bound for the n-th
    eigenvalue, with equality on the top-n eigenspace (Courant-Fischer)."""
    V = np.asarray(trial, dtype=float)
    if V.ndim != 2 or V.shape[1] != n:
        raise ContractError(f"trial subspace must have {n} columns")
    G = V.T @ V
    if np.linalg.cond(G) > 1e12:
        raise ContractError("trial subspace is (numerically) rank-deficient")
    H = V.T @ op.apply(V.T[None])[0].T
    return float(eigh(0.5 * (H + H.T), G, eigvals_only=True)[0])


# -- library helpers that only the tests use ------------------------------

def laplacian(u: SpectralField) -> SpectralField:
    """The Laplacian by its symbol -pi^2 |k/s|^2."""
    return multiplier(u, lambda x1, x2: -np.pi**2 * (x1**2 + x2**2))


@dataclass(frozen=True)
class BesovSpec:
    alpha: float
    p: float
    q: float

    def __post_init__(self):
        for v in (self.p, self.q):
            if not (v >= 1):
                raise ContractError("p, q must lie in [1, inf]")


def grid_lp_norm(g: GridField, p: float) -> float:
    a = np.abs(g.samples)
    if np.isinf(p):
        return float(a.max(initial=0.0))
    return float((np.sum(a**p) * g.quad_weight()) ** (1.0 / p))


def besov_norm(u: SpectralField, spec: BesovSpec, P: DyadicPartition | None = None,
               grid=None) -> float:
    """Littlewood-Paley Besov norm of a truncated field.

    Block L^p norms are evaluated on the 2N midpoint grid (documented
    underestimate of L^inf by the grid modulus of continuity).
    """
    if P is None:
        P = make_partition(levels_for(u))
    J = max(P.J, levels_for(u))
    M = grid if grid is not None else (2 * max(u.trunc[0], 1), 2 * max(u.trunc[1], 1))
    rad = frequency_radii(u.box, u.coeffs.shape)
    terms = []
    for j in range(-1, J + 1):
        w = P.rho(j, rad)
        if not np.any(w):
            continue
        blk = SpectralField(u.box, u.parity, u.coeffs * w)
        lp = grid_lp_norm(inverse_transform(blk, M), spec.p)
        terms.append(2.0 ** (j * spec.alpha) * lp)
    t = np.asarray(terms)
    if np.isinf(spec.q):
        return float(t.max(initial=0.0))
    return float((t**spec.q).sum() ** (1.0 / spec.q))


def sobolev_norm(u: SpectralField, alpha: float) -> float:
    """Explicit H^alpha norm sqrt(sum (1 + |k/s|^2)^alpha <u, .>^2)."""
    k1 = np.arange(u.coeffs.shape[0])[:, None] / u.box.sides[0]
    k2 = np.arange(u.coeffs.shape[1])[None, :] / u.box.sides[1]
    w = (1.0 + k1**2 + k2**2) ** alpha
    return float(np.sqrt(np.sum(w * u.coeffs**2)))


def holder_norm(u: SpectralField, alpha: float, P: DyadicPartition | None = None) -> float:
    """C^alpha = B^{alpha}_{inf,inf} norm (grid-max flavour)."""
    return besov_norm(u, BesovSpec(alpha, np.inf, np.inf), P)


def bony_ratio_report(samples: int, N: int = 16, L: float = 1.0,
                      alpha: float = -1.05, gamma: float = 0.8,
                      seed: int = 0) -> dict:
    """Empirical constants in the three Bony-type inequalities.

    For random Dirichlet f and Neumann xi reports the max over samples of

        hi:   |f |> xi|_{H^{alpha+gamma}} / (|f|_{H^gamma} |xi|_{C^alpha})
        lo:   |f <| xi|_{H^{alpha}}       / (|f|_{H^gamma} |xi|_{C^alpha})
        reso: |f o xi|_{H^{alpha+gamma}}  / (|f|_{H^gamma} |xi|_{C^alpha})

    The constants are reported, never asserted against a fixed bound.
    """
    if samples < 1:
        raise ContractError("samples >= 1 required")
    rng = np.random.default_rng(seed)
    box = BoxDomain.square(L)
    out = {"lo": 0.0, "reso": 0.0, "hi": 0.0, "skipped": 0}
    for _ in range(samples):
        cf = rng.standard_normal((N + 1, N + 1))
        cf[0, :] = 0.0
        cf[:, 0] = 0.0
        cx = rng.standard_normal((N + 1, N + 1))
        f = SpectralField(box, DIRICHLET, cf)
        xi = SpectralField(box, NEUMANN, cx)
        nf = sobolev_norm(f, gamma)
        nx = holder_norm(xi, alpha)
        if nf == 0.0 or nx == 0.0:
            out["skipped"] += 1
            continue
        t = bony_split(f, xi)
        out["hi"] = max(out["hi"], sobolev_norm(t.hi, alpha + gamma) / (nf * nx))
        out["lo"] = max(out["lo"], sobolev_norm(t.lo, alpha) / (nf * nx))
        out["reso"] = max(out["reso"], sobolev_norm(t.reso, alpha + gamma) / (nf * nx))
    return out


def basis_value(k, parity, box: BoxDomain, x) -> np.ndarray:
    """Value of the orthonormal basis function of index k at point(s) x."""
    parity = parity_pair(parity)
    k = (int(k[0]), int(k[1]))
    for axis in range(2):
        if parity[axis] is ODD and k[axis] == 0:
            raise ContractError(f"k[{axis}] = 0 is invalid on an odd axis")
    pts = np.asarray(x, dtype=float)
    flat = pts.reshape(-1, 2)
    val = np.ones(flat.shape[0])
    for axis in range(2):
        t = flat[:, axis] - box.origin[axis]
        s = box.sides[axis]
        if parity[axis] is ODD:
            val = val * (np.sqrt(2.0 / s) * np.sin(np.pi * k[axis] * t / s))
        else:
            val = val * (float(nu(k[axis])) * np.sqrt(2.0 / s) * np.cos(np.pi * k[axis] * t / s))
    return val.reshape(pts.shape[:-1]) if pts.ndim > 1 else float(val[0])


def _axis_integrals(parity: Parity, s: float, N: int) -> np.ndarray:
    """Exact integrals of the 1d basis functions over [0, s]."""
    k = np.arange(N + 1)
    if parity is EVEN:
        out = np.zeros(N + 1)
        out[0] = np.sqrt(s)  # nu_0 sqrt(2/s) * s
        return out
    with np.errstate(divide="ignore", invalid="ignore"):
        out = np.sqrt(2.0 * s) * (1.0 - (-1.0) ** k) / (np.pi * k)
    out[0] = 0.0
    return out


def field_integral(u: SpectralField) -> float:
    """Exact integral of the represented function over the box."""
    w1 = _axis_integrals(u.parity[0], u.box.sides[0], u.trunc[0])
    w2 = _axis_integrals(u.parity[1], u.box.sides[1], u.trunc[1])
    return float(w1 @ u.coeffs @ w2)


def inner_product(u: SpectralField, v: SpectralField) -> float:
    """L2 inner product over the box.

    Same parity: coefficient pairing (Parseval).  Mixed parity: expand the
    alias-free product in its own parity basis and integrate exactly (a
    plain grid quadrature is not exact for odd-parity integrands).
    """
    if u.box != v.box:
        raise ContractError("inner_product: fields live on different boxes")
    if u.parity == v.parity:
        n = (max(u.trunc[0], v.trunc[0]), max(u.trunc[1], v.trunc[1]))
        return float(np.sum(u.pad_to(n).coeffs * v.pad_to(n).coeffs))
    M = (
        _fft.next_fast_len(2 * (u.trunc[0] + v.trunc[0]) + 2, real=True),
        _fft.next_fast_len(2 * (u.trunc[1] + v.trunc[1]) + 2, real=True),
    )
    gu = inverse_transform(u, M)
    gv = inverse_transform(v, M)
    pp = product_parity(u.parity, v.parity)
    N_out = (u.trunc[0] + v.trunc[0], u.trunc[1] + v.trunc[1])
    prod = forward_transform(GridField(u.box, gu.samples * gv.samples), pp, N_out)
    return field_integral(prod)


def restriction_variances(parent: BoxDomain, eps: float, subbox: BoxDomain,
                          K, N_parent, tau: CutoffProfile = INDICATOR) -> np.ndarray:
    """Exact per-coefficient variances of the restricted field."""
    K = _pair(K)
    N_parent = _pair(N_parent)
    k1 = np.arange(N_parent[0] + 1)[:, None] * (eps / parent.sides[0])
    k2 = np.arange(N_parent[1] + 1)[None, :] * (eps / parent.sides[1])
    w = tau(k1, k2) ** 2
    z1 = subbox.origin[0] - parent.origin[0]
    z2 = subbox.origin[1] - parent.origin[1]
    B1 = b_matrix(N_parent[0], K[0], z1, subbox.sides[0], parent.sides[0])
    B2 = b_matrix(N_parent[1], K[1], z2, subbox.sides[1], parent.sides[1])
    return (B1**2).T @ w @ (B2**2)
