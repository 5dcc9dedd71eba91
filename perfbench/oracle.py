"""Reference solutions the benchmark checks the program against.

Nothing here calls the program's operator assembly, transforms or
eigensolvers:

- ``galerkin_matrix`` builds the Galerkin matrix of Laplacian + V on the
  Dirichlet modes 1..N of a box from closed-form 1-d integrals, for a
  potential given by its coefficients against the orthonormal cosine
  (Neumann) basis; ``top_eigenvalues`` solves it with ARPACK.
- ``shooting_ground_state`` solves the radial ground-state ODE of the
  planar cubic equation, whose L2 norm fixes the variational constant.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.integrate import solve_ivp
from scipy.sparse.linalg import eigsh


def _nu(m: np.ndarray) -> np.ndarray:
    return np.where(m == 0, 2.0 ** -0.5, 1.0)


def cosine_sine_sine(K: int, N: int, s: float) -> np.ndarray:
    """T[m, k-1, l-1] = int_0^s n_m d_k d_l for m = 0..K and k, l = 1..N.

    With n_m = nu_m sqrt(2/s) cos(pi m x/s) and d_k = sqrt(2/s) sin(pi k x/s),
    d_k d_l = (cos(pi (k-l) x/s) - cos(pi (k+l) x/s)) / s, so the integral
    is nonzero only where m = |k - l| or m = k + l:

        m = 0:  delta_kl / sqrt(s)
        m > 0:  ([m = |k-l|] - [m = k+l]) / sqrt(2 s)
    """
    m = np.arange(K + 1)[:, None, None]
    k = np.arange(1, N + 1)[None, :, None]
    l = np.arange(1, N + 1)[None, None, :]
    diff = (m == np.abs(k - l)).astype(float)
    summ = (m == k + l).astype(float)
    return np.where(m == 0, diff / math.sqrt(s), (diff - summ) / math.sqrt(2.0 * s))


def galerkin_matrix(coeffs, sides, N) -> np.ndarray:
    """Dense matrix of Laplacian + V on the Dirichlet modes (k1, k2),
    k_i = 1..N_i, flattened row-major as (k1 - 1) * N2 + (k2 - 1).

    ``coeffs`` holds V's coefficients c[m1, m2] against the orthonormal
    cosine basis of the box, ``None`` for V = 0:

        A = -pi^2 |k/s|^2 delta + sum_m c_m T1_{m1} (x) T2_{m2}
    """
    N1, N2 = N
    s1, s2 = sides
    k1 = np.arange(1, N1 + 1)[:, None] / s1
    k2 = np.arange(1, N2 + 1)[None, :] / s2
    diag = (-np.pi**2 * (k1**2 + k2**2)).ravel()
    if coeffs is None:
        return np.diag(diag)
    c = np.asarray(coeffs, dtype=float)
    T1 = cosine_sine_sine(c.shape[0] - 1, N1, s1)
    T2 = cosine_sine_sine(c.shape[1] - 1, N2, s2)
    # P[b, k1, l1] = sum_a c[a, b] T1[a, k1, l1], then contract b with T2
    P = np.tensordot(c, T1, axes=([0], [0]))
    A = np.tensordot(P, T2, axes=([0], [0]))          # (k1, l1, k2, l2)
    A = A.transpose(0, 2, 1, 3).reshape(N1 * N2, N1 * N2)
    A[np.diag_indices_from(A)] += diag
    return A


def top_eigenvalues(A: np.ndarray, n: int) -> np.ndarray:
    """Top-n eigenvalues of a symmetric matrix, descending, to ARPACK's
    machine-precision tolerance from a fixed start vector."""
    v0 = np.random.default_rng(0).standard_normal(A.shape[0])
    vals = eigsh(A, k=n, which="LA", tol=0.0, v0=v0, return_eigenvectors=False)
    return np.sort(vals)[::-1]


def first_mode_energy(coeffs, sides) -> float:
    """<V d_11, d_11>: the potential's part of the Rayleigh quotient of
    the lowest Dirichlet mode."""
    c = np.asarray(coeffs, dtype=float)
    t1 = cosine_sine_sine(c.shape[0] - 1, 1, sides[0])[:, 0, 0]
    t2 = cosine_sine_sine(c.shape[1] - 1, 1, sides[1])[:, 0, 0]
    return float(t1 @ c @ t2)


def sup_bound(coeffs, sides) -> float:
    """sum_m |c_m| sup |n_m| >= sup V for V = sum_m c_m n_m."""
    c = np.asarray(coeffs, dtype=float)
    w1 = _nu(np.arange(c.shape[0])) * math.sqrt(2.0 / sides[0])
    w2 = _nu(np.arange(c.shape[1])) * math.sqrt(2.0 / sides[1])
    return float(w1 @ np.abs(c) @ w2)


def shooting_ground_state() -> tuple[float, float, float]:
    """Radial ground state of Lap Q - Q + Q^3 = 0 by shooting on Q(0).

    Returns (Q(0), |Q|_2^2, 2 / |Q|_2^2); the last is the variational
    constant chi, by the sharp planar Ladyzhenskaya inequality.  Both
    Pohozaev identities are checked to 1e-6 before returning.
    """

    def integrate(q0, r_max=30.0):
        def rhs(r, y):
            Q, P = y
            return [P, Q - Q**3 - P / r]

        r0 = 1e-6
        y0 = [q0 + (q0 - q0**3) * r0**2 / 4, (q0 - q0**3) * r0 / 2]

        def hit_zero(r, y):
            return y[0]

        def turn_up(r, y):
            return y[1]

        hit_zero.terminal = turn_up.terminal = True
        hit_zero.direction = -1
        turn_up.direction = 1
        sol = solve_ivp(rhs, (r0, r_max), y0, events=[hit_zero, turn_up],
                        rtol=1e-12, atol=1e-14, dense_output=True, max_step=0.05)
        return sol, len(sol.t_events[0]) > 0

    # overshooting Q(0) crosses zero, undershooting turns back up; 64
    # halvings of [1, 4] reach the spacing of doubles near Q(0) ~ 2.2
    lo, hi = 1.0, 4.0
    for _ in range(64):
        mid = 0.5 * (lo + hi)
        if integrate(mid)[1]:
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
    if abs(grad / l2 - 1.0) > 1e-6 or abs(l4 / (2 * l2) - 1.0) > 1e-6:
        raise ArithmeticError("shooting solution fails a Pohozaev identity")
    return q0, float(l2), float(2.0 / l2)
