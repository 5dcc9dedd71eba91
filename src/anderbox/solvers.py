"""Symmetric eigensolver for the top of the spectrum: preconditioned
LOBPCG (Knyazev, SIAM J. Sci. Comput. 23, 2001) that runs a stack of
same-shape problems in one loop and accepts results only on true
residuals ``|Av - lambda v|``."""

from __future__ import annotations

import numpy as np

from .errors import ConvergenceError

LOBPCG_MAXITER = 200  # iterations per LOBPCG run
LOBPCG_RERUNS = 2     # warm re-runs from the returned block on a residual miss
GUARD = 2             # extra, unjudged columns iterated when n > 1
DROP = 1e-10          # relative Gram eigenvalue below which a direction is dependent


def _mT(a):
    return np.swapaxes(a, -1, -2)


def _orthonormalizer(G):
    """Z with Z^T G Z = I for each Gram matrix of the stack G (b, m, m),
    from the unit-scaled columns; directions with a scaled eigenvalue
    under DROP times the largest, and zero columns, become zero columns
    of Z.  Returns Z and the mask of its nonzero columns."""
    # round-off can leave a Gram diagonal slightly below zero
    d = np.sqrt(np.maximum(np.einsum("bii->bi", G), 0.0))
    inv = np.divide(1.0, d, out=np.zeros_like(d), where=d > 0)
    g, U = np.linalg.eigh(G * inv[:, :, None] * inv[:, None, :])
    kept = g > DROP * g[:, -1:]
    scale = np.where(kept, 1.0 / np.sqrt(np.where(kept, g, 1.0)), 0.0)
    return inv[:, :, None] * U * scale[:, None, :], kept


def _rayleigh_ritz(GH, k):
    """Top k Ritz values (descending) of each problem on a basis whose
    first k columns are X, from its Gram matrices and projections GH
    (2, b, m, m), with coefficients (b, m, 2k): the Ritz vectors', then
    the next P's, which is their non-X part made orthonormal and
    orthogonal to them, so it stays well conditioned (Duersch, Shao, Yang
    and Gu, SIAM J. Sci. Comput. 40, 2018)."""
    G, H = GH
    Z, kept = _orthonormalizer(G)
    Hr = _mT(Z) @ (0.5 * (H + _mT(H))) @ Z
    m = np.arange(Hr.shape[1])  # dropped directions go under every real one
    Hr[:, m, m] -= np.where(kept, 0.0, 2.0 * np.abs(Hr).max(axis=(1, 2))[:, None] + 1.0)
    theta, Y = np.linalg.eigh(Hr)
    C = Z @ Y[:, :, :-k - 1:-1]
    P = C.copy()
    P[:, :k] = 0.0
    P -= C @ (_mT(C) @ (G @ P))
    P = P @ _orthonormalizer(_mT(P) @ G @ P)[0]
    return theta[:, :-k - 1:-1], np.concatenate([C, P], axis=2)


def _iterate(apply_rows, X, precond, n, tol, which):
    """One LOBPCG run of the problems ``which`` from the row blocks X
    (b, k, dim); a problem leaves the stack once its first n residuals
    are at most ``tol``.  Returns its Ritz values and unit row vectors.

    ``XP`` pairs [X, P] with [AX, AP] as (2, b, 2k, dim).  Each step's
    directions W are made orthonormal and orthogonal to X and P before
    they are applied, so the basis [X, P, W] stays well conditioned."""
    b, k, dim = X.shape
    vals_out, X_out = np.empty((b, k)), np.empty_like(X)
    XP = np.stack([X, apply_rows(X, which)])
    vals, CC = _rayleigh_ritz(XP[0] @ _mT(XP), k)
    XP = _mT(CC) @ XP  # P starts at zero
    live = np.arange(b)
    for _ in range(LOBPCG_MAXITER):
        R = XP[1, :, :k] - vals[:, :, None] * XP[0, :, :k]
        res = np.linalg.norm(R, axis=2)
        done = np.all(res[:, :n] <= tol, axis=1)
        if done.any():
            vals_out[live[done]], X_out[live[done]] = vals[done], XP[0, done, :k]
            live, which, precond = live[~done], which[~done], precond[~done]
            if not live.size:
                break
            XP, R, res, vals = XP[:, ~done], R[~done], res[~done], vals[~done]
        W = R  # soft locking: converged columns add no directions
        W *= precond[:, None, :] * (res > tol)[:, :, None]
        W -= (W @ _mT(XP[0])) @ XP[0]
        W = _mT(_orthonormalizer(W @ _mT(W))[0]) @ W
        S = np.empty((2, len(live), 3 * k, dim))
        S[:, :, :2 * k] = XP
        S[0, :, 2 * k:] = W
        S[1, :, 2 * k:] = apply_rows(W, which)
        del XP, R, W  # one basis alive at a time, not two
        vals, CC = _rayleigh_ritz(S[0] @ _mT(S), k)
        XP = _mT(CC) @ S
        del S
    else:
        vals_out[live], X_out[live] = vals, XP[0, :, :k]
    return vals_out, X_out / np.linalg.norm(X_out, axis=2, keepdims=True)


def lobpcg_top(apply_fn, n: int, precond: np.ndarray, v0: np.ndarray | None = None,
               tol: float = 1e-9, seed=0):
    """Top-n eigenpairs of each of B symmetric problems of one dimension,
    by LOBPCG in one loop over the stack.

    ``apply_fn(block, which)`` maps the (len(which), dim, k) block of the
    problems ``which`` (indices into the stack) to A times it.  ``precond``
    (B, dim) is the diagonal of a positive preconditioner for each
    problem's ``sigma - A``.  ``v0`` (B, dim, m), m <= n, seeds the start
    blocks; other columns are drawn from ``seed`` (an int, or one per
    problem).  For n > 1 the blocks carry ``GUARD`` extra columns.  A
    problem is accepted when its true residuals from a fresh apply are at
    most ``tol``; the others re-run from the blocks they returned, up to
    ``LOBPCG_RERUNS`` times.

    Returns (values (B, n) descending, vectors (B, dim, n), true residuals
    (B, n)); raises ConvergenceError with the (B, n) residuals on a miss.
    """
    B, dim = precond.shape
    k = min(n + GUARD if n > 1 else n, dim)
    X = np.stack([np.random.default_rng(int(s)).standard_normal((k, dim))
                  for s in np.broadcast_to(seed, B)])
    if v0 is not None:
        v0 = _mT(np.asarray(v0, dtype=float))[:, :n]
        X[:, :v0.shape[1]] = v0

    def apply_rows(rows, which):
        # the solver keeps blocks as rows (b, k, dim), the operator's layout
        return _mT(apply_fn(_mT(rows), which))

    vals, res, todo = np.empty((B, k)), np.full((B, n), np.inf), np.arange(B)
    for _ in range(LOBPCG_RERUNS + 1):
        vals[todo], X[todo] = _iterate(apply_rows, X[todo], precond[todo], n, tol, todo)
        Xn = X[todo, :n]
        res[todo] = np.linalg.norm(apply_rows(Xn, todo) - vals[todo, :n, None] * Xn, axis=2)
        todo = todo[np.any(res[todo] > tol, axis=1)]
        if not todo.size:
            return vals[:, :n], _mT(X[:, :n]), res
    raise ConvergenceError(
        f"LOBPCG missed tol {tol:g} on {todo.size} of {B} problems after "
        f"{LOBPCG_RERUNS + 1} runs of {LOBPCG_MAXITER} iterations; worst true "
        f"residual per problem {res.max(axis=1)}", residuals=res)
