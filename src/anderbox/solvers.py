"""Symmetric top-of-spectrum eigensolver: preconditioned LOBPCG (Knyazev,
SIAM J. Sci. Comput. 23, 2001) over a stack of same-shape problems, on a
basis kept orthonormal (Duersch, Shao, Yang and Gu, SIAM J. Sci. Comput. 40,
2018) so Rayleigh-Ritz takes one Gram matrix; true residuals accept results."""

from __future__ import annotations

import numpy as np

from .errors import ConvergenceError

LOBPCG_MAXITER = 200  # iterations per LOBPCG run
LOBPCG_RERUNS = 2     # warm re-runs from the returned block on a residual miss
LOBPCG_STALL = 10     # iterations without a new low of the worst residual end a run
GUARD = 2             # extra, unjudged columns iterated when n > 1
DROP = 1e-10          # dependent below: relative Gram eigenvalue, norm^2 left by projection


def _mT(a):
    return np.swapaxes(a, -1, -2)


def _orthonormal_rows(V, basis=None):
    """Rows of each block of V (b, m, dim) made orthonormal, and their mask:
    projected out of orthonormal rows ``basis`` (b, j, dim) before and after
    (CGS2), rows the first pass leaves with <= sqrt(DROP) of their norm
    dropped, then SVQB (directions under DROP dropped; orthonormal only to
    round-off over its least kept eigenvalue) and Q - (Q Q^T - I) Q / 2."""
    floor = 0.0
    if basis is not None:
        floor = DROP * np.einsum("bkd,bkd->bk", V, V)
        V = V - (V @ _mT(basis)) @ basis
    G = V @ _mT(V)
    d2 = np.einsum("bii->bi", G)
    live = d2 > floor
    inv = live / np.sqrt(np.where(live, d2, 1.0))
    if V.shape[1] == 1:  # SVQB of one row is its unit scaling
        Q, kept = V * inv[:, :, None], live
    else:
        g, U = np.linalg.eigh(G * inv[:, :, None] * inv[:, None, :])
        kept = g > DROP * g[:, -1:]
        Q = _mT(inv[:, :, None] * U * (kept / np.sqrt(np.where(kept, g, 1.0)))[:, None, :]) @ V
    if basis is not None:
        Q -= (Q @ _mT(basis)) @ basis
    Q -= 0.5 * ((Q @ _mT(Q) - kept[:, :, None] * np.eye(Q.shape[1])) @ Q)
    return Q, kept


def _rayleigh_ritz(S, kept, k):
    """Top k Ritz values (descending) on each orthonormal basis S[0] (b, m,
    dim), first k rows X, nonzero rows ``kept`` (b, m), S[1] = A S[0]: the
    projection is the only Gram matrix.  Also returns the coefficients
    (b, m, 2k) of the Ritz vectors and of the next P, their non-X part made
    orthonormal and orthogonal to them, and the row mask of [X, P]."""
    H = S[0] @ _mT(S[1])
    H = 0.5 * (H + _mT(H))
    if not kept.all():  # dropped rows go under the spectrum, bounded by a row sum
        m = np.arange(H.shape[1])
        H[:, m, m] -= np.where(kept, 0.0, 2.0 * np.abs(H).sum(axis=2).max(axis=1)[:, None] + 1.0)
    theta, Y = np.linalg.eigh(H)
    C = Y[:, :, :-k - 1:-1] * kept[:, :, None]
    P = np.concatenate([np.zeros_like(C[:, :k]), C[:, k:]], axis=1)
    P, kept_p = _orthonormal_rows(_mT(P), _mT(C))
    return (theta[:, :-k - 1:-1], np.concatenate([C, _mT(P)], axis=2),
            np.concatenate([np.arange(k) < kept.sum(axis=1)[:, None], kept_p], axis=1))


def _iterate(apply_rows, X, precond, n, tol, which):
    """One LOBPCG run of the problems ``which`` from the row blocks X
    (b, k, dim), each until its first n residuals are at most ``tol``:
    Ritz values and unit rows.  ``S`` is the orthonormal basis [X, P, W]
    and A times it, (2, b, 3k, dim), ``kept`` its nonzero rows; W is made
    orthonormal and orthogonal to [X, P] before it is applied.  The
    residuals of the rotated A X have a round-off floor near 1e-12 of the
    operator's scale, so a problem whose worst residual sets no new low for
    ``LOBPCG_STALL`` iterations leaves too; the caller's fresh apply judges
    it."""
    b, k, dim = X.shape
    vals_out, X_out = np.empty((b, k)), np.empty_like(X)
    X, kept = _orthonormal_rows(X)
    S = np.stack([X, apply_rows(X, which)])
    vals, CC, kept = _rayleigh_ritz(S, kept, k)
    live, best, stall = np.arange(b), np.full(b, np.inf), np.zeros(b, dtype=int)
    for _ in range(LOBPCG_MAXITER):
        S, last = np.empty((2, len(live), 3 * k, dim)), S  # next [X, P]; P starts at 0
        np.matmul(_mT(CC), last, out=S[:, :, :2 * k])
        R = S[1, :, :k] - vals[:, :, None] * S[0, :, :k]
        res = np.sqrt(np.einsum("bkd,bkd->bk", R, R))
        worst = res[:, :n].max(axis=1)
        stall = np.where(worst < best, 0, stall + 1)
        best = np.minimum(best, worst)
        done = (worst <= tol) | (stall >= LOBPCG_STALL)
        if done.any():
            vals_out[live[done]], X_out[live[done]] = vals[done], S[0, done, :k]
            live, which, precond = live[~done], which[~done], precond[~done]
            if not live.size:
                break
            S, R, res, vals, kept = S[:, ~done], R[~done], res[~done], vals[~done], kept[~done]
            best, stall = best[~done], stall[~done]
        W = R * (precond[:, None, :] * (res > tol)[:, :, None])  # soft locking
        W, kept_w = _orthonormal_rows(W, S[0, :, :2 * k])
        S[0, :, 2 * k:] = W
        S[1, :, 2 * k:] = apply_rows(W, which)
        vals, CC, kept = _rayleigh_ritz(S, np.concatenate([kept, kept_w], axis=1), k)
    else:
        vals_out[live], X_out[live] = vals, _mT(CC[:, :, :k]) @ S[0]
    return vals_out, X_out / np.linalg.norm(X_out, axis=2, keepdims=True)


def lobpcg_top(apply_fn, n: int, precond: np.ndarray, v0: np.ndarray | None = None,
               tol: float = 1e-9, seed=0):
    """Top-n eigenpairs of each of B symmetric problems of one dimension,
    by LOBPCG in one loop over the stack.

    ``apply_fn(block, which)`` maps the (len(which), dim, k) block of the
    problems ``which`` (indices into the stack) to A times it.  ``precond``
    (B, dim) is the diagonal of a positive preconditioner for each
    problem's ``sigma - A``; it pays only if it varies over the wanted top
    modes, so its shift should be on the scale of the spectral gap there
    (``hamiltonian.eigenvalues`` takes the Laplacian's top gap, capped at
    |V|_inf + 1).  The shift never decides acceptance, which is on true
    residuals.  ``v0`` (B, dim, m), m <= n, seeds the start
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
    v0 = np.empty((B, 0, dim)) if v0 is None else _mT(np.asarray(v0, dtype=float))[:, :n]
    X = np.empty((B, k, dim))
    if v0.shape[1] < k:  # the columns v0 leaves free are drawn
        X[:] = [np.random.default_rng(int(s)).standard_normal((k, dim))
                for s in np.broadcast_to(seed, B)]
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
