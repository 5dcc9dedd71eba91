"""Symmetric eigensolvers for the top of the spectrum: a dense LAPACK
wrapper, and preconditioned LOBPCG (Knyazev, SIAM J. Sci. Comput. 23,
2001) for matrix-free operators, whose results are accepted only on true
residuals ``|Av - lambda v|``."""

from __future__ import annotations

import warnings

import numpy as np
from scipy import linalg as _la
from scipy.sparse.linalg import lobpcg

from .errors import ConvergenceError

LOBPCG_MAXITER = 200  # iterations per LOBPCG run
LOBPCG_RERUNS = 2     # warm re-runs from the returned block on a residual miss


def dense_top_eigs(A: np.ndarray, n: int, vectors: bool = True):
    """Top-n eigenpairs of a symmetric matrix, descending."""
    dim = A.shape[0]
    n = min(n, dim)
    vals, vecs = _la.eigh(A, subset_by_index=[dim - n, dim - 1])
    order = np.argsort(vals)[::-1]
    return vals[order], (vecs[:, order] if vectors else None)


def lobpcg_top(apply_fn, dim: int, n: int, precond: np.ndarray,
               v0: np.ndarray | None = None, tol: float = 1e-9, seed: int = 0):
    """Top-n eigenpairs of a symmetric operator by LOBPCG on ``-A``.

    ``apply_fn`` maps a (dim, k) block to A times it, in one call per block.
    ``precond`` holds the diagonal of a positive preconditioner for ``-A``
    and ``v0`` (one vector or up to n columns) seeds the start block; the
    remaining columns are drawn from ``seed``.  A result is accepted when
    every true residual is at most ``tol``; otherwise LOBPCG re-runs from
    the block it returned, up to ``LOBPCG_RERUNS`` times.

    Returns (values descending, vectors (dim, n), true residuals).
    Raises ConvergenceError with the residual report when ``tol`` is missed.
    """
    X = np.random.default_rng(seed).standard_normal((dim, n))
    if v0 is not None:
        v0 = np.asarray(v0, dtype=float).reshape(dim, -1)[:, :n]
        X[:, : v0.shape[1]] = v0

    def neg_a(block):
        return -apply_fn(block)

    def precondition(block):
        return block * precond[:, None]

    for _ in range(LOBPCG_RERUNS + 1):
        with warnings.catch_warnings():
            # non-convergence is judged below on true residuals
            warnings.simplefilter("ignore", UserWarning)
            neg_vals, X = lobpcg(neg_a, X, M=precondition, tol=tol,
                                 maxiter=LOBPCG_MAXITER, largest=False)
        order = np.argsort(neg_vals)
        vals = -neg_vals[order]
        X = X[:, order]
        res = np.linalg.norm(apply_fn(X) - X * vals, axis=0)
        if np.all(res <= tol):
            return vals, X, res
    raise ConvergenceError(
        f"LOBPCG missed tol {tol:g} after {LOBPCG_RERUNS + 1} runs of "
        f"{LOBPCG_MAXITER} iterations; true residuals {res}",
        residuals=res,
    )
