"""Fast invariant battery behind the `selftest` subcommand: one line per
check, nonzero count on any failure.  An exception inside a check fails
that check alone, and the later checks still run."""

from __future__ import annotations

import numpy as np


def run(verbose: bool = True) -> int:
    checks = []

    def check(name):
        """Run the decorated function at once as the check ``name``."""
        def run_check(fn):
            try:
                ok, why = bool(fn()), ""
            except Exception as exc:
                ok, why = False, f": {type(exc).__name__}"
            checks.append(ok)
            if verbose:
                print(f"{'PASS' if ok else 'FAIL'}  {name}{why}")
        return run_check

    from .geometry import (
        DIRICHLET, NEUMANN, BoxDomain, GridField, SpectralField,
        forward_transform, inverse_transform,
    )
    from .calculus import make_partition, resolvent, multiplier
    from .paraproducts import bony_split, plain_product
    from .noise import SMOOTH, expectation_field, renorm_constant, sample
    from .hamiltonian import assemble, eigenvalues, ims_partition
    from . import solvers

    rng = np.random.default_rng(0)
    box = BoxDomain.square(1.0)
    u = SpectralField(box, NEUMANN, rng.standard_normal((17, 17)))

    @check("transform round trip")
    def _():
        rt = forward_transform(inverse_transform(u, (40, 40)), NEUMANN, (16, 16))
        return np.abs(rt.coeffs - u.coeffs).max() < 1e-12

    P = make_partition(8)
    y = np.linspace(0, 200, 4001)

    @check("partition sums to 1")
    def _():
        return np.abs(sum(P.rho(j, y) for j in range(-1, 9)) - 1).max() < 1e-12

    @check("partition squares in [1/2, 1]")
    def _():
        sq = sum(P.rho(j, y) ** 2 for j in range(-1, 9))
        return sq.min() > 0.5 - 1e-12 and sq.max() < 1 + 1e-12

    @check("resolvent inverse")
    def _():
        v = multiplier(resolvent(u), lambda x1, x2: 1 + np.pi**2 * (x1**2 + x2**2))
        return np.abs(v.coeffs - u.coeffs).max() < 1e-12

    @check("bony decomposition exact")
    def _():
        f = SpectralField(box, DIRICHLET, np.pad(rng.standard_normal((12, 12)), ((1, 0), (1, 0))))
        x = SpectralField(box, NEUMANN, rng.standard_normal((13, 13)))
        return np.abs((bony_split(f, x).total() - plain_product(f, x)).coeffs).max() < 1e-10

    @check("noise determinism")
    def _():
        return np.array_equal(sample(box, 12, 7).coeffs, sample(box, 12, 7).coeffs)

    @check("expectation field corner identity")
    def _():
        ef = expectation_field(0.2, box, SMOOTH, 16)
        c0 = renorm_constant(0.2, 1.0, SMOOTH)
        return abs(float(ef.eval(np.array([0.0, 0.0]))) - 4 * c0) < 1e-12

    @check("zero-potential spectrum")
    def _():
        r = eigenvalues(assemble(None, box, 16), 3, tol=1e-9)
        exact = np.array([-2, -5, -5]) * np.pi**2
        return np.abs(r.values - exact).max() < 1e-8 and r.residuals.max() <= 1e-9

    @check("LOBPCG matches eigvalsh at dim 64")
    def _():
        op = assemble(SpectralField(box, NEUMANN, rng.standard_normal((7, 7))), box, 8)
        r, ref = eigenvalues(op, 4, vectors=True), np.linalg.eigvalsh(op.apply(np.eye(64)))[::-1]
        res = np.linalg.norm(op.apply(r.vectors) - r.vectors * r.values, axis=0)
        return np.abs(r.values - ref[:4]).max() < 1e-9 and res.max() <= 1e-9

    # dim 25, n = 12 at tol 1e-12 on the degenerate zero-potential spectrum
    # iterates until W is mostly round-off beside [X, P]; Rayleigh-Ritz takes
    # no Gram matrix of its basis, so the kept rows must stay orthonormal
    @check("LOBPCG matches eigvalsh at dim 25, n = 12, orthonormal basis")
    def _():
        worst, real_rr = [0.0], solvers._rayleigh_ritz

        def checked_rr(S, kept, k):
            G = S[0] @ np.swapaxes(S[0], 1, 2) - np.eye(S.shape[2])
            both = kept[:, :, None] & kept[:, None, :]
            worst[0] = max(worst[0], np.abs(np.where(both, G, 0.0)).max())
            return real_rr(S, kept, k)

        op = assemble(None, box, 5)
        ref = np.linalg.eigvalsh(op.apply(np.eye(25)))[::-1]
        solvers._rayleigh_ritz = checked_rr
        try:
            r = eigenvalues(op, 12, tol=1e-12, seed=17)
        finally:
            solvers._rayleigh_ritz = real_rr
        return np.abs(r.values - ref[:12]).max() < 1e-10 and worst[0] <= 1e-12

    # a psi^2 potential of band 2N: every grid M > 2N integrates the ascent
    # step exactly, M = 2N does not
    @check("variational ascent grid alias-free")
    def _():
        from .experiments import _ascent_grid, _normalized_grid, _psi_sq_step

        N = 8
        cpsi = np.zeros((N + 1, N + 1))
        cpsi[1:, 1:] = rng.standard_normal((N, N))
        psi = SpectralField(box, DIRICHLET, cpsi)

        def ascent_step(M):
            V = _normalized_grid(inverse_transform(psi, M).samples ** 2, box.area)
            r, l4sq, grad, *_ = _psi_sq_step(V, box, N, M, 1, 1e-12, None, 0)
            return np.array([r.values[0], l4sq, grad])

        ref = ascent_step(_ascent_grid(N))
        return (np.abs(ascent_step((2 * N + 1,) * 2) - ref).max() < 1e-12
                and np.abs(ascent_step((2 * N,) * 2) - ref).max() > 1e-7)

    # the apply's sine-table matmuls against the public transforms, column
    # by column, on a rectangle with N0 != N1 and M0 != M1
    @check("rectangular apply matches the public transforms")
    def _():
        rect = BoxDomain((0.0, 0.0), (1.0, 1.5))
        op = assemble(SpectralField(rect, NEUMANN, rng.standard_normal((8, 5))), rect, (6, 9))
        X = rng.standard_normal((op.dim, 3))
        ref = np.column_stack([
            op.diag[0] * x + forward_transform(
                GridField(rect, inverse_transform(op.coeff_field(x), op._grid_M).samples
                          * op._v_grid[0]), DIRICHLET, op.trunc).coeffs[1:, 1:].ravel()
            for x in X.T])
        return np.abs(op.apply(X) - ref).max() <= 1e-12 * np.abs(ref).max()

    @check("squared partition sums to 1")
    def _():
        tgrid = np.linspace(-3, 7, 2001)
        return np.abs(ims_partition(2.0, 0.5).sum_sq_1d(tgrid) - 1).max() < 1e-12

    failures = checks.count(False)
    if verbose:
        print(f"{len(checks) - failures}/{len(checks)} checks passed")
    return failures
