"""Fast invariant battery behind the `selftest` subcommand: one line per
check, nonzero count on any failure."""

from __future__ import annotations

import numpy as np


def run(verbose: bool = True) -> int:
    checks = []

    def check(name, ok):
        checks.append((name, bool(ok)))
        if verbose:
            print(f"{'PASS' if ok else 'FAIL'}  {name}")

    from .geometry import (
        DIRICHLET, NEUMANN, BoxDomain, SpectralField,
        forward_transform, inverse_transform,
    )
    from .calculus import make_partition, resolvent, multiplier
    from .paraproducts import bony_split, plain_product
    from .noise import SMOOTH, expectation_field, renorm_constant, sample
    from .hamiltonian import assemble, eigenvalues, ims_partition

    rng = np.random.default_rng(0)
    box = BoxDomain.square(1.0)

    c = rng.standard_normal((17, 17))
    u = SpectralField(box, NEUMANN, c)
    rt = forward_transform(inverse_transform(u, (40, 40)), NEUMANN, (16, 16))
    check("transform round trip", np.abs(rt.coeffs - c).max() < 1e-12)

    P = make_partition(8)
    y = np.linspace(0, 200, 4001)
    tot = sum(P.rho(j, y) for j in range(-1, 9))
    check("partition sums to 1", np.abs(tot - 1).max() < 1e-12)
    sq = sum(P.rho(j, y) ** 2 for j in range(-1, 9))
    check("partition squares in [1/2, 1]", sq.min() > 0.5 - 1e-12 and sq.max() < 1 + 1e-12)

    v = multiplier(resolvent(u), lambda x1, x2: 1 + np.pi**2 * (x1**2 + x2**2))
    check("resolvent inverse", np.abs(v.coeffs - u.coeffs).max() < 1e-12)

    f = SpectralField(box, DIRICHLET, np.pad(rng.standard_normal((12, 12)), ((1, 0), (1, 0))))
    x = SpectralField(box, NEUMANN, rng.standard_normal((13, 13)))
    t = bony_split(f, x)
    check("bony decomposition exact",
          np.abs((t.total() - plain_product(f, x)).coeffs).max() < 1e-10)

    d1 = sample(box, 12, 7)
    d2 = sample(box, 12, 7)
    check("noise determinism", np.array_equal(d1.coeffs, d2.coeffs))

    eps = 0.2
    ef = expectation_field(eps, box, SMOOTH, 16)
    c0 = renorm_constant(eps, 1.0, SMOOTH)
    check("expectation field corner identity",
          abs(float(ef.eval(np.array([0.0, 0.0]))) - 4 * c0) < 1e-12)

    r = eigenvalues(assemble(None, box, 16), 3, tol=1e-9)
    exact = np.array([-2, -5, -5]) * np.pi**2
    check("zero-potential spectrum",
          np.abs(r.values - exact).max() < 1e-8 and r.residuals.max() <= 1e-9)

    # a psi^2 potential of band 2N: every grid M > 2N integrates the ascent
    # step exactly, M = 2N does not
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
    check("variational ascent grid alias-free",
          np.abs(ascent_step((2 * N + 1,) * 2) - ref).max() < 1e-12
          and np.abs(ascent_step((2 * N,) * 2) - ref).max() > 1e-7)

    ims = ims_partition(2.0, 0.5)
    tgrid = np.linspace(-3, 7, 2001)
    check("squared partition sums to 1",
          np.abs(ims.sum_sq_1d(tgrid) - 1).max() < 1e-12)

    failures = sum(1 for _, ok in checks if not ok)
    if verbose:
        print(f"{len(checks) - failures}/{len(checks)} checks passed")
    return failures
