"""Correctness checks on the outputs of each workload's rounds.

Each ``check_*`` returns a list of failure messages, empty when the
output passes.  They compare the program with the independent oracles in
``oracle.py`` and with properties the exact answer must have, never with
a stored copy of an earlier output.

Tolerances, fixed before any measurement:

- ``AGREE_TOL = 1e-8``: every solve the studies make asks for a residual
  of at most 1e-8, and a Ritz value with residual r lies within r of an
  eigenvalue of the symmetric matrix.
- ``ORDER_TOL = 1e-9``: the step the program itself allows in a
  nondecreasing sequence of ascent values.
- ``LEVEL_TOL = 1e-9``: the rate-infimum solves run at 1e-10, and the
  level is met by brentq to 1e-12 in mu, so lambda_n at the optimizer
  may sit a few 1e-10 under the level.
- ``CHI_REL = 0.01``: the finite-box deficit of chi at L = 48.
"""

from __future__ import annotations

import math

import numpy as np

from anderbox.geometry import BoxDomain
from anderbox.noise import (
    INDICATOR,
    SMOOTH,
    mollified_band,
    mollify,
    profile_constant,
    restrict,
    sample,
)

import oracle
from workloads import CHI, GROWTH, SCALING

AGREE_TOL = 1e-8
ORDER_TOL = 1e-9
LEVEL_TOL = 1e-9
CHI_REL = 0.01
TWO_PI_INV = 1.0 / (2.0 * math.pi)


def _finite(rows) -> list[str]:
    return [f"non-finite lambda in row {r}" for r in rows if not math.isfinite(r["lambda"])]


def check_agreement(label: str, program, reference, tol: float = AGREE_TOL) -> list[str]:
    program = np.asarray(program, dtype=float)
    reference = np.asarray(reference, dtype=float)
    if program.shape != reference.shape:
        return [f"{label}: {program.size} values against {reference.size} from the oracle"]
    err = float(np.max(np.abs(program - reference)))
    if not err <= tol:
        return [f"{label}: differs from the Galerkin oracle by {err:.3e} > {tol:.0e}"]
    return []


# -- scaling --------------------------------------------------------------

def scaling_sides(seed: int) -> list[dict]:
    """The two sides of a scaling round whose CLI seed is ``seed``:
    box side, mollification, amplitude and noise seeds of each."""
    L, eps, a, beta, R = (SCALING[k] for k in ("L", "eps", "alpha", "beta", "replicas"))
    return [
        {"L": L, "eps": eps, "amp": beta, "seeds": [seed + i for i in range(R)]},
        {"L": L / a, "eps": eps / a, "amp": a * beta,
         "seeds": [seed + R + i for i in range(R)]},
    ]


def scaling_potential(side: dict, seed: int) -> np.ndarray:
    """Cosine coefficients of the potential the study draws for ``seed``."""
    box = BoxDomain.square(side["L"])
    band = mollified_band(box, side["eps"], SMOOTH)[0]
    return mollify(sample(box, band, seed), side["eps"], SMOOTH).coeffs * side["amp"]


def scaling_raw_lambda(row: dict) -> float:
    """Undo the study's renormalisation: the reported value of side A is
    lambda - beta^2 ((1/2pi) log(1/eps) + c_tau), and that of side B is
    lambda / alpha^2 minus the same shift."""
    a, beta, eps = SCALING["alpha"], SCALING["beta"], SCALING["eps"]
    shift = beta**2 * (TWO_PI_INV * math.log(1.0 / eps) + profile_constant(SMOOTH))
    scale = 1.0 if row["L"] == SCALING["L"] else a**2
    return scale * (row["lambda"] + shift)


def check_scaling_rows(rows: list[dict], seed: int) -> list[str]:
    """Row count and labels of one round, then on every replica
    lambda_0 + <V d11, d11> <= lambda_1 <= lambda_0 + sum |c_m| sup |n_m|,
    lambda_0 = -2 pi^2 / L^2."""
    sides = scaling_sides(seed)
    want = [(s["L"], s["eps"], s["amp"], sd) for s in sides for sd in s["seeds"]]
    got = [(r["L"], r["eps"], r["beta"], r["seed"]) for r in rows]
    if got != want or any(r["n"] != 1 for r in rows):
        return [f"scaling round {seed}: rows {got} do not match {want}"]
    errs = _finite(rows)
    by_seed = {sd: s for s in sides for sd in s["seeds"]}
    for r in rows:
        side = by_seed[r["seed"]]
        c = scaling_potential(side, r["seed"])
        lam0 = -2.0 * math.pi**2 / side["L"] ** 2
        lo = lam0 + oracle.first_mode_energy(c, (side["L"], side["L"]))
        hi = lam0 + oracle.sup_bound(c, (side["L"], side["L"]))
        lam = scaling_raw_lambda(r)
        if not lo - AGREE_TOL <= lam <= hi + AGREE_TOL:
            errs.append(f"scaling seed {r['seed']}: lambda_1 = {lam!r} "
                        f"outside [{lo!r}, {hi!r}]")
    return errs


def scaling_oracle(rows: list[dict], seed: int) -> list[str]:
    """Oracle top eigenvalue for the first replica of each side."""
    errs = []
    N = math.ceil(SCALING["nu"] * SCALING["L"])
    for side in scaling_sides(seed):
        sd = side["seeds"][0]
        row = next(r for r in rows if r["seed"] == sd)
        A = oracle.galerkin_matrix(scaling_potential(side, sd), (side["L"],) * 2, (N, N))
        errs += check_agreement(f"scaling seed {sd}", [scaling_raw_lambda(row)],
                                oracle.top_eigenvalues(A, 1))
    return errs


# -- growth ---------------------------------------------------------------

def check_growth_rows(rows: list[dict], summary: dict, seed: int) -> list[str]:
    """Row count and labels, descending values per (seed, L), and zero
    pathwise monotonicity violations in L for each of the n_eigs values."""
    ladder, n_eigs, R = GROWTH["L_ladder"], GROWTH["n_eigs"], GROWTH["replicas"]
    want = [(L, sd, n) for sd in range(seed, seed + R) for L in ladder
            for n in range(1, n_eigs + 1)]
    got = [(r["L"], r["seed"], r["n"]) for r in rows]
    if got != want:
        return [f"growth round {seed}: rows {got} do not match {want}"]
    errs = _finite(rows)
    lam = np.array([r["lambda"] for r in rows]).reshape(R, len(ladder), n_eigs)
    for i in range(R):
        for j, L in enumerate(ladder):
            if np.any(np.diff(lam[i, j]) > 0.0):
                errs.append(f"growth seed {seed + i} L={L:g}: values not descending "
                            f"{lam[i, j].tolist()}")
        for n in range(n_eigs):
            bad = np.diff(lam[i, :, n]) < -GROWTH["slack"]
            if np.any(bad):
                errs.append(f"growth seed {seed + i} lambda_{n + 1}: decreases in L "
                            f"{lam[i, :, n].tolist()}")
    if summary.get("mono_violations") != 0:
        errs.append(f"growth round {seed}: study reports "
                    f"{summary.get('mono_violations')} monotonicity violations")
    return errs


def growth_potentials(seed: int):
    """(box side, truncation, cosine coefficients) of every rung of the
    coupled ladder for one replica: one parent draw on the largest box,
    restricted to centred sub-boxes."""
    ladder, eps, beta, nu = (GROWTH[k] for k in ("L_ladder", "eps", "beta", "nu"))
    Lmax = ladder[-1]
    parent = BoxDomain.square(Lmax)
    draw = sample(parent, max(mollified_band(parent, eps, INDICATOR)[0], 1), seed)
    for L in ladder:
        N = math.ceil(nu * L)
        y = (Lmax - L) / 2.0
        pot = restrict(draw, eps, BoxDomain((y, y), (L, L)), 2 * N, INDICATOR)
        yield L, N, pot.coeffs * beta


def growth_oracle(rows: list[dict], summary: dict, seed: int) -> list[str]:
    """Oracle top-n_eigs values on every rung for the round's first seed."""
    errs = []
    n = GROWTH["n_eigs"]
    shift = summary["c_subtracted"]
    for L, N, c in growth_potentials(seed):
        prog = [r["lambda"] + shift for r in rows if r["seed"] == seed and r["L"] == L]
        ref = oracle.top_eigenvalues(oracle.galerkin_matrix(c, (L, L), (N, N)), n)
        errs += check_agreement(f"growth seed {seed} L={L:g}", prog, ref)
    return errs


# -- variational ----------------------------------------------------------

def check_variational(chi: dict, rate_inf: dict, chi_ref: float) -> list[str]:
    """chi at the largest L within CHI_REL of the shooting value,
    nondecreasing per-L values, and for the rate infimum
    energy >= 2 level / chi_ref (Hoelder plus the sharp Ladyzhenskaya
    constant) and dual_lambda >= level."""
    errs = []
    per_L = dict(sorted((float(L), v) for L, v in chi["per_L"].items()))
    if tuple(per_L) != CHI["L_ladder"]:
        errs.append(f"chi reports box sides {list(per_L)}, not {CHI['L_ladder']}")
    per_L = list(per_L.values())
    rel = abs(chi["chi"] - chi_ref) / chi_ref
    if not rel <= CHI_REL:
        errs.append(f"chi {chi['chi']!r} is {rel:.2%} from the oracle {chi_ref!r}")
    if any(b < a - ORDER_TOL for a, b in zip(per_L, per_L[1:])):
        errs.append(f"chi per-L values decrease: {per_L}")
    level = rate_inf["level"]
    if not rate_inf["energy"] >= 2.0 * level / chi_ref:
        errs.append(f"rate infimum energy {rate_inf['energy']!r} below the "
                    f"bound 2 level / chi = {2.0 * level / chi_ref!r}")
    if not rate_inf["dual_lambda"] >= level - LEVEL_TOL:
        errs.append(f"dual lambda {rate_inf['dual_lambda']!r} below the level {level!r}")
    return errs
