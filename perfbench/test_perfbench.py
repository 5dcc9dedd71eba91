"""Tests of the benchmark's oracles and checks:

    python3 -m pytest -q perfbench

The oracle must reproduce closed-form spectra, and every check must pass
on an exact result and fail on one perturbed by a small amount.
"""

import math
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import checks  # noqa: E402
import oracle  # noqa: E402
from workloads import CHI, GROWTH, SCALING  # noqa: E402


# -- oracle ---------------------------------------------------------------

@pytest.mark.parametrize("L", [1.0, 4.0])
def test_zero_potential_spectrum(L):
    vals = oracle.top_eigenvalues(oracle.galerkin_matrix(None, (L, L), (16, 16)), 4)
    exact = np.array([-2.0, -5.0, -5.0, -8.0]) * np.pi**2 / L**2
    assert np.max(np.abs(vals - exact)) <= 1e-12 * np.max(np.abs(exact))


def test_constant_potential_shifts_spectrum():
    L, v = 4.0, 0.7
    c = np.zeros((5, 5))
    c[0, 0] = v * L                       # V = v = v L n_00 on the square
    base = oracle.top_eigenvalues(oracle.galerkin_matrix(None, (L, L), (12, 12)), 4)
    shifted = oracle.top_eigenvalues(oracle.galerkin_matrix(c, (L, L), (12, 12)), 4)
    assert np.max(np.abs(shifted - base - v)) <= 1e-12


def test_one_dimensional_integrals_against_quadrature():
    s, K, N = 2.5, 9, 6
    x = (np.arange(20000) + 0.5) * s / 20000
    m, k = np.arange(K + 1), np.arange(1, N + 1)
    n = np.where(m == 0, 2**-0.5, 1.0)[:, None] * np.sqrt(2 / s) * np.cos(np.pi * np.outer(m, x) / s)
    d = np.sqrt(2 / s) * np.sin(np.pi * np.outer(k, x) / s)
    quad = np.einsum("mx,kx,lx->mkl", n, d, d) * (s / x.size)
    assert np.max(np.abs(oracle.cosine_sine_sine(K, N, s) - quad)) < 1e-7


def test_shooting_ground_state_mass():
    q0, mass, chi = oracle.shooting_ground_state()
    assert abs(mass - 11.7009) < 1e-3      # the Townes profile's L2 mass
    assert chi == pytest.approx(2.0 / mass)


# -- agreement -----------------------------------------------------------

def test_agreement_check():
    ref = np.array([-1.25, -2.5])
    assert checks.check_agreement("x", ref, ref) == []
    assert checks.check_agreement("x", ref + [0.0, 1e-6], ref)
    assert checks.check_agreement("x", ref[:1], ref)


# -- scaling --------------------------------------------------------------

def _scaling_rows(seed, raw_of):
    """Rows as the study reports them, for raw eigenvalues raw_of(side, seed)."""
    a, beta, eps = SCALING["alpha"], SCALING["beta"], SCALING["eps"]
    shift = beta**2 * ((1 / (2 * math.pi)) * math.log(1 / eps)
                       + checks.profile_constant(checks.SMOOTH))
    rows = []
    for i, side in enumerate(checks.scaling_sides(seed)):
        for sd in side["seeds"]:
            lam = raw_of(side, sd) / (a**2 if i else 1.0) - shift
            rows.append({"L": side["L"], "eps": side["eps"], "beta": side["amp"],
                         "seed": sd, "n": 1, "lambda": lam, "wall_ms": 1.0})
    return rows


def _first_mode_value(side, sd):
    c = checks.scaling_potential(side, sd)
    return -2 * math.pi**2 / side["L"] ** 2 + oracle.first_mode_energy(c, (side["L"],) * 2)


def test_scaling_row_checks():
    seed = 40
    rows = _scaling_rows(seed, _first_mode_value)       # at the lower bound
    assert checks.check_scaling_rows(rows, seed) == []
    low = [dict(r) for r in rows]
    low[1]["lambda"] -= 1e-6
    assert checks.check_scaling_rows(low, seed)
    assert checks.check_scaling_rows(rows[:-1], seed)
    relabel = [dict(r) for r in rows]
    relabel[0]["seed"] += 1
    assert checks.check_scaling_rows(relabel, seed)


def test_scaling_upper_bound_check():
    seed = 40

    def at_upper(side, sd):
        c = checks.scaling_potential(side, sd)
        return -2 * math.pi**2 / side["L"] ** 2 + oracle.sup_bound(c, (side["L"],) * 2)

    rows = _scaling_rows(seed, at_upper)
    assert checks.check_scaling_rows(rows, seed) == []
    high = [dict(r) for r in rows]
    high[2]["lambda"] += 1e-6
    assert checks.check_scaling_rows(high, seed)


def test_scaling_oracle_check():
    seed = 40
    N = math.ceil(SCALING["nu"] * SCALING["L"])

    def exact(side, sd):
        A = oracle.galerkin_matrix(checks.scaling_potential(side, sd), (side["L"],) * 2, (N, N))
        return float(oracle.top_eigenvalues(A, 1)[0])

    rows = _scaling_rows(seed, exact)
    assert checks.scaling_oracle(rows, seed) == []
    off = [dict(r) for r in rows]
    off[0]["lambda"] += 1e-6
    assert checks.scaling_oracle(off, seed)


# -- growth ---------------------------------------------------------------

def _growth_round(seed):
    """Exact rows and summary of a growth round whose CLI seed is ``seed``."""
    shift = 0.3
    rows = []
    for sd in range(seed, seed + GROWTH["replicas"]):
        for L, N, c in checks.growth_potentials(sd):
            vals = oracle.top_eigenvalues(oracle.galerkin_matrix(c, (L, L), (N, N)),
                                          GROWTH["n_eigs"])
            rows += [{"L": L, "eps": GROWTH["eps"], "beta": GROWTH["beta"], "seed": sd,
                      "n": n, "lambda": float(v) - shift, "wall_ms": 1.0}
                     for n, v in enumerate(vals, start=1)]
    return rows, {"mono_violations": 0, "c_subtracted": shift}


@pytest.fixture(scope="module")
def growth_round():
    return _growth_round(70)


def test_growth_row_checks(growth_round):
    rows, summary = growth_round
    assert checks.check_growth_rows(rows, summary, 70) == []
    assert checks.check_growth_rows(rows[:-1], summary, 70)
    swapped = [dict(r) for r in rows]
    swapped[1]["lambda"], swapped[2]["lambda"] = rows[2]["lambda"], rows[1]["lambda"]
    assert checks.check_growth_rows(swapped, summary, 70)
    assert checks.check_growth_rows(rows, dict(summary, mono_violations=1), 70)


def test_growth_monotonicity_check():
    # lambda_2 of the top rung set just under that of the middle rung
    rows = [{"L": L, "eps": 0.25, "beta": 1.0, "seed": sd, "n": n,
             "lambda": -n + 0.1 * j, "wall_ms": 1.0}
            for sd in range(70, 70 + GROWTH["replicas"])
            for j, L in enumerate(GROWTH["L_ladder"]) for n in range(1, 5)]
    summary = {"mono_violations": 0}
    assert checks.check_growth_rows(rows, summary, 70) == []
    bad = [dict(r) for r in rows]
    top = len(GROWTH["L_ladder"]) - 1
    i = next(k for k, r in enumerate(bad) if r["n"] == 2 and r["L"] == GROWTH["L_ladder"][top])
    bad[i]["lambda"] = bad[i - 4]["lambda"] - 2 * GROWTH["slack"]
    assert checks.check_growth_rows(bad, summary, 70)


def test_growth_oracle_check(growth_round):
    rows, summary = growth_round
    assert checks.growth_oracle(rows, summary, 70) == []
    off = [dict(r) for r in rows]
    off[3]["lambda"] += 1e-6
    assert checks.growth_oracle(off, summary, 70)


# -- variational ----------------------------------------------------------

CHI_REF = 2.0 / 11.7009


def _variational():
    per_L = {str(L): CHI_REF * (1 - 0.1 / L) for L in CHI["L_ladder"]}
    chi = {"chi": per_L[str(CHI["L_ladder"][-1])], "per_L": per_L}
    rate = {"energy": 2.0 / CHI_REF, "dual_lambda": 1.0, "level": 1.0}
    return chi, rate


def test_variational_checks():
    chi, rate = _variational()
    assert checks.check_variational(chi, rate, CHI_REF) == []
    assert checks.check_variational(dict(chi, chi=CHI_REF * 1.011), rate, CHI_REF)
    per_L = dict(chi["per_L"])
    per_L["32.0"] = per_L["16.0"] - 1e-8
    assert checks.check_variational(dict(chi, per_L=per_L), rate, CHI_REF)
    assert checks.check_variational(chi, dict(rate, energy=2.0 / CHI_REF * (1 - 1e-9)), CHI_REF)
    assert checks.check_variational(chi, dict(rate, dual_lambda=1.0 - 1e-8), CHI_REF)
