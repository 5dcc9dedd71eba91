"""Desk-scale quantitative studies: eigenvalue growth in the box size, the
scaling-in-distribution law, tail frequencies, small-noise concentration,
and the variational constant matching the planar fourth-power interpolation
inequality.

Every study is a pure function of (config, seed base): rerun equality is
bit-exact on the recorded eigenvalues.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields, asdict
import csv
import math
import time

import numpy as np

from .errors import ContractError, ConvergenceError
from .geometry import (
    BoxDomain,
    SpectralField,
    midpoint_nodes,
    _pair,
)
from .hamiltonian import _laplacian_diag, _operator_grid, assemble, eigenvalues
from .noise import (
    INDICATOR,
    SMOOTH,
    CutoffProfile,
    mollified_band,
    mollify,
    profile_constant,
    restrict,
    sample,
)

TWO_PI_INV = 1.0 / (2.0 * np.pi)


@dataclass
class ExperimentConfig:
    """Knobs shared by the batch studies; unused fields are ignored by
    studies that do not need them."""

    L: float = 4.0
    L_ladder: tuple = (1.0, 2.0, 4.0)
    eps: float = 0.25
    eps_ladder: tuple = (1e-1, 1e-2, 1e-3)
    beta: float = 1.0
    alpha: float = 2.0          # box rescaling factor for the scaling test
    replicas: int = 200
    seed: int = 0
    nu: float = 16.0            # truncation rule N(L) = ceil(nu * L)
    profile: str = "smooth"
    n_eigs: int = 1
    target: float = 1.0         # eigenvalue level for the rate-infimum study
    r: float = 2.0              # tile size for box-bound checks
    a_overlap: float = 1.0
    chi_iters: int = 60
    slack: float = 1e-4
    workers: int = 1
    out: str | None = None

    def __post_init__(self):
        self.L_ladder = tuple(float(x) for x in self.L_ladder)
        self.eps_ladder = tuple(float(x) for x in self.eps_ladder)
        if not self.L_ladder or not self.eps_ladder:
            raise ContractError("L_ladder and eps_ladder must not be empty")
        for f in fields(self):
            v = getattr(self, f.name)
            for x in (v if isinstance(v, tuple) else (v,)):
                if isinstance(x, float) and not math.isfinite(x):
                    raise ContractError(f"{f.name} must be finite, got {v}")
        for key in ("L_ladder", "eps_ladder"):
            if min(getattr(self, key)) <= 0:
                raise ContractError(f"{key} entries must be > 0, got {getattr(self, key)}")
        if list(self.L_ladder) != sorted(self.L_ladder):
            raise ContractError("L ladder must be increasing")
        for key in ("replicas", "n_eigs", "workers", "chi_iters"):
            if getattr(self, key) < 1:
                raise ContractError(f"{key} must be >= 1, got {getattr(self, key)}")
        for key in ("L", "eps", "nu", "alpha", "r", "a_overlap"):
            if not getattr(self, key) > 0:
                raise ContractError(f"{key} must be > 0, got {getattr(self, key)}")
        if self.slack < 0:
            raise ContractError(f"slack must be >= 0, got {self.slack}")
        if self.profile not in ("smooth", "indicator"):
            raise ContractError(f"profile must be smooth or indicator, got {self.profile!r}")

    def cutoff(self) -> CutoffProfile:
        return SMOOTH if self.profile == "smooth" else INDICATOR

    def trunc(self, L: float) -> int:
        return int(math.ceil(self.nu * L))


@dataclass
class StudyRecord:
    rows: list = field(default_factory=list)
    summary: dict = field(default_factory=dict)
    config: dict = field(default_factory=dict)

    def add(self, L, eps, beta, seed, n, lam, wall_ms):
        self.rows.append({
            "L": float(L), "eps": float(eps), "beta": float(beta),
            "seed": int(seed), "n": int(n), "lambda": float(lam),
            "wall_ms": float(wall_ms),
        })

    def lambdas(self, **match) -> np.ndarray:
        vals = [r["lambda"] for r in self.rows
                if all(r[k] == v for k, v in match.items())]
        return np.asarray(vals)

    def to_csv(self, path) -> None:
        cols = ["L", "eps", "beta", "seed", "n", "lambda", "wall_ms"]
        with open(path, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(cols)
            for row in self.rows:
                w.writerow([_fmt17(row[c]) for c in cols])


def _fmt17(x):
    return format(x, ".17g") if isinstance(x, float) else x


STACK = 8  # consecutive seeds whose same-shape problems are solved as one stack


def _map_seeds(fn, args, seeds, workers: int) -> list:
    """``fn((args, group))`` over groups of ``STACK`` consecutive seeds,
    each returning one result per seed; the results in seed order.  The
    groups, and so the stacks, do not depend on ``workers``."""
    tasks = [(args, seeds[i:i + STACK]) for i in range(0, len(seeds), STACK)]
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as ex:
            results = list(ex.map(fn, tasks))
    else:
        results = [fn(t) for t in tasks]
    return [r for group in results for r in group]


# -- growth in the box size -------------------------------------------------

def _growth_group(task):
    """Every rung of the ladder for a group of seeds: each seed's parent
    draw is restricted to all rungs first, then each rung is one stacked
    solve.  Returns per seed the (L, seed, values, wall ms) of each rung,
    where a rung's wall time (restriction, assembly and solve) is shared
    evenly by the group."""
    cfg_d, seeds = task
    cfg = ExperimentConfig(**cfg_d)
    tau = INDICATOR  # exact restriction calculus for the coupled ladder
    Lmax = cfg.L_ladder[-1]
    parent = BoxDomain.square(Lmax)
    boxes = {L: BoxDomain(((Lmax - L) / 2.0, (Lmax - L) / 2.0), (L, L))
             for L in cfg.L_ladder}
    pots = {L: [None] * len(seeds) for L in cfg.L_ladder}
    wall = dict.fromkeys(cfg.L_ladder, 0.0)
    if cfg.beta != 0.0:
        n_par = max(mollified_band(parent, cfg.eps, tau)[0], 1)
        for i, seed in enumerate(seeds):
            draw = sample(parent, n_par, seed)
            for L in cfg.L_ladder:
                t0 = time.perf_counter()
                pots[L][i] = restrict(draw, cfg.eps, boxes[L], 2 * cfg.trunc(L), tau) * cfg.beta
                wall[L] += time.perf_counter() - t0
    out = [[] for _ in seeds]
    for L in cfg.L_ladder:
        t0 = time.perf_counter()
        ops = [assemble(p, boxes[L], cfg.trunc(L)) for p in pots[L]]
        res = eigenvalues(ops, cfg.n_eigs, tol=1e-8, seed=seeds)
        ms = (wall[L] + time.perf_counter() - t0) * 1e3 / len(seeds)
        for row, seed, r in zip(out, seeds, res):
            row.append((L, seed, r.values, ms))
    return out


def growth_study(cfg: ExperimentConfig) -> StudyRecord:
    """Coupled-ladder growth of the top eigenvalues in the box size.

    The same parent draw on the largest box feeds every sub-box, so the
    domain-monotonicity comparison is pathwise.  The renormalization
    constant (beta^2 [(1/2pi) log(1/eps) + c_tau']) is an L-independent
    shift, subtracted from every reported eigenvalue.

    The asymptotic growth constant is out of reach at desk scale; the
    contract is zero pathwise monotonicity violations plus a positive
    trend in log L.
    """
    rec = StudyRecord(config=asdict(cfg))
    c_eps = (TWO_PI_INV * math.log(1.0 / cfg.eps) + profile_constant(INDICATOR)
             ) * cfg.beta**2
    seeds = [cfg.seed + i for i in range(cfg.replicas)]
    results = _map_seeds(_growth_group, asdict(cfg), seeds, cfg.workers)
    violations = 0
    for per_seed in results:
        prev = None
        for (L, seed, vals, wall) in per_seed:
            for n, lam in enumerate(vals, start=1):
                rec.add(L, cfg.eps, cfg.beta, seed, n, lam - c_eps, wall)
            if prev is not None and np.any(vals[: cfg.n_eigs] <
                                           prev[: cfg.n_eigs] - cfg.slack):
                violations += 1
            prev = vals
    by_L = {}
    for L in cfg.L_ladder:
        lam = rec.lambdas(L=L, n=1)
        entry = {"mean": float(lam.mean()), "std": float(lam.std(ddof=1)) if len(lam) > 1 else 0.0,
                 "stderr": float(lam.std(ddof=1) / np.sqrt(len(lam))) if len(lam) > 1 else 0.0}
        entry["ratio_logL"] = entry["mean"] / math.log(L) if L > 1 else float("nan")
        by_L[L] = entry
    means = np.array([by_L[L]["mean"] for L in cfg.L_ladder])
    logs = np.log(np.asarray(cfg.L_ladder))
    trend = float(np.corrcoef(logs, means)[0, 1]) if len(means) > 2 else float("nan")
    rec.summary = {
        "mono_violations": violations,
        "per_L": by_L,
        "trend_corr_logL": trend,
        "c_subtracted": c_eps,
    }
    return rec


# -- mollified single-box studies ---------------------------------------------

def _mollified_group(task):
    """Top eigenvalue of Laplacian + amp * xi_eps on Q_L for each seed of a
    group, solved as one stack, with the group's wall time in ms shared
    evenly; module-level so a worker pool can pickle it."""
    (L, eps, amp, N, band, tau, tol), seeds = task
    box = BoxDomain.square(L)
    t0 = time.perf_counter()
    ops = [assemble(mollify(sample(box, band, s), eps, tau) * amp, box, N)
           for s in seeds]
    res = eigenvalues(ops, 1, tol=tol, seed=seeds)
    ms = (time.perf_counter() - t0) * 1e3 / len(seeds)
    return [(float(r.values[0]), ms) for r in res]


def _mollified_rows(rec: StudyRecord, cfg: ExperimentConfig, seeds, L, eps,
                    amp, tau, tol, value, eps_col=None) -> np.ndarray:
    """Run ``_mollified_group`` over ``seeds`` at the truncation
    N(cfg.L), map each eigenvalue through ``value`` here in the parent
    process, and add the rows (L, eps_col or eps, amp, seed, 1, value).
    Returns the values in seed order."""
    N = cfg.trunc(cfg.L)
    band = mollified_band(BoxDomain.square(L), eps, tau)[0]
    res = _map_seeds(_mollified_group, (L, eps, amp, N, band, tau, tol), seeds,
                     cfg.workers)
    vals = []
    for s, (lam, wall) in zip(seeds, res):
        v = value(lam)
        rec.add(L, eps if eps_col is None else eps_col, amp, s, 1, v, wall)
        vals.append(v)
    return np.asarray(vals)


# -- scaling in distribution --------------------------------------------------

def scaling_law_test(cfg: ExperimentConfig) -> StudyRecord:
    """Two-sample check of the scaling-in-distribution identity.

    Side A: renormalized top eigenvalue on Q_L at mollification eps and
    amplitude beta.  Side B: the same on Q_{L/alpha} at mollification
    eps/alpha and amplitude alpha beta, rescaled by alpha^{-2} and shifted
    by beta^2 (1/2pi) log alpha.  At matched Galerkin truncation the two
    laws agree exactly; a two-sample KS test reports statistic and p-value.
    """
    from scipy.stats import ks_2samp

    a = cfg.alpha
    rec = StudyRecord(config=asdict(cfg))
    tau = cfg.cutoff()
    c_tau = profile_constant(tau)
    shift_A = cfg.beta**2 * (TWO_PI_INV * math.log(1.0 / cfg.eps) + c_tau)
    shift_B = cfg.beta**2 * (TWO_PI_INV * math.log(a / cfg.eps) + c_tau)
    log_shift = cfg.beta**2 * TWO_PI_INV * math.log(a)
    seeds_A = [cfg.seed + i for i in range(cfg.replicas)]
    seeds_B = [cfg.seed + cfg.replicas + i for i in range(cfg.replicas)]
    A = _mollified_rows(rec, cfg, seeds_A, cfg.L, cfg.eps, cfg.beta, tau, 1e-8,
                        lambda lam: lam - shift_A)
    B = _mollified_rows(rec, cfg, seeds_B, cfg.L / a, cfg.eps / a, a * cfg.beta,
                        tau, 1e-8, lambda lam: lam / a**2 - shift_B + log_shift)
    ks = ks_2samp(A, B)
    rec.summary = {
        "ks_stat": float(ks.statistic),
        "ks_pvalue": float(ks.pvalue),
        "mean_A": float(np.mean(A)),
        "mean_B": float(np.mean(B)),
        "log_shift": log_shift,
    }
    return rec


# -- tails --------------------------------------------------------------------

def empirical_upper_tail(samples: np.ndarray, xs: np.ndarray) -> np.ndarray:
    samples = np.sort(np.asarray(samples))
    n = len(samples)
    return 1.0 - np.searchsorted(samples, xs, side="left") / n


def tail_study(cfg: ExperimentConfig, n_boot: int = 200) -> StudyRecord:
    """Empirical upper-tail frequencies of the renormalized top eigenvalue
    and a log-linear fit of the decay rate (reported with a bootstrap CI,
    never asserted against the theoretical rate)."""
    rec = StudyRecord(config=asdict(cfg))
    c_eps = cfg.beta**2 * (TWO_PI_INV * math.log(1.0 / cfg.eps)
                           + profile_constant(SMOOTH))
    seeds = [cfg.seed + i for i in range(cfg.replicas)]
    lams = _mollified_rows(rec, cfg, seeds, cfg.L, cfg.eps, cfg.beta, SMOOTH,
                           1e-7, lambda lam: lam - c_eps)

    qlo, qhi = np.quantile(lams, [0.90, 0.999])
    xs = np.linspace(qlo, qhi, 24)
    tail = empirical_upper_tail(lams, xs)

    def _fit(vals):
        t = empirical_upper_tail(vals, xs)
        m = t > 0
        if m.sum() < 3:
            return np.nan
        return -np.polyfit(xs[m], np.log(t[m]), 1)[0]

    rate = _fit(lams)
    rng = np.random.default_rng(cfg.seed)
    boots = [_fit(rng.choice(lams, size=len(lams), replace=True))
             for _ in range(n_boot)]
    boots = np.asarray([b for b in boots if np.isfinite(b)])
    # trend of the negative log tail: positive linear part (eventually
    # decreasing) and the quadratic coefficient as a convexity statistic
    m = tail > 0
    quad = np.polyfit(xs[m], -np.log(tail[m]), 2) if m.sum() >= 4 else [np.nan] * 3
    rec.summary = {
        "xs": xs.tolist(),
        "tail": tail.tolist(),
        "rate": float(rate),
        "rate_ci": [float(np.quantile(boots, 0.025)), float(np.quantile(boots, 0.975))],
        "monotone": bool(np.all(np.diff(tail) <= 1e-12)),
        "eventually_decreasing": bool(tail[m].size >= 2 and tail[m][-1] < tail[m][0]),
        "neg_log_tail_quad": float(quad[0]),
    }
    return rec


# -- small-noise concentration -------------------------------------------------

def small_noise_study(cfg: ExperimentConfig) -> StudyRecord:
    """Noise amplitude sqrt(eps) -> 0: the top eigenvalue concentrates at
    the zero-potential value and its variance shrinks linearly in eps."""
    rec = StudyRecord(config=asdict(cfg))
    lam0 = -2.0 * np.pi**2 / cfg.L**2
    seeds = [cfg.seed + i for i in range(cfg.replicas)]
    per_eps = {}
    for amp2 in cfg.eps_ladder:
        # the mollification scale cfg.eps of the underlying noise is fixed;
        # the row's eps column carries the squared amplitude
        lams = _mollified_rows(rec, cfg, seeds, cfg.L, cfg.eps, math.sqrt(amp2),
                               SMOOTH, 1e-9, lambda lam: lam, eps_col=amp2)
        per_eps[amp2] = {"mean": float(lams.mean()),
                         "var": float(lams.var(ddof=1)),
                         "stderr": float(lams.std(ddof=1) / np.sqrt(len(lams)))}
    es = np.asarray(sorted(per_eps, reverse=True), dtype=float)
    vs = np.asarray([per_eps[e]["var"] for e in es])
    slope = float(np.polyfit(np.log(es), np.log(vs), 1)[0])
    rec.summary = {"lambda0": lam0, "per_eps": per_eps, "var_slope": slope}
    return rec


# -- variational constant -------------------------------------------------------

def _l4sq_and_grad(psi: SpectralField, M) -> tuple[float, float, np.ndarray]:
    """(|psi|_4^2, |grad psi|_2^2, grid samples of psi)."""
    from .geometry import inverse_transform

    g = inverse_transform(psi, M)
    w = g.quad_weight()
    l4sq = math.sqrt(float(np.sum(g.samples**4)) * w)
    k1 = np.arange(psi.coeffs.shape[0])[:, None] / psi.box.sides[0]
    k2 = np.arange(psi.coeffs.shape[1])[None, :] / psi.box.sides[1]
    grad = float(np.sum(np.pi**2 * (k1**2 + k2**2) * psi.coeffs**2))
    return l4sq, grad, g.samples


def _grid_norm(V: np.ndarray, area: float) -> float:
    """L2 norm of grid samples V by midpoint quadrature over the area."""
    return math.sqrt(float(np.sum(V**2)) * (area / V.size))


def _normalized_grid(V: np.ndarray, area: float) -> np.ndarray:
    return V / _grid_norm(V, area)


def _ascent_grid(N) -> tuple[int, int]:
    """Quadrature grid of the psi^2 potentials: FFT-fast, and alias-free
    for every band-N psi, since psi^4 and psi^2 d_k d_l have band <= 4N
    and the midpoint rule integrates them exactly on any M > 2N."""
    return _operator_grid(_pair(N), None)


def _start_bump(box: BoxDomain, M) -> np.ndarray:
    """Centred Gaussian of width min(sides)/6 sampled on the grid M."""
    xs = midpoint_nodes(box, M)
    cx = box.origin[0] + box.sides[0] / 2
    cy = box.origin[1] + box.sides[1] / 2
    w0 = min(box.sides) / 6.0
    return np.exp(-(((xs[0][:, None] - cx) ** 2 + (xs[1][None, :] - cy) ** 2)
                    / (2 * w0**2)))


def _psi_sq_step(V: np.ndarray, box: BoxDomain, N, M, n: int, tol: float,
                 v0, seed: int):
    """One psi^2 fixed-point step: solve Laplacian + V on the grid M for
    the top n eigenpairs, take the unit-L2 n-th eigenfunction psi.

    Returns (eigen result, |psi|_4^2, |grad psi|_2^2, psi, psi^2 sampled
    on the grid M)."""
    op = assemble(V, box, N, grid_M=M)
    r = eigenvalues(op, n, vectors=True, tol=tol, v0=v0, seed=seed)
    psi = op.coeff_field(r.vectors[:, n - 1])
    psi = psi * (1.0 / psi.l2_norm())
    l4sq, grad, samples = _l4sq_and_grad(psi, M)
    return r, l4sq, grad, psi, samples**2


def chi_ascent(box: BoxDomain, N: int, max_iter: int = 200, tol: float = 1e-10,
               seed: int = 0, V0: np.ndarray | None = None,
               v0: np.ndarray | None = None):
    """Alternating maximization of 4 (|psi|_4^2 - |grad psi|_2^2) over unit
    L2 functions on the box.

    Given the current unit-norm potential V, psi is the top eigenfunction
    of Laplacian + V; the next potential is psi^2 / |psi^2|_2 (the exact
    partial maximizer), so the objective trace is nondecreasing.  Each
    solve warm-starts from the previous eigenvector, the first from ``v0``
    (operator coefficient layout) when given.

    Returns (value, trace, psi field).
    """
    N = _pair(N)
    M = _ascent_grid(N)
    if V0 is not None and np.shape(V0) != M:
        raise ContractError(f"V0 must be sampled on the grid {M}")
    V = np.asarray(V0, dtype=float) if V0 is not None else _start_bump(box, M)
    V = _normalized_grid(V, box.area)

    trace = []
    vec = v0
    psi = None
    for it in range(max_iter):
        r, l4sq, grad, psi, psi_sq = _psi_sq_step(V, box, N, M, 1, 1e-8, vec, seed)
        vec = r.vectors[:, 0]
        val = 4.0 * (l4sq - grad)
        if trace and val < trace[-1] - 1e-9:
            raise ConvergenceError(
                f"ascent decreased at iteration {it}: {trace[-1]} -> {val}")
        converged = bool(trace) and abs(val - trace[-1]) <= tol * max(1.0, abs(val))
        trace.append(val)
        if converged:
            break
        V = _normalized_grid(psi_sq, box.area)
    return trace[-1], trace, psi


def chi_ascent_refined(box: BoxDomain, N: int, seed: int = 0,
                       max_iter: int = 200, tol: float = 1e-10):
    """Coarse-grid ascent to locate the optimizer bump, then refinement at
    full resolution warm-started from the coarse fixed point: psi^2 as the
    first potential and psi's coefficients as the first solve's start.

    Only the full-resolution trace is returned: each stage is monotone by
    construction, but objective values across resolutions are not
    comparable, so the stages are not concatenated.
    """
    from .geometry import inverse_transform

    N = _pair(N)
    Nc = (max(N[0] // 2, 8), max(N[1] // 2, 8))
    _, trace_c, psi_c = chi_ascent(box, Nc, max_iter=max_iter, tol=1e-8,
                                   seed=seed)
    V0 = inverse_transform(psi_c, _ascent_grid(N)).samples ** 2
    v0 = np.zeros(N)
    k0, k1 = min(Nc[0], N[0]), min(Nc[1], N[1])
    v0[:k0, :k1] = psi_c.coeffs[1:k0 + 1, 1:k1 + 1]
    val, trace, psi = chi_ascent(box, N, max_iter=max_iter, tol=tol,
                                 seed=seed, V0=V0, v0=v0.ravel())
    return val, trace, psi


def chi_estimate(L_ladder=(16.0, 32.0, 48.0), nu: float = 2.5,
                 max_iter: int = 200, seed: int = 0) -> dict:
    """Ladder of alternating-maximization estimates of the variational
    constant; nondecreasing in L, reported without extrapolation.

    The optimizer bump has a fixed physical scale, so the per-length
    resolution requirement is L-independent (nu = 2.5 is well past the
    plateau) while the finite-box deficit dies off exponentially in L;
    L = 48 leaves it well under one percent."""
    values = {}
    traces = {}
    for L in L_ladder:
        box = BoxDomain.square(float(L))
        N = int(math.ceil(nu * L))
        val, trace, _ = chi_ascent_refined(box, N, max_iter=max_iter, seed=seed)
        values[float(L)] = val
        traces[float(L)] = trace
    return {"per_L": values, "traces": traces,
            "chi": values[float(L_ladder[-1])]}


# -- rate-function infimum -------------------------------------------------------

def _calibrate_mu(psi_sq: np.ndarray, box: BoxDomain, N, n: int, a: float,
                  M, seed=0, mu0: float = 1.0, block=None):
    """Find mu >= 0 with lambda_n(mu * psi_sq) = a (monotone in mu).

    The bracket's upper end starts at ``mu0`` (the previous calibration's
    mu) and doubles until it reaches the level.  Each solve warm-starts
    from the last one's vectors, the first from ``block``; no mu is solved
    twice, and mu = 0 not at all (the Laplacian is diagonal in the sine
    basis).  Returns (mu, the last solve's vectors)."""
    from scipy.optimize import brentq

    seen = {0.0: float(np.sort(_laplacian_diag(box, N))[-n]) - a}

    def f(mu):
        nonlocal block
        if mu not in seen:
            op = assemble(psi_sq * mu, box, N, grid_M=M)
            r = eigenvalues(op, n, vectors=True, tol=1e-10, v0=block, seed=seed)
            block = r.vectors
            seen[mu] = float(r.values[n - 1]) - a
        return seen[mu]

    lo, hi = 0.0, float(mu0)
    tries = 0
    while f(hi) < 0:
        lo, hi = hi, 2.0 * hi
        tries += 1
        if tries > 60:
            raise ConvergenceError("cannot bracket the eigenvalue level")
    mu = float(brentq(f, lo, hi, xtol=1e-12, rtol=1e-12))
    return mu, block


def rate_infimum_estimate(L: float, n: int = 1, a: float = 1.0,
                          nu: float = 8.0, max_iter: int = 25,
                          seed: int = 0, V0: np.ndarray | None = None,
                          N: int | None = None) -> dict:
    """Upper bound for inf {|V|_2^2 / 2 : lambda_n(Q_L, V) >= a}.

    Fixed-point projection: V is kept proportional to the n-th
    eigenfunction squared and rescaled so the eigenvalue level is met
    exactly, so every iterate is feasible; the best (smallest) energy is
    reported together with a dual cross-check: re-maximizing the
    eigenvalue over the final energy ball, warm-started from the
    optimizer, which must reach at least the level a.
    """
    box = BoxDomain.square(float(L))
    N = _pair(N if N is not None else int(math.ceil(nu * L)))
    M = _ascent_grid(N)
    if V0 is not None and np.shape(V0) != M:
        raise ContractError(f"V0 must be sampled on the grid {M}")
    V = np.array(V0, dtype=float) if V0 is not None else _start_bump(box, M)
    V = _normalized_grid(V, box.area)

    # the first solve is the only cold one: every later one warm-starts
    # from the last block, and each calibration brackets from the last mu
    mu, block = _calibrate_mu(V, box, N, n, a, M, seed=seed)
    best = 0.5 * mu**2
    best_V = V * mu
    energies = [best]
    for it in range(max_iter):
        r, *_, psi_sq = _psi_sq_step(best_V, box, N, M, n, 1e-10, block, seed)
        cand = _normalized_grid(psi_sq, box.area)
        mu, block = _calibrate_mu(cand, box, N, n, a, M, seed=seed, mu0=mu,
                                  block=r.vectors)
        energy = 0.5 * mu**2
        if energy < best - 1e-12:
            best = energy
            best_V = cand * mu
        energies.append(energy)
        if it > 2 and abs(energies[-1] - energies[-2]) < 1e-8 * max(1.0, best):
            break

    def _ball_ascent(radius, V_start, block, iters=12):
        """Maximize lambda_n over |V|_2 <= radius by the fixed-point map
        V -> radius * psi_n^2 / |psi_n^2|_2; returns the best level seen."""
        Vd = V_start * (radius / _grid_norm(V_start, box.area))
        lam = -np.inf
        for _ in range(iters):
            r, *_, psi_sq = _psi_sq_step(Vd, box, N, M, n, 1e-10, block, seed)
            block = r.vectors
            lam = max(lam, float(r.values[n - 1]))
            Vd = psi_sq * (radius / _grid_norm(psi_sq, box.area))
        op = assemble(Vd, box, N, grid_M=M)
        return max(lam, float(eigenvalues(op, n, tol=1e-10, v0=block,
                                          seed=seed).values[n - 1]))

    # handshake: re-maximizing over the final energy ball, warm-started
    # from the optimizer, must recover at least the level a
    lam_dual = _ball_ascent(math.sqrt(2.0 * best), best_V, block)
    # level-ball dual: sup of lambda_n over |V|_2^2 <= 1/a, reported as
    # 1/(2 sup) when the sup is positive; on small boxes the ball cannot
    # lift the eigenvalue above zero and the dual is unattained (the two
    # sides only meet in the large-box limit)
    dual_level_ball = None
    s_star = None
    if a > 0:
        s_star = _ball_ascent(math.sqrt(1.0 / a), best_V, block)
        if s_star > 0:
            dual_level_ball = 1.0 / (2.0 * s_star)
    return {
        "energy": best,
        "trace": energies,
        "optimizer_grid": best_V,
        "grid_M": M,
        "dual_lambda": lam_dual,
        "dual_radius_sq_over_2": best,
        "dual_sup_lambda": s_star,
        "dual_level_ball": dual_level_ball,
        "level": a,
    }
