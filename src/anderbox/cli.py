"""Batch front door: subcommands, deterministic seeding, CSV + manifest
persistence.

    anderbox <subcommand> [--config FILE] [--seed S] [--out DIR]
                          [--workers W] [--set key=value ...]

Same config + seed produce byte-identical CSV bodies; timestamps live only
in the manifest.
"""

from __future__ import annotations

import argparse
from dataclasses import replace
import os
import sys
import time

# the studies' block products are too small to gain from BLAS threads, which
# only burn CPU; set before numpy loads OpenBLAS, and a user's value wins
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import numpy as np

from . import __version__
from .config import apply_overrides, load_config, print_config, write_manifest
from .errors import ContractError, ConvergenceError
from .experiments import (
    BOUNDS,
    ExperimentConfig,
    StudyRecord,
    box_bounds_study,
    chi_estimate,
    growth_study,
    rate_infimum_estimate,
    scaling_law_test,
    small_noise_study,
    tail_study,
)

def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="anderbox", description=__doc__)
    p.add_argument("--version", action="version", version=__version__)
    p.add_argument("command", choices=[*_COMMANDS, *_STUDIES])
    p.add_argument("--config", default=None, help="flat key=value config file")
    p.add_argument("--seed", type=int, default=None, help="seed base override")
    p.add_argument("--out", default=None, help="output directory")
    p.add_argument("--workers", type=int, default=None, help="worker pool size")
    p.add_argument("--set", action="append", default=[], metavar="KEY=VALUE",
                   help="config override (repeatable)")
    return p


def _config_from_args(args) -> ExperimentConfig:
    if args.config:
        cfg = load_config(args.config, args.set)
    else:
        cfg = apply_overrides(ExperimentConfig(), args.set)
    if args.seed is not None:
        cfg = replace(cfg, seed=args.seed)
    if args.workers is not None:
        cfg = replace(cfg, workers=args.workers)
    if args.out is not None:
        cfg = replace(cfg, out=args.out)
    return cfg


def _outdir(cfg: ExperimentConfig) -> str:
    out = cfg.out or "."
    os.makedirs(out, exist_ok=True)
    return out


def _finish(cfg, name, record: StudyRecord | None, summary) -> int:
    out = _outdir(cfg)
    outputs = []
    if record is not None:
        csv_path = os.path.join(out, f"{name}.csv")
        record.to_csv(csv_path)
        outputs.append(csv_path)
    manifest = os.path.join(out, f"{name}_manifest.json")
    write_manifest(manifest, cfg, outputs, extra=summary)
    for k, v in (summary or {}).items():
        if not isinstance(v, (list, dict)):
            print(f"{k}: {v}")
    return 0


def _as_run(cfg: ExperimentConfig, **ran) -> ExperimentConfig:
    """The config with the values a command actually runs, so its manifest
    records them; one note on stderr names those that differ from the
    request."""
    changed = [f"{key} {getattr(cfg, key)!r} -> {val!r}"
               for key, val in ran.items() if val != getattr(cfg, key)]
    if changed:
        print(f"note: ran with {', '.join(changed)}", file=sys.stderr)
    return replace(cfg, **ran)


def _cmd_print_config(cfg: ExperimentConfig) -> int:
    print(print_config(cfg))
    return 0


def _cmd_sample(cfg: ExperimentConfig) -> int:
    from .geometry import BoxDomain
    from .noise import sample, save_draw

    out = _outdir(cfg)
    box = BoxDomain.square(cfg.L)
    draw = sample(box, cfg.trunc(cfg.L), cfg.seed)
    path = os.path.join(out, f"draw_L{cfg.L:g}_seed{cfg.seed}.npz")
    save_draw(path, draw, eps=cfg.eps, profile=cfg.cutoff())
    write_manifest(os.path.join(out, "sample_manifest.json"), cfg, [path])
    print(f"wrote {path}")
    return 0


def _cmd_spectrum(cfg: ExperimentConfig) -> int:
    from .geometry import BoxDomain
    from .hamiltonian import assemble, eigenvalues, operator_from_noise
    from .noise import enhance, mollified_band, sample

    box = BoxDomain.square(cfg.L)
    N = cfg.trunc(cfg.L)
    rec = StudyRecord()
    t0 = time.perf_counter()
    if cfg.beta == 0.0:
        op = assemble(None, box, N)
    else:
        band = mollified_band(box, cfg.eps, cfg.cutoff())
        draw = sample(box, (max(band[0], 1), max(band[1], 1)), cfg.seed)
        en = enhance(draw, cfg.eps, cfg.cutoff())
        op = operator_from_noise(en, N, beta=cfg.beta)
    vals = eigenvalues(op, cfg.n_eigs, tol=1e-9, seed=cfg.seed).values
    wall = (time.perf_counter() - t0) * 1e3
    for n, lam in enumerate(vals, start=1):
        rec.add(cfg.L, cfg.eps, cfg.beta, cfg.seed, n, lam, wall)
    return _finish(cfg, "spectrum", rec,
                   {"eigenvalues": [float(v) for v in vals]})


def _cmd_renorm(cfg: ExperimentConfig) -> int:
    from .noise import renorm_constant

    tau = cfg.cutoff()
    if len(cfg.eps_ladder) <= 2:
        cfg = _as_run(cfg, eps_ladder=tuple(2.0**-k for k in range(4, 11)))
    rows = []
    for e in cfg.eps_ladder:
        c = renorm_constant(e, cfg.L, tau)
        rows.append((e, c))
    xs = np.log([1.0 / e for e, _ in rows])
    cs = np.array([c for _, c in rows])
    slope = float(np.polyfit(xs, cs, 1)[0])
    out = _outdir(cfg)
    path = os.path.join(out, "renorm.csv")
    with open(path, "w") as fh:
        fh.write("eps,c,log_inv_eps,slope\n")
        for (e, c) in rows:
            fh.write(f"{e:.17g},{c:.17g},{np.log(1/e):.17g},{slope:.17g}\n")
    write_manifest(os.path.join(out, "renorm_manifest.json"), cfg, [path],
                   extra={"slope": slope, "two_pi_inv": 1 / (2 * np.pi)})
    print(f"slope: {slope:.6f}  (1/2pi = {1/(2*np.pi):.6f})")
    return 0


def _cmd_box_bounds(cfg: ExperimentConfig) -> int:
    cfg = _as_run(cfg, profile="indicator")
    rec = box_bounds_study(cfg)
    _finish(cfg, "box_bounds", rec, rec.summary)
    return 1 if any(rec.summary[k] for k in BOUNDS) else 0


def _cmd_chi(cfg: ExperimentConfig) -> int:
    cfg = _as_run(cfg, nu=min(cfg.nu, 2.5), L_ladder=(
        cfg.L_ladder if max(cfg.L_ladder) >= 8 else (16.0, 32.0, 48.0)))
    res = chi_estimate(L_ladder=cfg.L_ladder, nu=cfg.nu,
                       max_iter=cfg.chi_iters, seed=cfg.seed)
    return _finish(cfg, "chi", None, {
        "chi": res["chi"], "per_L": {str(k): v for k, v in res["per_L"].items()},
    })


def _cmd_rate_inf(cfg: ExperimentConfig) -> int:
    cfg = _as_run(cfg, nu=min(cfg.nu, 8.0))
    res = rate_infimum_estimate(cfg.L, n=cfg.n_eigs, a=cfg.target,
                                nu=cfg.nu, seed=cfg.seed)
    return _finish(cfg, "rate_inf", None, {
        "energy": res["energy"], "dual_lambda": res["dual_lambda"],
        "level": res["level"],
    })


def _cmd_selftest(cfg: ExperimentConfig) -> int:
    from . import selftest

    failures = selftest.run(verbose=True)
    return 0 if failures == 0 else 1


_COMMANDS = {
    "print-config": _cmd_print_config,
    "sample": _cmd_sample,
    "spectrum": _cmd_spectrum,
    "renorm": _cmd_renorm,
    "box-bounds": _cmd_box_bounds,
    "chi": _cmd_chi,
    "rate-inf": _cmd_rate_inf,
    "selftest": _cmd_selftest,
}

# looked up at call time, so a study can be swapped for an instrumented one
_STUDIES = {
    "growth": growth_study,
    "scaling-test": scaling_law_test,
    "tails": tail_study,
    "small-noise": small_noise_study,
}


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        cfg = _config_from_args(args)
        if args.command in _COMMANDS:
            return _COMMANDS[args.command](cfg)
        rec = _STUDIES[args.command](cfg)
        return _finish(cfg, args.command.replace("-", "_"), rec, rec.summary)
    except (ContractError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ConvergenceError as exc:
        print(f"solver failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
