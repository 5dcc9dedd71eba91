"""Benchmark of anderbox's eigen-solve pipeline, run from the root of a
source checkout without installing the package:

    python3 perfbench/run.py --workload {scaling,growth,variational}
                             --seed N --seconds S --trace {0,1}

One process, ``--workers 1``, BLAS threads left as the program gets them
(recorded in the output).  The run repeats rounds of the workload's study
through ``anderbox.cli.main`` until ``--seconds`` have passed, then checks
every round's outputs and prints one JSON line as its last line:

    {"correct": ..., "attempted": <eigen-solves>, "failed": ..., "metrics": ...}

``--trace 0`` reports the end-to-end metrics wall_s, cpu_s (medians per
round), setup_s and peak_rss_mb; ``--trace 1`` wraps the program's layers
(see spans.py) and reports the per-layer metrics.  Details go to
``perfbench/out/<workload>_trace<0|1>.json``.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import io
import json
import os
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"


def process_age() -> float:
    """Seconds since this process started, interpreter start-up included."""
    with open("/proc/self/stat") as fh:
        fields = fh.read().rsplit(")", 1)[1].split()
    started = int(fields[19]) / os.sysconf("SC_CLK_TCK")
    return time.clock_gettime(time.CLOCK_BOOTTIME) - started


def machine() -> dict:
    """What the figures depend on: cores, library versions, BLAS threads."""
    import numpy
    import scipy

    threads = {}
    with open("/proc/self/maps") as fh:
        libs = sorted({line.split()[-1] for line in fh if "openblas" in line})
    for path in libs:
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                    "openblas_get_num_threads"):
            if hasattr(lib, sym):
                fn = getattr(lib, sym)
                fn.restype = ctypes.c_int
                threads[os.path.basename(path)] = fn()
                break
    return {
        "nproc": os.cpu_count(),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numpy_blas": numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]["version"],
        "scipy_blas": scipy.show_config(mode="dicts")["Build Dependencies"]["blas"]["version"],
        "blas_threads": threads,
        "machine_settings_changed": False,
    }


def failed_solves(tracer) -> int:
    return sum(s.failed for s in tracer.named("solve"))


def check_rounds(workload: str, rounds: list[dict]) -> list[str]:
    """Every round's row and property checks, plus the oracle on the first
    round (a fixed subset of (seed, L) pairs for the noise workloads)."""
    import checks
    import oracle

    errs = []
    done = [r for r in rounds if r["outputs"] is not None]
    if workload == "variational":
        chi_ref = oracle.shooting_ground_state()[2]
        for r in done:
            errs += checks.check_variational(r["outputs"]["chi"], r["outputs"]["rate_inf"],
                                             chi_ref)
        return errs
    for r in done:
        rows, summary = r["outputs"]["rows"], r["outputs"]["summary"]
        if workload == "scaling":
            errs += checks.check_scaling_rows(rows, r["seed"])
        else:
            errs += checks.check_growth_rows(rows, summary, r["seed"])
    if done and not errs:
        first = done[0]
        if workload == "scaling":
            errs += checks.scaling_oracle(first["outputs"]["rows"], first["seed"])
        else:
            errs += checks.growth_oracle(first["outputs"]["rows"],
                                         first["outputs"]["summary"], first["seed"])
    return errs


def main(argv=None) -> int:
    from workloads import WORKLOADS, read_round

    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    if not (SRC / "anderbox" / "__init__.py").is_file():
        print(f"error: no anderbox sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from anderbox import cli
    import spans

    wl = WORKLOADS[args.workload]
    # each round writes into a new directory, as a study run into a fresh
    # --out does: rewriting an existing file costs ~50 ms on ext4, whose
    # truncate-and-rewrite heuristic starts a writeback on close.  The
    # directories are removed after the checks, outside every timed span.
    out = HERE / "out" / args.workload / f"run{os.getpid()}"

    tracer = spans.layer_tracer() if args.trace else spans.solve_counter()
    cache_before = spans.b_matrix_cache()
    rounds = []
    setup_s = process_age()
    t_stop = time.perf_counter() + args.seconds
    try:
        while not rounds or time.perf_counter() < t_stop:
            seed = wl.round_seed(args.seed, len(rounds))
            round_out = str(out / f"round{len(rounds)}")
            argvs = wl.round_argvs(seed, round_out)
            failed_before = failed_solves(tracer)
            t0, c0 = time.perf_counter(), time.process_time()
            with contextlib.redirect_stdout(io.StringIO()):
                codes = [cli.main(a) for a in argvs]
            wall, cpu = time.perf_counter() - t0, time.process_time() - c0
            ok = all(c == 0 for c in codes)
            rounds.append({
                "seed": seed, "wall_s": wall, "cpu_s": cpu, "exit_codes": codes,
                "failed_solves": failed_solves(tracer) - failed_before,
                "outputs": read_round(args.workload, round_out) if ok else None,
            })
    finally:
        tracer.close()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    cache_after = spans.b_matrix_cache()

    attempted = len(tracer.named("solve"))
    failed = failed_solves(tracer)
    errs = [f"round {i} exited with {r['exit_codes']} without a failed solve"
            for i, r in enumerate(rounds)
            if r["outputs"] is None and r["failed_solves"] == 0]
    errs += check_rounds(args.workload, rounds)
    shutil.rmtree(out, ignore_errors=True)    # absent if no round got to write

    walls = [r["wall_s"] for r in rounds]
    if args.trace:
        metrics = spans.layer_metrics(tracer, len(rounds), cache_before, cache_after)
        metrics["trace.wall_s"] = (statistics.median(walls), "s")
    else:
        metrics = {
            "wall_s": (statistics.median(walls), "s"),
            "cpu_s": (statistics.median(r["cpu_s"] for r in rounds), "s"),
            "setup_s": (setup_s, "s"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
        }
    result = {
        "correct": not errs,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    info = machine()
    detail = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "machine": info, "errors": errs,
              "rounds": [{k: v for k, v in r.items() if k != "outputs"} for r in rounds],
              "result": result}
    with open(HERE / "out" / f"{args.workload}_trace{args.trace}.json", "w") as fh:
        json.dump(detail, fh, indent=1)
    for e in errs:
        print(f"check failed: {e}", file=sys.stderr)
    print(f"# {args.workload}: {len(rounds)} rounds, nproc {info['nproc']}, "
          f"BLAS threads {info['blas_threads']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
