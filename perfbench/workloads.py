"""The benchmark's workloads: which CLI calls make one round, and how a
round's outputs are read back.

A round is one complete study as a user runs it through ``anderbox.cli``
with ``--workers 1``.  A run repeats rounds, each on fresh seeds, until
its time is up.  Why each workload exists is in README.md.
"""

from __future__ import annotations

import csv
import json
import os
from dataclasses import dataclass

SCALING = {"L": 4.0, "eps": 0.5, "alpha": 2.0, "beta": 1.0, "nu": 16.0, "replicas": 2}
GROWTH = {"L_ladder": (1.0, 2.0, 4.0), "eps": 0.25, "beta": 1.0, "nu": 8.0,
          "n_eigs": 4, "replicas": 8, "slack": 1e-4}
CHI = {"L_ladder": (16.0, 32.0, 48.0), "nu": 2.5}
RATE_INF = {"L": 4.0, "nu": 8.0, "target": 1.0, "n_eigs": 1}

# the Lanczos start-vector seed of the variational studies, their only
# seed; it changes the ascent path (chi_estimate makes twice the applies
# with seed 1 as with seed 0), so it is held fixed and the variational
# inputs do not depend on the benchmark seed
VARIATIONAL_SEED = 0


def _sets(params: dict) -> list[str]:
    out = []
    for key, val in params.items():
        if isinstance(val, tuple):
            val = " ".join(f"{x:g}" for x in val)
        out += ["--set", f"{key}={val}"]
    return out


def _argv(command: str, params: dict, seed: int, out: str) -> list[str]:
    return [command, "--seed", str(seed), "--workers", "1", "--out", out] + _sets(params)


@dataclass
class Workload:
    commands: tuple[tuple[str, dict], ...]
    seeds_per_round: int

    def round_seed(self, bench_seed: int, index: int) -> int:
        """CLI seed of round ``index``: noise seeds never repeat within a
        run and are a pure function of the benchmark seed."""
        if self.seeds_per_round == 0:
            return VARIATIONAL_SEED
        return bench_seed * 100_000 + index * self.seeds_per_round

    def round_argvs(self, seed: int, out: str) -> list[list[str]]:
        return [_argv(cmd, params, seed, out) for cmd, params in self.commands]


WORKLOADS = {
    "scaling": Workload((("scaling-test", SCALING),), 2 * SCALING["replicas"]),
    "growth": Workload((("growth", GROWTH),), GROWTH["replicas"]),
    "variational": Workload((("chi", CHI), ("rate-inf", RATE_INF)), 0),
}


def read_csv(path: str) -> list[dict]:
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    ints = ("seed", "n")
    return [{k: int(v) if k in ints else float(v) for k, v in r.items()} for r in rows]


def read_summary(path: str) -> dict:
    with open(path) as fh:
        return json.load(fh)["summary"]


def read_round(name: str, out: str) -> dict:
    """The outputs a round leaves in ``out``."""
    if name == "variational":
        return {"chi": read_summary(os.path.join(out, "chi_manifest.json")),
                "rate_inf": read_summary(os.path.join(out, "rate_inf_manifest.json"))}
    stem = "scaling_test" if name == "scaling" else "growth"
    return {"rows": read_csv(os.path.join(out, f"{stem}.csv")),
            "summary": read_summary(os.path.join(out, f"{stem}_manifest.json"))}
