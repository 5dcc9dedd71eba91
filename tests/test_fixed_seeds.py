"""Fixed-seed outputs pinned for refactors: every `lambda` of three small
runs through the CLI against the values in ``fixed_seed_lambdas.json``,
recorded with 17 significant digits at commit d6f7ce8 (ν 8, seed 1).  A
change that moves any of them by more than 1e-10 changes what the studies
compute, not only how."""

import csv
import json
from pathlib import Path

import pytest

from anderbox.cli import main

RUNS = {
    "growth": ["growth", "--seed", "1", "--set", "L_ladder=1 2 4", "--set", "n_eigs=4",
               "--set", "replicas=8", "--set", "nu=8"],
    "box_bounds": ["box-bounds", "--seed", "1", "--set", "L=2", "--set", "r=1",
                   "--set", "a_overlap=0.5", "--set", "replicas=8", "--set", "nu=8"],
    "spectrum": ["spectrum", "--seed", "1", "--set", "L=2", "--set", "n_eigs=4",
                 "--set", "nu=8"],
}
PINNED = json.loads((Path(__file__).parent / "fixed_seed_lambdas.json").read_text())


@pytest.mark.parametrize("name", list(RUNS))
def test_lambdas_match_the_pinned_values(name, tmp_path):
    assert main(RUNS[name] + ["--out", str(tmp_path)]) == 0
    with open(tmp_path / f"{name}.csv", newline="") as fh:
        got = [float(row["lambda"]) for row in csv.DictReader(fh)]
    assert got == pytest.approx(PINNED[name], rel=0, abs=1e-10)
