import json
import os
from pathlib import Path
import subprocess
import sys

import numpy as np
import pytest

from anderbox import experiments
from anderbox.cli import main
from anderbox.config import apply_overrides, load_config, print_config
from anderbox.errors import ContractError, ConvergenceError
from anderbox.experiments import ExperimentConfig


class TestConfigFile:
    def test_round_trip(self, tmp_path):
        cfg = ExperimentConfig()
        path = tmp_path / "run.cfg"
        path.write_text(print_config(cfg) + "\n")
        back = load_config(str(path))
        assert back == cfg

    def test_line_precise_errors(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("L = 2.0\nbogus_key = 3\n")
        with pytest.raises(ContractError) as err:
            load_config(str(path))
        assert ":2:" in str(err.value)
        path.write_text("L = not_a_number\n")
        with pytest.raises(ContractError) as err:
            load_config(str(path))
        assert ":1:" in str(err.value)

    def test_comments_and_tuples(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("# a comment\nL_ladder = 1 2 4\nreplicas = 7\n")
        cfg = load_config(str(path))
        assert cfg.L_ladder == (1.0, 2.0, 4.0)
        assert cfg.replicas == 7

    def test_overrides(self):
        cfg = apply_overrides(ExperimentConfig(), ["eps=0.125", "replicas=9"])
        assert cfg.eps == 0.125
        assert cfg.replicas == 9
        with pytest.raises(ContractError):
            apply_overrides(ExperimentConfig(), ["nope=1"])


class TestCLI:
    def test_print_config(self, capsys):
        assert main(["print-config", "--set", "L=2.0"]) == 0
        out = capsys.readouterr().out
        assert "L = 2.0" in out

    def test_invalid_config_exits_nonzero(self, tmp_path, capsys):
        bad = tmp_path / "bad.cfg"
        bad.write_text("junk line without equals\n")
        rc = main(["spectrum", "--config", str(bad)])
        assert rc == 2
        assert "error" in capsys.readouterr().err

    def test_spectrum_zero_potential(self, tmp_path, capsys):
        out = tmp_path / "run"
        rc = main(["spectrum", "--out", str(out),
                   "--set", "beta=0", "--set", "L=1.0", "--set", "n_eigs=3",
                   "--set", "nu=16"])
        assert rc == 0
        rows = (out / "spectrum.csv").read_text().splitlines()
        assert rows[0] == "L,eps,beta,seed,n,lambda,wall_ms"
        lams = [float(r.split(",")[5]) for r in rows[1:]]
        exact = [-2 * np.pi**2, -5 * np.pi**2, -5 * np.pi**2]
        assert np.abs(np.array(lams) - exact).max() < 1e-8
        manifest = json.loads((out / "spectrum_manifest.json").read_text())
        assert manifest["config"]["L"] == 1.0
        assert manifest["outputs"]

    def test_nonpositive_eps_exits_nonzero(self, tmp_path, capsys):
        for eps in ("0", "-0.5"):
            rc = main(["spectrum", "--out", str(tmp_path), "--set", f"eps={eps}",
                       "--set", "L=1.0", "--set", "nu=8"])
            assert rc == 2
            assert "error: eps must be > 0" in capsys.readouterr().err

    def test_unknown_profile_exits_nonzero(self, tmp_path, capsys):
        rc = main(["spectrum", "--out", str(tmp_path), "--set", "profile=smoth",
                   "--set", "L=1.0", "--set", "nu=8"])
        assert rc == 2
        assert "error: profile must be" in capsys.readouterr().err
        assert not list(tmp_path.iterdir())
        with pytest.raises(ContractError):
            ExperimentConfig(profile="Smooth")

    @pytest.mark.parametrize("argv", [
        ["growth", "--set", "L_ladder="],
        ["small-noise", "--set", "eps_ladder="],
        ["scaling-test", "--set", "alpha=0"],
        ["chi", "--set", "nu=0.01"],
        ["growth", "--workers", "0"],
        ["growth", "--workers", "-3"],
        ["spectrum", "--set", "L=inf"],
        ["growth", "--set", "L_ladder=1 inf"],
        ["small-noise", "--set", "eps_ladder=0.1 -0.01"],
        ["box-bounds", "--set", "r=0"],
        ["chi", "--set", "chi_iters=0"],
        ["rate-inf", "--set", "target=nan"],
        ["growth", "--set", "slack=nan"],
    ])
    def test_bad_input_exits_nonzero(self, tmp_path, capsys, argv):
        rc = main(argv + ["--out", str(tmp_path)])
        assert rc == 2
        assert "error:" in capsys.readouterr().err

    def test_nonconvergence_exits_3(self, tmp_path, capsys, monkeypatch):
        def failing(*args, **kwargs):
            raise ConvergenceError("no convergence", residuals=np.ones((2, 1)))

        monkeypatch.setattr(experiments, "eigenvalues", failing)
        rc = main(["growth", "--out", str(tmp_path), "--set", "L_ladder=1 2",
                   "--set", "replicas=2", "--set", "nu=8"])
        assert rc == 3
        assert "solver failure: no convergence" in capsys.readouterr().err
        assert not list(tmp_path.glob("*.csv"))

    def test_box_bounds_rows_timed(self, tmp_path):
        out = tmp_path / "run"
        rc = main(["box-bounds", "--out", str(out), "--seed", "1",
                   "--set", "L=2.0", "--set", "r=1.0", "--set", "a_overlap=0.5",
                   "--set", "replicas=2", "--set", "nu=8"])
        assert rc == 0
        rows = (out / "box_bounds.csv").read_text().splitlines()[1:]
        assert len(rows) == 2
        assert all(float(r.split(",")[6]) > 0 for r in rows)

    def test_renorm_slope_column(self, tmp_path, capsys):
        out = tmp_path / "run"
        rc = main(["renorm", "--out", str(out), "--set", "L=1.0"])
        assert rc == 0
        lines = (out / "renorm.csv").read_text().splitlines()
        slope = float(lines[1].split(",")[3])
        assert abs(slope - 1 / (2 * np.pi)) < 0.02 / (2 * np.pi)

    def test_sample_dump_and_manifest(self, tmp_path):
        out = tmp_path / "run"
        rc = main(["sample", "--out", str(out), "--seed", "5",
                   "--set", "L=1.0", "--set", "nu=8"])
        assert rc == 0
        from anderbox.noise import load_draw

        draw = load_draw(out / "draw_L1_seed5.npz")
        assert draw.seed == 5
        assert draw.coeffs.shape == (9, 9)

    def test_reproducible_csv_bodies(self, tmp_path):
        a = tmp_path / "a"
        b = tmp_path / "b"
        args = ["growth", "--seed", "3",
                "--set", "L_ladder=1 2", "--set", "replicas=2",
                "--set", "nu=8", "--set", "eps=0.25"]
        assert main(args + ["--out", str(a)]) == 0
        assert main(args + ["--out", str(b)]) == 0
        ra = (a / "growth.csv").read_text().splitlines()
        rb = (b / "growth.csv").read_text().splitlines()
        # wall_ms differs; everything else must be byte-identical
        strip = lambda rows: ["," .join(r.split(",")[:6]) for r in rows]
        assert strip(ra) == strip(rb)

    def test_selftest_green_tree(self, capsys):
        assert main(["selftest"]) == 0
        out = capsys.readouterr().out
        assert "FAIL" not in out

    @pytest.mark.parametrize("command,extra", [
        ("scaling-test", ["--set", "L=2.0", "--set", "eps=0.5",
                          "--set", "replicas=6", "--set", "nu=8"]),
        ("tails", ["--set", "L=1.0", "--set", "eps=0.5",
                   "--set", "replicas=40", "--set", "nu=8"]),
        ("small-noise", ["--set", "L=1.0", "--set", "replicas=6",
                         "--set", "nu=8", "--set", "eps_ladder=0.1 0.01"]),
        ("box-bounds", ["--set", "L=2.0", "--set", "r=1.0",
                        "--set", "a_overlap=0.5", "--set", "replicas=2",
                        "--set", "nu=8"]),
        ("rate-inf", ["--set", "L=1.0", "--set", "target=1.0",
                      "--set", "nu=8"]),
    ])
    def test_subcommand_smoke(self, tmp_path, command, extra):
        out = tmp_path / "run"
        rc = main([command, "--out", str(out), "--seed", "1"] + extra)
        assert rc == 0
        manifests = list(out.glob("*_manifest.json"))
        assert manifests, "every run writes a manifest"

    def test_chi_smoke(self, tmp_path):
        # tiny ladder; the estimate itself is validated in the acceptance suite
        out = tmp_path / "run"
        rc = main(["chi", "--out", str(out),
                   "--set", "L_ladder=8 12", "--set", "chi_iters=30"])
        assert rc == 0
        data = json.loads((out / "chi_manifest.json").read_text())
        assert "chi" in data["summary"]

    def test_manifest_records_what_ran(self, tmp_path, capsys):
        # chi runs its own ladder and resolution below L = 8 and above
        # nu = 2.5; the manifest and a stderr note say so
        out = tmp_path / "run"
        rc = main(["chi", "--out", str(out),
                   "--set", "L_ladder=1 2 4", "--set", "nu=16"])
        assert rc == 0
        assert capsys.readouterr().err.count("note:") == 1
        cfg = json.loads((out / "chi_manifest.json").read_text())["config"]
        assert cfg["L_ladder"] == [16.0, 32.0, 48.0]
        assert cfg["nu"] == 2.5


# the effective thread count of every OpenBLAS numpy and scipy load, read
# from the library itself after the CLI module is imported
_BLAS_PROBE = """
import ctypes, os, anderbox.cli, numpy, scipy.linalg
threads = []
if os.path.exists("/proc/self/maps"):
    with open("/proc/self/maps") as fh:
        libs = sorted({line.split()[-1] for line in fh if "openblas" in line})
    for path in libs:
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_",
                    "scipy_openblas_get_num_threads", "openblas_get_num_threads"):
            if hasattr(lib, sym):
                fn = getattr(lib, sym)
                fn.restype = ctypes.c_int
                threads.append(fn())
                break
print(os.environ["OPENBLAS_NUM_THREADS"], *threads)
"""


@pytest.mark.parametrize("user_value,expect", [(None, "1"), ("2", "2")])
def test_cli_defaults_blas_threads_to_one(user_value, expect):
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    if user_value is not None:
        env["OPENBLAS_NUM_THREADS"] = user_value
    src = str(Path(__file__).resolve().parents[1] / "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    out = subprocess.run([sys.executable, "-c", _BLAS_PROBE], env=env, check=True,
                         capture_output=True, text=True, timeout=120).stdout.split()
    assert out[0] == expect
    assert all(t == expect for t in out[1:])
