"""Smoke runs of the experiment scripts at small sizes, in a subprocess as a
user runs them."""
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def run_script(name, *args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return subprocess.run([sys.executable, str(ROOT / "scripts" / name), *args],
                          env=env, capture_output=True, text=True, timeout=300)


PLOTS = ("stationarity_vs_k.svg", "residuals_vs_k.svg", "stationarity_vs_scalars.svg")


def test_rate_experiment(tmp_path):
    done = run_script("rate_experiment.py", "--seeds", "2", "--rounds", "200",
                      "--out", str(tmp_path))
    assert done.returncode == 0, done.stderr
    assert (tmp_path / "mean_min_prefix.csv").stat().st_size > 0
    for name in PLOTS:
        assert (tmp_path / name).stat().st_size > 0


def test_topology_comparison(tmp_path):
    done = run_script("topology_comparison.py", "--n", "6", "--rounds", "300",
                      "--out", str(tmp_path))
    assert done.returncode == 0, done.stderr
    for topo in ("ring", "star", "hub_leaf"):
        for name in PLOTS:
            assert (tmp_path / topo / name).stat().st_size > 0
