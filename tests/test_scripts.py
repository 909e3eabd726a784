"""Smoke runs of the scripts, of the README's rate and topology studies at
small sizes, and of the benchmark's worker, in a subprocess as a user runs
them."""
import dataclasses
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from hsmadmm.config import RunConfig, parse_config_text, write_config

ROOT = Path(__file__).resolve().parents[1]


def run_script(name, *args, **env_vars):
    return run_python(str(ROOT / "scripts" / name), *args, **env_vars)


def run_python(*args, **env_vars):
    env = dict(os.environ, **env_vars)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return subprocess.run([sys.executable, *args],
                          env=env, capture_output=True, text=True, timeout=300)


PLOTS = ("stationarity_vs_k.svg", "residuals_vs_k.svg", "stationarity_vs_scalars.svg")


def readme_config(name):
    """The config that the README writes with ``cat > NAME <<'EOF'``."""
    text = (ROOT / "README.md").read_text()
    body = text.split(f"cat > {name} <<'EOF'\n", 1)[1].split("\nEOF\n", 1)[0]
    return parse_config_text(body)


def test_rate_study(tmp_path):
    cfg = tmp_path / "rate.cfg"
    write_config(dataclasses.replace(readme_config("rate.cfg"), replicas=2, K=200),
                 cfg)
    out = tmp_path / "rate"
    done = run_python("-m", "hsmadmm.harness", "run", "--config", str(cfg),
                      "--out", str(out))
    assert done.returncode == 0, done.stderr
    for name in PLOTS:
        assert (out / name).stat().st_size > 0
    summary = json.loads((out / "summary.json").read_text())
    assert "slope_of_mean_min_prefix" in summary["aggregate"]


def test_scripts_run_the_checkout_they_sit_in(tmp_path):
    # no PYTHONPATH and another working directory: the script finds the
    # package next to it
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    done = subprocess.run([sys.executable, str(ROOT / "scripts" / "trace_digests.py")],
                          cwd=tmp_path, env=env, capture_output=True, text=True,
                          timeout=300)
    assert done.returncode == 0, done.stderr
    assert len(done.stdout.splitlines()) == 20


def test_topology_comparison(tmp_path):
    cfg = tmp_path / "topologies.cfg"
    write_config(dataclasses.replace(readme_config("topologies.cfg"), n=6, K=300),
                 cfg)
    out = tmp_path / "topologies"
    done = run_python("-m", "hsmadmm.harness", "run", "--config", str(cfg),
                      "--grid", "topology=ring,star,hub_leaf",
                      "--grid", "algorithm=hsm_admm,uniform_admm", "--out", str(out))
    assert done.returncode == 0, done.stderr
    lines = (out / "sweep.csv").read_text().splitlines()
    assert lines[0].startswith("topology,algorithm,seed,status,")
    rows = [dict(zip(lines[0].split(","), line.split(","))) for line in lines[1:]]
    assert [(r["topology"], r["algorithm"], r["status"]) for r in rows] == [
        (topo, algo, "ok") for topo in ("ring", "star", "hub_leaf")
        for algo in ("hsm_admm", "uniform_admm")]
    for topo in ("ring", "star", "hub_leaf"):
        done = run_python("-m", "hsmadmm.harness", "plot", "--traces",
                          str(out / f"{topo}__hsm_admm" / "trace.csv"),
                          str(out / f"{topo}__uniform_admm" / "trace.csv"),
                          "--labels", "hsm_admm,uniform_admm",
                          "--out", str(tmp_path / "charts" / topo))
        assert done.returncode == 0, done.stderr
        for name in PLOTS:
            assert (tmp_path / "charts" / topo / name).stat().st_size > 0


@pytest.mark.parametrize("workload,mode", [("oracle_gt16", "traced"),
                                           ("oracle_gt16", "setup"),
                                           ("rate_ring8", "setup"),
                                           ("rate_ring8", "plain"),
                                           ("analysis_n32p64", "traced")])
def test_benchmark_worker(tmp_path, workload, mode):
    # the traced mode wraps every function the benchmark patches by name, so
    # a renamed one fails here rather than only in a benchmark run
    done = subprocess.run([sys.executable, str(ROOT / "perfbench" / "worker.py"),
                           "--workload", workload, "--seed", "1", "--mode", mode,
                           "--out", str(tmp_path)],
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    assert "setup_s" in result
    if mode == "traced":
        assert "layers" in result
    if mode == "plain":
        # rate_ring8 logs every round: one timed protocol round per row
        assert len(result["round_ms"]) == sum(len(rep["wall_ms"])
                                              for rep in result["replicas"])
    if workload == "analysis_n32p64":
        # the checker runs from state 2 to K = 100
        assert result["layers"]["metrics.dual_check_calls"] == 99
        # the refresh makes two oracle calls per agent per round (n = 32),
        # each one seen by the tracer
        assert result["layers"]["problems.grad_calls"] == 2 * 32 * 100



def load_workloads():
    spec = importlib.util.spec_from_file_location(
        "perfbench_workloads", ROOT / "perfbench" / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up here
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("name", ["rate_ring8", "scale_hub256", "analysis_n32p64",
                                  "oracle_gt16"])
def test_benchmark_workload_configs_are_valid(name):
    # every key the benchmark passes must still be a valid RunConfig field
    workloads = load_workloads()
    assert len(workloads.WORKLOADS) == 4
    RunConfig(**workloads.run_config(workloads.WORKLOADS[name], 1))


# Runs one workload config given as JSON and prints the SHA-256 of the
# iterates x at every logged round.
X_DIGEST = """
import hashlib, json, sys
from hsmadmm.config import RunConfig
from hsmadmm.harness import build_graph, build_problem
from hsmadmm.simulator import run

cfg = RunConfig(**json.loads(sys.argv[1]))
digest = hashlib.sha256()

def sink(k, row, state):
    digest.update(f"{k}:".encode())
    digest.update(state.x.tobytes())

run(cfg, build_problem(cfg), build_graph(cfg), metrics_sink=sink)
print(digest.hexdigest())
"""


@pytest.mark.parametrize("name", ["oracle_gt16", "scale_hub256"])
def test_iterates_do_not_depend_on_the_blas_thread_count(name):
    # only the iterates: the logged stat_* and res_* columns come from
    # products a threaded BLAS may sum in another order
    workloads = load_workloads()
    cfg = json.dumps(workloads.run_config(workloads.WORKLOADS[name], 1, K=150))
    digests = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                   OMP_NUM_THREADS=threads, MKL_NUM_THREADS=threads,
                   PYTHONPATH=str(ROOT / "src"))
        done = subprocess.run([sys.executable, "-c", X_DIGEST, cfg], env=env,
                              capture_output=True, text=True, timeout=300)
        assert done.returncode == 0, done.stderr
        digests.append(done.stdout.strip())
    assert digests[0] == digests[1]


def load_trace_digests():
    spec = importlib.util.spec_from_file_location(
        "trace_digests", ROOT / "scripts" / "trace_digests.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_trace_digests_are_reproducible():
    module = load_trace_digests()
    first = module.digests(K=4)
    assert module.digests(K=4) == first
    assert [line.split()[:2] for line in first] == \
        [[name, f"seed={seed}"] for name in module.configs() for seed in module.SEEDS]
    assert len({line.split()[2] for line in first}) == len(first)


def test_trace_digests_match_the_committed_file():
    # the committed digests hold on the numpy and BLAS build they were made
    # on, with BLAS at one thread; see the header of tests/trace_digests.txt
    lines = [line for line in (ROOT / "tests" / "trace_digests.txt")
             .read_text().splitlines() if line and not line.startswith("#")]
    recorded = dict(line.split(": ", 1) for line in lines[:2])
    found = load_trace_digests().build()
    if found != recorded:
        pytest.skip(f"digests recorded on numpy {recorded['numpy']} with "
                    f"{recorded['blas']}, found numpy {found['numpy']} with "
                    f"{found['blas']}")
    done = run_script("trace_digests.py", OPENBLAS_NUM_THREADS="1",
                      OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines() == lines[2:]
