#!/usr/bin/env python3
"""SHA-256 fingerprints of a fixed set of runs, for checking that a change
keeps every trajectory bit for bit.

Runs each configuration in ``configs()`` at K=150 and seeds 1 and 7919,
with plots, through ``harness.run_single`` in a temporary directory, and
prints one line per run: the configuration, the seed, the SHA-256 of its
trace.csv files without the wall_ms column (every replica's, in path order),
the SHA-256 of its summary.json and the SHA-256 of its SVG charts (their
bytes, in path order). The set holds the four benchmark workloads' configs,
read from perfbench/workloads.py, and a run of each algorithm and batch mode
they leave out. Run it in two checkouts and diff the outputs; digests depend
on the numpy and BLAS build (``build()``). tests/trace_digests.txt holds the
committed digests and the build they were made on.

Usage: python scripts/trace_digests.py
"""
import hashlib
import importlib.util
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))  # the checkout's package, not an installed one

from hsmadmm.config import RunConfig
from hsmadmm.harness import run_outputs, run_single

K = 150
SEEDS = (1, 7919)

EXTRA = {
    "prox_dsgd_b1": dict(algorithm="prox_dsgd", topology="ring", n=8, p=10,
                         problem="logistic", samples_per_agent=50,
                         regularizer="l1", l1_weight=1e-3, batch_size=1),
    "prox_gt_b0": dict(algorithm="prox_gt", topology="star", n=8, p=5,
                       problem="least_squares", samples_per_agent=20,
                       batch_size=0),
    "nonconvex_robust_a03": dict(algorithm="hsm_admm", topology="hub_leaf", n=12,
                                 hubs=2, p=6, problem="nonconvex_robust",
                                 alpha=0.3, samples_per_agent=30, batch_size=2,
                                 check_dual_bound=True, track_lyapunov=True),
    "hsm_admm_b0": dict(algorithm="hsm_admm", topology="star", n=8, p=5,
                        problem="least_squares", samples_per_agent=20,
                        batch_size=0),
    "uniform_admm_b2": dict(algorithm="uniform_admm", topology="star", n=8, p=5,
                            problem="logistic", samples_per_agent=20,
                            regularizer="l1", l1_weight=1e-3, batch_size=2),
    "hsm_admm_every7": dict(algorithm="hsm_admm", topology="ring", n=6, p=4,
                            problem="least_squares", samples_per_agent=20,
                            batch_size=1, track_lyapunov=True,
                            check_dual_bound=True, metric_every=7),
}


def configs() -> dict:
    """The benchmark workloads' configs without K, workers and plots, then
    ``EXTRA``; seeds and plots are set per run."""
    spec = importlib.util.spec_from_file_location(
        "perfbench_workloads", ROOT / "perfbench" / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up here
    spec.loader.exec_module(module)
    workloads = {name: {k: v for k, v in w.config.items()
                        if k not in ("K", "workers", "plots")}
                 for name, w in module.WORKLOADS.items()}
    return {**workloads, **EXTRA}


def build() -> dict:
    """The numpy version and BLAS library that the digests depend on."""
    import numpy as np
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"numpy": np.__version__, "blas": f"{blas['name']} {blas['version']}"}


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def digests(K: int = K, seeds=SEEDS) -> list:
    """One line per configuration and seed: name, seed and the three
    digests."""
    lines = []
    with tempfile.TemporaryDirectory() as tmp:
        for name, values in configs().items():
            for seed in seeds:
                cfg = RunConfig(**values, K=K, seed=seed, dataset_seed=seed,
                                graph_seed=seed, plots=True)
                out = Path(tmp) / f"{name}_{seed}"
                run_single(cfg, out)
                files = run_outputs(out)
                traces = "\n".join(line for rel in sorted(files)
                                   if rel.endswith("trace.csv")
                                   for line in files[rel])
                svg = b"".join(path.read_bytes()
                               for path in sorted(out.rglob("*.svg")))
                lines.append(f"{name} seed={seed} trace={_sha(traces.encode())} "
                             f"summary={_sha(files['summary.json'])} "
                             f"svg={_sha(svg)}")
    return lines


def main():
    for line in digests():
        print(line, flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
