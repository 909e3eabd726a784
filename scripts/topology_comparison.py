#!/usr/bin/env python3
"""Compare degree-scaled and uniform step sizes across topologies.

Runs both ADMM variants on a ring, a star, and a hub-leaf network with the
same schedule constants, reports rounds-to-threshold, and drops convergence
charts per topology.

Usage: python scripts/topology_comparison.py --out results/topologies
"""
import argparse
import dataclasses
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))  # the checkout's package, not an installed one

from hsmadmm.config import RunConfig
from hsmadmm.harness import build_graph, build_problem, emit_plots
from hsmadmm.metrics import rounds_to_tolerance
from hsmadmm.simulator import run


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default="results/topologies")
    parser.add_argument("--n", type=int, default=16)
    parser.add_argument("--rounds", type=int, default=5000)
    parser.add_argument("--tol", type=float, default=1e-3)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)

    base = RunConfig(n=args.n, p=3, problem="least_squares",
                     samples_per_agent=20, regularizer="none", batch_size=0,
                     m0=1, K=args.rounds, seed=args.seed, dataset_seed=20,
                     metric_every=5, track_lyapunov=False)
    out = Path(args.out)
    print(f"{'topology':10s} {'algorithm':14s} rounds to stat <= {args.tol:g}")
    for topo in ("ring", "star", "hub_leaf"):
        traces = {}
        for algo in ("hsm_admm", "uniform_admm"):
            cfg = dataclasses.replace(base, topology=topo, algorithm=algo)
            trace = run(cfg, build_problem(cfg), build_graph(cfg))
            traces[algo] = {name: trace.column(name) for name in trace.header}
            hit = rounds_to_tolerance(trace, args.tol)
            print(f"{topo:10s} {algo:14s} {hit if hit is not None else '> budget'}")
        emit_plots(traces, out / topo)
    print(f"charts written under {out}/")
    return 0


if __name__ == "__main__":
    sys.exit(main())
