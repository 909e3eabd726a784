#!/usr/bin/env python3
"""Stationarity decay-rate study on the nonconvex composite testbed.

Runs several seeds on a ring of 8 agents with label-partitioned data as the
replicas of one ``harness.run_single`` call, which writes the replica
traces, the summary with the rate fit of the mean running minimum, and the
charts; adds the averaged running minimum as ``mean_min_prefix.csv``, or
names the diverged seeds and exits 3.

Usage: python scripts/rate_experiment.py --seeds 5 --rounds 20000
"""
import argparse
import dataclasses
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))  # the checkout's package, not an installed one

from hsmadmm.config import ConfigInvalid, RunConfig
from hsmadmm.harness import replica_dirs, run_single
from hsmadmm.metrics import min_prefix
from hsmadmm.simulator import read_trace_csv


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default="results/rate")
    parser.add_argument("--seeds", type=int, default=5)
    parser.add_argument("--rounds", type=int, default=20000)
    args = parser.parse_args(argv)

    base = RunConfig(algorithm="hsm_admm", topology="ring", n=8, p=20,
                     problem="logistic", samples_per_agent=50,
                     regularizer="l1", l1_weight=1e-4, alpha=0.2, noniid=True,
                     batch_size=1, m0=32, K=args.rounds, dataset_seed=7,
                     track_lyapunov=False)
    out = Path(args.out)
    try:
        summary = run_single(dataclasses.replace(
            base, replicas=args.seeds, plots=True, out_dir=str(out)))
    except ConfigInvalid as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    diverged = [rep["seed"] for rep in summary["replicas"] if "diverged_at" in rep]
    if diverged:
        print(f"diverged seeds: {', '.join(map(str, diverged))}", file=sys.stderr)
        return 3
    for rep in summary["replicas"]:
        print(f"seed {rep['seed']}: final stationarity "
              f"{rep['final']['stat_total']:.3e}")
    agg = summary["aggregate"]
    if "slope_of_mean_min_prefix" in agg:
        print(f"log-log slope of the mean running minimum: "
              f"{agg['slope_of_mean_min_prefix']:.3f} "
              f"(intercept {agg['intercept_of_mean_min_prefix']:.3f})")
    else:
        print("no rate fit: it needs at least 100 logged rounds")

    traces = [read_trace_csv(d / "trace.csv") for d in replica_dirs(out, args.seeds)]
    mean_prefix = np.mean([min_prefix(t["stat_total"]) for t in traces], axis=0)
    np.savetxt(out / "mean_min_prefix.csv",
               np.column_stack([traces[0]["k"], mean_prefix]), delimiter=",",
               header="k,mean_min_prefix_stationarity", comments="")
    print(f"outputs written under {out}/")
    return 0


if __name__ == "__main__":
    sys.exit(main())
