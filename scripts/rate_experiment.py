#!/usr/bin/env python3
"""Stationarity decay-rate study on the nonconvex composite testbed.

Averages the running-minimum stationarity over several seeds on a ring of 8
agents with label-partitioned data, fits the log-log slope, and writes the
averaged trace plus a chart.

Usage: python scripts/rate_experiment.py --seeds 5 --rounds 20000
"""
import argparse
import dataclasses
import sys
from pathlib import Path

import numpy as np

from hsmadmm.config import RunConfig
from hsmadmm.harness import build_graph, build_problem, emit_plots
from hsmadmm.metrics import min_prefix, rate_fit_averaged
from hsmadmm.simulator import run


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
    g, prob = build_graph(base), build_problem(base)

    curves = []
    traces = {}
    for seed in range(args.seeds):
        cfg = dataclasses.replace(base, seed=seed)
        trace = run(cfg, prob, g)
        curves.append((trace.column("k"), trace.column("stat_total")))
        traces[f"seed {seed}"] = {name: trace.column(name)
                                  for name in trace.header}
        print(f"seed {seed}: final stationarity "
              f"{trace.column('stat_total')[-1]:.3e}")

    slope, intercept = rate_fit_averaged(curves)
    print(f"log-log slope of the mean running minimum: {slope:.3f} "
          f"(intercept {intercept:.3f})")

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    ks = curves[0][0]
    mean_prefix = np.mean([min_prefix(vals) for _, vals in curves], axis=0)
    np.savetxt(out / "mean_min_prefix.csv",
               np.column_stack([ks, mean_prefix]), delimiter=",",
               header="k,mean_min_prefix_stationarity", comments="")
    emit_plots(traces, out)
    print(f"outputs written under {out}/")
    return 0


if __name__ == "__main__":
    sys.exit(main())
