"""Workload definitions: the configuration each workload hands to hsmadmm,
derived from the workload seed, plus the reference values its output checks
compare against.

Every seed, dataset seed and graph seed a run uses is derived from the one
``--seed`` argument, so the same seed always produces the same inputs and
the program sees nothing but the generated configuration, graph and problem.
"""
from __future__ import annotations

import dataclasses
import math

import numpy as np


@dataclasses.dataclass(frozen=True)
class Workload:
    name: str
    why: str
    entry: str                 # "run_single" (harness) or "run" (simulator)
    config: dict               # RunConfig fields; seeds are filled in per run
    target_ratio: float        # target = ratio * stat_total of the first logged row
    ref_rounds_to_target: float
    ref_final_stat: float
    tolerance: float           # checked values must lie in [ref / tol, ref * tol]


WORKLOADS = {w.name: w for w in (
    Workload(
        name="rate_ring8",
        why="criterion-7 rate study as a user runs it: 5 replicas through "
            "harness.run_single with plots; per-agent Python overhead, metric "
            "rows every round, harness and svgplot",
        entry="run_single",
        config=dict(algorithm="hsm_admm", topology="ring", n=8, p=20,
                    problem="logistic", samples_per_agent=50,
                    regularizer="l1", l1_weight=1e-4, alpha=0.2, noniid=True,
                    batch_size=1, m0=32, K=400, replicas=5, workers=1,
                    track_lyapunov=False, plots=True),
        target_ratio=0.3, ref_rounds_to_target=185.0, ref_final_stat=0.022,
        tolerance=3.0),
    Workload(
        name="scale_hub256",
        why="n=256 hub_leaf round engine at scale: the per-agent loop is "
            "nearly all the time; sparse metrics and no dense analysis",
        entry="run",
        config=dict(algorithm="hsm_admm", topology="hub_leaf", n=256, hubs=8,
                    p=20, problem="least_squares", samples_per_agent=50,
                    batch_size=1, K=125, metric_every=5, workers=1,
                    track_lyapunov=False, check_dual_bound=False),
        target_ratio=0.03, ref_rounds_to_target=65.0, ref_final_stat=0.046,
        tolerance=3.0),
    Workload(
        name="analysis_n32p64",
        why="dense analysis layer at n*p=2048: eigvalsh at start-up, the "
            "dual-bound checker, the merit function and per-row gradient error",
        entry="run",
        config=dict(algorithm="hsm_admm", topology="hub_leaf", n=32, hubs=4,
                    p=64, problem="least_squares", samples_per_agent=50,
                    batch_size=1, K=100, metric_every=1, workers=1,
                    track_lyapunov=True, check_dual_bound=True,
                    record_accumulation=True),
        target_ratio=0.3, ref_rounds_to_target=48.0, ref_final_stat=0.02,
        tolerance=3.0),
    Workload(
        name="oracle_gt16",
        why="prox_gt with N_i=5000 and batch 32: the gradient oracle and the "
            "mixing baseline dominate, with two vectors per neighbor",
        entry="run",
        config=dict(algorithm="prox_gt", topology="random_connected", n=16,
                    edge_prob=0.3, p=20, problem="logistic",
                    samples_per_agent=5000, regularizer="l1", l1_weight=1e-4,
                    batch_size=32, step_scale=1.0, K=300, metric_every=10,
                    workers=1),
        target_ratio=0.25, ref_rounds_to_target=120.0, ref_final_stat=0.0055,
        tolerance=3.0),
)}

DEFAULT_SEED = 1
HELD_OUT_SEED = 7919


def derived_seeds(seed: int) -> dict:
    """dataset_seed, graph_seed and the run seed, all drawn from ``seed``."""
    d, g, s = np.random.SeedSequence(seed).generate_state(3)
    return {"dataset_seed": int(d), "graph_seed": int(g), "seed": int(s % 2**31)}


def run_config(workload: Workload, seed: int, **overrides) -> dict:
    values = dict(workload.config, **derived_seeds(seed))
    values.update(overrides)
    return values


def expected_rounds(K: int, every: int) -> list:
    """Logged rounds under the simulator's documented cadence: a fixed
    stride when ``every > 0``, otherwise every round through 100 and then
    every ceil(K/1000); the final round is always logged."""
    if every > 0:
        chosen = set(range(every, K + 1, every))
    else:
        stride = max(1, math.ceil(K / 1000))
        chosen = set(range(1, min(K, 100) + 1)) | set(range(stride, K + 1, stride))
    chosen.add(K)
    return sorted(chosen)


def messages_per_round(algorithm: str, m: int) -> int:
    """Vectors sent per round: one per directed neighbor pair for the ADMM
    rounds and prox_dsgd, two (iterate and tracker) for prox_gt."""
    return (4 if algorithm == "prox_gt" else 2) * m
