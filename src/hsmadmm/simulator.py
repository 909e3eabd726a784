"""Deterministic synchronous round engine with a message ledger.

Each agent owns an RNG stream seeded from (master seed, agent id), so the
trajectory is a pure function of the run configuration. One drawer for
every algorithm, ``baselines.batch_rows``, turns the streams into batch
rows; each round takes its rows and the run's message ledger. A run is one
process on stacked (n, p) arrays; parallel runs (``hsmadmm run --jobs``)
give byte-identical outputs for any job count apart from wall times.

A fixed divergence guard, ``DIVERGENCE_GUARD``, ends a run at numerical
blow-up; the run returns the trace logged so far, which records the round
in ``meta["diverged_at"]``.

Rounds rebind the state's arrays (``state.x = ...``) and never write into
them. The merit function, the dual-bound checker and the accumulation
records read the last two states (x, lam, ||E||^2), so the run keeps those
by reference, without copies. The states whose estimation error ||E||^2 is
read are fixed before round 1, and each such error is evaluated once.
"""
from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field
from time import perf_counter
from typing import ClassVar

import numpy as np

from .baselines import (batch_rows, init_dsgd_state, init_gt_state,
                        metropolis_weights, prox_dsgd_round, prox_gt_round)
from .config import ConfigInvalid, RunConfig
from .graph import Graph
from .hsm_admm import (Schedules, hsm_admm_round, init_network_state,
                       step_degrees)
from .metrics import (DualBoundChecker, constants_feasibility, gradient_error,
                      lyapunov, make_lyapunov_constants, residuals,
                      stationarity_measure, step_matrix_base)
from .problems import CompositeProblem

# Largest agent-state magnitude a run may reach before it counts as diverged.
DIVERGENCE_GUARD = 1e12


TRACE_HEADER = ("k", "stat_total", "stat_prox", "stat_consensus", "res_combined",
                "res_consensus", "res_split", "err_sq", "phi", "scalars_tx",
                "wall_ms")


@dataclass
class MessageLedger:
    """Cumulative counts of transmitted vectors and scalars."""

    vector_messages: int = 0
    scalars_transmitted: int = 0

    def record(self, vectors: int, p: int) -> None:
        self.vector_messages += int(vectors)
        self.scalars_transmitted += int(vectors) * int(p)


@dataclass
class MetricsTrace:
    """Per-round metric rows plus checker violation records."""

    header: ClassVar[tuple] = TRACE_HEADER
    rows: list = field(default_factory=list)
    violations: list = field(default_factory=list)
    meta: dict = field(default_factory=dict)

    def append(self, row) -> None:
        if len(row) != len(self.header):
            raise ValueError("row width does not match header")
        self.rows.append(list(row))

    def column(self, name: str) -> np.ndarray:
        idx = self.header.index(name)
        return np.array([row[idx] for row in self.rows], dtype=float)

    def last_row(self) -> dict:
        if not self.rows:
            raise ValueError("empty trace")
        return dict(zip(self.header, self.rows[-1]))

    def write_csv(self, path) -> None:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(",".join(self.header) + "\n")
            for row in self.rows:
                parts = [str(int(row[0]))]
                parts.extend(repr(float(v)) for v in row[1:])
                fh.write(",".join(parts) + "\n")


def read_trace_csv(path) -> dict:
    """Load a trace CSV back into named float arrays. A file whose first
    line is not the trace header raises ``ValueError``."""
    with open(path, encoding="utf-8") as fh:
        header = fh.readline().rstrip("\r\n")
    if header != ",".join(TRACE_HEADER):
        raise ValueError(f"first line is not the trace header: {header[:60]!r}")
    data = np.genfromtxt(path, delimiter=",", names=True)
    data = np.atleast_1d(data)
    return {name: np.asarray(data[name], dtype=float) for name in data.dtype.names}


def metric_rounds(K: int, every: int = 0) -> set:
    """Rounds to log: every round through 100, then every ceil(K/1000), plus
    the final round; ``every > 0`` forces a fixed stride instead."""
    if K <= 0:
        return set()
    if every > 0:
        chosen = set(range(every, K + 1, every))
    else:
        stride = max(1, math.ceil(K / 1000))
        chosen = set(range(1, min(K, 100) + 1))
        chosen.update(range(stride, K + 1, stride))
    chosen.add(K)
    return chosen


def agent_streams(master_seed: int, n: int) -> list:
    """One generator per agent, seeded from (master seed, agent id)."""
    return [np.random.default_rng([master_seed, 1, i]) for i in range(n)]


def initial_point(master_seed: int, p: int) -> np.ndarray:
    return np.random.default_rng([master_seed, 0]).standard_normal(p)


def run(config: RunConfig, prob: CompositeProblem, graph: Graph,
        metrics_sink=None) -> MetricsTrace:
    """Drive ``config.K`` synchronous rounds of the configured algorithm.

    Returns the metrics trace with its run metadata. If an agent state
    exceeds the guard after round s, the run stops there and returns the
    trace logged so far, with ``meta["diverged_at"] = s``. The optional
    ``metrics_sink(k, row, state)`` is invoked at every logged round with
    the live state. The run still reads its arrays, so the sink must not
    write into them, and the next round rebinds them, so the sink keeps what
    it needs as copies (``state.xs()``), not as the ``state`` object.
    """
    if prob.n != graph.n:
        raise ConfigInvalid(f"problem has {prob.n} agents, graph has {graph.n}")
    p = prob.p
    sched = Schedules(config.c_rho, config.c_a, config.c_eta)
    rngs = agent_streams(config.seed, graph.n)
    x0 = initial_point(config.seed, p)
    ledger = MessageLedger()
    trace = MetricsTrace()
    admm = config.algorithm in ("hsm_admm", "uniform_admm")

    c_beta = checker = accum = None
    if admm:
        # the analysis step matrix S, its norm and c_beta, once per run
        degrees = step_degrees(graph, config.algorithm == "uniform_admm")
        S = step_matrix_base(graph, sched, degrees=degrees)
        s_norm = float(np.linalg.norm(S, 2))
        c_beta = make_lyapunov_constants(s_norm, prob.smoothness, sched.c_rho)
        trace.meta["feasibility"] = asdict(constants_feasibility(
            graph, sched, prob.smoothness, S, c_beta))
        # the start's m0 rows first (none at batch 0), then the rounds' drawer
        state = init_network_state(prob, graph, x0, next(batch_rows(
            prob, rngs, config.m0 if config.batch_size else 0, 1)))
        batches = batch_rows(prob, rngs, config.batch_size, config.K)

        def round_fn(k):
            hsm_admm_round(state, prob, graph, sched, k, next(batches),
                           degrees=degrees, ledger=ledger)
    elif config.algorithm == "prox_dsgd":
        W = metropolis_weights(graph)
        state = init_dsgd_state(graph, x0)
        batches = batch_rows(prob, rngs, config.batch_size, config.K)

        def round_fn(k):
            prox_dsgd_round(state, prob, graph, W, k, next(batches),
                            step_scale=config.step_scale, ledger=ledger)
    else:
        W = metropolis_weights(graph)
        # one batch for the initial trackers, then one per round
        batches = batch_rows(prob, rngs, config.batch_size, config.K + 1)
        state = init_gt_state(prob, graph, x0, next(batches))

        def round_fn(k):
            prox_gt_round(state, prob, graph, W, k, next(batches),
                          step_scale=config.step_scale, ledger=ledger)

    track_phi = config.track_lyapunov and admm
    if config.check_dual_bound and admm:
        checker = DualBoundChecker(S, s_norm, prob.smoothness)
    if config.record_accumulation and admm:
        accum = {key: np.zeros(config.K + 1) for key in ("err_sq", "dx_sq", "r_sq")}

    # States whose estimation error is read: all of them for the checker and
    # the accumulation records, else the logged ones and, for the merit, the
    # state before each.
    logset = metric_rounds(config.K, config.metric_every)
    if checker is not None or accum is not None:
        err_states = range(config.K + 1)
    elif admm:
        err_states = logset | {s - 1 for s in logset if track_phi and s >= 2}
    else:
        err_states = set()

    nan = float("nan")
    err_sq = gradient_error(prob, state.x, state.v) if 0 in err_states else nan
    # (x, lam, err_sq) at states s-1 and s-2, by reference
    prev = (state.x, state.duals_vector() if admm else None, err_sq)
    prev2 = None
    if accum is not None:
        accum["err_sq"][0] = err_sq
        accum["r_sq"][0] = residuals(graph, state.x, state.y).combined ** 2

    start = perf_counter()
    for r in range(config.K):
        round_fn(r)
        s = r + 1
        xs = state.x
        peak = float(np.max(np.abs(xs))) if xs.size else 0.0
        if not np.isfinite(peak) or peak > DIVERGENCE_GUARD:
            trace.meta["diverged_at"] = s
            break

        err_sq = gradient_error(prob, xs, state.v) if s in err_states else nan
        cur = (xs, state.duals_vector() if admm else None, err_sq)

        if checker is not None and s >= 2:
            rec = checker.check(s, xs, prev[0], prev2[0], cur[1], prev[1],
                                prev[2], prev2[2])
            if rec is not None:
                trace.violations.append(rec)

        if accum is not None:
            dx = xs - prev[0]
            accum["err_sq"][s] = err_sq
            accum["dx_sq"][s] = float(np.sum(dx * dx))
            accum["r_sq"][s] = residuals(graph, xs, state.y).combined ** 2

        if s in logset:
            stat = stationarity_measure(prob, xs)
            ys = state.y if admm else xs
            res = residuals(graph, xs, ys)
            phi = nan
            if track_phi and s >= 2:
                phi = lyapunov(prob, graph, sched, c_beta, s, xs, ys, cur[1],
                               prev[0], err_sq, prev[2]).phi
            wall = (perf_counter() - start) * 1000.0
            row = (s, stat.total, stat.prox_gradient_gap, stat.consensus_gap,
                   res.combined, res.consensus, res.splitting, err_sq, phi,
                   float(ledger.scalars_transmitted), wall)
            trace.append(row)
            if metrics_sink is not None:
                metrics_sink(s, dict(zip(TRACE_HEADER, row)), state)

        prev2, prev = prev, cur

    trace.meta.update({
        "algorithm": config.algorithm,
        "n": graph.n,
        "p": p,
        "K": config.K,
        "seed": config.seed,
        "vector_messages": ledger.vector_messages,
        "scalars_transmitted": ledger.scalars_transmitted,
        "violation_count": len(trace.violations),
    })
    if accum is not None:
        trace.meta["accumulation"] = accum
    return trace
