"""Span tracer for the benchmark's traced pass.

Wraps the public functions of each hsmadmm module by replacing the module
attributes their callers look up at call time, so the package itself is not
modified. Calls that happen at most a few times per round (rounds, dual
steps, metric rows, start-up work, writers) keep one span each: run id,
span id, name, parent span, start, end and self time. Calls made once per
agent (step_y, step_x, update_momentum, the oracle, the sampler, the prox
and state gathers) are aggregated into the nearest enclosing kept span as
(calls, total seconds, self seconds). Self time is a call's duration minus
the time its wrapped callees took. Everything stays in memory until
``write`` is called once at the end.
"""
from __future__ import annotations

import json
from collections import defaultdict
from time import perf_counter


class Tracer:
    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans = []             # [id, parent, name, start, end, self, agg]
        self._frames = [[0.0]]      # child-time accumulator per open call
        self._kept = [None]         # innermost open kept span
        self._installed = []

    def wrap(self, name: str, fn, keep: bool):
        frames, kept, spans = self._frames, self._kept, self.spans

        def traced(*args, **kwargs):
            frame = [0.0]
            frames.append(frame)
            if keep:
                span = [len(spans) + 1, kept[-1][0] if kept[-1] else None,
                        name, 0.0, 0.0, 0.0, {}]
                spans.append(span)
                kept.append(span)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter()
                frames.pop()
                dur = end - start
                frames[-1][0] += dur
                if keep:
                    kept.pop()
                    span[3], span[4], span[5] = start, end, dur - frame[0]
                elif kept[-1] is not None:
                    acc = kept[-1][6].setdefault(name, [0, 0.0, 0.0])
                    acc[0] += 1
                    acc[1] += dur
                    acc[2] += dur - frame[0]

        traced.__wrapped__ = fn
        return traced

    def patch(self, owner, attr: str, name: str, keep: bool = True) -> None:
        original = getattr(owner, attr)
        self._installed.append((owner, attr, original))
        setattr(owner, attr, self.wrap(name, original, keep))

    def uninstall(self) -> None:
        while self._installed:
            owner, attr, original = self._installed.pop()
            setattr(owner, attr, original)

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for sid, parent, name, start, end, self_t, agg in self.spans:
                fh.write(json.dumps({"run": self.run_id, "id": sid,
                                     "parent": parent, "name": name,
                                     "start": start, "end": end,
                                     "self": self_t, "agg": agg}) + "\n")


ROUND_SPANS = ("hsm_admm.round", "baselines.prox_gt_round")
BOOKKEEPING = "simulator.state_gather"


def install(tracer: Tracer) -> None:
    """Wrap the functions each layer's callers reach through module globals."""
    from hsmadmm import (baselines, estimator, harness, hsm_admm, metrics,
                         simulator)

    keep = (
        (simulator, "run", "simulator.run"),
        (harness, "run", "simulator.run"),
        (harness, "build_graph", "graph.build"),
        (harness, "build_problem", "problems.build"),
        (harness, "write_config", "harness.write"),
        (harness, "_write_json", "harness.write"),
        (harness, "emit_plots", "harness.emit_plots"),
        (harness, "line_chart", "svgplot.line_chart"),
        (simulator.MetricsTrace, "write_csv", "harness.write"),
        (metrics, "rate_fit", "harness.rate_fit"),
        (metrics, "rate_fit_averaged", "harness.rate_fit"),
        (simulator, "init_network_state", "hsm_admm.init_state"),
        (simulator, "constants_feasibility", "hsm_admm.feasibility"),
        (simulator, "make_lyapunov_constants", "metrics.lyapunov_constants"),
        (simulator, "DualBoundChecker", "metrics.checker_init"),
        (metrics.DualBoundChecker, "check", "metrics.dual_check"),
        (simulator, "metropolis_weights", "baselines.metropolis"),
        (simulator, "init_gt_state", "baselines.init_state"),
        (simulator, "hsm_admm_round", "hsm_admm.round"),
        (simulator, "prox_gt_round", "baselines.prox_gt_round"),
        (hsm_admm, "step_duals", "hsm_admm.step_duals"),
        (simulator, "stationarity_measure", "metrics.stationarity"),
        (simulator, "residuals", "metrics.residuals"),
        (simulator, "gradient_error", "metrics.gradient_error"),
        (simulator, "lyapunov", "metrics.lyapunov"),
    )
    aggregate = (
        (hsm_admm, "step_y", "hsm_admm.step_y"),
        (hsm_admm, "step_x", "hsm_admm.step_x"),
        (hsm_admm, "update_momentum", "estimator.update_momentum"),
        (hsm_admm, "prox_h", "problems.prox"),
        (baselines, "prox_h", "problems.prox"),
        (estimator, "stochastic_gradient", "problems.grad"),
        (baselines, "stochastic_gradient", "problems.grad"),
        (estimator, "draw_batch", "problems.draw"),
        (baselines, "draw_batch", "problems.draw"),
        (hsm_admm.NetworkState, "xs", BOOKKEEPING),
        (hsm_admm.NetworkState, "ys", BOOKKEEPING),
        (hsm_admm.NetworkState, "vs", BOOKKEEPING),
        (hsm_admm.NetworkState, "duals_vector", BOOKKEEPING),
        (baselines.ProxGtState, "xs", BOOKKEEPING),
        (simulator.MetricsTrace, "append", BOOKKEEPING),
    )
    for owner, attr, name in keep:
        tracer.patch(owner, attr, name, keep=True)
    for owner, attr, name in aggregate:
        tracer.patch(owner, attr, name, keep=False)


def layer_metrics(tracer: Tracer, n: int, rounds: int) -> dict:
    """Per-layer figures for one workload call from its spans.

    ``rounds`` is the number of rounds over all replicas. The loop window of
    a ``simulator.run`` span runs from its first round span to its end.
    """
    spans = tracer.spans
    totals = defaultdict(lambda: [0, 0.0, 0.0])       # name -> calls, dur, self
    children = defaultdict(list)
    for span in spans:
        sid, parent, name, start, end, self_t, agg = span
        children[parent].append(span)
        for child, acc in [(name, (1, end - start, self_t))] + list(agg.items()):
            for i in range(3):
                totals[child][i] += acc[i]

    loop = loop_self = unaccounted = 0.0
    for run in (s for s in spans if s[2] == "simulator.run"):
        kids = children[run[0]]
        starts = [k[3] for k in kids if k[2] in ROUND_SPANS]
        if not starts:
            continue
        window = run[4] - min(starts)
        covered = sum(k[4] - k[3] for k in kids if k[3] >= min(starts))
        # State gathers and row appends made by the run itself are
        # aggregated on the run span; all but the one initial snapshot
        # happen inside the loop.
        gathers = run[6].get(BOOKKEEPING, [0, 0.0, 0.0])[1]
        loop += window
        loop_self += window - covered
        unaccounted += window - covered - gathers
    # The baseline's own state gathers are part of its round.
    gt_round_self = sum(s[5] + s[6].get(BOOKKEEPING, [0, 0.0])[1]
                        for s in spans if s[2] == "baselines.prox_gt_round")
    rate_fit = sum(s[4] - s[3] for s in spans if s[2] == "harness.rate_fit"
                   and (s[1] is None or spans[s[1] - 1][2] != "harness.rate_fit"))

    def total(name, field=1):
        return totals[name][field] if name in totals else 0.0

    def per_call(name, field=1, scale=1e6):
        calls = total(name, 0)
        return total(name, field) / calls * scale if calls else 0.0

    agent_rounds = n * rounds
    return {
        "hsm_admm.y_us_per_agent_round": total("hsm_admm.step_y") / agent_rounds * 1e6,
        "hsm_admm.x_us_per_agent_round": total("hsm_admm.step_x") / agent_rounds * 1e6,
        "hsm_admm.duals_us_per_round": total("hsm_admm.step_duals") / rounds * 1e6,
        "hsm_admm.momentum_us_per_agent_round":
            total("estimator.update_momentum") / agent_rounds * 1e6,
        "hsm_admm.exchange_self_us_per_round": total("hsm_admm.round", 2) / rounds * 1e6,
        "simulator.loop_self_us_per_round": loop_self / rounds * 1e6,
        "estimator.update_self_us_per_call": per_call("estimator.update_momentum", 2),
        "problems.grad_calls": int(total("problems.grad", 0)),
        "problems.grad_us_per_call": per_call("problems.grad"),
        "problems.draw_us_per_call": per_call("problems.draw"),
        "problems.prox_us_per_call": per_call("problems.prox"),
        "baselines.round_self_us_per_round": gt_round_self / rounds * 1e6,
        "baselines.metropolis_s": total("baselines.metropolis"),
        "metrics.stationarity_us_per_call": per_call("metrics.stationarity"),
        "metrics.residuals_us_per_call": per_call("metrics.residuals"),
        "metrics.gradient_error_us_per_call": per_call("metrics.gradient_error"),
        "metrics.dual_check_us_per_call": per_call("metrics.dual_check"),
        "metrics.dual_check_calls": int(total("metrics.dual_check", 0)),
        "metrics.lyapunov_us_per_call": per_call("metrics.lyapunov"),
        "metrics.lyapunov_constants_s": total("metrics.lyapunov_constants"),
        "metrics.checker_init_s": total("metrics.checker_init"),
        "hsm_admm.feasibility_s": total("hsm_admm.feasibility"),
        "hsm_admm.init_state_s": total("hsm_admm.init_state"),
        "graph.build_s": total("graph.build"),
        "problems.build_s": total("problems.build"),
        "harness.write_s": (total("harness.write") + total("harness.emit_plots")
                            - total("svgplot.line_chart")),
        "harness.rate_fit_ms": rate_fit * 1e3,
        "svgplot.chart_ms": per_call("svgplot.line_chart", scale=1e3),
        "trace.unaccounted_share": unaccounted / loop if loop else 0.0,
    }
