import dataclasses
import math

import numpy as np
import pytest

from hsmadmm import metrics, simulator
from hsmadmm.baselines import batch_rows
from hsmadmm.checks import determinism
from hsmadmm.config import ConfigInvalid, RunConfig
from hsmadmm.harness import build_graph, build_problem
from hsmadmm.hsm_admm import (Schedules, hsm_admm_round, init_network_state,
                              step_degrees)
from hsmadmm.metrics import (constants_feasibility, gradient_error,
                             make_lyapunov_constants, step_matrix_base)
from hsmadmm.problems import draw_batch
from hsmadmm.simulator import (TRACE_HEADER, MessageLedger, MetricsTrace,
                               agent_streams, initial_point, metric_rounds,
                               read_trace_csv, run)


def small_cfg(**kw):
    base = dict(algorithm="hsm_admm", topology="ring", n=4, p=2,
                problem="least_squares", samples_per_agent=8, K=30,
                track_lyapunov=False)
    base.update(kw)
    return RunConfig(**base)


def test_zero_rounds_is_empty():
    cfg = small_cfg(K=0)
    trace = run(cfg, build_problem(cfg), build_graph(cfg))
    assert trace.rows == []
    assert trace.meta["vector_messages"] == 0
    assert trace.meta["scalars_transmitted"] == 0


def test_ledger_totals_ring8():
    cfg = small_cfg(n=8, p=10, K=100, samples_per_agent=5)
    trace = run(cfg, build_problem(cfg), build_graph(cfg))
    assert trace.meta["vector_messages"] == 100 * 16
    assert trace.meta["scalars_transmitted"] == 100 * 16 * 10
    assert trace.last_row()["scalars_tx"] == 100 * 16 * 10


def test_trace_rows_sorted_and_complete():
    cfg = small_cfg(K=250)
    trace = run(cfg, build_problem(cfg), build_graph(cfg))
    ks = trace.column("k")
    assert np.all(np.diff(ks) > 0)
    assert ks[-1] == 250
    for row in trace.rows:
        assert len(row) == len(TRACE_HEADER)


def test_metric_cadence_rules():
    assert metric_rounds(0) == set()
    assert metric_rounds(50) == set(range(1, 51))
    big = metric_rounds(5000)
    stride = math.ceil(5000 / 1000)
    assert set(range(1, 101)) <= big
    assert all(k % stride == 0 for k in big if k > 100)
    assert 5000 in big
    fixed = metric_rounds(100, every=7)
    assert fixed == set(range(7, 101, 7)) | {100}


def test_determinism_across_runs_and_workers():
    cfg = small_cfg(K=60, regularizer="l1", l1_weight=0.01, problem="logistic",
                    alpha=0.1)
    prob, g = build_problem(cfg), build_graph(cfg)
    t1 = run(cfg, prob, g)
    t2 = run(cfg, prob, g)
    strip = lambda tr: np.array([r[:-1] for r in tr.rows], dtype=float)
    assert np.array_equal(strip(t1), strip(t2), equal_nan=True)

    # parallel work is across runs: run --jobs worker processes change nothing;
    # 13 files are 8 traces, 4 cell summaries and the sweep table
    ok, detail = determinism(cfg)
    assert ok and detail.startswith("13 files,"), detail


def test_divergence_guard_returns_a_diverged_trace():
    cfg = small_cfg(c_eta=1e-8, K=200)
    trace = run(cfg, build_problem(cfg), build_graph(cfg))
    assert 1 <= trace.meta["diverged_at"] < cfg.K


def test_diverged_trace_keeps_its_run_metadata():
    # the ledger totals and the run's identity are written on both exits,
    # so a diverged replica's summary reports what it sent
    cfg = small_cfg(c_eta=1e-8, K=200)
    g = build_graph(cfg)
    meta = run(cfg, build_problem(cfg), g).meta
    s = meta["diverged_at"]
    assert meta["vector_messages"] == s * 2 * g.m
    assert meta["scalars_transmitted"] == s * 2 * g.m * cfg.p
    assert (meta["algorithm"], meta["n"], meta["p"], meta["K"], meta["seed"]) == \
        ("hsm_admm", 4, 2, 200, 0)
    assert meta["violation_count"] == 0


def test_sink_invoked_at_logged_rounds():
    cfg = small_cfg(K=40, metric_every=10)
    seen = []
    run(cfg, build_problem(cfg), build_graph(cfg),
        metrics_sink=lambda s, row, state: seen.append((s, row["k"])))
    assert [s for s, _ in seen] == [10, 20, 30, 40]
    assert all(s == k for s, k in seen)


def test_full_batch_has_zero_error_and_finite_phi():
    cfg = small_cfg(K=20, batch_size=0, m0=1, track_lyapunov=True)
    trace = run(cfg, build_problem(cfg), build_graph(cfg))
    err = trace.column("err_sq")
    assert np.allclose(err, 0.0, atol=1e-25)
    phi = trace.column("phi")
    assert np.isnan(phi[0])  # needs two completed rounds
    assert np.all(np.isfinite(phi[2:]))


def test_baseline_trace_has_nan_error_and_zero_split():
    cfg = small_cfg(algorithm="prox_gt", K=25)
    trace = run(cfg, build_problem(cfg), build_graph(cfg))
    assert np.all(np.isnan(trace.column("err_sq")))
    assert np.all(np.isnan(trace.column("phi")))
    assert np.allclose(trace.column("res_split"), 0.0)
    assert trace.meta["vector_messages"] == 25 * 4 * 4


def test_accumulation_recording_lengths():
    cfg = small_cfg(K=15, record_accumulation=True, batch_size=0, m0=1)
    trace = run(cfg, build_problem(cfg), build_graph(cfg))
    acc = trace.meta["accumulation"]
    for key in ("err_sq", "dx_sq", "r_sq"):
        assert acc[key].shape == (16,)  # states 0..15
    assert acc["dx_sq"][0] == 0.0


@pytest.mark.parametrize("batch_size", [0, 2])
@pytest.mark.parametrize("algorithm", ["hsm_admm", "uniform_admm", "prox_dsgd",
                                       "prox_gt"])
def test_rounds_never_write_into_state_arrays(algorithm, batch_size):
    # the run keeps earlier states by reference: a round rebinds the state's
    # arrays and must never write into them
    cfg = small_cfg(algorithm=algorithm, batch_size=batch_size, K=12,
                    metric_every=1, track_lyapunov=True, check_dual_bound=True,
                    record_accumulation=True)

    def freeze(s, row, state):
        for value in vars(state).values():
            value.setflags(write=False)

    trace = run(cfg, build_problem(cfg), build_graph(cfg), metrics_sink=freeze)
    assert trace.column("k").tolist() == list(range(1, 13))


def test_admm_rounds_take_each_agents_stream_in_round_order():
    # the run's block drawer must hand round k the rows that one draw per
    # agent per round gives on the same streams, after the start's m0 draw;
    # both sides do the same arithmetic, so this holds on any numpy or BLAS
    cfg = small_cfg(K=30, batch_size=2, m0=5, regularizer="l1", l1_weight=0.01)
    prob, graph = build_problem(cfg), build_graph(cfg)
    final = {}
    run(cfg, prob, graph, metrics_sink=lambda s, row, state: final.update(
        x=state.xs(), v=state.vs()))

    rngs = agent_streams(cfg.seed, cfg.n)
    state = init_network_state(prob, graph, initial_point(cfg.seed, cfg.p),
                               next(batch_rows(prob, rngs, cfg.m0, 1)))
    sched = Schedules(cfg.c_rho, cfg.c_a, cfg.c_eta)
    for k in range(cfg.K):
        rows = np.stack([draw_batch(prob, i, rngs[i], cfg.batch_size)
                         for i in range(cfg.n)])
        hsm_admm_round(state, prob, graph, sched, k, rows,
                       degrees=step_degrees(graph))
    assert state.x.tobytes() == final["x"].tobytes()
    assert state.v.tobytes() == final["v"].tobytes()


def counted_run(cfg, monkeypatch):
    """Run ``cfg``; return its trace, its ``gradient_error`` call count and
    the arguments of every dual-bound check."""
    calls, checks = [], []
    check = simulator.DualBoundChecker.check

    def counting(*args):
        calls.append(1)
        return gradient_error(*args)

    def recording(self, *args):
        checks.append(args)
        return check(self, *args)

    with monkeypatch.context() as patch:
        patch.setattr(simulator, "gradient_error", counting)
        patch.setattr(simulator.DualBoundChecker, "check", recording)
        trace = run(cfg, build_problem(cfg), build_graph(cfg))
    return trace, len(calls), checks


def assert_shared_rows_equal(sparse, dense):
    rows = {row[0]: row[:-1] for row in dense.rows}   # without wall_ms
    assert len(sparse.rows) < len(dense.rows)
    for row in sparse.rows:
        assert np.array_equal(row[:-1], rows[row[0]], equal_nan=True)


def test_logging_cadence_changes_no_value(monkeypatch):
    base = small_cfg(K=60, batch_size=1, regularizer="l1", l1_weight=0.01,
                     track_lyapunov=True, check_dual_bound=True,
                     record_accumulation=True)
    dense, _, dense_checks = counted_run(dataclasses.replace(base, metric_every=1),
                                         monkeypatch)
    sparse, calls, checks = counted_run(dataclasses.replace(base, metric_every=7),
                                        monkeypatch)
    assert calls == 61                  # every state 0..K, once each
    assert_shared_rows_equal(sparse, dense)
    assert sparse.violations == dense.violations
    assert len(checks) == len(dense_checks) == 59
    for got, want in zip(checks, dense_checks):
        assert all(np.array_equal(a, b) for a, b in zip(got, want))
    for key, values in dense.meta["accumulation"].items():
        assert np.array_equal(sparse.meta["accumulation"][key], values)

    # the merit alone reads the error at each logged state and the one
    # before it, not at every state
    merit = small_cfg(K=1200, batch_size=1, track_lyapunov=True)
    dense, _, _ = counted_run(dataclasses.replace(merit, metric_every=1),
                              monkeypatch)
    strided, calls, _ = counted_run(merit, monkeypatch)       # stride 2 past 100
    assert calls == 1200
    assert_shared_rows_equal(strided, dense)
    every7, calls, _ = counted_run(dataclasses.replace(merit, metric_every=7),
                                   monkeypatch)
    assert calls == 2 * len(every7.rows) == 344
    assert_shared_rows_equal(every7, dense)


def test_agent_mismatch_rejected():
    cfg = small_cfg()
    prob = build_problem(dataclasses.replace(cfg, n=5, topology="star"))
    with pytest.raises(ConfigInvalid):
        run(cfg, prob, build_graph(cfg))


def test_trace_csv_round_trip(tmp_path):
    cfg = small_cfg(K=12)
    trace = run(cfg, build_problem(cfg), build_graph(cfg))
    path = tmp_path / "trace.csv"
    trace.write_csv(path)
    with open(path) as fh:
        header = fh.readline().strip()
    assert header == ",".join(TRACE_HEADER)
    cols = read_trace_csv(path)
    assert np.array_equal(cols["k"], trace.column("k"))
    assert np.allclose(cols["stat_total"], trace.column("stat_total"), rtol=0, atol=0)


def test_ledger_record_arithmetic():
    led = MessageLedger()
    led.record(16, 10)
    led.record(16, 10)
    assert led.vector_messages == 32
    assert led.scalars_transmitted == 320


def test_trace_guards():
    trace = MetricsTrace()
    with pytest.raises(ValueError, match="row width does not match header"):
        trace.append((1.0, 2.0))
    with pytest.raises(ValueError, match="empty trace"):
        trace.last_row()


def test_merit_and_dual_check_run_past_the_dense_size():
    # n*p = 4608 is past the dense-matrix limit; the analysis layer works on
    # the n x n step matrix and must not switch itself off
    cfg = small_cfg(n=72, p=64, K=4, samples_per_agent=3, metric_every=1,
                    track_lyapunov=True, check_dual_bound=True)
    trace = run(cfg, build_problem(cfg), build_graph(cfg))
    phi = trace.column("phi")
    assert np.isnan(phi[0])
    assert np.all(np.isfinite(phi[1:]))


def test_admm_set_up_builds_the_step_matrix_once(monkeypatch):
    # the feasibility report, the merit and the dual-bound checker share one
    # step matrix S and one spectral norm ||S||_2
    builds, norms = [], []
    build, norm = metrics.step_matrix_base, np.linalg.norm

    def counting_build(*args, **kwargs):
        builds.append(1)
        return build(*args, **kwargs)

    def counting_norm(x, ord=None, *args, **kwargs):
        if ord == 2:
            norms.append(1)
        return norm(x, ord, *args, **kwargs)

    monkeypatch.setattr(metrics, "step_matrix_base", counting_build)
    monkeypatch.setattr(simulator, "step_matrix_base", counting_build,
                        raising=False)
    monkeypatch.setattr(np.linalg, "norm", counting_norm)
    cfg = small_cfg(K=5, metric_every=1, track_lyapunov=True,
                    check_dual_bound=True)
    trace = run(cfg, build_problem(cfg), build_graph(cfg))
    assert np.all(np.isfinite(trace.column("phi")[1:]))
    assert (len(builds), len(norms)) == (1, 1)


def test_every_admm_run_carries_its_feasibility_report():
    cfg = small_cfg(K=2)
    prob, g = build_problem(cfg), build_graph(cfg)
    first, second = (run(cfg, prob, g).meta["feasibility"] for _ in range(2))
    assert first == second
    assert set(first) == {"feasible", "c_mu", "margin"}
    assert "feasibility" not in run(dataclasses.replace(cfg, algorithm="prox_gt"),
                                    prob, g).meta


def test_uniform_admm_feasibility_uses_max_degree():
    cfg = small_cfg(topology="star", n=6, K=2, algorithm="uniform_admm")
    prob, g = build_problem(cfg), build_graph(cfg)
    sched = Schedules(cfg.c_rho, cfg.c_a, cfg.c_eta)
    report = run(cfg, prob, g).meta["feasibility"]

    def report_for(degrees):
        S = step_matrix_base(g, sched, degrees=degrees)
        c_beta = make_lyapunov_constants(float(np.linalg.norm(S, 2)),
                                         prob.smoothness, sched.c_rho)
        return dataclasses.asdict(constants_feasibility(
            g, sched, prob.smoothness, S, c_beta))

    uniform = report_for(step_degrees(g, True))
    local = report_for(step_degrees(g))
    assert report == uniform
    assert report != local
