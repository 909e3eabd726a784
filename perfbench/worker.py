"""One measured repetition of one workload, in a fresh interpreter.

Usage (started by run.py, one process at a time):

    python3 perfbench/worker.py --workload NAME --seed N --mode plain|traced|setup --out DIR

``plain`` runs the workload untraced and reports end-to-end timings, each
protocol round's time and the traces' content. ``traced`` runs it with every layer wrapped (tracer.py) and
also times the gradient oracle directly. ``setup`` runs it with K = 1, one
replica and no plots, which leaves everything before round 1 unchanged, and
reports only the time to round 1. The last line of standard output is one
JSON object.
"""
from __future__ import annotations

import argparse
import csv
import dataclasses
import hashlib
import json
import resource
import sys
import warnings
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import numpy as np  # noqa: E402

from hsmadmm import harness, problems, simulator  # noqa: E402
from hsmadmm.config import RunConfig  # noqa: E402

import tracer as tracing  # noqa: E402
from workloads import WORKLOADS, run_config  # noqa: E402


def trace_rows(trace) -> list:
    """Rows as the trace CSV writes them: k as an int, the rest by repr."""
    return [[str(int(row[0]))] + [repr(float(v)) for v in row[1:]]
            for row in trace.rows]


def read_rows(path: Path) -> list:
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        if tuple(header) != simulator.TRACE_HEADER:
            raise ValueError(f"{path}: unexpected header {header}")
        return [row for row in reader]


def run_workload(spec, cfg: RunConfig, out: Path) -> list:
    """Run the workload as a user does and return, per replica, the trace
    rows and the ledger counts the program reported."""
    if spec.entry == "run_single":
        summary = harness.run_single(cfg, out)
        with open(out / "summary.json", encoding="utf-8") as fh:
            written = json.load(fh)
        if summary.get("status") != "ok" or written.get("status") != "ok":
            raise RuntimeError("run_single did not report status ok")
        if cfg.plots:
            for name in ("stationarity_vs_k.svg", "residuals_vs_k.svg",
                         "stationarity_vs_scalars.svg"):
                if (out / name).stat().st_size == 0:
                    raise RuntimeError(f"empty plot {name}")
        replicas = []
        for r, rep in enumerate(summary["replicas"]):
            rdir = out if cfg.replicas == 1 else out / f"replica_{r:03d}"
            replicas.append({"rows": read_rows(rdir / "trace.csv"),
                             "vectors": rep["ledger"]["vector_messages"],
                             "scalars": rep["ledger"]["scalars_transmitted"],
                             "violations": rep["violations"]["dual_step_bound"]})
        return replicas
    graph = harness.build_graph(cfg)
    prob = harness.build_problem(cfg)
    trace = simulator.run(cfg, prob, graph)
    return [{"rows": trace_rows(trace),
             "vectors": trace.meta["vector_messages"],
             "scalars": trace.meta["scalars_transmitted"],
             "violations": len(trace.violations)}]


def time_rounds(durations: list) -> None:
    """Wrap the round functions ``simulator.run`` calls with a bare timer
    that appends each round's seconds to ``durations``. It costs well under
    a microsecond per round, against a millisecond or more per round."""
    for attr in ("hsm_admm_round", "prox_dsgd_round", "prox_gt_round"):
        def timed(*args, _fn=getattr(simulator, attr), **kwargs):
            start = perf_counter()
            try:
                return _fn(*args, **kwargs)
            finally:
                durations.append(perf_counter() - start)
        setattr(simulator, attr, timed)


def oracle_corners(cfg: RunConfig, seed: int) -> dict:
    """Direct ``stochastic_gradient`` timings at batch 1 and 32 on the
    workload's own problem, as the median of five blocks of calls."""
    prob = harness.build_problem(cfg)
    rng = np.random.default_rng([seed, 99])
    x = rng.standard_normal(prob.p)
    out = {}
    for batch_size in (1, 32):
        batches = [problems.draw_batch(prob, 0, rng, batch_size) for _ in range(16)]
        problems.stochastic_gradient(prob, 0, x, batches[0])
        blocks = []
        for _ in range(5):
            calls, start = 0, perf_counter()
            while perf_counter() - start < 0.04:
                for b in batches:
                    problems.stochastic_gradient(prob, 0, x, b)
                calls += len(batches)
            blocks.append((perf_counter() - start) / calls * 1e6)
        out[f"problems.grad_us.N{prob.local_size(0)}_b{batch_size}"] = float(np.median(blocks))
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", required=True, choices=("plain", "traced", "setup"))
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)

    spec = WORKLOADS[args.workload]
    overrides = {"K": 1, "replicas": 1, "plots": False} if args.mode == "setup" else {}
    cfg = RunConfig(**run_config(spec, args.seed, **overrides))
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    cfg = dataclasses.replace(cfg, out_dir=str(out))

    # Untraced modes wrap only simulator.run, once per replica (the time to
    # round 1 needs the first call's start and end), and the round
    # functions with a bare timer.
    tracer = tracing.Tracer(f"{args.workload}-{args.seed}-{out.name}")
    round_s = []
    if args.mode == "traced":
        tracing.install(tracer)
    else:
        tracer.patch(simulator, "run", "simulator.run")
        tracer.patch(harness, "run", "simulator.run")
        time_rounds(round_s)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        start = perf_counter()
        replicas = run_workload(spec, cfg, out)
        total = perf_counter() - start
    tracer.uninstall()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    runs = [span for span in tracer.spans if span[2] == "simulator.run"]
    first_start, first_end = runs[0][3], runs[0][4]
    first_wall_s = float(replicas[0]["rows"][-1][-1]) / 1000.0
    result = {
        "setup_s": (first_start - start) + (first_end - first_start - first_wall_s),
        "total_s": total,
        "peak_rss_mb": peak_rss_mb,
        "run_calls": len(runs),
        "infeasible_warnings": sum(
            1 for w in caught if issubclass(w.category, RuntimeWarning)
            and "no grid point certifies" in str(w.message)),
        "m": harness.build_graph(cfg).m,
    }
    if args.mode != "setup":
        result["replicas"] = [
            {"wall_ms": [float(r[-1]) for r in rep["rows"]],
             "values": [[float(v) for v in r[:-1]] for r in rep["rows"]],
             "digest": hashlib.sha256("\n".join(",".join(r[:-1]) for r in rep["rows"])
                                      .encode()).hexdigest(),
             "vectors": rep["vectors"], "scalars": rep["scalars"],
             "violations": rep["violations"]}
            for rep in replicas]
    if args.mode == "plain":
        result["round_ms"] = [d * 1e3 for d in round_s]
    if args.mode == "traced":
        rounds = cfg.K * cfg.replicas
        result["layers"] = tracing.layer_metrics(tracer, cfg.n, rounds)
        result["layers"].update(oracle_corners(cfg, args.seed))
        tracer.write(out / "spans.jsonl")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
