"""Command-line entry point: run experiments, checks, and plots.

Subcommands
-----------
run     execute a configuration, or each cell of the crosses of optional
        ``--grid field=v1,v2,...`` flags; writes each cell's trace.csv,
        summary.json and, if the config asks, SVG convergence plots, and
        sweep.csv, one row per cell and replica
verify  the fast checks shared with the acceptance suite (hsmadmm.checks),
        one pass/fail line each, naming the warnings the check raised
plot    render SVG charts from existing trace.csv files

Exit codes: 0 success, 1 verification failure, 2 configuration error,
3 numerical divergence (after every replica's outputs are written).
"""
from __future__ import annotations

import argparse
import dataclasses
import itertools
import json
import sys
import warnings
from pathlib import Path

import numpy as np

from . import graph as graphmod, metrics, problems
from .config import (_FIELDS, ConfigInvalid, RunConfig, _coerce, load_config,
                     value_text, write_config)
from .simulator import TRACE_HEADER, MetricsTrace, read_trace_csv, run
from .svgplot import EmptyTrace, Series, line_chart

SUMMARY_COLUMNS = tuple(name for name in TRACE_HEADER if name != "wall_ms")

# sweep.csv's columns after the grid fields; rounds_to_tol is the first
# logged round with stat_total at or below TOLERANCE
TOLERANCE = 1e-3
SWEEP_COLUMNS = ("seed", "status", "diverged_at", "rounds_to_tol",
                 "final_stat_total", "min_stat_total", "scalars_transmitted")
FLAG_FIELDS = {"out_dir": "--out"}  # not griddable


def build_graph(cfg: RunConfig) -> graphmod.Graph:
    """The configured graph; an edge-list file that cannot be read or does
    not describe a valid connected graph, or a topology that cannot be built
    (no connected ``random_connected`` sample), is a configuration error."""
    if cfg.topology == "from_edge_list":
        try:
            return graphmod.load_edge_list(cfg.edge_list, n=cfg.n)
        except (OSError, ValueError) as exc:
            raise ConfigInvalid(f"edge list {cfg.edge_list}: {exc}") from exc
    try:
        return graphmod.build_topology(cfg.topology, cfg.n, cfg.graph_seed,
                                       prob=cfg.edge_prob, hubs=cfg.hubs)
    except ValueError as exc:
        raise ConfigInvalid(f"topology {cfg.topology}: {exc}") from exc


def build_problem(cfg: RunConfig) -> problems.CompositeProblem:
    """The configured problem; a dataset file pair that cannot be loaded, or
    whose agent count n or dimension p differs from the configured one, is a
    configuration error."""
    if cfg.dataset_csv:
        try:
            prob = problems.load_dataset(cfg.dataset_csv, cfg.dataset_manifest,
                                         kind=cfg.problem, regularizer=cfg.regularizer,
                                         l1_weight=cfg.l1_weight, alpha=cfg.alpha)
        except (OSError, ValueError) as exc:
            raise ConfigInvalid(f"dataset {cfg.dataset_csv}: {exc}") from exc
        for key in ("n", "p"):
            found, want = getattr(prob, key), getattr(cfg, key)
            if found != want:
                raise ConfigInvalid(f"dataset {cfg.dataset_csv} has {key}={found}, "
                                    f"config has {key}={want}")
        return prob
    return problems.make_problem(cfg.problem, cfg.n, cfg.p, cfg.samples_per_agent,
                                 cfg.dataset_seed, regularizer=cfg.regularizer,
                                 l1_weight=cfg.l1_weight, alpha=cfg.alpha,
                                 noniid=cfg.noniid)


def _replica_summary(trace: MetricsTrace, seed: int) -> dict:
    try:
        slope, intercept = metrics.rate_fit(trace.column("k"),
                                            trace.column("stat_total"))
    except metrics.InsufficientTrace:
        slope, intercept = None, None
    return {
        "seed": seed,
        "final": ({name: trace.last_row()[name] for name in SUMMARY_COLUMNS}
                  if trace.rows else None),
        "ledger": {
            "vector_messages": trace.meta["vector_messages"],
            "scalars_transmitted": trace.meta["scalars_transmitted"],
        },
        "violations": {"dual_step_bound": trace.meta["violation_count"]},
        "feasibility": trace.meta.get("feasibility"),
        "slope": slope,
        "intercept": intercept,
    }


def run_outputs(out_dir) -> dict:
    """The deterministic part of a run's output directory: each trace.csv
    without its wall_ms column, each JSON file and sweep.csv, by relative
    path. Reruns and any ``run --jobs`` count must reproduce it exactly."""
    out = Path(out_dir)
    files = {}
    for path in sorted(out.rglob("*")):
        rel = str(path.relative_to(out))
        if path.name == "trace.csv":
            files[rel] = [line.rsplit(",", 1)[0]
                          for line in path.read_text().splitlines()]
        elif path.suffix == ".json" or path.name == "sweep.csv":
            files[rel] = path.read_bytes()
    return files


def _write_json(payload: dict, path: Path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def emit_plots(traces: dict, out_dir) -> dict:
    """Write the three convergence charts from named trace arrays.

    ``traces`` maps a curve label to a dict of trace columns. Returns per
    plot and per curve the abscissa range actually drawn (used to assert the
    communication-cost ratio between algorithms).
    """
    if not traces:
        raise EmptyTrace("no traces supplied")
    charts = {}
    meta = {}

    specs = (
        ("stationarity_vs_k.svg", "k", "stat_total",
         "iteration k", "stationarity measure"),
        ("residuals_vs_k.svg", "k", "res_combined",
         "iteration k", "residual norm"),
        ("stationarity_vs_scalars.svg", "scalars_tx", "stat_total",
         "scalars transmitted", "stationarity measure"),
    )
    for fname, xcol, ycol, xlabel, ylabel in specs:
        series = []
        ranges = {}
        for label, cols in traces.items():
            x = np.asarray(cols[xcol], dtype=float)
            y = np.asarray(cols[ycol], dtype=float)
            keep = (x > 0) & (y > 0) & np.isfinite(x) & np.isfinite(y)
            if keep.any():
                series.append(Series(label, x[keep], y[keep]))
                ranges[label] = (float(x[keep].min()), float(x[keep].max()))
        charts[fname] = line_chart(series, xlabel, ylabel)
        meta[fname] = ranges
    # all three are rendered first, so a refused chart leaves no output
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    for fname, svg in charts.items():
        with open(out_dir / fname, "w", encoding="utf-8") as fh:
            fh.write(svg)
    return meta


def replica_dirs(out_dir, replicas: int) -> list:
    """Each replica's output directory: ``out_dir`` itself for a single
    replica, else one ``replica_NNN`` directory per replica."""
    out = Path(out_dir)
    return [out] if replicas == 1 else [out / f"replica_{r:03d}"
                                        for r in range(replicas)]


def run_single(cfg: RunConfig, out_dir=None) -> dict:
    """Run all replicas of one configuration, write the outputs and return
    the summary.

    Divergence is read from each trace, never raised: a replica whose trace
    records ``diverged_at``, the round of the guard's trip, writes that
    partial trace, and its summary entry adds ``diverged_at``. The summary's
    status is then "diverged"; the aggregate fit and the charts cover the
    replicas that finished.
    """
    g = build_graph(cfg)
    prob = build_problem(cfg)
    out = Path(out_dir if out_dir is not None else cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    write_config(cfg, out / "config.cfg")

    replicas = []
    traces = {}
    for r, rdir in enumerate(replica_dirs(out, cfg.replicas)):
        rcfg = dataclasses.replace(cfg, seed=cfg.seed + r)
        rdir.mkdir(parents=True, exist_ok=True)
        trace = run(rcfg, prob, g)
        trace.write_csv(rdir / "trace.csv")
        rep = _replica_summary(trace, rcfg.seed)
        if "diverged_at" in trace.meta:
            rep["diverged_at"] = trace.meta["diverged_at"]
        else:
            traces[f"seed {rcfg.seed}"] = {name: trace.column(name)
                                           for name in trace.header}
        replicas.append(rep)

    aggregate = {}
    finals = [rep["final"]["stat_total"] for rep in replicas
              if rep["final"] and "diverged_at" not in rep]
    if finals:
        aggregate["final_stat_total_mean"] = float(np.mean(finals))
    curves = [(t["k"], t["stat_total"]) for t in traces.values()]
    try:
        slope, intercept = metrics.rate_fit_averaged(curves)
        aggregate["slope_of_mean_min_prefix"] = slope
        aggregate["intercept_of_mean_min_prefix"] = intercept
    except metrics.InsufficientTrace:
        pass

    diverged = any("diverged_at" in rep for rep in replicas)
    summary = {"status": "diverged" if diverged else "ok",
               "algorithm": cfg.algorithm, "topology": cfg.topology,
               "replicas": replicas, "aggregate": aggregate}
    _write_json(summary, out / "summary.json")
    if cfg.plots and traces:
        try:
            emit_plots(traces, out)
        except EmptyTrace:
            pass  # nothing positive to draw on log axes; summary still written
    return summary


def _report_divergence(label: str, summary: dict) -> bool:
    """Print each diverged replica of a summary; True if there was one."""
    diverged = [rep for rep in summary["replicas"] if "diverged_at" in rep]
    for rep in diverged:
        print(f"diverged: {label}seed {rep['seed']} at round {rep['diverged_at']}",
              file=sys.stderr)
    return bool(diverged)


def _parse_grid(specs) -> dict:
    """Each ``--grid field=v1,v2,...`` as field -> its values, parsed as the
    config text parses them, in flag order."""
    grid = {}
    for spec in specs:
        name, _, values = spec.partition("=")
        name = name.strip()
        if name in FLAG_FIELDS:
            raise ConfigInvalid(f"--grid {name}: set it with {FLAG_FIELDS[name]}")
        if name not in _FIELDS:
            raise ConfigInvalid(f"--grid: unknown field {name!r}")
        if name in grid:
            raise ConfigInvalid(f"--grid {name} is given twice")
        items = values.split(",")
        if not all(item.strip() for item in items):
            raise ConfigInvalid(f"--grid {spec!r} holds an empty value")
        grid[name] = [_coerce(name, item) for item in items]
    return grid


def _sweep_row(values: list, rep: dict, trace_path: Path) -> str:
    """One replica's sweep.csv line: its cell's grid values, then
    ``SWEEP_COLUMNS``, read back from its summary entry and trace."""
    hit = final = low = None
    if rep["final"] is not None:
        cols = read_trace_csv(trace_path)
        stats = cols["stat_total"]
        hit = metrics.rounds_to_tolerance(cols["k"], stats, TOLERANCE)
        final, low = repr(float(stats[-1])), repr(float(stats.min()))
    status = "diverged" if "diverged_at" in rep else "ok"
    row = (rep["seed"], status, rep.get("diverged_at"), hit, final, low,
           rep["ledger"]["scalars_transmitted"])
    return ",".join([*values, *("" if v is None else str(v) for v in row)])


def cmd_run(args) -> int:
    """Run each cell of the grid, or the one unnamed cell of no grid, whose
    outputs land in the output directory itself. Each cell is one
    ``run_single`` call, in this process or, with ``--jobs`` above one, in a
    pool worker; the cells' summaries then give sweep.csv and the exit code."""
    if args.jobs < 1:
        raise ConfigInvalid(f"--jobs must be >= 1, got {args.jobs}")
    base = load_config(args.config)
    grid = _parse_grid(args.grid)
    out = Path(args.out if args.out else base.out_dir)
    cells = {}
    for values in itertools.product(*grid.values()):
        texts = [value_text(v) for v in values]
        name = "__".join(texts).replace("/", "_")
        if name in cells:
            raise ConfigInvalid(f"two sweep cells are named {name!r}")
        cells[name] = (texts, dataclasses.replace(
            base, **dict(zip(grid, values)), out_dir=str(out / name)))
    if len(cells) > 1:  # a lone cell's run_single builds before any output
        for _, cfg in cells.values():
            build_graph(cfg)  # refused here, before any output exists
            build_problem(cfg)

    jobs = [cfg for _, cfg in cells.values()]
    workers = min(args.jobs, len(jobs))  # a forking pool starts them all
    if workers > 1:
        # imported here: only a pooled run loads multiprocessing
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=workers) as pool:
            summaries = list(pool.map(run_single, jobs))
    else:
        summaries = [run_single(cfg) for cfg in jobs]
    lines = [",".join([*grid, *SWEEP_COLUMNS])]
    diverged = False
    for (name, (texts, cfg)), summary in zip(cells.items(), summaries):
        diverged |= _report_divergence(f"{name} " if name else "", summary)
        lines += [_sweep_row(texts, rep, rdir / "trace.csv") for rep, rdir in
                  zip(summary["replicas"], replica_dirs(cfg.out_dir, cfg.replicas))]
    with open(out / "sweep.csv", "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")
    return 3 if diverged else 0


def cmd_plot(args) -> int:
    paths = args.traces
    labels = ([s.strip() for s in args.labels.split(",")] if args.labels is not None
              else [Path(path).stem for path in paths])
    if not all(labels):
        raise ConfigInvalid(f"--labels {args.labels!r} holds an empty label")
    if len(labels) != len(paths):
        raise ConfigInvalid("need exactly one label per trace")
    for j, label in enumerate(labels):
        first = labels.index(label)
        if first != j:
            raise ConfigInvalid(f"label {label!r} names both {paths[first]} "
                                f"and {paths[j]}")
    traces = {}
    for label, path in zip(labels, paths):
        try:
            traces[label] = read_trace_csv(path)
        except (OSError, ValueError) as exc:
            raise ConfigInvalid(f"trace {path}: {exc}") from exc
    try:
        emit_plots(traces, args.out)
    except EmptyTrace as exc:
        print(f"plot failed: {exc}", file=sys.stderr)
        return 2
    return 0


def cmd_verify(args) -> int:
    from . import checks  # imported here: checks imports this module
    failures = 0
    for name, fn in checks.VERIFY:
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            try:
                ok, detail = fn()
            except Exception as exc:  # a crashed check is a failed check
                ok, detail = False, f"raised {type(exc).__name__}: {exc}"
        if caught:
            first = caught[0]
            detail += (f"; {len(caught)} warning(s), first: "
                       f"{first.category.__name__}: {first.message}")
        status = "PASS" if ok else "FAIL"
        print(f"[{status}] {name}: {detail}")
        failures += 0 if ok else 1
    return 0 if failures == 0 else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="hsmadmm",
        description="Deterministic simulator for distributed stochastic "
                    "composite optimization over graphs.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run a configuration or a grid over it")
    p_run.add_argument("--config", required=True)
    p_run.add_argument("--grid", action="append", default=[],
                       metavar="FIELD=V1,V2,...")
    p_run.add_argument("--out", default="")
    p_run.add_argument("--jobs", type=int, default=1)
    p_run.set_defaults(fn=cmd_run)

    p_verify = sub.add_parser("verify", help="run the invariant suite")
    p_verify.set_defaults(fn=cmd_verify)

    p_plot = sub.add_parser("plot", help="render charts from trace files")
    p_plot.add_argument("--traces", nargs="+", required=True)
    p_plot.add_argument("--labels")
    p_plot.add_argument("--out", required=True)
    p_plot.set_defaults(fn=cmd_plot)

    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except ConfigInvalid as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
