import concurrent.futures
import dataclasses
import importlib
import inspect
import json
import os
import pkgutil
import shlex
import subprocess
import sys
import warnings
from pathlib import Path
from xml.etree import ElementTree

import numpy as np
import pytest

import hsmadmm
from hsmadmm import checks, harness, simulator
from hsmadmm.config import (ConfigInvalid, RunConfig, config_to_text,
                            load_config, parse_config_text)
from hsmadmm.harness import emit_plots, main
from hsmadmm.problems import make_problem, save_dataset
from hsmadmm.simulator import TRACE_HEADER, read_trace_csv
from hsmadmm.svgplot import EmptyTrace, Series, line_chart

ROOT = Path(__file__).resolve().parents[1]
SVG_TEXT = "{http://www.w3.org/2000/svg}text"


BASE_CFG = """
# composite run
algorithm = hsm_admm
topology = ring
n = 4
p = 2
problem = logistic
samples_per_agent = 8
regularizer = l1
l1_weight = 0.01
alpha = 0.1
K = 40
seed = 3
track_lyapunov = false
"""


def write_cfg(tmp_path, text=BASE_CFG, name="run.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return path


def strip_wall(path):
    lines = Path(path).read_text().splitlines()
    return [",".join(line.split(",")[:-1]) for line in lines]


def test_parse_defaults_and_types():
    cfg = parse_config_text("K = 5\nnoniid = true\nc_rho = 2.5\n")
    assert cfg.K == 5 and cfg.noniid is True and cfg.c_rho == 2.5
    assert cfg.algorithm == "hsm_admm"


def test_parse_rejects_unknown_key():
    with pytest.raises(ConfigInvalid):
        parse_config_text("not_a_key = 1\n")


def test_parse_rejects_duplicates_and_bad_values():
    with pytest.raises(ConfigInvalid):
        parse_config_text("K = 5\nK = 6\n")
    with pytest.raises(ConfigInvalid):
        parse_config_text("K = five\n")
    with pytest.raises(ConfigInvalid):
        parse_config_text("noniid = maybe\n")
    with pytest.raises(ConfigInvalid):
        parse_config_text("K = 5 K = 6\n")


def test_validation_catches_inconsistencies():
    with pytest.raises(ConfigInvalid):
        RunConfig(l1_weight=0.5, regularizer="none")
    with pytest.raises(ConfigInvalid):
        RunConfig(n=1)
    with pytest.raises(ConfigInvalid):
        RunConfig(c_eta=0.0)
    with pytest.raises(ConfigInvalid):
        RunConfig(algorithm="magic")
    with pytest.raises(ConfigInvalid):
        RunConfig(dataset_csv="x.csv")


def test_config_text_round_trip():
    cfg = RunConfig(K=7, noniid=True, l1_weight=0.25, regularizer="l1")
    again = parse_config_text(config_to_text(cfg))
    assert again == cfg


@pytest.mark.parametrize("values", [dict(out_dir="results/run#2"),
                                    dict(out_dir="a\nb"), dict(out_dir="a\rb"),
                                    dict(edge_list="edges.txt#"),
                                    dict(dataset_csv="d\u2028.csv",
                                         dataset_manifest="m.json"),
                                    dict(out_dir="results/run "),
                                    dict(topology=" ring")])
def test_string_values_config_text_cannot_hold_are_refused(values):
    # in config.cfg "#" opens a comment, a line break ends the value and the
    # value is stripped, so the text would read back another value
    name = next(iter(values))
    with pytest.raises(ConfigInvalid, match=f"{name} must hold no '#'"):
        RunConfig(**values)


def test_the_package_refuses_with_four_value_errors():
    # ValueError is the one refusal type; these subclasses are the ones a
    # caller catches by name
    defined = {}
    for info in pkgutil.iter_modules(hsmadmm.__path__):
        module = importlib.import_module(f"hsmadmm.{info.name}")
        for name, cls in inspect.getmembers(module, inspect.isclass):
            if cls.__module__ == module.__name__ and issubclass(cls, BaseException):
                defined[name] = cls
    assert sorted(defined) == ["ConfigInvalid", "EmptyTrace", "InsufficientTrace",
                               "NotConnected"]
    assert all(issubclass(cls, ValueError) for cls in defined.values())


def test_run_command_outputs(tmp_path):
    cfg_path = write_cfg(tmp_path)
    out = tmp_path / "out"
    assert main(["run", "--config", str(cfg_path), "--out", str(out)]) == 0
    trace_path = out / "trace.csv"
    assert trace_path.exists()
    header = trace_path.read_text().splitlines()[0]
    assert header == ",".join(TRACE_HEADER)
    summary = json.loads((out / "summary.json").read_text())
    cols = read_trace_csv(trace_path)
    final = summary["replicas"][0]["final"]
    for name, val in final.items():
        got = cols[name][-1]
        if np.isnan(got):
            assert val is None or np.isnan(val)
        else:
            assert got == val
    assert (out / "config.cfg").exists()


def test_run_rerun_is_byte_identical_sans_wall(tmp_path):
    cfg_path = write_cfg(tmp_path)
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(["run", "--config", str(cfg_path), "--out", str(out1)]) == 0
    assert main(["run", "--config", str(cfg_path), "--out", str(out2)]) == 0
    assert strip_wall(out1 / "trace.csv") == strip_wall(out2 / "trace.csv")
    assert (out1 / "summary.json").read_bytes() == (out2 / "summary.json").read_bytes()


def test_missing_config_exits_2(tmp_path):
    assert main(["run", "--config", str(tmp_path / "nope.cfg")]) == 2


def test_invalid_config_exits_2(tmp_path):
    path = write_cfg(tmp_path, "bogus_key = 1\n")
    assert main(["run", "--config", str(path)]) == 2


@pytest.mark.parametrize("line", ["step_scale = nan", "l1_weight = nan",
                                  "alpha = nan", "c_rho = inf"])
def test_non_finite_config_exits_2(tmp_path, capsys, line):
    key = line.split(" = ")[0]
    kept = [ln for ln in BASE_CFG.splitlines() if not ln.startswith(key + " ")]
    path = write_cfg(tmp_path, "\n".join(kept + [line, ""]))
    out = tmp_path / "out"
    assert main(["run", "--config", str(path), "--out", str(out)]) == 2
    assert f"{key} must be finite" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("key", ["theta", "c_mu", "c_gamma", "divergence_guard",
                                 "noise_std"])
def test_removed_key_exits_2(tmp_path, capsys, key):
    # a config.cfg written before these keys became constants still names them
    path = write_cfg(tmp_path, BASE_CFG + f"{key} = 1.0\n")
    out = tmp_path / "out"
    assert main(["run", "--config", str(path), "--out", str(out)]) == 2
    assert f"unknown key {key!r}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("lines", [
    ["seed = -1"],
    ["dataset_seed = -1"],
    ["graph_seed = -1", "topology = random_connected", "edge_prob = 0.8"],
])
def test_negative_seed_exits_2(tmp_path, capsys, lines):
    keys = {line.split(" = ")[0] for line in lines}
    kept = [ln for ln in BASE_CFG.splitlines() if ln.split(" = ")[0] not in keys]
    path = write_cfg(tmp_path, "\n".join(kept + lines + [""]))
    out = tmp_path / "out"
    assert main(["run", "--config", str(path), "--out", str(out)]) == 2
    key = lines[0].split(" = ")[0]
    assert f"{key} must be >= 0, got -1" in capsys.readouterr().err
    assert not out.exists()


UNSATISFIABLE = [
    (["topology = random_connected", "n = 40", "edge_prob = 0.01"],
     "config error: topology random_connected: no connected sample in 1000 "
     "attempts (n=40, prob=0.01)"),
    (["m0 = 0"], "config error: m0 must be >= 1"),
]


@pytest.mark.parametrize("gridded, lines, message", [
    (gridded, *case) for gridded in (False, True) for case in UNSATISFIABLE
] + [
    (False, ["replicas = 0"], "config error: replicas and workers must be >= 1"),
], ids=["random_connected", "m0", "sweep-random_connected", "sweep-m0", "replicas"])
def test_unsatisfiable_config_exits_2(tmp_path, capsys, gridded, lines, message):
    # a run with a grid refuses too before it creates its output directory
    keys = {line.split(" = ")[0] for line in lines}
    kept = [ln for ln in BASE_CFG.splitlines() if ln.split(" = ")[0] not in keys]
    path = write_cfg(tmp_path, "\n".join(kept + lines + [""]))
    out = tmp_path / "out"
    args = ["run", "--config", str(path), "--out", str(out)]
    if gridded:
        topology = dict(line.split(" = ") for line in lines).get("topology", "ring")
        args += ["--grid", f"topology={topology}", "--grid", "algorithm=hsm_admm"]
    assert main(args) == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


def test_out_dir_with_hash_exits_2(tmp_path, capsys):
    out = tmp_path / "a#1"
    assert main(["run", "--config", str(write_cfg(tmp_path)), "--out", str(out)]) == 2
    assert "out_dir must hold no '#'" in capsys.readouterr().err
    assert not out.exists()
    assert sorted(p.name for p in tmp_path.iterdir()) == ["run.cfg"]


def test_non_finite_dataset_exits_2(tmp_path, capsys):
    prob = make_problem("least_squares", 2, 3, 4, 0)
    csv, manifest = tmp_path / "data.csv", tmp_path / "manifest.json"
    save_dataset(prob, csv, manifest)
    rows = csv.read_text().splitlines()
    rows[5] = "nan," + rows[5].split(",", 1)[1]
    csv.write_text("\n".join(rows) + "\n")
    path = write_cfg(tmp_path, f"n = 2\np = 3\nK = 5\ntrack_lyapunov = false\n"
                               f"dataset_csv = {csv}\ndataset_manifest = {manifest}\n")
    out = tmp_path / "out"
    assert main(["run", "--config", str(path), "--out", str(out)]) == 2
    assert "row 6, column 1 is not a finite number" in capsys.readouterr().err


def test_logistic_labels_outside_plus_minus_one_exit_2(tmp_path, capsys):
    # 0/1 labels would silently change the logistic objective
    prob = make_problem("logistic", 2, 3, 4, 0)
    csv, manifest = tmp_path / "data.csv", tmp_path / "manifest.json"
    save_dataset(prob, csv, manifest)
    rows = [r.split(",") for r in csv.read_text().splitlines()]
    for r in rows:
        r[-1] = "0" if float(r[-1]) < 0 else "1"
    csv.write_text("\n".join(",".join(r) for r in rows) + "\n")
    first_bad = next(k for k, r in enumerate(rows) if r[-1] == "0") + 1
    body = (f"n = 2\np = 3\nK = 5\nproblem = logistic\ntrack_lyapunov = false\n"
            f"dataset_csv = {csv}\ndataset_manifest = {manifest}\n")
    out = tmp_path / "out"
    assert main(["run", "--config", str(write_cfg(tmp_path, body)), "--out", str(out)]) == 2
    assert (f"row {first_bad} has logistic label 0, not -1 or +1"
            in capsys.readouterr().err)
    # the same file is a valid least-squares dataset
    ls_cfg = write_cfg(tmp_path, body.replace("= logistic", "= least_squares"))
    assert main(["run", "--config", str(ls_cfg), "--out", str(tmp_path / "ls")]) == 0


@pytest.mark.parametrize("manifest, message", [
    ({"n": 2, "p": 3}, "manifest has no 'ranges' key"),
    ([[0, 4], [4, 8]], "manifest is a JSON list"),
    ({"n": 2, "p": 3, "ranges": [[0, 4], [4]]},
     "manifest range [4] is not a [start, stop] pair"),
    ({"n": 2, "p": 3, "ranges": [[0, 4], [4, "8"]]},
     "manifest range [4, '8'] is not a [start, stop] pair"),
    ({"n": [2], "p": 3, "ranges": [[0, 4], [4, 8]]}, "manifest n and p must be integers"),
])
def test_malformed_manifest_exits_2(tmp_path, capsys, manifest, message):
    prob = make_problem("least_squares", 2, 3, 4, 0)
    csv, manifest_path = tmp_path / "data.csv", tmp_path / "manifest.json"
    save_dataset(prob, csv, manifest_path)
    manifest_path.write_text(json.dumps(manifest))
    path = write_cfg(tmp_path, f"n = 2\np = 3\nK = 5\ntrack_lyapunov = false\n"
                               f"dataset_csv = {csv}\ndataset_manifest = {manifest_path}\n")
    assert main(["run", "--config", str(path), "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert f"config error: dataset {csv}" in err and message in err


def test_dataset_dimension_mismatch_exits_2(tmp_path, capsys):
    # a configured p that disagrees with the dataset's must not be recorded
    # as the run's p
    prob = make_problem("least_squares", 2, 6, 4, 0)
    csv, manifest = tmp_path / "data.csv", tmp_path / "manifest.json"
    save_dataset(prob, csv, manifest)
    path = write_cfg(tmp_path, f"n = 2\np = 2\nK = 5\ntrack_lyapunov = false\n"
                               f"dataset_csv = {csv}\ndataset_manifest = {manifest}\n")
    out = tmp_path / "out"
    assert main(["run", "--config", str(path), "--out", str(out)]) == 2
    assert (f"config error: dataset {csv} has p=6, config has p=2"
            in capsys.readouterr().err)
    assert not (out / "config.cfg").exists()


def test_dataset_agent_count_mismatch_exits_2(tmp_path, capsys):
    # refused while the problem is built, before any output exists
    prob = make_problem("least_squares", 6, 2, 4, 0)
    csv, manifest = tmp_path / "data.csv", tmp_path / "manifest.json"
    save_dataset(prob, csv, manifest)
    path = write_cfg(tmp_path, f"n = 8\np = 2\nK = 5\ntrack_lyapunov = false\n"
                               f"dataset_csv = {csv}\ndataset_manifest = {manifest}\n")
    out = tmp_path / "out"
    assert main(["run", "--config", str(path), "--out", str(out)]) == 2
    assert (f"config error: dataset {csv} has n=6, config has n=8"
            in capsys.readouterr().err)
    assert not out.exists()


@pytest.mark.parametrize("edges, n, message", [
    (None, 3, "No such file"),
    ("0 1\n1 x\n", 3, "non-integer node id"),
    ("0 1\n", 3, "not connected"),
])
def test_bad_edge_list_exits_2(tmp_path, capsys, edges, n, message):
    edge_path = tmp_path / "edges.txt"
    if edges is not None:
        edge_path.write_text(edges)
    path = write_cfg(tmp_path, f"topology = from_edge_list\nedge_list = {edge_path}\n"
                               f"n = {n}\np = 2\nK = 5\ntrack_lyapunov = false\n")
    assert main(["run", "--config", str(path), "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert "config error: edge list" in err and message in err


def test_divergence_exits_3(tmp_path, capsys):
    text = BASE_CFG + "c_eta = 1e-9\nK = 300\n"
    path = write_cfg(tmp_path, text.replace("K = 40\n", ""))
    out = tmp_path / "div"
    assert main(["run", "--config", str(path), "--out", str(out)]) == 3
    summary = json.loads((out / "summary.json").read_text())
    assert summary["status"] == "diverged"
    at = summary["replicas"][0]["diverged_at"]
    assert f"diverged: seed 3 at round {at}" in capsys.readouterr().err
    assert (out / "trace.csv").exists()


def read_sweep_csv(out):
    lines = (out / "sweep.csv").read_text().splitlines()
    return lines[0].split(","), [dict(zip(lines[0].split(","), line.split(",")))
                                 for line in lines[1:]]


def test_run_without_a_grid_is_one_cell(tmp_path, monkeypatch):
    # the unnamed cell's outputs land in --out itself, with sweep.csv, one
    # row per replica; its graph and problem are built once
    built = []

    def counted(build):
        def wrapper(cfg):
            built.append(build.__name__)
            return build(cfg)
        return wrapper

    for name in ("build_graph", "build_problem"):
        monkeypatch.setattr(harness, name, counted(getattr(harness, name)))
    cfg_path = write_cfg(tmp_path, BASE_CFG + "replicas = 3\n")
    out = tmp_path / "out"
    assert main(["run", "--config", str(cfg_path), "--out", str(out)]) == 0
    assert sorted(built) == ["build_graph", "build_problem"]
    assert sorted(p.name for p in out.iterdir()) == [
        "config.cfg", "replica_000", "replica_001", "replica_002", "summary.json",
        "sweep.csv"]
    header, rows = read_sweep_csv(out)
    assert header == list(harness.SWEEP_COLUMNS)
    summary = json.loads((out / "summary.json").read_text())
    assert len(rows) == 3
    for row, rep in zip(rows, summary["replicas"]):
        assert int(row["seed"]) == rep["seed"]
        assert row["status"] == "ok" and row["diverged_at"] == ""
        assert float(row["final_stat_total"]) == rep["final"]["stat_total"]
        assert int(row["scalars_transmitted"]) == rep["ledger"]["scalars_transmitted"]


def test_run_with_a_grid_runs_the_configs_replicas(tmp_path):
    cfg_path = write_cfg(tmp_path, BASE_CFG.replace("K = 40", "K = 5") + "replicas = 3\n")
    args = ["run", "--config", str(cfg_path), "--out"]
    assert main(args + [str(tmp_path / "a"), "--grid", "topology=ring"]) == 0
    _, rows = read_sweep_csv(tmp_path / "a")
    assert [(r["topology"], r["seed"]) for r in rows] == [
        ("ring", "3"), ("ring", "4"), ("ring", "5")]
    # replicas can be gridded like any other field
    assert main(args + [str(tmp_path / "b"), "--grid", "replicas=1,2"]) == 0
    _, rows = read_sweep_csv(tmp_path / "b")
    assert [(r["replicas"], r["seed"]) for r in rows] == [
        ("1", "3"), ("2", "3"), ("2", "4")]
    assert (tmp_path / "b" / "1" / "trace.csv").exists()
    assert sorted(p.name for p in (tmp_path / "b" / "2").iterdir() if p.is_dir()) == [
        "replica_000", "replica_001"]


@pytest.mark.parametrize("args, message", [
    (["sweep", "--grid", "topology=ring"], "invalid choice: 'sweep'"),
    (["run", "--seeds", "2"], "unrecognized arguments: --seeds 2"),
    (["run", "--plots"], "unrecognized arguments: --plots"),
])
def test_retired_command_and_flags_exit_2(tmp_path, capsys, args, message):
    # replicas and plots are config keys; argparse refuses before any output
    cfg_path = write_cfg(tmp_path)
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as exc:
        main([args[0], "--config", str(cfg_path), "--out", str(out), *args[1:]])
    assert exc.value.code == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


def readme_commands():
    """Every ``hsmadmm`` command in the README's shell blocks, as argv, with
    backslash continuations joined and shell variables left as text."""
    text = (ROOT / "README.md").read_text()
    commands = []
    for block in text.split("```bash\n")[1:]:
        lines = block.split("\n```", 1)[0].replace("\\\n", " ").splitlines()
        for line in lines:
            words = shlex.split(line, comments=True)
            if words and words[0] == "hsmadmm":
                commands.append(words[1:])
    return commands


def test_readme_commands_parse(monkeypatch):
    # a README command naming a removed subcommand or flag fails here
    for name in ("cmd_run", "cmd_plot", "cmd_verify"):
        monkeypatch.setattr(harness, name, lambda args: 0)
    commands = readme_commands()
    assert {argv[0] for argv in commands} >= {"run", "plot", "verify"}
    for argv in commands:
        assert main(argv) == 0, argv


def test_sweep_layout(tmp_path):
    cfg_path = write_cfg(tmp_path, BASE_CFG.replace("K = 40", "K = 15") + "replicas = 2\n")
    out = tmp_path / "sweep"
    rc = main(["run", "--config", str(cfg_path), "--grid", "topology=ring,star",
               "--grid", "algorithm=hsm_admm,prox_gt", "--out", str(out)])
    assert rc == 0
    cells = ["ring__hsm_admm", "ring__prox_gt", "star__hsm_admm", "star__prox_gt"]
    assert sorted(p.name for p in out.iterdir()) == cells + ["sweep.csv"]
    for cell in cells:
        assert (out / cell / "replica_000" / "trace.csv").exists()
        assert (out / cell / "replica_001" / "trace.csv").exists()
        assert (out / cell / "summary.json").exists()
    # one row per cell and replica, in cell order, then replica order
    header, rows = read_sweep_csv(out)
    assert header == ["topology", "algorithm", *harness.SWEEP_COLUMNS]
    assert [(r["topology"], r["algorithm"], r["seed"]) for r in rows] == [
        (*cell.split("__"), seed) for cell in cells for seed in ("3", "4")]
    for row, (cell, r) in zip(rows, [(c, r) for c in cells for r in (0, 1)]):
        summary = json.loads((out / cell / "summary.json").read_text())
        rep = summary["replicas"][r]
        trace = read_trace_csv(out / cell / f"replica_{r:03d}" / "trace.csv")
        assert row["status"] == "ok" and row["diverged_at"] == ""
        assert float(row["final_stat_total"]) == rep["final"]["stat_total"]
        assert float(row["min_stat_total"]) == trace["stat_total"].min()
        assert int(row["scalars_transmitted"]) == rep["ledger"]["scalars_transmitted"]
        below = trace["k"][trace["stat_total"] <= harness.TOLERANCE]
        assert row["rounds_to_tol"] == (str(int(below[0])) if below.size else "")


def test_sweep_grids_any_field_and_records_divergence(tmp_path, capsys):
    # a problem field and a float field; the c_eta = 1e-9 cells diverge, and
    # every cell still runs both replicas and writes their rows and traces
    cfg_path = write_cfg(tmp_path, BASE_CFG.replace("K = 40", "K = 30") + "replicas = 2\n")
    out = tmp_path / "sweep"
    rc = main(["run", "--config", str(cfg_path),
               "--grid", "samples_per_agent=5,8", "--grid", "c_eta=1e-9,2",
               "--out", str(out)])
    assert rc == 3
    cells = ["5__1e-09", "5__2.0", "8__1e-09", "8__2.0"]
    assert sorted(p.name for p in out.iterdir()) == cells + ["sweep.csv"]
    header, rows = read_sweep_csv(out)
    assert header[:2] == ["samples_per_agent", "c_eta"]
    assert [(r["samples_per_agent"], r["c_eta"]) for r in rows] == [
        tuple(cell.split("__")) for cell in cells for _ in range(2)]
    err = capsys.readouterr().err
    for row in rows:
        cell = f"{row['samples_per_agent']}__{row['c_eta']}"
        diverged = row["c_eta"] == "1e-09"
        assert row["status"] == ("diverged" if diverged else "ok")
        assert (row["diverged_at"] != "") == diverged
        if diverged:
            assert f"diverged: {cell} seed {row['seed']} at round " \
                f"{row['diverged_at']}" in err
            # the ledger counts every round run: ring 4, two vectors per
            # edge per round, p = 2
            assert int(row["scalars_transmitted"]) == int(row["diverged_at"]) * 2 * 4 * 2
        rdir = out / cell / f"replica_{int(row['seed']) - 3:03d}"
        assert (rdir / "trace.csv").exists()
        summary = json.loads((out / cell / "summary.json").read_text())
        assert summary["status"] == ("diverged" if diverged else "ok")
    assert load_config(out / "5__1e-09" / "config.cfg").c_eta == 1e-9


def test_sweep_table_and_summaries_are_the_same_for_any_jobs_count(tmp_path):
    cfg_path = write_cfg(tmp_path, BASE_CFG.replace("K = 40", "K = 10") + "replicas = 2\n")
    outputs = []
    for jobs in ("1", "2"):
        out = tmp_path / f"jobs{jobs}"
        assert main(["run", "--config", str(cfg_path), "--grid", "c_eta=1e-9,2",
                     "--grid", "topology=ring,star",
                     "--jobs", jobs, "--out", str(out)]) == 3
        outputs.append(harness.run_outputs(out))
    assert "sweep.csv" in outputs[0]
    assert outputs[0] == outputs[1]


def test_pooled_diverging_run_raises_no_warning(tmp_path):
    # pool workers fork and inherit the "error" filter, so a warning raised
    # by any run, in this process or in a worker, fails the run
    cfg_path = write_cfg(tmp_path, BASE_CFG + "replicas = 2\n")
    out = tmp_path / "pooled"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["run", "--config", str(cfg_path), "--grid", "c_eta=0.01,2",
                     "--jobs", "2", "--out", str(out)]) == 3
    header, rows = read_sweep_csv(out)
    assert header[0] == "c_eta"
    assert [(r["c_eta"], r["status"]) for r in rows] == [
        ("0.01", "diverged"), ("0.01", "diverged"), ("2.0", "ok"), ("2.0", "ok")]


def test_run_starts_no_more_workers_than_cells(tmp_path, monkeypatch):
    # a pool that forks starts all its workers at once, used or not
    real, pools = concurrent.futures.ProcessPoolExecutor, []

    def recording(max_workers):
        pools.append(max_workers)
        return real(max_workers=max_workers)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", recording)
    cfg_path = write_cfg(tmp_path, BASE_CFG.replace("K = 40", "K = 5"))
    args = ["run", "--config", str(cfg_path), "--jobs", "8", "--out"]
    assert main(args + [str(tmp_path / "one")]) == 0
    assert main(args + [str(tmp_path / "two"), "--grid", "topology=ring,star"]) == 0
    assert pools == [2]


@pytest.mark.parametrize("option", ["--jobs"])
def test_sweep_rejects_counts_below_one(tmp_path, capsys, option):
    # a replica count below one is a config error: test_unsatisfiable_config_exits_2
    cfg_path = write_cfg(tmp_path, BASE_CFG.replace("K = 40", "K = 0"))
    rc = main(["run", "--config", str(cfg_path), "--grid", "topology=ring",
               "--out", str(tmp_path / "sweep"), option, "0"])
    assert rc == 2
    assert f"{option} must be >= 1, got 0" in capsys.readouterr().err
    assert not (tmp_path / "sweep").exists()


REPEATED = [
    ("topology=ring,ring", "ring__hsm_admm"),
    ("topology=star, ring,star,ring", "star__hsm_admm"),
    ("algorithm=hsm_admm,prox_gt,hsm_admm", "ring__hsm_admm"),
    ("c_eta=2,2.0", "ring__hsm_admm__2.0"),
]


@pytest.mark.parametrize("grid, repeated", REPEATED, ids=[g for g, _ in REPEATED])
def test_sweep_rejects_a_repeated_entry(tmp_path, capsys, grid, repeated):
    # two cells of one name would share a directory (and, with --jobs 2,
    # its files); a value is named as the config text writes it
    cfg_path = write_cfg(tmp_path, BASE_CFG.replace("K = 40", "K = 0"))
    grids = {"topology": "topology=ring,star", "algorithm": "algorithm=hsm_admm"}
    grids[grid.split("=")[0]] = grid
    rc = main(["run", "--config", str(cfg_path), "--out", str(tmp_path / "sweep"),
               "--jobs", "2", *(word for spec in grids.values()
                                for word in ("--grid", spec))])
    assert rc == 2
    assert f"two sweep cells are named {repeated!r}" in capsys.readouterr().err
    assert not (tmp_path / "sweep").exists()


def test_sweep_names_a_path_value_with_underscores(tmp_path, capsys):
    # "/" in a value is "_" in its cell's name, so a/b and a_b share one
    edges = [tmp_path / "a" / "b", tmp_path / "a_b"]
    edges[0].parent.mkdir()
    for path in edges:
        path.write_text("0 1\n1 2\n")
    cfg_path = write_cfg(tmp_path, "topology = from_edge_list\nn = 3\np = 2\n"
                                   f"K = 5\nedge_list = {edges[0]}\n")
    out = tmp_path / "sweep"
    args = ["run", "--config", str(cfg_path), "--out", str(out), "--grid"]
    assert main(args + [f"edge_list={edges[0]},{edges[1]}"]) == 2
    name = str(edges[1]).replace("/", "_")
    assert f"two sweep cells are named {name!r}" in capsys.readouterr().err
    assert not out.exists()
    assert main(args + [f"edge_list={edges[0]}"]) == 0
    assert [p.name for p in out.iterdir() if p.is_dir()] == [name]


@pytest.mark.parametrize("grids, message", [
    (["topology=ring", "colour=red"], "--grid: unknown field 'colour'"),
    (["topology=ring", "topology=star"], "--grid topology is given twice"),
    (["replicas=1,0"], "replicas and workers must be >= 1"),
    (["out_dir=a,b"], "--grid out_dir: set it with --out"),
    (["topology="], "--grid 'topology=' holds an empty value"),
    (["topology"], "--grid 'topology' holds an empty value"),
    (["topology=ring,,star"], "--grid 'topology=ring,,star' holds an empty value"),
    (["c_eta=2,fast"], "c_eta: cannot parse 'fast'"),
    (["n=4,1"], "n must be >= 2, got 1"),
    (["topology=ring,random_connected", "n=40", "edge_prob=0.01"],
     "topology random_connected: no connected sample"),
    (["edge_list=edges.txt", "topology=from_edge_list"], "edge list edges.txt"),
    (["dataset_csv=data.csv", "dataset_manifest=manifest.json"],
     "dataset data.csv"),
])
def test_sweep_refuses_before_any_output(tmp_path, capsys, grids, message):
    # every cell's config, graph and problem are checked up front; a later
    # cell's refusal leaves no output of the earlier ones
    cfg_path = write_cfg(tmp_path, BASE_CFG.replace("K = 40", "K = 5"))
    out = tmp_path / "sweep"
    rc = main(["run", "--config", str(cfg_path), "--out", str(out), "--jobs", "2",
               *(word for spec in grids for word in ("--grid", spec))])
    assert rc == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("args, message", [
    (["--grid", "topology=ring", "--topologies", "ring"],
     "unrecognized arguments: --topologies ring"),
    (["--grid", "topology=ring", "--algos", "hsm_admm"],
     "unrecognized arguments: --algos hsm_admm"),
])
def test_sweep_refuses_retired_flags_and_no_grid(tmp_path, capsys, args, message):
    # argparse refuses these with exit 2, before any output exists; a run
    # with no grid is one unnamed cell (test_run_without_a_grid_is_one_cell)
    cfg_path = write_cfg(tmp_path)
    out = tmp_path / "sweep"
    with pytest.raises(SystemExit) as exc:
        main(["run", "--config", str(cfg_path), "--out", str(out), *args])
    assert exc.value.code == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("labels", [None, "same,same"])
def test_plot_refuses_two_traces_under_one_label(tmp_path, capsys, labels):
    # by default a trace is labelled with its file stem, so o1/trace.csv and
    # o2/trace.csv collide; the first curve must not vanish from the charts
    cfg_path = write_cfg(tmp_path, BASE_CFG.replace("K = 40", "K = 5"))
    paths = []
    for out in ("o1", "o2"):
        assert main(["run", "--config", str(cfg_path), "--out", str(tmp_path / out)]) == 0
        paths.append(str(tmp_path / out / "trace.csv"))
    args = ["plot", "--traces", *paths, "--out", str(tmp_path / "charts")]
    assert main(args + (["--labels", labels] if labels else [])) == 2
    err = capsys.readouterr().err
    label = "same" if labels else "trace"
    assert f"label {label!r} names both {paths[0]} and {paths[1]}" in err
    assert not (tmp_path / "charts").exists()
    assert main(args + ["--labels", "first,second"]) == 0
    svg = (tmp_path / "charts" / "stationarity_vs_k.svg").read_text()
    assert "first" in svg and "second" in svg


@pytest.mark.parametrize("labels,traces", [("", 1), (" ", 1), (" , second", 2),
                                           ("first,", 2)])
def test_plot_refuses_an_empty_label(tmp_path, capsys, labels, traces):
    # a blank label would draw an unnamed legend entry
    cfg_path = write_cfg(tmp_path, BASE_CFG.replace("K = 40", "K = 5"))
    assert main(["run", "--config", str(cfg_path), "--out", str(tmp_path / "o")]) == 0
    paths = [str(tmp_path / "o" / "trace.csv")] * traces
    assert main(["plot", "--traces", *paths, "--labels", labels,
                 "--out", str(tmp_path / "charts")]) == 2
    assert f"--labels {labels!r} holds an empty label" in capsys.readouterr().err
    assert not (tmp_path / "charts").exists()


def test_plot_command_and_determinism(tmp_path):
    cfg_path = write_cfg(tmp_path)
    out = tmp_path / "run_out"
    main(["run", "--config", str(cfg_path), "--out", str(out)])
    plots = tmp_path / "plots"
    rc = main(["plot", "--traces", str(out / "trace.csv"), "--labels", "hsm_admm",
               "--out", str(plots)])
    assert rc == 0
    svg = (plots / "stationarity_vs_k.svg").read_text()
    assert "iteration k" in svg and "stationarity measure" in svg
    assert "hsm_admm" in svg
    again = tmp_path / "plots2"
    main(["plot", "--traces", str(out / "trace.csv"), "--labels", "hsm_admm",
          "--out", str(again)])
    for name in ("stationarity_vs_k.svg", "residuals_vs_k.svg",
                 "stationarity_vs_scalars.svg"):
        assert (plots / name).read_bytes() == (again / name).read_bytes()


def test_plot_escapes_label_text(tmp_path):
    cfg_path = write_cfg(tmp_path, BASE_CFG.replace("K = 40", "K = 5"))
    out = tmp_path / "run_out"
    assert main(["run", "--config", str(cfg_path), "--out", str(out)]) == 0
    label = "a<b & c"
    plots = tmp_path / "plots"
    assert main(["plot", "--traces", str(out / "trace.csv"), "--labels", label,
                 "--out", str(plots)]) == 0
    for name in ("stationarity_vs_k.svg", "residuals_vs_k.svg",
                 "stationarity_vs_scalars.svg"):
        root = ElementTree.parse(plots / name).getroot()
        assert label in [el.text for el in root.iter(SVG_TEXT)]
    # the axis labels are escaped too
    ks = np.arange(1.0, 5.0)
    root = ElementTree.fromstring(line_chart([Series(label, ks, ks)], "k > 0", "f & g"))
    assert {label, "k > 0", "f & g"} <= {el.text for el in root.iter(SVG_TEXT)}


@pytest.mark.parametrize("content, message", [
    (None, "No such file"),
    ("k,foo\n1,2\n", "not the trace header"),
    (bytes(range(256)) * 4, "can't decode"),
])
def test_plot_unreadable_trace_exits_2(tmp_path, capsys, content, message):
    path = tmp_path / "trace.csv"
    if isinstance(content, str):
        path.write_text(content)
    elif content is not None:
        path.write_bytes(content)
    assert main(["plot", "--traces", str(path), "--out", str(tmp_path / "plots")]) == 2
    err = capsys.readouterr().err
    assert f"config error: trace {path}" in err and message in err


def test_plot_of_an_empty_trace_leaves_no_directory(tmp_path, capsys):
    # a K = 0 run logs no row, so there is nothing to plot and no chart
    # directory may be left behind
    cfg_path = write_cfg(tmp_path, BASE_CFG.replace("K = 40", "K = 0"))
    assert main(["run", "--config", str(cfg_path), "--out", str(tmp_path / "o")]) == 0
    trace = tmp_path / "o" / "trace.csv"
    assert len(trace.read_text().splitlines()) == 1
    charts = tmp_path / "charts"
    assert main(["plot", "--traces", str(trace), "--out", str(charts)]) == 2
    assert "plot failed: nothing to plot" in capsys.readouterr().err
    assert not charts.exists()


def test_emit_plots_legend_and_meta(tmp_path):
    ks = np.arange(1.0, 51.0)
    t1 = {"k": ks, "stat_total": 1.0 / ks, "res_combined": 1.0 / ks,
          "scalars_tx": 10.0 * ks}
    t2 = {"k": ks, "stat_total": 2.0 / ks, "res_combined": 2.0 / ks,
          "scalars_tx": 20.0 * ks}
    meta = emit_plots({"one": t1, "two": t2}, tmp_path)
    svg = (tmp_path / "stationarity_vs_k.svg").read_text()
    assert "one" in svg and "two" in svg
    rng = meta["stationarity_vs_scalars.svg"]
    assert rng["two"][1] == pytest.approx(2 * rng["one"][1])
    with pytest.raises(EmptyTrace):
        emit_plots({}, tmp_path)


def test_from_edge_list_config(tmp_path):
    edges = tmp_path / "edges.txt"
    edges.write_text("0 1\n1 2\n2 3\n0 3\n")
    text = BASE_CFG.replace("topology = ring", "topology = from_edge_list")
    text += f"edge_list = {edges}\n"
    path = write_cfg(tmp_path, text)
    out = tmp_path / "el"
    assert main(["run", "--config", str(path), "--out", str(out)]) == 0


def test_verify_command_passes(capfd):
    assert main(["verify"]) == 0
    captured = capfd.readouterr()
    lines = [ln for ln in captured.out.splitlines() if ln.startswith("[")]
    assert len(lines) >= 8
    assert all(ln.startswith("[PASS]") for ln in lines)
    # no check raises a warning, and none reaches stderr
    assert not any("warning(s)" in ln for ln in lines)
    assert "Warning" not in captured.err


def test_verify_command_fails_on_a_failing_or_raising_check(capsys, monkeypatch):
    def boom():
        raise RuntimeError("no state")

    def warns():
        warnings.warn("loose", UserWarning)
        warnings.warn("looser", UserWarning)
        return True, "fine"

    monkeypatch.setattr(checks, "VERIFY", [("holds", lambda: (True, "fine")),
                                           ("fails", lambda: (False, "off by 2")),
                                           ("raises", boom), ("warns", warns)])
    assert main(["verify"]) == 1
    # warnings are reported on the line of the check that raised them
    assert capsys.readouterr().out.splitlines() == [
        "[PASS] holds: fine", "[FAIL] fails: off by 2",
        "[FAIL] raises: raised RuntimeError: no state",
        "[PASS] warns: fine; 2 warning(s), first: UserWarning: loose"]


def _run_python(code):
    """Run ``code`` in a fresh interpreter that imports hsmadmm from src."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(ROOT / "src")] + ([os.environ["PYTHONPATH"]]
                               if os.environ.get("PYTHONPATH") else [])))
    return subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=120)


def test_run_single_does_not_import_numpy_ma(tmp_path):
    # np.unique (numpy 2.4) imports numpy.ma on first use; a run with its
    # rate fit and plots must not pay for that import
    code = ("import sys\n"
            "from hsmadmm.config import RunConfig\n"
            "from hsmadmm.harness import run_single\n"
            "cfg = RunConfig(algorithm='hsm_admm', topology='ring', n=4, p=2,\n"
            "                samples_per_agent=8, K=120, plots=True)\n"
            f"summary = run_single(cfg, {str(tmp_path)!r})\n"
            "assert 'slope_of_mean_min_prefix' in summary['aggregate']\n"
            "print('numpy.ma' in sys.modules)\n")
    done = _run_python(code)
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == ["False"]
    assert (tmp_path / "stationarity_vs_k.svg").exists()


def test_importing_the_cli_does_not_import_multiprocessing():
    # only a sweep with --jobs > 1 needs the process pool
    code = ("import sys, hsmadmm.harness, hsmadmm.checks\n"
            "print(sorted(m for m in sys.modules if 'multiprocessing' in m))\n")
    done = _run_python(code)
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == ["[]"]


def test_diverged_replica_keeps_earlier_summaries(tmp_path, monkeypatch):
    calls = []

    def run_then_diverge(cfg, prob, g):
        calls.append(cfg.seed)
        if len(calls) == 2:
            trace = simulator.run(dataclasses.replace(cfg, K=7), prob, g)
            trace.meta["diverged_at"] = 7
            return trace
        return simulator.run(cfg, prob, g)

    monkeypatch.setattr(harness, "run", run_then_diverge)
    path = write_cfg(tmp_path, BASE_CFG + "replicas = 3\n")
    out = tmp_path / "out"
    assert main(["run", "--config", str(path), "--out", str(out)]) == 3
    summary = json.loads((out / "summary.json").read_text())
    assert summary["status"] == "diverged"
    # every replica runs; the diverged one is an entry like the others
    assert [rep["seed"] for rep in summary["replicas"]] == [3, 4, 5]
    assert [rep.get("diverged_at") for rep in summary["replicas"]] == [None, 7, None]
    for rep in summary["replicas"][::2]:
        assert set(rep["feasibility"]) == {"feasible", "c_mu", "margin"}
    for r in range(3):
        assert (out / f"replica_{r:03d}" / "trace.csv").exists()
    # the finished replicas' entries and aggregate are those of a run
    # that never diverged
    monkeypatch.setattr(harness, "run", simulator.run)
    clean = harness.run_single(load_config(path), tmp_path / "clean")
    assert clean["status"] == "ok"
    assert summary["replicas"][::2] == json.loads(json.dumps(clean["replicas"][::2]))
    finals = [rep["final"]["stat_total"] for rep in summary["replicas"][::2]]
    assert summary["aggregate"] == {"final_stat_total_mean": float(np.mean(finals))}
