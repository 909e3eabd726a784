"""Run configuration: a flat key = value text format with strict parsing.

Unknown keys are rejected; every field has a typed default. Booleans accept
true/false/1/0/yes/no. A ``#`` starts a comment anywhere on a line and
values are stripped, so no string value may hold a ``#`` or a line break,
or start or end with white space: the text could not record it. Numbers
must be finite, and seeds nonnegative. A ``RunConfig`` is validated when
it is constructed, by ``dataclasses.replace`` too.
"""
from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass

from .graph import TOPOLOGY_KINDS
from .problems import REGULARIZERS, SMOOTH_KINDS

ALGORITHMS = ("hsm_admm", "uniform_admm", "prox_dsgd", "prox_gt")


class ConfigInvalid(ValueError):
    """Malformed or out-of-range run configuration."""


@dataclass
class RunConfig:
    """Everything a run needs: problem, topology, algorithm, schedule
    constants, budgets, seeds, and output/checker switches.

    ``workers`` is accepted and validated but selects nothing: a run is one
    process on stacked arrays, and parallel work is ``run --grid ... --jobs``.
    """

    algorithm: str = "hsm_admm"
    topology: str = "ring"
    n: int = 8
    p: int = 10
    hubs: int = 1
    edge_prob: float = 0.3
    edge_list: str = ""
    graph_seed: int = 0
    problem: str = "least_squares"
    samples_per_agent: int = 50
    dataset_seed: int = 1
    noniid: bool = False
    regularizer: str = "none"
    l1_weight: float = 0.0
    alpha: float = 0.0
    dataset_csv: str = ""
    dataset_manifest: str = ""
    c_rho: float = 1.0
    c_a: float = 1.0
    c_eta: float = 2.0
    batch_size: int = 1
    m0: int = 32
    step_scale: float = 0.1
    K: int = 1000
    seed: int = 0
    replicas: int = 1
    workers: int = 1
    out_dir: str = "results/run"
    metric_every: int = 0
    check_dual_bound: bool = False
    track_lyapunov: bool = True
    record_accumulation: bool = False
    plots: bool = False

    def __post_init__(self):
        for f in dataclasses.fields(self):
            value = getattr(self, f.name)
            if isinstance(value, float) and not math.isfinite(value):
                raise ConfigInvalid(f"{f.name} must be finite, got {value}")
            if isinstance(value, str) and ("#" in value or value != value.strip()
                                           or "".join(value.splitlines()) != value):
                raise ConfigInvalid(f"{f.name} must hold no '#', line break or "
                                    f"surrounding white space, got {value!r}")
        if self.algorithm not in ALGORITHMS:
            raise ConfigInvalid(f"algorithm must be one of {ALGORITHMS}, got {self.algorithm!r}")
        if self.topology not in TOPOLOGY_KINDS:
            raise ConfigInvalid(f"topology must be one of {TOPOLOGY_KINDS}, got {self.topology!r}")
        if self.problem not in SMOOTH_KINDS:
            raise ConfigInvalid(f"problem must be one of {SMOOTH_KINDS}, got {self.problem!r}")
        if self.regularizer not in REGULARIZERS:
            raise ConfigInvalid(f"regularizer must be one of {REGULARIZERS}")
        if self.regularizer == "none" and self.l1_weight > 0:
            raise ConfigInvalid("l1_weight > 0 requires regularizer = l1")
        if self.n < 2:
            raise ConfigInvalid(f"n must be >= 2, got {self.n}")
        if self.p < 1:
            raise ConfigInvalid(f"p must be >= 1, got {self.p}")
        if self.topology == "random_connected" and not (0.0 < self.edge_prob <= 1.0):
            raise ConfigInvalid(f"edge_prob must be in (0, 1], got {self.edge_prob}")
        if self.topology == "from_edge_list" and not self.edge_list:
            raise ConfigInvalid("from_edge_list requires edge_list")
        if self.topology == "hub_leaf" and not (1 <= self.hubs < self.n):
            raise ConfigInvalid(f"hubs must be in [1, n), got {self.hubs}")
        if self.samples_per_agent < 1:
            raise ConfigInvalid("samples_per_agent must be >= 1")
        for name in ("c_rho", "c_a", "c_eta", "step_scale"):
            if getattr(self, name) <= 0:
                raise ConfigInvalid(f"{name} must be positive")
        for name in ("l1_weight", "alpha"):
            if getattr(self, name) < 0:
                raise ConfigInvalid(f"{name} must be nonnegative")
        if self.batch_size < 0:
            raise ConfigInvalid("batch_size must be >= 0 (0 = full batch)")
        if self.m0 < 1:
            raise ConfigInvalid("m0 must be >= 1")
        if self.K < 0:
            raise ConfigInvalid("K must be >= 0")
        for name in ("seed", "dataset_seed", "graph_seed"):
            if getattr(self, name) < 0:
                raise ConfigInvalid(f"{name} must be >= 0, got {getattr(self, name)}")
        if self.replicas < 1 or self.workers < 1:
            raise ConfigInvalid("replicas and workers must be >= 1")
        if self.metric_every < 0:
            raise ConfigInvalid("metric_every must be >= 0 (0 = automatic cadence)")
        if bool(self.dataset_csv) != bool(self.dataset_manifest):
            raise ConfigInvalid("dataset_csv and dataset_manifest go together")


_FIELDS = {f.name: f for f in dataclasses.fields(RunConfig)}


def _coerce(name: str, raw: str):
    ftype = _FIELDS[name].type
    raw = raw.strip()
    if ftype in ("bool", bool):
        low = raw.lower()
        if low in ("true", "1", "yes"):
            return True
        if low in ("false", "0", "no"):
            return False
        raise ConfigInvalid(f"{name}: expected a boolean, got {raw!r}")
    try:
        if ftype in ("int", int):
            return int(raw)
        if ftype in ("float", float):
            return float(raw)
    except ValueError as exc:
        raise ConfigInvalid(f"{name}: cannot parse {raw!r}") from exc
    return raw


def parse_config_text(text: str) -> RunConfig:
    values = {}
    for ln, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigInvalid(f"line {ln}: expected 'key = value', got {raw.rstrip()!r}")
        key, _, val = line.partition("=")
        key = key.strip()
        if key not in _FIELDS:
            raise ConfigInvalid(f"line {ln}: unknown key {key!r}")
        if key in values:
            raise ConfigInvalid(f"line {ln}: duplicate key {key!r}")
        values[key] = _coerce(key, val)
    return RunConfig(**values)


def load_config(path) -> RunConfig:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigInvalid(f"cannot read config {path}: {exc}") from exc
    return parse_config_text(text)


def value_text(val) -> str:
    """A field value as the config text writes it."""
    if isinstance(val, bool):
        return "true" if val else "false"
    return str(val)


def config_to_text(cfg: RunConfig) -> str:
    return "".join(f"{f.name} = {value_text(getattr(cfg, f.name))}\n"
                   for f in dataclasses.fields(RunConfig))


def write_config(cfg: RunConfig, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(config_to_text(cfg))
