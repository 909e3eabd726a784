"""Desk-scale deterministic simulator for distributed stochastic nonconvex
composite optimization over graphs: a degree-scaled momentum ADMM, uniform
and mixing-based baselines, and the measurement suite that checks the
algebraic identities and rate behavior behind them."""

from .config import ConfigInvalid, RunConfig, load_config
from .graph import (Graph, build_topology, incidence_matrix, laplacian,
                    smallest_singular_sq_A)
from .hsm_admm import NetworkState, Schedules, hsm_admm_round, init_network_state
from .problems import CompositeProblem, make_problem
from .simulator import MessageLedger, MetricsTrace, run

__version__ = "0.1.0"

__all__ = [
    "ConfigInvalid", "RunConfig", "load_config",
    "Graph", "build_topology", "incidence_matrix",
    "laplacian", "smallest_singular_sq_A",
    "NetworkState", "Schedules", "hsm_admm_round", "init_network_state",
    "CompositeProblem", "make_problem",
    "MessageLedger", "MetricsTrace", "run",
    "__version__",
]
