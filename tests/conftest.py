import json

import numpy as np
import pytest

from hsmadmm.graph import build_topology
from hsmadmm.problems import load_dataset, make_problem, save_dataset


@pytest.fixture
def ring4():
    return build_topology("ring", 4)


@pytest.fixture
def quad_problem():
    # convex quadratic consensus testbed: no regularizer, no penalty
    return make_problem("least_squares", 4, 2, 20, 11)


@pytest.fixture
def composite_problem():
    return make_problem("logistic", 4, 3, 15, 2, regularizer="l1",
                        l1_weight=0.01, alpha=0.1, noniid=True)


@pytest.fixture
def ragged_problem(tmp_path):
    """Build a problem whose agents hold unequal numbers of samples (two of
    them the same number), loaded from a CSV and a manifest as a user
    supplies one."""
    def build(kind="logistic", p=3, alpha=0.3, sizes=(3, 7, 1, 7, 20), **kw):
        source = make_problem(kind, 1, p, sum(sizes), 5)
        csv, manifest = tmp_path / "data.csv", tmp_path / "manifest.json"
        save_dataset(source, csv, manifest)
        bounds = np.cumsum((0,) + sizes).tolist()
        manifest.write_text(json.dumps({"n": len(sizes), "p": p, "ranges": [
            [s, e] for s, e in zip(bounds[:-1], bounds[1:])]}))
        return load_dataset(csv, manifest, kind=kind, alpha=alpha, **kw)
    return build
