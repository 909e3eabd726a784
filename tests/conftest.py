import pytest

from hsmadmm.graph import build_topology
from hsmadmm.problems import make_problem


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
