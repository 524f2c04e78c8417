"""Shared fixtures: small worked examples with frozen expected values.

All numeric constants below are frozen oracles.  They were computed once,
cross-checked by hand, and must not be regenerated from the code under test.
"""

import numpy as np
import pytest

from pcmkit.core import Pcm, PriorityVector


# A four-alternative priority vector and its exact multiplicative matrix.
V1 = (0.46, 0.25, 0.19, 0.10)

MPR_V1 = [
    [1.0, 1.84, 0.46 / 0.19, 4.6],
    [0.25 / 0.46, 1.0, 0.25 / 0.19, 2.5],
    [0.19 / 0.46, 0.76, 1.0, 1.9],
    [0.10 / 0.46, 0.4, 0.10 / 0.19, 1.0],
]

# MPR_V1 with three upper-triangle entries disturbed
# (a12 * ~1.707, a24 * 1.05, a34 * ~2.183), reciprocated exactly.
MATRIX_A = [
    [1.0, 3.14, 0.46 / 0.19, 4.60],
    [1 / 3.14, 1.0, 0.25 / 0.19, 2.625],
    [0.19 / 0.46, 0.76, 1.0, 4.147],
    [1 / 4.60, 1 / 2.625, 1 / 4.147, 1.0],
]

# MATRIX_A with the (2,3) entry disturbed as well: a23 = 1.944.
MATRIX_B = [
    [1.0, 3.14, 0.46 / 0.19, 4.60],
    [1 / 3.14, 1.0, 1.944, 2.625],
    [0.19 / 0.46, 1 / 1.944, 1.0, 4.147],
    [1 / 4.60, 1 / 2.625, 1 / 4.147, 1.0],
]

# Scale-rounded counterparts.
RMPR_V1 = [
    [1.0, 2.0, 2.0, 5.0],
    [0.5, 1.0, 1.0, 3.0],
    [0.5, 1.0, 1.0, 2.0],
    [0.2, 1 / 3, 0.5, 1.0],
]

RA = [
    [1.0, 3.0, 2.0, 5.0],
    [1 / 3, 1.0, 1.0, 3.0],
    [0.5, 1.0, 1.0, 4.0],
    [0.2, 1 / 3, 0.25, 1.0],
]

RB = [
    [1.0, 3.0, 2.0, 5.0],
    [1 / 3, 1.0, 2.0, 3.0],
    [0.5, 0.5, 1.0, 4.0],
    [0.2, 1 / 3, 0.25, 1.0],
]

# A second vector whose rounded matrix is consistent but differs from it.
V2 = (0.35, 0.30, 0.20, 0.15)

MPR_V2 = [
    [1.0, 7 / 6, 7 / 4, 7 / 3],
    [6 / 7, 1.0, 3 / 2, 2.0],
    [4 / 7, 2 / 3, 1.0, 4 / 3],
    [3 / 7, 1 / 2, 3 / 4, 1.0],
]

RMPR_V2 = [
    [1.0, 1.0, 2.0, 2.0],
    [1.0, 1.0, 2.0, 2.0],
    [0.5, 0.5, 1.0, 1.0],
    [0.5, 0.5, 1.0, 1.0],
]

# Priority vector of RMPR_V2 (it is consistent, so REV and GM agree exactly).
W_RMPR_V2 = (1 / 3, 1 / 3, 1 / 6, 1 / 6)


@pytest.fixture
def v1():
    return PriorityVector(V1)


@pytest.fixture
def v2():
    return PriorityVector(V2)


@pytest.fixture
def mpr_v1():
    return Pcm(MPR_V1)


@pytest.fixture
def matrix_a():
    return Pcm(MATRIX_A)


@pytest.fixture
def matrix_b():
    return Pcm(MATRIX_B)


@pytest.fixture
def rmpr_v1():
    return Pcm(RMPR_V1)


@pytest.fixture
def ra():
    return Pcm(RA)


@pytest.fixture
def rb():
    return Pcm(RB)


@pytest.fixture
def mpr_v2():
    return Pcm(MPR_V2)


@pytest.fixture
def rmpr_v2():
    return Pcm(RMPR_V2)


def random_reciprocal_pcm(rng: np.random.Generator, n: int, scale_values) -> Pcm:
    """Random reciprocal matrix with upper-triangle entries drawn from a scale."""
    a = np.ones((n, n))
    iu, ju = np.triu_indices(n, k=1)
    a[iu, ju] = rng.choice(scale_values, size=len(iu))
    a[ju, iu] = 1.0 / a[iu, ju]
    return Pcm(a)


# Two-class table files with one fault each, and the row it is in.
BAD_TABLES = (
    (("4,REV,0,abc,0.1,0.1,0.2,0.3,0.2", "4,REV,0.2,inf,0.5,0.1,0.2,0.3,0.2"), 1),
    (("4,REV,0,0.2,0.1,0.1,0.2,0.3,0.2", "4.5,REV,0.2,inf,0.5,0.1,0.2,0.3,0.2"), 2),
    (("4,REV,0,0.2,0.1,0.1,0.2,0.3,nan", "4,REV,0.2,inf,0.5,0.1,0.2,0.3,0.2"), 1),
    (("4,REV,0,0.2,0.1,-0.3,-0.2,-0.1,0.2", "4,REV,0.2,inf,0.5,0.1,0.2,0.3,0.2"), 1),
    (("4,REV,0,0.2,0.1,0.1,0.2,0.3,0.2", "4,REV,0.3,inf,0.5,0.1,0.2,0.3,0.2"), 1),  # gap
    (("4,REV,0,0.3,0.1,0.1,0.2,0.3,0.2", "4,REV,0.2,inf,0.5,0.1,0.2,0.3,0.2"), 1),  # overlap
    (("4,REV,0,inf,0.1,0.1,0.2,0.3,0.2", "4,REV,0.2,inf,0.5,0.1,0.2,0.3,0.2"), 1),  # two unbounded classes
)
