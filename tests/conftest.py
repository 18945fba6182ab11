import math
import os
from decimal import Decimal, localcontext
from pathlib import Path

import numpy as np
import pytest
from hypothesis import settings

import selfcontract as sc

SRC = Path(__file__).resolve().parent.parent / "src"

# Tier-1 draws the same Hypothesis examples on every run; the random search
# runs apart, under HYPOTHESIS_PROFILE=search.
settings.register_profile("default", derandomize=True)
settings.register_profile("search", derandomize=False)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "default"))


@pytest.fixture(scope="session", autouse=True)
def subprocess_imports_src():
    """Make CLI subprocesses import the checked-out package.

    The CLI tests run ``python -m selfcontract.cli`` with ``cwd=tmp_path``;
    a relative ``PYTHONPATH=src`` points at nothing from there, and an
    installed copy of the package may be older than the source under test.
    """
    with pytest.MonkeyPatch.context() as mp:
        mp.setenv("PYTHONPATH", str(SRC), prepend=os.pathsep)
        yield


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


@pytest.fixture
def plane():
    return sc.EuclideanSpace(2)


@pytest.fixture
def spider3():
    return sc.SpiderSpace(3)


@pytest.fixture
def book2():
    return sc.BookSpace(2)


@pytest.fixture
def hyperbolic():
    return sc.HyperbolicPlane()


SMALL_TREE_TEXT = """
edge a b 1.0
edge b c 2.0
edge b d 0.5
edge d e 1.5
"""


@pytest.fixture
def small_tree():
    return sc.load_tree_file(SMALL_TREE_TEXT)


# the spaces of the germ-kernel oracle tests; the random tree has a vertex
# of degree 3
GERM_SPACES = [
    sc.EuclideanSpace(1),
    sc.EuclideanSpace(2),
    sc.EuclideanSpace(3),
    sc.HyperbolicPlane(),
    sc.SpiderSpace(3),
    sc.BookSpace(3),
    sc.random_tree(seed=78, max_edges=10, max_degree=5),
    sc.parse_space_spec("product:[euclidean:1|spider:3]"),
]


def random_point_pairs(space, rng, n, scale=1.5):
    for _ in range(n):
        yield space.random_point(rng, scale), space.random_point(rng, scale)


def decimal_atan2(y, x, digits: int = 50) -> Decimal:
    """atan2 of two doubles (or Decimals) to `digits` significant digits,
    with the signed zeros of `math.atan2`: halve the angle with
    atan u = 2 atan(u / (1 + sqrt(1 + u^2))) until |u| < 0.1, then sum the
    arctan series."""
    with localcontext() as ctx:
        ctx.prec = digits + 10
        if x == 0.0:
            return decimal_pi(digits) / 2 * int(math.copysign(1.0, y))
        u, halvings = Decimal(y) / Decimal(x), 0
        while abs(u) >= Decimal("0.1"):
            u /= 1 + (1 + u * u).sqrt()
            halvings += 1
        total, term, k = Decimal(0), u, 1
        while abs(term) > abs(u).scaleb(-ctx.prec):
            total += term / k
            term *= -u * u
            k += 2
        angle = total * 2 ** halvings
        if x < 0.0:
            angle += decimal_pi(digits) * int(math.copysign(1.0, y))
        return +angle


def decimal_pi(digits: int = 50) -> Decimal:
    """pi to `digits` significant digits, as 4 atan(1)."""
    with localcontext() as ctx:
        ctx.prec = digits + 10
        return 4 * decimal_atan2(1.0, 1.0, digits)
