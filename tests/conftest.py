import os
from pathlib import Path

import numpy as np
import pytest

import selfcontract as sc

SRC = Path(__file__).resolve().parent.parent / "src"


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


def random_point_pairs(space, rng, n, scale=1.5):
    for _ in range(n):
        yield space.random_point(rng, scale), space.random_point(rng, scale)
