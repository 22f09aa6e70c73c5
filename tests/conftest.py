import builtins
import os

import numpy as np
import pytest
import scipy.sparse as sp
from fractions import Fraction

import holecert as hc
from holecert.ulam import UlamMatrix


@pytest.fixture(scope="session")
def cache_dir(tmp_path_factory):
    """Session cache directory; HOLECERT_TEST_CACHE persists across runs."""
    env = os.environ.get("HOLECERT_TEST_CACHE")
    if env:
        os.makedirs(env, exist_ok=True)
        return env
    return str(tmp_path_factory.mktemp("holecert-cache"))


@pytest.fixture(scope="session")
def pipeline_cache(cache_dir):
    return hc.PipelineCache(cache_dir)


@pytest.fixture(scope="session")
def bundled_map():
    return hc.load_map(hc.bundled_map_path())


@pytest.fixture(scope="session")
def shift10():
    return hc.full_branch_linear(10)


@pytest.fixture(scope="session")
def doubling():
    return hc.full_branch_linear(2, label="doubling")


@pytest.fixture(scope="session")
def decreasing_map():
    """A decreasing Moebius branch from 1 down to 0, then 2x - 1."""
    return hc.PiecewiseMap([hc.Branch(Fraction(0), Fraction(1, 2), Fraction(-2), Fraction(1),
                                      Fraction(1), Fraction(1)),
                            hc.Branch(Fraction(1, 2), Fraction(1), Fraction(2), Fraction(-1))],
                           alpha0=Fraction(3, 4), B0=2, label="decreasing-moebius")


@pytest.fixture(scope="session")
def bundled_spectral_5000(bundled_map, pipeline_cache):
    """Spectral record of the bundled map at mesh 2e-4 (heavy, shared)."""
    return pipeline_cache.spectral_record(bundled_map, 5000)


@pytest.fixture(scope="session")
def decoupled_blocks():
    """Closed stochastic matrix with eigenvalues 1 and 0.97.

    Two random 10-state blocks; every row leaks mass 0.015 evenly into the
    other block, so the lumped two-state chain has eigenvalue 1 - 2 * 0.015.
    """
    rng = np.random.default_rng(97)
    m, leak = 10, 0.015
    blocks = rng.random((2, m, m)) + 0.05
    blocks /= blocks.sum(axis=2, keepdims=True)
    P = np.full((2 * m, 2 * m), leak / m)
    P[:m, :m] = (1 - leak) * blocks[0]
    P[m:, m:] = (1 - leak) * blocks[1]
    return UlamMatrix(2 * m, sp.csr_matrix(P), "decoupled")


@pytest.fixture
def cap_power_steps(monkeypatch):
    """``cap(steps)`` lets ``dominant_left_eigenpair`` take at most ``steps``
    steps instead of 10^6, so a bracket that never narrows fails fast."""
    def cap(steps):
        monkeypatch.setattr(hc.spectral, "range",
                            lambda start, stop: builtins.range(start, steps + 1), raising=False)
    return cap
