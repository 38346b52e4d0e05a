import os
import warnings

import numpy as np
import pytest

# hypothesis imports libcst, where it is installed, to print a failing example;
# imported here first with only libcst's mypy_extensions.TypedDict warning
# ignored, that import is a cache hit even under -W error
with warnings.catch_warnings():
    warnings.filterwarnings(
        "ignore", r"mypy_extensions\.TypedDict is deprecated", DeprecationWarning
    )
    try:
        import libcst  # noqa: F401
    except ImportError:
        pass

from netpoverty import DependenceStructure, WeightVector, dataio


def random_structure(rng, d, symmetric=False, sparsity=0.35):
    m = rng.uniform(0.0, 1.0, (d, d))
    m[rng.random((d, d)) < sparsity] = 0.0
    if symmetric:
        m = np.triu(m, 1)
        m = m + m.T
    np.fill_diagonal(m, 1.0)
    return DependenceStructure(m)


def random_weights(rng, d):
    u = rng.uniform(0.2, 1.8, d)
    return WeightVector(u * (d / u.sum()))


def usable_cpus(monkeypatch, cpus):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)), raising=False)


def assert_reaped(pids):
    for pid in pids:
        with pytest.raises(ChildProcessError):
            os.waitpid(pid, os.WNOHANG)


@pytest.fixture
def rng():
    return np.random.default_rng(20260810)


@pytest.fixture
def forks(monkeypatch):
    """The pids this process forks during the test, as a list."""
    pids, fork = [], os.fork

    def spy():
        pid = fork()
        if pid:
            pids.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", spy)
    return pids


@pytest.fixture
def small_chunks(monkeypatch):
    """Report text formatted 16 persons a chunk."""
    monkeypatch.setattr(dataio, "_CHUNK_PERSONS", 16)

