"""Shared fixtures for the Thunderbolt test suite."""

from __future__ import annotations

import sys

import pytest

from repro.contracts import default_registry, initial_state
from repro.core.config import ThunderboltConfig
from repro.core.cluster import Cluster
from repro.sim import Environment, make_rng
from repro.workloads import WorkloadConfig


@pytest.fixture
def env():
    return Environment()


@pytest.fixture
def rng():
    return make_rng(12345)


@pytest.fixture
def registry():
    return default_registry()


@pytest.fixture
def bank_state():
    return initial_state(16)


@pytest.fixture
def small_cluster_config():
    """A 4-replica configuration sized for fast tests."""
    return ThunderboltConfig(n_replicas=4, batch_size=10, seed=7)


def make_cluster(config=None, workload=None, **cluster_kwargs) -> Cluster:
    """Build a test cluster with small defaults."""
    config = config or ThunderboltConfig(n_replicas=4, batch_size=10, seed=7)
    workload = workload or WorkloadConfig(accounts=200)
    return Cluster(config, workload, **cluster_kwargs)


def count_calls(monkeypatch, module, name):
    """Count calls of the function ``module.name``: wraps it in every loaded
    ``repro`` namespace that holds it (a by-name import is a second
    reference) and returns the one-element list holding the count."""
    original = getattr(module, name)
    calls = [0]

    def counting(*args, **kwargs):
        calls[0] += 1
        return original(*args, **kwargs)

    for module_name, holder in list(sys.modules.items()):
        if module_name.partition(".")[0] == "repro" \
                and vars(holder).get(name) is original:
            monkeypatch.setattr(holder, name, counting)
    return calls
