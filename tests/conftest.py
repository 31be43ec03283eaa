import os

import pytest


@pytest.fixture
def four_cpus(monkeypatch):
    """The process may run on four CPUs, whatever the machine has, so that a
    run of up to four workers starts them all (they are capped at the CPUs
    the process may use)."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(4)), raising=False)
