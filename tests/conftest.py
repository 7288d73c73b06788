"""Shared fixtures: the paper's worked instances and small populations."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import ProblemInstance, SpeedupMatrix
from repro.parallel import shutdown_shared_pool


@pytest.fixture(autouse=True)
def _isolate_bench_ledger(monkeypatch):
    """Keep tier-1 tests away from the committed benchmark ledger.

    An empty ``$REPRO_LEDGER_DIR`` disables default-ledger discovery
    (see :mod:`repro.benchledger.ledger`), so in-process CLI invocations
    like ``repro bench --json`` never append to ``benchmarks/ledger/``
    from a test run.  Ledger tests opt back in with ``--ledger DIR`` or
    by setting the variable themselves.  Same deal for the audit ledger
    (:mod:`repro.auditor.ledger`): an empty ``$REPRO_AUDIT_DIR`` keeps
    audited pipelines built by tests purely in memory, and an empty
    ``$REPRO_TRACE_DIR`` (:mod:`repro.traces.store`) keeps trace
    discovery away from any ``traces/`` directory in the checkout.
    """
    monkeypatch.setenv("REPRO_LEDGER_DIR", "")
    monkeypatch.setenv("REPRO_AUDIT_DIR", "")
    monkeypatch.setenv("REPRO_TRACE_DIR", "")


@pytest.fixture(autouse=True)
def _shutdown_shared_pool():
    """Retire the warm process pool a test forked, if it forked one.

    Its workers are copies of the parent at fork time, so a later test
    must never reach one that still carries this test's monkeypatches.
    """
    yield
    shutdown_shared_pool()


@pytest.fixture
def paper_instance() -> ProblemInstance:
    """§2.4 running example: W = [[1,2],[1,3],[1,4]], one GPU per type."""
    return ProblemInstance(SpeedupMatrix([[1, 2], [1, 3], [1, 4]]), [1.0, 1.0])


@pytest.fixture
def fig2_instance() -> ProblemInstance:
    """Fig. 2 example: W = [[1,2],[1,4]], one GPU per type."""
    return ProblemInstance(SpeedupMatrix([[1, 2], [1, 4]]), [1.0, 1.0])


@pytest.fixture
def eq6_instance() -> ProblemInstance:
    """Eq. (6) example: W = [[1,2],[1,5]], one GPU per type."""
    return ProblemInstance(SpeedupMatrix([[1, 2], [1, 5]]), [1.0, 1.0])


@pytest.fixture
def zoo_instance_4() -> ProblemInstance:
    """Four zoo models on the paper's 24-GPU capacity vector."""
    from repro.workloads.generator import zoo_instance

    return zoo_instance(["vgg16", "resnet50", "transformer", "lstm"])


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(12345)
