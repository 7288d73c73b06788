"""Benchmark-suite configuration.

Every bench regenerates one paper table/figure (scaled for CI speed) via
``benchmark.pedantic(..., rounds=1)`` — the experiments are deterministic
end-to-end runs, not micro-benchmarks, so one round is the meaningful
measurement.  Key reproduced numbers are attached as ``extra_info`` so the
benchmark table doubles as the experiment record.
"""

import pathlib

import pytest

_BENCH_DIR = pathlib.Path(__file__).parent


def pytest_collection_modifyitems(items):
    """Everything under ``benchmarks/`` carries the ``bench`` marker.

    Tier-1 (`pytest -x -q`) deselects ``bench`` by default (see
    ``[tool.pytest.ini_options]`` in pyproject.toml); run the suite with
    ``pytest benchmarks -m bench``.  The hook fires with the *whole*
    session's items, so it must filter to this directory.
    """
    for item in items:
        if _BENCH_DIR in pathlib.Path(item.fspath).parents:
            item.add_marker(pytest.mark.bench)


@pytest.fixture
def run_once(benchmark):
    """Run an experiment exactly once under the benchmark clock."""

    def _run(fn, *args, **kwargs):
        return benchmark.pedantic(fn, args=args, kwargs=kwargs, rounds=1, iterations=1)

    return _run

