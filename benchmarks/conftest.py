"""Shared fixtures for the benchmark harness.

The benchmarks regenerate every table and figure of the paper at a reduced
scale so the whole suite completes in minutes; the paper-scale runs are
available through each experiment module's CLI, e.g.
``python -m repro.experiments.fig7_simulation --num-jobs 100 200 300 400``.
"""

import os

import pytest

from repro.api import ExperimentSettings
from repro.core.llmsched import LLMSchedConfig


_BENCH_DIR = os.path.dirname(os.path.abspath(__file__))


def pytest_collection_modifyitems(items):
    """Mark everything under benchmarks/ as ``bench`` so the default test
    run can deselect it with ``-m "not bench"`` (markers in pytest.ini).

    The hook sees the whole session's items, so filter to this directory.
    """
    for item in items:
        path = os.path.abspath(str(item.fspath))
        if path.startswith(_BENCH_DIR + os.sep):
            item.add_marker(pytest.mark.bench)


#: Reduced-scale settings shared by all benchmark runs: fewer profiling jobs
#: keeps the offline phase fast without changing the comparison's shape.
BENCH_SETTINGS = ExperimentSettings(profile_jobs=80, prior_samples=50, llmsched=LLMSchedConfig())

#: Job counts used by the benchmark variants of the paper-scale experiments.
BENCH_NUM_JOBS = 100


@pytest.fixture(scope="session")
def bench_settings() -> ExperimentSettings:
    return BENCH_SETTINGS
