"""Tests for the executor abstraction (repro.runtime.executors)."""

import pytest

from repro.errors import ConfigurationError
from repro.runtime import ProcessExecutor, SerialExecutor, get_executor


def _double(x):
    # Module-level so the process executor can pickle it.
    return x * 2


def _explode(x):
    raise ValueError(f"boom on {x}")


JOBS = [1, 2, 3, 4, 5]

#: One worker runs serially, more run the process pool.
WORKERS = pytest.mark.parametrize(
    "workers", [1, 2], ids=["serial", "process"]
)


class TestMapPairs:
    @WORKERS
    def test_results_in_job_order(self, workers):
        executor = get_executor(workers)
        assert executor.map_pairs(_double, JOBS) == [2, 4, 6, 8, 10]

    @WORKERS
    def test_empty_jobs(self, workers):
        executor = get_executor(workers)
        assert executor.map_pairs(_double, []) == []

    def test_serial_propagates_exceptions(self):
        with pytest.raises(ValueError, match="boom"):
            SerialExecutor().map_pairs(_explode, JOBS)

    def test_process_propagates_exceptions(self):
        with pytest.raises(ValueError, match="boom"):
            ProcessExecutor(2).map_pairs(_explode, JOBS)


class TestResolution:
    def test_default_is_serial_for_one_worker(self):
        assert isinstance(get_executor(1), SerialExecutor)
        assert isinstance(get_executor(None), SerialExecutor)

    def test_default_is_process_for_many_workers(self):
        executor = get_executor(4)
        assert isinstance(executor, ProcessExecutor)
        assert executor.workers == 4

    def test_bad_worker_counts_rejected(self):
        with pytest.raises(ConfigurationError):
            ProcessExecutor(0)
        with pytest.raises(ConfigurationError):
            ProcessExecutor(-1)

    def test_in_process_flags(self):
        assert SerialExecutor().in_process
        assert not ProcessExecutor(2).in_process
