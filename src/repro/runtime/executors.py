"""Executor abstraction for fanning work out over flow pairs.

Each CGAN in Algorithm 2 trains on its own data split with its own RNG
streams — the per-pair work is embarrassingly parallel.  The executors
here share one interface, :meth:`Executor.map_pairs`, which applies a
function to a list of jobs and returns the results **in job order**:

* :class:`SerialExecutor` — plain loop; the reference schedule.
* :class:`ProcessExecutor` — process pool; true CPU parallelism.  The
  mapped function and jobs must be picklable (module-level function +
  dataclass payloads).

The worker count alone picks one (:func:`get_executor`): one worker
runs serially, more run the process pool.

Determinism does **not** depend on the executor: per-pair RNG streams
are derived from ``(pipeline seed, pair key)`` alone (see
:func:`repro.utils.rng.derive_rngs`), so serial and parallel schedules
produce bitwise-identical models.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor

from repro.errors import ConfigurationError


class Executor:
    """Common interface: apply ``fn`` to jobs, preserving order."""

    #: Name reported in the ``TrainingStarted`` / ``AnalysisStarted`` events.
    name = "abstract"
    #: True when ``fn`` runs in this interpreter (closures + live event
    #: emission are allowed); False when jobs are shipped to workers.
    in_process = True
    workers = 1

    def map_pairs(self, fn, jobs) -> list:
        raise NotImplementedError

    def __repr__(self):
        return f"{type(self).__name__}(workers={self.workers})"


class SerialExecutor(Executor):
    """Run jobs one after another in the calling thread."""

    name = "serial"
    in_process = True

    def map_pairs(self, fn, jobs) -> list:
        return [fn(job) for job in jobs]


class ProcessExecutor(Executor):
    """Run jobs on a pool of at most *workers* processes."""

    name = "process"
    in_process = False

    def __init__(self, workers: int):
        if workers < 1:
            raise ConfigurationError(f"workers must be >= 1, got {workers}")
        self.workers = workers

    def map_pairs(self, fn, jobs) -> list:
        jobs = list(jobs)
        if not jobs:
            return []
        with ProcessPoolExecutor(max_workers=min(self.workers, len(jobs))) as pool:
            return list(pool.map(fn, jobs))


def get_executor(workers: int | None = None) -> Executor:
    """Serial for ``None`` / 0 / 1 workers, a process pool otherwise."""
    if not workers or workers <= 1:
        return SerialExecutor()
    return ProcessExecutor(workers)
