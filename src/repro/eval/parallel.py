"""Parallel execution of independent (workload, system) grid cells.

Every cell of an experiment grid is an isolated simulation: one
:class:`~repro.sim.machine.Machine`, one engine, one runtime, built
from scratch inside ``run_workload``.  Nothing is shared between cells,
so fanning them out across worker *processes* cannot perturb results —
each worker computes exactly the bytes the serial loop would have, and
the parent reassembles them in the caller's order.

Worker count comes from ``REPRO_JOBS`` (default ``os.cpu_count()``;
a malformed value warns and pins serial execution).  ``REPRO_JOBS=1``
— or any pool failure, e.g. a sandbox that forbids fork — falls back
to the serial in-process loop, which is also the configuration to use
when bisecting determinism bugs.

Pooled batches run on a :class:`WorkerPool`, which forks its workers
on the first batch and reuses them for every later batch of the same
owner: a campaign service keeps one for its lifetime, and
:func:`run_cells_recorded` without a pool opens one per call.
Reusing a worker cannot change a cell's bytes — cells share nothing,
and the serial loop already runs a whole grid in one process.

The grid is hardened against worker failure
(:func:`run_cells_recorded`): a cell that blows past its wall-clock
timeout is recorded as ``timeout`` instead of wedging the experiment,
and a :class:`~concurrent.futures.process.BrokenProcessPool` (a worker
segfaulted or was OOM-killed) no longer aborts the grid — the cells
that never finished are re-run serially in the parent and surfaced
with ``retried=True``.  Either event makes the pool kill its workers;
the next batch forks fresh ones.
"""

import os
import warnings
from concurrent.futures import BrokenExecutor, ProcessPoolExecutor
from concurrent.futures import TimeoutError as _FutureTimeout
from dataclasses import dataclass

#: Cell-record statuses (harness-level, distinct from RunOutcome.status:
#: a simulated hang is still a *harness*-ok cell).
CELL_OK = "ok"
CELL_FAILED = "failed"
CELL_TIMEOUT = "timeout"


def job_count(jobs=None):
    """Resolve the worker count: explicit arg > REPRO_JOBS > cpu count.

    A malformed ``REPRO_JOBS`` pins serial execution (``1``) and warns
    — silent degradation to a surprise worker count hid real
    configuration mistakes.
    """
    if jobs is None:
        env = os.environ.get("REPRO_JOBS", "").strip()
        if env:
            try:
                jobs = int(env)
            except ValueError:
                warnings.warn(
                    f"REPRO_JOBS={env!r} is not an integer; running "
                    "serially (jobs=1)", RuntimeWarning, stacklevel=2)
                jobs = 1
        else:
            jobs = os.cpu_count() or 1
    return max(1, jobs)


@dataclass
class CellRecord:
    """Harness-level outcome of one grid cell.

    ``status`` is ``ok`` (the worker returned a
    :class:`~repro.eval.runner.RunOutcome` — which may itself report a
    simulated hang or failure), ``failed`` (the worker raised or
    died), or ``timeout`` (the cell exceeded its wall-clock budget).
    ``retried`` marks cells that were re-run serially after a broken
    pool or a worker exception.
    """

    cell: dict
    status: str
    outcome: object = None
    retried: bool = False
    error: str = ""


#: Arms the harness fault seam (:data:`repro.faults.harness.
#: HARNESS_FAULTS_ENV`; spelled out here to keep the imports acyclic).
_HARNESS_FAULTS_ENV = "REPRO_HARNESS_FAULTS"


def _run_cell(kwargs):
    # imported here so worker processes resolve it after fork/spawn
    from repro.eval.runner import run_workload
    if os.environ.get(_HARNESS_FAULTS_ENV):
        # chaos seam (see repro.faults.harness): may raise a poison
        # failure or hard-exit a pool worker before the workload runs
        from repro.faults.harness import active_plan
        plan = active_plan()
        if plan is not None:
            plan.apply(kwargs)
    return run_workload(**kwargs)


def _run_pooled(cell, faults):
    """One pool task: :func:`_run_cell` under the parent's harness-fault
    arming as of submission.

    A reused worker's environment is the parent's at fork time, so the
    parent sends ``REPRO_HARNESS_FAULTS`` with every task: arming or
    disarming the seam after the fork reaches the next batch.  No
    current caller needs this: the resilience chaos campaign arms the
    seam before its service's first batch and disarms it after the
    pool closes.  Without it, a pool kept across a change of plan would
    run every batch under the plan armed at fork time.
    """
    if faults:
        os.environ[_HARNESS_FAULTS_ENV] = faults
    else:
        os.environ.pop(_HARNESS_FAULTS_ENV, None)
    return _run_cell(cell)


class WorkerPool:
    """Pool worker processes reused across batches of cells.

    Nothing forks until the first batch (:meth:`submit`); every later
    batch of the same owner runs on those workers.  After a broken
    pool or a cell timeout the caller calls :meth:`discard`, and the
    next batch forks fresh ones.  ``jobs`` resolves through
    :func:`job_count` at fork time.  As a context manager the pool
    closes on exit.
    """

    def __init__(self, jobs=None):
        self.jobs = jobs
        self._executor = None

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        self.close()

    def submit(self, cells):
        """Queue every cell, forking the workers if none are running;
        returns one future per cell."""
        if self._executor is not None and self._executor._broken:
            self.discard()  # a worker died between batches
        if self._executor is None:
            self._executor = ProcessPoolExecutor(
                max_workers=job_count(self.jobs))
        faults = os.environ.get(_HARNESS_FAULTS_ENV, "")
        return [self._executor.submit(_run_pooled, cell, faults)
                for cell in cells]

    def pids(self):
        """Sorted pids of the running workers; empty before the first
        batch and after :meth:`discard`/:meth:`close`."""
        # the executor's pid -> Process table
        return sorted(getattr(self._executor, "_processes", None) or ())

    def discard(self):
        """Kill the workers, including one still running a timed-out
        cell, so it stops holding a CPU; the next batch forks afresh."""
        executor, self._executor = self._executor, None
        if executor is None:
            return
        processes = list((executor._processes or {}).values())
        executor.shutdown(wait=False, cancel_futures=True)
        for process in processes:
            process.kill()
        for process in processes:
            process.join()

    def close(self):
        """Shut the workers down and reap them; a later batch forks
        again."""
        executor, self._executor = self._executor, None
        if executor is not None:
            executor.shutdown(wait=True, cancel_futures=True)


def _run_serial(cell, retried=False):
    """Run one cell in-process, capturing any exception as a record."""
    try:
        outcome = _run_cell(cell)
    except Exception as exc:  # noqa: BLE001 - harness boundary
        return CellRecord(cell=dict(cell), status=CELL_FAILED,
                          retried=retried,
                          error=f"{type(exc).__name__}: {exc}")
    return CellRecord(cell=dict(cell), status=CELL_OK, outcome=outcome,
                      retried=retried)


def run_cells_recorded(cells, jobs=None, timeout=None, pool=None):
    """Run every cell, never abort the grid; returns
    :class:`CellRecord` objects in input order.

    ``timeout`` (seconds of host wall-clock, pooled execution only)
    bounds each cell from the moment the parent starts waiting on it;
    a cell that exceeds it is recorded as ``timeout`` and is *not*
    retried (it would exceed the budget serially too).  A broken pool
    or a raising worker marks the affected cells for a serial re-run
    in the parent, surfaced with ``retried=True``.

    Pooled cells run on ``pool`` (a :class:`WorkerPool` the caller
    keeps across batches), or on one opened and closed around this
    call.  A timeout or a broken pool discards the pool's workers.
    """
    cells = list(cells)
    jobs = job_count(jobs)
    if jobs <= 1 or len(cells) <= 1:
        return [_run_serial(cell) for cell in cells]
    if pool is None:
        with WorkerPool(min(jobs, len(cells))) as scoped:
            return _run_pooled_batch(cells, timeout, scoped)
    return _run_pooled_batch(cells, timeout, pool)


def _run_pooled_batch(cells, timeout, pool):
    """:func:`run_cells_recorded`'s pooled path on ``pool``."""
    records = [None] * len(cells)
    try:
        futures = pool.submit(cells)
    except (OSError, PermissionError):
        # no subprocesses available (restricted environments): degrade
        # to the serial path rather than failing the experiment
        pool.discard()
        return [_run_serial(cell) for cell in cells]
    healthy = True
    try:
        for index, future in enumerate(futures):
            cell = cells[index]
            try:
                outcome = future.result(timeout=timeout)
            except _FutureTimeout:
                future.cancel()
                healthy = False
                records[index] = CellRecord(
                    cell=dict(cell), status=CELL_TIMEOUT,
                    error=f"exceeded {timeout}s wall-clock budget")
            except BrokenExecutor:
                # the pool is gone (a worker segfaulted / was killed);
                # every unfinished cell stays None and is re-run
                # serially below
                healthy = False
                break
            except Exception as exc:  # noqa: BLE001 - worker raised
                records[index] = _run_serial(cell, retried=True)
                if records[index].status == CELL_FAILED:
                    records[index].error = (
                        f"{type(exc).__name__}: {exc}; serial retry: "
                        f"{records[index].error}")
            else:
                records[index] = CellRecord(cell=dict(cell),
                                            status=CELL_OK,
                                            outcome=outcome)
    except BaseException:
        # e.g. an interrupt: the workers still hold this batch's cells
        healthy = False
        raise
    finally:
        # a timed-out cell may still be burning CPU in its worker, and
        # a broken pool cannot take more work: kill the workers, the
        # next batch forks fresh ones
        if not healthy:
            pool.discard()
    for index, cell in enumerate(cells):
        if records[index] is None:
            records[index] = _run_serial(cell, retried=True)
    return records


def run_cells(cells, jobs=None, timeout=None):
    """Run ``run_workload(**cell)`` for every cell; returns outcomes in
    input order.

    ``cells`` is a sequence of keyword dicts for
    :func:`repro.eval.runner.run_workload`.  With ``jobs > 1`` the cells
    execute on a scoped :class:`WorkerPool`; the outcomes (and
    every simulated cycle/HITM count inside them) are identical to the
    serial loop's.  A broken pool is recovered by re-running only the
    unfinished cells serially; a cell that fails even serially (or
    times out) raises — callers wanting per-cell failure records use
    :func:`run_cells_recorded`.
    """
    records = run_cells_recorded(cells, jobs=jobs, timeout=timeout)
    for record in records:
        if record.status != CELL_OK:
            raise RuntimeError(
                f"grid cell {record.cell!r} {record.status}: "
                f"{record.error}")
    return [record.outcome for record in records]
