"""Hardened grid pool: worker death, exceptions, timeouts, REPRO_JOBS,
worker reuse across batches.

The flaky-cell worker below misbehaves only in *child* processes
(``os.getpid() != _MAIN_PID``), so the parent's serial retry of the
same cell succeeds — which is exactly the recovery path under test.
Requires the ``fork`` start method (monkeypatched ``_run_cell``
propagates into forked workers); the whole module is skipped elsewhere.
"""

import multiprocessing
import os
import signal
import time

import pytest

from repro.eval import parallel
from repro.eval.parallel import (CELL_FAILED, CELL_OK, CELL_TIMEOUT,
                                 WorkerPool, job_count, run_cells,
                                 run_cells_recorded)
from repro.faults.harness import HARNESS_FAULTS_ENV, HarnessFaultPlan
from repro.service.store import cell_digest

pytestmark = pytest.mark.skipif(
    multiprocessing.get_start_method() != "fork",
    reason="flaky-cell fixture needs fork-inherited monkeypatching")

_MAIN_PID = os.getpid()


def _flaky_cell(cell):
    """Stand-in for ``run_workload``: misbehaves only in children."""
    in_child = os.getpid() != _MAIN_PID
    if cell.get("die") and in_child:
        os._exit(3)                  # simulate a segfaulted worker
    if cell.get("sleep") and in_child:
        time.sleep(cell["sleep"])
    if cell.get("raise"):
        raise ValueError("boom")
    return dict(cell, ran_in=os.getpid())


@pytest.fixture
def flaky_pool(monkeypatch):
    monkeypatch.setattr(parallel, "_run_cell", _flaky_cell)


def _ran_in(records):
    return {record.outcome["ran_in"] for record in records}


def _reaped(pid):
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return True
    return False


class TestJobCount:
    def test_explicit_argument_wins(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "7")
        assert job_count(3) == 3

    def test_env_parsed(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "5")
        assert job_count() == 5

    def test_malformed_env_warns_and_pins_serial(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "many")
        with pytest.warns(RuntimeWarning, match="REPRO_JOBS='many'"):
            assert job_count() == 1

    def test_floor_of_one(self):
        assert job_count(0) == 1
        assert job_count(-4) == 1


class TestBrokenPool:
    def test_dead_worker_cells_retried_serially(self, flaky_pool):
        cells = [{"id": 0}, {"id": 1, "die": True}, {"id": 2}]
        records = run_cells_recorded(cells, jobs=2)
        assert [r.status for r in records] == [CELL_OK] * 3
        died = records[1]
        assert died.retried
        assert died.outcome["ran_in"] == _MAIN_PID   # serial re-run
        # only cells the pool never finished are marked retried
        assert not any(r.retried for r in records
                       if not r.cell.get("die")
                       and r.outcome["ran_in"] != _MAIN_PID)

    def test_next_batch_forks_fresh_workers(self, flaky_pool):
        with WorkerPool(2) as pool:
            records = run_cells_recorded(
                [{"id": 0}, {"id": 1, "die": True}], jobs=2, pool=pool)
            assert records[1].retried
            assert pool.pids() == []       # the broken pool is gone
            after = run_cells_recorded([{"id": 2}, {"id": 3}], jobs=2,
                                       pool=pool)
            assert not any(r.retried for r in after)
            assert _ran_in(after) <= set(pool.pids())

    def test_worker_lost_between_batches_is_replaced(self, flaky_pool):
        with WorkerPool(2) as pool:
            run_cells_recorded([{"id": 0}, {"id": 1}], jobs=2, pool=pool)
            victim = pool.pids()[0]
            os.kill(victim, signal.SIGKILL)  # e.g. the OOM killer
            deadline = time.monotonic() + 10
            while not _reaped(victim) and time.monotonic() < deadline:
                time.sleep(0.05)
            after = run_cells_recorded([{"id": 2}, {"id": 3}], jobs=2,
                                       pool=pool)
            assert not any(r.retried for r in after)
            assert _ran_in(after) <= set(pool.pids())
            assert victim not in pool.pids()


class TestWorkerException:
    def test_raising_cell_retried_then_recorded_failed(self,
                                                       flaky_pool):
        cells = [{"id": 0}, {"id": 1, "raise": True}]
        records = run_cells_recorded(cells, jobs=2)
        assert records[0].status == CELL_OK
        bad = records[1]
        assert bad.status == CELL_FAILED
        assert bad.retried
        assert "boom" in bad.error

    def test_run_cells_raises_on_persistent_failure(self, flaky_pool):
        with pytest.raises(RuntimeError, match="failed"):
            run_cells([{"id": 0}, {"id": 1, "raise": True}], jobs=2)

    def test_serial_failure_recorded(self, flaky_pool):
        records = run_cells_recorded([{"id": 0, "raise": True}], jobs=1)
        assert records[0].status == CELL_FAILED
        assert "boom" in records[0].error


class TestTimeout:
    def test_slow_cell_recorded_as_timeout(self, flaky_pool):
        cells = [{"id": 0}, {"id": 1, "sleep": 5}]
        records = run_cells_recorded(cells, jobs=2, timeout=0.5)
        assert records[0].status == CELL_OK
        assert records[1].status == CELL_TIMEOUT
        assert not records[1].retried     # would blow the budget again
        assert "wall-clock" in records[1].error

    def test_timed_out_worker_is_killed(self, flaky_pool):
        with WorkerPool(2) as pool:
            run_cells_recorded([{"id": 0}, {"id": 1}], jobs=2, pool=pool)
            workers = pool.pids()
            assert len(workers) == 2
            records = run_cells_recorded(
                [{"id": 2}, {"id": 3, "sleep": 30}], jobs=2,
                timeout=0.5, pool=pool)
            assert records[1].status == CELL_TIMEOUT
            # the worker sleeping through the timed-out cell is dead,
            # not left holding a CPU while the next batch runs
            assert all(_reaped(pid) for pid in workers)
            after = run_cells_recorded([{"id": 4}, {"id": 5}], jobs=2,
                                       pool=pool)
            ran = _ran_in(after)
            assert ran <= set(pool.pids())
            assert not ran & set(workers)


class TestWorkerPool:
    def test_forks_lazily_and_reuses_workers(self, flaky_pool):
        with WorkerPool(2) as pool:
            assert pool.pids() == []       # nothing forks up front
            first = run_cells_recorded([{"id": n} for n in range(4)],
                                       jobs=2, pool=pool)
            workers = pool.pids()
            assert len(workers) == 2
            second = run_cells_recorded(
                [{"id": n} for n in range(4, 8)], jobs=2, pool=pool)
            assert pool.pids() == workers
            assert _ran_in(first + second) <= set(workers)
        assert pool.pids() == []
        assert all(_reaped(pid) for pid in workers)

    def test_serial_batches_never_fork(self, flaky_pool):
        with WorkerPool(2) as pool:
            run_cells_recorded([{"id": 0}, {"id": 1}], jobs=1, pool=pool)
            run_cells_recorded([{"id": 2}], jobs=2, pool=pool)
            assert pool.pids() == []

    def test_harness_faults_armed_after_fork_reach_workers(
            self, tmp_path, monkeypatch):
        """The seam's arming travels with each task: a kill plan armed
        after the fork fires in a reused worker, and disarming it lets
        the next batch run clean in the pool."""
        monkeypatch.delenv(HARNESS_FAULTS_ENV, raising=False)
        cells = [dict(name=name, system="pthreads", scale=0.05)
                 for name in ("histogram", "reverse")]
        with WorkerPool(2) as pool:
            warm = run_cells_recorded(cells, jobs=2, pool=pool)
            assert pool.pids()
            assert not any(r.retried for r in warm)
            plan = HarnessFaultPlan(kill=(cell_digest(cells[1]),))
            monkeypatch.setenv(HARNESS_FAULTS_ENV,
                               plan.save(str(tmp_path / "faults.json")))
            armed = run_cells_recorded(cells, jobs=2, pool=pool)
            assert [r.status for r in armed] == [CELL_OK] * 2
            assert armed[1].retried        # the worker died; serial rerun
            monkeypatch.delenv(HARNESS_FAULTS_ENV)
            clean = run_cells_recorded(cells, jobs=2, pool=pool)
            assert [r.status for r in clean] == [CELL_OK] * 2
            assert not any(r.retried for r in clean)
            assert pool.pids()
