"""Campaign fault tolerance: worker death, timeouts, partial resume.

The fault cell below misbehaves only in *child* processes (same
convention as ``tests/eval/test_parallel_hardening.py``), keyed off
the workload name so real :class:`CampaignSpec` cells can trigger it:
``histogramfs`` kills its worker (BrokenProcessPool), ``lreg`` sleeps
past the cell budget.  ``REPRO_FAULT_FIXED`` turns the faults off —
the "operator fixed it, resubmit" half of the resume tests — and
every invocation appends to a per-workload run log so the tests can
prove which cells actually re-executed.
"""

import asyncio
import multiprocessing
import os
import time

import pytest

from repro.eval import parallel
from repro.service import (COMPLETED, FAILED, CampaignService,
                           CampaignSpec, cell_digest)

pytestmark = pytest.mark.skipif(
    multiprocessing.get_start_method() != "fork",
    reason="fault fixture needs fork-inherited monkeypatching")

_MAIN_PID = os.getpid()


def _fault_cell(cell):
    logdir = os.environ.get("REPRO_FAULT_LOG")
    if logdir:
        with open(os.path.join(logdir, cell["name"]), "a") as fh:
            fh.write("x")
    in_child = os.getpid() != _MAIN_PID
    if in_child and not os.environ.get("REPRO_FAULT_FIXED"):
        if cell["name"] == "histogramfs":
            os._exit(3)              # simulated segfaulted worker
        if cell["name"] == "lreg":
            time.sleep(6)            # blows the cell budget
    return {"workload": cell["name"], "ran": True}


@pytest.fixture
def fault_pool(monkeypatch, tmp_path):
    monkeypatch.setattr(parallel, "_run_cell", _fault_cell)
    logdir = tmp_path / "runlog"
    logdir.mkdir()
    monkeypatch.setenv("REPRO_FAULT_LOG", str(logdir))
    monkeypatch.delenv("REPRO_FAULT_FIXED", raising=False)
    return logdir


def runs(logdir, name):
    try:
        return len(open(logdir / name).read())
    except OSError:
        return 0


def spec_of(*workloads):
    return CampaignSpec(workloads=workloads, systems=("pthreads",),
                        scale=0.05)


class TestWorkerCrash:
    def test_broken_pool_cell_retried_to_completion(self, fault_pool,
                                                    tmp_path):
        service = CampaignService(root=str(tmp_path / "svc"), jobs=2)
        job = service.run_spec(spec_of("histogram", "histogramfs"),
                               campaign_id="crash-1")
        # the dead worker broke the pool mid-campaign; the harness
        # re-ran the affected cells serially in the parent (where the
        # fault cell behaves), so the campaign still completes
        assert job.status == COMPLETED
        counts = job.counts()
        assert counts["ok"] == counts["total"] == 2
        assert counts["retried"] >= 1
        by_name = {e["cell"]["name"]: e for e in job.cells.values()}
        assert by_name["histogramfs"]["retried"]
        state = service.status("crash-1")
        assert state["counts"]["retried"] == counts["retried"]


class TestTimeout:
    def test_slow_cell_classified_and_campaign_failed(self,
                                                      fault_pool,
                                                      tmp_path):
        service = CampaignService(root=str(tmp_path / "svc"), jobs=2,
                                  timeout=0.75)
        job = service.run_spec(spec_of("histogram", "lreg"),
                               campaign_id="slow-1")
        assert job.status == FAILED
        counts = job.counts()
        assert counts["ok"] == 1 and counts["timeout"] == 1
        by_name = {e["cell"]["name"]: e for e in job.cells.values()}
        assert by_name["lreg"]["status"] == "timeout"
        assert not by_name["lreg"]["retried"]  # budget, not flakiness
        # a timed-out cell must never be served from the cache later
        (lreg_cell,) = spec_of("lreg").cells()
        assert service.store.get(cell_digest(lreg_cell)) is None

    def test_failed_campaign_drops_its_checkpoint(self, fault_pool,
                                                  tmp_path):
        root = tmp_path / "svc"
        service = CampaignService(root=str(root), jobs=2,
                                  timeout=0.75)
        job = service.run_spec(spec_of("histogram", "lreg"),
                               campaign_id="slow-3")
        assert job.status == FAILED
        # the shard did checkpoint; the terminal status removed it
        assert os.listdir(root / "checkpoints") == []

    def test_resubmit_reexecutes_only_the_unfinished_cell(
            self, fault_pool, tmp_path, monkeypatch):
        service = CampaignService(root=str(tmp_path / "svc"), jobs=2,
                                  timeout=0.75)
        spec = spec_of("histogram", "lreg")
        first = service.run_spec(spec, campaign_id="slow-2")
        assert first.status == FAILED
        histogram_runs = runs(fault_pool, "histogram")
        lreg_runs = runs(fault_pool, "lreg")

        # operator fixes the slow cell and resubmits the same id: the
        # campaign resumes from its state file, and only the cell that
        # never finished goes back to the pool
        monkeypatch.setenv("REPRO_FAULT_FIXED", "1")
        second = service.run_spec(spec, campaign_id="slow-2")
        assert second.status == COMPLETED
        assert second.counts()["ok"] == 2
        assert runs(fault_pool, "histogram") == histogram_runs
        assert runs(fault_pool, "lreg") == lreg_runs + 1


class TestRestartRecovery:
    def test_killed_service_resumes_interrupted_campaign(
            self, fault_pool, tmp_path, monkeypatch):
        """A service that died mid-campaign finishes it on restart."""
        root = str(tmp_path / "svc")
        first = CampaignService(root=root, jobs=2, timeout=0.75)
        job = first.run_spec(spec_of("histogram", "lreg"),
                             campaign_id="died-1")
        assert job.status == FAILED      # the "crash": left unfinished
        histogram_runs = runs(fault_pool, "histogram")

        # mark it non-terminal, as a mid-run crash would leave it
        job.status = "running"
        job.write_state()

        monkeypatch.setenv("REPRO_FAULT_FIXED", "1")
        revived = CampaignService(root=root, jobs=2, timeout=0.75)
        assert "died-1" in revived.incomplete_campaigns()
        done = asyncio.run(revived.serve(once=True))
        assert "died-1" in [j.id for j in done]
        assert revived.status("died-1")["status"] == COMPLETED
        assert runs(fault_pool, "histogram") == histogram_runs
