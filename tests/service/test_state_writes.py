"""The service's persistence budget: which files a campaign rewrites.

Every state, store and checkpoint file goes through one atomic writer,
:func:`repro.eval.report.write_json`, which ends in one ``os.replace``.
Counting those calls pins the per-campaign write cadence:

- a store-served campaign makes exactly 3 (pending state, final state,
  supervision record);
- a one-shard campaign that executes ``k`` cells makes ``7 + k``
  (pending state, running state, grid checkpoint, one store entry per
  cell, the shard's state, final state, health sidecar, supervision
  record).

The supervision files are skipped when their text equals what the same
supervisor last wrote, and a store-served campaign goes from
``pending`` straight to its final state.  The tests below also show
that neither saving loses anything across a restart.

Cells run through the grid harness' fake-runner seam
(``repro.eval.parallel._run_cell``), serially, so they are instant.
"""

import asyncio
import json
import os

import pytest

from repro.eval import parallel
from repro.service import (COMPLETED, CampaignService, CampaignSpec,
                           Quarantine, ResilienceSupervisor, ResultStore,
                           cell_digest)
from repro.service.scheduler import CampaignJob

#: replaces per store-served campaign: pending, final, supervision
SERVED_REPLACES = 3
#: replaces per one-shard executed campaign, plus one per stored cell
EXECUTED_REPLACES = 7


@pytest.fixture
def ran(monkeypatch):
    """Fake runner: records every executed cell's workload name."""
    names = []

    def _run(cell):
        names.append(cell["name"])
        return dict(cell, ran=True)
    monkeypatch.setattr(parallel, "_run_cell", _run)
    return names


@pytest.fixture
def replaced(monkeypatch):
    """Every ``os.replace`` target, in call order."""
    targets = []
    real = os.replace

    def _replace(src, dst):
        targets.append(os.path.basename(dst))
        return real(src, dst)
    monkeypatch.setattr(os, "replace", _replace)
    return targets


@pytest.fixture
def made(monkeypatch):
    """Every directory ``os.makedirs`` is asked to create."""
    paths = []
    real = os.makedirs

    def _makedirs(path, *args, **kwargs):
        paths.append(path)
        return real(path, *args, **kwargs)
    monkeypatch.setattr(os, "makedirs", _makedirs)
    return paths


def spec_of(*workloads, name="c"):
    return CampaignSpec(workloads=workloads, systems=("pthreads",),
                        scale=0.05, name=name)


def service_at(root):
    return CampaignService(root=str(root), jobs=1, resilience=True)


class TestPersistenceBudget:
    def test_writes_per_campaign(self, tmp_path, ran, replaced):
        root = tmp_path / "svc"
        service = service_at(root)
        spec = spec_of("histogram")

        job = service.run_spec(spec, campaign_id="first")
        assert job.status == COMPLETED and ran == ["histogram"]
        (digest,) = job.cells
        assert replaced == [
            "first.json", "first.json", "campaign-first.json",
            f"{digest}.json", "first.json",
            "service-health.json", "service-state.json", "first.json"]
        assert len(replaced) == EXECUTED_REPLACES + 1

        del replaced[:]
        job = service.run_spec(spec, campaign_id="served")
        counts = job.counts()
        assert job.status == COMPLETED
        assert counts["cache_hits"] == counts["total"] == 1
        assert replaced == ["served.json", "service-state.json",
                            "served.json"]
        assert len(replaced) == SERVED_REPLACES

        # nothing ran, so the health sidecar holds what it held
        del replaced[:]
        service.run_spec(spec, campaign_id="served-again")
        assert len(replaced) == SERVED_REPLACES
        assert ran == ["histogram"]
        # a terminal campaign leaves no grid checkpoint behind
        assert os.listdir(root / "checkpoints") == []

        revived = service_at(root)
        assert revived.incomplete_campaigns() == []
        for cid in ("first", "served", "served-again"):
            assert revived.status(cid) == service.status(cid)
            assert revived.results(cid) == service.results(cid)
        assert revived.resilience.snapshot() \
            == service.resilience.snapshot()

    def test_two_cell_shard_adds_one_store_entry_per_cell(
            self, tmp_path, ran, replaced):
        service = service_at(tmp_path / "svc")
        job = service.run_spec(spec_of("histogram", "histogramfs"),
                               campaign_id="pair")
        assert job.status == COMPLETED and len(ran) == 2
        assert len(replaced) == EXECUTED_REPLACES + 2


class TestSkippedRunningWrite:
    def test_crash_before_final_write_resumes_from_the_store(
            self, tmp_path, ran, monkeypatch):
        """A store-served campaign writes no ``running`` state, so a
        crash before its final write leaves it ``pending``; a restart
        must still finish it from the store alone."""
        root = tmp_path / "svc"
        spec = spec_of("histogram", "histogramfs")
        service_at(root).run_spec(spec, campaign_id="warm")
        executed = list(ran)

        real = CampaignJob.write_state
        calls = []

        def crash_on_final(job):
            calls.append(job.status)
            if len(calls) == 2:  # pending, then the final write
                raise OSError("disk vanished")
            return real(job)
        monkeypatch.setattr(CampaignJob, "write_state", crash_on_final)
        with pytest.raises(OSError, match="disk vanished"):
            service_at(root).run_spec(spec, campaign_id="cut")
        monkeypatch.setattr(CampaignJob, "write_state", real)

        revived = service_at(root)
        assert revived.status("cut")["status"] == "pending"
        assert revived.incomplete_campaigns() == ["cut"]

        async def _resume():
            jobs = await revived.resume_incomplete()
            await revived.scheduler.run_pending()
            return jobs
        (job,) = asyncio.run(_resume())
        assert job.status == COMPLETED
        counts = job.counts()
        assert counts["cache_hits"] == counts["total"] == 2
        assert counts["executed"] == 0
        assert ran == executed
        assert revived.status("cut")["status"] == COMPLETED
        assert revived.incomplete_campaigns() == []


class TestWriter:
    def test_skip_is_per_supervisor_instance(self, tmp_path):
        root = str(tmp_path / "svc")
        first = ResilienceSupervisor(root)
        first.tenant_stats["acme"] = {"completed": 1, "failed": 0}
        path = first.save_state()
        os.remove(path)
        first.save_state()  # same text as its last write: skipped
        assert not os.path.exists(path)

        rebuilt = ResilienceSupervisor(root)
        rebuilt.save_state()
        with open(path) as fh:
            assert json.load(fh) == rebuilt.snapshot()

        with open(path, "w") as fh:
            fh.write('{"format": "repro-service-st')
        after_corruption = ResilienceSupervisor(root)
        after_corruption.save_state()
        with open(path) as fh:
            assert json.load(fh) == after_corruption.snapshot()

    def test_changed_state_is_rewritten(self, tmp_path):
        sup = ResilienceSupervisor(str(tmp_path / "svc"))
        path = sup.save_state()
        sup.tenant_stats["acme"] = {"completed": 1, "failed": 0}
        sup.save_state()
        with open(path) as fh:
            assert json.load(fh)["tenants"] == {
                "acme": {"completed": 1, "failed": 0}}

    def test_files_are_compact_sorted_json(self, tmp_path):
        sup = ResilienceSupervisor(str(tmp_path / "svc"))
        sup.tenant_stats["b"] = {"failed": 0, "completed": 2}
        with open(sup.save_state()) as fh:
            text = fh.read()
        assert text == json.dumps(sup.snapshot(), sort_keys=True,
                                  separators=(",", ":"))

    def test_quarantine_creates_its_directory_on_demand(
            self, tmp_path, made):
        quarantine = Quarantine(str(tmp_path / "svc" / "quarantine"))
        path = quarantine.add("ab" * 32, {"name": "histogram"}, "c-1",
                              attempts=3, reason="poison")
        assert quarantine.get("ab" * 32)["reason"] == "poison"
        # os.makedirs recurses through itself for the missing parents
        assert made[0] == quarantine.root
        before = len(made)
        quarantine.add("cd" * 32, {"name": "lreg"}, "c-1",
                       attempts=3, reason="poison")
        assert len(made) == before  # it exists now
        assert sorted(os.listdir(quarantine.root)) == [
            os.path.basename(path), "cd" * 32 + ".json"]

    def test_store_put_creates_a_new_shard_directory(self, tmp_path,
                                                     made):
        store = ResultStore(str(tmp_path / "store"))
        cell = {"name": "histogram", "system": "pthreads",
                "scale": 0.05}
        path = store.put(cell, "ok", {"cycles": 7})
        assert made[0] == os.path.dirname(path)
        before = len(made)
        store.put(cell, "ok", {"cycles": 7})
        assert len(made) == before
        assert os.listdir(os.path.dirname(path)) == [
            os.path.basename(path)]
        assert store.get(cell_digest(cell))["summary"] == {"cycles": 7}
