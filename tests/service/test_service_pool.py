"""The service's worker pool: forked once, reused by every shard, reaped
on close.

A campaign service owns one :class:`~repro.eval.parallel.WorkerPool`
for its lifetime.  Shards of real cells must run in the same workers
and store the same bytes a serial service stores; ``close()``, a
``with`` block, or dropping the service must reap the workers.
"""

import gc
import multiprocessing
import os

import pytest

import repro.service.scheduler
from repro.service import (COMPLETED, CampaignService, CampaignSpec,
                           cell_digest)

pytestmark = pytest.mark.skipif(
    multiprocessing.get_start_method() != "fork",
    reason="pool lifetime is asserted on forked workers")

#: four cells: two shards at shard_cells=2
SPEC = CampaignSpec(workloads=("histogram", "histogramfs", "lreg",
                               "reverse"),
                    systems=("pthreads",), scale=0.05, name="four")
PAIR = CampaignSpec(workloads=("histogram", "reverse"),
                    systems=("pthreads",), scale=0.05, name="pair")


def store_bytes(service, spec):
    out = {}
    for cell in spec.cells():
        with open(service.store.path(cell_digest(cell)), "rb") as fh:
            out[cell["name"]] = fh.read()
    return out


def reaped(pid):
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return True
    return False


class TestWorkerReuse:
    def test_shards_share_workers_and_match_serial(self, tmp_path,
                                                   monkeypatch):
        shard_pids = []
        original = repro.service.scheduler.run_checkpointed

        def recording(cells, *args, **kwargs):
            records = original(cells, *args, **kwargs)
            shard_pids.append(kwargs["pool"].pids())
            return records
        monkeypatch.setattr(repro.service.scheduler, "run_checkpointed",
                            recording)

        with CampaignService(root=str(tmp_path / "pooled"), jobs=2,
                             shard_cells=2) as pooled:
            job = pooled.run_spec(SPEC, campaign_id="four")
            pooled_bytes = store_bytes(pooled, SPEC)
        assert job.status == COMPLETED
        assert job.counts()["retried"] == 0
        # one fork of two workers served both shards
        assert len(shard_pids) == 2
        assert len(shard_pids[0]) == 2
        assert shard_pids[1] == shard_pids[0]

        with CampaignService(root=str(tmp_path / "serial"),
                             jobs=1) as serial:
            serial.run_spec(SPEC, campaign_id="four")
            assert store_bytes(serial, SPEC) == pooled_bytes


class TestLifecycle:
    def test_constructor_forks_nothing(self, tmp_path):
        with CampaignService(root=str(tmp_path), jobs=2) as service:
            assert service.scheduler.pool.pids() == []

    def test_close_reaps_workers(self, tmp_path):
        gc.collect()  # let earlier tests' dropped services reap
        service = CampaignService(root=str(tmp_path), jobs=2)
        service.run_spec(PAIR)
        assert len(service.scheduler.pool.pids()) == 2
        service.close()
        assert multiprocessing.active_children() == []

    def test_with_block_reaps_workers(self, tmp_path):
        gc.collect()
        with CampaignService(root=str(tmp_path), jobs=2) as service:
            service.run_spec(PAIR)
            assert len(service.scheduler.pool.pids()) == 2
        assert multiprocessing.active_children() == []

    def test_dropped_service_reaps_workers(self, tmp_path):
        service = CampaignService(root=str(tmp_path), jobs=2)
        service.run_spec(PAIR)
        workers = service.scheduler.pool.pids()
        assert len(workers) == 2
        del service
        gc.collect()
        assert all(reaped(pid) for pid in workers)
