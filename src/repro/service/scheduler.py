"""Asyncio campaign scheduler: queue, shards, cache, backpressure.

One :class:`CampaignScheduler` owns a bounded priority queue of
:class:`CampaignJob` objects and drains it through the existing
hardened grid machinery.  Per job, the dataflow is::

    spec.cells() --digest--> store lookup --+--> cache hits (free)
                                            |
                                            +--> misses, sharded
                                                 |
                             run_checkpointed (eval/parallel pool)
                                                 |
                                store.put + campaign state rewrite

Execution of misses goes through
:func:`repro.eval.grid.run_checkpointed` under a per-campaign
checkpoint name, so a service process that dies mid-shard resumes from
the last completed batch — the same ``results/checkpoints/`` machinery
long grids already use.  Campaign state is rewritten atomically after
every shard; a restarted service re-enqueues any campaign whose state
file says ``pending``/``running`` and re-executes only the cells that
never finished.

Progress streams through the PR 4 observability layer: scheduler-level
counters and gauges in a :class:`~repro.obs.MetricsRegistry`
(``campaign.cells_total``, ``campaign.cache_hits``, ``campaign.
executed``, ``campaign.queue_depth``, ...) plus tracer-style events in
an :class:`~repro.obs.EventLog` that lands in each campaign's state
file.
"""

import asyncio
import json
import os
import weakref

from repro.eval.grid import checkpoint_path, run_checkpointed
from repro.eval.parallel import (CELL_OK, CELL_TIMEOUT, WorkerPool,
                                 job_count)
from repro.obs import EventLog, MetricsRegistry
from repro.service.resilience import (CELL_HUNG, CELL_QUARANTINED,
                                      RETRYING, SOURCE_QUARANTINE)
from repro.service.store import (ResultStore, cell_digest,
                                 result_payload)

#: Versioned campaign-state format tag.
CAMPAIGN_FORMAT = "repro-campaign/1"

#: Campaign lifecycle statuses.
PENDING = "pending"
RUNNING = "running"
COMPLETED = "completed"
FAILED = "failed"

#: Where a cell's result came from.
SOURCE_CACHE = "cache"
SOURCE_EXECUTED = "executed"
SOURCE_CHECKPOINT = "checkpoint"


class CampaignJob:
    """One submitted campaign: spec, per-cell state, event log."""

    def __init__(self, campaign_id, spec, state_path):
        self.id = campaign_id
        self.spec = spec
        self.state_path = state_path
        self.status = PENDING
        #: digest -> {"cell", "status", "source", "retried", "error"}
        self.cells = {}
        self.log = EventLog(meta={"campaign": campaign_id,
                                  "kind": spec.kind})

    # ------------------------------------------------------------------
    # derived state
    # ------------------------------------------------------------------
    def counts(self):
        """Cell totals by harness status, source, and retry flag."""
        counts = {"total": len(self.cells), "cache_hits": 0,
                  "executed": 0, "checkpoint": 0, "retried": 0,
                  "ok": 0, "failed": 0, "timeout": 0}
        for entry in self.cells.values():
            status = entry["status"]
            counts[status] = counts.get(status, 0) + 1
            source = entry["source"]
            if source == SOURCE_CACHE:
                counts["cache_hits"] += 1
            elif source == SOURCE_CHECKPOINT:
                counts["checkpoint"] += 1
            elif source == SOURCE_QUARANTINE:
                pass  # held out: neither cached nor executed
            else:
                counts["executed"] += 1
            if entry.get("retried"):
                counts["retried"] += 1
        return counts

    def cache_hit_fraction(self):
        """Fraction of the campaign's cells served from the store."""
        if not self.cells:
            return 0.0
        counts = self.counts()
        return counts["cache_hits"] / counts["total"]

    def to_dict(self):
        """The campaign state as a ``repro-campaign/1`` document."""
        return {"format": CAMPAIGN_FORMAT, "id": self.id,
                "status": self.status, "spec": self.spec.to_dict(),
                "counts": self.counts(),
                "cache_hit_fraction": self.cache_hit_fraction(),
                "cells": self.cells,
                "events": self.log.trace_data()}

    def write_state(self):
        """Atomically persist the state file; returns its path."""
        os.makedirs(os.path.dirname(self.state_path), exist_ok=True)
        tmp = self.state_path + ".tmp"
        with open(tmp, "w") as fh:
            json.dump(self.to_dict(), fh, indent=1, sort_keys=True)
            fh.write("\n")
        os.replace(tmp, self.state_path)
        return self.state_path

    def load_state(self):
        """Restore prior per-cell state (restart resume); best-effort.

        An unreadable state file is treated as no prior progress — the
        content-addressed store still makes re-derived cells cheap.
        """
        try:
            with open(self.state_path) as fh:
                data = json.load(fh)
        except (OSError, json.JSONDecodeError):
            return False
        if not isinstance(data, dict) \
                or data.get("format") != CAMPAIGN_FORMAT:
            return False
        self.cells = dict(data.get("cells", {}))
        self.status = data.get("status", PENDING)
        return True


class CampaignScheduler:
    """Shards campaign cells across the hardened worker pool.

    ``queue_limit`` bounds the submission queue.  Submission and
    draining run in one asyncio task (``serve``/``submit_stream`` call
    them sequentially), so a full queue must not block ``submit`` —
    there would be no concurrent consumer to unblock it.  Instead, a
    full queue makes ``submit`` drain the highest-priority queued job
    inline before enqueueing: the submitter pays the drain latency,
    which is the backpressure signal open-loop arrival processes exist
    to provoke (visible as the ``campaign.backpressure`` counter).
    ``shard_cells`` controls how many cells go to the pool per
    scheduling quantum (default: two batches' worth of workers,
    matching the grid's checkpoint cadence).

    Every shard runs on one :class:`~repro.eval.parallel.WorkerPool`
    the scheduler owns for its lifetime: the first pooled shard forks
    ``jobs`` workers and later shards reuse them.  :meth:`close` reaps
    them; a scheduler dropped without ``close`` reaps them when it is
    garbage-collected.
    """

    def __init__(self, store=None, state_dir=None, checkpoint_dir=None,
                 jobs=None, timeout=None, shard_cells=None,
                 queue_limit=64, metrics=None, resilience=None):
        self.store = store if store is not None else ResultStore()
        self.state_dir = state_dir or "campaigns"
        self.checkpoint_dir = checkpoint_dir or "checkpoints"
        self.jobs = jobs
        self.timeout = timeout
        self.shard_cells = shard_cells or max(1, job_count(jobs)) * 2
        self.pool = WorkerPool(jobs)
        # the callback holds the pool, never the scheduler
        self._reap = weakref.finalize(self, self.pool.close)
        self.metrics = metrics if metrics is not None \
            else MetricsRegistry()
        #: Optional :class:`~repro.service.resilience.
        #: ResilienceSupervisor`; None keeps the PR 8 semantics
        #: (classify once, fail fast, no retries) byte-for-byte.
        self.resilience = resilience
        if resilience is not None and resilience.metrics is None:
            resilience.metrics = self.metrics
        self.queue_limit = queue_limit
        # created lazily inside a running loop (see _live_queue): a
        # queue built here would bind whatever loop exists at
        # construction time, not the one submit/run_pending run under
        self._queue = None
        self._queue_loop = None
        self._seq = 0
        #: jobs a full-queue submit drained inline, not yet reported
        #: through run_pending
        self._drained = []

    def close(self):
        """Shut the worker pool down and reap its workers."""
        self._reap.detach()
        self.pool.close()

    def _live_queue(self):
        """The submission queue, created in the running event loop.

        Re-created (when drained empty) if the scheduler is reused
        under a different loop — e.g. one service driving several
        ``asyncio.run`` calls — so no queue ever carries state bound
        to a dead loop.
        """
        loop = asyncio.get_running_loop()
        if self._queue is None \
                or (self._queue_loop is not loop
                    and self._queue.empty()):
            self._queue = asyncio.PriorityQueue(
                maxsize=self.queue_limit)
            self._queue_loop = loop
        return self._queue

    # ------------------------------------------------------------------
    # submission
    # ------------------------------------------------------------------
    def make_job(self, campaign_id, spec):
        """Build the :class:`CampaignJob` for ``spec``."""
        path = os.path.join(self.state_dir, f"{campaign_id}.json")
        return CampaignJob(campaign_id, spec, path)

    async def submit(self, job):
        """Enqueue a job; a full queue drains inline (backpressure).

        Ordering is (priority, submission sequence): lower priority
        values run sooner, ties run in submission order.  There is no
        consumer task running concurrently with submission, so a
        blocking put on a full queue would deadlock — instead the
        submitter runs the highest-priority queued job to completion
        to free a slot, and that latency is the backpressure.
        """
        if self.resilience is not None:
            return await self._submit_supervised(job)
        queue = self._live_queue()
        self._seq += 1
        # a resubmitted campaign id keeps its prior per-cell progress;
        # without this, writing the pending state below would clobber
        # the very state file the resume path reads
        job.load_state()
        job.status = PENDING
        job.log.emit("campaign_submitted", cells=len(job.spec.cells()),
                     priority=job.spec.priority)
        job.write_state()
        item = (job.spec.priority, self._seq, job)
        while True:
            try:
                queue.put_nowait(item)
                break
            except asyncio.QueueFull:
                self.metrics.counter("campaign.backpressure").inc()
                drained = await self.run_next()
                if drained is not None:
                    self._drained.append(drained)
        self.metrics.gauge("campaign.queue_depth").set(queue.qsize())
        return job

    async def _submit_supervised(self, job):
        """Supervised submission: tenant quotas + weighted queues.

        A fresh submission supersedes any parked retry of the same
        campaign id.  Both the global ``queue_limit`` and the tenant's
        ``tenant_max_queued`` quota apply; either being full makes the
        submitter drain inline — and a *quota*-full tenant drains its
        own queue first (``prefer_tenant``), so one flooding tenant
        pays its own backpressure instead of evicting other tenants'
        queued work.
        """
        sup = self.resilience
        sup.cancel_retry(job.id)
        self._seq += 1
        job.load_state()
        job.status = PENDING
        job.log.emit("campaign_submitted", cells=len(job.spec.cells()),
                     priority=job.spec.priority)
        job.write_state()
        tenant = getattr(job.spec, "tenant", "") or ""
        self.metrics.counter("service.tenant.submitted",
                             tenant=tenant or "default").inc()
        while sup.queues.total() >= self.queue_limit \
                or sup.queues.count(tenant) \
                >= sup.policy.tenant_max_queued:
            over_quota = sup.queues.count(tenant) \
                >= sup.policy.tenant_max_queued
            self.metrics.counter("campaign.backpressure").inc()
            if over_quota:
                self.metrics.counter(
                    "service.tenant.backpressure",
                    tenant=tenant or "default").inc()
            drained = await self.run_next(
                prefer_tenant=tenant if over_quota else None)
            if drained is None:
                break
            if drained.status != RETRYING:
                self._drained.append(drained)
        sup.queues.push(tenant, (job.spec.priority, self._seq, job))
        self.metrics.gauge("campaign.queue_depth").set(
            sup.queues.total())
        return job

    # ------------------------------------------------------------------
    # execution
    # ------------------------------------------------------------------
    async def run_next(self, prefer_tenant=None):
        """Run the highest-priority queued job; None when queue empty.

        Under supervision the pop comes from the weighted tenant
        queues, and ``prefer_tenant`` forces a specific tenant's queue
        (the quota-backpressure path).  Without a supervisor the
        argument is accepted and ignored.
        """
        if self.resilience is not None:
            item = self.resilience.queues.pop(prefer=prefer_tenant)
            if item is None:
                return None
            _, _, job = item
            self.metrics.gauge("campaign.queue_depth").set(
                self.resilience.queues.total())
            await self.run_job(job)
            return job
        queue = self._live_queue()
        if queue.empty():
            return None
        _, _, job = queue.get_nowait()
        self.metrics.gauge("campaign.queue_depth").set(queue.qsize())
        await self.run_job(job)
        return job

    async def run_pending(self):
        """Drain the queue: run every submitted job to completion.

        Returns every job finished since the previous call — including
        jobs a full-queue ``submit`` already drained inline, so
        callers like ``serve(once=True)`` report the complete set.
        Under supervision, parked retries are then un-parked in due-
        round order and re-run until every campaign is terminal (the
        backoff clock fast-forwards; an idle scheduler never sleeps),
        and the supervision record is flushed before returning.
        """
        done, self._drained = self._drained, []
        while True:
            job = await self.run_next()
            if job is None:
                if self.resilience is not None:
                    retry = self.resilience.next_retry_job()
                    if retry is not None:
                        await self.run_job(retry)
                        if retry.status != RETRYING:
                            done.append(retry)
                        continue
                    self.resilience.save_state()
                return done
            if job.status != RETRYING:
                done.append(job)

    async def run_job(self, job):
        """Execute one campaign: cache lookups, sharded misses, state.

        Returns the finished job (status ``completed`` when every cell
        is harness-ok, ``failed`` otherwise — with the per-cell
        ok/failed/timeout/retried classification carried in the state).
        """
        metrics = self.metrics
        job.load_state()  # no-op for new campaigns, resume for crashed
        job.status = RUNNING
        job.log.emit("campaign_started")
        self.metrics.gauge("campaign.active").add(1)

        cells = job.spec.cells()
        digests = [cell_digest(cell) for cell in cells]
        metrics.counter("campaign.cells_total").inc(len(cells))

        sup = self.resilience
        pending, seen, hits_now = [], set(), 0
        quarantined_now, deferred_now = 0, 0
        for cell, digest in zip(cells, digests):
            if digest in seen:
                continue  # duplicate axes derive one cell, once
            seen.add(digest)
            prior = job.cells.get(digest)
            if prior is not None and prior["status"] == CELL_OK:
                continue  # already finished in a previous attempt
            if sup is not None and sup.is_quarantined(digest):
                job.cells[digest] = {
                    "cell": cell, "status": CELL_QUARANTINED,
                    "source": SOURCE_QUARANTINE, "retried": False,
                    "error": "digest quarantined (release to re-run)"}
                metrics.counter("service.quarantine.skipped").inc()
                quarantined_now += 1
                continue
            if sup is not None and not sup.eligible(job.id, digest):
                deferred_now += 1
                continue  # backoff not elapsed; prior entry stands
            payload = self.store.get(digest)
            if payload is not None:
                job.cells[digest] = {
                    "cell": cell, "status": payload["status"],
                    "source": SOURCE_CACHE, "retried": False,
                    "error": payload.get("error", "")}
                metrics.counter("campaign.cache_hits").inc()
                hits_now += 1
            else:
                pending.append((cell, digest))
        if hits_now:
            job.log.emit("cache_hits", hits=hits_now)
        if quarantined_now:
            job.log.emit("quarantine_skipped", cells=quarantined_now)
        if deferred_now:
            job.log.emit("cells_deferred", cells=deferred_now)
        job.write_state()

        for base in range(0, len(pending), self.shard_cells):
            shard = pending[base:base + self.shard_cells]
            if sup is not None:
                shard_timeout, watchdog = sup.shard_timeout(
                    [digest for _, digest in shard], self.timeout)
            else:
                shard_timeout, watchdog = self.timeout, False
            records = await asyncio.to_thread(
                run_checkpointed, [cell for cell, _ in shard],
                f"campaign-{job.id}", jobs=self.jobs,
                timeout=shard_timeout, out_dir=self.checkpoint_dir,
                fallback_fresh=True, pool=self.pool)
            for (cell, digest), record in zip(shard, records):
                source = (SOURCE_CHECKPOINT if record.from_checkpoint
                          else SOURCE_EXECUTED)
                status, error = record.status, record.error
                if watchdog and status == CELL_TIMEOUT:
                    status = CELL_HUNG
                    error = f"watchdog: {error}"
                    metrics.counter("service.hung").inc()
                if record.status == CELL_OK:
                    self.store.put(cell, record.status,
                                   record.summary, record.error)
                    if sup is not None \
                            and not record.from_checkpoint:
                        sup.record_success(digest, record.elapsed)
                if sup is not None and not record.from_checkpoint:
                    status = sup.classify_record(
                        job, digest, cell, status, record.retried,
                        error)
                job.cells[digest] = {
                    "cell": cell, "status": status,
                    "source": source, "retried": record.retried,
                    "error": error}
                if status == CELL_OK:
                    metrics.counter("campaign.cells_ok").inc()
                else:
                    metrics.counter("campaign.cells_" + status).inc()
                if record.retried:
                    metrics.counter("campaign.cells_retried").inc()
            metrics.counter("campaign.shards").inc()
            metrics.histogram("campaign.shard_cells").observe(
                len(shard))
            job.log.emit("shard_done", shard=base // self.shard_cells,
                         cells=len(shard))
            job.write_state()

        counts = job.counts()
        metrics.counter("campaign.executed").inc(counts["executed"])
        if sup is not None:
            job.status = sup.finish(job)
        else:
            job.status = COMPLETED if counts["ok"] == counts["total"] \
                else FAILED
        if job.status == RETRYING:
            open_cells = sum(
                1 for entry in job.cells.values()
                if entry["status"] not in (CELL_OK, CELL_QUARANTINED))
            job.log.emit("campaign_parked", open_cells=open_cells)
        else:
            job.log.emit("campaign_done", status=job.status,
                         cache_hits=counts["cache_hits"],
                         executed=counts["executed"],
                         failed=counts["failed"],
                         timeout=counts[CELL_TIMEOUT])
        job.write_state()
        if job.status == COMPLETED:
            # fully absorbed into the store + state; drop the grid
            # checkpoint so results/checkpoints/ doesn't grow unbounded
            path = checkpoint_path(f"campaign-{job.id}",
                                   out_dir=self.checkpoint_dir)
            if os.path.exists(path):
                os.remove(path)
        metrics.counter("campaign.jobs_" + job.status).inc()
        self.metrics.gauge("campaign.active").add(-1)
        return job
