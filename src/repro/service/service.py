"""The campaign service: spool directories, restart resume, serving.

:class:`CampaignService` glues the pieces into one long-running
process.  Everything it knows lives under one *service root* (default
``results/service/``), which is also the client protocol — submission
and status travel through the filesystem, so campaigns survive both
service and client restarts::

    <root>/inbox/<id>.json        client-submitted campaign specs
    <root>/campaigns/<id>.json    per-campaign state (repro-campaign/1)
    <root>/checkpoints/           grid checkpoints for in-flight shards
    <root>/store/                 content-addressed cell results

``serve`` polls the inbox, enqueues new specs, and drains the
scheduler; ``serve(once=True)`` processes everything currently
submitted and returns (the CI smoke mode).  On startup the service
re-enqueues every campaign whose state file says it never finished, so
a killed service picks up exactly where its checkpoints left off.
"""

import asyncio
import itertools
import os

from repro.eval.report import results_dir
from repro.service.arrival import make_arrival
from repro.service.resilience import (RETRYING, ResiliencePolicy,
                                      ResilienceSupervisor)
from repro.service.scheduler import (CAMPAIGN_FORMAT, COMPLETED,
                                     FAILED, PENDING, RUNNING,
                                     CampaignScheduler)
from repro.service.spec import CampaignSpec
from repro.service.store import ResultStore, cell_digest

__all__ = ["CampaignService", "CAMPAIGN_FORMAT"]

#: Per-process sequence for reservation temp names — unique even when
#: two reservations overlap in one process (``id()`` can be reused).
_RESERVE_SEQ = itertools.count(1)


class CampaignService:
    """A file-rooted campaign service instance.

    ``root`` defaults under ``results/`` (``REPRO_RESULTS_DIR`` aware);
    tests point it at a tmpdir.  ``jobs``/``timeout`` forward to the
    hardened grid pool per shard.  The scheduler's worker pool lives as
    long as the service; :meth:`close` (or leaving a ``with`` block)
    reaps its workers.
    """

    def __init__(self, root=None, jobs=None, timeout=None,
                 shard_cells=None, queue_limit=64, metrics=None,
                 resilience=None):
        self.root = root or os.path.join(results_dir(), "service")
        self.inbox_dir = os.path.join(self.root, "inbox")
        self.campaigns_dir = os.path.join(self.root, "campaigns")
        self.store = ResultStore(os.path.join(self.root, "store"))
        #: Optional supervision layer.  ``resilience`` accepts a
        #: :class:`~repro.service.resilience.ResiliencePolicy` (custom
        #: knobs) or any truthy value (default policy); falsy keeps
        #: the PR 8 fail-fast semantics.  The supervisor's state lives
        #: under the service root, so a restarted service resumes
        #: retry counts and the quarantine set.
        self.resilience = None
        if resilience:
            policy = resilience if isinstance(
                resilience, ResiliencePolicy) else None
            self.resilience = ResilienceSupervisor(
                self.root, policy=policy)
        self.scheduler = CampaignScheduler(
            store=self.store, state_dir=self.campaigns_dir,
            checkpoint_dir=os.path.join(self.root, "checkpoints"),
            jobs=jobs, timeout=timeout, shard_cells=shard_cells,
            queue_limit=queue_limit, metrics=metrics,
            resilience=self.resilience)
        for directory in (self.inbox_dir, self.campaigns_dir):
            os.makedirs(directory, exist_ok=True)

    def close(self):
        """Reap the scheduler's pool workers."""
        self.scheduler.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        self.close()

    # ------------------------------------------------------------------
    # identity
    # ------------------------------------------------------------------
    def _campaign_id_taken(self, campaign_id):
        """Whether any artifact already claims ``campaign_id``."""
        paths = (
            os.path.join(self.campaigns_dir, f"{campaign_id}.json"),
            os.path.join(self.inbox_dir, f"{campaign_id}.json"),
            os.path.join(self.inbox_dir,
                         f"{campaign_id}.json.accepted"),
            os.path.join(self.inbox_dir,
                         f"{campaign_id}.json.rejected"))
        return any(os.path.exists(path) for path in paths)

    def new_campaign_id(self, spec):
        """A fresh campaign id: spec name/digest plus a run ordinal.

        Resubmitting an identical spec gets a *new* campaign (that's
        the point — it completes from cache), so the ordinal suffix
        disambiguates repeats.  This is a check, not a reservation —
        concurrent clients racing on the same spec must go through
        :meth:`reserve_campaign_id`, which claims the id atomically.
        """
        stem = f"{spec.name or spec.kind}-{spec.digest()}"
        ordinal = 1
        while True:
            campaign_id = f"{stem}-{ordinal}"
            if not self._campaign_id_taken(campaign_id):
                return campaign_id
            ordinal += 1

    def reserve_campaign_id(self, spec, campaign_id=None):
        """Atomically claim an inbox file for ``spec``; returns the id.

        The spec is written to a private temp file and hard-linked to
        its inbox name — ``link(2)`` fails instead of overwriting when
        the name already exists, so two clients racing on the same
        spec digest end up with distinct ordinals and neither
        submission is silently lost.  With an explicit ``campaign_id``
        an existing submission under that id raises
        ``FileExistsError`` rather than clobbering it.
        """
        os.makedirs(self.inbox_dir, exist_ok=True)
        tmp = os.path.join(
            self.inbox_dir,
            f".reserve-{os.getpid()}-{next(_RESERVE_SEQ)}.tmp")
        spec.save(tmp)
        try:
            if campaign_id is not None:
                os.link(tmp, os.path.join(self.inbox_dir,
                                          f"{campaign_id}.json"))
                return campaign_id
            stem = f"{spec.name or spec.kind}-{spec.digest()}"
            ordinal = 1
            while True:
                campaign_id = f"{stem}-{ordinal}"
                ordinal += 1
                if self._campaign_id_taken(campaign_id):
                    continue
                try:
                    os.link(tmp, os.path.join(
                        self.inbox_dir, f"{campaign_id}.json"))
                    return campaign_id
                except FileExistsError:
                    continue  # another client won this ordinal
        finally:
            os.unlink(tmp)

    # ------------------------------------------------------------------
    # submission
    # ------------------------------------------------------------------
    async def submit(self, spec, campaign_id=None):
        """Validate and enqueue one campaign; returns its job."""
        campaign_id = campaign_id or self.new_campaign_id(spec)
        job = self.scheduler.make_job(campaign_id, spec)
        await self.scheduler.submit(job)
        return job

    def run_spec(self, spec, campaign_id=None):
        """Submit + drain synchronously; returns the finished job.

        The inline convenience path (tests, ``submit --run``): no
        separate server process, same scheduler/store dataflow.
        """
        async def _run():
            job = await self.submit(spec, campaign_id=campaign_id)
            await self.scheduler.run_pending()
            return job
        return asyncio.run(_run())

    async def submit_stream(self, spec, count, time_scale=1.0):
        """Submit ``count`` copies of ``spec`` under its arrival model.

        The spec's ``arrival`` field picks the process (default
        closed-loop with zero think time).  ``time_scale`` multiplies
        every inter-arrival gap — ``0.0`` collapses the model to
        as-fast-as-possible, which is what deterministic tests want.
        Closed-loop arrivals additionally gate each submission on the
        previous campaign's completion.  Returns the finished jobs.
        """
        arrival = make_arrival(spec.arrival
                               or {"process": "closed"})
        jobs, gaps = [], arrival.gaps()
        for index in range(count):
            gap = next(gaps) * time_scale
            if gap > 0:
                await asyncio.sleep(gap)
            job = await self.submit(spec)
            if arrival.closed:
                await self.scheduler.run_pending()
            jobs.append(job)
        await self.scheduler.run_pending()
        return jobs

    # ------------------------------------------------------------------
    # inbox protocol
    # ------------------------------------------------------------------
    async def poll_inbox(self):
        """Accept every spec file waiting in the inbox.

        A spec file ``<id>.json`` becomes campaign ``<id>``; accepted
        files are renamed to ``.accepted`` so a crashed service never
        double-enqueues, and malformed specs are renamed to
        ``.rejected`` with the campaign left unscheduled.
        """
        accepted = []
        for fname in sorted(os.listdir(self.inbox_dir)):
            if not fname.endswith(".json"):
                continue
            path = os.path.join(self.inbox_dir, fname)
            campaign_id = fname[:-len(".json")]
            try:
                spec = CampaignSpec.load(path)
            except Exception:  # noqa: BLE001 - tenant input boundary
                os.replace(path, path + ".rejected")
                continue
            os.replace(path, path + ".accepted")
            accepted.append(await self.submit(spec,
                                              campaign_id=campaign_id))
        return accepted

    def incomplete_campaigns(self):
        """Ids of campaigns whose state never reached a terminal
        status (service died mid-run)."""
        out = []
        for fname in sorted(os.listdir(self.campaigns_dir)):
            if not fname.endswith(".json"):
                continue
            state = self.status(fname[:-len(".json")])
            if state and state.get("status") in (PENDING, RUNNING,
                                                 RETRYING):
                out.append(state["id"])
        return out

    async def resume_incomplete(self):
        """Re-enqueue every interrupted campaign (restart recovery).

        Finished cells restore from the campaign state and the grid
        checkpoint; only unfinished cells re-execute.
        """
        jobs = []
        for campaign_id in self.incomplete_campaigns():
            state = self.status(campaign_id)
            spec = CampaignSpec.from_dict(state["spec"])
            job = self.scheduler.make_job(campaign_id, spec)
            await self.scheduler.submit(job)
            jobs.append(job)
        return jobs

    async def serve(self, once=False, poll=0.2, drain=False):
        """The service loop: resume, poll inbox, drain, repeat.

        ``once=True`` processes everything currently waiting and
        returns the finished jobs (CI smoke / tests).  ``drain=True``
        is graceful shutdown: no new inbox work is accepted —
        interrupted campaigns resume, parked retries run until every
        campaign is terminal, and the supervision record is flushed
        before returning.  Otherwise loop forever, sleeping ``poll``
        seconds between empty polls.
        """
        done = []
        await self.resume_incomplete()
        if drain:
            done.extend(await self.scheduler.run_pending())
            if self.resilience is not None:
                self.resilience.save_state()
            return done
        while True:
            await self.poll_inbox()
            done.extend(await self.scheduler.run_pending())
            if once:
                return done
            await asyncio.sleep(poll)

    # ------------------------------------------------------------------
    # query
    # ------------------------------------------------------------------
    def status(self, campaign_id):
        """The campaign's state document, or None when unknown."""
        import json
        path = os.path.join(self.campaigns_dir, f"{campaign_id}.json")
        try:
            with open(path) as fh:
                data = json.load(fh)
        except (OSError, ValueError):
            return None
        if not isinstance(data, dict) \
                or data.get("format") != CAMPAIGN_FORMAT:
            return None
        return data

    def results(self, campaign_id):
        """Per-cell results for a campaign, in spec cell order.

        Each item carries the cell kwargs, its digest, the harness
        classification from the campaign state, and the cached result
        payload (None for cells that never completed).
        """
        state = self.status(campaign_id)
        if state is None:
            return None
        spec = CampaignSpec.from_dict(state["spec"])
        out, seen = [], set()
        for cell in spec.cells():
            digest = cell_digest(cell)
            if digest in seen:
                continue
            seen.add(digest)
            entry = state["cells"].get(digest, {})
            out.append({"cell": cell, "digest": digest,
                        "status": entry.get("status", "missing"),
                        "source": entry.get("source"),
                        "retried": entry.get("retried", False),
                        "error": entry.get("error", ""),
                        "result": self.store.get(digest)})
        return out

    def metrics_snapshot(self):
        """The scheduler's metrics registry snapshot (JSON-ready)."""
        return self.scheduler.metrics.snapshot()


#: Terminal campaign statuses (query helpers/tests import these).
TERMINAL = (COMPLETED, FAILED)
