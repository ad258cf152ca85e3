"""Service resilience: retry budgets, quarantine, quotas, supervision.

PR 8's scheduler classifies a cell's failure exactly once and moves
on.  This module is the supervision layer that sits between the
:class:`~repro.service.scheduler.CampaignScheduler` and the hardened
grid and turns those classifications into *recovery*:

- **Retry budgets** — a failed/timed-out cell re-enters a
  deterministic retry queue with exponential backoff measured in
  scheduler *drain rounds* (a logical clock, not wall-time) plus
  seeded jitter (``random.Random(f"{campaign_id}:{digest}")``), capped
  per cell and per campaign.  Determinism is what makes aggressive
  retrying safe here: a replayed cell is bit-identical, so a retry can
  only turn a transient harness failure into the one true result.
- **Poison-cell quarantine** — a cell that exhausts its budget, or
  whose worker crashes (``BrokenProcessPool``) ``crash_threshold``
  times, moves to a persisted ``repro-quarantine/1`` artifact keyed by
  cell digest.  Quarantined digests are skipped (classified
  ``quarantined``, never cached) until released through the
  ``quarantine`` CLI subcommand.
- **Tenant quotas + weighted fairness** — per-tenant queue caps and a
  deterministic weighted round-robin drain so one flooding tenant
  cannot starve the queue.
- **Crash-safe supervision** — retry/quarantine/tenant state persists
  atomically as a ``repro-service-state/1`` record, so a restarted
  service *resumes* retry counts instead of resetting them; a
  watchdog classifies shards exceeding ``hung_multiplier`` times their
  historical wall-clock as ``hung`` and preempts them into the retry
  path.

The supervision artifact deliberately contains only *deterministic*
state (attempt counts for unfinished cells, the quarantine set, tenant
completion totals).  Operational state that legitimately varies with
the host — wall-clock timing history, worker-crash evidence (pooled
execution retries a crashed worker's cells serially, serial execution
never sees the crash), the drain-round clock — lives in a separate
*health* sidecar.  Note the one behavioral asymmetry this implies:
with ``crash_threshold < max_attempts`` a repeat-crasher quarantines
one attempt earlier under pooled execution than serial; configurations
that need attempt counts identical across ``REPRO_JOBS`` (the
``resilience-chaos`` gate) set ``crash_threshold >= max_attempts``.
"""

import heapq
import json
import os
import random
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from repro.eval.parallel import CELL_OK

#: Versioned quarantine-entry format tag.
QUARANTINE_FORMAT = "repro-quarantine/1"

#: Versioned supervision-state format tag.
SERVICE_STATE_FORMAT = "repro-service-state/1"

#: Cell classification for digests held in quarantine.
CELL_QUARANTINED = "quarantined"

#: Cell classification for watchdog-preempted shards.
CELL_HUNG = "hung"

#: Cell-entry source for quarantine skips (neither cache nor pool).
SOURCE_QUARANTINE = "quarantine"

#: Campaign status while retries are scheduled but not yet due.  A
#: string on purpose: it joins the scheduler's ``pending``/``running``/
#: ``completed``/``failed`` vocabulary without importing the scheduler
#: (which imports this module).
RETRYING = "retrying"


@dataclass
class ResiliencePolicy:
    """Knobs for the retry/quarantine/quota state machine.

    Backoff for a cell's ``n``-th failed attempt is
    ``backoff_base * backoff_factor**(n-1)`` drain rounds (capped at
    ``max_backoff_rounds``) plus a seeded jitter draw in
    ``[0, jitter_rounds]``.
    """

    #: Per-cell attempt budget (first run included).
    max_attempts: int = 3
    #: Per-campaign cap on retry re-runs (drain-round re-entries).
    max_campaign_retries: int = 8
    backoff_base: int = 1
    backoff_factor: int = 2
    max_backoff_rounds: int = 8
    jitter_rounds: int = 2
    #: Worker crashes (pool-broken serial retries that still fail)
    #: before a cell quarantines early.
    crash_threshold: int = 2
    #: A shard exceeding ``hung_multiplier`` x its cells' historical
    #: wall-clock is preempted and classified ``hung``.
    hung_multiplier: float = 4.0
    #: Floor for the watchdog budget (seconds) so sub-millisecond
    #: history never produces an unmeetable bound.
    min_watchdog_seconds: float = 0.5
    #: Per-tenant queued-campaign cap (quota backpressure).
    tenant_max_queued: int = 8
    #: Weighted round-robin drain shares; unlisted tenants weigh 1.
    tenant_weights: Dict[str, int] = field(default_factory=dict)

    def weight(self, tenant: str) -> int:
        """The (>=1) drain weight for ``tenant``."""
        return max(1, int(self.tenant_weights.get(tenant, 1)))

    def backoff_rounds(self, attempt: int) -> int:
        """Deterministic backoff (drain rounds) after attempt ``n``."""
        rounds = self.backoff_base \
            * self.backoff_factor ** max(0, attempt - 1)
        return max(1, min(int(rounds), self.max_backoff_rounds))

    def jitter(self, campaign_id: str, digest: str,
               attempt: int) -> int:
        """Seeded jitter draw for the cell's ``attempt``-th failure.

        The RNG is seeded exactly as the retry queue's contract
        states — ``random.Random(f"{campaign_id}:{digest}")`` — and
        advanced once per attempt, so every (campaign, cell, attempt)
        triple maps to one reproducible jitter value.
        """
        rng = random.Random(f"{campaign_id}:{digest}")
        value = 0
        for _ in range(max(1, attempt)):
            value = rng.randrange(self.jitter_rounds + 1)
        return value


def _write_json(path: str, data: Dict[str, Any]) -> str:
    """Atomically (tmp + rename) write ``data`` as JSON; returns path."""
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    tmp = path + ".tmp"
    with open(tmp, "w") as fh:
        json.dump(data, fh, indent=1, sort_keys=True)
        fh.write("\n")
    os.replace(tmp, path)
    return path


class Quarantine:
    """Persisted poison-cell registry keyed by cell digest.

    One ``repro-quarantine/1`` JSON file per digest under ``root``;
    entries carry the failing cell's replay kwargs so the ``run`` CLI
    can reproduce the failure, and survive service restarts until
    explicitly released.
    """

    def __init__(self, root: str) -> None:
        self.root = root

    def path(self, digest: str) -> str:
        """Where the entry for ``digest`` lives."""
        return os.path.join(self.root, f"{digest}.json")

    def add(self, digest: str, cell: Dict[str, Any], campaign_id: str,
            attempts: int, reason: str, error: str = "") -> str:
        """Persist one poison cell; returns the entry path."""
        entry = {"format": QUARANTINE_FORMAT, "digest": digest,
                 "campaign": campaign_id, "cell": dict(cell),
                 "attempts": attempts, "reason": reason,
                 "error": error}
        return _write_json(self.path(digest), entry)

    def get(self, digest: str) -> Optional[Dict[str, Any]]:
        """The quarantine entry for ``digest``, or None."""
        try:
            with open(self.path(digest)) as fh:
                data = json.load(fh)
        except (OSError, json.JSONDecodeError):
            return None
        if not isinstance(data, dict) \
                or data.get("format") != QUARANTINE_FORMAT:
            return None
        return data

    def contains(self, digest: str) -> bool:
        """Whether ``digest`` is currently quarantined."""
        return self.get(digest) is not None

    def digests(self) -> List[str]:
        """Every quarantined digest, sorted."""
        if not os.path.isdir(self.root):
            return []
        return sorted(name[:-len(".json")]
                      for name in os.listdir(self.root)
                      if name.endswith(".json"))

    def release(self, digest: str) -> bool:
        """Drop ``digest`` from quarantine; False when unknown."""
        try:
            os.remove(self.path(digest))
        except OSError:
            return False
        return True


class TenantQueues:
    """Deterministic weighted-round-robin queues, one per tenant.

    Items are the scheduler's ``(priority, seq, job)`` tuples, kept in
    a per-tenant heap so priority ordering holds *within* a tenant
    while the weighted round-robin decides *between* tenants.  All
    iteration is over sorted tenant names, so the drain order is a
    pure function of the submission history.
    """

    def __init__(self, policy: ResiliencePolicy) -> None:
        self.policy = policy
        self._queues: Dict[str, List[Tuple[int, int, Any]]] = {}
        self._credits: Dict[str, int] = {}
        self._last: str = ""

    def push(self, tenant: str, item: Tuple[int, int, Any]) -> None:
        """Enqueue one item under ``tenant``."""
        heapq.heappush(self._queues.setdefault(tenant, []), item)

    def count(self, tenant: str) -> int:
        """Queued items for ``tenant``."""
        return len(self._queues.get(tenant, ()))

    def total(self) -> int:
        """Queued items across every tenant."""
        return sum(len(q) for q in self._queues.values())

    def tenants(self) -> List[str]:
        """Tenants with at least one queued item, sorted."""
        return sorted(t for t, q in self._queues.items() if q)

    def pop(self, prefer: Optional[str] = None) \
            -> Optional[Tuple[int, int, Any]]:
        """Dequeue the next item under weighted round-robin.

        ``prefer`` forces a specific tenant's queue (the quota
        backpressure path: a flooding tenant drains its *own* work).
        Returns None when everything is empty.
        """
        if prefer is not None and self.count(prefer):
            return heapq.heappop(self._queues[prefer])
        names = self.tenants()
        if not names:
            return None
        if all(self._credits.get(t, 0) <= 0 for t in names):
            for name in names:
                self._credits[name] = self.policy.weight(name)
        # rotate: resume just past the last-served tenant so equal
        # weights interleave instead of draining alphabetically
        after = [t for t in names if t > self._last]
        ordered = after + [t for t in names if t <= self._last]
        chosen = next((t for t in ordered
                       if self._credits.get(t, 0) > 0), ordered[0])
        self._credits[chosen] = self._credits.get(chosen, 0) - 1
        self._last = chosen
        return heapq.heappop(self._queues[chosen])


class ResilienceSupervisor:
    """The retry/quarantine/quota state machine for one service root.

    The scheduler consults it per cell (quarantine skip, retry
    eligibility, watchdog shard budget), reports every executed
    attempt back, and asks it to decide each campaign's post-drain
    status.  State persists as two files under ``root``:

    - ``service-state.json`` — the deterministic
      ``repro-service-state/1`` supervision record (attempt counts for
      unfinished cells, quarantine set, tenant completion totals);
    - ``service-health.json`` — host-dependent operational state (the
      drain-round clock, per-digest wall-clock history, crash
      evidence, per-campaign retry totals).
    """

    def __init__(self, root: str,
                 policy: Optional[ResiliencePolicy] = None,
                 metrics: Any = None) -> None:
        self.root = root
        self.policy = policy or ResiliencePolicy()
        self.metrics = metrics
        self.quarantine = Quarantine(os.path.join(root, "quarantine"))
        self.state_path = os.path.join(root, "service-state.json")
        self.health_path = os.path.join(root, "service-health.json")
        #: Logical drain-round clock for retry backoff.
        self.round = 0
        #: campaign id -> {digest: executed attempts}.
        self.attempts: Dict[str, Dict[str, int]] = {}
        #: campaign id -> {digest: worker-crash evidence}.
        self.crashes: Dict[str, Dict[str, int]] = {}
        #: campaign id -> {digest: earliest eligible retry round}.
        self.next_round: Dict[str, Dict[str, int]] = {}
        #: campaign id -> retry re-entries consumed.
        self.campaign_retries: Dict[str, int] = {}
        #: tenant -> {"completed": n, "failed": n}.
        self.tenant_stats: Dict[str, Dict[str, int]] = {}
        #: digest -> max observed wall-clock seconds (watchdog input).
        self.timings: Dict[str, float] = {}
        self.queues = TenantQueues(self.policy)
        #: campaign id -> (due round, job) awaiting its retry round.
        self._retry_jobs: Dict[str, Tuple[int, Any]] = {}
        self.load_state()

    # ------------------------------------------------------------------
    # cell-level hooks
    # ------------------------------------------------------------------
    def is_quarantined(self, digest: str) -> bool:
        """Whether ``digest`` must be skipped (held in quarantine)."""
        return self.quarantine.contains(digest)

    def eligible(self, campaign_id: str, digest: str) -> bool:
        """Whether the cell's backoff has elapsed (drain rounds)."""
        due = self.next_round.get(campaign_id, {}).get(digest)
        return due is None or self.round >= due

    def attempt_count(self, campaign_id: str, digest: str) -> int:
        """Executed attempts recorded for (campaign, cell)."""
        return self.attempts.get(campaign_id, {}).get(digest, 0)

    def shard_timeout(self, digests: List[str],
                      default: Optional[float]) \
            -> Tuple[Optional[float], bool]:
        """The watchdog budget for one shard: ``(timeout, engaged)``.

        Engages only when *every* cell in the shard has wall-clock
        history and the resulting ``hung_multiplier x max(history)``
        bound tightens the configured timeout; otherwise the default
        passes through untouched.
        """
        history = [self.timings.get(d) for d in digests]
        if not history or any(h is None for h in history):
            return default, False
        bound = max(self.policy.min_watchdog_seconds,
                    self.policy.hung_multiplier
                    * max(h for h in history if h is not None))
        if default is not None and default <= bound:
            return default, False
        return bound, True

    def record_success(self, digest: str, elapsed: float) -> None:
        """Fold one successful cell's wall-clock into the history."""
        if elapsed > 0:
            self.timings[digest] = max(self.timings.get(digest, 0.0),
                                       elapsed)

    def classify_record(self, job: Any, digest: str,
                        cell: Dict[str, Any], status: str,
                        retried: bool, error: str = "") -> str:
        """Account one executed attempt; returns the cell's status.

        Non-ok attempts either schedule a backoff retry (status passes
        through) or, when the budget is exhausted / the worker crashed
        ``crash_threshold`` times, quarantine the cell (status becomes
        ``quarantined`` and a ``repro-quarantine/1`` entry persists).
        Every attempt lands in the campaign's event log.
        """
        campaign_id = job.id
        per = self.attempts.setdefault(campaign_id, {})
        per[digest] = per.get(digest, 0) + 1
        attempt = per[digest]
        job.log.emit("cell_attempt", digest=digest[:12],
                     attempt=attempt, status=status)
        if status == CELL_OK:
            return status
        if retried and status != CELL_OK:
            crashes = self.crashes.setdefault(campaign_id, {})
            crashes[digest] = crashes.get(digest, 0) + 1
        crashed = self.crashes.get(campaign_id, {}).get(digest, 0)
        if attempt >= self.policy.max_attempts \
                or crashed >= self.policy.crash_threshold:
            if attempt >= self.policy.max_attempts:
                reason = (f"retry budget exhausted "
                          f"({attempt} attempts)")
            else:
                reason = f"worker crashed {crashed} times"
            # persist the attempt count before publishing the entry: a
            # crash between the two writes must not leave a quarantined
            # cell whose attempts were never recorded
            self.save_state()
            self.quarantine.add(digest, cell, campaign_id,
                                attempts=attempt, reason=reason,
                                error=error)
            if self.metrics is not None:
                self.metrics.counter("service.quarantined").inc()
            job.log.emit("cell_quarantined", digest=digest[:12],
                         attempts=attempt, reason=reason)
            self.save_state()
            return CELL_QUARANTINED
        delay = self.policy.backoff_rounds(attempt) \
            + self.policy.jitter(campaign_id, digest, attempt)
        due = self.round + delay
        self.next_round.setdefault(campaign_id, {})[digest] = due
        if self.metrics is not None:
            self.metrics.counter("service.retry").inc()
        job.log.emit("cell_retry", digest=digest[:12],
                     attempt=attempt, due_round=due)
        return status

    # ------------------------------------------------------------------
    # campaign-level hooks
    # ------------------------------------------------------------------
    def finish(self, job: Any) -> str:
        """Decide a drained campaign's status; schedules its retry.

        ``completed`` when every cell is ok or quarantined, ``failed``
        when retryable cells remain but the per-campaign retry cap is
        spent, ``retrying`` otherwise — with the job parked until the
        earliest of its cells' backoff rounds.
        """
        campaign_id = job.id
        retryable = [
            digest for digest, entry in job.cells.items()
            if entry["status"] not in (CELL_OK, CELL_QUARANTINED)]
        if not retryable:
            done = all(entry["status"] == CELL_OK
                       for entry in job.cells.values()) \
                or any(entry["status"] == CELL_QUARANTINED
                       for entry in job.cells.values())
            status = "completed" if done else "failed"
            self._finalize(job, status)
            return status
        if self.campaign_retries.get(campaign_id, 0) \
                >= self.policy.max_campaign_retries:
            job.log.emit("campaign_retry_cap", cells=len(retryable))
            self._finalize(job, "failed")
            return "failed"
        rounds = self.next_round.get(campaign_id, {})
        due = min(rounds.get(digest, self.round + 1)
                  for digest in retryable)
        self._retry_jobs[campaign_id] = (due, job)
        return RETRYING

    def _finalize(self, job: Any, status: str) -> None:
        """Terminal bookkeeping: tenant totals, pruned attempts."""
        tenant = getattr(job.spec, "tenant", "") or ""
        stats = self.tenant_stats.setdefault(
            tenant, {"completed": 0, "failed": 0})
        stats[status] = stats.get(status, 0) + 1
        per = self.attempts.get(job.id)
        if per is not None:
            for digest in list(per):
                entry = job.cells.get(digest)
                if entry is not None and entry["status"] == CELL_OK:
                    del per[digest]
            if not per:
                del self.attempts[job.id]
        self.next_round.pop(job.id, None)
        self._retry_jobs.pop(job.id, None)
        self.save_state()

    def cancel_retry(self, campaign_id: str) -> None:
        """Drop a parked retry (a fresh submission supersedes it)."""
        self._retry_jobs.pop(campaign_id, None)

    def has_retries(self) -> bool:
        """Whether any campaign is parked awaiting a retry round."""
        return bool(self._retry_jobs)

    def next_retry_job(self) -> Any:
        """Un-park the earliest-due retry, advancing the round clock.

        Returns None when nothing is parked.  Advancing ``round`` to
        the job's due round is what makes backoff a *logical* clock:
        an idle scheduler fast-forwards instead of sleeping.
        """
        if not self._retry_jobs:
            return None
        campaign_id = min(
            self._retry_jobs,
            key=lambda cid: (self._retry_jobs[cid][0], cid))
        due, job = self._retry_jobs.pop(campaign_id)
        self.round = max(self.round, due)
        self.campaign_retries[campaign_id] = \
            self.campaign_retries.get(campaign_id, 0) + 1
        job.log.emit("campaign_retry_round", round=self.round,
                     retries=self.campaign_retries[campaign_id])
        return job

    # ------------------------------------------------------------------
    # persistence
    # ------------------------------------------------------------------
    def snapshot(self) -> Dict[str, Any]:
        """The deterministic ``repro-service-state/1`` document."""
        campaigns = {
            cid: {"attempts": dict(sorted(per.items()))}
            for cid, per in sorted(self.attempts.items()) if per}
        return {"format": SERVICE_STATE_FORMAT,
                "campaigns": campaigns,
                "quarantined": self.quarantine.digests(),
                "tenants": {t: dict(sorted(s.items()))
                            for t, s in
                            sorted(self.tenant_stats.items())}}

    def save_state(self) -> str:
        """Atomically persist supervision + health state; returns the
        supervision artifact's path."""
        _write_json(self.health_path, {
            "round": self.round,
            "campaign_retries": dict(sorted(
                self.campaign_retries.items())),
            "crashes": {cid: dict(sorted(per.items()))
                        for cid, per in sorted(self.crashes.items())},
            "timings": dict(sorted(self.timings.items()))})
        return _write_json(self.state_path, self.snapshot())

    def load_state(self) -> bool:
        """Restore persisted supervision/health state (best-effort).

        Unreadable or wrong-format files are treated as a fresh start;
        the quarantine directory is authoritative on its own.
        """
        loaded = False
        try:
            with open(self.state_path) as fh:
                data = json.load(fh)
        except (OSError, json.JSONDecodeError):
            data = None
        if isinstance(data, dict) \
                and data.get("format") == SERVICE_STATE_FORMAT:
            self.attempts = {
                cid: dict(entry.get("attempts", {}))
                for cid, entry in data.get("campaigns", {}).items()}
            self.tenant_stats = {
                t: dict(s) for t, s in data.get("tenants", {}).items()}
            loaded = True
        try:
            with open(self.health_path) as fh:
                health = json.load(fh)
        except (OSError, json.JSONDecodeError):
            health = None
        if isinstance(health, dict):
            self.round = int(health.get("round", 0))
            self.campaign_retries = {
                str(k): int(v) for k, v in
                health.get("campaign_retries", {}).items()}
            self.crashes = {
                cid: {d: int(n) for d, n in per.items()}
                for cid, per in health.get("crashes", {}).items()}
            self.timings = {d: float(v) for d, v in
                            health.get("timings", {}).items()}
            loaded = True
        return loaded
