"""The campaign-stream workload: one closed-loop client with zero think
time submits small campaigns through ``CampaignService.run_spec``
(resilience on, the CLI default; two pool workers).

Each pass executes the same campaigns: one per (workload, system pair)
of a 10 x 6 grid pool, plus one two-seed ``fuzz`` campaign (the only
traffic that runs the engine's policy loop) and one two-seed ``chaos``
campaign (fault injection) per workload of their small pools.  Every
executing campaign has two new cells, so each runs through the pool.
Twice as many campaigns resubmit an earlier campaign of the pass, so
two thirds of all cells are served from the content-addressed store.
The seed drives the fuzz/chaos seeds and the order: which campaign
fills which slot of a fixed pattern of first submissions and
resubmissions.  The executed work and the slot pattern do not depend
on it, so runs under different seeds compare.  Every cell any seed can
produce is pinned.

A pass replays its campaigns against a fresh service root, which is
kept until the run ends (``run.py`` removes them all).  A run's first
pass is not timed: the first pass in a process also pays lazy imports.
Each later pass times every campaign from submit to completion and
scales it to nominal host speed (:class:`common.HostSpeed`).  Every
pass is checked after it ends, from a log of its store calls, so the
timed campaigns do no checking work.
"""

import contextlib
import os
import random
import time

import repro.service.scheduler
from repro.eval.parallel import CELL_OK
from repro.service import CampaignService, CampaignSpec
from repro.service.store import (ResultStore, cell_digest, payload_bytes,
                                 result_payload)

from common import (HostSpeed, fresh_dir, median, passes, patched,
                    percentile, sha256_json)
from layers import install_eval_layer, install_service_layer, layer_metrics

SCALE = 0.05
GRID_WORKLOADS = ("histogramfs", "lreg", "stringmatch", "leveldb-fs",
                  "spinlockpool", "shptr-relaxed", "kmeans", "canneal",
                  "dedup", "streamcluster")
GRID_SYSTEM_PAIRS = (("pthreads", "manual"), ("tmi-detect", "tmi-protect"),
                     ("sheriff-detect", "laser"))
GRID_SYSTEMS = tuple(s for pair in GRID_SYSTEM_PAIRS for s in pair)
FUZZ_WORKLOADS = ("histogramfs", "spinlockpool", "dedup", "kmeans")
CHAOS_WORKLOADS = ("histogramfs", "leveldb-fs", "stringmatch", "canneal")
FAULT_SEEDS = (0, 1, 2, 3)
#: resubmitted campaigns per executing campaign
REPEATS = 2


def make_specs(seed):
    """The pass's campaign list, a pure function of ``seed``."""
    rng = random.Random(seed)
    fresh = []
    for workload in GRID_WORKLOADS:
        for pair in GRID_SYSTEM_PAIRS:
            fresh.append(dict(workloads=[workload], systems=pair))
    for kind, workloads, system in (
            ("fuzz", FUZZ_WORKLOADS, "pthreads"),
            ("chaos", CHAOS_WORKLOADS, "tmi-protect")):
        for workload in workloads:
            fresh.append(dict(workloads=[workload], systems=[system],
                              kind=kind, seeds=rng.sample(FAULT_SEEDS, 2)))
    rng.shuffle(fresh)
    # The slots: each campaign is submitted at a time in [0, 1) and
    # resubmitted at uniform times after it.  The slot pattern is the
    # same for every seed, so that how large the service's state has
    # grown when each campaign arrives does not depend on the seed;
    # the seed decides which campaign fills which slot.
    slots = random.Random(0)
    events = []
    for index in range(len(fresh)):
        first = slots.random()
        events.append((first, index))
        events += [(slots.uniform(first, 1.0), index)
                   for _ in range(REPEATS)]
    events.sort()
    return [CampaignSpec(scale=SCALE, name=f"c{number:03d}",
                         **fresh[index])
            for number, (_, index) in enumerate(events)]


def pool_cells():
    """Every cell any seed's mix can produce (the pinned pool)."""
    specs = [CampaignSpec(workloads=GRID_WORKLOADS, systems=GRID_SYSTEMS,
                          scale=SCALE),
             CampaignSpec(workloads=FUZZ_WORKLOADS, systems=["pthreads"],
                          kind="fuzz", scale=SCALE, seeds=FAULT_SEEDS),
             CampaignSpec(workloads=CHAOS_WORKLOADS,
                          systems=["tmi-protect"], kind="chaos",
                          scale=SCALE, seeds=FAULT_SEEDS)]
    return [cell for spec in specs for cell in spec.cells()]


class StreamPass:
    def __init__(self):
        #: host seconds of each campaign, submit to completion, in
        #: submission order: scaled to nominal host speed / raw
        self.latencies = []
        self.raw_latencies = []
        self.campaigns = 0
        self.cells = 0
        self.served = 0
        self.fuzz_chaos = 0
        self.ops = 0
        self.contended_ops = 0
        self.wall = 0.0
        self.store_hits = 0
        self.retries = 0
        #: cell key -> payload sha for every cell executed this pass
        self.produced = {}
        self.failed = 0
        self.problems = []


class StreamWorkload:
    """Runs the campaign stream and checks every cell it returns."""

    def __init__(self, seed, pinned):
        self.specs = make_specs(seed)
        self.pinned = pinned
        self.tracer = None
        #: HostSpeed while timed passes run; None leaves times raw
        self.speed = None
        self._pass = None
        self._count = 0
        #: store calls of the running pass, checked when it ends
        self._store_log = None

    # ------------------------------------------------------------------
    # capture wrappers (parent process, always on): they only record,
    # so the timed campaigns do no checking work
    # ------------------------------------------------------------------
    def _put(self, original):
        def put(store, cell, status, summary, error=""):
            self._store_log.append(("put", cell, status, summary, error))
            return original(store, cell, status, summary, error)
        return put

    def _get(self, original):
        def get(store, digest):
            payload = original(store, digest)
            self._store_log.append(("get", digest, payload))
            return payload
        return get

    def _checkpointed(self, original):
        def run_checkpointed(cells, *args, **kwargs):
            records = original(cells, *args, **kwargs)
            for record in records:
                outcome = record.outcome
                if outcome is None or not outcome.ok:
                    continue
                result = outcome.result
                ops = result.data_ops + result.sync_ops
                self._pass.ops += ops
                if result.hitm_total:
                    self._pass.contended_ops += ops
            return records
        return run_checkpointed

    # ------------------------------------------------------------------
    # passes
    # ------------------------------------------------------------------
    def run_pass(self):
        stream = self._pass = StreamPass()
        self._store_log, jobs = [], []
        self._count += 1
        root = fresh_dir("service", f"pass-{self._count}")
        # write back what earlier passes left dirty, so that their
        # writeback does not slow this pass's file creates
        os.sync()
        service = CampaignService(root=root, jobs=2, resilience=True)
        tracer = self.tracer
        index = tracer.open("bench.pass") if tracer else None
        first = len(self.speed.factors) if self.speed else 0
        start = time.perf_counter()
        for spec in self.specs:
            begin = time.perf_counter()
            span = tracer.open("bench.campaign") if tracer else None
            job = service.run_spec(spec)
            if tracer:
                tracer.close(span)
            stream.raw_latencies.append(time.perf_counter() - begin)
            if self.speed:
                self.speed.factor()
            jobs.append((job, spec))
        stream.wall = time.perf_counter() - start
        stream.latencies = self._scaled(stream.raw_latencies, jobs, first)
        if tracer:
            tracer.close(index)
        stream.store_hits = service.store.hits
        stream.retries = service.metrics_snapshot()["counters"].get(
            "service.retry", 0)
        bad = self._check_store(stream)
        for job, spec in jobs:
            self._check_job(job, spec, stream, bad)
        return stream

    def _scaled(self, raw, jobs, first):
        """Campaign times scaled to nominal host speed.  A campaign
        served wholly from the store spends its time mostly creating
        files and takes the file probe's factor; one that executes
        cells spends it mostly in the pool's interpreters and takes the
        pure-Python probe's."""
        if not self.speed:
            return list(raw)
        out = []
        for index, (seconds, (job, _)) in enumerate(zip(raw, jobs),
                                                    first):
            served = all(entry["source"] == "cache"
                         for entry in job.cells.values())
            factors = self.speed.io_factors if served \
                else self.speed.factors
            out.append(seconds * factors[index])
        return out

    def _check_store(self, stream):
        """Replay the pass's store calls in order: every stored payload
        must equal its pin, and every served payload the payload its
        cell produced earlier in the pass.  Returns the digests of the
        cells that failed."""
        produced, bad = {}, set()
        log, self._store_log = self._store_log, None
        for event in log:
            if event[0] == "put":
                _, cell, status, summary, error = event
                payload = result_payload(status, summary, error)
                digest = cell_digest(cell)
                produced[digest] = payload_bytes(payload)
                key, sha = sha256_json(cell), sha256_json(payload)
                stream.produced[key] = sha
                if self.pinned["cells"].get(key) != sha:
                    bad.add(digest)
                    stream.problems.append(
                        f"{cell['name']}/{cell['system']}: payload != pin")
            else:
                _, digest, payload = event
                if payload is not None and \
                        payload_bytes(payload) != produced.get(digest):
                    bad.add(digest)
                    stream.problems.append(
                        f"{digest[:12]}: served payload differs from the "
                        "payload produced earlier in the pass")
        return bad

    @staticmethod
    def _check_job(job, spec, stream, bad):
        """Count the campaign and its cells; a cell fails unless it is
        harness-ok and not in ``bad``, the campaign unless it
        completed."""
        expected = {cell_digest(c) for c in spec.cells()}
        stream.campaigns += 1
        stream.cells += len(expected)
        if spec.kind != "grid":
            stream.fuzz_chaos += len(expected)
        for digest in expected:
            entry = job.cells.get(digest)
            if entry is not None and entry["source"] == "cache":
                stream.served += 1
            if entry is None or entry["status"] != CELL_OK \
                    or digest in bad:
                stream.failed += 1
                status = entry["status"] if entry else "missing"
                stream.problems.append(
                    f"campaign {spec.name} cell {digest[:12]}: {status}")
        if job.status != "completed":
            stream.failed += 1
            stream.problems.append(f"campaign {spec.name}: {job.status}")

    def _captured(self):
        stack = contextlib.ExitStack()
        stack.enter_context(patched(ResultStore, "put", self._put))
        stack.enter_context(patched(ResultStore, "get", self._get))
        stack.enter_context(patched(repro.service.scheduler,
                                    "run_checkpointed", self._checkpointed))
        return stack

    # ------------------------------------------------------------------
    # results
    # ------------------------------------------------------------------
    @staticmethod
    def tally(passes):
        """(attempted, failed, problems): every cell and every campaign
        is a checked output."""
        attempted = sum(p.cells + p.campaigns for p in passes)
        failed = sum(p.failed for p in passes)
        problems = [problem for p in passes for problem in p.problems]
        return attempted, failed, problems

    @staticmethod
    def properties(stream):
        return {"prop.contended_share":
                stream.contended_ops / stream.ops if stream.ops else 0.0,
                "prop.vector_batched_share": 0.0,
                "prop.store_hit_share": stream.served / stream.cells,
                "prop.fuzz_chaos_share": stream.fuzz_chaos / stream.cells}

    @staticmethod
    def end_to_end(timed, raw=False):
        """Throughput and latency percentiles over each campaign's
        median time across the timed passes (a run submits the same
        campaigns in the same order every pass).  ``raw`` reads raw
        instead of scaled times."""
        campaign_s = [median(times) for times in zip(
            *(p.raw_latencies if raw else p.latencies for p in timed))]
        total = sum(campaign_s)
        campaign_ms = [s * 1e3 for s in campaign_s]
        return {"sim_ops_per_s": timed[0].ops / total,
                "cells_per_s": timed[0].cells / total,
                "latency_ms_p50": percentile(campaign_ms, 50),
                "latency_ms_p90": percentile(campaign_ms, 90)}, \
            len(campaign_ms)

    def run(self, seconds):
        """One untimed check pass, which also warms the process up
        (lazy imports), then timed passes; every pass is checked."""
        start = time.perf_counter()
        with self._captured():
            warm = self.run_pass()
            self.speed = HostSpeed(io_dir=fresh_dir("service", "probe"))
            try:
                timed = passes(self.run_pass,
                               seconds - (time.perf_counter() - start))
            finally:
                speed, self.speed = self.speed, None
        attempted, failed, problems = self.tally([warm] + timed)
        metrics, samples = self.end_to_end(timed)
        raw, _ = self.end_to_end(timed, raw=True)
        info = {"check_wall_s": round(warm.wall, 3),
                "pass_walls_s": [round(p.wall, 3) for p in timed],
                "latency_samples": samples,
                "campaigns_per_pass": len(self.specs),
                "cells_per_pass": warm.cells, "scale": SCALE,
                "host_speed_factor": median(speed.factors),
                "host_io_factor": median(speed.io_factors)}
        info.update({"raw_" + name: value for name, value in raw.items()})
        info.update(self.properties(warm))
        return attempted, failed, problems, metrics, info

    def run_traced(self, seconds, tracer):
        """A warm-up pass and one untraced reference pass, then traced
        passes."""
        start = time.perf_counter()
        with self._captured():
            warm = self.run_pass()
            reference = self.run_pass()
            install_eval_layer(tracer)
            install_service_layer(tracer)
            self.tracer = tracer
            try:
                traced = passes(self.run_pass,
                                seconds - (time.perf_counter() - start))
            finally:
                self.tracer = None
                tracer.uninstall()
        attempted, failed, problems = self.tally([warm, reference] + traced)
        for stream in traced:
            if stream.produced != reference.produced:
                failed += 1
                problems.append("traced pass produced different payloads")
        counts = {"service.store_hits": sum(p.store_hits for p in traced),
                  "service.retries": sum(p.retries for p in traced)}
        metrics = layer_metrics(tracer, len(traced), counts)
        metrics["bench.trace_overhead"] = (
            median([p.wall for p in traced]) / reference.wall)
        metrics.update(self.properties(reference))
        info = {"passes": len(traced), "reference_wall_s": reference.wall,
                "scale": SCALE}
        return attempted, failed, problems, metrics, info
