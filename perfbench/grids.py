"""The two Table-1 grid workloads: Figure 9 (repair) and Figure 7
(detection overhead), each regenerated end to end by
``repro.eval.experiments`` in one serial process (``REPRO_JOBS=1``).

A pass is one full figure regeneration.  A run starts with an untimed
check pass, which also warms the process up: it asks every cell for its
final-state digest and metrics snapshot (``collect_state``,
``collect_metrics``), which the pinned digests and the property shares
need.  The timed passes then run the figure unmodified.  Each cell's
host time is taken around ``run_workload`` by wrapping
``repro.eval.parallel._run_cell`` and scaled to nominal host speed
(:class:`common.HostSpeed`), and each cell's result must equal the
check pass's.
"""

import time

import repro.eval.parallel
from repro.eval import experiments

from common import (HostSpeed, median, passes, patched, percentile,
                    sha256_json, sha256_text)
from layers import (install_cell_layers, install_eval_layer,
                    layer_metrics)

#: workload -> (experiment function, scale)
GRIDS = {"fig9-repair": ("figure9", 0.05),
         "fig7-detect": ("figure7", 0.05)}


def result_fields(outcome):
    """A cell's status, cycles, HITM counts and op counts."""
    fields = {"status": outcome.status}
    result = outcome.result
    if result is not None:
        fields.update(cycles=result.cycles, hitm_loads=result.hitm_loads,
                      hitm_stores=result.hitm_stores,
                      data_ops=result.data_ops, sync_ops=result.sync_ops)
    return fields


def headline(figure, data):
    """The figure's simulated headline numbers."""
    if figure == "figure9":
        return {"sim_tmi_speedup_geomean": data["geomean"]["tmi-protect"]}
    return {"sim_detect_overhead_pct": data["tmi_detect_overhead_pct"]}


def cell_counts(outcomes):
    """Totals over the ok cells' outcomes."""
    counts = {"cell.ops": 0, "cell.contended_ops": 0,
              "cell.data_ops": 0, "cell.hitm": 0,
              "vector.batched_ops": 0, "vector.fallback_ops": 0}
    for outcome in outcomes:
        if not outcome.ok:
            continue
        result = outcome.result
        ops = result.data_ops + result.sync_ops
        counts["cell.ops"] += ops
        counts["cell.data_ops"] += result.data_ops
        counts["cell.hitm"] += result.hitm_total
        if result.hitm_total:
            counts["cell.contended_ops"] += ops
        metrics = outcome.metrics["counters"]
        for name in ("vector.batched_ops", "vector.fallback_ops"):
            counts[name] += metrics.get(name, 0)
    return counts


class GridPass:
    """What one regeneration leaves: per-cell (scaled, raw) seconds and
    result digests, the table's sha, the headline numbers and the wall time.
    A check pass also keeps the pinned digests (result plus final
    state) and the outcome totals.  Outcomes are not kept, so the
    benchmark's memory does not grow with the number of passes."""

    def __init__(self, figure, cells, result, wall, error, check):
        self.seconds = {key: seconds for key, seconds, _ in cells}
        self.digests = {key: sha256_json(result_fields(outcome))
                        for key, _, outcome in cells}
        self.pinned_digests = self.counts = None
        if check:
            self.pinned_digests = {
                key: sha256_json(dict(result_fields(outcome),
                                      final_state=outcome.final_state))
                for key, _, outcome in cells}
            self.counts = cell_counts(outcome for *_, outcome in cells)
        self.table_sha = sha256_text(result.text) if result else None
        self.headline = headline(figure, result.data) if result else {}
        self.wall = wall
        self.error = error


class GridWorkload:
    """Runs one figure grid repeatedly and checks it against its pins."""

    def __init__(self, name, pinned):
        self.name = name
        self.figure, self.scale = GRIDS[name]
        self.pinned = pinned
        self.tracer = None
        self._cells = None
        self._check = False
        #: HostSpeed while timed passes run; None leaves times raw
        self.speed = None

    def _capture(self, original):
        def run_cell(kwargs):
            if self._check:
                kwargs = dict(kwargs, collect_state=True,
                              collect_metrics=True)
            start = time.perf_counter()
            outcome = original(kwargs)
            raw = time.perf_counter() - start
            scaled = raw * self.speed.factor() if self.speed else raw
            self._cells.append((f"{kwargs['name']}/{kwargs['system']}",
                                (scaled, raw), outcome))
            return outcome
        return run_cell

    def run_pass(self, check=False):
        """One regeneration; ``check`` makes it the check pass."""
        self._cells, self._check = [], check
        tracer = self.tracer
        index = tracer.open("bench.pass") if tracer else None
        start = time.perf_counter()
        result = error = None
        try:
            with patched(repro.eval.parallel, "_run_cell", self._capture):
                result = getattr(experiments, self.figure)(scale=self.scale)
        except Exception as exc:  # noqa: BLE001 - counted as failures
            error = f"{type(exc).__name__}: {exc}"
        wall = time.perf_counter() - start
        if tracer:
            tracer.close(index)
        cells, self._cells = self._cells, None
        return GridPass(self.figure, cells, result, wall, error, check)

    # ------------------------------------------------------------------
    # output check
    # ------------------------------------------------------------------
    def check(self, grid_pass, reference=None):
        """(attempted, failed, problems) for one pass.

        Without ``reference`` (the check pass) every cell's pinned
        digest must equal its pin; otherwise every cell's result digest
        must equal the one in ``reference``, the run's check pass.  The
        rendered table's sha must equal its pin.  Attempted counts each
        cell plus the table.
        """
        if reference is None:
            expected, digests = self.pinned["cells"], \
                grid_pass.pinned_digests
        else:
            expected, digests = reference.digests, grid_pass.digests
        problems = []
        for key in sorted(set(self.pinned["cells"]) | set(digests)):
            digest = digests.get(key)
            if digest is None:
                problems.append(f"{key}: did not run")
            elif digest != expected.get(key):
                problems.append(f"{key}: digest {digest[:12]} differs from "
                                + ("its pin" if reference is None
                                   else "the check pass"))
        if grid_pass.table_sha != self.pinned["table_sha256"]:
            problems.append(f"{self.figure} table sha differs"
                            + (f" ({grid_pass.error})"
                               if grid_pass.error else ""))
        return len(self.pinned["cells"]) + 1, len(problems), problems

    def check_all(self, check, others):
        """The check pass against the pins, then ``others`` against the
        check pass: (attempted, failed, problems) summed."""
        attempted, failed, problems = self.check(check)
        for grid_pass in others:
            a, f, p = self.check(grid_pass, check)
            attempted, failed = attempted + a, failed + f
            problems += p
        return attempted, failed, problems

    # ------------------------------------------------------------------
    # measurement
    # ------------------------------------------------------------------
    @staticmethod
    def properties(check):
        counts = check.counts
        return {"prop.contended_share":
                counts["cell.contended_ops"] / counts["cell.ops"],
                "prop.vector_batched_share":
                counts["vector.batched_ops"] / counts["cell.data_ops"],
                "prop.store_hit_share": 0.0,
                "prop.fuzz_chaos_share": 0.0}

    @staticmethod
    def end_to_end(check, timed, column=0):
        """Throughput and latency percentiles over each cell's median
        time across the timed passes.  ``column`` 0 reads scaled cell
        times, 1 raw ones."""
        by_cell = {}
        for grid_pass in timed:
            for key, seconds in grid_pass.seconds.items():
                by_cell.setdefault(key, []).append(seconds[column])
        cell_ms = [median(v) * 1e3 for v in by_cell.values()]
        grid_seconds = sum(cell_ms) / 1e3
        return {"sim_ops_per_s": check.counts["cell.ops"] / grid_seconds,
                "cells_per_s": len(cell_ms) / grid_seconds,
                "latency_ms_p50": percentile(cell_ms, 50),
                "latency_ms_p90": percentile(cell_ms, 90)}, len(cell_ms)

    def run(self, seconds):
        start = time.perf_counter()
        check = self.run_pass(check=True)
        self.speed = HostSpeed()
        try:
            timed = passes(self.run_pass,
                           seconds - (time.perf_counter() - start))
        finally:
            speed, self.speed = self.speed, None
        attempted, failed, problems = self.check_all(check, timed)
        metrics, samples = self.end_to_end(check, timed)
        raw, _ = self.end_to_end(check, timed, column=1)
        info = {"check_wall_s": round(check.wall, 3),
                "pass_walls_s": [round(p.wall, 3) for p in timed],
                "latency_cells": samples, "scale": self.scale,
                "host_speed_factor": median(speed.factors)}
        info.update({"raw_" + name: value for name, value in raw.items()})
        info.update(self.properties(check))
        info.update(check.headline)
        return attempted, failed, problems, metrics, info

    def run_traced(self, seconds, tracer):
        """The check pass and one untraced reference pass, then traced
        passes."""
        start = time.perf_counter()
        check = self.run_pass(check=True)
        reference = self.run_pass()
        install_cell_layers(tracer)
        install_eval_layer(tracer)
        self.tracer = tracer
        try:
            traced = passes(self.run_pass,
                            seconds - (time.perf_counter() - start))
        finally:
            self.tracer = None
            tracer.uninstall()
        attempted, failed, problems = self.check_all(
            check, [reference] + traced)
        # outcome totals are exact and equal in every pass whose
        # results match the check pass
        counts = {name: value * len(traced)
                  for name, value in check.counts.items()}
        metrics = layer_metrics(tracer, len(traced), counts)
        metrics["bench.trace_overhead"] = (
            median([p.wall for p in traced]) / reference.wall)
        metrics.update(self.properties(check))
        metrics.update(check.headline)
        info = {"passes": len(traced), "reference_wall_s": reference.wall,
                "scale": self.scale}
        return attempted, failed, problems, metrics, info
