"""The public calls each layer's traced run wraps, and the per-layer
metrics derived from the resulting spans and counts.

Module names are the repository's own (``repro.<layer>``).  Only calls
made in the benchmark's own process are measured.  The grid workloads
run every cell in that process and wrap every layer.  Campaign-stream
runs its cells in pool workers, so it wraps the ``eval`` and
``service`` boundaries only and the cell-internal metrics read 0 there;
the workers' time shows as ``eval.pool`` self time in the parent.
"""

import repro.eval.grid
import repro.eval.parallel
import repro.eval.runner


def _subclasses(cls):
    out, todo = [], [cls]
    while todo:
        current = todo.pop()
        out.append(current)
        todo.extend(current.__subclasses__())
    return out


def install_cell_layers(tracer):
    """Wrap the layers that run inside one simulation cell."""
    from repro.baselines.laser import LaserRuntime
    from repro.baselines.sheriff import SheriffRuntime
    from repro.core.ptsb import PageTwinningStoreBuffer
    from repro.core.runtime import TmiRuntime
    from repro.engine.scheduler import Engine
    from repro.engine.vector import compiler as vector_compiler
    from repro.engine.vector.executor import VectorExecutor
    from repro.oskit.ptrace import PtraceMonitor
    from repro.sim.addrspace import AddressSpace
    from repro.sim.cache import CoherenceDirectory
    from repro.sim.machine import Machine
    from repro.sim.physmem import PhysicalMemory
    from repro.workloads.base import Workload

    def span(name):
        return lambda fn: tracer.span_wrapper(name, fn)

    def fine(name):
        return lambda fn: tracer.fine_wrapper(name, fn)

    for cls in _subclasses(Workload):
        if "build" in vars(cls):
            tracer.patch(cls, "build", span("workloads.build"))
    tracer.patch(vector_compiler, "lower_access_run", fine("isa.lower"))

    tracer.patch(Engine, "__init__", span("engine.init"))

    def engine_run(original):
        def run(self):
            result = original(self)
            tracer.count("engine.ops", result.data_ops + result.sync_ops)
            return result
        return tracer.span_wrapper("engine.run", run)
    tracer.patch(Engine, "run", engine_run)
    tracer.patch(VectorExecutor, "advance", fine("vector.advance"))
    tracer.patch(VectorExecutor, "try_lockstep", fine("vector.lockstep"))

    tracer.patch(Machine, "mem_access", fine("sim.mem_access"))
    tracer.patch(CoherenceDirectory, "access", fine("sim.directory"))
    tracer.patch(AddressSpace, "translate", fine("sim.translate"))
    for name in ("read", "write", "read_int", "write_int",
                 "read_int_run", "write_int_run"):
        tracer.patch(PhysicalMemory, name, fine("sim.physmem"))

    tracer.patch(TmiRuntime, "translate", fine("core.translate"))
    tracer.patch(TmiRuntime, "on_tick", span("core.tick"))

    def ptsb_commit(original):
        def commit(self, core, reason):
            pages, merged = self.committed_pages, self.merged_bytes
            cost = original(self, core, reason)
            tracer.count("core.commit_pages", self.committed_pages - pages)
            tracer.count("core.commit_bytes", self.merged_bytes - merged)
            return cost
        return tracer.span_wrapper("core.ptsb_commit", commit)
    tracer.patch(PageTwinningStoreBuffer, "commit", ptsb_commit)
    tracer.patch(PtraceMonitor, "convert_all_threads", span("core.t2p"))

    for name in ("setup", "on_thread_created", "on_tick",
                 "exec_access_override", "on_sync_acquired",
                 "on_sync_release", "on_thread_exit"):
        tracer.patch(LaserRuntime, name, fine("baselines.laser"))
    for name in ("check_workload", "setup", "on_thread_created",
                 "on_thread_exit", "on_sync_object_init",
                 "sync_cost_extra", "on_sync_acquired",
                 "on_sync_release"):
        tracer.patch(SheriffRuntime, name, fine("baselines.sheriff"))


def install_eval_layer(tracer):
    """Wrap the grid harness: one span per cell and per pool call."""
    tracer.patch(repro.eval.runner, "run_workload",
                 lambda fn: tracer.span_wrapper("eval.cell", fn))

    def pool(original):
        def run_cells_recorded(cells, *args, **kwargs):
            cells = list(cells)
            tracer.count("eval.cells", len(cells))
            return original(cells, *args, **kwargs)
        return tracer.span_wrapper("eval.pool", run_cells_recorded)
    # the grid module imported the function under its own name
    tracer.patch(repro.eval.parallel, "run_cells_recorded", pool)
    tracer.patch(repro.eval.grid, "run_cells_recorded", pool)


def install_service_layer(tracer):
    """Wrap the campaign service's admission, store and state I/O."""
    import repro.service.scheduler
    from repro.service.resilience import ResilienceSupervisor
    from repro.service.scheduler import CampaignJob, CampaignScheduler
    from repro.service.service import CampaignService
    from repro.service.store import ResultStore

    def span(name):
        return lambda fn: tracer.span_wrapper(name, fn)

    tracer.patch(repro.service.scheduler, "run_checkpointed",
                 span("eval.checkpoint"))
    tracer.patch(CampaignService, "submit", span("service.admission"))
    tracer.patch(CampaignScheduler, "run_job", span("service.run_job"))
    tracer.patch(ResultStore, "get", span("service.store_get"))
    tracer.patch(ResultStore, "put", span("service.store_put"))
    tracer.patch(CampaignJob, "write_state", span("service.state_write"))
    tracer.patch(ResilienceSupervisor, "save_state",
                 span("service.state_write"))


def layer_metrics(tracer, passes, counts):
    """Per-pass per-layer metrics from a traced run.

    ``passes`` is the number of traced passes; ``counts`` holds totals
    the workload runner read from cell outcomes and service state.
    Times are host seconds per pass, counts are per pass.
    """
    totals = tracer.totals()
    merged = dict(counts)
    for name, value in tracer.counts.items():
        merged[name] = merged.get(name, 0) + value

    def calls(name):
        return totals.get(name, {}).get("calls", 0) / passes

    def self_s(name):
        return totals.get(name, {}).get("self_ns", 0) / 1e9 / passes

    def wall_s(name):
        return totals.get(name, {}).get("ns", 0) / 1e9 / passes

    def per_pass(name):
        return merged.get(name, 0) / passes

    def share(num, den):
        return num / den if den else 0.0

    engine_ops = per_pass("engine.ops")
    data_ops = per_pass("cell.data_ops")
    bench_self = sum(entry["self_ns"] for name, entry in totals.items()
                     if name.startswith("bench."))
    pass_ns = totals.get("bench.pass", {}).get("ns", 0)
    out = {
        "workloads.build_s": self_s("workloads.build"),
        "isa.lower_calls": calls("isa.lower"),
        "isa.lower_s": self_s("isa.lower"),
        "engine.init_s": wall_s("engine.init"),
        "engine.run_s": wall_s("engine.run"),
        "engine.self_s": self_s("engine.run"),
        "engine.ops": engine_ops,
        "engine.self_ns_per_op": share(self_s("engine.run") * 1e9,
                                       engine_ops),
        "vector.batched_ops": per_pass("vector.batched_ops"),
        "vector.fallback_ops": per_pass("vector.fallback_ops"),
        "vector.batched_share": share(per_pass("vector.batched_ops"),
                                      data_ops),
        "vector.advance_s": self_s("vector.advance"),
        "vector.lockstep_s": self_s("vector.lockstep"),
        "sim.hitm": per_pass("cell.hitm"),
        "sim.hitm_share": share(per_pass("cell.hitm"), data_ops),
        "core.commit_bytes_per_page": share(
            per_pass("core.commit_bytes"), per_pass("core.commit_pages")),
        "core.t2p_s": wall_s("core.t2p"),
        "core.conversions": calls("core.t2p"),
        "baselines.laser_self_s": self_s("baselines.laser"),
        "baselines.sheriff_self_s": self_s("baselines.sheriff"),
        "eval.cells": per_pass("eval.cells"),
        "eval.cell_overhead_s": self_s("eval.cell"),
        "eval.pool_s": self_s("eval.pool"),
        "eval.pool_shards": calls("eval.pool"),
        "eval.checkpoint_self_s": self_s("eval.checkpoint"),
        "service.admission_s": self_s("service.admission"),
        "service.store_get_calls": calls("service.store_get"),
        "service.store_get_s": wall_s("service.store_get"),
        "service.store_hit_share": share(
            per_pass("service.store_hits"), calls("service.store_get")),
        "service.store_put_calls": calls("service.store_put"),
        "service.store_put_s": wall_s("service.store_put"),
        "service.state_writes": calls("service.state_write"),
        "service.state_writes_s": wall_s("service.state_write"),
        "service.run_job_self_s": self_s("service.run_job"),
        "service.retries": per_pass("service.retries"),
        "bench.unattributed_share": share(bench_self, pass_ns),
        # the figures' headline numbers; the grid runners fill in theirs
        "sim_tmi_speedup_geomean": 0.0,
        "sim_detect_overhead_pct": 0.0,
    }
    for layer in ("sim.mem_access", "sim.directory", "sim.translate",
                  "sim.physmem", "core.translate", "core.ptsb_commit",
                  "core.tick"):
        out[layer + "_calls"] = calls(layer)
        out[layer + "_self_s"] = self_s(layer)
    return out
