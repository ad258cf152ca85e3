"""Repair manager mechanics: conversion, protection, page splitting."""

from repro.core import TmiConfig, TmiRuntime
from repro.engine import Engine
from repro.sim.addrspace import PRIVATE, SHARED
from repro.sim.costs import PAGE_2M, PAGE_4K

from helpers import fs_counter_program


def run_repair(config=None, **kwargs):
    """Run the falsely-shared counters under tmi-protect, long enough
    that the detector always fires one repair episode; every test below
    asserts on that episode, so a run without one fails here."""
    kwargs.setdefault("iters", 30_000)
    runtime = TmiRuntime("protect", config or TmiConfig())
    engine = Engine(fs_counter_program(**kwargs), runtime)
    result = engine.run()
    assert runtime.repair.converted, "no repair episode triggered"
    return result, engine, runtime


class TestTargetedProtection:
    def test_only_hot_pages_protected(self):
        result, engine, runtime = run_repair()
        assert runtime.repair.converted
        protected = runtime.repair.protected_pages
        assert 1 <= len(protected) <= 2
        # a cold heap page in some process stays shared
        worker = next(t for t in engine.threads.values()
                      if t.tid != 0)
        aspace = worker.process.aspace
        cold_va = max(protected) + 1 << 20
        mapping = aspace.mapping_at(0x4000_0000 + (1 << 22))
        assert mapping is not None

    def test_split_yields_4k_protection_under_huge_pages(self):
        config = TmiConfig(huge_pages=True, repair_page_split=True)
        result, engine, runtime = run_repair(config=config)
        assert runtime.repair.converted
        for page_va, size in runtime.repair.protected_pages.items():
            assert size == PAGE_4K
        # the split mapping exists in each app process
        for thread in engine.threads.values():
            page_va = next(iter(runtime.repair.protected_pages))
            mapping = thread.process.aspace.mapping_at(page_va)
            assert mapping.page_size == PAGE_4K

    def test_no_split_when_disabled(self):
        config = TmiConfig(huge_pages=True, repair_page_split=False)
        result, engine, runtime = run_repair(config=config)
        sizes = set(runtime.repair.protected_pages.values())
        assert sizes == {PAGE_2M}

    def test_everywhere_mode_marks_all_app_mappings(self):
        config = TmiConfig(targeted=False, huge_pages=False)
        result, engine, runtime = run_repair(config=config)
        private = 0
        for thread in engine.threads.values():
            for mapping in thread.process.aspace.mappings():
                kind = mapping.name.split(":")[0]
                if kind in ("heap", "globals", "stack"):
                    assert mapping.mode == PRIVATE
                    private += 1
                else:
                    assert mapping.mode == SHARED
        # every thread runs as its own process with its own app mappings
        assert private >= 3 * len(engine.threads)


class TestConversionBookkeeping:
    def test_t2p_recorded_once(self):
        result, engine, runtime = run_repair()
        assert len(runtime.stats.conversions) == 1
        record = runtime.stats.conversions[0]
        assert record.thread_count == len(engine.threads)

    def test_all_processes_have_ptsbs(self):
        result, engine, runtime = run_repair()
        for thread in engine.threads.values():
            assert thread.process.ptsb is not None

    def test_protection_isolates_physically(self):
        result, engine, runtime = run_repair()
        page_va = next(iter(runtime.repair.protected_pages))
        frames = set()
        for thread in engine.threads.values():
            pa = thread.process.aspace.private_pa(page_va)
            if pa is not None:
                frames.add(pa)
        # any two live private frames are distinct physical pages
        assert len(frames) == len([
            t for t in engine.threads.values()
            if t.process.aspace.private_pa(page_va) is not None])
