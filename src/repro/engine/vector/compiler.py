"""Compiled-program cache: op objects -> lowered typed columns.

Each engine owns one :class:`RunCompiler`.  AccessRun ops are frozen
slotted dataclasses, so an op's field tuple is its workload identity — two
``AccessRun`` instances emitted by successive loop iterations of the
same site hash equal and share one compiled entry.  The cache is
per-engine (never shared across runs), which keeps the hit/miss
counters deterministic regardless of ``REPRO_JOBS`` sharding.
"""

from repro.isa.lowering import lower_access_run

#: Cache-size ceiling; programs with more distinct batched ops than
#: this compile the overflow every time rather than growing host memory
#: without bound.
MAX_CACHED = 4096

_MISS = object()


class RunCompiler:
    """Per-engine compiled-run cache with hit/miss accounting."""

    def __init__(self):
        self._cache = {}
        self.hits = 0
        self.misses = 0

    def lookup(self, op):
        """Return the :class:`~repro.isa.lowering.LoweredRun` for
        ``op`` (compiling on first sight), or ``None`` if the op's
        shape stays serial.  Negative results are cached too, so a
        shape the kernels decline costs one dict probe forever after.
        """
        cached = self._cache.get(op, _MISS)
        if cached is not _MISS:
            self.hits += 1
            return cached
        self.misses += 1
        lowered = lower_access_run(op)
        if len(self._cache) < MAX_CACHED:
            self._cache[op] = lowered
        return lowered
