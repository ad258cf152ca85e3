"""Differential property: the engine's one access step is shape-blind.

Every data access goes through ``Engine._access``, whether it is a
single ``Load``/``Store`` the generator yields or one element of an
``AccessRun``/``RmwSeq``/``StoreSeq`` continuation.  Hypothesis draws
random batched shapes (int and per-element deltas, ``compute`` zero and
positive, strided and repeated runs) for 2-4 threads packed onto one
falsely shared line, and each program must simulate byte-identically
to its unbatched per-op loop, with and without a no-op observer
attached, under pthreads, tmi-protect and LASER.  A short detection
interval makes TMI repair and LASER instrument within a few thousand
cycles, so the PTSB-routing translate and the store-buffer override
both run on batched elements.  A second property replays contended
traces through the optimized directory and the reference model.
"""

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from helpers import make_program
from repro.analysis.observer import EngineObserver
from repro.baselines.laser import LaserRuntime
from repro.baselines.pthreads import PthreadsRuntime
from repro.core import TmiConfig, TmiRuntime
from repro.engine import Engine
from repro.isa import Binary
from repro.sim.costs import LINE_SIZE, CostModel
from tests.sim.test_fastpath_equiv import BASE, replay

WIDTH = 8
MASK = (1 << (8 * WIDTH)) - 1

#: Detection tuned so a few hundred contended accesses trigger repair
#: (the analysis pass must stay shorter than the interval).
FAST_DETECT = dict(period=2, detect_interval_cycles=8_000,
                   repair_threshold_events=4)
COSTS = CostModel(detect_fixed=1_000)

SYSTEMS = {
    "pthreads": PthreadsRuntime,
    "tmi-protect": lambda: TmiRuntime("protect", TmiConfig(**FAST_DETECT)),
    "laser": lambda: LaserRuntime(TmiConfig(**FAST_DETECT)),
}


def _slots(tid):
    """Thread ``tid``'s two 8-byte slots on the shared line."""
    return (tid * WIDTH, (tid + 4) * WIDTH)


@st.composite
def thread_shapes(draw, tid):
    slots = _slots(tid)
    shapes = []
    for _ in range(draw(st.integers(1, 4))):
        kind = draw(st.sampled_from(("rmw", "store_seq", "run")))
        compute = draw(st.sampled_from((0, 0, 7, 400)))
        count = draw(st.integers(1, 12))
        volatile = draw(st.sampled_from((False, False, True)))
        if kind == "rmw":
            addrs = draw(st.lists(st.sampled_from(slots), min_size=count,
                                  max_size=count))
            deltas = draw(st.one_of(
                st.integers(-3, 5),
                st.lists(st.integers(-3, 5), min_size=count,
                         max_size=count)))
            shapes.append(("rmw", addrs, deltas, compute, volatile))
        elif kind == "store_seq":
            values = draw(st.lists(st.integers(0, 1000), min_size=count,
                                   max_size=count))
            shapes.append(("store_seq", draw(st.sampled_from(slots)),
                           values, compute, volatile))
        else:
            stride = draw(st.sampled_from((0, WIDTH)))
            start = draw(st.sampled_from(slots))
            if stride:
                count = min(count, (LINE_SIZE - start) // WIDTH)
            shapes.append(("run", start, count, stride,
                           draw(st.booleans()), draw(st.integers(0, 99)),
                           volatile))
    return shapes


@st.composite
def programs(draw):
    nthreads = draw(st.integers(2, 4))
    rounds = draw(st.integers(1, 12))
    return rounds, [draw(thread_shapes(tid)) for tid in range(nthreads)]


def build(spec, batched):
    """The drawn program, as batched ops or as the per-op loop."""
    rounds, per_thread = spec
    binary = Binary("access-step")
    ld = binary.load_site("ld", WIDTH)
    st_ = binary.store_site("st", WIDTH)
    box = {}

    def body(t, base, shapes):
        for _ in range(rounds):
            for shape in shapes:
                volatile = shape[-1]
                if shape[0] == "rmw":
                    _, offs, deltas, compute, _v = shape
                    addrs = [base + off for off in offs]
                    if batched:
                        yield from t.rmw_seq(addrs, WIDTH, deltas, compute,
                                             ld, st_, volatile)
                        continue
                    for i, addr in enumerate(addrs):
                        delta = deltas if isinstance(deltas, int) \
                            else deltas[i]
                        value = yield from t.load(addr, WIDTH, ld, volatile)
                        yield from t.store(addr, (value + delta) & MASK,
                                           WIDTH, st_, volatile)
                        if compute:
                            yield from t.compute(compute)
                elif shape[0] == "store_seq":
                    _, off, values, compute, _v = shape
                    if batched:
                        yield from t.store_seq(base + off, values, WIDTH,
                                               compute, st_, volatile)
                        continue
                    for value in values:
                        yield from t.store(base + off, value, WIDTH, st_,
                                           volatile)
                        if compute:
                            yield from t.compute(compute)
                else:
                    _, off, count, stride, is_write, value, _v = shape
                    addr = base + off
                    if is_write and batched:
                        yield from t.store_run(addr, value, count, stride,
                                               WIDTH, st_, volatile)
                    elif batched:
                        loaded = yield from t.load_run(addr, count, stride,
                                                       WIDTH, ld, volatile)
                        box.setdefault(t.tid, []).append(loaded)
                    else:
                        loaded = []
                        for i in range(count):
                            if is_write:
                                yield from t.store(addr + i * stride, value,
                                                   WIDTH, st_, volatile)
                            else:
                                loaded.append((yield from t.load(
                                    addr + i * stride, WIDTH, ld,
                                    volatile)))
                        if not is_write:
                            box.setdefault(t.tid, []).append(loaded)

    def main(t):
        base = yield from t.malloc(4096, align=64)
        box["base"] = base
        # a start barrier, so the workers contend instead of running
        # one after another behind the pthread_create cost
        start = yield from t.barrier(len(per_thread))
        tids = []
        for shapes in per_thread:
            def worker(w, shapes=shapes):
                yield from w.barrier_wait(start)
                yield from body(w, base, shapes)
            tids.append((yield from t.spawn(worker)))
        for tid in tids:
            yield from t.join(tid)

    return make_program(main, "access-step", len(per_thread),
                        binary=binary), box


def observe(spec, system, batched, observer):
    program, box = build(spec, batched)
    engine = Engine(program, SYSTEMS[system](), costs=COSTS)
    if observer:
        engine.attach_observer(EngineObserver())
    result = engine.run()
    base = box["base"]
    return {
        "cycles": result.cycles,
        "hitm": (result.hitm_loads, result.hitm_stores),
        "per_thread": sorted((t.tid, t.loads, t.stores)
                             for t in engine.threads.values()),
        "memory": [engine.read_memory(base + off, WIDTH)
                   for off in range(0, LINE_SIZE, WIDTH)],
        "loaded": {tid: runs for tid, runs in box.items() if tid != "base"},
    }


@settings(max_examples=30, deadline=None,
          suppress_health_check=[HealthCheck.too_slow,
                                 HealthCheck.data_too_large])
@given(spec=programs())
def test_batched_shapes_match_per_op_loops(spec):
    for system in SYSTEMS:
        want = observe(spec, system, batched=False, observer=False)
        for batched, observer in ((True, False), (True, True),
                                  (False, True)):
            got = observe(spec, system, batched, observer)
            assert got == want, (system, batched, observer)


def test_fast_detection_reaches_the_hooked_paths():
    """Guard against the property testing nothing: with the tuned
    detector a contended RmwSeq program repairs under TMI and
    instruments under LASER, so batched elements take the PTSB-routed
    translate and the store-buffer override."""
    spec = (12, [[("rmw", [tid * WIDTH] * 12, 1, 0, False)]
                 for tid in range(4)])
    for system, repaired in (("tmi-protect",
                              lambda rt: rt.repair.converted),
                             ("laser", lambda rt: rt.instrumented_pcs)):
        program, _box = build(spec, batched=True)
        runtime = SYSTEMS[system]()
        Engine(program, runtime, costs=COSTS).run()
        assert repaired(runtime), system
    want = observe(spec, "laser", batched=False, observer=False)
    assert observe(spec, "laser", batched=True, observer=False) == want


@settings(max_examples=40, deadline=None)
@given(steps=st.lists(
    st.tuples(st.integers(0, 3), st.sampled_from((0, 8, 16, 56, 60, 64)),
              st.sampled_from((1, 4, 8)), st.booleans(),
              st.integers(0, 4000)),
    min_size=1, max_size=300))
def test_contended_traces_match_reference_directory(steps):
    now = 0
    trace = []
    for core, offset, width, is_write, gap in steps:
        now += gap
        trace.append(("access", core, BASE + offset, width, is_write, now))
    replay(trace)
