"""Helpers shared by the workload runners: statistics, digests, memory,
host fingerprint, and the per-run work directory."""

import atexit
import contextlib
import gc
import hashlib
import importlib.util
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from statistics import median  # noqa: F401 - shared by the runners

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
PINNED = os.path.join(HERE, "pinned.json")
#: Declares every metric's name and unit.
DECLARATION = os.path.join(ROOT, "BENCHMARK.json")
#: Scratch space for service roots and trace files; git-ignored.
WORK = os.path.join(ROOT, ".perfbench_work")


def sha256_json(value):
    """SHA-256 of ``value`` as canonical JSON (sorted keys, compact)."""
    text = json.dumps(value, sort_keys=True, separators=(",", ":"),
                      default=repr)
    return hashlib.sha256(text.encode()).hexdigest()


def sha256_text(text):
    return hashlib.sha256(text.encode()).hexdigest()


def percentile(values, q):
    """The ``q``-th percentile (1-99), linear between samples."""
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def peak_rss_mb():
    """Peak resident set of this process plus its largest reaped child
    (a pool worker), in MiB; Linux reports ``ru_maxrss`` in KiB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + child) / 1024


def host_fingerprint():
    return {"python": platform.python_version(),
            "implementation": platform.python_implementation(),
            "nproc": os.cpu_count(),
            "machine": platform.machine(),
            "numpy": importlib.util.find_spec("numpy") is not None}


def load_json(path):
    with open(path) as fh:
        return json.load(fh)


def fresh_dir(*parts):
    """An empty directory under the work directory."""
    path = os.path.join(WORK, *parts)
    shutil.rmtree(path, ignore_errors=True)
    os.makedirs(path)
    return path


def prepare_environment():
    """Point the program's output directories into the work directory
    and make ``repro`` importable from this checkout's ``src``."""
    os.makedirs(WORK, exist_ok=True)
    os.environ["REPRO_RESULTS_DIR"] = os.path.join(WORK, "results")
    tmp = fresh_dir(f"tmp-{os.getpid()}")
    atexit.register(shutil.rmtree, tmp, True)
    os.environ["TMPDIR"] = tmp
    if SRC not in sys.path:
        sys.path.insert(0, SRC)


@contextlib.contextmanager
def patched(owner, attr, factory):
    """Replace ``owner.attr`` with ``factory(original)`` for the body."""
    original = vars(owner)[attr]
    setattr(owner, attr, factory(original))
    try:
        yield
    finally:
        setattr(owner, attr, original)


def passes(run_pass, seconds):
    """Whole passes of ``run_pass`` for about ``seconds``: another pass
    starts only when the longest so far would still end inside the
    window.  At least one pass is made."""
    out, start = [], time.perf_counter()
    while True:
        out.append(run_pass())
        elapsed = time.perf_counter() - start
        if elapsed + max(p.wall for p in out) > seconds:
            return out


class HostSpeed:
    """Scales host time to a nominal host speed.

    The host is a shared VM whose speed drifts by tens of percent
    within a minute.  A fixed probe runs after every timed interval,
    outside it; :meth:`factor` is the nominal probe time over the mean
    of the probes on either side of the interval, so figures taken at
    different host speeds compare.  The probe is pure-Python work
    shaped like the simulator's inner loops.  With ``io_dir`` a second
    probe, JSON encoding plus file create-and-rename in that directory
    (the shape of a campaign service's state writes, whose cost is
    mostly kernel file-system time and drifts apart from interpreter
    speed), fills :attr:`io_factors` the same way.

    The probes are kept apart from what the program under test does.
    They are timed in CPU time of the probing thread, so a thread the
    program leaves running (which takes turns holding the GIL),
    processes competing for the CPUs, and waits for a busy file-system
    journal do not lengthen them; on this host CPU time drifts with
    wall time.  They run with the cyclic garbage collector off, so the
    size of the program's heap does not slow them either.
    """

    #: durations (seconds) of the two probes on the nominal host
    NOMINAL = 0.001
    NOMINAL_IO = 0.003

    def __init__(self, io_dir=None):
        self.factors = []
        self.io_factors = []
        self._io_path = os.path.join(io_dir, "probe") if io_dir else None
        self._last = self._probe()

    def _probe(self):
        """CPU seconds of (the pure-Python probe, the file probe or
        None)."""
        collecting = gc.isenabled()
        gc.disable()
        try:
            start = time.thread_time()
            _probe_work()
            cpu = time.thread_time() - start
            if not self._io_path:
                return cpu, None
            start = time.thread_time()
            for _ in range(3):
                with open(self._io_path + ".tmp", "w") as fh:
                    json.dump(_PROBE_DOC, fh, sort_keys=True, indent=1)
                os.replace(self._io_path + ".tmp", self._io_path)
            return cpu, time.thread_time() - start
        finally:
            if collecting:
                gc.enable()

    def factor(self):
        """The speed factor of the interval that just ended."""
        before, after = self._last, self._probe()
        self._last = after
        self.factors.append(self.NOMINAL / ((before[0] + after[0]) / 2))
        if self._io_path:
            self.io_factors.append(
                self.NOMINAL_IO / ((before[1] + after[1]) / 2))
        return self.factors[-1]


#: what the file probe writes: a small nested JSON document
_PROBE_DOC = {f"k{i}": {"a": i, "b": [i, i * 2, "x" * 8], "c": i / 7}
              for i in range(60)}


def _probe_work(rounds=2500):
    """Interpreter work shaped like the simulator's inner loops: dict
    probes, attribute reads, calls, integer math."""
    table, acc = {}, 0
    box = _Box()
    for i in range(rounds):
        key = i & 63
        table[key] = table.get(key, 0) + i
        box.value = box.step(i)
        acc += box.value ^ key
    return acc


class _Box:
    __slots__ = ("value",)

    def step(self, i):
        return (i * 7) & 1023
