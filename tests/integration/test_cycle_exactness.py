"""Cycle-exactness regression goldens.

``golden_pr1.json`` holds simulated cycle counts, HITM totals, and op
counters for one small workload per suite family (phoenix, parsec,
splash2x, boost, apps/leveldb).  The plain pthreads and full
tmi-protect numbers were captured *before* the interpreter fast paths
landed (owner micro-cache, type-keyed dispatch, batched ``AccessRun``,
translation cache, parallel grid runner), so this test pins the
property those optimizations promised: they change how fast the
simulator runs, never what it computes.  Every other system the grids
run (LASER's store-buffer override, Sheriff, the TMI stages, the
manual fix) is pinned on the same workloads wherever its cell runs ok,
so an engine refactor that drifts any one of them by a cycle fails.

If a change legitimately alters simulated behaviour (a cost-model or
coherence change, not an optimization), regenerate the file::

    PYTHONPATH=src python tests/integration/test_cycle_exactness.py

and explain the regeneration in the commit message.
"""

import json
from pathlib import Path

import pytest

GOLDEN_PATH = Path(__file__).with_name("golden_pr1.json")
GOLDENS = json.loads(GOLDEN_PATH.read_text())

#: The pinned workloads and the scale each runs at.
GOLDEN_SCALES = {"histogram": 0.12, "histogramfs": 0.25, "kmeans": 0.25,
                 "leveldb": 0.12, "radix": 0.12, "shptr-relaxed": 0.25,
                 "spinlockpool": 0.12, "swaptions": 0.12}

#: Systems pinned on every workload, also under the default schedule
#: policy.
POLICY_SYSTEMS = ("pthreads", "tmi-protect")

#: Systems pinned wherever their cell runs ok and validates (Sheriff
#: declines some workloads and breaks one).
GRID_SYSTEMS = ("laser", "manual", "sheriff-protect", "sheriff-detect",
                "tmi-alloc", "tmi-detect")

#: Fields every run must reproduce bit-for-bit.
EXACT_FIELDS = ("status", "cycles", "hitm_loads", "hitm_stores",
                "data_ops", "sync_ops", "validated")


#: Hint printed when goldens drift; keep it copy-pasteable.
REGEN_HINT = ("regenerate with: PYTHONPATH=src python "
              "tests/integration/test_cycle_exactness.py "
              "(and explain why in the commit message)")


def observe(name, system, scale, schedule=None):
    from repro.eval.runner import run_workload
    outcome = run_workload(name, system, scale=scale, schedule=schedule)
    result = outcome.result
    return {
        "status": outcome.status,
        "cycles": result.cycles if result else None,
        "hitm_loads": result.hitm_loads if result else None,
        "hitm_stores": result.hitm_stores if result else None,
        "data_ops": result.data_ops if result else None,
        "sync_ops": result.sync_ops if result else None,
        "validated": result.validated if result else None,
    }


@pytest.mark.parametrize("key", sorted(GOLDENS))
def test_workload_is_cycle_exact(key):
    golden = GOLDENS[key]
    name, system = key.split("/")
    got = observe(name, system, golden["scale"])
    mismatches = {field: (got[field], golden[field])
                  for field in EXACT_FIELDS
                  if got[field] != golden[field]}
    assert not mismatches, (
        f"{key} diverged from pre-optimization golden "
        f"(got, want): {mismatches}; {REGEN_HINT}")


@pytest.mark.parametrize("key", sorted(
    key for key in GOLDENS if key.split("/")[1] in POLICY_SYSTEMS))
def test_default_policy_is_byte_identical(key):
    """SchedulePolicy('default') must match the heap scheduler —
    pinned against the same goldens, so the per-access decision points
    the policy loop adds provably cost zero simulated cycles."""
    golden = GOLDENS[key]
    name, system = key.split("/")
    got = observe(name, system, golden["scale"],
                  schedule={"policy": "default"})
    mismatches = {field: (got[field], golden[field])
                  for field in EXACT_FIELDS
                  if got[field] != golden[field]}
    assert not mismatches, (
        f"{key} under the default schedule policy diverged from the "
        f"policy-less golden (got, want): {mismatches}")


def test_goldens_are_fresh():
    """Structural freshness: every golden entry carries every pinned
    field and matches the current workload registry, so a stale or
    hand-edited golden file fails loudly with the regeneration hint."""
    from repro.workloads import all_names
    from repro.workloads import get as get_workload
    assert GOLDENS, f"golden file is empty; {REGEN_HINT}"
    names = set(all_names())
    for key, golden in GOLDENS.items():
        name, system = key.split("/")
        assert name in names, (
            f"golden {key} references unknown workload; {REGEN_HINT}")
        missing = [field for field in EXACT_FIELDS + ("scale", "suite")
                   if field not in golden]
        assert not missing, (
            f"golden {key} is missing fields {missing}; {REGEN_HINT}")
        assert golden["suite"] == get_workload(name).suite, (
            f"golden {key} suite drifted; {REGEN_HINT}")
        assert golden["status"] == "ok" and golden["validated"], (
            f"golden {key} pins a failing run; {REGEN_HINT}")
        assert golden["scale"] == GOLDEN_SCALES.get(name), (
            f"golden {key} is off the pinned manifest; {REGEN_HINT}")
        assert system in POLICY_SYSTEMS + GRID_SYSTEMS, (
            f"golden {key} pins an unlisted system; {REGEN_HINT}")
    for name in GOLDEN_SCALES:
        for system in POLICY_SYSTEMS:
            assert f"{name}/{system}" in GOLDENS, (
                f"golden {name}/{system} is missing; {REGEN_HINT}")


def _regenerate():
    from repro.eval.runner import run_workload
    from repro.workloads import get as get_workload
    fresh = {}
    for name, scale in sorted(GOLDEN_SCALES.items()):
        for system in POLICY_SYSTEMS + GRID_SYSTEMS:
            entry = observe(name, system, scale)
            if system in GRID_SYSTEMS and not (
                    entry["status"] == "ok" and entry["validated"]):
                continue
            entry["scale"] = scale
            entry["suite"] = get_workload(name).suite
            fresh[f"{name}/{system}"] = entry
    GOLDEN_PATH.write_text(json.dumps(fresh, indent=1, sort_keys=True)
                           + "\n")
    print(f"rewrote {GOLDEN_PATH} ({len(fresh)} entries)")


if __name__ == "__main__":
    _regenerate()
