"""The repository benchmark: Table-1 grids plus a campaign stream.

Usage (from the repository root)::

    python3 perfbench/run.py --workload fig9-repair --seed 1 --trace 0
    python3 perfbench/run.py --workload all

``--trace 0`` measures the end-to-end metrics with nothing wrapped;
``--trace 1`` makes one untraced reference pass, then traced passes
that time each layer's public calls and report the per-layer metrics.
Every run checks every output against ``perfbench/pinned.json`` (see
``pin.py``).  The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``; the exit code is
non-zero when any output is wrong.  ``--workload all`` runs each
workload in its own interpreter and prints one combined line.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
import time

from common import (DECLARATION, PINNED, SRC, WORK, HostSpeed,
                    host_fingerprint, load_json, median, peak_rss_mb,
                    prepare_environment)

WORKLOADS = ("fig9-repair", "fig7-detect", "campaign-stream")
SETUP_REPEATS = 7


def declared(values, section):
    """``values`` as ``{name: {"value", "unit"}}`` in the order and with
    the units ``BENCHMARK.json`` declares for ``section``; a declared
    metric the run did not produce, or the reverse, is an error."""
    metrics = load_json(DECLARATION)[section]
    names = [metric["name"] for metric in metrics]
    if set(names) != set(values):
        raise SystemExit(f"{section} metrics differ from the declaration: "
                         f"{sorted(set(names) ^ set(values))}")
    return {metric["name"]: {"value": values[metric["name"]],
                             "unit": metric["unit"]} for metric in metrics}


def setup_seconds(workload, seed):
    """Median wall time of several cold set-ups in fresh interpreters,
    each scaled to nominal host speed, and the raw median."""
    probe = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                         "setup_probe.py")
    speed = HostSpeed()
    scaled, raw = [], []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        subprocess.run([sys.executable, probe, workload, str(seed)],
                       check=True, stdout=subprocess.DEVNULL)
        raw.append(time.perf_counter() - start)
        scaled.append(raw[-1] * speed.factor())
    return median(scaled), median(raw)


def run_one(args):
    prepare_environment()
    pinned = load_json(PINNED)[args.workload]
    if args.workload == "campaign-stream":
        from stream import StreamWorkload
        runner = StreamWorkload(args.seed, pinned)
    else:
        os.environ["REPRO_JOBS"] = "1"
        from grids import GridWorkload
        runner = GridWorkload(args.workload, pinned)
    if args.trace:
        from tracing import Tracer
        tracer = Tracer()
        attempted, failed, problems, values, info = runner.run_traced(
            args.seconds, tracer)
        metrics = declared(values, "per_layer")
        trace_path = os.path.join(
            WORK, f"trace-{args.workload}-{args.seed}.json")
        with open(trace_path, "w") as fh:
            json.dump({"workload": args.workload, "seed": args.seed,
                       "spans": tracer.export()}, fh)
        info["trace_file"] = os.path.relpath(trace_path)
    else:
        attempted, failed, problems, values, info = runner.run(
            args.seconds)
        values["peak_rss_mb"] = peak_rss_mb()
        values["setup_s"], info["raw_setup_s"] = setup_seconds(
            args.workload, args.seed)
        metrics = declared(values, "end_to_end")
    shutil.rmtree(os.path.join(WORK, "service"), ignore_errors=True)
    # leave no writeback behind to slow the next run's file creates
    os.sync()

    print(f"workload {args.workload}  seed {args.seed}  "
          f"trace {args.trace}")
    print("host " + json.dumps(host_fingerprint(), sort_keys=True))
    for key, value in sorted(info.items()):
        print(f"  {key}: {value}")
    for name, entry in metrics.items():
        print(f"  {name} = {entry['value']:.6g} {entry['unit']}")
    print(f"  error_rate = {failed / attempted:.6g} "
          f"({failed} failed of {attempted} checked outputs)")
    for problem in problems[:20]:
        print(f"  FAIL {problem}")
    correct = failed == 0
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


def run_all(args):
    """Each workload in a fresh interpreter; one combined result."""
    attempted = failed = 0
    metrics = {}
    for workload in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__),
             "--workload", workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        try:
            result = json.loads(lines[-1])
        except (IndexError, ValueError):
            print(f"{workload}: no result (exit {proc.returncode})")
            return 1
        attempted += result["attempted"]
        failed += result["failed"]
        for name, entry in result["metrics"].items():
            metrics[f"{workload}/{name}"] = entry
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if failed == 0 else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"error: no program source at {os.path.relpath(SRC)}/repro",
              file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
