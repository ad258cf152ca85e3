"""Checkpointed experiment grids: long sweeps that survive interruption.

A chaos campaign or a full-scale figure grid can run for hours; a
crashed host, an OOM-killed worker, or a ctrl-C should not throw away
the cells that already finished.  :func:`run_checkpointed` executes a
cell list through the hardened pool
(:func:`~repro.eval.parallel.run_cells_recorded`) in batches, writing a
versioned JSON checkpoint under ``results/checkpoints/`` after every
batch; re-running the same grid name skips every cell the checkpoint
already records as harness-``ok`` and re-attempts only the cells that
failed, timed out, or never ran.

The checkpoint stores JSON-serializable *summaries* (statuses, cycles,
fault counts), not live :class:`~repro.eval.runner.RunOutcome` objects:
a resumed cell comes back with ``from_checkpoint=True`` and its summary,
which is what grid-level reporting consumes.
"""

import json
import os
import time
import warnings
from dataclasses import dataclass, field

from repro.errors import CheckpointError
from repro.eval.parallel import (CELL_OK, job_count,
                                 run_cells_recorded)
from repro.eval.report import results_dir

#: Versioned checkpoint format tag.
CHECKPOINT_FORMAT = "repro-grid-checkpoint/1"


def cell_key(cell):
    """Stable identity of one cell: its kwargs, canonically encoded."""
    return json.dumps(cell, sort_keys=True, default=str)


def summarize_outcome(outcome):
    """JSON-serializable digest of one RunOutcome for the checkpoint."""
    if outcome is None:
        return None
    summary = {"workload": getattr(outcome, "workload", None),
               "system": getattr(outcome, "system", None),
               "status": getattr(outcome, "status", None),
               "detail": getattr(outcome, "detail", ""),
               "cycles": getattr(outcome, "cycles", None)}
    faults = getattr(outcome, "faults", None)
    if faults is not None:
        summary["fault_counts"] = dict(faults["counts"])
    return summary


@dataclass
class GridCell:
    """One grid cell's harness status plus its outcome summary."""

    cell: dict
    status: str
    retried: bool = False
    error: str = ""
    summary: object = None
    #: Live RunOutcome when the cell ran in this invocation; None for
    #: cells restored from the checkpoint.
    outcome: object = None
    from_checkpoint: bool = False
    #: Host wall-clock seconds attributed to this cell (its share of
    #: the batch it ran in); 0.0 for checkpoint restores.  Feeds the
    #: service watchdog's timing history — deliberately *not* part of
    #: the checkpoint, which stays deterministic.
    elapsed: float = 0.0


def checkpoint_path(name, out_dir=None):
    """Where grid ``name`` checkpoints (``REPRO_RESULTS_DIR`` aware)."""
    directory = out_dir or os.path.join(results_dir(), "checkpoints")
    return os.path.join(directory, f"{name}.json")


def load_checkpoint(path):
    """Load a checkpoint's cell entries; ``{}`` when none exists.

    A file that cannot be parsed (truncated by a crashed writer,
    hand-edited into invalid JSON) or that carries the wrong format tag
    raises :class:`~repro.errors.CheckpointError` naming the path —
    never a bare ``JSONDecodeError``.
    """
    if not os.path.exists(path):
        return {}
    with open(path) as fh:
        try:
            data = json.load(fh)
        except json.JSONDecodeError as exc:
            raise CheckpointError(
                path, f"truncated or corrupted JSON ({exc})") from exc
    if not isinstance(data, dict) \
            or data.get("format") != CHECKPOINT_FORMAT:
        tag = data.get("format") if isinstance(data, dict) else None
        raise CheckpointError(
            path, f"unsupported grid checkpoint format {tag!r} "
                  f"(expected {CHECKPOINT_FORMAT})")
    cells = data.get("cells", {})
    if not isinstance(cells, dict):
        raise CheckpointError(
            path, f"malformed cells table ({type(cells).__name__})")
    return cells


def _write_checkpoint(path, entries):
    os.makedirs(os.path.dirname(path), exist_ok=True)
    tmp = path + ".tmp"
    with open(tmp, "w") as fh:
        json.dump({"format": CHECKPOINT_FORMAT, "cells": entries},
                  fh, indent=1, sort_keys=True)
        fh.write("\n")
    os.replace(tmp, path)


def run_checkpointed(cells, name, jobs=None, timeout=None,
                     out_dir=None, fresh=False, fallback_fresh=False,
                     pool=None):
    """Run ``cells`` under checkpoint ``name``; returns
    :class:`GridCell` records in input order.

    Cells the checkpoint already records as harness-``ok`` are restored
    without re-running (``from_checkpoint=True``); everything else —
    new cells, earlier failures, earlier timeouts — runs through the
    hardened pool in batches, and the checkpoint is rewritten after
    every batch so an interruption loses at most one batch of work.
    ``fresh=True`` discards any existing checkpoint first.

    An unusable checkpoint (truncated JSON, wrong format tag) raises
    :class:`~repro.errors.CheckpointError` by default;
    ``fallback_fresh=True`` instead warns and resumes from nothing —
    the behavior long-running services want, where losing a resume is
    recoverable but crashing the campaign is not.

    ``pool`` (a :class:`~repro.eval.parallel.WorkerPool`) is passed to
    every batch; without one each batch opens and closes its own.
    """
    cells = list(cells)
    path = checkpoint_path(name, out_dir=out_dir)
    if fresh:
        entries = {}
    else:
        try:
            entries = load_checkpoint(path)
        except CheckpointError as exc:
            if not fallback_fresh:
                raise
            warnings.warn(f"{exc}; resuming from a fresh run",
                          RuntimeWarning, stacklevel=2)
            entries = {}
    results = [None] * len(cells)
    pending = []
    for index, cell in enumerate(cells):
        entry = entries.get(cell_key(cell))
        if entry is not None and entry.get("status") == CELL_OK:
            results[index] = GridCell(
                cell=dict(cell), status=entry["status"],
                retried=entry.get("retried", False),
                error=entry.get("error", ""),
                summary=entry.get("summary"), from_checkpoint=True)
        else:
            pending.append(index)

    batch = max(1, job_count(jobs)) * 2
    for base in range(0, len(pending), batch):
        chunk = pending[base:base + batch]
        start = time.monotonic()
        records = run_cells_recorded([cells[i] for i in chunk],
                                     jobs=jobs, timeout=timeout, pool=pool)
        share = (time.monotonic() - start) / max(1, len(chunk))
        for index, record in zip(chunk, records):
            summary = summarize_outcome(record.outcome)
            results[index] = GridCell(
                cell=dict(cells[index]), status=record.status,
                retried=record.retried, error=record.error,
                summary=summary, outcome=record.outcome,
                elapsed=share)
            entries[cell_key(cells[index])] = {
                "status": record.status, "retried": record.retried,
                "error": record.error, "summary": summary}
        _write_checkpoint(path, entries)
    if not pending:
        # nothing ran, but materialize the checkpoint for fresh grids
        _write_checkpoint(path, entries)
    return results


@dataclass
class GridReport:
    """Totals over one checkpointed grid run."""

    name: str
    records: list
    path: str = ""
    counts: dict = field(default_factory=dict)

    def summary_lines(self):
        """Totals plus one line per non-ok cell."""
        lines = [f"grid {self.name}: "
                 + ", ".join(f"{k}={v}"
                             for k, v in sorted(self.counts.items()))]
        for record in self.records:
            if record.status == CELL_OK and not record.retried:
                continue
            flags = []
            if record.retried:
                flags.append("retried")
            if record.from_checkpoint:
                flags.append("checkpointed")
            suffix = f" [{', '.join(flags)}]" if flags else ""
            lines.append(f"  {record.cell.get('name')}/"
                         f"{record.cell.get('system')}: "
                         f"{record.status}{suffix} {record.error}")
        return lines


def run_grid(cells, name, **kwargs):
    """:func:`run_checkpointed` plus a :class:`GridReport` wrapper."""
    records = run_checkpointed(cells, name, **kwargs)
    counts = {}
    for record in records:
        key = record.status + ("(resumed)" if record.from_checkpoint
                               else "")
        counts[key] = counts.get(key, 0) + 1
    return GridReport(name=name, records=records,
                      path=checkpoint_path(
                          name, out_dir=kwargs.get("out_dir")),
                      counts=counts)
