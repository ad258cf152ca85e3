"""Regenerate ``pinned.json``, the outputs every benchmark run checks.

Run it only when a change is meant to alter simulated results, and
commit the new file with that change::

    python3 perfbench/pin.py

Grid workloads pin one digest per cell plus the rendered table's sha;
campaign-stream pins the result payload of every cell its mix can
produce, computed here by running each cell directly rather than
through the service.
"""

import json
import os

from common import PINNED, prepare_environment, sha256_json


def main():
    prepare_environment()
    os.environ["REPRO_JOBS"] = "1"
    from repro.eval.grid import summarize_outcome
    from repro.eval.parallel import run_cells_recorded
    from repro.service.store import result_payload

    from grids import GRIDS, GridWorkload
    from stream import SCALE, pool_cells

    pinned = {}
    for name, (figure, scale) in GRIDS.items():
        grid_pass = GridWorkload(name, pinned=None).run_pass(check=True)
        if grid_pass.error:
            raise SystemExit(f"{name}: {grid_pass.error}")
        pinned[name] = {"figure": figure, "scale": scale,
                        "headline": grid_pass.headline,
                        "table_sha256": grid_pass.table_sha,
                        "cells": grid_pass.pinned_digests}
    cells = {}
    for cell in pool_cells():
        record = run_cells_recorded([cell], jobs=1)[0]
        if record.status != "ok":
            raise SystemExit(f"pool cell {cell}: {record.error}")
        payload = result_payload(record.status,
                                 summarize_outcome(record.outcome),
                                 record.error)
        cells[sha256_json(cell)] = sha256_json(payload)
    pinned["campaign-stream"] = {"scale": SCALE, "cells": cells}
    with open(PINNED, "w") as fh:
        json.dump(pinned, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
