"""Plain-text table rendering and results persistence."""

import json
import os


def format_table(headers, rows, title=""):
    """Render an aligned text table (the harness's figure/table output)."""
    cells = [list(map(str, headers))]
    for row in rows:
        cells.append([_fmt(value) for value in row])
    widths = [max(len(row[i]) for row in cells)
              for i in range(len(headers))]
    lines = []
    if title:
        lines.append(title)
    lines.append("  ".join(h.ljust(w) for h, w in zip(cells[0], widths)))
    lines.append("  ".join("-" * w for w in widths))
    for row in cells[1:]:
        lines.append("  ".join(c.ljust(w) for c, w in zip(row, widths)))
    return "\n".join(lines)


def _fmt(value):
    if isinstance(value, float):
        return f"{value:.2f}"
    return str(value)


def precision_recall_table(rows, title=""):
    """Fig-4-style accuracy table for static-analysis predictions.

    ``rows`` are (workload, predicted, truth, tp, fp, fn, precision,
    recall) tuples, as produced by
    :func:`repro.analysis.ground_truth.precision_recall`.
    """
    return format_table(
        ["workload", "predicted", "ground-truth", "tp", "fp", "fn",
         "precision", "recall"],
        rows, title=title)


def geomean(values):
    """Geometric mean of positive values (the paper's averaging)."""
    values = [v for v in values if v and v > 0]
    if not values:
        return 0.0
    product = 1.0
    for v in values:
        product *= v
    return product ** (1.0 / len(values))


def results_dir():
    """results/ directory next to the repo root (created on demand)."""
    path = os.environ.get("REPRO_RESULTS_DIR",
                          os.path.join(os.getcwd(), "results"))
    os.makedirs(path, exist_ok=True)
    return path


def write_json(path, data, last=None):
    """Atomically write ``data`` as compact JSON; returns the text.

    The one writer of the service's state, store and checkpoint files:
    sorted keys and no ``indent``, so CPython's C encoder does the
    encoding (``python -m json.tool`` pretty-prints a file).  The text
    goes to ``<path>.tmp`` in one write and is renamed over ``path``,
    so a crash never leaves a half-written file.  The parent directory
    is created only when the first open finds it missing.  ``last`` is
    the text the caller wrote to ``path`` before: when the new text
    equals it, nothing is written.
    """
    text = json.dumps(data, sort_keys=True, separators=(",", ":"))
    if text == last:
        return text
    tmp = path + ".tmp"
    try:
        fh = open(tmp, "w")
    except FileNotFoundError:
        os.makedirs(os.path.dirname(path), exist_ok=True)
        fh = open(tmp, "w")
    with fh:
        fh.write(text)
    os.replace(tmp, path)
    return text


def save_text(name, text):
    """Persist a rendered table under results/."""
    path = os.path.join(results_dir(), name)
    with open(path, "w") as fh:
        fh.write(text if text.endswith("\n") else text + "\n")
    return path
