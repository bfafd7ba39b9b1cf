"""Evaluation metrics, report files, and the mIoU-curve plot.

Evaluation always scores the main segmentation head.  ``build_report``
takes the confusion matrix of ``engine.predict_dataset``, whose two shard
processes each read their own half of the samples one at a time (from disk,
for the CLI's ``synthdata.load_dataset`` sequence) and add their images'
label maps (argmax maps resized to mask resolution) into counts of their
own with ``confusion_accumulate``.
``miou_all`` averages over every class including background, ``miou_base``
excludes it, and classes absent from both prediction and truth are left out
of the means; ``miou_base`` and ``miou_new`` are undefined when every
class of their subset is absent, and so is ``harmonic_mean`` with either.

A report is the dict its JSON file holds: ``step``, ``config_hash``,
``per_class_iou`` (class name -> IoU) and the aggregates ``miou_base``,
``miou_new``, ``miou_all`` and ``harmonic_mean``.  None marks an undefined
value, in the dict as in the file (null) and the CSV (an empty cell).
"""

from __future__ import annotations

import json
import math
import os

import numpy as np

from .fileio import atomic_open, write_json


def confusion_accumulate(pred, truth, counts):
    """Add one count at counts[truth_pixel, pred_pixel] for every pixel."""
    pred = np.asarray(pred)
    truth = np.asarray(truth)
    if pred.shape != truth.shape:
        raise ValueError(f"shape mismatch: pred {pred.shape} vs truth {truth.shape}")
    n = counts.shape[0]
    flat = truth.ravel().astype(np.int64) * n + pred.ravel().astype(np.int64)
    counts += np.bincount(flat, minlength=n * n).reshape(n, n)
    return counts


def iou_per_class(counts):
    """TP / (TP + FP + FN) per class; NaN where the denominator is zero."""
    counts = np.asarray(counts)
    tp = np.diag(counts).astype(np.float64)
    denom = counts.sum(axis=0) + counts.sum(axis=1) - np.diag(counts)
    out = np.full(counts.shape[0], np.nan)
    nz = denom > 0
    out[nz] = tp[nz] / denom[nz]
    return out

def miou(counts, subset):
    """Mean IoU over a class-index subset, skipping undefined classes."""
    if np.any(np.asarray(counts) < 0):
        raise ValueError("confusion counts must be non-negative")
    values = iou_per_class(counts)
    picked = [values[c] for c in subset if not math.isnan(values[c])]
    if not picked:
        raise ValueError("no class in the subset has a nonzero denominator")
    return float(np.mean(picked))


def harmonic_mean(a, b):
    if a < 0 or b < 0:
        raise ValueError("harmonic mean needs non-negative inputs")
    if a + b == 0:
        raise ValueError("harmonic mean undefined at a = b = 0")
    return 2.0 * a * b / (a + b)


_AGGREGATES = ("miou_base", "miou_new", "miou_all", "harmonic_mean")


def build_report(counts, registry, base_classes, new_classes, step, config_hash):
    """The report dict: per-class IoUs and the four aggregates, None where
    undefined (an absent class; miou_base and harmonic_mean when no base
    class appears in the truth or the prediction; miou_new and
    harmonic_mean before step 1, or when no new class appears)."""
    values = iou_per_class(counts)

    def subset_miou(names):
        idx = [registry.index_of(n) for n in names]
        return None if np.isnan(values[idx]).all() else miou(counts, idx)

    miou_base, miou_new = subset_miou(base_classes), subset_miou(new_classes)
    hm = None
    if miou_base is not None and miou_new is not None and miou_base + miou_new > 0:
        hm = harmonic_mean(miou_base, miou_new)
    return {
        "step": step,
        "config_hash": config_hash,
        "per_class_iou": {name: None if math.isnan(v) else float(v)
                          for name, v in zip(registry.names, values)},
        "miou_base": miou_base,
        "miou_new": miou_new,
        "miou_all": miou(counts, range(len(registry))),
        "harmonic_mean": hm,
    }


def emit_report(report, csv_path, json_path):
    """Write the CSV table (per-class rows plus aggregates) and the JSON twin."""
    rows = [*report["per_class_iou"].items(), *((k, report[k]) for k in _AGGREGATES)]
    lines = ["step,class,iou"] + [
        f"{report['step']},{name},{'' if value is None else repr(value)}"
        for name, value in rows]
    # both files are written before either is renamed into place
    with atomic_open(csv_path, encoding="utf-8") as csv_fh, \
            atomic_open(json_path, encoding="utf-8") as json_fh:
        csv_fh.write("\n".join(lines) + "\n")
        json.dump(report, json_fh, indent=1, allow_nan=False)
        json_fh.write("\n")
    return csv_path, json_path


def append_trace(trace_path, report):
    """Insert a report into a per-step trace file, keyed and sorted by step."""
    reports = {}
    if os.path.exists(trace_path):
        reports = {entry["step"]: entry for entry in load_trace(trace_path)}
    reports[report["step"]] = report
    return write_json(trace_path, [reports[s] for s in sorted(reports)])


def _is_report(entry):
    if not (isinstance(entry, dict) and isinstance(entry.get("per_class_iou"), dict)
            and all(k in entry for k in _AGGREGATES)):
        return False
    values = [*entry["per_class_iou"].values(), *(entry[k] for k in _AGGREGATES)]
    return (type(entry.get("step")) is int and isinstance(entry.get("config_hash"), str)
            and all(v is None or type(v) in (int, float) and math.isfinite(v)
                    for v in values))


def load_trace(trace_path):
    """A trace file's reports.  The file comes from outside the program, so
    anything but a list of reports raises ValueError naming it."""
    with open(trace_path, "r", encoding="utf-8") as fh:
        try:
            reports = json.load(fh)
        except ValueError as exc:
            raise ValueError(f"invalid trace {trace_path}: {exc}") from None
    if not isinstance(reports, list) or not all(map(_is_report, reports)):
        raise ValueError(f"invalid trace {trace_path}: not a list of reports with "
                         "an int step, a string config_hash and numeric or null IoUs")
    return reports


# ---------------------------------------------------------------------------
# SVG plot of per-step mIoU curves
# ---------------------------------------------------------------------------

_SERIES = (("miou_base", "base", "#d62728"),
           ("miou_new", "new", "#2ca02c"),
           ("miou_all", "all", "#1f77b4"))


WIDTH, HEIGHT = 640, 420


def plot_trace_svg(reports, out_path):
    """Self-contained SVG with axes, legend and one polyline per series;
    None values leave their points out."""
    if not reports:
        raise ValueError("empty metrics trace")
    reports = sorted(reports, key=lambda r: r["step"])
    steps = [r["step"] for r in reports]
    lo, hi = min(steps), max(steps)
    span = max(hi - lo, 1)
    ml, mr, mt, mb = 56, 24, 28, 44
    pw, ph = WIDTH - ml - mr, HEIGHT - mt - mb

    def sx(step):
        return ml + (step - lo) / span * pw

    def sy(value):
        return mt + (1.0 - value) * ph

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" '
        f'height="{HEIGHT}" viewBox="0 0 {WIDTH} {HEIGHT}">',
        '<rect width="100%" height="100%" fill="white"/>',
        f'<line x1="{ml}" y1="{mt + ph}" x2="{ml + pw}" y2="{mt + ph}" '
        'stroke="black" stroke-width="1"/>',
        f'<line x1="{ml}" y1="{mt}" x2="{ml}" y2="{mt + ph}" '
        'stroke="black" stroke-width="1"/>',
    ]
    for k in range(6):
        v = k / 5.0
        y = sy(v)
        parts.append(f'<line x1="{ml - 4}" y1="{y:.1f}" x2="{ml}" y2="{y:.1f}" '
                     'stroke="black" stroke-width="1"/>')
        parts.append(f'<text x="{ml - 8}" y="{y + 4:.1f}" font-size="11" '
                     f'text-anchor="end">{v:.1f}</text>')
    for step in steps:
        x = sx(step)
        parts.append(f'<line x1="{x:.1f}" y1="{mt + ph}" x2="{x:.1f}" '
                     f'y2="{mt + ph + 4}" stroke="black" stroke-width="1"/>')
        parts.append(f'<text x="{x:.1f}" y="{mt + ph + 18}" font-size="11" '
                     f'text-anchor="middle">{step}</text>')
    parts.append(f'<text x="{ml + pw / 2:.0f}" y="{HEIGHT - 8}" font-size="12" '
                 'text-anchor="middle">incremental step</text>')
    parts.append(f'<text x="14" y="{mt + ph / 2:.0f}" font-size="12" '
                 f'text-anchor="middle" transform="rotate(-90 14 {mt + ph / 2:.0f})">'
                 'mIoU</text>')
    for key, label, color in _SERIES:
        points = [
            f"{sx(r['step']):.1f},{sy(r[key]):.1f}"
            for r in reports if r[key] is not None
        ]
        if points:
            parts.append(f'<polyline fill="none" stroke="{color}" '
                         f'stroke-width="2" points="{" ".join(points)}"/>')
    for i, (key, label, color) in enumerate(_SERIES):
        y = mt + 14 + i * 16
        x = ml + pw - 86
        parts.append(f'<line x1="{x}" y1="{y - 4}" x2="{x + 22}" y2="{y - 4}" '
                     f'stroke="{color}" stroke-width="2"/>')
        parts.append(f'<text x="{x + 28}" y="{y}" font-size="12">{label}</text>')
    parts.append("</svg>")
    with atomic_open(out_path, encoding="utf-8") as fh:
        fh.write("\n".join(parts) + "\n")
    return out_path
