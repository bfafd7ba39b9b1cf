"""Evaluation metrics, report files, and the mIoU-curve plot.

Evaluation always scores the main segmentation head.  ``evaluate_model``
takes the confusion matrix of ``engine.predict_dataset``, whose two shard
processes each add their images' label maps (argmax maps resized to mask
resolution) into counts of their own with ``confusion_accumulate``.
``miou_all`` averages over every class including background, ``miou_base``
excludes it, and classes absent from both prediction and truth are left out
of the means.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass, field

import numpy as np

from .fileio import atomic_open


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


@dataclass
class MetricsReport:
    step: int
    config_hash: str
    per_class_iou: dict                  # name -> IoU in [0,1] or NaN
    miou_base: float
    miou_new: float                      # NaN when no new classes exist yet
    miou_all: float
    harmonic_mean: float                 # NaN when miou_new is NaN

    def aggregates(self):
        return {
            "miou_base": self.miou_base,
            "miou_new": self.miou_new,
            "miou_all": self.miou_all,
            "harmonic_mean": self.harmonic_mean,
        }


def build_report(counts, registry, base_classes, new_classes, step, config_hash):
    values = iou_per_class(counts)
    per_class = {name: float(values[registry.index_of(name)])
                 for name in registry.names}
    base_idx = [registry.index_of(n) for n in base_classes]
    miou_base = miou(counts, base_idx)
    miou_all = miou(counts, range(len(registry)))
    if new_classes:
        miou_new = miou(counts, [registry.index_of(n) for n in new_classes])
        hm = harmonic_mean(miou_base, miou_new) if miou_base + miou_new > 0 \
            else float("nan")
    else:
        miou_new = float("nan")
        hm = float("nan")
    return MetricsReport(step, config_hash, per_class, miou_base, miou_new,
                         miou_all, hm)


def _nan_to_none(x):
    return None if isinstance(x, float) and math.isnan(x) else x


def _none_to_nan(x):
    return float("nan") if x is None else float(x)


def report_to_dict(report):
    return {
        "step": report.step,
        "config_hash": report.config_hash,
        "per_class_iou": {k: _nan_to_none(v) for k, v in report.per_class_iou.items()},
        "miou_base": _nan_to_none(report.miou_base),
        "miou_new": _nan_to_none(report.miou_new),
        "miou_all": _nan_to_none(report.miou_all),
        "harmonic_mean": _nan_to_none(report.harmonic_mean),
    }


def report_from_dict(d):
    return MetricsReport(
        step=int(d["step"]),
        config_hash=str(d["config_hash"]),
        per_class_iou={k: _none_to_nan(v) for k, v in d["per_class_iou"].items()},
        miou_base=_none_to_nan(d["miou_base"]),
        miou_new=_none_to_nan(d["miou_new"]),
        miou_all=_none_to_nan(d["miou_all"]),
        harmonic_mean=_none_to_nan(d["harmonic_mean"]),
    )


def emit_report(report, csv_path, json_path):
    """Write the CSV table (per-class rows plus aggregates) and the JSON twin."""
    lines = ["step,class,iou"]
    for name, value in report.per_class_iou.items():
        cell = "" if math.isnan(value) else repr(value)
        lines.append(f"{report.step},{name},{cell}")
    for key, value in report.aggregates().items():
        cell = "" if math.isnan(value) else repr(value)
        lines.append(f"{report.step},{key},{cell}")
    # both files are written before either is renamed into place
    with atomic_open(csv_path, encoding="utf-8") as csv_fh, \
            atomic_open(json_path, encoding="utf-8") as json_fh:
        csv_fh.write("\n".join(lines) + "\n")
        json.dump(report_to_dict(report), json_fh, indent=1, allow_nan=False)
        json_fh.write("\n")
    return csv_path, json_path


def append_trace(trace_path, report):
    """Insert a report into a per-step trace file, keyed and sorted by step."""
    reports = {}
    if os.path.exists(trace_path):
        for entry in load_trace(trace_path):
            reports[entry.step] = entry
    reports[report.step] = report
    payload = [report_to_dict(reports[s]) for s in sorted(reports)]
    with atomic_open(trace_path, encoding="utf-8") as fh:
        json.dump(payload, fh, indent=1, allow_nan=False)
        fh.write("\n")
    return trace_path


def load_trace(trace_path):
    with open(trace_path, "r", encoding="utf-8") as fh:
        return [report_from_dict(d) for d in json.load(fh)]


# ---------------------------------------------------------------------------
# SVG plot of per-step mIoU curves
# ---------------------------------------------------------------------------

_SERIES = (("miou_base", "base", "#d62728"),
           ("miou_new", "new", "#2ca02c"),
           ("miou_all", "all", "#1f77b4"))


def plot_trace_svg(reports, out_path, width=640, height=420):
    """Self-contained SVG with axes, legend and one polyline per series."""
    if not reports:
        raise ValueError("empty metrics trace")
    reports = sorted(reports, key=lambda r: r.step)
    steps = [r.step for r in reports]
    lo, hi = min(steps), max(steps)
    span = max(hi - lo, 1)
    ml, mr, mt, mb = 56, 24, 28, 44
    pw, ph = width - ml - mr, height - mt - mb

    def sx(step):
        return ml + (step - lo) / span * pw

    def sy(value):
        return mt + (1.0 - value) * ph

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
        f'height="{height}" viewBox="0 0 {width} {height}">',
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
    parts.append(f'<text x="{ml + pw / 2:.0f}" y="{height - 8}" font-size="12" '
                 'text-anchor="middle">incremental step</text>')
    parts.append(f'<text x="14" y="{mt + ph / 2:.0f}" font-size="12" '
                 f'text-anchor="middle" transform="rotate(-90 14 {mt + ph / 2:.0f})">'
                 'mIoU</text>')
    for key, label, color in _SERIES:
        points = [
            f"{sx(r.step):.1f},{sy(getattr(r, key)):.1f}"
            for r in reports if not math.isnan(getattr(r, key))
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


def evaluate_model(model, samples, registry, base_classes, new_classes, step,
                   config_hash):
    """Confusion over a dataset from main-head predictions, as a report."""
    from . import engine

    counts = engine.predict_dataset(model, samples, registry)
    return build_report(counts, registry, base_classes, new_classes, step,
                        config_hash)
