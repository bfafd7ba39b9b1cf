"""Per-layer metrics computed from the spans that tracer.py writes.

A span metric is the median time per call of one span name, with its call
count beside it as ``<span>.calls``.  A busy time is the total time spent
inside a layer's spans.  Self time is a span's duration minus the time its
direct child spans cover; spans never overlap their siblings because the
program runs one thread of Python.
"""

import json
import statistics
from collections import defaultdict
from typing import NamedTuple

CONVS = ("enc.0", "enc.1", "enc.2", "enc.3", "head", "loc.0", "loc.1", "loc.2")

# Counted over every traced command of a pass, set-up commands included,
# because data generation and checkpoint I/O mostly happen in set-up.  All
# other spans are counted over the timed command alone.
SETUP_SPANS = ("synthdata.generate_dataset", "synthdata.load_dataset",
               "engine.save_checkpoint", "engine.load_checkpoint")


def _per_call_rows():
    """(metric, span, unit) for every median-per-call metric."""
    rows = []
    for conv in CONVS:
        for direction in ("fwd", "bwd"):
            span = f"layers.conv.{conv}.{direction}"
            rows.append((f"{span}_ms", span, "ms"))
    for layer in ("norm", "act"):
        for direction in ("fwd", "bwd"):
            span = f"layers.{layer}.{direction}"
            rows.append((f"{span}_ms", span, "ms"))
    rows.append(("layers.sgd.step_ms", "layers.sgd.step", "ms"))
    for span in ("kernels.im2col_k3", "kernels.col2im_k3",
                 "engine.Snapshot.predict", "engine.save_checkpoint",
                 "engine.load_checkpoint", "objectives.cls_loss_grad",
                 "objectives.rasp_loss_grad", "simprior.argmax_label_map",
                 "simprior.similarity_maps", "memory.populate_episodic",
                 "memory.mix_batch", "evalkit.confusion_accumulate",
                 "kernels.nearest_resize"):
        rows.append((f"{span}.ms", span, "ms"))
    for span in ("engine.predict_dataset", "synthdata.generate_dataset",
                 "synthdata.load_dataset"):
        rows.append((f"{span}.s", span, "s"))
    return rows


PER_CALL = _per_call_rows()

# Every per-layer metric the traced pass reports: (name, unit, better).
METRICS = []
for _metric, _span, _unit in PER_CALL:
    METRICS.append((_metric, _unit, "lower"))
    METRICS.append((f"{_span}.calls", "count", "lower"))
METRICS += [
    ("layers.conv.busy_s", "s", "lower"),
    ("layers.conv.gflop_per_image", "GFLOP", "lower"),
    ("kernels.cols_mb_per_image", "MB", "lower"),
    ("layers.norm.busy_s", "s", "lower"),
    ("layers.act.busy_s", "s", "lower"),
    ("engine.incremental_batch.p50_ms", "ms", "lower"),
    ("engine.incremental_batch.p90_ms", "ms", "lower"),
    ("engine.incremental_batch.calls", "count", "lower"),
    ("engine.incremental_batch.self_ms", "ms", "lower"),
    ("engine.batch_wait_ms", "ms", "lower"),
    ("engine.prep_s", "s", "lower"),
    ("trace.overhead", "ratio", "lower"),
    ("blas2.images_per_s", "img/s", "higher"),
]
UNITS = {name: unit for name, unit, _ in METRICS}


class Span(NamedTuple):
    name: str
    t0: float
    t1: float
    parent: int
    info: float

    @property
    def dur(self):
        return self.t1 - self.t0


def load_spans(path):
    """The spans of one traced command, plus the span names it could not wrap."""
    with open(path, "r", encoding="utf-8") as fh:
        raw = json.load(fh)
    names = raw["names"]
    spans = [Span(names[n], t0, t1, parent, info)
             for n, t0, t1, parent, info in raw["spans"]]
    return spans, raw["missing"]


def durations(timed, setup):
    """Span durations by name, with SETUP_SPANS counted over set-up as well."""
    durs = defaultdict(list)
    for s in timed:
        durs[s.name].append(s.dur)
    for s in setup:
        if s.name in SETUP_SPANS:
            durs[s.name].append(s.dur)
    return durs


def _median(values, scale):
    return statistics.median(values) * scale if values else 0.0


def compute(timed, setup, images):
    """Per-layer metrics of one traced pass.

    timed: spans of the timed command; setup: spans of the set-up commands;
    images: the images the timed command processed (for per-image counts).
    """
    durs = durations(timed, setup)
    info = defaultdict(float)
    for s in timed:
        info[s.name] += s.info or 0.0
    out = {}
    for metric, span, unit in PER_CALL:
        out[metric] = _median(durs[span], 1e3 if unit == "ms" else 1.0)
        out[f"{span}.calls"] = len(durs[span])
    conv_spans = [n for n in durs if n.startswith("layers.conv.")]
    out["layers.conv.busy_s"] = sum(sum(durs[n]) for n in conv_spans)
    out["layers.conv.gflop_per_image"] = \
        sum(info[n] for n in conv_spans) / 1e9 / images
    out["kernels.cols_mb_per_image"] = info["kernels.im2col_k3"] / 1e6 / images
    for layer in ("norm", "act"):
        out[f"layers.{layer}.busy_s"] = \
            sum(durs[f"layers.{layer}.fwd"]) + sum(durs[f"layers.{layer}.bwd"])
    out.update(_engine_metrics(timed))
    return out


def _engine_metrics(spans):
    children = defaultdict(list)
    for s in spans:
        if s.parent >= 0:
            children[s.parent].append(s)
    batches = [i for i, s in enumerate(spans) if s.name == "engine.incremental_batch"]
    batch_ms = [spans[i].dur * 1e3 for i in batches]
    self_ms = [(spans[i].dur - sum(c.dur for c in children[i])) * 1e3
               for i in batches]
    waits, preps = [], []
    for i, step in enumerate(spans):
        if step.name != "engine.incremental_step":
            continue
        mine = [c for c in children[i] if c.name == "engine.incremental_batch"]
        sgd = [c for c in children[i] if c.name == "layers.sgd.step"]
        if mine:
            preps.append(mine[0].t0 - step.t0)
        if len(sgd) == len(mine):
            # batch period minus the batch itself and its optimizer step
            waits += [(b.t0 - a.t0 - a.dur - s.dur) * 1e3
                      for a, b, s in zip(mine, mine[1:], sgd)]
    p90 = statistics.quantiles(batch_ms, n=10)[8] if len(batch_ms) > 1 \
        else _median(batch_ms, 1.0)
    return {
        "engine.incremental_batch.p50_ms": _median(batch_ms, 1.0),
        "engine.incremental_batch.p90_ms": p90,
        "engine.incremental_batch.calls": len(batch_ms),
        "engine.incremental_batch.self_ms": _median(self_ms, 1.0),
        "engine.batch_wait_ms": _median(waits, 1.0),
        "engine.prep_s": _median(preps, 1.0),
    }
