import json
import xml.etree.ElementTree as ET

import numpy as np
import pytest

from segprior import engine
from segprior.class_semantics import ClassRegistry
from segprior.evalkit import (
    build_report,
    confusion_accumulate,
    emit_report,
    harmonic_mean,
    load_trace,
    append_trace,
    miou,
    plot_trace_svg,
)
from segprior.protocol import build_schedule
from segprior.synthdata import default_taxonomy, generate_dataset


def brute_confusion(pred, truth, n):
    counts = np.zeros((n, n), dtype=np.int64)
    for t, p in zip(truth.ravel(), pred.ravel()):
        counts[t, p] += 1
    return counts


def set_iou(pred, truth, c):
    p = {tuple(i) for i in np.argwhere(pred == c)}
    t = {tuple(i) for i in np.argwhere(truth == c)}
    if not p and not t:
        return None
    return len(p & t) / len(p | t)


def test_confusion_accumulate_basic():
    counts = np.zeros((3, 3), dtype=np.int64)
    grid = np.array([[0, 1], [2, 1]])
    confusion_accumulate(grid, grid, counts)
    assert counts.sum() == 4
    assert np.array_equal(np.diag(counts), [1, 2, 1])
    confusion_accumulate(np.array([[1]]), np.array([[2]]), counts)
    assert counts[2, 1] == 1
    with pytest.raises(ValueError):
        confusion_accumulate(np.zeros((2, 2)), np.zeros((3, 2)), counts)


def test_confusion_matches_brute_force():
    rng = np.random.default_rng(0)
    pred = rng.integers(0, 4, (8, 8))
    truth = rng.integers(0, 4, (8, 8))
    counts = np.zeros((4, 4), dtype=np.int64)
    confusion_accumulate(pred, truth, counts)
    assert np.array_equal(counts, brute_confusion(pred, truth, 4))


def test_confusion_associative():
    rng = np.random.default_rng(1)
    a_pred, a_truth = rng.integers(0, 3, (2, 6, 6))
    b_pred, b_truth = rng.integers(0, 3, (2, 6, 6))
    c1 = np.zeros((3, 3), dtype=np.int64)
    confusion_accumulate(a_pred, a_truth, c1)
    confusion_accumulate(b_pred, b_truth, c1)
    c2 = np.zeros((3, 3), dtype=np.int64)
    confusion_accumulate(b_pred, b_truth, c2)
    confusion_accumulate(a_pred, a_truth, c2)
    assert np.array_equal(c1, c2)


def test_miou_values():
    perfect = np.diag([5, 3, 2]).astype(np.int64)
    assert miou(perfect, [0, 1, 2]) == 1.0
    counts = np.array([[2, 1], [1, 2]], dtype=np.int64)
    # class 0: TP=2, FP=1, FN=1 -> 0.5
    assert miou(counts, [0]) == pytest.approx(0.5)
    with pytest.raises(ValueError):
        miou(np.zeros((2, 2), dtype=np.int64), [0, 1])


def test_miou_matches_set_oracle():
    rng = np.random.default_rng(2)
    for _ in range(20):
        pred = rng.integers(0, 3, (8, 8))
        truth = rng.integers(0, 3, (8, 8))
        counts = np.zeros((3, 3), dtype=np.int64)
        confusion_accumulate(pred, truth, counts)
        expected = [set_iou(pred, truth, c) for c in range(3)]
        expected = [v for v in expected if v is not None]
        assert miou(counts, [0, 1, 2]) == pytest.approx(np.mean(expected), abs=1e-12)


def test_miou_permutation_invariant():
    rng = np.random.default_rng(3)
    pred = rng.integers(0, 4, (10, 10))
    truth = rng.integers(0, 4, (10, 10))
    counts = np.zeros((4, 4), dtype=np.int64)
    confusion_accumulate(pred, truth, counts)
    assert miou(counts, [0, 1, 2, 3]) == pytest.approx(miou(counts, [3, 1, 0, 2]))


def test_harmonic_mean():
    # paper arithmetic: 64.4/21.3 -> 32.0 within table rounding
    assert abs(harmonic_mean(64.4, 21.3) - 32.0) < 0.05
    assert harmonic_mean(0.37, 0.37) == pytest.approx(0.37)
    assert harmonic_mean(0.5, 0.0) == 0.0
    with pytest.raises(ValueError):
        harmonic_mean(0.0, 0.0)
    rng = np.random.default_rng(4)
    for _ in range(30):
        a, b = rng.uniform(0.01, 1.0, 2)
        hm = harmonic_mean(a, b)
        assert hm <= (a + b) / 2 + 1e-12
        if abs(a - b) > 1e-9:
            assert hm < (a + b) / 2


def fake_report(step=1, new_null=False):
    return {
        "step": step,
        "config_hash": "deadbeef",
        "per_class_iou": {"bkg": 0.9, "a": 0.8, "b": None, "c": 0.5},
        "miou_base": 0.65,
        "miou_new": None if new_null else 0.5,
        "miou_all": 0.73,
        "harmonic_mean": None if new_null else 0.565,
    }


def test_emit_report_rows(tmp_path):
    report = fake_report()
    csv_path, json_path = emit_report(report, str(tmp_path / "r.csv"),
                                      str(tmp_path / "r.json"))
    lines = open(csv_path).read().strip().split("\n")
    assert lines[0] == "step,class,iou"
    assert len(lines) == 1 + len(report["per_class_iou"]) + 4
    assert any(line.startswith("1,miou_base,") for line in lines)
    assert "1,b," in lines


def test_report_round_trip(tmp_path):
    """The JSON file and the trace load back equal to the report dict, with
    None still None."""
    report = fake_report(new_null=True)
    _, json_path = emit_report(report, str(tmp_path / "r.csv"), str(tmp_path / "r.json"))
    with open(json_path, encoding="utf-8") as fh:
        back = json.load(fh)
    assert back == report
    assert back["miou_new"] is None and back["per_class_iou"]["b"] is None
    trace = str(tmp_path / "trace.json")
    append_trace(trace, report)
    assert load_trace(trace) == [report]


@pytest.mark.parametrize("text", [json.dumps(trace) for trace in [
    {},
    [1],
    [{**fake_report(), "per_class_iou": [0.5]}],
    [{**fake_report(), "step": "1"}],
    [{**fake_report(), "config_hash": 7}],
    [{**fake_report(), "miou_all": "0.7"}],
    [{**fake_report(), "per_class_iou": {"a": True}}],
    [{**fake_report(), "per_class_iou": {"a": float("nan")}}],
    [{k: v for k, v in fake_report().items() if k != "harmonic_mean"}],
]] + ["[{"])
def test_load_trace_rejects_malformed_traces(tmp_path, text):
    path = tmp_path / "trace.json"
    path.write_text(text, encoding="utf-8")
    with pytest.raises(ValueError, match="trace.json"):
        load_trace(str(path))


def test_build_report_from_counts():
    registry = ClassRegistry(["bkg", "a", "b"])
    counts = np.array([
        [8, 1, 1],
        [2, 6, 0],
        [0, 0, 4],
    ], dtype=np.int64)
    report = build_report(counts, registry, ["a"], ["b"], step=2, config_hash="x")
    assert report["per_class_iou"]["a"] == pytest.approx(6 / 9)
    assert report["miou_new"] == pytest.approx(4 / 5)
    assert report["miou_all"] == pytest.approx(np.mean([8 / 12, 6 / 9, 4 / 5]))
    assert report["harmonic_mean"] == pytest.approx(
        harmonic_mean(6 / 9, 4 / 5))


def test_build_report_with_no_new_class_present():
    """A step whose new classes appear in neither the truth nor the
    prediction has no mIoU(new) and no harmonic mean; the rest of the
    report is defined."""
    registry = ClassRegistry(["bkg", "a", "b", "c"])
    counts = np.array([
        [8, 1, 0, 0],
        [2, 6, 0, 0],
        [0, 0, 0, 0],
        [0, 0, 0, 0],
    ], dtype=np.int64)
    report = build_report(counts, registry, ["a"], ["b", "c"], step=1, config_hash="x")
    assert report["miou_new"] is None and report["harmonic_mean"] is None
    assert report["miou_base"] == pytest.approx(6 / 9)
    assert report["miou_all"] == pytest.approx(np.mean([8 / 11, 6 / 9]))
    assert report["per_class_iou"]["b"] is None and report["per_class_iou"]["c"] is None


def test_build_report_with_no_base_class_present():
    """A split in which no base class appears in the truth or the
    prediction has no mIoU(base) and no harmonic mean; mIoU(new) and
    mIoU(all) are defined."""
    registry = ClassRegistry(["bkg", "a", "b"])
    counts = np.array([
        [8, 0, 1],
        [0, 0, 0],
        [2, 0, 6],
    ], dtype=np.int64)
    report = build_report(counts, registry, ["a"], ["b"], step=1, config_hash="x")
    assert report["miou_base"] is None and report["harmonic_mean"] is None
    assert report["per_class_iou"]["a"] is None
    assert report["miou_new"] == pytest.approx(6 / 9)
    assert report["miou_all"] == pytest.approx(np.mean([8 / 11, 6 / 9]))


def test_trace_append_idempotent(tmp_path):
    path = str(tmp_path / "trace.json")
    append_trace(path, fake_report(step=1))
    append_trace(path, fake_report(step=2))
    append_trace(path, fake_report(step=1))  # re-append same step
    trace = load_trace(path)
    assert [r["step"] for r in trace] == [1, 2]


def test_svg_structure(tmp_path):
    reports = [fake_report(step=s) for s in range(1, 7)]
    path = plot_trace_svg(reports, str(tmp_path / "curves.svg"))
    root = ET.parse(path).getroot()
    ns = "{http://www.w3.org/2000/svg}"
    polylines = root.findall(f"{ns}polyline")
    assert len(polylines) == 3
    for poly in polylines:
        assert len(poly.attrib["points"].split()) == 6
    assert root.findall(f"{ns}line")  # axes and ticks exist
    labels = {t.text for t in root.findall(f"{ns}text")}
    assert {"base", "new", "all"} <= labels


def test_evaluate_model_counts_every_predicted_map():
    """The eval report, build_report over engine.predict_dataset's counts,
    equals build_report over counts added map by map, each map from one
    image run alone through the encoder and the head."""
    tax = default_taxonomy()
    sched = build_schedule(tax.registry, 4, 2, "overlap")
    base = engine.SegModel.init(sched.channel_names(0), seed=2)
    model = engine.extend_head(base, sched.classes_at_step(1), seed=3)
    samples = generate_dataset(tax, 9, seed=12)
    new = list(sched.classes_at_step(1))
    report = build_report(engine.predict_dataset(model, samples, tax.registry),
                          tax.registry, sched.base_classes, new, 1, "cafe")
    counts = np.zeros((len(tax.registry),) * 2, dtype=np.int64)
    lut = np.array([tax.registry.index_of(n) for n in model.class_names])
    for sample in samples:
        x = engine.image_to_input(sample.image, model.dtype)[None]
        logits, _ = model.head.forward(model.encoder.forward(x)[0])
        pred = engine.nearest_resize(lut[np.argmax(logits[0], axis=2)],
                                     *sample.dense_mask.shape)
        confusion_accumulate(pred, sample.dense_mask, counts)
    assert counts.sum() == sum(s.dense_mask.size for s in samples)
    want = build_report(counts, tax.registry, sched.base_classes, new, 1, "cafe")
    assert report == want


REPORT_CSV = """\
step,class,iou
{s},bkg,0.6666666666666666
{s},a,0.6666666666666666
{s},b,0.8
{s},c,
{s},miou_base,0.6666666666666666
{s},miou_new,{new}
{s},miou_all,0.7111111111111111
{s},harmonic_mean,{hm}
"""

REPORT_JSON = """\
{{
{i} "step": {s},
{i} "config_hash": "cafe",
{i} "per_class_iou": {{
{i}  "bkg": 0.6666666666666666,
{i}  "a": 0.6666666666666666,
{i}  "b": 0.8,
{i}  "c": null
{i} }},
{i} "miou_base": 0.6666666666666666,
{i} "miou_new": {new},
{i} "miou_all": 0.7111111111111111,
{i} "harmonic_mean": {hm}
{i}}}"""


def test_report_and_trace_bytes(tmp_path):
    """The exact bytes of both report files and the trace.  Class c is in
    neither truth nor prediction, so its IoU is null; step 0 has no new
    classes, so miou_new and harmonic_mean are null."""
    registry = ClassRegistry(["bkg", "a", "b", "c"])
    counts = np.array([[8, 1, 1, 0],
                       [2, 6, 0, 0],
                       [0, 0, 4, 0],
                       [0, 0, 0, 0]], dtype=np.int64)
    trace = str(tmp_path / "trace.json")
    cases = {1: (["b"], "0.8", "0.7272727272727272"), 0: ([], "", "")}
    for step, (new, miou_new, hm) in cases.items():
        report = build_report(counts, registry, ["a"], new, step, "cafe")
        csv_path, json_path = emit_report(report, str(tmp_path / f"r{step}.csv"),
                                          str(tmp_path / f"r{step}.json"))
        with open(csv_path, encoding="utf-8") as fh:
            assert fh.read() == REPORT_CSV.format(s=step, new=miou_new, hm=hm)
        with open(json_path, encoding="utf-8") as fh:
            assert fh.read() == REPORT_JSON.format(
                i="", s=step, new=miou_new or "null", hm=hm or "null") + "\n"
        append_trace(trace, report)
    with open(trace, encoding="utf-8") as fh:
        assert fh.read() == "[\n" + ",\n".join(
            " " + REPORT_JSON.format(i=" ", s=s, new=cases[s][1] or "null",
                                     hm=cases[s][2] or "null")
            for s in (0, 1)) + "\n]\n"
