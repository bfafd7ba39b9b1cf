"""A write that fails partway leaves the previous file intact."""

import json
import pytest

from segprior import cli, engine, evalkit
from segprior.engine import Arch, SegModel, load_checkpoint, save_checkpoint
from segprior.evalkit import MetricsReport, append_trace, load_trace
from segprior.fileio import atomic_open


class Boom(Exception):
    pass


def fail_after_partial_write(fh):
    fh.write(b"partial" if "b" in fh.mode else "partial")
    fh.flush()
    raise Boom


def leftovers(tmp_path, keep):
    return sorted(p.name for p in tmp_path.iterdir() if p.name != keep)


def test_atomic_open_keeps_old_file_on_failure(tmp_path):
    path = str(tmp_path / "f.txt")
    with atomic_open(path) as fh:
        fh.write("old")
    with pytest.raises(Boom):
        with atomic_open(path) as fh:
            fail_after_partial_write(fh)
    with open(path) as fh:
        assert fh.read() == "old"
    assert leftovers(tmp_path, "f.txt") == []


def test_atomic_open_replaces_on_success(tmp_path):
    path = str(tmp_path / "f.bin")
    for payload in (b"first", b"second"):
        with atomic_open(path, "wb") as fh:
            fh.write(payload)
    with open(path, "rb") as fh:
        assert fh.read() == b"second"
    assert leftovers(tmp_path, "f.bin") == []


def test_save_checkpoint_failure_keeps_previous(tmp_path, monkeypatch):
    names = ("bkg", "a", "b")
    model = SegModel.init(Arch(), names, seed=1)
    path = str(tmp_path / "ckpt.npz")
    save_checkpoint(model, path, step=0, config_hash="first")
    with open(path, "rb") as fh:
        before = fh.read()
    monkeypatch.setattr(engine.np, "savez",
                        lambda fh, **_: fail_after_partial_write(fh))
    with pytest.raises(Boom):
        save_checkpoint(model, path, step=0, config_hash="second")
    monkeypatch.undo()
    with open(path, "rb") as fh:
        assert fh.read() == before
    _, _, chash = load_checkpoint(path)
    assert chash == "first"
    assert leftovers(tmp_path, "ckpt.npz") == []


def fake_report(step):
    return MetricsReport(step=step, config_hash="h",
                         per_class_iou={"bkg": 0.5, "a": 0.25}, miou_base=0.25,
                         miou_new=float("nan"), miou_all=0.375,
                         harmonic_mean=float("nan"))


def test_append_trace_failure_keeps_previous(tmp_path, monkeypatch):
    path = str(tmp_path / "trace.json")
    append_trace(path, fake_report(step=1))
    monkeypatch.setattr(evalkit.json, "dump",
                        lambda obj, fh, **_: fail_after_partial_write(fh))
    with pytest.raises(Boom):
        append_trace(path, fake_report(step=2))
    monkeypatch.undo()
    assert [r.step for r in load_trace(path)] == [1]
    assert leftovers(tmp_path, "trace.json") == []


def test_losses_json_failure_keeps_previous(tmp_path, monkeypatch):
    path = str(tmp_path / "losses.json")
    cli._write_losses(path, 0, 3, [0.5, 0.25])
    monkeypatch.setattr(cli.json, "dump",
                        lambda obj, fh, **_: fail_after_partial_write(fh))
    with pytest.raises(Boom):
        cli._write_losses(path, 0, 3, [0.125])
    monkeypatch.undo()
    with open(path) as fh:
        assert json.load(fh) == {"step": 0, "seed": 3, "loss": [0.5, 0.25]}
    assert leftovers(tmp_path, "losses.json") == []


def test_emit_report_failure_keeps_previous(tmp_path, monkeypatch):
    csv_path, json_path = str(tmp_path / "r.csv"), str(tmp_path / "r.json")
    evalkit.emit_report(fake_report(step=1), csv_path, json_path)
    monkeypatch.setattr(evalkit.json, "dump",
                        lambda obj, fh, **_: fail_after_partial_write(fh))
    with pytest.raises(Boom):
        evalkit.emit_report(fake_report(step=2), csv_path, json_path)
    monkeypatch.undo()
    with open(json_path) as fh:
        assert evalkit.report_from_dict(json.load(fh)).step == 1
    # the CSV, written first, is whole: the new report's rows, all of them
    with open(csv_path) as fh:
        rows = fh.read().splitlines()
    assert rows[0] == "step,class,iou" and len(rows) == 1 + 2 + 4
    assert all(row.startswith("2,") for row in rows[1:])
    assert leftovers(tmp_path, "r.json") == ["r.csv"]
