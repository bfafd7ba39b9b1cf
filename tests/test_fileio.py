"""A write that fails partway leaves the previous file intact."""

import json
import pytest

from segprior import class_semantics, cli, engine, evalkit, fileio, synthdata
from segprior import config as config_mod
from segprior.class_semantics import EmbeddingTable, load_embeddings, save_embeddings
from segprior.engine import SegModel, load_checkpoint, save_checkpoint
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
    model = SegModel.init(names, seed=1)
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
    """A failure while writing the JSON leaves both files at the old report."""
    csv_path, json_path = str(tmp_path / "r.csv"), str(tmp_path / "r.json")
    evalkit.emit_report(fake_report(step=1), csv_path, json_path)
    monkeypatch.setattr(evalkit.json, "dump",
                        lambda obj, fh, **_: fail_after_partial_write(fh))
    with pytest.raises(Boom):
        evalkit.emit_report(fake_report(step=2), csv_path, json_path)
    monkeypatch.undo()
    with open(json_path) as fh:
        assert evalkit.report_from_dict(json.load(fh)).step == 1
    with open(csv_path) as fh:
        rows = fh.read().splitlines()
    assert rows[0] == "step,class,iou" and len(rows) == 1 + 2 + 4
    assert all(row.startswith("1,") for row in rows[1:])
    assert leftovers(tmp_path, "r.json") == ["r.csv"]


def test_plot_trace_svg_failure_keeps_previous(tmp_path, monkeypatch):
    path = str(tmp_path / "trace.svg")
    evalkit.plot_trace_svg([fake_report(step=1)], path)
    with open(path, "rb") as fh:
        before = fh.read()
    real_open = open

    class PartialFile:
        def __init__(self, fh):
            self.fh, self.mode = fh, fh.mode

        def write(self, data):
            fail_after_partial_write(self.fh)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            self.fh.close()

    monkeypatch.setattr(fileio, "open", lambda *a, **k: PartialFile(real_open(*a, **k)),
                        raising=False)
    with pytest.raises(Boom):
        evalkit.plot_trace_svg([fake_report(step=1), fake_report(step=2)], path)
    monkeypatch.undo()
    with open(path, "rb") as fh:
        assert fh.read() == before
    assert leftovers(tmp_path, "trace.svg") == []


def test_save_config_failure_keeps_previous(tmp_path, monkeypatch):
    path = str(tmp_path / "config.json")
    cfg = config_mod.ExperimentConfig(
        registry=["bkg", "a", "b"], embeddings_path="e.json",
        train_manifest="train.json", eval_manifest="", workdir="runs",
        schedule=config_mod.ScheduleConfig(n_base=1, n_per_step=1))
    config_mod.save_config(cfg, path)
    cfg.engine.seed = 99
    monkeypatch.setattr(config_mod.json, "dump",
                        lambda obj, fh, **_: fail_after_partial_write(fh))
    with pytest.raises(Boom):
        config_mod.save_config(cfg, path)
    monkeypatch.undo()
    assert config_mod.load_config(path).engine.seed == 0
    assert leftovers(tmp_path, "config.json") == []


def test_save_embeddings_failure_keeps_previous(tmp_path, monkeypatch):
    path = str(tmp_path / "emb.json")
    save_embeddings(EmbeddingTable.from_mapping({"bkg": [1.0, 0.0]}), path)
    monkeypatch.setattr(class_semantics.json, "dump",
                        lambda obj, fh, **_: fail_after_partial_write(fh))
    with pytest.raises(Boom):
        save_embeddings(EmbeddingTable.from_mapping({"bkg": [0.0, 2.0]}), path)
    monkeypatch.undo()
    assert list(load_embeddings(path).vector("bkg")) == [1.0, 0.0]
    assert leftovers(tmp_path, "emb.json") == []


def test_export_dataset_manifest_failure_keeps_previous(tmp_path, monkeypatch):
    tax = synthdata.default_taxonomy()
    path, = synthdata.export_dataset(tax, [(str(tmp_path), 1, 1)], image_size=40)
    with open(path, "rb") as fh:
        before = fh.read()
    monkeypatch.setattr(synthdata.json, "dump",
                        lambda obj, fh, **_: fail_after_partial_write(fh))
    with pytest.raises(Boom):
        synthdata.export_dataset(tax, [(str(tmp_path), 2, 1)], image_size=40)
    monkeypatch.undo()
    with open(path, "rb") as fh:
        assert fh.read() == before
    assert len(synthdata.load_dataset(path)[0]) == 1
    assert leftovers(tmp_path, "manifest.json") == ["images", "masks"]
