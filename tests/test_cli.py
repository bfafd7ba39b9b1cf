import json
import os
import subprocess
import sys

import numpy as np
import pytest

ENV = {**os.environ, "OPENBLAS_NUM_THREADS": "1"}


def run_cli(*args, cwd=None):
    return subprocess.run(
        [sys.executable, "-m", "segprior", *args],
        capture_output=True, text=True, cwd=cwd, env=ENV,
    )


def shrink_config(path, **engine_overrides):
    with open(path) as fh:
        cfg = json.load(fh)
    cfg["engine"].update(engine_overrides)
    with open(path, "w") as fh:
        json.dump(cfg, fh, indent=1)


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli")
    out = str(root / "data")
    res = run_cli("gen-data", "--out", out, "--n", "48", "--eval-n", "16",
                  "--seed", "3")
    assert res.returncode == 0, res.stderr
    cfg_path = os.path.join(out, "config.json")
    shrink_config(cfg_path, epochs_base=2, epochs_incremental=2, batch_size=12)
    return out, cfg_path


def test_gen_data_outputs(workspace):
    out, cfg_path = workspace
    assert os.path.exists(os.path.join(out, "train", "manifest.json"))
    assert os.path.exists(os.path.join(out, "eval", "manifest.json"))
    assert os.path.exists(os.path.join(out, "embeddings.json"))
    with open(cfg_path) as fh:
        cfg = json.load(fh)
    assert set(cfg) == {"registry", "embeddings_path", "schedule", "loss",
                        "engine", "memory"}
    assert cfg["registry"][0] == "bkg"


def test_full_pipeline_and_exit_codes(workspace):
    out, cfg_path = workspace
    res = run_cli("train-base", "--config", cfg_path, "--seed", "5")
    assert res.returncode == 0, res.stderr
    ckpt0 = os.path.join(out, "runs", "ckpt_step0_seed5.npz")
    assert os.path.exists(ckpt0)

    # validation error: running step 2 before step 1
    res = run_cli("train-incremental", "--config", cfg_path, "--step", "2",
                  "--seed", "5")
    assert res.returncode == 1
    assert "checkpoint" in res.stderr

    res = run_cli("train-incremental", "--config", cfg_path, "--step", "1",
                  "--seed", "5", "--lambda-rasp", "1.0")
    assert res.returncode == 0, res.stderr
    ckpt1 = os.path.join(out, "runs", "ckpt_step1_seed5.npz")
    assert os.path.exists(ckpt1)
    assert os.path.exists(os.path.join(out, "runs", "losses_step1_seed5.json"))

    res = run_cli("eval", "--config", cfg_path, "--checkpoint", ckpt1,
                  "--split", "eval")
    assert res.returncode == 0, res.stderr
    report = os.path.join(out, "runs", "report_ckpt_step1_seed5_eval.json")
    assert os.path.exists(report)
    trace = os.path.join(out, "runs", "metrics_trace_seed5_eval.json")
    assert os.path.exists(trace)

    svg = os.path.join(out, "curves.svg")
    res = run_cli("plot", "--trace", trace, "--out", svg)
    assert res.returncode == 0, res.stderr
    assert open(svg).read().startswith("<svg")


def test_memory_flags(workspace):
    out, cfg_path = workspace
    res = run_cli("train-base", "--config", cfg_path, "--seed", "6")
    assert res.returncode == 0, res.stderr
    res = run_cli("train-incremental", "--config", cfg_path, "--step", "1",
                  "--seed", "6", "--memory", "episodic")
    assert res.returncode == 0, res.stderr
    # external memory without a manifest is a validation error
    res = run_cli("train-incremental", "--config", cfg_path, "--step", "1",
                  "--seed", "6", "--memory", "external")
    assert res.returncode == 1
    assert "manifest" in res.stderr


def test_incremental_checkpoint_records_parent_hash(workspace):
    out, cfg_path = workspace
    res = run_cli("train-base", "--config", cfg_path, "--seed", "7")
    assert res.returncode == 0, res.stderr
    # the override changes the config hash; the step runs all the same
    res = run_cli("train-incremental", "--config", cfg_path, "--step", "1",
                  "--seed", "7", "--lambda-rasp", "0.5")
    assert res.returncode == 0, res.stderr
    runs = os.path.join(out, "runs")
    with np.load(os.path.join(runs, "ckpt_step0_seed7.npz")) as ckpt0:
        assert "__parent_config_hash__" not in ckpt0.files
        parent_hash = str(ckpt0["__config_hash__"])
    with np.load(os.path.join(runs, "ckpt_step1_seed7.npz")) as ckpt1:
        assert str(ckpt1["__parent_config_hash__"]) == parent_hash
        assert str(ckpt1["__config_hash__"]) != parent_hash


def test_bad_usage_and_missing_files():
    res = run_cli("train-base", "--config", "/nonexistent/config.json")
    assert res.returncode == 1
    res = run_cli("no-such-command")
    assert res.returncode == 1
    res = run_cli("gen-data", "--out", "/tmp/x", "--n", "-3")
    assert res.returncode == 1
    res = run_cli("plot", "--trace", "/nonexistent.json", "--out", "/tmp/x.svg")
    assert res.returncode == 1


@pytest.mark.parametrize("section, key, value", [
    ("engine", "arch", {"encoder_channels": [8, 16, 16, 32]}),
    ("engine", "seg_updates_encoder", True),
    ("loss", "kde_squared", True),
])
def test_removed_config_keys_rejected(workspace, tmp_path, section, key, value):
    """The network and its gradient paths are fixed; a config that still
    sets one of the old keys is a validation error naming the key."""
    _, cfg_path = workspace
    with open(cfg_path) as fh:
        cfg = json.load(fh)
    cfg[section][key] = value
    path = str(tmp_path / "config.json")
    with open(path, "w") as fh:
        json.dump(cfg, fh)
    res = run_cli("train-base", "--config", path, "--seed", "5")
    assert res.returncode == 1
    assert key in res.stderr


def test_checkpoint_must_hold_exactly_the_model_parameters(workspace, tmp_path):
    out, cfg_path = workspace
    res = run_cli("train-base", "--config", cfg_path, "--seed", "8")
    assert res.returncode == 0, res.stderr
    with np.load(os.path.join(out, "runs", "ckpt_step0_seed8.npz")) as data:
        members = {name: data[name] for name in data.files}

    def eval_with(name, **changed):
        path = str(tmp_path / name)
        np.savez(path, **changed)
        return run_cli("eval", "--config", cfg_path, "--checkpoint", path)

    # metadata the model does not read, such as an old __arch__, is ignored
    res = eval_with("meta.npz", **members, __arch__=np.array("{}"))
    assert res.returncode == 0, res.stderr
    missing = {k: v for k, v in members.items() if k != "enc.n3.gamma"}
    res = eval_with("missing.npz", **missing)
    assert res.returncode == 1
    assert "enc.n3.gamma" in res.stderr
    res = eval_with("extra.npz", **members, **{"enc.n0.gamma": np.ones(8, np.float32)})
    assert res.returncode == 1
    assert "enc.n0.gamma" in res.stderr
