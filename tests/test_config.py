import json
import os
import subprocess
import sys

import pytest

from segprior.config import (
    ExperimentConfig,
    MemoryConfig,
    ScheduleConfig,
    config_hash,
    load_config,
    save_config,
)
from segprior.engine import EngineConfig
from segprior.objectives import LossConfig


def make_config():
    return ExperimentConfig(
        registry=["bkg", "a", "b", "c", "d", "e", "f"],
        embeddings_path="embeddings.json",
        train_manifest="train/manifest.json",
        eval_manifest="eval/manifest.json",
        workdir="runs",
        schedule=ScheduleConfig(n_base=4, n_per_step=1, mode="disjoint"),
    )


def test_round_trip(tmp_path):
    cfg = make_config()
    path = str(tmp_path / "config.json")
    save_config(cfg, path)
    loaded = load_config(path)
    assert loaded.to_dict() == cfg.to_dict()
    assert config_hash(loaded) == config_hash(cfg)
    assert loaded.root == str(tmp_path)


def test_hash_sensitivity(tmp_path):
    cfg = make_config()
    h1 = config_hash(cfg)
    cfg.engine.seed += 1
    assert config_hash(cfg) != h1


_BUILTIN_HASH = """
import sys
sys.modules["_hashlib"] = None
sys.path.insert(0, sys.argv[1])
import hashlib
from test_config import make_config
from segprior.config import config_hash
assert "openssl" not in hashlib.sha256.__name__
print(config_hash(make_config()))
"""


def test_config_hash_is_pinned():
    """The config hash is the sha256 of the canonical serialization, cut to
    16 hex digits, whichever sha256 computes it: the one this process's
    hashlib has and CPython's builtin one, which the training commands use
    (``cli._without_openssl``)."""
    assert config_hash(make_config()) == "8b6be431aa9c7350"
    res = subprocess.run([sys.executable, "-c", _BUILTIN_HASH, os.path.dirname(__file__)],
                         capture_output=True, text=True)
    assert res.returncode == 0, res.stderr
    assert res.stdout.strip() == "8b6be431aa9c7350"


def test_schedule_and_registry_construction():
    cfg = make_config()
    sched = cfg.task_schedule()
    assert sched.n_steps == 3
    assert sched.mode == "disjoint"
    assert cfg.class_registry().background_name == "bkg"


def test_missing_section(tmp_path):
    cfg = make_config()
    path = str(tmp_path / "config.json")
    save_config(cfg, path)
    with open(path) as fh:
        raw = json.load(fh)
    del raw["loss"]
    with open(path, "w") as fh:
        json.dump(raw, fh)
    with pytest.raises(ValueError, match="loss"):
        load_config(path)


def test_memory_config_validation():
    with pytest.raises(ValueError):
        MemoryConfig(mode="holographic")


def test_resolve_paths(tmp_path):
    cfg = make_config()
    cfg.root = str(tmp_path)
    assert cfg.resolve("x/y.json") == str(tmp_path / "x" / "y.json")
    assert cfg.resolve("/abs/path.json") == "/abs/path.json"
    assert cfg.resolve(None) is None


@pytest.mark.parametrize("section, key, value", [
    ("loss", "lambda_rasp", float("nan")),
    ("loss", "lambda_rasp", float("inf")),
    ("loss", "tau", float("inf")),
    ("loss", "tau", float("nan")),
    ("engine", "lr_base", float("inf")),
    ("engine", "lr_incremental", float("nan")),
])
def test_non_finite_settings_rejected(section, key, value, tmp_path):
    """A NaN or infinite weight, temperature or learning rate used to load
    and fail mid-run or train without complaint; it is rejected at
    construction, and so at load (JSON's NaN and Infinity)."""
    cls = LossConfig if section == "loss" else EngineConfig
    with pytest.raises(ValueError, match=key):
        cls(**{key: value})
    cfg = make_config()
    path = str(tmp_path / "config.json")
    save_config(cfg, path)
    with open(path) as fh:
        raw = json.load(fh)
    raw[section][key] = value
    with open(path, "w") as fh:
        json.dump(raw, fh)
    with pytest.raises(ValueError, match=key):
        load_config(path)
