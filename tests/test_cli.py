import json
import os
import shutil
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


def test_external_memory_without_a_manifest_concerns_train_incremental_only(
        workspace, capsys):
    """A config of external memory with no manifest: train-base and eval,
    which read no memory, exit 0, and train-incremental exits 1 asking for
    the manifest."""
    from segprior import cli

    out, cfg_path = workspace
    with open(cfg_path) as fh:
        cfg = json.load(fh)
    cfg["memory"]["mode"] = "external"
    assert cfg["memory"]["manifest"] is None
    path = os.path.join(out, "external.json")
    with open(path, "w") as fh:
        json.dump(cfg, fh)
    ckpt = os.path.join(out, "runs", "ckpt_step0_seed44.npz")
    assert cli.main(["train-base", "--config", path, "--seed", "44"]) == 0
    assert cli.main(["eval", "--config", path, "--checkpoint", ckpt]) == 0
    capsys.readouterr()
    assert cli.main(["train-incremental", "--config", path, "--step", "1",
                     "--seed", "44"]) == 1
    assert "external memory needs --memory-manifest" in capsys.readouterr().err


def test_a_non_finite_loss_exits_2_and_writes_nothing(workspace, capsys, monkeypatch):
    """A NaN weight makes the first batch's loss non-finite: train-base and
    train-incremental exit 2 naming the term and the epoch, and write no
    checkpoint and no losses."""
    from segprior import cli, engine

    out, cfg_path = workspace
    runs = os.path.join(out, "runs")
    assert cli.main(["train-base", "--config", cfg_path, "--seed", "45"]) == 0
    real_base, real_step = engine.base_train, engine.incremental_step

    def poisoned_base(model, *args):
        model.head.W[0, 0, 0, 0] = np.nan
        return real_base(model, *args)

    def poisoned_step(state, pool):
        state.model.localizer.params()["loc.2.W"][0, 0, 0, -1] = np.nan
        return real_step(state, pool)

    monkeypatch.setattr(engine, "base_train", poisoned_base)
    monkeypatch.setattr(engine, "incremental_step", poisoned_step)
    capsys.readouterr()
    assert cli.main(["train-base", "--config", cfg_path, "--seed", "46"]) == 2
    assert ("runtime failure: RuntimeError: non-finite base loss at epoch 0"
            in capsys.readouterr().err)
    assert cli.main(["train-incremental", "--config", cfg_path, "--step", "1",
                     "--seed", "45"]) == 2
    assert ("runtime failure: RuntimeError: non-finite cls loss at epoch 0"
            in capsys.readouterr().err)
    for name in ("ckpt_step0_seed46.npz", "losses_step0_seed46.json",
                 "ckpt_step1_seed45.npz", "losses_step1_seed45.json"):
        assert not os.path.exists(os.path.join(runs, name)), name


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


def test_step_and_parent_checks_exit_1(workspace):
    """train-incremental trains step s from the step s - 1 checkpoint of a
    3-step schedule: a step outside [1, 2] or a parent whose class list is
    not the schedule's exits 1."""
    out, cfg_path = workspace
    runs = os.path.join(out, "runs")
    res = run_cli("train-base", "--config", cfg_path, "--seed", "9")
    assert res.returncode == 0, res.stderr
    for step in ("0", "4"):
        res = run_cli("train-incremental", "--config", cfg_path, "--step", step,
                      "--seed", "9")
        assert res.returncode == 1, res.stderr
        assert f"--step {step} is not in [1, 2]" in res.stderr, res.stderr
    # the step-0 model under the names of steps 1 and 2
    for parent in (1, 2):
        shutil.copy(os.path.join(runs, "ckpt_step0_seed9.npz"),
                    os.path.join(runs, f"ckpt_step{parent}_seed9.npz"))
    res = run_cli("train-incremental", "--config", cfg_path, "--step", "3", "--seed", "9")
    assert res.returncode == 1 and "--step 3 is not in [1, 2]" in res.stderr, res.stderr
    res = run_cli("train-incremental", "--config", cfg_path, "--step", "2", "--seed", "9")
    assert res.returncode == 1 and "class list" in res.stderr, res.stderr
    assert not os.path.exists(os.path.join(runs, "losses_step2_seed9.json"))


@pytest.mark.parametrize("step", ["0", "-1", "n_steps"])
def test_train_incremental_rejects_a_step_outside_the_schedule(workspace, capsys, step):
    """A step outside [1, n_steps - 1] exits 1 naming the range, before a
    parent checkpoint is looked for: step 0 is train-base's, and no step
    n_steps exists."""
    from segprior import cli, config

    _, cfg_path = workspace
    n_steps = config.load_config(cfg_path).task_schedule().n_steps
    step = str(n_steps) if step == "n_steps" else step
    capsys.readouterr()
    assert cli.main(["train-incremental", "--config", cfg_path, "--step", step,
                     "--seed", "12"]) == 1
    err = capsys.readouterr().err
    assert f"--step {step} is not in [1, {n_steps - 1}]" in err, err
    assert "missing checkpoint" not in err


@pytest.mark.parametrize("name", ["disc_striped", "cross_striped"])
def test_external_memory_of_a_class_not_old_exits_1(workspace, tmp_path, name):
    """A step-1 external memory row naming a class of step 1 or of step 2
    is a malformed input: exit 1, naming the row."""
    out, cfg_path = workspace
    res = run_cli("train-base", "--config", cfg_path, "--seed", "10")
    assert res.returncode == 0, res.stderr
    image = os.path.join(out, "train", "images", "img_00000.ppm")
    manifest = tmp_path / "memory.tsv"
    manifest.write_text(f"disc_solid\t{image}\n{name}\t{image}\n")
    res = run_cli("train-incremental", "--config", cfg_path, "--step", "1", "--seed", "10",
                  "--memory", "external", "--memory-manifest", str(manifest))
    assert res.returncode == 1, res.stderr
    assert f"memory.tsv:2: class '{name}' is not an old class" in res.stderr


def test_external_memory_image_of_another_size_exits_1(workspace, tmp_path):
    """A step-1 external memory row whose image is 40 px against the step's
    64 px images is a malformed input: exit 1, with the step's pool naming
    the row's bank position and both shapes."""
    from segprior.netpbm import read_ppm, write_ppm

    out, cfg_path = workspace
    res = run_cli("train-base", "--config", cfg_path, "--seed", "11")
    assert res.returncode == 0, res.stderr
    image = os.path.join(out, "train", "images", "img_00000.ppm")
    small = str(tmp_path / "small.ppm")
    write_ppm(small, read_ppm(image)[:40, :40])
    manifest = tmp_path / "memory.tsv"
    manifest.write_text(f"disc_solid\t{image}\ndisc_solid\t{small}\n")
    res = run_cli("train-incremental", "--config", cfg_path, "--step", "1", "--seed", "11",
                  "--memory", "external", "--memory-manifest", str(manifest))
    assert res.returncode == 1, res.stderr
    assert ("memory entry 1 has an image of shape (40, 40, 3), but the step's "
            "first image has (64, 64, 3)") in res.stderr, res.stderr
    assert not os.path.exists(os.path.join(out, "runs", "ckpt_step1_seed11.npz"))


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
    ("loss", "alpha", 0.5),
    ("loss", "epsilon_ngwp", 1e-5),
    ("loss", "gamma_focal", 3.0),
    ("loss", "lambda_focal", 0.01),
    ("engine", "momentum", 0.9),
    ("memory", "capacity", 100),
    ("memory", "ratio", 0.25),
    ("engine", "dtype", "float32"),
])
def test_removed_config_keys_rejected(workspace, tmp_path, section, key, value):
    """The network, its gradient paths, its float type and the training
    recipe's pooling, pseudo-label, momentum and memory constants are
    fixed; a config that still sets one of the old keys, even to its fixed
    value, is a validation error naming the key."""
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
    # the old format, with a bias on each conv that feeds a ChannelNorm, is
    # rejected with no shim
    biases = {"enc.3.b": np.zeros(32, np.float32), "loc.0.b": np.zeros(16, np.float32),
              "loc.1.b": np.zeros(16, np.float32)}
    assert not biases.keys() & members.keys()
    res = eval_with("biases.npz", **members, **biases)
    assert res.returncode == 1
    for name in biases:
        assert name in res.stderr, res.stderr
    # every metadata member that is read must be there, and __dtype__ must
    # name a float type
    for name in ("__class_names__", "__step__", "__config_hash__", "__dtype__"):
        res = eval_with(f"no{name}.npz", **{k: v for k, v in members.items() if k != name})
        assert res.returncode == 1, res.stderr
        assert name in res.stderr
    res = eval_with("float16.npz", **{**members, "__dtype__": np.array("float16")})
    assert res.returncode == 1, res.stderr
    assert "float16" in res.stderr
    # a parameter of the right name and the wrong shape: enc.0.W as it was
    # before the space-to-depth input, a stride-2 conv on 3 channels
    res = eval_with("shape.npz", **{**members, "enc.0.W": np.zeros((3, 3, 3, 8), np.float32)})
    assert res.returncode == 1, res.stderr
    assert "enc.0.W" in res.stderr and "(3, 3, 3, 8)" in res.stderr


@pytest.mark.parametrize("key, value", [
    ("batch_size", 0),
    ("batch_size", -4),
    ("epochs_base", 0),
    ("epochs_incremental", 0),
    ("lr_base", -1.0),
    ("lr_incremental", 0.0),
    ("momentum", 1.5),
    ("momentum", -0.1),
    ("batch_size", 2.5),
    ("batch_size", "8"),
    ("batch_size", True),
    ("epochs_base", 1.5),
    ("lr_base", "0.1"),
    ("momentum", None),
    ("seed", 1.5),
    ("lr_base", float("inf")),
    ("lr_incremental", float("nan")),
])
def test_bad_engine_values_rejected(workspace, tmp_path, key, value):
    """Each of these used to fail mid-run (exit 1 or 2) or train without
    complaint; the config is now rejected up front, naming the field.
    momentum is no longer a setting, so a config that sets it is rejected
    whatever its value."""
    _, cfg_path = workspace
    path = str(tmp_path / "config.json")
    shutil.copy(cfg_path, path)
    shrink_config(path, **{key: value})
    res = run_cli("train-base", "--config", path, "--seed", "5")
    assert res.returncode == 1, res.stderr
    assert key in res.stderr


def test_eval_without_an_eval_split(tmp_path):
    out = str(tmp_path / "data")
    res = run_cli("gen-data", "--out", out, "--n", "24", "--eval-n", "0", "--seed", "3")
    assert res.returncode == 0, res.stderr
    cfg_path = os.path.join(out, "config.json")
    with open(cfg_path) as fh:
        assert json.load(fh)["engine"]["eval_manifest"] == ""
    shrink_config(cfg_path, epochs_base=1, batch_size=12)
    res = run_cli("train-base", "--config", cfg_path, "--seed", "5")
    assert res.returncode == 0, res.stderr
    ckpt = os.path.join(out, "runs", "ckpt_step0_seed5.npz")
    # the empty manifest name must not resolve to the config's directory
    res = run_cli("eval", "--config", cfg_path, "--checkpoint", ckpt)
    assert res.returncode == 1, res.stderr
    assert "eval manifest not found" in res.stderr
    res = run_cli("eval", "--config", cfg_path, "--checkpoint", ckpt, "--split", "train")
    assert res.returncode == 0, res.stderr


def test_eval_has_no_seed_flag(workspace):
    """eval names its outputs after --checkpoint; a --seed would be ignored."""
    _, cfg_path = workspace
    res = run_cli("eval", "--config", cfg_path, "--checkpoint", "ckpt.npz",
                  "--seed", "1")
    assert res.returncode == 1
    assert "--seed" in res.stderr


@pytest.mark.parametrize("section, key, value", [
    ("schedule", "n_base", "4"),
    ("schedule", "ordering_seed", "x"),
    ("loss", "lambda_rasp", True),
    ("schedule", "shots", 2.5),
    (None, "registry", "abc"),
    ("loss", "tau", float("inf")),
    ("loss", "lambda_rasp", float("nan")),
])
def test_wrongly_typed_config_values_rejected(workspace, tmp_path, section, key, value):
    """Each of these exited 2 mid-run or loaded without complaint; the config
    is now rejected at load, naming the field."""
    _, cfg_path = workspace
    with open(cfg_path) as fh:
        cfg = json.load(fh)
    (cfg[section] if section else cfg)[key] = value
    path = str(tmp_path / "config.json")
    with open(path, "w") as fh:
        json.dump(cfg, fh)
    res = run_cli("train-base", "--config", path, "--seed", "5")
    assert res.returncode == 1, res.stderr
    assert key in res.stderr


@pytest.mark.parametrize("value", ["nan", "inf"])
def test_non_finite_lambda_rasp_override_exits_1(workspace, value):
    """--lambda-rasp nan used to start training and exit 2 at the first
    non-finite loss; the override is rejected before any work."""
    _, cfg_path = workspace
    res = run_cli("train-incremental", "--config", cfg_path, "--step", "1",
                  "--seed", "12", "--lambda-rasp", value)
    assert res.returncode == 1, res.stderr
    assert "lambda_rasp" in res.stderr


def untrained_checkpoint(cfg_path, path):
    """A step-0 checkpoint of an untrained model for the config's schedule."""
    from segprior import config, engine

    names = config.load_config(cfg_path).task_schedule().channel_names(0)
    engine.save_checkpoint(engine.SegModel.init(names, seed=0), path, step=0,
                           config_hash="h")
    return path


REPORT = {"step": 0, "config_hash": "h", "per_class_iou": {"bkg": 0.5},
          "miou_base": 0.5, "miou_new": None, "miou_all": 0.5, "harmonic_mean": None}


_IMPORT_PROBE = """
import json, sys
import numpy
before = set(sys.modules)
from segprior import cli
status = cli.main(sys.argv[1:])
print(json.dumps([status, sorted(set(sys.modules) - before)]))
"""


def test_eval_loads_neither_numpy_random_nor_openssl(workspace, tmp_path):
    """eval fills a model skeleton from the checkpoint and reports the
    checkpoint's own config hash, so it draws no random number and hashes
    nothing: it loads neither numpy.random (which pulls in OpenSSL through
    secrets and hmac) nor hashlib beyond what `import numpy` alone loads."""
    _, cfg_path = workspace
    ckpt = untrained_checkpoint(cfg_path, str(tmp_path / "ckpt_step0_seed0.npz"))
    res = subprocess.run([sys.executable, "-c", _IMPORT_PROBE, "eval",
                          "--config", cfg_path, "--checkpoint", ckpt],
                         capture_output=True, text=True, env=ENV)
    assert res.returncode == 0, res.stderr
    status, added = json.loads(res.stdout.splitlines()[-1])
    assert status == 0
    loaded = [m for m in added if m.split(".")[:2] == ["numpy", "random"]
              or m in ("hashlib", "_hashlib", "hmac", "secrets")]
    assert not loaded, loaded


_OPENSSL_PROBE = """
import json, sys
from segprior import cli
status = cli.main(sys.argv[1:])
try:
    with open("/proc/self/maps") as fh:
        maps = [line for line in fh if "libcrypto" in line]
except FileNotFoundError:     # no procfs: not Linux
    maps = None
print(json.dumps([status, sys.modules.get("_hashlib") is not None, maps,
                  "numpy.random" in sys.modules, "hashlib" in sys.modules]))
"""


def test_training_commands_load_no_openssl(tmp_path):
    """gen-data, train-base and train-incremental load numpy.random, which
    imports hashlib, and the training commands hash their config, yet none
    of them loads OpenSSL's binding, _hashlib: on Linux no libcrypto is
    mapped."""
    out = str(tmp_path / "data")
    cfg_path = os.path.join(out, "config.json")
    commands = [("gen-data", "--out", out, "--n", "8", "--eval-n", "0"),
                ("train-base", "--config", cfg_path),
                ("train-incremental", "--config", cfg_path, "--step", "1",
                 "--memory", "episodic")]
    for argv in commands:
        res = subprocess.run([sys.executable, "-c", _OPENSSL_PROBE, *argv],
                             capture_output=True, text=True, env=ENV)
        assert res.returncode == 0, res.stderr
        status, hashlib_binding, maps, numpy_random, hashlib = json.loads(
            res.stdout.splitlines()[-1])
        assert status == 0, argv
        assert numpy_random and hashlib, argv
        assert not hashlib_binding, argv
        if sys.platform.startswith("linux"):
            assert maps == [], argv
        if argv[0] == "gen-data":
            shrink_config(cfg_path, epochs_base=1, epochs_incremental=1, batch_size=4)


@pytest.mark.parametrize("trace", [
    {},
    [1],
    [{**REPORT, "per_class_iou": [0.5]}],
    [{**REPORT, "step": "one"}],
], ids=["object", "list-of-numbers", "list-valued-per-class-iou", "string-step"])
def test_malformed_trace_exits_1(workspace, tmp_path, trace):
    """plot of a malformed trace, and eval appending to one, exit 1 naming
    the file."""
    _, cfg_path = workspace
    path = str(tmp_path / "metrics_trace_seed0_eval.json")
    with open(path, "w") as fh:
        json.dump(trace, fh)
    res = run_cli("plot", "--trace", path, "--out", str(tmp_path / "curves.svg"))
    assert res.returncode == 1, res.stderr
    assert path in res.stderr
    ckpt = untrained_checkpoint(cfg_path, str(tmp_path / "ckpt_step0_seed0.npz"))
    res = run_cli("eval", "--config", cfg_path, "--checkpoint", ckpt)
    assert res.returncode == 1, res.stderr
    assert path in res.stderr


def with_train_manifest(workspace, tmp_path, text):
    """A copy of the workspace config whose train split is a manifest of
    the given text; returns (config path, manifest path)."""
    out, cfg_path = workspace
    path = str(tmp_path / "manifest.json")
    with open(path, "w") as fh:
        fh.write(text)
    with open(cfg_path) as fh:
        cfg = json.load(fh)
    cfg["engine"]["train_manifest"] = path
    cfg["embeddings_path"] = os.path.join(out, "embeddings.json")
    cfg_copy = str(tmp_path / "config.json")
    with open(cfg_copy, "w") as fh:
        json.dump(cfg, fh)
    return cfg_copy, path


@pytest.mark.parametrize("member", ["classes", "samples", "mask"])
def test_malformed_manifest_exits_1(workspace, tmp_path, member):
    out, _ = workspace
    with open(os.path.join(out, "train", "manifest.json")) as fh:
        manifest = json.load(fh)
    del (manifest["samples"][3] if member == "mask" else manifest)[member]
    cfg_copy, path = with_train_manifest(workspace, tmp_path, json.dumps(manifest))
    res = run_cli("train-base", "--config", cfg_copy)
    assert res.returncode == 1, res.stderr
    assert path in res.stderr and repr(member) in res.stderr


def _mistyped(manifest, case):
    """The manifest with one member of the wrong type, or not JSON at all."""
    if case == "not-json":
        return json.dumps(manifest)[:-2]
    if case == "manifest-list":
        return json.dumps([manifest])
    if case == "classes-string":
        manifest["classes"] = "bkg"
    elif case == "samples-int":
        manifest["samples"] = 5
    elif case == "row-list":
        manifest["samples"][2] = ["img.ppm", "mask.pgm", []]
    elif case == "present-string":
        manifest["samples"][2]["present"] = "disc_solid"
    elif case == "present-numbers":
        manifest["samples"][2]["present"] = [1, 2]
    elif case == "image-null":
        manifest["samples"][2]["image"] = None
    return json.dumps(manifest)


@pytest.mark.parametrize("case, what", [pytest.param(case, what, id=case) for case, what in [
    ("not-json", "invalid manifest"),
    ("manifest-list", "the manifest is not an object"),
    ("classes-string", "'classes' is not a list of strings"),
    ("samples-int", "'samples' is not a list"),
    ("row-list", "row 2 is not an object"),
    ("present-string", "row 2's 'present' is not a list of strings"),
    ("present-numbers", "row 2's 'present' is not a list of strings"),
    ("image-null", "row 2's 'image' and 'mask' are not strings"),
]])
def test_mistyped_manifest_exits_1(workspace, tmp_path, capsys, case, what):
    """A manifest that is not JSON, or holds a member of the wrong type, is
    a malformed input: exit 1, naming the file and the member or row."""
    from segprior import cli

    out, _ = workspace
    with open(os.path.join(out, "train", "manifest.json")) as fh:
        manifest = json.load(fh)
    cfg_copy, path = with_train_manifest(workspace, tmp_path, _mistyped(manifest, case))
    capsys.readouterr()
    assert cli.main(["train-base", "--config", cfg_copy]) == 1
    err = capsys.readouterr().err
    assert path in err and what in err, err


@pytest.mark.parametrize("content", ["truncated", "text", "empty", "npy"])
def test_eval_of_an_unreadable_checkpoint_exits_1(workspace, tmp_path, capsys, content):
    """A checkpoint numpy cannot read is a malformed input: exit 1, naming
    the file, with no report written."""
    from segprior import cli

    _, cfg_path = workspace
    ckpt = untrained_checkpoint(cfg_path, str(tmp_path / "ckpt_step0_seed0.npz"))
    with open(ckpt, "rb") as fh:
        data = fh.read()
    with open(ckpt, "wb") as fh:
        if content == "npy":
            np.save(fh, np.zeros(3))
        else:
            fh.write({"truncated": data[:500], "text": b"not a checkpoint\n",
                      "empty": b""}[content])
    capsys.readouterr()
    assert cli.main(["eval", "--config", cfg_path, "--checkpoint", ckpt]) == 1
    err = capsys.readouterr().err
    assert f"checkpoint {ckpt} " in err, err
    assert os.listdir(tmp_path) == ["ckpt_step0_seed0.npz"]


@pytest.mark.parametrize("member, value, what", [
    ("__step__", np.array([0, 1]), "__step__ must be one integer"),
    ("__step__", np.array("zero"), "__step__ must be one integer"),
    ("__step__", np.array(0.0), "__step__ must be one integer"),
    ("__class_names__", np.array("bkg"), "__class_names__ must be a 1-d array of strings"),
    ("__class_names__", np.arange(5), "__class_names__ must be a 1-d array of strings"),
], ids=["step-list", "step-string", "step-float", "names-0d", "names-numbers"])
def test_eval_of_mistyped_checkpoint_metadata_exits_1(workspace, tmp_path, capsys,
                                                      member, value, what):
    """A checkpoint whose step is not one integer, or whose class names are
    not a 1-d array of strings, is a malformed input: exit 1, naming the
    file, with no report written."""
    from segprior import cli

    _, cfg_path = workspace
    ckpt = untrained_checkpoint(cfg_path, str(tmp_path / "ckpt_step0_seed0.npz"))
    with np.load(ckpt) as data:
        members = {name: data[name] for name in data.files}
    np.savez(ckpt, **{**members, member: value})
    capsys.readouterr()
    assert cli.main(["eval", "--config", cfg_path, "--checkpoint", ckpt]) == 1
    err = capsys.readouterr().err
    assert f"checkpoint {ckpt}: {what}" in err, err
    assert os.listdir(tmp_path) == ["ckpt_step0_seed0.npz"]


def test_eval_of_a_checkpoint_with_an_object_member_exits_1(workspace, tmp_path,
                                                             capsys):
    """A checkpoint member that only pickle can read, here a config hash
    saved as an object array, is a malformed input: exit 1, naming the
    file and the member, with no report written."""
    from segprior import cli

    _, cfg_path = workspace
    ckpt = untrained_checkpoint(cfg_path, str(tmp_path / "ckpt_step0_seed0.npz"))
    with np.load(ckpt) as data:
        members = {name: data[name] for name in data.files}
    np.savez(ckpt, **{**members, "__config_hash__": np.array([{}], dtype=object)})
    capsys.readouterr()
    assert cli.main(["eval", "--config", cfg_path, "--checkpoint", ckpt]) == 1
    err = capsys.readouterr().err
    assert f"checkpoint {ckpt}: member __config_hash__ cannot be read" in err, err
    assert os.listdir(tmp_path) == ["ckpt_step0_seed0.npz"]


def test_eval_of_a_split_without_base_classes(workspace, tmp_path, capsys, monkeypatch):
    """A split in which no base class appears has no mIoU(base): eval
    exits 0, prints it as n/a and writes it as null, with no harmonic
    mean."""
    from segprior import cli, engine

    _, cfg_path = workspace

    def background_only(model, samples, registry):
        counts = np.zeros((len(registry),) * 2, dtype=np.int64)
        counts[0, 0] = 100
        return counts

    monkeypatch.setattr(engine, "predict_dataset", background_only)
    ckpt = untrained_checkpoint(cfg_path, str(tmp_path / "ckpt_step0_seed0.npz"))
    capsys.readouterr()
    assert cli.main(["eval", "--config", cfg_path, "--checkpoint", ckpt]) == 0
    assert "mIoU(all) 1.0000; mIoU(base) n/a" in capsys.readouterr().out
    with open(tmp_path / "report_ckpt_step0_seed0_eval.json") as fh:
        report = json.load(fh)
    assert report["miou_base"] is None and report["harmonic_mean"] is None
    assert report["miou_all"] == 1.0


def test_eval_writes_beside_the_checkpoint(workspace, tmp_path):
    """Two checkpoints of one file name in two directories, evaluated under
    one config, each keep their own report and trace."""
    out, cfg_path = workspace
    hashes = {}
    for seed in ("11", "12"):
        res = run_cli("train-base", "--config", cfg_path, "--seed", seed)
        assert res.returncode == 0, res.stderr
        ckpt = os.path.join(tmp_path, seed, "ckpt_step0_seed1.npz")
        os.makedirs(os.path.dirname(ckpt))
        shutil.copy(os.path.join(out, "runs", f"ckpt_step0_seed{seed}.npz"), ckpt)
        with np.load(ckpt) as data:
            hashes[seed] = str(data["__config_hash__"])
        res = run_cli("eval", "--config", cfg_path, "--checkpoint", ckpt)
        assert res.returncode == 0, res.stderr
    assert hashes["11"] != hashes["12"]
    for seed, chash in hashes.items():
        folder = os.path.join(tmp_path, seed)
        with open(os.path.join(folder, "report_ckpt_step0_seed1_eval.json")) as fh:
            assert json.load(fh)["config_hash"] == chash
        assert os.path.exists(os.path.join(folder, "report_ckpt_step0_seed1_eval.csv"))
        with open(os.path.join(folder, "metrics_trace_seed1_eval.json")) as fh:
            trace = json.load(fh)
        assert [r["config_hash"] for r in trace] == [chash]
    assert not os.path.exists(os.path.join(out, "runs", "report_ckpt_step0_seed1_eval.json"))


@pytest.mark.parametrize("broken", [0, 5])
def test_eval_of_a_truncated_image_exits_1_and_reaps_its_worker(tmp_path, capsys,
                                                               broken):
    """The eval shards read their own images: a truncated one, in this
    process's shard (0) or the worker's (5), stops eval with exit code 1
    and the file's path, and no worker outlives the command."""
    import multiprocessing

    from segprior import cli, config, engine

    out = str(tmp_path / "data")
    assert cli.main(["gen-data", "--out", out, "--n", "8", "--eval-n", "6",
                     "--size", "40", "--seed", "3"]) == 0
    cfg_path = os.path.join(out, "config.json")
    names = config.load_config(cfg_path).task_schedule().channel_names(0)
    ckpt = str(tmp_path / "ckpt_step0_seed0.npz")
    engine.save_checkpoint(engine.SegModel.init(names, seed=0), ckpt, step=0,
                           config_hash="x")
    image = os.path.join(out, "eval", "images", f"img_{broken:05d}.ppm")
    with open(image, "rb") as fh:
        data = fh.read()
    with open(image, "wb") as fh:
        fh.write(data[:-7])
    capsys.readouterr()
    assert cli.main(["eval", "--config", cfg_path, "--checkpoint", ckpt]) == 1
    err = capsys.readouterr().err
    assert "truncated PPM payload" in err and image in err
    assert multiprocessing.active_children() == []
    assert not os.path.exists(str(tmp_path / "report_ckpt_step0_seed0_eval.json"))


def test_few_shot_memory_holds_only_trained_images(tmp_path, monkeypatch):
    """In the few-shot protocol, every step-2 episodic memory row labelled
    with a step-1 class is one of the images step 1 trained on."""
    from segprior import cli, engine

    out = str(tmp_path / "data")
    assert cli.main(["gen-data", "--out", out, "--n", "120", "--eval-n", "0",
                     "--seed", "3"]) == 0
    cfg_path = os.path.join(out, "config.json")
    with open(cfg_path) as fh:
        cfg = json.load(fh)
    cfg["schedule"].update(shots=3, mode="disjoint")
    cfg["memory"]["mode"] = "episodic"
    cfg["engine"].update(epochs_base=1, epochs_incremental=1, batch_size=8)
    with open(cfg_path, "w") as fh:
        json.dump(cfg, fh, indent=1)
    steps = {}
    real_prepare = engine._prepare_pool

    def spy_prepare(state, samples, bank, registry, sim):
        pool = real_prepare(state, samples, bank, registry, sim)
        steps[state.step] = (state, pool)
        return pool

    monkeypatch.setattr(engine, "_prepare_pool", spy_prepare)
    assert cli.main(["train-base", "--config", cfg_path]) == 0
    for step in ("1", "2"):
        assert cli.main(["train-incremental", "--config", cfg_path, "--step", step]) == 0
    state1, pool1 = steps[1]
    trained = {image.tobytes() for image in pool1.images[:pool1.n_current]}
    assert len(trained) == 6
    # the foreground columns of step 1's classes in step 2's labels
    state2, pool2 = steps[2]
    step1_columns = slice(state1.n_old - 1, state2.n_old - 1)
    assert state2.model.class_names[1:][step1_columns] == \
        state1.model.class_names[state1.n_old:]
    held = [row for row in range(pool2.n_current, len(pool2.images))
            if pool2.labels[row, step1_columns].any()]
    assert held
    assert all(pool2.images[row].tobytes() in trained for row in held)


def test_few_shot_disjoint_sequence(tmp_path):
    """The paper's few-shot, disjoint protocol over two increments, with
    episodic memory: each step trains on shots x classes samples, and step 2
    runs with step 1's classes among the old ones."""
    out = str(tmp_path / "data")
    res = run_cli("gen-data", "--out", out, "--n", "120", "--eval-n", "20", "--seed", "3")
    assert res.returncode == 0, res.stderr
    cfg_path = os.path.join(out, "config.json")
    with open(cfg_path) as fh:
        cfg = json.load(fh)
    cfg["schedule"].update(shots=3, mode="disjoint")
    cfg["memory"]["mode"] = "episodic"
    cfg["engine"].update(epochs_base=1, epochs_incremental=1, batch_size=8)
    with open(cfg_path, "w") as fh:
        json.dump(cfg, fh, indent=1)
    runs = os.path.join(out, "runs")
    res = run_cli("train-base", "--config", cfg_path)
    assert res.returncode == 0, res.stderr
    for step in (1, 2):
        res = run_cli("train-incremental", "--config", cfg_path, "--step", str(step))
        assert res.returncode == 0, res.stderr
        assert f"step {step} done on 6 samples (memory: episodic)" in res.stdout
        res = run_cli("eval", "--config", cfg_path, "--checkpoint",
                      os.path.join(runs, f"ckpt_step{step}_seed3.npz"))
        assert res.returncode == 0, res.stderr
    with np.load(os.path.join(runs, "ckpt_step1_seed3.npz")) as ckpt1:
        step1_hash = str(ckpt1["__config_hash__"])
    with np.load(os.path.join(runs, "ckpt_step2_seed3.npz")) as ckpt2:
        assert len(ckpt2["__class_names__"]) == 9
        assert str(ckpt2["__parent_config_hash__"]) == step1_hash
    trace = os.path.join(runs, "metrics_trace_seed3_eval.json")
    with open(trace) as fh:
        assert [r["step"] for r in json.load(fh)] == [1, 2]
    svg = os.path.join(out, "curves.svg")
    res = run_cli("plot", "--trace", trace, "--out", svg)
    assert res.returncode == 0, res.stderr
    assert open(svg).read().startswith("<svg")


def test_gen_data_twice_writes_the_same_bytes(tmp_path):
    """One seed, an odd --n: two runs, each split by two processes, write
    the same files."""
    dirs = [str(tmp_path / name) for name in ("a", "b")]
    for out in dirs:
        res = run_cli("gen-data", "--out", out, "--n", "7", "--eval-n", "3",
                      "--size", "48", "--seed", "4")
        assert res.returncode == 0, res.stderr
    assert subprocess.run(["diff", "-r", *dirs]).returncode == 0


@pytest.mark.parametrize("failure", ["raise", "exit"])
def test_gen_data_exits_2_when_shard_1_fails_and_leaves_no_process(
        tmp_path, capsys, monkeypatch, failure):
    """A write that fails in shard 1's worker, or a worker that dies, stops
    gen-data with exit code 2; the worker is reaped and no manifest is
    written."""
    import multiprocessing

    from helpers import ProcessLog
    from segprior import cli, netpbm

    here, log = os.getpid(), ProcessLog()
    real_write = netpbm.write_pgm

    def write_pgm(path, gray):
        if os.getpid() != here:
            log.append("worker")
            if failure == "exit":
                os._exit(3)
            raise OSError(28, "No space left on device", path)
        return real_write(path, gray)

    monkeypatch.setattr(netpbm, "write_pgm", write_pgm)
    out = str(tmp_path / "data")
    assert cli.main(["gen-data", "--out", out, "--n", "4", "--eval-n", "2",
                     "--size", "48"]) == 2
    assert "runtime failure" in capsys.readouterr().err
    assert multiprocessing.active_children() == []
    (worker, _), = log.drain()
    with pytest.raises(ProcessLookupError):
        os.kill(worker, 0)
    assert not os.path.exists(os.path.join(out, "train", "manifest.json"))


def test_train_base_reads_only_the_rows_showing_a_base_class(tmp_path, monkeypatch):
    """train-base chooses its rows from the manifest's present lists and
    reads each of those images once, and no other."""
    from segprior import cli, config, netpbm, protocol, synthdata

    out = str(tmp_path / "data")
    assert cli.main(["gen-data", "--out", out, "--n", "30", "--eval-n", "0",
                     "--size", "48", "--seed", "2"]) == 0
    cfg_path = os.path.join(out, "config.json")
    shrink_config(cfg_path, epochs_base=1, batch_size=8)
    files, _ = synthdata.load_dataset(os.path.join(out, "train", "manifest.json"))
    schedule = config.load_config(cfg_path).task_schedule()
    base = protocol.step_rows(files.present, schedule, 0)
    assert 0 < len(base) < len(files)
    reads = []
    real_read = netpbm.read_ppm

    def spy_read(path):
        reads.append(os.path.basename(path))
        return real_read(path)

    monkeypatch.setattr(netpbm, "read_ppm", spy_read)
    assert cli.main(["train-base", "--config", cfg_path]) == 0
    assert reads == [f"img_{k:05d}.ppm" for k in base]


@pytest.mark.parametrize("shots, mode", [(None, "none"), (2, "episodic")])
def test_train_incremental_reads_only_its_rows_and_the_memory_draws(
        tmp_path, monkeypatch, shots, mode):
    """train-incremental chooses its step's rows, its few-shot draws and its
    episodic-memory draws from the manifest's present lists, and reads those
    images, each once per use, and no other."""
    from segprior import cli, config, engine, netpbm, protocol, synthdata

    out = str(tmp_path / "data")
    assert cli.main(["gen-data", "--out", out, "--n", "30", "--eval-n", "0",
                     "--size", "48", "--seed", "2"]) == 0
    cfg_path = os.path.join(out, "config.json")
    with open(cfg_path) as fh:
        cfg = json.load(fh)
    cfg["schedule"]["shots"] = shots
    cfg["memory"]["mode"] = mode
    cfg["engine"].update(epochs_base=1, epochs_incremental=1, batch_size=8)
    with open(cfg_path, "w") as fh:
        json.dump(cfg, fh, indent=1)
    assert cli.main(["train-base", "--config", cfg_path]) == 0
    files, _ = synthdata.load_dataset(os.path.join(out, "train", "manifest.json"))
    row_of = {files[k].image.tobytes(): k for k in range(len(files))}
    assert len(row_of) == len(files)
    schedule = config.load_config(cfg_path).task_schedule()
    step_rows = protocol.step_rows(files.present, schedule, 1)
    seen = {}
    real_prepare = engine._prepare_pool

    def spy_prepare(state, samples, bank, registry, sim):
        pool = real_prepare(state, samples, bank, registry, sim)
        rows = [row_of[image.tobytes()] for image in pool.images]
        seen["step"], seen["memory"] = rows[:pool.n_current], rows[pool.n_current:]
        return pool

    reads = []
    real_read = netpbm.read_ppm

    def spy_read(path):
        reads.append(os.path.basename(path))
        return real_read(path)

    monkeypatch.setattr(engine, "_prepare_pool", spy_prepare)
    monkeypatch.setattr(netpbm, "read_ppm", spy_read)
    assert cli.main(["train-incremental", "--config", cfg_path, "--step", "1"]) == 0
    assert reads == [f"img_{k:05d}.ppm" for k in seen["step"] + seen["memory"]]
    if shots is None:
        assert seen["step"] == step_rows and not seen["memory"]
    else:
        assert len(seen["step"]) == 2 * shots
        assert set(seen["step"]) < set(step_rows)
        assert seen["memory"]
        base_rows = protocol.step_rows(files.present, schedule, 0)
        assert set(seen["memory"]) <= set(base_rows)
        assert len(set(reads)) < len(files)


_FAULT_PROBE = """
import itertools, resource, sys
import numpy as np
if sys.argv[1] == "cli":
    import segprior.cli
from segprior import layers

REPEATS = 20

def step():
    arrays = [np.ones(n, dtype=np.float32)
              for n in (150_000, 300_000, 200_000, 400_000)]
    del arrays

def faults(rows):
    # the 3 warm-up repeats run the counting code too
    for repeats in (3, REPEATS):
        before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        for _ in itertools.repeat(None, repeats):
            step()
        count = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before
    return count

with layers.Shards(faults) as shards:
    print(*shards(2))
"""


def _has_mallopt():
    import ctypes
    try:
        return hasattr(ctypes.CDLL(None), "mallopt")
    except OSError:
        return False


@pytest.mark.skipif(not _has_mallopt(), reason="libc has no mallopt")
def test_cli_import_keeps_freed_heap_pages_between_batches():
    """Once segprior.cli is imported, a batch-sized set of arrays allocated
    and freed 20 times keeps its pages in either shard process; without it,
    glibc hands them back and they are faulted in again each time.
    Measured: 0-3 faults in 20 repeats with the CLI (a page or two as the
    heap settles, varying from run to run), about 16,900 without."""
    def probe(kind):
        res = subprocess.run([sys.executable, "-c", _FAULT_PROBE, kind],
                             capture_output=True, text=True, env=ENV)
        assert res.returncode == 0, res.stderr
        return [int(v) for v in res.stdout.split()]

    # fewer faults than repeats: no repeat faults its arrays in
    with_cli, plain = probe("cli"), probe("plain")
    assert len(with_cli) == 2 and max(with_cli) < 20
    assert len(plain) == 2 and min(plain) > 1000
