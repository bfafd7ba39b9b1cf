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
    ("loss", "alpha", 0.5),
    ("loss", "epsilon_ngwp", 1e-5),
    ("loss", "gamma_focal", 3.0),
    ("loss", "lambda_focal", 0.01),
    ("engine", "momentum", 0.9),
    ("memory", "capacity", 100),
    ("memory", "ratio", 0.25),
])
def test_removed_config_keys_rejected(workspace, tmp_path, section, key, value):
    """The network, its gradient paths and the training recipe's pooling,
    pseudo-label, momentum and memory constants are fixed; a config that
    still sets one of the old keys, even to its fixed value, is a
    validation error naming the key."""
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
    """In the few-shot protocol, every step-2 episodic memory entry of a
    step-1 class is one of the images step 1 trained on."""
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
    real_step = engine.incremental_step

    def spy_step(state, samples, bank, sim, registry):
        steps[state.step] = (state.model.class_names[state.n_old:], samples, bank)
        return real_step(state, samples, bank, sim, registry)

    monkeypatch.setattr(engine, "incremental_step", spy_step)
    assert cli.main(["train-base", "--config", cfg_path]) == 0
    for step in ("1", "2"):
        assert cli.main(["train-incremental", "--config", cfg_path, "--step", step]) == 0
    step1_classes, step1_samples, _ = steps[1]
    trained = {s.image.tobytes() for s in step1_samples}
    assert len(trained) == 6
    held = [e for e in steps[2][2].entries if e.labels & set(step1_classes)]
    assert held
    assert all(e.image.tobytes() in trained for e in held)


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
