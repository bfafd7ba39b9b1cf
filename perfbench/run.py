#!/usr/bin/env python3
"""End-to-end benchmark of the segprior CLI, with a traced per-layer pass.

Run from the repository root:

    python3 perfbench/run.py [--workload NAME|all] [--seed N] [--seconds S]
                             [--trace 0|1]

Each workload generates its inputs from --seed through the real CLI
(``python -m segprior``), then runs one timed command in a fresh process,
again and again for --seconds.  A fresh process per command means the CLI's
own OPENBLAS_NUM_THREADS=1 default takes effect and no layer buffer carries
over between repeats.  Load is closed-loop: one process, one command at a
time.

--trace 0 reports the end-to-end metrics (medians over the repeats):
images_per_s, setup_s (median of SETUP_REPEATS full set-ups), peak_rss_mb
of the timed process alone, and miou_base / miou_all of the checkpoint the
workload ends with.  --trace 1 sets up once, runs the timed command once
untraced, once under tracer.py and once more with OPENBLAS_NUM_THREADS=2,
and reports the per-layer metrics of layer_metrics.py.

Every command's outputs are checked; a repeat fails if it exits non-zero,
writes a non-finite loss, leaves a checkpoint that does not reload with the
schedule's class list, or differs bitwise from the first repeat in final
loss and checkpoint parameters (training) or mIoU (eval).  The checkpoint
the workload ends with is then scored once; an mIoU outside [0, 1] stops
the run.  The last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics"}.
"""

import argparse
import fnmatch
import hashlib
import importlib.util
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass

import layer_metrics

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORK = os.path.join(ROOT, ".bench_work")

SETUP_REPEATS = 3
MIN_REPEATS = 3

# Inputs.  Training images are 64 px with 1-3 objects; eval-wide scores a
# 96 px split with the 64 px model.  TRAIN_N images are generated and the
# train manifest is cut to exactly BASE_IMAGES base-step and STEP1_IMAGES
# step-1 images (whole batches), so the work and the memory a run needs do
# not change with the seed.  On seeds 0-59 the cut used at most 274 of the
# 400 images; a seed where it runs short fails at set-up.
TRAIN_N = 400
BASE_IMAGES = 144
STEP1_IMAGES = 48
EVAL_N = 100
WIDE_N = 300
# Base training (timed in base-dense, parent checkpoint elsewhere).  Batch 8
# at lr 0.1 gets the base model to a settled mIoU (about 0.8) in six
# epochs, so the mIoU checks read the same whatever the seed; the default
# batch of 24 needs far more epochs than a run can afford.
BASE_ENGINE = {"epochs_base": 6, "batch_size": 8, "lr_base": 0.1}
# Step 1 and eval-wide keep the default batch of 24.  Step 1 keeps the
# default five warm-up epochs, so its sixth epoch runs the seg branch on
# pseudo-labels from a warmed-up localizer.
INCR_ENGINE = {"epochs_incremental": 6, "batch_size": 24}
INCR_LOSS = {"lambda_rasp": 1.0, "seg_warmup_epochs": 5}
INCR_MEMORY = {"mode": "episodic"}


class SetupError(Exception):
    """A set-up command failed; nothing can be measured."""


@dataclass
class Prepared:
    """What set-up leaves behind for the timed command and its checks."""
    timed: list                   # CLI arguments of the timed command
    images: int                   # images the timed command processes
    config: str                   # config of the timed command
    report: str                   # eval report JSON the checks read
    evaluate: list = None         # CLI arguments of the post-run eval, if any
    checkpoint: str = None        # checkpoint the timed command writes
    losses: str = None            # losses JSON the timed command writes
    step: int = 0                 # step of the checkpoint that gets scored


@dataclass
class Workload:
    name: str
    why: str
    moves: dict                   # layer metric -> end-to-end metric it moves
    spans: tuple                  # spans the traced pass must see fire
    setup: object                 # function(ws, seed, cli) -> Prepared


# ---------------------------------------------------------------------------
# Set-up helpers
# ---------------------------------------------------------------------------

def _edit_config(src, dst, engine=None, loss=None, memory=None):
    with open(src, "r", encoding="utf-8") as fh:
        cfg = json.load(fh)
    cfg["engine"].update(engine or {})
    cfg["loss"].update(loss or {})
    cfg["memory"].update(memory or {})
    with open(dst, "w", encoding="utf-8") as fh:
        json.dump(cfg, fh, indent=1)
    return dst


def _gen(cli, out, seed, n, eval_n, size):
    cli(["gen-data", "--out", out, "--n", str(n), "--eval-n", str(eval_n),
         "--size", str(size), "--min-objects", "1", "--max-objects", "3",
         "--seed", str(seed)])


def _train_data(cli, data, seed, eval_n):
    _gen(cli, data, seed, TRAIN_N, eval_n, 64)
    _cut_manifest(data)
    return _edit_config(os.path.join(data, "config.json"),
                        os.path.join(data, "base.json"), BASE_ENGINE)


def _schedule(config):
    """Registry, base classes and step-1 classes of a generated config."""
    with open(config, "r", encoding="utf-8") as fh:
        cfg = json.load(fh)
    sch = cfg["schedule"]
    if sch["mode"] != "overlap" or sch["ordering"] or sch["ordering_seed"] \
            or sch["shots"]:
        raise SetupError("benchmark configs use the plain overlap schedule")
    reg = cfg["registry"]
    nb, ns = sch["n_base"], sch["n_per_step"]
    return reg, set(reg[1:1 + nb]), set(reg[1 + nb:1 + nb + ns]), nb, ns


def _cut_manifest(data):
    """Keep the first rows that give exactly the fixed base and step-1 counts.

    A row counts toward a step when it shows one of its classes, which is
    the overlap-mode filter the CLI applies.
    """
    _, base, step1, _, _ = _schedule(os.path.join(data, "config.json"))
    path = os.path.join(data, "train", "manifest.json")
    with open(path, "r", encoding="utf-8") as fh:
        manifest = json.load(fh)
    caps = {"base": BASE_IMAGES, "step1": STEP1_IMAGES}
    counts = {"base": 0, "step1": 0}
    kept = []
    for row in manifest["samples"]:
        present = set(row["present"])
        steps = [k for k, classes in (("base", base), ("step1", step1))
                 if classes & present]
        if steps and all(counts[k] < caps[k] for k in steps):
            kept.append(row)
            for k in steps:
                counts[k] += 1
    if counts != caps:
        raise SetupError(f"{TRAIN_N} generated images give only {counts}")
    manifest["samples"] = kept
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=1)


def _paths(ws, seed, step):
    runs = os.path.join(ws, "data", "runs")
    ckpt = os.path.join(runs, f"ckpt_step{step}_seed{seed}.npz")
    return (ckpt, os.path.join(runs, f"losses_step{step}_seed{seed}.json"),
            os.path.join(runs, f"report_ckpt_step{step}_seed{seed}_eval.json"))


def setup_base_dense(ws, seed, cli):
    cfg = _train_data(cli, os.path.join(ws, "data"), seed, EVAL_N)
    ckpt, losses, report = _paths(ws, seed, 0)
    return Prepared(
        timed=["train-base", "--config", cfg],
        images=BASE_IMAGES * BASE_ENGINE["epochs_base"], config=cfg,
        report=report,
        evaluate=["eval", "--config", cfg, "--checkpoint", ckpt],
        checkpoint=ckpt, losses=losses, step=0)


def _parent(ws, seed, cli, eval_n):
    data = os.path.join(ws, "data")
    base = _train_data(cli, data, seed, eval_n)
    cli(["train-base", "--config", base])
    return data, base


def setup_incr(ws, seed, cli):
    data, base = _parent(ws, seed, cli, EVAL_N)
    cfg = _edit_config(base, os.path.join(data, "incr.json"), INCR_ENGINE,
                       INCR_LOSS, INCR_MEMORY)
    ckpt, losses, report = _paths(ws, seed, 1)
    return Prepared(
        timed=["train-incremental", "--config", cfg, "--step", "1",
               "--lambda-rasp", "1", "--memory", "episodic"],
        images=STEP1_IMAGES * INCR_ENGINE["epochs_incremental"], config=cfg,
        report=report, evaluate=["eval", "--config", cfg, "--checkpoint", ckpt],
        checkpoint=ckpt, losses=losses, step=1)


def setup_eval_wide(ws, seed, cli):
    data, base = _parent(ws, seed, cli, 0)
    wide = os.path.join(ws, "wide")
    _gen(cli, wide, seed, 1, WIDE_N, 96)
    cfg = _edit_config(base, os.path.join(data, "wide.json"), {
        "batch_size": 24,
        "eval_manifest": os.path.join("..", "wide", "eval", "manifest.json")})
    ckpt, _, report = _paths(ws, seed, 0)
    return Prepared(timed=["eval", "--config", cfg, "--checkpoint", ckpt],
                    images=WIDE_N, config=cfg, report=report, step=0)


_CONV_ENC = tuple(f"layers.conv.{c}" for c in ("enc.0", "enc.1", "enc.2", "enc.3",
                                               "head"))
_CONV_LOC = tuple(f"layers.conv.{c}" for c in ("loc.0", "loc.1", "loc.2"))
_IO = ("synthdata.generate_dataset", "synthdata.load_dataset",
       "engine.save_checkpoint")

WORKLOADS = {
    "base-dense": Workload(
        name="base-dense",
        why="train-base on 64 px images, default architecture: the encoder "
            "conv stack forward and backward under dense BCE is almost all of "
            "the time; no localizer, loss glue, RaSP or memory runs here.",
        moves={
            "layers.conv.*_ms, layers.conv.busy_s": "images_per_s",
            "kernels.im2col_k3.ms, kernels.col2im_k3.ms": "images_per_s",
            "kernels.cols_mb_per_image": "peak_rss_mb",
            "layers.norm.*, layers.act.*, layers.sgd.step_ms": "images_per_s",
            "synthdata.generate_dataset.s": "setup_s",
            "localizer, objectives, simprior, memory": "no change expected",
        },
        spans=tuple(f"{c}.{d}" for c in _CONV_ENC for d in ("fwd", "bwd")) + (
            "kernels.im2col_k3", "kernels.col2im_k3", "kernels.nearest_resize",
            "layers.norm.fwd", "layers.norm.bwd", "layers.act.fwd",
            "layers.act.bwd", "layers.sgd.step") + _IO,
        setup=setup_base_dense),
    "incr-rasp-memory": Workload(
        name="incr-rasp-memory",
        why="train-incremental step 1 with lambda_rasp=1 and episodic memory, "
            "seg branch active: the paper's method, the only workload where "
            "the localizer, loss glue, simprior and memory do work.",
        moves={
            "layers.conv.loc.*_ms, layers.conv.busy_s": "images_per_s",
            "kernels.im2col_k3.ms, kernels.col2im_k3.ms": "images_per_s",
            "layers.norm.busy_s (three ChannelNorms)": "images_per_s",
            "engine.incremental_batch.self_ms (loss glue)": "images_per_s",
            "engine.prep_s, engine.Snapshot.predict.ms": "images_per_s",
            "objectives.*, simprior.*, memory.*": "images_per_s",
            "engine.save_checkpoint.ms, synthdata.*": "setup_s",
        },
        spans=tuple(f"{c}.{d}" for c in _CONV_ENC + _CONV_LOC
                    for d in ("fwd", "bwd")) + (
            "kernels.im2col_k3", "kernels.col2im_k3", "layers.norm.fwd",
            "layers.norm.bwd", "layers.act.fwd", "layers.act.bwd",
            "layers.sgd.step", "engine.incremental_step",
            "engine.incremental_batch", "engine.Snapshot.predict",
            "engine.load_checkpoint", "objectives.cls_loss_grad",
            "objectives.rasp_loss_grad", "simprior.argmax_label_map",
            "simprior.similarity_maps", "memory.populate_episodic",
            "memory.mix_batch") + _IO,
        setup=setup_incr),
    "eval-wide": Workload(
        name="eval-wide",
        why="eval of the 64 px parent model over a 96 px split: conv forward "
            "only (no backward, no col2im) on a larger working set, plus "
            "argmax, nearest upsampling and confusion counting.",
        moves={
            "layers.conv.*.fwd_ms, kernels.im2col_k3.ms": "images_per_s",
            "engine.predict_dataset.s": "images_per_s",
            "evalkit.confusion_accumulate.ms, kernels.nearest_resize.ms":
                "images_per_s",
            "kernels.cols_mb_per_image": "peak_rss_mb",
            "work moved from backward into forward": "images_per_s (a loss)",
        },
        spans=tuple(f"{c}.fwd" for c in _CONV_ENC) + (
            "kernels.im2col_k3", "layers.norm.fwd", "layers.act.fwd",
            "engine.predict_dataset", "engine.load_checkpoint",
            "evalkit.confusion_accumulate", "kernels.nearest_resize") + _IO,
        setup=setup_eval_wide),
}


# ---------------------------------------------------------------------------
# Running commands
# ---------------------------------------------------------------------------

def cli_env(blas_threads=None):
    env = dict(os.environ)
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    env.pop("OPENBLAS_NUM_THREADS", None)   # the CLI sets its own default
    if blas_threads is not None:
        env["OPENBLAS_NUM_THREADS"] = str(blas_threads)
    return env


@dataclass
class Result:
    wall: float
    rss_mb: float
    code: int


def run_command(argv, log, env, spans=None):
    """Run one CLI command in a fresh process; wall time and its own peak RSS."""
    if spans is None:
        cmd = [sys.executable, "-m", "segprior", *argv]
    else:
        cmd = [sys.executable, os.path.join(ROOT, "perfbench", "tracer.py"),
               spans, "--", *argv]
    with open(log, "a", encoding="utf-8") as fh:
        fh.write(f"$ {' '.join(argv)}\n")
        fh.flush()
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=fh, stderr=subprocess.STDOUT,
                                env=env, cwd=ROOT)
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Result(wall, usage.ru_maxrss / 1024.0, proc.returncode)


class Runner:
    """Runs set-up commands, optionally traced, and fails loudly on error."""

    def __init__(self, log, env, spans_dir=None):
        self.log, self.env, self.spans_dir = log, env, spans_dir
        self.spans = []

    def __call__(self, argv):
        spans = None
        if self.spans_dir is not None:
            spans = os.path.join(self.spans_dir, f"setup{len(self.spans)}.json")
            self.spans.append(spans)
        res = run_command(argv, self.log, self.env, spans)
        if res.code != 0:
            raise SetupError(f"set-up command failed ({res.code}): "
                             f"{' '.join(argv)}; see {self.log}")


# ---------------------------------------------------------------------------
# Output checks
# ---------------------------------------------------------------------------

def _finite_tree(value):
    if isinstance(value, float):
        return math.isfinite(value)
    if isinstance(value, dict):
        return all(_finite_tree(v) for v in value.values())
    if isinstance(value, list):
        return all(_finite_tree(v) for v in value)
    return True


def _final_loss(path):
    with open(path, "r", encoding="utf-8") as fh:
        trace = json.load(fh)["loss"]     # NaN and Infinity load as floats
    if not trace or not _finite_tree(trace):
        raise ValueError(f"non-finite or empty loss trace in {path}")
    last = trace[-1]
    return last["total"] if isinstance(last, dict) else last


def _checkpoint_digest(path, config, step):
    """Reload a checkpoint, check its classes, and hash its parameters.

    Two checkpoints with the same digest hold bitwise equal parameters, so
    they also score the same mIoU.
    """
    import numpy as np

    reg, _, _, nb, ns = _schedule(config)
    expected = reg[:1 + nb + step * ns]
    digest = hashlib.sha256()
    with np.load(path, allow_pickle=False) as data:
        names = [str(n) for n in data["__class_names__"]]
        if names != expected:
            raise ValueError(f"checkpoint classes {names}, schedule says {expected}")
        for key in sorted(data.files):
            arr = data[key]
            if arr.dtype.kind == "f" and not np.all(np.isfinite(arr)):
                raise ValueError(f"checkpoint parameter {key} is not finite")
            digest.update(f"{key}:{arr.dtype}:{arr.shape}".encode())
            digest.update(np.ascontiguousarray(arr).tobytes())
    return digest.hexdigest()


def _read_miou(path):
    with open(path, "r", encoding="utf-8") as fh:
        report = json.load(fh)
    out = {k: report[k] for k in ("miou_base", "miou_all", "miou_new")}
    for key in ("miou_base", "miou_all"):
        if not isinstance(out[key], float) or not 0.0 <= out[key] <= 1.0:
            raise ValueError(f"{key}={out[key]!r} is not in [0, 1]")
    if out["miou_new"] is not None and not 0.0 <= out["miou_new"] <= 1.0:
        raise ValueError(f"miou_new={out['miou_new']!r} is not in [0, 1]")
    return out


_CHECK_ERRORS = (OSError, ValueError, KeyError, TypeError)


def check_run(prep, res):
    """Check one finished timed command; returns (outcome, error or None).

    The outcome is what every later repeat must reproduce bitwise: the
    final loss and the checkpoint's parameters for training, the mIoU for
    eval.
    """
    if res.code != 0:
        return None, f"exit code {res.code}"
    try:
        outcome = {}
        if prep.losses:
            outcome["final_loss"] = _final_loss(prep.losses)
        if prep.checkpoint:
            outcome["params"] = _checkpoint_digest(prep.checkpoint, prep.config,
                                                   prep.step)
        else:
            outcome.update(_read_miou(prep.report))
    except _CHECK_ERRORS as exc:
        return None, f"{type(exc).__name__}: {exc}"
    return outcome, None


def score(prep, log, env):
    """mIoU of the checkpoint the workload ends with, after the timed region."""
    if prep.evaluate:
        res = run_command(prep.evaluate, log, env)
        if res.code != 0:
            raise SetupError(f"eval of the final checkpoint exited {res.code}; "
                             f"see {log}")
    try:
        return _read_miou(prep.report)
    except _CHECK_ERRORS as exc:
        raise SetupError(f"final mIoU check failed: {exc}") from exc


# ---------------------------------------------------------------------------
# Environment stamp
# ---------------------------------------------------------------------------

def _git_commit():
    head = os.path.join(ROOT, ".git", "HEAD")
    try:
        with open(head, "r", encoding="utf-8") as fh:
            ref = fh.read().strip()
        if not ref.startswith("ref: "):
            return ref
        ref = ref[5:]
        loose = os.path.join(ROOT, ".git", ref)
        if os.path.exists(loose):
            with open(loose, "r", encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(ROOT, ".git", "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unavailable (not a git checkout)"


def _blas_library():
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError, ValueError):
        return "unknown"


def environment(blas_threads):
    import numpy as np

    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "OPENBLAS_NUM_THREADS": blas_threads or "unset (CLI default: 1)",
        "blas": _blas_library(),
        "numpy": np.__version__,
        "python": platform.python_version(),
        "numba_importable": importlib.util.find_spec("numba") is not None,
        "git_commit": _git_commit(),
    }


def config_hash(path):
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()[:16]


# ---------------------------------------------------------------------------
# The two passes
# ---------------------------------------------------------------------------

def fresh_dir(path):
    shutil.rmtree(path, ignore_errors=True)
    os.makedirs(path)
    return path


def measure(wl, seed, seconds, out):
    """Untraced pass: end-to-end metrics, medians over repeats."""
    wdir = fresh_dir(os.path.join(WORK, wl.name))
    log = os.path.join(wdir, "commands.log")
    env = cli_env()
    setup_times = []
    for i in range(SETUP_REPEATS):
        ws = fresh_dir(os.path.join(wdir, f"setup{i}"))
        t0 = time.perf_counter()
        prep = wl.setup(ws, seed, Runner(log, env))
        setup_times.append(time.perf_counter() - t0)
        if i:
            shutil.rmtree(os.path.join(wdir, f"setup{i - 1}"))
    out(f"config_hash: {config_hash(prep.config)}")

    rates, rss, errors, first = [], [], [], None
    attempted = 0
    t_start = time.perf_counter()
    while attempted < MIN_REPEATS or time.perf_counter() - t_start < seconds:
        attempted += 1
        res = run_command(prep.timed, log, env)
        outcome, err = check_run(prep, res)
        if err is None:
            if first is None:
                first = outcome
            elif outcome != first:
                err = f"repeat differs from the first: {outcome} vs {first}"
        if err is not None:
            errors.append(f"repeat {attempted}: {err}")
            continue
        rates.append(prep.images / res.wall)
        rss.append(res.rss_mb)
        out(f"repeat {attempted}: {res.wall:.3f} s, "
            f"{prep.images / res.wall:.2f} img/s, {res.rss_mb:.1f} MB")
    if first is None:
        raise SetupError(f"every repeat failed: {errors}")
    for err in errors:
        out(f"FAILED {err}")
    miou = score(prep, log, env)
    out(f"miou_new: {miou['miou_new']} (reported, not gated)")
    metrics = {
        "images_per_s": (statistics.median(rates), "img/s"),
        "setup_s": (statistics.median(setup_times), "s"),
        "peak_rss_mb": (statistics.median(rss), "MB"),
        "miou_base": (miou["miou_base"], "fraction"),
        "miou_all": (miou["miou_all"], "fraction"),
    }
    return attempted, len(errors), metrics


def traced(wl, seed, seconds, out):
    """Traced pass: per-layer metrics, the tracer's overhead and a 2-thread run."""
    wdir = fresh_dir(os.path.join(WORK, wl.name))
    spans_dir = fresh_dir(os.path.join(wdir, "spans"))
    log = os.path.join(wdir, "commands.log")
    env = cli_env()
    setup = Runner(log, env, spans_dir)
    prep = wl.setup(fresh_dir(os.path.join(wdir, "setup")), seed, setup)
    out(f"config_hash: {config_hash(prep.config)}")

    failed = {}                    # attempt -> why it failed
    plain = run_command(prep.timed, log, env)
    base, err = check_run(prep, plain)
    if err:
        failed["untraced"] = err
    timed_spans = os.path.join(spans_dir, "timed.json")
    tr = run_command(prep.timed, log, env, spans=timed_spans)
    outcome, err = check_run(prep, tr)
    if err is None and base is not None and outcome != base:
        err = f"traced outputs differ from untraced: {outcome} vs {base}"
    if err:
        failed["traced"] = err
    blas2 = run_command(prep.timed, log, cli_env(blas_threads=2))
    outcome2, err = check_run(prep, blas2)
    if err:
        failed["OPENBLAS_NUM_THREADS=2"] = err
    if tr.code != 0 or not os.path.exists(timed_spans):
        raise SetupError(f"traced command failed: {failed}")
    score(prep, log, env)

    timed, missing = layer_metrics.load_spans(timed_spans)
    setup_spans = []
    for path in setup.spans:
        setup_spans += layer_metrics.load_spans(path)[0]
    values = layer_metrics.compute(timed, setup_spans, prep.images)
    values["trace.overhead"] = tr.wall / plain.wall - 1.0
    values["blas2.images_per_s"] = prep.images / blas2.wall

    # Self-test: a declared span whose target exists but never fired means
    # a wrapper sits on a binding the program no longer calls through.
    durs = layer_metrics.durations(timed, setup_spans)
    absent = [s for s in wl.spans
              if any(fnmatch.fnmatchcase(s, m) for m in missing)]
    silent = [s for s in wl.spans if not durs[s] and s not in absent]
    if absent:
        out(f"missing (target gone from the program): {', '.join(absent)}")
    if silent:
        failed["traced"] = f"self-test: declared spans never fired: {', '.join(silent)}"
    out(f"self-test: {len(wl.spans) - len(silent) - len(absent)} of "
        f"{len(wl.spans)} declared spans fired")
    out(f"1 thread: {prep.images / plain.wall:.2f} img/s; "
        f"OPENBLAS_NUM_THREADS=2: {values['blas2.images_per_s']:.2f} img/s"
        f"{'' if outcome2 == base else ' (outputs differ from 1 thread)'}")
    for attempt, err in failed.items():
        out(f"FAILED {attempt}: {err}")
    metrics = {name: (values[name], unit)
               for name, unit in layer_metrics.UNITS.items()}
    return 3, len(failed), metrics


def run_workload(wl, args, out):
    out(f"== workload {wl.name} (seed {args.seed}, trace {args.trace})")
    out(f"why: {wl.why}")
    for layer, e2e in wl.moves.items():
        out(f"moves: {layer} -> {e2e}")
    passes = traced if args.trace else measure
    attempted, failed, metrics = passes(wl, args.seed, args.seconds, out)
    for name, (value, unit) in metrics.items():
        out(f"{wl.name} {name} {value:.6g} {unit}")
    return attempted, failed, metrics


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", default="all",
                        choices=("all", *WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not os.path.isfile(os.path.join(ROOT, "src", "segprior", "cli.py")):
        print(f"error: no segprior sources under {ROOT}/src", file=sys.stderr)
        return 2

    def out(line):
        print(line, flush=True)

    out("env: " + json.dumps(environment(None)))
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    attempted = failed = 0
    metrics = {}
    try:
        for name in names:
            a, f, m = run_workload(WORKLOADS[name], args, out)
            attempted, failed = attempted + a, failed + f
            prefix = "" if len(names) == 1 else f"{name}/"
            metrics.update({prefix + k: {"value": v, "unit": u}
                            for k, (v, u) in m.items()})
    except SetupError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
