"""Command-line entry point.

Subcommands: gen-data, train-base, train-incremental, eval, plot.
train-base and train-incremental each load the config, the previous step's
checkpoint and the train split, hand them to ``engine.run_step``, the one
place a step is built, and write the step's checkpoint and losses.  Exit
codes: 0 on success, 1 on validation errors (bad flags, malformed inputs,
missing files), 2 on runtime failures.  All randomness derives from one
--seed, so repeating a command with the same config and seed reproduces its
outputs byte for byte.

Each command loads only the libraries it runs.  Shard 1's worker
(``layers.Shards``) is forked with ``os.fork`` and talks to its parent
over two pipes, so no command imports ``multiprocessing``, nor the
``socket``, ``selectors`` and ``subprocess`` modules it would bring.
gen-data, train-base and train-incremental draw seeded random numbers, so
they load numpy.random, which imports ``secrets``, ``hmac`` and
``hashlib``; the training commands also hash the config
(``config.config_hash``, the one user of ``hashlib``).  None of them uses
OpenSSL, so before numpy.random loads they mark ``_hashlib``, OpenSSL's
binding, as unavailable (``_without_openssl``): the three modules then
fall back to CPython's builtin hashes, the config's sha256 digest is the
same, and OpenSSL's libcrypto is never mapped.  eval and plot load neither numpy.random nor
``hashlib``: eval fills a model skeleton built without a generator from
the checkpoint (``engine.load_checkpoint``) and stamps the checkpoint's
own config hash into its report.
"""

import os

# Every batch already runs as two shards in two processes (layers.Shards),
# and the GEMMs are too small (K = 8-32) for BLAS threads to pay on top of
# that.  With OPENBLAS_NUM_THREADS=2 each shard process starts its own BLAS
# threads, four busy threads in all: on a 2-vCPU host the benchmark's
# traced pass (seed 5) ran base-dense at 385 img/s with one BLAS thread and
# at 58 img/s with two, incr-rasp-memory at 177 and 26, and eval-wide at
# 283 and 28.  So one thread is the default.  A value set in the
# environment is kept, for hosts with four or more cores, where two
# threads per shard process need not oversubscribe them (not measured);
# on two cores it costs 4-10x.  Code that imports segprior.engine without
# this module gets OpenBLAS's own default, one thread per core in each
# shard process, unless it sets the variable before importing numpy.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import ctypes

# A run is hundreds of identical batches, and each batch frees its
# activations when it ends.  With glibc's defaults those pages go back to
# the kernel and the next batch faults them in again: train-base on a
# benchmark base-dense workspace (seed 5) took 173k minor faults, 736 per
# 4-image group in each shard process.  A fault costs 2-3 us with page
# zeroing on a 2-vCPU VM (a touch loop over a fresh mmap), so that is
# 1.6-2.2 ms of a shard call of about 15 ms.  Fixing both thresholds at
# 32 MiB, the largest mmap threshold every 64-bit glibc accepts (mallopt(3)),
# keeps freed pages in the heap for the next batch, and the run takes
# ~14.5k faults: imports, loading and the first batch.  Both are needed.
# Setting only the trim threshold stops glibc from raising its mmap
# threshold as arrays are freed, so every array above 128 KiB is mmapped
# and unmapped on each use (1.06M faults); setting only the mmap threshold
# leaves the top of the heap trimmed as before (201k faults).  The forked
# shard worker inherits the setting.  Code that imports segprior.engine
# without this module keeps glibc's defaults.  Where libc has no mallopt
# (macOS), this does nothing.
try:
    _mallopt = ctypes.CDLL(None).mallopt
except (AttributeError, OSError):
    pass
else:
    _mallopt.argtypes, _mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
    _mallopt(-1, 32 << 20)    # M_TRIM_THRESHOLD
    _mallopt(-3, 32 << 20)    # M_MMAP_THRESHOLD

import argparse
import dataclasses
import json
import sys

from . import config as config_mod
from . import engine, evalkit, synthdata
from .class_semantics import save_embeddings
from .fileio import write_json


def _without_openssl():
    """Make ``import _hashlib`` fail in this process, unless it already ran.

    numpy.random imports ``secrets``, which imports ``hmac``, which imports
    ``_hashlib`` and maps OpenSSL's libcrypto: 3.4 MB resident in a
    train-base process.  Nothing here needs OpenSSL.  Without ``_hashlib``,
    ``hmac`` and ``hashlib`` use CPython's builtin hashes, whose sha256 is
    the digest ``config.config_hash`` stamps into checkpoints.  Only the
    commands that draw random numbers call this, first thing; eval and plot
    never import ``_hashlib`` at all, so they leave sys.modules as it is.
    """
    sys.modules.setdefault("_hashlib", None)


class CliError(Exception):
    """Validation problem; maps to exit code 1."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise CliError(message)


def _ckpt_path(cfg, step, seed):
    return os.path.join(cfg.resolve(cfg.workdir), f"ckpt_step{step}_seed{seed}.npz")


def _losses_path(cfg, step, seed):
    return os.path.join(cfg.resolve(cfg.workdir), f"losses_step{step}_seed{seed}.json")


def _write_losses(path, step, seed, trace):
    write_json(path, {"step": step, "seed": seed, "loss": trace})


def _load_config(path):
    if not os.path.exists(path):
        raise CliError(f"config file not found: {path}")
    try:
        return config_mod.load_config(path)
    except (ValueError, KeyError, TypeError, json.JSONDecodeError) as exc:
        raise CliError(f"invalid config {path}: {exc}") from exc


def _apply_overrides(cfg, args):
    if getattr(args, "seed", None) is not None:
        cfg.engine.seed = args.seed
    if getattr(args, "lambda_rasp", None) is not None:
        cfg.loss = dataclasses.replace(cfg.loss, lambda_rasp=args.lambda_rasp)
    if getattr(args, "memory", None) is not None:
        cfg.memory.mode = args.memory
    if getattr(args, "memory_manifest", None) is not None:
        cfg.memory.manifest = args.memory_manifest
    return cfg


def _load_split(cfg, split):
    """The split's samples as ``synthdata.load_dataset`` gives them: read
    from disk when indexed."""
    path = cfg.resolve(cfg.train_manifest if split == "train" else cfg.eval_manifest)
    # an empty manifest name resolves to the config's directory
    if not path or not os.path.isfile(path):
        raise CliError(f"{split} manifest not found: {path}")
    samples, classes = synthdata.load_dataset(path)
    if classes != list(cfg.registry):
        raise CliError(f"manifest {path} lists classes {classes}, "
                       f"config registry says {list(cfg.registry)}")
    return samples


def cmd_gen_data(args):
    _without_openssl()
    if args.n <= 0 or args.eval_n < 0:
        raise CliError("--n must be positive and --eval-n non-negative")
    if not 1 <= args.min_objects <= args.max_objects:
        raise CliError("need 1 <= --min-objects <= --max-objects")
    tax = synthdata.default_taxonomy()
    os.makedirs(args.out, exist_ok=True)
    splits = [(os.path.join(args.out, "train"), args.n, args.seed)]
    if args.eval_n:
        splits.append((os.path.join(args.out, "eval"), args.eval_n, args.seed + 10_000))
    synthdata.export_dataset(tax, splits, image_size=args.size,
                             objects_range=(args.min_objects, args.max_objects))
    save_embeddings(tax.embeddings, os.path.join(args.out, "embeddings.json"))
    cfg = config_mod.ExperimentConfig(
        registry=list(tax.registry.names),
        embeddings_path="embeddings.json",
        train_manifest=os.path.join("train", "manifest.json"),
        eval_manifest=os.path.join("eval", "manifest.json") if args.eval_n else "",
        workdir="runs",
    )
    cfg.engine.seed = args.seed
    config_mod.save_config(cfg, os.path.join(args.out, "config.json"))
    print(f"wrote {args.n} train / {args.eval_n} eval samples and config.json "
          f"under {args.out}")
    return 0


def _train(args, step):
    """train-base (step 0) and train-incremental: ``engine.run_step`` from
    the previous step's checkpoint, then the step's checkpoint and losses.
    train-incremental rejects external memory without a manifest and a
    step outside [1, n_steps - 1] before it looks for the parent; train-base
    reads no memory, so neither concerns it."""
    _without_openssl()
    cfg = _apply_overrides(_load_config(args.config), args)
    seed = cfg.engine.seed
    parent = parent_hash = None
    if args.command == "train-incremental":
        if cfg.memory.mode == "external" and not cfg.memory.manifest:
            raise CliError("external memory needs --memory-manifest "
                           "(or config.memory.manifest)")
        n_steps = cfg.task_schedule().n_steps
        if not 1 <= step < n_steps:
            raise CliError(f"--step {step} is not in [1, {n_steps - 1}], the "
                           f"incremental steps of the {n_steps}-step schedule")
        prev = _ckpt_path(cfg, step - 1, seed)
        if not os.path.exists(prev):
            raise CliError(f"missing checkpoint for step {step - 1}: {prev} "
                           "(run the previous step first)")
        parent, _, parent_hash = engine.load_checkpoint(prev)
    model, trace, n_samples = engine.run_step(cfg, _load_split(cfg, "train"), parent, step)
    os.makedirs(cfg.resolve(cfg.workdir), exist_ok=True)
    ckpt = _ckpt_path(cfg, step, seed)
    engine.save_checkpoint(model, ckpt, step=step, config_hash=config_mod.config_hash(cfg),
                           parent_config_hash=parent_hash)
    _write_losses(_losses_path(cfg, step, seed), step, seed, trace)
    if parent is None:
        print(f"base training done on {n_samples} samples; "
              f"final loss {trace[-1]:.6f}; checkpoint {ckpt}")
    else:
        print(f"step {step} done on {n_samples} samples "
              f"(memory: {cfg.memory.mode}); checkpoint {ckpt}")
    return 0


def cmd_eval(args):
    # eval has no training flags: the config is read as it is
    cfg = _load_config(args.config)
    if not os.path.exists(args.checkpoint):
        raise CliError(f"checkpoint not found: {args.checkpoint}")
    registry = cfg.class_registry()
    schedule = cfg.task_schedule()
    model, step, chash = engine.load_checkpoint(args.checkpoint)
    if tuple(model.class_names) != schedule.channel_names(step):
        raise CliError("checkpoint class list does not match the schedule")
    # each shard process reads its own images, one at a time
    samples = _load_split(cfg, args.split)
    new_classes = [c for grp in schedule.increments[:step] for c in grp]
    counts = engine.predict_dataset(model, samples, registry)
    report = evalkit.build_report(counts, registry, schedule.base_classes,
                                  new_classes, step, chash)
    # beside the checkpoint: two checkpoints of one name in two directories
    # keep their own reports and traces
    stem = os.path.splitext(os.path.basename(args.checkpoint))[0]
    outdir = os.path.dirname(os.path.abspath(args.checkpoint))
    csv_path = os.path.join(outdir, f"report_{stem}_{args.split}.csv")
    json_path = os.path.join(outdir, f"report_{stem}_{args.split}.json")
    evalkit.emit_report(report, csv_path, json_path)
    trace_name = f"metrics_trace_{args.split}.json" if "_seed" not in stem else \
        f"metrics_trace_seed{stem.split('_seed')[1]}_{args.split}.json"
    trace_path = evalkit.append_trace(os.path.join(outdir, trace_name), report)
    base = report["miou_base"]
    pieces = [f"step {step}", f"mIoU(all) {report['miou_all']:.4f}",
              "mIoU(base) n/a" if base is None else f"mIoU(base) {base:.4f}"]
    if report["miou_new"] is not None:
        pieces.append(f"mIoU(new) {report['miou_new']:.4f}")
    print("; ".join(pieces))
    print(f"reports: {csv_path} {json_path}; trace: {trace_path}")
    return 0


def cmd_plot(args):
    if not os.path.exists(args.trace):
        raise CliError(f"trace file not found: {args.trace}")
    reports = evalkit.load_trace(args.trace)
    if not reports:
        raise CliError(f"trace {args.trace} holds no reports")
    evalkit.plot_trace_svg(reports, args.out)
    print(f"wrote {args.out}")
    return 0


def build_parser():
    parser = _Parser(prog="segprior",
                     description="Weakly supervised class-incremental "
                                 "segmentation, desk scale.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-data",
                       help="generate and export a synthetic dataset; two "
                            "processes write each split, byte-identical to one")
    p.add_argument("--out", required=True)
    p.add_argument("--n", type=int, default=600)
    p.add_argument("--eval-n", type=int, default=200)
    p.add_argument("--size", type=int, default=64)
    p.add_argument("--min-objects", type=int, default=1)
    p.add_argument("--max-objects", type=int, default=3)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_gen_data)

    p = sub.add_parser("train-base", help="train the dense-supervision base model")
    p.add_argument("--config", required=True)
    p.add_argument("--seed", type=int, default=None)
    p.set_defaults(func=lambda args: _train(args, 0))

    p = sub.add_parser("train-incremental",
                       help="run one weakly supervised incremental step")
    p.add_argument("--config", required=True)
    p.add_argument("--step", type=int, required=True)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--lambda-rasp", type=float, default=None)
    p.add_argument("--memory", choices=("none", "episodic", "external"),
                   default=None)
    p.add_argument("--memory-manifest", default=None)
    p.set_defaults(func=lambda args: _train(args, args.step))

    p = sub.add_parser("eval", help="evaluate a checkpoint; reports go beside it")
    p.add_argument("--config", required=True)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--split", choices=("train", "eval"), default="eval")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("plot", help="render per-step mIoU curves as SVG")
    p.add_argument("--trace", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_plot)
    return parser


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except (CliError, ValueError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # runtime failure
        print(f"runtime failure: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
