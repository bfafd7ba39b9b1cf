"""Command-line entry point.

Subcommands: gen-data, train-base, train-incremental, eval, plot.  Exit
codes: 0 on success, 1 on validation errors (bad flags, malformed inputs,
missing files), 2 on runtime failures.  All randomness derives from one
--seed, so repeating a command with the same config and seed reproduces its
outputs byte for byte.
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

import argparse
import dataclasses
import json
import sys

import numpy as np

from . import config as config_mod
from . import engine, evalkit, memory as memory_mod, protocol, synthdata
from .class_semantics import load_embeddings, save_embeddings, similarity_matrix
from .fileio import atomic_open


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
    with atomic_open(path, encoding="utf-8") as fh:
        json.dump({"step": step, "seed": seed, "loss": trace}, fh, indent=1)
        fh.write("\n")


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
    if cfg.memory.mode == "external" and not cfg.memory.manifest:
        raise CliError("external memory needs --memory-manifest (or config.memory.manifest)")
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


def cmd_train_base(args):
    cfg = _apply_overrides(_load_config(args.config), args)
    chash = config_mod.config_hash(cfg)
    registry = cfg.class_registry()
    schedule = cfg.task_schedule()
    # the manifest's present lists choose the rows before any image is
    # read; every epoch visits each chosen image again, so each is read
    # once and kept
    files = _load_split(cfg, "train")
    base = list(files[protocol.step_rows(files.present, schedule, 0)])
    if not base:
        raise CliError("no samples remain after base-step filtering")
    model = engine.SegModel.init(schedule.channel_names(0), seed=cfg.engine.seed,
                                 dtype=cfg.engine.np_dtype())
    model, trace = engine.base_train(model, base, registry, cfg.engine)
    os.makedirs(cfg.resolve(cfg.workdir), exist_ok=True)
    ckpt = _ckpt_path(cfg, 0, cfg.engine.seed)
    engine.save_checkpoint(model, ckpt, step=0, config_hash=chash)
    _write_losses(_losses_path(cfg, 0, cfg.engine.seed), 0, cfg.engine.seed, trace)
    print(f"base training done on {len(base)} samples; "
          f"final loss {trace[-1]:.6f}; checkpoint {ckpt}")
    return 0


def _step_samples(samples, schedule, step, seed):
    """The train samples a step trains on: the step's filtered split, cut
    to schedule.shots images per class in few-shot incremental steps."""
    out = protocol.filter_step(samples, schedule, step)
    if step >= 1 and schedule.shots is not None:
        out = protocol.few_shot_sample(out, schedule, step, schedule.shots, seed)
    return out


def _build_bank(cfg, registry, schedule, step, samples, seed):
    if cfg.memory.mode == "none":
        return None
    if cfg.memory.mode == "external":
        manifest = cfg.resolve(cfg.memory.manifest)
        if not manifest or not os.path.exists(manifest):
            raise CliError(f"memory manifest not found: {manifest}")
        return memory_mod.ingest_external(manifest, registry)
    past = []
    for past_step in range(step):
        past.extend(_step_samples(samples, schedule, past_step, seed))
    old_classes = schedule.old_classes(step)
    return memory_mod.populate_episodic(past, old_classes, registry,
                                        memory_mod.CAPACITY, seed)


def cmd_train_incremental(args):
    cfg = _apply_overrides(_load_config(args.config), args)
    chash = config_mod.config_hash(cfg)
    registry = cfg.class_registry()
    schedule = cfg.task_schedule()
    step = args.step
    if not 1 <= step < schedule.n_steps:
        raise CliError(f"--step must lie in [1, {schedule.n_steps - 1}]")
    seed = cfg.engine.seed
    prev = _ckpt_path(cfg, step - 1, seed)
    if not os.path.exists(prev):
        raise CliError(f"missing checkpoint for step {step - 1}: {prev} "
                       "(run the previous step first)")
    parent, _, parent_hash = engine.load_checkpoint(prev)
    if tuple(parent.class_names) != schedule.channel_names(step - 1):
        raise CliError("checkpoint class list does not match the schedule")
    samples = list(_load_split(cfg, "train"))
    step_samples = protocol.with_weak_labels(
        _step_samples(samples, schedule, step, seed), schedule, step)
    if not step_samples:
        raise CliError(f"no samples remain for step {step}")
    bank = _build_bank(cfg, registry, schedule, step, samples, seed)
    table = load_embeddings(cfg.resolve(cfg.embeddings_path))
    sim = similarity_matrix(registry, table)
    model = engine.extend_head(parent, schedule.classes_at_step(step),
                               seed=np.random.SeedSequence((seed, step, 7)).generate_state(1)[0])
    state = engine.StepState(
        step=step, old_model=parent, model=model, loss_cfg=cfg.loss,
        engine_cfg=cfg.engine, n_old=len(parent.class_names),
    )
    model, trace = engine.incremental_step(state, step_samples, bank, sim, registry)
    ckpt = _ckpt_path(cfg, step, seed)
    engine.save_checkpoint(model, ckpt, step=step, config_hash=chash,
                           parent_config_hash=parent_hash)
    _write_losses(_losses_path(cfg, step, seed), step, seed, trace)
    print(f"step {step} done on {len(step_samples)} samples "
          f"(memory: {cfg.memory.mode}); checkpoint {ckpt}")
    return 0


def cmd_eval(args):
    cfg = _apply_overrides(_load_config(args.config), args)
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
    report = evalkit.evaluate_model(
        model, samples, registry, schedule.base_classes, new_classes,
        step, chash)
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
    pieces = [f"step {step}", f"mIoU(all) {report.miou_all:.4f}",
              f"mIoU(base) {report.miou_base:.4f}"]
    if not np.isnan(report.miou_new):
        pieces.append(f"mIoU(new) {report.miou_new:.4f}")
    print("; ".join(pieces))
    print(f"reports: {csv_path} {json_path}; trace: {trace_path}")
    return 0


def cmd_plot(args):
    if not os.path.exists(args.trace):
        raise CliError(f"trace file not found: {args.trace}")
    try:
        reports = evalkit.load_trace(args.trace)
    except (ValueError, KeyError, json.JSONDecodeError) as exc:
        raise CliError(f"invalid trace {args.trace}: {exc}") from exc
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
    p.set_defaults(func=cmd_train_base)

    p = sub.add_parser("train-incremental",
                       help="run one weakly supervised incremental step")
    p.add_argument("--config", required=True)
    p.add_argument("--step", type=int, required=True)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--lambda-rasp", type=float, default=None)
    p.add_argument("--memory", choices=("none", "episodic", "external"),
                   default=None)
    p.add_argument("--memory-manifest", default=None)
    p.set_defaults(func=cmd_train_incremental)

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
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (ValueError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # runtime failure
        print(f"runtime failure: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
