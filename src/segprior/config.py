"""Experiment configuration: one JSON document driving every CLI command.

Sections: registry (ordered class names, first entry is background),
embeddings_path, schedule, loss, engine, memory.  Relative paths are kept
verbatim (they hash portably) and resolved against the config file's
directory when used.  The sha256 of the canonical serialization is stamped
into checkpoints and metric reports so runs trace back to their exact
configuration.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass, field, asdict

from .class_semantics import ClassRegistry
from .engine import EngineConfig
from .fileio import atomic_open
from .objectives import LossConfig
from .protocol import build_schedule


@dataclass
class ScheduleConfig:
    n_base: int = 4
    n_per_step: int = 2
    mode: str = "overlap"
    shots: int | None = None
    ordering_seed: int | None = None
    ordering: list | None = None

    def to_dict(self):
        return asdict(self)


@dataclass
class MemoryConfig:
    mode: str = "none"            # "none" | "episodic" | "external"
    capacity: int = 100
    ratio: float = 0.25
    manifest: str | None = None

    def __post_init__(self):
        if self.mode not in ("none", "episodic", "external"):
            raise ValueError(f"unknown memory mode {self.mode!r}")
        if self.capacity <= 0:
            raise ValueError("memory capacity must be positive")
        if not 0.0 <= self.ratio <= 1.0:
            raise ValueError("memory ratio must lie in [0, 1]")

    def to_dict(self):
        return asdict(self)


@dataclass
class ExperimentConfig:
    registry: list                      # ordered class names, bkg first
    embeddings_path: str
    train_manifest: str
    eval_manifest: str
    workdir: str
    schedule: ScheduleConfig = field(default_factory=ScheduleConfig)
    loss: LossConfig = field(default_factory=LossConfig)
    engine: EngineConfig = field(default_factory=EngineConfig)
    memory: MemoryConfig = field(default_factory=MemoryConfig)
    root: str = "."                     # directory paths resolve against

    def resolve(self, path):
        if path is None or os.path.isabs(path):
            return path
        return os.path.join(self.root, path)

    def class_registry(self):
        return ClassRegistry(self.registry)

    def task_schedule(self):
        return build_schedule(
            self.class_registry(),
            self.schedule.n_base,
            self.schedule.n_per_step,
            self.schedule.mode,
            ordering=self.schedule.ordering,
            ordering_seed=self.schedule.ordering_seed,
            shots=self.schedule.shots,
        )

    def to_dict(self):
        return {
            "registry": list(self.registry),
            "embeddings_path": self.embeddings_path,
            "schedule": self.schedule.to_dict(),
            "loss": self.loss.to_dict(),
            "engine": {
                **self.engine.to_dict(),
                "train_manifest": self.train_manifest,
                "eval_manifest": self.eval_manifest,
                "workdir": self.workdir,
            },
            "memory": self.memory.to_dict(),
        }


def config_hash(cfg):
    payload = json.dumps(cfg.to_dict(), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()[:16]


def save_config(cfg, path):
    with atomic_open(path, encoding="utf-8") as fh:
        json.dump(cfg.to_dict(), fh, indent=1)
        fh.write("\n")
    return path


def load_config(path):
    with open(path, "r", encoding="utf-8") as fh:
        raw = json.load(fh)
    for section in ("registry", "embeddings_path", "schedule", "loss", "engine",
                    "memory"):
        if section not in raw:
            raise ValueError(f"config is missing the {section!r} section")
    engine_raw = dict(raw["engine"])
    try:
        train_manifest = engine_raw.pop("train_manifest")
        eval_manifest = engine_raw.pop("eval_manifest")
        workdir = engine_raw.pop("workdir")
    except KeyError as exc:
        raise ValueError(f"engine section is missing {exc}") from None
    cfg = ExperimentConfig(
        registry=list(raw["registry"]),
        embeddings_path=raw["embeddings_path"],
        train_manifest=train_manifest,
        eval_manifest=eval_manifest,
        workdir=workdir,
        schedule=ScheduleConfig(**raw["schedule"]),
        loss=LossConfig(**raw["loss"]),
        engine=EngineConfig.from_dict(engine_raw),
        memory=MemoryConfig(**raw["memory"]),
        root=os.path.dirname(os.path.abspath(path)),
    )
    cfg.class_registry()   # validates the registry section
    return cfg
