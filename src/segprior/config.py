"""Experiment configuration: one JSON document driving every CLI command.

Sections: registry (ordered class names, first entry is background),
embeddings_path, schedule, loss, engine, memory.  Relative paths are kept
verbatim (they hash portably) and resolved against the config file's
directory when used.  The sha256 of the canonical serialization is stamped
into checkpoints and metric reports so runs trace back to their exact
configuration.

``load_config`` rejects a document it cannot run: a missing section, a key
no section defines (the settings of a fixed recipe among them), a value
not of its field's annotated type, or a registry or schedule the class
lists cannot build.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field, fields, asdict

from .class_semantics import ClassRegistry
from .engine import EngineConfig
from .fileio import write_json
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


@dataclass
class MemoryConfig:
    """Which replay memory an incremental step mixes in; its capacity and
    batch share are ``memory.CAPACITY`` and ``memory.RATIO``."""

    mode: str = "none"            # "none" | "episodic" | "external"
    manifest: str | None = None

    def __post_init__(self):
        if self.mode not in ("none", "episodic", "external"):
            raise ValueError(f"unknown memory mode {self.mode!r}")


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
            "schedule": asdict(self.schedule),
            "loss": asdict(self.loss),
            "engine": {
                **asdict(self.engine),
                "train_manifest": self.train_manifest,
                "eval_manifest": self.eval_manifest,
                "workdir": self.workdir,
            },
            "memory": asdict(self.memory),
        }


def config_hash(cfg):
    # imported here: eval and plot hash nothing.  The training commands,
    # the callers of this function, keep OpenSSL out of the process
    # (``cli._without_openssl``), so hashlib's sha256 is CPython's builtin
    # one, the same digest as OpenSSL's
    import hashlib

    payload = json.dumps(cfg.to_dict(), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()[:16]


def save_config(cfg, path):
    return write_json(path, cfg.to_dict())


_SECTIONS = {"schedule": ScheduleConfig, "loss": LossConfig, "engine": EngineConfig,
             "memory": MemoryConfig}
# ExperimentConfig fields that the engine section carries
_ENGINE_PATHS = ("train_manifest", "eval_manifest", "workdir")
# the Python types a field accepts for each annotated type: exact types, so
# that True is no batch size and 2.5 no epoch count
_FIELD_TYPES = {"int": (int,), "float": (int, float), "str": (str,), "list": (list,)}


def _checked(section, raw, annotations):
    """A copy of the section raw, once each key is a field of annotations
    holding a value of the field's type; ``X | None`` also takes null."""
    if type(raw) is not dict:
        raise ValueError(f"the {section!r} section must be an object")
    for key, value in raw.items():
        if key not in annotations:
            raise ValueError(f"the {section!r} section has no setting {key!r}")
        kind, _, optional = annotations[key].partition(" | ")
        if type(value) not in _FIELD_TYPES[kind] and not (optional and value is None):
            raise ValueError(f"{section}.{key} must be of type {annotations[key]}, "
                             f"not {value!r}")
    return dict(raw)


def _annotations(cls):
    return {f.name: f.type for f in fields(cls)}


def load_config(path):
    with open(path, "r", encoding="utf-8") as fh:
        raw = json.load(fh)
    for section in ("registry", "embeddings_path", *_SECTIONS):
        if section not in raw:
            raise ValueError(f"config is missing the {section!r} section")
    top = _checked("config", {key: raw[key] for key in ("registry", "embeddings_path")},
                   _annotations(ExperimentConfig))
    if not all(type(name) is str for name in top["registry"]):
        raise ValueError(f"registry must be a list of class names, not {top['registry']!r}")
    sections = {}
    for name, cls in _SECTIONS.items():
        paths = dict.fromkeys(_ENGINE_PATHS, "str") if name == "engine" else {}
        sections[name] = _checked(name, raw[name], {**_annotations(cls), **paths})
    try:
        top.update({key: sections["engine"].pop(key) for key in _ENGINE_PATHS})
    except KeyError as exc:
        raise ValueError(f"engine section is missing {exc}") from None
    cfg = ExperimentConfig(**top, **{name: cls(**sections[name])
                                     for name, cls in _SECTIONS.items()},
                           root=os.path.dirname(os.path.abspath(path)))
    cfg.task_schedule()   # validates the registry and schedule sections
    return cfg
