"""Incremental task schedules, per-step dataset filtering and weak labels.

A schedule partitions the foreground classes into a base group learned with
dense masks (step 0) and equal-size increments learned from image-level
labels (steps 1..T).  Two filtering protocols are supported:

* ``overlap``  - a step keeps every sample containing at least one pixel of
  a current-step class; older and future classes may co-occur.
* ``disjoint`` - additionally drops samples containing any pixel of a class
  from a future step.

Step 0 keeps samples containing at least one base-class pixel in both modes.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .class_semantics import ClassRegistry


def present_classes(mask):
    """Registry indices with at least one pixel in an integer mask."""
    return frozenset(int(v) for v in np.flatnonzero(np.bincount(mask.ravel())))


@dataclass
class Sample:
    """One image with its dense mask; weak_labels is filled per step.

    The mask is scanned for its classes once, on construction; copies made
    with ``dataclasses.replace`` carry the result over.
    """

    image: np.ndarray              # (H, W, 3) uint8
    dense_mask: np.ndarray         # (H, W) registry indices, uint8 as PGMs store them
    weak_labels: frozenset = frozenset()
    present: frozenset = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        if self.present is None and self.dense_mask is not None:
            self.present = present_classes(self.dense_mask)

    def present_indices(self):
        return self.present


@dataclass(frozen=True)
class TaskSchedule:
    base_classes: tuple
    increments: tuple              # tuple of tuples of class names
    mode: str                      # "overlap" | "disjoint"
    registry: ClassRegistry
    shots: int | None = None
    ordering_seed: int | None = None

    @property
    def n_steps(self):
        """Number of tasks including the base step."""
        return 1 + len(self.increments)

    def classes_at_step(self, step):
        """Class names learned at a step (base classes for step 0)."""
        self._check_step(step)
        return self.base_classes if step == 0 else self.increments[step - 1]

    def old_classes(self, step):
        """Foreground classes learned strictly before a step, in order."""
        self._check_step(step)
        out = list(self.base_classes)
        for grp in self.increments[: max(step - 1, 0)]:
            out.extend(grp)
        return tuple(out) if step > 0 else tuple()

    def future_classes(self, step):
        self._check_step(step)
        out = []
        for grp in self.increments[step:] if step > 0 else self.increments:
            out.extend(grp)
        return tuple(out)

    def channel_names(self, step):
        """Label-space order through a step: bkg, base, then increments."""
        self._check_step(step)
        names = [self.registry.background_name]
        names.extend(self.base_classes)
        for grp in self.increments[:step]:
            names.extend(grp)
        return tuple(names)

    def _check_step(self, step):
        if not (0 <= step < self.n_steps):
            raise ValueError(f"step {step} out of range for {self.n_steps}-task schedule")


def build_schedule(registry, n_base, n_per_step, mode, ordering=None,
                   ordering_seed=None, shots=None):
    """Split the foreground classes into a base group plus fixed-size increments."""
    if mode not in ("overlap", "disjoint"):
        raise ValueError(f"unknown protocol mode {mode!r}")
    fg = list(registry.foreground_names)
    n = len(fg)
    if n_base <= 0 or n_per_step <= 0:
        raise ValueError("n_base and n_per_step must be positive")
    if n_base >= n:
        raise ValueError(f"n_base={n_base} must be below the foreground count {n}")
    if (n - n_base) % n_per_step != 0:
        raise ValueError(
            f"cannot split {n - n_base} incremental classes into groups of {n_per_step}"
        )
    if ordering is not None:
        ordering = list(ordering)
        if sorted(ordering) != sorted(fg):
            raise ValueError("ordering must be a permutation of the foreground classes")
    elif ordering_seed is not None:
        rng = np.random.default_rng(ordering_seed)
        ordering = [fg[i] for i in rng.permutation(n)]
    else:
        ordering = fg
    base = tuple(ordering[:n_base])
    increments = tuple(
        tuple(ordering[i:i + n_per_step]) for i in range(n_base, n, n_per_step)
    )
    if shots is not None and shots <= 0:
        raise ValueError("shots must be positive when given")
    return TaskSchedule(base, increments, mode, registry, shots, ordering_seed)


def _index_set(schedule, names):
    return {schedule.registry.index_of(n) for n in names}


def step_rows(present, schedule, step):
    """Positions of the samples admitted to a step under the schedule's
    protocol, given each sample's set of present registry indices."""
    schedule._check_step(step)
    current = _index_set(schedule, schedule.classes_at_step(step))
    future = _index_set(schedule, schedule.future_classes(step))
    disjoint = schedule.mode == "disjoint"
    return [k for k, shown in enumerate(present)
            if shown & current and not (disjoint and shown & future)]


def filter_step(dataset, schedule, step):
    """Samples admitted to a step under the schedule's protocol."""
    present = [sample.present_indices() for sample in dataset]
    return [dataset[k] for k in step_rows(present, schedule, step)]


def weak_labels(sample, schedule, step):
    """Image-level labels: current-step classes with at least one pixel."""
    if step < 1:
        raise ValueError("weak labels exist for incremental steps only (step >= 1)")
    schedule._check_step(step)
    present = sample.present_indices()
    return frozenset(
        name for name in schedule.classes_at_step(step)
        if schedule.registry.index_of(name) in present
    )


def with_weak_labels(samples, schedule, step):
    """Copies of samples with weak_labels populated for the given step."""
    return [
        replace(s, weak_labels=weak_labels(s, schedule, step))
        for s in samples
    ]


def few_shot_sample(dataset, schedule, step, k, seed):
    """Exactly k samples per current-step class, drawn without replacement.

    A sample containing several current classes sits in each class's pool;
    once drawn for one class it is removed from the others so the result
    holds no duplicates.
    """
    if k <= 0:
        raise ValueError("k must be positive")
    schedule._check_step(step)
    rng = np.random.default_rng(seed)
    chosen = []
    taken = set()
    for name in schedule.classes_at_step(step):
        idx = schedule.registry.index_of(name)
        pool = [
            i for i, s in enumerate(dataset)
            if i not in taken and idx in s.present_indices()
        ]
        if len(pool) < k:
            raise ValueError(
                f"class {name!r} has only {len(pool)} eligible samples, need {k}"
            )
        picks = rng.choice(len(pool), size=k, replace=False)
        for p in sorted(int(v) for v in picks):
            taken.add(pool[p])
            chosen.append(pool[p])
    return [dataset[i] for i in chosen]
