"""The contamination-condition vocabulary: modes, temporal windows, copies
and the training dimensions a plan is made for.

The planner (:mod:`contamkit.injector`), the impact analytics
(:mod:`contamkit.analytics`) and the command-line parser all read these
names, so none of them needs the planner to know what a condition is.
"""

import math
from dataclasses import dataclass
from enum import Enum

from .corpus_io import SignedInt

PART_WHOLE = "whole"
PART_SOURCE_HALF = "source_half"
PART_TARGET_HALF = "target_half"


class CapacityError(ValueError):
    """A plan needs more injection slots than its window provides, or a corpus
    exceeds what one index file can address (split it into smaller shards)."""

    def __init__(self, message: str, required: int | None = None, available: int | None = None):
        super().__init__(message)
        self.required = required
        self.available = available


class ContaminationMode(str, Enum):
    FULL_PROMPTED = "full_prompted"
    SOURCE_ONLY = "source_only"
    TARGET_ONLY = "target_only"
    SPLIT_PAIR = "split_pair"
    BATCHED_PAIR = "batched_pair"


# The parts each copy of an example is rendered into, in render order, as
# groups: the documents of a group share one step, and each group of a copy
# takes a step of its own.
MODE_LAYOUT: dict[ContaminationMode, tuple[tuple[str, ...], ...]] = {
    ContaminationMode.FULL_PROMPTED: ((PART_WHOLE,),),
    ContaminationMode.SOURCE_ONLY: ((PART_WHOLE,),),
    ContaminationMode.TARGET_ONLY: ((PART_WHOLE,),),
    ContaminationMode.SPLIT_PAIR: ((PART_SOURCE_HALF,), (PART_TARGET_HALF,)),
    ContaminationMode.BATCHED_PAIR: ((PART_SOURCE_HALF, PART_TARGET_HALF),),
}


class Temporal(str, Enum):
    EARLY = "early"
    MIDDLE = "middle"
    LATE = "late"
    UNIFORM = "uniform"


WINDOW_START_FRAC = {Temporal.EARLY: 0.30, Temporal.MIDDLE: 0.60, Temporal.LATE: 0.90}
UNIFORM_RANGE_FRAC = (0.30, 0.90)


@dataclass(frozen=True)
class ContaminationCondition:
    """One cell of the condition matrix: how, when, and how often to inject."""

    mode: ContaminationMode
    temporal: Temporal
    copies: int

    def __post_init__(self):
        object.__setattr__(self, "mode", ContaminationMode(self.mode))
        object.__setattr__(self, "temporal", Temporal(self.temporal))
        if self.copies < 1:
            raise ValueError("copies must be >= 1")

    @property
    def arity(self) -> int:
        """Documents per copy."""
        return sum(map(len, MODE_LAYOUT[self.mode]))


@dataclass(frozen=True)
class TrainingConfig:
    """Stream dimensions and injection limits for planning."""

    total_steps: int
    batch_size: int
    max_replace_frac: float = 0.05
    window_frac: float = 0.02
    seed: SignedInt = 0
    strict_cap: bool = False

    def __post_init__(self):
        for name in ("total_steps", "batch_size"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1")
            if getattr(self, name) > 1 << 63:  # so every step and slot fits a 64-bit schedule column
                raise ValueError(f"{name} must be <= 2**63")
        if not 0 < self.max_replace_frac < 1:
            raise ValueError("max_replace_frac must be in (0, 1)")
        if not 0 < self.window_frac <= 1:
            raise ValueError("window_frac must be in (0, 1]")

    def replace_cap(self) -> int:
        """Max injected documents per batch."""
        exact = self.max_replace_frac * self.batch_size
        cap = int(math.floor(exact + 1e-9))
        if self.strict_cap and abs(cap - exact) < 1e-9:
            cap -= 1
        return cap
