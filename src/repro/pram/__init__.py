"""CREW PRAM simulation substrate: cost metering, memory, and primitives.

This package is the hardware substitution for the paper's abstract machine
(Section 1.5.1): algorithms execute vectorized on one CPU but are metered in
**work** (total operations) and **depth** (synchronous rounds), the two
quantities the paper's theorems bound.
"""

from repro.pram.cost import (
    RACE_TRAFFIC_PREFIX,
    WRITE_RULES,
    CostHook,
    CostModel,
    CostSnapshot,
    StepRecord,
)
from repro.pram.errors import (
    InvalidStepError,
    PRAMError,
    ProcessorBudgetError,
    ShadowRaceError,
    WriteConflictError,
)
from repro.pram.frontier import ENGINES, FrontierStats, frontier_relax
from repro.pram.machine import PRAM
from repro.pram.memory import CREWMemory
from repro.pram.schedule import SchedulePoint, makespan, speedup_curve
from repro.pram.workspace import Workspace, poison_default

__all__ = [
    "PRAM",
    "ENGINES",
    "FrontierStats",
    "frontier_relax",
    "Workspace",
    "poison_default",
    "CostModel",
    "CostHook",
    "CostSnapshot",
    "StepRecord",
    "CREWMemory",
    "makespan",
    "speedup_curve",
    "SchedulePoint",
    "PRAMError",
    "WriteConflictError",
    "ShadowRaceError",
    "ProcessorBudgetError",
    "InvalidStepError",
    "RACE_TRAFFIC_PREFIX",
    "WRITE_RULES",
]
