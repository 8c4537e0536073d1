"""Shared machine parameters and typed enums."""

from repro.common.params import MachineParams
from repro.common.types import (
    AccessKind,
    HighLevelOp,
    MissClass,
    Mode,
    RefDomain,
)

__all__ = [
    "MachineParams",
    "AccessKind",
    "HighLevelOp",
    "MissClass",
    "Mode",
    "RefDomain",
]
