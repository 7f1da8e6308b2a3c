"""Shared substrate: machine configuration, errors, RNG."""

from repro.common.config import (
    TABLE_I,
    BranchPredictorConfig,
    CacheConfig,
    IssueConfig,
    MachineConfig,
    MemoryConfig,
    PortConfig,
)
from repro.common.errors import (
    CompilerError,
    DependenceAnalysisError,
    IsaError,
    LsuOverflowError,
    MemoryAccessError,
    PipelineError,
    ReplayBoundExceededError,
    ReproError,
    SrvError,
)

__all__ = [
    "TABLE_I",
    "BranchPredictorConfig",
    "CacheConfig",
    "IssueConfig",
    "MachineConfig",
    "MemoryConfig",
    "PortConfig",
    "CompilerError",
    "DependenceAnalysisError",
    "IsaError",
    "LsuOverflowError",
    "MemoryAccessError",
    "PipelineError",
    "ReplayBoundExceededError",
    "ReproError",
    "SrvError",
]
