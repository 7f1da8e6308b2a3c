"""Machine configuration.

Defaults reproduce Table I of the paper ("Core and memory experimental
setup"): an 8-wide out-of-order core at 3 GHz with a 64-entry LSU, 32-entry
IQ, 400-entry ROB, 16-element vectors, and a two-level cache hierarchy.
Every structure in the simulator reads its size from here so that ablation
experiments can sweep a single field.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Any


@dataclass(frozen=True)
class PortConfig:
    """Issue-port and register-file port provisioning (Table I, "Ports")."""

    saq_reads: int = 2
    saq_writes: int = 2
    saq_cams: int = 2
    sdq_reads: int = 5
    sdq_writes: int = 2
    vec_rf_reads: int = 6
    vec_rf_writes: int = 2
    cache_read_write: int = 1
    cache_read_only: int = 1


@dataclass(frozen=True)
class IssueConfig:
    """Per-cycle vector-operation issue limits (Table I, "Vec-op / cycle")."""

    vec_int_ops: int = 2
    vec_other_ops: int = 1
    vec_loads: int = 2
    vec_stores: int = 1
    scalar_ops: int = 4


@dataclass(frozen=True)
class BranchPredictorConfig:
    """Tournament predictor sizing (Table I, "Branch pred")."""

    local_entries: int = 64
    global_entries: int = 1024
    btb_entries: int = 128
    chooser_entries: int = 1024
    ras_entries: int = 8
    local_history_bits: int = 6
    global_history_bits: int = 10
    mispredict_penalty: int = 14
    #: fetch bubble on a correctly-predicted taken branch (the redirect
    #: through the BTB still costs the front end a couple of cycles)
    taken_branch_bubble: int = 2


@dataclass(frozen=True)
class CacheConfig:
    size_bytes: int
    associativity: int
    hit_latency: int
    line_bytes: int = 64

    def __post_init__(self) -> None:
        if self.size_bytes % (self.associativity * self.line_bytes):
            raise ValueError(
                "cache size must be a multiple of associativity * line size"
            )

    @property
    def num_sets(self) -> int:
        return self.size_bytes // (self.associativity * self.line_bytes)


@dataclass(frozen=True)
class MemoryConfig:
    l1: CacheConfig = field(
        default_factory=lambda: CacheConfig(32 * 1024, 4, hit_latency=2)
    )
    l2: CacheConfig = field(
        default_factory=lambda: CacheConfig(1024 * 1024, 16, hit_latency=7)
    )
    dram_latency: int = 80


@dataclass(frozen=True)
class MachineConfig:
    """Full machine description; defaults are Table I."""

    clock_ghz: float = 3.0
    pipeline_width: int = 8          # fetch / decode / issue width
    vector_lanes: int = 16           # 16 elements, element-size agnostic
    lsu_entries: int = 64
    iq_entries: int = 32
    rob_entries: int = 400
    alignment_region_bytes: int = 64
    max_element_bytes: int = 8
    physical_vec_regs: int = 128
    physical_scalar_regs: int = 180
    ports: PortConfig = field(default_factory=PortConfig)
    issue: IssueConfig = field(default_factory=IssueConfig)
    branch: BranchPredictorConfig = field(default_factory=BranchPredictorConfig)
    memory: MemoryConfig = field(default_factory=MemoryConfig)
    store_set_entries: int = 256
    # SRV-specific knobs
    srv_enabled: bool = True
    #: Future-work optimisation (paper section VIII): let ``srv_end`` wait
    #: only for the region's memory operations and stop stalling younger
    #: instructions' issue.  Models the upside of "removing the
    #: serialisation barrier in SRV-end".
    srv_relax_barrier: bool = False
    #: Section III-E: emulate a transactional-memory implementation that
    #: keeps no cache-line versions — WAR violations force lane
    #: re-execution in addition to RAW.
    srv_tm_mode: bool = False
    #: Run every SRV-region through the section III-D7 sequential fallback
    #: regardless of LSU demand.  The hardened experiment runner uses this
    #: to degrade gracefully when the cycle model hits an LSU overflow.
    srv_force_sequential: bool = False

    def __post_init__(self) -> None:
        if self.vector_lanes <= 0:
            raise ValueError("vector_lanes must be positive")
        if self.alignment_region_bytes & (self.alignment_region_bytes - 1):
            raise ValueError("alignment_region_bytes must be a power of two")
        if self.vector_lanes * self.max_element_bytes < self.alignment_region_bytes:
            # A full contiguous vector access must be representable in at
            # most two alignment regions; the paper uses 64-byte regions for
            # 16-lane x 4-byte vectors.
            pass

    def with_overrides(self, **kwargs: Any) -> "MachineConfig":
        """Return a copy with the given fields replaced (for ablations)."""
        return replace(self, **kwargs)


#: The configuration used throughout the paper's evaluation.
TABLE_I = MachineConfig()
