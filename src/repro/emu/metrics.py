"""Execution metrics collected by the functional emulator.

These counters back several of the paper's figures: dynamic instruction
counts (figure 13), violation breakdowns and replay overhead (figure 9),
and the extra-iterations bound discussed in section III-A.
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass
class SrvMetrics:
    """Per-run SRV activity counters."""

    regions_entered: int = 0
    region_passes: int = 0          # total executions of region bodies
    replays: int = 0                # passes beyond the first
    raw_violations: int = 0         # lanes flagged for replay (horizontal RAW)
    war_events: int = 0             # loads denied forwarding from later lanes
    waw_events: int = 0             # overlapping stores resolved by ordering
    replayed_lane_executions: int = 0
    first_pass_lane_executions: int = 0
    max_replays_in_region: int = 0
    lsu_fallbacks: int = 0          # regions run in sequential fallback mode
    lsu_entries_peak: int = 0
    tm_war_replays: int = 0         # WAR-forced lane replays in TM mode
    interrupts_taken: int = 0       # context switches inside regions

    @property
    def extra_iteration_fraction(self) -> float:
        """Replay overhead as a fraction of vector iterations (figure 9).

        A replay pass re-executes a subset of lanes; the paper reports the
        number of *additional vector iterations* this is equivalent to.
        """
        if self.regions_entered == 0:
            return 0.0
        return self.replays / self.regions_entered

    @property
    def extra_lane_fraction(self) -> float:
        if self.first_pass_lane_executions == 0:
            return 0.0
        return self.replayed_lane_executions / self.first_pass_lane_executions


@dataclass
class EmuMetrics:
    """Dynamic execution statistics."""

    dynamic_instructions: int = 0
    scalar_instructions: int = 0
    vector_instructions: int = 0
    vector_mem_instructions: int = 0
    gather_scatter_instructions: int = 0
    gather_load_instructions: int = 0
    load_instructions: int = 0
    scalar_mem_instructions: int = 0
    branch_instructions: int = 0
    loads_forwarded: int = 0
    srv: SrvMetrics = field(default_factory=SrvMetrics)

    def count(self, flags: tuple[bool, bool, bool, bool, bool],
              times: int) -> None:
        """Add ``times`` executions of one static instruction whose
        decode record's ``count_flags`` are ``flags``."""
        is_vector, is_mem, is_branch, is_gather_scatter, is_load = flags
        self.dynamic_instructions += times
        if is_load:
            self.load_instructions += times
            if is_gather_scatter:
                self.gather_load_instructions += times
        if is_vector:
            self.vector_instructions += times
            if is_mem:
                self.vector_mem_instructions += times
                if is_gather_scatter:
                    self.gather_scatter_instructions += times
        else:
            self.scalar_instructions += times
            if is_mem:
                self.scalar_mem_instructions += times
        if is_branch:
            self.branch_instructions += times
