"""Invariant monitors over dynamic execution traces.

Each monitor re-derives one paper invariant from the trace alone and
reports :class:`Violation` records instead of relying on the simulator's
own inline assertions.  The monitors are deliberately independent of the
emulator's bookkeeping: a corrupted simulator that *mis-reports* its own
state is exactly what they exist to catch.

Invariants checked (paper references in parentheses):

* **replay bound** — a region rolls back at most ``lanes - 1`` times
  (section III-A);
* **region nesting** — ``srv_start`` never occurs inside an active region,
  every region closes with a commit or a complete sequential fallback
  (section III-A);
* **LSU occupancy** — a non-fallback region's entry demand never exceeds
  ``config.lsu_entries``; gathers/scatters cost one entry per lane
  (section III-D7);
* **predicate / bytes-accessed consistency** — a vector memory op touches
  at most ``active_lane_count`` distinct lanes, lane ids are in range,
  and contiguous/broadcast accesses have the address shape their opcode
  promises (figures 3-5);
* **trace well-formedness** — branch outcomes are recorded exactly for
  branch-class ops, and memory events appear only on memory ops.

Every monitor reads the :class:`~repro.pipeline.trace.TraceLog` in
place, by op index.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.common.config import MachineConfig
from repro.pipeline.trace import (
    BRANCH_MASK,
    EV_END_COMMIT,
    EV_END_REPLAY,
    EV_FALLBACK,
    EV_START,
    EVENT_MASK,
    IN_REGION,
    OpClass,
    TraceLog,
)


@dataclass(frozen=True)
class Violation:
    """One detected invariant breach."""

    monitor: str
    message: str
    op_index: int | None = None

    def __str__(self) -> str:
        where = f" @op{self.op_index}" if self.op_index is not None else ""
        return f"[{self.monitor}{where}] {self.message}"


# ---------------------------------------------------------------------------
# individual monitors
# ---------------------------------------------------------------------------


def check_region_structure(
    log: TraceLog, config: MachineConfig
) -> list[Violation]:
    """Region nesting, closure, and the ``lanes - 1`` replay bound."""
    violations: list[Violation] = []
    lanes = config.vector_lanes
    open_region = False
    replay_ends = 0
    fallback_passes = 0
    in_fallback = False

    for index, bits in enumerate(log.bits):
        event = bits & EVENT_MASK
        if event == EV_START:
            if open_region:
                violations.append(Violation(
                    "region-nesting",
                    "srv_start inside an active SRV-region",
                    index,
                ))
            open_region = True
            replay_ends = 0
            fallback_passes = 0
            in_fallback = False
        in_region = bool(bits & IN_REGION)
        if in_region != open_region:
            violations.append(Violation(
                "region-nesting",
                f"op in_region={in_region} disagrees with region "
                f"structure (open={open_region})",
                index,
            ))
        if event == EV_END_REPLAY:
            if not open_region:
                violations.append(Violation(
                    "region-nesting", "replay srv_end outside a region",
                    index,
                ))
            replay_ends += 1
            if replay_ends > lanes - 1:
                violations.append(Violation(
                    "replay-bound",
                    f"region rolled back {replay_ends} times "
                    f"(bound is lanes - 1 = {lanes - 1})",
                    index,
                ))
        elif event == EV_END_COMMIT:
            if not open_region:
                violations.append(Violation(
                    "region-nesting", "commit srv_end outside a region",
                    index,
                ))
            open_region = False
        elif event == EV_FALLBACK:
            if not open_region:
                violations.append(Violation(
                    "region-nesting", "fallback srv_end outside a region",
                    index,
                ))
            in_fallback = True
            fallback_passes += 1
            if fallback_passes == lanes:
                open_region = False  # last single-lane pass commits
            elif fallback_passes > lanes:
                violations.append(Violation(
                    "region-nesting",
                    f"sequential fallback ran {fallback_passes} passes "
                    f"for {lanes} lanes",
                    index,
                ))
    if open_region:
        where = len(log) - 1 if len(log) else None
        kind = "fallback " if in_fallback else ""
        violations.append(Violation(
            "region-nesting", f"trace ends inside an open {kind}SRV-region",
            where,
        ))
    return violations


def check_lsu_occupancy(
    log: TraceLog, config: MachineConfig
) -> list[Violation]:
    """Re-derive each region's LSU entry demand from its first pass.

    Mirrors the section III-D7 sizing rule the emulator applies before
    choosing speculative execution: contiguous / broadcast / scalar
    accesses take one entry, gathers and scatters one per lane.  A
    non-fallback region whose demand exceeds the configured LSU capacity
    means the simulator speculated where the hardware could not.
    """
    violations: list[Violation] = []
    lanes = config.vector_lanes
    insts = log.program.instructions
    records = log.records
    demand = 0
    counting = False     # inside the first pass of a region
    fallback = False
    start_index: int | None = None

    for index, (pc, bits) in enumerate(zip(log.pc, log.bits)):
        event = bits & EVENT_MASK
        if event == EV_START:
            counting = True
            fallback = False
            demand = 0
            start_index = index
            continue
        if event == EV_FALLBACK:
            fallback = True
        if records[pc].op_class is OpClass.SRV_END:
            if counting and not fallback and demand > config.lsu_entries:
                violations.append(Violation(
                    "lsu-occupancy",
                    f"region at op {start_index} demands {demand} LSU "
                    f"entries, capacity {config.lsu_entries}, without "
                    "sequential fallback",
                    index,
                ))
            counting = False
            continue
        inst = insts[pc]
        if counting and inst.is_mem:
            kind = getattr(inst, "access_kind", "scalar")
            demand += lanes if kind in ("gather", "scatter") else 1
    return violations


def check_mem_consistency(
    log: TraceLog, config: MachineConfig
) -> list[Violation]:
    """Predicate / bytes-accessed consistency of per-lane memory events."""
    violations: list[Violation] = []
    lanes = config.vector_lanes
    insts = log.program.instructions
    bounds = log.bounds
    addrs = log.addr
    sizes = log.size
    lane_ids = log.lane

    for index, (pc, bits) in enumerate(zip(log.pc, log.bits)):
        lo = bounds[index]
        hi = bounds[index + 1]
        if lo == hi:
            continue
        seen = set(lane_ids[lo:hi])
        if len(seen) != hi - lo:
            violations.append(Violation(
                "mem-consistency", "duplicate lane in memory events",
                index,
            ))
        bad = [lane for lane in seen if not 0 <= lane < lanes]
        if bad:
            violations.append(Violation(
                "mem-consistency", f"lane ids {sorted(bad)} out of range",
                index,
            ))
        active = log.region_pass_of(index)[1] if bits & IN_REGION else 0
        limit = active if active else lanes
        if len(seen) > limit:
            violations.append(Violation(
                "mem-consistency",
                f"{len(seen)} lanes accessed memory but only {limit} "
                "lanes are active in this pass",
                index,
            ))
        inst = insts[pc]
        elem = getattr(inst, "elem", None)
        if elem is not None:
            if any(size != elem for size in sizes[lo:hi]):
                violations.append(Violation(
                    "mem-consistency",
                    f"access size disagrees with element size {elem}",
                    index,
                ))
            kind = getattr(inst, "access_kind", None)
            if kind == "contiguous":
                # every lane's address must satisfy addr == base + lane*elem
                bases = {
                    addrs[a] - lane_ids[a] * elem for a in range(lo, hi)
                }
                if len(bases) > 1:
                    violations.append(Violation(
                        "mem-consistency",
                        "contiguous access lanes do not share one base "
                        f"address (bases {sorted(bases)})",
                        index,
                    ))
            elif kind == "broadcast":
                if len(set(addrs[lo:hi])) > 1:
                    violations.append(Violation(
                        "mem-consistency",
                        "broadcast access reads more than one address",
                        index,
                    ))
    return violations


def check_well_formedness(
    log: TraceLog, config: MachineConfig
) -> list[Violation]:
    """Structural sanity of the logged ops themselves."""
    violations: list[Violation] = []
    insts = log.program.instructions
    records = log.records
    bounds = log.bounds
    for index, (pc, bits) in enumerate(zip(log.pc, log.bits)):
        if pc < 0:
            violations.append(Violation(
                "trace-form", f"negative pc {pc}", index
            ))
            continue
        op_class = records[pc].op_class
        branch = bits & BRANCH_MASK
        if op_class is OpClass.BRANCH and not branch:
            violations.append(Violation(
                "trace-form", "branch op without a recorded outcome",
                index,
            ))
        if branch and op_class is not OpClass.BRANCH:
            violations.append(Violation(
                "trace-form",
                f"{op_class.value} op carries a branch outcome",
                index,
            ))
        if bounds[index + 1] > bounds[index] and not insts[pc].is_mem:
            violations.append(Violation(
                "trace-form",
                f"{op_class.value} op carries memory events",
                index,
            ))
    return violations


ALL_MONITORS = (
    check_region_structure,
    check_lsu_occupancy,
    check_mem_consistency,
    check_well_formedness,
)


def run_monitors(
    log: TraceLog, config: MachineConfig
) -> list[Violation]:
    """Run every invariant monitor over ``log``; collect all violations."""
    violations: list[Violation] = []
    for monitor in ALL_MONITORS:
        violations.extend(monitor(log, config))
    return violations
