"""Seedable fault injection for the SRV simulator.

The simulator's correctness story rests on invariants it normally never
stresses: regions replay at most ``lanes - 1`` times, replay lanes are
exactly the violated lanes, LSU state mirrors the functional speculative
buffer.  This module perturbs microarchitectural state on demand so the
test suite can prove those invariants (and the differential oracle)
actually catch corruption — a sanitizer for the simulator itself.

A :class:`FaultPlan` describes *what* to break and *when*.  Hook points in
:mod:`repro.emu.interpreter` (the ``emu.*`` sites: ``srv_end``, the
replay handoff, in-region loads and stores) and :mod:`repro.lsu.unit`
(the ``lsu.*`` sites) poll the module-level :data:`ACTIVE` plan;
when no plan is armed every hook is a single ``is not None`` check, so
normal runs pay no observable overhead and behave bit-identically.

Fault catalogue (the classes the campaign must prove detectable):

========================  ====================================================
class                     effect
========================  ====================================================
``FLIP_NEEDS_REPLAY``     clear a pending lane bit in the SRV-needs-replay
                          predicate at ``srv_end`` (suppresses a replay)
``FORCE_REPLAY``          set every lane in SRV-needs-replay at ``srv_end``
                          (drives the region past the ``lanes - 1`` bound)
``DROP_REPLAY_LANE``      remove one lane from the replay set handed back to
                          re-execution after a rollback decision
``CORRUPT_STORE_DATA``    flip a bit in a value stored inside an SRV-region
``SKEW_LANE_ADDR``        add a byte delta to one lane's memory address
                          inside an SRV-region
``DROP_LSU_ENTRY``        silently discard a just-allocated LQ/SAQ entry in
                          the load-store unit
========================  ====================================================

This module must stay import-light (stdlib + ``repro.common`` only): the
core simulator modules import it at module scope.
"""

from __future__ import annotations

import enum
import random
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Iterable, Iterator


class FaultClass(enum.Enum):
    """Catalogue of injectable corruptions."""

    FLIP_NEEDS_REPLAY = "flip-needs-replay"
    FORCE_REPLAY = "force-replay"
    DROP_REPLAY_LANE = "drop-replay-lane"
    CORRUPT_STORE_DATA = "corrupt-store-data"
    SKEW_LANE_ADDR = "skew-lane-addr"
    DROP_LSU_ENTRY = "drop-lsu-entry"


@dataclass(frozen=True)
class FaultSpec:
    """One planned perturbation.

    ``occurrence`` counts *polls* of the fault's hook site: the fault
    arms once the site has been evaluated that many times.  With
    ``repeat=True`` it keeps firing on every later poll — the way to
    guarantee an injection actually lands regardless of dynamic schedule.
    """

    fault: FaultClass
    occurrence: int = 0
    repeat: bool = False
    lane: int | None = None     # restrict to one lane where meaningful
    delta: int = 4              # byte skew for SKEW_LANE_ADDR
    bit: int = 0                # bit index for CORRUPT_STORE_DATA
    table: str = "lq"           # "lq" or "saq" for DROP_LSU_ENTRY


@dataclass(frozen=True)
class FiredFault:
    """Record of one injection that actually landed."""

    fault: FaultClass
    site: str
    poll: int
    detail: str


class FaultPlan:
    """A set of :class:`FaultSpec` plus the bookkeeping of what fired.

    The plan is seedable so campaigns are reproducible; the RNG is only
    used where a spec leaves a choice open (currently none of the
    built-in perturbations need it, but custom specs may).
    """

    def __init__(self, specs: Iterable[FaultSpec], seed: int = 0) -> None:
        self.specs: tuple[FaultSpec, ...] = tuple(specs)
        self.seed = seed
        self.rng = random.Random(f"faultplan/{seed}")
        self.polls: Counter = Counter()
        self.fired: list[FiredFault] = []

    # -- matching ------------------------------------------------------------

    def _match(self, fault: FaultClass) -> FaultSpec | None:
        """Count one poll of ``fault``'s site; return an armed spec if any."""
        count = self.polls[fault]
        self.polls[fault] += 1
        for spec in self.specs:
            if spec.fault is not fault:
                continue
            if count == spec.occurrence or (
                spec.repeat and count >= spec.occurrence
            ):
                return spec
        return None

    def _record(self, fault: FaultClass, site: str, detail: str) -> None:
        self.fired.append(
            FiredFault(fault, site, self.polls[fault] - 1, detail)
        )

    def fired_classes(self) -> set[FaultClass]:
        return {f.fault for f in self.fired}

    # -- hook: emulator srv_end needs-replay evaluation ----------------------

    def perturb_needs_replay(self, needs_replay: set[int], lanes: int) -> None:
        """Mutate the functional needs-replay set at an ``srv_end``."""
        spec = self._match(FaultClass.FLIP_NEEDS_REPLAY)
        if spec is not None and needs_replay:
            lane = (
                spec.lane
                if spec.lane in needs_replay
                else min(needs_replay)
            )
            needs_replay.discard(lane)
            self._record(
                FaultClass.FLIP_NEEDS_REPLAY,
                "emu.srv_end",
                f"cleared needs-replay lane {lane}",
            )
        spec = self._match(FaultClass.FORCE_REPLAY)
        if spec is not None:
            needs_replay.update(range(lanes))
            self._record(
                FaultClass.FORCE_REPLAY,
                "emu.srv_end",
                f"forced all {lanes} lanes into needs-replay",
            )

    # -- hook: emulator replay-set handoff ----------------------------------

    def perturb_replay_lanes(self, lanes_set: frozenset[int]) -> frozenset[int]:
        spec = self._match(FaultClass.DROP_REPLAY_LANE)
        if spec is not None and lanes_set:
            lane = spec.lane if spec.lane in lanes_set else min(lanes_set)
            self._record(
                FaultClass.DROP_REPLAY_LANE,
                "emu.replay",
                f"dropped replay lane {lane}",
            )
            return lanes_set - {lane}
        return lanes_set

    # -- hook: emulator in-region memory traffic -----------------------------

    def perturb_addr(self, addr: int, lane: int, is_store: bool) -> int:
        spec = self._match(FaultClass.SKEW_LANE_ADDR)
        if spec is not None and (spec.lane is None or spec.lane == lane):
            self._record(
                FaultClass.SKEW_LANE_ADDR,
                "emu.store" if is_store else "emu.load",
                f"skewed lane {lane} address {addr:#x} by {spec.delta:+d}",
            )
            return addr + spec.delta
        return addr

    def perturb_store_value(self, value: int, size: int, lane: int) -> int:
        spec = self._match(FaultClass.CORRUPT_STORE_DATA)
        if spec is not None and (spec.lane is None or spec.lane == lane):
            bit = spec.bit % (size * 8)
            self._record(
                FaultClass.CORRUPT_STORE_DATA,
                "emu.store",
                f"flipped bit {bit} of lane {lane} store data",
            )
            return value ^ (1 << bit)
        return value

    # -- hook: load-store unit allocation ------------------------------------

    def drop_lsu_entry(self, table: str) -> bool:
        spec = self._match(FaultClass.DROP_LSU_ENTRY)
        if spec is not None and spec.table == table:
            self._record(
                FaultClass.DROP_LSU_ENTRY,
                f"lsu.{table}",
                f"dropped just-allocated {table} entry",
            )
            return True
        return False


#: The armed plan; ``None`` means fault injection is disabled and every
#: hook reduces to one pointer comparison.
ACTIVE: FaultPlan | None = None


@contextmanager
def inject(plan: FaultPlan) -> Iterator[FaultPlan]:
    """Arm ``plan`` for the duration of the ``with`` block.

    Plans do not nest: arming while another plan is active is a usage
    error (it would make campaign attribution ambiguous).
    """
    global ACTIVE
    if ACTIVE is not None:
        raise RuntimeError("a FaultPlan is already armed; plans do not nest")
    ACTIVE = plan
    try:
        yield plan
    finally:
        ACTIVE = None
