"""Static decode tables: per-instruction facts computed once per program.

Both the functional emulator and the trace-driven timing models used to
re-derive per-*static* facts on every *dynamic* instruction: the op
class, the issue-port kind, the ``access_kind`` string (via ``getattr``
probes), the Table I latency, and the source/destination register sets.
A :class:`DecodeTable` computes all of it exactly once per static
instruction and hands out an immutable :class:`DecodeRecord` of plain
ints, bools, strings and tuples — the trace-driven analogue of a
hardware decoder writing a micro-op cache.

The table is keyed by instruction *identity*: a program's instruction
objects are alive for the lifetime of every interpreter and trace that
references them, so ``id()`` keys are stable (the same contract the
emulator's former per-instruction caches relied on).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.isa.instructions import Instruction
from repro.pipeline.trace import OpClass

#: Issue-port kind per op class (Table I per-cycle issue limits).
PORT_OF: dict[OpClass, str] = {
    OpClass.SCALAR_ALU: "scalar",
    OpClass.SCALAR_MUL: "scalar",
    OpClass.SCALAR_DIV: "scalar",
    OpClass.BRANCH: "scalar",
    OpClass.NOP: "scalar",
    OpClass.SRV_START: "scalar",
    OpClass.SRV_END: "scalar",
    OpClass.VEC_INT: "vec_int",
    OpClass.VEC_OTHER: "vec_other",
    OpClass.SCALAR_LOAD: "load",
    OpClass.VEC_LOAD: "load",
    OpClass.SCALAR_STORE: "store",
    OpClass.VEC_STORE: "store",
}

_LOAD_CLASSES = frozenset((OpClass.SCALAR_LOAD, OpClass.VEC_LOAD))
_STORE_CLASSES = frozenset((OpClass.SCALAR_STORE, OpClass.VEC_STORE))


@dataclass(frozen=True, slots=True)
class DecodeRecord:
    """Immutable per-static-instruction facts.

    ``is_mem``/``is_load``/``is_store`` are the *op-class* predicates the
    timing models test (srv markers and nops are never memory ops);
    ``count_flags`` are the *instruction-property* flags the emulator's
    metric counters consume — the two families agree for every concrete
    instruction but are kept separate so each consumer sees exactly what
    it used to compute inline.
    """

    op_class: OpClass
    port_kind: str
    #: "contiguous" | "broadcast" | "gather" | "scatter" | "scalar" | None
    access_kind: str | None
    latency: int
    is_mem: bool
    is_load: bool
    is_store: bool
    is_gather_scatter: bool
    is_broadcast: bool
    is_vector: bool
    src_regs: tuple[tuple[str, int], ...]
    dst_regs: tuple[tuple[str, int], ...]
    #: (is_vector, is_mem, is_branch, is_gather_scatter, is_load) for
    #: :meth:`repro.emu.metrics.EmuMetrics.count`
    count_flags: tuple[bool, bool, bool, bool, bool]


def decode_instruction(inst: Instruction) -> DecodeRecord:
    """Build the :class:`DecodeRecord` for one static instruction."""
    from repro.pipeline.deps import LATENCY, classify, instruction_regs

    op_class = classify(inst)
    src_regs, dst_regs = instruction_regs(inst)
    access_kind = getattr(inst, "access_kind", None)
    is_gather_scatter = access_kind in ("gather", "scatter")
    return DecodeRecord(
        op_class=op_class,
        port_kind=PORT_OF[op_class],
        access_kind=access_kind,
        latency=LATENCY[op_class],
        is_mem=op_class in _LOAD_CLASSES or op_class in _STORE_CLASSES,
        is_load=op_class in _LOAD_CLASSES,
        is_store=op_class in _STORE_CLASSES,
        is_gather_scatter=is_gather_scatter,
        is_broadcast=access_kind == "broadcast",
        is_vector=inst.is_vector,
        src_regs=src_regs,
        dst_regs=dst_regs,
        count_flags=(
            inst.is_vector,
            inst.is_mem,
            inst.is_branch,
            is_gather_scatter,
            inst.is_load,
        ),
    )


class DecodeTable:
    """Identity-keyed map from static instructions to decode records."""

    __slots__ = ("_records",)

    def __init__(self) -> None:
        self._records: dict[int, DecodeRecord] = {}

    @classmethod
    def for_program(cls, program) -> "DecodeTable":
        """Decode every static instruction of ``program`` up front."""
        table = cls()
        records = table._records
        for inst in program.instructions:
            key = id(inst)
            if key not in records:
                records[key] = decode_instruction(inst)
        return table

    def record_for(self, inst: Instruction) -> DecodeRecord:
        """The record for ``inst``, decoding on first sight."""
        rec = self._records.get(id(inst))
        if rec is None:
            rec = decode_instruction(inst)
            self._records[id(inst)] = rec
        return rec

    def __len__(self) -> int:
        return len(self._records)


def pump_table(records) -> tuple[list[tuple], int]:
    """The timing models' per-pc view of ``records``, built once per timed
    log, and the number of distinct registers it names.

    Each pc maps to ``(record, op_class, is_mem, is_load, is_store,
    is_gather_scatter, micro_kind, src_ids, dst_ids, port_kind, latency,
    is_vector)``, which a pump unpacks in one statement per op.
    ``micro_kind`` is the port of a gather's or scatter's cracked
    micro-ops (``None`` for other accesses), and the register ids are
    dense ints, so a pump keeps register ready times in a list.
    """
    ids: dict[tuple[str, int], int] = {}
    table = []
    for rec in records:
        src_ids = []
        for reg in rec.src_regs:
            src_ids.append(ids.setdefault(reg, len(ids)))
        dst_ids = []
        for reg in rec.dst_regs:
            dst_ids.append(ids.setdefault(reg, len(ids)))
        micro_kind = None
        if rec.is_gather_scatter:
            micro_kind = (
                "gather_micro" if rec.access_kind == "gather"
                else "scatter_micro"
            )
        table.append((
            rec, rec.op_class, rec.is_mem, rec.is_load, rec.is_store,
            rec.is_gather_scatter, micro_kind, tuple(src_ids), tuple(dst_ids),
            rec.port_kind, rec.latency, rec.is_vector,
        ))
    return table, len(ids)
