"""Reproduction of *Speculative Vectorisation with Selective Replay* (ISCA 2021).

Public API layers:

* :mod:`repro.isa` — the SVE-like vector ISA with ``srv_start``/``srv_end``.
* :mod:`repro.emu` — functional (instruction-accurate) emulator with SRV
  semantics, region control included; the correctness reference.
* :mod:`repro.lsu` — the memory-disambiguation microarchitecture
  (section IV of the paper).
* :mod:`repro.pipeline` — cycle-approximate out-of-order core (Table I).
* :mod:`repro.compiler` — loop DSL, dependence analysis, and scalar / SVE /
  SRV / FlexVec code generation.
* :mod:`repro.workloads` — synthetic kernels modelled on the paper's
  benchmark suites.
* :mod:`repro.experiments` — one harness per paper figure/table.
"""

__version__ = "1.0.0"

from repro.common.config import TABLE_I, MachineConfig

__all__ = ["TABLE_I", "MachineConfig", "__version__"]
