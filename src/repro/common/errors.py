"""Exception hierarchy for the SRV reproduction."""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by this library."""


class IsaError(ReproError):
    """Malformed instruction, register, or program."""


class MemoryAccessError(ReproError):
    """Out-of-range or misaligned access against a memory image."""


class SrvError(ReproError):
    """Violation of SRV execution rules."""


class ReplayBoundExceededError(SrvError):
    """A region rolled back more than ``lanes - 1`` times.

    Section III-A proves this cannot happen for a correct implementation,
    so hitting this indicates a simulator bug rather than a workload issue.
    """


class LsuOverflowError(SrvError):
    """An SRV-region required more LSU entries than the machine provides.

    Raised only when the sequential fallback (section III-D7) is disabled.
    """


class CompilerError(ReproError):
    """Loop-IR construction or code-generation failure."""


class DependenceAnalysisError(CompilerError):
    """The dependence analyser was asked about malformed references."""


class PipelineError(ReproError):
    """Inconsistent microarchitectural state in the cycle model."""


class OracleMismatchError(ReproError):
    """A run's architectural result diverged from the scalar reference.

    Carries the loop name, the strategy that produced the wrong result,
    and the first mismatching array so sweeps can report precisely what
    broke instead of dying on a bare assertion.
    """

    def __init__(self, loop: str, strategy: str, array: str | None) -> None:
        self.loop = loop
        self.strategy = strategy
        self.array = array
        where = f" (first mismatching array: {array!r})" if array else ""
        super().__init__(
            f"loop {loop!r} under strategy {strategy!r} diverged from the "
            f"scalar reference oracle{where}"
        )


class RunTimeoutError(ReproError):
    """A single experiment run exceeded its wall-clock budget."""


class CellFailedError(ReproError):
    """A run that already failed earlier in the running sweep.

    Raised in place of running it again; ``failure`` is the cell's
    ``RunFailure`` record from that first attempt.
    """

    def __init__(self, failure) -> None:
        self.failure = failure
        super().__init__(str(failure))


class ObserveError(ReproError):
    """Misuse of the observability layer (:mod:`repro.observe`)."""


class SampleError(ReproError):
    """Interval-sampling failure (:mod:`repro.sample`).

    Raised when a program produces no trace ops, or when a projection
    cannot be formed (e.g. a representative segment could not be
    collected).
    """
