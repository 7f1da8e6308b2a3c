"""Name of the emulator's lane engine.

The interpreter runs every vector op through its per-lane scalar
handlers, a row at a time (:mod:`repro.emu.interpreter`); there is no
other engine to choose.  :func:`resolve_engine` remains only because the
benchmark harness (``perfbench/worker.py``, ``environment()``) records
its value and ``tests/test_imports.py`` calls it.
"""

from __future__ import annotations


def resolve_engine(engine: str | None) -> str:
    """Name of the lane engine: always ``"scalar"``; the argument is
    ignored."""
    return "scalar"
