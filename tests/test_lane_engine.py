"""The interpreter's numpy handlers against their per-lane scalar reference.

The interpreter runs vector and predicate ops through lane-batched numpy
kernels (:mod:`repro.emu.lanes`).  The per-lane scalar handlers stay as
the :class:`~repro.emu.lanes.NumpyFallback` path and, through
:class:`~repro.emu.interpreter.ScalarInterpreter`, as the reference the
kernels must match **bit for bit**.  These tests pin that contract:

* generated kernels across the knob space (dependence density/distance,
  gather/scatter, DOWN-direction regions, predication boundaries) must
  produce identical final memory images, emulator metrics, register files
  and invariant-monitor verdicts under both handler tables, and the agreed
  final arrays must match the compiler's scalar oracle;
* every loop of the 28-loop paper suite must match under both handler
  tables and both vector strategies;
* a paper figure table regenerated on the reference must be
  byte-identical;
* every ``NumpyFallback`` raise site is reached by a small program, the
  scalar handler is seen to run, and the outcome matches the reference.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.common.bitvec import BitVector
from repro.common.errors import ReproError
from repro.compiler import Strategy, compile_loop
from repro.emu import interpreter as interp_mod
from repro.emu.interpreter import Interpreter, ScalarInterpreter
from repro.emu.lanes import NumpyFallback
from repro.experiments import ALL_EXPERIMENTS
from repro.experiments import runner as runner_mod
from repro.gen import campaign as campaign_mod
from repro.gen.campaign import FuzzConfig, _reference_diff_check
from repro.gen.emitter import generate_kernel, kernel_seed
from repro.gen.knobs import Knobs
from repro.isa import CmpOpcode, ProgramBuilder, imm, p, v, x
from repro.memory import MemoryImage
from repro.workloads import all_loops

INTERPRETERS = (Interpreter, ScalarInterpreter)

# ---------------------------------------------------------------------------
# generated kernels: both handler tables, full functional identity
# ---------------------------------------------------------------------------

#: Directed knob sets covering the axes where the handlers could plausibly
#: diverge: dependence-driven replays, indirect accesses, DOWN-direction
#: lane mirroring, and merging predication under partial masks.
DIRECTED_KNOBS = (
    Knobs(dep_density=0.8, dep_distance=1),        # dense short-range RAW
    Knobs(dep_density=0.5, dep_distance=15),       # longest-range deps
    Knobs(alias_rate=0.7, dep_density=0.2),        # aliasing store targets
    Knobs(gather_ratio=1.0, scatter=True),         # all-indirect kernels
    Knobs(gather_ratio=0.0, scatter=False),        # all-contiguous kernels
    Knobs(stride=4),                               # strided -> gather lowering
    Knobs(direction="down"),                       # DOWN-direction regions
    Knobs(direction="down", dep_density=0.6, dep_distance=2),
    Knobs(predication_rate=1.0),                   # fully predicated body
    Knobs(predication_rate=0.5, dep_density=0.3),  # predication + replay
    Knobs(broadcast_rate=0.8),                     # broadcast-heavy reads
    Knobs(elem_size=8, gather_ratio=0.7),          # 8-byte elements
    Knobs(statements=3, reads_per_stmt=4),         # widest bodies
    Knobs(region_len=24),                          # longest SRV-regions
    Knobs(n=64, dep_density=1.0, dep_distance=1),  # every lane conflicts
)

KERNEL_CASES = [
    pytest.param(kernel_seed(97, i), None, id=f"sampled-{i}")
    for i in range(15)
] + [
    pytest.param(1_000 + i, knobs, id=f"directed-{i}")
    for i, knobs in enumerate(DIRECTED_KNOBS)
]


@pytest.mark.parametrize("seed,knobs", KERNEL_CASES)
def test_generated_kernel_identical_between_engines(seed, knobs):
    kernel = generate_kernel(seed, knobs)
    n = min(96, kernel.spec.n)
    ok, detail = _reference_diff_check(kernel.spec, FuzzConfig(), n)
    assert ok, f"{kernel.name}: {detail}"


def test_reference_diff_judges_agreed_result_against_oracle(monkeypatch):
    """Both handler tables agreeing is not enough: the oracle must agree too."""
    kernel = generate_kernel(kernel_seed(97, 0), None)
    n = min(96, kernel.spec.n)
    real = campaign_mod.scalar_reference

    def skewed(loop, arrays, n, params=None):
        out = real(loop, arrays, n, params=params)
        name = next(iter(out))
        out[name] = [out[name][0] + 1] + out[name][1:]
        return out

    monkeypatch.setattr(campaign_mod, "scalar_reference", skewed)
    ok, detail = _reference_diff_check(kernel.spec, FuzzConfig(), n)
    assert not ok
    assert detail.startswith("oracle: array ") and "at index 0" in detail


# ---------------------------------------------------------------------------
# the 28-loop paper suite: both handler tables, both vector strategies
# ---------------------------------------------------------------------------

SUITE = [
    pytest.param(spec, id=f"{workload.name}/{spec.name}")
    for workload, spec in all_loops()
]


def _run_suite_loop(spec, strategy, interpreter, n):
    arrays = spec.arrays(0)
    mem = MemoryImage()
    for name, init in arrays.items():
        mem.alloc(name, len(init), spec.loop.arrays[name], init=init)
    program = compile_loop(spec.loop, mem, n, strategy, params=spec.params)
    interp = interpreter(program, mem)
    metrics = interp.run()
    return metrics, interp.state.registers_snapshot(), mem.snapshot()


@pytest.mark.parametrize("spec", SUITE)
def test_suite_loop_identical_between_engines(spec):
    n = min(64, spec.n)
    for strategy in (Strategy.SRV, Strategy.SVE):
        batched, reference = (
            _run_suite_loop(spec, strategy, interpreter, n)
            for interpreter in INTERPRETERS
        )
        assert batched[0] == reference[0], f"{strategy}: metrics diverge"
        assert batched[1] == reference[1], f"{strategy}: registers diverge"
        assert batched[2] == reference[2], f"{strategy}: memory diverges"


# ---------------------------------------------------------------------------
# figure tables: byte-identical on the reference
# ---------------------------------------------------------------------------


def _figure9_table() -> str:
    runner_mod.clear_cache()  # a warm cache would make this vacuous
    try:
        return ALL_EXPERIMENTS["figure9"](n_override=128).format_table()
    finally:
        runner_mod.clear_cache()


def test_figure_table_identical_between_engines(monkeypatch):
    batched = _figure9_table()
    built = []

    class CountedReference(ScalarInterpreter):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            built.append(self)

    # every simulation path looks the class up on the module at call time
    monkeypatch.setattr(interp_mod, "Interpreter", CountedReference)
    reference = _figure9_table()
    assert built, "the reference interpreter never ran"
    assert batched == reference
    assert len(batched.splitlines()) > 3  # rows, not a header stub


# ---------------------------------------------------------------------------
# NumpyFallback: every raise site reaches the scalar handler and matches
# ---------------------------------------------------------------------------

#: elements in the test array; 8-byte elements, so 16 lanes fit exactly
ARRAY_LEN = 32


def _memory() -> MemoryImage:
    mem = MemoryImage()
    mem.alloc("a", ARRAY_LEN, 8, init=[100 + i for i in range(ARRAY_LEN)])
    return mem


def _base() -> int:
    return _memory().allocation("a").base


def _alu_imm(b):
    b.v_index(v(1), imm(3), imm(5), elem=8)
    b.v_add(v(2), v(1), imm(2**70 + 5), elem=8)
    b.v_mul(v(3), v(1), imm(-(2**66) - 1), elem=4)


def _cmp_imm(b):
    b.v_index(v(1), imm(-4), imm(1), elem=8)
    b.v_cmp(CmpOpcode.LT, p(1), v(1), imm(2**64 + 3), elem=8)
    b.pcount(x(5), p(1))


def _index_operand(b):
    b.v_index(v(1), imm(2**65 + 7), imm(3), elem=8)


def _gather(scale, index_start, index_step, base_shift):
    """Gather lanes of ``a`` through the given geometry, 8-byte index."""

    def build(b):
        b.mov(x(1), imm(_base() + base_shift))
        b.v_index(v(2), imm(index_start), imm(index_step), elem=8)
        b.v_gather(v(3), x(1), v(2), elem=8, index_elem=8, scale=scale)
    return build


def _scatter(scale, index_start, index_step, base_shift):
    """Scatter an iota to lanes of ``a`` through the given geometry."""

    def build(b):
        b.mov(x(1), imm(_base() + base_shift))
        b.v_index(v(2), imm(index_start), imm(index_step), elem=8)
        b.v_index(v(3), imm(-50), imm(7), elem=8)
        b.v_scatter(v(3), x(1), v(2), elem=8, index_elem=8, scale=scale)
    return build


#: base outside +-2**62: the 8-byte index brings the address back into ``a``
_BASE_SHIFT = 2**62 + 2**20
#: 8-byte index beyond 2**40, offset by the base
_INDEX_SHIFT = 2**41

GUARD_CASES = {
    "base": dict(scale=1, index_start=-_BASE_SHIFT, index_step=8,
                 base_shift=_BASE_SHIFT),
    "scale": dict(scale=2**21, index_start=0, index_step=0, base_shift=8),
    "index": dict(scale=1, index_start=_INDEX_SHIFT, index_step=8,
                  base_shift=-_INDEX_SHIFT),
}

#: the message each guard raises, to pin which site fired
GUARD_MESSAGES = {
    "base": "base address",
    "scale": "gather scale",
    "index": "gather index",
}

FALLBACK_CASES = [
    pytest.param(_alu_imm, "_op_vec_alu", 2, None, id="v_alu-imm"),
    pytest.param(_cmp_imm, "_op_vec_cmp", 1, None, id="v_cmp-imm"),
    pytest.param(_index_operand, "_op_vec_index", 1, None, id="v_index"),
] + [
    pytest.param(make(**GUARD_CASES[guard]), handler, 1, guard,
                 id=f"{kind}-{guard}")
    for kind, make, handler in (
        ("gather", _gather, "_op_vec_load_gather"),
        ("scatter", _scatter, "_op_vec_store_scatter"),
    )
    for guard in GUARD_CASES
]


def _outcome(interpreter, program):
    mem = _memory()
    interp = interpreter(program, mem)
    try:
        interp.run()
    except ReproError as exc:
        return ("error", type(exc))
    return ("ok", interp.state.registers_snapshot(), mem.snapshot())


@pytest.mark.parametrize("build,handler,expected,guard", FALLBACK_CASES)
def test_numpy_fallback_matches_reference(monkeypatch, build, handler,
                                          expected, guard):
    b = ProgramBuilder()
    build(b)
    b.halt()
    program = b.build()

    calls = []
    scalar = getattr(Interpreter, handler)

    def spy(self, *args):
        calls.append(handler)
        return scalar(self, *args)

    raised = []
    guard_addr_math = Interpreter._guard_addr_math

    def guard_spy(*args):
        try:
            guard_addr_math(*args)
        except NumpyFallback as exc:
            raised.append(str(exc))
            raise

    # the reference dispatches through _HANDLERS, never through these
    # attributes, so only the batched interpreter's fallbacks are counted
    monkeypatch.setattr(Interpreter, handler, spy)
    monkeypatch.setattr(Interpreter, "_guard_addr_math",
                        staticmethod(guard_spy))
    batched = _outcome(Interpreter, program)
    assert len(calls) == expected, f"{handler} ran {len(calls)} time(s)"
    if guard is not None:
        assert [GUARD_MESSAGES[guard] in msg for msg in raised] == [True]
    reference = _outcome(ScalarInterpreter, program)
    assert len(calls) == expected  # the reference never took the fallback
    assert batched == reference
    assert batched[0] == "ok"


def test_numpy_fallback_error_matches_reference():
    """A fallback whose scalar re-execution faults raises the same type."""
    b = ProgramBuilder()
    b.mov(x(1), imm(2**62 + 2**20))
    b.v_index(v(2), imm(0), imm(1), elem=4)
    b.v_gather(v(3), x(1), v(2), elem=8, index_elem=4)
    b.halt()
    program = b.build()
    batched, reference = (_outcome(cls, program) for cls in INTERPRETERS)
    assert batched == reference
    assert batched[0] == "error"


# ---------------------------------------------------------------------------
# BitVector numpy bridge (used by the vectorised LSU paths)
# ---------------------------------------------------------------------------


def test_bitvector_bool_array_roundtrip():
    for width in (1, 7, 8, 63, 64, 65, 128):
        mask = (1 << width) - 1
        patterns = (0, mask, 0x5A5A_5A5A_5A5A_5A5A_5A5A & mask,
                    (1 << (width - 1)) | 1)
        for bits in patterns:
            bv = BitVector(width, bits & mask)
            flags = bv.to_bool_array()
            assert len(flags) == width
            assert BitVector.from_bool_array(flags) == bv


def test_bitvector_from_bool_array_matches_from_indices():
    flags = np.zeros(64, dtype=np.bool_)
    flags[[0, 3, 17, 63]] = True
    assert (BitVector.from_bool_array(flags)
            == BitVector.from_indices(64, [0, 3, 17, 63]))
