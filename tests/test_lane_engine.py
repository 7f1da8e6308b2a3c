"""The lane engine against the outcomes pinned from the deleted numpy engine.

Until the per-lane scalar handlers became the interpreter's only lane
engine, vector and predicate ops ran through lane-batched numpy kernels,
and the tests held the two handler tables equal bit for bit.
``pinned_traces.json`` keeps, under ``lane_engine``, what both agreed on,
so the one engine is still checked against it:

* ``kernels``: generated kernels across the knob space (dependence
  density/distance, gather/scatter, DOWN-direction regions, predication
  boundaries): digests of the emulator metrics, register file and final
  memory image, and the invariant-monitor verdicts.  The final arrays
  are also judged against the compiler's scalar oracle;
* ``suite``: every loop of the 28-loop paper suite under SRV and SVE:
  digests of the metrics, register file and final memory image;
* ``figure9``: the figure 9 table at ``n = 128``;
* ``programs``: the small programs that drove every site where the numpy
  kernels used to hand an op back to the scalar handler (operands beyond
  signed 64-bit, gather/scatter address arithmetic that could wrap
  ``int64``), including one whose access faults: its error type and
  message are pinned.
"""

from __future__ import annotations

import pytest

from repro.common.errors import ReproError
from repro.compiler import Strategy, compile_loop, scalar_reference
from repro.emu.interpreter import Interpreter
from repro.experiments import ALL_EXPERIMENTS
from repro.experiments import runner as runner_mod
from repro.gen.campaign import FuzzConfig
from repro.gen.emitter import generate_kernel, kernel_seed
from repro.gen.knobs import Knobs
from repro.isa import CmpOpcode, ProgramBuilder, imm, p, v, x
from repro.memory import MemoryImage
from repro.pipeline import TraceLog
from repro.verify.monitors import run_monitors
from repro.workloads import all_loops
from tests.pinned import PINS, digest

LANE_PINS = PINS["lane_engine"]

# ---------------------------------------------------------------------------
# generated kernels: full functional outcome
# ---------------------------------------------------------------------------

#: Directed knob sets covering the axes where lane handling could
#: plausibly go wrong: dependence-driven replays, indirect accesses,
#: DOWN-direction lane mirroring, and merging predication under partial
#: masks.
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


def _alloc(spec, arrays) -> MemoryImage:
    mem = MemoryImage()
    for name, init in arrays.items():
        mem.alloc(name, len(init), spec.loop.arrays[name], init=init)
    return mem


def _kernel_outcome(seed, knobs) -> list:
    """``[metrics, registers, memory, verdicts]`` of one generated kernel
    run on fresh memory, traced; raises if the final arrays diverge from
    the scalar oracle."""
    spec = generate_kernel(seed, knobs).spec
    cfg = FuzzConfig()
    n = min(96, spec.n)
    arrays = spec.arrays(cfg.seed)
    mem = _alloc(spec, arrays)
    program = compile_loop(spec.loop, mem, n, cfg.strategy,
                           params=spec.params)
    log = TraceLog(program)
    interp = Interpreter(program, mem, cfg.config, tracer=log)
    metrics = interp.run()
    oracle = scalar_reference(spec.loop, arrays, n, params=spec.params)
    for name, want in oracle.items():
        assert mem.load_array(mem.allocation(name)) == want, (
            f"{spec.name}: array {name!r} diverges from the scalar oracle"
        )
    return [
        digest(metrics), digest(interp.state.registers_snapshot()),
        digest(mem.snapshot()),
        [str(v) for v in run_monitors(log, cfg.config)],
    ]


@pytest.mark.parametrize("seed,knobs", KERNEL_CASES)
def test_generated_kernel_identical_between_engines(seed, knobs, request):
    case = request.node.callspec.id
    assert _kernel_outcome(seed, knobs) == LANE_PINS["kernels"][case]


# ---------------------------------------------------------------------------
# the 28-loop paper suite under both vector strategies
# ---------------------------------------------------------------------------

SUITE = [
    pytest.param(spec, id=f"{workload.name}/{spec.name}")
    for workload, spec in all_loops()
]


def _suite_outcome(spec, strategy) -> list:
    """``[metrics, registers, memory]`` digests of one suite loop."""
    mem = _alloc(spec, spec.arrays(0))
    program = compile_loop(spec.loop, mem, min(64, spec.n), strategy,
                           params=spec.params)
    interp = Interpreter(program, mem)
    metrics = interp.run()
    return [digest(metrics), digest(interp.state.registers_snapshot()),
            digest(mem.snapshot())]


@pytest.mark.parametrize("spec", SUITE)
def test_suite_loop_identical_between_engines(spec):
    for strategy in (Strategy.SRV, Strategy.SVE):
        assert _suite_outcome(spec, strategy) == \
            LANE_PINS["suite"][f"{spec.name}/{strategy.name}"]


# ---------------------------------------------------------------------------
# a figure table
# ---------------------------------------------------------------------------


def _figure9_table() -> str:
    runner_mod.clear_cache()  # a warm cache would make this vacuous
    try:
        return ALL_EXPERIMENTS["figure9"](n_override=128).format_table()
    finally:
        runner_mod.clear_cache()


def test_figure_table_identical_between_engines():
    table = _figure9_table()
    assert len(table.splitlines()) > 3  # rows, not a header stub
    assert table == LANE_PINS["figure9"]


# ---------------------------------------------------------------------------
# operands and address arithmetic beyond signed 64-bit
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

GEOMETRY_CASES = {
    "base": dict(scale=1, index_start=-_BASE_SHIFT, index_step=8,
                 base_shift=_BASE_SHIFT),
    "scale": dict(scale=2**21, index_start=0, index_step=0, base_shift=8),
    "index": dict(scale=1, index_start=_INDEX_SHIFT, index_step=8,
                  base_shift=-_INDEX_SHIFT),
}

PROGRAM_CASES = [
    pytest.param(_alu_imm, id="v_alu-imm"),
    pytest.param(_cmp_imm, id="v_cmp-imm"),
    pytest.param(_index_operand, id="v_index"),
] + [
    pytest.param(make(**GEOMETRY_CASES[geometry]), id=f"{kind}-{geometry}")
    for kind, make in (("gather", _gather), ("scatter", _scatter))
    for geometry in GEOMETRY_CASES
]


def _out_of_range_gather(b):
    """A gather whose base is far outside the memory image."""
    b.mov(x(1), imm(2**62 + 2**20))
    b.v_index(v(2), imm(0), imm(1), elem=4)
    b.v_gather(v(3), x(1), v(2), elem=8, index_elem=4)


def _program_outcome(build) -> list:
    """``["ok", registers, memory]`` digests, or ``["error", type, message]``."""
    b = ProgramBuilder()
    build(b)
    b.halt()
    mem = _memory()
    interp = Interpreter(b.build(), mem)
    try:
        interp.run()
    except ReproError as exc:
        return ["error", type(exc).__name__, str(exc)]
    return ["ok", digest(interp.state.registers_snapshot()),
            digest(mem.snapshot())]


@pytest.mark.parametrize("build", PROGRAM_CASES)
def test_numpy_fallback_matches_reference(build, request):
    """Each program that once took a numpy fallback ends as pinned."""
    outcome = _program_outcome(build)
    assert outcome[0] == "ok"
    assert outcome == LANE_PINS["programs"][request.node.callspec.id]


def test_numpy_fallback_error_matches_reference():
    """An out-of-range gather raises the pinned error type and message."""
    outcome = _program_outcome(_out_of_range_gather)
    assert outcome[0] == "error"
    assert outcome == LANE_PINS["programs"]["gather-out-of-range"]
