"""The generator's knob space: every axis a generated kernel can vary on.

Each knob is declared once, as a :class:`KnobSpec`, with its type, range,
default and the paper section it exercises; the declarations drive

* :func:`sample_knobs` — the seeded sampler the fuzzer uses,
* :func:`validate_knobs` — range checking for hand-built knob sets,
* the documentation gate in ``tools/check_docs.py``, which fails CI when
  a knob declared here is missing from ``docs/GENERATOR.md``.

**Determinism contract.** A kernel is a pure function of
``(GENERATOR_VERSION, seed, knobs)``: the same triple produces a
byte-identical IR loop, program listing and input arrays, on any host.
``GENERATOR_VERSION`` is baked into every generated loop's *name*, and
the loop name is part of the result-cache key, so bumping the version
(or editing any module of the ``repro`` package, whose sources the
cache's code-version hash covers) implicitly invalidates every cached
run of a generated kernel.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict, dataclass, replace

from repro.common.rng import make_rng

#: Bumped whenever a change to the generator can alter the kernel
#: produced for an existing ``(seed, knobs)`` pair.
GENERATOR_VERSION = "1"


@dataclass(frozen=True)
class KnobSpec:
    """Declaration of one generator knob."""

    name: str
    kind: str                      # "int" | "float" | "bool" | "choice"
    default: object
    lo: float | None = None        # inclusive, int/float kinds
    hi: float | None = None        # inclusive, int/float kinds
    choices: tuple = ()            # choice kind
    section: str = ""              # paper section the knob exercises
    doc: str = ""


#: The full knob space.  ``tools/check_docs.py`` requires every name
#: here to be documented in ``docs/GENERATOR.md``.
KNOB_SPACE: tuple[KnobSpec, ...] = (
    KnobSpec(
        name="n", kind="int", default=256, lo=64, hi=4_194_304,
        section="V / fig 8",
        doc="trip count; short counts raise the barrier fraction, and "
            "counts in the millions drive multi-million-op dynamic "
            "streams for the interval-sampling validation (the sampler "
            "draws from the classic short range; long-program runs "
            "override n explicitly via the ':n<trip>' workload-name "
            "suffix)",
    ),
    KnobSpec(
        name="statements", kind="int", default=1, lo=1, hi=3,
        section="fig 10",
        doc="store statements per loop body (wide bodies)",
    ),
    KnobSpec(
        name="reads_per_stmt", kind="int", default=2, lo=1, hi=4,
        section="fig 10",
        doc="array reads feeding each store's value expression",
    ),
    KnobSpec(
        name="region_len", kind="int", default=6, lo=2, hi=24,
        section="III-D7 / fig 10",
        doc="target static memory references inside the srv-region; the "
            "emitter pads with extra contiguous reads to reach it, and "
            "high values overflow the 64-entry LSU into the sequential "
            "fallback",
    ),
    KnobSpec(
        name="dep_density", kind="float", default=0.05, lo=0.0, hi=1.0,
        section="fig 9",
        doc="fraction of vector groups whose scatter table contains a "
            "planted intra-group conflict (run-time violation rate)",
    ),
    KnobSpec(
        name="dep_distance", kind="int", default=4, lo=1, hi=15,
        section="IV-C",
        doc="lane distance of each planted conflict (1 = adjacent lanes, "
            "15 = worst-case replay mask)",
    ),
    KnobSpec(
        name="alias_rate", kind="float", default=0.0, lo=0.0, hi=1.0,
        section="fig 11",
        doc="forward cross-group alias rate used when dep_density is 0: "
            "no SRV replays, but real store-to-load hazards for the "
            "scalar baseline's store sets",
    ),
    KnobSpec(
        name="gather_ratio", kind="float", default=0.5, lo=0.0, hi=1.0,
        section="V / fig 6",
        doc="fraction of reads that are indirect gathers rather than "
            "contiguous/strided loads",
    ),
    KnobSpec(
        name="scatter", kind="bool", default=True,
        section="III-A",
        doc="store through an index table (scatter) instead of "
            "contiguously; when false, a gather from the destination "
            "array keeps the dependence statically unknown",
    ),
    KnobSpec(
        name="stride", kind="choice", default=1, choices=(1, 2, 4),
        section="IV-C",
        doc="affine read stride; strides above 1 lower to gathers with "
            "provably disjoint (but statically unknown) footprints",
    ),
    KnobSpec(
        name="broadcast_rate", kind="float", default=0.0, lo=0.0, hi=1.0,
        section="IV-C4",
        doc="fraction of affine reads turned into scale-0 broadcast "
            "loads (every lane reads one loop-invariant address)",
    ),
    KnobSpec(
        name="predication_rate", kind="float", default=0.0, lo=0.0, hi=1.0,
        section="III-C",
        doc="probability each statement's value is if-converted through "
            "a Select (merging predication under replay)",
    ),
    KnobSpec(
        name="direction", kind="choice", default="up", choices=("up", "down"),
        section="III-B",
        doc="induction direction: up = step +1 (SRV UP comparison), "
            "down = step -1 (DOWN)",
    ),
    KnobSpec(
        name="elem_size", kind="choice", default=4, choices=(4, 8),
        section="IV-A",
        doc="destination array element width in bytes",
    ),
    KnobSpec(
        name="op_mix", kind="choice", default="mixed",
        choices=("arith", "logic", "mixed"),
        section="V",
        doc="operator palette for value expressions: arith (+,-,*), "
            "logic (&,|,^ plus shift post-ops), or both with min/max",
    ),
)

KNOBS_BY_NAME: dict[str, KnobSpec] = {spec.name: spec for spec in KNOB_SPACE}


@dataclass(frozen=True)
class Knobs:
    """One point in the knob space.  Fields mirror :data:`KNOB_SPACE`."""

    n: int = 256
    statements: int = 1
    reads_per_stmt: int = 2
    region_len: int = 6
    dep_density: float = 0.05
    dep_distance: int = 4
    alias_rate: float = 0.0
    gather_ratio: float = 0.5
    scatter: bool = True
    stride: int = 1
    broadcast_rate: float = 0.0
    predication_rate: float = 0.0
    direction: str = "up"
    elem_size: int = 4
    op_mix: str = "mixed"

    def as_dict(self) -> dict:
        return asdict(self)

    def with_overrides(self, **kwargs) -> "Knobs":
        return replace(self, **kwargs)


def default_knobs() -> Knobs:
    return Knobs()


def validate_knobs(knobs: Knobs) -> None:
    """Raise :class:`ValueError` if any knob is outside its declared range."""
    for spec in KNOB_SPACE:
        value = getattr(knobs, spec.name)
        if spec.kind == "int":
            if not isinstance(value, int) or isinstance(value, bool):
                raise ValueError(f"knob {spec.name!r} must be an int")
            if not spec.lo <= value <= spec.hi:
                raise ValueError(
                    f"knob {spec.name!r} = {value} outside "
                    f"[{spec.lo}, {spec.hi}]"
                )
        elif spec.kind == "float":
            if not isinstance(value, (int, float)) or isinstance(value, bool):
                raise ValueError(f"knob {spec.name!r} must be a float")
            if not spec.lo <= value <= spec.hi:
                raise ValueError(
                    f"knob {spec.name!r} = {value} outside "
                    f"[{spec.lo}, {spec.hi}]"
                )
        elif spec.kind == "bool":
            if not isinstance(value, bool):
                raise ValueError(f"knob {spec.name!r} must be a bool")
        elif spec.kind == "choice":
            if value not in spec.choices:
                raise ValueError(
                    f"knob {spec.name!r} = {value!r} not one of "
                    f"{spec.choices}"
                )
        else:  # pragma: no cover - declaration error
            raise ValueError(f"unknown knob kind {spec.kind!r}")


def sample_knobs(seed: int) -> Knobs:
    """Draw one knob set from the space, deterministically from ``seed``.

    Rates are sampled with a point mass at their boundary values (a
    quarter of draws land exactly on 0.0, and for ``predication_rate``
    occasionally 1.0) so boundary behaviour is exercised routinely, not
    only when a sweep asks for it.
    """
    rng = make_rng(seed, f"gen/v{GENERATOR_VERSION}/knobs")

    def rate(lo_mass: float = 0.25, hi_mass: float = 0.0, hi: float = 1.0):
        roll = rng.random()
        if roll < lo_mass:
            return 0.0
        if roll < lo_mass + hi_mass:
            return hi
        return round(rng.uniform(0.0, hi), 3)

    return Knobs(
        n=rng.choice((64, 96, 128, 192, 256, 384, 512, 1024, 2048)),
        statements=rng.randint(1, 3),
        reads_per_stmt=rng.randint(1, 4),
        region_len=rng.randint(2, 24),
        dep_density=rate(lo_mass=0.4, hi=0.5),
        dep_distance=rng.randint(1, 15),
        alias_rate=rate(lo_mass=0.5, hi=0.5),
        gather_ratio=rate(lo_mass=0.15, hi_mass=0.15),
        scatter=rng.random() < 0.75,
        stride=rng.choice((1, 1, 1, 2, 4)),
        broadcast_rate=rate(lo_mass=0.6, hi=0.5),
        predication_rate=rate(lo_mass=0.5, hi_mass=0.1),
        direction="down" if rng.random() < 0.2 else "up",
        elem_size=8 if rng.random() < 0.2 else 4,
        op_mix=rng.choice(("arith", "logic", "mixed", "mixed")),
    )


def knob_digest(knobs: Knobs) -> str:
    """Short stable digest of a knob set (part of the kernel name)."""
    canonical = json.dumps(knobs.as_dict(), sort_keys=True)
    return hashlib.sha256(canonical.encode()).hexdigest()[:8]
