"""Mini vectorising compiler: loop IR, dependence analysis, codegen."""

from repro.compiler.analysis import (
    DepClass,
    Dependence,
    analyse_statements,
    classify_pair,
    region_class,
)
from repro.compiler.codegen import LoopCodeGenerator, Strategy, compile_loop
from repro.compiler.ir import (
    Affine,
    BinOp,
    Const,
    Indirect,
    Loop,
    LoopIndex,
    Param,
    Read,
    Reduce,
    Select,
    Store,
    expr_reads,
    scalar_reference,
)

__all__ = [
    "DepClass",
    "Dependence",
    "analyse_statements",
    "classify_pair",
    "region_class",
    "expr_reads",
    "LoopCodeGenerator",
    "Strategy",
    "compile_loop",
    "Affine",
    "BinOp",
    "Const",
    "Indirect",
    "Loop",
    "LoopIndex",
    "Param",
    "Read",
    "Reduce",
    "Select",
    "Store",
    "scalar_reference",
]
