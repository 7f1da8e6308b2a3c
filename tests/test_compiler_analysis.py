"""Tests for static dependence analysis."""

from repro.compiler import (
    Affine,
    BinOp,
    Const,
    DepClass,
    Indirect,
    Loop,
    Read,
    Store,
    analyse_statements,
    classify_pair,
    region_class,
)

VL = 16


class TestClassifyPair:
    def test_same_index_no_cross_iteration_dep(self):
        cls, dist = classify_pair(Affine(), Affine(), VL)
        assert cls is DepClass.NONE
        assert dist == 0

    def test_short_distance_unsafe(self):
        # write a[i], read a[i-1]: distance 1
        cls, dist = classify_pair(Affine(1, 0), Affine(1, -1), VL)
        assert cls is DepClass.PROVABLE_UNSAFE
        assert dist == 1

    def test_distance_at_vl_safe(self):
        cls, dist = classify_pair(Affine(1, 0), Affine(1, -VL), VL)
        assert cls is DepClass.PROVABLE_SAFE
        assert dist == VL

    def test_forward_distance_classified(self):
        cls, dist = classify_pair(Affine(1, 0), Affine(1, 3), VL)
        assert cls is DepClass.PROVABLE_UNSAFE
        assert dist == -3

    def test_stride_mismatch_never_coincides(self):
        # write a[2i], read a[2i+1]: parity differs
        cls, _ = classify_pair(Affine(2, 0), Affine(2, 1), VL)
        assert cls is DepClass.NONE

    def test_different_scales_same_residue_unknown(self):
        cls, _ = classify_pair(Affine(2, 0), Affine(3, 0), VL)
        assert cls is DepClass.UNKNOWN

    def test_different_scales_disjoint_residues_none(self):
        cls, _ = classify_pair(Affine(2, 0), Affine(4, 1), VL)
        assert cls is DepClass.NONE

    def test_indirect_is_unknown(self):
        assert classify_pair(Indirect("x"), Affine(), VL)[0] is DepClass.UNKNOWN
        assert classify_pair(Affine(), Indirect("x"), VL)[0] is DepClass.UNKNOWN

    def test_constant_indices(self):
        cls, dist = classify_pair(Affine(0, 5), Affine(0, 5), VL)
        assert cls is DepClass.PROVABLE_UNSAFE
        cls2, _ = classify_pair(Affine(0, 5), Affine(0, 6), VL)
        assert cls2 is DepClass.NONE


class TestLoopAnalysis:
    def test_elementwise_loop_is_clean(self):
        loop = Loop(
            "axpy", {"a": 4, "b": 4},
            [Store("a", Affine(), BinOp("+", Read("a", Affine()),
                                        Read("b", Affine())))],
        )
        assert region_class(loop, None, VL) is DepClass.NONE

    def test_listing1_is_unknown(self):
        loop = Loop(
            "listing1", {"a": 4, "x": 4},
            [Store("a", Indirect("x"), BinOp("+", Read("a", Affine()), Const(2)))],
        )
        assert region_class(loop, None, VL) is DepClass.UNKNOWN
        deps = analyse_statements(loop, None, VL)
        assert any(d.kind == "raw" and d.dep_class is DepClass.UNKNOWN for d in deps)

    def test_recurrence_is_provable_unsafe(self):
        loop = Loop(
            "prefix", {"a": 4},
            [Store("a", Affine(), BinOp("+", Read("a", Affine(1, -1)), Const(1)))],
        )
        assert region_class(loop, None, VL) is DepClass.PROVABLE_UNSAFE

    def test_long_distance_is_safe(self):
        loop = Loop(
            "far", {"a": 4},
            [Store("a", Affine(), Read("a", Affine(1, -32)))],
        )
        assert region_class(loop, None, VL) is DepClass.PROVABLE_SAFE

    def test_distinct_arrays_no_deps(self):
        loop = Loop(
            "copy", {"a": 4, "b": 4},
            [Store("a", Affine(), Read("b", Affine()))],
        )
        assert analyse_statements(loop, None, VL) == []

    def test_waw_between_statements(self):
        loop = Loop(
            "waw", {"a": 4, "x": 4},
            [
                Store("a", Affine(), Const(1)),
                Store("a", Indirect("x"), Const(2)),
            ],
        )
        deps = analyse_statements(loop, None, VL)
        assert any(d.kind == "waw" and d.dep_class is DepClass.UNKNOWN for d in deps)

    def test_read_only_index_table_not_a_dependence(self):
        """The index array x is only read; no dependence on it."""
        loop = Loop(
            "listing1", {"a": 4, "x": 4},
            [Store("a", Indirect("x"), BinOp("+", Read("a", Affine()), Const(2)))],
        )
        deps = analyse_statements(loop, None, VL)
        assert not any(d.array == "x" for d in deps)

    def test_vector_length_changes_class(self):
        loop = Loop(
            "dist8", {"a": 4},
            [Store("a", Affine(), Read("a", Affine(1, -8)))],
        )
        assert region_class(loop, None, 16) is DepClass.PROVABLE_UNSAFE
        assert region_class(loop, None, 8) is DepClass.PROVABLE_SAFE
