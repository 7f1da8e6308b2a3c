"""Tests for the loop IR and its sequential reference executor."""

import pytest

from repro.common.errors import CompilerError
from repro.compiler import (
    Affine,
    BinOp,
    Const,
    Indirect,
    Loop,
    LoopIndex,
    Param,
    Read,
    Select,
    Store,
    scalar_reference,
)
from repro.gen.campaign import FuzzConfig
from repro.gen.emitter import generate_kernel
from repro.memory.image import to_signed, to_unsigned
from tests.reference_oracle import walk_reference
from tests.test_lane_engine import KERNEL_CASES


def listing1():
    return Loop(
        "listing1",
        {"a": 4, "x": 4},
        [Store("a", Indirect("x"), BinOp("+", Read("a", Affine()), Const(2)))],
    )


class TestConstruction:
    def test_listing1_builds(self):
        loop = listing1()
        assert len(loop.body) == 1
        assert loop.step == 1

    def test_unknown_array_rejected(self):
        with pytest.raises(CompilerError):
            Loop("bad", {"a": 4}, [Store("b", Affine(), Const(0))])

    def test_unknown_index_array_rejected(self):
        with pytest.raises(CompilerError):
            Loop("bad", {"a": 4}, [Store("a", Indirect("x"), Const(0))])

    def test_empty_body_rejected(self):
        with pytest.raises(CompilerError):
            Loop("bad", {"a": 4}, [])

    def test_bad_step_rejected(self):
        with pytest.raises(CompilerError):
            Loop("bad", {"a": 4}, [Store("a", Affine(), Const(0))], step=2)

    def test_invalid_binop_rejected(self):
        with pytest.raises(CompilerError):
            BinOp("**", Const(1), Const(2))

    def test_invalid_cmp_rejected(self):
        with pytest.raises(CompilerError):
            Select("~", Const(1), Const(2), Const(3), Const(4))


class TestReferenceEnumeration:
    def test_reads_found_in_nested_expressions(self):
        loop = Loop(
            "nest",
            {"a": 4, "b": 4},
            [
                Store(
                    "a",
                    Affine(),
                    Select(
                        "<",
                        Read("a", Affine()),
                        Const(0),
                        Read("b", Affine()),
                        BinOp("+", Read("b", Affine(1, 1)), Const(1)),
                    ),
                )
            ],
        )
        assert len(loop.reads()) == 3

    def test_index_arrays(self):
        assert listing1().index_arrays() == {"x"}

    def test_gather_scatter_count(self):
        loop = listing1()
        assert loop.gather_scatter_count() == 1  # the indirect store
        strided = Loop(
            "strided", {"a": 4}, [Store("a", Affine(2), Read("a", Affine(2)))]
        )
        assert strided.gather_scatter_count() == 2


class TestScalarReference:
    def test_listing1_semantics(self):
        x_vals = [3, 0, 1, 2, 7, 4, 5, 6]
        a_vals = list(range(8))
        out = scalar_reference(listing1(), {"a": a_vals, "x": x_vals}, 8)
        expect = list(a_vals)
        for i in range(8):
            expect[x_vals[i]] = expect[i] + 2
        assert out["a"] == expect

    def test_param_binding(self):
        loop = Loop(
            "scaled", {"a": 4},
            [Store("a", Affine(), BinOp("*", Read("a", Affine()), Param("k")))],
        )
        out = scalar_reference(loop, {"a": [1, 2, 3]}, 3, params={"k": 5})
        assert out["a"] == [5, 10, 15]

    def test_loop_index_value(self):
        loop = Loop("iota", {"a": 4}, [Store("a", Affine(), LoopIndex())])
        out = scalar_reference(loop, {"a": [0] * 5}, 5)
        assert out["a"] == [0, 1, 2, 3, 4]

    def test_select_semantics(self):
        loop = Loop(
            "clamp", {"a": 4},
            [
                Store(
                    "a", Affine(),
                    Select("<", Read("a", Affine()), Const(0), Const(0),
                           Read("a", Affine())),
                )
            ],
        )
        out = scalar_reference(loop, {"a": [-3, 4, -1, 7]}, 4)
        assert out["a"] == [0, 4, 0, 7]

    def test_downward_loop_order(self):
        # a[i] = a[i+1] + 1 with decreasing i: values ripple from the end.
        loop = Loop(
            "down", {"a": 4},
            [Store("a", Affine(), BinOp("+", Read("a", Affine(1, 1)), Const(1)))],
            step=-1,
        )
        out = scalar_reference(loop, {"a": [0, 0, 0, 10]}, 3)
        assert out["a"] == [13, 12, 11, 10]

    def test_division_semantics(self):
        loop = Loop(
            "div", {"a": 4},
            [Store("a", Affine(), BinOp("/", Read("a", Affine()), Const(2)))],
        )
        out = scalar_reference(loop, {"a": [7, -7, 0, 9]}, 4)
        assert out["a"] == [3, -3, 0, 4]

    def test_store_wraps_to_element_size(self):
        loop = Loop(
            "wrap", {"a": 1},
            [Store("a", Affine(), BinOp("+", Read("a", Affine()), Const(1)))],
        )
        out = scalar_reference(loop, {"a": [127, 255 - 256]}, 2)
        assert out["a"][0] == -128  # 127 + 1 wraps in int8

    @pytest.mark.parametrize("op,expect", [
        ("%", [1, -1, 0, 1]), ("<<", [28, -28, 0, 36]),
        (">>", [1, (2**64 - 7) >> 2, 0, 2]), ("min", [2, -7, 0, 2]),
        ("max", [7, 2, 2, 9]), ("^", [5, -5, 2, 11]),
    ])
    def test_binop_semantics(self, op, expect):
        loop = Loop(
            "ops", {"a": 8},
            [Store("a", Affine(), BinOp(op, Read("a", Affine()), Const(2)))],
        )
        out = scalar_reference(loop, {"a": [7, -7, 0, 9]}, 4)
        assert out["a"] == expect


class TestInputNormalisation:
    """The oracle's initial arrays equal ``to_signed(to_unsigned(v))`` of
    each input value, however the arrays are copied."""

    @staticmethod
    def _wrapped(values, size):
        return [to_signed(to_unsigned(v, size), size) for v in values]

    @staticmethod
    def _identity(size):
        # a[i] = a[i]: an oracle run of n=0 returns the normalised inputs
        return Loop("id", {"a": size}, [Store("a", Affine(), Read("a", Affine()))])

    @pytest.mark.parametrize("size", [1, 2, 4, 8])
    def test_in_range_values_are_kept(self, size):
        half = 1 << (size * 8 - 1)
        values = [-half, -1, 0, 1, half - 1, 3]
        out = scalar_reference(self._identity(size), {"a": values}, 0)
        assert out["a"] == values == self._wrapped(values, size)
        assert out["a"] is not values

    @pytest.mark.parametrize("size", [1, 2, 4, 8])
    @pytest.mark.parametrize("outlier", ["top", "bottom", "far"])
    def test_out_of_range_values_wrap(self, size, outlier):
        half = 1 << (size * 8 - 1)
        bad = {"top": half, "bottom": -half - 1, "far": (1 << 70) + 5}[outlier]
        values = [1, -2, bad, half - 1, -half]
        out = scalar_reference(self._identity(size), {"a": values}, 0)
        assert out["a"] == self._wrapped(values, size)
        assert out["a"] != values

    @pytest.mark.parametrize("size", [1, 2, 4, 8])
    def test_empty_array(self, size):
        out = scalar_reference(self._identity(size), {"a": []}, 0)
        assert out == {"a": []}

    def test_undeclared_empty_array_is_copied_without_a_size(self):
        out = scalar_reference(self._identity(4), {"a": [1], "z": []}, 1)
        assert out == {"a": [1], "z": []}

    def test_inputs_are_not_mutated(self):
        loop = Loop("inc", {"a": 4},
                    [Store("a", Affine(), BinOp("+", Read("a", Affine()), Const(1)))])
        values = [1, 2, 3]
        out = scalar_reference(loop, {"a": values}, 3)
        assert out["a"] == [2, 3, 4] and values == [1, 2, 3]


class TestLazyErrors:
    """The oracle is compiled before the first iteration; a missing array
    or parameter must still fail only when an iteration evaluates it."""

    def _guarded(self, untaken):
        # a[i] = 0 if a[i] < 100 else <untaken>; every a[i] is < 100
        return Loop(
            "guarded", {"a": 4, "b": 4},
            [Store("a", Affine(),
                   Select("<", Read("a", Affine()), Const(100), Const(0),
                          untaken))],
        )

    def test_missing_param_in_untaken_branch_is_never_read(self):
        out = scalar_reference(self._guarded(Param("k")), {"a": [1, 2]}, 2)
        assert out["a"] == [0, 0]

    def test_missing_array_in_untaken_branch_is_never_read(self):
        out = scalar_reference(self._guarded(Read("b", Affine())), {"a": [1]}, 1)
        assert out["a"] == [0]

    def test_missing_param_raises_when_evaluated(self):
        loop = Loop("p", {"a": 4}, [Store("a", Affine(), Param("k"))])
        assert scalar_reference(loop, {"a": [5]}, 0) == {"a": [5]}
        with pytest.raises(KeyError, match="k"):
            scalar_reference(loop, {"a": [5]}, 1)

    @pytest.mark.parametrize("index", [Affine(), Indirect("x")])
    def test_missing_array_raises_when_evaluated(self, index):
        loop = Loop("r", {"a": 4, "b": 4, "x": 4},
                    [Store("a", Affine(), Read("b", index))])
        assert scalar_reference(loop, {"a": [5]}, 0) == {"a": [5]}
        with pytest.raises(KeyError, match="b"):
            scalar_reference(loop, {"a": [5], "x": [0]}, 1)

    def test_missing_store_target_raises_when_evaluated(self):
        loop = Loop("s", {"a": 4, "b": 4},
                    [Store("b", Affine(), Read("a", Affine()))])
        assert scalar_reference(loop, {"a": [5]}, 0) == {"a": [5]}
        with pytest.raises(KeyError, match="b"):
            scalar_reference(loop, {"a": [5]}, 1)


# ---------------------------------------------------------------------------
# the compiled oracle against the tree walker it replaced
# ---------------------------------------------------------------------------


def _suite_cases():
    from repro.workloads import all_loops

    return [
        pytest.param(spec, id=f"{workload.name}/{spec.name}")
        for workload, spec in all_loops()
    ]


@pytest.mark.parametrize("spec", _suite_cases())
def test_compiled_oracle_matches_tree_walker_on_suite_loop(spec):
    arrays = spec.arrays(0)
    assert scalar_reference(spec.loop, arrays, spec.n, params=spec.params) \
        == walk_reference(spec.loop, arrays, spec.n, params=spec.params)


@pytest.mark.parametrize("seed,knobs", KERNEL_CASES)
def test_compiled_oracle_matches_tree_walker_on_generated_kernel(seed, knobs):
    spec = generate_kernel(seed, knobs).spec
    arrays = spec.arrays(FuzzConfig().seed)
    assert scalar_reference(spec.loop, arrays, spec.n, params=spec.params) \
        == walk_reference(spec.loop, arrays, spec.n, params=spec.params)
