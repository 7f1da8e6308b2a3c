"""Unit tests for the architectural-state container."""

import pytest

from repro.emu.state import ArchState
from repro.isa import p, v, x


class TestScalarRegisters:
    def test_read_write_signed(self):
        state = ArchState()
        state.write_scalar(x(3), -42)
        assert state.read_scalar(x(3)) == -42

    def test_64bit_wraparound(self):
        state = ArchState()
        state.write_scalar(x(1), 2**64 + 5)
        assert state.read_scalar(x(1)) == 5
        state.write_scalar(x(1), 2**63)
        assert state.read_scalar(x(1)) == -(2**63)

    def test_operand_reading(self):
        from repro.isa import imm

        state = ArchState()
        state.write_scalar(x(2), 7)
        assert state.read_operand(x(2)) == 7
        assert state.read_operand(imm(-3)) == -3

    def test_initial_zero(self):
        state = ArchState()
        assert all(state.read_scalar(x(i)) == 0 for i in range(32))


class TestVectorRegisters:
    def test_lane_roundtrip_per_elem(self):
        state = ArchState()
        only_lane3 = [i == 3 for i in range(16)]
        for elem in (1, 2, 4, 8):
            state.write_row(v(0), [-1] * 16, only_lane3, elem)
            assert state.read_lane(v(0), 3, elem) == -1
            assert state.read_lane(v(0), 3, elem, signed=False) == (
                (1 << (8 * elem)) - 1
            )
            row = state.signed_row(v(0), elem)
            assert row[3] == -1 and row[2] == 0
            assert state.unsigned_row(v(0), elem)[3] == (1 << (8 * elem)) - 1

    def test_rows_are_lists_of_wrapped_ints(self):
        state = ArchState()
        state.write_row(v(4), [-2, 2**40 + 3] * 8, None, 4)
        assert state.vector[4] == [2**32 - 2, 3] * 8
        assert state.signed_row(v(4), 4) == [-2, 3] * 8
        assert state.signed_row(v(4), 1) == [-2, 3] * 8
        assert state.unsigned_row(v(4), 2) == [2**16 - 2, 3] * 8

    def test_masked_write_merges(self):
        state = ArchState()
        state.write_row(v(1), [10] * 16, None, 4)
        mask = [i % 2 == 0 for i in range(16)]
        state.write_row(v(1), [99] * 16, mask, 4)
        got = state.read_vector(v(1))
        assert got == [99 if i % 2 == 0 else 10 for i in range(16)]

    def test_narrow_write_wraps(self):
        state = ArchState()
        state.write_row(v(2), [256 + 7] * 16, [True] * 16, 1)
        assert state.read_lane(v(2), 0, 1) == 7

    def test_read_vector_returns_copy(self):
        state = ArchState()
        got = state.read_vector(v(3))
        got[0] = 5
        assert state.read_vector(v(3))[0] == 0


class TestPredicates:
    def test_read_write(self):
        state = ArchState()
        mask = [i < 5 for i in range(16)]
        state.write_pred(p(1), mask)
        assert state.read_pred(p(1)) == mask

    def test_wrong_width_rejected(self):
        state = ArchState()
        with pytest.raises(ValueError):
            state.write_pred(p(1), [True] * 8)

    def test_effective_mask_none_is_all(self):
        # an op's lane mask is its predicate ANDed with the region's: no
        # predicate and no region mask means every lane, spelled None
        from repro.emu.interpreter import _lane_mask

        assert _lane_mask(None, None) is None
        row = [i < 5 for i in range(16)]
        assert _lane_mask(row, None) == row
        region = [i % 2 == 0 for i in range(16)]
        assert _lane_mask(None, region) == region
        assert _lane_mask(row, region) == [
            i < 5 and i % 2 == 0 for i in range(16)
        ]

    def test_read_returns_copy(self):
        state = ArchState()
        state.write_pred(p(2), [True] * 16)
        got = state.read_pred(p(2))
        got[0] = False
        assert state.read_pred(p(2))[0] is True

    def test_write_stores_plain_bools(self):
        state = ArchState()
        state.write_pred(p(3), [i % 3 for i in range(16)])
        assert state.pred[3] == [i % 3 != 0 for i in range(16)]
        assert all(type(bit) is bool for bit in state.pred[3])


class TestSnapshots:
    def test_snapshot_holds_plain_tuples(self):
        state = ArchState(lanes=4)
        state.write_scalar(x(1), -1)
        state.write_row(v(2), [1, -1, 2, 3], None, 2)
        state.write_pred(p(1), [True, False, True, False])
        scalar, vector, pred = state.registers_snapshot()
        assert scalar[1] == 2**64 - 1
        assert vector[2] == (1, 2**16 - 1, 2, 3)
        assert pred[1] == (True, False, True, False)
        assert pred[0] == (False,) * 4

    def test_snapshot_detects_changes(self):
        state = ArchState()
        before = state.registers_snapshot()
        state.write_scalar(x(5), 1)
        assert state.registers_snapshot() != before

    def test_custom_lane_count(self):
        state = ArchState(lanes=4)
        assert len(state.read_vector(v(0))) == 4
        assert state.read_pred(p(0)) == [False] * 4
