"""Tests for the pipeline's per-cycle issue ports."""

import pytest

from repro.pipeline.resources import PortPool


class TestPortPool:
    def test_slots_within_limit_share_cycle(self):
        pool = PortPool({"load": 2})
        assert pool.reserve("load", 5) == 5
        assert pool.reserve("load", 5) == 5
        assert pool.reserve("load", 5) == 6  # third load spills to next cycle

    def test_later_ready_time_respected(self):
        pool = PortPool({"store": 1})
        assert pool.reserve("store", 3) == 3
        assert pool.reserve("store", 10) == 10

    def test_backfill_not_allowed_before_ready(self):
        pool = PortPool({"store": 1})
        pool.reserve("store", 5)
        assert pool.reserve("store", 4) == 4  # earlier cycle still free

    def test_kinds_isolated(self):
        pool = PortPool({"load": 1, "store": 1})
        assert pool.reserve("load", 2) == 2
        assert pool.reserve("store", 2) == 2

    def test_invalid_limit(self):
        with pytest.raises(ValueError):
            PortPool({"load": 0})

    def test_usage_query(self):
        pool = PortPool({"load": 2})
        pool.reserve("load", 7)
        assert pool.usage_at("load", 7) == 1
        assert pool.usage_at("load", 8) == 0
