"""SRV memory-disambiguation microarchitecture (paper section IV)."""

from repro.lsu.alignment import RegionChunk, align_base, align_offset, chunks_for_access
from repro.lsu.entries import AccessType, LsuEntry
from repro.lsu.horizontal import (
    forwardable_mask,
    hob_and_forwardable,
    hob_for_pair,
    horizontal_violation_vector,
    may_violate,
    overall_hob,
    replay_lanes_from_hob,
)
from repro.lsu.unit import LoadIssueResult, LoadStoreUnit, LsuCounters, StoreIssueResult
from repro.lsu.vertical import vob_for_pair

__all__ = [
    "RegionChunk",
    "align_base",
    "align_offset",
    "chunks_for_access",
    "AccessType",
    "LsuEntry",
    "forwardable_mask",
    "hob_and_forwardable",
    "hob_for_pair",
    "horizontal_violation_vector",
    "may_violate",
    "overall_hob",
    "replay_lanes_from_hob",
    "LoadIssueResult",
    "LoadStoreUnit",
    "LsuCounters",
    "StoreIssueResult",
    "vob_for_pair",
]
